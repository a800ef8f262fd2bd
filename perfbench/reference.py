"""Independent exact reference paths used to confirm library results.

Nothing here calls a term evaluator of the library. Terms come from a 2x2
matrix power over Python ints (fraction-free over Q, reduced modulo M over
GF(M)), and every kind and index is derived from u alone:

    v_n = 2*u_{n+1} - p*u_n,    w_n = b*u_n - a*q*u_{n-1}   (lin.9)
    u_{-n} = -u_n / q^n                                      (reflection)

The library iterates w directly and reaches negative indices by backward
division, so agreement between the two is evidence, not a tautology.
"""
from __future__ import annotations

from fractions import Fraction


def _mat_mul(x, y, mod):
    a = x[0] * y[0] + x[1] * y[2]
    b = x[0] * y[1] + x[1] * y[3]
    c = x[2] * y[0] + x[3] * y[2]
    d = x[2] * y[1] + x[3] * y[3]
    if mod:
        return (a % mod, b % mod, c % mod, d % mod)
    return (a, b, c, d)


def _u_triplet(P, Q, m, mod=None):
    """(U_{m-1}, U_m, U_{m+1}) for m >= 1 of U_n = P*U_{n-1} - Q*U_{n-2},
    U_0 = 0, U_1 = 1, read off [[P, -Q], [1, 0]]^m."""
    out = (1, 0, 0, 1)
    base = (P, -Q, 1, 0)
    e = m
    while e:
        if e & 1:
            out = _mat_mul(out, base, mod)
        base = _mat_mul(base, base, mod)
        e >>= 1
    # M^m = [[U_{m+1}, -Q*U_m], [U_m, -Q*U_{m-1}]]
    u_next, u_m, neg_q_u_prev = out[0], out[2], out[3]
    if mod:
        u_prev = -neg_q_u_prev * pow(Q, -1, mod) % mod
    else:
        u_prev, rem = divmod(-neg_q_u_prev, Q)
        if rem:
            raise ArithmeticError("matrix power lost exactness")
    return u_prev, u_m, u_next


def _u_window_q(p: Fraction, q: Fraction, n: int) -> dict:
    """{i: u_i} for i in (n-1, n, n+1), exact over Q, any integer n."""
    L = p.denominator * q.denominator
    P, Q = int(p * L), int(q * L * L)
    m = max(1, abs(n))
    trip = _u_triplet(P, Q, m)
    # u_i = U_i / L^(i-1) for i >= 0
    pos = {m - 1 + j: Fraction(U) / Fraction(L) ** (m - 2 + j)
           for j, U in enumerate(trip)}
    out = {}
    for i in (n - 1, n, n + 1):
        out[i] = pos[i] if i >= 0 else -pos[-i] / q ** (-i)
    return out


def term_q(p: Fraction, q: Fraction, a: Fraction, b: Fraction,
           kind: str, n: int) -> Fraction:
    """Exact n-th term of u, v or w (kind 'u'/'v'/'w') over Q."""
    u = _u_window_q(p, q, n)
    if kind == "u":
        return u[n]
    if kind == "v":
        return 2 * u[n + 1] - p * u[n]
    return b * u[n] - a * q * u[n - 1]


def to_mod(x: Fraction, M: int) -> int:
    return x.numerator * pow(x.denominator, -1, M) % M


def term_mod(p: int, q: int, a: int, b: int, kind: str, n: int, M: int) -> int:
    """n-th term (n >= 0) over GF(M); p, q, a, b are residues."""
    u_prev, u_n, u_next = _u_triplet(p, q, max(1, n), M)
    if n == 0:
        u_prev, u_n, u_next = -pow(q, -1, M) % M, 0, 1
    if kind == "u":
        return u_n
    if kind == "v":
        return (2 * u_next - p * u_n) % M
    return (b * u_n - a * q * u_prev) % M


class RefTerms:
    """Accessor with TermContext's interface (u, v, w, qp, p, q, a, b, disc)
    for small indices, built on the reference formulas above."""

    def __init__(self, p: Fraction, q: Fraction, a: Fraction, b: Fraction):
        self.p, self.q, self.a, self.b = p, q, a, b
        self.disc = p * p - 4 * q
        self._u = [Fraction(0), Fraction(1)]

    def u(self, n: int) -> Fraction:
        m = abs(n)
        us = self._u
        while len(us) <= m:
            us.append(self.p * us[-1] - self.q * us[-2])
        return us[m] if n >= 0 else -us[m] / self.q ** m

    def v(self, n: int) -> Fraction:
        return 2 * self.u(n + 1) - self.p * self.u(n)

    def w(self, n: int) -> Fraction:
        return self.b * self.u(n) - self.a * self.q * self.u(n - 1)

    def qp(self, e: int) -> Fraction:
        return self.q ** e
