"""Horadam parameter sets and exact term evaluation.

The sequence w(a,b;p,q) follows w_n = p*w_{n-1} - q*w_{n-2} with w_0 = a,
w_1 = b; backward extension divides by q, so q != 0 keeps every integer
index reachable. u = w(0,1;p,q) and v = w(2,p;p,q) are the first- and
second-kind specializations, read off the same term cache since they share
p and q. Scalars are `Fraction` (over Q) or `ModInt` (over GF(M)), and
`HoradamParams.modulus` names the field: M, or None over Q.

Three independent evaluation strategies are provided: plain iteration
(`term`, and `term_range` reading the same walk off a `TermContext`), index
doubling in O(log |n|) steps (`doubling_term` for any kind and sign, and
`fast_uv`, u_n and v_n for n >= 0), and the Binet closed form, whose root
powers in Q(sqrt(p^2-4q)) are raised as integer pairs (`binet_term`).

All three run on one fraction-free integer kernel, `_kernel`. Over Q, with
L = lcm(den p, den q), P = p*L, Q = q*L^2 and D the seeds' common
denominator, X_n = L^n*D*x_n obeys X_n = P*X_{n-1} - Q*X_{n-2} over int,
so the walk does no gcd. `term` builds one `Fraction` per returned term;
`TermContext` caches each term as the pair itself (a `Ratio`) and reduces
it only when a public accessor returns it. Over GF(M) the same recurrence
runs on the residues, reduced each step; `term` walks it with -Q in place
of Q, so every residue it forms is non-negative. A negative index walks the
reversed recurrence y_k = x_{-k}, with coefficients (p/q, 1/q) and seeds
(x_0, x_{-1}), so no step divides. `doubling_term` doubles on u of the
same kernel, forward or reversed, and turns (u_{m-1}, u_m) into the term by
lin.9, w_m = x_1*u_m - q*x_0*u_{m-1}, over the kernel's integers: one
reduction per term.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Optional

from .errors import CompositeModulus, DegenerateRoot, EmptyRange
from .field import ModInt, Ratio, is_prime, reduced


class SequenceKind(enum.Enum):
    U = "u"
    V = "v"
    W = "w"

    # members are singletons, so identity hashing agrees with equality and
    # keeps Enum's Python-level __hash__ off TermContext's lookup path
    __hash__ = object.__hash__


U, V, W = SequenceKind.U, SequenceKind.V, SequenceKind.W


def _coerce(x):
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, (Fraction, ModInt)):
        return x
    raise ValueError(f"a Horadam parameter must be an int or str (coerced to Fraction), "
                     f"a Fraction or a ModInt, got {type(x).__name__} {x!r}")


_ZERO, _ONE, _TWO = Fraction(0), Fraction(1), Fraction(2)


@dataclass(frozen=True)
class HoradamParams:
    """The tuple (a, b, p, q) over Q (`Fraction`; ints and strings are
    coerced) or over GF(M) (`ModInt`, one prime M); p and q must be nonzero.
    ValueError for any other scalar type (float, Decimal, ...) and for a mix
    of types or moduli: all four must share one field; CompositeModulus for
    a composite M, where a nonzero q can lack an inverse. `modulus` is derived
    from them (M, or None over Q) and compared by ==, since a ModInt equals
    every rational of its residue class; it is not in the hash or the repr."""

    a: Any
    b: Any
    p: Any
    q: Any
    modulus: Optional[int] = field(init=False, repr=False, hash=False)

    def __post_init__(self):
        values = tuple(map(_coerce, (self.a, self.b, self.p, self.q)))
        moduli = {getattr(x, "modulus", None) for x in values}
        if len(moduli) > 1:
            raise ValueError("a, b, p and q must share one field (all rational, or all "
                             f"ModInt of one modulus), got {values!r}")
        for name, x in zip(("a", "b", "p", "q"), values):
            object.__setattr__(self, name, x)
        M = moduli.pop()
        if M and not is_prime(M):
            raise CompositeModulus(f"{M} is not prime")
        object.__setattr__(self, "modulus", M)
        if self.p == 0:
            raise ValueError("p must be nonzero")
        if self.q == 0:
            raise ValueError("q must be nonzero")

    def seeds(self, kind: SequenceKind):
        """Initial pair (x_0, x_1) for the requested kind."""
        if kind is SequenceKind.W:
            return self.a, self.b
        M = self.modulus
        if kind is SequenceKind.U:
            return (ModInt(0, M), ModInt(1, M)) if M else (_ZERO, _ONE)
        return (ModInt(2, M) if M else _TWO), self.p

    @property
    def discriminant(self):
        return self.p * self.p - 4 * self.q


PRESETS = {
    "fibonacci": HoradamParams(0, 1, 1, -1),
    "lucas": HoradamParams(2, 1, 1, -1),
    "pell": HoradamParams(0, 1, 2, -1),
}


def _kernel(params: HoradamParams, kind: SequenceKind, backward: bool):
    """(P, Q, X0, X1, L, D, M): (p, q) and the kind's seeds as integers, for
    the walk from index 0, forward or along the reversed recurrence
    y_k = x_{-k}. Over Q, L = lcm(den p, den q), P = p*L, Q = q*L^2,
    D = lcm(den x_0, den x_1) and X_k = L^k*D*x_k; over GF(M), the residues,
    L = D = 1 and M = params.modulus.

    The reversed recurrence has coefficients p/q = P*L/Q and 1/q = L^2/Q and
    seed x_{-1} = (p*x_0 - x_1)/q: over Q derived with gcds, in the reduced
    form `Fraction` would give; over GF(M) with q's inverse, which exists
    since M is prime and q nonzero.
    """
    x0, x1 = params.seeds(kind)
    p, q, M = params.p, params.q, params.modulus
    if M:
        P, Q, X0, X1 = p.value, q.value, x0.value, x1.value
        if backward:
            inv = (q ** -1).value
            P, Q, X1 = P * inv % M, inv, (P * X0 - X1) * inv % M
        return P, Q, X0, X1, 1, 1, M
    L = math.lcm(p.denominator, q.denominator)
    P, Q = p.numerator * (L // p.denominator), q.numerator * (L * L // q.denominator)
    n0, d0 = x0.numerator, x0.denominator
    D = math.lcm(d0, x1.denominator)
    X0, X1 = n0 * (D // d0), x1.numerator * (L * D // x1.denominator)
    if not backward:
        return P, Q, X0, X1, L, D, None
    # Lr: the lowest common denominator of P*L/Q and L^2/Q
    Lr = abs(Q) // math.gcd(P * L, L * L, Q)
    n1, d1 = (P * X0 - X1) * L, D * Q
    h = math.gcd(n1, d1) if Q > 0 else -math.gcd(n1, d1)    # leaves d1 > 0
    n1, d1 = n1 // h, d1 // h
    Dr = math.lcm(d0, d1)
    return (P * L * Lr // Q, L * L * Lr * Lr // Q, n0 * (Dr // d0), n1 * (Lr * Dr // d1),
            Lr, Dr, None)


def term(params: HoradamParams, kind: SequenceKind, n: int):
    """Exact n-th term by iteration; negative n walks the reversed recurrence."""
    P, Q, X0, X1, L, D, M = _kernel(params, kind, n < 0)
    steps = abs(n)
    if M:
        Q = M - Q   # x_{k+2} = P*x_{k+1} + (M - Q)*x_k: every residue non-negative
        for _ in range(steps >> 1):
            X0 = (P * X1 + Q * X0) % M
            X1 = (P * X0 + Q * X1) % M
        return ModInt(X1 if steps & 1 else X0, M)
    for _ in range(steps):
        X0, X1 = X1, P * X1 - Q * X0
    return Fraction(X0, L ** steps * D)


def term_range(params: HoradamParams, kind: SequenceKind, lo: int, hi: int) -> list:
    """Terms lo..hi inclusive, read off one fresh TermContext."""
    if lo > hi:
        raise EmptyRange(f"lo={lo} > hi={hi}")
    ctx = TermContext(params)
    return [reduced(ctx._get(kind, n)) for n in range(lo, hi + 1)]


def _ladder(P: int, Q: int, m: int, M: Optional[int]):
    """(U'_{m-1}, U'_m) for m >= 1 in O(log m) doubling steps, where
    U'_0 = 0, U'_1 = 1 and U'_{k+1} = P*U'_k - Q*U'_{k-1} over int, or mod M.

    On `_kernel`'s (P, Q) this is U'_k = L^(k-1)*u_k, not the kernel's
    X_k = L^k*D*x_k scaling, so a caller divides U'_k by L^(k-1). The pair
    (U'_{k-1}, U'_k) doubles to U'_{2k-1} = U'_k^2 - Q*U'_{k-1}^2 and
    U'_{2k} = U'_k*(P*U'_k - 2*Q*U'_{k-1}), and one recurrence step takes it
    to (U'_{2k}, U'_{2k+1}) on a set bit of m.
    """
    um1, um = 0, 1      # k = 1, the top bit of m
    for i in range(m.bit_length() - 2, -1, -1):
        u2m1 = um * um - Q * um1 * um1
        u2m = um * (P * um - 2 * Q * um1)
        if (m >> i) & 1:
            um1, um = u2m, P * u2m - Q * u2m1
        else:
            um1, um = u2m1, u2m
        if M:
            um1, um = um1 % M, um % M
    return um1, um


def doubling_term(params: HoradamParams, kind: SequenceKind, n: int):
    """Exact n-th term in O(log |n|) doubling steps, for any kind and sign.

    lin.9, x_m = x_1*u_m - q*x_0*u_{m-1}, on the kernel of the walk toward n
    (the reversed recurrence for n < 0, as in `term`), with (U'_{m-1}, U'_m)
    for m = |n| from `_ladder`. Over the kernel's integers
    X_1*U'_m - Q*X_0*U'_{m-1} = L^m*D*x_m, so the term is one reduction.
    """
    if n == 0:
        return params.seeds(kind)[0]
    P, Q, X0, X1, L, D, M = _kernel(params, kind, n < 0)
    m = abs(n)
    um1, um = _ladder(P, Q, m, M)
    top = X1 * um - Q * X0 * um1
    if M:
        return ModInt(top, M)
    return Fraction(top, L ** m * D)


def fast_uv(params: HoradamParams, n: int):
    """(u_n, v_n) in O(log n) doubling steps.

    Takes (U'_n, U'_{n+1}) from `_ladder` on the scaled coefficients (P, Q)
    of `_kernel`, and V'_n = 2*U'_{n+1} - P*U'_n; then u_n = U'_n/L^(n-1)
    and v_n = V'_n/L^n, or over GF(M) the residues.
    """
    if n < 0:
        raise ValueError("fast_uv requires n >= 0")
    P, Q, _, _, L, _, M = _kernel(params, U, False)
    uk, uk1 = _ladder(P, Q, n + 1, M)
    vk = 2 * uk1 - P * uk
    if M:
        return ModInt(uk, M), ModInt(vk, M)
    scale = L ** n
    return Fraction(uk * L, scale), Fraction(vk, scale)


def _quad_pow(x: int, d: int, e: int):
    """(x + sqrt(d))^e for e >= 0, as the integer pair (c0, c1) of c0 + c1*sqrt(d)."""
    c0, c1 = 1, 0
    for i in range(e.bit_length() - 1, -1, -1):
        c0, c1 = c0 * c0 + c1 * c1 * d, 2 * c0 * c1
        if (e >> i) & 1:
            c0, c1 = c0 * x + c1 * d, c0 + c1 * x
    return c0, c1


def binet_term(params: HoradamParams, kind: SequenceKind, n: int):
    """n-th term assembled from exact root powers in Q(sqrt(p^2-4q)).

    Requires rational parameters with distinct roots (p^2 - 4q != 0).
    alpha = (P + sqrt(d'))/(2L) with d' = P^2 - 4Q, so its power comes from
    the integer pair E = (P + sqrt(d'))^|n| and beta's by conjugation. With
    C = 2LD*c_alpha = (2*X1 - P*X0) + X0*sqrt(d') and c_beta its conjugate,
    the term (c_alpha*alpha^n - c_beta*beta^n)/(alpha - beta) is the
    sqrt(d')-component of C*E over one integer scale; the rational
    components cancel, so neither is computed.
    """
    if params.modulus:
        raise TypeError("binet_term needs rational parameters")
    if params.discriminant == 0:
        raise DegenerateRoot(f"p^2 - 4q = 0 for p={params.p}, q={params.q}")
    P, Q, X0, X1, L, D, _ = _kernel(params, kind, False)
    m = abs(n)
    e0, e1 = _quad_pow(P, P * P - 4 * Q, m)     # E = (P + sqrt(d'))^m
    if n < 0:   # alpha^-m = beta^m/q^m = conj(E)*L^m/(2Q)^m
        e1, top, bottom = -e1, L ** m, (2 * Q) ** m
    else:       # alpha^m = E/(2L)^m
        top, bottom = 1, (2 * L) ** m
    # C*E - conj(C*E) = 2*(c0*e1 + c1*e0)*sqrt(d'), and alpha - beta = sqrt(d')/L
    c0, c1 = 2 * X1 - P * X0, X0
    return Fraction((c0 * e1 + c1 * e0) * top, D * bottom)


def _ratio(x):
    """A Fraction as the checkers' Ratio; a ModInt as is."""
    return Ratio(x.numerator, x.denominator) if isinstance(x, Fraction) else x


# u's seeds and v's x_0 over Q as Ratio pairs, shared by every context: a
# Ratio is immutable
_RATIO_SEEDS = Ratio(0, 1), Ratio(1, 1), Ratio(2, 1)


class Terms:
    """The checkers' accessor over one TermContext with w read as `kind`:
    u, v, w, qp, p, q, and a, b = that kind's x_0, x_1, on the cached scalars
    themselves (`Ratio` over Q, not reduced). u, v and w are
    `partial(ctx._get, kind)`, so every term read goes through
    `TermContext._get`. The context keeps no reference to it: a cached
    accessor would close a reference cycle, and the cache would then outlive
    its last user until a full garbage collection."""

    __slots__ = ("u", "v", "w", "qp", "p", "q", "a", "b")

    def __init__(self, ctx: "TermContext", kind: SequenceKind):
        get = ctx._get
        self.u, self.v, self.w = partial(get, U), partial(get, V), partial(get, kind)
        self.qp = ctx._qpow
        self.p, self.q = ctx._scalars
        seeds = ctx._vals[kind]
        self.a, self.b = seeds[0], seeds[1]


class TermContext:
    """Cached u/v/w accessors for one parameter set.

    Purely an optimization: results are identical to term(). Each kind
    keeps the integer state of `term`'s kernel for the walk in each
    direction, and caches every term it passes as one scalar: over Q the
    unreduced `Ratio(X_k, L^k*D)` read straight off the walk, over GF(M) a
    `ModInt`. The public accessors u, v, w and qp return what term() does,
    a reduced `Fraction` (one gcd per call) or a `ModInt`. `Terms(ctx, kind)`
    is the checkers' accessor over the cached scalars themselves; the catalog
    and theorem engines evaluate on it and reduce each reported value once.
    Not synchronized; confine an instance to a single thread of work.
    """

    __slots__ = ("params", "_scalars", "_vals", "_walks", "_qpows")

    def __init__(self, params: HoradamParams):
        self.params = params
        p = _ratio(params.p)
        self._scalars = p, _ratio(params.q)
        M = params.modulus
        zero, one, two = (ModInt(0, M), ModInt(1, M), ModInt(2, M)) if M else _RATIO_SEEDS
        # kind -> {index: scalar} over one contiguous index run; u and v
        # seed as `seeds` gives, v's x_1 being p itself
        self._vals = {U: {0: zero, 1: one}, V: {0: two, 1: p},
                      W: {0: _ratio(params.a), 1: _ratio(params.b)}}
        # (kind, step) -> [P, Q, L, M, X_{k-1}, X_k, L^k*D, k], step 1 forward
        # and -1 backward, k the walk's signed end index
        self._walks = {}
        self._qpows = {}

    def _walk(self, kind: SequenceKind, step: int) -> list:
        P, Q, X0, X1, L, D, M = _kernel(self.params, kind, step < 0)
        if step < 0:     # the reversed walk starts at y_1 = x_{-1}
            self._vals[kind][-1] = ModInt(X1, M) if M else Ratio(X1, L * D)
        # a new walk ends at index step: x_1, or x_{-1} on the reversed walk
        self._walks[kind, step] = walk = [P, Q, L, M, X0, X1, L * D, step]
        return walk

    def _get(self, kind: SequenceKind, n: int):
        vals = self._vals[kind]
        if n in vals:
            return vals[n]
        step = 1 if n > 1 else -1
        walk = self._walks.get((kind, step)) or self._walk(kind, step)
        P, Q, L, M, X0, X1, scale, end = walk
        indices = range(end + step, n + step, step)
        if M:
            for i in indices:
                X0, X1 = X1, (P * X1 - Q * X0) % M
                vals[i] = ModInt(X1, M)
        else:
            for i in indices:
                X0, X1 = X1, P * X1 - Q * X0
                scale *= L
                vals[i] = Ratio(X1, scale)
        walk[4:] = X0, X1, scale, n
        return vals[n]

    def _qpow(self, e: int):
        val = self._qpows.get(e)
        if val is None:
            val = self._qpows[e] = self._scalars[1] ** e
        return val

    def u(self, n: int):
        return reduced(self._get(SequenceKind.U, n))

    def v(self, n: int):
        return reduced(self._get(SequenceKind.V, n))

    def w(self, n: int):
        return reduced(self._get(SequenceKind.W, n))

    def qp(self, e: int):
        """q**e, memoized."""
        return reduced(self._qpow(e))
