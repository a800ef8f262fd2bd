"""Horadam parameter sets and exact term evaluation.

The sequence w(a,b;p,q) follows w_n = p*w_{n-1} - q*w_{n-2} with w_0 = a,
w_1 = b; backward extension divides by q, so q != 0 keeps every integer
index reachable. u = w(0,1;p,q) and v = w(2,p;p,q) are the first- and
second-kind specializations, read off the same term cache since they share
p and q. Scalars are `Fraction` (over Q) or `ModInt` (over GF(M)), and
`HoradamParams.modulus` names the field: M, or None over Q.

Three independent evaluation strategies are provided: plain iteration
(`term`, and `term_range` reading the same walk off a `TermContext`), index
doubling in O(log n) steps (`fast_uv`, u_n and v_n for n >= 0), and the
Binet closed form, whose root powers in Q(sqrt(p^2-4q)) are raised as
integer pairs (`binet_term`).

All three run on one fraction-free integer kernel, `_kernel`. Over Q, with
L = lcm(den p, den q), P = p*L, Q = q*L^2 and D the seeds' common
denominator, X_n = L^n*D*x_n obeys X_n = P*X_{n-1} - Q*X_{n-2} over int,
so the walk does no gcd. `term` builds one `Fraction` per returned term;
`TermContext` caches each term as the pair itself (a `Ratio`) and reduces
it only when a public accessor returns it. Over GF(M) the same recurrence
runs on the residues, reduced each step. A negative index walks the
reversed recurrence y_k = x_{-k}, with coefficients (p/q, 1/q) and seeds
(x_0, x_{-1}), so no step divides.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Optional

from .errors import DegenerateRoot, EmptyRange
from .field import ModInt, Ratio, reduced


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
    of types or moduli: all four must share one field. `modulus` is derived
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
        object.__setattr__(self, "modulus", moduli.pop())
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
    form `Fraction` would give; over GF(M) with q's inverse, or NonInvertible.
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
        for _ in range(steps):
            X0, X1 = X1, (P * X1 - Q * X0) % M
        return ModInt(X0, M)
    for _ in range(steps):
        X0, X1 = X1, P * X1 - Q * X0
    return Fraction(X0, L ** steps * D)


def term_range(params: HoradamParams, kind: SequenceKind, lo: int, hi: int) -> list:
    """Terms lo..hi inclusive, read off one fresh TermContext."""
    if lo > hi:
        raise EmptyRange(f"lo={lo} > hi={hi}")
    ctx = TermContext(params)
    return [reduced(ctx._get(kind, n)) for n in range(lo, hi + 1)]


def fast_uv(params: HoradamParams, n: int):
    """(u_n, v_n) in O(log n) doubling steps.

    Carries the pair (U_k, U_{k+1}) through the bits of n, using
    U_{2k} = U_k*(2*U_{k+1} - P*U_k) and U_{2k+1} = U_{k+1}^2 - Q*U_k^2;
    V_n = 2*U_{n+1} - P*U_n at the end. The formulas are homogeneous, so
    they run over int on the scaled coefficients (P, Q) of `_kernel`, and
    u_n = U_n/L^(n-1), v_n = V_n/L^n; over GF(M) every step is reduced.
    """
    if n < 0:
        raise ValueError("fast_uv requires n >= 0")
    P, Q, _, _, L, _, M = _kernel(params, U, False)
    uk, uk1 = 0, 1
    for i in range(n.bit_length() - 1, -1, -1):
        u2 = uk * (2 * uk1 - P * uk)
        u21 = uk1 * uk1 - Q * uk * uk
        if (n >> i) & 1:
            uk, uk1 = u21, P * u21 - Q * u2
        else:
            uk, uk1 = u2, u21
        if M:
            uk, uk1 = uk % M, uk1 % M
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
        self._scalars = _ratio(params.p), _ratio(params.q)
        self._vals = {}     # kind -> {index: scalar} over one contiguous index run
        for kind in (U, V, W):     # a tuple iterates faster than the Enum
            x0, x1 = params.seeds(kind)
            self._vals[kind] = {0: _ratio(x0), 1: _ratio(x1)}
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
