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
so the walk does no gcd. The kernel has two parts: the parameter set's
coefficients for both directions (`_coefficients`), and one kind's seeds
on them (`_seeded`). `term` builds one `Fraction` per returned term;
`TermContext` derives the coefficients once, from the integer pairs of p
and q, and each kind's seeds on the first walk in each direction; it
caches each term as the pair itself (a `Ratio`) and reduces it only when a
public accessor returns it. Each kind's cache is a dict, `_Run`, whose
`__missing__` walks toward a missing index, so a cached read is one
subscript with no Python frame. Over GF(M) the same recurrence
runs on the residues, reduced each step; `term` walks it with M - Q in
place of -Q, so every residue it forms is non-negative. From |n| >= 3*S
(S = `_BLOCK`, 64) `term` advances S indices per step, by the S-step
transition that S single steps from the two unit seeds give: the same
iteration, grouped, each block reduced mod M over GF(M) and kept on the
fraction-free integers over Q. A negative index walks the
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
from operator import attrgetter
from typing import Any, Optional

from .errors import CompositeModulus, DegenerateRoot, EmptyRange, require_int
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


def _coefficients(pn: int, pd: int, qn: int, qd: int, M: Optional[int]) -> tuple:
    """(P, Q, L, P_r, Q_r, L_r, M): one parameter set's integer coefficients
    for the walk from index 0 in either direction, from p = pn/pd and
    q = qn/qd in lowest terms (pd, qd > 0). Forward, L = lcm(pd, qd),
    P = p*L and Q = q*L^2. The reversed recurrence y_k = x_{-k} has
    coefficients p/q = P*L/Q and 1/q = L^2/Q; L_r is their lowest common
    denominator, P_r = L_r*p/q and Q_r = L_r^2/q. Over GF(M), pn and qn are
    the residues (pd = qd = 1), P_r is p/q, Q_r is q's inverse, which
    exists since M is prime and q nonzero, and L = L_r = 1.

    It depends on p and q alone, so a `TermContext` derives it once for
    every kind and direction; `_kernel` derives it per call."""
    if M:
        inv = pow(qn, -1, M)
        return pn, qn, 1, pn * inv % M, inv, 1, M
    L = math.lcm(pd, qd)
    P, Q = pn * (L // pd), qn * (L * L // qd)
    Lr = abs(Q) // math.gcd(P * L, L * L, Q)
    return P, Q, L, P * L * Lr // Q, L * L * Lr * Lr // Q, Lr, None


def _seeded(coefficients: tuple, n0: int, d0: int, n1: int, d1: int, backward: bool) -> tuple:
    """(P, Q, X0, X1, L, D, M): the walk from index 0, forward or reversed,
    on `_coefficients`' tuple and one kind's seeds x_0 = n0/d0 and
    x_1 = n1/d1 in lowest terms (over GF(M), the residues over 1).

    Over Q, D = lcm(d0, d1) and X_k = L^k*D*x_k. The reversed walk starts
    from x_0 and x_{-1} = (p*x_0 - x_1)/q, which is derived with gcds in the
    reduced form `Fraction` would give, with D_r = lcm(d0, den x_{-1}) and
    X_k = L_r^k*D_r*y_k. Over GF(M), x_{-1} is (p*x_0 - x_1) times q's
    inverse, and D = 1.
    """
    P, Q, L, Pr, Qr, Lr, M = coefficients
    if M:
        if backward:
            return Pr, Qr, n0, (P * n0 - n1) * Qr % M, 1, 1, M
        return P, Q, n0, n1, 1, 1, M
    D = math.lcm(d0, d1)
    X0, X1 = n0 * (D // d0), n1 * (L * D // d1)
    if not backward:
        return P, Q, X0, X1, L, D, None
    n1, d1 = (P * X0 - X1) * L, D * Q
    h = math.gcd(n1, d1)
    n1, d1 = n1 // h, d1 // h
    Dr = math.lcm(d0, d1)
    return Pr, Qr, n0 * (Dr // d0), n1 * (Lr * Dr // d1), Lr, Dr, None


def _kernel(params: HoradamParams, kind: SequenceKind, backward: bool) -> tuple:
    """(P, Q, X0, X1, L, D, M): `_seeded` on the parameters' `_coefficients`
    and the kind's seeds, for the walk from index 0, forward or along the
    reversed recurrence y_k = x_{-k}. The one derivation of the integer
    kernel: `term`, `doubling_term`, `fast_uv` and `binet_term` call it, and
    a `TermContext` runs its two parts apart, the coefficients once per
    context and the seeds once per kind and direction."""
    (x0, x1), M = params.seeds(kind), params.modulus
    if M:
        return _seeded(_coefficients(params.p.value, 1, params.q.value, 1, M),
                       x0.value, 1, x1.value, 1, backward)
    return _seeded(_coefficients(*params.p.as_integer_ratio(), *params.q.as_integer_ratio(), None),
                   *x0.as_integer_ratio(), *x1.as_integer_ratio(), backward)


# S, the indices one step of `term`'s blocked walk advances; even, so that
# `_transition`'s two-step loop ends on (X_S, X_{S+1}). Of S in {16, 32, 64,
# 128}, a timeit sweep on both fields (BENCH_22.json) put 64 fastest over
# GF(M) terms to |n| = 10^5 and Q terms to |n| = 1000 together.
_BLOCK = 64
# the least |n| `term` walks in blocks: below it, building the transition
# costs more than it saves
_BLOCKED_FROM = 3 * _BLOCK


def _transition(P: int, R: int, M: Optional[int]):
    """(a0, a1, b0, b1): S = `_BLOCK` single steps of X_{k+2} = P*X_{k+1} + R*X_k
    from each unit seed, (X_0, X_1) = (1, 0) ending at (a0, b0) and (0, 1) at
    (a1, b1), over int or reduced mod M each step. The recurrence is linear,
    so S steps take (X_k, X_{k+1}) to (a0*X_k + a1*X_{k+1}, b0*X_k + b1*X_{k+1})."""
    a0, b0, a1, b1 = 1, 0, 0, 1
    if M:
        for _ in range(_BLOCK >> 1):
            a0 = (P * b0 + R * a0) % M
            b0 = (P * a0 + R * b0) % M
            a1 = (P * b1 + R * a1) % M
            b1 = (P * a1 + R * b1) % M
    else:
        for _ in range(_BLOCK >> 1):
            a0 = P * b0 + R * a0
            b0 = P * a0 + R * b0
            a1 = P * b1 + R * a1
            b1 = P * a1 + R * b1
    return a0, a1, b0, b1


def term(params: HoradamParams, kind: SequenceKind, n: int):
    """Exact n-th term by iteration; negative n walks the reversed recurrence.

    The walk takes two single steps per pass of its loop. From
    |n| >= `_BLOCKED_FROM` = 3*S (S = `_BLOCK`) it first applies the S-step
    transition (`_transition`) |n| // S times. This groups the same steps S
    at a time, with no doubling formula and no lin.9, so `term` stays
    independent of `doubling_term`.
    """
    require_int("n", n)
    P, Q, X0, X1, L, D, M = _kernel(params, kind, n < 0)
    steps = abs(n)
    # x_{k+2} = P*x_{k+1} + R*x_k
    if M:
        R = M - Q   # every residue the walk forms is non-negative
        if steps >= _BLOCKED_FROM:
            a0, a1, b0, b1 = _transition(P, R, M)
            for _ in range(steps // _BLOCK):
                X0, X1 = (a0 * X0 + a1 * X1) % M, (b0 * X0 + b1 * X1) % M
            steps %= _BLOCK
        for _ in range(steps >> 1):
            X0 = (P * X1 + R * X0) % M
            X1 = (P * X0 + R * X1) % M
        return ModInt(X1 if steps & 1 else X0, M)
    R = -Q
    if steps >= _BLOCKED_FROM:
        a0, a1, b0, b1 = _transition(P, R, None)
        for _ in range(steps // _BLOCK):
            X0, X1 = a0 * X0 + a1 * X1, b0 * X0 + b1 * X1
        steps %= _BLOCK
    for _ in range(steps >> 1):
        X0 = P * X1 + R * X0
        X1 = P * X0 + R * X1
    return Fraction(X1 if steps & 1 else X0, L ** abs(n) * D)


def term_range(params: HoradamParams, kind: SequenceKind, lo: int, hi: int) -> list:
    """Terms lo..hi inclusive, read off one fresh TermContext."""
    require_int("lo", lo)
    require_int("hi", hi)
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
    require_int("n", n)
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
    require_int("n", n)
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
    require_int("n", n)
    if params.modulus:
        raise TypeError("binet_term needs rational parameters")
    if params.discriminant == 0:
        raise DegenerateRoot(f"p^2 - 4q = 0 for p={params.p}, q={params.q}")
    P, Q, X0, X1, L, D, _ = _kernel(params, kind, False)
    m = abs(n)
    e0, e1 = _quad_pow(P, P * P - 4 * Q, m)     # E = (P + sqrt(d'))^m
    # alpha^m = E/(2L)^m; alpha^-m = beta^m/q^m = conj(E)*L^m/(2Q)^m = conj(E)/(2Q/L)^m,
    # L dividing Q = q*L^2
    if n < 0:
        e1, base = -e1, Q // L
    else:
        base = L
    # C*E - conj(C*E) = 2*(c0*e1 + c1*e0)*sqrt(d'), and alpha - beta = sqrt(d')/L
    c0, c1 = 2 * X1 - P * X0, X0
    top = c0 * e1 + c1 * e0
    # shift the twos that top shares with the denominator's 2^m out before the one gcd
    twos = min(m, (top & -top).bit_length() - 1) if top else 0
    return Fraction(top >> twos, (D * base ** m) << (m - twos))


_new = object.__new__

# u's seeds and v's x_0 over Q as Ratio pairs, shared by every context: a
# Ratio is immutable
_RATIO_SEEDS = Ratio(0, 1), Ratio(1, 1), Ratio(2, 1)


class _Run(dict):
    """One kind's term cache: index -> scalar over one contiguous run of
    indices, seeded with x_0 and x_1. A read is a subscript, so a hit is one
    C-level dict lookup; a missing index extends the run by the walk toward
    it (`__missing__`). The walk state of each direction lives on the run:
    `forward` and `backward` are [P, Q, L, M, X_{k-1}, X_k, L^k*D, k], k the
    walk's signed end index, or None before that direction's first miss.
    A direction's first miss derives only the kind's seeds (`_seeded`), from
    the two it caches and the context's `coefficients`. The run keeps no
    reference to its context."""

    __slots__ = ("coefficients", "kind", "forward", "backward")

    def __init__(self, coefficients: tuple, kind: SequenceKind, x0, x1):
        self[0], self[1] = x0, x1
        self.coefficients, self.kind = coefficients, kind
        self.forward = self.backward = None

    def _start(self, step: int) -> list:
        """The state of a new walk in direction `step`, which ends at index
        step: x_1, or x_{-1} on the reversed walk, which this caches."""
        # the seeds by get, which takes no subscript: they are not term reads
        x0, x1 = self.get(0), self.get(1)
        if self.coefficients[-1]:   # M: the seeds are residues
            seeds = x0.value, 1, x1.value, 1
        else:
            seeds = x0.n, x0.d, x1.n, x1.d
        P, Q, X0, X1, L, D, M = _seeded(self.coefficients, *seeds, step < 0)
        walk = [P, Q, L, M, X0, X1, L * D, step]
        if step > 0:
            self.forward = walk
            return walk
        self.backward = walk
        if M:
            self[-1] = ModInt(X1, M)
        else:
            # built as the walk builds its terms, without Ratio.__init__
            self[-1] = x = _new(Ratio)
            x.n, x.d = X1, L * D
        return walk

    def __missing__(self, n: int):
        if n > 1:
            step, walk = 1, self.forward or self._start(1)
        else:
            step, walk = -1, self.backward
            if walk is None:
                walk = self._start(-1)
                if n == -1:
                    return dict.__getitem__(self, n)
        P, Q, L, M, X0, X1, scale, end = walk
        indices = range(end + step, n + step, step)
        if M:
            for i in indices:
                X0, X1 = X1, (P * X1 - Q * X0) % M
                self[i] = val = ModInt(X1, M)
        else:
            for i in indices:
                X0, X1 = X1, P * X1 - Q * X0
                scale *= L
                # built without Ratio.__init__: one Python frame fewer per term
                self[i] = val = _new(Ratio)
                val.n, val.d = X1, scale
        walk[4:] = X0, X1, scale, n
        return val


class _QPowers(dict):
    """q^e by e, each built on its first read (`__missing__`): over Q the
    `Ratio` of q's reduced pair raised to |e|, swapped for e < 0, which is
    reduced too and needs no gcd; over GF(M) `q ** e`."""

    __slots__ = ("q",)

    def __init__(self, q):
        self.q = q

    def __missing__(self, e: int):
        q = self.q
        if type(q) is Ratio:
            n, d = (q.n, q.d) if e >= 0 else (q.d, q.n)
            val = _new(Ratio)
            val.n, val.d = n ** abs(e), d ** abs(e)
        else:
            val = q ** e
        self[e] = val
        return val


class Terms:
    """The checkers' accessor over one TermContext with w read as `kind`:
    u, v, w, qp, p, q, and a, b = that kind's x_0, x_1, on the cached scalars
    themselves (`Ratio` over Q, not reduced). u, v, w and qp are the bound
    `__getitem__` of the context's cache dicts (`_Run`, `_QPowers`), so a
    cached read is one C-level dict lookup and starts no Python frame; a
    miss walks in the dict's `__missing__`. The context keeps no reference
    to the accessor, and the dicts none to the context: a reference cycle
    would keep the cache alive after its last user until a full garbage
    collection."""

    __slots__ = ("u", "v", "w", "qp", "p", "q", "a", "b")

    def __init__(self, ctx: "TermContext", kind: SequenceKind):
        vals = ctx._vals
        self.u, self.v = vals[U].__getitem__, vals[V].__getitem__
        run = vals[kind]
        self.w = run.__getitem__
        self.qp = ctx._qpows.__getitem__
        self.p, self.q = ctx._scalars
        # the seeds by get, which takes no subscript: they are not term reads
        self.a, self.b = run.get(0), run.get(1)


class TermContext:
    """Cached u/v/w accessors for one parameter set.

    Purely an optimization: results are identical to term(). Each kind's
    cache is a `_Run`, a dict that keeps the integer state of `term`'s
    kernel for the walk in each direction and caches every term it passes
    as one scalar: over Q the unreduced `Ratio(X_k, L^k*D)` read straight
    off the walk, over GF(M) a `ModInt`. The context derives the parameter
    set's `_coefficients` once, from the integer pairs (over GF(M), the
    residues) it keeps for p and q; every walk starts from them and derives
    only its kind's seeds. Each q-power is cached as a reduced pair
    (`_QPowers`). `_get` and `_qpow` read one cached scalar. The public
    accessors u, v, w and qp return what term() does, a reduced `Fraction`
    (one gcd per call) or a `ModInt`, and p, q, a and b are the parameters,
    so the context is itself an accessor over reduced values, with w read
    as W: `catalog.evaluate` runs the operator sides on it. `Terms(ctx, kind)`
    is the checkers' accessor over the cached scalars themselves; `fuzz` and
    the theorem engine evaluate on it and reduce each reported value once.
    Not synchronized; confine an instance to a single thread of work.
    """

    __slots__ = ("params", "_scalars", "_vals", "_qpows")

    p, q, a, b = (property(attrgetter(f"params.{x}")) for x in "pqab")

    def __init__(self, params: HoradamParams):
        self.params = params
        M = params.modulus
        if M:
            p, q, a, b = params.p, params.q, params.a, params.b
            zero, one, two = ModInt(0, M), ModInt(1, M), ModInt(2, M)
            coefficients = _coefficients(p.value, 1, q.value, 1, M)
        else:
            # each Fraction's reduced pair, built without Ratio.__init__
            p, q, a, b = pairs = _new(Ratio), _new(Ratio), _new(Ratio), _new(Ratio)
            for pair, x in zip(pairs, (params.p, params.q, params.a, params.b)):
                pair.n, pair.d = x.as_integer_ratio()
            zero, one, two = _RATIO_SEEDS
            coefficients = _coefficients(p.n, p.d, q.n, q.d, None)
        self._scalars = p, q
        # u and v seed as `seeds` gives, v's x_1 being p itself
        self._vals = {U: _Run(coefficients, U, zero, one),
                      V: _Run(coefficients, V, two, p),
                      W: _Run(coefficients, W, a, b)}
        self._qpows = _QPowers(q)

    def _get(self, kind: SequenceKind, n: int):
        return self._vals[kind][n]

    def _qpow(self, e: int):
        return self._qpows[e]

    def u(self, n: int):
        require_int("n", n)
        return reduced(self._get(SequenceKind.U, n))

    def v(self, n: int):
        require_int("n", n)
        return reduced(self._get(SequenceKind.V, n))

    def w(self, n: int):
        require_int("n", n)
        return reduced(self._get(SequenceKind.W, n))

    def qp(self, e: int):
        """q**e, memoized."""
        require_int("e", e)
        return reduced(self._qpow(e))
