"""Horadam parameter sets and exact term evaluation.

The sequence w(a,b;p,q) follows w_n = p*w_{n-1} - q*w_{n-2} with w_0 = a,
w_1 = b; backward extension divides by q, so q != 0 keeps every integer
index reachable. u = w(0,1;p,q) and v = w(2,p;p,q) are the first- and
second-kind specializations.

Three independent evaluation strategies are provided: plain iteration
(`term`, and `term_range` reading the same walk off a `TermContext`), index
doubling in O(log n) steps (`fast_uv`, u_n and v_n for n >= 0), and the
closed form over Q(sqrt(p^2-4q)) (`binet_term`).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import DegenerateRoot, EmptyRange
from .field import QuadExt, pow_int


class SequenceKind(enum.Enum):
    U = "u"
    V = "v"
    W = "w"


U, V, W = SequenceKind.U, SequenceKind.V, SequenceKind.W


def _coerce(x):
    if isinstance(x, (int, str)):
        return Fraction(x)
    return x


@dataclass(frozen=True)
class HoradamParams:
    """The tuple (a, b, p, q); p and q must be nonzero."""

    a: Any
    b: Any
    p: Any
    q: Any

    def __post_init__(self):
        for name in ("a", "b", "p", "q"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))
        if self.p == 0:
            raise ValueError("p must be nonzero")
        if self.q == 0:
            raise ValueError("q must be nonzero")

    def seeds(self, kind: SequenceKind):
        """Initial pair (x_0, x_1) for the requested kind."""
        zero = self.q - self.q
        one = self.q / self.q
        if kind is SequenceKind.U:
            return zero, one
        if kind is SequenceKind.V:
            return one + one, self.p
        return self.a, self.b

    def specialized(self, kind: SequenceKind) -> "HoradamParams":
        """Params whose w-sequence IS the requested kind."""
        if kind is SequenceKind.W:
            return self
        a0, a1 = self.seeds(kind)
        return HoradamParams(a0, a1, self.p, self.q)

    @property
    def discriminant(self):
        return self.p * self.p - 4 * self.q


PRESETS = {
    "fibonacci": HoradamParams(0, 1, 1, -1),
    "lucas": HoradamParams(2, 1, 1, -1),
    "pell": HoradamParams(0, 1, 2, -1),
}


def term(params: HoradamParams, kind: SequenceKind, n: int):
    """Exact n-th term by iteration; negative n via the backward recurrence."""
    x0, x1 = params.seeds(kind)
    p, q = params.p, params.q
    if n >= 0:
        for _ in range(n):
            x0, x1 = x1, p * x1 - q * x0
        return x0
    for _ in range(-n):
        x0, x1 = (p * x0 - x1) / q, x0
    return x0


def term_range(params: HoradamParams, kind: SequenceKind, lo: int, hi: int) -> list:
    """Terms lo..hi inclusive, read off one fresh TermContext."""
    if lo > hi:
        raise EmptyRange(f"lo={lo} > hi={hi}")
    ctx = TermContext(params)
    return [ctx._get(kind, n) for n in range(lo, hi + 1)]


def fast_uv(params: HoradamParams, n: int):
    """(u_n, v_n) in O(log n) doubling steps; exact over any scalar field.

    Carries the pair (u_k, u_{k+1}) through the bits of n, using
    u_{2k} = u_k*(2*u_{k+1} - p*u_k) and u_{2k+1} = u_{k+1}^2 - q*u_k^2;
    v_n = 2*u_{n+1} - p*u_n at the end. No division anywhere, so this works
    over the mod-p benchmark field too.
    """
    if n < 0:
        raise ValueError("fast_uv requires n >= 0")
    p, q = params.p, params.q
    uk, uk1 = params.seeds(SequenceKind.U)
    for i in range(n.bit_length() - 1, -1, -1):
        u2 = uk * (2 * uk1 - p * uk)
        u21 = uk1 * uk1 - q * uk * uk
        if (n >> i) & 1:
            uk, uk1 = u21, p * u21 - q * u2
        else:
            uk, uk1 = u2, u21
    return uk, 2 * uk1 - p * uk


def binet_term(params: HoradamParams, kind: SequenceKind, n: int):
    """n-th term assembled from exact root powers in Q(sqrt(p^2-4q)).

    Requires distinct roots (p^2 - 4q != 0). The sqrt-component of the
    assembled expression always cancels; the rational part is returned.
    """
    d = params.discriminant
    if d == 0:
        raise DegenerateRoot(f"p^2 - 4q = 0 for p={params.p}, q={params.q}")
    half = Fraction(1, 2)
    alpha = QuadExt(half * params.p, half, d)
    beta = QuadExt(half * params.p, -half, d)
    sqrt_d = QuadExt(0, 1, d)

    def u_at(i: int):
        return (alpha ** i - beta ** i) / sqrt_d

    if kind is SequenceKind.U:
        val = u_at(n)
    elif kind is SequenceKind.V:
        val = alpha ** n + beta ** n
    else:
        val = params.b * u_at(n) - params.a * params.q * u_at(n - 1)
    if not val.is_rational():
        raise AssertionError("sqrt component failed to cancel")
    return val.c0


def reflect_w(params: HoradamParams, n: int):
    """w_{-n} from the closed form q^n * w_{-n} = a*v_n - w_n.

    Unlike the quotient reflection formula this needs no w_n != 0 guard.
    """
    a_vn = params.a * term(params, SequenceKind.V, n)
    wn = term(params, SequenceKind.W, n)
    return (a_vn - wn) / pow_int(params.q, n)


class TermContext:
    """Cached u/v/w accessors for one parameter set.

    Purely an optimization: results are identical to term(). Not
    synchronized; confine an instance to a single thread of work.
    """

    __slots__ = ("params", "p", "q", "a", "b", "_vals", "_span", "_qpows")

    def __init__(self, params: HoradamParams):
        self.params = params
        self.p, self.q = params.p, params.q
        self.a, self.b = params.a, params.b
        self._vals = {}
        self._span = {}     # [lowest, highest] cached index; _vals is contiguous
        for kind in SequenceKind:
            x0, x1 = params.seeds(kind)
            self._vals[kind] = {0: x0, 1: x1}
            self._span[kind] = [0, 1]
        self._qpows = {}

    def _get(self, kind: SequenceKind, n: int):
        vals = self._vals[kind]
        if n in vals:
            return vals[n]
        p, q = self.p, self.q
        span = self._span[kind]
        if n > 1:
            for i in range(span[1] + 1, n + 1):
                vals[i] = p * vals[i - 1] - q * vals[i - 2]
            span[1] = n
        else:
            for i in range(span[0] - 1, n - 1, -1):
                vals[i] = (p * vals[i + 1] - vals[i + 2]) / q
            span[0] = n
        return vals[n]

    def u(self, n: int):
        return self._get(SequenceKind.U, n)

    def v(self, n: int):
        return self._get(SequenceKind.V, n)

    def w(self, n: int):
        return self._get(SequenceKind.W, n)

    def qp(self, e: int):
        """q**e, memoized."""
        val = self._qpows.get(e)
        if val is None:
            val = self._qpows[e] = pow_int(self.q, e)
        return val

    @property
    def disc(self):
        return self.params.discriminant
