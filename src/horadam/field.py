"""Exact scalar arithmetic.

Two scalar realizations share one informal protocol (+, -, *, /, **, ==,
interop with small ints): arbitrary-precision rationals (`fractions.Fraction`)
and residues modulo a prime (`ModInt`). Inside the checkers a value over Q
is an unreduced integer pair, a plain `(n, d)` tuple with d != 0: the term
cache fills it straight from the integer kernel, the pair code computes on
its integers, with `ratio_sum`'s rule as its one sum rule, and `reduced` turns it
into a `Fraction` wherever a value is reported. All values are immutable;
every operation is pure.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd

from .errors import (
    CompositeModulus,
    NegativeK,
    NonInvertible,
    ZeroToNegativePower,
)

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/denominator'.

    Accepts e.g. '-3/7', '42', '+5', and ' 7/2 ' (surrounding whitespace is
    stripped). Rejects denominator 0 and anything outside the literal
    grammar (no decimals, no whitespace inside the literal).
    """
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(int(num), den)


def _decimal(n: int) -> str:
    """str(n) for an int of any size, past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        pass
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    hi, lo = divmod(abs(n), 10 ** half)
    return ("-" if n < 0 else "") + _decimal(hi) + _decimal(lo).zfill(half)


def format_scalar(x) -> str:
    """Canonical rendering: 'num/den' with the denominator omitted when 1."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _decimal(x.numerator)
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
    if isinstance(x, ModInt):
        return str(x.value)
    return str(x)


def ratio_sum(pairs) -> tuple:
    """The sum of the integer pairs (n, d), d != 0, as one pair (n, d),
    folded in one frame by Henrici's rule (Knuth, TAOCP Vol. 2, 4.5.1), as
    `Fraction` adds: the gcd of the denominators, then of the result,
    without which telescoping sums grow without bound. The library's one
    sum rule on pairs, which the pair compiler's sum loop
    (`formula.compile_pairs`) takes inline, one summand at a time; no
    library code calls this function, which stays as the reference that
    the tests compare the generated loop against."""
    n, d = 0, 1
    for nb, db in pairs:
        g = gcd(d, db)
        s = d // g
        t = n * (db // g) + nb * s
        g = gcd(t, g)
        n, d = t // g, s * (db // g)
    return n, d


def reduced(x):
    """A pair (n, d) as the reduced Fraction n/d; any other scalar as is."""
    return Fraction(*x) if type(x) is tuple else x


def binomial(k: int, j: int) -> int:
    """C(k, j) for k >= 0; zero when j is outside [0, k]."""
    if k < 0:
        raise NegativeK(f"binomial needs k >= 0, got k={k}")
    if j < 0 or j > k:
        return 0
    return math.comb(k, j)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41: deterministic for all n < 3.3e24.
    Above that bound True means a strong probable prime to those bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _residue(x: Fraction, modulus: int) -> int:
    """x as a residue mod `modulus`; NonInvertible when its denominator has none."""
    try:
        inverse = pow(x.denominator, -1, modulus)
    except ValueError:
        raise NonInvertible(f"{x} has no residue mod {modulus}: its denominator "
                            f"is not invertible") from None
    return x.numerator % modulus * inverse % modulus


class ModInt:
    """Residue modulo a prime, supporting the same protocol as Fraction."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other.value
        if isinstance(other, int):
            return other % self.modulus
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(v - self.value, self.modulus)

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value * v, self.modulus)

    __rmul__ = __mul__

    def _inverse(self, v: int) -> int:
        try:
            return pow(v, -1, self.modulus)
        except ValueError:
            raise NonInvertible(f"{v} has no inverse mod {self.modulus}") from None

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value * self._inverse(v), self.modulus)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(v * self._inverse(self.value), self.modulus)

    def __pow__(self, e: int):
        v = self.value
        if e < 0:
            if v == 0:
                raise ZeroToNegativePower(f"0 ** {e} (mod {self.modulus})")
            v, e = self._inverse(v), -e
        return ModInt(pow(v, e, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        if isinstance(other, Fraction):
            try:
                return self.value == _residue(other, self.modulus)
            except NonInvertible:   # no residue equals it
                return False
        return NotImplemented

    # Unhashable: a ModInt equals every member of its residue class (3 and 10
    # both equal ModInt(3, 7)), and no hash agrees with all of them.
    __hash__ = None

    def __repr__(self):
        return f"ModInt({self.value}, mod {self.modulus})"


class PrimeField:
    """GF(M) element factory for benchmark mode; M must be prime."""

    def __init__(self, modulus: int):
        if not is_prime(modulus):
            raise CompositeModulus(f"{modulus} is not prime")
        self.modulus = modulus

    def __call__(self, x) -> ModInt:
        if isinstance(x, Fraction):
            return ModInt(_residue(x, self.modulus), self.modulus)
        return ModInt(int(x), self.modulus)
