"""Exact scalar arithmetic.

Three scalar realizations share one informal protocol (+, -, *, /, **, ==,
interop with small ints): arbitrary-precision rationals (`fractions.Fraction`,
re-exported as `Rational`), residues modulo a prime (`ModInt`), and `Ratio`,
an unreduced integer pair internal to the checkers: the term cache fills it
straight from the integer kernel, and `reduced` turns it into a `Fraction`
wherever a value is reported. All values are immutable; every operation is
pure.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    CompositeModulus,
    NegativeK,
    NonInvertible,
    ZeroToNegativePower,
)

# Canonical form (reduced, positive denominator) is guaranteed by Fraction
# itself, so equality is structural.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/denominator'.

    Accepts e.g. '-3/7', '42', '+5'. Rejects denominator 0 and anything
    outside the literal grammar (no decimals, no whitespace).
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


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


def pow_int(x, e: int):
    """x**e for integer e, exact; negative exponents need x != 0."""
    if e < 0 and x == 0:
        raise ZeroToNegativePower(f"0 ** {e}")
    return x ** e


def _mul(na, da, nb, db):
    # cross-cancel first, as Fraction does
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return Ratio(na * nb, da * db)


def _div(na, da, nb, db):
    if not nb:
        raise ZeroDivisionError("Ratio division by zero")
    return _mul(na, da, db, nb)


def _add(na, da, nb, db):
    # the gcd of the denominators, then of the result: Fraction's two steps,
    # without which telescoping sums grow without bound
    g = math.gcd(da, db)
    if g == 1:
        return Ratio(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return Ratio(t, s * db)
    return Ratio(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _operators(op):
    """(forward, reverse) methods applying op(na, da, nb, db) to a Ratio and a
    Ratio, an int or a Fraction."""

    def forward(a, b):
        if type(b) is Ratio:
            return op(a.n, a.d, b.n, b.d)
        if isinstance(b, int):
            return op(a.n, a.d, b, 1)
        if isinstance(b, Fraction):
            return op(a.n, a.d, b.numerator, b.denominator)
        return NotImplemented

    def reverse(b, a):
        if isinstance(a, int):
            return op(a, 1, b.n, b.d)
        if isinstance(a, Fraction):
            return op(a.numerator, a.denominator, b.n, b.d)
        return NotImplemented

    return forward, reverse


class Ratio:
    """The exact rational n/d (d != 0), not necessarily reduced.

    Internal to the checkers, which evaluate on the term cache's integer
    pairs without `Fraction`'s numeric-tower dispatch. `*` and `/`
    cross-cancel before multiplying, and `+`/`-` divide out the gcd of the
    denominators and then of the result, as `Fraction` does; `**` reduces
    its base once before raising it. `==` cross-multiplies, with a Ratio,
    an int or a Fraction on either side.
    Division by zero raises ZeroDivisionError and 0 ** -e ZeroToNegativePower.
    Unhashable, since equal values need not share a pair; `reduced` gives
    the value as a `Fraction`.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d

    __mul__, __rmul__ = _operators(_mul)
    __truediv__, __rtruediv__ = _operators(_div)
    __add__, __radd__ = _operators(_add)
    __sub__, __rsub__ = _operators(_sub)

    def __neg__(self):
        return Ratio(-self.n, self.d)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        n, d = self.n, self.d
        if e < 0:
            if not n:
                raise ZeroToNegativePower(f"0 ** {e}")
            n, d, e = d, n, -e
        # reduce the base first: a common factor would come out e-fold
        g = math.gcd(n, d)
        return Ratio((n // g) ** e, (d // g) ** e)

    def __eq__(self, other):
        if type(other) is Ratio:
            return self.n * other.d == other.n * self.d
        if isinstance(other, int):
            return self.n == other * self.d
        if isinstance(other, Fraction):
            return self.n * other.denominator == other.numerator * self.d
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Ratio({self.n}, {self.d})"


def reduced(x):
    """A Ratio as the reduced Fraction of its value; any other scalar as is."""
    return Fraction(x.n, x.d) if type(x) is Ratio else x


def binomial(k: int, j: int) -> int:
    """C(k, j) for k >= 0; zero when j is outside [0, k]."""
    if k < 0:
        raise NegativeK(f"binomial needs k >= 0, got k={k}")
    if j < 0 or j > k:
        return 0
    return math.comb(k, j)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
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
