import math
import operator
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import horadam
from horadam import field
from horadam.errors import (
    CompositeModulus,
    NegativeK,
    NonInvertible,
    ZeroToNegativePower,
)
from horadam.field import (
    ModInt,
    PrimeField,
    binomial,
    format_scalar,
    is_prime,
    parse_rational,
    ratio_sum,
    reduced,
)
from horadam.lemmas import _negated
from horadam.sequences import HoradamParams

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


class TestRationalLiterals:
    @pytest.mark.parametrize("text,expected", [
        ("-3/7", Fraction(-3, 7)),
        ("42", Fraction(42)),
        ("+5", Fraction(5)),
        ("0", Fraction(0)),
        ("6/4", Fraction(3, 2)),
        (" 7/2 ", Fraction(7, 2)),
    ])
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["3/0", "1.5", "x", "", "1/2/3", "3 / 4", "3/ 4", "\t"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format_round_trip(self):
        for text in ("-3/7", "42", "0", "9/2"):
            assert format_scalar(parse_rational(text)) == text.lstrip("+")

    def test_format_past_int_str_digit_limit(self):
        # Python refuses str() on ints over 4300 digits by default
        assert format_scalar(Fraction(10 ** 5000 - 1)) == "9" * 5000
        assert format_scalar(Fraction(-(10 ** 4400 + 1))) == "-1" + "0" * 4399 + "1"
        assert (format_scalar(Fraction(7, 10 ** 9000 + 3))
                == "7/1" + "0" * 8999 + "3")

    def test_canonical_form(self):
        x = parse_rational("-4/6")
        assert (x.numerator, x.denominator) == (-2, 3)


class TestBinomial:
    def test_oracle_value(self):
        # Pascal's triangle built independently
        row = [1]
        for _ in range(5):
            row = [a + b for a, b in zip([0] + row, row + [0])]
        assert binomial(5, 2) == row[2] == 10

    def test_boundaries(self):
        for k in range(0, 12):
            assert binomial(k, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_k(self):
        with pytest.raises(NegativeK):
            binomial(-1, 0)

    @given(st.integers(1, 20), st.integers(0, 20))
    def test_pascal_recurrence(self, k, j):
        if j <= k:
            assert binomial(k, j) == binomial(k - 1, j - 1) + binomial(k - 1, j)


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_rational_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x) == 1


class TestModInt:
    def test_arithmetic(self):
        f = PrimeField(97)
        x, y = f(50), f(60)
        assert x + y == f(110 % 97)
        assert x - y == f(-10)
        assert x * y == f(3000)
        assert (x / y) * y == x

    def test_negative_power(self):
        f = PrimeField(97)
        assert f(3) ** -1 * f(3) == f(1)
        assert f(3) ** -5 == f(1) / f(3) ** 5

    def test_negative_power_of_nonunit_is_named_error(self):
        # only a directly built ModInt can have a composite modulus
        with pytest.raises(NonInvertible, match="2 has no inverse mod 8"):
            ModInt(2, 8) ** -1

    def test_rational_reduction(self):
        f = PrimeField(97)
        assert f(Fraction(1, 2)) * f(2) == f(1)

    def test_rational_equality(self):
        assert ModInt(3, 7) == Fraction(3)
        assert ModInt(5, 7) == Fraction(1, 3) == ModInt(5, 7)
        assert ModInt(3, 7) != Fraction(1, 3)
        # no residue mod 7 equals 1/7: unequal, and comparing raises nothing
        assert all(ModInt(v, 7) != Fraction(1, 7) for v in range(7))

    def test_unhashable(self):
        # equal to every member of its residue class, so no hash can agree
        with pytest.raises(TypeError):
            hash(ModInt(3, 7))

    def test_rational_without_residue_is_named_error(self):
        with pytest.raises(NonInvertible):
            PrimeField(7)(Fraction(1, 7))

    def test_int_interop(self):
        f = PrimeField(97)
        assert 2 * f(3) == f(6)
        assert f(3) + 1 == f(4)
        assert 1 - f(3) == f(-2)

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            PrimeField(10)

    def test_zero_to_negative_power(self):
        f = PrimeField(97)
        with pytest.raises(ZeroToNegativePower):
            f(0) ** -1

    def test_division_by_zero_is_named_error(self):
        f = PrimeField(7)
        for divide in (lambda: f(3) / f(0), lambda: 3 / f(0), lambda: f(3) / 0,
                       lambda: f(3) / 7):
            with pytest.raises(NonInvertible, match="no inverse mod 7"):
                divide()

    def test_mixed_moduli_raise(self):
        for combine in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="^mixed moduli$"):
                combine(ModInt(3, 7), ModInt(3, 11))

    @pytest.mark.parametrize("other", [1.5, Fraction(1, 2)], ids=["float", "fraction"])
    def test_other_operands_are_refused_on_both_sides(self, other):
        # each operator returns NotImplemented, so Python raises TypeError
        x = ModInt(3, 7)
        for combine, name, reflected in (
                (operator.add, "__add__", "__radd__"), (operator.sub, "__sub__", "__rsub__"),
                (operator.mul, "__mul__", "__rmul__"),
                (operator.truediv, "__truediv__", "__rtruediv__")):
            assert getattr(x, name)(other) is NotImplemented
            assert getattr(x, reflected)(other) is NotImplemented
            for args in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    combine(*args)

    def test_format_scalar_renders_other_scalars_with_str(self):
        assert [format_scalar(x) for x in (7, -3, ModInt(-1, 7))] == ["7", "-3", "6"]


# (numerator, denominator) pairs, unreduced and with either sign
pairs = st.tuples(st.integers(-40, 40), st.integers(-12, 12).filter(bool))


def _sum_rule(na, da, nb, db):
    # the two-gcd sum: g of the denominators, then of the numerator with g
    g = math.gcd(da, db)
    t = na * (db // g) + nb * (da // g)
    g2 = math.gcd(t, g)
    return t // g2, (da // g) * (db // g2)


class TestRatio:
    """The pair over Q inside the checkers: a plain (n, d) tuple, d != 0,
    not necessarily reduced. It replaced the `Ratio` class."""

    def test_keeps_no_arithmetic(self):
        # field defines no pair class: the two scalar realizations and the
        # element factory are its only classes
        classes = {name for name, x in vars(field).items()
                   if isinstance(x, type) and x.__module__ == field.__name__}
        assert classes == {"ModInt", "PrimeField"}

    @given(pairs)
    def test_negation_pair(self, start):
        negated = _negated(start)
        assert type(negated) is tuple and negated == (-start[0], start[1])
        assert _negated(Fraction(*start)) == -Fraction(*start)
        assert _negated(ModInt(start[0], 7)) == ModInt(-start[0], 7)

    @given(st.lists(pairs, max_size=8))
    def test_ratio_sum_is_the_two_gcd_fold(self, terms):
        # the exact unreduced pair, not only the value: each pair folded in
        # by the two-gcd rule, from 0/1
        n, d = 0, 1
        for nb, db in terms:
            n, d = _sum_rule(n, d, nb, db)
        total = ratio_sum(terms)
        assert type(total) is tuple and total == (n, d)
        assert reduced(total) == sum(Fraction(*term) for term in terms)

    def test_equality_in_both_directions(self):
        # a pair is compared by its reduced value
        assert reduced((6, 4)) == Fraction(3, 2) and Fraction(3, 2) == reduced((6, 4))
        assert reduced((-6, -4)) == reduced((3, 2)) and reduced((3, 2)) == reduced((-6, -4))
        assert reduced((4, 2)) == 2 and 2 == reduced((4, 2))
        assert reduced((0, -5)) == 0 and 0 == reduced((0, 7))
        assert reduced((1, 2)) != 1 and 1 != reduced((1, 2))
        assert reduced((1, 2)) != Fraction(1, 3) and Fraction(1, 3) != reduced((1, 2))
        # the tuple itself equals no scalar, so a zero test reads its numerator
        assert (0, 7) != 0 and 0 != (0, 7)
        assert (1, 1) != ModInt(1, 7)

    def test_retired(self):
        # no pair class is left to build, in field or anywhere in the package
        assert not hasattr(field, "Ratio") and not hasattr(horadam, "Ratio")
        source = "".join(path.read_text(encoding="utf-8")
                         for path in pathlib.Path(field.__file__).parent.glob("*.py"))
        assert "class Ratio" not in source and "object.__new__" not in source

    def test_reduced(self):
        x = reduced((-6, -4))
        assert type(x) is Fraction and (x.numerator, x.denominator) == (3, 2)
        assert reduced(ModInt(3, 7)) == ModInt(3, 7)
        assert reduced(5) == 5 and type(reduced(5)) is int


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(-2, 42):
            assert is_prime(n) == (n in primes)

    def test_large(self):
        assert is_prime(1000000007)
        assert not is_prime(1000000007 * 3)
        # strong pseudoprime to several bases
        assert not is_prime(3215031751)

    def test_least_strong_pseudoprime_to_the_bases_below_41(self):
        # 399165290221 * 798330580441 passes bases 2..37; base 41 rejects it
        psi12 = 318665857834031151167461
        assert not is_prime(psi12)
        with pytest.raises(CompositeModulus):
            PrimeField(psi12)
        with pytest.raises(CompositeModulus):
            HoradamParams(*(ModInt(x, psi12) for x in (0, 1, 3, 2)))
