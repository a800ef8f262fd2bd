from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import horadam
from horadam.errors import (
    CompositeModulus,
    NegativeK,
    NonInvertible,
    ZeroToNegativePower,
)
from horadam.field import (
    ModInt,
    PrimeField,
    Ratio,
    binomial,
    format_scalar,
    is_prime,
    parse_rational,
    pow_int,
    reduced,
)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
nonzero_rationals = rationals.filter(lambda x: x != 0)


class TestRationalLiterals:
    @pytest.mark.parametrize("text,expected", [
        ("-3/7", Fraction(-3, 7)),
        ("42", Fraction(42)),
        ("+5", Fraction(5)),
        ("0", Fraction(0)),
        ("6/4", Fraction(3, 2)),
    ])
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["3/0", "1.5", "x", "", "1/2/3", "3 / 4"])
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


class TestPowInt:
    def test_negative_exponent(self):
        assert pow_int(Fraction(2, 3), -2) == Fraction(9, 4)

    def test_sign_parity(self):
        assert pow_int(Fraction(-1), 5) == -1

    def test_empty_product(self):
        assert pow_int(Fraction(7, 2), 0) == 1

    def test_zero_to_negative(self):
        with pytest.raises(ZeroToNegativePower):
            pow_int(Fraction(0), -1)

    @given(nonzero_rationals, st.integers(-8, 8), st.integers(-8, 8))
    def test_additive_exponents(self, x, a, b):
        assert pow_int(x, a + b) == pow_int(x, a) * pow_int(x, b)


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


# (numerator, denominator) pairs, unreduced and with either sign
pairs = st.tuples(st.integers(-40, 40), st.integers(-12, 12).filter(bool))
operands = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
    st.builds(lambda nd: Ratio(*nd), pairs),
)
steps = st.lists(st.tuples(st.sampled_from("+-*/^"), operands, st.booleans()), max_size=8)


def _fraction(x):
    return Fraction(x.n, x.d) if isinstance(x, Ratio) else Fraction(x)


def _apply(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x / y


class TestRatio:
    @given(pairs, steps)
    def test_matches_fraction_oracle(self, start, ops):
        value, oracle = Ratio(*start), Fraction(*start)
        for op, operand, left in ops:
            if op == "^":
                e = _fraction(operand).numerator % 5 - 2
                if oracle == 0 and e < 0:
                    with pytest.raises(ZeroToNegativePower):
                        value ** e
                    continue
                value, oracle = value ** e, oracle ** e
                continue
            x, y = (operand, value) if left else (value, operand)
            ox, oy = (_fraction(operand), oracle) if left else (oracle, _fraction(operand))
            if op == "/" and oy == 0:
                with pytest.raises(ZeroDivisionError):
                    _apply(op, x, y)
                continue
            value, oracle = _apply(op, x, y), _apply(op, ox, oy)
            assert type(value) is Ratio
        assert type(reduced(value)) is Fraction
        assert reduced(value) == oracle
        assert value == oracle and oracle == value

    def test_equality_in_both_directions(self):
        assert Ratio(6, 4) == Fraction(3, 2) and Fraction(3, 2) == Ratio(6, 4)
        assert Ratio(-6, -4) == Ratio(3, 2) and Ratio(3, 2) == Ratio(-6, -4)
        assert Ratio(4, 2) == 2 and 2 == Ratio(4, 2)
        assert Ratio(0, -5) == 0 and 0 == Ratio(0, 7)
        assert Ratio(1, 2) != 1 and 1 != Ratio(1, 2)
        assert Ratio(1, 2) != Fraction(1, 3) and Fraction(1, 3) != Ratio(1, 2)
        assert Ratio(1, 1) != ModInt(1, 7)

    def test_division_by_zero(self):
        for divide in (lambda: Ratio(1, 2) / Ratio(0, 5), lambda: Ratio(1, 2) / 0,
                       lambda: 3 / Ratio(0, 1), lambda: Fraction(1, 2) / Ratio(0, 3)):
            with pytest.raises(ZeroDivisionError):
                divide()

    def test_zero_to_negative_power(self):
        with pytest.raises(ZeroToNegativePower):
            Ratio(0, 3) ** -1
        with pytest.raises(ZeroToNegativePower):
            pow_int(Ratio(0, 3), -2)
        assert Ratio(0, 3) ** 0 == 1

    def test_unhashable_and_internal(self):
        with pytest.raises(TypeError):
            hash(Ratio(1, 2))
        assert not hasattr(horadam, "Ratio")

    def test_reduced(self):
        x = reduced(Ratio(-6, -4))
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
