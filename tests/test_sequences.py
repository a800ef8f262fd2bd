import gc
import inspect
import math
import random
import sys
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horadam
from horadam import catalog, lemmas, sequences, theorems
from horadam.errors import CompositeModulus, DegenerateRoot, EmptyRange
from horadam.field import ModInt, PrimeField, Ratio, reduced
from horadam.sequences import (
    PRESETS,
    HoradamParams,
    SequenceKind,
    TermContext,
    Terms,
    _kernel,
    binet_term,
    doubling_term,
    fast_uv,
    term,
    term_range,
)

U, V, W = SequenceKind.U, SequenceKind.V, SequenceKind.W

FIB = PRESETS["fibonacci"]
PELL = PRESETS["pell"]
FIBW = HoradamParams(3, 2, 1, -1)


def brute_terms(params, kind, lo, hi):
    """Independent oracle: dict index -> value via plain recurrence walks."""
    x0, x1 = params.seeds(kind)
    p, q = params.p, params.q
    vals = {0: x0, 1: x1}
    for i in range(2, hi + 1):
        vals[i] = p * vals[i - 1] - q * vals[i - 2]
    for i in range(-1, lo - 1, -1):
        vals[i] = (p * vals[i + 1] - vals[i + 2]) / q
    return vals


def random_params(rng, bound=9):
    def draw(nonzero):
        while True:
            x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            if not (nonzero and x == 0):
                return x
    return HoradamParams(draw(False), draw(False), draw(True), draw(True))


class TestParams:
    def test_rejects_zero_p(self):
        with pytest.raises(ValueError):
            HoradamParams(0, 1, 0, -1)

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError):
            HoradamParams(0, 1, 1, 0)

    def test_int_inputs_coerced(self):
        params = HoradamParams(0, 1, 1, -1)
        assert isinstance(params.q, Fraction)

    def test_rejects_mixed_scalar_types(self):
        # ints coerce to Fraction, so a and b would sit beside GF(101) p and q
        f = PrimeField(101)
        with pytest.raises(ValueError, match="share one field"):
            HoradamParams(0, 1, f(1), f(-1))

    @pytest.mark.parametrize("scalar", [1.0, Decimal("1.5"), Ratio(3, 2)],
                             ids=["float", "Decimal", "Ratio"])
    def test_rejects_scalars_outside_the_two_fields(self, scalar):
        for position in range(4):
            values = [Fraction(1), Fraction(1), Fraction(1), Fraction(-1)]
            values[position] = scalar
            with pytest.raises(ValueError, match="int or str .* Fraction or a ModInt"):
                HoradamParams(*values)

    def test_rejects_mixed_moduli(self):
        f101, f103 = PrimeField(101), PrimeField(103)
        with pytest.raises(ValueError, match="share one field"):
            HoradamParams(f101(0), f101(1), f103(1), f101(-1))

    def test_equality_compares_the_field(self):
        # a ModInt equals the rationals of its residue class, but a GF(7)
        # parameter set is not Pell's rational one
        gf7 = HoradamParams(*map(PrimeField(7), (0, 1, 2, -1)))
        assert PELL != gf7 and gf7 != PELL
        assert gf7 != HoradamParams(*map(PrimeField(11), (0, 1, 2, -1)))
        assert gf7 == HoradamParams(*map(PrimeField(7), (7, 8, 9, 6)))
        assert HoradamParams(0, 1, 2, -1) == PELL
        assert hash(HoradamParams(0, 1, 2, -1)) == hash(PELL)

    def test_modulus_is_derived_from_the_scalars(self):
        assert FIB.modulus is None
        gf7 = HoradamParams(*map(PrimeField(7), (0, 1, 2, -1)))
        assert gf7.modulus == 7
        assert repr(gf7) == ("HoradamParams(a=ModInt(0, mod 7), b=ModInt(1, mod 7), "
                             "p=ModInt(2, mod 7), q=ModInt(6, mod 7))")
        with pytest.raises(TypeError):
            HoradamParams(0, 1, 1, -1, None)

    def test_kinds_hash_by_identity(self):
        # keeps Enum's Python-level __hash__ off TermContext's lookup path
        assert SequenceKind.__hash__ is object.__hash__

    def test_uv_ignore_ab(self):
        other = HoradamParams(7, 9, 1, -1)
        for n in range(-8, 9):
            assert term(other, U, n) == term(FIB, U, n)
            assert term(other, V, n) == term(PRESETS["lucas"], V, n)


class TestTerm:
    def test_fibonacci_u10(self):
        oracle = brute_terms(FIB, U, 0, 10)
        assert term(FIB, U, 10) == oracle[10] == 55

    def test_lucas_v0(self):
        assert term(FIB, V, 0) == 2

    def test_fibonacci_negative(self):
        oracle = brute_terms(FIB, U, -3, 3)
        assert term(FIB, U, -3) == oracle[-3] == 2
        # cross-check the reflection law
        assert term(FIB, U, -3) == -term(FIB, U, 3) / FIB.q ** 3

    def test_w_forward(self):
        oracle = brute_terms(FIBW, W, 0, 4)
        assert term(FIBW, W, 4) == oracle[4] == 12

    def test_recurrence_conformance_randomized(self):
        rng = random.Random(11)
        for _ in range(25):
            params = random_params(rng)
            for kind in SequenceKind:
                vals = brute_terms(params, kind, -20, 20)
                for n in range(-18, 21):
                    assert term(params, kind, n) == vals[n]
                    assert vals[n] == params.p * vals[n - 1] - params.q * vals[n - 2]

    def test_specializations_match_w(self):
        rng = random.Random(13)
        for _ in range(10):
            params = random_params(rng)
            for n in range(-15, 16):
                for kind in (U, V):
                    seed_params = HoradamParams(*params.seeds(kind), params.p, params.q)
                    assert term(seed_params, W, n) == term(params, kind, n)

    def test_reflection_laws(self):
        rng = random.Random(17)
        for _ in range(15):
            params = random_params(rng)
            for n in range(0, 16):
                qn = params.q ** n
                assert qn * term(params, U, -n) == -term(params, U, n)
                assert qn * term(params, V, -n) == term(params, V, n)

    def test_linear_form(self):
        rng = random.Random(19)
        for _ in range(15):
            params = random_params(rng)
            for n in range(-10, 11):
                expected = (params.b * term(params, U, n)
                            - params.a * params.q * term(params, U, n - 1))
                assert term(params, W, n) == expected


class TestTermRange:
    def test_fibonacci_prefix(self):
        assert term_range(FIB, U, 0, 5) == [0, 1, 1, 2, 3, 5]

    def test_singleton(self):
        for n in (-4, 0, 7):
            assert term_range(FIBW, W, n, n) == [term(FIBW, W, n)]

    def test_lucas_straddling_zero(self):
        assert term_range(PRESETS["lucas"], V, -2, 2) == [3, -1, 2, 1, 3]

    def test_negative_only_window(self):
        vals = term_range(FIBW, W, -6, -2)
        assert vals == [term(FIBW, W, n) for n in range(-6, -1)]

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            term_range(FIB, U, 3, 2)

    def test_prime_field_matches_rational_residues(self):
        # the backward walk divides by q: over GF(M) it must reduce the Q terms
        f = PrimeField(1_000_000_007)
        qparams = HoradamParams(Fraction(1, 2), Fraction(-5, 3),
                                Fraction(3, 4), Fraction(-2, 7))
        gparams = HoradamParams(*(f(getattr(qparams, x)) for x in "abpq"))
        for kind in SequenceKind:
            expected = [f(term(qparams, kind, n)) for n in range(-15, 16)]
            assert [term(gparams, kind, n) for n in range(-15, 16)] == expected
            assert term_range(gparams, kind, -15, 15) == expected
            assert term_range(gparams, kind, -15, -3) == expected[:13]
            assert term_range(gparams, kind, 4, 15) == expected[19:]

    @settings(max_examples=60)
    @given(st.integers(-12, 12), st.integers(0, 10))
    def test_matches_term_everywhere(self, lo, span):
        hi = lo + span
        vals = term_range(FIBW, W, lo, hi)
        assert vals == [term(FIBW, W, n) for n in range(lo, hi + 1)]


class TestFastUV:
    def test_fibonacci_pair(self):
        assert fast_uv(FIB, 10) == (55, 123)

    def test_n_zero(self):
        rng = random.Random(23)
        for _ in range(10):
            params = random_params(rng)
            assert fast_uv(params, 0) == (0, 2)

    def test_pell(self):
        oracle = brute_terms(PELL, U, 0, 5), brute_terms(PELL, V, 0, 5)
        assert fast_uv(PELL, 5) == (oracle[0][5], oracle[1][5]) == (29, 82)

    @pytest.mark.parametrize("n", list(range(0, 65)) + [255, 256, 1000])
    def test_agrees_with_iteration(self, n):
        params = HoradamParams(0, 1, Fraction(3, 2), Fraction(-2, 3))
        assert fast_uv(params, n) == (term(params, U, n), term(params, V, n))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fast_uv(FIB, -1)

    def test_modular_scalars(self):
        f = PrimeField(1000003)
        params = HoradamParams(f(0), f(1), f(1), f(-1))
        assert fast_uv(params, 30)[0] == f(832040)  # Fibonacci 30


class TestBinet:
    def test_fibonacci_u3(self):
        assert binet_term(FIB, U, 3) == 2

    def test_u0(self):
        assert binet_term(FIB, U, 0) == 0

    def test_degenerate_root(self):
        with pytest.raises(DegenerateRoot):
            binet_term(HoradamParams(0, 1, 2, 1), U, 5)

    def test_negative_discriminant(self):
        params = HoradamParams(1, 2, 1, 1)  # D = -3
        for n in range(-6, 7):
            assert binet_term(params, W, n) == term(params, W, n)

    @pytest.mark.parametrize("p,q", [(3, 2), (Fraction(5, 2), 1)], ids=["d=1", "d=9/4"])
    def test_perfect_square_discriminant(self, p, q):
        # rational roots: sqrt(d') is an integer, and the pairs stay formal
        params = HoradamParams(Fraction(2, 3), Fraction(-5, 7), p, q)
        for kind in SequenceKind:
            for n in range(-30, 31):
                assert binet_term(params, kind, n) == term(params, kind, n), (kind, n)

    @pytest.mark.parametrize("params", [
        HoradamParams(Fraction(1, 2), -2, Fraction(3, 4), Fraction(-5, 6)),
        HoradamParams(1, 2, 1, 1),
    ], ids=["p=3/4,q=-5/6", "D=-3"])
    def test_large_index_both_signs(self, params):
        n = 1500
        u, v = fast_uv(params, n)
        qn = params.q ** n
        # neg.19: u_{-n} = -u_n/q^n, v_{-n} = v_n/q^n
        assert binet_term(params, U, n) == u == term(params, U, n)
        assert binet_term(params, V, n) == v == term(params, V, n)
        assert binet_term(params, U, -n) == -u / qn == term(params, U, -n)
        assert binet_term(params, V, -n) == v / qn == term(params, V, -n)
        for m in (n, -n):
            assert binet_term(params, W, m) == term(params, W, m)

    def test_agrees_with_iteration_randomized(self):
        rng = random.Random(29)
        done = 0
        while done < 100:
            params = random_params(rng)
            if params.discriminant == 0:
                continue
            done += 1
            for kind in SequenceKind:
                for n in range(-10, 11):
                    assert binet_term(params, kind, n) == term(params, kind, n)

    def test_agrees_with_doubling_and_iteration_to_300(self):
        # a negative index divides by (2Q/L)^|n|, and either sign shifts the
        # twos shared with the denominator out before the reduction
        rng = random.Random(2301)
        done = 0
        while done < 25:
            params = random_params(rng)
            if params.discriminant == 0:
                continue
            done += 1
            for kind in SequenceKind:
                for n in [1, 2, 3, 300] + [rng.randint(4, 299) for _ in range(3)]:
                    for m in (n, -n):
                        value = binet_term(params, kind, m)
                        assert type(value) is Fraction, (params, kind, m)
                        assert value == doubling_term(params, kind, m) == term(params, kind, m), (
                            params, kind, m)


class TestBinetDenominator:
    """The bit length of the denominator `binet_term` hands to `Fraction`:
    the twos that the top shares with the denominator's 2^|n| are shifted
    out before the one reduction, so the denominator is not 2^|n| larger."""

    RATIONAL = HoradamParams(Fraction(1, 2), -2, Fraction(3, 4), Fraction(-5, 6))
    # (params, kind) -> bit lengths at n = 40 and n = -40
    BITS = [(FIB, U, (1, 1)), (FIB, V, (1, 1)), (FIB, W, (1, 1)),
            (RATIONAL, U, (144, 133)), (RATIONAL, V, (146, 135)), (RATIONAL, W, (145, 134))]

    @pytest.mark.parametrize("params,kind,bits", BITS)
    def test_bits(self, monkeypatch, params, kind, bits):
        handed = []

        def recording(n, d):
            handed.append(d)
            return Fraction(n, d)

        monkeypatch.setattr(sequences, "Fraction", recording)
        for n in (40, -40):
            binet_term(params, kind, n)
        assert tuple(d.bit_length() for d in handed) == bits


class TestReflect:
    """The backward walk against neg.20's closed form q^n*w_{-n} = a*v_n - w_n,
    which needs no w_n != 0 guard."""

    @staticmethod
    def closed_form(params, n):
        return (params.a * term(params, V, n) - term(params, W, n)) / params.q ** n

    def test_fibonacci_w(self):
        assert self.closed_form(FIBW, 2) == term(FIBW, W, -2) == 4
        for n in range(-12, 13):
            assert self.closed_form(FIBW, n) == term(FIBW, W, -n)

    def test_v_case(self):
        params = HoradamParams(2, Fraction(5, 3), Fraction(5, 3), Fraction(2, 7))
        for n in range(0, 10):
            assert self.closed_form(params, n) == term(params, W, -n)
            assert term(params, W, -n) == term(params, V, n) / params.q ** n

    def test_n_zero(self):
        assert self.closed_form(FIBW, 0) == term(FIBW, W, 0) == FIBW.a

    def test_randomized(self):
        rng = random.Random(31)
        for _ in range(20):
            params = random_params(rng)
            for n in range(-8, 9):
                assert self.closed_form(params, n) == term(params, W, -n)


# Parameter sets that exercise the integer kernel's scaling: lcm(den p, den q)
# below den p * den q, a square denominator in q, seeds with denominators
# (and a seed denominator that no coefficient shares), integer parameters.
KERNEL_PARAMS = [
    HoradamParams(Fraction(2, 9), Fraction(-5, 4), Fraction(5, 6), Fraction(-7, 10)),
    HoradamParams(Fraction(-3, 7), Fraction(1, 2), Fraction(1, 6), Fraction(1, 4)),
    HoradamParams(Fraction(7, 11), Fraction(-8, 13), Fraction(-3, 2), Fraction(5, 9)),
    HoradamParams(Fraction(1, 3), 4, 2, Fraction(-9, 25)),
    HoradamParams(3, -2, -1, 5),
]
KERNEL_N = range(-40, 41)


class TestKernel:
    """term, doubling_term, fast_uv, binet_term and TermContext against the
    brute_terms walk."""

    @pytest.mark.parametrize("params", KERNEL_PARAMS)
    def test_term_and_binet(self, params):
        for kind in SequenceKind:
            oracle = brute_terms(params, kind, KERNEL_N[0], KERNEL_N[-1])
            for n in KERNEL_N:
                assert term(params, kind, n) == oracle[n], (kind, n)
                assert doubling_term(params, kind, n) == oracle[n], (kind, n)
                assert binet_term(params, kind, n) == oracle[n], (kind, n)

    @pytest.mark.parametrize("params", KERNEL_PARAMS)
    def test_fast_uv(self, params):
        us, vs = brute_terms(params, U, 0, 40), brute_terms(params, V, 0, 40)
        for n in range(41):
            assert fast_uv(params, n) == (us[n], vs[n]), n

    @pytest.mark.parametrize("params", KERNEL_PARAMS)
    def test_context_access_orders(self, params):
        oracles = {kind: brute_terms(params, kind, -40, 40) for kind in SequenceKind}
        orders = [
            [-40, 40, -1, 2, 0],            # a negative index first
            [-3, -17, 25, 31, -40, 40],     # forward extension after backward
            [7, -1, 3, -39, 40, 1],
        ]
        for order in orders:
            ctx = TermContext(params)
            for n in order:
                for kind in (W, U, V):      # kinds interleaved
                    assert ctx._get(kind, n) == oracles[kind][n], (kind, n)
            for kind in SequenceKind:
                assert [ctx._get(kind, n) for n in KERNEL_N] == \
                    [oracles[kind][n] for n in KERNEL_N]

    @pytest.mark.parametrize("params", KERNEL_PARAMS[:4])
    def test_prime_field_at_negative_n(self, params):
        f = PrimeField(1_000_003)
        gparams = HoradamParams(*(f(getattr(params, x)) for x in "abpq"))
        for kind in SequenceKind:
            oracle = brute_terms(params, kind, -40, 40)
            ctx = TermContext(gparams)
            for n in KERNEL_N:
                assert term(gparams, kind, n) == f(oracle[n]), (kind, n)
                assert doubling_term(gparams, kind, n) == f(oracle[n]), (kind, n)
                assert ctx._get(kind, n) == f(oracle[n]), (kind, n)
        us, vs = brute_terms(params, U, 0, 40), brute_terms(params, V, 0, 40)
        for n in range(41):
            assert fast_uv(gparams, n) == (f(us[n]), f(vs[n]))

    def test_results_are_reduced_scalars(self):
        params = KERNEL_PARAMS[1]
        ctx = TermContext(params)
        verified = catalog.evaluate("H", params, dict(n=5, m=-3, r=2, s=-4))
        sel = theorems.TheoremSelector(6, 1)
        summed = theorems.reciprocal_sum(sel, params, 5, 2, 1, -1, 3)
        for value in (term(params, W, -9), term(params, V, 12), binet_term(params, W, -9),
                      doubling_term(params, W, -9), *fast_uv(params, 12), ctx.w(-9), ctx.u(-7), ctx.v(11), ctx.qp(-3),
                      ctx.qp(4), *term_range(params, W, -6, 6), verified.lhs, verified.rhs,
                      summed.lhs, summed.rhs, summed.lemma_lhs):
            assert type(value) is Fraction
            assert math.gcd(value.numerator, value.denominator) == 1
        f = PrimeField(101)
        gparams = HoradamParams(*(f(getattr(params, x)) for x in "abpq"))
        assert term(gparams, U, -5).modulus == 101

    @staticmethod
    def _fraction_kernel(params, kind, backward):
        """The reversed recurrence built with `Fraction`/`ModInt` division."""
        p, q = params.p, params.q
        x0, x1 = params.seeds(kind)
        if backward:
            p, q, x1 = p / q, 1 / q, (p * x0 - x1) / q
        M = params.modulus
        if M:
            return p.value, q.value, x0.value, x1.value, 1, 1, M
        L = math.lcm(p.denominator, q.denominator)
        P, Q = p.numerator * (L // p.denominator), q.numerator * (L * L // q.denominator)
        D = math.lcm(x0.denominator, x1.denominator)
        return (P, Q, x0.numerator * (D // x0.denominator),
                x1.numerator * (L * D // x1.denominator), L, D, None)

    def test_integer_kernel_equals_the_fraction_derivation(self):
        # a sweep of signs and denominators (zero seeds included) over Q,
        # and every parameter set over GF(5)
        rng = random.Random(83)
        values = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4, 6, 9)]
        nonzero = [x for x in values if x]
        rational = [HoradamParams(rng.choice(values), rng.choice(values),
                                  rng.choice(nonzero), rng.choice(nonzero))
                    for _ in range(3000)]
        f = PrimeField(5)
        modular = [HoradamParams(f(a), f(b), f(p), f(q)) for a in range(5) for b in range(5)
                   for p in range(1, 5) for q in range(1, 5)]
        for params in rational + modular:
            for kind in SequenceKind:
                for backward in (False, True):
                    assert _kernel(params, kind, backward) == \
                        self._fraction_kernel(params, kind, backward), (params, kind)

    def test_binet_needs_rational_parameters(self):
        f = PrimeField(101)
        with pytest.raises(TypeError):
            binet_term(HoradamParams(f(0), f(1), f(1), f(-1)), U, 5)
        # the field is checked before the discriminant: p^2 - 4q = 0 in GF(7)
        f7 = PrimeField(7)
        with pytest.raises(TypeError):
            binet_term(HoradamParams(f7(0), f7(1), f7(2), f7(1)), U, 5)

    def test_reversed_kernel_needs_an_invertible_q(self):
        # a nonzero q lacks an inverse only modulo a composite, which only a
        # ModInt built directly on it could bring; the parameter set refuses it
        with pytest.raises(CompositeModulus, match="10 is not prime"):
            HoradamParams(ModInt(0, 10), ModInt(1, 10), ModInt(3, 10), ModInt(4, 10))


def single_step_term(params, kind, n):
    """Independent oracle: the kernel walked one index per step."""
    P, Q, X0, X1, L, D, M = _kernel(params, kind, n < 0)
    for _ in range(abs(n)):
        X0, X1 = X1, P * X1 - Q * X0
    if M:
        return ModInt(X0, M)
    return Fraction(X0, L ** abs(n) * D)


S, START = sequences._BLOCK, sequences._BLOCKED_FROM
# both sides of the first block boundaries and of the |n| from which the
# walk is blocked
BLOCK_N = sorted({0, 1, *(m + d for m in (S, 2 * S, START) for d in (-1, 0, 1))})


def prime_field_params(rng, M):
    f = PrimeField(M)
    return HoradamParams(f(rng.randrange(M)), f(rng.randrange(M)),
                         f(rng.randrange(1, M)), f(rng.randrange(1, M)))


class TestBlockedWalk:
    """term's S-indices-per-step walk against doubling_term and the single-step
    walk, on both fields, every kind and both signs."""

    @staticmethod
    def _agree(params, n):
        for kind in SequenceKind:
            for m in (n, -n):
                expected = single_step_term(params, kind, m)
                value = term(params, kind, m)
                assert type(value) is type(expected) and value == expected, (params, kind, m)
                assert doubling_term(params, kind, m) == expected, (params, kind, m)

    def test_block_boundaries_over_q(self):
        rng = random.Random(22)
        for params in KERNEL_PARAMS + [random_params(rng) for _ in range(10)]:
            for n in BLOCK_N:
                self._agree(params, n)

    def test_random_indices_over_q(self):
        rng = random.Random(2201)
        for _ in range(20):
            self._agree(random_params(rng), rng.randint(START, 3000))

    @pytest.mark.parametrize("M", [2, 3, 5, 7, 1_000_000_007])
    def test_prime_fields(self, M):
        rng = random.Random(M)
        for _ in range(4):
            params = prime_field_params(rng, M)
            for n in BLOCK_N + [rng.randint(START, 5000)]:
                self._agree(params, n)

    @pytest.mark.parametrize("kind", SequenceKind)
    def test_a_million_indices_over_gf_both_directions(self, kind):
        params = prime_field_params(random.Random(22), 1_000_000_007)
        for n in (10 ** 6, -10 ** 6):
            assert term(params, kind, n) == doubling_term(params, kind, n), n

    def test_walk_is_blocked_from_three_blocks(self, monkeypatch):
        # one transition from |n| = START = 192, on either field and at
        # either sign; none below. The threshold is also a literal, so that
        # moving it fails here
        built = []
        transition = sequences._transition
        monkeypatch.setattr(sequences, "_transition", lambda *args: built.append(args)
                            or transition(*args))
        gparams = prime_field_params(random.Random(3), 101)
        for params in (FIB, gparams):
            for n in (START - 1, 1 - START, START, -START - 5, 191, -191, 192, -192):
                built.clear()
                term(params, U, n)
                assert len(built) == (abs(n) >= 192), (params, n)


class TestTermContext:
    def test_matches_uncached_path(self):
        rng = random.Random(37)
        for _ in range(10):
            params = random_params(rng)
            ctx = TermContext(params)
            indices = [rng.randint(-25, 25) for _ in range(30)]
            for n in indices:
                assert ctx.u(n) == term(params, U, n)
                assert ctx.v(n) == term(params, V, n)
                assert ctx.w(n) == term(params, W, n)

    def test_checkers_keep_no_reference_to_the_context(self, monkeypatch):
        # an accessor cached on the context would close a reference cycle, and
        # a dead cache would then wait for a full garbage collection; with the
        # collector off, every context a call builds is freed when it returns
        built = []

        class RecordingTermContext(TermContext):
            # no __slots__, so that instances take weak references
            def __init__(self, params):
                TermContext.__init__(self, params)
                built.append(weakref.ref(self))

        monkeypatch.setattr(catalog, "TermContext", RecordingTermContext)
        # a failing identity, so that fuzz also builds a counterexample report
        monkeypatch.setattr(catalog, "REGISTRY", dict(
            catalog.REGISTRY, broken=catalog._I("broken", "n", "u(n) = u(n) + 1")))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            report = catalog.evaluate("H", FIBW, dict(n=5, m=-3, r=2, s=-4))
            assert report.equal and len(built) == 1 and built[0]() is None
            report = catalog.fuzz(["H", "broken"], 3, catalog.SamplerConfig(), seed=1)
            assert report.stats[1].first_counterexample is not None
            assert len(built) == 4 and all(ref() is None for ref in built)
        finally:
            if was_enabled:
                gc.enable()

    def test_scalar_pairs_are_the_fractions_pairs(self):
        # p, q, a and b are cached as each Fraction's own reduced pair, the
        # sign on the numerator
        params = HoradamParams(Fraction(-4, 6), Fraction(3), Fraction(5, -7), Fraction(-9, 12))
        ctx = TermContext(params)
        pairs = (*ctx._scalars, *(ctx._vals[W][i] for i in (0, 1)), ctx._vals[V][1])
        expected = (params.p, params.q, params.a, params.b, params.p)
        for pair, x in zip(pairs, expected):
            assert (type(pair), pair.n, pair.d) == (Ratio, x.numerator, x.denominator)

    def test_qpow_pairs_are_the_operators_pairs(self):
        # the cached pair of q^e is the reduced pair of Fraction's q ** e, at
        # either sign of q and of e, with the sign on the denominator where
        # q's reciprocal puts it: at a negative q to an odd negative power
        for q in (Fraction(2, 3), Fraction(-2, 3), Fraction(-5), Fraction(7, 4), Fraction(1)):
            ctx = TermContext(HoradamParams(0, 1, 1, q))
            for e in range(-6, 7):
                pair = ctx._qpow(e)
                x = q ** e
                sign = -1 if q < 0 and e < 0 and e % 2 else 1
                assert (type(pair), pair.n, pair.d) == (
                    Ratio, sign * x.numerator, sign * x.denominator), (q, e)
                assert ctx._qpow(e) is pair
        f = PrimeField(101)
        ctx = TermContext(HoradamParams(f(0), f(1), f(1), f(5)))
        assert ctx._qpow(-3) == f(5) ** -3 and isinstance(ctx._qpow(-3), ModInt)

    def test_qp(self):
        ctx = TermContext(HoradamParams(0, 1, 1, Fraction(2, 3)))
        assert ctx.qp(-2) == Fraction(9, 4)
        assert ctx.qp(0) == 1

    def test_repeated_queries_stable(self):
        ctx = TermContext(FIBW)
        assert ctx.w(-7) == ctx.w(-7)
        assert ctx.u(13) == ctx.u(13)

    def test_checker_reads_are_the_cache_dicts_subscripts(self):
        # u, v, w and qp are the C-level __getitem__ of the context's dicts:
        # w of the kind's own run, qp of the q-power cache
        ctx = TermContext(FIBW)
        for kind in SequenceKind:
            t = Terms(ctx, kind)
            for member, cache in (("u", ctx._vals[U]), ("v", ctx._vals[V]),
                                  ("w", ctx._vals[kind]), ("qp", ctx._qpows)):
                read = getattr(t, member)
                assert inspect.isbuiltin(read), (kind, member)
                assert read.__self__ is cache and read.__name__ == "__getitem__"

    def test_a_cached_read_starts_no_python_frame(self):
        t = Terms(TermContext(FIBW), W)
        reads = (t.u, t.v, t.w, t.qp)
        for read in reads:
            read(-6)
            read(7)     # the walks and the q-powers are built before the hits
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            for read in reads:
                read(-6)
                read(7)
        finally:
            sys.setprofile(None)
        # eight C calls and returns, then the profiler's own removal
        assert events == ["c_call", "c_return"] * 8 + ["c_call"]

    @pytest.mark.parametrize("field", ["Q", "GF(10^9+7)"])
    def test_subscripts_equal_term(self, field):
        rng = random.Random(2701)
        params = random_params(rng)
        if field != "Q":
            f = PrimeField(1_000_000_007)
            params = HoradamParams(*(f(getattr(params, x)) for x in "abpq"))
        ctx = TermContext(params)
        order = [rng.randint(-30, 30) for _ in range(40)] + list(range(-30, 31))
        for kind in SequenceKind:
            run = ctx._vals[kind]
            for n in order:
                assert reduced(run[n]) == term(params, kind, n), (field, kind, n)
        for e in range(-5, 6):
            assert reduced(ctx._qpows[e]) == params.q ** e


# every public function of `horadam` with an index argument, with a valid
# call; `binomial`'s k and j are binomial arguments, not term indices. The
# test also passes bad indices to `TermContext`'s public accessors.
INDEX_NAMES = {"n", "m", "r", "s", "k", "lo", "hi"}
_LEMMA_CFG = lemmas.RecurrenceConfig(Fraction(1), FIB.p, -FIB.q, 1, 2)
_X = TermContext(FIB).u
VALID_CALLS = {
    "term": (FIB, U, 5),
    "doubling_term": (FIB, U, 5),
    "binet_term": (FIB, U, 5),
    "fast_uv": (FIB, 5),
    "term_range": (FIB, U, 0, 3),
    "run_bench": (Fraction(1), Fraction(-1), 5),
    "lemma1_sum": (_LEMMA_CFG, _X, _X, 5, 2),
    "lemma2_sums": (_LEMMA_CFG, _X, 5, 2, 1),
    "lemma3_binomial_sums": (_LEMMA_CFG, _X, 5, 2, 1),
    "lemma45_reciprocal": (_LEMMA_CFG, _X, _X, 5, 2, "L4"),
    "theorem_sum": (theorems.TheoremSelector(5, 1), FIB, 9, 2, 1, 0, 1),
    "reciprocal_sum": (theorems.TheoremSelector(5, 1), FIB, 9, 2, 1, 0, 1),
    "singularity_scan": (theorems.TheoremSelector(5, 1), FIB, 9, 2, 1, 0, 1),
}


def test_every_public_index_argument_takes_only_an_int():
    public = {name: getattr(horadam, name) for name in dir(horadam)
              if not name.startswith("_") and inspect.isfunction(getattr(horadam, name))}
    with_indices = {name for name, fn in public.items()
                    if INDEX_NAMES & set(inspect.signature(fn).parameters)}
    assert with_indices - {"binomial"} == set(VALID_CALLS)
    for name, args in VALID_CALLS.items():
        fn = public[name]
        fn(*args)
        params = list(inspect.signature(fn).parameters)
        for i, arg in enumerate(params):
            if arg not in INDEX_NAMES:
                continue
            for bad in (True, 2.0, "3"):
                call = list(args)
                call[i] = bad
                with pytest.raises(ValueError, match=f"^{arg} must be an int, got "):
                    fn(*call)
    ctx = TermContext(FIB)
    for read, arg in ((ctx.u, "n"), (ctx.v, "n"), (ctx.w, "n"), (ctx.qp, "e")):
        read(5)
        for bad in (True, 2.0, "3"):
            with pytest.raises(ValueError, match=f"^{arg} must be an int, got "):
                read(bad)
