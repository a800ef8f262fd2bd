import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from horadam.errors import ConfigViolation, DegenerateStride, SingularSummand
from horadam.field import ModInt, PrimeField, Ratio
from horadam.lemmas import (
    RecurrenceConfig,
    check_config,
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from horadam.sequences import PRESETS, HoradamParams, TermContext

FIB = PRESETS["fibonacci"]
FIBW = HoradamParams(3, 2, 1, -1)


def defining_cfg(params):
    """The recurrence itself as a lemma configuration: h=1, f1=p, f2=-q."""
    return RecurrenceConfig(Fraction(1), params.p, -params.q, 1, 2)


def master_cfg(ctx, r, s, m):
    """Configuration carried by every shifted w-sequence."""
    return RecurrenceConfig(ctx.u(r - s), ctx.u(m - s),
                            -ctx.qp(r - s) * ctx.u(m - r), m - r, m - s)


class TestRecurrenceConfig:
    def test_rejects_zero_coefficients(self):
        for h, f1, f2 in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ConfigViolation):
                RecurrenceConfig(Fraction(h), Fraction(f1), Fraction(f2), 1, 2)

    @pytest.mark.parametrize("stride", ["c", "d"])
    @pytest.mark.parametrize("value", [True, 2.0, "3"], ids=["bool", "float", "str"])
    def test_strides_must_be_ints(self, stride, value):
        # a bool read as 1, or a float failing later naming n, is refused here
        strides = {"c": 1, "d": 2, stride: value}
        message = f"{stride} must be an int, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecurrenceConfig(Fraction(1), FIB.p, -FIB.q, **strides)

    @pytest.mark.parametrize("coefficient", ["h", "f1", "f2"])
    @pytest.mark.parametrize("value", [1.0, Decimal("1"), "1", True, Ratio(1, 1)],
                             ids=["float", "Decimal", "str", "bool", "Ratio"])
    def test_coefficients_must_be_exact_scalars(self, coefficient, value):
        # a float's rounding would refute a true relation, and a Decimal, a
        # str or the internal Ratio would fail later in the operators
        coefficients = {"h": 1, "f1": FIB.p, "f2": -FIB.q, coefficient: value}
        message = (f"coefficient {coefficient} must be an int, a Fraction or a ModInt, "
                   f"got {type(value).__name__} {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecurrenceConfig(**coefficients, c=1, d=2)

    def test_takes_ints_fractions_and_modints(self):
        f = PrimeField(101)
        for h, f1, f2 in [(1, 1, 1), (Fraction(1), FIB.p, -FIB.q), (f(1), f(1), f(1)),
                          (1, Fraction(1, 2), 1), (f(3), 1, -1)]:
            cfg = RecurrenceConfig(h, f1, f2, 1, 2)
            assert (cfg.h, cfg.f1, cfg.f2) == (h, f1, f2)

    @pytest.mark.parametrize("h,f1,f2", [
        (ModInt(1, 7), ModInt(1, 11), ModInt(1, 7)),
        (ModInt(1, 7), Fraction(1, 2), 1),
        (1, Fraction(3), ModInt(2, 5)),
    ], ids=["two-moduli", "modint-and-fraction", "fraction-and-modint"])
    def test_coefficients_must_share_one_field(self, h, f1, f2):
        # an int goes with either field; a second field fails here, as it
        # does for HoradamParams, not later in the operators
        message = ("coefficients h, f1 and f2 must share one field (ints with Fractions, "
                   f"or ints with ModInts of one modulus), got {(h, f1, f2)!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecurrenceConfig(h, f1, f2, 1, 2)


GF7 = HoradamParams(*map(PrimeField(7), (0, 1, 1, -1)))


@pytest.mark.parametrize("call", [
    lambda cfg, x: lemma1_sum(cfg, x, x, 9, 2),
    lambda cfg, x: lemma2_sums(cfg, x, 9, 2, 3),
    lambda cfg, x: lemma3_binomial_sums(cfg, x, 9, 0, 1),
    lambda cfg, x: lemma45_reciprocal(cfg, x, x, 9, 2, "L4"),
], ids=["lemma1", "lemma2", "lemma3-k0", "L4"])
@pytest.mark.parametrize("coefficients,params", [
    ((1, ModInt(1, 7), 1), FIB),
    ((Fraction(1), Fraction(1, 2), Fraction(1, 2)), GF7),
    ((ModInt(1, 11), 1, 1), GF7),
], ids=["GF(7)-over-Q", "Q-over-GF(7)", "GF(11)-over-GF(7)"])
def test_accessors_must_share_the_coefficients_field(call, coefficients, params):
    # named before any sum runs, where the operators raised a bare TypeError
    # (or "mixed moduli") on the first product
    x = TermContext(params).u
    with pytest.raises(ValueError, match="the coefficients and the accessors' terms must share "
                                         "one field, got coefficients"):
        call(RecurrenceConfig(*coefficients, 1, 2), x)


class TestCheckConfig:
    def test_defining_recurrence(self):
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        assert check_config(cfg, ctx.u, ctx.u, range(-5, 6))

    def test_master_identity_rearranged(self):
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        assert check_config(cfg, ctx.w, ctx.w, range(-4, 5))

    def test_perturbed_config_fails(self):
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(Fraction(1), FIB.p + 1, -FIB.q, 1, 2)
        assert not check_config(cfg, ctx.u, ctx.u, range(-5, 6))

    def test_bad_config_raises_during_sum(self):
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(Fraction(1), FIB.p + 1, -FIB.q, 1, 2)
        with pytest.raises(ConfigViolation):
            lemma1_sum(cfg, ctx.u, ctx.u, 6, 3)


class TestLemma1:
    def test_k0_restates_recurrence(self):
        ctx = TermContext(FIBW)
        cfg = defining_cfg(FIBW)
        rep = lemma1_sum(cfg, ctx.w, ctx.w, 5, 0)
        assert rep.equal
        assert rep.lhs == -FIBW.q * ctx.w(3)
        assert rep.rhs == ctx.w(5) - FIBW.p * ctx.w(4)

    def test_direct_summation_oracle(self):
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        rep = lemma1_sum(cfg, ctx.u, ctx.u, 6, 3)
        h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
        n, k = 6, 3
        oracle = f2 * sum(f1 ** (k - j) * h ** j * ctx.u(n - k * c - d + c * j)
                          for j in range(k + 1))
        assert rep.lhs == oracle
        assert rep.equal

    def test_two_sequence_instantiation(self):
        # h=w(m+r), f1=q^(r-s)w(m+s), f2=u(r-s); X=u, Y=w shifted by m+s
        ctx = TermContext(FIBW)
        r, s, m, n, k = 1, 0, 2, 5, 2
        cfg = RecurrenceConfig(ctx.w(m + r), ctx.qp(r - s) * ctx.w(m + s),
                               ctx.u(r - s), r - s, 0)
        Y = lambda i: ctx.w(i + m + s)
        rep = lemma1_sum(cfg, ctx.u, Y, n, k)
        assert rep.equal
        assert rep.lhs == 1840  # frozen from a hand computation over w=3,2,5,7,...

    def test_negative_k_rejected(self):
        ctx = TermContext(FIB)
        with pytest.raises(ValueError):
            lemma1_sum(defining_cfg(FIB), ctx.u, ctx.u, 4, -1)


class TestLemma2:
    def test_variant1_coincides_with_lemma1(self):
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        for n in range(-4, 5):
            for k in range(0, 4):
                a = lemma2_sums(cfg, ctx.w, n, k, 1)
                b = lemma1_sum(cfg, ctx.w, ctx.w, n, k)
                assert (a.lhs, a.rhs) == (b.lhs, b.rhs)

    def test_variant2_direct_oracle(self):
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        rep = lemma2_sums(cfg, ctx.u, 8, 4, 2)
        h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
        n, k = 8, 4
        oracle = f1 * sum(f2 ** (k - j) * h ** j * ctx.u(n - k * d - c + d * j)
                          for j in range(k + 1))
        assert rep.lhs == oracle
        assert rep.equal

    def test_variant3_equal(self):
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        for n in range(-3, 4):
            for k in range(0, 4):
                assert lemma2_sums(cfg, ctx.w, n, k, 3).equal

    def test_variant3_zero_stride_rejected(self):
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(Fraction(1), Fraction(1, 2), Fraction(1, 2), 2, 2)
        with pytest.raises(DegenerateStride):
            lemma2_sums(cfg, ctx.u, 5, 2, 3)


class TestLemma3:
    def test_k0_both_sides_xn(self):
        ctx = TermContext(FIBW)
        cfg = defining_cfg(FIBW)
        for variant in (1, 2, 3):
            rep = lemma3_binomial_sums(cfg, ctx.w, 6, 0, variant)
            assert rep.lhs == rep.rhs == ctx.w(6)

    def test_k1_variant1_is_recurrence(self):
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        n = 4
        rep = lemma3_binomial_sums(cfg, ctx.w, n, 1, 1)
        assert rep.lhs == cfg.f2 * ctx.w(n - cfg.d) + cfg.f1 * ctx.w(n - cfg.c)
        assert rep.rhs == cfg.h * ctx.w(n)
        assert rep.equal

    def test_variant2_direct_oracle(self):
        from math import comb

        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        n, k = 7, 5
        rep = lemma3_binomial_sums(cfg, ctx.u, n, k, 2)
        h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
        oracle = sum((-1) ** j * comb(k, j) * f2 ** (k - j) * h ** j
                     * ctx.u(n + (c - d) * k + d * j) for j in range(k + 1))
        assert rep.lhs == oracle == (-1) ** k * f1 ** k * ctx.u(n)

    def test_all_variants_randomized(self):
        rng = random.Random(5)
        ctx = TermContext(FIBW)
        for _ in range(40):
            r, s, m = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
            if ctx.u(r - s) == 0 or ctx.u(m - s) == 0 or ctx.u(m - r) == 0:
                continue
            cfg = master_cfg(ctx, r, s, m)
            n, k = rng.randint(-5, 5), rng.randint(0, 4)
            for variant in (1, 2, 3):
                assert lemma3_binomial_sums(cfg, ctx.w, n, k, variant).equal


class TestReciprocal:
    def test_k0_reduces_to_recurrence_consequence(self):
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        rep = lemma45_reciprocal(cfg, ctx.u, ctx.u, 9, 0, "L5a")
        assert rep.equal

    def test_l5a_direct_oracle(self):
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        n, k = 9, 2
        rep = lemma45_reciprocal(cfg, ctx.u, ctx.u, n, k, "L5a")
        h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
        oracle = ctx.u(n) * ctx.u(n - c * (k + 1)) * f2 * sum(
            h ** (k - j) * f1 ** j * ctx.u(n - d - c * k + c * j)
            / (ctx.u(n - c * k + c * j) * ctx.u(n - c - c * k + c * j))
            for j in range(k + 1))
        assert rep.lhs == oracle
        assert rep.equal

    def test_l4_two_sequences(self):
        ctx = TermContext(FIBW)
        r, s, m, n, k = 2, 0, 1, 9, 1
        cfg = RecurrenceConfig(ctx.w(m + r), ctx.qp(r - s) * ctx.w(m + s),
                               ctx.u(r - s), r - s, 0)
        rep = lemma45_reciprocal(cfg, ctx.u, lambda i: ctx.w(i + m + s), n, k, "L4")
        assert rep.equal

    def test_l5b_l5c(self):
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        assert lemma45_reciprocal(cfg, ctx.w, ctx.w, 11, 2, "L5b").equal
        assert lemma45_reciprocal(cfg, ctx.w, ctx.w, 11, 2, "L5c").equal

    def test_singular_summand_names_offender(self):
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        # denominator window 0..3 crosses u(0) = 0
        with pytest.raises(SingularSummand) as exc:
            lemma45_reciprocal(cfg, ctx.u, ctx.u, 3, 2, "L5a")
        assert exc.value.index == 0

    def test_l5c_zero_stride_rejected(self):
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(Fraction(1), Fraction(1, 2), Fraction(1, 2), 2, 2)
        with pytest.raises(DegenerateStride):
            lemma45_reciprocal(cfg, ctx.u, ctx.u, 9, 1, "L5c")

    def test_telescoping_consistency_with_lemma2(self):
        # clearing the L5a denominators (the X_n * X_{n-c(k+1)} prefix does
        # exactly that) must reproduce the lemma-2 variant-1 sum: both
        # collapse to the same closed form
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        for n in (9, 11, 14):
            for k in (0, 1, 2):
                a = lemma45_reciprocal(cfg, ctx.w, ctx.w, n, k, "L5a")
                b = lemma2_sums(cfg, ctx.w, n, k, 1)
                assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_cleared_summand_is_role_swapped_lemma2_summand(self):
        # per summand, multiplying by the two denominators yields the
        # variant-1 summand at the same index with the h/f1 roles exchanged
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
        n, k = 11, 2
        for j in range(k + 1):
            cleared = (f2 * h ** (k - j) * f1 ** j
                       * ctx.w(n - d - c * k + c * j))
            swapped = f2 * h ** (k - j) * f1 ** j * ctx.w(n - k * c - d + c * j)
            assert cleared == swapped


class TestDerivedVariantsPinned:
    # (lhs, rhs) recorded from the variants' written-out sums, before they
    # were derived from rearrangements of the relation; k = 3 is odd, so a
    # lost (-1)^k shows
    CASES = [
        (lambda cfg, w: lemma2_sums(cfg, w, 6, 3, 2), 8),
        (lambda cfg, w: lemma2_sums(cfg, w, 6, 3, 3), -492),
        (lambda cfg, w: lemma3_binomial_sums(cfg, w, 6, 3, 2), -248),
        (lambda cfg, w: lemma3_binomial_sums(cfg, w, 6, 3, 3), 31),
        (lambda cfg, w: lemma45_reciprocal(cfg, w, w, 11, 3, "L5b"), 344),
        (lambda cfg, w: lemma45_reciprocal(cfg, w, w, 11, 3, "L5c"), 5481),
    ]

    @pytest.mark.parametrize("call,value", CASES)
    def test_sides(self, call, value):
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        rep = call(cfg, ctx.w)
        assert (rep.lhs, rep.rhs) == (value, value)
        assert rep.cfg is cfg

    @pytest.mark.parametrize("call,message", [
        (lambda cfg, w: lemma2_sums(cfg, w, 6, 3, 1),
         "index 6 while evaluating lemma 2 variant 1"),
        (lambda cfg, w: lemma2_sums(cfg, w, 6, 3, 2),
         "index 6 while evaluating lemma 2 variant 2"),
        (lambda cfg, w: lemma2_sums(cfg, w, 6, 3, 3),
         "index 7 while evaluating lemma 2 variant 3"),
        (lambda cfg, w: lemma3_binomial_sums(cfg, w, 6, 3, 2),
         "index 3 while evaluating lemma 3 variant 2"),
        (lambda cfg, w: lemma3_binomial_sums(cfg, w, 6, 3, 3),
         "index 9 while evaluating lemma 3 variant 3"),
        (lambda cfg, w: lemma45_reciprocal(cfg, w, w, 11, 3, "L5c"),
         "index 12 while evaluating L5c"),
    ])
    def test_perturbed_config_message(self, call, message):
        # the failing index is stated in the caller's relation
        ctx = TermContext(FIBW)
        cfg = master_cfg(ctx, r=2, s=0, m=3)
        bad = RecurrenceConfig(cfg.h, cfg.f1 + 1, cfg.f2, cfg.c, cfg.d)
        with pytest.raises(ConfigViolation) as exc:
            call(bad, ctx.w)
        assert str(exc.value) == "recurrence fails at " + message


def _unread(i):
    raise AssertionError(f"term {i} read before the variant was checked")


@pytest.mark.parametrize("call,message", [
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, 0), "lemma 2 variant must be 1, 2 or 3, got 0"),
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, 4), "lemma 2 variant must be 1, 2 or 3, got 4"),
    (lambda cfg: lemma3_binomial_sums(cfg, _unread, 6, 2, 4),
     "lemma 3 variant must be 1, 2 or 3, got 4"),
    # equal to a variant number is not enough: the type must be int
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, True),
     "lemma 2 variant must be 1, 2 or 3, got True"),
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, 2.0),
     "lemma 2 variant must be 1, 2 or 3, got 2.0"),
    (lambda cfg: lemma3_binomial_sums(cfg, _unread, 6, 2, Fraction(3)),
     "lemma 3 variant must be 1, 2 or 3, got 3"),
    (lambda cfg: lemma45_reciprocal(cfg, _unread, _unread, 6, 2, "L6"),
     "reciprocal variant must be L4, L5a, L5b or L5c, got 'L6'"),
])
def test_bad_variant_rejected_before_any_term_is_read(call, message):
    with pytest.raises(ValueError) as exc:
        call(defining_cfg(FIB))
    assert str(exc.value) == message
