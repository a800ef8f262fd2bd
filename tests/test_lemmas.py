import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from horadam import lemmas
from horadam.errors import ConfigViolation, DegenerateStride, SingularSummand
from horadam.field import ModInt, PrimeField, ratio_sum, reduced
from horadam.lemmas import (
    RecurrenceConfig,
    check_config,
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from horadam.sequences import PRESETS, HoradamParams, SequenceKind, TermContext, Terms

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
    @pytest.mark.parametrize("value", [1.0, Decimal("1"), "1", True, (1, 1)],
                             ids=["float", "Decimal", "str", "bool", "pair"])
    def test_coefficients_must_be_exact_scalars(self, coefficient, value):
        # a float's rounding would refute a true relation, and a Decimal, a
        # str or the checkers' internal (n, d) pair would fail later in the
        # operators
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
    lambda cfg, x: check_config(cfg, x, x, (n for n in (5, 6))),
], ids=["lemma1", "lemma2", "lemma3-k0", "L4", "check_config"])
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

    def test_window_is_any_iterable(self):
        # the fields are read at the first index, which is still probed; an
        # empty window holds for any configuration
        ctx = TermContext(FIB)
        cfg = defining_cfg(FIB)
        assert check_config(RecurrenceConfig(1, ModInt(1, 7), 1, 1, 2), ctx.u, ctx.u, [])
        assert check_config(cfg, ctx.u, ctx.u, (n for n in range(-5, 6)))

        def off_at_zero(n):
            return ctx.u(n) + (n == 0)

        assert not check_config(cfg, off_at_zero, off_at_zero, iter([0]))

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

    @pytest.mark.parametrize("variant", ["L4", "L5a", "L5b", "L5c"])
    def test_int_terms_sum_exactly(self, variant):
        # int coefficients with int-valued accessors are exact rationals: the
        # summands' quotients are Fractions, where a float's rounding made
        # some reports unequal
        ctx = TermContext(FIB)

        def fib(n):
            return ctx.u(n).numerator

        cfg = RecurrenceConfig(1, 1, 1, 1, 2)
        for n in range(12, 32):
            for k in range(5):
                rep = lemma45_reciprocal(cfg, fib, fib, n, k, variant)
                assert rep.equal and type(rep.lhs) is Fraction, (n, k)

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


class TestPairPath:
    """The lemma leg on (n, d) pairs, as the theorem checkers run it over Q:
    a tuple has no unary - and never equals 0, so the denominator scan
    tests a pair's numerator and the pair path negates explicitly."""

    # Fibonacci's recurrence, h*X(i) = f1*X(i-1) + f2*X(i-2) with
    # h = f1 = f2 = 1, each coefficient an unreduced pair
    REL = ((2, 2), (3, 3), (-1, -1), 1, 2)

    def test_a_zero_numerator_is_flagged(self):
        # X(3) = 0/5 is zero, though the tuple (0, 5) is not equal to 0
        def X(i):
            return (0, 5) if i == 3 else (i + 10, 1)
        window = list(lemmas._denominator_window("L4", 1, 2, X, 5, 2))
        assert window == [(0, 2, False), (0, 3, True), (1, 4, False), (2, 5, False)]
        with pytest.raises(SingularSummand) as exc:
            lemmas._lemma("L4", self.REL, X, X, 5, 2)
        assert (exc.value.j, exc.value.index) == (0, 3)

    def test_the_solved_relation_negates_f2s_pair(self):
        rel, shift = lemmas._rearranged(self.REL, "solved")
        assert (rel, shift) == (((3, 3), (2, 2), (1, -1), -1, 1), 1)

    @pytest.mark.parametrize("label", ["lemma 2 variant 3", "lemma 3 variant 2",
                                       "lemma 3 variant 3"])
    def test_an_odd_k_negates_the_pair(self, label):
        X = Terms(TermContext(FIB), SequenceKind.W).w
        left_side, how, _ = lemmas._VARIANTS[label]
        shift = lemmas._rearranged(self.REL, how)[1]
        # the operator path on the same values, which negates with unary -
        by_fractions = (*map(reduced, self.REL[:3]), *self.REL[3:])

        def read(i):
            return reduced(X(i))
        for k in range(4):
            lhs, rel, negated = lemmas._lemma(label, self.REL, X, X, 9, k)
            summed = left_side(rel, X, X, 9, k, label, shift, True)
            assert negated == (k % 2 == 1) and type(lhs) is tuple
            assert lhs == ((-summed[0], summed[1]) if negated else summed)
            assert Fraction(*lhs) == lemmas._lemma(label, by_fractions, read, read, 9, k)[0]


# Each lemma 1 and L4 variant on the relation h*X(i) = f1*X(i-c) + f2*Y(i-d):
# the index, in that relation, of the instance its summand e = 0..k telescopes
# (as a function of n, c, d, e), and a term that instance reads and no other
# summand's does when c = 3 and d = 5 (Y(i-d) when Y is an accessor of its own).
TELESCOPED = {
    "lemma 1": (lambda n, c, d, e: n - c * e, lambda i, c, d: ("Y", i - d)),
    "lemma 2 variant 1": (lambda n, c, d, e: n - c * e, lambda i, c, d: ("X", i - d)),
    "lemma 2 variant 2": (lambda n, c, d, e: n - d * e, lambda i, c, d: ("X", i - c)),
    "lemma 2 variant 3": (lambda n, c, d, e: n + c - (d - c) * e, lambda i, c, d: ("X", i)),
    "L4": (lambda n, c, d, e: n - c * e, lambda i, c, d: ("Y", i - d)),
    "L5a": (lambda n, c, d, e: n - c * e, lambda i, c, d: ("X", i - d)),
    "L5b": (lambda n, c, d, e: n - d * e, lambda i, c, d: ("X", i - c)),
    "L5c": (lambda n, c, d, e: n + c - (d - c) * e, lambda i, c, d: ("X", i)),
}


def _public(label, cfg, X, Y, n, k):
    """The public lemma function's report for the variant `label`."""
    if label == "lemma 1":
        return lemma1_sum(cfg, X, Y, n, k)
    if label.startswith("lemma 2"):
        return lemma2_sums(cfg, X, n, k, int(label[-1]))
    return lemma45_reciprocal(cfg, X, Y if label == "L4" else X, n, k, label)


class TestEverySummandIsChecked:
    """The probe checks the relation at each summand it folds: one term off
    at one summand's instance, read there alone, fails the relation there,
    and the violation names that index."""

    N, K = 30, 3

    @staticmethod
    def _pairs():
        # the master relation at r=2, s=0, m=5 (c=3, d=5) as pairs, and the
        # accessor with a term moved by 1
        t = Terms(TermContext(FIBW), SequenceKind.W)
        (qn, qd), (un, ud) = t.qp(2), t.u(3)
        rel = (t.u(2), t.u(5), (-qn * un, qd * ud), 3, 5)
        return rel, t.w, lambda x: (x[0] + x[1], x[1])

    @staticmethod
    def _operators(params):
        ctx = TermContext(params)
        cfg = master_cfg(ctx, r=2, s=0, m=5)
        return cfg, ctx.w, lambda x: x + 1

    @pytest.mark.parametrize("label", TELESCOPED)
    @pytest.mark.parametrize("field", ["pairs", "Fraction", "ModInt"])
    def test_a_term_off_at_summand_e_names_its_index(self, label, field):
        if field == "pairs":
            rel, w, moved = self._pairs()

            def call(X, Y):
                return lemmas._lemma(label, rel, X, Y, self.N, self.K)
        else:
            params = FIBW if field == "Fraction" else HoradamParams(
                *map(PrimeField(10 ** 9 + 7), (3, 2, 1, -1)))
            cfg, w, moved = self._operators(params)
            assert (cfg.c, cfg.d) == (3, 5)

            def call(X, Y):
                return _public(label, cfg, X, Y, self.N, self.K)
        point, term = TELESCOPED[label]
        call(w, w)
        for e in range(self.K + 1):
            i = point(self.N, 3, 5, e)
            accessor, at = term(i, 3, 5)

            def off(j, at=at):
                return moved(w(j)) if j == at else w(j)
            with pytest.raises(ConfigViolation) as exc:
                call(w, off) if accessor == "Y" else call(off, off)
            assert str(exc.value) == f"recurrence fails at index {i} while evaluating {label}"


class TestFoldRule:
    """On pairs the lemma 1 and L4 sums are `ratio_sum` over the summands in
    the probe's order, the summand with j = k first, times the scale: f2, or
    X(n)*X(n-(k+1)c)*f2 for L4, with no gcd."""

    @staticmethod
    def _summand(reciprocal, rel, X, Y, n, k, j):
        (hn, hd), (f1n, f1d), _, c, d = rel
        if reciprocal:
            (yn, yd), (xan, xad), (xbn, xbd) = (Y(n - d - c * k + c * j), X(n - c * k + c * j),
                                                X(n - c - c * k + c * j))
            return (hn ** (k - j) * f1n ** j * yn * xad * xbd,
                    hd ** (k - j) * f1d ** j * yd * xan * xbn)
        yn, yd = Y(n - k * c - d + c * j)
        return f1n ** (k - j) * hn ** j * yn, f1d ** (k - j) * hd ** j * yd

    @pytest.mark.parametrize("label", TELESCOPED)
    def test_the_pair_is_ratio_sum_in_probe_order_times_the_scale(self, label):
        rng = random.Random(181)
        left_side, how, _ = lemmas._VARIANTS[label]
        reciprocal = left_side is lemmas._reciprocal_sum
        checked = 0
        while checked < 30:
            p, q, a, b = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                          for _ in range(4))
            t = Terms(TermContext(HoradamParams(a, b, p, q)), SequenceKind.W)
            n, m, r, s = (rng.randint(-6, 6) for _ in range(4))
            k = rng.randint(0, 5)
            if label in ("lemma 1", "L4"):
                # h=w(m+r), f1=q^(r-s)*w(m+s), f2=u(r-s), c=r-s, d=0, X=u, Y=w(i+m+s)
                (qn, qd), (wn, wd) = t.qp(r - s), t.w(m + s)
                rel = (t.w(m + r), (qn * wn, qd * wd), t.u(r - s), r - s, 0)
                X, Y = t.u, (lambda i, shift=m + s: t.w(i + shift))
            else:
                (qn, qd), (un, ud) = t.qp(r - s), t.u(m - r)
                rel = (t.u(r - s), t.u(m - s), (-qn * un, qd * ud), m - r, m - s)
                X = Y = t.w
            if 0 in (x[0] for x in rel[:3]) or how == "solved swapped" and rel[3] == rel[4]:
                continue
            try:
                lhs, summed_on, negated = lemmas._lemma(label, rel, X, Y, n, k)
            except SingularSummand:
                continue
            assert summed_on == lemmas._rearranged(rel, how)[0]
            sn, sd = ratio_sum(self._summand(reciprocal, summed_on, X, Y, n, k, j)
                               for j in reversed(range(k + 1)))
            (f2n, f2d), c = summed_on[2], summed_on[3]
            if reciprocal:
                (fn, fd), (ln, ld) = X(n), X(n - c * (k + 1))
                sn, sd = fn * ln * sn, fd * ld * sd
            assert lhs == ((-f2n * sn, f2d * sd) if negated else (f2n * sn, f2d * sd))
            checked += 1


def _unread(i):
    raise AssertionError(f"term {i} read before the variant was checked")


@pytest.mark.parametrize("call,message", [
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, 0), "lemma 2 variant must be 1, 2 or 3, got 0"),
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, 4), "lemma 2 variant must be 1, 2 or 3, got 4"),
    (lambda cfg: lemma3_binomial_sums(cfg, _unread, 6, 2, 4),
     "lemma 3 variant must be 1, 2 or 3, got 4"),
    # equal to a variant number is not enough: the type must be int
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, True), "variant must be an int, got True"),
    (lambda cfg: lemma2_sums(cfg, _unread, 6, 2, 2.0), "variant must be an int, got 2.0"),
    (lambda cfg: lemma3_binomial_sums(cfg, _unread, 6, 2, Fraction(3)),
     "variant must be an int, got Fraction(3, 1)"),
    (lambda cfg: lemma45_reciprocal(cfg, _unread, _unread, 6, 2, "L6"),
     "reciprocal variant must be L4, L5a, L5b or L5c, got 'L6'"),
])
def test_bad_variant_rejected_before_any_term_is_read(call, message):
    with pytest.raises(ValueError) as exc:
        call(defining_cfg(FIB))
    assert str(exc.value) == message
