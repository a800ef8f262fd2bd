import json
import pathlib
import random
import re
import sys
from dataclasses import fields, replace
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from horadam import cli, lemmas, theorems
from horadam.catalog import SamplerConfig
from horadam.errors import ConfigViolation, DegenerateStride, GuardViolation, SingularSummand
from horadam.field import ModInt, PrimeField, reduced
from horadam.formula import _pair_lines, _python, compile_expression, reads, sides
from horadam.lemmas import (
    LemmaReport,
    RecurrenceConfig,
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from horadam.sequences import PRESETS, HoradamParams, SequenceKind, TermContext, Terms
from horadam.theorems import (
    VARIANT_COUNT,
    SumReport,
    TheoremSelector,
    reciprocal_sum,
    singularity_scan,
    theorem_sum,
)

FIB = PRESETS["fibonacci"]
FIBW = HoradamParams(3, 2, 1, -1)
PELL = PRESETS["pell"]

U, V, W = SequenceKind.U, SequenceKind.V, SequenceKind.W


def fraction_reads(t):
    """The checker accessor `t` with every value reduced to a `Fraction`, as
    its `TermContext`'s own reads give it, w still read as t's kind: the
    operator sides' reference over Q."""
    return SimpleNamespace(**{m: (lambda e, read=getattr(t, m): reduced(read(e)))
                              for m in ("u", "v", "w", "qp")},
                           **{m: reduced(getattr(t, m)) for m in ("p", "q", "a", "b")})


def guard_passing_draws(rng, sampler, sel, count, kmax=5, span=6):
    got = 0
    attempts = 0
    while got < count:
        attempts += 1
        assert attempts < 300 * count, "rejection sampling stalled"
        params = sampler.draw_params(rng)
        n, m, r, s = (rng.randint(-span, span) for _ in range(4))
        k = rng.randint(0, kmax)
        try:
            yield params, (n, m, r, s, k), theorem_sum(sel, params, n, m, r, s, k)
        except (GuardViolation, SingularSummand):
            continue
        got += 1


class TestContractExamples:
    def test_theorem2_k0_collapses(self):
        rep = theorem_sum(TheoremSelector(2, 1), FIBW, 5, 2, 1, 0, 0)
        ctx = TermContext(FIBW)
        assert rep.lhs == rep.rhs == ctx.w(5)
        assert rep.notes  # outside the stated positive-k hypothesis

    def test_theorem2_v1_fibonacci_w(self):
        rep = theorem_sum(TheoremSelector(2, 1), FIBW, 4, 2, 1, 0, 2)
        assert rep.equal

    def test_theorem3_v1_fibonacci_w(self):
        rep = theorem_sum(TheoremSelector(3, 1), FIBW, 6, 1, 2, 0, 3)
        assert rep.equal

    def test_theorem4_v3_pell_u(self):
        rep = theorem_sum(TheoremSelector(4, 3, U), PELL, 5, 3, 2, 1, 2)
        assert rep.equal

    def test_theorem5_v1_fibonacci(self):
        rep = reciprocal_sum(TheoremSelector(5, 1), FIB, 9, 2, 1, 0, 1)
        assert rep.equal

    def test_theorem5_k0_single_term(self):
        rep = reciprocal_sum(TheoremSelector(5, 1), FIBW, 7, 2, 1, 0, 0)
        assert rep.equal

    def test_guard_violation_when_h_vanishes(self):
        with pytest.raises(GuardViolation):
            theorem_sum(TheoremSelector(2, 1), FIBW, 4, 2, 1, 1, 2)

    def test_guard_violation_when_f_vanishes(self):
        # m = r zeroes u(m-r); m = s zeroes u(m-s)
        with pytest.raises(GuardViolation):
            theorem_sum(TheoremSelector(2, 1), FIBW, 4, 2, 2, 0, 2)
        with pytest.raises(GuardViolation):
            theorem_sum(TheoremSelector(4, 1), FIBW, 4, 0, 2, 0, 2)

    def test_singular_summand(self):
        with pytest.raises(SingularSummand):
            reciprocal_sum(TheoremSelector(5, 1), FIB, 2, 2, 1, 0, 2)

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            TheoremSelector(7, 1)
        with pytest.raises(ValueError):
            TheoremSelector(3, 3)
        with pytest.raises(ValueError):
            theorem_sum(TheoremSelector(2, 1), FIB, 1, 2, 3, 0, -1)

    @pytest.mark.parametrize("theorem,variant", [
        (2, 1.0), (2.0, 1), (2, True), (3, "1"), ("2", 1)])
    def test_selector_fields_must_be_ints(self, theorem, variant):
        # a float variant once built a selector whose formula raised TypeError
        with pytest.raises(ValueError, match=r"^(theorem|variant) must be an int, got "):
            TheoremSelector(theorem, variant)

    @pytest.mark.parametrize("kind", ["u", None, 1], ids=["str", "none", "int"])
    def test_selector_kind_must_be_a_sequence_kind(self, kind):
        # a str kind once built a selector whose formula raised AttributeError
        with pytest.raises(ValueError, match=f"^kind must be a SequenceKind, got {kind!r}$"):
            TheoremSelector(2, 1, kind)

    @pytest.mark.parametrize("value", [True, 1.0, "3"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("position", range(5), ids=list("nmrsk"))
    def test_indices_must_be_ints(self, position, value):
        # k=1.0 once raised TypeError, and n=True returned a report
        args = [9, 2, 1, 0, 1]
        args[position] = value
        message = f"^{'nmrsk'[position]} must be an int, got {re.escape(repr(value))}$"
        for call in (theorem_sum, singularity_scan):
            with pytest.raises(ValueError, match=message):
                call(TheoremSelector(5, 1), FIB, *args)

    def test_one_entry_point_for_every_theorem(self):
        assert theorems.reciprocal_sum is theorems.theorem_sum
        assert theorem_sum(TheoremSelector(5, 1), FIB, 9, 2, 1, 0, 1).equal
        assert theorem_sum(TheoremSelector(6, 3), FIBW, 7, 3, 1, 0, 2).equal

    def test_negative_k_reads_the_same_with_and_without_scan(self, capsys):
        argv = ["sum", "--theorem", "5", "--variant", "1", "--preset", "fibonacci",
                "--assign", "n=9,m=2,r=1,s=0,k=-1"]
        results = []
        for extra in ([], ["--scan"]):
            code = cli.main(argv + extra)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1] == (
            2, "", "error: summation bound k must be >= 0, got -1\n")


# p^2 = 2q: u(i) = 0 at every multiple of 4, v(i) = 0 at i = 2 mod 4, and w = 3u
QUARTER = HoradamParams(0, 3, 2, 2)


class TestGuardNames:
    """The exact `GuardViolation.name` for each coefficient of each relation
    under each kind: the coefficient's one u, v or w read at its index, named
    `u(…)` or `w(…)` under every kind, which perfbench's theorem_sums confirm
    parses."""

    # (theorem, coefficient, kind, (n, m, r, s), name): theorem 2's relation
    # reads u in h, f1 and f2; theorem 3's reads w in h and f1 and u in f2
    CASES = [
        *((2, "h", kind, (5, 1, 3, -1), "u(4)") for kind in "uvw"),
        *((2, "f1", kind, (5, 3, 0, -1), "u(4)") for kind in "uvw"),
        *((2, "f2", kind, (5, 3, -1, -2), "u(4)") for kind in "uvw"),
        (3, "h", "u", (5, 3, 1, 0), "w(4)"),
        (3, "h", "v", (5, 1, 1, 0), "w(2)"),
        (3, "h", "w", (5, 3, 1, 0), "w(4)"),
        (3, "f1", "u", (5, 3, 0, 1), "w(4)"),
        (3, "f1", "v", (5, 1, 0, 1), "w(2)"),
        (3, "f1", "w", (5, 3, 0, 1), "w(4)"),
        *((3, "f2", kind, (5, 0, 3, -1), "u(4)") for kind in "uvw"),
    ]

    @pytest.mark.parametrize("theorem,coefficient,kind,args,name", CASES,
                             ids=[f"T{c[0]}-{c[1]}-{c[2]}" for c in CASES])
    def test_name(self, theorem, coefficient, kind, args, name):
        kind = SequenceKind(kind)
        relation = theorems._FORMS[theorem, 1].relation
        h, _, f1, _, f2, _ = relation.pairs(Terms(TermContext(QUARTER), kind), *args)
        # the case zeroes the named coefficient's numerator and no earlier one
        assert (h, f1, f2).index(0) == ("h", "f1", "f2").index(coefficient)
        with pytest.raises(GuardViolation) as raised:
            theorem_sum(TheoremSelector(theorem, 1, kind), QUARTER, *args, 2)
        assert raised.value.name == name


class TestRelationAccessors:
    """X and Y name a sequence and d holds Y's offset, so the lemma leg reads
    the term caches themselves: for every theorem and kind, over either
    field, `_admit` returns X and Y as the bound `__getitem__` of the runs
    its accessor reads, u's for theorems 3 and 5's X, the kind's otherwise."""

    @pytest.mark.parametrize("modulus", [None, 1_000_000_007])
    def test_x_and_y_are_the_runs_own_reads(self, modulus):
        params = FIBW if modulus is None else HoradamParams(
            *map(PrimeField(modulus), (FIBW.a, FIBW.b, FIBW.p, FIBW.q)))
        for theorem in VARIANT_COUNT:
            for kind in SequenceKind:
                _, _, t, _, X, Y = theorems._admit(TheoremSelector(theorem, 1, kind), params,
                                                   5, 3, 2, -1, 0)
                runs = {U: t.u.__self__, V: t.v.__self__}
                kind_run = runs.get(kind, t.w.__self__)
                x_run = runs[U] if theorem in (3, 5) else kind_run
                assert (X, Y) == (x_run.__getitem__, kind_run.__getitem__), (theorem, kind)
                assert X.__self__ is x_run and Y.__self__ is kind_run, (theorem, kind)


class TestDisplayedFormOracles:
    """Library values vs verbatim transcriptions of the displayed equations,
    re-implemented here against the plain term evaluator."""

    def _ctx(self, params, kind):
        return TermContext(HoradamParams(*params.seeds(kind), params.p, params.q))

    def test_theorem2_variant4_verbatim(self):
        rng = random.Random(83)
        sampler = SamplerConfig(max_index=6, bound=9)
        sel = TheoremSelector(2, 4)
        for params, (n, m, r, s, k), rep in guard_passing_draws(rng, sampler, sel, 15):
            t = self._ctx(params, W)
            lhs = sum((-1) ** j * t.qp((r - s) * (k - j)) * comb(k, j)
                      * t.u(m + r) ** j * t.u(m + s) ** (k - j)
                      * t.w(n - (m + r) * k + (r - s) * j) for j in range(k + 1))
            rhs = (-1) ** k * t.u(r - s) ** k * t.w(n)
            assert rep.lhs == lhs and rep.rhs == rhs and rep.equal

    def test_theorem2_variant6_verbatim(self):
        rng = random.Random(89)
        sampler = SamplerConfig(max_index=6, bound=9)
        sel = TheoremSelector(2, 6)
        for params, (n, m, r, s, k), rep in guard_passing_draws(rng, sampler, sel, 15):
            t = self._ctx(params, W)
            lhs = sum((-1) ** j * comb(k, j) * t.u(r - s) ** j * t.u(m + r) ** (k - j)
                      * t.w(n + (r - s) * k + (m + s) * j) for j in range(k + 1))
            rhs = t.qp((r - s) * k) * t.u(m + s) ** k * t.w(n)
            assert rep.lhs == lhs and rep.rhs == rhs and rep.equal

    def test_theorem4_variant5_verbatim(self):
        rng = random.Random(97)
        sampler = SamplerConfig(max_index=6, bound=9)
        sel = TheoremSelector(4, 5)
        for params, (n, m, r, s, k), rep in guard_passing_draws(rng, sampler, sel, 15):
            t = self._ctx(params, W)
            lhs = (-1) ** k * t.u(m + r) * sum(
                (-1) ** j * t.qp((r - s) * (k - j)) * t.u(m + s) ** (k - j)
                * t.u(r - s) ** j * t.w(n - (m + r) * k - (m + s) + (m + r) * j)
                for j in range(k + 1))
            rhs = (t.u(r - s) ** (k + 1) * t.w(n)
                   - (-1) ** (k + 1) * t.qp((r - s) * (k + 1))
                   * t.u(m + s) ** (k + 1) * t.w(n - (m + r) * (k + 1)))
            assert rep.lhs == lhs and rep.rhs == rhs and rep.equal

    def test_theorem3_variant2_verbatim(self):
        rng = random.Random(101)
        sampler = SamplerConfig(max_index=6, bound=9)
        sel = TheoremSelector(3, 2)
        for params, (n, m, r, s, k), rep in guard_passing_draws(rng, sampler, sel, 15):
            t = self._ctx(params, W)
            lhs = t.u(r - s) * sum(
                t.qp((s - r) * j) * t.w(m - r) ** (k - j) * t.w(m - s) ** j
                * t.w(n - (r - s) * k + m - r + (r - s) * j) for j in range(k + 1))
            rhs = (t.qp((s - r) * k) * t.u(n) * t.w(m - s) ** (k + 1)
                   - t.qp(r - s) * t.u(n - (r - s) * (k + 1)) * t.w(m - r) ** (k + 1))
            assert rep.lhs == lhs and rep.rhs == rhs and rep.equal

    def test_theorem6_variant4_verbatim(self):
        rng = random.Random(103)
        sampler = SamplerConfig(max_index=5, bound=9)
        sel = TheoremSelector(6, 4)
        for params, (n, m, r, s, k), rep in guard_passing_draws(
                rng, sampler, sel, 10, kmax=3, span=5):
            t = self._ctx(params, W)
            c = m + s
            lhs = -t.qp(r - s) * t.u(m + s) * t.w(n) * t.w(n - c * (k + 1)) * sum(
                t.u(r - s) ** (k - j) * t.u(m + r) ** j
                * t.w(n - m - r - c * k + c * j)
                / (t.w(n - c * k + c * j) * t.w(n - c - c * k + c * j))
                for j in range(k + 1))
            rhs = (t.u(r - s) ** (k + 1) * t.w(n)
                   - t.u(m + r) ** (k + 1) * t.w(n - c * (k + 1)))
            assert rep.lhs == lhs and rep.rhs == rhs and rep.equal


class TestTransformationConsistency:
    def test_variants_4_to_6_are_swapped_1_to_3(self):
        # the swap r -> -s, s -> -r carries each early variant to its twin
        rng = random.Random(107)
        sampler = SamplerConfig(max_index=6, bound=9)
        for theorem in (2, 4):
            for early, late in ((1, 4), (2, 5), (3, 6)):
                sel_late = TheoremSelector(theorem, late)
                for params, (n, m, r, s, k), rep in guard_passing_draws(
                        rng, sampler, sel_late, 8):
                    swapped = theorem_sum(TheoremSelector(theorem, early),
                                          params, n, m, -s, -r, k)
                    assert (rep.lhs, rep.rhs) == (swapped.lhs, swapped.rhs)

    def test_theorem3_swap(self):
        rng = random.Random(109)
        sampler = SamplerConfig(max_index=6, bound=9)
        sel = TheoremSelector(3, 2)
        for params, (n, m, r, s, k), rep in guard_passing_draws(rng, sampler, sel, 10):
            swapped = theorem_sum(TheoremSelector(3, 1), params, n, m, -s, -r, k)
            assert (rep.lhs, rep.rhs) == (swapped.lhs, swapped.rhs)


class TestSpecializationConsistency:
    @pytest.mark.parametrize("kind,seeds", [(U, (0, 1)), (V, None)])
    def test_uv_forms_equal_w_form_at_seed_params(self, kind, seeds):
        rng = random.Random(113)
        sampler = SamplerConfig(max_index=5, bound=9)
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in (1, nvar):
                sel = TheoremSelector(theorem, variant, kind)
                for params, asg, rep in guard_passing_draws(
                        rng, sampler, sel, 5, kmax=3, span=5):
                    spec_params = HoradamParams(*params.seeds(kind), params.p, params.q)
                    w_rep = theorem_sum(TheoremSelector(theorem, variant, W),
                                spec_params, *asg)
                    assert (rep.lhs, rep.rhs, rep.lemma_lhs) == (
                        w_rep.lhs, w_rep.rhs, w_rep.lemma_lhs)


class TestOverPrimeField:
    def test_reports_equal_the_rational_reports(self):
        # every selector over GF(M): the same legs, guards and scan on
        # residues; a rejection over Q is the same rejection over GF(M)
        field = PrimeField(1_000_000_007)
        rng = random.Random(131)
        sampler = SamplerConfig(max_index=6, bound=9)
        agreed = 0
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                for kind in SequenceKind:
                    sel = TheoremSelector(theorem, variant, kind)
                    for _ in range(5):
                        params = sampler.draw_params(rng)
                        gf_params = HoradamParams(
                            *map(field, (params.a, params.b, params.p, params.q)))
                        args = [rng.randint(-6, 6) for _ in range(4)] + [rng.randint(0, 5)]
                        try:
                            rep = theorem_sum(sel, params, *args)
                        except (GuardViolation, SingularSummand) as exc:
                            with pytest.raises(type(exc), match=re.escape(str(exc))):
                                theorem_sum(sel, gf_params, *args)
                            continue
                        gf_rep = theorem_sum(sel, gf_params, *args)
                        assert gf_rep.equal and isinstance(gf_rep.lhs, ModInt)
                        assert (gf_rep.lhs, gf_rep.rhs, gf_rep.lemma_lhs, gf_rep.notes) == (
                            rep.lhs, rep.rhs, rep.lemma_lhs, rep.notes), (sel, args)
                        assert singularity_scan(sel, gf_params, *args) == singularity_scan(
                            sel, params, *args)
                        agreed += 1
        assert agreed >= 200


class TestTripleAgreement:
    def test_randomized_sweep(self):
        rng = random.Random(127)
        sampler = SamplerConfig(max_index=6, bound=9)
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                for kind in SequenceKind:
                    sel = TheoremSelector(theorem, variant, kind)
                    for _, _, rep in guard_passing_draws(
                            rng, sampler, sel, 10, kmax=4):
                        assert rep.equal
                        assert isinstance(rep, SumReport)


class TestReciprocalCrossChecks:
    def test_theorem5_scaled_through_matches_theorem3(self):
        # clearing the reciprocal denominators relates theorem 5 to theorem 3
        # by the factor q^((r-s)k)
        rng = random.Random(131)
        sampler = SamplerConfig(max_index=5, bound=9)
        sel = TheoremSelector(5, 1)
        for params, (n, m, r, s, k), rep in guard_passing_draws(
                rng, sampler, sel, 10, kmax=3, span=5):
            t = TermContext(params)
            base = theorem_sum(TheoremSelector(3, 1), params, n, m, r, s, k)
            scale = t.qp((r - s) * k)
            assert rep.lhs == scale * base.lhs
            assert rep.rhs == scale * base.rhs

    def test_theorem6_scaled_through_matches_theorem4(self):
        rng = random.Random(137)
        sampler = SamplerConfig(max_index=5, bound=9)
        for variant, scale_pow in ((1, 0), (2, 0), (3, 1)):
            sel = TheoremSelector(6, variant)
            for params, (n, m, r, s, k), rep in guard_passing_draws(
                    rng, sampler, sel, 8, kmax=3, span=5):
                t = TermContext(params)
                base = theorem_sum(TheoremSelector(4, variant), params, n, m, r, s, k)
                scale = t.qp((r - s) * k) if scale_pow else 1
                assert rep.lhs == scale * base.lhs
                assert rep.rhs == scale * base.rhs


class TestSingularityScan:
    def test_non_reciprocal_theorems_scan_empty(self):
        for theorem in (2, 3, 4):
            sel = TheoremSelector(theorem, 1)
            assert singularity_scan(sel, FIBW, 4, 2, 1, 0, 3) == []

    def test_flags_zero_denominator(self):
        entries = singularity_scan(TheoremSelector(5, 1), FIB, 2, 2, 1, 0, 2)
        flagged = [(j, idx) for j, idx, z in entries if z]
        assert flagged == [(0, 0)]  # u(0) = 0 sits in the window

    def test_counting_contract(self):
        # one entry per distinct denominator index: k + 2 of them
        for k in range(0, 6):
            entries = singularity_scan(TheoremSelector(5, 1), FIBW, 9, 2, 1, 0, k)
            assert len(entries) == k + 2
            indices = [idx for _, idx, _ in entries]
            assert len(set(indices)) == len(indices)

    def test_safe_window_has_no_flags(self):
        entries = singularity_scan(TheoremSelector(6, 3), FIBW, 6, 2, 1, 0, 2)
        assert entries and not any(z for _, _, z in entries)

    @pytest.mark.parametrize("theorem,variant", [
        (theorem, variant) for theorem, count in VARIANT_COUNT.items()
        for variant in range(1, count + 1)])
    def test_reciprocal_sum_raises_exactly_when_scan_flags(self, theorem, variant):
        # the scan runs the sum's admission and reads the lemma leg's
        # denominator window: it raises the sum's GuardViolation exactly
        # when the sum does, a non-reciprocal scan is empty, and the sum
        # raises SingularSummand exactly when the scan flags, at the first
        # index it flags
        rng = random.Random(139)
        sampler = SamplerConfig(max_index=5, bound=9)
        sel = TheoremSelector(theorem, variant, U)
        checked = flagged = guarded = 0
        while checked < 60:
            params = sampler.draw_params(rng)
            args = [rng.randint(-5, 5) for _ in range(4)] + [rng.randint(0, 3)]
            try:
                scan, scan_guard = singularity_scan(sel, params, *args), None
            except GuardViolation as exc:
                scan, scan_guard = None, str(exc)
            try:
                reciprocal_sum(sel, params, *args)
                raised = None
            except SingularSummand as exc:
                raised = exc.index
            except GuardViolation as exc:
                assert scan_guard == str(exc), args
                guarded += 1
                continue
            assert scan_guard is None, args
            assert theorem in (5, 6) or scan == [], args
            zeros = [idx for _, idx, z in scan if z]
            checked += 1
            flagged += bool(zeros)
            assert raised == (zeros[0] if zeros else None), args
        assert guarded and (flagged or theorem not in (5, 6))


class TestErrorOrder:
    """A draw that fails two adjacent checks raises the earlier one: index
    checks, guard, stride, window, probe, legs (the order `theorems`'
    docstring states)."""

    # theorem 6's third form (L5c, on the solved swapped relation) at r == s:
    # c == d, so its stride d - c is zero, and h = u(r-s) = u(0) = 0
    SEL, ARGS = TheoremSelector(6, 3), (7, 3, 1, 1, 2)

    def test_index_checks_before_guard(self):
        for call in (theorem_sum, singularity_scan):
            with pytest.raises(ValueError, match="^summation bound k must be >= 0, got -1$"):
                call(self.SEL, FIB, *self.ARGS[:4], -1)

    def test_guard_before_stride(self):
        assert theorems._FORMS[6, 3].variant == "L5c"
        c, d, _, _ = theorems._OVER_W.shape(Terms(TermContext(FIB), W), *self.ARGS[:4])
        assert c == d
        for call in (theorem_sum, singularity_scan):
            with pytest.raises(GuardViolation) as raised:
                call(self.SEL, FIB, *self.ARGS)
            assert raised.value.name == "u(0)"

    def test_stride_before_window(self):
        # d == c: the window, of stride 0 at n = 0, would read only u(0) = 0
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(Fraction(1), Fraction(1, 2), Fraction(1, 2), 2, 2)
        assert ctx.u(0) == 0
        with pytest.raises(DegenerateStride):
            lemma45_reciprocal(cfg, ctx.u, ctx.u, 0, 1, "L5c")

    def test_window_before_probe(self):
        # u(i) = u(i-1) + 2u(i-2) is false on Fibonacci: off u(0) the probe
        # rejects it, and with u(0) in the window the window raises first
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(1, 1, 2, 1, 2)
        with pytest.raises(ConfigViolation, match="recurrence fails"):
            lemma45_reciprocal(cfg, ctx.u, ctx.u, 9, 2, "L4")
        with pytest.raises(SingularSummand) as raised:
            lemma45_reciprocal(cfg, ctx.u, ctx.u, 2, 2, "L4")
        assert raised.value.index == 0


class TestFormulaGrammar:
    """The constructs the theorem forms add to the catalog's grammar, each
    pinned to the Python text it compiles to."""

    @pytest.mark.parametrize("side,python", [
        ("sum_{j=0}^{k} u(j)*w(n-j)", "sum(t.u(j)*t.w(n-j) for j in range(k+1))"),
        ("u(r-s)*sum_{j=0}^{k} w(j)/u(j)", "t.u(r-s)*sum(t.w(j)/t.u(j) for j in range(k+1))"),
        ("C(k,j)*w(n)", "binomial(k,j)*t.w(n)"),
        ("w(n-(r-s)k+(m-s)(k+1))", "t.w(n-(r-s)*k+(m-s)*(k+1))"),
        ("q^((r-s)(k-j))*q^(r-s)", "t.qp((r-s)*(k-j))*t.qp(r-s)"),
        ("(-1)^j*u(m)/w(n)", "(-1)**j*t.u(m)/t.w(n)"),
    ])
    def test_construct(self, side, python):
        assert _python(side) == python

    def test_note_is_displayed_not_evaluated(self):
        formula = "w(n) = u(n) # a note, even with w(n) = 0 in it"
        lhs, rhs = (compile_expression("n", side) for side in sides(formula))
        t = TermContext(FIBW)
        assert (lhs(t, 4), rhs(t, 4)) == (t.w(4), t.u(4))


# one assignment at which every base form passes its guards and windows
CONTROL_PARAMS = HoradamParams(Fraction(2, 3), -1, Fraction(3, 2), Fraction(-5, 7))
CONTROL_ARGS = (5, 3, 2, -1, 3)


class TestFormulaStrings:
    BASES = [(theorem, base) for theorem, bases in theorems._BASES.items()
             for base in range(1, len(bases) + 1)]

    @pytest.mark.parametrize("theorem,base", BASES)
    def test_corrupted_string_breaks_agreement(self, monkeypatch, theorem, base):
        # the direct sum is whatever the string says: one index moved makes
        # the legs disagree, and the string itself restores agreement
        formula = theorems._BASES[theorem][base - 1][0]
        corrupted = formula.replace("w(n", "w(n+1", 1)
        assert corrupted != formula
        sel = TheoremSelector(theorem, base)
        rest = theorems._BASES[theorem][base - 1][1:]
        for text, equal in ((formula, True), (corrupted, False)):
            monkeypatch.setitem(theorems._FORMS, (theorem, base),
                                theorems._form(theorem, text, *rest))
            assert theorem_sum(sel, CONTROL_PARAMS, *CONTROL_ARGS).equal is equal

    @pytest.mark.parametrize("relation,field,corrupted", [
        (theorems._OVER_W, "f2=-q", "f2=q"),
        (theorems._OVER_W, "c=m-r", "c=r-s"),
        (theorems._OVER_W, "d=m-s", "d=r-s"),
        (theorems._U_TO_W, "f2=u", "f2=-u"),
        (theorems._U_TO_W, "c=r-s", "c=m-s"),
        (theorems._U_TO_W, "d=-m-s", "d=-m-r"),
    ])
    def test_corrupted_relation_fails_its_probe(self, monkeypatch, relation, field, corrupted):
        # the lemma leg follows from the relation text: with one field
        # changed, the probe rejects the relation before the lemma sums
        text = relation.text.replace(field, corrupted)
        assert text != relation.text
        theorems_using = [t for t, named in theorems._RELATIONS.items() if named is relation]
        assert theorems_using
        for (theorem, base), form in list(theorems._FORMS.items()):
            if theorem not in theorems_using:
                continue
            sel = TheoremSelector(theorem, base)
            assert theorem_sum(sel, CONTROL_PARAMS, *CONTROL_ARGS).equal
            monkeypatch.setitem(theorems._FORMS, (theorem, base),
                                replace(form, relation=theorems._Relation(text)))
            with pytest.raises(ConfigViolation, match="recurrence fails"):
                theorem_sum(sel, CONTROL_PARAMS, *CONTROL_ARGS)

    def test_selector_shows_its_base_form(self):
        assert VARIANT_COUNT == {t: 2 * len(b) for t, b in theorems._BASES.items()}
        for theorem, nvar in VARIANT_COUNT.items():
            half = nvar // 2
            for variant in range(1, nvar + 1):
                sel = TheoremSelector(theorem, variant, U)
                text = theorems._BASES[theorem][(variant - 1) % half][0]
                assert sel.swapped == (variant > half)
                assert sel.formula == text.replace("w(", "u(")
                assert TheoremSelector(theorem, variant).formula == text

    def test_theorem6_shares_theorem4_closed_forms(self):
        for base in (0, 1):
            closed = theorems._BASES[4][base][0].split(" = ")[1]
            assert theorems._BASES[6][base][0].split(" = ")[1] == closed

    def test_readme_table_matches_bases(self):
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        rows = re.findall(r"^\| (\d) \| (\d), (\d) \| `([^`]+)` \|$",
                          readme.read_text(encoding="utf-8"), re.MULTILINE)
        expected = [(str(theorem), str(base), str(base + len(bases)), formula)
                    for theorem, bases in theorems._BASES.items()
                    for base, (formula, *_) in enumerate(bases, 1)]
        assert rows == expected


class TestPairSides:
    """Over Q the displayed sides and the factor (`_Form.pairs`) and the
    relation's coefficients (`_Relation.pairs`) run on integer pairs from
    the pair compiler, the probe on one integer comparison per point and
    the lemma sums on integer pairs written in `lemmas.py`; over GF(M) all
    of them run on the `ModInt` operators (`_Form.values`,
    `_Relation.values`). The references run the operator code on reduced
    `Fraction` reads."""

    class OperatorSides(theorems._Form):
        """A form whose pairs are the pairs of its operator values (lhs, rhs,
        factor) on the accessor's reads reduced to `Fraction`s; each call
        appends the form's key to `calls`."""

        calls = []

        @property
        def pairs(self):
            def pairs(t, *args):
                self.calls.append(self.key)
                values = self.values(fraction_reads(t), *args)
                return tuple(part for x in values for part in (x.numerator, x.denominator))
            return pairs

    @staticmethod
    def outcome(sel, params, args):
        try:
            return json.dumps(theorem_sum(sel, params, *args).to_dict())
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    def test_pair_sides_agree_with_operator_sides(self, monkeypatch):
        # every selector (both orientations, kinds u/v/w) at k = 0..5: the
        # same report bytes, or the same error, as on the operator sides
        rng = random.Random(151)
        sampler = SamplerConfig(max_index=6, bound=9)
        calls = [(TheoremSelector(theorem, variant, kind), sampler.draw_params(rng),
                  [rng.randint(-6, 6) for _ in range(4)] + [k])
                 for theorem, nvar in VARIANT_COUNT.items() for variant in range(1, nvar + 1)
                 for kind in SequenceKind for k in range(6) for _ in range(2)]
        by_pairs = [self.outcome(*call) for call in calls]
        for key, form in theorems._FORMS.items():
            monkeypatch.setitem(theorems._FORMS, key, self.OperatorSides(
                *(getattr(form, field.name) for field in fields(form))))
        monkeypatch.setattr(self.OperatorSides, "calls", [])
        assert [self.outcome(*call) for call in calls] == by_pairs
        # every report came from the override, once per call
        assert len(self.OperatorSides.calls) == sum(x.startswith("{") for x in by_pairs)
        assert sum('"equal": true' in outcome for outcome in by_pairs) > len(calls) // 2

    def test_passing_sum_runs_its_sides_and_probe_on_no_ratio_operator(self, monkeypatch):
        # the pair sides and the probe unpack each term pair and compute on
        # its integers: inside them, a pair that is compared or tested for
        # truth fails the sum
        inside = []

        def guarded(fn):
            def run_inside(*args):
                inside.append(fn)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return run_inside

        class StrictPair(tuple):
            __hash__ = tuple.__hash__

        for op in ("__eq__", "__ne__", "__bool__"):
            def forbidden(*args, _op=getattr(tuple, op, lambda pair: len(pair) > 0),
                          _name=op):
                if inside:
                    raise AssertionError(f"a term pair's {_name} was called")
                return _op(*args)
            setattr(StrictPair, op, forbidden)

        def strict_terms(ctx, kind):
            t = Terms(ctx, kind)
            return SimpleNamespace(
                **{m: (lambda e, read=getattr(t, m): StrictPair(read(e)))
                   for m in ("u", "v", "w", "qp")},
                **{m: StrictPair(getattr(t, m)) for m in ("p", "q", "a", "b")})

        monkeypatch.setattr(theorems, "Terms", strict_terms)
        monkeypatch.setattr(lemmas, "_probe", guarded(lemmas._probe))
        compiled = theorems._Form.pairs
        monkeypatch.setattr(theorems._Form, "pairs",
                            property(lambda form: guarded(compiled.func(form))))
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                rep = theorem_sum(TheoremSelector(theorem, variant), CONTROL_PARAMS, *CONTROL_ARGS)
                assert rep.equal and type(rep.lhs) is Fraction

    def test_pair_sums_agree_with_operator_sums(self):
        # every selector at k = 0..5: the lemma's left side on the checker
        # accessor's pairs is the left side on the same coefficients and
        # terms as Fractions, or raises the same error
        rng = random.Random(157)
        sampler = SamplerConfig(max_index=6, bound=9)

        def outcome(label, rel, X, Y, n, k):
            try:
                lhs, _, negated = lemmas._lemma(label, rel, X, Y, n, k)
            except Exception as exc:
                return f"{type(exc).__name__}: {exc}"
            return type(lhs), reduced(lhs), negated

        values = checked = 0
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                for kind in SequenceKind:
                    sel = TheoremSelector(theorem, variant, kind)
                    for k in range(6):
                        for _ in range(2):
                            params = sampler.draw_params(rng)
                            try:
                                form, eff, _, rel, X, Y = theorems._admit(
                                    sel, params, *(rng.randint(-6, 6) for _ in range(4)), k)
                            except GuardViolation:
                                continue
                            by_pairs = outcome(form.variant, rel, X, Y, eff[0], k)
                            by_operators = outcome(
                                form.variant, (*map(reduced, rel[:3]), *rel[3:]),
                                lambda i: reduced(X(i)), lambda i: reduced(Y(i)),
                                eff[0], k)
                            if isinstance(by_pairs, tuple):
                                assert by_pairs[0] is tuple and by_operators[0] is Fraction
                                by_pairs, by_operators = by_pairs[1:], by_operators[1:]
                                values += 1
                            assert by_pairs == by_operators, (sel, eff, k)
                            checked += 1
        assert checked > 66 * 6 * 2 // 2 and values > checked // 2

    def test_theorem_sum_over_q_runs_no_ratio_sum_operator(self, monkeypatch):
        # over Q a theorem_sum negates in the lemma leg alone, and only
        # through the explicit pair negation, `lemmas._negated` on a pair:
        # where the relation is solved for its f1 term and where an odd k
        # negates the variant; the library negates no Fraction
        called = set()

        def recorded(x, _negated=lemmas._negated):
            called.add(("_negated", type(x), sys._getframe(1).f_code.co_name))
            return _negated(x)

        def fraction_negated(x, _neg=Fraction.__neg__):
            frame = sys._getframe(1)
            if frame.f_globals["__name__"].startswith("horadam"):
                called.add(("Fraction.__neg__", type(x), frame.f_code.co_name))
            return _neg(x)

        monkeypatch.setattr(lemmas, "_negated", recorded)
        monkeypatch.setattr(Fraction, "__neg__", fraction_negated)
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                rep = theorem_sum(TheoremSelector(theorem, variant), CONTROL_PARAMS, *CONTROL_ARGS)
                assert rep.equal
        rng = random.Random(163)
        sampler = SamplerConfig(max_index=6, bound=9)
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                for kind in SequenceKind:
                    sel = TheoremSelector(theorem, variant, kind)
                    for _, _, rep in guard_passing_draws(rng, sampler, sel, 1):
                        assert rep.equal
        # the int is the 0 of the stand-in relation (0, 0, 0, c, d) that the
        # denominator window rearranges for its stride
        assert called == {("_negated", tuple, "_rearranged"), ("_negated", tuple, "_lemma"),
                          ("_negated", int, "_rearranged")}
        # the record sees a call from here
        assert lemmas._negated((1, 2)) == (-1, 2)
        assert ("_negated", tuple, "test_theorem_sum_over_q_runs_no_ratio_sum_operator") in called

    @pytest.mark.parametrize("theorem,base", TestFormulaStrings.BASES)
    def test_legs_are_reduced_once_unless_they_differ(self, monkeypatch, theorem, base):
        # a passing sum reports the direct sum's one Fraction for all three
        # legs; with the left or the right side moved off, each leg is
        # reported as its own value: the operator side's on Fraction reads,
        # and the lemma leg as it was
        formula, *rest = theorems._BASES[theorem][base - 1]
        sel = TheoremSelector(theorem, base)
        passing = theorem_sum(sel, CONTROL_PARAMS, *CONTROL_ARGS)
        assert passing.equal and passing.rhs is passing.lhs and passing.lemma_lhs is passing.lhs
        left, right = formula.split(" = ")
        for text in (left.replace("w(n", "w(n+1", 1) + " = " + right, left + " = 1 + " + right):
            form = theorems._form(theorem, text, *rest)
            monkeypatch.setitem(theorems._FORMS, (theorem, base), form)
            rep = theorem_sum(sel, CONTROL_PARAMS, *CONTROL_ARGS)
            reads = fraction_reads(Terms(TermContext(CONTROL_PARAMS), W))
            expected = (*form.values(reads, *CONTROL_ARGS)[:2], passing.lemma_lhs)
            assert not rep.equal and (rep.lhs, rep.rhs, rep.lemma_lhs) == expected
            assert all(type(leg) is Fraction for leg in (rep.lhs, rep.rhs, rep.lemma_lhs))

    @pytest.mark.parametrize("theorem,base", TestFormulaStrings.BASES)
    def test_a_sum_loop_reads_only_terms_at_its_index(self, theorem, base):
        # a term read whose index has no j is taken once, before the loop;
        # every read of the texts is still made, each once
        form = theorems._FORMS[theorem, base]
        texts = [*sides(form.formula), form.factor_text]
        lines = _pair_lines(form.key, "nmrsk", texts)[0]
        read = re.compile(r"( *)_\d+n, _\d+d = _(\w+)(?:\((.*)\))?$")
        found, looped = [], 0
        for line in lines:
            match = read.fullmatch(line)
            if match:
                indent, member, index = match.groups()
                found.append((member, index))
                if indent:
                    looped += 1
                    assert re.search(r"\bj\b", index), line
        assert looped and sorted(found, key=repr) == sorted(
            (x for text in texts for x in reads(text)), key=repr)

    def test_no_sign_check_inside_a_sum_loop(self):
        # inside a loop over j = 0..k every index exponent is j or k-j, which
        # cannot be negative: no pair code of a theorem form or a lemma text
        # checks an exponent's sign inside its loop
        compiled = [(form.key, "nmrsk", [*sides(form.formula), form.factor_text])
                    for form in theorems._FORMS.values()]
        texts = {left_side for left_side, _, _ in lemmas._VARIANTS.values()}
        compiled += [(text, "nkcd", [text])
                     for text in sorted(texts | {lemmas._TELESCOPED, lemmas._SCALED})]
        assert len(compiled) == 11 + 5
        for key, variables, texts in compiled:
            lines = _pair_lines(key, variables, texts)[0]
            looped = [line for line in lines if line.startswith(" ")]
            assert bool(looped) == any("sum_" in text for text in texts), key
            checks = [line for line in looped if re.search(r"\bif .* < 0: raise ValueError", line)]
            assert not checks, (key, checks)

    def test_a_vanishing_divisor_raises_in_the_sides(self):
        # the lemma leg's scan raises SingularSummand first; called alone,
        # the pair sides raise as the operator side does on Fraction reads
        form = theorems._FORMS[5, 1]
        with pytest.raises(SingularSummand):
            theorem_sum(TheoremSelector(5, 1), FIB, 2, 2, 1, 0, 2)
        ctx = TermContext(FIB)
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            form.pairs(Terms(ctx, W), 2, 2, 1, 0, 2)
        with pytest.raises(ZeroDivisionError):
            form.values(ctx, 2, 2, 1, 0, 2)

    def test_a_negative_bound_raises_in_the_sides(self):
        # theorem_sum refuses k < 0 first; called alone, every form's pair
        # sides raise on an exponent in k rather than yield a float
        t = Terms(TermContext(CONTROL_PARAMS), W)
        for key, form in theorems._FORMS.items():
            with pytest.raises(ValueError, match="negative exponent"):
                form.pairs(t, *CONTROL_ARGS[:4], -2)

    @pytest.mark.parametrize("printed", [
        ("q^((r-s)(k-j))*C(k,j)", "C(k,j)"),
        (" = u(m-s)^k", " = q^((r-s)k)*u(m-s)^k"),
        (("q^((r-s)(k-j))*C(k,j)", "C(k,j)"), (" = u(m-s)^k", " = q^((r-s)k)*u(m-s)^k")),
    ], ids=["inner-q-power-dropped", "q-power-on-the-right", "both"])
    def test_theorem2_misprints_as_printed_fail(self, monkeypatch, printed):
        # the second form (variants 2 and 5) with the corrections its note
        # names undone: no q^((r-s)(k-j)) in the sum, a q-power on the right
        formula, *rest = theorems._BASES[2][1]
        text = formula.partition(" # ")[0]
        for old, new in printed if isinstance(printed[0], tuple) else [printed]:
            assert old in text
            text = text.replace(old, new)
        correct = [theorem_sum(TheoremSelector(2, variant), CONTROL_PARAMS, *CONTROL_ARGS)
                   for variant in (2, 5)]
        assert all(rep.equal for rep in correct)
        monkeypatch.setitem(theorems._FORMS, (2, 2), theorems._form(2, text, *rest))
        for variant, rep in zip((2, 5), correct):
            printed = theorem_sum(TheoremSelector(2, variant), CONTROL_PARAMS, *CONTROL_ARGS)
            assert printed.lemma_lhs == rep.lemma_lhs and not printed.equal


class TestLemmaLeg:
    """The lemma leg computes only the lemma's left side, on the plain
    coefficients; the public lemma reports must agree with it."""

    @staticmethod
    def public_lemma(sel, params, n, m, r, s, k):
        """(factor, report): the public lemma report the selected theorem
        follows from, built from a RecurrenceConfig on the theorem's
        relation, and the factor scaling its left side into the theorem's."""
        form = theorems._FORMS[sel.theorem, sel.base]
        relation = form.relation
        _, eff, t, _, _, _ = theorems._admit(sel, params, n, m, r, s, k)
        t = fraction_reads(t)
        c, d, X, Y = relation.shape(t, *eff)
        cfg = RecurrenceConfig(*relation.values(t, *eff), c, d)
        n = eff[0]
        if sel.theorem == 2:
            rep = lemma3_binomial_sums(cfg, X, n, k, sel.base)
        elif sel.theorem == 3:
            rep = lemma1_sum(cfg, X, Y, n, k)
        elif sel.theorem == 4:
            rep = lemma2_sums(cfg, X, n, k, sel.base)
        elif sel.theorem == 5:
            rep = lemma45_reciprocal(cfg, X, Y, n, k, "L4")
        else:
            rep = lemma45_reciprocal(cfg, X, X, n, k, ("L5a", "L5b", "L5c")[sel.base - 1])
        return form.values(t, *eff, k)[2], rep

    def test_lemma_lhs_is_the_public_reports_lhs(self):
        rng = random.Random(149)
        sampler = SamplerConfig(max_index=6, bound=9)
        checked = 0
        for theorem, nvar in VARIANT_COUNT.items():
            for variant in range(1, nvar + 1):
                for kind in SequenceKind:
                    sel = TheoremSelector(theorem, variant, kind)
                    for params, args, rep in guard_passing_draws(rng, sampler, sel, 3, kmax=4):
                        factor, lemma = self.public_lemma(sel, params, *args)
                        assert lemma.equal, (sel, args)
                        assert rep.lemma_lhs == factor * lemma.lhs, (sel, args)
                        checked += 1
        assert checked == 66 * 3

    def test_theorem_call_builds_no_lemma_records(self, monkeypatch):
        built = []
        for cls in (RecurrenceConfig, LemmaReport):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        for theorem, base in theorems._FORMS:
            assert theorem_sum(TheoremSelector(theorem, base), CONTROL_PARAMS, *CONTROL_ARGS).equal
        assert built == []
        # the public path builds both, and the count sees them
        ctx = TermContext(FIB)
        assert lemma1_sum(RecurrenceConfig(1, FIB.p, -FIB.q, 1, 2), ctx.u, ctx.u, 6, 3).equal
        assert built == ["RecurrenceConfig", "LemmaReport"]


class TestVariantVocabulary:
    """Each base form names the lemma variant it follows from as text; the
    names and the lemma table are one closed vocabulary."""

    NAMED = {variant for bases in theorems._BASES.values() for _, variant, *_ in bases}

    def test_every_name_is_a_variant_and_every_variant_is_used(self, monkeypatch):
        assert self.NAMED <= set(lemmas._VARIANTS)
        called = []

        def recording(label, *args, _lemma=lemmas._lemma):
            called.append(label)
            return _lemma(label, *args)
        monkeypatch.setattr(lemmas, "_lemma", recording)
        ctx = TermContext(FIB)
        cfg = RecurrenceConfig(1, FIB.p, -FIB.q, 1, 2)
        assert lemma1_sum(cfg, ctx.u, ctx.u, 9, 2).equal
        for variant in (1, 2, 3):
            assert lemma2_sums(cfg, ctx.u, 9, 2, variant).equal
            assert lemma3_binomial_sums(cfg, ctx.u, 9, 2, variant).equal
        for variant in ("L4", "L5a", "L5b", "L5c"):
            assert lemma45_reciprocal(cfg, ctx.u, ctx.u, 9, 2, variant).equal
        assert self.NAMED | set(called) == set(lemmas._VARIANTS)

    def test_only_reciprocal_variants_have_windows(self):
        # a variant's denominator window comes from its label: k + 2 indices
        # at the stride of the relation it is summed on for a reciprocal sum
        # (c = 1, d = 3 here), none for any other left side
        ctx = TermContext(FIB)
        strides = {"L4": 1, "L5a": 1, "L5b": 3, "L5c": 2}
        for label, (left_side, _, _) in lemmas._VARIANTS.items():
            window = list(lemmas._denominator_window(label, 1, 3, ctx.u, 9, 3))
            assert (left_side is lemmas._RECIPROCAL) == (label in strides), label
            stride = strides.get(label)
            assert [idx for _, idx, _ in window] == (
                [9 - stride * (4 - i) for i in range(5)] if stride else []), label
