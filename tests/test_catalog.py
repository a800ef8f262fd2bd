import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from horadam import catalog, theorems
from horadam import formula as grammar
from horadam.catalog import (
    REGISTRY,
    FuzzReport,
    IdentityStats,
    SamplerConfig,
    base_assignment,
    evaluate,
    fuzz,
    list_identities,
)
from horadam.errors import HoradamError, UnknownIdentity
from horadam.field import ModInt, PrimeField
from horadam.sequences import PRESETS, HoradamParams, SequenceKind, TermContext, Terms

FIB = PRESETS["fibonacci"]
FIBW = HoradamParams(3, 2, 1, -1)

EXPECTED_KEYS = (
    ["H", "F", "G", "J", "lin.9", "dbl.10"]
    + [f"mul.{i}" for i in range(15, 19)]
    + ["neg.19u", "neg.19v", "neg.20"]
    + [f"spec.{i}" for i in range(21, 29)]
    + [f"cor1.{i}" for i in range(29, 60)]
    + [f"cor2.{i}" for i in range(55, 76)]
)


class TestRegistry:
    def test_complete_and_duplicate_free(self):
        listed = list_identities()
        keys = [k for k, _, _ in listed]
        assert keys == EXPECTED_KEYS
        assert len(set(keys)) == len(keys) == 73

    def test_duplicate_key_is_named(self):
        with pytest.raises(ValueError, match="duplicate identity key 'H'"):
            catalog._registry([REGISTRY["H"], REGISTRY["mul.16"], REGISTRY["H"]])

    def test_signatures(self):
        sigs = {k: vars_ for k, vars_, _ in list_identities()}
        assert sigs["H"] == ("n", "m", "r", "s")
        assert sigs["cor1.30"] == ("n",)
        assert sigs["mul.16"] == ("n", "m")
        assert sigs["cor1.36"] == ("n", "m", "j")
        assert sigs["cor1.56"] == ("n", "s", "t")

    def test_formulas_present(self):
        for ident in REGISTRY.values():
            assert "=" in ident.formula

    def test_readme_manifest_matches_registry(self):
        import pathlib
        import re

        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]*) \| `([^`]+)` \| ([^|]*) \|$",
                          readme.read_text(encoding="utf-8"), re.MULTILINE)
        documented = {key: (vars_.strip(), formula, derived.strip())
                      for key, vars_, formula, derived in rows}
        assert len(documented) == len(REGISTRY)
        for ident in REGISTRY.values():
            vars_doc, formula_doc, derived_doc = documented[ident.key]
            assert vars_doc == ", ".join(ident.variables)
            assert formula_doc == ident.formula
            assert derived_doc == (ident.derived or "")


class TestEvaluate:
    def test_master_example(self):
        rep = evaluate("H", FIB, dict(n=1, m=3, r=2, s=0))
        assert (rep.lhs, rep.rhs, rep.equal) == (3, 3, True)

    def test_master_degenerate_r_equals_s(self):
        rep = evaluate("H", FIBW, dict(n=4, m=-2, r=5, s=5))
        assert rep.lhs == rep.rhs == 0
        assert rep.equal

    def test_product_of_second_kind_and_w(self):
        rep = evaluate("cor1.30", FIBW, dict(n=2))
        assert (rep.lhs, rep.rhs) == (15, 15)

    def test_unknown_key(self):
        with pytest.raises(UnknownIdentity):
            evaluate("nosuch", FIB, dict(n=1))

    def test_assignment_validation(self):
        with pytest.raises(ValueError, match="missing"):
            evaluate("H", FIB, dict(n=1, m=3, r=2))
        with pytest.raises(ValueError, match="unexpected"):
            evaluate("mul.15", FIB, dict(n=1, m=3, r=2))

    @pytest.mark.parametrize("value", [True, 1.5, "3"], ids=["bool", "float", "str"])
    def test_indices_must_be_ints(self, value):
        # a bool was once reported as `"n": true`, a float or a str raised TypeError
        message = f"^m must be an int, got {re.escape(repr(value))}$"
        for call in (lambda: evaluate("cor1.29", FIB, dict(n=1, m=value)),
                     lambda: base_assignment(REGISTRY["cor1.29"], dict(n=1, m=value))):
            with pytest.raises(ValueError, match=message):
                call()

    def test_pure(self):
        asg = dict(n=3, m=2, r=1, s=0)
        a = evaluate("H", FIBW, asg)
        b = evaluate("H", FIBW, asg)
        assert (a.lhs, a.rhs, a.equal) == (b.lhs, b.rhs, b.equal)
        assert asg == dict(n=3, m=2, r=1, s=0)

    def test_every_identity_spot_checked(self):
        rng = random.Random(61)
        sampler = SamplerConfig(max_index=8, bound=9)
        for key, variables, _ in list_identities():
            params = sampler.draw_params(rng)
            asg = sampler.draw_assignment(rng, variables)
            rep = evaluate(key, params, asg)
            assert rep.equal, (key, asg, rep)


class TestOverPrimeField:
    def test_reports_equal_the_rational_reports(self):
        # GF(M) runs the same catalog paths on residues; with denominators
        # below M every value is the residue of the rational one
        field = PrimeField(1_000_000_007)
        rng = random.Random(79)
        sampler = SamplerConfig(max_index=10, bound=9)
        for key, variables, _ in list_identities():
            for _ in range(20):
                params = sampler.draw_params(rng)
                gf_params = HoradamParams(*map(field, (params.a, params.b, params.p, params.q)))
                asg = sampler.draw_assignment(rng, variables)
                rep, gf_rep = evaluate(key, params, asg), evaluate(key, gf_params, asg)
                assert rep.equal and gf_rep.equal, (key, asg)
                assert isinstance(gf_rep.lhs, ModInt)
                assert (gf_rep.lhs, gf_rep.rhs) == (rep.lhs, rep.rhs), (key, asg)


class TestDerivations:
    def test_replaying_derivations_through_base_evaluators(self):
        # every derivation record must produce an exactly-verified base
        # instance for randomized assignments of the derived identity
        rng = random.Random(67)
        sampler = SamplerConfig(max_index=7, bound=9)
        derived = [i for i in REGISTRY.values() if i.derived is not None]
        assert len(derived) >= 50
        for ident in derived:
            for _ in range(12):
                params = sampler.draw_params(rng)
                asg = sampler.draw_assignment(rng, ident.variables)
                base_key, specialize, mapped = base_assignment(ident, asg)
                base_params = (params if specialize is None else HoradamParams(
                    *params.seeds(specialize), params.p, params.q))
                rep = evaluate(base_key, base_params, mapped)
                assert rep.equal, (ident.key, base_key, asg, mapped)

    @pytest.mark.parametrize("text,message", [
        ("K at m=n", "is not '<base key>"),
        ("H at r=0, s=-m as x", "is not '<base key>"),
        ("H at r=0, z=1", r"H has no variable \['z'\]"),
        ("H at r=0, s=-x", r"names \['x'\]"),
        ("H at r=0", r"names \['s'\]"),
        ("H at r=0, s=-m, s=1", "assigns s twice"),
    ])
    def test_malformed_text_fails_naming_the_entry(self, text, message):
        # unknown base, a variable the base lacks, a name the entry lacks, a
        # variable mapped twice
        entry = catalog._I("x.1", "nm", REGISTRY["cor1.29"].formula, text)
        with pytest.raises(ValueError, match=f"^x.1: .*{message}"):
            catalog._derivation(entry, {"H": REGISTRY["H"]})

    def test_every_record_compiles(self):
        # a record is checked on its first read, not at import, so every one
        # is read here: its base is an entry and its kind None, u or v
        derived = [i for i in REGISTRY.values() if i.derived is not None]
        assert len(derived) == 57
        for ident in derived:
            assert isinstance(ident.derived, str)
            base, kind, index_map = ident.derivation
            assert base in REGISTRY and kind in (None, SequenceKind.U, SequenceKind.V)
            values = index_map(None, *range(len(ident.variables)))
            assert len(values) == len(REGISTRY[base].variables), ident.key

    def test_text_compiles_to_the_base_assignment(self):
        ident = REGISTRY["cor1.56"]
        assert ident.derived == "H at m=0, r=t-s, s=-s"
        assert base_assignment(ident, dict(n=4, s=1, t=3)) == (
            "H", None, dict(n=4, m=0, r=2, s=-1))
        assert base_assignment(REGISTRY["cor2.57"], dict(n=5)) == (
            "cor1.35", SequenceKind.V, dict(n=5, m=0))
        assert base_assignment(REGISTRY["lin.9"], dict(n=5)) is None
        assert REGISTRY["lin.9"].derivation is None

    @pytest.mark.parametrize("key,assignment,message", [
        ("cor1.29", dict(n=1), r"missing \['m'\]"),
        ("cor1.29", dict(n=1, m=2, r=0), r"unexpected \['r'\]"),
        ("spec.21", dict(n=1), r"missing \['m', 'r', 's'\]"),
        ("lin.9", dict(n=1, m=2), r"unexpected \['m'\]"),
    ])
    def test_base_assignment_checks_the_variables(self, key, assignment, message):
        # the same check, and the same message, as evaluate
        for call in (lambda: base_assignment(REGISTRY[key], assignment),
                     lambda: evaluate(key, PRESETS["fibonacci"], assignment)):
            with pytest.raises(ValueError, match=f"^assignment for {key}: {message}$"):
                call()

    def test_specializations_point_at_masters(self):
        for i in range(21, 25):
            assert REGISTRY[f"spec.{i}"].derivation[0] in "HFGJ"
        for i in range(25, 29):
            assert REGISTRY[f"spec.{i}"].derivation[0] in "HFGJ"

    def test_specializations_equal_master_at_uv_seeds(self):
        # the u/v specializations coincide with the master identities
        # evaluated at (a,b) = (0,1) and (2,p)
        rng = random.Random(71)
        sampler = SamplerConfig(max_index=8, bound=9)
        pairs = [(f"spec.{i}", base, kind)
                 for i, base, kind in [
                     (21, "H", SequenceKind.U), (22, "F", SequenceKind.U),
                     (23, "G", SequenceKind.U), (24, "J", SequenceKind.U),
                     (25, "H", SequenceKind.V), (26, "F", SequenceKind.V),
                     (27, "G", SequenceKind.V), (28, "J", SequenceKind.V)]]
        for key, base, kind in pairs:
            for _ in range(10):
                params = sampler.draw_params(rng)
                asg = sampler.draw_assignment(rng, REGISTRY[key].variables)
                spec_rep = evaluate(key, params, asg)
                seed_params = HoradamParams(*params.seeds(kind), params.p, params.q)
                master_rep = evaluate(base, seed_params, asg)
                assert spec_rep.equal and master_rep.equal
                assert (spec_rep.lhs, spec_rep.rhs) == (master_rep.lhs, master_rep.rhs)


CORRUPTED = [
    ("H", "nmrs", "u(r-s)*w(n+m) = u(m-s)*w(n+r) - q^(r-s)*u(m-r)*w(n+s) + q^(r-s)"),
    ("cor2.75", "n", "p^2*u(n)^2 - v(n)^2 = 4*q*u(n+1)*u(n)"),
    ("neg.20", "n", "q^n*w(-n) = a*v(n) - w(n) + w(n)"),
]


def _laurent_difference(ident):
    """lhs - rhs of `ident` over the Binet form, as one rational function.

    u_e = (alpha^e - beta^e)/(alpha - beta), v_e = alpha^e + beta^e, w through
    lin.9 and q^e = alpha^e*beta^e, where each index expression
    e = c + sum(k_x * x), linear in the identity's variables, reads
    alpha^c * prod(alpha_x^k_x) with alpha_x, beta_x independent symbols per
    variable x. The difference cancels to 0 exactly when the identity is a
    Laurent-polynomial identity, which holds at every integer assignment.
    """
    sympy = pytest.importorskip("sympy")
    alpha, beta, a, b = sympy.symbols("alpha beta a b")
    index = {x: sympy.Symbol(x) for x in ident.variables}
    roots = {x: sympy.symbols(f"alpha_{x} beta_{x}") for x in ident.variables}

    def power(e):
        e = sympy.sympify(e)
        coeffs = {x: e.coeff(sym) for x, sym in index.items()}
        const = e - sum(k * index[x] for x, k in coeffs.items())
        assert const.is_integer and all(k.is_integer for k in coeffs.values()), e
        pa, pb = alpha ** const, beta ** const
        for x, k in coeffs.items():
            pa, pb = pa * roots[x][0] ** k, pb * roots[x][1] ** k
        return pa, pb

    class Laurent:
        # exactly the attributes of perfbench's RefTerms accessor
        __slots__ = ("p", "q", "a", "b", "disc")

        def u(self, e):
            pa, pb = power(e)
            return (pa - pb) / (alpha - beta)

        def v(self, e):
            pa, pb = power(e)
            return pa + pb

        def w(self, e):
            return self.b * self.u(e) - self.a * self.q * self.u(e - 1)

        def qp(self, e):
            pa, pb = power(e)
            return pa * pb

    t = Laurent()
    t.p, t.q, t.a, t.b = alpha + beta, alpha * beta, a, b
    t.disc = t.p ** 2 - 4 * t.q
    kwargs = {("t_" if x == "t" else x): sym for x, sym in index.items()}
    return sympy.cancel(sympy.together(ident.lhs(t, **kwargs) - ident.rhs(t, **kwargs)))


class TestSymbolicProof:
    # lin.9 defines w under this accessor, so its proof is a tautology;
    # fuzzing and acceptance criteria 1 and 4 still check it numerically.

    def test_every_identity_is_a_laurent_identity(self):
        unproved = [key for key, ident in REGISTRY.items() if _laurent_difference(ident) != 0]
        assert unproved == []

    @pytest.mark.parametrize("key, variables, formula", CORRUPTED)
    def test_corrupted_formula_fails(self, key, variables, formula):
        assert _laurent_difference(catalog._I(key, variables, formula)) != 0


class TestFuzz:
    def test_deterministic(self):
        sampler = SamplerConfig(max_index=6, bound=7)
        a = fuzz(["H", "mul.16", "cor2.63"], 40, sampler, seed=9)
        b = fuzz(["H", "mul.16", "cor2.63"], 40, sampler, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_draws(self):
        sampler = SamplerConfig(max_index=6, bound=7)
        a = fuzz(["H"], 5, sampler, seed=1)
        b = fuzz(["H"], 5, sampler, seed=2)
        assert a.all_passed and b.all_passed

    def test_single_trial_all_zero_window(self):
        rep = fuzz(["H"], 1, SamplerConfig(max_index=0, bound=5), seed=3)
        assert rep.all_passed

    def test_corrupted_identity_reports_counterexample(self, monkeypatch):
        broken = catalog._I("broken", "n", "u(n) = u(n) + 1")
        registry = dict(REGISTRY)
        registry["broken"] = broken
        monkeypatch.setattr(catalog, "REGISTRY", registry)
        rep = fuzz(["H", "broken"], 20, SamplerConfig(max_index=5, bound=5), seed=4)
        assert not rep.all_passed
        stats = {s.key: s for s in rep.stats}
        assert stats["H"].passes == 20
        assert stats["broken"].passes == 0
        ce = stats["broken"].first_counterexample
        assert ce is not None and not ce.equal
        assert set(ce.assignment) == {"n"}

    @staticmethod
    def _replay(ids, trials, sampler, seed):
        """The FuzzReport of the same draws, each evaluated through `evaluate`."""
        rng = random.Random(seed)
        passes = dict.fromkeys(ids, 0)
        first = dict.fromkeys(ids)
        for _ in range(trials):
            params = sampler.draw_params(rng)
            for key in ids:
                asg = sampler.draw_assignment(rng, catalog.REGISTRY[key].variables)
                report = evaluate(key, params, asg)
                if report.equal:
                    passes[key] += 1
                elif first[key] is None:
                    first[key] = report
        return FuzzReport(seed, trials, sampler, tuple(
            IdentityStats(key, trials, passes[key], first[key]) for key in ids))

    @pytest.mark.parametrize("sampler", [SamplerConfig(10, 9), SamplerConfig(30, 3)],
                             ids=["10-9", "30-3"])
    def test_equals_a_replay_through_evaluate(self, monkeypatch, sampler):
        # a corrupted identity, and one whose side raises NegativeK for n < 20
        monkeypatch.setattr(catalog, "REGISTRY", dict(
            REGISTRY, broken=catalog._I("broken", "n", "u(n) = u(n) + 1"),
            raising=catalog._I("raising", "n", "u(n) = C(n-20,0)*u(n)")))
        ids = list(REGISTRY) + ["broken", "raising"]
        raising_passes = 0
        for seed in range(4):
            rep = fuzz(ids, 3, sampler, seed)
            assert rep.to_dict() == self._replay(ids, 3, sampler, seed).to_dict()
            stats = {s.key: s for s in rep.stats}
            assert all(stats[key].passes == 3 for key in REGISTRY)
            broken = stats["broken"].first_counterexample
            assert broken.error is None and broken.rhs == broken.lhs + 1
            raising = stats["raising"].first_counterexample
            raising_passes += stats["raising"].passes
            if raising is not None:
                k = raising.assignment["n"] - 20
                assert k < 0 and raising.error == f"binomial needs k >= 0, got k={k}"
                assert (raising.lhs, raising.rhs, raising.equal) == (None, None, False)
        # the wide sampler reaches n >= 20, where the raising side passes
        assert (raising_passes > 0) == (sampler.max_index >= 20)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            fuzz(["H"], 0, SamplerConfig(), seed=1)

    def test_ids_must_be_distinct_and_nonempty(self):
        with pytest.raises(ValueError, match=r"distinct identity ids, got \['H', 'mul.16', 'H'\]"):
            fuzz(["H", "mul.16", "H"], 1, SamplerConfig(), seed=1)
        with pytest.raises(ValueError, match=r"distinct identity ids, got \[\]$"):
            fuzz([], 2, SamplerConfig(), seed=1)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(max_index=-1), "max_index must be >= 0, got -1"),
        (dict(bound=0), "bound must be >= 1, got 0"),
        # a float bound once failed only later, inside fuzz, on `bit_length`
        (dict(max_index=2.5), "max_index must be an int, got 2.5"),
        (dict(max_index="3"), "max_index must be an int, got '3'"),
        (dict(max_index=True), "max_index must be an int, got True"),
        (dict(bound=2.5), "bound must be an int, got 2.5"),
        (dict(bound=True), "bound must be an int, got True"),
    ])
    def test_sampler_bounds_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SamplerConfig(**kwargs)

    @pytest.mark.parametrize("trials,seed,message", [
        # a bool was once reported as `"trials": true`, a float raised
        # TypeError, and any seed was taken and echoed back
        (True, 0, "trials must be an int, got True"),
        (2.0, 0, "trials must be an int, got 2.0"),
        (1, 1.5, "seed must be an int, got 1.5"),
        (1, "x", "seed must be an int, got 'x'"),
        (1, None, "seed must be an int, got None"),
        (1, True, "seed must be an int, got True"),
    ])
    def test_trials_and_seed_must_be_ints(self, trials, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fuzz(["H"], trials, SamplerConfig(), seed)

    @pytest.mark.parametrize("lo,hi", [
        (0, 0), (1, 8), (1, 16), (-9, 9), (-10, 10), (-30, 30), (-2**40, 2**40),
    ], ids=["width-1", "width-8", "width-16", "width-19", "width-21", "width-61",
            "width-2^41+1"])
    def test_draws_are_randints(self, lo, hi):
        # the same values and the same generator state as random.Random.randint
        for seed in range(5):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert catalog._randints(ours, lo, hi, 60) == [theirs.randint(lo, hi)
                                                           for _ in range(60)]
            assert ours.getstate() == theirs.getstate()

    @staticmethod
    def _randint_params(sampler, rng):
        def rational(nonzero):
            while True:
                x = Fraction(rng.randint(-sampler.bound, sampler.bound),
                             rng.randint(1, sampler.bound))
                if not (nonzero and x == 0):
                    return x
        p, q = rational(True), rational(True)
        return HoradamParams(rational(False), rational(False), p, q)

    @pytest.mark.parametrize("max_index,bound", [(0, 8), (9, 16), (10, 9), (30, 3),
                                                 (2**40, 1)])
    def test_sampler_draws_are_randints(self, max_index, bound):
        sampler = SamplerConfig(max_index, bound)
        ours, theirs = random.Random(max_index), random.Random(max_index)
        for variables in ("n", "nm", "nmrs", "nmrsk") * 10:
            assert sampler.draw_params(ours) == self._randint_params(sampler, theirs)
            assert sampler.draw_assignment(ours, variables) == {
                v: theirs.randint(-max_index, max_index) for v in variables}
            assert ours.getstate() == theirs.getstate()

    def test_sampler_never_draws_zero_pq(self):
        rng = random.Random(73)
        sampler = SamplerConfig(max_index=5, bound=3)
        for _ in range(300):
            params = sampler.draw_params(rng)
            assert params.p != 0 and params.q != 0
            for val in (params.a, params.b, params.p, params.q):
                assert abs(val.numerator) <= 3 and val.denominator <= 3


@functools.cache
def _one_entry_chunk(ident):
    """The trial chunk `fuzz` would compile for `ident` alone."""
    return grammar.compile_trial_chunk([ident])


def _fuzz_verdict(ident, t, values):
    """The verdict `fuzz` gives `ident` on one draw, from its one-entry chunk."""
    return _one_entry_chunk(ident)(t, values)[0]


class TestFuzzCheck:
    """The pair code `fuzz` decides a draw with, run as a one-entry trial
    chunk, against the two compiled sides it replaces."""

    # the corrupted formulas above, and one that no parameters satisfy
    BROKEN = [catalog._I(key, variables, formula) for key, variables, formula in CORRUPTED
              ] + [catalog._I("broken", "n", "u(n) = u(n) + 1")]

    @staticmethod
    def _draws(seed):
        """(checker accessor, its context, entry, values) for every registry
        and `BROKEN` entry on seeded draws: indices in [-10, 10] and all zero,
        and parameters with p^2 = 4q among the drawn ones. The pair code runs
        on the accessor, the operator sides on the context's reads."""
        rng = random.Random(seed)
        double_root = HoradamParams(Fraction(1, 3), -2, Fraction(3, 2), Fraction(9, 16))
        for sampler in (SamplerConfig(10, 9), SamplerConfig(0, 5)):
            for params in [sampler.draw_params(rng) for _ in range(4)] + [double_root]:
                ctx = TermContext(params)
                t = Terms(ctx, SequenceKind.W)
                for ident in list(REGISTRY.values()) + TestFuzzCheck.BROKEN:
                    values = list(sampler.draw_assignment(rng, ident.variables).values())
                    yield t, ctx, ident, values

    def test_verdict_equals_the_compared_sides(self):
        failed = set()
        for seed in range(3):
            for t, ctx, ident, values in self._draws(seed):
                verdict = _fuzz_verdict(ident, t, values)
                assert verdict is (ident.lhs(ctx, *values) == ident.rhs(ctx, *values)), (
                    ident.key, values)
                if not verdict:
                    failed.add(ident.formula)
        # every corrupted formula fails on some draw, and no registry entry does
        assert failed == {ident.formula for ident in self.BROKEN}

    def test_reads_the_terms_of_lhs_then_rhs_in_order(self):
        class Recording:
            """An accessor that logs each read of `t`'s members, by name and index."""

            def __init__(self, t):
                self.t, self.log = t, []

            def __getattr__(self, name):
                member = getattr(self.t, name)
                if name in ("p", "q", "a", "b"):
                    self.log.append(name)
                    return member

                def read(e):
                    self.log.append((name, e))
                    return member(e)
                return read

        for t, ctx, ident, values in self._draws(3):
            by_check, by_sides = Recording(t), Recording(ctx)
            _fuzz_verdict(ident, by_check, values)
            ident.lhs(by_sides, *values), ident.rhs(by_sides, *values)
            # the chunk fetches each scalar member it reads once, in name order,
            # before the term reads, which come in the order of lhs then rhs
            scalars = sorted({read for read in by_sides.log if type(read) is str})
            terms = [read for read in by_sides.log if type(read) is tuple]
            assert by_check.log == scalars + terms, ident.key

    @pytest.mark.parametrize("formula", [
        "u(n)^p = u(n)^p",
        "u(n)^(-1)*u(n) = 1",
        "u(n)^(n/2) = u(n)^(n/2)",
        "sum_{n=0}^{2} u(n) = u(n) + 1",
        "n*u(n) = n*u(n)",
    ], ids=["rational-exponent", "negative-exponent", "fractional-exponent",
            "index-is-a-variable", "variable-as-a-value"])
    def test_rejects_what_it_cannot_compute(self, formula):
        with pytest.raises(ValueError, match=r"^odd\.1: the pair compiler cannot compile"):
            grammar.compile_pairs("odd.1", "n", grammar.sides(formula))

    @pytest.mark.parametrize("formula", [
        "u(2n) = v(n)*u(2n)/v(n)",
        "u(n+1) - q^n = sum_{j=0}^{n} u(j)*v(j)",
        "u(n) = C(n,0)*u(n)",
        "u(n)^n = u(n)^n",
    ], ids=["divide", "sum", "binomial", "index-exponent"])
    def test_compiles_the_theorem_grammar(self, formula):
        # the constructs the summation theorems add decide a draw as the
        # operator sides do
        ident = catalog._I("odd.1", "n", formula)
        sides = grammar.compile_pairs("odd.1", "n", grammar.sides(formula))
        verdicts = set()
        for params in (FIB, FIBW, HoradamParams(Fraction(1, 2), -2, Fraction(3, 4),
                                                Fraction(-5, 6))):
            ctx = TermContext(params)
            t = Terms(ctx, SequenceKind.W)
            for n in range(7):
                ln, ld, rn, rd = sides(t, n)
                verdict = ln * rd == rn * ld
                assert verdict is (ident.lhs(ctx, n) == ident.rhs(ctx, n)), n
                assert _fuzz_verdict(ident, t, [n]) is verdict, n
                verdicts.add(verdict)
        assert verdicts == ({False, True} if "sum" in formula else {True})

    # formulas the pair compiler rejects; no registry entry is one
    REJECTED = {"negative-exponent": "u(n)^(-1)*u(n) = 1",
                "negative-exponent-alone": "u(n)^(-1) = u(n)",
                "negative-square": "u(n)^(-2)*v(n) = u(n)",
                "index-is-a-variable": "sum_{n=0}^{2} u(n) = u(n) + 1",
                "variable-as-a-value": "n*u(n) = n*u(n)"}

    @pytest.mark.parametrize("formula", list(REJECTED.values()), ids=list(REJECTED))
    def test_an_entry_it_rejects_is_refused(self, monkeypatch, formula):
        # by its chunk and by fuzz, before any draw, keeping the last plan
        ident = catalog._I("odd.1", "n", formula)
        message = r"^odd\.1: the pair compiler cannot compile"
        with pytest.raises(ValueError, match=message):
            grammar.compile_trial_chunk([ident])
        monkeypatch.setattr(catalog, "REGISTRY", dict(REGISTRY, **{"odd.1": ident}))
        assert fuzz(["H"], 1, SamplerConfig(), seed=1).all_passed
        kept = catalog._LAST

        def drawn(*args):
            raise AssertionError("a refused fuzz call drew parameters")
        monkeypatch.setattr(SamplerConfig, "draw_params", drawn)
        with pytest.raises(ValueError, match=message):
            fuzz(["H", "odd.1"], 1, SamplerConfig(), seed=1)
        assert catalog._LAST is kept

    def test_division_by_a_zero_numerator_raises(self):
        # as the operator sides do on the context's reads, never reading a
        # zero denominator as equal
        ident = catalog._I("odd.1", "n", "w(n)/u(n) = w(n)/u(n)")
        ctx = TermContext(FIBW)
        t = Terms(ctx, SequenceKind.W)
        assert _fuzz_verdict(ident, t, [3]) is True
        sides = grammar.compile_pairs("odd.1", "n", grammar.sides(ident.formula))
        chunk = _one_entry_chunk(ident)
        for side, args in ((chunk, [0]), (sides, 0)):
            with pytest.raises(ZeroDivisionError, match="^division by zero$"):
                side(t, args)
        with pytest.raises(ZeroDivisionError):
            ident.lhs(ctx, 0)

    def test_a_negative_index_exponent_raises(self):
        # the operator sides would take a reciprocal; the pair code never
        # yields a float
        sides = grammar.compile_pairs("odd.1", "n", grammar.sides("(-1)^n*u(4)^n = v(n)"))
        t = Terms(TermContext(FIBW), SequenceKind.W)
        assert all(type(x) is int for x in sides(t, 3))
        for n in (-1, -3):
            with pytest.raises(ValueError, match=r"^odd\.1: a negative exponent in \(-1\)\*\*n: "
                                                 f"{n}$"):
                sides(t, n)

    def test_generated_check_source_is_pinned(self, monkeypatch):
        # a fuzz trial over all 73 entries runs the code the pair compiler has
        # generated since each term read became a tuple unpack (`_0n, _0d =
        # _u(r-s)` where `_0 = _u(r-s)` was read as `_0.n` and `_0.d`; no other
        # line changed): sha256 of the 10 chunk sources a fresh plan compiles,
        # joined by newlines
        sources = []

        def recording(source, namespace):
            sources.append(source)
            exec(source, namespace)
        monkeypatch.setattr(grammar, "exec", recording, raising=False)
        monkeypatch.setattr(catalog, "_LAST", (None, None))
        assert fuzz(list(REGISTRY), 1, SamplerConfig(), seed=1).all_passed
        assert len(sources) == 10
        assert hashlib.sha256("\n".join(sources).encode()).hexdigest() == (
            "0e3bee6359ef73cad00078cdbf091ce37031c462fc3fb2d5f92d34783e14e537")

    def test_passing_trial_calls_no_ratio_operator(self, monkeypatch):
        # the trial chunks unpack each term pair and compute on its integers:
        # a pair that is compared or tested for truth fails the trial
        class StrictPair(tuple):
            def _refuse(self, *args):
                raise AssertionError("a term pair was compared or tested for truth")

            __eq__ = __ne__ = __bool__ = _refuse
            __hash__ = tuple.__hash__

        def strict_terms(ctx, kind):
            t = Terms(ctx, kind)
            return SimpleNamespace(
                **{m: (lambda e, read=getattr(t, m): StrictPair(read(e)))
                   for m in ("u", "v", "w", "qp")},
                **{m: StrictPair(getattr(t, m)) for m in ("p", "q", "a", "b")})

        monkeypatch.setattr(catalog, "Terms", strict_terms)
        assert fuzz(list(REGISTRY), 3, SamplerConfig(), seed=5).all_passed



class TestTrialChunk:
    """`compile_trial_chunk`, which decides a run of entries in one call, and
    the plans `fuzz` builds from it, against each entry's `lhs == rhs`."""

    @staticmethod
    def _checked(ident, ctx, values):
        try:
            return ident.lhs(ctx, *values) == ident.rhs(ctx, *values)
        except HoradamError:
            return False

    @staticmethod
    def _chunked(idents, size):
        """(chunk, start, stop) over runs of `size` entries and their values."""
        runs, start = [], 0
        for i in range(0, len(idents), size):
            run = idents[i:i + size]
            stop = start + sum(len(ident.variables) for ident in run)
            runs.append((grammar.compile_trial_chunk(run), start, stop))
            start = stop
        return runs

    @pytest.mark.parametrize("size", [catalog._CHUNK, 1000], ids=["chunk", "one-chunk"])
    def test_verdicts_equal_the_checks(self, size):
        idents = list(REGISTRY.values()) + TestFuzzCheck.BROKEN
        runs = self._chunked(idents, size)
        failed = set()
        for seed in range(3):
            draws = list(TestFuzzCheck._draws(seed))
            for g in range(0, len(draws), len(idents)):
                group = draws[g:g + len(idents)]
                t, ctx = group[0][:2]
                assert [ident for _, _, ident, _ in group] == idents
                drawn = [x for _, _, _, values in group for x in values]
                verdicts = [v for chunk, start, stop in runs for v in chunk(t, drawn[start:stop])]
                expected = [self._checked(ident, ctx, values) for _, _, ident, values in group]
                assert verdicts == expected
                failed |= {i.formula for i, ok in zip(idents, verdicts) if not ok}
        assert failed == {ident.formula for ident in TestFuzzCheck.BROKEN}

    def test_a_chunk_refuses_an_entry_it_rejects(self):
        # whatever entries around it compile
        for i, formula in enumerate(TestFuzzCheck.REJECTED.values()):
            ident = catalog._I(f"odd.{i}", "n", formula)
            with pytest.raises(ValueError, match=rf"^odd\.{i}: the pair compiler cannot compile"):
                grammar.compile_trial_chunk([REGISTRY["H"], ident, REGISTRY["cor2.75"]])

    def test_a_raising_entry_fails_alone(self, monkeypatch):
        # `raising` raises NegativeK at n < 0, in the middle of its chunk
        monkeypatch.setattr(catalog, "REGISTRY", dict(
            REGISTRY, raising=catalog._I("raising", "n", "u(n) = C(n,0)*u(n)")))
        keys = list(REGISTRY)
        ids = keys[:3] + ["raising"] + keys[3:catalog._CHUNK + 2]
        sampler = SamplerConfig(max_index=6, bound=7)
        seen = 0
        for seed in range(4):
            rep = fuzz(ids, 6, sampler, seed)
            stats = {s.key: s for s in rep.stats}
            assert all(stats[key].passes == 6 for key in ids if key != "raising")
            raising = stats["raising"]
            if raising.first_counterexample is None:
                assert raising.passes == 6
                continue
            seen += 1
            ce = raising.first_counterexample
            assert ce.assignment["n"] < 0 and ce.error.startswith("binomial needs k >= 0")
            # the report `evaluate` gives at the first trial that drew n < 0
            rng = random.Random(seed)
            while True:
                params = sampler.draw_params(rng)
                drawn = {key: sampler.draw_assignment(rng, catalog.REGISTRY[key].variables)
                         for key in ids}
                if drawn["raising"]["n"] < 0:
                    break
            assert ce == evaluate("raising", params, drawn["raising"])
        assert seen > 0

    def test_a_replaced_entry_compiles_anew(self, monkeypatch):
        sampler = SamplerConfig()
        assert fuzz(["H", "mul.16"], 2, sampler, 1).all_passed
        monkeypatch.setattr(catalog, "REGISTRY", dict(
            REGISTRY, **{"mul.16": catalog._I("mul.16", "nm", "u(m)*u(n) = u(n+m)")}))
        rep = fuzz(["H", "mul.16"], 2, sampler, 1)
        assert [s.passes for s in rep.stats] == [2, 0]
        monkeypatch.undo()
        assert fuzz(["H", "mul.16"], 2, sampler, 1).all_passed

    def test_a_first_call_refuses_an_empty_list(self):
        # in a fresh process no plan is kept yet
        src = str(Path(catalog.__file__).parents[1])
        code = ("from horadam.catalog import SamplerConfig, fuzz\n"
                "try:\n    fuzz([], 1, SamplerConfig(), 1)\n"
                "except ValueError as exc:\n    print(exc)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.stdout == "fuzz needs one or more distinct identity ids, got []\n"

    def test_a_kept_plan_still_validates(self):
        keys = list(REGISTRY)[:2]
        fuzz(keys, 1, SamplerConfig(), 1)
        assert catalog._LAST[0] == tuple(keys)
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            fuzz(keys, 0, SamplerConfig(), 1)
        with pytest.raises(UnknownIdentity, match="no identity with key 'nope'"):
            fuzz([*keys, "nope"], 1, SamplerConfig(), 1)


class TestCompileOnFirstUse:
    def test_an_import_compiles_no_side(self):
        # in a fresh process, importing the package and evaluating a term
        # compiles no identity side and no theorem member; every entry and
        # form is there, and `evaluate` compiles the two sides it reads, once
        src = str(Path(catalog.__file__).parents[1])
        code = (
            "import contextlib, io, json\n"
            "import horadam\n"
            "from horadam import catalog, cli, theorems\n"
            "from horadam.sequences import PRESETS\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['eval', '--preset', 'fibonacci', '--kind', 'u', '--n', '10'])\n"
            "def compiled():\n"
            "    return ([k for k, i in catalog.REGISTRY.items() if {'lhs', 'rhs'} & vars(i).keys()],\n"
            "            [list(k) for k, f in theorems._FORMS.items()\n"
            "             if {'values', 'pairs'} & vars(f).keys()])\n"
            "before = compiled()\n"
            "report = catalog.evaluate('H', PRESETS['fibonacci'], dict(n=3, m=2, r=1, s=0))\n"
            "H = catalog.REGISTRY['H']\n"
            "print(json.dumps(dict(\n"
            "    eval=[code, out.getvalue()], before=before, after=compiled(),\n"
            "    held=sorted({'lhs', 'rhs'} & vars(H).keys()),\n"
            "    equal=report.equal, same=[H.lhs is H.lhs, H.rhs is H.rhs],\n"
            "    keys=list(catalog.REGISTRY), forms=sorted(map(list, theorems._FORMS)))))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        got = json.loads(out.stdout)
        assert got["eval"] == [0, "55\n"]
        assert got["before"] == [[], []]
        assert got["after"] == [["H"], []] and got["held"] == ["lhs", "rhs"]
        assert got["equal"] and got["same"] == [True, True]
        assert got["keys"] == list(REGISTRY) and len(got["keys"]) == 73
        assert got["forms"] == [[theorem, base] for theorem, bases in theorems._BASES.items()
                                for base in range(1, len(bases) + 1)]

    def test_an_import_compiles_no_formula(self):
        # in a fresh process, with exec counted from before the import: the
        # import and a CLI term evaluation compile no formula, no relation or
        # derivation record is compiled before its first read, and
        # base_assignment compiles its own entry's record alone
        src = str(Path(catalog.__file__).parents[1])
        code = (
            "import builtins, contextlib, io, json\n"
            "sources = []\n"
            "run = builtins.exec\n"
            "def counted(source, *args, **kwargs):\n"
            "    if isinstance(source, str) and source.startswith(\n"
            "            ('def expression(', 'def sides(', 'def chunk(')):\n"
            "        sources.append(source)\n"
            "    return run(source, *args, **kwargs)\n"
            "builtins.exec = counted\n"
            "import horadam\n"
            "from horadam import catalog, cli, theorems\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['eval', '--preset', 'fibonacci', '--kind', 'u', '--n', '10'])\n"
            "def held(name, records):\n"
            "    return [str(k) for k, x in records.items() if name in vars(x)]\n"
            "got = dict(eval=[code, out.getvalue()], compiled=len(sources),\n"
            "           relations=[m for x in set(theorems._RELATIONS.values())\n"
            "                      for m in ('values', 'pairs', 'shape', 'guards')\n"
            "                      if m in vars(x)],\n"
            "           derivations=held('derivation', catalog.REGISTRY))\n"
            "mapped = catalog.base_assignment(catalog.REGISTRY['cor1.56'], dict(n=4, s=1, t=3))\n"
            "got.update(mapped=[mapped[0], mapped[2]], after=len(sources),\n"
            "           held=held('derivation', catalog.REGISTRY))\n"
            "print(json.dumps(got))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        got = json.loads(out.stdout)
        assert got["eval"] == [0, "55\n"]
        assert got["compiled"] == 0
        assert got["relations"] == [] and got["derivations"] == []
        assert got["mapped"] == ["H", dict(n=4, m=0, r=2, s=-1)]
        assert got["after"] == 1 and got["held"] == ["cor1.56"]

    def test_one_compile_per_form_and_field(self):
        # in a fresh process, one theorem_sum per selector compiles each form
        # once over Q (its pairs) and once over GF(M) (its values); each
        # relation compiles its pairs over Q, its values over GF(M) and its
        # shape once, each on its first read, and no guard on passing calls;
        # each lemma left side compiles once per field; a second round
        # compiles nothing
        src = str(Path(catalog.__file__).parents[1])
        code = (
            "import collections, json\n"
            "from fractions import Fraction\n"
            "from horadam import formula, theorems\n"
            "from horadam.field import PrimeField\n"
            "from horadam.sequences import HoradamParams\n"
            "names = collections.Counter()\n"
            "define = formula._define\n"
            "def counted(name, *args):\n"
            "    names[name] += 1\n"
            "    return define(name, *args)\n"
            "formula._define = counted\n"
            "field = PrimeField(1_000_000_007)\n"
            "over_q = HoradamParams(Fraction(2, 3), -1, Fraction(3, 2), Fraction(-5, 7))\n"
            "over_gf = HoradamParams(*map(field, (over_q.a, over_q.b, over_q.p, over_q.q)))\n"
            "got = []\n"
            "for params in (over_q, over_gf, over_q, over_gf):\n"
            "    for theorem, count in theorems.VARIANT_COUNT.items():\n"
            "        for variant in range(1, count + 1):\n"
            "            sel = theorems.TheoremSelector(theorem, variant)\n"
            "            assert theorems.theorem_sum(sel, params, 5, 3, 2, -1, 3).equal\n"
            "    got.append(dict(names))\n"
            "    names.clear()\n"
            "print(json.dumps(got))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        # 18 compiles over Q: 11 form pairs, 2 relation pairs, 3 lemma left
        # sides, 2 shapes; then 16 over GF(M): 11 form values, 2 relation
        # values, 3 lemma left sides
        q_first, gf_first, *again = json.loads(out.stdout)
        assert q_first == {"sides": 11 + 2 + 3, "expression": 2}, out.stderr
        assert gf_first == {"expression": 11 + 2 + 3} and again == [{}, {}]
