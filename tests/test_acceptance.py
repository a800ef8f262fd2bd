"""Acceptance criteria, one test per criterion, zero numeric tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion as it completes.
"""
import json
import random
import time
from fractions import Fraction

import pytest

from horadam.bench import run_bench
from horadam.catalog import REGISTRY, SamplerConfig, fuzz, list_identities
from horadam.cli import main
from horadam.errors import GuardViolation, SingularSummand
from horadam.sequences import (
    HoradamParams,
    SequenceKind,
    binet_term,
    fast_uv,
    term,
)
from horadam.theorems import (
    VARIANT_COUNT,
    TheoremSelector,
    theorem_sum,
)

SEED = 20260811


def _passed(label):
    print(f"PASS {label}")


def test_criterion_1_catalog_soundness():
    """Every registered identity passes exact verification on 500 seeded
    random assignments (|num|,den <= 9, p,q != 0, indices in [-10, 10])."""
    start = time.perf_counter()
    keys = [k for k, _, _ in list_identities()]
    assert len(keys) == 73
    report = fuzz(keys, trials=500, sampler=SamplerConfig(max_index=10, bound=9),
                  seed=SEED)
    failures = [s for s in report.stats if s.passes != s.trials]
    assert not failures, [(s.key, s.first_counterexample.to_dict()) for s in failures]
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"catalog soundness took {elapsed:.1f}s"
    _passed(f"criterion 1: catalog soundness "
            f"({len(keys)} identities x 500 assignments, exact, {elapsed:.1f}s)")


def test_criterion_2_theorem_triple_agreement():
    """Theorems 2-6, every variant, w-form plus (0,1)/(2,p) specializations:
    200 seeded guard-passing assignments each with k in [0, 5]; direct sum,
    closed form and lemma-engine value agree exactly. Guarded or singular
    draws raise the designated errors."""
    rng = random.Random(SEED)
    sampler = SamplerConfig(max_index=6, bound=9)
    combos = 0
    rejected = {"guard": 0, "singular": 0}
    for theorem, nvar in sorted(VARIANT_COUNT.items()):
        for variant in range(1, nvar + 1):
            for kind in SequenceKind:
                sel = TheoremSelector(theorem, variant, kind)
                done = attempts = 0
                while done < 200:
                    attempts += 1
                    assert attempts < 60000, f"sampling stalled for {sel}"
                    params = sampler.draw_params(rng)
                    n, m, r, s = (rng.randint(-6, 6) for _ in range(4))
                    k = rng.randint(0, 5)
                    try:
                        rep = theorem_sum(sel, params, n, m, r, s, k)
                    except GuardViolation:
                        rejected["guard"] += 1
                        continue
                    except SingularSummand:
                        rejected["singular"] += 1
                        continue
                    done += 1
                    assert rep.equal, (sel, params, (n, m, r, s, k), rep.to_dict())
                combos += 1
    assert combos == 66
    assert rejected["guard"] > 0 and rejected["singular"] > 0
    _passed(f"criterion 2: theorem triple agreement (66 selector combos x 200 "
            f"assignments; {rejected['guard']} guarded and "
            f"{rejected['singular']} singular draws raised designated errors)")


def _random_params(rng, bound=9):
    def draw(nonzero):
        while True:
            x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            if not (nonzero and x == 0):
                return x
    return HoradamParams(draw(False), draw(False), draw(True), draw(True))


def test_criterion_3_evaluation_path_equivalence():
    """Iterative, doubling and quadratic-extension evaluation agree exactly:
    100 random parameter sets over n in [-10, 10], and n in {256, 1000} on
    the doubling path."""
    rng = random.Random(SEED + 1)
    count = 0
    while count < 100:
        params = _random_params(rng)
        for n in range(-10, 11):
            if params.discriminant != 0:
                for kind in SequenceKind:
                    assert binet_term(params, kind, n) == term(params, kind, n)
            if n >= 0:
                assert fast_uv(params, n) == (term(params, SequenceKind.U, n),
                                              term(params, SequenceKind.V, n))
        for n in (256, 1000):
            assert fast_uv(params, n) == (term(params, SequenceKind.U, n),
                                          term(params, SequenceKind.V, n))
        count += 1
    _passed("criterion 3: evaluation-path equivalence "
            "(iterative = doubling = quadratic-extension, 100 parameter sets)")


def test_criterion_4_reflection_and_linear_form():
    """q^n u(-n) = -u(n), q^n v(-n) = v(n) and w(n) = b u(n) - a q u(n-1)
    hold exactly for n in [-15, 15] across 100 random parameter sets."""
    rng = random.Random(SEED + 2)
    for _ in range(100):
        params = _random_params(rng)
        p, q, a, b = params.p, params.q, params.a, params.b
        for n in range(-15, 16):
            qn = q ** n
            assert qn * term(params, SequenceKind.U, -n) == -term(params, SequenceKind.U, n)
            assert qn * term(params, SequenceKind.V, -n) == term(params, SequenceKind.V, n)
            assert term(params, SequenceKind.W, n) == (
                b * term(params, SequenceKind.U, n)
                - a * q * term(params, SequenceKind.U, n - 1))
    _passed("criterion 4: reflection and linear-form invariants "
            "(n in [-15, 15], 100 parameter sets)")


def test_criterion_5_performance_sanity():
    """Doubling at n = 10^6 mod 1000000007 matches iterative evaluation and
    is at least 10x faster."""
    report = run_bench(Fraction(1), Fraction(-1), 10 ** 6, 1000000007)
    assert report.results_match
    assert report.speedup >= 10, f"speedup only {report.speedup:.1f}x"
    _passed(f"criterion 5: performance sanity (doubling {report.speedup:.0f}x "
            f"faster; iterative {report.iterative_seconds:.3f}s, "
            f"doubling {report.doubling_seconds:.6f}s)")


def test_criterion_6_cli_golden_and_exit_codes(capsys):
    """Fixed argv + seed produce byte-identical JSON; each error class maps
    to its documented exit code."""
    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    golden_argvs = [
        ["eval", "--preset", "fibonacci", "--kind", "u", "--n", "10", "--json"],
        ["verify", "--id", "H", "--preset", "fibonacci",
         "--assign", "n=1,m=3,r=2,s=0", "--json"],
        ["fuzz", "--ids", "all", "--trials", "5", "--seed", "7", "--json"],
        ["sum", "--theorem", "2", "--variant", "1", "--preset", "fibonacci",
         "--a", "3", "--b", "2", "--assign", "n=4,m=2,r=1,s=0,k=2", "--json"],
    ]
    for argv in golden_argvs:
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2, f"JSON not byte-stable for {argv}"
        json.loads(out1)  # well-formed

    contract = [
        (["verify", "--id", "nosuch", "--preset", "fibonacci", "--assign", "n=1"], 2),
        (["sum", "--theorem", "5", "--variant", "1", "--preset", "fibonacci",
          "--assign", "n=2,m=2,r=1,s=0,k=2"], 5),
        (["sum", "--theorem", "2", "--variant", "1", "--preset", "fibonacci",
          "--assign", "n=4,m=2,r=1,s=1,k=2"], 6),
        (["eval", "--p", "2", "--q", "1", "--kind", "u", "--n", "5",
          "--method", "binet"], 3),
        (["bench", "--n", "100", "--mod", "10"], 2),
    ]
    for argv, expected in contract:
        code, _, err = run(argv)
        assert code == expected, f"{argv} exited {code}, expected {expected}"
        assert err, f"{argv} printed no diagnostic"
    _passed("criterion 6: CLI golden stability and exit-code contract")
