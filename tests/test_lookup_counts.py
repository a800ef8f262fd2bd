"""The checkers read every term through `TermContext._get`.

`perfbench/layers.py` counts contexts and lookups by binding a subclass of
`TermContext` that overrides `_get` on `catalog` and `theorems`. These
tests bind such a subclass the same way and pin both counts for fixed
calls, so a change that routes a checker around `_get` shows here.
"""
from fractions import Fraction

import pytest

from horadam import catalog, theorems
from horadam.sequences import HoradamParams, TermContext

PARAMS = HoradamParams(Fraction(1, 2), -2, Fraction(3, 4), Fraction(-5, 6))
ASSIGNMENT = (3, 2, 1, -1, 3)   # n, m, r, s, k


@pytest.fixture
def counts(monkeypatch):
    counts = {"created": 0, "lookups": 0}

    class CountingTermContext(TermContext):
        __slots__ = ()

        def __init__(self, params):
            counts["created"] += 1
            TermContext.__init__(self, params)

        def _get(self, kind, n):
            counts["lookups"] += 1
            return TermContext._get(self, kind, n)

    monkeypatch.setattr(catalog, "TermContext", CountingTermContext)
    monkeypatch.setattr(theorems, "TermContext", CountingTermContext)
    return counts


def test_fuzz_trial(counts):
    keys = [key for key, _, _ in catalog.list_identities()]
    assert catalog.fuzz(keys, 1, catalog.SamplerConfig(), 1).all_passed
    assert counts == {"created": 1, "lookups": 356}


@pytest.mark.parametrize("theorem,lookups", [(2, 40), (3, 38), (4, 38), (5, 63), (6, 63)])
def test_theorem_sum(counts, theorem, lookups):
    fn = theorems.reciprocal_sum if theorem in (5, 6) else theorems.theorem_sum
    assert fn(theorems.TheoremSelector(theorem, 1), PARAMS, *ASSIGNMENT).equal
    assert counts == {"created": 1, "lookups": lookups}


@pytest.mark.parametrize("theorem", [5, 6])
def test_singularity_scan(counts, theorem):
    scan = theorems.singularity_scan(theorems.TheoremSelector(theorem, 1), PARAMS, *ASSIGNMENT)
    assert len(scan) == 5
    assert counts == {"created": 1, "lookups": 5}
