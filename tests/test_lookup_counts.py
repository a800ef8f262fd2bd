"""The checkers read every term through a subscript of the term cache.

Each kind's cache in a `TermContext` is a `sequences._Run`, a dict, and the
checker accessor's u, v and w are its bound `__getitem__`. These tests
count lookups by binding a subclass of `_Run` that overrides `__getitem__`
(on `sequences`, where `TermContext` builds its runs) and contexts by
binding a subclass of `TermContext` on `catalog` and `theorems`. They pin
both counts for fixed calls, so a change that routes a checker around the
cache's subscript shows here. They also pin what a context derives: its
parameter set's coefficients once (`sequences._coefficients`), and one
kind's seeds per walk a run starts (`_Run._start`).
"""
import random
from fractions import Fraction

import pytest

from horadam import catalog, sequences, theorems
from horadam.field import PrimeField, reduced
from horadam.sequences import (HoradamParams, SequenceKind, TermContext, _Run, binet_term,
                               doubling_term, fast_uv, term)

PARAMS = HoradamParams(Fraction(1, 2), -2, Fraction(3, 4), Fraction(-5, 6))
ASSIGNMENT = (3, 2, 1, -1, 3)   # n, m, r, s, k
# A theorem call computes only the left side of the lemma it follows from.
# The parameters below give the lookups of a call that also computed the
# lemma's right side; these are the reads that right side made and nothing
# else in the call makes: lemma 3's single scaled term for theorem 2, and
# the telescoped X(n) and X(n-(k+1)c) for theorems 3-6.
RHS_READS = {2: 1, 3: 2, 4: 2, 5: 2, 6: 2}
# The parameters below also count reads that a call no longer repeats: the
# lemma leg folds lemma 1's and L4's sums in its probe, and a sum loop reads a
# term whose index has no j once, before the loop. At k = 3 those are the
# sum's second read of each of its 4 summands' Y (lemma 1, theorems 3 and 4)
# or Y and two X terms (L4 and L5, theorems 5 and 6), and 3 repeats of each
# of the two such terms in every theorem's summand.
REREADS = {2: 6, 3: 4 + 6, 4: 4 + 6, 5: 12 + 6, 6: 12 + 6}


@pytest.fixture
def counts(monkeypatch):
    counts = {"created": 0, "lookups": 0}

    class CountingTermContext(TermContext):
        __slots__ = ()

        def __init__(self, params):
            counts["created"] += 1
            TermContext.__init__(self, params)

    class CountingRun(_Run):
        __slots__ = ()

        def __getitem__(self, n):
            counts["lookups"] += 1
            return dict.__getitem__(self, n)

    monkeypatch.setattr(catalog, "TermContext", CountingTermContext)
    monkeypatch.setattr(theorems, "TermContext", CountingTermContext)
    monkeypatch.setattr(sequences, "_Run", CountingRun)
    return counts


@pytest.fixture
def walked(monkeypatch):
    """The (kind, step) of every walk a run starts."""
    walked = []
    start = _Run._start

    def recording_start(self, step):
        walked.append((self.kind, step))
        return start(self, step)

    monkeypatch.setattr(_Run, "_start", recording_start)
    return walked


def test_fuzz_trial(counts):
    keys = [key for key, _, _ in catalog.list_identities()]
    assert catalog.fuzz(keys, 1, catalog.SamplerConfig(), 1).all_passed
    assert counts == {"created": 1, "lookups": 356}


@pytest.mark.parametrize("order", ["registry", "reversed-thirds"])
def test_fuzz_trial_reads_what_the_checks_read(monkeypatch, order):
    # a trial's compiled chunks make the term reads of each entry's lhs
    # then rhs on the same draws, in the same (kind, n) order
    reads = []

    class RecordingRun(_Run):
        __slots__ = ()

        def __getitem__(self, n):
            reads.append((self.kind, n))
            return dict.__getitem__(self, n)

    monkeypatch.setattr(sequences, "_Run", RecordingRun)
    keys = [key for key, _, _ in catalog.list_identities()]
    ids = keys if order == "registry" else keys[::-3]
    idents = [catalog.REGISTRY[key] for key in ids]
    sampler = catalog.SamplerConfig()
    for seed in range(3):
        reads.clear()
        assert catalog.fuzz(ids, 1, sampler, seed).all_passed
        by_fuzz = reads[:]
        reads.clear()
        rng = random.Random(seed)
        t = TermContext(sampler.draw_params(rng))
        drawn = catalog._randints(rng, -sampler.max_index, sampler.max_index,
                                  sum(len(ident.variables) for ident in idents))
        start = 0
        for ident in idents:
            stop = start + len(ident.variables)
            values = drawn[start:stop]
            assert ident.lhs(t, *values) == ident.rhs(t, *values)
            start = stop
        assert reads and by_fuzz == reads


@pytest.mark.parametrize("theorem,lookups_with_rhs", [(2, 40), (3, 38), (4, 38), (5, 63), (6, 63)])
def test_theorem_sum(counts, theorem, lookups_with_rhs):
    assert theorems.theorem_sum(theorems.TheoremSelector(theorem, 1), PARAMS, *ASSIGNMENT).equal
    assert counts == {"created": 1,
                      "lookups": lookups_with_rhs - RHS_READS[theorem] - REREADS[theorem]}


@pytest.mark.parametrize("kind", [SequenceKind.U, SequenceKind.V])
@pytest.mark.parametrize("theorem,lookups_with_rhs", [(2, 40), (3, 38), (4, 38), (5, 63), (6, 63)])
def test_uv_selectors_read_the_callers_context(counts, walked, theorem, lookups_with_rhs, kind):
    # a u or v selector reads its kind off the one context built for the
    # caller's parameters: the same lookups as the w selector, no w walk.
    # n=5 keeps theorem 6's u denominators off u(0) = 0.
    sel = theorems.TheoremSelector(theorem, 1, kind)
    assert theorems.theorem_sum(sel, PARAMS, 5, *ASSIGNMENT[1:]).equal
    assert counts == {"created": 1,
                      "lookups": lookups_with_rhs - RHS_READS[theorem] - REREADS[theorem]}
    assert walked and SequenceKind.W not in {walk_kind for walk_kind, _ in walked}


@pytest.mark.parametrize("theorem", [5, 6])
def test_singularity_scan(counts, theorem):
    scan = theorems.singularity_scan(theorems.TheoremSelector(theorem, 1), PARAMS, *ASSIGNMENT)
    assert len(scan) == 5
    assert counts == {"created": 1, "lookups": 5}


@pytest.fixture
def derived(monkeypatch):
    """The arguments of every derivation of a parameter set's coefficients."""
    derived = []
    coefficients = sequences._coefficients

    def recording(*args):
        derived.append(args)
        return coefficients(*args)

    monkeypatch.setattr(sequences, "_coefficients", recording)
    return derived


# q = 2/3's numerator shares the factor 2 with L = lcm(2, 3) = 6, so the
# reversed walk runs on L_r = 4, not on L
RESCALED = HoradamParams(Fraction(-1, 3), Fraction(5, 7), Fraction(1, 2), Fraction(2, 3))
CONTEXT_PARAMS = [PARAMS, RESCALED] + [
    HoradamParams(*map(PrimeField(M), (3, -2, 5, 7))) for M in (2, 3, 101, 10 ** 9 + 7)]
INDICES = [n for m in range(1, 41) for n in (m, -m)]


@pytest.mark.parametrize("params", CONTEXT_PARAMS,
                         ids=["Q", "Q-rescaled", "GF(2)", "GF(3)", "GF(101)", "GF(1e9+7)"])
def test_one_coefficient_derivation_per_context(derived, walked, params):
    # every kind walks both directions off the context's one derivation,
    # each walk deriving only its kind's seeds, and reads what term gives
    ctx = TermContext(params)
    reads = {kind: [reduced(ctx._get(kind, n)) for n in INDICES] for kind in SequenceKind}
    assert len(derived) == 1
    assert sorted(walked, key=repr) == sorted(
        ((kind, step) for kind in SequenceKind for step in (1, -1)), key=repr)
    for kind in SequenceKind:
        assert reads[kind] == [term(params, kind, n) for n in INDICES], kind
    if params is RESCALED:
        run = ctx._vals[SequenceKind.U]
        assert (run.forward[2], run.backward[2]) == (6, 4)


@pytest.mark.parametrize("params", [PARAMS, CONTEXT_PARAMS[-1]], ids=["Q", "GF(1e9+7)"])
def test_only_a_backward_walk_derives_the_reversed_coefficients(derived, params):
    # each one-term call derives the coefficients once, with the reversed
    # ones (over GF(M), q's inverse) only for a walk toward n < 0
    W = SequenceKind.W
    calls = [(lambda: fast_uv(params, 40), False),
             (lambda: term(params, W, 40), False), (lambda: term(params, W, -40), True),
             (lambda: doubling_term(params, W, 40), False),
             (lambda: doubling_term(params, W, -40), True)]
    if params.modulus is None:
        calls += [(lambda: binet_term(params, W, 40), False),
                  (lambda: binet_term(params, W, -40), False)]
    for call, backward in calls:
        derived.clear()
        call()
        assert [args[5:] for args in derived] == [(backward,)]
