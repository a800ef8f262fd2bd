"""Layer spans for the traced run, recorded from the benchmark's side.

`traced(tracer)` rebinds the public callables at each layer boundary to
timing wrappers and restores them on exit; nothing in the library changes,
and the untraced run never enters it. A span's self time is its duration
minus the time of the spans it encloses.

Span names and the module attributes they wrap:

    catalog.fuzz, catalog.evaluate    catalog.fuzz / catalog.evaluate
    sequences.ctx                     TermContext._get via catalog.TermContext
                                      and theorems.TermContext
    theorems                          theorems.theorem_sum / reciprocal_sum
    theorems.scan                     theorems.singularity_scan
    lemmas                            theorems.lemma1_sum, lemma2_sums,
                                      lemma3_binomial_sums, lemma45_reciprocal
    cli                               cli.main
    sequences.term/fast_uv/binet_term cli.term / cli.fast_uv / cli.binet_term
    sequences.term_gf, fast_uv_gf     horadam.term / horadam.fast_uv, which
                                      the benchmark calls over GF(M)
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import horadam
from horadam import catalog, cli, theorems
from horadam.sequences import TermContext

LEMMA_FUNCTIONS = ("lemma1_sum", "lemma2_sums", "lemma3_binomial_sums",
                   "lemma45_reciprocal")


class Tracer:
    """Span counts and self times, aggregated in memory."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.max_bits = 0
        self._stack = []    # one [start, child_seconds] per open span

    def wrap(self, name, fn, on_result=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(result)
                if stack:   # keep the bookkeeping out of the caller's self time
                    stack[-1][1] += clock() - end
            return result

        return wrapped

    def note_bits(self, report):
        for side in (report.lhs, report.rhs):
            if side is not None:
                self.max_bits = max(self.max_bits, side.numerator.bit_length(),
                                    side.denominator.bit_length())

    def context_class(self):
        counts = self.counts
        get = self.wrap("sequences.ctx", TermContext._get)

        class TracedTermContext(TermContext):
            __slots__ = ()

            def __init__(self, params):
                counts["ctx_created"] += 1
                TermContext.__init__(self, params)

            def _get(self, kind, n):
                counts["ctx_lookups"] += 1
                if n in self._vals[kind]:
                    counts["ctx_hits"] += 1
                return get(self, kind, n)

        return TracedTermContext


@contextlib.contextmanager
def traced(tracer: Tracer):
    ctx_class = tracer.context_class()
    bindings = [
        (catalog, "TermContext", ctx_class),
        (theorems, "TermContext", ctx_class),
        (catalog, "fuzz", tracer.wrap("catalog.fuzz", catalog.fuzz)),
        (catalog, "evaluate", tracer.wrap("catalog.evaluate", catalog.evaluate,
                                          tracer.note_bits)),
        (theorems, "theorem_sum", tracer.wrap("theorems", theorems.theorem_sum)),
        (theorems, "reciprocal_sum", tracer.wrap("theorems", theorems.reciprocal_sum)),
        (theorems, "singularity_scan",
         tracer.wrap("theorems.scan", theorems.singularity_scan)),
        (cli, "main", tracer.wrap("cli", cli.main)),
        (horadam, "term", tracer.wrap("sequences.term_gf", horadam.term)),
        (horadam, "fast_uv", tracer.wrap("sequences.fast_uv_gf", horadam.fast_uv)),
    ]
    bindings += [(theorems, fn, tracer.wrap("lemmas", getattr(theorems, fn)))
                 for fn in LEMMA_FUNCTIONS]
    bindings += [(cli, fn, tracer.wrap(f"sequences.{fn}", getattr(cli, fn)))
                 for fn in ("term", "fast_uv", "binet_term")]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    for owner, attr, new in bindings:
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer, outcomes: Counter, stderr_bytes: int,
                  max_bits: int) -> dict:
    """The per-layer metrics of one traced pass, as (value, unit) pairs."""
    c, s = tracer.calls, tracer.self_s
    lookups = tracer.counts["ctx_lookups"]
    return {
        "sequences.ctx_created": (tracer.counts["ctx_created"], "count"),
        "sequences.ctx_lookups": (lookups, "count"),
        "sequences.ctx_hit_ratio": (tracer.counts["ctx_hits"] / lookups if lookups else 0.0,
                                    "ratio"),
        "sequences.ctx_self_s": (s["sequences.ctx"], "s"),
        "sequences.term_calls": (c["sequences.term"] + c["sequences.term_gf"], "count"),
        "sequences.term_self_s": (s["sequences.term"], "s"),
        "sequences.fast_uv_calls": (c["sequences.fast_uv"] + c["sequences.fast_uv_gf"],
                                    "count"),
        "sequences.fast_uv_self_s": (s["sequences.fast_uv"], "s"),
        "sequences.binet_term_calls": (c["sequences.binet_term"], "count"),
        "sequences.binet_term_self_s": (s["sequences.binet_term"], "s"),
        "sequences.term_gf_self_s": (s["sequences.term_gf"], "s"),
        "sequences.fast_uv_gf_self_s": (s["sequences.fast_uv_gf"], "s"),
        "catalog.fuzz_calls": (c["catalog.fuzz"], "count"),
        "catalog.fuzz_self_s": (s["catalog.fuzz"], "s"),
        "catalog.evaluate_calls": (c["catalog.evaluate"], "count"),
        "catalog.evaluate_self_s": (s["catalog.evaluate"], "s"),
        "lemmas.calls": (c["lemmas"], "count"),
        "lemmas.self_s": (s["lemmas"], "s"),
        "theorems.calls": (c["theorems"], "count"),
        "theorems.self_s": (s["theorems"], "s"),
        "theorems.scan_calls": (c["theorems.scan"], "count"),
        "theorems.scan_self_s": (s["theorems.scan"], "s"),
        "theorems.accepted": (outcomes["accepted"], "count"),
        "theorems.guard_rejections": (outcomes["guard"], "count"),
        "theorems.singular_rejections": (outcomes["singular"], "count"),
        "cli.calls": (c["cli"], "count"),
        "cli.self_s": (s["cli"], "s"),
        "cli.stderr_bytes": (stderr_bytes, "bytes"),
        "field.max_bits": (max(max_bits, tracer.max_bits), "bits"),
    }


# Counts that must repeat exactly for a fixed seed; a change in one of them
# means the library's behaviour changed, not its speed.
EXACT = ("sequences.ctx_created", "sequences.ctx_lookups", "sequences.ctx_hit_ratio",
         "sequences.term_calls", "sequences.fast_uv_calls", "sequences.binet_term_calls",
         "catalog.fuzz_calls", "catalog.evaluate_calls", "lemmas.calls", "theorems.calls",
         "theorems.scan_calls", "theorems.accepted", "theorems.guard_rejections",
         "theorems.singular_rejections", "cli.calls", "cli.stderr_bytes", "field.max_bits")
