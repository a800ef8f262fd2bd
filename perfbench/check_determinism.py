"""Determinism self-test of the benchmark itself.

    python3 perfbench/check_determinism.py

For every workload: the same seed must give identical inputs and identical
exact counts from a traced pass (rejections by reason, contexts created,
largest operand bit length, call counts), and a different seed must give
different inputs. Exit code 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import hashlib
import sys
from itertools import islice

import libpath

libpath.require()

import layers  # noqa: E402
from run import traced_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BATCH = {"catalog_fuzz": 20, "theorem_sums": 264, "large_index": 15}
SEED, OTHER_SEED = 11, 12


def fingerprint(wl, seed, count) -> str:
    items = list(islice(wl.items(seed), count))
    return hashlib.sha256(repr(items).encode()).hexdigest()


def exact_counts(wl, seed, count) -> dict:
    batch = list(islice(wl.items(seed), count))
    tracer = layers.Tracer()
    with layers.traced(tracer):
        tally, _ = traced_pass(wl, batch)
    if tally.failed:
        raise AssertionError(f"{wl.name}: {tally.failed} checks failed: {tally.reasons}")
    metrics = layers.layer_metrics(tracer, tally.outcomes, tally.stderr_bytes,
                                   tally.max_bits)
    return {k: metrics[k][0] for k in layers.EXACT}


def main() -> int:
    failures = []
    for name, cls in WORKLOADS.items():
        wl, count = cls(), BATCH[name]
        same = fingerprint(wl, SEED, count) == fingerprint(wl, SEED, count)
        differs = fingerprint(wl, SEED, count) != fingerprint(wl, OTHER_SEED, count)
        first, second = exact_counts(wl, SEED, count), exact_counts(wl, SEED, count)
        moved = sorted(k for k in first if first[k] != second[k])
        for ok, label in ((same, "same seed, same inputs"),
                          (differs, "other seed, other inputs"),
                          (not moved, f"same seed, same exact counts {moved or ''}")):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {label}")
            if not ok:
                failures.append((name, label))
        print(f"     {name} exact counts: "
              + ", ".join(f"{k}={v}" for k, v in first.items() if v))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
