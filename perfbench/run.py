"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog_fuzz --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

One closed-loop client in one single-threaded process drives the library's
public functions. Every check is confirmed exactly, outside the timed
region, and timings are calibrated for the machine's speed (calibrate.py). With --trace 0 the last stdout line carries the end-to-end metrics
(see BENCHMARK.json); with --trace 1 it carries the per-layer metrics of a
separate traced pass. The line before it is the full run record: the
environment, the workload definition, sample counts and exact counts.
--out FILE appends that record to FILE for compare.py.

Exit codes: 0 all checks confirmed; 1 some check failed; 2 the library
source is missing or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import libpath

libpath.require()

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((libpath.ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 9            # fresh interpreters, one before each of the first rounds
MIN_ROUNDS, MAX_ROUNDS = 3, 60  # rounds over the same inputs
SHORT = 4                   # after MIN_ROUNDS, only checks within SHORT x the median repeat
CHUNK_S = 0.03              # library time between two calibration samples
MAX_ROUND_WALL = 60.0       # cap on round 1, so that a run stays well within 180 s
MAX_REASONS = 5


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()}


def definition(wl) -> dict:
    d = {"name": wl.name, "why": wl.why, "warmup": wl.warmup, "checks": wl.checks,
         "trace_batch": wl.trace_batch, **wl.definition()}
    d["hash"] = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]
    return d


def build_inputs(wl, seed) -> list:
    """Set-up: the run's inputs. The traced run uses the first trace_batch."""
    return list(islice(wl.items(seed), wl.checks))


def measure_setup(workload, seed, probes, warm=False) -> list:
    """(raw, calibrated) wall times of fresh interpreters that import horadam
    and build the workload's inputs. Each probe ends with a calibration
    sample of its own, since it may run on another CPU than this process. A
    `warm` probe first fills the bytecode cache."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for i in range(probes + warm):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        raw = time.perf_counter() - t0
        if i or not warm:
            times.append((raw, raw * calibrate.REFERENCE_S / float(out)))
    return times


def spent(wall0) -> float:
    return time.perf_counter() - wall0


def timed_call(wl, item):
    clock = time.perf_counter
    t0 = clock()
    try:
        result, exc = wl.call(item), None
    except Exception as e:  # noqa: BLE001 - an undesignated exception is a failed check
        result, exc = None, e
    return clock() - t0, result, exc


def digest(result, exc) -> int:
    return hash(repr(result) if exc is None else (type(exc).__name__, str(exc)))


def check(wl, item):
    """Time one library call, then confirm its result (untimed)."""
    elapsed, result, exc = timed_call(wl, item)
    return elapsed, wl.confirm(item, result, exc)


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.outcomes = Counter()
        self.reasons = []
        self.stderr_bytes = 0
        self.max_bits = 0

    def add(self, verdict):
        self.attempted += 1
        self.outcomes[verdict.label] += 1
        self.stderr_bytes += verdict.stderr
        self.max_bits = max(self.max_bits, verdict.bits)
        if not verdict.ok:
            self.fail(verdict.reason)

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons[:MAX_REASONS - len(self.reasons)]


def timed_round(wl, inputs, order, on_result, deadline=math.inf):
    """Time inputs[j] for j in `order`, taking a calibration sample before
    the first call and after every CHUNK_S of library time. Returns
    (j, raw seconds, calibrated seconds) per call; a call is calibrated by
    the mean of the samples on either side of its chunk."""
    rows, chunk, kernels, busy = [], [], [calibrate.sample()], 0.0

    def close_chunk():
        kernels.append(calibrate.sample())
        scale = calibrate.REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2)
        rows.extend((j, raw, raw * scale) for j, raw in chunk)
        chunk.clear()

    wall0 = time.perf_counter()
    for j in order:
        elapsed, result, exc = timed_call(wl, inputs[j])
        on_result(j, result, exc)
        chunk.append((j, elapsed))
        busy += elapsed
        if busy >= CHUNK_S:
            close_chunk()
            busy = 0.0
        if spent(wall0) > deadline:
            break
    if chunk:
        close_chunk()
    return rows


def run_untraced(wl, seed, seconds):
    """After an untimed warm-up on its first inputs, round 1 runs the seed's
    `checks` inputs once and confirms each result. Later rounds repeat the
    calls while another round fits in `seconds` of wall time (MIN_ROUNDS to
    MAX_ROUNDS rounds); a repeat must return the same result. A check's
    latency is the median of its calibrated timings (see calibrate.py).
    After MIN_ROUNDS full rounds only the short checks repeat, since their
    timings are the noisiest. Set-up probes run before the first rounds, so
    that they sample the run rather than one moment."""
    inputs = build_inputs(wl, seed)
    tally, timed = Tally(), Tally()
    for item in inputs[:wl.warmup]:
        tally.add(check(wl, item)[1])
    setup = measure_setup(wl.name, seed, 1, warm=True)
    digests = {}
    calibrated = [[] for _ in inputs]
    raw_best = [math.inf] * len(inputs)

    def confirm(j, result, exc):
        verdict = wl.confirm(inputs[j], result, exc)
        timed.add(verdict)
        digests[j] = digest(result, exc) if verdict.ok else None

    def compare(j, result, exc):
        tally.attempted += 1
        if digests[j] is not None and digest(result, exc) != digests[j]:
            tally.fail(f"{wl.name}: result changed on repeating input {j}")
            digests[j] = None

    def record(rows):
        for j, raw, cal in rows:
            calibrated[j].append(cal)
            raw_best[j] = min(raw_best[j], raw)

    gc.collect()
    wall0 = time.perf_counter()
    record(timed_round(wl, inputs, range(len(inputs)), confirm, MAX_ROUND_WALL))
    repeat = sorted(digests)
    rounds, last = 1, spent(wall0)
    while rounds < MAX_ROUNDS and (rounds < MIN_ROUNDS or spent(wall0) + last < seconds):
        rounds += 1
        start = spent(wall0)
        if len(setup) < SETUP_PROBES:
            setup += measure_setup(wl.name, seed, 1)
        gc.collect()
        record(timed_round(wl, inputs, repeat, compare))
        last = spent(wall0) - start
        if rounds == MIN_ROUNDS:
            cut = SHORT * statistics.median(statistics.median(calibrated[j]) for j in repeat)
            short = [j for j in repeat if statistics.median(calibrated[j]) <= cut]
            last *= len(short) / len(repeat)
            repeat = short
    tally.merge(timed)
    ran = sorted(digests)
    latencies = sorted(statistics.median(calibrated[j]) for j in ran)
    raw = sorted(raw_best[j] for j in ran)
    confirmed = sum(digests[j] is not None for j in ran)
    n = len(ran)
    metrics = {
        "checks_per_s": (confirmed / sum(latencies), "1/s"),
        "check_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "check_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(cal for _, cal in setup), "s"),
    }
    samples = {
        "timed_checks": n, "rounds": rounds, "short_checks": len(repeat),
        "warmup_checks": wl.warmup, "beyond_p99": n - max(1, math.ceil(0.99 * n)),
        "wall_s": spent(wall0), "setup_probes": setup,
        "raw": {"checks_per_s": confirmed / sum(raw), "check_p50_ms": percentile(raw, 50) * 1e3,
                "check_p99_ms": percentile(raw, 99) * 1e3,
                "setup_s": statistics.median(r for r, _ in setup)},
    }
    return tally, metrics, samples, dict(timed.outcomes)


def traced_pass(wl, batch):
    tally, busy = Tally(), 0.0
    gc.collect()
    for item in batch:
        elapsed, verdict = check(wl, item)
        busy += elapsed
        tally.add(verdict)
    return tally, busy


def run_traced(wl, seed, seconds):
    """Alternate untraced and traced passes over the first trace_batch
    inputs until `seconds` have passed. Counts come from the traced passes
    and must repeat exactly; self times are medians over them."""
    batch = build_inputs(wl, seed)[:wl.trace_batch]
    total, plain, traced_busy, per_pass = Tally(), [], [], []
    wall0 = time.perf_counter()
    while not per_pass or spent(wall0) < seconds:
        tally, busy = traced_pass(wl, batch)
        plain.append(busy)
        total.merge(tally)
        tracer = layers.Tracer()
        with layers.traced(tracer):
            tally, busy = traced_pass(wl, batch)
        traced_busy.append(busy)
        total.merge(tally)
        per_pass.append(layers.layer_metrics(tracer, tally.outcomes,
                                             tally.stderr_bytes, tally.max_bits))
    first = per_pass[0]
    for other in per_pass[1:]:
        moved = [k for k in layers.EXACT if other[k][0] != first[k][0]]
        if moved:
            total.attempted += 1
            total.fail(f"exact counts moved between traced passes: {moved}")
            break
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_busy)
                                       / statistics.median(plain), "ratio")
    samples = {"passes": len(per_pass), "checks_per_pass": len(batch),
               "untraced_busy_s": plain, "traced_busy_s": traced_busy}
    exact = {k: first[k][0] for k in layers.EXACT}
    return total, metrics, samples, exact


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        build_inputs(wl, args.seed)
        print(calibrate.sample())
        return 0
    runner = run_traced if args.trace else run_untraced
    tally, metrics, samples, exact = runner(wl, args.seed, args.seconds)
    wanted = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "definition": definition(wl), "env": environment(),
        "samples": samples, "exact_counts": exact,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted, "failures": tally.reasons,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    for name in wanted:
        value, unit = metrics[name]
        print(f"{wl.name:>13} {name:<30} {value:>14.6g} {unit}")
    print(f"{wl.name:>13} {'failed_ratio':<30} {record['failed_ratio']:>14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")), flush=True)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record (one JSON line) to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
