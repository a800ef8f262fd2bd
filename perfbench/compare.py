"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds run records, one JSON object per line, as written by
`run.py --out FILE`. Records are matched by workload and trace mode, and
only when their workload definitions hash the same. Runs of the two sets
are paired by seed.

End-to-end verdicts use the bounds in BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound, and the spread is within the bound or every change
              run is worse than every parent run
  unresolved  the spread (interquartile range over median, either side)
              exceeds the bound, unless every change run is better than
              every parent run
  unchanged   otherwise

Per-layer records are listed side by side; counts that must repeat exactly
are flagged when they moved. Exit code 1 if any verdict is "worse", 2 if
the sets cannot be compared.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, pairs, better, bound):
    """a, b: values of the parent and the change; pairs: (a, b) by seed."""
    sign = 1 if better == "higher" else -1
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    worse_by = sign * (am - bm) / am
    if pairs and wins >= 0.9 * len(pairs) and sign * (bm - am) > a3 - a1:
        return "improved", spread, wins, worse_by
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse", spread, wins, worse_by
    if spread > bound and not all_better:
        return "unresolved", spread, wins, worse_by
    return "unchanged", spread, wins, worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="run records of the parent commit (JSONL)")
    parser.add_argument("change", help="run records of the change (JSONL)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    exact = set()
    old, new = load(args.parent), load(args.change)
    status = 0
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        ra, rb = old[key], new[key]
        hashes = {r["definition"]["hash"] for r in ra + rb}
        if len(hashes) != 1:
            print(f"{workload}: workload definitions differ ({sorted(hashes)}); "
                  f"run both sides with the same benchmark", file=sys.stderr)
            return 2
        by_seed_b = {r["seed"]: r for r in rb}
        names = list(ra[0]["metrics"])
        if trace:
            exact = set(ra[0].get("exact_counts", {}))
        print(f"\n{workload} ({'traced' if trace else 'end-to-end'}; "
              f"{len(ra)} vs {len(rb)} runs)")
        for name in names:
            a = [r["metrics"][name]["value"] for r in ra]
            b = [r["metrics"][name]["value"] for r in rb]
            unit = ra[0]["metrics"][name]["unit"]
            pairs = [(r["metrics"][name]["value"], by_seed_b[r["seed"]]["metrics"][name]["value"])
                     for r in ra if r["seed"] in by_seed_b]
            am, bm = statistics.median(a), statistics.median(b)
            line = f"  {name:<30} {am:>12.6g} -> {bm:>12.6g} {unit:<6}"
            if trace:
                if name in exact:
                    moved = any(x != y for x, y in pairs)
                    line += "  moved" if moved else "  same"
                print(line)
                continue
            m = e2e[name]
            v, spread, wins, worse_by = verdict(a, b, pairs, m["better"], m["bound"])
            print(f"{line} worse by {worse_by:+.3f} (bound {m['bound']}), spread "
                  f"{spread:.3f}, wins {wins}/{len(pairs)}: {v}")
            if v == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
