"""Command-line surface: eval, verify, fuzz, sum, bench.

Thin adapters over the library; every report printed here is what the
corresponding library call returns, except that `eval --method doubling`
turns `fast_uv`'s (u_|n|, v_|n|) into the requested kind and index itself.
JSON output is byte-stable for a fixed argv and seed (sorted keys, fixed
separators, canonical rational strings).

Exit codes: 0 success / verified; 2 argument or usage errors (unknown
identity, composite modulus, malformed rationals); 3 degenerate root;
4 a verification found unequal sides; 5 singular summand; 6 guard
violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import bench, catalog, theorems
from .errors import DegenerateRoot, GuardViolation, HoradamError, SingularSummand
from .field import format_scalar, parse_rational
from .sequences import (
    PRESETS,
    HoradamParams,
    SequenceKind,
    binet_term,
    fast_uv,
    term,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE_ROOT = 3
EXIT_UNEQUAL = 4
EXIT_SINGULAR = 5
EXIT_GUARD = 6

# errors with their own exit code; every other caught error is a usage error
_EXIT_CODES = {
    DegenerateRoot: EXIT_DEGENERATE_ROOT,
    SingularSummand: EXIT_SINGULAR,
    GuardViolation: EXIT_GUARD,
}


def _emit_json(command: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _load_preset_file(path: str) -> HoradamParams:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in ("a", "b", "p", "q") or key in values:
                problem = "given twice" if key in values else "unknown; expected a, b, p or q"
                raise ValueError(f"preset file {path}: key {key!r} {problem}")
            values[key] = parse_rational(val)
    missing = {"p", "q"} - set(values)
    if missing:
        raise ValueError(f"preset file {path} missing keys: {sorted(missing)}")
    return HoradamParams(values.get("a", Fraction(0)), values.get("b", Fraction(1)),
                         values["p"], values["q"])


def _resolve_preset(name: str) -> HoradamParams:
    if name in PRESETS:
        return PRESETS[name]
    preset_dir = os.environ.get("HORADAM_PRESETS")
    if preset_dir:
        for candidate in (name, name + ".preset"):
            path = os.path.join(preset_dir, candidate)
            if os.path.exists(path):
                return _load_preset_file(path)
    raise ValueError(f"unknown preset {name!r}")


def _params_from_args(args) -> HoradamParams:
    """Exactly one base source (preset name, preset file, or --p/--q);
    --a/--b override the base values."""
    sources = [args.preset is not None, args.preset_file is not None,
               args.p is not None or args.q is not None]
    if sum(sources) != 1:
        raise ValueError("give exactly one parameter source: "
                         "--preset, --preset-file, or --p/--q")
    if args.preset is not None:
        base = _resolve_preset(args.preset)
    elif args.preset_file is not None:
        base = _load_preset_file(args.preset_file)
    else:
        if args.p is None or args.q is None:
            raise ValueError("--p and --q must be given together")
        base = HoradamParams(Fraction(0), Fraction(1),
                             parse_rational(args.p), parse_rational(args.q))
    a = parse_rational(args.a) if args.a is not None else base.a
    b = parse_rational(args.b) if args.b is not None else base.b
    return HoradamParams(a, b, base.p, base.q)


def _params_payload(params: HoradamParams) -> dict:
    return {k: format_scalar(getattr(params, k)) for k in ("a", "b", "p", "q")}


def _parse_assignment(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition("=")
        if not val:
            raise ValueError(f"bad assignment entry {piece!r}; expected var=int")
        key = key.strip()
        if key in out:
            raise ValueError(f"assignment gives {key!r} twice")
        out[key] = int(val)
    return out


def _add_param_flags(sub):
    sub.add_argument("--preset", help="named parameter preset")
    sub.add_argument("--preset-file", help="flat key=value preset file")
    sub.add_argument("--p", help="recurrence coefficient p (rational literal)")
    sub.add_argument("--q", help="recurrence coefficient q (rational literal)")
    sub.add_argument("--a", help="initial term w_0 (rational literal)")
    sub.add_argument("--b", help="initial term w_1 (rational literal)")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def cmd_eval(args) -> int:
    params = _params_from_args(args)
    kind = SequenceKind(args.kind)
    if args.method == "iterative":
        value = term(params, kind, args.n)
    elif args.method == "doubling":
        # neg.19 reflects a negative index; lin.9, w_n = b*u_n - a*q*u_{n-1}
        # with 2*q*u_{n-1} = p*u_n - v_n, gives u, v and w from (u_n, v_n)
        u, v = fast_uv(params, abs(args.n))
        if args.n < 0:
            qn = params.q ** -args.n
            u, v = -u / qn, v / qn
        a, b = params.seeds(kind)
        value = b * u + a * (v - params.p * u) / 2
    else:
        value = binet_term(params, kind, args.n)
    if args.json:
        _emit_json("eval", {
            "params": _params_payload(params),
            "kind": kind.value,
            "n": args.n,
            "method": args.method,
            "value": format_scalar(value),
        })
    else:
        print(format_scalar(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    assignment = _parse_assignment(args.assign)
    report = catalog.evaluate(args.id, params, assignment)
    payload = {"params": _params_payload(params), "report": report.to_dict()}
    if args.json:
        _emit_json("verify", payload)
    else:
        ident = catalog.REGISTRY[args.id]
        print(f"{args.id}: {ident.formula}")
        print(f"  assignment: {report.assignment}")
        print(f"  lhs = {format_scalar(report.lhs)}")
        print(f"  rhs = {format_scalar(report.rhs)}")
        print(f"  equal: {report.equal}")
    return EXIT_OK if report.equal else EXIT_UNEQUAL


def cmd_fuzz(args) -> int:
    if args.ids == "all":
        keys = [k for k, _, _ in catalog.list_identities()]
    else:
        keys = [k.strip() for k in args.ids.split(",") if k.strip()]
    sampler = catalog.SamplerConfig(max_index=args.max_index, bound=args.max_numden)
    report = catalog.fuzz(keys, args.trials, sampler, args.seed)
    if args.json:
        _emit_json("fuzz", report.to_dict())
    else:
        for stat in report.stats:
            mark = "ok  " if stat.passes == stat.trials else "FAIL"
            print(f"{mark} {stat.key}: {stat.passes}/{stat.trials}")
            if stat.first_counterexample is not None:
                print(f"     counterexample: {stat.first_counterexample.to_dict()}")
        print(f"all passed: {report.all_passed}")
    return EXIT_OK if report.all_passed else EXIT_UNEQUAL


def cmd_sum(args) -> int:
    params = _params_from_args(args)
    assignment = _parse_assignment(args.assign)
    needed = {"n", "m", "r", "s", "k"}
    if set(assignment) != needed:
        raise ValueError(f"sum needs assignment of exactly {sorted(needed)}")
    sel = theorems.TheoremSelector(args.theorem, args.variant, SequenceKind(args.kind))
    av = (assignment["n"], assignment["m"], assignment["r"],
          assignment["s"], assignment["k"])
    if args.scan:
        entries = theorems.singularity_scan(sel, params, *av)
        if args.json:
            _emit_json("sum", {
                "params": _params_payload(params),
                "scan": [{"j": j, "index": idx, "zero": z} for j, idx, z in entries],
                "safe": not any(z for _, _, z in entries),
            })
        else:
            for j, idx, zero in entries:
                print(f"j={j} index={idx} zero={zero}")
            print(f"safe: {not any(z for _, _, z in entries)}")
        return EXIT_OK
    if sel.theorem in (5, 6):
        report = theorems.reciprocal_sum(sel, params, *av)
    else:
        report = theorems.theorem_sum(sel, params, *av)
    if args.json:
        _emit_json("sum", {"params": _params_payload(params),
                           "report": report.to_dict()})
    else:
        print(f"theorem {sel.theorem} variant {sel.variant} "
              f"({sel.kind.value}-form): {sel.formula}")
        if sel.swapped:
            print("  evaluated at (r, s) -> (-s, -r)")
        print(f"  assignment: {report.assignment}")
        print(f"  direct sum  = {format_scalar(report.lhs)}")
        print(f"  closed form = {format_scalar(report.rhs)}")
        print(f"  lemma path  = {format_scalar(report.lemma_lhs)}")
        for note in report.notes:
            print(f"  note: {note}")
        print(f"  equal: {report.equal}")
    return EXIT_OK if report.equal else EXIT_UNEQUAL


def cmd_bench(args) -> int:
    p = parse_rational(args.p) if args.p is not None else Fraction(1)
    q = parse_rational(args.q) if args.q is not None else Fraction(-1)
    report = bench.run_bench(p, q, args.n, args.mod)
    if args.json:
        _emit_json("bench", report.to_dict())
    else:
        print(f"n = {report.n}" + (f", modulus = {report.modulus}" if report.modulus else ""))
        print(f"  iterative: {report.iterative_seconds:.6f}s ({report.iterative_steps} steps)")
        print(f"  doubling:  {report.doubling_seconds:.6f}s ({report.doubling_steps} steps)")
        print(f"  results match: {report.results_match}")
        print(f"  speedup: {report.speedup:.1f}x")
    return EXIT_OK if report.results_match else EXIT_UNEQUAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="horadam",
        description="Exact Horadam/Lucas sequence terms, identity verification, "
                    "summation theorems and benchmarks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate one sequence term")
    _add_param_flags(p_eval)
    p_eval.add_argument("--kind", required=True, choices=["u", "v", "w"])
    p_eval.add_argument("--n", required=True, type=int)
    p_eval.add_argument("--method", default="iterative",
                        choices=["iterative", "doubling", "binet"])
    p_eval.set_defaults(func=cmd_eval)

    p_verify = subs.add_parser("verify", help="verify one identity at one assignment")
    _add_param_flags(p_verify)
    p_verify.add_argument("--id", required=True, help="identity key (e.g. H, mul.16)")
    p_verify.add_argument("--assign", required=True,
                          help="comma-separated var=int list, e.g. n=1,m=3,r=2,s=0")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = subs.add_parser("fuzz", help="randomized exact verification")
    p_fuzz.add_argument("--ids", default="all",
                        help="'all' or comma-separated identity keys")
    p_fuzz.add_argument("--trials", required=True, type=int)
    p_fuzz.add_argument("--seed", default=0, type=int)
    p_fuzz.add_argument("--max-index", default=10, type=int)
    p_fuzz.add_argument("--max-numden", default=9, type=int)
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_sum = subs.add_parser("sum", help="evaluate a summation theorem variant")
    _add_param_flags(p_sum)
    p_sum.add_argument("--theorem", required=True, type=int, choices=[2, 3, 4, 5, 6])
    p_sum.add_argument("--variant", required=True, type=int)
    p_sum.add_argument("--kind", default="w", choices=["u", "v", "w"])
    p_sum.add_argument("--assign", required=True,
                       help="comma-separated n=..,m=..,r=..,s=..,k=..")
    p_sum.add_argument("--scan", action="store_true",
                       help="only run the singularity scan")
    p_sum.set_defaults(func=cmd_sum)

    p_bench = subs.add_parser("bench", help="time iterative vs doubling evaluation")
    p_bench.add_argument("--p", help="rational literal (default 1)")
    p_bench.add_argument("--q", help="rational literal (default -1)")
    p_bench.add_argument("--n", required=True, type=int)
    p_bench.add_argument("--mod", type=int, help="prime modulus")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (HoradamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
