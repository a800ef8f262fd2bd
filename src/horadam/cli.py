"""Command-line surface: eval, verify, fuzz, sum, bench.

Thin adapters over the library; every report printed here is what the
corresponding library call returns. `eval --method doubling` is
`doubling_term`: lin.9 on the integer kernel's doubled u, on the reversed
kernel for n < 0, with one reduction per term. JSON output is byte-stable
for a fixed argv and seed (sorted keys, fixed separators, canonical
rational strings).

`main` parses an argv once: when its first argument is a command word, that
command's sub-parser (from `build_parser`, built once per process) parses
the rest directly, so the top-level parser does not scan every argument
first only to find the command. Every other argv goes through the
top-level parser, and help, usage errors and exit codes are argparse's.

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
    doubling_term,
    fast_uv,  # not called here; perfbench/layers.py rebinds cli.fast_uv by name
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
    --a/--b override the base values. A --p/--q call builds one parameter
    set, from the four values parsed first."""
    sources = [args.preset is not None, args.preset_file is not None,
               args.p is not None or args.q is not None]
    if sum(sources) != 1:
        raise ValueError("give exactly one parameter source: "
                         "--preset, --preset-file, or --p/--q")
    if args.preset is not None or args.preset_file is not None:
        base = (_resolve_preset(args.preset) if args.preset is not None
                else _load_preset_file(args.preset_file))
        if args.a is None and args.b is None:
            return base
        a, b, p, q = base.a, base.b, base.p, base.q
    else:
        if args.p is None or args.q is None:
            raise ValueError("--p and --q must be given together")
        a, b, p, q = Fraction(0), Fraction(1), parse_rational(args.p), parse_rational(args.q)
        if p == 0 or q == 0:  # reported before a bad --a/--b, by HoradamParams
            return HoradamParams(a, b, p, q)
    if args.a is not None:
        a = parse_rational(args.a)
    if args.b is not None:
        b = parse_rational(args.b)
    return HoradamParams(a, b, p, q)


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
        try:
            out[key] = int(val)
        except ValueError:
            raise ValueError(f"bad assignment entry {piece!r}: the value of {key!r} is "
                             "not an integer; expected var=int") from None
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
        value = doubling_term(params, kind, args.n)
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


@functools.cache
def _command_parsers() -> dict:
    """Each command word's parser: the choices of `build_parser`'s subparsers."""
    return next(a.choices for a in build_parser()._actions if a.dest == "command")


def main(argv=None) -> int:
    """Run one command line (default `sys.argv[1:]`) and return its exit code.

    When the first argument names a command, that command's own parser
    parses the rest, once; leftover arguments get the top-level parser's
    "unrecognized arguments" error, as `parse_args` would give. Any other
    argv (empty, `-h`, an unknown command) goes through the top-level
    parser, so help and usage errors read as argparse prints them.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _command_parsers().get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (HoradamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
