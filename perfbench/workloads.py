"""The three workloads: input generation, the timed library call, and the
exact confirmation of each result.

Each workload turns a seed into an endless deterministic stream of inputs.
`call` is the only part that is timed; it goes through module attributes
(`catalog.fuzz`, `theorems.theorem_sum`, `cli.main`, `horadam.term`, ...)
at call time, so the traced run can rebind them (see layers.py). `confirm`
runs outside the timed region and checks the result with zero tolerance.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import horadam
from horadam import catalog, cli, theorems
from horadam.errors import GuardViolation, SingularSummand
from horadam.field import ModInt, PrimeField
from horadam.sequences import HoradamParams, SequenceKind

from reference import RefTerms, term_mod, term_q, to_mod


@dataclass
class Verdict:
    ok: bool
    label: str          # outcome class, e.g. "accepted", "guard", "singular"
    bits: int = 0       # largest numerator/denominator bit length returned
    stderr: int = 0     # bytes the call wrote to stderr
    reason: str = ""    # why the check failed


def _bits(x) -> int:
    if isinstance(x, ModInt):
        return x.value.bit_length()
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rational(rng: random.Random, bound: int, nonzero: bool, dens=None) -> Fraction:
    """|numerator| <= bound; the denominator is drawn from 1..bound, or taken
    from `dens` (a _Strata) when given."""
    while True:
        den = dens.next() if dens else rng.randint(1, bound)
        x = Fraction(rng.randint(-bound, bound), den)
        if not (nonzero and x == 0):
            return x


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fail(reason: str, **kw) -> Verdict:
    return Verdict(False, "failed", reason=reason, **kw)


class CatalogFuzz:
    name = "catalog_fuzz"
    why = ("one catalog.fuzz trial over all 73 identities: a warm shared "
           "TermContext and small operands, so catalog and Fraction overhead dominate")
    warmup = 5
    checks = 1000
    trace_batch = 300
    sampler = catalog.SamplerConfig(max_index=10, bound=9)

    def __init__(self):
        self.keys = [key for key, _, _ in catalog.list_identities()]
        self.idents = [catalog.REGISTRY[key] for key in self.keys]

    def definition(self) -> dict:
        return {"identities": len(self.keys), "trials_per_check": 1,
                "max_index": self.sampler.max_index, "bound": self.sampler.bound}

    def items(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.getrandbits(63)

    def call(self, fuzz_seed):
        return catalog.fuzz(self.keys, 1, self.sampler, fuzz_seed)

    def confirm(self, fuzz_seed, report, exc) -> Verdict:
        if exc is not None:
            return _fail(f"fuzz raised {exc!r}")
        if len(report.stats) != len(self.keys):
            return _fail(f"fuzz reported {len(report.stats)} identities")
        bad = [s.key for s in report.stats if not (s.trials == 1 and s.passes == 1)]
        if bad:
            return _fail(f"fuzz seed {fuzz_seed}: library reports unequal sides for {bad}")
        # Replay the trial's draws and evaluate both sides of every identity
        # on the reference accessor instead of TermContext.
        rng = random.Random(fuzz_seed)
        params = self.sampler.draw_params(rng)
        ref = RefTerms(params.p, params.q, params.a, params.b)
        for ident in self.idents:
            asg = self.sampler.draw_assignment(rng, ident.variables)
            kwargs = {("t_" if k == "t" else k): v for k, v in asg.items()}
            lhs, rhs = ident.lhs(ref, **kwargs), ident.rhs(ref, **kwargs)
            if lhs != rhs:
                return _fail(f"fuzz seed {fuzz_seed}: reference sides differ for "
                             f"{ident.key} at {asg}")
        return Verdict(True, "passed")


class TheoremSums:
    name = "theorem_sums"
    why = ("one theorem_sum/reciprocal_sum call cycling all 66 selectors: a cold "
           "TermContext per call, the only workload running lemmas and theorems")
    warmup = 66
    checks = 66 * 48
    trace_batch = 66 * 15
    bound = 9
    max_index = 6
    max_k = 5

    def __init__(self):
        self.selectors = [theorems.TheoremSelector(t, v, kind)
                          for t, nvar in sorted(theorems.VARIANT_COUNT.items())
                          for v in range(1, nvar + 1)
                          for kind in SequenceKind]

    def definition(self) -> dict:
        return {"selectors": len(self.selectors), "bound": self.bound,
                "max_index": self.max_index, "k_range": [0, self.max_k]}

    def items(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        while True:
            sel = self.selectors[i % len(self.selectors)]
            i += 1
            p, q = (_rational(rng, self.bound, True) for _ in range(2))
            a, b = (_rational(rng, self.bound, False) for _ in range(2))
            idx = tuple(rng.randint(-self.max_index, self.max_index) for _ in range(4))
            yield sel, HoradamParams(a, b, p, q), idx + (rng.randint(0, self.max_k),)

    def call(self, item):
        sel, params, args = item
        fn = theorems.reciprocal_sum if sel.theorem in (5, 6) else theorems.theorem_sum
        return fn(sel, params, *args)

    @staticmethod
    def _reference(sel, params) -> RefTerms:
        p, q = params.p, params.q
        a, b = {SequenceKind.U: (0, 1), SequenceKind.V: (2, p),
                SequenceKind.W: (params.a, params.b)}[sel.kind]
        return RefTerms(p, q, Fraction(a), Fraction(b))

    def confirm(self, item, rep, exc) -> Verdict:
        sel, params, args = item
        if isinstance(exc, GuardViolation):
            # the guard names the vanishing term, e.g. "u(3)"
            m = re.fullmatch(r"([uw])\((-?\d+)\)", exc.name)
            if m is None:
                return _fail(f"{sel} {args}: unparsable guard {exc.name!r}")
            value = getattr(self._reference(sel, params), m.group(1))(int(m.group(2)))
            if value != 0:
                return _fail(f"{sel} {args}: guard {exc.name} is {value}, not 0")
            return Verdict(True, "guard")
        if isinstance(exc, SingularSummand):
            if sel.theorem not in (5, 6):
                return _fail(f"{sel} {args}: SingularSummand outside theorems 5/6")
            ref = self._reference(sel, params)
            value = (ref.u if sel.theorem == 5 else ref.w)(exc.index)
            if value != 0:
                return _fail(f"{sel} {args}: denominator at {exc.index} is {value}, not 0")
            return Verdict(True, "singular")
        if exc is not None:
            return _fail(f"{sel} {args}: raised {exc!r}")
        legs = (rep.lhs, rep.rhs, rep.lemma_lhs)
        if not (legs[0] == legs[1] and legs[1] == legs[2]):
            return _fail(f"{sel} {params} {args}: legs disagree {legs}")
        if rep.selector != sel or rep.assignment != dict(zip("nmrsk", args)):
            return _fail(f"{sel} {args}: report echoes {rep.selector} {rep.assignment}")
        return Verdict(True, "accepted", bits=max(_bits(x) for x in legs))


# Primes of one size, so that a GF(M) term's cost depends on n alone.
PRIMES = (1_000_000_007, 998_244_353, 1_000_000_009)

# One block of large_index requests; every block has this composition and
# the seed shuffles it, so runs on different seeds do the same kinds of work.
LARGE_BLOCK = (("doubling_uv",) * 6 + ("binet",) * 4 + ("iterative",) * 2
               + ("doubling_fallback",) * 2 + ("gf_term",) * 2 + ("gf_fast_uv",) * 4)
SIZE_CELLS = 10


class _Strata:
    """Visits every cell of a fixed partition equally often, in an order the
    seed shuffles. Costs here span two orders of magnitude, so plain random
    draws would make runs on different seeds measure different work."""

    def __init__(self, rng: random.Random, cells):
        self.rng, self.cells, self.queue = rng, list(cells), []

    def next(self):
        if not self.queue:
            self.queue = self.cells[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class LargeIndex:
    name = "large_index"
    why = ("one term at large |n|, via in-process `horadam eval --json` over Q or "
           "term/fast_uv over GF(M): big-integer growth, bypassing catalog and theorems")
    warmup = len(LARGE_BLOCK)
    checks = 50 * len(LARGE_BLOCK)   # whole cycles of every size stratum
    trace_batch = 5 * len(LARGE_BLOCK)
    bound = 9
    # |n| <= 2000 over Q: beyond it some parameter draws give terms with more
    # than 4300 decimal digits, which `horadam eval` cannot print (it exits 2
    # on Python's int-to-str limit). The O(n) paths stop at 1000 and GF(M)
    # terms are 1 in 10, so that the slowest 1% of checks are GF(M) terms
    # from the top size cells, whose cost does not depend on the drawn
    # parameters: check_p99_ms then measures the same work on every seed.
    sizes = {"doubling_uv": (500, 2000), "binet": (100, 2000),
             "iterative": (20, 1000), "doubling_fallback": (20, 1000),
             "gf_term": (100, 100_000), "gf_fast_uv": (10 ** 17, 10 ** 18)}

    def definition(self) -> dict:
        return {"block": list(LARGE_BLOCK), "sizes": self.sizes, "size_cells": SIZE_CELLS,
                "primes": list(PRIMES), "bound": self.bound}

    def _request(self, rng, cls, strata):
        sizes, dens, moduli = strata[cls]
        lo, hi = self.sizes[cls]
        # |n| log-uniform in the middle half of one of SIZE_CELLS equal slices
        # of [lo, hi] in log scale
        cell = sizes.next() + rng.uniform(0.25, 0.75)
        n = int(round(lo * (hi / lo) ** (cell / SIZE_CELLS)))
        while True:
            p, q = (_rational(rng, self.bound, True, dens) for _ in range(2))
            a, b = (_rational(rng, self.bound, False, dens) for _ in range(2))
            if not (cls == "binet" and p * p == 4 * q):
                break
        if cls.startswith("gf_"):
            M = moduli.next()
            F = PrimeField(M)
            params = HoradamParams(F(a), F(b), F(p), F(q))
            residues = tuple(to_mod(x, M) for x in (p, q, a, b))
            kind = rng.choice("uvw") if cls == "gf_term" else "uv"
            return cls, params, residues, M, kind, n
        method = cls.split("_")[0]
        if cls == "doubling_uv":
            kind = rng.choice("uv")
        elif cls == "doubling_fallback":
            # kind w at any sign, or u/v at negative n: the O(n) fallback
            kind = rng.choice("uvw")
            n *= rng.choice((1, -1)) if kind == "w" else -1
        else:
            kind = rng.choice("uvw")
            n *= rng.choice((1, -1))
        argv = ["eval", f"--p={_fmt(p)}", f"--q={_fmt(q)}", f"--a={_fmt(a)}",
                f"--b={_fmt(b)}", "--kind", kind, f"--n={n}", "--method", method, "--json"]
        return cls, argv, (p, q, a, b), method, kind, n

    def items(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        strata = {cls: (_Strata(rng, range(SIZE_CELLS)), _Strata(rng, range(1, self.bound + 1)),
                        _Strata(rng, PRIMES))
                  for cls in self.sizes}
        while True:
            block = list(LARGE_BLOCK)
            rng.shuffle(block)
            for cls in block:
                yield self._request(rng, cls, strata)

    def call(self, item):
        cls = item[0]
        if cls == "gf_term":
            _, params, _, _, kind, n = item
            return horadam.term(params, SequenceKind(kind), n)
        if cls == "gf_fast_uv":
            return horadam.fast_uv(item[1], item[5])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(item[1])
        return rc, out.getvalue(), err.getvalue()

    def confirm(self, item, result, exc) -> Verdict:
        cls = item[0]
        if exc is not None:
            return _fail(f"{item[:1] + item[3:]}: raised {exc!r}")
        if cls.startswith("gf_"):
            _, _, (p, q, a, b), M, kind, n = item
            pairs = [(kind, result)] if cls == "gf_term" else list(zip("uv", result))
            for k, value in pairs:
                want = term_mod(p, q, a, b, k, n, M)
                if not (isinstance(value, ModInt) and value.modulus == M
                        and value.value == want):
                    return _fail(f"{cls} {k} n={n} mod {M}: got {value!r}, want {want}")
            return Verdict(True, cls, bits=max(_bits(v) for _, v in pairs))
        _, argv, (p, q, a, b), method, kind, n = item
        rc, out, err = result
        if rc != 0 or err:
            return _fail(f"{argv}: exit {rc}, stderr {err!r}", stderr=len(err))
        try:
            doc = json.loads(out)
            value = Fraction(doc["value"])
        except (ValueError, KeyError, TypeError) as e:
            return _fail(f"{argv}: unparsable JSON ({e}): {out[:200]!r}")
        echo = (doc.get("command"), doc.get("kind"), doc.get("n"), doc.get("method"))
        if echo != ("eval", kind, n, method):
            return _fail(f"{argv}: report echoes {echo}")
        want = term_q(p, q, a, b, kind, n)
        if value != want:
            return _fail(f"{argv}: value differs from the reference")
        return Verdict(True, cls, bits=_bits(value))


WORKLOADS = {w.name: w for w in (CatalogFuzz, TheoremSums, LargeIndex)}
