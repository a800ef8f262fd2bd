"""Registry of term identities with exact two-sided evaluation.

Each entry is written once, as the formula `horadam verify` displays. Its
left and right evaluators are compiled from that formula's two sides at
import (`_I`), so what is displayed is what is evaluated. `evaluate` runs
them on a `TermContext`'s checker accessor (`sequences.Terms`), over the
cache's unreduced `Ratio` pairs, and reduces each side to a `Fraction` once,
for the report; `fuzz` compares unreduced sides and reports only an entry's
first failing draw, through `evaluate`. The sides stay independent: no
algebraic simplification is shared between them, so an exact match is
evidence, not tautology. A derived entry's `Derivation` record (an index
map, after an optional u/v specialization) is replayed through `evaluate`.

Formula grammar: u(e), v(e), w(e) are terms at an integer index expression
e; p, q, a, b are the parameters; `^` is a power and `q^e` or `q^(e)` reads
the memoized q-power, with one level of parentheses inside (`q^((r-s)(k-j))`);
a digit or a `)` before a letter or a parenthesis multiplies (`2n`,
`2(n+r)`, `4q`, `(r-s)k`, `(r-s)(k+1)`); `C(k,j)` is the binomial
coefficient; `sum_{j=0}^{k} S` is the sum of S over j = 0..k, and its
summand S runs to the end of its side, so a factor before `sum` multiplies
the whole sum. Text after ` # ` is a note, displayed but not evaluated. The
summation theorems (`theorems`) compile their displayed forms with the same
helper, `compile_sides`.

Key scheme: H/F/G/J are the master identity and its index permutations;
lin.9/dbl.10/mul.15-18/neg.* cover the basic linear, doubling,
multiplication and reflection laws; spec.21-28 are the u/v forms of the
masters, their formulas with w( replaced by u( or v(; cor1.29-59 and
cor2.55-75 are the two corollary families in source order.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .errors import HoradamError, UnknownIdentity
from .field import binomial, format_scalar, reduced
from .sequences import HoradamParams, SequenceKind, TermContext, Terms


@dataclass(frozen=True)
class Derivation:
    """How an entry follows from a base entry: substitute indices, optionally
    specialize w to u or v first."""

    base: str
    index_map: Callable[[dict], dict]
    specialize: Optional[SequenceKind] = None


@dataclass(frozen=True)
class Identity:
    """lhs and rhs take the accessor, then the `variables` values in order."""

    key: str
    tag: str
    variables: tuple
    lhs: Callable
    rhs: Callable
    formula: str
    derived: Optional[Derivation] = None


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    assignment: dict
    lhs: Any
    rhs: Any
    error: Optional[str] = None

    @property
    def equal(self) -> bool:
        return self.error is None and self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "assignment": {k: self.assignment[k] for k in sorted(self.assignment)},
            "lhs": None if self.lhs is None else format_scalar(self.lhs),
            "rhs": None if self.rhs is None else format_scalar(self.rhs),
            "equal": self.equal,
            "error": self.error,
        }


def _python(side: str) -> str:
    """One side of a displayed formula as a Python expression over the
    accessor `t` (the index variable t is renamed t_)."""
    side = re.sub(r"sum_\{(\w)=0\}\^\{(\w)\} (.*)", r"sum(\3 for \1 in range(\2+1))", side)
    side = re.sub(r"([\d)])([a-z(])", r"\1*\2", side)    # 2n, 2(n+r), 4q, (r-s)k
    side = re.sub(r"\bq\^(?:\(((?:[^()]|\([^()]*\))*)\)|([a-z]))", r"qp(\1\2)", side)
    side = re.sub(r"\bC\(", "binomial(", side.replace("^", "**"))
    side = re.sub(r"\bt\b", "t_", side)
    return re.sub(r"\b(u|v|w|qp|p|q|a|b)\b", r"t.\1", side)


def compile_sides(variables, formula) -> tuple:
    """(lhs, rhs): the two sides of a displayed formula as functions of the
    accessor and the variables, in order. Only the constant formulas of this
    package reach `eval`."""
    args = ", ".join("t_" if v == "t" else v for v in variables)
    equation = formula.partition(" # ")[0]
    return tuple(eval(f"lambda t, {args}: {_python(side)}", {"binomial": binomial})
                 for side in equation.split(" = "))


def _I(key, variables, formula, derived=None):
    """An entry whose two sides are compiled from its displayed formula, so
    what `horadam verify` prints is what is evaluated."""
    lhs, rhs = compile_sides(variables, formula)
    return Identity(key, key.rpartition(".")[2], tuple(variables), lhs, rhs,
                    formula, derived)


_U, _V = SequenceKind.U, SequenceKind.V

# -- master identity and its index permutations --
_MASTERS = [
    _I("H", "nmrs", "u(r-s)*w(n+m) = u(m-s)*w(n+r) - q^(r-s)*u(m-r)*w(n+s)"),
    _I("F", "nmrs", "u(r-s)*w(n+m) = u(n-s)*w(m+r) - q^(r-s)*u(n-r)*w(m+s)"),
    _I("G", "nmrs", "u(r-s)*w(n+m) = u(n+r)*w(m-s) - q^(r-s)*u(n+s)*w(m-r)"),
    _I("J", "nmrs", "u(r-s)*w(n+m) = u(m+r)*w(n-s) - q^(r-s)*u(m+s)*w(n-r)"),
]

_ENTRIES = [
    *_MASTERS,
    # -- linear form, doubling, multiplication laws, reflections --
    _I("lin.9", "n", "w(n) = b*u(n) - a*q*u(n-1)"),
    _I("dbl.10", "n", "u(2n) = u(n)*v(n)",
       Derivation("mul.15", lambda A: {"n": A["n"], "m": A["n"]})),
    _I("mul.15", "nm", "u(m)*v(n) = u(n+m) - q^m*u(n-m)"),
    _I("mul.16", "nm", "(p^2-4q)*u(m)*u(n) = v(n+m) - q^m*v(n-m)"),
    _I("mul.17", "nm", "v(m)*u(n) = u(n+m) + q^m*u(n-m)"),
    _I("mul.18", "nm", "v(m)*v(n) = v(n+m) + q^m*v(n-m)"),
    _I("neg.19u", "n", "q^n*u(-n) = -u(n)"),
    _I("neg.19v", "n", "q^n*v(-n) = v(n)"),
    _I("neg.20", "n", "q^n*w(-n) = a*v(n) - w(n)"),
    # -- u/v specializations of the masters (spec.21-28) --
    *(_I(f"spec.{21 + 4 * i + j}", master.variables,
         master.formula.replace("w(", f"{kind.value}("), Derivation(master.key, dict, kind))
      for i, kind in enumerate((_U, _V)) for j, master in enumerate(_MASTERS)),
    # -- first corollary family --
    _I("cor1.29", "nm", "v(m)*w(n) = w(n+m) + q^m*w(n-m)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": 0, "s": -A["m"]})),
    _I("cor1.30", "n", "v(n)*w(n) = w(2n) + q^n*a",
       Derivation("cor1.29", lambda A: {"n": A["n"], "m": A["n"]})),
    _I("cor1.31", "nm", "u(m)*w(n) = u(n)*w(m) - q^m*a*u(n-m)",
       Derivation("F", lambda A: {"n": A["n"] - A["m"], "m": A["m"], "r": 0, "s": -A["m"]})),
    _I("cor1.32", "nm", "w(n+m) = u(m)*w(n+1) - q*u(m-1)*w(n)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": 1, "s": 0})),
    _I("cor1.33", "nm", "q^m*w(n-m) = u(m+1)*w(n) - u(m)*w(n+1)",
       Derivation("cor1.32", lambda A: {"n": A["n"], "m": -A["m"]})),
    _I("cor1.34", "nm", "w(n+m) - q^m*w(n-m) = u(m)*(w(n+1) - q*w(n-1))"),
    _I("cor1.35", "nm", "w(n+m) = u(n)*w(m+1) - q*u(n-1)*w(m)",
       Derivation("cor1.32", lambda A: {"n": A["m"], "m": A["n"]})),
    _I("cor1.36", "nmj", "w(n+m) = u(m-j)*w(n+j+1) - q*u(m-j-1)*w(n+j)",
       Derivation("H", lambda A: {"n": A["n"] + A["j"], "m": A["m"] - A["j"], "r": 1, "s": 0})),
    _I("cor1.37", "nmj", "w(n+m) = u(n-j)*w(m+j+1) - q*u(n-j-1)*w(m+j)",
       Derivation("H", lambda A: {"n": A["m"] + A["j"], "m": A["n"] - A["j"], "r": 1, "s": 0})),
    _I("cor1.38", "n", "w(2n) = u(n)*w(n+1) - q*u(n-1)*w(n)",
       Derivation("cor1.32", lambda A: {"n": A["n"], "m": A["n"]})),
    _I("cor1.39", "n", "w(2n) = u(n+1)*w(n) - q*u(n)*w(n-1)",
       Derivation("cor1.35", lambda A: {"n": A["n"] + 1, "m": A["n"] - 1})),
    _I("cor1.40", "n", "w(2n-1) = u(n+1)*w(n-1) - q*u(n)*w(n-2)",
       Derivation("cor1.35", lambda A: {"n": A["n"] + 1, "m": A["n"] - 2})),
    _I("cor1.41", "n", "w(2n-1) = u(n)*w(n) - q*u(n-1)*w(n-1)",
       Derivation("cor1.32", lambda A: {"n": A["n"] - 1, "m": A["n"]})),
    _I("cor1.42", "nm", "u(n-m)*w(n+m) = u(n)*w(n) - q^(n-m)*u(m)*w(m)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": 0, "s": A["m"] - A["n"]})),
    _I("cor1.43", "nm", "u(n-m)*w(n+m) = u(2n-m)*w(m) - q^(n-m)*u(n)*w(2m-n)",
       Derivation("F", lambda A: {"n": A["n"], "m": A["m"], "r": 0, "s": A["m"] - A["n"]})),
    _I("cor1.44", "n", "q^n*w(-n) = a*v(n) - w(n)",
       Derivation("cor1.43", lambda A: {"n": A["n"], "m": 0})),
    _I("cor1.45", "nm", "v(n)*w(m) - a*q^m*v(n-m) = w(n+m) - q^m*w(n-m)"),
    _I("cor1.46", "nm", "w(n+m)^2 - q^(2m)*w(n-m)^2 = v(m)*w(n)*(v(n)*w(m) - a*q^m*v(n-m))"),
    _I("cor1.47", "nmr", "u(2r)*w(n+m) = u(m+r)*w(n+r) - q^(2r)*u(m-r)*w(n-r)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": A["r"], "s": -A["r"]})),
    _I("cor1.48", "nmr", "q^(m-r)*u(2r)*w(n-m) = u(m+r)*w(n-r) - u(m-r)*w(n+r)",
       Derivation("cor1.47", lambda A: {"n": A["n"], "m": -A["m"], "r": A["r"]})),
    _I("cor1.49", "nmr", "u(2r)*w(n+m) = u(n+r)*w(m+r) - q^(2r)*u(n-r)*w(m-r)",
       Derivation("H", lambda A: {"n": A["m"], "m": A["n"], "r": A["r"], "s": -A["r"]})),
    _I("cor1.50", "nr", "u(2r)*w(2n) = u(n+r)*w(n+r) - q^(2r)*u(n-r)*w(n-r)",
       Derivation("cor1.49", lambda A: {"n": A["n"], "m": A["n"], "r": A["r"]})),
    _I("cor1.51", "nr", "u(2r)*w(2n-1) = u(n+r)*w(n+r-1) - q^(2r)*u(n-r)*w(n-r-1)",
       Derivation("cor1.49", lambda A: {"n": A["n"], "m": A["n"] - 1, "r": A["r"]})),
    _I("cor1.52", "nm", "p*w(n+m) = u(m+1)*w(n+1) - q^2*u(m-1)*w(n-1)",
       Derivation("cor1.47", lambda A: {"n": A["n"], "m": A["m"], "r": 1})),
    _I("cor1.53", "nm", "p*w(n+m) = u(n+1)*w(m+1) - q^2*u(n-1)*w(m-1)",
       Derivation("cor1.49", lambda A: {"n": A["n"], "m": A["m"], "r": 1})),
    _I("cor1.54", "n", "p*w(2n) = u(n+1)*w(n+1) - q^2*u(n-1)*w(n-1)",
       Derivation("cor1.50", lambda A: {"n": A["n"], "r": 1})),
    _I("cor1.55", "n", "p*w(2n-1) = u(n+1)*w(n) - q^2*u(n-1)*w(n-2)",
       Derivation("cor1.51", lambda A: {"n": A["n"], "r": 1})),
    _I("cor1.56", "nst", "u(t)*w(n) = u(s)*w(n+t-s) - q^t*u(s-t)*w(n-s)",
       Derivation("H", lambda A: {"n": A["n"], "m": 0, "r": A["t"] - A["s"], "s": -A["s"]})),
    _I("cor1.57", "nst", "u(t)*w(n) = u(n-s)*w(t+s) - q^t*u(n-t-s)*w(s)",
       Derivation("F", lambda A: {"n": A["n"], "m": 0, "r": A["t"] + A["s"], "s": A["s"]})),
    _I("cor1.58", "nst", "u(t)*w(n) = u(n+t-s)*w(s) - q^t*u(n-s)*w(s-t)",
       Derivation("G", lambda A: {"n": A["n"], "m": 0, "r": A["t"] - A["s"], "s": -A["s"]})),
    _I("cor1.59", "nst", "u(t)*w(n) = u(t+s)*w(n-s) - q^t*u(s)*w(n-s-t)",
       Derivation("J", lambda A: {"n": A["n"], "m": 0, "r": A["t"] + A["s"], "s": A["s"]})),
    # -- second corollary family (u/v consequences) --
    _I("cor2.55", "n", "v(n)^2 = v(2n) + 2*q^n",
       Derivation("cor1.30", dict, _V)),
    _I("cor2.56", "nm", "u(n)*v(m) - u(m)*v(n) = 2*q^m*u(n-m)",
       Derivation("cor1.31", dict, _V)),
    _I("cor2.57", "n", "v(n) = p*u(n) - 2*q*u(n-1)",
       Derivation("cor1.35", lambda A: {"n": A["n"], "m": 0}, _V)),
    _I("cor2.58", "nm", "u(n+m) = u(m)*u(n+1) - q*u(m-1)*u(n)",
       Derivation("cor1.32", dict, _U)),
    _I("cor2.59", "nm", "v(n+m) = u(m)*v(n+1) - q*u(m-1)*v(n)",
       Derivation("cor1.32", dict, _V)),
    _I("cor2.60", "m", "u(2m-1) = u(m)^2 - q*u(m-1)^2",
       Derivation("cor1.41", lambda A: {"n": A["m"]}, _U)),
    _I("cor2.61", "m", "v(2m-1) = u(2m) - q*u(2m-2)",
       Derivation("cor1.41", lambda A: {"n": A["m"]}, _V)),
    _I("cor2.62", "nm", "u(n-m)*u(n+m) = u(n)^2 - q^(n-m)*u(m)^2",
       Derivation("cor1.42", dict, _U)),
    _I("cor2.63", "nm", "u(n-m)*v(n+m) = u(2n) - q^(n-m)*u(2m)",
       Derivation("cor1.42", dict, _V)),
    _I("cor2.64", "nm", "v(n)*v(m) - (p^2-4q)*u(m)*u(n) = 2*q^m*v(n-m)",
       Derivation("cor1.45", dict, _V)),
    _I("cor2.65", "nmr", "u(2r)*u(n+m) = u(n+r)*u(m+r) - q^(2r)*u(m-r)*u(n-r)",
       Derivation("cor1.49", dict, _U)),
    _I("cor2.66", "nmr", "u(2r)*v(n+m) = u(n+r)*v(m+r) - q^(2r)*u(n-r)*v(m-r)",
       Derivation("cor1.49", dict, _V)),
    _I("cor2.67", "nr", "u(2r)*u(2n) = u(n+r)^2 - q^(2r)*u(n-r)^2",
       Derivation("cor1.50", dict, _U)),
    _I("cor2.68", "nr", "u(2r)*v(2n) = u(2(n+r)) - q^(2r)*u(2(n-r))",
       Derivation("cor1.50", dict, _V)),
    _I("cor2.69", "n", "p*u(2n) = u(n+1)^2 - q^2*u(n-1)^2",
       Derivation("cor1.54", dict, _U)),
    _I("cor2.70", "n", "p*v(2n) = u(2(n+1)) - q^2*u(2(n-1))",
       Derivation("cor1.54", dict, _V)),
    _I("cor2.71", "nst", "u(t)*u(n) = u(s)*u(n+t-s) - q^t*u(s-t)*u(n-s)",
       Derivation("cor1.56", dict, _U)),
    _I("cor2.72", "nst", "u(t)*v(n) = u(s)*v(n+t-s) - q^t*u(s-t)*v(n-s)",
       Derivation("cor1.56", dict, _V)),
    _I("cor2.73", "nt", "u(n)*v(t) + u(t)*v(n) = 2*u(n+t)",
       Derivation("cor1.58", lambda A: {"n": A["n"], "s": 0, "t": A["t"]}, _V)),
    _I("cor2.74", "nt", "u(n)^2*v(t)^2 - u(t)^2*v(n)^2 = 4*q^t*u(n+t)*u(n-t)"),
    _I("cor2.75", "n", "p^2*u(n)^2 - v(n)^2 = 4*q*u(n+1)*u(n-1)",
       Derivation("cor2.74", lambda A: {"n": A["n"], "t": 1})),
]


def _registry(entries) -> dict:
    """key -> Identity; ValueError naming the first key that repeats."""
    registry = {}
    for ident in entries:
        if ident.key in registry:
            raise ValueError(f"duplicate identity key {ident.key!r}")
        registry[ident.key] = ident
    return registry


REGISTRY = _registry(_ENTRIES)


def _lookup(key: str) -> Identity:
    try:
        return REGISTRY[key]
    except KeyError:
        raise UnknownIdentity(f"no identity with key {key!r}") from None


def list_identities():
    """All (key, free-variable signature, tag) triples, registry order."""
    return [(i.key, i.variables, i.tag) for i in REGISTRY.values()]


def evaluate(key: str, params: HoradamParams, assignment: dict,
             ctx=None) -> VerificationReport:
    """Evaluate both sides of an identity at an integer assignment.

    The two sides are computed only through sequence-term evaluations, on
    `Terms(ctx, W)`; the report holds each side reduced (a `Fraction` over Q).
    A shared `ctx` must be built for `params` (ValueError otherwise).
    """
    ident = _lookup(key)
    got, want = set(assignment), set(ident.variables)
    if got != want:
        missing, extra = want - got, got - want
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unexpected {sorted(extra)}")
        raise ValueError(f"assignment for {key}: " + ", ".join(parts))
    if ctx is None:
        ctx = TermContext(params)
    elif ctx.params is not params and ctx.params != params:
        raise ValueError(f"{key}: the term cache was built for {ctx.params}, not {params}")
    t = Terms(ctx, SequenceKind.W)
    args = [assignment[v] for v in ident.variables]
    try:
        lhs, rhs = ident.lhs(t, *args), ident.rhs(t, *args)
    except HoradamError as exc:
        return VerificationReport(key, dict(assignment), None, None, error=str(exc))
    return VerificationReport(key, dict(assignment), reduced(lhs), reduced(rhs))


def base_assignment(ident: Identity, assignment: dict) -> Optional[tuple]:
    """(base key, params-specializer kind, mapped assignment) for derived
    entries; None when the entry has no derivation record."""
    if ident.derived is None:
        return None
    der = ident.derived
    return der.base, der.specialize, der.index_map(dict(assignment))


@dataclass(frozen=True)
class SamplerConfig:
    """Bounds for randomized assignments: indices in [-max_index, max_index],
    rational parameters with |numerator| and denominator at most bound."""

    max_index: int = 10
    bound: int = 9

    def draw_params(self, rng: random.Random) -> HoradamParams:
        def rational(nonzero):
            while True:
                x = Fraction(rng.randint(-self.bound, self.bound),
                             rng.randint(1, self.bound))
                if not (nonzero and x == 0):
                    return x
        p = rational(True)
        q = rational(True)
        a = rational(False)
        b = rational(False)
        return HoradamParams(a, b, p, q)

    def draw_assignment(self, rng: random.Random, variables) -> dict:
        return {v: rng.randint(-self.max_index, self.max_index) for v in variables}


@dataclass(frozen=True)
class IdentityStats:
    key: str
    trials: int
    passes: int
    first_counterexample: Optional[VerificationReport]

    def to_dict(self) -> dict:
        return {
            "identity": self.key,
            "trials": self.trials,
            "passes": self.passes,
            "counterexample": (None if self.first_counterexample is None
                               else self.first_counterexample.to_dict()),
        }


@dataclass(frozen=True)
class FuzzReport:
    seed: int
    trials: int
    sampler: SamplerConfig
    stats: tuple

    @property
    def all_passed(self) -> bool:
        return all(s.passes == s.trials for s in self.stats)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "max_index": self.sampler.max_index,
            "bound": self.sampler.bound,
            "all_passed": self.all_passed,
            "identities": [s.to_dict() for s in self.stats],
        }


def fuzz(ids, trials: int, sampler: SamplerConfig, seed: int) -> FuzzReport:
    """Randomized exact verification; deterministic for a fixed seed.

    One parameter set, term cache and accessor per trial, indices per identity;
    unreduced sides are compared, and an entry's first failure goes to `evaluate`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    idents = [_lookup(key) for key in ids]
    rng = random.Random(seed)
    passes = {i.key: 0 for i in idents}
    counterexamples = {i.key: None for i in idents}
    for _ in range(trials):
        params = sampler.draw_params(rng)
        ctx = TermContext(params)
        t = Terms(ctx, SequenceKind.W)
        for ident in idents:
            asg = sampler.draw_assignment(rng, ident.variables)
            try:
                equal = ident.lhs(t, *asg.values()) == ident.rhs(t, *asg.values())
            except HoradamError:
                equal = False
            if equal:
                passes[ident.key] += 1
            elif counterexamples[ident.key] is None:
                counterexamples[ident.key] = evaluate(ident.key, params, asg, ctx=ctx)
    stats = tuple(IdentityStats(i.key, trials, passes[i.key], counterexamples[i.key])
                  for i in idents)
    return FuzzReport(seed, trials, sampler, stats)
