"""Registry of term identities with exact two-sided evaluation.

Each entry is written once, as the formula `horadam verify` displays, in the
grammar of `formula`. Its left and right evaluators are compiled from that
formula's two sides on first use (`Identity.lhs`, `Identity.rhs`), so what
is displayed is what is evaluated, and an import compiles no side.
`evaluate` builds a `TermContext` for its parameters and runs them on its
checker accessor (`sequences.Terms`), over the cache's unreduced `Ratio`
pairs. `fuzz` decides a draw on such an accessor without
`Ratio` operators: the pair compiler (`formula._pair_lines`) turns the same
formula into integer arithmetic on the unreduced term pairs, with the same
term reads, and one generated call decides about eight consecutive entries
(`formula.compile_trial_chunk`), so a trial over all 73 entries is ten
calls; `fuzz` refuses an entry the pair compiler rejects. One helper,
`_report`, builds the report of `evaluate` and of an entry's first failing
fuzz draw from `lhs` and `rhs`, each side reduced to a `Fraction` once.
The sides stay independent: no algebraic simplification is shared between
them, so an exact match is evidence, not tautology. A derived entry's
`Derivation` is text in the same grammar, its base at mapped indices
(`"H at r=0, s=-m"`), read as u or v where it says so
(`"cor1.35 at m=0 as v"`).

Key scheme: H/F/G/J are the master identity and its index permutations;
lin.9/dbl.10/mul.15-18/neg.* cover the basic linear, doubling,
multiplication and reflection laws; spec.21-28 are the u/v forms of the
masters, their formulas with w read as u or v (`formula.as_kind`);
cor1.29-59 and cor2.55-75 are the two corollary families in source order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import add
from typing import Any, Callable, NamedTuple, Optional

from .errors import HoradamError, UnknownIdentity, require_int
from .field import format_scalar, reduced
from .formula import as_kind, compile_side, compile_trial_chunk, compile_tuple, derivation
from .sequences import HoradamParams, SequenceKind, TermContext, Terms


@dataclass(frozen=True)
class Derivation:
    """How an entry follows from a base entry, as formula-grammar text
    `<base>[ at <var>=<expr>, ...][ as u|v]`; a base variable it does not map
    keeps its value. `index_map(None, *values)` is the compiled map."""

    text: str
    base: str
    specialize: Optional[SequenceKind]
    index_map: Callable


@dataclass(frozen=True)
class Identity:
    """A catalog entry. Its sides come only from `formula`: `lhs` and `rhs`
    are each compiled from its own side of the formula on first read, and a
    later read is an instance-dict hit. Each takes the accessor, then the
    `variables` values in order. `derived` holds the record's text until
    `_registry` compiles it."""

    key: str
    tag: str
    variables: tuple
    formula: str
    derived: Optional[Derivation] = None

    @cached_property
    def lhs(self) -> Callable:
        """`compile_side` of the formula's left side."""
        return compile_side(self.variables, self.formula, 0)

    @cached_property
    def rhs(self) -> Callable:
        """`compile_side` of the formula's right side."""
        return compile_side(self.variables, self.formula, 1)


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


def _I(key, variables, formula, derived=None):
    """An entry whose two sides are compiled from its displayed formula on
    first use, so what `horadam verify` prints is what is evaluated;
    `derived` is its derivation text."""
    return Identity(key, key.rpartition(".")[2], tuple(variables), formula, derived)


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
    _I("dbl.10", "n", "u(2n) = u(n)*v(n)", "mul.15 at m=n"),
    _I("mul.15", "nm", "u(m)*v(n) = u(n+m) - q^m*u(n-m)"),
    _I("mul.16", "nm", "(p^2-4q)*u(m)*u(n) = v(n+m) - q^m*v(n-m)"),
    _I("mul.17", "nm", "v(m)*u(n) = u(n+m) + q^m*u(n-m)"),
    _I("mul.18", "nm", "v(m)*v(n) = v(n+m) + q^m*v(n-m)"),
    _I("neg.19u", "n", "q^n*u(-n) = -u(n)"),
    _I("neg.19v", "n", "q^n*v(-n) = v(n)"),
    _I("neg.20", "n", "q^n*w(-n) = a*v(n) - w(n)"),
    # -- u/v specializations of the masters (spec.21-28) --
    *(_I(f"spec.{21 + 4 * i + j}", master.variables,
         as_kind(master.formula, kind), f"{master.key} as {kind}")
      for i, kind in enumerate("uv") for j, master in enumerate(_MASTERS)),
    # -- first corollary family --
    _I("cor1.29", "nm", "v(m)*w(n) = w(n+m) + q^m*w(n-m)", "H at r=0, s=-m"),
    _I("cor1.30", "n", "v(n)*w(n) = w(2n) + q^n*a", "cor1.29 at m=n"),
    _I("cor1.31", "nm", "u(m)*w(n) = u(n)*w(m) - q^m*a*u(n-m)", "F at n=n-m, r=0, s=-m"),
    _I("cor1.32", "nm", "w(n+m) = u(m)*w(n+1) - q*u(m-1)*w(n)", "H at r=1, s=0"),
    _I("cor1.33", "nm", "q^m*w(n-m) = u(m+1)*w(n) - u(m)*w(n+1)", "cor1.32 at m=-m"),
    _I("cor1.34", "nm", "w(n+m) - q^m*w(n-m) = u(m)*(w(n+1) - q*w(n-1))"),
    _I("cor1.35", "nm", "w(n+m) = u(n)*w(m+1) - q*u(n-1)*w(m)", "cor1.32 at n=m, m=n"),
    _I("cor1.36", "nmj", "w(n+m) = u(m-j)*w(n+j+1) - q*u(m-j-1)*w(n+j)",
       "H at n=n+j, m=m-j, r=1, s=0"),
    _I("cor1.37", "nmj", "w(n+m) = u(n-j)*w(m+j+1) - q*u(n-j-1)*w(m+j)",
       "H at n=m+j, m=n-j, r=1, s=0"),
    _I("cor1.38", "n", "w(2n) = u(n)*w(n+1) - q*u(n-1)*w(n)", "cor1.32 at m=n"),
    _I("cor1.39", "n", "w(2n) = u(n+1)*w(n) - q*u(n)*w(n-1)", "cor1.35 at n=n+1, m=n-1"),
    _I("cor1.40", "n", "w(2n-1) = u(n+1)*w(n-1) - q*u(n)*w(n-2)", "cor1.35 at n=n+1, m=n-2"),
    _I("cor1.41", "n", "w(2n-1) = u(n)*w(n) - q*u(n-1)*w(n-1)", "cor1.32 at n=n-1, m=n"),
    _I("cor1.42", "nm", "u(n-m)*w(n+m) = u(n)*w(n) - q^(n-m)*u(m)*w(m)", "H at r=0, s=m-n"),
    _I("cor1.43", "nm", "u(n-m)*w(n+m) = u(2n-m)*w(m) - q^(n-m)*u(n)*w(2m-n)",
       "F at r=0, s=m-n"),
    _I("cor1.44", "n", "q^n*w(-n) = a*v(n) - w(n)", "cor1.43 at m=0"),
    _I("cor1.45", "nm", "v(n)*w(m) - a*q^m*v(n-m) = w(n+m) - q^m*w(n-m)"),
    _I("cor1.46", "nm", "w(n+m)^2 - q^(2m)*w(n-m)^2 = v(m)*w(n)*(v(n)*w(m) - a*q^m*v(n-m))"),
    _I("cor1.47", "nmr", "u(2r)*w(n+m) = u(m+r)*w(n+r) - q^(2r)*u(m-r)*w(n-r)", "H at s=-r"),
    _I("cor1.48", "nmr", "q^(m-r)*u(2r)*w(n-m) = u(m+r)*w(n-r) - u(m-r)*w(n+r)",
       "cor1.47 at m=-m"),
    _I("cor1.49", "nmr", "u(2r)*w(n+m) = u(n+r)*w(m+r) - q^(2r)*u(n-r)*w(m-r)",
       "H at n=m, m=n, s=-r"),
    _I("cor1.50", "nr", "u(2r)*w(2n) = u(n+r)*w(n+r) - q^(2r)*u(n-r)*w(n-r)", "cor1.49 at m=n"),
    _I("cor1.51", "nr", "u(2r)*w(2n-1) = u(n+r)*w(n+r-1) - q^(2r)*u(n-r)*w(n-r-1)",
       "cor1.49 at m=n-1"),
    _I("cor1.52", "nm", "p*w(n+m) = u(m+1)*w(n+1) - q^2*u(m-1)*w(n-1)", "cor1.47 at r=1"),
    _I("cor1.53", "nm", "p*w(n+m) = u(n+1)*w(m+1) - q^2*u(n-1)*w(m-1)", "cor1.49 at r=1"),
    _I("cor1.54", "n", "p*w(2n) = u(n+1)*w(n+1) - q^2*u(n-1)*w(n-1)", "cor1.50 at r=1"),
    _I("cor1.55", "n", "p*w(2n-1) = u(n+1)*w(n) - q^2*u(n-1)*w(n-2)", "cor1.51 at r=1"),
    _I("cor1.56", "nst", "u(t)*w(n) = u(s)*w(n+t-s) - q^t*u(s-t)*w(n-s)",
       "H at m=0, r=t-s, s=-s"),
    _I("cor1.57", "nst", "u(t)*w(n) = u(n-s)*w(t+s) - q^t*u(n-t-s)*w(s)", "F at m=0, r=t+s"),
    _I("cor1.58", "nst", "u(t)*w(n) = u(n+t-s)*w(s) - q^t*u(n-s)*w(s-t)",
       "G at m=0, r=t-s, s=-s"),
    _I("cor1.59", "nst", "u(t)*w(n) = u(t+s)*w(n-s) - q^t*u(s)*w(n-s-t)", "J at m=0, r=t+s"),
    # -- second corollary family (u/v consequences) --
    _I("cor2.55", "n", "v(n)^2 = v(2n) + 2*q^n", "cor1.30 as v"),
    _I("cor2.56", "nm", "u(n)*v(m) - u(m)*v(n) = 2*q^m*u(n-m)", "cor1.31 as v"),
    _I("cor2.57", "n", "v(n) = p*u(n) - 2*q*u(n-1)", "cor1.35 at m=0 as v"),
    _I("cor2.58", "nm", "u(n+m) = u(m)*u(n+1) - q*u(m-1)*u(n)", "cor1.32 as u"),
    _I("cor2.59", "nm", "v(n+m) = u(m)*v(n+1) - q*u(m-1)*v(n)", "cor1.32 as v"),
    _I("cor2.60", "m", "u(2m-1) = u(m)^2 - q*u(m-1)^2", "cor1.41 at n=m as u"),
    _I("cor2.61", "m", "v(2m-1) = u(2m) - q*u(2m-2)", "cor1.41 at n=m as v"),
    _I("cor2.62", "nm", "u(n-m)*u(n+m) = u(n)^2 - q^(n-m)*u(m)^2", "cor1.42 as u"),
    _I("cor2.63", "nm", "u(n-m)*v(n+m) = u(2n) - q^(n-m)*u(2m)", "cor1.42 as v"),
    _I("cor2.64", "nm", "v(n)*v(m) - (p^2-4q)*u(m)*u(n) = 2*q^m*v(n-m)", "cor1.45 as v"),
    _I("cor2.65", "nmr", "u(2r)*u(n+m) = u(n+r)*u(m+r) - q^(2r)*u(m-r)*u(n-r)", "cor1.49 as u"),
    _I("cor2.66", "nmr", "u(2r)*v(n+m) = u(n+r)*v(m+r) - q^(2r)*u(n-r)*v(m-r)", "cor1.49 as v"),
    _I("cor2.67", "nr", "u(2r)*u(2n) = u(n+r)^2 - q^(2r)*u(n-r)^2", "cor1.50 as u"),
    _I("cor2.68", "nr", "u(2r)*v(2n) = u(2(n+r)) - q^(2r)*u(2(n-r))", "cor1.50 as v"),
    _I("cor2.69", "n", "p*u(2n) = u(n+1)^2 - q^2*u(n-1)^2", "cor1.54 as u"),
    _I("cor2.70", "n", "p*v(2n) = u(2(n+1)) - q^2*u(2(n-1))", "cor1.54 as v"),
    _I("cor2.71", "nst", "u(t)*u(n) = u(s)*u(n+t-s) - q^t*u(s-t)*u(n-s)", "cor1.56 as u"),
    _I("cor2.72", "nst", "u(t)*v(n) = u(s)*v(n+t-s) - q^t*u(s-t)*v(n-s)", "cor1.56 as v"),
    _I("cor2.73", "nt", "u(n)*v(t) + u(t)*v(n) = 2*u(n+t)", "cor1.58 at s=0 as v"),
    _I("cor2.74", "nt", "u(n)^2*v(t)^2 - u(t)^2*v(n)^2 = 4*q^t*u(n+t)*u(n-t)"),
    _I("cor2.75", "n", "p^2*u(n)^2 - v(n)^2 = 4*q*u(n+1)*u(n-1)", "cor2.74 at t=1"),
]


def _derivation(ident: Identity, registry: dict) -> Derivation:
    """`ident.derived` compiled; ValueError naming the entry for an unreadable
    text, an unknown base, a variable the base lacks or a name the entry lacks."""
    record = derivation(ident.derived)
    if record is None or record[0] not in registry:
        raise ValueError(f"{ident.key}: {ident.derived!r} is not "
                         "'<base key>[ at <var>=<expr>, ...][ as u|v]'")
    base, mapped, kind = record
    index_map = compile_tuple(ident.variables,
                              [mapped.pop(v, v) for v in registry[base].variables])
    if mapped:
        raise ValueError(f"{ident.key}: {base} has no variable {sorted(mapped)}")
    if index_map.__code__.co_names:
        raise ValueError(f"{ident.key}: {ident.derived!r} names "
                         f"{sorted(index_map.__code__.co_names)}, not one of its variables")
    return Derivation(ident.derived, base, kind and SequenceKind(kind), index_map)


def _registry(entries) -> dict:
    """key -> Identity, each derivation compiled once all entries are in (the
    base of dbl.10 comes after it); ValueError naming a repeated key."""
    registry = {}
    for ident in entries:
        if ident.key in registry:
            raise ValueError(f"duplicate identity key {ident.key!r}")
        registry[ident.key] = ident
    for ident in entries:
        if ident.derived is not None:
            registry[ident.key] = replace(ident, derived=_derivation(ident, registry))
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


def _check_assignment(ident: Identity, assignment: dict) -> None:
    """ValueError unless `assignment` gives exactly the entry's variables, as ints."""
    got, want = set(assignment), set(ident.variables)
    if got != want:
        missing, extra = want - got, got - want
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unexpected {sorted(extra)}")
        raise ValueError(f"assignment for {ident.key}: " + ", ".join(parts))
    for v in ident.variables:
        require_int(v, assignment[v])


def _report(ident: Identity, t: Terms, assignment: dict) -> VerificationReport:
    """Both sides on the accessor `t`, each reduced once; a HoradamError from
    a side becomes the report's `error`."""
    args = [assignment[v] for v in ident.variables]
    try:
        lhs, rhs = ident.lhs(t, *args), ident.rhs(t, *args)
    except HoradamError as exc:
        return VerificationReport(ident.key, dict(assignment), None, None, error=str(exc))
    return VerificationReport(ident.key, dict(assignment), reduced(lhs), reduced(rhs))


def evaluate(key: str, params: HoradamParams, assignment: dict) -> VerificationReport:
    """Evaluate both sides of an identity at an integer assignment.

    The two sides are computed only through sequence-term evaluations, on
    `Terms(TermContext(params), W)`; the report holds each side reduced (a
    `Fraction` over Q).
    """
    ident = _lookup(key)
    _check_assignment(ident, assignment)
    return _report(ident, Terms(TermContext(params), SequenceKind.W), assignment)


def base_assignment(ident: Identity, assignment: dict) -> Optional[tuple]:
    """(base key, params-specializer kind, mapped assignment) for derived
    entries; None when the entry has no derivation record. The assignment
    must give exactly the entry's variables (ValueError otherwise)."""
    _check_assignment(ident, assignment)
    der = ident.derived
    if der is None:
        return None
    values = der.index_map(None, *(assignment[v] for v in ident.variables))
    return der.base, der.specialize, dict(zip(REGISTRY[der.base].variables, values))


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """`count` draws of `rng.randint(lo, hi)`, by its rule (see `SamplerConfig`)."""
    width = hi - lo + 1
    k = width.bit_length()  # not (width-1).bit_length(): width 1 still draws one bit
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        out.append(lo + r)
    return out


@dataclass(frozen=True)
class SamplerConfig:
    """Bounds for randomized assignments: indices in [-max_index, max_index],
    rational parameters with |numerator| and denominator at most bound.

    Values are drawn by CPython's `randint` rule (3.2 on), open-coded in
    `_randints` to save randint's three Python frames per value, about a sixth
    of a `fuzz` trial: for `width = hi - lo + 1`, `getrandbits(width.bit_length())`
    is redrawn until below `width`, then `lo` is added. On a `random.Random` that
    gives randint's values and generator state, and a seeded draw no longer
    depends on how a future Python implements `randint`.
    """

    max_index: int = 10
    bound: int = 9

    def __post_init__(self):
        require_int("max_index", self.max_index)
        require_int("bound", self.bound)
        if self.max_index < 0:
            raise ValueError(f"max_index must be >= 0, got {self.max_index}")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")

    def draw_params(self, rng: random.Random) -> HoradamParams:
        """p, q, a, b in that order, each a numerator in [-bound, bound] then a
        denominator in [1, bound], both drawn again while p or q would be 0:
        `_randints`'s rule, open-coded in one frame for the eight or more draws."""
        bound = self.bound
        width = 2 * bound + 1
        k, dk = width.bit_length(), bound.bit_length()
        getrandbits = rng.getrandbits
        values = []
        while len(values) < 4:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            d = getrandbits(dk)
            while d >= bound:
                d = getrandbits(dk)
            if r != bound or len(values) > 1:   # r = bound draws the numerator 0
                values.append(Fraction(r - bound, d + 1))
        p, q, a, b = values
        return HoradamParams(a, b, p, q)

    def draw_assignment(self, rng: random.Random, variables) -> dict:
        values = _randints(rng, -self.max_index, self.max_index, len(variables))
        return dict(zip(variables, values))


class IdentityStats(NamedTuple):
    """One identity's fuzz tally. Immutable like the frozen records, but a
    tuple, which builds without a per-field `object.__setattr__`: `fuzz`
    builds one per identity on every call, with `tuple.__new__`, so not even
    the generated `__new__` runs."""

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


class _Plan(NamedTuple):
    """A compiled fuzz trial over one id list."""

    idents: tuple   # the entries, in id-list order
    keys: list      # their keys
    count: int      # indices drawn per trial
    spans: tuple    # each entry's (start, stop) in the drawn indices
    chunks: tuple   # (compile_trial_chunk of consecutive entries, start, stop)


# Entries per trial chunk. Over all 73 entries on a 2-vCPU Xeon VM, one-trial
# fuzz calls took a median 411, 398, 397 and 392 us with chunks of 4, 8, 16
# and all 73, and the first call raised peak RSS by 0, about 100, 220 and
# 3280 KB (the sweep is in BENCH_23.json).
_CHUNK = 8
# (id tuple, _Plan) of the last id list fuzzed; rebound whole, so threads
# need no lock
_LAST: tuple = (None, None)


def _plan(ids: tuple) -> _Plan:
    """The plan of an id list: built on first use and kept in `_LAST` for as
    long as the same ids are fuzzed and the registry gives the same entries
    for them, so a replaced entry compiles anew. UnknownIdentity for an
    unknown id; ValueError for an empty or repeating id list."""
    global _LAST
    try:
        idents = tuple(map(REGISTRY.__getitem__, ids))
    except KeyError:
        idents = tuple(map(_lookup, ids))   # raises UnknownIdentity for the first unknown id
    last_ids, plan = _LAST
    if last_ids == ids and plan.idents == idents:
        return plan
    keys = [i.key for i in idents]
    if not keys or len(set(keys)) < len(keys):
        raise ValueError(f"fuzz needs one or more distinct identity ids, got {keys}")
    ends = list(accumulate(len(i.variables) for i in idents))
    bounds = [0, *ends]
    parts = -(-len(idents) // _CHUNK)     # chunks of _CHUNK or fewer, as even as can be
    cuts = [len(idents) * c // parts for c in range(parts + 1)]
    chunks = tuple((compile_trial_chunk(idents[lo:hi]), bounds[lo], bounds[hi])
                   for lo, hi in zip(cuts, cuts[1:]))
    plan = _Plan(idents, keys, bounds[-1], tuple(zip(bounds, ends)), chunks)
    _LAST = (ids, plan)
    return plan


def fuzz(ids, trials: int, sampler: SamplerConfig, seed: int) -> FuzzReport:
    """Randomized exact verification; deterministic for a fixed seed.

    One parameter set, term cache and accessor per trial, indices per
    identity. A trial draws all its indices (one range) in one `_randints`
    call after `draw_params`: the values and generator state of one
    `draw_assignment` per identity, as a replay draws. The id list's plan
    (`_plan`) splits its entries into runs of about `_CHUNK`, each decided
    by one `compile_trial_chunk` on the unreduced term pairs, with the
    verdicts and term reads of each entry's `lhs == rhs`. An entry's
    first failure is reported on the trial's accessor, as `evaluate` would
    report it.
    ValueError for a non-int or bool `trials` or `seed`, for trials < 1, for
    an empty or repeating id list, and for an entry the pair compiler rejects.
    """
    require_int("trials", trials)
    require_int("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    idents, keys, count, spans, chunks = _plan(tuple(ids))
    rng = random.Random(seed)
    lo, hi = -sampler.max_index, sampler.max_index
    passes = [0] * len(idents)
    counterexamples = [None] * len(idents)
    for _ in range(trials):
        params = sampler.draw_params(rng)
        t = Terms(TermContext(params), SequenceKind.W)
        drawn = _randints(rng, lo, hi, count)
        verdicts = []
        for chunk, start, stop in chunks:
            verdicts += chunk(t, drawn[start:stop])
        passes = list(map(add, passes, verdicts))
        if not all(verdicts):
            for i, equal in enumerate(verdicts):
                if not equal and counterexamples[i] is None:
                    ident, (start, stop) = idents[i], spans[i]
                    asg = dict(zip(ident.variables, drawn[start:stop]))
                    counterexamples[i] = _report(ident, t, asg)
    stats = tuple(map(tuple.__new__, repeat(IdentityStats),
                      zip(keys, repeat(trials), passes, counterexamples)))
    return FuzzReport(seed, trials, sampler, stats)
