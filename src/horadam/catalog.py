"""Registry of term identities with exact two-sided evaluation.

Every entry stores independent left/right evaluators over a `TermContext`;
no algebraic simplification is shared between the sides, so an exact match
is evidence, not tautology. Entries derived from a master identity by an
index substitution (and possibly a u/v specialization) carry a
`Derivation` record, which the meta-consistency checks replay through the
generic evaluator.

Key scheme: H/F/G/J are the master identity and its index permutations;
lin.9/dbl.10/mul.15-18/neg.* cover the basic linear, doubling,
multiplication and reflection laws; spec.21-28 are the u/v forms of the
masters, generated by running each master's own evaluators with w read as
u or v; cor1.29-59 and cor2.55-75 are the two corollary families in
source order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .errors import HoradamError, UnknownIdentity
from .field import format_scalar
from .sequences import HoradamParams, SequenceKind, TermContext


@dataclass(frozen=True)
class Derivation:
    """How an entry follows from a base entry: substitute indices, optionally
    specialize w to u or v first."""

    base: str
    index_map: Callable[[dict], dict]
    specialize: Optional[SequenceKind] = None


@dataclass(frozen=True)
class Identity:
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


def _I(key, tag, variables, lhs, rhs, formula, derived=None):
    return Identity(key, tag, tuple(variables), lhs, rhs, formula, derived)


_U, _V = SequenceKind.U, SequenceKind.V

# -- master identity and its index permutations --
_MASTERS = [
    _I("H", "H", "nmrs",
       lambda t, n, m, r, s: t.u(r-s) * t.w(n+m),
       lambda t, n, m, r, s: t.u(m-s) * t.w(n+r) - t.qp(r-s) * t.u(m-r) * t.w(n+s),
       "u(r-s)*w(n+m) = u(m-s)*w(n+r) - q^(r-s)*u(m-r)*w(n+s)"),
    _I("F", "F", "nmrs",
       lambda t, n, m, r, s: t.u(r-s) * t.w(n+m),
       lambda t, n, m, r, s: t.u(n-s) * t.w(m+r) - t.qp(r-s) * t.u(n-r) * t.w(m+s),
       "u(r-s)*w(n+m) = u(n-s)*w(m+r) - q^(r-s)*u(n-r)*w(m+s)"),
    _I("G", "G", "nmrs",
       lambda t, n, m, r, s: t.u(r-s) * t.w(n+m),
       lambda t, n, m, r, s: t.u(n+r) * t.w(m-s) - t.qp(r-s) * t.u(n+s) * t.w(m-r),
       "u(r-s)*w(n+m) = u(n+r)*w(m-s) - q^(r-s)*u(n+s)*w(m-r)"),
    _I("J", "J", "nmrs",
       lambda t, n, m, r, s: t.u(r-s) * t.w(n+m),
       lambda t, n, m, r, s: t.u(m+r) * t.w(n-s) - t.qp(r-s) * t.u(m+s) * t.w(n-r),
       "u(r-s)*w(n+m) = u(m+r)*w(n-s) - q^(r-s)*u(m+s)*w(n-r)"),
]


class _WAs:
    """The accessors a master identity reads (u, qp, w), with w reading the
    u or v sequence of the same context."""

    __slots__ = ("u", "qp", "w")

    def __init__(self, t, kind: SequenceKind):
        self.u, self.qp = t.u, t.qp
        self.w = t.u if kind is _U else t.v


def _specialization(number: int, master: Identity, kind: SequenceKind) -> Identity:
    """spec.<number>: `master` with w read as u or v. Its sides are the
    master's own evaluators, so only the substitution itself is new."""
    return _I(f"spec.{number}", str(number), master.variables,
              lambda t, **asg: master.lhs(_WAs(t, kind), **asg),
              lambda t, **asg: master.rhs(_WAs(t, kind), **asg),
              master.formula.replace("w(", f"{kind.value}("),
              Derivation(master.key, lambda A: dict(A), kind))


_ENTRIES = [
    *_MASTERS,
    # -- linear form, doubling, multiplication laws, reflections --
    _I("lin.9", "9", "n",
       lambda t, n: t.w(n),
       lambda t, n: t.b * t.u(n) - t.a * t.q * t.u(n-1),
       "w(n) = b*u(n) - a*q*u(n-1)"),
    _I("dbl.10", "10", "n",
       lambda t, n: t.u(2*n),
       lambda t, n: t.u(n) * t.v(n),
       "u(2n) = u(n)*v(n)",
       Derivation("mul.15", lambda A: {"n": A["n"], "m": A["n"]})),
    _I("mul.15", "15", "nm",
       lambda t, n, m: t.u(m) * t.v(n),
       lambda t, n, m: t.u(n+m) - t.qp(m) * t.u(n-m),
       "u(m)*v(n) = u(n+m) - q^m*u(n-m)"),
    _I("mul.16", "16", "nm",
       lambda t, n, m: t.disc * t.u(m) * t.u(n),
       lambda t, n, m: t.v(n+m) - t.qp(m) * t.v(n-m),
       "(p^2-4q)*u(m)*u(n) = v(n+m) - q^m*v(n-m)"),
    _I("mul.17", "17", "nm",
       lambda t, n, m: t.v(m) * t.u(n),
       lambda t, n, m: t.u(n+m) + t.qp(m) * t.u(n-m),
       "v(m)*u(n) = u(n+m) + q^m*u(n-m)"),
    _I("mul.18", "18", "nm",
       lambda t, n, m: t.v(m) * t.v(n),
       lambda t, n, m: t.v(n+m) + t.qp(m) * t.v(n-m),
       "v(m)*v(n) = v(n+m) + q^m*v(n-m)"),
    _I("neg.19u", "19u", "n",
       lambda t, n: t.qp(n) * t.u(-n),
       lambda t, n: -t.u(n),
       "q^n*u(-n) = -u(n)"),
    _I("neg.19v", "19v", "n",
       lambda t, n: t.qp(n) * t.v(-n),
       lambda t, n: t.v(n),
       "q^n*v(-n) = v(n)"),
    _I("neg.20", "20", "n",
       lambda t, n: t.qp(n) * t.w(-n),
       lambda t, n: t.a * t.v(n) - t.w(n),
       "q^n*w(-n) = a*v(n) - w(n)"),
    # -- u/v specializations of the masters (spec.21-28) --
    *(_specialization(21 + 4 * i + j, master, kind)
      for i, kind in enumerate((_U, _V)) for j, master in enumerate(_MASTERS)),
    # -- first corollary family --
    _I("cor1.29", "29", "nm",
       lambda t, n, m: t.v(m) * t.w(n),
       lambda t, n, m: t.w(n+m) + t.qp(m) * t.w(n-m),
       "v(m)*w(n) = w(n+m) + q^m*w(n-m)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": 0, "s": -A["m"]})),
    _I("cor1.30", "30", "n",
       lambda t, n: t.v(n) * t.w(n),
       lambda t, n: t.w(2*n) + t.qp(n) * t.a,
       "v(n)*w(n) = w(2n) + q^n*a",
       Derivation("cor1.29", lambda A: {"n": A["n"], "m": A["n"]})),
    _I("cor1.31", "31", "nm",
       lambda t, n, m: t.u(m) * t.w(n),
       lambda t, n, m: t.u(n) * t.w(m) - t.qp(m) * t.a * t.u(n-m),
       "u(m)*w(n) = u(n)*w(m) - q^m*a*u(n-m)",
       Derivation("F", lambda A: {"n": A["n"] - A["m"], "m": A["m"], "r": 0, "s": -A["m"]})),
    _I("cor1.32", "32", "nm",
       lambda t, n, m: t.w(n+m),
       lambda t, n, m: t.u(m) * t.w(n+1) - t.q * t.u(m-1) * t.w(n),
       "w(n+m) = u(m)*w(n+1) - q*u(m-1)*w(n)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": 1, "s": 0})),
    _I("cor1.33", "33", "nm",
       lambda t, n, m: t.qp(m) * t.w(n-m),
       lambda t, n, m: t.u(m+1) * t.w(n) - t.u(m) * t.w(n+1),
       "q^m*w(n-m) = u(m+1)*w(n) - u(m)*w(n+1)",
       Derivation("cor1.32", lambda A: {"n": A["n"], "m": -A["m"]})),
    _I("cor1.34", "34", "nm",
       lambda t, n, m: t.w(n+m) - t.qp(m) * t.w(n-m),
       lambda t, n, m: t.u(m) * (t.w(n+1) - t.q * t.w(n-1)),
       "w(n+m) - q^m*w(n-m) = u(m)*(w(n+1) - q*w(n-1))"),
    _I("cor1.35", "35", "nm",
       lambda t, n, m: t.w(n+m),
       lambda t, n, m: t.u(n) * t.w(m+1) - t.q * t.u(n-1) * t.w(m),
       "w(n+m) = u(n)*w(m+1) - q*u(n-1)*w(m)",
       Derivation("cor1.32", lambda A: {"n": A["m"], "m": A["n"]})),
    _I("cor1.36", "36", "nmj",
       lambda t, n, m, j: t.w(n+m),
       lambda t, n, m, j: t.u(m-j) * t.w(n+j+1) - t.q * t.u(m-j-1) * t.w(n+j),
       "w(n+m) = u(m-j)*w(n+j+1) - q*u(m-j-1)*w(n+j)",
       Derivation("H", lambda A: {"n": A["n"] + A["j"], "m": A["m"] - A["j"], "r": 1, "s": 0})),
    _I("cor1.37", "37", "nmj",
       lambda t, n, m, j: t.w(n+m),
       lambda t, n, m, j: t.u(n-j) * t.w(m+j+1) - t.q * t.u(n-j-1) * t.w(m+j),
       "w(n+m) = u(n-j)*w(m+j+1) - q*u(n-j-1)*w(m+j)",
       Derivation("H", lambda A: {"n": A["m"] + A["j"], "m": A["n"] - A["j"], "r": 1, "s": 0})),
    _I("cor1.38", "38", "n",
       lambda t, n: t.w(2*n),
       lambda t, n: t.u(n) * t.w(n+1) - t.q * t.u(n-1) * t.w(n),
       "w(2n) = u(n)*w(n+1) - q*u(n-1)*w(n)",
       Derivation("cor1.32", lambda A: {"n": A["n"], "m": A["n"]})),
    _I("cor1.39", "39", "n",
       lambda t, n: t.w(2*n),
       lambda t, n: t.u(n+1) * t.w(n) - t.q * t.u(n) * t.w(n-1),
       "w(2n) = u(n+1)*w(n) - q*u(n)*w(n-1)",
       Derivation("cor1.35", lambda A: {"n": A["n"] + 1, "m": A["n"] - 1})),
    _I("cor1.40", "40", "n",
       lambda t, n: t.w(2*n-1),
       lambda t, n: t.u(n+1) * t.w(n-1) - t.q * t.u(n) * t.w(n-2),
       "w(2n-1) = u(n+1)*w(n-1) - q*u(n)*w(n-2)",
       Derivation("cor1.35", lambda A: {"n": A["n"] + 1, "m": A["n"] - 2})),
    _I("cor1.41", "41", "n",
       lambda t, n: t.w(2*n-1),
       lambda t, n: t.u(n) * t.w(n) - t.q * t.u(n-1) * t.w(n-1),
       "w(2n-1) = u(n)*w(n) - q*u(n-1)*w(n-1)",
       Derivation("cor1.32", lambda A: {"n": A["n"] - 1, "m": A["n"]})),
    _I("cor1.42", "42", "nm",
       lambda t, n, m: t.u(n-m) * t.w(n+m),
       lambda t, n, m: t.u(n) * t.w(n) - t.qp(n-m) * t.u(m) * t.w(m),
       "u(n-m)*w(n+m) = u(n)*w(n) - q^(n-m)*u(m)*w(m)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": 0, "s": A["m"] - A["n"]})),
    _I("cor1.43", "43", "nm",
       lambda t, n, m: t.u(n-m) * t.w(n+m),
       lambda t, n, m: t.u(2*n-m) * t.w(m) - t.qp(n-m) * t.u(n) * t.w(2*m-n),
       "u(n-m)*w(n+m) = u(2n-m)*w(m) - q^(n-m)*u(n)*w(2m-n)",
       Derivation("F", lambda A: {"n": A["n"], "m": A["m"], "r": 0, "s": A["m"] - A["n"]})),
    _I("cor1.44", "44", "n",
       lambda t, n: t.qp(n) * t.w(-n),
       lambda t, n: t.a * t.v(n) - t.w(n),
       "q^n*w(-n) = a*v(n) - w(n)",
       Derivation("cor1.43", lambda A: {"n": A["n"], "m": 0})),
    _I("cor1.45", "45", "nm",
       lambda t, n, m: t.v(n) * t.w(m) - t.a * t.qp(m) * t.v(n-m),
       lambda t, n, m: t.w(n+m) - t.qp(m) * t.w(n-m),
       "v(n)*w(m) - a*q^m*v(n-m) = w(n+m) - q^m*w(n-m)"),
    _I("cor1.46", "46", "nm",
       lambda t, n, m: t.w(n+m)**2 - t.qp(2*m) * t.w(n-m)**2,
       lambda t, n, m: t.v(m) * t.w(n) * (t.v(n) * t.w(m) - t.a * t.qp(m) * t.v(n-m)),
       "w(n+m)^2 - q^(2m)*w(n-m)^2 = v(m)*w(n)*(v(n)*w(m) - a*q^m*v(n-m))"),
    _I("cor1.47", "47", "nmr",
       lambda t, n, m, r: t.u(2*r) * t.w(n+m),
       lambda t, n, m, r: t.u(m+r) * t.w(n+r) - t.qp(2*r) * t.u(m-r) * t.w(n-r),
       "u(2r)*w(n+m) = u(m+r)*w(n+r) - q^(2r)*u(m-r)*w(n-r)",
       Derivation("H", lambda A: {"n": A["n"], "m": A["m"], "r": A["r"], "s": -A["r"]})),
    _I("cor1.48", "48", "nmr",
       lambda t, n, m, r: t.qp(m-r) * t.u(2*r) * t.w(n-m),
       lambda t, n, m, r: t.u(m+r) * t.w(n-r) - t.u(m-r) * t.w(n+r),
       "q^(m-r)*u(2r)*w(n-m) = u(m+r)*w(n-r) - u(m-r)*w(n+r)",
       Derivation("cor1.47", lambda A: {"n": A["n"], "m": -A["m"], "r": A["r"]})),
    _I("cor1.49", "49", "nmr",
       lambda t, n, m, r: t.u(2*r) * t.w(n+m),
       lambda t, n, m, r: t.u(n+r) * t.w(m+r) - t.qp(2*r) * t.u(n-r) * t.w(m-r),
       "u(2r)*w(n+m) = u(n+r)*w(m+r) - q^(2r)*u(n-r)*w(m-r)",
       Derivation("H", lambda A: {"n": A["m"], "m": A["n"], "r": A["r"], "s": -A["r"]})),
    _I("cor1.50", "50", "nr",
       lambda t, n, r: t.u(2*r) * t.w(2*n),
       lambda t, n, r: t.u(n+r) * t.w(n+r) - t.qp(2*r) * t.u(n-r) * t.w(n-r),
       "u(2r)*w(2n) = u(n+r)*w(n+r) - q^(2r)*u(n-r)*w(n-r)",
       Derivation("cor1.49", lambda A: {"n": A["n"], "m": A["n"], "r": A["r"]})),
    _I("cor1.51", "51", "nr",
       lambda t, n, r: t.u(2*r) * t.w(2*n-1),
       lambda t, n, r: t.u(n+r) * t.w(n+r-1) - t.qp(2*r) * t.u(n-r) * t.w(n-r-1),
       "u(2r)*w(2n-1) = u(n+r)*w(n+r-1) - q^(2r)*u(n-r)*w(n-r-1)",
       Derivation("cor1.49", lambda A: {"n": A["n"], "m": A["n"] - 1, "r": A["r"]})),
    _I("cor1.52", "52", "nm",
       lambda t, n, m: t.p * t.w(n+m),
       lambda t, n, m: t.u(m+1) * t.w(n+1) - t.q**2 * t.u(m-1) * t.w(n-1),
       "p*w(n+m) = u(m+1)*w(n+1) - q^2*u(m-1)*w(n-1)",
       Derivation("cor1.47", lambda A: {"n": A["n"], "m": A["m"], "r": 1})),
    _I("cor1.53", "53", "nm",
       lambda t, n, m: t.p * t.w(n+m),
       lambda t, n, m: t.u(n+1) * t.w(m+1) - t.q**2 * t.u(n-1) * t.w(m-1),
       "p*w(n+m) = u(n+1)*w(m+1) - q^2*u(n-1)*w(m-1)",
       Derivation("cor1.49", lambda A: {"n": A["n"], "m": A["m"], "r": 1})),
    _I("cor1.54", "54", "n",
       lambda t, n: t.p * t.w(2*n),
       lambda t, n: t.u(n+1) * t.w(n+1) - t.q**2 * t.u(n-1) * t.w(n-1),
       "p*w(2n) = u(n+1)*w(n+1) - q^2*u(n-1)*w(n-1)",
       Derivation("cor1.50", lambda A: {"n": A["n"], "r": 1})),
    _I("cor1.55", "55", "n",
       lambda t, n: t.p * t.w(2*n-1),
       lambda t, n: t.u(n+1) * t.w(n) - t.q**2 * t.u(n-1) * t.w(n-2),
       "p*w(2n-1) = u(n+1)*w(n) - q^2*u(n-1)*w(n-2)",
       Derivation("cor1.51", lambda A: {"n": A["n"], "r": 1})),
    _I("cor1.56", "56", "nst",
       lambda t, n, s, t_: t.u(t_) * t.w(n),
       lambda t, n, s, t_: t.u(s) * t.w(n+t_-s) - t.qp(t_) * t.u(s-t_) * t.w(n-s),
       "u(t)*w(n) = u(s)*w(n+t-s) - q^t*u(s-t)*w(n-s)",
       Derivation("H", lambda A: {"n": A["n"], "m": 0, "r": A["t"] - A["s"], "s": -A["s"]})),
    _I("cor1.57", "57", "nst",
       lambda t, n, s, t_: t.u(t_) * t.w(n),
       lambda t, n, s, t_: t.u(n-s) * t.w(t_+s) - t.qp(t_) * t.u(n-t_-s) * t.w(s),
       "u(t)*w(n) = u(n-s)*w(t+s) - q^t*u(n-t-s)*w(s)",
       Derivation("F", lambda A: {"n": A["n"], "m": 0, "r": A["t"] + A["s"], "s": A["s"]})),
    _I("cor1.58", "58", "nst",
       lambda t, n, s, t_: t.u(t_) * t.w(n),
       lambda t, n, s, t_: t.u(n+t_-s) * t.w(s) - t.qp(t_) * t.u(n-s) * t.w(s-t_),
       "u(t)*w(n) = u(n+t-s)*w(s) - q^t*u(n-s)*w(s-t)",
       Derivation("G", lambda A: {"n": A["n"], "m": 0, "r": A["t"] - A["s"], "s": -A["s"]})),
    _I("cor1.59", "59", "nst",
       lambda t, n, s, t_: t.u(t_) * t.w(n),
       lambda t, n, s, t_: t.u(t_+s) * t.w(n-s) - t.qp(t_) * t.u(s) * t.w(n-s-t_),
       "u(t)*w(n) = u(t+s)*w(n-s) - q^t*u(s)*w(n-s-t)",
       Derivation("J", lambda A: {"n": A["n"], "m": 0, "r": A["t"] + A["s"], "s": A["s"]})),
    # -- second corollary family (u/v consequences) --
    _I("cor2.55", "55", "n",
       lambda t, n: t.v(n)**2,
       lambda t, n: t.v(2*n) + 2 * t.qp(n),
       "v(n)^2 = v(2n) + 2*q^n",
       Derivation("cor1.30", lambda A: dict(A), _V)),
    _I("cor2.56", "56", "nm",
       lambda t, n, m: t.u(n) * t.v(m) - t.u(m) * t.v(n),
       lambda t, n, m: 2 * t.qp(m) * t.u(n-m),
       "u(n)*v(m) - u(m)*v(n) = 2*q^m*u(n-m)",
       Derivation("cor1.31", lambda A: dict(A), _V)),
    _I("cor2.57", "57", "n",
       lambda t, n: t.v(n),
       lambda t, n: t.p * t.u(n) - 2 * t.q * t.u(n-1),
       "v(n) = p*u(n) - 2*q*u(n-1)",
       Derivation("cor1.35", lambda A: {"n": A["n"], "m": 0}, _V)),
    _I("cor2.58", "58", "nm",
       lambda t, n, m: t.u(n+m),
       lambda t, n, m: t.u(m) * t.u(n+1) - t.q * t.u(m-1) * t.u(n),
       "u(n+m) = u(m)*u(n+1) - q*u(m-1)*u(n)",
       Derivation("cor1.32", lambda A: dict(A), _U)),
    _I("cor2.59", "59", "nm",
       lambda t, n, m: t.v(n+m),
       lambda t, n, m: t.u(m) * t.v(n+1) - t.q * t.u(m-1) * t.v(n),
       "v(n+m) = u(m)*v(n+1) - q*u(m-1)*v(n)",
       Derivation("cor1.32", lambda A: dict(A), _V)),
    _I("cor2.60", "60", "m",
       lambda t, m: t.u(2*m-1),
       lambda t, m: t.u(m)**2 - t.q * t.u(m-1)**2,
       "u(2m-1) = u(m)^2 - q*u(m-1)^2",
       Derivation("cor1.41", lambda A: {"n": A["m"]}, _U)),
    _I("cor2.61", "61", "m",
       lambda t, m: t.v(2*m-1),
       lambda t, m: t.u(2*m) - t.q * t.u(2*m-2),
       "v(2m-1) = u(2m) - q*u(2m-2)",
       Derivation("cor1.41", lambda A: {"n": A["m"]}, _V)),
    _I("cor2.62", "62", "nm",
       lambda t, n, m: t.u(n-m) * t.u(n+m),
       lambda t, n, m: t.u(n)**2 - t.qp(n-m) * t.u(m)**2,
       "u(n-m)*u(n+m) = u(n)^2 - q^(n-m)*u(m)^2",
       Derivation("cor1.42", lambda A: dict(A), _U)),
    _I("cor2.63", "63", "nm",
       lambda t, n, m: t.u(n-m) * t.v(n+m),
       lambda t, n, m: t.u(2*n) - t.qp(n-m) * t.u(2*m),
       "u(n-m)*v(n+m) = u(2n) - q^(n-m)*u(2m)",
       Derivation("cor1.42", lambda A: dict(A), _V)),
    _I("cor2.64", "64", "nm",
       lambda t, n, m: t.v(n) * t.v(m) - t.disc * t.u(m) * t.u(n),
       lambda t, n, m: 2 * t.qp(m) * t.v(n-m),
       "v(n)*v(m) - (p^2-4q)*u(m)*u(n) = 2*q^m*v(n-m)",
       Derivation("cor1.45", lambda A: dict(A), _V)),
    _I("cor2.65", "65", "nmr",
       lambda t, n, m, r: t.u(2*r) * t.u(n+m),
       lambda t, n, m, r: t.u(n+r) * t.u(m+r) - t.qp(2*r) * t.u(m-r) * t.u(n-r),
       "u(2r)*u(n+m) = u(n+r)*u(m+r) - q^(2r)*u(m-r)*u(n-r)",
       Derivation("cor1.49", lambda A: dict(A), _U)),
    _I("cor2.66", "66", "nmr",
       lambda t, n, m, r: t.u(2*r) * t.v(n+m),
       lambda t, n, m, r: t.u(n+r) * t.v(m+r) - t.qp(2*r) * t.u(n-r) * t.v(m-r),
       "u(2r)*v(n+m) = u(n+r)*v(m+r) - q^(2r)*u(n-r)*v(m-r)",
       Derivation("cor1.49", lambda A: dict(A), _V)),
    _I("cor2.67", "67", "nr",
       lambda t, n, r: t.u(2*r) * t.u(2*n),
       lambda t, n, r: t.u(n+r)**2 - t.qp(2*r) * t.u(n-r)**2,
       "u(2r)*u(2n) = u(n+r)^2 - q^(2r)*u(n-r)^2",
       Derivation("cor1.50", lambda A: dict(A), _U)),
    _I("cor2.68", "68", "nr",
       lambda t, n, r: t.u(2*r) * t.v(2*n),
       lambda t, n, r: t.u(2*(n+r)) - t.qp(2*r) * t.u(2*(n-r)),
       "u(2r)*v(2n) = u(2(n+r)) - q^(2r)*u(2(n-r))",
       Derivation("cor1.50", lambda A: dict(A), _V)),
    _I("cor2.69", "69", "n",
       lambda t, n: t.p * t.u(2*n),
       lambda t, n: t.u(n+1)**2 - t.q**2 * t.u(n-1)**2,
       "p*u(2n) = u(n+1)^2 - q^2*u(n-1)^2",
       Derivation("cor1.54", lambda A: dict(A), _U)),
    _I("cor2.70", "70", "n",
       lambda t, n: t.p * t.v(2*n),
       lambda t, n: t.u(2*(n+1)) - t.q**2 * t.u(2*(n-1)),
       "p*v(2n) = u(2(n+1)) - q^2*u(2(n-1))",
       Derivation("cor1.54", lambda A: dict(A), _V)),
    _I("cor2.71", "71", "nst",
       lambda t, n, s, t_: t.u(t_) * t.u(n),
       lambda t, n, s, t_: t.u(s) * t.u(n+t_-s) - t.qp(t_) * t.u(s-t_) * t.u(n-s),
       "u(t)*u(n) = u(s)*u(n+t-s) - q^t*u(s-t)*u(n-s)",
       Derivation("cor1.56", lambda A: dict(A), _U)),
    _I("cor2.72", "72", "nst",
       lambda t, n, s, t_: t.u(t_) * t.v(n),
       lambda t, n, s, t_: t.u(s) * t.v(n+t_-s) - t.qp(t_) * t.u(s-t_) * t.v(n-s),
       "u(t)*v(n) = u(s)*v(n+t-s) - q^t*u(s-t)*v(n-s)",
       Derivation("cor1.56", lambda A: dict(A), _V)),
    _I("cor2.73", "73", "nt",
       lambda t, n, t_: t.u(n) * t.v(t_) + t.u(t_) * t.v(n),
       lambda t, n, t_: 2 * t.u(n+t_),
       "u(n)*v(t) + u(t)*v(n) = 2*u(n+t)",
       Derivation("cor1.58", lambda A: {"n": A["n"], "s": 0, "t": A["t"]}, _V)),
    _I("cor2.74", "74", "nt",
       lambda t, n, t_: t.u(n)**2 * t.v(t_)**2 - t.u(t_)**2 * t.v(n)**2,
       lambda t, n, t_: 4 * t.qp(t_) * t.u(n+t_) * t.u(n-t_),
       "u(n)^2*v(t)^2 - u(t)^2*v(n)^2 = 4*q^t*u(n+t)*u(n-t)"),
    _I("cor2.75", "75", "n",
       lambda t, n: t.p**2 * t.u(n)**2 - t.v(n)**2,
       lambda t, n: 4 * t.q * t.u(n+1) * t.u(n-1),
       "p^2*u(n)^2 - v(n)^2 = 4*q*u(n+1)*u(n-1)",
       Derivation("cor2.74", lambda A: {"n": A["n"], "t": 1})),
]

REGISTRY = {ident.key: ident for ident in _ENTRIES}
assert len(REGISTRY) == len(_ENTRIES), "duplicate identity key"


def _lookup(key: str) -> Identity:
    try:
        return REGISTRY[key]
    except KeyError:
        raise UnknownIdentity(f"no identity with key {key!r}") from None


def list_identities():
    """All (key, free-variable signature, tag) triples, registry order."""
    return [(i.key, i.variables, i.tag) for i in REGISTRY.values()]


def _call(fn, ctx, assignment):
    # identity lambdas name the variable t as t_ to avoid clashing with the
    # context argument
    kwargs = {("t_" if k == "t" else k): v for k, v in assignment.items()}
    return fn(ctx, **kwargs)


def evaluate(key: str, params: HoradamParams, assignment: dict,
             ctx=None) -> VerificationReport:
    """Evaluate both sides of an identity at an integer assignment.

    The two sides are computed only through sequence-term evaluations.
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
    try:
        lhs = _call(ident.lhs, ctx, assignment)
        rhs = _call(ident.rhs, ctx, assignment)
    except HoradamError as exc:
        return VerificationReport(key, dict(assignment), None, None, error=str(exc))
    return VerificationReport(key, dict(assignment), lhs, rhs)


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

    One parameter set is drawn per trial and shared (with a common term
    cache) across all requested identities; indices are drawn per identity.
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
        for ident in idents:
            asg = sampler.draw_assignment(rng, ident.variables)
            report = evaluate(ident.key, params, asg, ctx=ctx)
            if report.equal:
                passes[ident.key] += 1
            elif counterexamples[ident.key] is None:
                counterexamples[ident.key] = report
    stats = tuple(IdentityStats(i.key, trials, passes[i.key], counterexamples[i.key])
                  for i in idents)
    return FuzzReport(seed, trials, sampler, stats)
