"""Summation theorems over Horadam terms, evaluated three independent ways.

Each theorem has one to three base forms, each written once as the formula
`horadam sum` displays (`_BASES`). Its two sides are compiled from that text
at import by the catalog's helper and grammar (`catalog.compile_sides`;
`sum_{j=0}^{k}`, `C(k,j)` and nested `q^((r-s)(k-j))` are part of it), so
what is displayed is what is evaluated. `theorem_sum` / `reciprocal_sum`
compute:

  1. the direct sum of the displayed left side,
  2. the displayed right side, the closed form,
  3. the same quantity through the generic lemma engine, instantiated with
     the configuration from which the theorem follows,

and require all three to agree exactly. The legs, the guards and the
denominator scan run on the checker accessor of one `TermContext`
(`sequences.Terms`, over unreduced `Ratio` pairs); each leg is reduced to
a `Fraction` once, for the `SumReport`. Assignments that zero a lemma
coefficient raise GuardViolation; reciprocal sums whose denominator window
contains a vanishing term raise SingularSummand. Wrong numbers are never
returned silently.

Theorems 2 and 4 share the configuration h=u(r-s), f1=u(m-s),
f2=-q^(r-s)*u(m-r), c=m-r, d=m-s over w; theorems 3 and 5 use h=w(m+r),
f1=q^(r-s)*w(m+s), f2=u(r-s), c=r-s, d=0 connecting u with shifted w;
theorem 6 reuses the theorem-2 configuration in the reciprocal lemmas. The
variants past the base forms (4-6, or 2 for theorems 3 and 5) evaluate a
base form after the swap (r, s) -> (-s, -r). The lemma leg is code, not
display text: each base form's `factor` scales the lemma report into the
displayed left side.

Two displayed equations in the source are misprints (they are otherwise
false); theorem 2's second base form is written as its own derivation
produces it, and its formula's note says what was corrected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .catalog import compile_sides
from .errors import GuardViolation
from .field import format_scalar, reduced
from .lemmas import (
    RecurrenceConfig,
    _denominator_window,
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from .sequences import HoradamParams, SequenceKind, TermContext, Terms


def _one(t, n, m, r, s, k):
    return 1


def _alternating(t, n, m, r, s, k):
    return (-1) ** k


# theorem 4's first two closed forms, which theorem 6 shares
_T4_CLOSED = (
    "u(r-s)^(k+1)*w(n) - u(m-s)^(k+1)*w(n-(m-r)(k+1))",
    "u(r-s)^(k+1)*w(n) - (-1)^(k+1)*q^((r-s)(k+1))*u(m-r)^(k+1)*w(n-(m-s)(k+1))",
)

# theorem -> [(displayed base form over n, m, r, s, k, factor)]; factor(t,
# n, m, r, s, k) scales the lemma report (see _lemma) into the left side
_BASES = {
    2: [("sum_{j=0}^{k} (-1)^j*q^((r-s)(k-j))*C(k,j)*u(m-s)^j*u(m-r)^(k-j)"
         "*w(n-(m-s)k+(r-s)j) = (-1)^k*u(r-s)^k*w(n)", _alternating),
        ("sum_{j=0}^{k} q^((r-s)(k-j))*C(k,j)*u(r-s)^j*u(m-r)^(k-j)"
         "*w(n-(r-s)k+(m-s)j) = u(m-s)^k*w(n)"
         " # misprint corrected: q^((r-s)(k-j)) inside the sum, no q-power on the right",
         _alternating),
        ("sum_{j=0}^{k} (-1)^j*C(k,j)*u(r-s)^j*u(m-s)^(k-j)*w(n+(r-s)k+(m-r)j)"
         " = q^((r-s)k)*u(m-r)^k*w(n)", _one)],
    3: [("u(r-s)*sum_{j=0}^{k} q^((s-r)j)*w(m+s)^(k-j)*w(m+r)^j*w(n-(r-s)k+m+s+(r-s)j)"
         " = q^((s-r)k)*u(n)*w(m+r)^(k+1) - q^(r-s)*u(n-(r-s)(k+1))*w(m+s)^(k+1)",
         lambda t, n, m, r, s, k: t.qp((s - r) * k))],
    4: [("-q^(r-s)*u(m-r)*sum_{j=0}^{k} u(m-s)^(k-j)*u(r-s)^j*w(n-(m-r)k-(m-s)+(m-r)j)"
         f" = {_T4_CLOSED[0]}", _one),
        ("(-1)^k*u(m-s)*sum_{j=0}^{k} (-1)^j*q^((r-s)(k-j))*u(m-r)^(k-j)*u(r-s)^j"
         f"*w(n-(m-s)k-(m-r)+(m-s)j) = {_T4_CLOSED[1]}", _one),
        ("u(r-s)*sum_{j=0}^{k} q^((s-r)j)*u(m-r)^(k-j)*u(m-s)^j*w(n-(r-s)k+(m-r)+(r-s)j)"
         " = q^((s-r)k)*u(m-s)^(k+1)*w(n) - q^(r-s)*u(m-r)^(k+1)*w(n-(r-s)(k+1))",
         lambda t, n, m, r, s, k: (-1) ** k * t.qp((s - r) * k))],
    5: [("u(n)*u(n-(r-s)(k+1))*u(r-s)*sum_{j=0}^{k} q^((r-s)j)*w(m+r)^(k-j)*w(m+s)^j"
         "*w(n+m+s-(r-s)k+(r-s)j)/(u(n-(r-s)k+(r-s)j)*u(n-(r-s)-(r-s)k+(r-s)j))"
         " = u(n)*w(m+r)^(k+1) - q^((r-s)(k+1))*u(n-(r-s)(k+1))*w(m+s)^(k+1)", _one)],
    6: [("-q^(r-s)*u(m-r)*w(n)*w(n-(m-r)(k+1))*sum_{j=0}^{k} u(r-s)^(k-j)*u(m-s)^j"
         "*w(n-m+s-(m-r)k+(m-r)j)/(w(n-(m-r)k+(m-r)j)*w(n-(m-r)-(m-r)k+(m-r)j))"
         f" = {_T4_CLOSED[0]}", _one),
        ("u(m-s)*w(n)*w(n-(m-s)(k+1))*sum_{j=0}^{k} (-1)^j*q^((r-s)j)*u(r-s)^(k-j)*u(m-r)^j"
         "*w(n-(m-r)-(m-s)k+(m-s)j)/(w(n-(m-s)k+(m-s)j)*w(n-(m-s)-(m-s)k+(m-s)j))"
         f" = {_T4_CLOSED[1]}", _one),
        ("u(r-s)*w(n)*w(n-(r-s)(k+1))*sum_{j=0}^{k} q^((r-s)j)*u(m-s)^(k-j)*u(m-r)^j"
         "*w(n+m-r-(r-s)k+(r-s)j)/(w(n-(r-s)k+(r-s)j)*w(n-(r-s)-(r-s)k+(r-s)j))"
         " = u(m-s)^(k+1)*w(n) - q^((r-s)(k+1))*u(m-r)^(k+1)*w(n-(r-s)(k+1))", _one)],
}

# each base form once as given, once after the swap
VARIANT_COUNT = {theorem: 2 * len(bases) for theorem, bases in _BASES.items()}

# (theorem, base) -> (direct sum, closed form, factor)
_FORMS = {(theorem, base): (*compile_sides("nmrsk", formula), factor)
          for theorem, bases in _BASES.items()
          for base, (formula, factor) in enumerate(bases, 1)}


@dataclass(frozen=True)
class TheoremSelector:
    theorem: int
    variant: int
    kind: SequenceKind = SequenceKind.W

    def __post_init__(self):
        if self.theorem not in VARIANT_COUNT:
            raise ValueError(f"theorem must be one of {sorted(VARIANT_COUNT)}")
        if not 1 <= self.variant <= VARIANT_COUNT[self.theorem]:
            raise ValueError(
                f"theorem {self.theorem} has variants 1..{VARIANT_COUNT[self.theorem]}")

    @property
    def base(self) -> int:
        """The base form (numbered from 1) that the variant evaluates."""
        return 1 + (self.variant - 1) % len(_BASES[self.theorem])

    @property
    def swapped(self) -> bool:
        """True when the variant evaluates its base form at (r, s) -> (-s, -r)."""
        return self.variant > len(_BASES[self.theorem])

    @property
    def formula(self) -> str:
        """The evaluated base form as displayed, with w read as the selected kind."""
        return _BASES[self.theorem][self.base - 1][0].replace("w(", f"{self.kind.value}(")


@dataclass(frozen=True)
class SumReport:
    selector: TheoremSelector
    assignment: dict
    lhs: Any            # direct sum of the displayed left side
    rhs: Any            # displayed closed form
    lemma_lhs: Any      # displayed left side via the lemma engine
    notes: tuple = ()

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs == self.lemma_lhs

    def to_dict(self) -> dict:
        return {
            "theorem": self.selector.theorem,
            "variant": self.selector.variant,
            "kind": self.selector.kind.value,
            "assignment": {k: self.assignment[k] for k in sorted(self.assignment)},
            "direct_sum": format_scalar(self.lhs),
            "closed_form": format_scalar(self.rhs),
            "lemma_engine": format_scalar(self.lemma_lhs),
            "equal": self.equal,
            "notes": list(self.notes),
        }


def _denominator_stride(sel: TheoremSelector, n, m, r, s):
    """Stride of the denominator window (reciprocal theorems only)."""
    if sel.theorem == 5:
        return r - s
    return {1: m - r, 2: m - s, 3: r - s}[sel.base]


def _context(sel: TheoremSelector, params: HoradamParams) -> TermContext:
    return TermContext(params.specialized(sel.kind))


def _effective(sel, n, m, r, s):
    return (n, m, -s, -r) if sel.swapped else (n, m, r, s)


def _relation(t, sel, n, m, r, s):
    """(cfg, X, Y): the three-term relation the selected theorem follows from.

    Raises GuardViolation for the first of its coefficient terms that is zero.
    """
    if sel.theorem in (3, 5):
        # u linked with the shifted w-sequence: h=w(m+r), f1=q^(r-s)*w(m+s),
        # f2=u(r-s), offsets c=r-s, d=0
        terms = [(f"w({m + r})", t.w(m + r)), (f"w({m + s})", t.w(m + s)),
                 (f"u({r - s})", t.u(r - s))]
    else:
        # satisfied by every w-shift: h=u(r-s), f1=u(m-s), f2=-q^(r-s)*u(m-r),
        # offsets c=m-r, d=m-s
        terms = [(f"u({r - s})", t.u(r - s)), (f"u({m - s})", t.u(m - s)),
                 (f"u({m - r})", t.u(m - r))]
    for name, value in terms:
        if value == 0:
            raise GuardViolation(name, f"theorem {sel.theorem} variant {sel.variant}")
    (_, h), (_, f1), (_, f2) = terms
    if sel.theorem in (3, 5):
        return (RecurrenceConfig(h, t.qp(r - s) * f1, f2, r - s, 0),
                t.u, lambda i: t.w(i + m + s))
    return RecurrenceConfig(h, f1, -t.qp(r - s) * f2, m - r, m - s), t.w, t.w


def _lemma(sel, cfg, X, Y, n, k):
    """The lemma-engine report the selected theorem follows from."""
    if sel.theorem == 2:
        return lemma3_binomial_sums(cfg, X, n, k, sel.base)
    if sel.theorem == 3:
        return lemma1_sum(cfg, X, Y, n, k)
    if sel.theorem == 4:
        return lemma2_sums(cfg, X, n, k, sel.base)
    if sel.theorem == 5:
        return lemma45_reciprocal(cfg, X, Y, n, k, "L4")
    return lemma45_reciprocal(cfg, X, X, n, k, ("L5a", "L5b", "L5c")[sel.base - 1])


def singularity_scan(sel: TheoremSelector, params: HoradamParams,
                     n: int, m: int, r: int, s: int, k: int) -> list:
    """Every distinct denominator index the selected sum touches, with a
    zero flag: entries (j, index, is_zero), j = first summand using it.

    Non-reciprocal selections have no denominators and scan empty.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if sel.theorem not in (5, 6):
        return []
    t = Terms(_context(sel, params))
    eff = _effective(sel, n, m, r, s)
    return list(_denominator_window(t.u if sel.theorem == 5 else t.w, eff[0],
                                    _denominator_stride(sel, *eff), k))


def _evaluate(sel: TheoremSelector, params: HoradamParams,
              n: int, m: int, r: int, s: int, k: int) -> SumReport:
    if k < 0:
        raise ValueError("summation bound k must be >= 0")
    lhs, rhs, factor = _FORMS[sel.theorem, sel.base]
    t = Terms(_context(sel, params))
    eff = _effective(sel, n, m, r, s)
    cfg, X, Y = _relation(t, sel, *eff)

    notes = []
    if sel.theorem == 2 and k == 0:
        notes.append("k=0 is outside the stated hypothesis (positive k); "
                     "the sum still evaluates")

    # first, so that the lemma's denominator scan raises SingularSummand
    # before the direct sum divides by a vanishing term
    rep = _lemma(sel, cfg, X, Y, eff[0], k)
    lemma_lhs = factor(t, *eff, k) * rep.lhs
    direct = lhs(t, *eff, k)
    closed = rhs(t, *eff, k)

    assignment = dict(n=n, m=m, r=r, s=s, k=k)
    return SumReport(sel, assignment, reduced(direct), reduced(closed), reduced(lemma_lhs),
                     tuple(notes))


def theorem_sum(sel: TheoremSelector, params: HoradamParams,
                n: int, m: int, r: int, s: int, k: int) -> SumReport:
    """Evaluate a theorem 2/3/4 variant three ways; all must agree exactly."""
    if sel.theorem not in (2, 3, 4):
        raise ValueError("theorem_sum handles theorems 2-4; "
                         "use reciprocal_sum for 5 and 6")
    return _evaluate(sel, params, n, m, r, s, k)


def reciprocal_sum(sel: TheoremSelector, params: HoradamParams,
                   n: int, m: int, r: int, s: int, k: int) -> SumReport:
    """Evaluate a reciprocal theorem (5 or 6) variant three ways."""
    if sel.theorem not in (5, 6):
        raise ValueError("reciprocal_sum handles theorems 5 and 6")
    return _evaluate(sel, params, n, m, r, s, k)
