"""Summation theorems over Horadam terms, evaluated three independent ways.

Each theorem variant is written out verbatim (summand, leading factor,
closed form). `theorem_sum` / `reciprocal_sum` compute:

  1. the direct sum of the displayed left side,
  2. the displayed closed form,
  3. the same quantity through the generic lemma engine, instantiated with
     the configuration from which the theorem follows,

and require all three to agree exactly. Assignments that zero a lemma
coefficient raise GuardViolation; reciprocal sums whose denominator window
contains a vanishing term raise SingularSummand. Wrong numbers are never
returned silently.

Theorems 2 and 4 share the configuration h=u(r-s), f1=u(m-s),
f2=-q^(r-s)*u(m-r), c=m-r, d=m-s over w; theorems 3 and 5 use h=w(m+r),
f1=q^(r-s)*w(m+s), f2=u(r-s), c=r-s, d=0 connecting u with shifted w;
theorem 6 reuses the theorem-2 configuration in the reciprocal lemmas.
Variants 4-6 (or the second variant, for theorems 3 and 5) arise from the
swap (r, s) -> (-s, -r).

Two displayed equations in the source are misprints and are implemented in
the form their own derivation produces (they are otherwise false): the
second/fifth variants of theorem 2 carry q^((r-s)(k-j)) inside the sum and
no q-power on the right side.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import GuardViolation
from .field import binomial, format_scalar
from .lemmas import (
    RecurrenceConfig,
    _denominator_window,
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from .sequences import HoradamParams, SequenceKind, TermContext

VARIANT_COUNT = {2: 6, 3: 2, 4: 6, 5: 2, 6: 6}


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


# Variant tables. Each entry:
#   swap: apply (r,s)->(-s,-r) before using the base formulas
#   prefix(t,n,m,r,s,k): factor multiplying the sum on the displayed left side
#   summand(t,n,m,r,s,k,j)
#   closed(t,n,m,r,s,k): displayed right side
#   factor(t,n,m,r,s,k): scale turning the lemma report (see _lemma) into
#     the displayed left side

def _one(t, n, m, r, s, k):
    return 1


def _alternating(t, n, m, r, s, k):
    return (-1) ** k


def _t2_variant(base, swap):
    if base == 1:
        def summand(t, n, m, r, s, k, j):
            return ((-1) ** j * t.qp((r - s) * (k - j)) * binomial(k, j)
                    * t.u(m - s) ** j * t.u(m - r) ** (k - j)
                    * t.w(n - (m - s) * k + (r - s) * j))

        def closed(t, n, m, r, s, k):
            return (-1) ** k * t.u(r - s) ** k * t.w(n)
    elif base == 2:
        # corrected misprint: q^((r-s)(k-j)) inside, no q-power on the right
        def summand(t, n, m, r, s, k, j):
            return (t.qp((r - s) * (k - j)) * binomial(k, j)
                    * t.u(r - s) ** j * t.u(m - r) ** (k - j)
                    * t.w(n - (r - s) * k + (m - s) * j))

        def closed(t, n, m, r, s, k):
            return t.u(m - s) ** k * t.w(n)
    else:
        def summand(t, n, m, r, s, k, j):
            return ((-1) ** j * binomial(k, j)
                    * t.u(r - s) ** j * t.u(m - s) ** (k - j)
                    * t.w(n + (r - s) * k + (m - r) * j))

        def closed(t, n, m, r, s, k):
            return t.qp((r - s) * k) * t.u(m - r) ** k * t.w(n)

    return dict(swap=swap, prefix=_one, summand=summand, closed=closed,
                factor=_one if base == 3 else _alternating)


def _t4_variant(base, swap):
    if base == 1:
        def prefix(t, n, m, r, s, k):
            return -t.qp(r - s) * t.u(m - r)

        def summand(t, n, m, r, s, k, j):
            return (t.u(m - s) ** (k - j) * t.u(r - s) ** j
                    * t.w(n - (m - r) * k - (m - s) + (m - r) * j))

        def closed(t, n, m, r, s, k):
            return (t.u(r - s) ** (k + 1) * t.w(n)
                    - t.u(m - s) ** (k + 1) * t.w(n - (m - r) * (k + 1)))

        factor = _one
    elif base == 2:
        def prefix(t, n, m, r, s, k):
            return (-1) ** k * t.u(m - s)

        def summand(t, n, m, r, s, k, j):
            return ((-1) ** j * t.qp((r - s) * (k - j))
                    * t.u(m - r) ** (k - j) * t.u(r - s) ** j
                    * t.w(n - (m - s) * k - (m - r) + (m - s) * j))

        def closed(t, n, m, r, s, k):
            return (t.u(r - s) ** (k + 1) * t.w(n)
                    - (-1) ** (k + 1) * t.qp((r - s) * (k + 1))
                    * t.u(m - r) ** (k + 1) * t.w(n - (m - s) * (k + 1)))

        factor = _one
    else:
        def prefix(t, n, m, r, s, k):
            return t.u(r - s)

        def summand(t, n, m, r, s, k, j):
            return (t.qp((s - r) * j) * t.u(m - r) ** (k - j) * t.u(m - s) ** j
                    * t.w(n - (r - s) * k + (m - r) + (r - s) * j))

        def closed(t, n, m, r, s, k):
            return (t.qp((s - r) * k) * t.u(m - s) ** (k + 1) * t.w(n)
                    - t.qp(r - s) * t.u(m - r) ** (k + 1)
                    * t.w(n - (r - s) * (k + 1)))

        def factor(t, n, m, r, s, k):
            return (-1) ** k * t.qp((s - r) * k)

    return dict(swap=swap, prefix=prefix, summand=summand, closed=closed, factor=factor)


def _t3_variant(base, swap):
    def prefix(t, n, m, r, s, k):
        return t.u(r - s)

    def summand(t, n, m, r, s, k, j):
        return (t.qp((s - r) * j) * t.w(m + s) ** (k - j) * t.w(m + r) ** j
                * t.w(n - (r - s) * k + m + s + (r - s) * j))

    def closed(t, n, m, r, s, k):
        return (t.qp((s - r) * k) * t.u(n) * t.w(m + r) ** (k + 1)
                - t.qp(r - s) * t.u(n - (r - s) * (k + 1)) * t.w(m + s) ** (k + 1))

    def factor(t, n, m, r, s, k):
        return t.qp((s - r) * k)

    return dict(swap=swap, prefix=prefix, summand=summand, closed=closed, factor=factor)


def _t5_variant(base, swap):
    def prefix(t, n, m, r, s, k):
        return t.u(n) * t.u(n - (r - s) * (k + 1)) * t.u(r - s)

    def summand(t, n, m, r, s, k, j):
        e = r - s
        return (t.qp(e * j) * t.w(m + r) ** (k - j) * t.w(m + s) ** j
                * t.w(n + m + s - e * k + e * j)
                / (t.u(n - e * k + e * j) * t.u(n - e - e * k + e * j)))

    def closed(t, n, m, r, s, k):
        e = r - s
        return (t.u(n) * t.w(m + r) ** (k + 1)
                - t.qp(e * (k + 1)) * t.u(n - e * (k + 1)) * t.w(m + s) ** (k + 1))

    return dict(swap=swap, prefix=prefix, summand=summand, closed=closed, factor=_one)


def _t6_variant(base, swap):
    # bases 1 and 2 share theorem 4's closed form; base 3 has its own
    closed = _t4_variant(base, swap)["closed"]
    if base == 1:
        def prefix(t, n, m, r, s, k):
            return -t.qp(r - s) * t.u(m - r) * t.w(n) * t.w(n - (m - r) * (k + 1))

        def summand(t, n, m, r, s, k, j):
            c = m - r
            return (t.u(r - s) ** (k - j) * t.u(m - s) ** j
                    * t.w(n - m + s - c * k + c * j)
                    / (t.w(n - c * k + c * j) * t.w(n - c - c * k + c * j)))
    elif base == 2:
        def prefix(t, n, m, r, s, k):
            return t.u(m - s) * t.w(n) * t.w(n - (m - s) * (k + 1))

        def summand(t, n, m, r, s, k, j):
            d = m - s
            return ((-1) ** j * t.qp((r - s) * j)
                    * t.u(r - s) ** (k - j) * t.u(m - r) ** j
                    * t.w(n - (m - r) - d * k + d * j)
                    / (t.w(n - d * k + d * j) * t.w(n - d - d * k + d * j)))
    else:
        def prefix(t, n, m, r, s, k):
            return t.u(r - s) * t.w(n) * t.w(n - (r - s) * (k + 1))

        def summand(t, n, m, r, s, k, j):
            e = r - s
            return (t.qp(e * j) * t.u(m - s) ** (k - j) * t.u(m - r) ** j
                    * t.w(n + m - r - e * k + e * j)
                    / (t.w(n - e * k + e * j) * t.w(n - e - e * k + e * j)))

        def closed(t, n, m, r, s, k):
            e = r - s
            return (t.u(m - s) ** (k + 1) * t.w(n)
                    - t.qp(e * (k + 1)) * t.u(m - r) ** (k + 1)
                    * t.w(n - e * (k + 1)))

    return dict(swap=swap, prefix=prefix, summand=summand, closed=closed, factor=_one)


# The second half of each theorem's variants repeats the base forms of the
# first half after the swap; theorems 3 and 5 have one base form.
_BUILDERS = {2: _t2_variant, 3: _t3_variant, 4: _t4_variant, 5: _t5_variant, 6: _t6_variant}
_VARIANTS = {(theorem, v): _BUILDERS[theorem](1 + (v - 1) % (count // 2), swap=v > count // 2)
             for theorem, count in VARIANT_COUNT.items() for v in range(1, count + 1)}


def _denominator_stride(sel: TheoremSelector, n, m, r, s):
    """Stride of the denominator window (reciprocal theorems only)."""
    if sel.theorem == 5:
        return r - s
    return {1: m - r, 2: m - s, 3: r - s}[1 + (sel.variant - 1) % 3]


def _context(sel: TheoremSelector, params: HoradamParams) -> TermContext:
    return TermContext(params.specialized(sel.kind))


def _effective(sel, n, m, r, s):
    if _VARIANTS[(sel.theorem, sel.variant)]["swap"]:
        return n, m, -s, -r
    return n, m, r, s


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
    base = 1 + (sel.variant - 1) % 3
    if sel.theorem == 2:
        return lemma3_binomial_sums(cfg, X, n, k, base)
    if sel.theorem == 3:
        return lemma1_sum(cfg, X, Y, n, k)
    if sel.theorem == 4:
        return lemma2_sums(cfg, X, n, k, base)
    if sel.theorem == 5:
        return lemma45_reciprocal(cfg, X, Y, n, k, "L4")
    return lemma45_reciprocal(cfg, X, X, n, k, ("L5a", "L5b", "L5c")[base - 1])


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
    t = _context(sel, params)
    eff = _effective(sel, n, m, r, s)
    return list(_denominator_window(t.u if sel.theorem == 5 else t.w, eff[0],
                                    _denominator_stride(sel, *eff), k))


def _evaluate(sel: TheoremSelector, params: HoradamParams,
              n: int, m: int, r: int, s: int, k: int) -> SumReport:
    if k < 0:
        raise ValueError("summation bound k must be >= 0")
    spec = _VARIANTS[(sel.theorem, sel.variant)]
    t = _context(sel, params)
    eff = _effective(sel, n, m, r, s)
    cfg, X, Y = _relation(t, sel, *eff)

    notes = []
    if sel.theorem == 2 and k == 0:
        notes.append("k=0 is outside the stated hypothesis (positive k); "
                     "the sum still evaluates")

    # first, so that the lemma's denominator scan raises SingularSummand
    # before the direct sum divides by a vanishing term
    rep = _lemma(sel, cfg, X, Y, eff[0], k)
    lemma_lhs = spec["factor"](t, *eff, k) * rep.lhs
    direct = spec["prefix"](t, *eff, k) * sum(
        spec["summand"](t, *eff, k, j) for j in range(k + 1))
    closed = spec["closed"](t, *eff, k)

    assignment = dict(n=n, m=m, r=r, s=s, k=k)
    return SumReport(sel, assignment, direct, closed, lemma_lhs, tuple(notes))


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
