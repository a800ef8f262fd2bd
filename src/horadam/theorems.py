"""Summation theorems over Horadam terms, evaluated three independent ways.

Each theorem has one to three base forms, each written once as the formula
`horadam sum` displays (`_BASES`), in the grammar of `formula`. Its two
sides and factor are compiled together, once per field (`_Form.pairs`,
`_Form.values`), and so are its relation's coefficients
(`_Relation.pairs`, `_Relation.values`), each from its text on first use,
so what is displayed is what is evaluated, and an import compiles none of
them. `theorem_sum` takes every theorem, 2-6, and computes:

  1. the direct sum of the displayed left side,
  2. the displayed right side, the closed form,
  3. the same quantity through the generic lemma engine, instantiated with
     the configuration from which the theorem follows: the left side alone
     of the lemma variant the base form names, from `lemmas._lemma` on the
     plain coefficient tuple (the lemma's own right side is not computed,
     nor a `LemmaReport` built),

and require all three to agree exactly. The legs, the guards and the
denominator scan run on the checker accessor of one `TermContext` for the
caller's parameters, with w read as the selected kind (`sequences.Terms`,
over unreduced `(n, d)` tuples over Q). Over Q the direct sum is reduced to
a `Fraction` once, for the `SumReport`; the closed form and the lemma leg
are compared to it by cross-multiplying and report that `Fraction` when
equal, and a leg that differs is reduced to its own value. Every
compiled record follows one rule: `values` runs on the operators, `pairs`
on integer pairs. Over Q every leg runs on integer pairs: a form's
`pairs`, one function compiled from the displayed sides and the factor
(`formula.compile_pairs`, the pair compiler that also writes `fuzz`'s
trial chunks), reads the same terms as its `values`, the left side, the
right side, then the factor, but reads a term in a sum whose index has no
j once, before the sum's loop; the relation's coefficients
(`_Relation.pairs`) come from the same compiler, and the guard tests
their numerators. The lemma's probe checks each point with one integer
comparison, and folds lemma 1's and L4's sums from the terms it has just
checked there; it and lemma 3's sum are written in `lemmas`, so the sums of
leg 3 run on code that the pair compiler does not generate. Over GF(M)
the form's and the relation's `values` run on the `ModInt` operators, as
`catalog.evaluate` does.
Assignments that zero a lemma coefficient raise GuardViolation; reciprocal
sums whose denominator window contains a vanishing term raise
SingularSummand. Wrong numbers are never returned silently.

Each theorem follows from one of two three-term relations (`_RELATIONS`,
each one `_Relation` from `_relation_of`, whose members compile on first
use). Each base form names the lemma variant it follows from by its label
in the lemma table ("lemma 2 variant 1", "L5c"), and carries its lemma
factor: the relations and factors are text in the same grammar, and a
guard names the term that `formula.reads` finds in its coefficient. The
lemma sums are written in `lemmas`, whose probe checks the
relation first, and which derives a reciprocal variant's denominator window
(the singularity scan's too) from its label and the relation's offsets. The
variants past the base forms (4-6, or 2 for theorems 3 and 5) evaluate a
base form after the swap (r, s) -> (-s, -r).

Two displayed equations in the source are misprints (they are otherwise
false); theorem 2's second base form is written as its own derivation
produces it, and its formula's note says what was corrected.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Any, Callable

from .errors import GuardViolation, require_int
from .field import format_scalar
from .formula import (as_kind, assignments, compile_expression, compile_pairs, compile_tuple,
                      reads, sides)
from .lemmas import _denominator_window, _lemma
# The lemma leg calls the private form above. The public lemma functions stay
# importable from here: perfbench/layers.py rebinds them on this module by name.
from .lemmas import (  # noqa: F401
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from .sequences import HoradamParams, SequenceKind, TermContext, Terms

# h*X(i) = f1*X(i-c) + f2*Y(i-d) over n, m, r, s: each coefficient is one
# term, which its guard names, times a scale that cannot vanish (q != 0)
_OVER_W = "h=u(r-s), f1=u(m-s), f2=-q^(r-s)*u(m-r), c=m-r, d=m-s, X=w(i), Y=w(i)"
_U_TO_W = "h=w(m+r), f1=q^(r-s)*w(m+s), f2=u(r-s), c=r-s, d=0, X=u(i), Y=w(i+m+s)"
_RELATIONS = {2: _OVER_W, 3: _U_TO_W, 4: _OVER_W, 5: _U_TO_W, 6: _OVER_W}

# theorem 4's first two closed forms, which theorem 6 shares
_T4_CLOSED = (
    "u(r-s)^(k+1)*w(n) - u(m-s)^(k+1)*w(n-(m-r)(k+1))",
    "u(r-s)^(k+1)*w(n) - (-1)^(k+1)*q^((r-s)(k+1))*u(m-r)^(k+1)*w(n-(m-s)(k+1))",
)

# theorem -> [(displayed base form, lemma variant, factor)] over n, m, r, s,
# k: the form follows from the named variant (a key of lemmas._VARIANTS) on
# the theorem's relation, and the factor scales that variant's left side into
# the displayed one
_BASES = {
    2: [("sum_{j=0}^{k} (-1)^j*q^((r-s)(k-j))*C(k,j)*u(m-s)^j*u(m-r)^(k-j)"
         "*w(n-(m-s)k+(r-s)j) = (-1)^k*u(r-s)^k*w(n)", "lemma 3 variant 1", "(-1)^k"),
        ("sum_{j=0}^{k} q^((r-s)(k-j))*C(k,j)*u(r-s)^j*u(m-r)^(k-j)"
         "*w(n-(r-s)k+(m-s)j) = u(m-s)^k*w(n)"
         " # misprint corrected: q^((r-s)(k-j)) inside the sum, no q-power on the right",
         "lemma 3 variant 2", "(-1)^k"),
        ("sum_{j=0}^{k} (-1)^j*C(k,j)*u(r-s)^j*u(m-s)^(k-j)*w(n+(r-s)k+(m-r)j)"
         " = q^((r-s)k)*u(m-r)^k*w(n)", "lemma 3 variant 3", "1")],
    3: [("u(r-s)*sum_{j=0}^{k} q^((s-r)j)*w(m+s)^(k-j)*w(m+r)^j*w(n-(r-s)k+m+s+(r-s)j)"
         " = q^((s-r)k)*u(n)*w(m+r)^(k+1) - q^(r-s)*u(n-(r-s)(k+1))*w(m+s)^(k+1)",
         "lemma 1", "q^((s-r)k)")],
    4: [("-q^(r-s)*u(m-r)*sum_{j=0}^{k} u(m-s)^(k-j)*u(r-s)^j*w(n-(m-r)k-(m-s)+(m-r)j)"
         f" = {_T4_CLOSED[0]}", "lemma 2 variant 1", "1"),
        ("(-1)^k*u(m-s)*sum_{j=0}^{k} (-1)^j*q^((r-s)(k-j))*u(m-r)^(k-j)*u(r-s)^j"
         f"*w(n-(m-s)k-(m-r)+(m-s)j) = {_T4_CLOSED[1]}", "lemma 2 variant 2", "1"),
        ("u(r-s)*sum_{j=0}^{k} q^((s-r)j)*u(m-r)^(k-j)*u(m-s)^j*w(n-(r-s)k+(m-r)+(r-s)j)"
         " = q^((s-r)k)*u(m-s)^(k+1)*w(n) - q^(r-s)*u(m-r)^(k+1)*w(n-(r-s)(k+1))",
         "lemma 2 variant 3", "(-1)^k*q^((s-r)k)")],
    5: [("u(n)*u(n-(r-s)(k+1))*u(r-s)*sum_{j=0}^{k} q^((r-s)j)*w(m+r)^(k-j)*w(m+s)^j"
         "*w(n+m+s-(r-s)k+(r-s)j)/(u(n-(r-s)k+(r-s)j)*u(n-(r-s)-(r-s)k+(r-s)j))"
         " = u(n)*w(m+r)^(k+1) - q^((r-s)(k+1))*u(n-(r-s)(k+1))*w(m+s)^(k+1)",
         "L4", "1")],
    6: [("-q^(r-s)*u(m-r)*w(n)*w(n-(m-r)(k+1))*sum_{j=0}^{k} u(r-s)^(k-j)*u(m-s)^j"
         "*w(n-m+s-(m-r)k+(m-r)j)/(w(n-(m-r)k+(m-r)j)*w(n-(m-r)-(m-r)k+(m-r)j))"
         f" = {_T4_CLOSED[0]}", "L5a", "1"),
        ("u(m-s)*w(n)*w(n-(m-s)(k+1))*sum_{j=0}^{k} (-1)^j*q^((r-s)j)*u(r-s)^(k-j)*u(m-r)^j"
         "*w(n-(m-r)-(m-s)k+(m-s)j)/(w(n-(m-s)k+(m-s)j)*w(n-(m-s)-(m-s)k+(m-s)j))"
         f" = {_T4_CLOSED[1]}", "L5b", "1"),
        ("u(r-s)*w(n)*w(n-(r-s)(k+1))*sum_{j=0}^{k} q^((r-s)j)*u(m-s)^(k-j)*u(m-r)^j"
         "*w(n+m-r-(r-s)k+(r-s)j)/(w(n-(r-s)k+(r-s)j)*w(n-(r-s)-(r-s)k+(r-s)j))"
         " = u(m-s)^(k+1)*w(n) - q^((r-s)(k+1))*u(m-r)^(k+1)*w(n-(r-s)(k+1))",
         "L5c", "1")],
}

# each base form once as given, once after the swap
VARIANT_COUNT = {theorem: 2 * len(bases) for theorem, bases in _BASES.items()}


@dataclass(frozen=True)
class _Relation:
    """A relation text (`_RELATIONS`). Each member is compiled from it on
    first use, as a function of the accessor and n, m, r, s: `values`, h,
    f1 and f2 on the operators, read over GF(M); `pairs`, (hn, hd, f1n,
    f1d, f2n, f2d) on integer pairs, read over Q; `shape`, (c, d, X, Y) on
    either field; and `guards`, the (sequence, index function) of the term
    in each of h, f1 and f2, read when one of them is zero."""

    text: str

    @property
    def _coefficients(self) -> list:
        fields = assignments(self.text)
        return [fields[x] for x in ("h", "f1", "f2")]

    @cached_property
    def values(self) -> Callable:
        return compile_tuple("nmrs", self._coefficients)

    @cached_property
    def pairs(self) -> Callable:
        return compile_pairs(self.text, "nmrs", self._coefficients)

    @cached_property
    def shape(self) -> Callable:
        fields = assignments(self.text)
        # a term at i reads the cache itself; a shifted term is read through a closure
        accessors = [member if index == "i" else f"lambda i: {fields[x]}"
                     for x in ("X", "Y") for [(member, index)] in [reads(fields[x])]]
        return compile_tuple("nmrs", [fields["c"], fields["d"], *accessors])

    @cached_property
    def guards(self) -> tuple:
        # h, f1 and f2 each read one u, v or w term, which its guard names
        terms = [[x for x in reads(coefficient) if x[0] in ("u", "v", "w")]
                 for coefficient in self._coefficients]
        return tuple((x, compile_expression("nmrs", index)) for [(x, index)] in terms)


@cache
def _relation_of(text: str) -> _Relation:
    """The one `_Relation` of a relation text, which the forms of every
    theorem that follows from it share."""
    return _Relation(text)


@dataclass(frozen=True)
class _Form:
    """A base form from its `_BASES` entry: the displayed formula, the lemma
    variant's label, the factor text, and the theorem's relation text. Each
    member is compiled from its text on first use: the `relation`, and the
    displayed sides and the factor together, over the accessor and n, m, r,
    s, k, once per field: `values` on the operators (lhs, rhs, factor) and
    `pairs` on integer pairs (ln, ld, rn, rd, fn, fd)."""

    key: str
    formula: str
    variant: str
    factor_text: str
    relation_text: str

    @cached_property
    def relation(self) -> _Relation:
        return _relation_of(self.relation_text)

    @cached_property
    def values(self) -> Callable:
        return compile_tuple("nmrsk", [*sides(self.formula), self.factor_text])

    @cached_property
    def pairs(self) -> Callable:
        return compile_pairs(self.key, "nmrsk", [*sides(self.formula), self.factor_text])


def _form(theorem, formula, variant, factor) -> _Form:
    """The `_BASES` entry (formula, variant, factor) of `theorem`, with the
    theorem's relation text."""
    return _Form(f"theorem {theorem}", formula, variant, factor, _RELATIONS[theorem])


# (theorem, base) -> _Form
_FORMS = {(theorem, base): _form(theorem, *entry)
          for theorem, bases in _BASES.items() for base, entry in enumerate(bases, 1)}


@dataclass(frozen=True)
class TheoremSelector:
    theorem: int
    variant: int
    kind: SequenceKind = SequenceKind.W

    def __post_init__(self):
        require_int("theorem", self.theorem)
        if self.theorem not in VARIANT_COUNT:
            raise ValueError(f"theorem must be one of {sorted(VARIANT_COUNT)}")
        count = VARIANT_COUNT[self.theorem]
        require_int("variant", self.variant)
        if not 1 <= self.variant <= count:
            raise ValueError(f"theorem {self.theorem} has variants 1..{count}")
        if not isinstance(self.kind, SequenceKind):
            raise ValueError(f"kind must be a SequenceKind, got {self.kind!r}")

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
        return as_kind(_BASES[self.theorem][self.base - 1][0], self.kind.value)


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


def _effective(sel, n, m, r, s):
    return (n, m, -s, -r) if sel.swapped else (n, m, r, s)


def _setup(sel, n, m, r, s, k) -> tuple:
    """The selected form's `_Form` and its effective (n, m, r, s)."""
    for name, value in zip("nmrsk", (n, m, r, s, k)):
        require_int(name, value)
    if k < 0:
        raise ValueError("summation bound k must be >= 0")
    return _FORMS[sel.theorem, sel.base], _effective(sel, n, m, r, s)


def _relation(t, rel: _Relation, where: str, n, m, r, s, pairs: bool):
    """((h, f1, f2, c, d), X, Y) on the accessor `t`, h, f1 and f2 as
    `(n, d)` tuples from the pair code when `pairs` (over Q); GuardViolation,
    naming the term, for the first of h, f1 and f2 that is zero."""
    if pairs:
        hn, hd, f1n, f1d, f2n, f2d = rel.pairs(t, n, m, r, s)
        coefficients, zeros = ((hn, hd), (f1n, f1d), (f2n, f2d)), (hn, f1n, f2n)
    else:
        zeros = coefficients = rel.values(t, n, m, r, s)
    if 0 in zeros:
        sequence, index = rel.guards[zeros.index(0)]
        raise GuardViolation(f"{sequence}({index(t, n, m, r, s)})", where)
    c, d, X, Y = rel.shape(t, n, m, r, s)
    return (*coefficients, c, d), X, Y


def singularity_scan(sel: TheoremSelector, params: HoradamParams,
                     n: int, m: int, r: int, s: int, k: int) -> list:
    """Every distinct denominator index the selected sum touches, with a
    zero flag: entries (j, index, is_zero), j = first summand using it.

    The window is the lemma leg's own (`lemmas._denominator_window`), so
    non-reciprocal selections have no denominators and scan empty.
    """
    form, eff = _setup(sel, n, m, r, s, k)
    t = Terms(TermContext(params), sel.kind)
    c, d, X, _ = form.relation.shape(t, *eff)
    return list(_denominator_window(form.variant, c, d, X, eff[0], k))


def theorem_sum(sel: TheoremSelector, params: HoradamParams,
                n: int, m: int, r: int, s: int, k: int) -> SumReport:
    """Evaluate a theorem 2-6 variant three ways; all must agree exactly."""
    form, eff = _setup(sel, n, m, r, s, k)
    t = Terms(TermContext(params), sel.kind)
    over_q = not params.modulus
    rel, X, Y = _relation(t, form.relation, f"theorem {sel.theorem} variant {sel.variant}",
                          *eff, over_q)
    notes = ()
    if sel.theorem == 2 and k == 0:
        notes = ("k=0 is outside the stated hypothesis (positive k); the sum still evaluates",)

    # first, so that the lemma's denominator scan raises SingularSummand
    # before the direct sum divides by a vanishing term
    lemma_lhs = _lemma(form.variant, rel, X, Y, eff[0], k)[0]
    if over_q:
        ln, ld, rn, rd, fn, fd = form.pairs(t, *eff, k)
        en, ed = fn * lemma_lhs[0], fd * lemma_lhs[1]
        # the direct sum reduced once; a leg equal to it by cross-multiplying
        # (the pair code's denominators are nonzero) reports that Fraction,
        # and only a leg that differs is reduced to its own value
        lhs = Fraction(ln, ld)
        legs = (lhs, lhs if rn * ld == ln * rd else Fraction(rn, rd),
                lhs if en * ld == ln * ed else Fraction(en, ed))
    else:
        lhs, rhs, factor = form.values(t, *eff, k)
        legs = lhs, rhs, factor * lemma_lhs
    return SumReport(sel, dict(n=n, m=m, r=r, s=s, k=k), *legs, notes)


# the former entry point for theorems 5 and 6, kept as an alias because the
# package exports it and perfbench binds it by name
reciprocal_sum = theorem_sum
