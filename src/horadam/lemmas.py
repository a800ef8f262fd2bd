"""Generic three-term-recurrence summation engine.

Given nonzero coefficients h, f1, f2 and integer offsets c, d such that
h*X_n = f1*X_{n-c} + f2*Y_{n-d} holds on the probed window, five families
of telescoping identities follow. Each public operation evaluates both
sides of one family exactly and reports whether they coincide (they must,
whenever the configuration probe passes).

The three left sides (lemma 1's power sum, lemma 3's binomial expansion,
the L4 reciprocal sum) and the two right sides are texts in the grammar of
`formula`, over the relation's members h, f1, f2, X, Y (`_Members`) and
n, k, c, d, compiled once per text and field on first use (`_compiled`)
by the compiler of the displayed forms. One table (`_VARIANTS`) gives
every variant, by its label ("lemma 2 variant 3", "L5c"), as one left side
on the relation as given, swapped (h*X_n = f2*X_{n-d} + f1*X_{n-c}),
solved for its f1 term (f1*X_m = h*X_{m+c} - f2*X_{m+c-d} at m = n - c)
or both in turn, and negated at odd k or not. Lemmas 2 and 5 are lemma 1 and L4 read with
Y = X. Reports keep the caller's configuration; a probe failure names the
variant and the index in the caller's relation.

The probe (`_probe`) checks the relation at each point a left side
consumes, before the left side is summed: lemma 1's and L4's telescoping
steps (Petkovsek, Wilf and Zeilberger, A = B, ch. 5), one per summand, and
the instances lemma 3's k-fold expansion uses.

`_lemma(label, ...)` returns a variant's left side on the plain tuple
(h, f1, f2, c, d), the relation it was summed on and whether it was
negated. The theorem checkers, which report only a left side, call it with
the label their base form names. The public functions validate, pass X as
Y where the variant reads Y = X, and add the right side on that relation.
`_lemma` checks, in order, the stride (at the head of `_denominator_window`,
which the singularity scan reads too), the window's terms, then the probe.

Accessors are plain callables int -> scalar. The public functions take
int, `Fraction` or `ModInt` coefficients of one field (`RecurrenceConfig`)
and accessors of the same field, such as `TermContext` methods and shifted
lambdas, and run the probe and the texts on the operators, with the
coefficients taken as `Fraction`s unless the field is GF(M), so an int
configuration reports `Fraction` values; a `ValueError` names coefficients
or terms X(n), Y(n) that do not share one field, and `check_config` raises
it too, from the terms at its window's first index. The theorem checkers
pass `_lemma` coefficients over Q as `(n, d)` tuples, from the pair code,
with X and Y the members of the checker accessor `Terms` themselves, whose
terms are unreduced `(n, d)` tuples too. The probe and the texts take pair
arithmetic when h is a tuple: the probe then compares integers, a left
side runs as the pair compiler's code (`formula.compile_pairs`), whose sum
loop folds by `field.ratio_sum`'s rule, and a negation (`_negated`) and the
denominator scan's zero test read the numerator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Any, Callable

from .errors import ConfigViolation, DegenerateStride, SingularSummand, require_int
from .field import ModInt
from .formula import compile_expression, compile_pairs

Accessor = Callable[[int], Any]


def _fields(values) -> set:
    """The fields of the values that are not ints, which any field takes:
    None for a rational, M for a `ModInt` modulo M."""
    return {getattr(x, "modulus", None) for x in values if type(x) is not int}


@dataclass(frozen=True)
class RecurrenceConfig:
    h: Any
    f1: Any
    f2: Any
    c: int
    d: int

    def __post_init__(self):
        require_int("c", self.c)
        require_int("d", self.d)
        for name in ("h", "f1", "f2"):
            x = getattr(self, name)
            if type(x) is bool or not isinstance(x, (int, Fraction, ModInt)):
                raise ValueError(f"coefficient {name} must be an int, a Fraction or a ModInt, "
                                 f"got {type(x).__name__} {x!r}")
            if x == 0:
                raise ConfigViolation(f"coefficient {name} must be nonzero")
        coefficients = self.h, self.f1, self.f2
        if len(_fields(coefficients)) > 1:
            raise ValueError("coefficients h, f1 and f2 must share one field (ints with "
                             "Fractions, or ints with ModInts of one modulus), "
                             f"got {coefficients!r}")


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    variant: str
    cfg: RecurrenceConfig
    n: int
    k: int
    lhs: Any
    rhs: Any

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _plain(cfg):
    return cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d


def _probe(rel, X, Y, points, where, shift):
    """Check the relation at each caller index of `points`, in order; the
    relation at n - shift is the caller's relation at n. Pair coefficients
    (`(n, d)` tuples) come only from the theorem checkers' pair code over
    Q, whose terms are pairs too: each point is then one integer
    comparison."""
    h, f1, f2, c, d = rel
    pairs = type(h) is tuple
    if pairs:
        # h*X = f1*Xc + f2*Y is one cross-multiplied comparison
        (hn, hd), (f1n, f1d), (f2n, f2d) = h, f1, f2
        left, a, b = hn * f1d * f2d, f1n * f2d, f2n * f1d
    for n in points:
        i = n - shift
        if pairs:
            (xn, xd), (xcn, xcd), (yn, yd) = X(i), X(i - c), Y(i - d)
            fails = left * xn * xcd * yd != (a * xcn * yd + b * yn * xcd) * hd * xd
        else:
            fails = h * X(i) != f1 * X(i - c) + f2 * Y(i - d)
        if fails:
            raise ConfigViolation(f"recurrence fails at index {n} while evaluating {where}")


def _require_one_field(label, cfg, X, Y, n) -> set:
    """The field set (`_fields`) of the coefficients and the terms X(n),
    Y(n); `ValueError`, naming both, unless they share one field."""
    coefficients, x, y = (cfg.h, cfg.f1, cfg.f2), X(n), Y(n)
    fields = _fields((*coefficients, x, y))
    if len(fields) > 1:
        raise ValueError(f"{label}: the coefficients and the accessors' terms must share one "
                         f"field, got coefficients {coefficients!r} and terms "
                         f"X({n}) = {x!r}, Y({n}) = {y!r}")
    return fields


def check_config(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, window) -> bool:
    """True iff h*X_n = f1*X_{n-c} + f2*Y_{n-d} at every n in `window`, any
    iterable of indices; the fields are checked at its first index."""
    points = iter(window)
    first = next(points, None)
    if first is None:
        return True
    _require_one_field("check_config", cfg, X, Y, first)
    try:
        _probe(_plain(cfg), X, Y, itertools.chain((first,), points), "check_config", 0)
    except ConfigViolation:
        return False
    return True


def _require_indices(n: int, k: int):
    require_int("n", n)
    require_int("k", k)
    if k < 0:
        raise ValueError(f"summation bound k must be >= 0, got {k}")


def _negated(x):
    """-x, for a pair (n, d) the pair (-n, d)."""
    return (-x[0], x[1]) if type(x) is tuple else -x


def _rearranged(rel, how):
    """(relation, shift): `rel` with the steps of `how`, "swapped" or "solved",
    applied in order; the caller's index n is the result's n - shift."""
    shift = 0
    for step in how.split():
        h, f1, f2, c, d = rel
        if step == "swapped":
            rel = h, f2, f1, d, c
        else:
            rel, shift = (f1, h, _negated(f2), -c, d - c), shift + c
    return rel, shift


def _denominator_window(label, c, d, X, n, k):
    """The denominator window of the variant `label` on a relation with
    offsets c and d: (j, index, is_zero) for each index, lazily, j the first
    summand using it; empty unless the variant is a reciprocal sum. Both
    denominator families merge into one arithmetic progression, whose stride
    is the c of the relation the variant is summed on. A term that is a
    pair (n, d) is zero when n is: a tuple never equals 0. First, before any
    read, a variant summed on the solved swapped relation (lemma 2 variant 3
    too) raises DegenerateStride at d == c, where its stride d - c is 0."""
    left_side, how, _ = _VARIANTS[label]
    if how == "solved swapped" and c == d:
        raise DegenerateStride(f"{label} needs d != c")
    if left_side is _RECIPROCAL:
        (_, _, _, stride, _), _ = _rearranged((0, 0, 0, c, d), how)
        for i in range(k + 2):
            idx = n - stride * (k + 1 - i)
            x = X(idx)
            yield max(0, i - 1), idx, (x[0] if type(x) is tuple else x) == 0


# the left sides, each summand in the order the probe checks its points;
# lemma 3's expansion of h^k X_n reads Y = X
_POWER = "f2*sum_{e=0}^{k} f1^e*h^(k-e)*Y(n-c*e-d)"
_BINOMIAL = "sum_{j=0}^{k} C(k,j)*f2^(k-j)*f1^j*X(n-d*k+(d-c)*j)"
_RECIPROCAL = "X(n)*X(n-c*(k+1))*f2*sum_{e=0}^{k} h^e*f1^(k-e)*Y(n-c*e-d)/(X(n-c*e)*X(n-c*e-c))"
# the right sides: lemma 1's telescoped difference, which L4 and L5 share, and
# lemma 3's single scaled term
_TELESCOPED = "h^(k+1)*X(n) - f1^(k+1)*X(n-(k+1)*c)"
_SCALED = "h^k*X(n)"


# label -> (left side, rearrangement of the relation, negated at odd k)
_VARIANTS = {
    "lemma 1": (_POWER, "", False),
    "lemma 2 variant 1": (_POWER, "", False),
    "lemma 2 variant 2": (_POWER, "swapped", False),
    "lemma 2 variant 3": (_POWER, "solved swapped", True),
    "lemma 3 variant 1": (_BINOMIAL, "", False),
    "lemma 3 variant 2": (_BINOMIAL, "solved", True),
    "lemma 3 variant 3": (_BINOMIAL, "swapped solved", True),
    "L4": (_RECIPROCAL, "", False),
    "L5a": (_RECIPROCAL, "", False),
    "L5b": (_RECIPROCAL, "swapped", False),
    "L5c": (_RECIPROCAL, "solved swapped", False),
}


class _Members:
    """The accessor of the lemma texts: the coefficients h, f1, f2 and the
    term accessors X, Y of one relation."""

    __slots__ = ("h", "f1", "f2", "X", "Y")

    def __init__(self, h, f1, f2, X, Y):
        self.h, self.f1, self.f2, self.X, self.Y = h, f1, f2, X, Y


@cache
def _compiled(text, pairs) -> Callable:
    """A lemma text as a function of the accessor (`_Members`) and n, k, c,
    d, compiled once per field: on integer pairs (`formula.compile_pairs`)
    when `pairs`, over Q from the theorem checkers, else on the operators."""
    if pairs:
        return compile_pairs(text, "nkcd", [text])
    return compile_expression("nkcd", text)


def _side(text, rel, X, Y, n, k):
    """The lemma text `text` on the plain relation (h, f1, f2, c, d) and the
    accessors X, Y at n, k; an (n, d) pair when the coefficients are pairs."""
    h, f1, f2, c, d = rel
    return _compiled(text, type(h) is tuple)(_Members(h, f1, f2, X, Y), n, k, c, d)


def _lemma(label, rel, X, Y, n, k):
    """(lhs, relation, negated): the left side of the variant `label` on the
    plain relation (h, f1, f2, c, d), the rearranged relation it was summed
    on, and whether the variant negated it."""
    left_side, how, odd_negates = _VARIANTS[label]
    for j, idx, zero in _denominator_window(label, rel[3], rel[4], X, n, k):
        if zero:
            raise SingularSummand(j, idx)
    rel, shift = _rearranged(rel, how)
    c, d = rel[3:]
    if left_side is _BINOMIAL:
        # recurrence instances consumed by the k-fold coefficient-power expansion
        points = {n + shift - a * c - (tot - a) * d for tot in range(k) for a in range(tot + 1)}
    else:
        # the telescoping steps, one for each summand
        points = [n + shift - c * e for e in range(k + 1)]
    _probe(rel, X, Y, points, label, shift)
    lhs = _side(left_side, rel, X, Y, n, k)
    negated = odd_negates and k % 2 == 1
    return (_negated(lhs) if negated else lhs), rel, negated


def _report(lemma, variant, label, cfg, X, Y, n, k):
    # the left side, and the right side on the relation it was summed on;
    # over Q the coefficients are taken as Fractions, so that an int
    # configuration's reciprocal sum divides exactly
    fields = _require_one_field(label, cfg, X, Y, n)
    rel = _plain(cfg)
    if fields <= {None}:
        rel = (*map(Fraction, rel[:3]), *rel[3:])
    lhs, rel, negated = _lemma(label, rel, X, Y, n, k)
    rhs = _side(_SCALED if lemma == "3" else _TELESCOPED, rel, X, Y, n, k)
    return LemmaReport(lemma, variant, cfg, n, k, lhs, -rhs if negated else rhs)


def lemma1_sum(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, n: int, k: int) -> LemmaReport:
    """f2 * sum_{j=0}^k f1^(k-j) h^j Y_{n-kc-d+cj}  =  h^(k+1) X_n - f1^(k+1) X_{n-(k+1)c}."""
    _require_indices(n, k)
    return _report("1", "", "lemma 1", cfg, X, Y, n, k)


def lemma2_sums(cfg: RecurrenceConfig, X: Accessor, n: int, k: int, variant: int) -> LemmaReport:
    """Single-sequence telescoping sums: lemma 1 with Y = X (variant 1), on the
    swapped relation (2), and (-1)^k times it on the swapped solved relation
    (3, needs d != c)."""
    _require_indices(n, k)
    require_int("variant", variant)
    if variant not in (1, 2, 3):
        raise ValueError(f"lemma 2 variant must be 1, 2 or 3, got {variant}")
    return _report("2", str(variant), f"lemma 2 variant {variant}", cfg, X, X, n, k)


def lemma3_binomial_sums(cfg: RecurrenceConfig, X: Accessor, n: int, k: int,
                         variant: int) -> LemmaReport:
    """Binomial-weighted sums collapsing to a single scaled term: the expansion
    sum C(k,j) f2^(k-j) f1^j X_{n-dk+(d-c)j} = h^k X_n (variant 1), and (-1)^k
    times it on the relation solved for its f1 term (2) or its f2 term (3)."""
    _require_indices(n, k)
    require_int("variant", variant)
    if variant not in (1, 2, 3):
        raise ValueError(f"lemma 3 variant must be 1, 2 or 3, got {variant}")
    return _report("3", str(variant), f"lemma 3 variant {variant}", cfg, X, X, n, k)


def lemma45_reciprocal(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, n: int, k: int,
                       variant: str) -> LemmaReport:
    """Telescoping sums with products of X-terms in the denominators.

    Variant L4 allows distinct X/Y sequences; L5a sets Y := X, and L5b/L5c
    (d != c) are L5a on the swapped and on the swapped solved relation.
    Denominator windows are pre-scanned; a vanishing factor raises
    SingularSummand rather than dividing by zero.
    """
    _require_indices(n, k)
    if variant not in ("L4", "L5a", "L5b", "L5c"):
        raise ValueError(f"reciprocal variant must be L4, L5a, L5b or L5c, got {variant!r}")
    return _report("4" if variant == "L4" else "5", variant, variant, cfg, X,
                   Y if variant == "L4" else X, n, k)
