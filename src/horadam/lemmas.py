"""Generic three-term-recurrence summation engine.

Given nonzero coefficients h, f1, f2 and integer offsets c, d such that
h*X_n = f1*X_{n-c} + f2*Y_{n-d} holds on the probed window, five families
of telescoping identities follow. Each public operation evaluates both
sides of one family exactly and reports whether they coincide (they must,
whenever the configuration probe passes).

Three left sides are written out: lemma 1's power sum, lemma 3's binomial
expansion and the L4 reciprocal sum. One table (`_VARIANTS`) gives every
variant, by its label ("lemma 2 variant 3", "L5c"), as one of them on the
relation as given, swapped (h*X_n = f2*X_{n-d} + f1*X_{n-c}), solved for its
f1 term (f1*X_m = h*X_{m+c} - f2*X_{m+c-d} at m = n - c) or both in turn,
and negated at odd k or not. Lemmas 2 and 5 are lemma 1 and L4 read with
Y = X. Reports keep the caller's configuration; a probe failure names the
variant and the index in the caller's relation.

The probe checks the relation at each point a left side consumes. Lemma 1's
and L4's summands are its telescoping steps (Petkovsek, Wilf and Zeilberger,
A = B, ch. 5), so `_probe` folds those two sums from the terms it has just
checked: one pass, which reads each term once.

`_lemma(label, ...)` returns a variant's left side on the plain tuple
(h, f1, f2, c, d), the relation it was summed on and whether it was
negated. The theorem checkers, which report only a left side, call it with
the label their base form names. The public functions validate, pass X as
Y where the variant reads Y = X, and add the right side on that relation.

Accessors are plain callables int -> scalar. The public functions take
int, `Fraction` or `ModInt` coefficients of one field (`RecurrenceConfig`)
and accessors of the same field, such as `TermContext` methods and shifted
lambdas, and run the probe and the sums on the operators; a `ValueError`
names coefficients or terms X(n), Y(n) that do not share one field, and
`check_config` raises it too, from the terms at its window's first index. The
theorem checkers pass `_lemma` coefficients over Q as `(n, d)` tuples, from
the pair code, with the members of the checker accessor `Terms`, whose
terms are unreduced `(n, d)` tuples too: the probe then compares integers,
each sum folds its summands as integer pairs by `field.ratio_sum`'s rule
into one pair, with its scale folded into the result's integers, and a
negation (`_negated`) and the denominator scan's zero test read the
numerator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

from .errors import ConfigViolation, DegenerateStride, SingularSummand, require_int
from .field import ModInt, binomial, ratio_sum

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


def _probe(rel, X, Y, points, where, shift, pairs, fold=None):
    """Check the relation at each caller index of `points`, in order; the
    relation at n - shift is the caller's relation at n. With `fold`,
    "power" or "reciprocal", the points are the k+1 telescoping steps
    n + shift - c*e, e = 0..k, and the probe returns the sum, over them, of
    the summand made of the three terms it has just checked there, X = X(i),
    Xc = X(i-c) and Y = Y(i-d): lemma 1's f1^e * h^(k-e) * Y, or L4's
    h^e * f1^(k-e) * Y / (X * Xc). On pairs it folds by `ratio_sum`'s two
    gcds, on the operators by +."""
    h, f1, f2, c, d = rel
    k = len(points) - 1 if fold else 0
    reciprocal = fold == "reciprocal"
    # the summand's factor raised to e, and the one raised to k - e
    a, b = (h, f1) if reciprocal else (f1, h)
    if pairs:
        # h*X = f1*Xc + f2*Y is one cross-multiplied comparison
        (hn, hd), (f1n, f1d), (f2n, f2d), (an, ad), (bn, bd) = h, f1, f2, a, b
        left, f1f2, f2f1 = hn * f1d * f2d, f1n * f2d, f2n * f1d
        sn, sd = 0, 1
        for e, n in enumerate(points):
            i = n - shift
            (xn, xd), (xcn, xcd), (yn, yd) = X(i), X(i - c), Y(i - d)
            if left * xn * xcd * yd != (f1f2 * xcn * yd + f2f1 * yn * xcd) * hd * xd:
                raise ConfigViolation(f"recurrence fails at index {n} while evaluating {where}")
            if fold:
                tn, td = an ** e * bn ** (k - e) * yn, ad ** e * bd ** (k - e) * yd
                if reciprocal:
                    # Y over the two X terms: each enters with its pair swapped
                    tn, td = tn * xd * xcd, td * xn * xcn
                # ratio_sum's step
                g = gcd(sd, td)
                s = sd // g
                t = sn * (td // g) + tn * s
                g = gcd(t, g)
                sn, sd = t // g, s * (td // g)
        return sn, sd
    total = 0
    for e, n in enumerate(points):
        i = n - shift
        x, xc, y = X(i), X(i - c), Y(i - d)
        if h * x != f1 * xc + f2 * y:
            raise ConfigViolation(f"recurrence fails at index {n} while evaluating {where}")
        if fold:
            t = a ** e * b ** (k - e) * y
            if reciprocal:
                # an int over an int is taken as a Fraction, not a float
                xx = x * xc
                t = Fraction(t, xx) if type(t) is type(xx) is int else t / xx
            total = total + t
    return total


def _require_one_field(label, cfg, X, Y, n):
    """Raise `ValueError`, naming both, unless the coefficients and the terms
    X(n), Y(n) share one field."""
    coefficients, x, y = (cfg.h, cfg.f1, cfg.f2), X(n), Y(n)
    if len(_fields((*coefficients, x, y))) > 1:
        raise ValueError(f"{label}: the coefficients and the accessors' terms must share one "
                         f"field, got coefficients {coefficients!r} and terms "
                         f"X({n}) = {x!r}, Y({n}) = {y!r}")


def check_config(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, window) -> bool:
    """True iff h*X_n = f1*X_{n-c} + f2*Y_{n-d} at every n in `window`, any
    iterable of indices; the fields are checked at its first index."""
    points = iter(window)
    first = next(points, None)
    if first is None:
        return True
    _require_one_field("check_config", cfg, X, Y, first)
    try:
        _probe(_plain(cfg), X, Y, itertools.chain((first,), points), "check_config", 0, False)
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


def _power_sum(rel, X, Y, n, k, where, shift, pairs):
    # lemma 1's left side, f2 times the probe's fold
    _, _, f2, c, _ = rel
    total = _probe(rel, X, Y, [n + shift - c * e for e in range(k + 1)], where, shift,
                   pairs, "power")
    if pairs:
        # f2 folded into the sum's integers, with no gcd
        return f2[0] * total[0], f2[1] * total[1]
    return f2 * total


def _binomial_sum(rel, X, Y, n, k, where, shift, pairs):
    # lemma 3's left side, the expansion of h^k X_n; it reads Y = X
    h, f1, f2, c, d = rel
    # recurrence instances consumed by the k-fold coefficient-power expansion
    points = {n + shift - a * c - (tot - a) * d for tot in range(k) for a in range(tot + 1)}
    _probe(rel, X, Y, points, where, shift, pairs)
    if pairs:
        (f1n, f1d), (f2n, f2d) = f1, f2
        return ratio_sum((binomial(k, j) * f2n ** (k - j) * f1n ** j * xn,
                          f2d ** (k - j) * f1d ** j * xd)
                         for j in range(k + 1) for xn, xd in [X(n - d * k + (d - c) * j)])
    return sum(binomial(k, j) * f2 ** (k - j) * f1 ** j * X(n - d * k + (d - c) * j)
               for j in range(k + 1))


def _denominator_window(label, c, d, X, n, k):
    """The denominator window of the variant `label` on a relation with
    offsets c and d: (j, index, is_zero) for each index, lazily, j the first
    summand using it; empty unless the variant is a reciprocal sum. Both
    denominator families merge into one arithmetic progression, whose stride
    is the c of the relation the variant is summed on. A term that is a
    pair (n, d) is zero when n is: a tuple never equals 0."""
    left_side, how, _ = _VARIANTS[label]
    if left_side is _reciprocal_sum:
        (_, _, _, stride, _), _ = _rearranged((0, 0, 0, c, d), how)
        for i in range(k + 2):
            idx = n - stride * (k + 1 - i)
            x = X(idx)
            yield max(0, i - 1), idx, (x[0] if type(x) is tuple else x) == 0


def _reciprocal_sum(rel, X, Y, n, k, where, shift, pairs):
    # L4's left side, the scale X(n)*X(n-(k+1)c)*f2 times the probe's fold;
    # `_lemma` has scanned its denominators
    _, _, f2, c, _ = rel
    total = _probe(rel, X, Y, [n + shift - c * e for e in range(k + 1)], where, shift,
                   pairs, "reciprocal")
    first, last = X(n), X(n - c * (k + 1))
    if pairs:
        # the scale is folded into the sum's integers, with no gcd
        return first[0] * last[0] * f2[0] * total[0], first[1] * last[1] * f2[1] * total[1]
    return first * last * f2 * total


# label -> (left side, rearrangement of the relation, negated at odd k)
_VARIANTS = {
    "lemma 1": (_power_sum, "", False),
    "lemma 2 variant 1": (_power_sum, "", False),
    "lemma 2 variant 2": (_power_sum, "swapped", False),
    "lemma 2 variant 3": (_power_sum, "solved swapped", True),
    "lemma 3 variant 1": (_binomial_sum, "", False),
    "lemma 3 variant 2": (_binomial_sum, "solved", True),
    "lemma 3 variant 3": (_binomial_sum, "swapped solved", True),
    "L4": (_reciprocal_sum, "", False),
    "L5a": (_reciprocal_sum, "", False),
    "L5b": (_reciprocal_sum, "swapped", False),
    "L5c": (_reciprocal_sum, "solved swapped", False),
}


def _lemma(label, rel, X, Y, n, k):
    """(lhs, relation, negated): the left side of the variant `label` on the
    plain relation (h, f1, f2, c, d), the rearranged relation it was summed
    on, and whether the variant negated it."""
    left_side, how, odd_negates = _VARIANTS[label]
    if how == "solved swapped" and rel[3] == rel[4]:
        # its stride would be d - c
        raise DegenerateStride(f"{label} needs d != c")
    for j, idx, zero in _denominator_window(label, rel[3], rel[4], X, n, k):
        if zero:
            raise SingularSummand(j, idx)
    rel, shift = _rearranged(rel, how)
    # pair coefficients come only from the theorem checkers' pair code over
    # Q, whose terms are pairs too: the probe and the sums then run on pairs
    lhs = left_side(rel, X, Y, n, k, label, shift, type(rel[0]) is tuple)
    negated = odd_negates and k % 2 == 1
    return (_negated(lhs) if negated else lhs), rel, negated


def _report(lemma, variant, label, cfg, X, Y, n, k):
    # the left side, and the right side on the relation it was summed on
    _require_one_field(label, cfg, X, Y, n)
    lhs, rel, negated = _lemma(label, _plain(cfg), X, Y, n, k)
    h, f1, _, c, _ = rel
    if lemma == "3":    # the expansion collapses to one scaled term
        rhs = h ** k * X(n)
    else:               # lemma 1's telescoped difference, which L4 and L5 share
        rhs = h ** (k + 1) * X(n) - f1 ** (k + 1) * X(n - (k + 1) * c)
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
