"""Generic three-term-recurrence summation engine.

Given nonzero coefficients h, f1, f2 and integer offsets c, d such that
h*X_n = f1*X_{n-c} + f2*Y_{n-d} holds on the probed window, five families
of telescoping identities follow. Each public operation evaluates both
sides of one family exactly and reports whether they coincide (they must,
whenever the configuration probe passes).

Only lemma 1, the lemma-3 binomial expansion and the L4 reciprocal sum are
written out. The other variants apply them, with Y = X, to the relation
swapped, h*X_n = f2*X_{n-d} + f1*X_{n-c}, or solved for its f1 term,
f1*X_m = h*X_{m+c} - f2*X_{m+c-d} at m = n - c. Reports keep the caller's
configuration, and a probe failure names the index in the caller's relation.

Each lemma has one private function (`_lemma1`, `_lemma2`, `_lemma3`,
`_lemma45`) on the relation as the plain tuple (h, f1, f2, c, d): it picks
the variant, probes, and returns the left side, the relation it was summed
on and whether the variant negated it ((-1)^k at odd k). The theorem
checkers, which report only a left side, call these directly. The public
functions wrap them and add the right side: `_telescoped` on that relation,
or lemma 3's single scaled term.

Accessors are plain callables int -> scalar; `TermContext` methods, the
members of its checker accessor `Terms` (over unreduced `Ratio` pairs, as
the theorem checkers pass them) and shifted lambdas all qualify.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigViolation, DegenerateStride, SingularSummand
from .field import binomial

Accessor = Callable[[int], Any]


@dataclass(frozen=True)
class RecurrenceConfig:
    h: Any
    f1: Any
    f2: Any
    c: int
    d: int

    def __post_init__(self):
        for name in ("h", "f1", "f2"):
            if getattr(self, name) == 0:
                raise ConfigViolation(f"coefficient {name} must be nonzero")


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


def _probe(rel, X, Y, points, where, shift=0):
    # points are caller indices: rel at n - shift is the caller's relation at n
    h, f1, f2, c, d = rel
    for n in points:
        i = n - shift
        if h * X(i) != f1 * X(i - c) + f2 * Y(i - d):
            raise ConfigViolation(
                f"recurrence fails at index {n} while evaluating {where}")


def check_config(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, window) -> bool:
    """True iff h*X_n = f1*X_{n-c} + f2*Y_{n-d} at every n in `window`."""
    try:
        _probe(_plain(cfg), X, Y, window, "check_config")
    except ConfigViolation:
        return False
    return True


def _require_k(k: int):
    if k < 0:
        raise ValueError(f"summation bound k must be >= 0, got {k}")


def _swapped(rel):
    h, f1, f2, c, d = rel
    return h, f2, f1, d, c


def _solved(rel):
    # its index m is the caller's index m + c
    h, f1, f2, c, d = rel
    return f1, h, -f2, -c, d - c


def _telescoped(rel, X, n, k, negated):
    """Lemma 1's right side h^(k+1) X_n - f1^(k+1) X_{n-(k+1)c} on `rel`,
    which the reciprocal sums share; negated for a variant that negates."""
    h, f1, _, c, _ = rel
    rhs = h ** (k + 1) * X(n) - f1 ** (k + 1) * X(n - (k + 1) * c)
    return -rhs if negated else rhs


def _power_sum(rel, X, Y, n, k, where, shift=0):
    # lemma 1's left side
    h, f1, f2, c, d = rel
    _probe(rel, X, Y, [n + shift - c * i for i in range(k + 1)], where, shift)
    return f2 * sum(f1 ** (k - j) * h ** j * Y(n - k * c - d + c * j) for j in range(k + 1))


def _lemma1(rel, X, Y, n, k):
    return _power_sum(rel, X, Y, n, k, "lemma 1"), rel, False


def lemma1_sum(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, n: int, k: int) -> LemmaReport:
    """f2 * sum_{j=0}^k f1^(k-j) h^j Y_{n-kc-d+cj}  =  h^(k+1) X_n - f1^(k+1) X_{n-(k+1)c}."""
    _require_k(k)
    lhs, rel, negated = _lemma1(_plain(cfg), X, Y, n, k)
    return LemmaReport("1", "", cfg, n, k, lhs, _telescoped(rel, X, n, k, negated))


def _lemma2(rel, X, n, k, variant):
    if variant == 1:
        return _power_sum(rel, X, X, n, k, "lemma 1"), rel, False
    if variant == 2:
        rel = _swapped(rel)
        return _power_sum(rel, X, X, n, k, "lemma 2 variant 2"), rel, False
    if variant != 3:
        raise ValueError(f"lemma 2 variant must be 1, 2 or 3, got {variant}")
    if rel[3] == rel[4]:
        raise DegenerateStride("lemma 2 variant 3 needs d != c")
    shift, rel = rel[3], _swapped(_solved(rel))
    lhs = _power_sum(rel, X, X, n, k, "lemma 2 variant 3", shift)
    negated = k % 2 == 1
    return (-lhs if negated else lhs), rel, negated


def lemma2_sums(cfg: RecurrenceConfig, X: Accessor, n: int, k: int, variant: int) -> LemmaReport:
    """Single-sequence telescoping sums: lemma 1 with Y = X (variant 1), on the
    swapped relation (2), and (-1)^k times it on the swapped solved relation
    (3, needs d != c)."""
    _require_k(k)
    lhs, rel, negated = _lemma2(_plain(cfg), X, n, k, variant)
    return LemmaReport("2", str(variant), cfg, n, k, lhs, _telescoped(rel, X, n, k, negated))


def _lemma3(rel, X, n, k, variant):
    if variant == 1:
        shift = 0
    elif variant == 2:
        shift, rel = rel[3], _solved(rel)
    elif variant == 3:
        shift, rel = rel[4], _solved(_swapped(rel))
    else:
        raise ValueError(f"lemma 3 variant must be 1, 2 or 3, got {variant}")
    h, f1, f2, c, d = rel
    # recurrence instances consumed by the k-fold coefficient-power expansion
    points = {n + shift - a * c - (tot - a) * d for tot in range(k) for a in range(tot + 1)}
    _probe(rel, X, X, points, f"lemma 3 variant {variant}", shift)
    lhs = sum(binomial(k, j) * f2 ** (k - j) * f1 ** j * X(n - d * k + (d - c) * j)
              for j in range(k + 1))
    negated = variant != 1 and k % 2 == 1
    return (-lhs if negated else lhs), rel, negated


def lemma3_binomial_sums(cfg: RecurrenceConfig, X: Accessor, n: int, k: int,
                         variant: int) -> LemmaReport:
    """Binomial-weighted sums collapsing to a single scaled term: the expansion
    sum C(k,j) f2^(k-j) f1^j X_{n-dk+(d-c)j} = h^k X_n (variant 1), and (-1)^k
    times it on the relation solved for its f1 term (2) or its f2 term (3)."""
    _require_k(k)
    lhs, rel, negated = _lemma3(_plain(cfg), X, n, k, variant)
    rhs = rel[0] ** k * X(n)
    return LemmaReport("3", str(variant), cfg, n, k, lhs, -rhs if negated else rhs)


def _denominator_window(X, n, stride, k):
    # (j, index, is_zero), lazily: both denominator families merge into one
    # arithmetic progression; j is the first summand using the index
    for i in range(k + 2):
        idx = n - stride * (k + 1 - i)
        yield max(0, i - 1), idx, X(idx) == 0


def _lemma45(rel, X, Y, n, k, variant):
    shift = 0
    if variant == "L5a":
        Y = X
    elif variant == "L5b":
        rel, Y = _swapped(rel), X
    elif variant == "L5c":
        if rel[3] == rel[4]:
            raise DegenerateStride("lemma 5 variant c needs d != c")
        shift, rel, Y = rel[3], _swapped(_solved(rel)), X
    elif variant != "L4":
        raise ValueError(f"reciprocal variant must be L4, L5a, L5b or L5c, got {variant!r}")
    h, f1, f2, c, d = rel
    for j, idx, zero in _denominator_window(X, n, c, k):
        if zero:
            raise SingularSummand(j, idx)
    _probe(rel, X, Y, [n + shift - c * i for i in range(k + 1)], variant, shift)
    lhs = X(n) * X(n - c * (k + 1)) * f2 * sum(
        h ** (k - j) * f1 ** j * Y(n - d - c * k + c * j)
        / (X(n - c * k + c * j) * X(n - c - c * k + c * j))
        for j in range(k + 1))
    return lhs, rel, False


def lemma45_reciprocal(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, n: int, k: int,
                       variant: str) -> LemmaReport:
    """Telescoping sums with products of X-terms in the denominators.

    Variant L4 allows distinct X/Y sequences; L5a sets Y := X, and L5b/L5c
    (d != c) are L5a on the swapped and on the swapped solved relation.
    Denominator windows are pre-scanned; a vanishing factor raises
    SingularSummand rather than dividing by zero.
    """
    _require_k(k)
    lhs, rel, negated = _lemma45(_plain(cfg), X, Y, n, k, variant)
    return LemmaReport("4" if variant == "L4" else "5", variant, cfg, n, k, lhs,
                       _telescoped(rel, X, n, k, negated))
