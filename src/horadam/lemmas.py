"""Generic three-term-recurrence summation engine.

Given nonzero coefficients h, f1, f2 and integer offsets c, d such that
h*X_n = f1*X_{n-c} + f2*Y_{n-d} holds on the probed window, five families
of telescoping identities follow. Each operation evaluates both sides of
one family exactly and reports whether they coincide (they must, whenever
the configuration probe passes).

Accessors are plain callables int -> scalar; `TermContext` methods and
shifted lambdas both qualify.
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


def _probe(cfg, X, Y, points, where):
    for n in points:
        if cfg.h * X(n) != cfg.f1 * X(n - cfg.c) + cfg.f2 * Y(n - cfg.d):
            raise ConfigViolation(
                f"recurrence fails at index {n} while evaluating {where}")


def check_config(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, window) -> bool:
    """True iff h*X_n = f1*X_{n-c} + f2*Y_{n-d} at every n in `window`."""
    try:
        _probe(cfg, X, Y, window, "check_config")
    except ConfigViolation:
        return False
    return True


def _require_k(k: int):
    if k < 0:
        raise ValueError(f"summation bound k must be >= 0, got {k}")


def _binomial_points(n, first, a_step, b_step, k):
    # recurrence instances consumed by a k-fold coefficient-power expansion
    pts = set()
    for tot in range(k):
        for a in range(tot + 1):
            pts.add(n + first + a * a_step + (tot - a) * b_step)
    return pts


def lemma1_sum(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, n: int, k: int) -> LemmaReport:
    """f2 * sum_{j=0}^k f1^(k-j) h^j Y_{n-kc-d+cj}  =  h^(k+1) X_n - f1^(k+1) X_{n-(k+1)c}."""
    _require_k(k)
    h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
    _probe(cfg, X, Y, [n - c * i for i in range(k + 1)], "lemma 1")
    lhs = f2 * sum(f1 ** (k - j) * h ** j * Y(n - k * c - d + c * j) for j in range(k + 1))
    rhs = h ** (k + 1) * X(n) - f1 ** (k + 1) * X(n - (k + 1) * c)
    return LemmaReport("1", "", cfg, n, k, lhs, rhs)


def lemma2_sums(cfg: RecurrenceConfig, X: Accessor, n: int, k: int, variant: int) -> LemmaReport:
    """Single-sequence telescoping sums (three variants)."""
    _require_k(k)
    h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
    if variant == 1:
        rep = lemma1_sum(cfg, X, X, n, k)
        return LemmaReport("2", "1", cfg, n, k, rep.lhs, rep.rhs)
    if variant == 2:
        _probe(cfg, X, X, [n - d * i for i in range(k + 1)], "lemma 2 variant 2")
        lhs = f1 * sum(f2 ** (k - j) * h ** j * X(n - k * d - c + d * j) for j in range(k + 1))
        rhs = h ** (k + 1) * X(n) - f2 ** (k + 1) * X(n - (k + 1) * d)
        return LemmaReport("2", "2", cfg, n, k, lhs, rhs)
    if variant == 3:
        e = d - c
        if e == 0:
            raise DegenerateStride("lemma 2 variant 3 needs d != c")
        _probe(cfg, X, X, [n + c - e * i for i in range(k + 1)], "lemma 2 variant 3")
        lhs = h * sum((-1) ** j * f2 ** (k - j) * f1 ** j * X(n - e * k + c + e * j)
                      for j in range(k + 1))
        rhs = (-1) ** k * f1 ** (k + 1) * X(n) + f2 ** (k + 1) * X(n - e * (k + 1))
        return LemmaReport("2", "3", cfg, n, k, lhs, rhs)
    raise ValueError(f"lemma 2 variant must be 1, 2 or 3, got {variant}")


def lemma3_binomial_sums(cfg: RecurrenceConfig, X: Accessor, n: int, k: int,
                         variant: int) -> LemmaReport:
    """Binomial-weighted sums collapsing to a single scaled term (three variants)."""
    _require_k(k)
    h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
    if variant == 1:
        _probe(cfg, X, X, _binomial_points(n, 0, -c, -d, k), "lemma 3 variant 1")
        lhs = sum(binomial(k, j) * f2 ** (k - j) * f1 ** j * X(n - d * k + (d - c) * j)
                  for j in range(k + 1))
        rhs = h ** k * X(n)
    elif variant == 2:
        _probe(cfg, X, X, _binomial_points(n, c, c, c - d, k), "lemma 3 variant 2")
        lhs = sum((-1) ** j * binomial(k, j) * f2 ** (k - j) * h ** j
                  * X(n + (c - d) * k + d * j) for j in range(k + 1))
        rhs = (-1) ** k * f1 ** k * X(n)
    elif variant == 3:
        _probe(cfg, X, X, _binomial_points(n, d, d, d - c, k), "lemma 3 variant 3")
        lhs = sum((-1) ** j * binomial(k, j) * f1 ** (k - j) * h ** j
                  * X(n + (d - c) * k + c * j) for j in range(k + 1))
        rhs = (-1) ** k * f2 ** k * X(n)
    else:
        raise ValueError(f"lemma 3 variant must be 1, 2 or 3, got {variant}")
    return LemmaReport("3", str(variant), cfg, n, k, lhs, rhs)


def _reciprocal_denominators(n, stride, k):
    # both denominator families merge into one arithmetic progression
    return [n - stride * (k + 1) + stride * i for i in range(k + 2)]


def _scan_denominators(X, n, stride, k):
    for i, idx in enumerate(_reciprocal_denominators(n, stride, k)):
        if X(idx) == 0:
            raise SingularSummand(max(0, i - 1), idx)


def lemma45_reciprocal(cfg: RecurrenceConfig, X: Accessor, Y: Accessor, n: int, k: int,
                       variant: str) -> LemmaReport:
    """Telescoping sums with products of X-terms in the denominators.

    Variant L4 allows distinct X/Y sequences; L5a/L5b/L5c set Y := X.
    Denominator windows are pre-scanned; a vanishing factor raises
    SingularSummand rather than dividing by zero.
    """
    _require_k(k)
    h, f1, f2, c, d = cfg.h, cfg.f1, cfg.f2, cfg.c, cfg.d
    if variant in ("L4", "L5a"):
        if variant == "L5a":
            Y = X
        _scan_denominators(X, n, c, k)
        _probe(cfg, X, Y, [n - c * i for i in range(k + 1)], variant)
        lhs = X(n) * X(n - c * (k + 1)) * f2 * sum(
            h ** (k - j) * f1 ** j * Y(n - d - c * k + c * j)
            / (X(n - c * k + c * j) * X(n - c - c * k + c * j))
            for j in range(k + 1))
        rhs = h ** (k + 1) * X(n) - f1 ** (k + 1) * X(n - c * (k + 1))
        return LemmaReport("4" if variant == "L4" else "5", variant, cfg, n, k, lhs, rhs)
    if variant == "L5b":
        _scan_denominators(X, n, d, k)
        _probe(cfg, X, X, [n - d * i for i in range(k + 1)], variant)
        lhs = X(n) * X(n - d * (k + 1)) * f1 * sum(
            h ** (k - j) * f2 ** j * X(n - c - d * k + d * j)
            / (X(n - d * k + d * j) * X(n - d - d * k + d * j))
            for j in range(k + 1))
        rhs = h ** (k + 1) * X(n) - f2 ** (k + 1) * X(n - d * (k + 1))
        return LemmaReport("5", variant, cfg, n, k, lhs, rhs)
    if variant == "L5c":
        e = d - c
        if e == 0:
            raise DegenerateStride("lemma 5 variant c needs d != c")
        _scan_denominators(X, n, e, k)
        _probe(cfg, X, X, [n + c - e * i for i in range(k + 1)], variant)
        lhs = X(n) * X(n - e * (k + 1)) * h * sum(
            (-1) ** j * f1 ** (k - j) * f2 ** j * X(n + c - e * k + e * j)
            / (X(n - e * k + e * j) * X(n - d + c - e * k + e * j))
            for j in range(k + 1))
        rhs = f1 ** (k + 1) * X(n) + (-1) ** k * f2 ** (k + 1) * X(n - e * (k + 1))
        return LemmaReport("5", variant, cfg, n, k, lhs, rhs)
    raise ValueError(f"reciprocal variant must be L4, L5a, L5b or L5c, got {variant!r}")
