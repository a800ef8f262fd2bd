"""Timing comparison of iterative vs doubling evaluation of (u_n, v_n).

Times the library's own evaluators: `term` for u and for v against
`fast_uv`, over GF(M) when a prime modulus is given and over Q otherwise.
Both run on the sequences module's integer kernel, so the ratio compares
O(n) integer recurrence steps with O(log n) integer doubling steps (over
GF(M), each step reduced mod M); neither times `Fraction` arithmetic.
`term` groups its steps 64 indices per Python step (`sequences._BLOCK`),
so its time is still O(n) steps, over a smaller constant;
`iterative_steps` counts recurrence indices, n, not loop iterations.
Correctness is asserted by comparing both strategies' results. The layered
benchmark of the whole library lives in `perfbench/`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import require_int
from .field import PrimeField, format_scalar
from .sequences import HoradamParams, SequenceKind, fast_uv, term


@dataclass(frozen=True)
class BenchReport:
    n: int
    modulus: Optional[int]
    u: object
    v: object
    iterative_seconds: float
    doubling_seconds: float
    iterative_steps: int
    doubling_steps: int
    results_match: bool

    @property
    def speedup(self) -> float:
        if self.doubling_seconds == 0:
            return float("inf")
        return self.iterative_seconds / self.doubling_seconds

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "modulus": self.modulus,
            "u": format_scalar(self.u),
            "v": format_scalar(self.v),
            "iterative_seconds": self.iterative_seconds,
            "doubling_seconds": self.doubling_seconds,
            "iterative_steps": self.iterative_steps,
            "doubling_steps": self.doubling_steps,
            "results_match": self.results_match,
            "speedup": self.speedup,
        }


def run_bench(p: Fraction, q: Fraction, n: int, modulus: Optional[int] = None) -> BenchReport:
    """Time both strategies for u_n, v_n and check they agree.

    modulus, when given, must be prime (negative-index division and rational
    parameter reduction need invertibility), and p, q must not vanish
    modulo it.
    """
    require_int("n", n)
    if n < 1:
        raise ValueError("bench needs n >= 1")
    if modulus is not None:
        F = PrimeField(modulus)  # raises CompositeModulus
        params = HoradamParams(F(0), F(1), F(Fraction(p)), F(Fraction(q)))
    else:
        params = HoradamParams(0, 1, p, q)
    t0 = time.perf_counter()
    it_u = term(params, SequenceKind.U, n)
    it_v = term(params, SequenceKind.V, n)
    t1 = time.perf_counter()
    u, v = fast_uv(params, n)
    t2 = time.perf_counter()
    return BenchReport(
        n=n,
        modulus=modulus,
        u=u,
        v=v,
        iterative_seconds=t1 - t0,
        doubling_seconds=t2 - t1,
        iterative_steps=n,
        doubling_steps=n.bit_length(),
        results_match=(it_u, it_v) == (u, v),
    )
