"""Exact arithmetic for Horadam and Lucas sequences.

Evaluate w(a,b;p,q) terms at any integer index over exact fields, verify
the catalog of term identities mechanically, instantiate the generic
telescoping-sum lemmas, and evaluate the summation theorems three
independent ways.
"""
from . import errors
from .bench import BenchReport, run_bench
from .catalog import (
    REGISTRY,
    FuzzReport,
    Identity,
    SamplerConfig,
    VerificationReport,
    evaluate,
    fuzz,
    list_identities,
)
from .field import (
    ModInt,
    PrimeField,
    binomial,
    format_scalar,
    parse_rational,
)
from .lemmas import (
    LemmaReport,
    RecurrenceConfig,
    check_config,
    lemma1_sum,
    lemma2_sums,
    lemma3_binomial_sums,
    lemma45_reciprocal,
)
from .sequences import (
    PRESETS,
    HoradamParams,
    SequenceKind,
    TermContext,
    binet_term,
    fast_uv,
    term,
    term_range,
)
from .theorems import (
    SumReport,
    TheoremSelector,
    reciprocal_sum,
    singularity_scan,
    theorem_sum,
)

__version__ = "0.1.0"
