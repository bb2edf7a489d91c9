"""Exact star-discrepancy analysis of prime-block rational sequences.

Construction of block sequences (inversive and increasing prime blocks,
all-denominator blocks), exact rational star-discrepancy engines, weighted
prefix sweeps against their analytic budgets, and the asymptotic scaling
of boundary discrepancies.
"""

from .asymptotics import TheoremRow, lambert_w, scaled_discrepancy, verify_theorem
from .discrepancy import (
    DEFAULT_SWEEP_LIMIT,
    BlockAccumulator,
    DiscrepancyValue,
    ScanRecord,
    block_max_weighted,
    nw_bound,
    prefix_discrepancy,
    prefix_scan,
    star_discrepancy,
    star_discrepancy_arrays,
    star_discrepancy_oracle,
    triangle_bound,
    weighted_prefix_maxima,
)
from .errors import CapacityError, TableTooSmallError
from .primes import (
    PrimeTable,
    block_index_of,
    build_prime_table,
    is_prime,
    m_asymptotic,
    pnt_ratio,
    sieve_primes,
    sum_ratio,
    table_covering,
)
from .sequences import (
    BlockSpec,
    Ordering,
    SequenceFamily,
    block_numerators,
    generate_prefix,
    prefix_arrays,
)

__version__ = "0.1.0"

__all__ = [
    "BlockAccumulator",
    "BlockSpec",
    "CapacityError",
    "DEFAULT_SWEEP_LIMIT",
    "DiscrepancyValue",
    "Ordering",
    "PrimeTable",
    "ScanRecord",
    "SequenceFamily",
    "TableTooSmallError",
    "TheoremRow",
    "block_index_of",
    "block_max_weighted",
    "block_numerators",
    "build_prime_table",
    "generate_prefix",
    "is_prime",
    "lambert_w",
    "m_asymptotic",
    "nw_bound",
    "pnt_ratio",
    "prefix_arrays",
    "prefix_discrepancy",
    "prefix_scan",
    "scaled_discrepancy",
    "sieve_primes",
    "star_discrepancy",
    "star_discrepancy_arrays",
    "star_discrepancy_oracle",
    "sum_ratio",
    "table_covering",
    "triangle_bound",
    "verify_theorem",
    "weighted_prefix_maxima",
]
