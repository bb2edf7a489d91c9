"""Exact star-discrepancy analysis of prime-block rational sequences.

Construction of block sequences (inversive and increasing prime blocks,
all-denominator blocks), exact rational star-discrepancy engines, weighted
prefix sweeps against their analytic budgets, and the asymptotic scaling
of boundary discrepancies.
"""

from .asymptotics import (
    TheoremRow,
    lambert_w,
    m_asymptotic,
    scaled_discrepancy,
    verify_theorem,
)
from .discrepancy import (
    DEFAULT_SWEEP_LIMIT,
    BlockAccumulator,
    DiscrepancyValue,
    ScanRecord,
    block_max_weighted,
    nw_bound,
    prefix_scan,
    scan_csv_lines,
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
    pnt_ratio,
    sieve_primes,
    sum_ratio,
    table_covering,
)
from .sequences import (
    BlockSpec,
    Frac,
    Ordering,
    SequenceFamily,
    block_numerators,
    dump_lines,
    generate_prefix,
    parse_dump,
    prefix_arrays,
)

__version__ = "0.1.0"

__all__ = [
    "BlockAccumulator",
    "BlockSpec",
    "CapacityError",
    "DEFAULT_SWEEP_LIMIT",
    "DiscrepancyValue",
    "Frac",
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
    "dump_lines",
    "generate_prefix",
    "is_prime",
    "lambert_w",
    "m_asymptotic",
    "nw_bound",
    "parse_dump",
    "pnt_ratio",
    "prefix_arrays",
    "prefix_scan",
    "scaled_discrepancy",
    "scan_csv_lines",
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
