"""The package's exported names, the README's names and its library example.

A name dropped from a module but left in __all__, a public name added or
removed without notice, a README that names a removed class or leaves an
exported one out, or a README example that still calls a removed
function, fails here rather than in a user's session.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import primedisc

README = Path(__file__).resolve().parents[1] / "README.md"

# backticked README words that look like public names but are not the package's
NOT_PACKAGE_NAMES = {"Fraction", "ValueError", "OverflowError", "PYTHONPATH", "TestDeterminism"}

# every public name; adding or removing one is an edit here and a CHANGES.md line
PUBLIC = [
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


def test_public_names_are_pinned():
    assert sorted(primedisc.__all__) == PUBLIC


@pytest.mark.parametrize("name", primedisc.__all__)
def test_exported_name_resolves(name):
    assert hasattr(primedisc, name), f"primedisc.{name} is listed in __all__ but missing"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under Library quick start"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})


def readme_names() -> set[str]:
    """Every backticked span of README prose (code blocks excluded)."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    return set(re.findall(r"`([^`\n]+)`", prose))


def test_readme_names_every_public_name():
    missing = sorted(set(primedisc.__all__) - readme_names())
    assert not missing, f"README.md never names {missing} in backticks"


def test_readme_public_looking_names_resolve():
    # CamelCase, or snake_case with an underscore; a leading _ is private
    looks_public = {s for s in readme_names() if re.fullmatch(r"[A-Z]\w*|[a-z]\w*_\w*", s)}
    stale = sorted(n for n in looks_public - NOT_PACKAGE_NAMES if not hasattr(primedisc, n))
    assert not stale, f"README.md names {stale}, which primedisc does not define"
