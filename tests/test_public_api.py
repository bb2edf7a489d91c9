"""The package's exported names and the README's library example.

A name dropped from a module but left in __all__, or a README example that
still calls a removed function, fails here rather than in a user's session.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import primedisc

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", primedisc.__all__)
def test_exported_name_resolves(name):
    assert hasattr(primedisc, name), f"primedisc.{name} is listed in __all__ but missing"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under Library quick start"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})
