"""Every name the benchmark tracer patches still resolves in primedisc.

bench/tracing.py replaces functions and methods by name; a refactor that
drops or renames one would otherwise surface only in a traced bench run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("primedisc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "mod_name,attr", [(m, a) for m, a, _ in tracing.FUNCTIONS], ids=lambda x: x
)
def test_traced_function_resolves(mod_name, attr):
    module = importlib.import_module(f"primedisc.{mod_name}")
    assert callable(getattr(module, attr, None)), f"primedisc.{mod_name}.{attr} is gone"


@pytest.mark.parametrize(
    "mod_name,cls_name,attr", [(m, c, a) for m, c, a, _ in tracing.METHODS], ids=lambda x: x
)
def test_traced_method_resolves(mod_name, cls_name, attr):
    cls = getattr(importlib.import_module(f"primedisc.{mod_name}"), cls_name)
    # the tracer patches the method found in the class's own namespace
    assert callable(cls.__dict__.get(attr)), f"primedisc.{mod_name}.{cls_name}.{attr} is gone"
