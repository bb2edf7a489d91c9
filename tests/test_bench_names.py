"""Every name the benchmark tracer patches still resolves in primedisc.

bench/tracing.py replaces functions and methods by name and counts their
work from their arguments; a refactor that drops or renames one, or changes
the parameters a counter reads, would otherwise surface only in a traced
bench run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
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



def counted_callables():
    # (traced callable, its counter) for every traced name with a counter; a
    # vanished name yields None here and fails the *_resolves tests above
    for mod_name, attr, counter in tracing.FUNCTIONS:
        if counter is not None:
            fn = getattr(importlib.import_module(f"primedisc.{mod_name}"), attr, None)
            yield pytest.param(fn, counter, id=f"{mod_name}.{attr}")
    for mod_name, cls_name, attr, counter in tracing.METHODS:
        if counter is not None:
            cls = getattr(importlib.import_module(f"primedisc.{mod_name}"), cls_name)
            yield pytest.param(cls.__dict__.get(attr), counter, id=f"{cls_name}.{attr}")


def parameter_shape(fn) -> list[tuple]:
    # names may differ: the tracer hands the call's arguments on as given
    return [(p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("fn,counter", list(counted_callables()))
def test_counter_takes_the_traced_arguments(fn, counter):
    # a counter reads the call's arguments by position: prefix_scan(num, den)
    # against a counter of (points) would break only a traced bench run
    assert parameter_shape(counter) == parameter_shape(fn)
