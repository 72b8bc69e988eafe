"""The benchmark's hold on the package: every name its tracer wraps exists.

`bench/tracer.py` looks up the functions it wraps by name, so deleting one
of them would crash every traced benchmark run; these tests name the
deleted function instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from toycat import relcore

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_exists(tracer):
    missing = [
        f"toycat.{module_name}.{name}"
        for module_name, names in tracer.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"toycat.{module_name}"), name, None))
    ]
    assert missing == []


def test_every_primitive_the_tracer_wraps_exists(tracer):
    # `key` is a property of Relation, wrapped on the class; the rest are
    # relcore functions
    for name in tracer.PRIMITIVES:
        if name == "key":
            assert isinstance(inspect.getattr_static(relcore.Relation, name), property)
        else:
            assert callable(getattr(relcore, name, None)), f"toycat.relcore.{name}"
