"""The benchmark harness looks up qkdng functions by name; a rename must fail here.

``bench/tracer.py`` wraps each ``(module, function)`` pair of its ``TRACED``
table by ``getattr``.  It is loaded by path and only read: nothing is
installed or traced.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_pairs():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, function", traced_pairs())
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"qkdng.{module}"), function, None))
