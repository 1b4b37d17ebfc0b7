"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/tracing.py`` rebinds each ``(module, function)`` pair of its
``TRACED`` table by name, so a renamed or deleted function breaks a traced
benchmark run.  This test reads that table and changes nothing under
``perfbench/``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module, function", traced_pairs())
def test_traced_name_resolves(module, function):
    package_module = importlib.import_module(f"csrchain.{module}")
    assert callable(getattr(package_module, function, None))
