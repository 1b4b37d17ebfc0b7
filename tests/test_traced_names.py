"""The benchmark's tracer still finds, and can read, what it traces.

``perfbench/tracing.py`` rebinds each ``(module, function)`` pair of its
``TRACED`` table by name, so a renamed or deleted function breaks a traced
benchmark run; and its ``_counts`` reads work counts off the arguments and
results of some of them, so a changed argument or result type breaks it
too.  These tests read that module and change nothing under ``perfbench/``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from csrchain import (
    assemble_augmented,
    assemble_system,
    backward_sweep,
    dense_solve,
    emit_csv,
    emit_report,
    solve_game,
)

from conftest import make_params

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


tracing = load_tracing()


@pytest.mark.parametrize("module, function", tracing.TRACED)
def test_traced_name_resolves(module, function):
    package_module = importlib.import_module(f"csrchain.{module}")
    assert callable(getattr(package_module, function, None))


class TestCountsReadRealCalls:
    """``tracing._counts`` on the real arguments and result of each call
    whose work it counts."""

    @pytest.mark.parametrize("T", [1, 12])
    def test_assemble_system(self, T):
        params = make_params(horizon_T=T)
        n = 15 * T + 4
        counts = tracing._counts("stationarity.assemble_system", (params,),
                                 assemble_system(params), None)
        assert counts == {"unknowns": n, "matrix_bytes_computed": 8.0 * n * n}

    @pytest.mark.parametrize("T", [1, 12])
    def test_backward_sweep(self, T):
        aug = assemble_augmented(make_params(horizon_T=T), "outer")
        counts = tracing._counts("sweep.backward_sweep", (aug,), backward_sweep(aug), None)
        assert counts == {"steps": T}

    @pytest.mark.parametrize("T", [1, 12])
    def test_dense_solve(self, T):
        params = make_params(horizon_T=T)
        n = 15 * T + 4
        counts = tracing._counts("oracle.dense_solve", (params,), dense_solve(params), None)
        assert counts == {"lu_flops_computed": 2.0 / 3.0 * n ** 3}

    def test_emitters(self, tmp_path, reference_params):
        trajectory, report = solve_game(reference_params)
        for name, emit, artifact in (("output.emit_csv", emit_csv, trajectory),
                                     ("output.emit_report", emit_report, report)):
            path = tmp_path / name
            counts = tracing._counts(name, (artifact, path), emit(artifact, path), None)
            assert counts == {"bytes": len(path.read_bytes())} and counts["bytes"] > 0
