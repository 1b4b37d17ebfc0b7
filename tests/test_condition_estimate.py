"""The dense oracle's 1-norm condition estimate and the solves it shares.

``dense_solve`` estimates kappa_1 of the stacked matrix from the same LU
solves that give the solution and its refinement.  These tests hold the
estimate against the exact kappa_1, count the solves, and keep the former
two-solve refinement as the reference for the solution.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csrchain import (
    SingularSystemError,
    assemble_system,
    dense_solve,
    trajectory_max_delta,
)
from csrchain.oracle import _solve_with_estimate
from csrchain.stationarity import vector_to_trajectory

from conftest import REFERENCE, draw_params, make_params

SRC = Path(__file__).resolve().parent.parent / "src"


def cases(T):
    """The reference parameters and three seeded draws at horizon T."""
    rng = np.random.default_rng(1000 + T)
    return [make_params(horizon_T=T)] + [draw_params(rng, T) for _ in range(3)]


def two_solve_reference(A, b):
    """The oracle's former solve: factor, then one refinement step."""
    z = np.linalg.solve(A, b)
    z += np.linalg.solve(A, b - A @ z)
    return z


@pytest.mark.parametrize("T", range(1, 13))
def test_estimate_is_a_close_lower_bound(T):
    for params in cases(T):
        system = assemble_system(params)
        A = system.matrix
        _, _, estimate = _solve_with_estimate(A, system.rhs)
        exact = np.linalg.cond(A, 1)
        assert exact / 10.0 <= estimate <= exact * (1.0 + 1e-8)


@pytest.mark.parametrize("T", [1, 3, 12, 60])
def test_solution_matches_two_solve_reference(T):
    eps = np.finfo(float).eps
    for params in cases(T):
        system = assemble_system(params)
        A, b = system.matrix, system.rhs
        reference = two_solve_reference(A, b)
        _, _, estimate = _solve_with_estimate(A, b)
        delta = trajectory_max_delta(dense_solve(params),
                                     vector_to_trajectory(reference, params))
        bound = A.shape[0] * eps * estimate * np.max(np.abs(reference))
        assert delta <= bound


def test_three_solves_and_no_svd(monkeypatch, reference_params):
    calls = []
    solve = np.linalg.solve

    def counting_solve(A, b):
        calls.append(A.shape)
        return solve(A, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense_solve must not compute an SVD")

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    dense_solve(reference_params)
    assert len(calls) == 3


def test_factorization_failure_reports_infinite_estimate(monkeypatch, reference_params):
    def singular(A, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystemError) as excinfo:
        dense_solve(reference_params)
    assert excinfo.value.cond_estimate == float("inf")
    assert "1-norm condition estimate inf" in str(excinfo.value)


def test_dense_solve_does_not_import_scipy():
    code = ("import sys; from csrchain import ModelParams, dense_solve; "
            f"dense_solve(ModelParams(**{REFERENCE!r})); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
