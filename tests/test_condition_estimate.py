"""The oracle's 1-norm condition estimate and the solves it shares.

``dense_solve`` eliminates the stacked system period by period (one QR per
period) and estimates kappa_1 from the same staircase solves that give the
solution and its refinement.  These tests hold the estimate against the
exact kappa_1, count the factorizations, and keep the dense LU of the
stacked matrix as a test-only witness for the solution: the former
two-solve refinement, and the estimator run through LU solves.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csrchain
from csrchain import (
    SingularSystemError,
    assemble_system,
    dense_solve,
    oracle,
    trajectory_max_delta,
)
from csrchain.oracle import _solve_with_estimate

from conftest import REFERENCE, draw_params, make_params, vector_to_trajectory

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


def lu_estimate(A, b):
    """The estimator run through dense LU solves of the stacked matrix."""
    _, _, estimate = _solve_with_estimate(
        lambda rhs: np.linalg.solve(A, rhs), lambda c: np.linalg.solve(A.T, c),
        lambda z: b - A @ z, float(np.abs(A).sum(axis=0).max()), b)
    return estimate


def staircase_estimate(params):
    """The estimate ``dense_solve`` computes from its staircase solves."""
    estimates = []

    def recording(*args):
        result = _solve_with_estimate(*args)
        estimates.append(result[2])
        return result
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_solve_with_estimate", recording)
        try:
            dense_solve(params)
        except SingularSystemError:
            pass
    return estimates[0]


@pytest.mark.parametrize("T", range(1, 13))
def test_estimate_is_a_close_lower_bound(T):
    for params in cases(T):
        estimate = staircase_estimate(params)
        exact = np.linalg.cond(assemble_system(params).matrix, 1)
        assert exact / 10.0 <= estimate <= exact * (1.0 + 1e-8)


@pytest.mark.parametrize("T", [1, 3, 12, 60])
def test_solution_matches_two_solve_reference(T):
    eps = np.finfo(float).eps
    for params in cases(T):
        system = assemble_system(params)
        A, b = system.matrix, system.rhs
        reference = two_solve_reference(A, b)
        estimate = lu_estimate(A, b)
        delta = trajectory_max_delta(dense_solve(params),
                                     vector_to_trajectory(reference, params))
        bound = A.shape[0] * eps * estimate * np.max(np.abs(reference))
        assert delta <= bound


def test_one_qr_per_period_and_no_svd(monkeypatch, reference_params):
    calls = []
    qr = np.linalg.qr

    def counting_qr(A, mode="reduced"):
        calls.append(A.shape)
        return qr(A, mode=mode)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense_solve must not compute an SVD")

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    dense_solve(reference_params)
    assert len(calls) == reference_params.horizon_T


def test_factorization_failure_reports_infinite_estimate(monkeypatch, reference_params):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "qr", singular)
    with pytest.raises(SingularSystemError) as excinfo:
        dense_solve(reference_params)
    assert excinfo.value.cond_estimate == float("inf")
    assert "1-norm condition estimate inf" in str(excinfo.value)


def test_independent_of_the_sweep_and_the_stacked_matrix(monkeypatch, reference_params):
    """The oracle witnesses the sweep: it runs none of the sweep's steps and
    never assembles the (15T + 4)^2 matrix."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense_solve must not call this")

    for module in vars(csrchain).values():
        if getattr(module, "__name__", "").startswith("csrchain."):
            for name in ("assemble_augmented", "backward_sweep", "forward_pass",
                         "_solve_level", "assemble_system"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    trajectory = dense_solve(reference_params)
    assert trajectory.horizon == reference_params.horizon_T


def test_dense_solve_does_not_import_scipy():
    code = ("import sys; from csrchain import ModelParams, dense_solve; "
            f"dense_solve(ModelParams(**{REFERENCE!r})); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
