"""The oracle's 1-norm condition estimate and the solves it shares.

``dense_solve`` eliminates the stacked system by a staircase of QRs, one
per period up to T = 12 and a segmented staircase, O(sqrt T) QRs, past it,
and estimates kappa_1 from the same staircase solves that give the solution
and its refinement.  These tests hold the estimate against the exact
kappa_1, the staircase's solves against the stacked matrix, count the
factorizations, and keep the dense LU of the stacked matrix as a test-only
witness for the solution: the former two-solve refinement, and the
estimator run through LU solves.
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
    dense_solve,
    oracle,
    trajectory_max_delta,
)
from csrchain.oracle import _solve_with_estimate
from csrchain.stationarity import BLOCK_NAMES, assemble_system, unpack

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


@pytest.mark.parametrize("T", [*range(1, 13), 16, 20, 40])
def test_estimate_is_a_close_lower_bound(T):
    for params in cases(T):
        estimate = staircase_estimate(params)
        exact = np.linalg.cond(assemble_system(params).matrix, 1)
        assert exact / 10.0 <= estimate <= exact * (1.0 + 1e-8)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 7])
def test_a_norm_is_the_stacked_matrix_norm(T):
    """The staircase's ||A||_1, summed period by period, is the largest
    column sum of the stacked matrix, at the horizons that leave periods 2
    to T empty, one, or several."""
    for params in cases(T):
        A = assemble_system(params).matrix
        assert oracle._Staircase(params).a_norm == pytest.approx(np.abs(A).sum(axis=0).max(),
                                                                 rel=1e-14)


def staircase_matrix(params):
    """The stacked matrix with its columns in the staircase's order, period
    by period, where ``assemble_system`` has them block by block."""
    A = assemble_system(params).matrix
    blocks = unpack(oracle._packed(np.arange(len(A), dtype=float), params.horizon_T))
    order = np.concatenate([blocks[name] for name in BLOCK_NAMES]).astype(int)
    out = np.empty_like(A)
    out[:, order] = A
    return out


@pytest.mark.parametrize("T", [1, 2, 7, 13, 16, 40])
def test_solves_match_the_stacked_matrix(T):
    """Both staircase solves, period by period (T <= 12) or in segments,
    leave residuals at roundoff against the stacked matrix A: A z = B for
    three right-hand sides at once, and A^T x = c."""
    rng = np.random.default_rng(T)
    for params in cases(T):
        A = staircase_matrix(params)
        system = oracle._Staircase(params)
        B, c = rng.standard_normal((len(A), 3)), rng.standard_normal(len(A))
        z, x = system.solve(B), system.solve_transposed(c)
        scale = np.abs(A).sum(axis=0).max()
        assert np.max(np.abs(A @ z - B)) <= 1e-14 * scale * np.max(np.abs(z))
        assert np.max(np.abs(A.T @ x - c)) <= 1e-14 * scale * np.max(np.abs(x))


def test_segments_only_past_twelve_periods():
    """Up to T = 12, the horizons of a scenario batch, every period is a step
    of its own; past it the segment length is the rule's, the least of those
    with the fewest QRs over every m < T."""
    assert [oracle._segment_length(T) for T in range(1, 13)] == [1] * 12
    assert [oracle._segment_length(T) for T in (13, 16, 20, 40, 60, 1000)] == [3, 3, 3, 6, 7, 27]
    for T in range(13, 400):
        m = oracle._segment_length(T)
        assert 1 + (m - 1) + (T - 1) // m + (T - 1) % m == rule_qr_calls(T)


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


def rule_qr_calls(T):
    """Row group 1's QR, then, for the segment length m with the fewest, the
    m - 1 QRs of the segments' run and one per other interface block: m - 1
    + (T - 1) // m + (T - 1) % m.  Up to T = 12, one QR per period."""
    if T <= 12:
        return T
    return 1 + min((m - 1) + (T - 1) // m + (T - 1) % m for m in range(1, T))


def test_one_qr_per_period_and_no_svd(monkeypatch):
    """One QR per period up to T = 12; past it the segmented staircase's
    count, which grows as sqrt T: 15 at T = 40, 64 at T = 1000."""
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
    for T in (3, 40, 1000):
        calls.clear()
        dense_solve(make_params(horizon_T=T))
        assert len(calls) == rule_qr_calls(T)
        if T > 12:
            assert len(calls) < T


def test_factorization_failure_reports_infinite_estimate(monkeypatch, reference_params):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "qr", singular)
    with pytest.raises(SingularSystemError) as excinfo:
        dense_solve(reference_params)
    assert excinfo.value.cond_estimate == float("inf")
    assert "1-norm condition estimate inf" in str(excinfo.value)


def test_independent_of_the_sweep_and_the_stacked_matrix(monkeypatch):
    """The oracle witnesses the sweep: it runs none of the sweep's steps and
    never assembles the (15T + 4)^2 matrix, period by period or in segments."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense_solve must not call this")

    for module in vars(csrchain).values():
        if getattr(module, "__name__", "").startswith("csrchain."):
            for name in ("assemble_augmented", "backward_sweep", "forward_pass",
                         "_solve_level", "assemble_system"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    for T in (3, 40):
        assert dense_solve(make_params(horizon_T=T)).horizon == T


def test_dense_solve_does_not_import_scipy():
    code = ("import sys; from csrchain import ModelParams, dense_solve; "
            f"dense_solve(ModelParams(**{REFERENCE!r})); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
