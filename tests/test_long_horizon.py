"""Long horizons: the cyclic reduction meets the tolerance far beyond T = 10.

The reference parameters put 6 of the 8 eigenvalues of the outer transfer
matrix on the unit circle, so there is no dichotomy to lean on; a Riccati
sweep lost the 1e-8 tolerance from T = 115 and broke down at T = 10000.
"""
import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csrchain.cli import main
from csrchain.oracle import dense_solve
from csrchain.sweep import solve_game
from csrchain.stationarity import (
    equation_table, period_layout, residual_norms, trajectory_blocks,
)

from conftest import (
    clear_caches,
    draw_params,
    make_params,
    reference_residual_bound,
    reference_residual_vector,
)
from test_scenario_cli import REFERENCE_FILE, write_scenario

TOL = 1e-8
EPS = np.finfo(float).eps
LONG = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def scale(trajectory) -> float:
    """Largest magnitude over every solved path."""
    return max(np.max(np.abs(path)) for path in trajectory_blocks(trajectory).values())


def residual_floor(params, trajectory) -> float:
    """n eps sum|c| max|z| over the table's rows: the rounding error of
    evaluating a row of n terms at a solution exact to rounding (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    weight = max(len(fam.terms) * sum(abs(coef) for *_, coef in fam.terms)
                 for fam in equation_table(params))
    return weight * EPS * scale(trajectory)


def assert_inner_agrees(report, trajectory):
    """The inner re-solve reproduces the outer solution to nine digits of its
    largest entry (worst seen: 5e-11 over every reference horizon up to
    10000, 1e-12 over 400 draws)."""
    assert report.inner_consistency_delta <= 1e-9 * scale(trajectory)


@pytest.mark.parametrize("T", [115, 200, 1000, 10000])
def test_reference_meets_tolerance(T):
    trajectory, report = solve_game(make_params(horizon_T=T))
    assert report.residual_max <= TOL
    assert_inner_agrees(report, trajectory)


@LONG
@given(T=st.integers(1, 10000))
def test_reference_any_horizon(T):
    """At some horizons (T = 47, 256, 1092, ...) the reference equilibrium
    itself reaches 7e7 to 1e14 (at T = 256 the dense oracle's condition
    estimate is 1.9e12): there the residual can only be asked to reach the
    rounding floor of its rows, not 1e-8."""
    params = make_params(horizon_T=T)
    trajectory, report = solve_game(params)
    assert report.residual_max <= max(TOL, residual_floor(params, trajectory))
    assert_inner_agrees(report, trajectory)


@LONG
@given(T=st.integers(1, 10000), seed=st.integers(0, 2**32 - 1))
def test_draws_any_horizon(T, seed):
    trajectory, report = solve_game(draw_params(np.random.default_rng(seed), T))
    assert report.residual_max <= TOL
    assert_inner_agrees(report, trajectory)


def backward_error(params, trajectory, report) -> float:
    """The normwise backward error of a solve, residual_max over
    ||A||_inf ||z||_inf + ||b||_inf (Rigal & Gaches, J. ACM 14, 1967;
    Higham, Accuracy and Stability of Numerical Algorithms, Thm 7.1):
    ||A||_inf is the largest absolute row sum of the layout's coefficient
    rows, ||b||_inf its largest absolute constant, both constant in T."""
    rows = period_layout(params)[:3]
    a_norm = max(np.abs(part[:, :-1]).sum(axis=1).max() for part in rows)
    b_norm = max(np.abs(part[:, -1]).max() for part in rows)
    return report.residual_max / (a_norm * scale(trajectory) + b_norm)


# eta / eps measured with one BLAS thread: the reference reads 0.134-0.198 at
# the horizons below, the 36 draws at most 1.32, so 4 leaves a margin of 3x
BACKWARD_C = 4.0


@pytest.mark.parametrize("T", [47, 256, 1092, 10**4, 10**5, 3 * 10**5])
def test_reference_is_backward_stable(T):
    """Where the reference misses 1e-8 (T = 47, 256, 1092, and 3e5 at
    1.12e-8) as where it meets it, the solution solves a system within a
    few eps of the stacked one: what misses is the system's conditioning,
    not the solver."""
    params = make_params(horizon_T=T)
    assert backward_error(params, *solve_game(params)) <= BACKWARD_C * EPS


def test_draws_are_backward_stable():
    """Seeded draws, the tests' ``draw_params`` with seeds 0-11, at
    T = 10^3, 10^4 and 10^5."""
    for seed in range(12):
        for T in (10**3, 10**4, 10**5):
            params = draw_params(np.random.default_rng(seed), T)
            assert backward_error(params, *solve_game(params)) <= BACKWARD_C * EPS


@pytest.mark.parametrize("T", [1000, 10000])
def test_norms_match_the_per_family_reference(T):
    """The norms of the per-period rows against those of the tests'
    per-family reference, on the solved trajectory: each row is within
    (2W + 1) eps sum|coefficient * value| of its reference row, so the max
    norms differ by at most the largest bound and the rms by the bounds' rms."""
    for params in (make_params(horizon_T=T), draw_params(np.random.default_rng(T), T)):
        trajectory, _ = solve_game(params)
        blocks, table = trajectory_blocks(trajectory), equation_table(params)
        rows = reference_residual_vector(blocks, table, T)
        bound = reference_residual_bound(blocks, table, T)
        res_max, res_rms = residual_norms(trajectory, params)
        assert abs(res_max - np.max(np.abs(rows))) <= np.max(bound)
        assert abs(res_rms - np.sqrt(np.mean(rows ** 2))) <= np.sqrt(np.mean(bound ** 2))


def test_cli_solves_ten_thousand_periods(tmp_path):
    text = REFERENCE_FILE.replace("horizon_T = 3", "horizon_T = 10000")
    out = tmp_path / "out"
    assert main(["solve", str(write_scenario(tmp_path, text)), "--out-dir", str(out)]) == 0
    assert len((out / "reference.trajectory.csv").read_text().splitlines()) == 10002


def report_values(path) -> dict:
    return dict(line.split(": ", 1) for line in path.read_text().splitlines())


def test_cli_oracle_reports_at_ten_thousand_periods(tmp_path):
    """The oracle holds O(sqrt T) factors and O(T) right-hand sides only,
    so it runs where a (15T + 4)^2 matrix (180 GB at T = 10000) never could."""
    text = REFERENCE_FILE.replace("horizon_T = 3", "horizon_T = 10000")
    out = tmp_path / "out"
    assert main(["solve", str(write_scenario(tmp_path, text)), "--out-dir", str(out),
                 "--oracle"]) == 0
    report = report_values(out / "reference.report")
    assert "oracle_max_delta" in report
    assert float(report["oracle_residual_max"]) <= TOL


def test_cli_oracle_refuses_near_singular_horizon(tmp_path, capsys):
    """At T = 256 the reference system is nearly singular; the oracle names
    its condition estimate and nothing is written."""
    text = REFERENCE_FILE.replace("horizon_T = 3", "horizon_T = 256")
    out = tmp_path / "out"
    assert main(["solve", str(write_scenario(tmp_path, text)), "--out-dir", str(out),
                 "--oracle"]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: .*1-norm condition estimate 1\.9\d\de\+12", err, re.M)
    assert not out.exists()


def peak_bytes(func, *args) -> int:
    """Peak of the memory traced while ``func(*args)`` runs, numpy's buffers
    included."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_peak_bytes(T) -> int:
    return peak_bytes(dense_solve, make_params(horizon_T=T))


def test_oracle_memory_is_linear_in_horizon():
    """No (15T + 4)^2 array: at T = 2000 one would take 7.2 GB."""
    small, large = oracle_peak_bytes(2000), oracle_peak_bytes(4000)
    assert small < 40e6
    assert large <= 2.2 * small


def test_solve_memory_at_long_horizon():
    """No needless O(T) temporaries.  At T = 10000 the 15T + 4 residual
    rows take 1.2 MB, so the norms may hold little besides them.  A cold
    solve, which compiles the game and fills its reduction chains, stays in
    the same bound."""
    params = make_params(horizon_T=10000)
    clear_caches()
    assert peak_bytes(solve_game, params) <= 4.0e6
    trajectory, _ = solve_game(params)
    assert peak_bytes(residual_norms, trajectory, params) <= 1.3e6
    assert peak_bytes(solve_game, params) <= 4.0e6


def test_caches_retain_at_most_their_stated_bounds():
    """After more distinct games than the cache holds, each solved at
    several horizons, what it retains stays under the 5 MB its docstring
    states for 8 games with every chain full."""
    rng = np.random.default_rng(24)
    games = [draw_params(rng, 1) for _ in range(20)]
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        for params in games:
            for T in (1000, 1023, 1517, 2047, 3001):
                solve_game(dataclasses.replace(params, horizon_T=T))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 5e6
