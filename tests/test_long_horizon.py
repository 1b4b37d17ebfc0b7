"""Long horizons: the cyclic reduction meets the tolerance far beyond T = 10.

The reference parameters put 6 of the 8 eigenvalues of the outer transfer
matrix on the unit circle, so there is no dichotomy to lean on; a Riccati
sweep lost the 1e-8 tolerance from T = 115 and broke down at T = 10000.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csrchain.cli import main
from csrchain.sweep import solve_game
from csrchain.stationarity import equation_table, trajectory_blocks

from conftest import draw_params, make_params
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


def test_cli_solves_ten_thousand_periods(tmp_path):
    text = REFERENCE_FILE.replace("horizon_T = 3", "horizon_T = 10000")
    out = tmp_path / "out"
    assert main(["solve", str(write_scenario(tmp_path, text)), "--out-dir", str(out)]) == 0
    assert len((out / "reference.trajectory.csv").read_text().splitlines()) == 10002
