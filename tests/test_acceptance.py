"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""
import functools

import numpy as np
import pytest

from csrchain import (
    Controls,
    ModelParams,
    Trajectory,
    UndeterminedControlsError,
    dense_solve,
    follower_stationarity_check,
    leader_stationarity_check,
    load_scenario,
    optimal_quantity,
    parse_csv,
    residual_norms,
    solve_game,
    state_transition,
    trajectory_max_delta,
)
from csrchain.cli import main

from conftest import (
    REFERENCE,
    draw_params,
    gradient_check_worst,
    grid_scan_supplier,
    make_params,
    random_evaluation_point,
)


def criterion(name):
    def decorate(body):
        @functools.wraps(body)
        def wrapper(*args, **kwargs):
            try:
                body(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
        return wrapper
    return decorate


@criterion("gradient fidelity")
def test_gradient_fidelity():
    """>=100 randomized parameter sets: every coded control-FOC residual and
    costate recursion matches central finite differences of the coded
    Hamiltonians to relative error < 1e-6."""
    rng = np.random.default_rng(101)
    for _ in range(120):
        params = draw_params(rng, horizon_T=int(rng.integers(1, 8)))
        point = random_evaluation_point(rng)
        assert gradient_check_worst(params, point) < 1e-6


@criterion("method-vs-oracle equivalence")
def test_method_vs_oracle_equivalence():
    """>=50 randomized scenarios, T in {1, 2, 3, 5, 10}: sweep and dense
    solves agree <= 1e-8 in every component, both residual <= 1e-9."""
    rng = np.random.default_rng(202)
    count = 0
    for horizon in (1, 2, 3, 5, 10):
        for _ in range(10):
            params = draw_params(rng, horizon)
            trajectory, report = solve_game(params)
            reference = dense_solve(params)
            assert trajectory_max_delta(trajectory, reference) <= 1e-8
            assert report.residual_max <= 1e-9
            assert residual_norms(reference, params)[0] <= 1e-9
            count += 1
    assert count == 50


@criterion("Stackelberg structure")
def test_stackelberg_structure():
    """Reference scenario: both follower checks <= 1e-6, leader <= 1e-5; at
    horizon 1 the leader's investment matches a grid-scan stationary point
    of its objective (followers re-solved per grid point) within 1e-4."""
    params = ModelParams(**REFERENCE)
    trajectory, _ = solve_game(params)
    assert follower_stationarity_check(trajectory, params, "R") <= 1e-6
    assert follower_stationarity_check(trajectory, params, "M") <= 1e-6
    assert leader_stationarity_check(trajectory, params) <= 1e-5

    single = make_params(horizon_T=1)
    solved, _ = solve_game(single)
    i_s = solved.controls.i_s[0]
    scanned = grid_scan_supplier(single, center=i_s + 2.5, half_width=15.0)
    assert scanned == pytest.approx(i_s, abs=1e-4)


@criterion("collapse properties")
def test_collapse_properties():
    """Zero social benefit with no pass-through shares: all-zero costates
    and time-constant investments; carryover of one with zero investment
    holds the stock constant."""
    for horizon in (2, 5, 10):
        params = make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0,
                             d=0.0, d_hat=0.0, horizon_T=horizon)
        trajectory, _ = solve_game(params)
        for costates in (trajectory.p_s, trajectory.p_m, trajectory.p_r):
            assert np.max(np.abs(costates)) <= 1e-10
        for path in (trajectory.controls.i_s, trajectory.controls.i_m,
                     trajectory.controls.i_r):
            assert np.max(np.abs(np.diff(path))) <= 1e-10

    rng = np.random.default_rng(303)
    params = make_params(alpha=1.0)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0)
        for _ in range(7):
            x_next = state_transition(x, (0.0, 0.0, 0.0), params)
            assert x_next == x
            x = x_next


@criterion("degeneracy handling")
def test_degeneracy_handling(tmp_path):
    """tau*theta = 0 terminates with the undetermined-controls diagnostic and
    a nonzero exit status, never a numeric answer."""
    for params in (make_params(theta=0.0), make_params(tau=0.0),
                   make_params(tau=0.0, theta=0.0)):
        with pytest.raises(UndeterminedControlsError):
            solve_game(params)
        with pytest.raises(UndeterminedControlsError):
            dense_solve(params)

    scenario = tmp_path / "degenerate.scenario"
    lines = [f"{key} = {value}" for key, value in REFERENCE.items()]
    scenario.write_text("\n".join(lines).replace("theta = 0.05", "theta = 0") + "\n")
    out = tmp_path / "out"
    code = main(["solve", str(scenario), "--out-dir", str(out)])
    assert code != 0
    assert not (out / "degenerate.trajectory.csv").exists()
    assert not (out / "degenerate.report").exists()


@criterion("quantity subgame")
def test_quantity_subgame():
    """optimal_quantity returns (a - v) / (2 b) clamped at zero and is
    invariant to every CSR parameter, over randomized draws."""
    rng = np.random.default_rng(404)
    for _ in range(200):
        params = draw_params(rng, horizon_T=1)
        expected = max(0.0, (params.a - params.v) / (2.0 * params.b))
        assert optimal_quantity(params) == pytest.approx(expected, rel=1e-12)
        import dataclasses
        shifted = dataclasses.replace(
            params,
            alpha=rng.uniform(0.05, 1.0), tau=rng.uniform(0.0, 1.0),
            theta=rng.uniform(0.0, 1.0), delta_s=rng.uniform(0.0, 1.0),
            delta_m=rng.uniform(0.0, 1.0), delta_r=rng.uniform(0.0, 1.0),
            beta_s=rng.uniform(0.05, 0.95), beta_m=rng.uniform(0.05, 0.95),
            beta_r=rng.uniform(0.05, 0.95), d=rng.uniform(0.0, 0.99),
            d_hat=rng.uniform(0.0, 0.99),
        )
        assert optimal_quantity(shifted) == optimal_quantity(params)
    clamped = make_params(a=3.0, v=8.0)
    assert optimal_quantity(clamped) == 0.0


@criterion("determinism and I/O")
def test_determinism_and_io(tmp_path):
    """Identical scenario files produce byte-identical CSV and report
    outputs, and the CSV round-trips to the in-memory trajectory."""
    lines = ["name = det"] + [f"{key} = {value}" for key, value in REFERENCE.items()]
    text = "\n".join(lines) + "\noracle = true\n"
    emitted = []
    for sub in ("run_a", "run_b"):
        scenario = tmp_path / sub / "det.scenario"
        scenario.parent.mkdir()
        scenario.write_text(text)
        out = tmp_path / sub / "artifacts"
        assert main(["solve", str(scenario), "--out-dir", str(out)]) == 0
        emitted.append((
            (out / "det.trajectory.csv").read_bytes(),
            (out / "det.report").read_bytes(),
        ))
    assert emitted[0] == emitted[1]

    params = ModelParams(**REFERENCE)
    trajectory, _ = solve_game(params)
    reparsed = parse_csv(tmp_path / "run_a" / "artifacts" / "det.trajectory.csv")
    assert trajectory_max_delta(trajectory, reparsed) == 0.0
