import dataclasses

import numpy as np
import pytest

from csrchain import (
    SingularSystemError,
    UndeterminedControlsError,
    dense_solve,
    follower_stationarity_check,
    grid_scan_supplier,
    leader_stationarity_check,
    optimal_quantity,
    residual_norms,
    rollout,
    solve_game,
    total_objective,
    trajectory_max_delta,
)
from csrchain.model import Controls, Trajectory
from csrchain.oracle import solve_inner_response, solve_retailer_response
from csrchain.stationarity import vector_to_trajectory

from conftest import make_params


def zero_control_trajectory(params):
    T = params.horizon_T
    x = rollout(params, params.x1, np.zeros(T), np.zeros(T), np.zeros(T))
    return Trajectory(
        x=x, controls=Controls(np.zeros(T), np.zeros(T), np.zeros(T)),
        q=np.full(T, optimal_quantity(params)),
        p_s=np.zeros(T), p_m=np.zeros(T), p_r=np.zeros(T),
        u=np.zeros(T + 1), u_prime=np.zeros(T + 1),
    )


class TestDenseSolve:
    def test_zero_fixed_point(self):
        p = make_params(tau=1.0, x1=0.0, delta_s=0.0, delta_m=0.0, delta_r=0.0,
                        d=0.0, d_hat=0.0)
        zero = vector_to_trajectory(np.zeros(15 * p.horizon_T + 4), p)
        assert trajectory_max_delta(dense_solve(p), zero) == 0.0

    def test_reference_residual(self, reference_params):
        traj = dense_solve(reference_params)
        assert residual_norms(traj, reference_params)[0] <= 1e-10

    def test_single_period_hand_assembly(self):
        """Horizon 1 collapses to the static nested game; the closed-form
        chain of reactions gives the investments directly."""
        p = make_params(horizon_T=1)
        traj = dense_solve(p)
        k = p.tau * p.theta
        K = (1 - p.tau) / k
        # retailer reaction: i_s + i_m + 2 i_r = K
        # manufacturer reaction given i_s: i_m = (K + d_hat/k - i_s) / 2
        # supplier stationarity along both reactions: see closed form below
        D = p.d / (2 * k)
        Dh = p.d_hat / (2 * k)
        i_s = K / 2 + 2 * D - Dh
        i_m = (K + 2 * Dh - i_s) / 2
        i_r = (K - i_s) / 4 - Dh / 2
        assert traj.controls.i_s[0] == pytest.approx(i_s)
        assert traj.controls.i_m[0] == pytest.approx(i_m)
        assert traj.controls.i_r[0] == pytest.approx(i_r)
        # state follows from the single transition
        expected_x2 = (p.alpha * p.x1 + p.beta_s * i_s + p.beta_m * i_m
                       + p.beta_r * i_r)
        assert traj.x[1] == pytest.approx(expected_x2)

    def test_singular_system_reports_condition(self):
        # tau*theta barely above zero: the control rows nearly vanish and the
        # stacked matrix is numerically singular (exact zero is caught
        # earlier as the undetermined-controls diagnostic)
        p = make_params(tau=1e-7, theta=1e-7)
        with pytest.raises(SingularSystemError) as excinfo:
            dense_solve(p)
        assert excinfo.value.cond_estimate > 1e12
        assert "condition estimate" in str(excinfo.value)

    def test_degenerate_tax_structure_rejected(self):
        with pytest.raises(UndeterminedControlsError):
            dense_solve(make_params(theta=0.0))


class TestResponseSolvers:
    def test_retailer_response_is_stationary_for_retailer(self, reference_params):
        p = reference_params
        rng = np.random.default_rng(41)
        i_s = rng.uniform(-1, 1, size=p.horizon_T)
        i_m = rng.uniform(-1, 1, size=p.horizon_T)
        i_r, x = solve_retailer_response(p, i_s, i_m)
        traj = Trajectory(
            x=x, controls=Controls(i_s=i_s, i_m=i_m, i_r=i_r),
            q=np.full(p.horizon_T, optimal_quantity(p)),
            p_s=np.zeros(p.horizon_T), p_m=np.zeros(p.horizon_T),
            p_r=np.zeros(p.horizon_T),
            u=np.zeros(p.horizon_T + 1), u_prime=np.zeros(p.horizon_T + 1),
        )
        assert follower_stationarity_check(traj, p, "R") <= 1e-6

    def test_inner_response_is_stationary_for_both_followers(self, reference_params):
        p = reference_params
        rng = np.random.default_rng(43)
        i_s = rng.uniform(-1, 1, size=p.horizon_T)
        i_m, i_r, x = solve_inner_response(p, i_s)
        traj = Trajectory(
            x=x, controls=Controls(i_s=i_s, i_m=i_m, i_r=i_r),
            q=np.full(p.horizon_T, optimal_quantity(p)),
            p_s=np.zeros(p.horizon_T), p_m=np.zeros(p.horizon_T),
            p_r=np.zeros(p.horizon_T),
            u=np.zeros(p.horizon_T + 1), u_prime=np.zeros(p.horizon_T + 1),
        )
        assert follower_stationarity_check(traj, p, "R") <= 1e-6
        assert follower_stationarity_check(traj, p, "M") <= 1e-6


class TestStationarityChecks:
    def test_solution_passes_all_levels(self, reference_params):
        p = reference_params
        traj, _ = solve_game(p)
        assert follower_stationarity_check(traj, p, "R") <= 1e-6
        assert follower_stationarity_check(traj, p, "M") <= 1e-6
        assert leader_stationarity_check(traj, p) <= 1e-5

    def test_perturbed_controls_are_detected(self, reference_params):
        p = reference_params
        k = p.tau * p.theta
        traj, _ = solve_game(p)

        bumped = dataclasses.replace(
            traj, controls=Controls(
                traj.controls.i_s.copy(), traj.controls.i_m.copy(),
                traj.controls.i_r + 0.1 * np.eye(p.horizon_T)[1]))
        assert follower_stationarity_check(bumped, p, "R") >= k * 0.05

        bumped = dataclasses.replace(
            traj, controls=Controls(
                traj.controls.i_s.copy(),
                traj.controls.i_m + 0.1 * np.eye(p.horizon_T)[1],
                traj.controls.i_r.copy()))
        assert follower_stationarity_check(bumped, p, "M") >= k * 0.05

        bumped = dataclasses.replace(
            traj, controls=Controls(
                traj.controls.i_s + 0.05 * np.eye(p.horizon_T)[1],
                traj.controls.i_m.copy(), traj.controls.i_r.copy()))
        assert leader_stationarity_check(bumped, p) >= k * 0.01

    def test_zero_investment_not_stationary_for_leader(self, reference_params):
        p = reference_params
        assert leader_stationarity_check(zero_control_trajectory(p), p) > 1e-3

    def test_collapse_scenario_passes(self):
        p = make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0, d=0.0, d_hat=0.0,
                        horizon_T=4)
        traj, _ = solve_game(p)
        assert np.max(np.abs(np.diff(traj.controls.i_s))) <= 1e-10
        assert follower_stationarity_check(traj, p, "R") <= 1e-6
        assert follower_stationarity_check(traj, p, "M") <= 1e-6
        assert leader_stationarity_check(traj, p) <= 1e-5

    def test_checks_deterministic(self, reference_params):
        p = reference_params
        traj, _ = solve_game(p)
        first = follower_stationarity_check(traj, p, "R")
        second = follower_stationarity_check(traj, p, "R")
        assert first == second

    def test_unknown_level_rejected(self, reference_params):
        traj, _ = solve_game(reference_params)
        with pytest.raises(ValueError, match="level"):
            follower_stationarity_check(traj, reference_params, "S")


class TestGridScan:
    def test_scan_matches_solver_at_horizon_one(self):
        p = make_params(horizon_T=1)
        traj, _ = solve_game(p)
        i_s = traj.controls.i_s[0]
        found = grid_scan_supplier(p, center=i_s + 3.0, half_width=20.0)
        assert found == pytest.approx(i_s, abs=1e-4)

    def test_scan_requires_single_period(self, reference_params):
        with pytest.raises(ValueError, match="horizon_T must be 1"):
            grid_scan_supplier(reference_params, center=0.0, half_width=1.0)

    def test_scan_reports_missing_stationary_point(self):
        p = make_params(horizon_T=1)
        with pytest.raises(ValueError, match="no interior stationary point"):
            grid_scan_supplier(p, center=1e6, half_width=1.0)


class TestObjectiveAccumulation:
    def test_solver_objectives_match_independent_accumulation(self, reference_params):
        """The report's objective values must agree with a re-accumulation
        from scratch over the solved trajectory."""
        p = reference_params
        traj, report = solve_game(p)
        for player, reported in [("S", report.objective_supplier),
                                 ("M", report.objective_manufacturer),
                                 ("R", report.objective_retailer)]:
            q = optimal_quantity(p)
            x = rollout(p, p.x1, traj.controls.i_s, traj.controls.i_m,
                        traj.controls.i_r)
            from csrchain import stage_payoff
            total = sum(
                stage_payoff(player, x[t], q, (traj.controls.i_s[t], traj.controls.i_m[t],
                                               traj.controls.i_r[t]), p)
                for t in range(p.horizon_T))
            assert reported == pytest.approx(total, rel=1e-9)
