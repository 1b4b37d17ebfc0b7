import copy

import numpy as np
import pytest

from csrchain import (
    Controls,
    ParamsError,
    Trajectory,
    TrajectoryConsistencyError,
    inverse_demand,
    optimal_quantity,
    rollout,
    social_benefit,
    solve_game,
    stage_payoff,
    state_transition,
    tax_return,
    total_objective,
    trajectory_max_delta,
)
from csrchain.model import check_state_consistency

from conftest import make_params


def make_trajectory(params, i_s, i_m, i_r):
    i_s = np.asarray(i_s, float)
    i_m = np.asarray(i_m, float)
    i_r = np.asarray(i_r, float)
    T = len(i_s)
    x = rollout(params, params.x1, i_s, i_m, i_r)
    return Trajectory(
        x=x, controls=Controls(i_s=i_s, i_m=i_m, i_r=i_r),
        q=np.full(T, optimal_quantity(params)),
        p_s=np.zeros(T), p_m=np.zeros(T), p_r=np.zeros(T),
        u=np.zeros(T + 1), u_prime=np.zeros(T + 1),
    )


class TestInverseDemand:
    def test_intercept_at_zero_quantity(self):
        p = make_params(a=7.5)
        assert inverse_demand(0.0, p) == 7.5

    def test_hand_value(self):
        p = make_params(a=10.0, b=1.0)
        assert inverse_demand(4.0, p) == pytest.approx(6.0)

    def test_root_of_demand_line(self):
        p = make_params(a=10.0, b=1.0)
        assert inverse_demand(10.0, p) == pytest.approx(0.0)


class TestTaxReturn:
    def test_zero_investment(self):
        p = make_params()
        assert tax_return(0.0, 123.0, p) == 0.0

    def test_linear_when_theta_zero(self):
        p = make_params(tau=0.1, theta=0.0)
        assert tax_return(2.0, 5.0, p) == pytest.approx(0.2)

    def test_hand_value(self):
        p = make_params(tau=0.1, theta=0.05)
        assert tax_return(1.0, 3.0, p) == pytest.approx(0.115)

    def test_bilinear(self):
        p = make_params(tau=0.3, theta=0.2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            own, total, scale = rng.uniform(-3, 3, size=3)
            assert tax_return(scale * own, total, p) == pytest.approx(
                scale * tax_return(own, total, p))
            base = tax_return(own, 0.0, p)
            assert tax_return(own, total, p) - base == pytest.approx(
                total / 2.0 * (tax_return(own, 2.0, p) - base), rel=1e-12)


class TestSocialBenefit:
    def test_zero_stock(self):
        assert social_benefit(0.0, 0.7) == 0.0

    def test_hand_value(self):
        assert social_benefit(1.0, 0.03) == pytest.approx(0.03)

    def test_even_in_stock(self):
        assert social_benefit(-2.0, 0.5) == pytest.approx(2.0)


class TestStateTransition:
    def test_pure_carryover(self):
        p = make_params(alpha=1.0)
        assert state_transition(5.0, (0.0, 0.0, 0.0), p) == 5.0

    def test_zero_everything(self):
        p = make_params()
        assert state_transition(0.0, (0.0, 0.0, 0.0), p) == 0.0

    def test_hand_value(self):
        p = make_params(alpha=0.9, beta_s=0.3, beta_m=0.3, beta_r=0.2)
        assert state_transition(1.0, (1.0, 1.0, 1.0), p) == pytest.approx(1.7)

    def test_affine_superposition(self):
        p = make_params()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-2, 2)
            inv = rng.uniform(-4, 4, size=3)
            base = state_transition(x, (0.0, 0.0, 0.0), p)
            linear = state_transition(x, tuple(inv), p) - base
            expected = p.beta_s * inv[0] + p.beta_m * inv[1] + p.beta_r * inv[2]
            assert linear == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestOptimalQuantity:
    def test_hand_value(self):
        p = make_params(a=10.0, v=2.0, b=1.0)
        assert optimal_quantity(p) == pytest.approx(4.0)

    def test_zero_margin(self):
        p = make_params(a=6.0, v=6.0)
        assert optimal_quantity(p) == 0.0

    def test_clamped_when_cost_exceeds_intercept(self):
        p = make_params(a=5.0, v=9.0)
        assert optimal_quantity(p) == 0.0

    def test_rejects_degenerate_demand(self):
        p = make_params(b=-1.0)
        with pytest.raises(ValueError, match="b must be positive"):
            optimal_quantity(p)

    def test_invariant_to_csr_parameters(self):
        rng = np.random.default_rng(11)
        base = make_params()
        expected = optimal_quantity(base)
        for _ in range(30):
            perturbed = make_params(
                tau=rng.uniform(0, 1), theta=rng.uniform(0, 1),
                delta_s=rng.uniform(0, 1), delta_m=rng.uniform(0, 1),
                delta_r=rng.uniform(0, 1), alpha=rng.uniform(0.1, 1.0),
                beta_s=rng.uniform(0.05, 0.95), beta_m=rng.uniform(0.05, 0.95),
                beta_r=rng.uniform(0.05, 0.95),
            )
            assert optimal_quantity(perturbed) == expected


class TestStagePayoff:
    def test_retailer_hand_value(self):
        p = make_params(z=12.0, a=10.0, b=1.0, delta_r=0.03, tau=0.1, theta=0.05)
        value = stage_payoff("R", 1.0, 4.0, (1.0, 1.0, 1.0), p)
        assert value == pytest.approx(23.145)

    def test_supplier_all_zero(self):
        p = make_params()
        assert stage_payoff("S", 0.0, 0.0, (0.0, 0.0, 0.0), p) == 0.0

    def test_manufacturer_margin(self):
        p = make_params(a=10.0, b=1.0, v=2.0)
        assert stage_payoff("M", 0.0, 4.0, (0.0, 0.0, 0.0), p) == pytest.approx(16.0)

    def test_unknown_player_rejected(self):
        p = make_params()
        with pytest.raises(ValueError, match="unknown player"):
            stage_payoff("X", 0.0, 0.0, (0.0, 0.0, 0.0), p)

    def test_retailer_plus_manufacturer_is_b_independent(self):
        # the (a - b q) q transfer cancels between the two when q is held fixed
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-2, 2)
            q = rng.uniform(0, 5)
            inv = tuple(rng.uniform(-2, 2, size=3))
            low = make_params(b=0.5)
            high = make_params(b=2.5)
            total_low = stage_payoff("R", x, q, inv, low) + stage_payoff("M", x, q, inv, low)
            total_high = stage_payoff("R", x, q, inv, high) + stage_payoff("M", x, q, inv, high)
            assert total_low == pytest.approx(total_high, rel=1e-12, abs=1e-12)


class TestTotalObjective:
    def test_single_period_equals_stage_payoff(self):
        p = make_params(horizon_T=1)
        traj = make_trajectory(p, [1.0], [2.0], [0.5])
        for player in "SMR":
            expected = stage_payoff(player, traj.x[0], traj.q[0], (1.0, 2.0, 0.5), p)
            assert total_objective(player, traj, p) == pytest.approx(expected)

    def test_doubling_horizon_doubles_value(self):
        # identical per-period values need x constant, so use alpha = 1 with
        # zero investment: every period repeats exactly
        p1 = make_params(alpha=1.0, horizon_T=2, x1=1.5)
        p2 = make_params(alpha=1.0, horizon_T=4, x1=1.5)
        short = make_trajectory(p1, [0, 0], [0, 0], [0, 0])
        long = make_trajectory(p2, [0] * 4, [0] * 4, [0] * 4)
        for player in "SMR":
            assert total_objective(player, long, p2) == pytest.approx(
                2.0 * total_objective(player, short, p1))

    def test_additive_over_time_windows(self):
        p = make_params(horizon_T=4)
        rng = np.random.default_rng(9)
        i_s, i_m, i_r = rng.uniform(-1, 1, size=(3, 4))
        traj = make_trajectory(p, i_s, i_m, i_r)
        # second window starts from the state the first window reached
        p_head = make_params(horizon_T=2)
        head = make_trajectory(p_head, i_s[:2], i_m[:2], i_r[:2])
        p_tail = make_params(horizon_T=2, x1=traj.x[2])
        tail = make_trajectory(p_tail, i_s[2:], i_m[2:], i_r[2:])
        for player in "SMR":
            assert total_objective(player, traj, p) == pytest.approx(
                total_objective(player, head, p_head)
                + total_objective(player, tail, p_tail))

    def test_rejects_inconsistent_trajectory(self):
        p = make_params()
        traj = make_trajectory(p, [1, 1, 1], [1, 1, 1], [1, 1, 1])
        traj.x[2] += 0.5
        with pytest.raises(TrajectoryConsistencyError):
            total_objective("S", traj, p)

    def test_rejects_nan_state(self, reference_params):
        traj, _ = solve_game(reference_params)
        traj.x[2] = np.nan
        with pytest.raises(TrajectoryConsistencyError):
            total_objective("S", traj, reference_params)

    def test_consistency_check_measures_gap(self):
        p = make_params()
        traj = make_trajectory(p, [1, 1, 1], [1, 1, 1], [1, 1, 1])
        assert check_state_consistency(traj, p) == 0.0
        traj.x[1] += 0.25
        assert check_state_consistency(traj, p) >= 0.25

    @pytest.mark.parametrize("T", [1, 3, 12, 60])
    def test_array_forms_equal_period_loops(self, T):
        """The objective and the consistency gap equal a period-by-period
        loop bit for bit: the objective is the running total over t, the
        gap the largest per-period violation."""
        p = make_params(horizon_T=T)
        rng = np.random.default_rng(T)
        traj = make_trajectory(p, *rng.uniform(-2, 2, size=(3, T)))
        traj.x[1:] += 1e-9 * rng.standard_normal(T)
        c = traj.controls
        worst = 0.0
        for t in range(1, T + 1):
            predicted = state_transition(traj.x[t - 1], (c.i_s[t - 1], c.i_m[t - 1],
                                                         c.i_r[t - 1]), p)
            worst = max(worst, abs(traj.x[t] - predicted))
        assert check_state_consistency(traj, p) == worst
        for player in "SMR":
            total = 0.0
            for t in range(1, T + 1):
                total += stage_payoff(player, traj.x[t - 1], traj.q[t - 1],
                                      (c.i_s[t - 1], c.i_m[t - 1], c.i_r[t - 1]), p)
            assert total_objective(player, traj, p) == total


class TestTrajectoryMaxDelta:
    COMPONENTS = ["x", "i_r", "q", "p_r", "u_prime", "w", "nu"]

    @pytest.fixture(scope="class")
    def solved(self):
        return solve_game(make_params())[0]

    @staticmethod
    def path(trajectory, component):
        owner = trajectory.controls if component.startswith("i_") else trajectory
        return getattr(owner, component)

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_nan_in_any_component_propagates(self, solved, component):
        other = copy.deepcopy(solved)
        self.path(other, component)[1] = np.nan
        assert np.isnan(trajectory_max_delta(solved, other))
        assert np.isnan(trajectory_max_delta(other, solved))

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_largest_component_delta(self, solved, component):
        other = copy.deepcopy(solved)
        self.path(other, component)[0] += 0.5
        assert trajectory_max_delta(solved, other) == pytest.approx(0.5, rel=1e-9)


class TestParamsValidation:
    def test_reference_is_valid(self):
        assert make_params().validate() == []

    def test_all_violations_reported_together(self):
        bad = make_params(beta_s=1.5, b=-1.0, d=1.2, horizon_T=0)
        violations = bad.validate()
        joined = "\n".join(violations)
        assert "beta_s" in joined and "(0, 1)" in joined
        assert "b must be positive" in joined
        assert "d must lie in [0, 1)" in joined
        assert "horizon_T" in joined
        assert len(violations) == 4

    def test_validated_raises(self):
        with pytest.raises(ParamsError, match="beta_s"):
            make_params(beta_s=1.5).validated()

    def test_alpha_strictness_flag(self):
        assert make_params(alpha=1.3).validate() != []
        assert make_params(alpha=1.3, strict_alpha=False).validate() == []
        assert make_params(alpha=-0.2, strict_alpha=False).validate() != []

    def test_non_finite_rejected(self):
        assert make_params(v=float("nan")).validate() != []
        assert make_params(a=float("inf")).validate() != []
