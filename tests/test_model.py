import copy
import dataclasses
import warnings
from fractions import Fraction

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
    total_objective,
    trajectory_max_delta,
)
from csrchain.model import MAX_HORIZON, PARAM_FIELDS, check_state_consistency

from conftest import clear_caches, make_params, tax_return


def make_trajectory(params, i_s, i_m, i_r):
    i_s = np.asarray(i_s, float)
    i_m = np.asarray(i_m, float)
    i_r = np.asarray(i_r, float)
    T = len(i_s)
    x = rollout(params, i_s, i_m, i_r)
    return Trajectory(
        x=x, controls=Controls(i_s=i_s, i_m=i_m, i_r=i_r),
        q=np.full(T, optimal_quantity(params)),
        p_s=np.zeros(T), p_m=np.zeros(T), p_r=np.zeros(T),
        u=np.zeros(T + 1), u_prime=np.zeros(T + 1),
    )


def violations_of(**overrides):
    """The violations that building the reference parameters with
    ``overrides`` raises."""
    with pytest.raises(ParamsError) as info:
        make_params(**overrides)
    return info.value.violations


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


    @pytest.mark.parametrize("player, own", [("S", 0), ("M", 1), ("R", 2)])
    def test_stage_payoff_carries_it(self, player, own):
        """A stage payoff's tax-return term, the payoff less the payoff at
        tau = 0, is the tax return on the player's own investment."""
        p = make_params(tau=0.3, theta=0.2)
        untaxed = dataclasses.replace(p, tau=0.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, q = rng.uniform(-2, 2), rng.uniform(0, 5)
            controls = tuple(rng.uniform(-3, 3, size=3))
            assert (stage_payoff(player, x, q, controls, p)
                    - stage_payoff(player, x, q, controls, untaxed)) == pytest.approx(
                tax_return(controls[own], sum(controls), p), rel=1e-9, abs=1e-12)


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
        """b <= 0 cannot be built, so the quantity is always defined."""
        assert violations_of(b=-1.0) == ["b must be positive, got -1.0"]
        assert violations_of(b=0.0) == ["b must be positive, got 0.0"]

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

    def test_rejects_trajectory_of_another_horizon(self):
        traj = solve_game(make_params(horizon_T=3))[0]
        with pytest.raises(ValueError, match="^the trajectory has horizon 3, the parameters horizon_T = 4$"):
            total_objective("S", traj, make_params(horizon_T=4))

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

    def test_rejects_trajectories_of_two_horizons(self, solved):
        longer = solve_game(make_params(horizon_T=4))[0]
        with pytest.raises(ValueError, match=r"horizons 3 and 4"):
            trajectory_max_delta(solved, longer)


class TestParamsValidation:
    def test_reference_is_valid(self):
        assert make_params().validate() == []

    def test_all_violations_reported_together(self):
        violations = violations_of(beta_s=1.5, b=-1.0, d=1.2, horizon_T=0)
        joined = "\n".join(violations)
        assert "beta_s" in joined and "(0, 1)" in joined
        assert "b must be positive" in joined
        assert "d must lie in [0, 1)" in joined
        assert "horizon_T" in joined
        assert len(violations) == 4

    @pytest.mark.parametrize("bad, message", [
        (dict(beta_s=1.5), "beta_s must lie in (0, 1), got 1.5"),
        (dict(horizon_T=0), "horizon_T must be an integer >= 1, got 0"),
        (dict(alpha=-1.0), "alpha must lie in (0, 1], got -1.0"),
    ], ids=["beta_s-above-one", "horizon-0", "alpha-negative"])
    def test_construction_raises(self, bad, message):
        """An invalid parameter set cannot be built, so no reader of the
        game is ever handed one."""
        with pytest.raises(ParamsError) as info:
            make_params(**bad)
        assert info.value.violations == [message]
        assert str(info.value) == f"invalid model parameters:\n  {message}"

    def test_replace_is_validated(self):
        """dataclasses.replace builds through the constructor, so it cannot
        turn a valid set into an invalid one."""
        with pytest.raises(ParamsError) as info:
            dataclasses.replace(make_params(), b=-1.0)
        assert info.value.violations == ["b must be positive, got -1.0"]

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_horizon_refused(self, flag):
        """bool is an int subclass; construction refuses it, so it never
        reaches the solvers' array code."""
        assert violations_of(horizon_T=flag) == [
            f"horizon_T must be an integer >= 1, got {flag!r}"]

    @pytest.mark.parametrize("horizon", [np.int64(4), np.int32(4), np.uint8(255), np.int8(127)],
                             ids=["int64", "int32", "uint8-max", "int8-max"])
    def test_numpy_integer_horizon_accepted(self, horizon):
        """Any integral horizon but a bool is valid, and is kept as an int,
        so a narrow numpy type cannot wrap in T + 1 at its maximum."""
        p = make_params(horizon_T=horizon)
        assert p.validate() == []
        assert type(p.horizon_T) is int and p.horizon_T == int(horizon)
        assert p == make_params(horizon_T=int(horizon))
        trajectory, report = solve_game(p)
        assert trajectory.horizon == int(horizon) and report.horizon_T == int(horizon)

    @pytest.mark.parametrize("horizon", [np.bool_(True), 4.0, np.float64(4.0)],
                             ids=["numpy-bool", "float", "numpy-float"])
    def test_non_integral_horizon_refused(self, horizon):
        assert violations_of(horizon_T=horizon) == [
            f"horizon_T must be an integer >= 1, got {horizon!r}"]

    @pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 5 * 10**16, 2**63 - 1, 10**29],
                             ids=["bound-plus-one", "5e16", "int64-max", "1e29"])
    def test_horizon_past_the_bound_refused(self, horizon):
        """numpy cannot size the oracle's (T + 1, 15, 3) arrays past the
        bound, so such a horizon is refused before any array is sized by it:
        5e16 too, whose (16, T + 1) sweep arrays numpy could size."""
        assert violations_of(horizon_T=horizon) == [
            f"horizon_T must be at most {MAX_HORIZON}, got {horizon!r}"]

    def test_horizon_bound_is_the_last_indexable(self):
        """The bound is accepted (building the parameters allocates nothing),
        and is the last T whose (T + 1, 15, 3) float64 shape numpy sizes."""
        assert make_params(horizon_T=MAX_HORIZON).horizon_T == MAX_HORIZON == 25620477880152154
        assert 15 * 3 * 8 * (MAX_HORIZON + 1) <= np.iinfo(np.intp).max
        assert 15 * 3 * 8 * (MAX_HORIZON + 2) > np.iinfo(np.intp).max

    @pytest.mark.parametrize("name", ["tau", "theta", "delta_s", "delta_m", "delta_r", "c"])
    def test_negative_refused(self, name):
        assert violations_of(**{name: -0.5}) == [
            f"{name} must be nonnegative, got -0.5"]

    def test_alpha_strictness_flag(self):
        assert violations_of(alpha=1.3) == ["alpha must lie in (0, 1], got 1.3"]
        assert make_params(alpha=1.3, strict_alpha=False).validate() == []
        assert violations_of(alpha=-0.2, strict_alpha=False) == [
            "alpha must be positive, got -0.2"]

    @pytest.mark.parametrize("value", [None, "0.9", True, np.bool_(True), [0.9]],
                             ids=["none", "string", "bool", "numpy-bool", "list"])
    def test_non_number_refused(self, value):
        """A float field that holds no real number is listed, not a
        TypeError, and an unhashable one too; a bool is refused as it is
        for horizon_T.  Construction raises, so no solver is handed one."""
        assert violations_of(alpha=value) == [f"alpha must be a real number, got {value!r}"]
        assert violations_of(beta_s=value) == [f"beta_s must be a real number, got {value!r}"]

    @pytest.mark.parametrize("name", PARAM_FIELDS[float])
    def test_unhashable_value_refused(self, name):
        """An unhashable value in any float field is listed by name at
        construction, before anything hashes the set (the layout cache
        would raise TypeError)."""
        assert violations_of(**{name: [0.5]}) == [f"{name} must be a real number, got [0.5]"]

    def test_integer_float_field_accepted(self):
        assert make_params(alpha=1, b=2, c=0).validate() == []

    def test_non_finite_rejected(self):
        assert violations_of(v=float("nan")) == ["v must be finite, got nan"]
        assert violations_of(a=float("inf")) == ["a must be finite, got inf"]

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "huge-negative"])
    def test_integer_past_float_range_rejected(self, value):
        """An int that no float holds is not finite: it is listed with the
        other violations, not an OverflowError."""
        with pytest.raises(ParamsError) as info:
            make_params(a=value, b=-1.0)
        assert info.value.violations == [f"a must be finite, got {value!r}",
                                         "b must be positive, got -1.0"]

    @pytest.mark.parametrize("value", [np.float32(0.25), np.float16(0.25), Fraction(1, 4), 1,
                                       np.int64(1), np.longdouble(0.25)],
                             ids=["float32", "float16", "fraction", "int", "int64", "longdouble"])
    def test_float_fields_are_held_as_floats(self, value):
        """Whatever real number a float field is given, a valid set holds
        it as the Python float that rounds it, as the solvers compute with."""
        p = make_params(tau=value, d=value * 0.5, x1=value)
        for name in PARAM_FIELDS[float]:
            assert type(getattr(p, name)) is float
        assert (p.tau, p.d, p.x1) == (float(value), float(value * 0.5), float(value))

    def test_float32_parameters_build_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = make_params(tau=np.float32(0.1), theta=np.float32(0.05))
        assert p == make_params(tau=float(np.float32(0.1)), theta=float(np.float32(0.05)))

    def test_float32_game_and_its_float64_twin_solve_alike(self):
        """A float32 game and its float64 twin are one game: the twin solved
        warm after it reads the bits of the twin solved cold."""
        twin = make_params(tau=float(np.float32(0.1)), theta=float(np.float32(0.05)),
                           horizon_T=20)
        clear_caches()
        cold, _ = solve_game(twin)
        clear_caches()
        solve_game(make_params(tau=np.float32(0.1), theta=np.float32(0.05), horizon_T=20))
        warm, _ = solve_game(twin)
        assert trajectory_max_delta(cold, warm) == 0.0
        assert all(np.array_equal(getattr(cold, f.name), getattr(warm, f.name))
                   for f in dataclasses.fields(cold) if f.name != "controls")
        assert np.array_equal(cold.controls.stacked(), warm.controls.stacked())

    @pytest.mark.parametrize("overrides, expected", [
        ({"beta_s": np.float32(1.5)}, "beta_s must lie in (0, 1), got np.float32(1.5)"),
        ({"a": np.float32("inf")}, "a must be finite, got np.float32(inf)"),
        ({"v": np.float32("nan")}, "v must be finite, got np.float32(nan)"),
        ({"b": Fraction(-1, 2)}, "b must be positive, got Fraction(-1, 2)"),
        ({"tau": -1}, "tau must be nonnegative, got -1"),
        ({"c": Fraction(10**400)}, f"c must be finite, got Fraction({10**400}, 1)"),
    ], ids=["float32-bound", "float32-inf", "float32-nan", "fraction", "int", "fraction-huge"])
    def test_violations_quote_the_value_given(self, overrides, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert violations_of(**overrides) == [expected]

    def test_a_bound_holds_for_the_float_held(self):
        """The bounds are checked on the float a value rounds to, so a set
        whose float would break one is refused."""
        below_one = Fraction(10**20 - 1, 10**20)
        assert float(below_one) == 1.0
        assert violations_of(beta_s=below_one) == [
            f"beta_s must lie in (0, 1), got {below_one!r}"]
