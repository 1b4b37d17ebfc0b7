import dataclasses

import numpy as np
import pytest

from csrchain import (
    SweepSingularError,
    UndeterminedControlsError,
    assemble_augmented,
    backward_sweep,
    dense_solve,
    forward_pass,
    residual_norms,
    solve_game,
    trajectory_max_delta,
)
from csrchain.model import state_transition
from csrchain.stationarity import equation_table
from csrchain.sweep import (
    AugmentedSystem,
    _inner_consistency_delta,
    _LEVELS,
    _sweep_forward,
    solve_inner_given_supplier,
)

from conftest import draw_params, make_params

OUTER_STATE, OUTER_COSTATE, OUTER_PERIOD, _ = _LEVELS["outer"]


def table_residuals(params, point, labels):
    """The named algebraic families of the table at one period."""
    rows = {fam.label: fam for fam in equation_table(params)}
    return [rows[label].residual(point) for label in labels]


def table_steps(params, point, labels):
    """The values the named recursions of the table give their blocks."""
    rows = {fam.label: fam for fam in equation_table(params)}
    return [rows[label].stepped(point) for label in labels]


def expand(aug, t, y_now, y_next):
    """The period unknowns the solution maps give at (y[t], y[t+1]), and the
    recursion rows P y[t] + Q y[t+1] - g[t] (t counted from 0)."""
    v = aug.sol_G @ np.concatenate([y_now, y_next]) + aug.sol_g[t]
    return v, aug.P @ y_now + aug.Q @ y_next - aug.g[t]


class TestAssembleAugmented:
    def test_outer_blocks_reproduce_equations(self, reference_params):
        """Expanding the outer rows at arbitrary values reproduces every
        equation of the table's period, entry for entry: each row is its
        stepped block's value less the value the table steps it to."""
        p = reference_params
        aug = assemble_augmented(p, "outer")
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(10):
            y_now = rng.uniform(-2, 2, size=8)     # (x, u, w, u', p_r, p_m, p_s, r)
            y_next = rng.uniform(-2, 2, size=8)
            xt, Pt, Pn = y_now[:4], y_now[4:], y_next[4:]
            sol, rows = expand(aug, 0, y_now, y_next)
            point = {(name, 0): value for name, value in zip(OUTER_PERIOD, sol)}
            point.update({(name, 1): value for name, value in zip(OUTER_COSTATE, Pn)})
            point.update({(name, 0): value for name, value in zip(OUTER_STATE, xt)})
            residuals = table_residuals(p, point, (
                "foc_r", "foc_m", "m_react", "foc_s", "s_react_m", "s_react_r",
                "s_react_l"))
            worst = max(worst, max(abs(r) for r in residuals))
            expected_forward = [state_transition(xt[0], tuple(sol[:3]), p)]
            expected_forward += table_steps(p, point, ("u_step", "w_step", "u_prime_step"))
            forward = y_next[:4] - rows[:4]
            worst = max(worst, max(abs(a - b) for a, b in zip(forward, expected_forward)))
            backward = Pt - rows[4:]
            expected_backward = table_steps(p, point, (
                "costate_r", "costate_m", "costate_s", "r_step"))
            worst = max(worst, max(abs(a - b) for a, b in zip(backward, expected_backward)))
        assert worst <= 1e-12

    def test_inner_blocks_reproduce_equations(self, reference_params):
        p = reference_params
        i_s = np.array([0.7, -0.4, 1.2])
        aug = assemble_augmented(p, "inner", {"i_s": i_s})
        rng = np.random.default_rng(37)
        worst = 0.0
        for t in range(p.horizon_T):
            y_now = rng.uniform(-2, 2, size=4)     # (x, u, p_m, p_r)
            y_next = rng.uniform(-2, 2, size=4)
            xt, Pt, Pn = y_now[:2], y_now[2:], y_next[2:]
            (i_m, i_r, lam), rows = expand(aug, t, y_now, y_next)
            point = {("i_s", 0): i_s[t], ("i_m", 0): i_m, ("i_r", 0): i_r,
                     ("lam", 0): lam, ("p_m", 1): Pn[0], ("p_r", 1): Pn[1],
                     ("x", 0): xt[0], ("u", 0): xt[1]}
            residuals = table_residuals(p, point, ("foc_r", "foc_m", "m_react"))
            worst = max(worst, max(abs(r) for r in residuals))
            forward = y_next[:2] - rows[:2]
            expected_forward = [state_transition(xt[0], (i_s[t], i_m, i_r), p)]
            expected_forward += table_steps(p, point, ("u_step",))
            worst = max(worst, max(abs(a - b) for a, b in zip(forward, expected_forward)))
            backward = Pt - rows[2:]
            expected_backward = table_steps(p, point, ("costate_m", "costate_r"))
            worst = max(worst, max(abs(a - b) for a, b in zip(backward, expected_backward)))
        assert worst <= 1e-12

    def test_d22_matches_a_block(self, reference_params):
        """Deriving the costate rows from the recursions settles their
        carryover: the costates' coefficients at t + 1 in the rows stepping
        them (D22) equal the states' coefficients at t in the rows stepping
        them (A), -alpha times the identity, at every level."""
        p = reference_params
        for level, (state, _, _, held) in _LEVELS.items():
            aug = assemble_augmented(p, level, {name: np.zeros(3) for name in held})
            n = len(state)
            assert np.array_equal(aug.Q[n:, n:], aug.P[:n, :n])
            assert np.array_equal(aug.P[:n, :n], -p.alpha * np.eye(n))

    def test_costate_block_zero_without_benefit(self):
        """Without social benefit the costate rows lose their state terms
        (C = 0), and they never carry a constant, so the backward recursion
        needs no forcing term."""
        p = make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0, d=0.0, d_hat=0.0)
        aug = assemble_augmented(p, "outer")
        assert np.array_equal(aug.P[4:, :4], np.zeros((4, 4)))
        assert np.array_equal(aug.g[:, 4:], np.zeros((p.horizon_T, 4)))
        backward = [fam for fam in equation_table(p)
                    if fam.boundary is not None and fam.boundary.at_end]
        assert len(backward) == 4
        assert all(fam.constant == 0.0 for fam in backward)

    def test_degenerate_tax_structure_propagates(self):
        with pytest.raises(UndeterminedControlsError):
            assemble_augmented(make_params(theta=0.0), "outer")

    def test_inner_requires_supplier_path(self, reference_params):
        with pytest.raises(ValueError, match="inner level needs the fixed paths \\('i_s',\\)"):
            assemble_augmented(reference_params, "inner")

    def test_unknown_level_rejected(self, reference_params):
        with pytest.raises(ValueError, match="level"):
            assemble_augmented(reference_params, "middle")


def roundoff_bound(T, scale):
    """k eps scale, with k = 2m (ceil(log2 T) + 1) and m = 8 rows per
    outer equation: each reduction level, and the final solve, applies one
    orthogonal transform of 2m rows to right-hand sides of size ``scale``,
    and each row of it is a dot product of 2m terms, with rounding error at
    most 2m eps times the size of its terms."""
    return 16 * (np.ceil(np.log2(T)) + 1) * np.finfo(float).eps * scale


class TestBackwardSweep:
    def test_terminal_costates_are_zero(self, reference_params):
        """Pt[T+1] = 0 is imposed, not solved for, at both levels."""
        p = reference_params
        T = p.horizon_T
        aug = assemble_augmented(p, "outer")
        traj = forward_pass(aug, backward_sweep(aug), p)
        inner = solve_inner_given_supplier(p, traj.controls.i_s)
        for path in (traj.p_r, traj.p_m, traj.p_s, traj.r, inner["p_m"], inner["p_r"]):
            assert path.shape == (T,)
            assert path[T - 1] == 0.0

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 12, 1023, 1024, 1025, 10000])
    def test_levels_and_factorizations(self, T, monkeypatch):
        """The reduction runs ceil(log2 T) levels and factors at most two
        matrices per level: the pairs' shared matrix and the tail's."""
        aug = assemble_augmented(make_params(horizon_T=T), "outer")
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        levels, final = backward_sweep(aug)
        assert len(levels) == int(np.ceil(np.log2(T)))
        assert len(levels) <= len(calls) <= 2 * len(levels)
        assert [part.shape for part in final] == [(8, 8), (8, 8), (8,)]

    def test_single_period_single_step(self):
        """At T = 1 nothing is paired: the final equation is the period's
        own, P y[1] + Q y[2] = g[1]."""
        aug = assemble_augmented(make_params(horizon_T=1), "outer")
        levels, (P, Q, g) = backward_sweep(aug)
        assert levels == []
        assert np.array_equal(Q, aug.Q)
        assert np.array_equal(P, aug.P)
        assert np.array_equal(g, aug.g[0])

    def test_zero_costate_block_kills_gains(self, reference_params):
        """With C = 0 (no state terms in the costate rows) the backward
        recursion Pt[t] = D22 Pt[t+1] from Pt[T+1] = 0 has only the zero
        solution, whatever the forcing of the state rows."""
        for T in (1, 5, 60, 1000):
            aug = assemble_augmented(dataclasses.replace(reference_params, horizon_T=T),
                                     "outer")
            forcing = np.zeros_like(aug.g)
            forcing[:, :4] = np.random.default_rng(3).uniform(-100, 100, size=(T, 4))
            P = aug.P.copy()
            P[4:, :4] = 0.0
            stripped = dataclasses.replace(aug, P=P, g=forcing,
                                           xt1=np.array([1.0, 0.0, 0.0, 0.0]))
            paths = _sweep_forward(stripped, backward_sweep(stripped))
            xt = np.stack([paths[name] for name in OUTER_STATE])
            Pt = np.stack([paths[name] for name in OUTER_COSTATE])
            assert np.max(np.abs(Pt)) <= roundoff_bound(T, np.max(np.abs(xt)))

    def test_sweep_costates_match_dense(self, reference_params):
        p = reference_params
        traj, _ = solve_game(p)
        reference = dense_solve(p)
        for mine, theirs in [(traj.p_r, reference.p_r), (traj.p_m, reference.p_m),
                             (traj.p_s, reference.p_s), (traj.r, reference.r)]:
            assert np.max(np.abs(mine - theirs)) <= 1e-8

    def test_singular_boundary_system_names_level(self):
        # direct construction: the rows xt[t+1] - xt[t] - Pt[t+1] = 0 and
        # xt[t] - Pt[t] + Pt[t+1] = 0 map (xt, Pt) to (Pt, Pt - xt), so at
        # T = 2 the final equation cannot determine Pt[1] and xt[3]
        eye, zero = np.eye(2), np.zeros((2, 2))
        for level in ("outer", "inner", "retailer"):
            aug = AugmentedSystem(
                level=level, P=np.block([[-eye, zero], [eye, -eye]]),
                Q=np.block([[eye, -eye], [zero, eye]]), g=np.zeros((2, 4)),
                sol_G=np.zeros((7, 8)), sol_g=np.zeros((2, 7)), xt1=np.zeros(2),
            )
            reduction = backward_sweep(aug)
            with pytest.raises(SweepSingularError) as excinfo:
                _sweep_forward(aug, reduction)
            assert excinfo.value.level == level
            assert f"{level} level" in str(excinfo.value)

    def test_non_finite_recovery_names_level(self, reference_params):
        """An overflowed forcing reaches the recovery as inf or nan, which no
        solve reports as a LinAlgError."""
        aug = assemble_augmented(reference_params, "inner", {"i_s": np.zeros(3)})
        aug.g[1, 0] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(SweepSingularError, match="inner level"):
            _sweep_forward(aug, backward_sweep(aug))


class TestForwardPass:
    def test_zero_drive_means_zero_trajectory(self):
        p = make_params(tau=1.0, d=0.0, d_hat=0.0, x1=0.0)
        traj, report = solve_game(p)
        assert np.array_equal(traj.x, np.zeros(p.horizon_T + 1))
        assert np.max(np.abs(traj.controls.stacked())) == 0.0
        assert report.residual_max == 0.0

    def test_residual_small_on_reference(self, reference_params):
        traj, _ = solve_game(reference_params)
        assert residual_norms(traj, reference_params)[0] <= 1e-8

    def test_doubling_initial_stock_scales_homogeneous_part(self, reference_params):
        import dataclasses as dc
        p0 = dc.replace(reference_params, x1=0.0)
        p1 = dc.replace(reference_params, x1=1.0)
        p2 = dc.replace(reference_params, x1=2.0)
        x0 = solve_game(p0)[0].x
        x1 = solve_game(p1)[0].x
        x2 = solve_game(p2)[0].x
        assert np.allclose(x2 - x0, 2.0 * (x1 - x0), rtol=1e-9, atol=1e-9)

    def test_rejects_inner_system(self, reference_params):
        aug = assemble_augmented(reference_params, "inner", {"i_s": np.zeros(3)})
        with pytest.raises(ValueError, match="outer"):
            forward_pass(aug, backward_sweep(aug), reference_params)

    def test_zero_investment_channels_reduce_to_carryover(self, reference_params):
        """With the costates' coefficients in the state rows (B) forced to
        zero the forward recursion must collapse to xt_{t+1} = A xt_t + f_t,
        with A = -P[:4, :4] and f the state rows of g."""
        aug = assemble_augmented(reference_params, "outer")
        Q = aug.Q.copy()
        Q[:4, 4:] = 0.0
        stripped = dataclasses.replace(aug, Q=Q, xt1=np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(Q[:4, :4], np.eye(4))
        assert np.array_equal(stripped.P[:4, 4:], np.zeros((4, 4)))
        paths = _sweep_forward(stripped, backward_sweep(stripped))
        xt = np.stack([paths[name] for name in OUTER_STATE], axis=1)
        expected = np.array([1.0, 0.0, 0.0, 0.0])
        for t in range(reference_params.horizon_T):
            expected = -stripped.P[:4, :4] @ expected + stripped.g[t, :4]
            assert np.allclose(xt[t + 1], expected, rtol=1e-12, atol=1e-12)


class TestSolveGame:
    def test_matches_oracle_on_reference(self, reference_params):
        traj, report = solve_game(reference_params)
        reference = dense_solve(reference_params)
        assert trajectory_max_delta(traj, reference) <= 1e-8
        assert report.residual_max <= 1e-9
        assert report.inner_consistency_delta <= 1e-8

    def test_single_period_closed_form(self):
        """At horizon 1 all costates vanish, leaving an explicit solution:
        with K = (1-tau)/(tau theta), D = d/(2 tau theta), Dh = d_hat/(2 tau
        theta), the investments are (K/2 + 2D - Dh, K/4 - D + 3Dh/2,
        K/8 - D/2 - Dh/4)."""
        p = make_params(horizon_T=1)
        traj, _ = solve_game(p)
        k = p.tau * p.theta
        K = (1 - p.tau) / k
        D = p.d / (2 * k)
        Dh = p.d_hat / (2 * k)
        assert traj.controls.i_s[0] == pytest.approx(K / 2 + 2 * D - Dh)
        assert traj.controls.i_m[0] == pytest.approx(K / 4 - D + 1.5 * Dh)
        assert traj.controls.i_r[0] == pytest.approx(K / 8 - D / 2 - Dh / 4)
        assert traj.controls.i_s[0] == pytest.approx(100.0)
        assert traj.controls.i_m[0] == pytest.approx(50.0)
        assert traj.controls.i_r[0] == pytest.approx(15.0)

    def test_collapse_without_benefit(self):
        p = make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0, d=0.0, d_hat=0.0,
                        horizon_T=5)
        traj, _ = solve_game(p)
        bound = roundoff_bound(p.horizon_T, np.max(np.abs(traj.controls.stacked())))
        for costates in (traj.p_s, traj.p_m, traj.p_r):
            assert np.max(np.abs(costates)) <= bound
        for path in (traj.controls.i_s, traj.controls.i_m, traj.controls.i_r):
            assert np.max(np.abs(np.diff(path))) <= 1e-10

    def test_collapse_holds_with_pass_through_shares(self):
        # zero benefit coefficients alone kill the costates; the shares only
        # shift the (still time-constant) investment levels
        p = make_params(delta_s=0.0, delta_m=0.0, delta_r=0.0, d=0.3, d_hat=0.2,
                        horizon_T=4)
        traj, _ = solve_game(p)
        bound = roundoff_bound(p.horizon_T, np.max(np.abs(traj.controls.stacked())))
        for costates in (traj.p_s, traj.p_m, traj.p_r, traj.r):
            assert np.max(np.abs(costates)) <= bound
        for path in (traj.controls.i_s, traj.controls.i_m, traj.controls.i_r):
            assert np.max(np.abs(np.diff(path))) <= 1e-10

    def test_transversality_exact(self, reference_params):
        traj, _ = solve_game(reference_params)
        T = reference_params.horizon_T
        assert traj.p_s[T - 1] == 0.0
        assert traj.p_m[T - 1] == 0.0
        assert traj.p_r[T - 1] == 0.0
        assert traj.r[T - 1] == 0.0

    def test_initial_stock_affinity(self, reference_params):
        import dataclasses as dc
        values = []
        for x1 in (0.0, 1.0, 2.0):
            traj, _ = solve_game(dc.replace(reference_params, x1=x1))
            values.append(np.concatenate([
                traj.x, traj.controls.stacked(), traj.p_s, traj.p_m, traj.p_r,
                traj.u, traj.u_prime, traj.w, traj.r,
            ]))
        assert np.allclose(values[1], 0.5 * (values[0] + values[2]),
                           rtol=1e-9, atol=1e-9)

    def test_deterministic_across_runs(self, reference_params):
        t1, r1 = solve_game(reference_params)
        t2, r2 = solve_game(reference_params)
        assert trajectory_max_delta(t1, t2) == 0.0
        fields = [f for f in r1.__dataclass_fields__ if f != "timing_seconds"]
        for f in fields:
            assert getattr(r1, f) == getattr(r2, f)

    def test_report_flags(self, reference_params):
        _, report = solve_game(reference_params)
        assert report.convexity_warning is True          # tau*theta > 0
        assert report.negative_investment_warning is True
        assert report.solver_path == "sweep"
        assert report.quantity == pytest.approx(4.0)

    def test_degenerate_tax_structure_rejected(self):
        with pytest.raises(UndeterminedControlsError):
            solve_game(make_params(tau=0.1, theta=0.0))

    def test_randomized_agreement_with_oracle(self):
        rng = np.random.default_rng(19)
        for T in (1, 2, 5):
            for _ in range(3):
                p = draw_params(rng, T)
                traj, report = solve_game(p)
                reference = dense_solve(p)
                assert trajectory_max_delta(traj, reference) <= 1e-8
                assert report.residual_max <= 1e-9
                assert residual_norms(reference, p)[0] <= 1e-9


class TestInnerLevel:
    def test_inner_solution_embeds_in_outer(self, reference_params):
        traj, report = solve_game(reference_params)
        inner = solve_inner_given_supplier(reference_params, traj.controls.i_s)
        assert np.max(np.abs(inner["x"] - traj.x)) <= 1e-9
        assert np.max(np.abs(inner["u"] - traj.u)) <= 1e-9
        assert np.max(np.abs(inner["p_m"] - traj.p_m)) <= 1e-9
        assert np.max(np.abs(inner["p_r"] - traj.p_r)) <= 1e-9
        assert np.max(np.abs(inner["i_m"] - traj.controls.i_m)) <= 1e-9
        assert np.max(np.abs(inner["i_r"] - traj.controls.i_r)) <= 1e-9
        assert report.inner_consistency_delta <= 1e-8

    def test_consistency_delta_propagates_nan(self, reference_params):
        """A NaN in the last inner component compared still reaches the delta."""
        traj, _ = solve_game(reference_params)
        traj.lam[1] = np.nan
        assert np.isnan(_inner_consistency_delta(reference_params, traj))
