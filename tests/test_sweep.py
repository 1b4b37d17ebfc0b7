import dataclasses
import inspect
import time

import numpy as np
import pytest

from csrchain import (
    SweepSingularError,
    UndeterminedControlsError,
    dense_solve,
    residual_norms,
    solve_game,
    sweep,
    total_objective,
    trajectory_max_delta,
)
from csrchain.model import stage_payoff, state_transition
from csrchain.output import emit_csv, render_report
from csrchain.oracle import solve_inner_response, solve_retailer_response
from csrchain import stationarity
from csrchain.oracle import follower_stationarity_check, leader_stationarity_check
from csrchain.stationarity import (
    assemble_system, equation_table, period_rows, trajectory_from_blocks,
)
from csrchain.sweep import (
    AugmentedSystem,
    _inner_consistency_delta,
    _LEVELS,
    assemble_augmented,
    backward_sweep,
    forward_pass,
    solve_inner_given_supplier,
)

from conftest import (
    clear_caches, draw_params, level_table, make_params, patch_bindings, vector_to_trajectory,
)

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
    v = aug.sol_G @ np.concatenate([y_now, y_next]) + aug.sol_g[:, t]
    return v, aug.P @ y_now + aug.Q @ y_next - aug.g[:, t]


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
        assert np.array_equal(aug.g[4:], np.zeros((4, p.horizon_T)))
        backward = [fam for fam in equation_table(p)
                    if fam.boundary is not None and fam.at_end]
        assert len(backward) == 4
        assert all(fam.constant == 0.0 for fam in backward)

    def test_degenerate_tax_structure_propagates(self):
        with pytest.raises(UndeterminedControlsError):
            assemble_augmented(make_params(theta=0.0), "outer")

    @pytest.mark.parametrize("fixed, got", [
        (None, "()"),
        ({"bogus": np.zeros(3)}, "('bogus',)"),
        ({"i_s": np.zeros(3), "I_m": np.zeros(3)}, "('i_s', 'I_m')"),
    ], ids=["none", "unknown-block", "extra-unknown-block"])
    def test_inner_requires_supplier_path(self, reference_params, fixed, got):
        """The names are checked against the level's fixed blocks before any
        path is, so a name that is no block is the same ValueError."""
        with pytest.raises(ValueError) as info:
            assemble_augmented(reference_params, "inner", fixed)
        assert str(info.value) == f"the inner level needs the fixed paths ('i_s',), got {got}"

    @pytest.mark.parametrize("name", ["i_s", "bogus"], ids=["held-block", "unknown-block"])
    def test_outer_takes_no_fixed_paths(self, reference_params, name):
        with pytest.raises(ValueError) as info:
            assemble_augmented(reference_params, "outer", {name: np.zeros(3)})
        assert str(info.value) == f"the outer level needs the fixed paths (), got ('{name}',)"

    def test_unknown_level_rejected(self, reference_params):
        with pytest.raises(ValueError, match="level"):
            assemble_augmented(reference_params, "middle")


def count_calls(monkeypatch, name):
    """The list that every later call of np.linalg's ``name`` appends to."""
    calls = []
    function = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(1) or function(*a, **k))
    return calls


def count_qr(monkeypatch):
    """The list that every later QR of the package appends to: each is one
    call of ``stationarity.qr_complete``, counted wherever a module binds it."""
    calls = []
    qr = stationarity.qr_complete
    patch_bindings(monkeypatch, qr, lambda a: calls.append(1) or qr(a))
    return calls


def tail_eliminations(T):
    """Reduction level -> the digits of T below and at it, for each level
    that eliminates the tail: the level's equation count T >> j is odd and
    a tail is already carried, T mod 2^j > 0."""
    return {j: T % (2 << j) for j in range(T.bit_length()) if T >> j & 1 and T % (1 << j)}


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
        traj = trajectory_from_blocks(forward_pass(aug, backward_sweep(aug)), p)
        inner = solve_inner_given_supplier(p, traj.controls.i_s)
        for path in (traj.p_r, traj.p_m, traj.p_s, traj.r, inner["p_m"], inner["p_r"]):
            assert path.shape == (T,)
            assert path[T - 1] == 0.0

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 12, 1023, 1024, 1025, 10000])
    def test_levels_and_factorizations(self, T, monkeypatch):
        """The reduction runs ceil(log2 T) levels and, cold, factors each
        level's matrices, the pairs' shared one and the tail's, in one
        batched QR."""
        clear_caches()
        aug = assemble_augmented(make_params(horizon_T=T), "outer")
        calls = count_qr(monkeypatch)
        levels, final = backward_sweep(aug)
        assert len(levels) == int(np.ceil(np.log2(T)))
        assert len(calls) == len(levels)
        assert [part.shape for part in final] == [(8, 8), (8, 8), (8,)]

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 12, 40, 257])
    def test_one_inverse_per_cold_sweep(self, T, monkeypatch):
        """A cold solve inverts the kept triangles of each of its two
        reductions, the outer one and the inner re-solve, in one call, and
        factors one batched QR per reduction level of each; so does the
        manufacturer check's cold retailer reduction.  Warm, neither
        inverts nor factors anything."""
        p = make_params(horizon_T=T)
        levels = int(np.ceil(np.log2(T)))
        inverses = 1 if levels else 0   # at T = 1 nothing is paired
        clear_caches()
        inv, qr = count_calls(monkeypatch, "inv"), count_qr(monkeypatch)
        trajectory, _ = solve_game(p)
        assert (len(inv), len(qr)) == (2 * inverses, 2 * levels)
        inv.clear(), qr.clear()
        follower_stationarity_check(trajectory, p, "M")
        assert (len(inv), len(qr)) == (inverses, levels)
        inv.clear(), qr.clear()
        solve_game(p)
        follower_stationarity_check(trajectory, p, "M")
        leader_stationarity_check(trajectory, p)
        assert inv == [] and qr == []

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 12, 1023, 1024, 1025, 10000])
    def test_same_horizon_again_factors_nothing(self, T, monkeypatch):
        """A game solved before at the same horizon factors nothing: its
        outer and inner reductions read their chains."""
        p = make_params(horizon_T=T)
        clear_caches()
        solve_game(p)
        calls = count_qr(monkeypatch)
        solve_game(p)
        assert calls == []

    @pytest.mark.parametrize("seen, T", [(1024, 1025), (1025, 1024), (5, 12), (12, 5),
                                         (1023, 10000), (10000, 1023), (3, 7), (7, 3)])
    def test_new_horizon_factors_only_unseen_tails(self, seen, T, monkeypatch):
        """A new horizon of a seen game reuses the pairs' factors of every
        reduction level the seen one reached, and a tail's wherever the
        digits of T that shaped the tail match; it factors, in one QR per
        level, only what is left."""
        p = make_params(horizon_T=seen)
        clear_caches()
        aug = assemble_augmented(p, "outer")
        backward_sweep(aug)
        aug = assemble_augmented(make_params(horizon_T=T), "outer")
        calls = count_qr(monkeypatch)
        levels, _ = backward_sweep(aug)
        tails, seen_tails = tail_eliminations(T), tail_eliminations(seen)
        unseen = [j for j in range(len(levels)) if T >> j > 1 >= seen >> j
                  or j in tails and tails[j] != seen_tails.get(j)]
        assert len(calls) == len(unseen)
        if (seen, T) == (1024, 1025):   # the one tail, at the last level
            assert unseen == [10]

    def test_single_period_single_step(self):
        """At T = 1 nothing is paired: the final equation is the period's
        own, P y[1] + Q y[2] = g[1]."""
        aug = assemble_augmented(make_params(horizon_T=1), "outer")
        levels, (P, Q, g) = backward_sweep(aug)
        assert levels == []
        assert np.array_equal(Q, aug.Q)
        assert np.array_equal(P, aug.P)
        assert np.array_equal(g, aug.g[:, 0])

    def test_zero_costate_block_kills_gains(self, reference_params):
        """With C = 0 (no state terms in the costate rows) the backward
        recursion Pt[t] = D22 Pt[t+1] from Pt[T+1] = 0 has only the zero
        solution, whatever the forcing of the state rows."""
        for T in (1, 5, 60, 1000):
            aug = assemble_augmented(dataclasses.replace(reference_params, horizon_T=T),
                                     "outer")
            forcing = np.zeros_like(aug.g)
            forcing[:4] = np.random.default_rng(3).uniform(-100, 100, size=(4, T))
            P = aug.P.copy()
            P[4:, :4] = 0.0
            stripped = dataclasses.replace(aug, P=P, g=forcing,
                                           xt1=np.array([1.0, 0.0, 0.0, 0.0]))
            paths = forward_pass(stripped, backward_sweep(stripped))
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
                Q=np.block([[eye, -eye], [zero, eye]]), g=np.zeros((4, 2)),
                sol_G=np.zeros((7, 8)), sol_g=np.zeros((7, 2)), xt1=np.zeros(2),
            )
            reduction = backward_sweep(aug)
            with pytest.raises(SweepSingularError) as excinfo:
                forward_pass(aug, reduction)
            assert excinfo.value.level == level
            assert f"{level} level" in str(excinfo.value)

    def test_non_finite_recovery_names_level(self, reference_params):
        """An overflowed forcing reaches the recovery as inf or nan, which no
        solve reports as a LinAlgError."""
        aug = assemble_augmented(reference_params, "inner", {"i_s": np.zeros(3)})
        g = aug.g.copy()
        g[0, 1] = np.inf
        aug = dataclasses.replace(aug, g=g)
        with np.errstate(invalid="ignore"), \
                pytest.raises(SweepSingularError, match="inner level"):
            forward_pass(aug, backward_sweep(aug))


class TestLevelEnds:
    @pytest.mark.parametrize("level", list(_LEVELS))
    def test_states_and_costates_follow_at_end(self, reference_params, level):
        """A level's states are the blocks its forward recursions step, its
        costates those its backward (``at_end``) ones step; ``xt1`` holds the
        states' boundary values, and every costate's is 0.0, which
        ``forward_pass`` assumes when it leaves y[..., T, n:] zero."""
        p = reference_params
        state, costate, period, held = _LEVELS[level]
        recursions = [fam for fam in level_table(p, {*state, *costate, *period, *held})
                      if fam.boundary is not None]
        stepping = {fam.terms[0][0]: fam for fam in recursions}
        assert len(stepping) == len(recursions)
        assert {name for name, fam in stepping.items() if not fam.at_end} == set(state)
        assert {name for name, fam in stepping.items() if fam.at_end} == set(costate)
        aug = assemble_augmented(p, level, {name: np.zeros(p.horizon_T) for name in held})
        assert np.array_equal(aug.xt1, [stepping[name].boundary for name in state])
        assert [stepping[name].boundary for name in costate] == [0.0] * len(costate)


def table_augmented(params, level, fixed):
    """The level's recursion built family by family from the table: its
    families (``level_table``), the recursions stepping y in y order, then
    the algebraic ones, laid out by ``period_rows`` over (v[t], y[t],
    y[t+1], e[t]), then the elimination of v.  The construction the
    selection from ``period_layout`` is held to, bit for bit."""
    T = params.horizon_T
    state, costate, period, held = _LEVELS[level]
    y = state + costate
    columns = ([(name, 0) for name in period + y] + [(name, 1) for name in y]
               + [(name, 0) for name in held])
    families = level_table(params, {*y, *period, *held})
    stepping = {fam.terms[0][0]: fam for fam in families if fam.boundary is not None}
    K = period_rows([stepping[name] for name in y]
                    + [fam for fam in families if fam.boundary is None], columns)
    K[:, -1] *= -1.0
    m, n2 = len(period), len(y)
    G = np.linalg.solve(K[n2:, :m], K[n2:, m:])
    reduced = (K[:n2, m:] - K[:n2, :m].astype(np.longdouble) @ G).astype(float)
    e = (np.stack(np.broadcast_arrays(*(fixed[name] for name in held), np.ones(T)))
         if held else np.ones((1, 1)))
    g, sol_g = [(-M[:, 2 * n2:] @ e.reshape(len(e), -1)).reshape((len(M),) + e.shape[1:])
                for M in (reduced, G)]
    if not held:
        g, sol_g = np.broadcast_to(g, (n2, T)), np.broadcast_to(sol_g, (m, T))
    return AugmentedSystem(
        level=level, P=reduced[:, :n2], Q=reduced[:, n2:2 * n2], g=g,
        sol_G=-G[:, :2 * n2], sol_g=sol_g,
        xt1=np.array([stepping[name].boundary for name in state]))


def zero_coefficient_params(horizon_T):
    """A draw with d = d_hat = 0 and every delta 0: the table's structure
    with every term those coefficients scale zero."""
    return dataclasses.replace(draw_params(np.random.default_rng(93), horizon_T), d=0.0,
                               d_hat=0.0, delta_s=0.0, delta_m=0.0, delta_r=0.0)


GAMES = {"ref": make_params,
         "draw0": lambda horizon_T: draw_params(np.random.default_rng(91), horizon_T),
         "draw1": lambda horizon_T: draw_params(np.random.default_rng(92), horizon_T),
         "zero": zero_coefficient_params}


class TestSelectionFromLayout:
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("case", list(GAMES))
    @pytest.mark.parametrize("level", list(_LEVELS))
    def test_equals_table_construction(self, level, case, T):
        """Each level's rows and columns of the layout's group give the
        arrays the table's own level construction gives, bit for bit, with
        batched fixed paths."""
        self.assert_table_construction(GAMES[case](horizon_T=T), level)

    @pytest.mark.parametrize("first", ["zero", "ref"])
    @pytest.mark.parametrize("level", list(_LEVELS))
    def test_one_selection_for_every_game(self, level, first, monkeypatch):
        """Each level's rows and columns are derived once per process, from
        the first game compiled, and serve every game: whether a game with
        zero coefficients or the reference comes first, both give the
        table construction's arrays."""
        monkeypatch.setattr(sweep, "_SELECTIONS", {})
        clear_caches()
        order = [first] + [case for case in ("zero", "ref") if case != first]
        for case in order:
            self.assert_table_construction(GAMES[case](horizon_T=5), level)
        assert list(sweep._SELECTIONS) == [level]

    @staticmethod
    def assert_table_construction(p, level):
        T = p.horizon_T
        rng = np.random.default_rng(T)
        fixed = {name: rng.uniform(-5, 5, (3, T)) for name in _LEVELS[level][3]}
        aug, ref = assemble_augmented(p, level, fixed), table_augmented(p, level, fixed)
        for name in ("P", "Q", "g", "sol_G", "sol_g", "xt1"):
            assert np.array_equal(getattr(aug, name), getattr(ref, name)), name

    def test_one_table_per_game(self, monkeypatch):
        """A solve, its oracle and the three stationarity checks compile
        the game once: every reader takes its rows from the cached layout."""
        calls = []
        table = stationarity.equation_table
        monkeypatch.setattr(stationarity, "equation_table",
                            lambda params: calls.append(params) or table(params))
        clear_caches()
        p = make_params(horizon_T=4)
        traj, _ = solve_game(p)
        dense_solve(p)
        follower_stationarity_check(traj, p, "R")
        follower_stationarity_check(traj, p, "M")
        leader_stationarity_check(traj, p)
        assert len(calls) == 1

    def test_one_compile_per_game_for_every_horizon(self, monkeypatch):
        """A second horizon of a seen game builds no table and compiles no
        level: the layout and the levels are keyed on the game without its
        horizon."""
        clear_caches()
        p = make_params(horizon_T=4)
        traj, _ = solve_game(p)
        follower_stationarity_check(traj, p, "M")
        tables, levels = [], []
        table, compile_level = stationarity.equation_table, sweep._compile_level
        monkeypatch.setattr(stationarity, "equation_table",
                            lambda params: tables.append(params) or table(params))
        monkeypatch.setattr(sweep, "_compile_level",
                            lambda *args: levels.append(args[1]) or compile_level(*args))
        p = make_params(horizon_T=9)
        traj, _ = solve_game(p)
        dense_solve(p)
        follower_stationarity_check(traj, p, "R")
        follower_stationarity_check(traj, p, "M")
        leader_stationarity_check(traj, p)
        assert tables == [] and levels == []
        solve_game(make_params(horizon_T=9, x1=2.0))   # another game compiles
        assert len(tables) == 1 and levels == ["outer", "inner"]

    def test_layout_runs_no_validation(self, monkeypatch):
        """Construction validated the parameters, so compiling and solving
        the game never checks them again."""
        p = make_params(horizon_T=4)
        calls = []
        monkeypatch.setattr(type(p), "validate", lambda params: calls.append(params) or [])
        clear_caches()
        stationarity.period_layout(p)
        solve_game(p)
        assert calls == []


def level_system(level, T, batch=()):
    """The level's recursion at the reference parameters, its fixed paths
    drawn with leading batch axes ``batch``."""
    _, _, _, held = _LEVELS[level]
    rng = np.random.default_rng(T)
    fixed = {name: rng.uniform(-5, 5, batch + (T,)) for name in held}
    return assemble_augmented(make_params(horizon_T=T), level, fixed)


class TestOneSolvePerReduction:
    """Each reduction level is factored once; every pair and batch entry only
    passes through matrix products, so the backward and recovery passes make
    one LAPACK solve: the final boundary system."""

    @pytest.mark.parametrize("T", [1, 5, 1025])
    @pytest.mark.parametrize("level, batch", [("outer", ()), ("inner", ()),
                                              ("inner", (104,)), ("retailer", (104,))],
                             ids=["outer", "inner", "inner-104", "retailer-104"])
    def test_only_the_boundary_system_is_solved(self, level, batch, T, monkeypatch):
        aug = level_system(level, T, batch)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, **k: calls.append(a[0]) or solve(*a, **k))
        reduction = backward_sweep(aug)
        paths = forward_pass(aug, reduction)
        n = len(aug.xt1)
        _, (P, Q, _) = reduction
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.hstack([P[:, n:], Q[:, :n]]))
        assert all(path.shape[:len(batch)] == batch for path in paths.values())


KERNEL_HORIZONS = [1, 2, 3, 5, 7, 8, 9, 1023, 1024, 1025]
# (level, batch axes of its fixed paths); the outer level has no fixed path
LEVEL_BATCHES = [("outer", ())] + [(level, batch) for level in ("inner", "retailer")
                                   for batch in [(), (3,), (2, 3)]]
LEVEL_BATCH_IDS = [f"{level}-{'x'.join(map(str, batch)) or 'unbatched'}"
                   for level, batch in LEVEL_BATCHES]


def level_rows(aug, paths, index):
    """One batch entry's rows of the level at its solution, each with the
    size of its terms: the recursion rows P y[t] + Q y[t+1] - g[t] and the
    elimination rows v[t] - sol_G (y[t], y[t+1]) - sol_g[t].  The costates
    of y[1] are the reduction's own unknowns, which the paths omit; no state
    row and no v reads them (zero columns, asserted), so only the costate
    rows at t = 1 go unchecked."""
    state, costate, period, _ = _LEVELS[aug.level]
    n, T = len(state), aug.horizon
    assert not aug.P[:n, n:].any() and not aug.sol_G[:, n:2 * n].any()
    y = np.zeros((2 * n, T + 1))
    y[:n] = [paths[name][index] for name in state]
    y[n:, 1:] = [paths[name][index] for name in costate]
    v = np.array([paths[name][index] for name in period])
    g, sol_g = aug.g[(slice(None),) + index], aug.sol_g[(slice(None),) + index]
    both = np.vstack([y[:, :-1], y[:, 1:]])
    rows = np.hstack([aug.P, aug.Q]) @ both - g
    size = np.abs(np.hstack([aug.P, aug.Q])) @ np.abs(both) + np.abs(g)
    rows[n:, 0] = size[n:, 0] = 0.0
    eliminated = v - aug.sol_G @ both - sol_g
    eliminated_size = np.abs(v) + np.abs(aug.sol_G) @ np.abs(both) + np.abs(sol_g)
    return (rows, size), (eliminated, eliminated_size)


class TestBatchLastReduction:
    """Right-hand sides are stored batch-last, (2n, ..., T), and each
    reduction level's are one contiguous array."""

    @pytest.mark.parametrize("level, batch", LEVEL_BATCHES, ids=LEVEL_BATCH_IDS)
    def test_horizon_is_the_games(self, level, batch):
        """The tracer reads ``horizon`` off the system ``backward_sweep``
        gets: T at every level and batch shape."""
        aug = level_system(level, 7, batch)
        assert aug.horizon == 7
        assert aug.g.shape[1:] == batch + (7,)
        assert aug.sol_g.shape[1:] == batch + (7,)

    @pytest.mark.parametrize("T", [1, 7])
    @pytest.mark.parametrize("level", ["inner", "retailer"])
    def test_empty_batch_solves_to_empty_paths(self, level, T):
        """A (0, T) batch of fixed paths solves to empty paths, each of its
        block's length; the finiteness checks of y and v read nothing."""
        state, costate, period, _ = _LEVELS[level]
        aug = level_system(level, T, (0,))
        paths = forward_pass(aug, backward_sweep(aug))
        assert paths.keys() == {*state, *costate, *period}
        assert all(paths[name].shape == (0, T + 1) for name in state)
        assert all(paths[name].shape == (0, T) for name in costate + period)

    @pytest.mark.parametrize("T", KERNEL_HORIZONS)
    @pytest.mark.parametrize("level, batch", LEVEL_BATCHES, ids=LEVEL_BATCH_IDS)
    def test_every_entry_satisfies_its_rows(self, level, batch, T):
        """Every batch entry's y and v satisfy the level's recursion and
        elimination rows to roundoff, at every tail pattern of T."""
        aug = level_system(level, T, batch)
        paths = forward_pass(aug, backward_sweep(aug))
        assert all(path.shape[:len(batch)] == batch for path in paths.values())
        for index in np.ndindex(batch):
            for rows, size in level_rows(aug, paths, index):
                assert np.max(np.abs(rows)) <= roundoff_bound(T, np.max(size))

    @pytest.mark.parametrize("T", KERNEL_HORIZONS)
    def test_outer_carries_one_column(self, T):
        """The outer g is one column broadcast over the periods, so every
        reduction level carries one right-hand-side column, of the pairs and
        of the tail alike; ``test_every_entry_satisfies_its_rows`` holds the
        solution recovered from them to the level's rows."""
        aug = level_system("outer", T)
        assert aug.g.strides[-1] == 0
        levels, (_, _, g) = backward_sweep(aug)
        assert g.shape == (8,)
        kept = [rows for level in levels for rows in level if rows is not None]
        assert len(kept) >= len(levels)
        assert all(h.shape == (8, 1, 1) for _, _, h in kept)


def everything_solved(game, T) -> dict:
    """Every trajectory array and report float of the game's solve at
    horizon T, and every path of each pair in LEVEL_BATCHES solved alone."""
    p = GAMES[game](horizon_T=T)
    trajectory, report = solve_game(p)
    out = {name: path for name, path in stationarity.trajectory_blocks(trajectory).items()}
    out["q"] = trajectory.q
    out.update((f.name, getattr(report, f.name)) for f in dataclasses.fields(report)
               if f.name != "timing_seconds")
    for level, batch in LEVEL_BATCHES:
        rng = np.random.default_rng(T)
        fixed = {name: rng.uniform(-5, 5, batch + (T,)) for name in _LEVELS[level][3]}
        aug = assemble_augmented(p, level, fixed)
        paths = forward_pass(aug, backward_sweep(aug))
        out.update((f"{level}{batch}.{name}", path) for name, path in paths.items())
    return out


def bits(value):
    """What tells two results apart bit for bit: an array's dtype, shape and
    bytes, a float's hex form; other values as they are."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    return value.hex() if isinstance(value, float) else value


def cached_arrays(params) -> list:
    """Every array the caches hold for the game: its layout, its compiled
    levels and their reduction chains."""
    layout, levels = stationarity.compiled_game(params)
    arrays = list(layout[:3])
    for level in levels.values():
        arrays += list(level[:-1])
        arrays += [array for entry in level.chain.values() for array in entry]
    return arrays


class TestCompiledOnce:
    """The layout, the levels and the reduction chains are compiled once per
    game and reused at every horizon, without changing a bit of any result."""

    @pytest.mark.parametrize("game", list(GAMES))
    def test_results_bit_identical_in_any_order(self, game):
        """Ascending from cold caches, descending on the warm ones, and each
        horizon cold give the same bits."""
        clear_caches()
        ascending = {T: everything_solved(game, T) for T in KERNEL_HORIZONS}
        descending = {T: everything_solved(game, T) for T in reversed(KERNEL_HORIZONS)}
        cold = {}
        for T in KERNEL_HORIZONS:
            clear_caches()
            cold[T] = everything_solved(game, T)
        for T in KERNEL_HORIZONS:
            for results in (descending, cold):
                assert results[T].keys() == ascending[T].keys()
                for name, value in ascending[T].items():
                    assert bits(results[T][name]) == bits(value), (T, name)

    def test_full_chain_forgets_its_least_recently_used(self):
        """A chain holds at most ``_CHAIN_ENTRIES`` factors; past that it
        forgets the least recently used, which the next horizon needing
        them factors again, to the same bits."""
        clear_caches()
        horizons = range(1001, 1061, 2)
        warm = [everything_solved("ref", T) for T in horizons]
        chain = stationarity.compiled_game(make_params(horizon_T=1))[1]["outer"].chain
        tails = {item for T in horizons for item in tail_eliminations(T).items()}
        assert len(chain) == sweep._CHAIN_ENTRIES < 10 + len(tails)   # 10 pair levels
        for T, results in zip(horizons, warm):
            clear_caches()
            cold = everything_solved("ref", T)
            assert all(bits(cold[name]) == bits(value) for name, value in results.items())

    def test_full_chain_keeps_what_every_horizon_reads(self, monkeypatch):
        """A scan of horizons that overfills the chain with tails keeps the
        pairs' factors every horizon reads, as they are used most recently:
        a horizon of the scan solved again factors nothing."""
        clear_caches()
        horizons = range(3001, 3101, 2)
        for T in horizons:
            solve_game(make_params(horizon_T=T))
        chain = stationarity.compiled_game(make_params(horizon_T=1))[1]["outer"].chain
        assert len(chain) == sweep._CHAIN_ENTRIES
        calls = count_qr(monkeypatch)
        solve_game(make_params(horizon_T=horizons[-1]))
        assert calls == []

    def test_chain_order_follows_use(self):
        """Each level's chain runs from the least recently used elimination
        to the most: after a sweep its eliminations come last, in the order
        it used them, the pairs' before the tail's at each reduction level.
        The order after solving T = 1000, 1001 and 1000 again, then a batch
        of 3 at T = 1000 at the inner level, follows from the digits of T."""
        def used(T):
            """The keys a reduction at horizon T uses, in order: at each
            reduction level j, j while the level pairs equations, then the
            tail's key where it eliminates the tail."""
            tails, keys = tail_eliminations(T), []
            for j in range(T.bit_length()):
                keys += [j] if T >> j > 1 else []
                keys += [(j, tails[j])] if j in tails else []
            return keys

        def lru(horizons):
            order = {}
            for T in horizons:
                for key in used(T):
                    order.pop(key, None)
                    order[key] = None
            return list(order)

        clear_caches()
        for T in (1000, 1001, 1000):
            solve_game(make_params(horizon_T=T))
        solve_inner_given_supplier(make_params(horizon_T=1000), np.ones((3, 1000)))
        levels = stationarity.compiled_game(make_params(horizon_T=1))[1]
        assert list(levels["outer"].chain) == lru([1000, 1001, 1000])
        assert list(levels["inner"].chain) == lru([1000, 1001, 1000, 1000])
        assert used(1000)[-3:] == [8, (8, 488), (9, 1000)]   # 1000 = 0b1111101000

    def test_validation_mode_shares_the_entry(self):
        """``strict_alpha`` is a validation mode that nothing compiled reads:
        a game read under either mode is one cache entry, compiled once."""
        clear_caches()
        params = make_params()
        entry = stationarity.compiled_game(params)
        assert stationarity.compiled_game(dataclasses.replace(params, strict_alpha=False)) is entry
        assert stationarity._compiled.cache_info().misses == 1

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)],
                             ids=["positive-first", "negative-first"])
    def test_signed_zero_is_order_independent(self, first, second, tmp_path):
        """x1 = -0.0 and x1 = 0.0 compare equal but are two games: the
        second solved after the first gives its cold solve's bits and CSV
        bytes."""
        def solved(x1, name):
            trajectory, _ = solve_game(make_params(horizon_T=5, x1=x1))
            emit_csv(trajectory, tmp_path / name)
            blocks = {**stationarity.trajectory_blocks(trajectory), "q": trajectory.q}
            csv = (tmp_path / name).read_bytes()
            return {key: bits(path) for key, path in blocks.items()}, csv

        clear_caches()
        cold = solved(second, "cold.csv")
        clear_caches()
        solved(first, "first.csv")
        assert solved(second, "warm.csv") == cold

    @pytest.mark.parametrize("T", [5, 1025])
    @pytest.mark.parametrize("level, batch", [("outer", ()), ("inner", (3,)), ("retailer", (3,))],
                             ids=["outer", "inner-3", "retailer-3"])
    def test_no_system_borrows_a_chain(self, level, batch, T, monkeypatch):
        """After a warm solve of the game, a hand-built system and a
        ``replace`` copy of a warm one each start from a fresh empty chain,
        not the compiled level's: each factors one batched QR per reduction
        level, and gives a cold solve's bits."""
        clear_caches()
        aug = level_system(level, T, batch)
        cold = forward_pass(aug, backward_sweep(aug))
        solve_game(make_params(horizon_T=T))
        warm = level_system(level, T, batch)
        compiled = stationarity.compiled_game(make_params(horizon_T=T))[1][level].chain
        assert warm.chain is compiled
        built = AugmentedSystem(**{f.name: getattr(warm, f.name)
                                   for f in dataclasses.fields(warm) if f.init})
        calls = count_qr(monkeypatch)
        for aug in (built, dataclasses.replace(warm, P=warm.P.copy(), Q=warm.Q.copy())):
            assert aug.chain == {} and aug.chain is not compiled
            calls.clear()
            levels, final = backward_sweep(aug)
            assert len(calls) == len(levels)
            paths = forward_pass(aug, (levels, final))
            assert paths.keys() == cold.keys()
            assert all(bits(paths[name]) == bits(path) for name, path in cold.items())

    @pytest.mark.parametrize("T", [1, 5, 1025])
    @pytest.mark.parametrize("level, batch", LEVEL_BATCHES, ids=LEVEL_BATCH_IDS)
    def test_assembled_arrays_are_read_only(self, level, batch, T):
        """Every array of an assembled system, at every level, is read-only:
        the compiled level's or a view broadcast over the periods."""
        aug = level_system(level, T, batch)
        arrays = [getattr(aug, f.name) for f in dataclasses.fields(aug)
                  if isinstance(getattr(aug, f.name), np.ndarray)]
        assert len(arrays) == 6
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            aug.g[..., 0] = 1.0

    def test_cached_arrays_are_read_only(self):
        p = make_params(horizon_T=5)
        solve_game(p)
        aug = assemble_augmented(p, "outer")
        with pytest.raises(ValueError, match="read-only"):
            aug.P[0, 0] = 1.0
        assert not any(array.flags.writeable for array in cached_arrays(p))

    def test_results_share_no_cached_memory(self):
        p = make_params(horizon_T=9)
        clear_caches()
        trajectory, _ = solve_game(p)
        trajectory, _ = solve_game(p)
        responses = (solve_retailer_response(p, np.ones(9), np.ones((2, 9)))
                     + solve_inner_response(p, np.ones((2, 9))))
        cached = cached_arrays(p)
        assert len(cached) > 3
        results = [*stationarity.trajectory_blocks(trajectory).values(), trajectory.q,
                   *responses]
        assert not any(np.shares_memory(result, array) for result in results for array in cached)


def test_a_singular_triangle_spoils_only_its_own_inverse():
    """A level's pair and tail triangles are inverted in one batch but
    cached apart, so a singular one leaves NaN in its own inverse only."""
    R_inv = sweep._inverse(np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)]))
    assert np.array_equal(R_inv[[0, 2]], [0.5 * np.eye(3), np.eye(3)])
    assert np.isnan(R_inv[1]).all()


def unused_first_state(monkeypatch):
    """Make every level's first state appear in no equation: column 0 of P
    and Q is zero, so the kept triangle of each pair of equations is
    singular."""
    assemble = sweep.assemble_augmented

    def patched(*args, **kwargs):
        aug = assemble(*args, **kwargs)
        P, Q = aug.P.copy(), aug.Q.copy()
        P[:, 0] = Q[:, 0] = 0.0
        return dataclasses.replace(aug, P=P, Q=Q)
    monkeypatch.setattr(sweep, "assemble_augmented", patched)


class TestSingularKeptTriangle:
    """The reduction never raises: a singular kept triangle leaves NaN in
    its inverse, which the recovery meets and reports naming the level."""

    SOLVES = {
        "outer": solve_game,
        "inner": lambda p: solve_inner_response(p, np.ones((3, p.horizon_T))),
        "retailer": lambda p: solve_retailer_response(p, np.ones(p.horizon_T),
                                                      np.ones((3, p.horizon_T))),
    }

    @pytest.mark.parametrize("T", [2, 5, 1025])
    @pytest.mark.parametrize("level", ["outer", "inner", "retailer"])
    def test_raised_by_the_recovery_naming_the_level(self, level, T, monkeypatch):
        clear_caches()
        self.assert_raised_naming(level, make_params(horizon_T=T), monkeypatch)

    @pytest.mark.parametrize("T", [2, 5, 1025])
    @pytest.mark.parametrize("level", ["outer", "inner", "retailer"])
    def test_raised_after_a_warm_solve_of_the_game(self, level, T, monkeypatch):
        """A solve of the same game and level has filled the caches, and the
        patched system still reads its own factors."""
        p = make_params(horizon_T=T)
        clear_caches()
        self.SOLVES[level](p)
        self.assert_raised_naming(level, p, monkeypatch)

    def assert_raised_naming(self, level, p, monkeypatch):
        unused_first_state(monkeypatch)
        aug = sweep.assemble_augmented(p, level, {name: np.ones(p.horizon_T)
                                                  for name in _LEVELS[level][3]})
        levels, _ = backward_sweep(aug)
        (R_inv, _, _), _ = levels[0]
        assert np.isnan(R_inv).all()
        with pytest.raises(SweepSingularError) as excinfo:
            self.SOLVES[level](p)
        assert excinfo.value.level == level


class TestForwardPass:
    def test_every_level_recovered_by_it(self, monkeypatch):
        """Every level is recovered by the one function: the outer level and
        the inner consistency re-solve of ``solve_game``, the retailer level
        of the manufacturer check and the inner level of the leader check."""
        levels = []

        def counted(aug, *args):
            levels.append(aug.level)
            return forward_pass(aug, *args)

        patch_bindings(monkeypatch, forward_pass, counted)
        p = make_params(horizon_T=20)
        traj, _ = solve_game(p)
        for level in ("R", "M"):
            follower_stationarity_check(traj, p, level)
        leader_stationarity_check(traj, p)
        assert levels == ["outer", "inner", "retailer", "inner"]

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
        paths = forward_pass(stripped, backward_sweep(stripped))
        xt = np.stack([paths[name] for name in OUTER_STATE], axis=1)
        expected = np.array([1.0, 0.0, 0.0, 0.0])
        for t in range(reference_params.horizon_T):
            expected = -stripped.P[:4, :4] @ expected + stripped.g[:4, t]
            assert np.allclose(xt[t + 1], expected, rtol=1e-12, atol=1e-12)


def refined_lu(params):
    """The stacked system solved by dense LU, then refined three times with
    its residual formed in long double."""
    system = assemble_system(params)
    A, b = system.matrix, system.rhs
    z = np.linalg.solve(A, b)
    for _ in range(3):
        z = z + np.linalg.solve(A, (b - A.astype(np.longdouble) @ z).astype(float))
    return vector_to_trajectory(z, params)


def test_long_double_is_wider_than_double():
    """The reduced recursions are formed in long double and rounded once,
    which adds digits only where long double is wider than double."""
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps


class TestSolveGame:
    @pytest.mark.parametrize("T", [1, 3, 47, 1000])
    @pytest.mark.parametrize("draw", [None, 0, 1], ids=["reference", "draw-1", "draw-2"])
    def test_objectives_are_total_objective(self, draw, T):
        """The report's objectives, summed after one state check for all
        three, are ``total_objective``'s bit for bit."""
        rng = np.random.default_rng(T)
        draws = [draw_params(rng, T) for _ in range(2)]
        p = make_params(horizon_T=T) if draw is None else draws[draw]
        trajectory, report = solve_game(p)
        for player, value in [("S", report.objective_supplier),
                              ("M", report.objective_manufacturer),
                              ("R", report.objective_retailer)]:
            assert value.hex() == total_objective(player, trajectory, p).hex()

    @pytest.mark.parametrize("T", [1, 7, 60, 2000])
    @pytest.mark.parametrize("draw", [None, 0, 1, 2, 3],
                             ids=["reference", "draw-1", "draw-2", "draw-3", "draw-4"])
    def test_objectives_are_running_totals_of_stage_payoffs(self, draw, T):
        """The report's objectives, formed for the three players over the
        terms they share, are each a plain running total over t of the
        scalar stage payoffs, bit for bit."""
        rng = np.random.default_rng(T)
        draws = [draw_params(rng, T) for _ in range(4)]
        p = make_params(horizon_T=T) if draw is None else draws[draw]
        trajectory, report = solve_game(p)
        x, q, c = trajectory.x.tolist(), trajectory.q.tolist(), trajectory.controls
        controls = list(zip(c.i_s.tolist(), c.i_m.tolist(), c.i_r.tolist()))
        for player, value in [("S", report.objective_supplier),
                              ("M", report.objective_manufacturer),
                              ("R", report.objective_retailer)]:
            total = 0.0
            for t in range(T):
                total += stage_payoff(player, x[t], q[t], controls[t], p)
            assert value.hex() == total.hex()

    def test_timing_covers_the_objectives(self, monkeypatch):
        """``timing_seconds`` is the whole solve's, the objectives summed
        after the checks included."""
        objectives = sweep.total_objectives

        def slow_objectives(*args):
            time.sleep(0.05)
            return objectives(*args)
        patch_bindings(monkeypatch, objectives, slow_objectives)
        assert solve_game(make_params())[1].timing_seconds >= 0.05

    def test_norms_do_not_depend_on_the_game_solved_before(self):
        """Two games solved in alternation, each warm after the first round,
        read the residual norms each reads solved cold."""
        games = [make_params(horizon_T=500), draw_params(np.random.default_rng(8), 500)]
        cold = []
        for p in games:
            clear_caches()
            report = solve_game(p)[1]
            cold.append(bits(report.residual_max) + bits(report.residual_rms))
        clear_caches()
        for _ in range(2):
            for p, expected in zip(games, cold):
                _, report = solve_game(p)
                assert bits(report.residual_max) + bits(report.residual_rms) == expected

    def test_matches_oracle_on_reference(self, reference_params):
        traj, report = solve_game(reference_params)
        reference = dense_solve(reference_params)
        assert trajectory_max_delta(traj, reference) <= 1e-8
        assert report.residual_max <= 1e-9
        assert report.inner_consistency_delta <= 1e-8

    @pytest.mark.parametrize("T", [40, 60])
    def test_matches_refined_lu_at_audit_horizons(self, T):
        """The sweep alone, held to a solve more accurate than the oracle, so
        the sweep-oracle agreement cannot pass through rounding the two share."""
        p = make_params(horizon_T=T)
        assert trajectory_max_delta(solve_game(p)[0], refined_lu(p)) <= 1e-8

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
        assert report.negative_investment_warning is True
        assert render_report(report).splitlines()[2] == "solver_path: sweep"
        assert report.quantity == pytest.approx(4.0)

    @pytest.mark.parametrize("option", [{"tolerance": 1e-3}, {"seed": 5},
                                        {"scenario_name": "reference"}])
    def test_scenario_labels_are_not_solver_options(self, reference_params, option):
        with pytest.raises(TypeError):
            solve_game(reference_params, **option)

    def test_report_fields(self, reference_params):
        """solve_game takes the game alone; its report has 15 fields, none a
        constant, and leaves the scenario labels at a scenario's defaults."""
        assert list(inspect.signature(solve_game).parameters) == ["params"]
        _, report = solve_game(reference_params)
        names = [f.name for f in dataclasses.fields(report)]
        assert len(names) == 15 and "solver_path" not in names
        assert "convexity_warning" not in names
        assert (report.scenario_name, report.seed, report.tolerance) == ("", 0, 1e-8)

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

    def test_consistency_delta_of_an_exact_match_is_positive_zero(self, monkeypatch,
                                                                  reference_params):
        """A re-solve that gives back the solved blocks, its zeros negated,
        reads +0.0."""
        traj, _ = solve_game(reference_params)
        solved = stationarity.trajectory_blocks(traj)
        monkeypatch.setattr(sweep, "solve_inner_given_supplier", lambda params, i_s: {
            name: np.where(solved[name] == 0.0, -0.0, solved[name])
            for name in ("x", "u", "p_m", "p_r", "i_m", "i_r", "lam")})
        delta = _inner_consistency_delta(reference_params, traj)
        assert bits(delta) == bits(0.0)

    @pytest.mark.parametrize("name", ["x", "u", "p_m", "p_r", "i_m", "i_r", "lam"])
    def test_consistency_delta_of_a_nan_entry_is_nan(self, monkeypatch, reference_params, name):
        """A NaN in any block of the re-solve reaches the delta."""
        traj, _ = solve_game(reference_params)
        resolve = sweep.solve_inner_given_supplier

        def with_nan(params, i_s):
            inner = resolve(params, i_s)
            inner[name] = inner[name].copy()
            inner[name][-1] = np.nan
            return inner
        monkeypatch.setattr(sweep, "solve_inner_given_supplier", with_nan)
        assert np.isnan(_inner_consistency_delta(reference_params, traj))
