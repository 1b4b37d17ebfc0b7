"""The oracle's batched follower solves against a one-probe-at-a-time loop.

The stationarity checks evaluate every finite-difference probe in one call:
the probes share the follower system's matrix, so they are solved as columns
of one right-hand side.  The loop below is the reference they replaced: each
probe solved, rolled out and summed on its own.
"""
import dataclasses
import sys

import numpy as np
import pytest

from csrchain import (
    Controls,
    follower_stationarity_check,
    grid_scan_supplier,
    leader_stationarity_check,
    optimal_quantity,
    oracle,
    rollout,
    solve_game,
    stage_payoff,
    state_transition,
    stationarity,
)
from csrchain.oracle import solve_inner_response, solve_retailer_response
from csrchain.sweep import _LEVELS, _solve_level, solve_inner_given_supplier

from conftest import dense_level, draw_params, make_params

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# The per-probe loop reference
# ---------------------------------------------------------------------------

def loop_rollout(params, x1, i_s, i_m, i_r):
    T = len(i_s)
    x = np.empty(T + 1)
    x[0] = x1
    for t in range(T):
        x[t + 1] = state_transition(x[t], (i_s[t], i_m[t], i_r[t]), params)
    return x


def loop_objective(player, params, x, i_s, i_m, i_r, q):
    total = 0.0
    for t in range(len(i_s)):
        total += stage_payoff(player, x[t], q, (i_s[t], i_m[t], i_r[t]), params)
    return total


def probe_step(trajectory):
    return 1e-5 * (1.0 + float(np.max(np.abs(trajectory.controls.stacked()))))


def loop_worst_slope(objective, path, trajectory):
    """The largest central-difference slope over the coordinate directions."""
    h = probe_step(trajectory)
    return max(abs(objective(path + h * eta) - objective(path - h * eta)) / (2.0 * h)
               for eta in np.eye(len(path)))


def loop_check(trajectory, params, level):
    """One probe per follower solve: the R, M and S (leader) checks."""
    c = trajectory.controls
    q = trajectory.q[0]
    if level == "R":
        def objective(i_r):
            x = loop_rollout(params, params.x1, c.i_s, c.i_m, i_r)
            return loop_objective("R", params, x, c.i_s, c.i_m, i_r, q)
        path = c.i_r
    elif level == "M":
        def objective(i_m):
            i_r, x = solve_retailer_response(params, c.i_s, i_m)
            return loop_objective("M", params, x, c.i_s, i_m, i_r, q)
        path = c.i_m
    else:
        def objective(i_s):
            i_m, i_r, x = solve_inner_response(params, i_s)
            return loop_objective("S", params, x, i_s, i_m, i_r, q)
        path = c.i_s
    return loop_worst_slope(objective, path, trajectory)


def batched_check(trajectory, params, level):
    if level == "S":
        return leader_stationarity_check(trajectory, params)
    return follower_stationarity_check(trajectory, params, level)


# ---------------------------------------------------------------------------
# Cases: the reference parameters and seeded draws up to the audit horizons
# ---------------------------------------------------------------------------

def cases():
    rng = np.random.default_rng(2024)
    out = [make_params(horizon_T=T) for T in (1, 3, 20, 60)]
    out += [draw_params(rng, T) for T in (20, 30, 40, 50, 60)]
    return out


CASES = cases()
CASE_IDS = [f"{'ref' if i < 4 else 'draw'}-T{p.horizon_T}" for i, p in enumerate(CASES)]


def perturbed(trajectory, params):
    """The trajectory with every investment moved off the equilibrium, its
    state re-rolled: a point where every check reads well above roundoff."""
    c = trajectory.controls
    T = params.horizon_T
    rng = np.random.default_rng(T)
    scale = 0.1 * (1.0 + float(np.max(np.abs(c.stacked()))))
    i_s, i_m, i_r = (path + scale * rng.standard_normal(T) for path in (c.i_s, c.i_m, c.i_r))
    return dataclasses.replace(trajectory, controls=Controls(i_s, i_m, i_r),
                               x=rollout(params, i_s, i_m, i_r))


@pytest.fixture(scope="module")
def points():
    """(params id, "solved" or "perturbed") -> trajectory to check at."""
    out = {}
    for p in CASES:
        trajectory = solve_game(p)[0]
        out[id(p), "solved"] = trajectory
        out[id(p), "perturbed"] = perturbed(trajectory, p)
    return out


def check_tolerance(trajectory, params, level):
    """Bound on |batched - loop| for one check, fixed from float64 roundoff.

    Each objective value is a sum of T stage payoffs of about eight
    operations each, so two evaluation orders differ by at most about
    (T + 8) eps times the summed payoff magnitude F.  A slope differences
    two such values over 2h, and the batched and loop slopes can err in
    opposite directions: 4 (T + 8) eps F / h.
    """
    c = trajectory.controls
    stage = stage_payoff(level, trajectory.x[:-1], trajectory.q[0],
                         (c.i_s, c.i_m, c.i_r), params)
    F = float(np.sum(np.abs(stage)))
    return 4.0 * (params.horizon_T + 8) * EPS * F / probe_step(trajectory)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestBatchedRollout:
    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_rows_bit_identical_to_scalar_loop(self, params):
        T = params.horizon_T
        rng = np.random.default_rng(T)
        i_s, i_m = rng.uniform(-5, 5, (2, T))
        i_r = rng.uniform(-5, 5, (9, T))
        batch = rollout(params, i_s, i_m, i_r)
        assert batch.shape == (9, T + 1)
        for row, path in zip(batch, i_r):
            assert np.array_equal(row, loop_rollout(params, params.x1, i_s, i_m, path))


def skeel_tolerance(A, b):
    """Forward-error bound n eps max(|A^-1| |A| |z|) of a backward-stable solve
    of A z = b: any two such solves stay within it of each other."""
    z = np.linalg.solve(A, b)
    n = A.shape[0]
    return n * EPS * float(np.max(np.abs(np.linalg.inv(A)) @ (np.abs(A) @ np.abs(z))))


class TestBatchedResponses:
    """The batched responses against one-at-a-time calls and against the
    dense solve of the follower level's system, path by path."""

    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_inner_batch_matches_one_at_a_time(self, params):
        T = params.horizon_T
        i_s = np.random.default_rng(T + 1).uniform(-5, 5, (6, T))
        i_m, i_r, x = solve_inner_response(params, i_s)
        assert i_m.shape == i_r.shape == (6, T) and x.shape == (6, T + 1)
        A, b, split = dense_level(params, ("x", "i_m", "i_r", "lam", "p_r", "p_m", "u"),
                                  {"i_s": i_s})
        for j, path in enumerate(i_s):
            tol = skeel_tolerance(A, b[j])
            dense = np.linalg.solve(A, b[j])
            single = solve_inner_response(params, path)
            for batched, one, name in zip((i_m[j], i_r[j], x[j]), single, ("i_m", "i_r", "x")):
                assert np.max(np.abs(batched - one)) <= tol
                assert np.max(np.abs(batched - split(dense)[name])) <= tol

    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_retailer_batch_matches_one_at_a_time(self, params):
        T = params.horizon_T
        rng = np.random.default_rng(T + 2)
        i_s = rng.uniform(-5, 5, T)
        i_m = rng.uniform(-5, 5, (6, T))
        i_r, x = solve_retailer_response(params, i_s, i_m)
        assert i_r.shape == (6, T) and x.shape == (6, T + 1)
        A, b, split = dense_level(params, ("x", "i_r", "p_r"), {"i_s": i_s, "i_m": i_m})
        for j, path in enumerate(i_m):
            tol = skeel_tolerance(A, b[j])
            dense = np.linalg.solve(A, b[j])
            single = solve_retailer_response(params, i_s, path)
            for batched, one, name in zip((i_r[j], x[j]), single, ("i_r", "x")):
                assert np.max(np.abs(batched - one)) <= tol
                assert np.max(np.abs(batched - split(dense)[name])) <= tol


LONG_CASES = [p for T in (257, 1025, 4097)
              for p in (make_params(horizon_T=T), draw_params(np.random.default_rng(T), T))]
LONG_IDS = [f"{kind}-T{p.horizon_T}" for p, kind in zip(LONG_CASES, ["ref", "draw"] * 3)]


def reduction_tolerance(params, level, fixed):
    """Bound on |batched - one at a time| for one path of a level.

    Both calls apply the same transforms and products to the path; only the
    blocking BLAS picks for a product can reorder a sum.  A level of 2n-row
    equations applies, at each of its ceil(log2 T) reduction levels and in
    the final solve, one orthogonal transform of 4n rows, each row a dot
    product of 4n terms, so each call is within k eps max|y| of exact
    arithmetic, k = 4n (ceil(log2 T) + 1) and y every path the level solves
    for (the argument of test_sweep.roundoff_bound).  The two calls can err
    in opposite directions: 2 k eps max|y|.  This takes the kept triangles'
    inverses in the recovery as well conditioned.  Worst seen over these
    cases: 3.8% of the bound (retailer, draw at T = 1025); largest absolute
    difference 2.0e-12 (inner, reference at T = 4097, max|y| 1.4e3).
    """
    T, n = params.horizon_T, len(_LEVELS[level][0])
    scale = max(np.max(np.abs(path)) for path in _solve_level(params, level, fixed).values())
    return 2 * 4 * n * (np.ceil(np.log2(T)) + 1) * EPS * scale


class TestBatchedResponsesWithTails:
    """Horizons of 2^k + 1 periods carry an odd tail equation through every
    reduction level; six paths through one reduction against one path at a
    time."""

    @pytest.mark.parametrize("params", LONG_CASES, ids=LONG_IDS)
    def test_inner_batch_matches_one_at_a_time(self, params):
        T = params.horizon_T
        i_s = np.random.default_rng(T + 1).uniform(-5, 5, (6, T))
        batch = solve_inner_response(params, i_s)
        for j, path in enumerate(i_s):
            tol = reduction_tolerance(params, "inner", {"i_s": path})
            for batched, one in zip(batch, solve_inner_response(params, path)):
                assert np.max(np.abs(batched[j] - one)) <= tol

    @pytest.mark.parametrize("params", LONG_CASES, ids=LONG_IDS)
    def test_retailer_batch_matches_one_at_a_time(self, params):
        T = params.horizon_T
        rng = np.random.default_rng(T + 2)
        i_s = rng.uniform(-5, 5, T)
        i_m = rng.uniform(-5, 5, (6, T))
        batch = solve_retailer_response(params, i_s, i_m)
        for j, path in enumerate(i_m):
            tol = reduction_tolerance(params, "retailer", {"i_s": i_s, "i_m": path})
            for batched, one in zip(batch, solve_retailer_response(params, i_s, path)):
                assert np.max(np.abs(batched[j] - one)) <= tol


def reflection_tolerance(params, player, controls, path):
    """Bound on |reflected - direct| for the state and the followers of one
    -h probe, ``path`` the player's path minus the step.

    The reflected path 2 b - p carries the errors of the base solve b and
    the probe solve p, and the direct solve of ``path`` has its own: four
    single-solve errors e at most, plus the one rounding of 2 b - p, within
    3 eps max|y|.  A follower level's e is k eps max|y|, y every path the
    level solves for, and k >= 12, so 4 e plus the rounding is within 5 e,
    2.5 times ``reduction_tolerance``.

    The rollout x[t + 1] = alpha x[t] + beta_s i_s + beta_m i_m + beta_r i_r
    rounds step t within d[t] = 4 eps of the sum of its |terms|, and the
    recursion carries each error on times alpha a period, so its e at t is
    E[t], E[t + 1] = alpha E[t] + d[t].  max|x| alone would not bound it:
    the investments cancel in the sum (max|i| 2.2e6 against max|x| 190 on
    the reference at T = 4097), and the errors pile up over 1 / (1 - alpha)
    periods.  Worst seen over these cases, as a share of the bound: the
    inner level's 9.4% (draw at T = 20), the retailer level's 7.0% (draw at
    T = 50) and the rollout's 4.9% (draw at T = 60).  The rollout's largest
    gap, 1.1e4 eps max|x| (reference at T = 4097), was 1.5% of its bound.
    """
    if player == "R":
        x = rollout(params, controls.i_s, controls.i_m, path)
        betas = np.array([params.beta_s, params.beta_m, params.beta_r])
        d = 4 * EPS * (np.abs(params.alpha * x[:-1])
                       + np.abs(betas[:, np.newaxis] * [controls.i_s, controls.i_m, path]).sum(axis=0))
        E = worst = 0.0
        for d_t in d:
            E = params.alpha * E + d_t
            worst = max(worst, E)
        return 4 * worst + 3 * EPS * np.max(np.abs(x))
    if player == "M":
        return 2.5 * reduction_tolerance(params, "retailer", {"i_s": controls.i_s, "i_m": path})
    return 2.5 * reduction_tolerance(params, "inner", {"i_s": path})


class TestReflectedProbes:
    """Each check solves its base path and the +h probes in one batch, and
    forms the -h probes' state and followers as the +h ones reflected
    through the base (``oracle._probe_reactions``).  The reflections against
    a direct solve of path - h e_k, at every coordinate for the audit
    horizons and at the first, middle and last at the long ones."""

    @pytest.mark.parametrize("player", ["R", "M", "S"])
    @pytest.mark.parametrize("params", CASES + LONG_CASES, ids=CASE_IDS + LONG_IDS)
    def test_reflection_matches_direct_solve(self, params, player):
        trajectory = solve_game(params)[0]
        c = trajectory.controls
        T = params.horizon_T
        own = "SMR".index(player)
        path = (c.i_s, c.i_m, c.i_r)[own]
        coords = np.arange(T) if T <= 60 else np.array([0, T // 2, T - 1])
        steps = np.zeros((len(coords), T))
        steps[np.arange(len(coords)), coords] = probe_step(trajectory)
        _, minus = oracle._probe_reactions(player, params, c, steps)
        direct = oracle._reaction(player, params, path - steps, c)
        assert np.array_equal(minus[own + 1], path - steps)
        reflected = [0] + list(range(own + 2, 4))   # x, then the followers' paths
        for k, step in enumerate(steps):
            tol = reflection_tolerance(params, player, c, path - step)
            for j in reflected:
                assert np.max(np.abs(minus[j][k] - direct[j][k])) <= tol


class TestChecksMatchLoop:
    @pytest.mark.parametrize("point", ["solved", "perturbed"])
    @pytest.mark.parametrize("level", ["R", "M", "S"])
    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_check_matches_reference_loop(self, params, level, point, points):
        trajectory = points[id(params), point]
        reference = loop_check(trajectory, params, level)
        value = batched_check(trajectory, params, level)
        assert abs(value - reference) <= check_tolerance(trajectory, params, level)

    @pytest.mark.parametrize("point", ["solved", "perturbed"])
    @pytest.mark.parametrize("player", ["R", "M", "S"])
    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_directional_slope_is_coordinate_combination(self, params, player, point, points):
        """Along its followers' reaction a player's payoff J is quadratic in
        its own path, so the central-difference slope along a unit eta is
        eta . g, g the coordinate slopes: the checks' coordinate probes fix
        the slope along every direction.

        Each difference of two J values errs by a few eps max|J|, and eta . g
        sums T of them weighted by |eta_i|, so the gap is scaled by
        (1 + |eta|_1) eps max|J| / h.  Worst seen over 64 directions from
        each of default_rng(T + k), k = 0, 7, 99 and 1000 (the four drawn
        here are the first of k = 0): 182.8 at solved points, where every
        slope is roundoff, and 21.8 at perturbed points; the bound is 512.
        """
        trajectory = points[id(params), point]
        c = trajectory.controls
        path = getattr(c, "i_" + player.lower())
        T, h = len(path), probe_step(trajectory)
        eta = np.random.default_rng(T).standard_normal((4, T))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        rows = np.vstack([np.eye(T), eta])
        J = oracle._reaction_payoff(player, params, np.concatenate([path + h * rows, path - h * rows]),
                                    c, trajectory.q[0])
        plus, minus = np.split(J, 2)
        slopes = (plus - minus) / (2.0 * h)
        scale = (1.0 + np.abs(eta).sum(axis=1)) * EPS * np.max(np.abs(J)) / h
        assert np.all(np.abs(slopes[T:] - eta @ slopes[:T]) <= 512 * scale)

    def test_grid_scan_matches_reference_loop(self):
        p = make_params(horizon_T=1)
        i_s = solve_game(p)[0].controls.i_s[0]
        grid = np.linspace(i_s - 17.0, i_s + 23.0, 81)
        values = []
        for point in grid:
            path = np.array([point])
            i_m, i_r, x = solve_inner_response(p, path)
            values.append(loop_objective("S", p, x, path, i_m, i_r, optimal_quantity(p)))
        j = np.nonzero(np.diff(np.sign(np.diff(values))))[0][0] + 1
        coeff = np.polyfit(grid[j - 1:j + 2], values[j - 1:j + 2], 2)
        reference = -coeff[1] / (2.0 * coeff[0])
        found = grid_scan_supplier(p, center=i_s + 3.0, half_width=20.0)
        assert found == pytest.approx(reference, rel=1e-9, abs=1e-9)


def count_calls(monkeypatch, name):
    """Count the calls the oracle makes to its module-level ``name``."""
    calls = []
    original = getattr(oracle, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(oracle, name, counted)
    return calls


class TestOneFollowerSolvePerCheck:
    """Each check factors its follower system once, whatever the probe count,
    for T + 1 paths of the player: the base and the T +h probes, its last
    argument in every call."""

    def test_leader_check_solves_once(self, monkeypatch):
        p = make_params(horizon_T=20)
        trajectory = solve_game(p)[0]
        calls = count_calls(monkeypatch, "solve_inner_response")
        leader_stationarity_check(trajectory, p)
        assert len(calls) == 1
        assert calls[0][-1].shape == (21, 20)

    def test_manufacturer_check_solves_once(self, monkeypatch):
        p = make_params(horizon_T=20)
        trajectory = solve_game(p)[0]
        calls = count_calls(monkeypatch, "solve_retailer_response")
        follower_stationarity_check(trajectory, p, "M")
        assert len(calls) == 1
        assert calls[0][-1].shape == (21, 20)

    def test_retailer_check_rolls_out_once(self, monkeypatch):
        p = make_params(horizon_T=20)
        trajectory = solve_game(p)[0]
        calls = count_calls(monkeypatch, "rollout")
        follower_stationarity_check(trajectory, p, "R")
        assert len(calls) == 1
        assert calls[0][-1].shape == (21, 20)

    def test_grid_scan_solves_once(self, monkeypatch):
        p = make_params(horizon_T=1)
        i_s = solve_game(p)[0].controls.i_s[0]
        calls = count_calls(monkeypatch, "solve_inner_response")
        grid_scan_supplier(p, center=i_s + 3.0, half_width=20.0)
        assert len(calls) == 1


class TestNoDenseFollowerSystem:
    def test_checks_build_no_dense_system(self, monkeypatch):
        """The checks re-solve their followers by the reduction: no check
        assembles the dense stacked system, wherever a module binds it."""
        def refuse(*args, **kwargs):
            raise AssertionError("a check built a dense system")
        p20, p1 = make_params(horizon_T=20), make_params(horizon_T=1)
        trajectory = solve_game(p20)[0]
        i_s = solve_game(p1)[0].controls.i_s[0]
        original = stationarity.assemble_system
        for module in [m for name, m in sys.modules.items()
                       if name == "csrchain" or name.startswith("csrchain.")]:
            if getattr(module, "assemble_system", None) is original:
                monkeypatch.setattr(module, "assemble_system", refuse)
        assert stationarity.assemble_system is refuse
        for level in ("R", "M"):
            follower_stationarity_check(trajectory, p20, level)
        leader_stationarity_check(trajectory, p20)
        grid_scan_supplier(p1, center=i_s + 3.0, half_width=20.0)


class TestFixedPathLength:
    """A fixed path whose length is not its block's length is refused."""

    @pytest.mark.parametrize("path", [[1.0, 2.0, 3.0, 99.0, -7.0], [1.0, 2.0]],
                             ids=["long", "short"])
    def test_inner_response(self, reference_params, path):
        with pytest.raises(ValueError, match=r"'i_s'.*\(\d,\).*length 3"):
            solve_inner_response(reference_params, path)

    @pytest.mark.parametrize("length", [7, 2], ids=["long", "short"])
    def test_retailer_response(self, reference_params, length):
        with pytest.raises(ValueError, match=rf"'i_m'.*\({length},\).*length 3"):
            solve_retailer_response(reference_params, np.ones(3), np.ones(length))

    def test_batched_path_checked_on_last_axis(self, reference_params):
        with pytest.raises(ValueError, match=r"'i_s'.*\(3, 4\).*length 3"):
            solve_inner_response(reference_params, np.ones((3, 4)))


class TestFixedPathFinite:
    """A fixed path with a NaN or infinite entry is refused, naming its
    block, before any solve could report it as a singular system."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_inner_response(self, reference_params, bad):
        with pytest.raises(ValueError, match="fixed path 'i_s' has a NaN or infinite"):
            solve_inner_response(reference_params, np.full(3, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("block", ["i_s", "i_m"])
    def test_retailer_response(self, reference_params, block, bad):
        paths = {"i_s": np.zeros(3), "i_m": np.zeros(3)}
        paths[block][1] = bad
        with pytest.raises(ValueError, match=f"fixed path '{block}' has a NaN or infinite"):
            solve_retailer_response(reference_params, paths["i_s"], paths["i_m"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_one_bad_batch_entry(self, reference_params, bad):
        i_s = np.zeros((4, 3))
        i_s[2, 0] = bad
        with pytest.raises(ValueError, match="fixed path 'i_s' has a NaN or infinite"):
            solve_inner_given_supplier(reference_params, i_s)
