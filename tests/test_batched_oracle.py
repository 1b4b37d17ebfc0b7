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
from csrchain.stationarity import restricted_system

from conftest import draw_params, make_params

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


def loop_directions(T, n_directions, seed):
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(n_directions):
        eta = rng.standard_normal(T)
        dirs.append(eta / np.linalg.norm(eta))
    dirs.extend(np.eye(T))
    return dirs


def probe_step(trajectory):
    return 1e-5 * (1.0 + float(np.max(np.abs(trajectory.controls.stacked()))))


def loop_worst_slope(objective, path, trajectory, n_directions=12, seed=0):
    h = probe_step(trajectory)
    return max(abs(objective(path + h * eta) - objective(path - h * eta)) / (2.0 * h)
               for eta in loop_directions(len(path), n_directions, seed))


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
                               x=rollout(params, params.x1, i_s, i_m, i_r))


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
        batch = rollout(params, params.x1, i_s, i_m, i_r)
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
    dense solve of the follower's restricted system, path by path."""

    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_inner_batch_matches_one_at_a_time(self, params):
        T = params.horizon_T
        i_s = np.random.default_rng(T + 1).uniform(-5, 5, (6, T))
        i_m, i_r, x = solve_inner_response(params, i_s)
        assert i_m.shape == i_r.shape == (6, T) and x.shape == (6, T + 1)
        A, b, ix = restricted_system(params, ("x", "i_m", "i_r", "lam", "p_r", "p_m", "u"),
                                     {"i_s": i_s})
        for j, path in enumerate(i_s):
            tol = skeel_tolerance(A, b[j])
            dense = np.linalg.solve(A, b[j])
            single = solve_inner_response(params, path)
            for batched, one, name in zip((i_m[j], i_r[j], x[j]), single, ("i_m", "i_r", "x")):
                assert np.max(np.abs(batched - one)) <= tol
                assert np.max(np.abs(batched - ix.block(dense, name))) <= tol

    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_retailer_batch_matches_one_at_a_time(self, params):
        T = params.horizon_T
        rng = np.random.default_rng(T + 2)
        i_s = rng.uniform(-5, 5, T)
        i_m = rng.uniform(-5, 5, (6, T))
        i_r, x = solve_retailer_response(params, i_s, i_m)
        assert i_r.shape == (6, T) and x.shape == (6, T + 1)
        A, b, ix = restricted_system(params, ("x", "i_r", "p_r"), {"i_s": i_s, "i_m": i_m})
        for j, path in enumerate(i_m):
            tol = skeel_tolerance(A, b[j])
            dense = np.linalg.solve(A, b[j])
            single = solve_retailer_response(params, i_s, path)
            for batched, one, name in zip((i_r[j], x[j]), single, ("i_r", "x")):
                assert np.max(np.abs(batched - one)) <= tol
                assert np.max(np.abs(batched - ix.block(dense, name))) <= tol


class TestChecksMatchLoop:
    @pytest.mark.parametrize("T", [1, 3, 60])
    def test_probe_directions_match_loop(self, T):
        rows = oracle._directions(T)
        reference = np.array(loop_directions(T, 12, 0))
        assert rows.shape == reference.shape == (12 + T, T)
        assert np.max(np.abs(rows - reference)) <= 2 * EPS

    @pytest.mark.parametrize("point", ["solved", "perturbed"])
    @pytest.mark.parametrize("level", ["R", "M", "S"])
    @pytest.mark.parametrize("params", CASES, ids=CASE_IDS)
    def test_check_matches_reference_loop(self, params, level, point, points):
        trajectory = points[id(params), point]
        reference = loop_check(trajectory, params, level)
        value = batched_check(trajectory, params, level)
        assert abs(value - reference) <= check_tolerance(trajectory, params, level)

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
    """Each check factors its follower system once, whatever the probe count."""

    def test_leader_check_solves_once(self, monkeypatch):
        p = make_params(horizon_T=20)
        trajectory = solve_game(p)[0]
        calls = count_calls(monkeypatch, "solve_inner_response")
        leader_stationarity_check(trajectory, p)
        assert len(calls) == 1

    def test_manufacturer_check_solves_once(self, monkeypatch):
        p = make_params(horizon_T=20)
        trajectory = solve_game(p)[0]
        calls = count_calls(monkeypatch, "solve_retailer_response")
        follower_stationarity_check(trajectory, p, "M")
        assert len(calls) == 1

    def test_retailer_check_rolls_out_once(self, monkeypatch):
        p = make_params(horizon_T=20)
        trajectory = solve_game(p)[0]
        calls = count_calls(monkeypatch, "rollout")
        follower_stationarity_check(trajectory, p, "R")
        assert len(calls) == 1

    def test_grid_scan_solves_once(self, monkeypatch):
        p = make_params(horizon_T=1)
        i_s = solve_game(p)[0].controls.i_s[0]
        calls = count_calls(monkeypatch, "solve_inner_response")
        grid_scan_supplier(p, center=i_s + 3.0, half_width=20.0)
        assert len(calls) == 1


class TestNoDenseFollowerSystem:
    def test_checks_build_no_dense_system(self, monkeypatch):
        """The checks re-solve their followers by the reduction: no check
        builds a restricted (dense) system, wherever a module binds it."""
        def refuse(*args, **kwargs):
            raise AssertionError("a check built a dense follower system")
        p20, p1 = make_params(horizon_T=20), make_params(horizon_T=1)
        trajectory = solve_game(p20)[0]
        i_s = solve_game(p1)[0].controls.i_s[0]
        for module in [m for name, m in sys.modules.items()
                       if name == "csrchain" or name.startswith("csrchain.")]:
            if getattr(module, "restricted_system", None) is restricted_system:
                monkeypatch.setattr(module, "restricted_system", refuse)
        assert stationarity.restricted_system is refuse
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
