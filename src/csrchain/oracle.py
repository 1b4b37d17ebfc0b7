"""Independent verification path for the game solver.

``dense_solve`` factors the full stacked stationarity system in one shot,
with no sweep structure.  The stationarity checks go one level deeper: they
differentiate the players' objectives themselves (by central differences
along re-solved follower reactions), so they validate the derived equations
against the payoffs rather than one solver against another.

All perturbation directions are fixed-seed pseudorandom, plus every
coordinate direction, so results are reproducible and single-period
deviations cannot hide in a random subspace.  A perturbed leader path moves
only the right-hand side of the follower level, so each check re-solves that
level once, by the sweep's cyclic reduction, with every probe, +h and -h, a
batch entry of its right-hand side; the retailer check rolls all its probes
out in one batched pass.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularSystemError
from .model import ModelParams, Trajectory, optimal_quantity, rollout, stage_payoff
from .stationarity import assemble_system, vector_to_trajectory
from .sweep import _solve_level

_COND_LIMIT = 1e12
# The fixed probe sets: seeded directions (plus every coordinate) for the
# stationarity checks, and the points of the single-period grid scan.
_N_DIRECTIONS = 12
_DIRECTION_SEED = 0
_GRID_POINTS = 81


def _stacked_objective(player, params, x, i_s, i_m, i_r, q):
    """The player's payoff summed over periods 1..T, for every path of a
    batch: the state ``x`` has shape (..., T + 1), the investments (..., T)."""
    stage = stage_payoff(player, x[..., :-1], q, (i_s, i_m, i_r), params)
    return np.sum(stage, axis=-1)


def _solve_with_estimate(A, b):
    """Solve A z = b with one refinement step, and estimate kappa_1(A) from
    the same three LU solves; returns (z, the correction, the estimate).

    Hager's estimator of ||A^-1||_1 probes e/n, takes one transposed solve
    to pick the column e_j, then probes e_j; Higham's alternating-sign
    vector is a third probe.  The probes ride as extra columns of the
    solution's and the refinement's right-hand sides.  Each probe gives a
    lower bound on ||A^-1||_1, so the estimate never exceeds kappa_1(A).
    """
    n = A.shape[0]
    a_norm = float(np.abs(A).sum(axis=0).max())
    x_alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    z, y, v = np.linalg.solve(A, np.column_stack([b, np.full(n, 1.0 / n), x_alt])).T
    j = np.argmax(np.abs(np.linalg.solve(A.T, np.where(y >= 0.0, 1.0, -1.0))))
    e_j = np.zeros(n)
    e_j[j] = 1.0
    dz, w = np.linalg.solve(A, np.column_stack([b - A @ z, e_j])).T
    # np.max, not max: a NaN bound must reach the caller's finiteness check.
    inv_norm = np.max([np.abs(y).sum(), np.abs(w).sum(), 2.0 * np.abs(v).sum() / (3 * n)])
    return z, dz, a_norm * float(inv_norm)


def dense_solve(params: ModelParams) -> Trajectory:
    """Solve the full-horizon stationarity system by direct factorization.

    One step of iterative refinement keeps the residual at roundoff level.
    Raises SingularSystemError (with a 1-norm condition estimate) if the
    stacked matrix is numerically singular.
    """
    params.validated()
    system = assemble_system(params)
    try:
        z, dz, cond = _solve_with_estimate(system.matrix, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(float("inf")) from exc
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(cond)
    return vector_to_trajectory(z + dz, params)


# ---------------------------------------------------------------------------
# Follower responses, re-solved by the sweep's reduction of the level
#
# A fixed leader path enters a follower level only through its right-hand
# side, so a batch of paths (leading axes, (..., T)) is one solve sharing the
# level's factorizations.  The responses come back with the same leading axes.
# ---------------------------------------------------------------------------

def solve_retailer_response(params: ModelParams, i_s, i_m):
    """Retailer stationarity response to fixed upstream paths.

    Solves the retailer's own first-order system (state equation, control
    FOC, costate recursion, and their boundary rows) for (i_r, x).  The paths
    may be batches of shape (..., T), solved in one call.
    """
    paths = _solve_level(params, "retailer", {"i_s": i_s, "i_m": i_m})
    return paths["i_r"], paths["x"]


def solve_inner_response(params: ModelParams, i_s):
    """Manufacturer-with-retailer stationarity response to a supplier path.

    Solves the complete inner first-order system (both followers) for
    (i_m, i_r, x).  ``i_s`` may be a batch of shape (..., T), solved in one
    call.
    """
    paths = _solve_level(params, "inner", {"i_s": i_s})
    return paths["i_m"], paths["i_r"], paths["x"]


# ---------------------------------------------------------------------------
# Stationarity checks against the objectives themselves
# ---------------------------------------------------------------------------

def _directions(T):
    """Unit probe directions as rows: fixed-seed pseudorandom, then every
    coordinate."""
    rng = np.random.default_rng(_DIRECTION_SEED)
    eta = rng.standard_normal((_N_DIRECTIONS, T))
    eta /= np.linalg.norm(eta, axis=1, keepdims=True)
    return np.vstack([eta, np.eye(T)])


def _worst_slope(objective, path, trajectory) -> float:
    """Max central-difference slope of ``objective`` at ``path`` over the
    probe directions, with a step scaled to the trajectory's investments.

    ``objective`` takes every probe at once, the +h probes stacked over the
    -h probes as one (2k, T) batch, and returns their k + k values.
    """
    h = 1e-5 * (1.0 + float(np.max(np.abs(trajectory.controls.stacked()))))
    eta = _directions(len(path))
    values = objective(np.concatenate([path + h * eta, path - h * eta]))
    plus, minus = np.split(values, 2)
    return float(np.max(np.abs(plus - minus) / (2.0 * h)))


def follower_stationarity_check(trajectory: Trajectory, params: ModelParams,
                                level: str) -> float:
    """Max directional derivative of a follower's objective along its
    re-solved reaction; near zero exactly at a nested stationary point.

    Level R perturbs the retailer path with the state re-rolled.  Level M
    perturbs the manufacturer path and re-solves the retailer's response
    before differencing the manufacturer's objective.  Either way every
    probe is evaluated in one batched call.
    """
    c = trajectory.controls
    q = trajectory.q[0]
    if level == "R":
        def objective(i_r):
            x = rollout(params, params.x1, c.i_s, c.i_m, i_r)
            return _stacked_objective("R", params, x, c.i_s, c.i_m, i_r, q)
        path = c.i_r
    elif level == "M":
        def objective(i_m):
            i_r, x = solve_retailer_response(params, c.i_s, i_m)
            return _stacked_objective("M", params, x, c.i_s, i_m, i_r, q)
        path = c.i_m
    else:
        raise ValueError(f"unknown follower level {level!r}; expected 'R' or 'M'")
    return _worst_slope(objective, path, trajectory)


def leader_stationarity_check(trajectory: Trajectory, params: ModelParams) -> float:
    """Max directional derivative of the supplier's objective with the whole
    follower subsystem re-solved for every probe, all probes in one solve."""
    c = trajectory.controls
    q = trajectory.q[0]

    def objective(i_s):
        i_m, i_r, x = solve_inner_response(params, i_s)
        return _stacked_objective("S", params, x, i_s, i_m, i_r, q)
    return _worst_slope(objective, c.i_s, trajectory)


def grid_scan_supplier(params: ModelParams, center: float, half_width: float) -> float:
    """Single-period brute-force cross-check: scan the supplier's investment
    over a grid (followers re-solved at every point, in one batched solve),
    locate the sign change of the first difference of its objective, and
    refine by fitting a parabola through the bracketing triple.

    Only defined for horizon 1, where the supplier's choice is a scalar.
    """
    if params.horizon_T != 1:
        raise ValueError("grid scan is a single-period check; horizon_T must be 1")
    grid = np.linspace(center - half_width, center + half_width, _GRID_POINTS)
    i_s = grid[:, np.newaxis]
    i_m, i_r, x = solve_inner_response(params, i_s)
    values = _stacked_objective("S", params, x, i_s, i_m, i_r, optimal_quantity(params))
    diffs = np.diff(values)
    signs = np.sign(diffs)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size == 0:
        raise ValueError(
            "no interior stationary point of the supplier objective inside "
            f"the scanned range [{grid[0]:.6g}, {grid[-1]:.6g}]"
        )
    j = flips[0] + 1   # grid index bracketed by the difference sign change
    x3 = grid[j - 1:j + 2]
    y3 = values[j - 1:j + 2]
    coeff = np.polyfit(x3, y3, 2)
    return float(-coeff[1] / (2.0 * coeff[0]))
