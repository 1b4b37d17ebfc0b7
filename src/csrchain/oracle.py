"""Independent verification path for the game solver.

``dense_solve`` solves the full stacked stationarity system, all 15T + 4
unknowns at once, by one Householder QR per period over the system's
staircase, in O(T) time and memory.  It factors the blocks of
``stationarity.period_layout``, with its right-hand side and refinement
residual from ``period_residual``, the evaluator of ``residual_norms``, but
shares no step of the sweep: no control elimination, no level recursion, no
cyclic reduction.  The stationarity checks go one level deeper: they
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
from .model import ModelParams, Trajectory, objective, optimal_quantity, rollout
from .stationarity import (
    LEAD, TRAIL, WIDTH, period_layout, period_residual, stacked_rows,
    trajectory_from_blocks, unpack,
)
from .sweep import _solve_level

_COND_LIMIT = 1e12
# The fixed probe sets: seeded directions (plus every coordinate) for the
# stationarity checks, and the points of the single-period grid scan.
_N_DIRECTIONS = 12
_DIRECTION_SEED = 0
_GRID_POINTS = 81


def _solve_with_estimate(solve, solve_transposed, residual, a_norm, b):
    """Solve A z = b with one refinement step, and estimate kappa_1(A) from
    the same solves; returns (z, the correction, the estimate).

    The factorization is the caller's: ``solve`` maps right-hand sides of
    shape (n, k) to their solutions, ``solve_transposed`` a vector c to the
    solution of A^T x = c, ``residual`` a solution z to b - A z, and
    ``a_norm`` is ||A||_1.  Hager's estimator of ||A^-1||_1 probes e/n,
    takes one transposed solve to pick the column e_j, then probes e_j;
    Higham's alternating-sign vector is a third probe.  The probes ride as
    extra columns of the solution's and the refinement's right-hand sides.
    Each probe gives a lower bound on ||A^-1||_1, so the estimate never
    exceeds kappa_1(A).
    """
    n = len(b)
    x_alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    z, y, v = solve(np.column_stack([b, np.full(n, 1.0 / n), x_alt])).T
    j = np.argmax(np.abs(solve_transposed(np.where(y >= 0.0, 1.0, -1.0))))
    e_j = np.zeros(n)
    e_j[j] = 1.0
    dz, w = solve(np.column_stack([residual(z), e_j])).T
    # np.max, not max: a NaN bound must reach the caller's finiteness check.
    inv_norm = np.max([np.abs(y).sum(), np.abs(w).sum(), 2.0 * np.abs(v).sum() / (3 * n)])
    return z, dz, a_norm * float(inv_norm)


class _Staircase:
    """The stacked stationarity system in period order, eliminated by one
    Householder QR per period (stable almost-block-diagonal elimination;
    Diaz, Fairweather & Keast, ACM TOMS 9, 1983).

    Row group t touches only the W = 15 columns of periods t and t + 1, as
    the [D | E] of ``stationarity.period_layout`` over (z[t], z[t+1]).  The
    L = 4 columns that period 1 lacks and the 7 that period T + 1 lacks are
    padded, each with an identity row, so every step has one shape and the
    padding solves to zero.

    Step t factors [the L rows carried from t - 1; row group t] over the
    columns of period t as Q_t [R_t; 0]; Q_t^T turns [0; E] into the
    coupling S_t of the kept rows and the L rows carried on.  The last
    carried rows and the terminal rows leave one square block F at T + 1, so
    A = Q U with U block upper bidiagonal: R_1..R_T and F on its diagonal,
    S_t beside them.  Only per-period blocks are held, O(T) memory.  In the
    padded row order step t acts on rows W t .. W t + W + L - 1 and leaves
    U's row block t in the first W of them, so Q^T and Q apply in place.
    """

    def __init__(self, params: ModelParams):
        self.layout = first, group, terminal, _ = period_layout(params)
        self.T = T = params.horizon_T
        W, L = WIDTH, LEAD
        # a padded vector holds the system's own unknowns, or rows, at [real]
        self.n_padded = W * (T + 1)
        self.real = slice(L, self.n_padded - TRAIL)
        # Q_t and R_t of every step, F, and the products the solves use
        D1, E1, D, E = first[:, :W], first[:, W:-1], group[:, :W], group[:, W:-1]
        work = np.vstack([np.eye(L, W), D1])
        Q = np.empty((T, L + W, L + W))
        R = np.empty((T + 1, W, W))
        for t in range(T):
            Q[t], r = np.linalg.qr(work, mode="complete")
            R[t] = r[:W]
            work[:L] = Q[t, L:, W:].T @ (E if t else E1)
            work[L:] = D
        R[T] = np.vstack([work[:L], terminal[:, :-1], np.eye(TRAIL, W, W - TRAIL)])
        S = np.swapaxes(Q[:, L:, :W], 1, 2) @ E
        S[0] = Q[0, L:, :W].T @ E1
        self.Q, self.Rinv = Q, np.linalg.inv(R)
        self.G = self.Rinv[:-1] @ S                        # R_t^-1 S_t
        self.H = np.swapaxes(S @ self.Rinv[1:], 1, 2)      # R_t+1^-T S_t^T
        # ||A||_1, the largest column sum of periods 1..T + 1: D1 and E1 of row
        # group 1, D of groups 2..T, their E and the terminal rows.  Summed last:
        # the factors, 24 times its size, fail first where T is too long for memory
        s1, s = np.abs(first).sum(axis=0), np.abs(group).sum(axis=0)
        sums = np.vstack([s1[:W], s1[W:-1], np.zeros((T - 1, W))])
        sums[1:T] += s[:W]
        sums[2:] += s[W:-1]
        sums[T] += np.abs(terminal[:, :-1]).sum(axis=0)
        self.a_norm = float(sums.max())

    def _pad(self, x):
        out = np.zeros((self.n_padded,) + x.shape[1:])
        out[self.real] = x
        return out

    def solve(self, B):
        """Solutions of A z = b for the columns b of B, (n, k): Q^T b, then
        back substitution in U."""
        T, W, L = self.T, WIDTH, LEAD
        x = self._pad(B)
        for t in range(T):
            x[W * t:W * t + W + L] = self.Q[t].T @ x[W * t:W * t + W + L]
        z = self.Rinv @ x.reshape(T + 1, W, -1)
        for t in range(T - 1, -1, -1):
            z[t] -= self.G[t] @ z[t + 1]
        return z.reshape(self.n_padded, -1)[self.real]

    def solve_transposed(self, c):
        """The solution of A^T x = c: forward substitution in U^T, then the
        Q_t in reverse."""
        T, W, L = self.T, WIDTH, LEAD
        eta = (self._pad(c).reshape(T + 1, 1, W) @ self.Rinv)[:, 0]   # R^-T c, per block
        for t in range(1, T + 1):
            eta[t] -= self.H[t - 1] @ eta[t - 1]
        x = eta.reshape(-1)
        for t in range(T - 1, -1, -1):
            x[W * t:W * t + W + L] = self.Q[t] @ x[W * t:W * t + W + L]
        return x[self.real]

    def packed(self, z):
        """The staircase's unknowns z as packed paths, a view of a padded copy."""
        return self._pad(z).reshape(self.T + 1, WIDTH).T


def dense_solve(params: ModelParams) -> Trajectory:
    """Solve the full-horizon stationarity system by staircase QR, in O(T).

    One step of iterative refinement keeps the residual at roundoff level.
    Raises SingularSystemError (with a 1-norm condition estimate) if the
    stacked matrix is numerically singular.
    """
    def residual(z):   # b - A z: minus the layout's rows, in the staircase's order
        return -stacked_rows(period_residual(system.packed(z), system.layout))
    try:
        system = _Staircase(params)
        b = residual(np.zeros(system.n_padded - LEAD - TRAIL))
        z, dz, cond = _solve_with_estimate(system.solve, system.solve_transposed, residual,
                                           system.a_norm, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(float("inf")) from exc
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(cond)
    return trajectory_from_blocks(unpack(system.packed(z + dz)), params)


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


def _worst_slope(payoff, path, trajectory) -> float:
    """Max central-difference slope of ``payoff`` at ``path`` over the
    probe directions, with a step scaled to the trajectory's investments.

    ``payoff`` takes every probe at once, the +h probes stacked over the
    -h probes as one (2k, T) batch, and returns their k + k values.
    """
    h = 1e-5 * (1.0 + float(np.max(np.abs(trajectory.controls.stacked()))))
    eta = _directions(len(path))
    values = payoff(np.concatenate([path + h * eta, path - h * eta]))
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
        def payoff(i_r):
            x = rollout(params, c.i_s, c.i_m, i_r)
            return objective("R", params, x, c.i_s, c.i_m, i_r, q)
        path = c.i_r
    elif level == "M":
        def payoff(i_m):
            i_r, x = solve_retailer_response(params, c.i_s, i_m)
            return objective("M", params, x, c.i_s, i_m, i_r, q)
        path = c.i_m
    else:
        raise ValueError(f"unknown follower level {level!r}; expected 'R' or 'M'")
    return _worst_slope(payoff, path, trajectory)


def leader_stationarity_check(trajectory: Trajectory, params: ModelParams) -> float:
    """Max directional derivative of the supplier's objective with the whole
    follower subsystem re-solved for every probe, all probes in one solve."""
    c = trajectory.controls
    q = trajectory.q[0]

    def payoff(i_s):
        i_m, i_r, x = solve_inner_response(params, i_s)
        return objective("S", params, x, i_s, i_m, i_r, q)
    return _worst_slope(payoff, c.i_s, trajectory)


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
    values = objective("S", params, x, i_s, i_m, i_r, optimal_quantity(params))
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
