"""Cyclic-reduction solver for the levels of the game.

A level is the part of the equation table that one player solves together
with its followers, given the paths of the players above it.  Its unknowns
are states s (initial values given), costates P (terminal values zero) and
period unknowns v, the controls and the per-period Lagrange values.  Once v
is eliminated the level is a two-point recursion over y[t] = (s[t], P[t]):

    P y[t] + Q y[t+1] = g[t],    t = 1..T.

``assemble_augmented`` reads P, Q and g straight off the table.  The
recursion is solved by QR-based cyclic reduction (Wright, SIAM J. Sci. Stat.
Comput. 13, 1992), which, unlike a Riccati sweep, needs no dichotomy: the
reference parameters put 6 of the 8 outer transfer eigenvalues on the unit
circle.  Each level of the reduction pairs neighbouring equations and
eliminates their shared y with one orthogonal transform common to all pairs;
an odd last equation is carried as a tail.  The final equation, between y[1]
and y[T+1], gives the unknown halves of both; undoing the levels recovers
every y.  A singular recovery raises SweepSingularError.

The levels, as ``_LEVELS`` names their blocks:

  outer     the full nested game.  s = (x, u, w, u'), P = (p_r, p_m, p_s, r);
            solving it is solving the game.
  inner     the manufacturer-retailer level, the supplier's investment path
            fixed.  s = (x, u), P = (p_m, p_r).  At the solved supplier path
            its solution must reproduce the outer one, which ``solve_game``
            verifies on every run; the leader check re-solves it per probe.
  retailer  the retailer alone, the supplier's and manufacturer's paths
            fixed.  s = x, P = p_r; the manufacturer check re-solves it.

Fixed paths may carry leading batch axes, (..., T): the matrices P and Q are
shared, and every batch entry is one right-hand side of the same reduction.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SweepSingularError
from .model import (
    ModelParams,
    Trajectory,
    optimal_quantity,
    total_objective,
)
from .stationarity import (
    fixed_paths,
    level_families,
    own_control_second_derivative,
    residual_norms,
    trajectory_blocks,
    trajectory_from_blocks,
)

# level -> (state, costate and period unknown blocks, fixed blocks)
_LEVELS = {
    "outer": (("x", "u", "w", "u_prime"), ("p_r", "p_m", "p_s", "r"),
              ("i_s", "i_m", "i_r", "lam", "lam_prime", "mu_prime", "nu"), ()),
    "inner": (("x", "u"), ("p_m", "p_r"), ("i_m", "i_r", "lam"), ("i_s",)),
    "retailer": (("x",), ("p_r",), ("i_r",), ("i_s", "i_m")),
}


@dataclass(frozen=True)
class AugmentedSystem:
    """One level as the recursion P y[t] + Q y[t+1] = g[t], t = 1..T.

    y[t] holds the states, then the costates; the rows of P and Q are the
    recursions stepping them, in the same order.  The states at t = 1 are
    ``xt1`` and the costates at T + 1 are zero.  ``g`` has shape (..., T,
    2n), with the batch axes of the fixed paths.  The eliminated period
    unknowns are v[t] = sol_G @ (y[t], y[t+1]) + sol_g[..., t, :].
    """

    level: str
    P: np.ndarray
    Q: np.ndarray
    g: np.ndarray
    sol_G: np.ndarray
    sol_g: np.ndarray
    xt1: np.ndarray

    @property
    def horizon(self) -> int:
        return self.g.shape[-2]


@dataclass
class SolveReport:
    """Diagnostics of one solve."""

    scenario_name: str
    horizon_T: int
    solver_path: str
    seed: int
    tolerance: float
    residual_max: float
    residual_rms: float
    objective_supplier: float
    objective_manufacturer: float
    objective_retailer: float
    quantity: float
    convexity_warning: bool
    negative_investment_warning: bool
    inner_consistency_delta: float
    timing_seconds: float
    oracle_max_delta: float | None = None
    oracle_residual_max: float | None = None


def assemble_augmented(params: ModelParams, level: str, fixed=None) -> AugmentedSystem:
    """Read one level's recursion off the equation table.

    ``fixed`` maps each of the level's fixed blocks to its path, of shape
    (..., T); the outer level has none.  Each family of the level holds at
    every period t = 1..T, as one row of coefficients over (v[t], y[t],
    y[t+1], e[t], 1), e the fixed paths: a term of shift 0 is read at t, of
    shift 1 at t + 1.  One solve against the algebraic rows eliminates v.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {tuple(_LEVELS)}")
    T = params.horizon_T
    state, costate, period, held = _LEVELS[level]
    fixed = fixed_paths(fixed, T)
    if set(fixed) != set(held):
        raise ValueError(f"the {level} level needs the fixed paths {held}, "
                         f"got {tuple(fixed)}")
    y = state + costate
    columns = ([(name, 0) for name in period + y] + [(name, 1) for name in y]
               + [(name, 0) for name in held])
    col = {key: j for j, key in enumerate(columns)}
    families = level_families(params, {*y, *period, *held})
    stepping = {fam.terms[0][0]: fam for fam in families if fam.boundary is not None}
    rows = [stepping[name] for name in y] + [fam for fam in families if fam.boundary is None]
    K = np.zeros((len(rows), len(columns) + 1))
    for i, fam in enumerate(rows):
        for block, shift, coef in fam.terms:
            K[i, col[block, shift]] = coef
        K[i, -1] = -fam.constant
    # K (v, o) = 0 with o = (y[t], y[t+1], e[t], 1): v = -G o on the
    # algebraic rows, which leaves the recursions reduced o = 0.
    m, n2 = len(period), len(y)
    G = np.linalg.solve(K[n2:, :m], K[n2:, m:])
    reduced = K[:n2, m:] - K[:n2, :m] @ G
    e = np.stack(np.broadcast_arrays(*(fixed[name] for name in held), np.ones(T)), axis=-1)
    return AugmentedSystem(
        level=level, P=reduced[:, :n2], Q=reduced[:, n2:2 * n2],
        g=-e @ reduced[:, 2 * n2:].T, sol_G=-G[:, :2 * n2], sol_g=-e @ G[:, 2 * n2:].T,
        xt1=np.array([stepping[name].boundary.value for name in state]))


def _eliminate(first, second):
    """Eliminate the y shared by two neighbouring equations (P, Q, g), each
    P y[left] + Q y[right] = g, g of shape (..., k, m) or (..., m).  Returns
    the kept rows (R, W, h), R y[shared] + W (y[left], y[right]) = h, and the
    reduced equation between the outer two."""
    (P1, Q1, g1), (P2, Q2, g2) = first, second
    m = Q1.shape[0]
    U, R = np.linalg.qr(np.vstack([Q1, P2]), mode="complete")
    W = np.hstack([U[:m].T @ P1, U[m:].T @ Q2])
    h = np.concatenate([g1, g2], axis=-1) @ U
    return (R[:m], W[:m], h[..., :m]), (W[m:, :m], W[m:, m:], h[..., m:])


def backward_sweep(aug: AugmentedSystem):
    """Cyclic reduction of the level: returns each level's kept rows of the
    pairs and of the tail, and the final equation between y[1] and y[T+1]."""
    P, Q, g = aug.P, aug.Q, aug.g
    tail, levels = None, []
    while g.shape[-2] + (tail is not None) > 1:
        kept_tail = None
        if g.shape[-2] % 2 and tail:
            kept_tail, tail = _eliminate((P, Q, g[..., -1, :]), tail)
        elif g.shape[-2] % 2:
            tail = (P, Q, g[..., -1, :])
        kept, (P, Q, g) = _eliminate((P, Q, g[..., 0:-1:2, :]), (P, Q, g[..., 1::2, :]))
        levels.append((kept, kept_tail))
    return levels, tail or (P, Q, g[..., 0, :])


def _solve_batch(A, rhs):
    """Solve A z = rhs for right-hand sides of shape (..., n) at once."""
    n = A.shape[0]
    return np.linalg.solve(A, rhs.reshape(-1, n).T).T.reshape(rhs.shape)


def _undo(kept, left, right):
    """The shared y of eliminated pairs, from their neighbours' values."""
    R, W, h = kept
    return _solve_batch(R, h - np.concatenate([left, right], axis=-1) @ W.T)


def _named(names, paths) -> dict:
    """Block name -> path, the blocks laid along the last axis of ``paths``."""
    return dict(zip(names, np.moveaxis(paths, -1, 0)))


def _sweep_forward(aug: AugmentedSystem, reduction) -> dict:
    """Block name -> path of everything the level solved for, recovered
    from the reduction."""
    levels, (P, Q, g) = reduction
    T, n = aug.horizon, len(aug.xt1)
    y = np.zeros(aug.g.shape[:-2] + (T + 1, 2 * n))
    y[..., 0, :n] = aug.xt1
    try:
        y[..., 0, n:], y[..., T, :n] = np.split(_solve_batch(
            np.hstack([P[:, n:], Q[:, :n]]), g - aug.xt1 @ P[:, :n].T), 2, axis=-1)
        for level, (kept, kept_tail) in reversed(list(enumerate(levels))):
            s = 2 ** level
            if kept_tail:
                y[..., T // s * s, :] = _undo(kept_tail, y[..., T // s * s - s, :],
                                              y[..., T, :])
            k = kept[2].shape[-2]
            y[..., s::2 * s, :][..., :k, :] = _undo(
                kept, y[..., ::2 * s, :][..., :k, :], y[..., 2 * s::2 * s, :][..., :k, :])
    except np.linalg.LinAlgError:
        raise SweepSingularError(aug.level) from None
    if not np.all(np.isfinite(y)):
        raise SweepSingularError(aug.level)
    state, costate, period, _ = _LEVELS[aug.level]
    v = np.concatenate([y[..., :-1, :], y[..., 1:, :]], axis=-1) @ aug.sol_G.T + aug.sol_g
    return {**_named(state, y[..., :n]), **_named(costate, y[..., 1:, n:]),
            **_named(period, v)}


def forward_pass(aug: AugmentedSystem, reduction,
                 params: ModelParams) -> Trajectory:
    """Forward pass over the outer system, yielding the full trajectory."""
    if aug.level != "outer":
        raise ValueError("forward_pass recovers the full game; pass the outer system")
    return trajectory_from_blocks(_sweep_forward(aug, reduction), params)


def _solve_level(params: ModelParams, level: str, fixed) -> dict:
    """Block name -> path of everything the level solves for, given its
    fixed paths (which may carry batch axes)."""
    aug = assemble_augmented(params, level, fixed)
    return _sweep_forward(aug, backward_sweep(aug))


def solve_inner_given_supplier(params: ModelParams, supplier_investments):
    """Solve the manufacturer-retailer level for a fixed supplier path.

    Returns a dict of the inner variables (x, u, p_m, p_r, i_m, i_r, lam).
    """
    return _solve_level(params, "inner", {"i_s": supplier_investments})


def _inner_consistency_delta(params: ModelParams, trajectory: Trajectory) -> float:
    """Max discrepancy between the solved game and the inner level re-run at
    the solved supplier path."""
    inner = solve_inner_given_supplier(params, trajectory.controls.i_s)
    solved = trajectory_blocks(trajectory)
    return float(np.max([np.max(np.abs(inner[name] - solved[name])) for name in inner]))


def solve_game(params: ModelParams, *, scenario_name: str = "",
               tolerance: float = 1e-8, seed: int = 0):
    """Assemble, sweep, and recover the nested equilibrium trajectory.

    Returns (trajectory, report).  Raises UndeterminedControlsError when
    tau*theta = 0 and SweepSingularError when a recovery is singular.
    """
    params.validated()
    started = time.perf_counter()
    aug = assemble_augmented(params, "outer")
    trajectory = forward_pass(aug, backward_sweep(aug), params)
    res_max, res_rms = residual_norms(trajectory, params)
    inner_delta = _inner_consistency_delta(params, trajectory)
    elapsed = time.perf_counter() - started
    controls = trajectory.controls
    negative = bool(min(controls.i_s.min(), controls.i_m.min(),
                        controls.i_r.min()) < 0.0)
    report = SolveReport(
        scenario_name=scenario_name,
        horizon_T=params.horizon_T,
        solver_path="sweep",
        seed=seed,
        tolerance=tolerance,
        residual_max=res_max,
        residual_rms=res_rms,
        objective_supplier=total_objective("S", trajectory, params),
        objective_manufacturer=total_objective("M", trajectory, params),
        objective_retailer=total_objective("R", trajectory, params),
        quantity=optimal_quantity(params),
        convexity_warning=own_control_second_derivative(params) > 0.0,
        negative_investment_warning=negative,
        inner_consistency_delta=inner_delta,
        timing_seconds=elapsed,
    )
    return trajectory, report
