"""Cyclic-reduction solver for the stationarity system.

After the per-period control block is eliminated, the remaining dynamics
couple a forward vector xt (initial condition known) and a backward vector
Pt (terminal condition zero) through constant blocks:

    xt_{t+1} = A xt_t + B Pt_{t+1} + f_t
    Pt_t     = C xt_t + D22 Pt_{t+1}

that is E y_{t+1} - F y_t = (f_t, 0) over y = (xt, Pt), with E = [[I, -B],
[0, D22]] and F = [[A, 0], [-C, I]].  It is solved by QR-based cyclic
reduction (Wright, SIAM J. Sci. Stat. Comput. 13, 1992), which, unlike a
Riccati sweep, needs no dichotomy: the reference parameters put 6 of the 8
outer transfer eigenvalues on the unit circle.  Each level pairs
neighbouring equations and eliminates their shared y with one orthogonal
transform common to all pairs; an odd last equation is carried as a tail.
The final equation, between y_1 and y_{T+1}, gives xt_{T+1}; undoing the
levels recovers every y.  A singular recovery raises SweepSingularError.

Two instances of the machinery exist:

  outer  the full nested game.  xt = (x, u, w, u'), Pt = (p_r, p_m, p_s, r),
         4x4 blocks; solving it is solving the game.
  inner  the manufacturer-retailer level alone, with the supplier's
         investment path held fixed.  xt = (x, u), Pt = (p_m, p_r), 2x2
         blocks.  At the solved supplier path its solution must reproduce
         the outer one, which ``solve_game`` verifies on every run.

Every block, D22 included, is read off the equation table by
``stationarity.level_blocks``; for this model D22 comes out exactly equal to
A (alpha times the identity).
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
    level_blocks,
    own_control_second_derivative,
    residual_norms,
    trajectory_blocks,
    trajectory_from_blocks,
)

OUTER_STATE = ("x", "u", "w", "u_prime")
OUTER_COSTATE = ("p_r", "p_m", "p_s", "r")
OUTER_PERIOD = ("i_s", "i_m", "i_r", "lam", "lam_prime", "mu_prime", "nu")
INNER_STATE = ("x", "u")
INNER_COSTATE = ("p_m", "p_r")
INNER_PERIOD = ("i_m", "i_r", "lam")
# level -> (state, costate and period unknown blocks, exogenous block)
_LEVELS = {
    "outer": (OUTER_STATE, OUTER_COSTATE, OUTER_PERIOD, None),
    "inner": (INNER_STATE, INNER_COSTATE, INNER_PERIOD, "i_s"),
}


@dataclass(frozen=True)
class AugmentedSystem:
    """Constant blocks of the augmented forward/backward recursion.

    ``f`` is stored per period (shape (T, n)): the inner level's forcing
    varies with the exogenous supplier path.  ``sol_G`` and ``sol_g`` give
    the eliminated per-period block as solution_t = sol_G @ Pt_{t+1} +
    sol_g[t] (outer: 7 entries per period, inner: 3).
    """

    level: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D22: np.ndarray
    f: np.ndarray
    sol_G: np.ndarray
    sol_g: np.ndarray

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def horizon(self) -> int:
        return self.f.shape[0]


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


def assemble_augmented(params: ModelParams, level: str,
                       supplier_investments=None) -> AugmentedSystem:
    """Build the augmented blocks for one level of the game.

    ``supplier_investments`` (length T) is required at the inner level and
    ignored at the outer level.  Expanding the blocks reproduces the level's
    rows of the equation table after control elimination.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}; expected 'inner' or 'outer'")
    T = params.horizon_T
    state, costate, period, exogenous = _LEVELS[level]
    blocks = level_blocks(params, state, costate, period, exogenous)
    if exogenous is not None:
        if supplier_investments is None:
            raise ValueError("inner level requires the supplier investment path")
        i_s = np.asarray(supplier_investments, dtype=float)
        if i_s.shape != (T,):
            raise ValueError(f"supplier path must have shape ({T},), got {i_s.shape}")
    G = np.linalg.solve(blocks.M, blocks.R)
    g = np.linalg.solve(blocks.M, blocks.r0)
    if exogenous is None:
        sol_g = np.tile(g, (T, 1))
        f = np.tile(blocks.W @ g, (T, 1))
    else:
        # the supplier path enters as a per-period constant
        sol_g = g[None, :] + i_s[:, None] * np.linalg.solve(blocks.M, blocks.X)[None, :]
        f = sol_g @ blocks.W.T + i_s[:, None] * blocks.E[None, :]
    return AugmentedSystem(level=level, A=blocks.A, B=blocks.W @ G, C=blocks.C,
                           D22=blocks.D22, f=f, sol_G=G, sol_g=sol_g)


def _eliminate(first, second):
    """Eliminate the y shared by two neighbouring equations (P, Q, g), each
    P y[left] + Q y[right] = g with g possibly batched as (k, m).  Returns
    the kept rows (R, W, h), R y[shared] + W (y[left], y[right]) = h, and the
    reduced equation between the outer two."""
    (P1, Q1, g1), (P2, Q2, g2) = first, second
    m = Q1.shape[0]
    U, R = np.linalg.qr(np.vstack([Q1, P2]), mode="complete")
    zero = np.zeros((m, m))
    W = U.T @ np.block([[P1, zero], [zero, Q2]])
    h = np.concatenate([g1, g2], axis=-1) @ U
    return (R[:m], W[:m], h[..., :m]), (W[m:, :m], W[m:, m:], h[..., m:])


def backward_sweep(aug: AugmentedSystem):
    """Cyclic reduction of the level: returns each level's kept rows of the
    pairs and of the tail, and the final equation between y[1] and y[T+1]."""
    n = aug.dim
    eye, zero = np.eye(n), np.zeros((n, n))
    P = -np.block([[aug.A, zero], [-aug.C, eye]])
    Q = np.block([[eye, -aug.B], [zero, aug.D22]])
    g = np.hstack([aug.f, np.zeros_like(aug.f)])
    tail, levels = None, []
    while len(g) + (tail is not None) > 1:
        kept_tail = None
        if len(g) % 2 and tail:
            kept_tail, tail = _eliminate((P, Q, g[-1]), tail)
        elif len(g) % 2:
            tail = (P, Q, g[-1])
        kept, (P, Q, g) = _eliminate((P, Q, g[0:-1:2]), (P, Q, g[1::2]))
        levels.append((kept, kept_tail))
    return levels, tail or (P, Q, g[0])


def _undo(kept, left, right):
    """The shared y of eliminated pairs, from their neighbours' values."""
    R, W, h = kept
    return np.linalg.solve(R, (h - np.concatenate([left, right], axis=-1) @ W.T).T).T


def _sweep_forward(aug: AugmentedSystem, reduction, xt1) -> dict:
    """Block name -> path of everything the level solved for, recovered
    from the reduction."""
    levels, (P, Q, g) = reduction
    T, n = aug.horizon, aug.dim
    y = np.zeros((T + 1, 2 * n))
    y[0, :n] = xt1
    try:
        y[0, n:], y[T, :n] = np.split(np.linalg.solve(
            np.hstack([P[:, n:], Q[:, :n]]), g - P[:, :n] @ xt1), 2)
        for level, (kept, kept_tail) in reversed(list(enumerate(levels))):
            s = 2 ** level
            if kept_tail:
                y[T // s * s] = _undo(kept_tail, y[T // s * s - s], y[T])
            k = len(kept[2])
            y[s::2 * s][:k] = _undo(kept, y[::2 * s][:k], y[2 * s::2 * s][:k])
    except np.linalg.LinAlgError:
        raise SweepSingularError(aug.level) from None
    if not np.all(np.isfinite(y)):
        raise SweepSingularError(aug.level)
    state, costate, period, _ = _LEVELS[aug.level]
    Pt = y[1:, n:]           # Pt[t-1] holds Pt_{t+1}
    return {**dict(zip(state, y[:, :n].T)), **dict(zip(costate, Pt.T)),
            **dict(zip(period, (Pt @ aug.sol_G.T + aug.sol_g).T))}


def forward_pass(aug: AugmentedSystem, reduction,
                 params: ModelParams) -> Trajectory:
    """Forward pass over the outer system, yielding the full trajectory."""
    if aug.level != "outer":
        raise ValueError("forward_pass recovers the full game; pass the outer system")
    paths = _sweep_forward(aug, reduction, np.array([params.x1, 0.0, 0.0, 0.0]))
    return trajectory_from_blocks(paths, params)


def solve_inner_given_supplier(params: ModelParams, supplier_investments):
    """Sweep-solve the manufacturer-retailer level for a fixed supplier path.

    Returns a dict of the inner variables (x, u, p_m, p_r, i_m, i_r, lam).
    """
    aug = assemble_augmented(params, "inner",
                             supplier_investments=supplier_investments)
    return _sweep_forward(aug, backward_sweep(aug), np.array([params.x1, 0.0]))


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
