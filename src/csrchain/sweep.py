"""Backward-sweep / forward-pass solver for the stationarity system.

After the per-period control block is eliminated, the remaining dynamics
couple a forward vector xt (initial condition known) and a backward vector
Pt (terminal condition zero) through constant blocks:

    xt_{t+1} = A xt_t + B Pt_{t+1} + f_t
    Pt_t     = C xt_t + D22 Pt_{t+1}

The two-point boundary problem is solved by positing the affine relation
Pt_t = S_t xt_t + s_t, recursing (S_t, s_t) backward from zero terminal
values, then recovering xt, Pt, and the eliminated controls forward.

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

_SWEEP_COND_LIMIT = 1e14

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


@dataclass(frozen=True)
class SweepCoefficients:
    """Affine backward-sweep pair: Pt_t = S[t-1] @ xt_t + s[t-1], t = 1..T+1.

    Terminal values S[T] and s[T] are identically zero.  ``steps[t-1]`` is
    the step matrix I - S[t] B of period t, checked nonsingular by the
    backward pass and solved again by the forward pass.
    """

    S: np.ndarray       # (T+1, n, n)
    s: np.ndarray       # (T+1, n)
    steps: np.ndarray   # (T, n, n)


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


def backward_sweep(aug: AugmentedSystem) -> SweepCoefficients:
    """Recurse the affine pair (S_t, s_t) backward from zero terminal values."""
    T = aug.horizon
    n = aug.dim
    S = np.zeros((T + 1, n, n))
    s = np.zeros((T + 1, n))
    steps = np.zeros((T, n, n))
    eye = np.eye(n)
    for t in range(T, 0, -1):
        S_next = S[t]            # S_{t+1}
        M = eye - S_next @ aug.B
        if not np.all(np.isfinite(M)) or np.linalg.cond(M) > _SWEEP_COND_LIMIT:
            raise SweepSingularError(t)
        steps[t - 1] = M
        DMinv = np.linalg.solve(M.T, aug.D22.T).T   # D22 @ M^{-1}
        S[t - 1] = aug.C + DMinv @ (S_next @ aug.A)
        s[t - 1] = DMinv @ (S_next @ aug.f[t - 1] + s[t])
    return SweepCoefficients(S=S, s=s, steps=steps)


def _sweep_forward(aug: AugmentedSystem, coeffs: SweepCoefficients, xt1):
    """Forward recovery of (xt, Pt, eliminated per-period solutions)."""
    T = aug.horizon
    n = aug.dim
    xt = np.zeros((T + 1, n))
    Pt = np.zeros((T, n))          # Pt[t-1] holds Pt_{t+1}
    sols = np.zeros((T, aug.sol_G.shape[0]))
    xt[0] = xt1
    for t in range(1, T + 1):
        drive = aug.A @ xt[t - 1] + aug.f[t - 1]
        P_next = np.linalg.solve(coeffs.steps[t - 1],
                                 coeffs.S[t] @ drive + coeffs.s[t])
        Pt[t - 1] = P_next
        sols[t - 1] = aug.sol_G @ P_next + aug.sol_g[t - 1]
        xt[t] = drive + aug.B @ P_next
    return xt, Pt, sols


def _paths(level: str, xt, Pt, sols) -> dict:
    """Block name -> path of everything a sweep of ``level`` solved for."""
    state, costate, period, _ = _LEVELS[level]
    return {**dict(zip(state, xt.T)), **dict(zip(costate, Pt.T)),
            **dict(zip(period, sols.T))}


def forward_pass(aug: AugmentedSystem, coeffs: SweepCoefficients,
                 params: ModelParams) -> Trajectory:
    """Forward pass over the outer system, yielding the full trajectory."""
    if aug.level != "outer":
        raise ValueError("forward_pass recovers the full game; pass the outer system")
    xt, Pt, sols = _sweep_forward(aug, coeffs, np.array([params.x1, 0.0, 0.0, 0.0]))
    return trajectory_from_blocks(_paths("outer", xt, Pt, sols), params)


def solve_inner_given_supplier(params: ModelParams, supplier_investments):
    """Sweep-solve the manufacturer-retailer level for a fixed supplier path.

    Returns a dict of the inner variables (x, u, p_m, p_r, i_m, i_r, lam).
    """
    aug = assemble_augmented(params, "inner",
                             supplier_investments=supplier_investments)
    coeffs = backward_sweep(aug)
    xt, Pt, sols = _sweep_forward(aug, coeffs, np.array([params.x1, 0.0]))
    return _paths("inner", xt, Pt, sols)


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
    tau*theta = 0 and SweepSingularError when a sweep step degenerates.
    """
    params.validated()
    started = time.perf_counter()
    aug = assemble_augmented(params, "outer")
    coeffs = backward_sweep(aug)
    trajectory = forward_pass(aug, coeffs, params)
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
