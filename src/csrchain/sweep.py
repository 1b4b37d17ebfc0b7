"""Cyclic-reduction solver for the levels of the game.

A level is the part of the equation table that one player solves together
with its followers, given the paths of the players above it.  Its unknowns
are states s (initial values given), costates P (terminal values zero) and
period unknowns v, the controls and the per-period Lagrange values.  Once v
is eliminated the level is a two-point recursion over y[t] = (s[t], P[t]):

    P y[t] + Q y[t+1] = g[t],    t = 1..T.

``assemble_augmented`` selects the level's rows and columns of the game's
per-period rows, ``stationarity.period_layout``, which the residual and the
oracle's staircase read too, and eliminates v to give P, Q and g.  The
recursion is solved by QR-based cyclic reduction (Wright, SIAM J. Sci. Stat.
Comput. 13, 1992), which, unlike a Riccati sweep, needs no dichotomy: the
reference parameters put 6 of the 8 outer transfer eigenvalues on the unit
circle.  Each level of the reduction pairs neighbouring equations and
eliminates their shared y with one orthogonal transform common to all pairs;
an odd last equation is carried as a tail.  The final equation, between y[1]
and y[T+1], gives the unknown halves of both; undoing the levels recovers
every y.  A level's matrix work does not depend on g, nor on T but for the
tail eliminations, which the binary digits of T shape: it is done once per
level of the game, the pairs' and the tail's misses of a reduction level in
one batched QR and inverse, and kept in the level's chain, which every later
horizon and batch of the level reuses.  The levels are compiled once per
game, at any horizon, and kept with its layout (``stationarity.compiled_game``,
the one cache), so a game solved before costs only the O(T) products.

Right-hand sides are stored batch-last, each level's as one contiguous
(2n, B, k) array of B batch entries and k equations, so that every product
over them, of all pairs and batch entries at once, is one BLAS call (numpy
skips BLAS where the last axis is strided); a g constant over the periods,
as the outer level's is, is carried as one column.  The final equation is
the one linear solve of a reduction.  A singular final equation or kept
triangle, or a non-finite recovery, raises SweepSingularError.

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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SweepSingularError
from .model import (
    ModelParams,
    Trajectory,
    optimal_quantity,
    total_objective,
)
from .scenario import Scenario
from .stationarity import (
    PERIOD_COLUMNS,
    compiled_game,
    fixed_paths,
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
    ``xt1`` and the costates at T + 1 are zero.  Right-hand sides are stored
    batch-last: ``g`` has shape (2n, ..., T), a recursion row, the batch
    axes of the fixed paths, then the period.  The eliminated period
    unknowns are v[t] = sol_G @ (y[t], y[t+1]) + sol_g[:, ..., t], sol_g of
    shape (m, ..., T).  The outer level has no fixed path, so its g and
    sol_g are one column each, broadcast over the periods as read-only
    views (a zero stride, which the reduction reads as one column).  Only
    ``assemble_augmented`` sets ``chain``, the compiled level's reductions.
    """

    level: str
    P: np.ndarray
    Q: np.ndarray
    g: np.ndarray
    sol_G: np.ndarray
    sol_g: np.ndarray
    xt1: np.ndarray
    chain: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return self.g.shape[-1]


@dataclass
class SolveReport:
    """Diagnostics of one solve.  The scenario's labels (name, seed,
    tolerance) keep a Scenario's defaults and the oracle fields None unless
    set by the caller, as ``cli.run`` sets them from the scenario.  No field
    flags convexity: every solved game has tau*theta > 0."""

    horizon_T: int
    residual_max: float
    residual_rms: float
    objective_supplier: float
    objective_manufacturer: float
    objective_retailer: float
    quantity: float
    negative_investment_warning: bool
    inner_consistency_delta: float
    timing_seconds: float
    scenario_name: str = ""
    seed: int = Scenario.seed
    tolerance: float = Scenario.tolerance
    oracle_max_delta: float | None = None
    oracle_residual_max: float | None = None


class _Level(NamedTuple):
    """One level of a game, compiled once for every horizon: the recursion's
    P and Q, the solution map's sol_G, the states at t = 1, and the maps of
    (e[t], 1), e the fixed paths, to g[t] and sol_g[t].  With no fixed path
    the maps are g[t] and sol_g[t] themselves, one column each.  ``chain``
    maps the key of each elimination of the level's reductions, j for the
    pairs of reduction level j and (j, T mod 2^(j+1)) for its tail, to (U,
    R^-1, W, next P, next Q), read-only, as horizons need them."""

    P: np.ndarray
    Q: np.ndarray
    sol_G: np.ndarray
    xt1: np.ndarray
    g_map: np.ndarray
    sol_map: np.ndarray
    chain: dict


def _compile_level(layout, level: str) -> _Level:
    """The level's rows of the layout's ``group``, the recursions stepping y
    in y order and then its algebraic families, over the columns (v[t],
    y[t], y[t+1], e[t]) and the constant negated, are K (v, y[t], y[t+1],
    e[t], 1) = 0.  One solve against the algebraic rows eliminates v."""
    _, group, _, families = layout
    state, costate, period, held = _LEVELS[level]
    y, blocks = state + costate, {*state, *costate, *period, *held}
    stepping = {fam.terms[0][0]: i for i, fam in enumerate(families) if fam.boundary is not None}
    rows = [stepping[name] for name in y] + [
        i for i, fam in enumerate(families)
        if fam.boundary is None and all(block in blocks for block, _, _ in fam.terms)]
    columns = ([(name, 0) for name in period + y] + [(name, 1) for name in y]
               + [(name, 0) for name in held])
    K = group[np.ix_(rows, [PERIOD_COLUMNS.index(key) for key in columns] + [-1])]
    K[:, -1] *= -1.0
    # K (v, o) = 0 with o = (y[t], y[t+1], e[t], 1): v = -G o on the
    # algebraic rows, which leaves the recursions reduced o = 0.
    m, n2 = len(period), len(y)
    G = np.linalg.solve(K[n2:, :m], K[n2:, m:])
    reduced = K[:n2, m:] - K[:n2, :m] @ G
    # g[t] and sol_g[t] are the maps times (e[t], 1); with no fixed path that
    # is the one column (1), multiplied here, once: the product turns the
    # negated zeros of the maps into +0.0, which skipping it would not
    maps = [-M[:, 2 * n2:] for M in (reduced, G)]
    if not held:
        maps = [M @ np.ones((1, 1)) for M in maps]
    compiled = _Level(reduced[:, :n2], reduced[:, n2:2 * n2], -G[:, :2 * n2],
                      np.array([families[stepping[name]].boundary for name in state]), *maps, {})
    for array in compiled[:-1]:
        array.setflags(write=False)
    return compiled


def assemble_augmented(params: ModelParams, level: str, fixed=None) -> AugmentedSystem:
    """Select one level's recursion from the game's per-period rows.

    ``fixed`` maps each of the level's fixed blocks to its path, of shape
    (..., T); the outer level has none.  The level is compiled
    (``_compile_level``) the first time it is solved, at any horizon, and
    kept with the game's layout (``stationarity.compiled_game``), read-only,
    chain and all; a call only turns the fixed paths into g and sol_g.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {tuple(_LEVELS)}")
    layout, levels = compiled_game(params)
    if level not in levels:
        levels[level] = _compile_level(layout, level)
    compiled = levels[level]
    T = params.horizon_T
    _, _, _, held = _LEVELS[level]
    if set(fixed or ()) != set(held):
        raise ValueError(f"the {level} level needs the fixed paths {held}, "
                         f"got {tuple(fixed or ())}")
    fixed = fixed_paths(fixed, T)
    maps = compiled.g_map, compiled.sol_map
    if held:
        # e[:, ..., t] = (e[t], 1)
        e = np.stack(np.broadcast_arrays(*(fixed[name] for name in held), np.ones(T)))
        g, sol_g = [(M @ e.reshape(len(e), -1)).reshape((len(M),) + e.shape[1:]) for M in maps]
    else:
        g, sol_g = [np.broadcast_to(M, (len(M), T)) for M in maps]
    aug = AugmentedSystem(level, compiled.P, compiled.Q, g, compiled.sol_G, sol_g, compiled.xt1)
    object.__setattr__(aug, "chain", compiled.chain)
    return aug


def _inverse(R):
    """The inverses of the stacked triangles R, NaN in each that is
    singular, which the recovery reports; the others keep their inverses,
    as each is cached apart."""
    try:
        return np.linalg.inv(R)
    except np.linalg.LinAlgError:
        if len(R) == 1:
            return np.full_like(R, np.nan)
        return np.concatenate([_inverse(one) for one in np.split(R, len(R))])


_CHAIN_ENTRIES = 48   # per chain; the reference game at T = 100, 500, 1000, 2000, 10000 uses 34


def _eliminate(chain, *eliminations):
    """Eliminate, for each of a reduction level's eliminations (key, P1, Q1,
    P2, Q2, g), the y shared by neighbouring equations P1 y[left] + Q1
    y[shared] = g1 and P2 y[shared] + Q2 y[right] = g2, of every pair at
    once: g = [g1; g2], (2m, B, c), stacks their right-hand sides, B batch
    entries and c pairs (or one column common to all).  The matrix work, a
    QR of [Q1; P2] = U R, the products with U^T and the inverse of the kept
    triangle R, is looked up in ``chain`` by the key, and done for the
    level's misses in one batched QR and inverse; the right-hand sides pass
    through one product.  Returns, per elimination, the kept rows as
    y[shared] = R^-1 (h - W1 y[left] - W2 y[right]), that is (R^-1, (W1;
    W2), h), and the reduced equation (P, Q, g) between the outer two.  R^-1
    stays out of the maps: R^-1 W1 and R^-1 W2 would save the recovery a
    product per level, but the large terms they subtract lose digits where
    R is ill-conditioned."""
    m = len(eliminations[0][1])
    entries = [chain.get(key) for key, *_ in eliminations]
    missing = [i for i, entry in enumerate(entries) if entry is None]
    if missing:
        U, R = np.linalg.qr(np.array([np.concatenate(eliminations[i][2:4]) for i in missing]),
                            mode="complete")
        for i, U, R_inv in zip(missing, U, _inverse(R[:, :m])):
            key, P1, _, _, Q2, _ = eliminations[i]
            left, right = U[:m].T @ P1, U[m:].T @ Q2   # U^T [P1; 0], U^T [0; Q2]
            entries[i] = (U, R_inv, np.concatenate([left[:m], right[:m]]), left[m:], right[m:])
            for array in entries[i]:
                array.setflags(write=False)
            if len(chain) >= _CHAIN_ENTRIES:   # forget the oldest
                del chain[next(iter(chain))]
            chain[key] = entries[i]
    done = []
    for (*_, g), (U, R_inv, W, P, Q) in zip(eliminations, entries):
        h = (U.T @ g.reshape(2 * m, -1)).reshape(g.shape)
        done.append(((R_inv, W, h[:m]), (P, Q, h[m:])))
    return done


def _pairs(g, p):
    """[g1; g2] of the first p pairs of equations, (2m, B, p) from g of shape
    (m, B, k), in one copy; a one-column g stays one column."""
    if g.shape[-1] == 1:
        return np.concatenate([g, g])
    m, batch = g.shape[:2]
    return g[..., :2 * p].reshape(m, batch, p, 2).transpose(3, 0, 1, 2).reshape(2 * m, batch, p)


def backward_sweep(aug: AugmentedSystem):
    """Cyclic reduction of the level: returns each level's kept rows of the
    pairs and of the tail, and the final equation between y[1] and y[T+1].
    Each level's right-hand sides are one contiguous (2n, B, k) array, B the
    batch entries and k the level's equations, or one column where g is
    constant over the periods, as the outer level's is.  The matrix work is
    looked up in ``aug.chain``, shared by every horizon and batch of the
    compiled level; a system without one factors from scratch, so none ever
    reads another's factors.  A singular kept triangle leaves NaN in its
    inverse, which the recovery reports."""
    P, Q, T = np.asarray(aug.P, dtype=float), np.asarray(aug.Q, dtype=float), aug.horizon
    chain = {} if aug.chain is None else aug.chain
    g = aug.g.reshape(len(P), -1, T)
    if not g.strides[-1]:
        g = g[..., :1]
    k, tail, levels = T, None, []
    while k + (tail is not None) > 1:
        j = len(levels)
        last = g[..., k - 1:k] if g.shape[-1] > 1 else g
        pairs = [(j, P, Q, P, Q, _pairs(g, k // 2))] if k > 1 else []
        tails = ([((j, T % (2 << j)), P, Q, *tail[:2], np.concatenate([last, tail[2]]))]
                 if k % 2 and tail else [])
        if k % 2 and not tail:
            tail = (P, Q, last)
        done, kept, kept_tail = _eliminate(chain, *pairs, *tails), None, None
        if tails:
            kept_tail, tail = done.pop()
        if pairs:
            kept, (P, Q, g) = done.pop()
        k //= 2
        levels.append((kept, kept_tail))
    P, Q, g = tail or (P, Q, g)
    return levels, (P, Q, g[..., 0].reshape(aug.g.shape[:-1]))


def _undo(ends, k, tail, kept, kept_tail):
    """y at the ends of a reduction level's k equations (and of its tail,
    y[T + 1] last), (2n, B, k + 1 + tail), from ``ends``, those of the level
    above.  The level's pairs share the odd ends, recovered from their even
    neighbours by two products for all pairs and batch entries: W1 and W2
    in one over ``ends``, then R^-1 after the subtraction.  The recovered y
    are interleaved with their neighbours, as the next level's product needs
    its ends contiguous and in order."""
    p = k // 2
    up = np.empty(ends.shape[:2] + (k + 1 + tail,))
    up[..., :2 * p + 1:2] = ends[..., :p + 1]
    if kept:
        R_inv, W, h = kept
        m = len(h)
        terms = (W @ ends.reshape(m, -1)).reshape((2 * m,) + ends.shape[1:])
        shared = h - terms[:m, :, :p]
        shared -= terms[m:, :, 1:p + 1]
        up[..., 1:2 * p:2] = (R_inv @ shared.reshape(m, -1)).reshape(shared.shape)
    if kept_tail:
        R_inv, W, h = kept_tail
        m = len(h)
        up[..., 2 * p + 1] = R_inv @ (h[..., 0] - W[:m] @ ends[..., p] - W[m:] @ ends[..., -1])
    if up.shape[-1] > 2 * p + 1:
        up[..., -1] = ends[..., -1]
    return up


def _sweep_forward(aug: AugmentedSystem, reduction) -> dict:
    """Block name -> path of everything the level solved for, recovered
    from the reduction; each path has the fixed paths' batch axes."""
    levels, (P, Q, g) = reduction
    T, n = aug.horizon, len(aug.xt1)
    batch = aug.g.shape[1:-1]
    ends = np.zeros((2 * n, g[0].size, 2))
    ends[:n, :, 0] = aug.xt1[:, np.newaxis]
    try:
        ends[n:, :, 0], ends[:n, :, 1] = np.split(np.linalg.solve(
            np.hstack([P[:, n:], Q[:, :n]]),
            g.reshape(2 * n, -1) - (P[:, :n] @ aug.xt1)[:, np.newaxis]), 2)
    except np.linalg.LinAlgError:
        raise SweepSingularError(aug.level) from None
    for level, (kept, kept_tail) in reversed(list(enumerate(levels))):
        ends = _undo(ends, T >> level, T % (1 << level) != 0, kept, kept_tail)
    if not np.all(np.isfinite(ends)):
        raise SweepSingularError(aug.level)
    state, costate, period, _ = _LEVELS[aug.level]
    G, m = aug.sol_G, len(aug.sol_G)
    terms = (np.vstack([G[:, :2 * n], G[:, 2 * n:]]) @ ends.reshape(2 * n, -1)).reshape(
        (2 * m,) + ends.shape[1:])
    v = terms[:m, :, :-1] + terms[m:, :, 1:]
    v += aug.sol_g.reshape(m, -1, T)
    y = ends.reshape((2 * n,) + batch + (T + 1,))
    return {**dict(zip(state, y[:n])), **dict(zip(costate, y[n:, ..., 1:])),
            **dict(zip(period, v.reshape((m,) + batch + (T,))))}


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


def solve_game(params: ModelParams):
    """Assemble, sweep, and recover the nested equilibrium trajectory.

    Returns (trajectory, report); the report's scenario labels keep their
    defaults.  Raises UndeterminedControlsError when tau*theta = 0 and
    SweepSingularError when a recovery is singular.
    """
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
        horizon_T=params.horizon_T,
        residual_max=res_max,
        residual_rms=res_rms,
        objective_supplier=total_objective("S", trajectory, params),
        objective_manufacturer=total_objective("M", trajectory, params),
        objective_retailer=total_objective("R", trajectory, params),
        quantity=optimal_quantity(params),
        negative_investment_warning=negative,
        inner_consistency_delta=inner_delta,
        timing_seconds=elapsed,
    )
    return trajectory, report
