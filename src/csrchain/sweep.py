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
one batched QR (``stationarity.qr_complete``) and those of the whole
reduction in one inverse, and kept in the level's chain, which every later
horizon and batch of the level reuses.
The levels are compiled once per game, at any horizon, and kept with its
layout (``stationarity.compiled_game``, one of the process's two caches,
with ``_SELECTIONS``), so a game solved before costs only the O(T)
products: the backward sweep makes one pass per reduction level, one chain
lookup and one product with the cached U^T per elimination, and puts the
chain's order of use right once, at its end; the recovery makes its two
products per level and the final equation's one solve.

Right-hand sides are stored batch-last, each level's as one contiguous
(2n, B, k) array of B batch entries and k equations, so that every product
over them, of all pairs and batch entries at once, is one BLAS call (numpy
skips BLAS where the last axis is strided); a g constant over the periods,
as the outer level's is, is carried as one column.  The final equation is
the one linear solve of a reduction.  A singular final equation or kept
triangle, or a non-finite recovery of y or v, raises SweepSingularError.

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
    total_objectives,
)
from .scenario import Scenario
from .stationarity import (
    PERIOD_COLUMNS,
    all_finite,
    compiled_game,
    fixed_paths,
    qr_complete,
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
    shape (m, ..., T).  An assembled system's arrays are read-only; at the
    outer level, which has no fixed path, g and sol_g are one column each,
    viewed over the periods with a zero stride, which the reduction reads as
    one column.  Only ``assemble_augmented`` hands a system the compiled
    level's ``chain``; any other, a ``dataclasses.replace`` copy too, starts
    with its own.
    """

    level: str
    P: np.ndarray
    Q: np.ndarray
    g: np.ndarray
    sol_G: np.ndarray
    sol_g: np.ndarray
    xt1: np.ndarray
    chain: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    (e[t], 1), e the fixed paths, if any, to g[t] and sol_g[t].  ``chain``
    maps the key of each elimination of the level's reductions, j for the
    pairs of reduction level j and (j, T mod 2^(j+1)) for its tail, to [U,
    R^-1, W, next P, next Q] (``_factor``), each array read-only, least
    recently used first."""

    P: np.ndarray
    Q: np.ndarray
    sol_G: np.ndarray
    xt1: np.ndarray
    g_map: np.ndarray
    sol_map: np.ndarray
    chain: dict


# level -> ``np.ix_`` of its rows and columns of a row group, derived from
# the first game compiled: no parameter changes the table's structure
_SELECTIONS = {}


def _compile_level(layout, level: str) -> _Level:
    """The level's rows of the layout's ``group``, the recursions stepping y
    in y order and then its algebraic families, over the columns (v[t],
    y[t], y[t+1], e[t]) and the constant negated, are K (v, y[t], y[t+1],
    e[t], 1) = 0.  One solve against the algebraic rows eliminates v."""
    _, group, _, families = layout
    state, costate, period, held = _LEVELS[level]
    y = state + costate
    if level not in _SELECTIONS:
        blocks = {*y, *period, *held}
        stepping = {fam.terms[0][0]: i for i, fam in enumerate(families) if fam.boundary is not None}
        rows = [stepping[name] for name in y] + [
            i for i, fam in enumerate(families)
            if fam.boundary is None and all(block in blocks for block, _, _ in fam.terms)]
        columns = ([(name, 0) for name in period + y] + [(name, 1) for name in y]
                   + [(name, 0) for name in held])
        _SELECTIONS[level] = np.ix_(rows, [PERIOD_COLUMNS.index(key) for key in columns] + [-1])
    rows, columns = _SELECTIONS[level]
    K = group[rows, columns]
    K[:, -1] *= -1.0
    # K (v, o) = 0 with o = (y[t], y[t+1], e[t], 1): v = -G o on the
    # algebraic rows, which leaves the recursions reduced o = 0.
    m, n2 = len(period), len(y)
    G = np.linalg.solve(K[n2:, :m], K[n2:, m:])
    # in long double, rounded once: the recursion's digits bound the sweep's
    reduced = (K[:n2, m:] - K[:n2, :m].astype(np.longdouble) @ G).astype(float)
    compiled = _Level(reduced[:, :n2], reduced[:, n2:2 * n2], -G[:, :2 * n2],
                      np.array([families[i].boundary for i in rows[:len(state), 0]]),
                      -reduced[:, 2 * n2:], -G[:, 2 * n2:], {})
    for array in compiled[:-1]:
        array.setflags(write=False)
    return compiled


def assemble_augmented(params: ModelParams, level: str, fixed=None) -> AugmentedSystem:
    """Select one level's recursion from the game's per-period rows.

    ``fixed`` maps each of the level's fixed blocks to its path, of shape
    (..., T); the outer level has none.  The level is compiled
    (``_compile_level``) the first time it is solved, at any horizon, and
    kept with the game's layout (``stationarity.compiled_game``), read-only,
    chain and all; a call only turns the fixed paths, if any, into g and
    sol_g by one product.
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
    # e[:, ..., t] = (e[t], 1), one column (1) with no fixed path; the product
    # turns the maps' negated zeros into +0.0
    e = np.ones((len(held) + 1,) + np.broadcast(*fixed.values(), np.ones(1)).shape)
    for row, name in zip(e, held):
        row[...] = fixed[name]
    g, sol_g = [(M @ e.reshape(len(e), -1)).reshape(len(M), *e.shape[1:])
                for M in (compiled.g_map, compiled.sol_map)]
    if held:
        g.flags.writeable = sol_g.flags.writeable = False
    else:   # the one column, a zero-stride view over the periods
        g, sol_g = np.broadcast_to(g, (len(g), T)), np.broadcast_to(sol_g, (len(sol_g), T))
    aug = AugmentedSystem(level, compiled.P, compiled.Q, g, compiled.sol_G, sol_g, compiled.xt1)
    object.__setattr__(aug, "chain", compiled.chain)
    return aug


def _inverse(R):
    """The inverses of the stacked triangles R, NaN in each that is
    singular (a zero on its diagonal), which the recovery reports; the
    others keep their inverses, as each is cached apart.  A singular one is
    inverted as all NaN, whose pivots are not zero, so nothing raises."""
    nonsingular = R.diagonal(axis1=1, axis2=2).all(axis=1)
    if not nonsingular.all():
        R = np.where(nonsingular[:, np.newaxis, np.newaxis], R, np.nan)
    return np.linalg.inv(R)


# Entries per chain, the least recently used forgotten first.  The reference
# game at T = 100, 500, 1000, 2000, 10000 uses 34.  A full chain holds 0.22 MB
# of arrays at the outer level, 0.06 MB at the inner and 0.01 MB at the
# retailer's; a game's three full chains retain about 0.6 MB.
_CHAIN_ENTRIES = 48


def _factor(P1, Q1, nexts):
    """Yields the factors of eliminating, for each (P2, Q2) of ``nexts``, the y
    shared by neighbouring equations P1 y[left] + Q1 y[shared] = g1 and
    P2 y[shared] + Q2 y[right] = g2, from one batched QR [Q1; P2] = U R:
    [U, R, W, P, Q], the kept rows y[shared] = R^-1 (h[:m] - W1 y[left] -
    W2 y[right]), W = (W1; W2), and the reduced equation P y[left] + Q
    y[right] = h[m:] between the outer two, h = U^T [g1; g2].  R stands in
    for R^-1 until ``backward_sweep`` inverts it.  R^-1 stays out of the
    maps: R^-1 W1 and R^-1 W2 would save the recovery a product per level,
    but the large terms they subtract lose digits where R is
    ill-conditioned."""
    m = len(P1)
    U, R = qr_complete(np.array([np.concatenate([Q1, P2]) for P2, _ in nexts]))
    U.flags.writeable = False
    for U, R, (_, Q2) in zip(U, R[:, :m], nexts):
        left, right = U[:m].T @ P1, U[m:].T @ Q2   # U^T [P1; 0], U^T [0; Q2]
        W = np.concatenate([left[:m], right[:m]])
        left.flags.writeable = right.flags.writeable = W.flags.writeable = False
        yield [U, R, W, left[m:], right[m:]]


def _pairs(g, p):
    """[g1; g2] of the first p pairs of equations, (2m, B, p) from g of shape
    (m, B, k), in one copy; a one-column g stays one column."""
    if g.shape[-1] == 1:
        return np.concatenate([g, g])
    m, batch = g.shape[:2]
    return g[..., :2 * p].reshape(m, batch, p, 2).transpose(3, 0, 1, 2).reshape(2 * m, batch, p)


def backward_sweep(aug: AugmentedSystem):
    """Cyclic reduction of the level: returns each level's kept rows of the
    pairs and of the tail, (R^-1, W, h[:m]) or None, and the final equation
    between y[1] and y[T+1].  Each level's right-hand sides are one
    contiguous (2n, B, k) array, B the batch entries and k the level's
    equations, or one column where g is constant over the periods, as the
    outer level's is.  One pass runs the levels: it takes each elimination,
    the pairs' and then the tail's, out of ``aug.chain`` by its key and
    applies its U^T to [g1; g2] in one product.  ``aug.chain`` is the
    compiled level's, shared by every horizon and batch of the level, or a
    hand-built system's own, so none ever reads another's factors.  A
    level's misses are factored in one batched QR (``_factor``), and the
    kept triangles of every level's misses inverted at the end, in one
    call; the sweep's eliminations then go back to the chain at once, in
    order of use, and the least recently used past ``_CHAIN_ENTRIES`` are
    forgotten.  A singular kept triangle leaves NaN in its inverse, which
    the recovery reports."""
    P, Q, T = aug.P, aug.Q, aug.horizon
    m = len(P)
    g = aug.g.reshape(m, -1, T)
    if not g.strides[-1]:
        g = g[..., :1]
    k, tail, levels, chain, used, missed = T, None, [], aug.chain, {}, []
    while k + (tail is not None) > 1:
        j = len(levels)
        last = g[..., k - 1:k] if g.shape[-1] > 1 else g
        # the level's eliminations, the pairs' and then the tail's, each
        # (key, the next equation's P2 and Q2, [g1; g2])
        steps = [(j, P, Q, _pairs(g, k // 2))] if k > 1 else []
        if k % 2 and tail:
            steps.append(((j, T % (2 << j)), *tail[:2], np.concatenate([last, tail[2]])))
        elif k % 2:
            tail = (P, Q, last)
        factors = [chain.pop(step[0], None) for step in steps]
        if None in factors:
            new = [i for i, entry in enumerate(factors) if entry is None]
            for i, entry in zip(new, _factor(P, Q, [steps[i][1:3] for i in new])):
                factors[i] = entry
                missed.append((entry, j, steps[i][0] != j))   # its level and slot
        used.update(zip([step[0] for step in steps], factors))
        level = [None, None]
        for (key, _, _, rhs), (U, R_inv, W, P_next, Q_next) in zip(steps, factors):
            h = (U.T @ rhs.reshape(2 * m, -1)).reshape(rhs.shape)
            if key == j:
                level[0], P, Q, g = [R_inv, W, h[:m]], P_next, Q_next, h[m:]
            else:
                level[1], tail = [R_inv, W, h[:m]], (P_next, Q_next, h[m:])
        levels.append(level)
        k //= 2
    if missed:
        R_inv = _inverse(np.array([entry[1] for entry, _, _ in missed]))
        R_inv.flags.writeable = False
        for (entry, at, slot), inverse in zip(missed, R_inv):
            entry[1] = levels[at][slot][0] = inverse
    chain.update(used)
    while len(chain) > _CHAIN_ENTRIES:
        del chain[next(iter(chain))]
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
    p, m = k // 2, len(ends)
    up = np.empty(ends.shape[:2] + (k + 1 + tail,))
    up[..., :2 * p + 1:2] = ends[..., :p + 1]
    if kept:
        R_inv, W, h = kept
        terms = (W @ ends.reshape(m, -1)).reshape((2 * m,) + ends.shape[1:])
        shared = h - terms[:m, :, :p]
        shared -= terms[m:, :, 1:p + 1]
        up[..., 1:2 * p:2] = (R_inv @ shared.reshape(m, -1)).reshape(shared.shape)
    if kept_tail:
        R_inv, W, h = kept_tail
        up[..., 2 * p + 1] = R_inv @ (h[..., 0] - W[:m] @ ends[..., p] - W[m:] @ ends[..., -1])
    if up.shape[-1] > 2 * p + 1:
        up[..., -1] = ends[..., -1]
    return up


def _sweep_forward(aug: AugmentedSystem, reduction) -> dict:
    """Block name -> path of everything the level solved for, recovered
    from the reduction; each path has the fixed paths' batch axes.  The
    final equation's solve gives y[1]'s costates and y[T + 1]'s states, the
    reduction levels are undone from the last (``_undo``), and v follows
    from y in one product.  y and v are each checked finite once, off their
    extremes (``stationarity.all_finite``)."""
    levels, (P, Q, g) = reduction
    T, n = aug.horizon, len(aug.xt1)
    batch = aug.g.shape[1:-1]
    ends = np.zeros((2 * n, g[0].size, 2))
    ends[:n, :, 0] = aug.xt1[:, np.newaxis]
    try:
        y1 = np.linalg.solve(np.hstack([P[:, n:], Q[:, :n]]),
                             g.reshape(2 * n, -1) - (P[:, :n] @ aug.xt1)[:, np.newaxis])
    except np.linalg.LinAlgError:
        raise SweepSingularError(aug.level) from None
    ends[n:, :, 0], ends[:n, :, 1] = y1[:n], y1[n:]
    for j in range(len(levels) - 1, -1, -1):
        ends = _undo(ends, T >> j, T % (1 << j) != 0, *levels[j])
    if not all_finite(ends):
        raise SweepSingularError(aug.level)
    state, costate, period, _ = _LEVELS[aug.level]
    G, m = aug.sol_G, len(aug.sol_G)
    terms = (np.vstack([G[:, :2 * n], G[:, 2 * n:]]) @ ends.reshape(2 * n, -1)).reshape(
        (2 * m,) + ends.shape[1:])
    v = terms[:m, :, :-1] + terms[m:, :, 1:]
    v += aug.sol_g.reshape(m, -1, T)
    if not all_finite(v):
        raise SweepSingularError(aug.level)
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
    defaults.  Raises UndeterminedControlsError when tau*theta = 0, a
    CsrChainError naming them when coefficients of the game overflow, and
    SweepSingularError when a recovery is singular or non-finite.  The
    state equation is checked once for the three objectives
    (``model.total_objectives``).
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
    supplier, manufacturer, retailer = total_objectives("SMR", trajectory, params)
    report = SolveReport(
        horizon_T=params.horizon_T,
        residual_max=res_max,
        residual_rms=res_rms,
        objective_supplier=supplier,
        objective_manufacturer=manufacturer,
        objective_retailer=retailer,
        quantity=optimal_quantity(params),
        negative_investment_warning=negative,
        inner_consistency_delta=inner_delta,
        timing_seconds=elapsed,
    )
    return trajectory, report
