"""Necessary conditions of the nested open-loop Stackelberg equilibrium.

The hierarchy is supplier over manufacturer over retailer, each committing to
a full investment path.  Conditions are derived level by level: a leader
adjoins every equation of its follower's first-order system, so each level's
conditions are exactly the stationarity of that player's objective along the
followers' re-solved reaction.

The unknowns are the state x; the investments i_s, i_m, i_r; the player
costates p_s, p_m, p_r; lam, the manufacturer's per-period Lagrange value on
the retailer's control FOC; lam', mu', nu, the supplier's Lagrange values on
the retailer FOC, the manufacturer FOC and the manufacturer's reaction
identity (m_react); u, w, u', the forward multipliers each leader attaches to
a follower costate chain; and r, the supplier's costate for the u chain.

The system is linear in the stacked unknowns, and ``equation_table`` writes
each of its fifteen equation families once, as coefficients.  Every other
view is derived from that table: the residual vector
(``stationarity_residuals``); the square stacked system (``assemble_system``),
which is the residuals' Jacobian, read off in one batched evaluation at every
unit vector; and each level's recursion, which ``sweep.assemble_augmented``
reads off the families that ``level_families`` selects.

The table's independent witness is the three Hamiltonians.  The retailer's is
built from the payoff and the state transition alone; the manufacturer's and
the supplier's adjoin their followers' table rows.  Every family is a partial
derivative of one of them, which the finite-difference checks in the test
suite verify level by level from the retailer up.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UndeterminedControlsError
from .model import (
    Controls,
    ModelParams,
    Trajectory,
    optimal_quantity,
    stage_payoff,
    state_transition,
)

# Unknown blocks of the stacked vector in column order, each with the first
# and last time it covers (the last as an offset from T).
BLOCKS = (
    ("x", 1, 1), ("i_s", 1, 0), ("i_m", 1, 0), ("i_r", 1, 0),
    ("lam", 1, 0), ("lam_prime", 1, 0), ("mu_prime", 1, 0), ("nu", 1, 0),
    ("p_r", 2, 1), ("p_m", 2, 1), ("p_s", 2, 1),
    ("u", 1, 1), ("w", 1, 1), ("u_prime", 1, 1), ("r", 2, 1),
)
BLOCK_NAMES = tuple(name for name, _, _ in BLOCKS)
_FIRST = {name: first for name, first, _ in BLOCKS}
_LAST = {name: last for name, _, last in BLOCKS}


def block_length(name: str, T: int) -> int:
    return T + _LAST[name] - _FIRST[name] + 1


# ---------------------------------------------------------------------------
# The equation table
# ---------------------------------------------------------------------------

class Boundary(NamedTuple):
    """Row fixing the first (initial) or last (terminal) entry of a block."""

    label: str
    at_end: bool
    value: float


class Family(NamedTuple):
    """One equation family: rows t = first..T of

        sum(coefficient * block[t + shift] for block, shift, coefficient in terms)
            = constant

    A family with a boundary row is a recursion.  Its first term is the block
    it steps, with coefficient 1, and the boundary fixes that block's other
    end.
    """

    label: str
    first: int
    terms: tuple
    constant: float
    boundary: Boundary | None = None

    def residual(self, point) -> float:
        """The row at one period; ``point`` maps (block, shift) to a value."""
        return sum(coef * point[block, shift]
                   for block, shift, coef in self.terms) - self.constant

    def stepped(self, point) -> float:
        """The value a recursion gives its stepped block at one period."""
        return self.constant - sum(coef * point[block, shift]
                                   for block, shift, coef in self.terms[1:])


def equation_table(params: ModelParams) -> tuple[Family, ...]:
    """The fifteen equation families, in the row order of the stacked system."""
    k = params.tau * params.theta
    al = params.alpha
    bs, bm, br = params.beta_s, params.beta_m, params.beta_r
    ds, dm, dr = params.delta_s, params.delta_m, params.delta_r
    net = 1.0 - params.tau
    return (
        Family("state", 1, (("x", 1, 1.0), ("x", 0, -al), ("i_s", 0, -bs),
                            ("i_m", 0, -bm), ("i_r", 0, -br)),
               0.0, Boundary("x[1] given", False, params.x1)),
        Family("foc_r", 1, (("i_s", 0, k), ("i_m", 0, k), ("i_r", 0, 2 * k),
                            ("p_r", 1, br)), net),
        Family("foc_m", 1, (("i_s", 0, k), ("i_m", 0, 2 * k), ("i_r", 0, k),
                            ("p_m", 1, bm), ("lam", 0, k)), net),
        Family("m_react", 1, (("i_m", 0, k), ("p_m", 1, br), ("lam", 0, 2 * k)),
               -params.d_hat),
        Family("foc_s", 1, (("i_s", 0, 2 * k), ("i_m", 0, k), ("i_r", 0, k),
                            ("p_s", 1, bs), ("lam_prime", 0, k),
                            ("mu_prime", 0, k)), net),
        Family("s_react_m", 1, (("i_s", 0, k), ("p_s", 1, bm), ("lam_prime", 0, k),
                                ("mu_prime", 0, 2 * k), ("nu", 0, k)), -params.d),
        Family("s_react_r", 1, (("i_s", 0, k), ("p_s", 1, br),
                                ("lam_prime", 0, 2 * k), ("mu_prime", 0, k)), 0.0),
        Family("s_react_l", 1, (("mu_prime", 0, k), ("nu", 0, 2 * k),
                                ("r", 1, br)), 0.0),
        Family("costate_r", 2, (("p_r", 0, 1.0), ("x", 0, -2 * dr), ("p_r", 1, -al)),
               0.0, Boundary("p_r[T+1]=0", True, 0.0)),
        Family("costate_m", 2, (("p_m", 0, 1.0), ("x", 0, -2 * dm), ("p_m", 1, -al),
                                ("u", 0, -2 * dr)),
               0.0, Boundary("p_m[T+1]=0", True, 0.0)),
        Family("costate_s", 2, (("p_s", 0, 1.0), ("x", 0, -2 * ds), ("p_s", 1, -al),
                                ("u_prime", 0, -2 * dm), ("w", 0, -2 * dr)),
               0.0, Boundary("p_s[T+1]=0", True, 0.0)),
        Family("u_step", 1, (("u", 1, 1.0), ("u", 0, -al), ("lam", 0, -br)),
               0.0, Boundary("u[1]=0", False, 0.0)),
        Family("w_step", 1, (("w", 1, 1.0), ("w", 0, -al), ("lam_prime", 0, -br)),
               0.0, Boundary("w[1]=0", False, 0.0)),
        Family("u_prime_step", 1, (("u_prime", 1, 1.0), ("u_prime", 0, -al),
                                   ("mu_prime", 0, -bm), ("nu", 0, -br)),
               0.0, Boundary("u_prime[1]=0", False, 0.0)),
        Family("r_step", 2, (("r", 0, 1.0), ("r", 1, -al), ("u_prime", 0, -2 * dr)),
               0.0, Boundary("r[T+1]=0", True, 0.0)),
    )


def level_families(params: ModelParams, blocks) -> list[Family]:
    """The families whose every term lies in ``blocks``, refused when
    tau*theta = 0 leaves the controls undetermined."""
    if params.tau * params.theta == 0.0:
        raise UndeterminedControlsError()
    return [fam for fam in equation_table(params)
            if all(block in blocks for block, _, _ in fam.terms)]


def fixed_paths(fixed, T: int) -> dict:
    """Block name -> float array of each fixed path, refused with a
    ValueError when a path's last axis is not its block's length."""
    fixed = {name: np.asarray(path, dtype=float) for name, path in (fixed or {}).items()}
    for name, path in fixed.items():
        length = block_length(name, T)
        if path.shape[-1:] != (length,):
            raise ValueError(f"fixed path {name!r} has shape {path.shape}; its last "
                             f"axis must have length {length} at horizon {T}")
    return fixed


def _row_groups(families):
    """(family, is_boundary) in row order: a recursion's boundary row comes
    before its rows when it fixes the initial value, after them otherwise."""
    for fam in families:
        boundary = fam.boundary
        if boundary is not None and not boundary.at_end:
            yield fam, True
        yield fam, False
        if boundary is not None and boundary.at_end:
            yield fam, True


def _row_labels(families, T: int) -> list[str]:
    labels = []
    for fam, is_boundary in _row_groups(families):
        if is_boundary:
            labels.append(f"boundary: {fam.boundary.label}")
        else:
            labels.extend(f"{fam.label}[{t}]" for t in range(fam.first, T + 1))
    return labels


# ---------------------------------------------------------------------------
# Hamiltonians (the objects the finite-difference checks differentiate)
# ---------------------------------------------------------------------------

def _stage(player, point, q, params: ModelParams):
    """Stage payoff plus the player's next costate times the state transition."""
    x_t = point["x", 0]
    controls_t = (point["i_s", 0], point["i_m", 0], point["i_r", 0])
    costate = {"R": "p_r", "M": "p_m", "S": "p_s"}[player]
    return (stage_payoff(player, x_t, q, controls_t, params)
            + point[costate, 1] * state_transition(x_t, controls_t, params))


def retailer_hamiltonian(point, q, params: ModelParams):
    """Retailer Hamiltonian at a table point ((block, shift) -> value)."""
    return _stage("R", point, q, params)


def manufacturer_hamiltonian(point, q, params: ModelParams):
    """Manufacturer Hamiltonian augmented with the retailer's table rows: the
    retailer costate recursion weighted by u_t and the retailer control FOC
    weighted by lam_t."""
    rows = {fam.label: fam for fam in equation_table(params)}
    return (_stage("M", point, q, params)
            + point["u", 0] * rows["costate_r"].stepped(point)
            + point["lam", 0] * rows["foc_r"].residual(point))


def supplier_hamiltonian(point, q, params: ModelParams):
    """Supplier Hamiltonian augmented with the manufacturer level's table
    rows: the manufacturer costate recursion (u'_t), the retailer costate
    recursion (w_t), the u-chain step (r_{t+1}), and the three per-period
    equations of the follower level (lam'_t, mu'_t, nu_t)."""
    rows = {fam.label: fam for fam in equation_table(params)}
    return (_stage("S", point, q, params)
            + point["r", 1] * rows["u_step"].stepped(point)
            + point["u_prime", 0] * rows["costate_m"].stepped(point)
            + point["w", 0] * rows["costate_r"].stepped(point)
            + point["lam_prime", 0] * rows["foc_r"].residual(point)
            + point["mu_prime", 0] * rows["foc_m"].residual(point)
            + point["nu", 0] * rows["m_react"].residual(point))


# ---------------------------------------------------------------------------
# Stacked systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaritySystem:
    """The stacked linear stationarity system A z = rhs with labelled rows."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple


def split_blocks(z: np.ndarray, T: int) -> dict:
    """Block name -> the block's entries of the stacked ``z``, along its last axis."""
    bounds = np.cumsum([block_length(name, T) for name in BLOCK_NAMES])[:-1]
    return dict(zip(BLOCK_NAMES, np.split(z, bounds, axis=-1)))


def _homogeneous(families) -> list[Family]:
    """The families with every constant and boundary value set to zero."""
    return [fam._replace(constant=0.0,
                         boundary=fam.boundary and fam.boundary._replace(value=0.0))
            for fam in families]


def assemble_system(params: ModelParams) -> StationaritySystem:
    """Emit the square linear system of all stationarity conditions.

    The system is affine, so its matrix is the Jacobian of the residuals:
    the homogeneous residuals at every unit vector, in one batched
    evaluation; ``rhs`` is minus the residuals at zero.  Rows follow the
    table: per family its rows t = first..T, a recursion's initial boundary
    row before them and its terminal boundary row after, eight boundary rows
    in all.
    """
    T = params.horizon_T
    families = level_families(params, BLOCK_NAMES)
    n = sum(block_length(name, T) for name in BLOCK_NAMES)
    A = _residual_vector(split_blocks(np.eye(n), T), _homogeneous(families), T).T
    rhs = -_residual_vector(split_blocks(np.zeros(n), T), families, T)
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(rhs)):
        raise AssertionError("non-finite coefficients in assembled system")
    return StationaritySystem(matrix=A, rhs=rhs, row_labels=tuple(_row_labels(families, T)))


# ---------------------------------------------------------------------------
# Trajectory <-> stacked vector, residual evaluation
# ---------------------------------------------------------------------------

def trajectory_blocks(trajectory: Trajectory) -> dict:
    """Block name -> path of the trajectory."""
    c = trajectory.controls
    return {
        "x": trajectory.x, "i_s": c.i_s, "i_m": c.i_m, "i_r": c.i_r,
        "lam": trajectory.lam, "lam_prime": trajectory.lam_prime,
        "mu_prime": trajectory.mu_prime, "nu": trajectory.nu,
        "p_r": trajectory.p_r, "p_m": trajectory.p_m, "p_s": trajectory.p_s,
        "u": trajectory.u, "w": trajectory.w, "u_prime": trajectory.u_prime,
        "r": trajectory.r,
    }


def trajectory_from_blocks(blocks: dict, params: ModelParams) -> Trajectory:
    """The trajectory holding a copy of every path in ``blocks`` (name -> path)."""
    paths = {name: np.array(blocks[name]) for name in BLOCK_NAMES}
    controls = Controls(i_s=paths.pop("i_s"), i_m=paths.pop("i_m"),
                        i_r=paths.pop("i_r"))
    return Trajectory(controls=controls,
                      q=np.full(params.horizon_T, optimal_quantity(params)), **paths)


def vector_to_trajectory(z: np.ndarray, params: ModelParams) -> Trajectory:
    return trajectory_from_blocks(split_blocks(z, params.horizon_T), params)


def _residual_vector(blocks: dict, families, T: int) -> np.ndarray:
    """The families' rows at the block paths (name -> path), which may carry
    leading batch axes; the rows run along the last axis, with the paths'
    broadcast batch axes before it.

    Each family's rows are summed in place in their segment of the one
    row vector this allocates; the only other array of size O(T) is the
    term being added, one period-length slice times its coefficient."""
    groups = list(_row_groups(families))
    counts = [1 if is_boundary else T - fam.first + 1 for fam, is_boundary in groups]
    batch = np.broadcast_shapes(*{path.shape[:-1] for path in blocks.values()})
    values = np.empty(batch + (sum(counts),))
    stop = 0
    for (fam, is_boundary), count in zip(groups, counts):
        row = values[..., stop:stop + count]
        stop += count
        if is_boundary:
            path = blocks[fam.terms[0][0]]
            end = path[..., -1:] if fam.boundary.at_end else path[..., :1]
            np.subtract(end, fam.boundary.value, row)
            continue
        for i, (block, shift, coef) in enumerate(fam.terms):
            start = fam.first + shift - _FIRST[block]
            path = blocks[block][..., start:start + count]
            if i:
                row += coef * path
            else:
                np.add(0.0, coef * path, row)   # a sum from 0.0, zero signs kept
        row -= fam.constant
    return values


def stationarity_residuals(trajectory: Trajectory, params: ModelParams):
    """Evaluate every stationarity equation at the trajectory, by slices of
    its paths rather than through the stacked matrix.

    Returns (values, labels) with one entry per equation, in the row order
    of ``assemble_system``.
    """
    table, T = equation_table(params), trajectory.horizon
    return _residual_vector(trajectory_blocks(trajectory), table, T), _row_labels(table, T)


def residual_norms(trajectory: Trajectory, params: ModelParams):
    """(max, rms) norms over every stationarity equation, in natural units.

    The row vector of residuals is the one array of size O(T) this holds
    (besides ``_residual_vector``'s term): the max-norm is read off its
    extremes and it is squared in place.  A NaN residual makes both norms
    NaN."""
    values = _residual_vector(trajectory_blocks(trajectory), equation_table(params),
                              trajectory.horizon)
    # maximum() may pick -0.0 from two equal zeros; abs() makes max|v| = +0.0
    res_max = abs(np.maximum(values.max(), -values.min()))
    return float(res_max), float(np.sqrt(np.mean(np.square(values, out=values))))


def own_control_second_derivative(params: ModelParams) -> float:
    """d2 H / d(own investment)2, identical for every player: 2 tau theta.

    Positive whenever tau*theta > 0, so a stationary point is never a local
    maximum in a player's own control; callers surface this as a warning.
    """
    return 2.0 * params.tau * params.theta
