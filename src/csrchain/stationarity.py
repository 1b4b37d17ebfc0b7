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
each of its fifteen equation families once, as coefficients.
``period_layout`` compiles that table once per game, for every horizon,
into the system period by period (``period_rows``); the parameters are
valid by construction of ``ModelParams``.  Every other view reads its rows:
``period_residual`` evaluates them for ``residual_norms``,
``assemble_system`` (its Jacobian) and ``oracle.dense_solve``, and
``sweep.assemble_augmented`` selects each level's rows and columns, a
leader's system holding its follower's.

The table's independent witness is ``hamiltonian``, one function for every
player: the payoff and the state transition, plus the follower rows that
``ADJOINED`` names, each times its multiplier.  The retailer adjoins none, the
manufacturer the retailer's rows, the supplier the manufacturer-retailer
level's.  Every family is a partial derivative of one player's Hamiltonian,
which the finite-difference checks in the test suite verify level by level
from the retailer up.
"""
from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CsrChainError, UndeterminedControlsError
from .model import (
    PARAM_FIELDS,
    Controls,
    ModelParams,
    Trajectory,
    optimal_quantity,
    stage_payoff,
    state_transition,
)

# The unknown blocks, each with the first and last time it covers (the last
# as an offset from T); COLUMNS orders them within a period.
BLOCKS = (
    ("x", 1, 1), ("i_s", 1, 0), ("i_m", 1, 0), ("i_r", 1, 0),
    ("lam", 1, 0), ("lam_prime", 1, 0), ("mu_prime", 1, 0), ("nu", 1, 0),
    ("p_r", 2, 1), ("p_m", 2, 1), ("p_s", 2, 1),
    ("u", 1, 1), ("w", 1, 1), ("u_prime", 1, 1), ("r", 2, 1),
)
BLOCK_NAMES = tuple(name for name, _, _ in BLOCKS)
_SPAN = {name: last - first + 1 for name, first, last in BLOCKS}   # length - T
_CONTROLS = tuple(f.name for f in fields(Controls))   # blocks under Trajectory.controls


def block_length(name: str, T: int) -> int:
    return T + _SPAN[name]


# ---------------------------------------------------------------------------
# The equation table
# ---------------------------------------------------------------------------

class Family(NamedTuple):
    """One equation family: rows t = 1..T, or 2..T for a recursion stepping
    a costate, of

        sum(coefficient * block[t + shift] for block, shift, coefficient in terms)
            = constant

    A family with a ``boundary`` is a recursion.  Its first term is the block
    it steps, with coefficient 1, and ``boundary`` is the value that fixes
    that block's other end (``at_end``); an algebraic family has None.
    """

    label: str
    terms: tuple
    constant: float
    boundary: float | None = None

    @property
    def at_end(self) -> bool:
        """Whether the boundary fixes the stepped block's last entry: a
        recursion stepping block[t + 1] runs forward from the block's first
        entry, one stepping block[t] runs backward from its last."""
        return self.terms[0][1] == 0

    def residual(self, point) -> float:
        """The row at one period; ``point`` maps (block, shift) to a value."""
        return sum(coef * point[block, shift]
                   for block, shift, coef in self.terms) - self.constant

    def stepped(self, point) -> float:
        """The value a recursion gives its stepped block at one period."""
        return self.constant - sum(coef * point[block, shift]
                                   for block, shift, coef in self.terms[1:])


def equation_table(params: ModelParams) -> tuple[Family, ...]:
    """The fifteen equation families, in the row order of a row group of
    ``period_layout``: the LEAD costate recursions, which start at t = 2,
    first, then the families that start at t = 1."""
    k = params.tau * params.theta
    al = params.alpha
    bs, bm, br = params.beta_s, params.beta_m, params.beta_r
    ds, dm, dr = params.delta_s, params.delta_m, params.delta_r
    net = 1.0 - params.tau
    return (
        Family("costate_r", (("p_r", 0, 1.0), ("x", 0, -2 * dr), ("p_r", 1, -al)),
               0.0, boundary=0.0),
        Family("costate_m", (("p_m", 0, 1.0), ("x", 0, -2 * dm), ("p_m", 1, -al),
                             ("u", 0, -2 * dr)),
               0.0, boundary=0.0),
        Family("costate_s", (("p_s", 0, 1.0), ("x", 0, -2 * ds), ("p_s", 1, -al),
                             ("u_prime", 0, -2 * dm), ("w", 0, -2 * dr)),
               0.0, boundary=0.0),
        Family("r_step", (("r", 0, 1.0), ("r", 1, -al), ("u_prime", 0, -2 * dr)),
               0.0, boundary=0.0),
        Family("state", (("x", 1, 1.0), ("x", 0, -al), ("i_s", 0, -bs),
                         ("i_m", 0, -bm), ("i_r", 0, -br)),
               0.0, boundary=params.x1),
        Family("foc_r", (("i_s", 0, k), ("i_m", 0, k), ("i_r", 0, 2 * k),
                         ("p_r", 1, br)), net),
        Family("foc_m", (("i_s", 0, k), ("i_m", 0, 2 * k), ("i_r", 0, k),
                         ("p_m", 1, bm), ("lam", 0, k)), net),
        Family("m_react", (("i_m", 0, k), ("p_m", 1, br), ("lam", 0, 2 * k)),
               -params.d_hat),
        Family("foc_s", (("i_s", 0, 2 * k), ("i_m", 0, k), ("i_r", 0, k),
                         ("p_s", 1, bs), ("lam_prime", 0, k),
                         ("mu_prime", 0, k)), net),
        Family("s_react_m", (("i_s", 0, k), ("p_s", 1, bm), ("lam_prime", 0, k),
                             ("mu_prime", 0, 2 * k), ("nu", 0, k)), -params.d),
        Family("s_react_r", (("i_s", 0, k), ("p_s", 1, br),
                             ("lam_prime", 0, 2 * k), ("mu_prime", 0, k)), 0.0),
        Family("s_react_l", (("mu_prime", 0, k), ("nu", 0, 2 * k),
                             ("r", 1, br)), 0.0),
        Family("u_step", (("u", 1, 1.0), ("u", 0, -al), ("lam", 0, -br)),
               0.0, boundary=0.0),
        Family("w_step", (("w", 1, 1.0), ("w", 0, -al), ("lam_prime", 0, -br)),
               0.0, boundary=0.0),
        Family("u_prime_step", (("u_prime", 1, 1.0), ("u_prime", 0, -al),
                                ("mu_prime", 0, -bm), ("nu", 0, -br)),
               0.0, boundary=0.0),
    )


def period_rows(families, columns) -> np.ndarray:
    """[coefficients | constant] of the families at one period: row i holds
    family i's coefficient of each (block, shift) of ``columns``, in that
    order, then its constant.  Every term must have its column."""
    col = {key: j for j, key in enumerate(columns)}
    rows = np.zeros((len(families), len(columns) + 1))
    for i, fam in enumerate(families):
        for block, shift, coef in fam.terms:
            rows[i, col[block, shift]] = coef
        rows[i, -1] = fam.constant
    return rows


def _batch_shape(name: str, path, T: int) -> tuple:
    """The leading (batch) axes of a path, refused unless its last axis is
    its block's length at horizon T."""
    shape, length = np.shape(path), block_length(name, T)
    if shape[-1:] != (length,):
        raise ValueError(f"path {name!r} has shape {shape}; its last "
                         f"axis must have length {length} at horizon {T}")
    return shape[:-1]


def all_finite(array: np.ndarray) -> bool:
    """Whether every entry of ``array`` is finite, read off its extremes,
    which, unlike isfinite, allocate nothing of the array's size: a NaN is
    both extremes and fails both comparisons."""
    return -np.inf < array.min(initial=0.0) and array.max(initial=0.0) < np.inf


def _qr_invalid(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


@functools.cache
def _below_diagonal(shape):
    """The read-only mask of the strict lower triangle of a ``shape`` matrix."""
    below = np.tri(*shape, -1, dtype=bool)
    below.flags.writeable = False
    return below


def qr_complete(a):
    """``np.linalg.qr(a, mode="complete")``, bit for bit, of a tall float64
    matrix or stack of them, without the wrapper's per-call type checks and
    second ``errstate``: the same two LAPACK gufuncs of numpy's
    ``_umath_linalg``, ``qr_r_raw`` and then ``qr_complete``, under numpy's
    error contract (overflow, division and underflow ignored, an invalid
    result raising LinAlgError), then the strict lower triangle zeroed by a
    mask cached per shape.  Every QR of the sweep and the oracle is one
    call of this."""
    a = a.astype(float)   # qr_r_raw overwrites its argument with R and the reflectors
    with np.errstate(call=_qr_invalid, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        q = _umath_linalg.qr_complete(a, _umath_linalg.qr_r_raw(a, signature="d->d"),
                                      signature="dd->d")
    np.copyto(a, 0.0, where=_below_diagonal(a.shape[-2:]))
    return q, a


def fixed_paths(fixed, T: int) -> dict:
    """Block name -> float array of each fixed path, refused with a
    ValueError unless its last axis has its block's length and it is finite."""
    fixed = {name: np.asarray(path, dtype=float) for name, path in (fixed or {}).items()}
    for name, path in fixed.items():
        _batch_shape(name, path, T)
        if not all_finite(path):
            raise ValueError(f"fixed path {name!r} has a NaN or infinite entry")
    return fixed


# ---------------------------------------------------------------------------
# The system period by period
# ---------------------------------------------------------------------------

# The blocks in the column order of one period: those that start at t = 2
# first, those that end at t = T last.  Period 1 lacks the first LEAD columns
# and period T + 1 the last TRAIL, which packed paths hold as zeros.
COLUMNS = tuple(sorted(BLOCKS, key=lambda block: (block[1] == 1) + (block[2] == 0)))
WIDTH = len(COLUMNS)
# The columns of a row group: each block of COLUMNS at z[t], then at z[t + 1].
PERIOD_COLUMNS = tuple((name, shift) for shift in (0, 1) for name, _, _ in COLUMNS)
LEAD = sum(first == 2 for _, first, _ in BLOCKS)
TRAIL = sum(last == 0 for _, _, last in BLOCKS)
_CHUNK = 384   # periods per product in period_residual, which bounds its temporaries


# the coefficients, every ModelParams field but the horizon, which nothing
# compiled depends on, and strict_alpha, a validation mode nothing compiled reads
_GAME_KEY = operator.attrgetter(*PARAM_FIELDS[float])


class _Game(bytes):
    """A game without its horizon, as a cache key: the float64 bytes of its
    coefficients, every ``ModelParams`` field but ``horizon_T`` and
    ``strict_alpha``, which tell -0.0 from 0.0.  The bytes are the game, as
    ``ModelParams`` holds each coefficient as a float.  Its ``params``, the
    params it was made from, compile the game on a miss."""


@functools.lru_cache(maxsize=8)
def _compiled(game: _Game) -> tuple:
    """The layout of ``period_layout`` and a dict that ``sweep`` fills with
    each level's compiled recursion, reduction chain included, the first
    time the level is solved.  An entry retains 16 kB of layout and
    families, 8 kB of compiled levels and its three chains, bounded as
    ``sweep._CHAIN_ENTRIES`` states, so the 8 entries retain under 5 MB.
    A game is refused here, once for every solver, if tau*theta = 0 or a
    coefficient of its table overflows, as -2 delta_r does at delta_r =
    1e308; the error names each overflowed family and term."""
    params = game.params
    if params.tau * params.theta == 0.0:
        raise UndeterminedControlsError()
    families = equation_table(params)
    group = period_rows(families, PERIOD_COLUMNS)
    if not all_finite(group):
        raise CsrChainError("non-finite coefficients in the equation table: " + ", ".join(
            f"{fam.label} on {block}[t{'+1' if shift else ''}] ({coef})"
            for fam in families for block, shift, coef in fam.terms if not -np.inf < coef < np.inf))
    # a boundary row is a one-term family: its stepped block's fixed entry
    ends = {at_end: [Family(fam.label, ((fam.terms[0][0], 0, 1.0),), fam.boundary)
                     for fam in families if fam.boundary is not None and fam.at_end == at_end]
            for at_end in (False, True)}
    layout = (np.vstack([period_rows(ends[False], PERIOD_COLUMNS), group[LEAD:]]), group,
              period_rows(ends[True], PERIOD_COLUMNS[:WIDTH]))
    for rows in layout:
        rows.flags.writeable = False
    return layout + (families,), {}


def compiled_game(params: ModelParams) -> tuple:
    """(``period_layout(params)``, the game's dict of compiled levels), one
    entry per game at every horizon, keyed on every bit of every coefficient:
    not on ``horizon_T``, which nothing compiled depends on, nor on
    ``strict_alpha``, a validation mode, so a game read under either mode
    shares its entry.  The process keeps two other caches:
    ``sweep._SELECTIONS``, each level's rows and columns, and
    ``_below_diagonal``, each QR shape's mask."""
    values = _GAME_KEY(params)
    # struct, not numpy, whose per-call heap block set T = 10000 solves page-faulting
    game = _Game(struct.pack(f"{len(values)}d", *values))
    game.params = params
    return _compiled(game)


def period_layout(params: ModelParams) -> tuple:
    """The game compiled period by period, (first, group, terminal,
    families), shared read-only; tau*theta = 0 and an overflowed coefficient
    are refused (``_compiled``).  Row group t is
    D z[t] + E z[t + 1] - c over packed paths z: ``group`` is [D | E | c]
    over PERIOD_COLUMNS for t > 1, a row per family of ``families``, and
    ``first`` for t = 1, where the forward recursions' boundary rows replace
    the LEAD families that start at t = 2; ``terminal``, [F | c] over
    z[T + 1], holds the backward recursions' boundary rows.  None of them
    depends on the horizon, so the game is compiled once for every T
    (``compiled_game``) and every reader of it shares the rows."""
    return compiled_game(params)[0]


def pack(blocks: dict, T: int) -> np.ndarray:
    """The block paths (name -> path, leading batch axes broadcast) per
    period, (..., WIDTH, T + 1): row j holds block COLUMNS[j] at periods
    1..T + 1, zero where it has no entry.  A path whose last axis is not its
    block's length at horizon T is refused with a ValueError."""
    batch = {_batch_shape(name, blocks[name], T) for name, _, _ in COLUMNS}
    zb = np.empty(np.broadcast_shapes(*batch) + (WIDTH, T + 1))
    zb[..., :LEAD, 0] = zb[..., WIDTH - TRAIL:, T] = 0.0
    for j, (name, first, last) in enumerate(COLUMNS):
        zb[..., j, first - 1:T + last] = blocks[name]
    return zb


def unpack(zb: np.ndarray) -> dict:
    """Block name -> its path in the packed paths zb, a view."""
    T = zb.shape[-1] - 1
    return {name: zb[..., j, first - 1:T + last] for j, (name, first, last) in enumerate(COLUMNS)}


@np.errstate(invalid="ignore")   # 0 * inf: a non-finite path gives NaN rows
def period_residual(zb: np.ndarray, layout) -> np.ndarray:
    """Overwrite the packed paths zb, (..., WIDTH, T + 1), with the rows of
    the stacked system at them and return it: column t - 1 holds row group
    t, column T the terminal rows, then zeros.  The products run left to
    right, _CHUNK periods at a time, each stored in columns no later product
    reads, so zb is the one array of size O(T)."""
    T, k = zb.shape[-1] - 1, WIDTH - TRAIL
    first, group, terminal = layout[:3]
    start = zb[..., 0] @ first[:, :WIDTH].T + zb[..., 1] @ first[:, WIDTH:-1].T - first[:, -1]
    end = zb[..., T] @ terminal[:, :-1].T - terminal[:, -1]
    # one product [D | E] (z[t]; z[t + 1]) per chunk, over a copy of its
    # columns, so it writes straight into them; E reads z[t + 1] only in the
    # k blocks a recursion steps, the first of COLUMNS, so [D | E[:, :k]] is
    # a view of the group's leading columns
    DE, c = group[:, :WIDTH + k], group[:, -1]
    operand = np.empty(zb.shape[:-2] + (WIDTH + k, min(T, _CHUNK)))
    for a in range(0, T, _CHUNK):
        b = min(a + _CHUNK, T)
        o = operand[..., :b - a]
        o[..., :WIDTH, :] = zb[..., a:b]
        o[..., WIDTH:, :] = zb[..., :k, a + 1:b + 1]
        np.matmul(DE, o, out=zb[..., a:b])
    zb[..., :T] -= c[:, np.newaxis]
    zb[..., 0], zb[..., T] = start, 0.0
    zb[..., :end.shape[-1], T] = end
    return zb


def stacked_rows(rows: np.ndarray) -> np.ndarray:
    """``period_residual``'s rows in period order: groups 1..T, then terminal."""
    flat = np.swapaxes(rows, -1, -2).reshape(rows.shape[:-2] + (-1,))
    return flat[..., :flat.shape[-1] - LEAD - TRAIL]


def unstack(z: np.ndarray, T: int) -> np.ndarray:
    """The stacked unknowns z, (..., 15 T + 4) in period order (each period's
    COLUMNS, those it lacks left out), as packed paths (..., WIDTH, T + 1): a
    view of a copy zero-padded where a period lacks a column."""
    padded = np.zeros(np.shape(z)[:-1] + (WIDTH * (T + 1),))
    padded[..., LEAD:WIDTH * (T + 1) - TRAIL] = z
    return np.swapaxes(padded.reshape(padded.shape[:-1] + (T + 1, WIDTH)), -1, -2)


# ---------------------------------------------------------------------------
# Hamiltonians (the objects the finite-difference checks differentiate)
# ---------------------------------------------------------------------------

# Each player's costate, and the follower rows its Hamiltonian adjoins, each
# as (label, its multiplier's key): a leader optimises along its follower's
# reaction, so it adjoins every row of the follower level but the state
# equation, which its own costate already carries.
ADJOINED = {
    "R": ("p_r", ()),
    "M": ("p_m", (("costate_r", ("u", 0)), ("foc_r", ("lam", 0)))),
    "S": ("p_s", (("costate_r", ("w", 0)), ("costate_m", ("u_prime", 0)),
                  ("foc_r", ("lam_prime", 0)), ("foc_m", ("mu_prime", 0)),
                  ("m_react", ("nu", 0)), ("u_step", ("r", 1)))),
}


def hamiltonian(player, point, q, params: ModelParams):
    """The Hamiltonian of ``player`` ("R", "M" or "S") at a table point
    ((block, shift) -> value): the stage payoff, plus the player's next
    costate times the state transition, plus each row ``ADJOINED`` names
    times its multiplier, a recursion entering as its stepped value."""
    costate, adjoined = ADJOINED[player]
    x_t = point["x", 0]
    controls_t = (point["i_s", 0], point["i_m", 0], point["i_r", 0])
    value = (stage_payoff(player, x_t, q, controls_t, params)
             + point[costate, 1] * state_transition(x_t, controls_t, params))
    rows = {fam.label: fam for fam in equation_table(params)}
    for label, key in adjoined:
        fam = rows[label]
        value += point[key] * (fam.residual(point) if fam.boundary is None else fam.stepped(point))
    return value


# ---------------------------------------------------------------------------
# Stacked systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaritySystem:
    """The stacked linear stationarity system A z = rhs, its rows and its
    unknowns in period order (``stacked_rows``, ``unstack``)."""

    matrix: np.ndarray
    rhs: np.ndarray


def assemble_system(params: ModelParams) -> StationaritySystem:
    """Emit the square linear system of all stationarity conditions.

    The system is affine, so its matrix is the Jacobian of the residual: the
    layout's rows with their constants zeroed, at every unit vector in one
    batched evaluation; ``rhs`` is minus the residual at zero.  Columns and
    rows are in period order (``unstack``, ``stacked_rows``), so the matrix is
    the staircase ``oracle.dense_solve`` factors.
    """
    layout = period_layout(params)
    T = params.horizon_T
    linear = [np.hstack([rows[:, :-1], np.zeros((len(rows), 1))]) for rows in layout[:3]]
    n = WIDTH * (T + 1) - LEAD - TRAIL
    A = stacked_rows(period_residual(unstack(np.eye(n), T), linear)).T
    rhs = -stacked_rows(period_residual(unstack(np.zeros(n), T), layout))
    return StationaritySystem(matrix=A, rhs=rhs)


# ---------------------------------------------------------------------------
# Trajectory <-> stacked vector, residual evaluation
# ---------------------------------------------------------------------------

def trajectory_blocks(trajectory: Trajectory) -> dict:
    """Block name -> path of the trajectory: the attribute of that name, of
    its controls for a control block."""
    return {name: getattr(trajectory.controls if name in _CONTROLS else trajectory, name)
            for name in BLOCK_NAMES}


def trajectory_from_blocks(blocks: dict, params: ModelParams) -> Trajectory:
    """The trajectory of the paths in ``blocks`` (name -> path), held as
    given, not copied: each caller hands over arrays it alone holds."""
    paths = {name: blocks[name] for name in BLOCK_NAMES}
    controls = Controls(**{name: paths.pop(name) for name in _CONTROLS})
    return Trajectory(controls=controls,
                      q=np.full(params.horizon_T, optimal_quantity(params)), **paths)


def residual_norms(trajectory: Trajectory, params: ModelParams):
    """(max, rms) norms over every stationarity equation, in natural units.

    The packed paths, turned into the rows in place, are the one array of
    size O(T) this holds: the max-norm is read off its extremes and the sum
    of squares is one einsum over it, whose order of summation, unlike a
    BLAS dot's, does not depend on the thread count, the zeros after the
    terminal rows adding nothing, scaled by the max-norm first where it
    overflows.  A NaN residual makes both norms NaN.  A trajectory without
    every block, such as one ``parse_csv`` read back, or with a path whose
    length is not its block's at horizon ``params.horizon_T`` raises
    ValueError naming it."""
    blocks = trajectory_blocks(trajectory)
    missing = [name for name, path in blocks.items() if path is None]
    if missing:
        raise ValueError(f"residuals need every block; the trajectory lacks {missing}")
    values = period_residual(pack(blocks, params.horizon_T), period_layout(params))
    # maximum() may pick -0.0 from two equal zeros; abs() makes max|v| = +0.0
    res_max = abs(np.maximum(values.max(), -values.min()))
    n = values.size - LEAD - TRAIL
    rms = np.sqrt(np.einsum("ij,ij->", values, values) / n)
    if np.isinf(rms) and np.isfinite(res_max):   # rows past about 1e154
        values /= res_max
        rms = res_max * np.sqrt(np.einsum("ij,ij->", values, values) / n)
    return float(res_max), float(rms)
