import sys

import numpy as np
import pytest

from csrchain import ModelParams, optimal_quantity, oracle, stationarity
from csrchain.model import objective
from csrchain.stationarity import (
    BLOCKS,
    WIDTH,
    block_length,
    equation_table,
    hamiltonian,
    trajectory_from_blocks,
    unpack,
    unstack,
)


REFERENCE = dict(
    alpha=0.9, beta_s=0.3, beta_m=0.3, beta_r=0.2,
    tau=0.1, theta=0.05,
    delta_s=0.01, delta_m=0.02, delta_r=0.03,
    d=0.1, d_hat=0.1,
    a=10.0, b=1.0, v=2.0, z=12.0, c=1.0,
    x1=1.0, horizon_T=3,
)


@pytest.fixture
def reference_params():
    return ModelParams(**REFERENCE)


def tax_return(i_own, i_total, params: ModelParams):
    """The tax-return payment tau * i_own * (1 + theta * i_total), the term
    each stage payoff carries, written alone."""
    return params.tau * i_own * (1.0 + params.theta * i_total)


def make_params(**overrides):
    values = dict(REFERENCE)
    values.update(overrides)
    return ModelParams(**values)


def draw_params(rng: np.random.Generator, horizon_T: int) -> ModelParams:
    """Random parameter set within the type invariants, tau*theta > 0.

    Ranges keep the linear system well conditioned: the investment scale is
    driven by (1 - tau) / (tau * theta), so tau and theta are bounded away
    from zero, and the social-benefit feedback (delta) is kept moderate.
    """
    a = rng.uniform(5.0, 20.0)
    v = rng.uniform(0.2, 0.9) * a
    return ModelParams(
        alpha=rng.uniform(0.55, 1.0),
        beta_s=rng.uniform(0.1, 0.6),
        beta_m=rng.uniform(0.1, 0.6),
        beta_r=rng.uniform(0.1, 0.6),
        tau=rng.uniform(0.05, 0.5),
        theta=rng.uniform(0.05, 0.25),
        delta_s=rng.uniform(0.0, 0.05),
        delta_m=rng.uniform(0.0, 0.05),
        delta_r=rng.uniform(0.0, 0.05),
        d=rng.uniform(0.0, 0.5),
        d_hat=rng.uniform(0.0, 0.5),
        a=a,
        b=rng.uniform(0.5, 3.0),
        v=v,
        z=rng.uniform(a, 2.0 * a),
        c=rng.uniform(0.0, v),
        x1=rng.uniform(-1.0, 3.0),
        horizon_T=horizon_T,
    )


def patch_bindings(monkeypatch, original, replacement):
    """Bind ``replacement`` in place of ``original`` in every csrchain
    module that binds it by name, as a module that imported it holds its
    own binding."""
    for module in [m for name, m in sys.modules.items()
                   if name == "csrchain" or name.startswith("csrchain.")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def reaction_payoff(player, params: ModelParams, own, controls, q):
    """The player's payoff at quantity q, summed over periods 1..T, along
    its followers' reaction (``oracle._reaction``), for each path of the
    batch ``own``."""
    return objective(player, params, *oracle._reaction(player, params, own, controls), q)


GRID_POINTS = 81   # the points of the single-period grid scan


def grid_scan_supplier(params: ModelParams, center: float, half_width: float) -> float:
    """Single-period brute-force cross-check: scan the supplier's investment
    over a grid (followers re-solved at every point, in one batched solve),
    locate the sign change of the first difference of its objective, and
    refine by fitting a parabola through the bracketing triple.

    Only defined for horizon 1, where the supplier's choice is a scalar.
    """
    if params.horizon_T != 1:
        raise ValueError("grid scan is a single-period check; horizon_T must be 1")
    grid = np.linspace(center - half_width, center + half_width, GRID_POINTS)
    values = reaction_payoff("S", params, grid[:, np.newaxis], None, optimal_quantity(params))
    diffs = np.diff(values)
    steps = np.nonzero(diffs)[0]   # a difference of exactly zero can sit at the turn
    signs = np.sign(diffs[steps])
    flips = steps[np.nonzero(signs[:-1] * signs[1:] < 0)[0]]
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


def clear_caches():
    """Forget every compiled game, with its levels' reduction chains, so
    that the next solve of any game starts cold."""
    stationarity._compiled.cache_clear()


def vector_to_trajectory(z, params: ModelParams):
    """The trajectory of a stacked vector, its unknowns in period order."""
    return trajectory_from_blocks(unpack(unstack(z, params.horizon_T)), params)


def level_table(params: ModelParams, blocks):
    """The families of the equation table whose every term lies in
    ``blocks``, in table order: one level's equations."""
    return [fam for fam in equation_table(params)
            if all(block in blocks for block, _, _ in fam.terms)]


def family(params: ModelParams, label: str):
    """The equation-table family with the given label."""
    return {fam.label: fam for fam in equation_table(params)}[label]


FIRST = {name: first for name, first, _ in BLOCKS}


def first_period(fam) -> int:
    """The family's first row t: the least t at which every term's block
    has an entry, the latest of its blocks' first times less the shift."""
    return max(FIRST[block] - shift for block, shift, _ in fam.terms)


def reference_residual_vector(blocks, families, T):
    """The families' rows at the block paths (name -> path, leading batch
    axes broadcast), built family by family from slices of the paths and
    concatenated: a recursion's boundary row before its rows when it fixes
    its stepped block's first entry, after them when it fixes the last
    (``at_end``).  The reference the solver's per-period evaluator is held
    against."""
    batch = np.broadcast_shapes(*(np.shape(path)[:-1] for path in blocks.values()))
    parts = []
    for fam in families:
        first = first_period(fam)
        count = T - first + 1
        total = 0.0
        for block, shift, coef in fam.terms:
            start = first + shift - FIRST[block]
            total = total + coef * blocks[block][..., start:start + count]
        rows = [total - fam.constant]
        if fam.boundary is not None:
            path = blocks[fam.terms[0][0]]
            end = (path[..., -1:] if fam.at_end else path[..., :1]) - fam.boundary
            rows = rows + [end] if fam.at_end else [end] + rows
        parts += rows
    return np.concatenate([np.broadcast_to(part, batch + part.shape[-1:]) for part in parts],
                          axis=-1)


def homogeneous(families):
    """The families with every constant and boundary value set to zero."""
    return [fam._replace(constant=0.0, boundary=None if fam.boundary is None else 0.0)
            for fam in families]


def reference_residual_bound(blocks, families, T):
    """The forward-error bound of a per-period row against the reference,
    per reference row: (2W + 1) eps sum|coefficient * value| over the row's
    terms and its constant, W = 15, as a row D z[t] + E z[t + 1] - c sums
    2W + 1 terms."""
    sizes = [fam._replace(terms=tuple((block, shift, abs(coef)) for block, shift, coef in fam.terms),
                          constant=-abs(fam.constant),
                          boundary=None if fam.boundary is None else -abs(fam.boundary))
             for fam in families]
    weights = reference_residual_vector({name: np.abs(path) for name, path in blocks.items()},
                                        sizes, T)
    return (2 * WIDTH + 1) * np.finfo(float).eps * weights


def dense_level(params: ModelParams, unknowns, fixed):
    """A follower level as a dense system (A, b, split), built on the
    per-family reference residual: the families whose terms lie in
    ``unknowns`` or in the paths ``fixed`` (block name -> array), with the
    fixed terms moved to the right-hand side.  A's columns follow
    ``unknowns``; b carries the fixed paths' leading batch axes, (..., n);
    ``split`` maps a solution (..., n) to its block paths."""
    T = params.horizon_T
    fixed = {name: np.asarray(path, dtype=float) for name, path in fixed.items()}
    families = level_table(params, set(unknowns) | set(fixed))
    bounds = np.cumsum([block_length(name, T) for name in unknowns])

    def split(z):
        return dict(zip(unknowns, np.split(z, bounds[:-1], axis=-1)))

    n = int(bounds[-1])
    zero_fixed = {name: np.zeros(path.shape[-1]) for name, path in fixed.items()}
    A = reference_residual_vector({**split(np.eye(n)), **zero_fixed},
                                  homogeneous(families), T).T
    batch = np.broadcast_shapes(*(path.shape[:-1] for path in fixed.values()))
    fixed = {name: np.broadcast_to(path, batch + path.shape[-1:])
             for name, path in fixed.items()}
    b = -reference_residual_vector({**split(np.zeros(batch + (n,))), **fixed}, families, T)
    return A, b, split


def random_evaluation_point(rng: np.random.Generator) -> dict:
    """Random table point ((block, shift) -> value) for the per-period
    Hamiltonians and table rows."""
    point = {(name, 0): rng.uniform(-3, 3) for name in ("i_s", "i_m", "i_r")}
    for key in [("x", 0), ("u", 0), ("p_r", 1), ("p_m", 1), ("p_s", 1), ("r", 1),
                ("u_prime", 0), ("w", 0), ("lam", 0), ("lam_prime", 0),
                ("mu_prime", 0), ("nu", 0)]:
        point[key] = rng.uniform(-2, 2)
    return point


# Each family is a partial derivative of one Hamiltonian, named here by
# (player, differentiated table key).  An algebraic family is the derivative
# itself; a recursion gives its stepped block the derivative's value.
WITNESS = {
    "state": ("R", ("p_r", 1)),
    "foc_r": ("R", ("i_r", 0)),
    "costate_r": ("R", ("x", 0)),
    "foc_m": ("M", ("i_m", 0)),
    "m_react": ("M", ("i_r", 0)),
    "costate_m": ("M", ("x", 0)),
    "u_step": ("M", ("p_r", 1)),
    "foc_s": ("S", ("i_s", 0)),
    "s_react_m": ("S", ("i_m", 0)),
    "s_react_r": ("S", ("i_r", 0)),
    "s_react_l": ("S", ("lam", 0)),
    "costate_s": ("S", ("x", 0)),
    "w_step": ("S", ("p_r", 1)),
    "u_prime_step": ("S", ("p_m", 1)),
    "r_step": ("S", ("u", 0)),
}


def hamiltonian_slope(params: ModelParams, pt: dict, label: str) -> float:
    """Central difference, at the table point ``pt``, of the Hamiltonian the
    family ``label`` derives from, along the key ``WITNESS`` names."""
    player, key = WITNESS[label]
    q = optimal_quantity(params)
    h = 1e-5 * (1.0 + max(abs(pt[name, 0]) for name in ("i_s", "i_m", "i_r")))

    def value(v):
        return hamiltonian(player, {**pt, key: v}, q, params)
    return (value(pt[key] + h) - value(pt[key] - h)) / (2.0 * h)


def gradient_check_worst(params: ModelParams, pt: dict) -> float:
    """Worst relative error between every family of the equation table and
    the central finite difference of the Hamiltonian it derives from.

    Covers all fifteen families: the state equation, the three control
    FOCs, the four lagrange-block equations, the three costate recursions,
    the three forward multiplier steps, and the auxiliary costate step.
    Relative error uses max(1, |analytic|) as the denominator.
    """
    table = equation_table(params)
    assert sorted(fam.label for fam in table) == sorted(WITNESS)
    worst = 0.0
    for fam in table:
        fd = hamiltonian_slope(params, pt, fam.label)
        analytic = fam.residual(pt) if fam.boundary is None else fam.stepped(pt)
        worst = max(worst, abs(analytic - fd) / max(1.0, abs(analytic)))
    return worst
