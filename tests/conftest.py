import numpy as np
import pytest

from csrchain import ModelParams, optimal_quantity
from csrchain.stationarity import (
    equation_table,
    manufacturer_hamiltonian,
    retailer_hamiltonian,
    supplier_hamiltonian,
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


def family(params: ModelParams, label: str):
    """The equation-table family with the given label."""
    return {fam.label: fam for fam in equation_table(params)}[label]


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
HAMILTONIANS = {"R": retailer_hamiltonian, "M": manufacturer_hamiltonian,
                "S": supplier_hamiltonian}


def gradient_check_worst(params: ModelParams, pt: dict) -> float:
    """Worst relative error between every family of the equation table and
    the central finite difference of the Hamiltonian it derives from.

    Covers all fifteen families: the state equation, the three control
    FOCs, the four lagrange-block equations, the three costate recursions,
    the three forward multiplier steps, and the auxiliary costate step.
    Relative error uses max(1, |analytic|) as the denominator.
    """
    q = optimal_quantity(params)
    h = 1e-5 * (1.0 + max(abs(pt[name, 0]) for name in ("i_s", "i_m", "i_r")))
    table = equation_table(params)
    assert sorted(fam.label for fam in table) == sorted(WITNESS)
    worst = 0.0
    for fam in table:
        player, key = WITNESS[fam.label]

        def value(v):
            return HAMILTONIANS[player]({**pt, key: v}, q, params)

        fd = (value(pt[key] + h) - value(pt[key] - h)) / (2.0 * h)
        analytic = fam.residual(pt) if fam.boundary is None else fam.stepped(pt)
        worst = max(worst, abs(analytic - fd) / max(1.0, abs(analytic)))
    return worst
