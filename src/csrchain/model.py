"""Economic primitives of the three-tier CSR supply chain game.

The chain is supplier (S) -> manufacturer (M) -> retailer (R).  The state
``x_t`` is the accumulated stock of corporate social responsibility; each
player invests ``i_j`` per period and the stock evolves as

    x_{t+1} = alpha * x_t + beta_s * i_s + beta_m * i_m + beta_r * i_r.

Each player's stage payoff combines a trading margin on the per-period
quantity ``q``, a social benefit ``delta_j * x_t**2``, a tax-return payment
``tau * i_own * (1 + theta * (i_s + i_m + i_r))``, the investment outlay, and
(for S and M) a pass-through share of the downstream player's investment.

The traded quantity never couples to the CSR stock or the investments, so the
quantity subgame is static: the manufacturer's margin (a - b q) q - v q is the
only strictly concave quantity term, giving q* = max(0, (a - v) / (2 b)),
constant over time.

Index conventions used throughout the package (all arrays 0-based):
    x[k]        state at time k+1,           k = 0..T      (times 1..T+1)
    i_*[k]      investment in period k+1,    k = 0..T-1    (times 1..T)
    p_*[k]      costate at time k+2,         k = 0..T-1    (times 2..T+1)
    u/w/u'[k]   multiplier at time k+1,      k = 0..T      (times 1..T+1)
    r[k]        auxiliary costate at k+2,    k = 0..T-1    (times 2..T+1)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParamsError, TrajectoryConsistencyError

PLAYERS = ("S", "M", "R")

# Tolerance for the state-equation consistency check in total_objective,
# relative to the magnitude of the state values involved.
_STATE_CONSISTENCY_RTOL = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the game.

    ``strict_alpha`` is a validation mode, not an economic quantity: when
    True (default) the carryover rate must satisfy 0 < alpha <= 1; when
    False only alpha > 0 is required.
    """

    alpha: float          # CSR-stock carryover rate per period
    beta_s: float         # investment-to-CSR conversion, supplier
    beta_m: float         # investment-to-CSR conversion, manufacturer
    beta_r: float         # investment-to-CSR conversion, retailer
    tau: float            # individual post-tax return-on-investment rate
    theta: float          # chain-level post-tax return-on-investment rate
    delta_s: float        # social-benefit coefficient, supplier
    delta_m: float        # social-benefit coefficient, manufacturer
    delta_r: float        # social-benefit coefficient, retailer
    d: float              # share of manufacturer investment paid to supplier
    d_hat: float          # share of retailer investment paid to manufacturer
    a: float              # inverse-demand intercept
    b: float              # inverse-demand slope
    v: float              # supplier raw-material price
    z: float              # retailer consumer price
    c: float              # supplier unit cost
    x1: float             # initial CSR stock
    horizon_T: int        # number of decision periods
    strict_alpha: bool = True

    def validate(self) -> list[str]:
        """Return every violated invariant (empty list when valid)."""
        out = []
        for name in PARAM_FIELDS[float]:
            val = getattr(self, name)
            if not math.isfinite(val):
                out.append(f"{name} must be finite, got {val!r}")
        for name in ("beta_s", "beta_m", "beta_r"):
            val = getattr(self, name)
            if math.isfinite(val) and not 0.0 < val < 1.0:
                out.append(f"{name} must lie in (0, 1), got {val!r}")
        if math.isfinite(self.alpha):
            if self.strict_alpha:
                if not 0.0 < self.alpha <= 1.0:
                    out.append(f"alpha must lie in (0, 1], got {self.alpha!r}")
            elif self.alpha <= 0.0:
                out.append(f"alpha must be positive, got {self.alpha!r}")
        if math.isfinite(self.b) and self.b <= 0.0:
            out.append(f"b must be positive, got {self.b!r}")
        for name in ("tau", "theta", "delta_s", "delta_m", "delta_r", "c"):
            val = getattr(self, name)
            if math.isfinite(val) and val < 0.0:
                out.append(f"{name} must be nonnegative, got {val!r}")
        for name in ("d", "d_hat"):
            val = getattr(self, name)
            if math.isfinite(val) and not 0.0 <= val < 1.0:
                out.append(f"{name} must lie in [0, 1), got {val!r}")
        if not isinstance(self.horizon_T, int) or self.horizon_T < 1:
            out.append(f"horizon_T must be an integer >= 1, got {self.horizon_T!r}")
        return out

    def validated(self) -> "ModelParams":
        violations = self.validate()
        if violations:
            raise ParamsError(violations)
        return self


# type -> names of the parameters of that type, in field order
PARAM_FIELDS = {kind: tuple(f.name for f in fields(ModelParams)
                            if f.type in (kind, kind.__name__))
                for kind in (float, int)}


@dataclass(frozen=True)
class Controls:
    """Per-period investment paths, each of shape (T,)."""

    i_s: np.ndarray
    i_m: np.ndarray
    i_r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "i_s", np.asarray(self.i_s, dtype=float))
        object.__setattr__(self, "i_m", np.asarray(self.i_m, dtype=float))
        object.__setattr__(self, "i_r", np.asarray(self.i_r, dtype=float))

    @property
    def horizon(self) -> int:
        return self.i_s.shape[0]

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.i_s, self.i_m, self.i_r])


@dataclass
class Trajectory:
    """Full time-indexed solution of the nested stationarity system.

    Beyond the state, controls, quantity, player costates, and the two
    leader multipliers (u for the manufacturer level, u_prime for the
    supplier level), the supplier's nesting requires two more adjoint
    sequences and four per-period Lagrange values:

      w          supplier's forward multiplier on the retailer costate chain
      r          supplier's backward costate for the u chain
      lam        manufacturer's Lagrange value on the retailer control FOC
      lam_prime  supplier's Lagrange value on the retailer control FOC
      mu_prime   supplier's Lagrange value on the manufacturer control FOC
      nu         supplier's Lagrange value on the manufacturer reaction identity

    The auxiliary fields may be None on trajectories built from partial data
    (for example a re-parsed CSV, which carries only the reporting columns).
    """

    x: np.ndarray                 # (T+1,)  times 1..T+1
    controls: Controls            # (T,)    times 1..T
    q: np.ndarray                 # (T,)
    p_s: np.ndarray               # (T,)    times 2..T+1
    p_m: np.ndarray
    p_r: np.ndarray
    u: np.ndarray                 # (T+1,)  times 1..T+1
    u_prime: np.ndarray
    w: np.ndarray | None = None           # (T+1,)
    r: np.ndarray | None = None           # (T,)    times 2..T+1
    lam: np.ndarray | None = None         # (T,)
    lam_prime: np.ndarray | None = None
    mu_prime: np.ndarray | None = None
    nu: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.controls.horizon


def inverse_demand(q: float, params: ModelParams) -> float:
    """Market price at traded quantity q: a - b*q."""
    return params.a - params.b * q


def tax_return(i_own: float, i_total: float, params: ModelParams) -> float:
    """Tax-return payment tau * i_own * (1 + theta * i_total)."""
    return params.tau * i_own * (1.0 + params.theta * i_total)


def social_benefit(x: float, delta_j: float) -> float:
    """Quadratic social benefit delta_j * x**2."""
    return delta_j * x * x


def state_transition(x, controls_t, params: ModelParams):
    """One step of the CSR stock: alpha*x + beta_s*i_s + beta_m*i_m + beta_r*i_r."""
    i_s, i_m, i_r = controls_t
    return (params.alpha * x + params.beta_s * i_s
            + params.beta_m * i_m + params.beta_r * i_r)


def optimal_quantity(params: ModelParams) -> float:
    """Quantity of the static subgame: max(0, (a - v) / (2 b)).

    Only the manufacturer's quantity term (a - b q) q - v q is strictly
    concave in q, and no quantity term couples to the CSR stock or the
    investments, so the same quantity solves every period.
    """
    if params.b <= 0.0:
        raise ValueError(f"degenerate demand: b must be positive, got {params.b!r}")
    return max(0.0, (params.a - params.v) / (2.0 * params.b))


def stage_payoff(player: str, x, q, controls_t, params: ModelParams):
    """Period payoff of one player at state x, quantity q, investments controls_t."""
    i_s, i_m, i_r = controls_t
    i_total = i_s + i_m + i_r
    if player == "S":
        return ((params.v - params.c) * q
                + social_benefit(x, params.delta_s)
                + tax_return(i_s, i_total, params)
                - i_s + params.d * i_m)
    if player == "M":
        return ((inverse_demand(q, params) - params.v) * q
                + social_benefit(x, params.delta_m)
                + tax_return(i_m, i_total, params)
                - i_m + params.d_hat * i_r)
    if player == "R":
        return ((params.z - inverse_demand(q, params)) * q
                + social_benefit(x, params.delta_r)
                + tax_return(i_r, i_total, params)
                - i_r)
    raise ValueError(f"unknown player {player!r}; expected one of {PLAYERS}")


def rollout(params: ModelParams, x1, i_s, i_m, i_r) -> np.ndarray:
    """State path implied by the state equation for the given investments.

    The investment paths have shape (..., T) and are broadcast against each
    other; the result has shape (..., T + 1), one state path per batch entry,
    each computed with the same arithmetic as a single path.
    """
    i_s, i_m, i_r = np.broadcast_arrays(*(np.asarray(path, dtype=float)
                                          for path in (i_s, i_m, i_r)))
    T = i_s.shape[-1]
    x = np.empty(i_s.shape[:-1] + (T + 1,))
    x[..., 0] = x1
    for t in range(T):
        x[..., t + 1] = state_transition(
            x[..., t], (i_s[..., t], i_m[..., t], i_r[..., t]), params)
    return x


def check_state_consistency(trajectory: Trajectory, params: ModelParams) -> float:
    """Max violation of the state equation along the trajectory."""
    c = trajectory.controls
    predicted = state_transition(trajectory.x[:-1], (c.i_s, c.i_m, c.i_r), params)
    return float(np.max(np.abs(trajectory.x[1:] - predicted)))


def trajectory_max_delta(first: Trajectory, second: Trajectory) -> float:
    """Max absolute difference over every component both trajectories carry;
    NaN when any compared entry is NaN."""
    deltas = []
    for field in fields(Trajectory):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, Controls):
            a, b = a.stacked(), b.stacked()
        if a is not None and b is not None:
            deltas.append(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    return float(np.max(deltas))


def total_objective(player: str, trajectory: Trajectory, params: ModelParams):
    """Sum of the player's stage payoffs over t = 1..T.

    Rejects trajectories whose state path does not satisfy the state
    equation (beyond a scale-relative tolerance), since the objective is
    only meaningful on feasible paths.
    """
    gap = check_state_consistency(trajectory, params)
    scale = 1.0 + float(np.max(np.abs(trajectory.x)))
    # Written so that a NaN gap (or scale) fails the check too.
    if not gap <= _STATE_CONSISTENCY_RTOL * scale:
        raise TrajectoryConsistencyError(
            f"state equation violated by {gap:.3e} (tolerance "
            f"{_STATE_CONSISTENCY_RTOL * scale:.3e}); objective undefined"
        )
    c = trajectory.controls
    values = stage_payoff(player, trajectory.x[:-1], trajectory.q, (c.i_s, c.i_m, c.i_r), params)
    # np.add.accumulate adds strictly left to right (np.sum adds pairwise), so
    # the objective is bit-identical to a running total over t.
    return float(np.add.accumulate(values)[-1])
