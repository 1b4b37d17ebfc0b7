"""Independent verification path for the game solver.

``dense_solve`` solves the full stacked stationarity system, all 15T + 4
unknowns at once, by Householder QRs over the system's staircase, segmented
so that O(sqrt T) of them factor it, in O(T) time and memory; each QR is
numpy's complete QR, called through ``stationarity.qr_complete`` as the
sweep's are.  It factors the blocks of ``stationarity.period_layout``, with
its right-hand side and refinement residual from ``period_residual``, the
evaluator of ``residual_norms``, but shares no step of the sweep: no control
elimination, no level recursion, no cyclic reduction.  The stationarity
checks go one level deeper: they differentiate the players' objectives
themselves (by central differences along re-solved follower reactions), so
they validate the derived equations against the payoffs rather than one
solver against another.  The three checks share one evaluation of a
player's followers' reaction (``_reaction``): R's state rolled out, M's
retailer response or S's inner response re-solved.

Each check probes the T coordinate directions only.  Along a re-solved
reaction every payoff is quadratic in the player's own path, so the central
difference along any unit direction eta is exactly eta . g, g the coordinate
slopes: no other direction can read a slope the coordinates miss.  A
perturbed leader path moves only the right-hand side of the follower level,
so each check re-solves that level once, by the sweep's cyclic reduction,
with the base path and every +h probe a batch entry of its right-hand side;
the retailer check rolls them out in one batched pass.  The reaction is
affine in the leader's path, so each -h probe's followers and state are the
+h probe's reflected through the base: T + 1 paths solved, not 2T.  The
reflection carries the roundoff of two solves, which about doubles the
checks' readings at a solved point.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystemError
from .model import ModelParams, Trajectory, objective, rollout
from .stationarity import (
    LEAD, TRAIL, WIDTH, period_layout, period_residual, qr_complete, stacked_rows,
    trajectory_from_blocks, unpack, unstack,
)
from .sweep import _solve_level

_COND_LIMIT = 1e12
_SEGMENT_FROM = 13   # the least horizon whose staircase is segmented


def _solve_with_estimate(solve, solve_transposed, residual, a_norm, b):
    """Solve A z = b with one refinement step, and estimate kappa_1(A) from
    the same solves; returns (z, the correction, the estimate).

    The factorization is the caller's: ``solve`` maps right-hand sides of
    shape (n, k) to their solutions, ``solve_transposed`` a vector c to the
    solution of A^T x = c, ``residual`` a solution z to b - A z, and
    ``a_norm`` is ||A||_1.  Hager's estimator of ||A^-1||_1 probes e/n,
    takes one transposed solve to pick the column e_j, then probes e_j;
    Higham's alternating-sign vector is a third probe.  The probes ride as
    extra columns of the solution's and the refinement's right-hand sides.
    Each probe gives a lower bound on ||A^-1||_1, so the estimate never
    exceeds kappa_1(A).
    """
    n = len(b)
    x_alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    z, y, v = solve(np.column_stack([b, np.full(n, 1.0 / n), x_alt])).T
    j = np.argmax(np.abs(solve_transposed(np.where(y >= 0.0, 1.0, -1.0))))
    e_j = np.zeros(n)
    e_j[j] = 1.0
    dz, w = solve(np.column_stack([residual(z), e_j])).T
    # np.max, not max: a NaN bound must reach the caller's finiteness check.
    inv_norm = np.max([np.abs(y).sum(), np.abs(w).sum(), 2.0 * np.abs(v).sum() / (3 * n)])
    return z, dz, a_norm * float(inv_norm)


def _segment_length(T):
    """The periods m of a segment at horizon T: the one that factors the
    staircase in the fewest QRs, (m - 1) + (T - 1) // m + (T - 1) % m, the
    least on a tie.  Below ``_SEGMENT_FROM``, up to the T = 12 of a scenario
    batch, m = 1: one QR per period, kept because scenario batches ran
    slower without it; CHANGES.md's entries on the segmented staircase and
    on its interface slices hold the timings."""
    if T < _SEGMENT_FROM:
        return 1
    # past 3 isqrt(T) + 5, m - 1 alone exceeds the count at m = isqrt(T)
    return min(range(1, 3 * math.isqrt(T) + 6), key=lambda m: m - 1 + (T - 1) // m + (T - 1) % m)


def _pad(x, T):
    """x, the system's unknowns or rows along its first axis, zero-padded
    to the staircase's W (T + 1)."""
    out = np.zeros((WIDTH * (T + 1),) + x.shape[1:])
    out[LEAD:WIDTH * (T + 1) - TRAIL] = x
    return out


class _Staircase:
    """The stacked stationarity system in period order, eliminated by
    Householder QRs in O(T) memory, O(sqrt T) of them (stable
    almost-block-diagonal elimination; Diaz, Fairweather & Keast, ACM TOMS 9,
    1983; segmented by S. J. Wright, SIAM J. Sci. Stat. Comput. 13, 1992).

    Row group t touches only the W = 15 columns of periods t and t + 1, as
    the [D | E] of ``stationarity.period_layout`` over (z[t], z[t+1]).  The
    L = 4 columns that period 1 lacks and the 7 that period T + 1 lacks are
    padded, each with an identity row, so every step has one shape and the
    padding solves to zero.

    Segments.  Row groups 2 .. K m + 1 form K segments of m (``_segment_length``)
    periods each, all with the same rows [D | E].  One run of m - 1 QRs
    eliminates the m - 1 interior periods of every segment at once: step i
    factors [the W rows carried; row group i] over the columns of interior
    period i as Qs_i [Rs_i; 0], which keeps the rows A_i z[start] + Rs_i z[i]
    + B_i z[i + 1] and carries W rows over (z[start], z[i + 1]) on.  The
    last carry is the segment's interface block [X | Y] over its first and
    last period.  In the padded row order step i acts on a segment's row
    groups i - 1 and i, kept rows first, so the carry ends in its group m.

    Interface.  Row group 1, each segment's [X | Y], the (T - 1) % m row
    groups left over and the terminal rows form a staircase of N blocks
    [D_t | E_t] over the interface periods: the first, each segment's
    first, and those after the last segment.  Its rows are three slices of
    the padded order: the padding with row group 1, every m-th row group
    from m + 1 to K m + 1 (each segment's last, where its carry ends), and
    all rows after the last segment.  Step t factors [the L rows carried
    from t - 1; block t] over the columns of its first period as
    Q_t [R_t; 0]; Q_t^T turns [0; E_t] into the coupling S_t of the
    kept rows and the L rows carried on.  The last carried rows and the
    terminal rows leave one square block F, so the interface is Q U with U
    block upper bidiagonal: R_1..R_N and F on its diagonal, S_t beside them.
    In its padded row order step t acts on rows W t .. W t + W + L - 1 and
    leaves U's row block t in the first W of them, so Q^T and Q apply in
    place.  One call inverts every kept triangle: Rs_1..Rs_m-1, R_1..R_N, F.
    With m = 1 there are no interior periods, the interface is the whole
    system, and m > 1 guards skip every segment step.  They are kept, as
    ``_SEGMENT_FROM`` is, for speed at a scenario batch's T <= 12 (see
    ``_segment_length``).
    """

    def __init__(self, params: ModelParams):
        first, group, terminal, _ = period_layout(params)
        self.T = T = params.horizon_T
        W, L = WIDTH, LEAD
        self.m = m = _segment_length(T)
        self.K = K = (T - 1) // m
        N = T - K * (m - 1)
        D1, E1, D, E = first[:, :W], first[:, W:-1], group[:, :W], group[:, W:-1]
        X, Y = D, E
        R = np.empty((m + N, W, W))   # every kept triangle: Rs_1..Rs_m-1, R_1..R_N, F
        if m > 1:   # the segments' run: Qs_i, Rs_i, A_i, B_i, and the interface block X, Y
            Qs = np.empty((m - 1, 2 * W, 2 * W))
            A = np.empty((m - 1, W, W))
            for i in range(m - 1):
                Qs[i], r = qr_complete(np.vstack([Y, D]))
                R[i] = r[:W]
                A[i], X, Y = Qs[i, :W, :W].T @ X, Qs[i, :W, W:].T @ X, Qs[i, W:, W:].T @ E
            self.Qs, self.A, self.B = Qs, A, np.swapaxes(Qs[:, W:, :W], 1, 2) @ E
        # the interface's Q_t and R_t of every step, F, and the products the solves use
        Es = np.empty((N, W, W))
        Es[0], Es[1:K + 1], Es[K + 1:] = E1, Y, E
        work = np.vstack([np.eye(L, W), D1])
        Q = np.empty((N, L + W, L + W))
        for t in range(N):
            Q[t], r = qr_complete(work)
            R[m - 1 + t] = r[:W]
            work[:L] = Q[t, L:, W:].T @ Es[t]
            work[L:] = X if t < K else D
        R[-1] = np.vstack([work[:L], terminal[:, :-1], np.eye(TRAIL, W, W - TRAIL)])
        S = np.swapaxes(Q[:, L:, :W], 1, 2) @ Es
        Rinv = np.linalg.inv(R)
        self.Q, self.Rs_inv, self.Rinv = Q, Rinv[:m - 1], Rinv[m - 1:]
        if m > 1:   # the run's kept rows solved for its interior periods
            self.GA, self.GB = self.Rs_inv @ self.A, self.Rs_inv @ self.B
        self.G = self.Rinv[:-1] @ S                        # R_t^-1 S_t
        self.H = np.swapaxes(S @ self.Rinv[1:], 1, 2)      # R_t+1^-T S_t^T
        # ||A||_1, the largest column sum of periods 1..T + 1: D1 and E1 of row
        # group 1, D of groups 2..T, their E and the terminal rows
        s1, s = np.abs(first).sum(axis=0), np.abs(group).sum(axis=0)
        sums = np.vstack([s1[:W], s1[W:-1], np.zeros((T - 1, W))])
        sums[1:T] += s[:W]
        sums[2:] += s[W:-1]
        sums[T] += np.abs(terminal[:, :-1]).sum(axis=0)
        self.a_norm = float(sums.max())

    def solve(self, B):
        """Solutions of A z = b for the columns b of B, (n, k): Q^T b, the
        segments' run first, then back substitution in the interface's U
        and in the segments' kept rows."""
        T, W, L, m, K, N = self.T, WIDTH, LEAD, self.m, self.K, len(self.Q)
        x = _pad(B, T)
        k = x.shape[1]
        if m > 1:   # the segments' run, then the interface's rows gathered
            seg = x[L + W:L + W * (K * m + 1)].reshape(K, m, W, k)
            for i in range(1, m):
                seg[:, i - 1:i + 1] = (self.Qs[i - 1].T @ seg[:, i - 1:i + 1].reshape(K, 2 * W, k)
                                       ).reshape(K, 2, W, k)
            x = np.concatenate([x[:L + W], seg[:, -1].reshape(-1, k), x[L + W * (K * m + 1):]])
        for t in range(N):
            x[W * t:W * t + W + L] = self.Q[t].T @ x[W * t:W * t + W + L]
        z = self.Rinv @ x.reshape(N + 1, W, k)
        for t in range(N - 1, -1, -1):
            z[t] -= self.G[t] @ z[t + 1]
        if m > 1:   # each interior from its kept row, last first, every segment at once
            w, z = z, np.empty((T + 1, W, k))
            zs = z[1:K * m + 1].reshape(K, m, W, k)
            z[0], zs[:, 0], z[K * m + 1:] = w[0], w[1:K + 1], w[K + 1:]
            interior = self.Rs_inv @ seg[:, :-1] - self.GA @ zs[:, :1]
            after = z[m + 1:K * m + 2:m]
            for i in range(m - 1, 0, -1):
                zs[:, i] = after = interior[:, i - 1] - self.GB[i - 1] @ after
        return z.reshape(W * (T + 1), k)[LEAD:-TRAIL]

    def solve_transposed(self, c):
        """The solution of A^T x = c: forward substitution in U^T, the
        segments' kept rows first, then the interface's Q_t in reverse and
        the segments' run in reverse."""
        T, W, L, m, K, N = self.T, WIDTH, LEAD, self.m, self.K, len(self.Q)
        eta = _pad(c, T).reshape(T + 1, W)
        if m > 1:   # the kept rows' part, taken off the interface's columns
            cs = eta[1:K * m + 1].reshape(K, m, W)
            eta = np.concatenate([eta[:1], cs[:, 0], eta[K * m + 1:]])
            y = np.empty((K, m - 1, W))
            y[:, 0] = cs[:, 1] @ self.Rs_inv[0]
            for i in range(1, m - 1):
                y[:, i] = (cs[:, i + 1] - y[:, i - 1] @ self.B[i - 1]) @ self.Rs_inv[i]
            eta[1:K + 1] -= y.reshape(K, -1) @ self.A.reshape(-1, W)
            eta[2:K + 2] -= y[:, -1] @ self.B[-1]
        eta = (eta[:, np.newaxis] @ self.Rinv)[:, 0]       # R^-T c, per block
        for t in range(1, N + 1):
            eta[t] -= self.H[t - 1] @ eta[t - 1]
        x = eta.reshape(-1)
        for t in range(N - 1, -1, -1):
            x[W * t:W * t + W + L] = self.Q[t] @ x[W * t:W * t + W + L]
        if m > 1:   # the interface's rows back in place, then the segments' run in reverse
            out = np.empty(W * (T + 1))
            out[:L + W], out[L + W * (K * m + 1):] = x[:L + W], x[L + W * (K + 1):]
            seg = out[L + W:L + W * (K * m + 1)].reshape(K, m, W)
            seg[:, :-1], seg[:, -1] = y, x[L + W:L + W * (K + 1)].reshape(K, W)
            for i in range(m - 1, 0, -1):
                seg[:, i - 1:i + 1] = (seg[:, i - 1:i + 1].reshape(K, 2 * W) @ self.Qs[i - 1].T
                                       ).reshape(K, 2, W)
            x = out
        return x[LEAD:-TRAIL]


def dense_solve(params: ModelParams) -> Trajectory:
    """Solve the full-horizon stationarity system by segmented staircase
    QR, in O(T).

    One step of iterative refinement keeps the residual at roundoff level.
    Raises SingularSystemError (with a 1-norm condition estimate) if the
    stacked matrix is numerically singular.
    """
    T = params.horizon_T
    layout = period_layout(params)

    def residual(z):   # b - A z: minus the layout's rows, in the staircase's order
        return -stacked_rows(period_residual(unstack(z, T), layout))
    try:
        # the O(T) arrays first: a horizon too long for memory fails before any QR
        b = residual(np.zeros(WIDTH * T + LEAD))
        system = _Staircase(params)
        z, dz, cond = _solve_with_estimate(system.solve, system.solve_transposed, residual,
                                           system.a_norm, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(float("inf")) from exc
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(cond)
    return trajectory_from_blocks(unpack(unstack(z + dz, T)), params)


# ---------------------------------------------------------------------------
# Follower responses, re-solved by the sweep's reduction of the level
#
# A fixed leader path enters a follower level only through its right-hand
# side, so a batch of paths (leading axes, (..., T)) is one solve sharing the
# level's factorizations.  The responses come back with the same leading axes.
# ---------------------------------------------------------------------------

def solve_retailer_response(params: ModelParams, i_s, i_m):
    """Retailer stationarity response to fixed upstream paths.

    Solves the retailer's own first-order system (state equation, control
    FOC, costate recursion, and their boundary rows) for (i_r, x).  The paths
    may be batches of shape (..., T), solved in one call.
    """
    paths = _solve_level(params, "retailer", {"i_s": i_s, "i_m": i_m})
    return paths["i_r"], paths["x"]


def solve_inner_response(params: ModelParams, i_s):
    """Manufacturer-with-retailer stationarity response to a supplier path.

    Solves the complete inner first-order system (both followers) for
    (i_m, i_r, x).  ``i_s`` may be a batch of shape (..., T), solved in one
    call.
    """
    paths = _solve_level(params, "inner", {"i_s": i_s})
    return paths["i_m"], paths["i_r"], paths["x"]


# ---------------------------------------------------------------------------
# Stationarity checks against the objectives themselves
# ---------------------------------------------------------------------------

def _reaction(player, params, own, controls):
    """The state and the investments (x, i_s, i_m, i_r) along the player's
    followers' reaction, for each path of the batch ``own`` (..., T) of its
    own investments: its leaders' paths held at ``controls`` (S has none)
    and the rest recomputed, R's state rolled out, M's retailer response and
    S's inner response re-solved.  Paths of a horizon other than the
    params' are refused."""
    if own.shape[-1] != params.horizon_T:
        raise ValueError(f"the trajectory has horizon {own.shape[-1]}, "
                         f"the parameters horizon_T = {params.horizon_T}")
    if player == "R":
        return rollout(params, controls.i_s, controls.i_m, own), controls.i_s, controls.i_m, own
    if player == "M":
        i_r, x = solve_retailer_response(params, controls.i_s, own)
        return x, controls.i_s, own, i_r
    i_m, i_r, x = solve_inner_response(params, own)
    return x, own, i_m, i_r


def _probe_reactions(player, params, controls, steps):
    """The reactions (x, i_s, i_m, i_r) at the player's path plus and minus
    each row of ``steps`` (k, T), as two batches of k.

    The reaction is affine in the player's path: each follower level's
    right-hand side is affine in its fixed paths, and the rollout in i_r.
    So one batch solves the base path and the k +steps, and each -step's
    state and followers are the +step's reflected through the base,
    2 base - plus; its own path is the path minus the step, its leaders'
    are held."""
    own = "SMR".index(player)
    path = (controls.i_s, controls.i_m, controls.i_r)[own]
    x, *paths = _reaction(player, params, np.vstack([path, path + steps]), controls)
    leaders, followers = paths[:own], paths[own + 1:]
    plus = [x[1:], *leaders, *(p[1:] for p in paths[own:])]
    minus = [2.0 * x[0] - x[1:], *leaders, path - steps, *(2.0 * p[0] - p[1:] for p in followers)]
    return plus, minus


def _worst_slope(player, params, trajectory) -> float:
    """Max central-difference slope of the player's payoff along its
    followers' reaction, at the trajectory's path of the player, over the
    T coordinate directions: the infinity norm of the central-difference
    gradient, with a step scaled to the trajectory's investments.  The base
    path and the T +h probes are one batch, the -h probes their reflections
    (``_probe_reactions``)."""
    c = trajectory.controls
    h = 1e-5 * (1.0 + float(np.max(np.abs(c.stacked()))))
    plus, minus = _probe_reactions(player, params, c, h * np.eye(trajectory.horizon))
    q = trajectory.q[0]
    return float(np.max(np.abs(objective(player, params, *plus, q)
                               - objective(player, params, *minus, q)) / (2.0 * h)))


def follower_stationarity_check(trajectory: Trajectory, params: ModelParams,
                                level: str) -> float:
    """Max coordinate slope of a follower's objective along its re-solved
    reaction, which fixes its slope along every other direction; near zero
    exactly at a nested stationary point.

    Level R perturbs the retailer path with the state re-rolled.  Level M
    perturbs the manufacturer path and re-solves the retailer's response
    before differencing the manufacturer's objective.  Either way every
    probe is evaluated from one batched call (``_probe_reactions``).
    """
    if level not in ("R", "M"):
        raise ValueError(f"unknown follower level {level!r}; expected 'R' or 'M'")
    return _worst_slope(level, params, trajectory)


def leader_stationarity_check(trajectory: Trajectory, params: ModelParams) -> float:
    """Max coordinate slope of the supplier's objective with the whole
    follower subsystem re-solved for every probe: the base path and the +h
    probes in one solve, the -h probes reflected (``_probe_reactions``)."""
    return _worst_slope("S", params, trajectory)
