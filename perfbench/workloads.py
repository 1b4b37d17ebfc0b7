"""Inputs and operations of the three benchmark workloads.

Each workload turns a seed into *rounds*: lists of operations whose horizons
are fixed by the workload and whose parameters are drawn from the seed.  The
timed phase runs whole rounds, cycling through them, so every run sees the
same mix of horizons and only the economic parameters change with the seed.

The operations call csrchain through module attributes (``sweep.solve_game``
and so on) at call time, so that the tracer can wrap them from outside the
package.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from csrchain import cli, model, oracle, output, scenario, sweep
from csrchain.errors import CsrChainError

TOLERANCE = 1e-8   # the scenario and CLI default

REFERENCE = dict(
    alpha=0.9, beta_s=0.3, beta_m=0.3, beta_r=0.2,
    tau=0.1, theta=0.05,
    delta_s=0.01, delta_m=0.02, delta_r=0.03,
    d=0.1, d_hat=0.1,
    a=10.0, b=1.0, v=2.0, z=12.0, c=1.0,
    x1=1.0, horizon_T=3,
)

_TRAJECTORY_ARRAYS = ("x", "q", "p_s", "p_m", "p_r", "u", "u_prime",
                      "w", "r", "lam", "lam_prime", "mu_prime", "nu")


def reference_params(horizon_T: int) -> model.ModelParams:
    return model.ModelParams(**{**REFERENCE, "horizon_T": horizon_T})


def draw_params(rng: np.random.Generator, horizon_T: int) -> model.ModelParams:
    """Random parameters inside ``ModelParams.validate``'s ranges.

    Same ranges as the test suite's randomized draws: tau and theta are kept
    away from zero and the social-benefit feedback moderate, so the stacked
    system stays well conditioned.
    """
    a = rng.uniform(5.0, 20.0)
    v = rng.uniform(0.2, 0.9) * a
    params = model.ModelParams(
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
    violations = params.validate()
    if violations:
        raise ValueError(f"input generator produced invalid parameters: {violations}")
    return params


@dataclass
class Outcome:
    """What one operation returned, reduced to what the benchmark checks."""

    horizon: int
    error: str | None = None          # "<type>: <message>" of a CsrChainError
    residual_max: float | None = None
    inner_delta: float | None = None
    oracle_delta: float | None = None
    values: tuple = ()                # further scalar results
    arrays: tuple = ()                # result arrays

    @property
    def failed(self) -> bool:
        # written so that a NaN residual counts as a miss
        return self.error is not None or not self.residual_max <= TOLERANCE

    def digest(self) -> str:
        """Hash of every bit of the outcome, for the bit-for-bit checks."""
        h = hashlib.blake2b(digest_size=16)
        h.update(repr(self.error).encode())
        for value in (self.residual_max, self.inner_delta, self.oracle_delta,
                      *self.values):
            h.update(b"-" if value is None else float(value).hex().encode())
        for array in self.arrays:
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()


def _error(horizon: int, exc: CsrChainError) -> Outcome:
    return Outcome(horizon, error=f"{type(exc).__name__}: {exc}")


def _trajectory_arrays(trajectory) -> tuple:
    c = trajectory.controls
    extra = tuple(getattr(trajectory, name) for name in _TRAJECTORY_ARRAYS)
    return (c.i_s, c.i_m, c.i_r) + tuple(a for a in extra if a is not None)


def _report_values(report) -> tuple:
    return (report.residual_rms, report.objective_supplier,
            report.objective_manufacturer, report.objective_retailer,
            report.quantity, report.oracle_residual_max)


@dataclass
class Plan:
    """A workload instantiated from one seed.

    ``rounds`` holds the distinct rounds, each a list of (horizon, operation)
    with the same horizons in the same order; round r of a run is
    ``rounds[r % len(rounds)]``.  ``warm_up`` runs during set-up and returns
    the problems it found, as does ``final_check`` after the timed phase.
    ``reference_digests`` maps (round, slot) to the digest its outcome must
    have, where set-up already ran it.
    """

    rounds: list[list[tuple[int, Callable[[], Outcome]]]]
    min_rounds: int
    warm_up: Callable[[], list[str]]
    final_check: Callable[[], list[str]] = lambda: []
    reference_digests: dict[tuple[int, int], str] = field(default_factory=dict)


def _warm_blas() -> None:
    """Pay the first dense factorization and LAPACK start-up in set-up."""
    oracle.dense_solve(reference_params(10))


# ---------------------------------------------------------------------------
# scenario_batch: many short scenarios through the command-line path
# ---------------------------------------------------------------------------

SCENARIO_HORIZONS = range(1, 13)
SCENARIO_DRAWS_PER_HORIZON = 8


def _scenario_text(name: str, params: model.ModelParams) -> str:
    fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)
              if f.name != "strict_alpha"}
    lines = [f"name = {name}"]
    lines += [f"{key} = {value if key == 'horizon_T' else repr(float(value))}"
              for key, value in fields.items()]
    lines += ["oracle = true", f"tolerance = {TOLERANCE!r}", "seed = 0"]
    return "\n".join(lines) + "\n"


def _scenario_op(path: Path, out_dir: Path, horizon: int) -> Callable[[], Outcome]:
    """load_scenario -> cli.run (oracle on) -> emit_csv + emit_report."""
    def op() -> Outcome:
        try:
            scen = scenario.load_scenario(path)
            trajectory, report = cli.run(scen)
        except CsrChainError as exc:
            return _error(horizon, exc)
        output.emit_csv(trajectory, out_dir / f"{scen.name}.trajectory.csv")
        output.emit_report(report, out_dir / f"{scen.name}.report")
        return Outcome(horizon, residual_max=report.residual_max,
                       inner_delta=report.inner_consistency_delta,
                       oracle_delta=report.oracle_max_delta,
                       values=_report_values(report),
                       arrays=_trajectory_arrays(trajectory))
    return op


def plan_scenario_batch(rng: np.random.Generator, work_dir: Path) -> Plan:
    scenario_dir = work_dir / "scenarios"
    out_dir = work_dir / "artifacts"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [("reference", reference_params(3))]
    for k in range(SCENARIO_DRAWS_PER_HORIZON):
        for T in SCENARIO_HORIZONS:
            inputs.append((f"draw{k}-T{T:02d}", draw_params(rng, T)))
    round_ = []
    for name, params in inputs:
        path = scenario_dir / f"{name}.scenario"
        path.write_text(_scenario_text(name, params))
        round_.append((params.horizon_T, _scenario_op(path, out_dir, params.horizon_T)))
    names = [name for name, _ in inputs]
    emitted: dict[str, bytes] = {}
    first_digests: dict[tuple[int, int], str] = {}

    def artifact_paths(name):
        return (out_dir / f"{name}.trajectory.csv", out_dir / f"{name}.report")

    def warm_up() -> list[str]:
        """One pass over every scenario; each CSV must parse back exactly."""
        _warm_blas()
        problems = []
        for index, (name, (_, op)) in enumerate(zip(names, round_)):
            outcome = op()
            first_digests[0, index] = outcome.digest()
            if outcome.error is not None:
                continue
            csv_path, report_path = artifact_paths(name)
            # the CSV columns lead _TRAJECTORY_ARRAYS, so the parsed arrays
            # are a prefix of the solved ones
            parsed = _trajectory_arrays(output.parse_csv(csv_path))
            if not all(np.array_equal(a, b) for a, b in zip(parsed, outcome.arrays)):
                problems.append(f"{name}: CSV does not parse back to the solved trajectory")
            emitted[name] = csv_path.read_bytes() + b"\0" + report_path.read_bytes()
        return problems

    def final_check() -> list[str]:
        """Artifacts of a repeated input must be byte-identical to the first."""
        problems = []
        for name, first in emitted.items():
            csv_path, report_path = artifact_paths(name)
            if csv_path.read_bytes() + b"\0" + report_path.read_bytes() != first:
                problems.append(f"{name}: repeated input emitted different bytes")
        return problems

    return Plan(rounds=[round_], min_rounds=2, warm_up=warm_up,
                final_check=final_check, reference_digests=first_digests)


# ---------------------------------------------------------------------------
# long_horizon: solve_game alone at T = 500..10000
# ---------------------------------------------------------------------------

# The reference parameters miss the tolerance from T = 115 and break down at
# T = 10000; both stay in the round so that these defects show.  Sorted by
# time, the round falls into groups of one, two, three (T = 2000 and the
# T = 10000 breakdown), two (T = 4000) and one operation, so the median and
# the tail percentile each land inside a group, not on an edge.
LONG_REFERENCE_HORIZONS = (500, 1000, 2000, 10000)
LONG_DRAW_HORIZONS = (1000, 2000, 4000, 4000, 10000)


def _solve_op(params: model.ModelParams) -> Callable[[], Outcome]:
    T = params.horizon_T

    def op() -> Outcome:
        try:
            trajectory, report = sweep.solve_game(params)
        except CsrChainError as exc:
            return _error(T, exc)
        return Outcome(T, residual_max=report.residual_max,
                       inner_delta=report.inner_consistency_delta,
                       values=_report_values(report),
                       arrays=_trajectory_arrays(trajectory))
    return op


def plan_long_horizon(rng: np.random.Generator, work_dir: Path) -> Plan:
    inputs = [reference_params(T) for T in LONG_REFERENCE_HORIZONS]
    inputs += [draw_params(rng, T) for T in LONG_DRAW_HORIZONS]

    def warm_up() -> list[str]:
        _warm_blas()
        sweep.solve_game(reference_params(100))
        return []

    return Plan(rounds=[[(p.horizon_T, _solve_op(p)) for p in inputs]],
                min_rounds=5, warm_up=warm_up)


# ---------------------------------------------------------------------------
# verify_audit: every verification path at T = 20..60
# ---------------------------------------------------------------------------

AUDIT_HORIZONS = (20, 30, 40, 50, 60)
# Fresh parameters every round: the near-worst accuracy over a run's few
# audit ops would otherwise rest on five draws.
AUDIT_ROUNDS = 40


def _audit_op(params: model.ModelParams) -> Callable[[], Outcome]:
    """solve_game, dense_solve, their delta, and the three stationarity checks."""
    T = params.horizon_T

    def op() -> Outcome:
        try:
            trajectory, report = sweep.solve_game(params)
            dense = oracle.dense_solve(params)
        except CsrChainError as exc:
            return _error(T, exc)
        delta = model.trajectory_max_delta(trajectory, dense)
        checks = (
            oracle.follower_stationarity_check(trajectory, params, "R"),
            oracle.follower_stationarity_check(trajectory, params, "M"),
            oracle.leader_stationarity_check(trajectory, params),
        )
        return Outcome(T, residual_max=report.residual_max,
                       inner_delta=report.inner_consistency_delta,
                       oracle_delta=delta,
                       values=_report_values(report) + checks,
                       arrays=_trajectory_arrays(trajectory) + _trajectory_arrays(dense))
    return op


def plan_verify_audit(rng: np.random.Generator, work_dir: Path) -> Plan:
    rounds = [[(T, _audit_op(draw_params(rng, T))) for T in AUDIT_HORIZONS]
              for _ in range(AUDIT_ROUNDS)]

    def warm_up() -> list[str]:
        _warm_blas()
        rounds[0][0][1]()
        return []

    return Plan(rounds=rounds, min_rounds=8, warm_up=warm_up)


PLANS = {
    "scenario_batch": plan_scenario_batch,
    "long_horizon": plan_long_horizon,
    "verify_audit": plan_verify_audit,
}
