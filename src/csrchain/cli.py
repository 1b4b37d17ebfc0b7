"""Command-line entry point: load a scenario, solve, emit artifacts.

    csrchain solve SCENARIO_FILE [--out-dir DIR] [--oracle]
                   [--tolerance EPS] [--seed N] [--no-strict-alpha]

Writes ``<name>.trajectory.csv`` and ``<name>.report`` into the output
directory; the option flags override the file's solver options.  Exit status is
0 only when the solve succeeded, every report value is finite and the residual
max-norm is within tolerance; scenario problems and an unwritable output
directory exit 2, solver failures, running out of memory and non-finite
results 1.  When a write fails, the artifact the run had already written is
removed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import CsrChainError, ScenarioError
from .model import trajectory_max_delta
from .oracle import dense_solve
from .output import emit_csv, emit_report
from .scenario import Scenario, load_scenario
from .stationarity import residual_norms
from .sweep import solve_game


def run(scenario: Scenario):
    """Solve one scenario, returning (trajectory, report).

    The report carries the scenario's name, seed and tolerance.  When the
    scenario asks for the oracle cross-check, the oracle's staircase QR
    solves the whole stacked system as well, and the report carries the
    maximum sweep-versus-oracle delta and the oracle's residual.  A nearly
    singular system makes the oracle raise SingularSystemError, naming its
    condition estimate.
    """
    trajectory, report = solve_game(scenario.params)
    report.scenario_name = scenario.name
    report.seed = scenario.seed
    report.tolerance = scenario.tolerance
    if scenario.oracle:
        reference = dense_solve(scenario.params)
        report.oracle_max_delta = trajectory_max_delta(trajectory, reference)
        report.oracle_residual_max = residual_norms(reference, scenario.params)[0]
    return trajectory, report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="csrchain",
        description=(
            "Finite-horizon dynamic Stackelberg solver for CSR investment "
            "in a three-tier supply chain."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve one scenario file")
    solve.add_argument("scenario", help="path to the scenario file")
    solve.add_argument("--out-dir", default=".",
                       help="directory for the CSV and report (default: .)")
    solve.add_argument("--oracle", action="store_true", default=None,
                       help="also solve by the staircase-QR oracle and report the delta")
    solve.add_argument("--tolerance", type=float, default=None,
                       help="residual max-norm accepted as a successful solve")
    solve.add_argument("--seed", type=int, default=None,
                       help="seed recorded in the report")
    solve.add_argument("--no-strict-alpha", dest="strict_alpha", action="store_false",
                       default=None, help="allow carryover rates above 1")
    return parser


def main(argv=None) -> int:
    """Run the command line and return its exit status.  Every successful
    run warns on stderr that its stationary point is no local maximum in own
    control, as every solved game has tau*theta > 0."""
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, oracle=args.oracle, tolerance=args.tolerance,
                                 seed=args.seed, strict_alpha=args.strict_alpha)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # numpy's overflow warnings give way to the error naming what overflowed
        with np.errstate(all="ignore"):
            trajectory, report = run(scenario)
    except CsrChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory solving horizon_T = {scenario.params.horizon_T}: "
              f"{str(exc) or 'no detail'}", file=sys.stderr)
        return 1
    for name, value in vars(report).items():
        if isinstance(value, float) and not np.isfinite(value):
            print(f"error: {name} is {value}, not a finite number", file=sys.stderr)
            return 1
    out_dir = path = Path(args.out_dir)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for emit, result, suffix in ((emit_csv, trajectory, "trajectory.csv"),
                                     (emit_report, report, "report")):
            path = out_dir / f"{scenario.name}.{suffix}"
            emit(result, path)
            written.append(path)
    except OSError as exc:
        # no half artifact set: drop what this run wrote before the failure
        for done in written:
            done.unlink(missing_ok=True)
        print(f"error: cannot write artifacts to {out_dir}: {exc.filename or path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    if report.residual_max > scenario.tolerance:
        print(
            f"error: residual max-norm {report.residual_max:.3e} exceeds "
            f"tolerance {scenario.tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    print("warning: stationary point is not a local maximum in own control "
          "(tau*theta > 0)", file=sys.stderr)
    if report.negative_investment_warning:
        print("warning: some equilibrium investments are negative", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
