"""Command-line entry point: load a scenario, solve, emit artifacts.

    csrchain solve SCENARIO_FILE [--out-dir DIR] [--oracle]
                   [--tolerance EPS] [--seed N] [--no-strict-alpha]

Writes ``<name>.trajectory.csv`` and ``<name>.report`` into the output
directory.  Exit status is 0 only when the solve succeeded and its residual
max-norm is within the configured tolerance; scenario problems exit with 2,
solver failures with 1.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CsrChainError, ScenarioError
from .model import trajectory_max_delta
from .oracle import dense_solve
from .output import emit_csv, emit_report
from .scenario import Scenario, load_scenario
from .stationarity import residual_norms
from .sweep import solve_game


def run(scenario: Scenario):
    """Solve one scenario, returning (trajectory, report).

    When the scenario asks for the oracle cross-check, the dense solver runs
    as well and the report carries the maximum sweep-versus-dense delta.
    """
    trajectory, report = solve_game(
        scenario.params,
        scenario_name=scenario.name,
        tolerance=scenario.tolerance,
        seed=scenario.seed,
    )
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
                       help="also run the dense oracle and report the delta")
    solve.add_argument("--tolerance", type=float, default=None,
                       help="residual max-norm accepted as a successful solve")
    solve.add_argument("--seed", type=int, default=None,
                       help="seed recorded in the report")
    solve.add_argument("--no-strict-alpha", action="store_true",
                       help="allow carryover rates above 1")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(
            args.scenario,
            strict_alpha=False if args.no_strict_alpha else None,
        ).with_overrides(
            oracle=args.oracle,
            tolerance=args.tolerance,
            seed=args.seed,
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        trajectory, report = run(scenario)
    except CsrChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(trajectory, out_dir / f"{scenario.name}.trajectory.csv")
    emit_report(report, out_dir / f"{scenario.name}.report")
    if report.residual_max > scenario.tolerance:
        print(
            f"error: residual max-norm {report.residual_max:.3e} exceeds "
            f"tolerance {scenario.tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    if report.convexity_warning:
        print(
            "warning: stationary point is not a local maximum in own control "
            "(tau*theta > 0)",
            file=sys.stderr,
        )
    if report.negative_investment_warning:
        print("warning: some equilibrium investments are negative", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
