"""Artifact emission: trajectory CSV and the run report.

Both writers are byte-deterministic: fixed field order, fixed 17
significant-digit formatting, LF newlines.  The report deliberately omits
wall-clock timing (kept on the in-memory report only) so that identical runs
produce identical files.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .model import Controls, Trajectory
from .stationarity import BLOCKS, trajectory_blocks
from .sweep import SolveReport

CSV_HEADER = ["t", "x", "i_s", "i_m", "i_r", "q", "p_s", "p_m", "p_r", "u", "u_prime"]
# Every column after t as (name, first time, last time as an offset from T):
# the span of its block in stationarity.BLOCKS; q spans the controls' periods.
_SPANS = {**{name: (first, last) for name, first, last in BLOCKS}, "q": (1, 0)}
_COLUMNS = [(name, *_SPANS[name]) for name in CSV_HEADER[1:]]


def _fmt(value) -> str:
    return format(float(value), ".17g")


def emit_csv(trajectory: Trajectory, path) -> None:
    """Write the trajectory as CSV: one row per period plus a terminal row.

    Row t carries the values indexed at time t; a cell is empty where its
    path does not reach time t: costate cells at t = 1 (costates start at
    time 2), control and quantity cells on the terminal row.
    """
    T = trajectory.horizon
    paths = {**trajectory_blocks(trajectory), "q": trajectory.q}
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for t in range(1, T + 2):
        cells = [_fmt(paths[name][t - first]) if first <= t <= T + last else ""
                 for name, first, last in _COLUMNS]
        writer.writerow([t, *cells])
    Path(path).write_text(buffer.getvalue())


def parse_csv(path) -> Trajectory:
    """Re-read a trajectory CSV into a Trajectory.

    Only the reported columns are recovered; the auxiliary adjoint fields
    are left unset.  Raises ValueError for a file that ``emit_csv`` cannot
    have written: a wrong header, fewer than two data rows (one period plus
    the terminal row), a row without one cell per column, or ``t`` cells
    that are not the integers 1..T+1 in order.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    data = rows[1:]
    if len(data) < 2:
        raise ValueError(f"truncated CSV {path}: {len(data)} data rows, need at "
                         "least one period and the terminal row")
    for t, row in enumerate(data, start=1):
        line = t + 1
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"line {line} of {path} has {len(row)} cells, "
                             f"expected {len(CSV_HEADER)}")
        if row[0] != str(t):
            raise ValueError(f"line {line} of {path} has t = {row[0]!r}, expected {t}")
    T = len(data) - 1
    paths = {name: np.array([float(row[column]) for row in data[first - 1:T + last]])
             for column, (name, first, last) in enumerate(_COLUMNS, start=1)}
    controls = Controls(i_s=paths.pop("i_s"), i_m=paths.pop("i_m"), i_r=paths.pop("i_r"))
    return Trajectory(controls=controls, **paths)


def render_report(report: SolveReport) -> str:
    """Stable-order key: value rendering of a solve report.

    The oracle fields appear only when the oracle ran; timing is omitted for
    byte-for-byte reproducibility.
    """
    lines = [
        f"scenario: {report.scenario_name}",
        f"horizon_T: {report.horizon_T}",
        f"solver_path: {report.solver_path}",
        f"seed: {report.seed}",
        f"tolerance: {_fmt(report.tolerance)}",
        f"residual_max: {_fmt(report.residual_max)}",
        f"residual_rms: {_fmt(report.residual_rms)}",
        f"objective_supplier: {_fmt(report.objective_supplier)}",
        f"objective_manufacturer: {_fmt(report.objective_manufacturer)}",
        f"objective_retailer: {_fmt(report.objective_retailer)}",
        f"quantity: {_fmt(report.quantity)}",
        f"convexity_warning: {str(report.convexity_warning).lower()}",
        f"negative_investment_warning: {str(report.negative_investment_warning).lower()}",
        f"inner_consistency_delta: {_fmt(report.inner_consistency_delta)}",
    ]
    if report.oracle_max_delta is not None:
        lines.append(f"oracle_max_delta: {_fmt(report.oracle_max_delta)}")
        lines.append(f"oracle_residual_max: {_fmt(report.oracle_residual_max)}")
    return "\n".join(lines) + "\n"


def emit_report(report: SolveReport, path) -> None:
    """Write the report in the documented key: value schema."""
    Path(path).write_text(render_report(report))
