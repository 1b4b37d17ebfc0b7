"""In-memory spans around csrchain's public functions, recorded from outside.

``Tracer.installed()`` rebinds each traced function, in every csrchain module
that holds it, to a wrapper that records a span: name, start, end, parent and
the operation it belongs to.  Calls made inside the package (``solve_game``
calling ``backward_sweep``) resolve the name through their module's globals,
so they are traced too, and nothing under ``src/`` changes.  Leaving the
context restores the original bindings.

Counts that the metrics need are recorded on the span where the work
happens: backward-sweep steps, the size of the assembled system, the LU flops
of the dense solve and the bytes written.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

from csrchain.errors import CsrChainError, SweepSingularError

# (module, function) pairs that get a span; follower_stationarity_check is
# split by level into oracle.follower_check_R and oracle.follower_check_M.
TRACED = (
    ("scenario", "load_scenario"),
    ("cli", "run"),
    ("output", "emit_csv"),
    ("output", "emit_report"),
    ("sweep", "solve_game"),
    ("sweep", "assemble_augmented"),
    ("sweep", "backward_sweep"),
    ("sweep", "forward_pass"),
    ("sweep", "solve_inner_given_supplier"),
    ("stationarity", "residual_norms"),
    ("stationarity", "assemble_system"),
    ("model", "total_objective"),
    ("model", "rollout"),
    ("oracle", "dense_solve"),
    ("oracle", "solve_retailer_response"),
    ("oracle", "solve_inner_response"),
    ("oracle", "follower_stationarity_check"),
    ("oracle", "leader_stationarity_check"),
)

OP_SPAN = "bench.op"


def _span_name(module: str, function: str, args, kwargs) -> str:
    if function == "follower_stationarity_check":
        level = kwargs.get("level", args[2] if len(args) > 2 else None)
        return f"oracle.follower_check_{level}"
    return f"{module}.{function}"


def _counts(name: str, args, result, exc) -> dict | None:
    """Work done by one call, read off its arguments and result."""
    if name == "sweep.backward_sweep":
        horizon = args[0].horizon
        if isinstance(exc, SweepSingularError):
            return {"steps": horizon - exc.time_index + 1}
        return {"steps": horizon} if exc is None else None
    if name == "stationarity.assemble_system" and exc is None:
        n = result.matrix.shape[0]
        return {"unknowns": n, "matrix_bytes_computed": 8.0 * n * n}
    if name == "oracle.dense_solve":
        n = 15 * args[0].horizon_T + 4
        return {"lu_flops_computed": 2.0 / 3.0 * n ** 3}
    if name in ("output.emit_csv", "output.emit_report") and exc is None:
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """Records spans in memory; ``write`` saves them as JSON lines."""

    def __init__(self):
        self.spans = []        # (op, id, parent, name, start, end, self_s, error, counts)
        self._stack = []       # [span id, start, child seconds]
        self._op = None
        self._next_id = 0

    def _enter(self):
        self._next_id += 1
        self._stack.append([self._next_id, time.perf_counter(), 0.0])

    def _exit(self, name, error=None, counts=None):
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans.append((self._op, span_id, parent[0] if parent else None, name,
                           start, end, end - start - child, error, counts))

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one benchmark operation."""
        self._op = index
        self._enter()
        try:
            yield
        finally:
            self._exit(OP_SPAN)
            self._op = None

    def _wrap(self, module: str, function: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = _span_name(module, function, args, kwargs)
            self._enter()
            try:
                result = original(*args, **kwargs)
            except CsrChainError as exc:
                self._exit(name, type(exc).__name__, _counts(name, args, None, exc))
                raise
            except BaseException:
                self._exit(name, "other")
                raise
            self._exit(name, None, _counts(name, args, result, None))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every csrchain module."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "csrchain" or key.startswith("csrchain."))]
        saved = []
        try:
            for module_name, function in TRACED:
                original = getattr(sys.modules[f"csrchain.{module_name}"], function)
                wrapper = self._wrap(module_name, function, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start", "end", "self_s", "error", "counts")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    Times, calls and counts are totals divided by the number of operations.
    The ``_computed`` counts come from array sizes, not from measurement:
    n = 15T + 4 unknowns, 8 n^2 matrix bytes, (2/3) n^3 LU flops.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    counts = defaultdict(float)
    op_ids = set()
    op_time = 0.0
    for _, span_id, _, name, start, end, *_ in spans:
        if name == OP_SPAN:
            op_ids.add(span_id)
            op_time += end - start
    covered = 0.0
    for _, _, parent, name, start, end, self_s, error, extra in spans:
        if name == OP_SPAN:
            continue
        total[name] += end - start
        self_time[name] += self_s
        calls[name] += 1
        if error is not None:
            errors[name] += 1
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
        if parent in op_ids:
            covered += end - start

    def ms(name):
        return 1e3 * total[name] / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "scenario.load_scenario.ms": ms("scenario.load_scenario"),
        "cli.run.self_ms": 1e3 * self_time["cli.run"] / n_ops,
        "output.emit_csv.ms": ms("output.emit_csv"),
        "output.emit_report.ms": ms("output.emit_report"),
        "output.bytes_written": (counts["output.emit_csv.bytes"]
                                 + counts["output.emit_report.bytes"]) / n_ops,
        "sweep.solve_game.ms": ms("sweep.solve_game"),
        "sweep.solve_game.self_ms": 1e3 * self_time["sweep.solve_game"] / n_ops,
        "sweep.assemble_augmented.ms": ms("sweep.assemble_augmented"),
        "sweep.backward_sweep.ms": ms("sweep.backward_sweep"),
        "sweep.backward_sweep.steps": counts["sweep.backward_sweep.steps"] / n_ops,
        "sweep.forward_pass.ms": ms("sweep.forward_pass"),
        "sweep.solve_inner_given_supplier.ms": ms("sweep.solve_inner_given_supplier"),
        "sweep.inner_share": ratio(total["sweep.solve_inner_given_supplier"],
                                   total["sweep.solve_game"]),
        "sweep.errors": errors["sweep.solve_game"],
        "stationarity.residual_norms.ms": ms("stationarity.residual_norms"),
        "model.total_objective.ms": ms("model.total_objective"),
        "model.rollout.ms": ms("model.rollout"),
        "oracle.dense_solve.ms": ms("oracle.dense_solve"),
        "oracle.dense_solve.self_ms": 1e3 * self_time["oracle.dense_solve"] / n_ops,
        "oracle.dense_solve.lu_flops_computed":
            counts["oracle.dense_solve.lu_flops_computed"] / n_ops,
        "stationarity.assemble_system.ms": ms("stationarity.assemble_system"),
        "stationarity.assemble_system.unknowns": ratio(
            counts["stationarity.assemble_system.unknowns"],
            calls["stationarity.assemble_system"]),
        "stationarity.assemble_system.matrix_bytes_computed":
            counts["stationarity.assemble_system.matrix_bytes_computed"] / n_ops,
        "oracle.solve_retailer_response.calls": calls["oracle.solve_retailer_response"] / n_ops,
        "oracle.solve_retailer_response.ms": ms("oracle.solve_retailer_response"),
        "oracle.solve_inner_response.calls": calls["oracle.solve_inner_response"] / n_ops,
        "oracle.solve_inner_response.ms": ms("oracle.solve_inner_response"),
        "oracle.follower_check_R.ms": ms("oracle.follower_check_R"),
        "oracle.follower_check_M.ms": ms("oracle.follower_check_M"),
        "oracle.leader_stationarity_check.ms": ms("oracle.leader_stationarity_check"),
        "oracle.errors": errors["oracle.dense_solve"],
        "trace.coverage": ratio(covered, op_time),
    }
