"""csrchain benchmark: one closed-loop caller running one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation starts when the previous one returns.  BLAS is
pinned to one thread.  Set-up (imports, input generation, warm-up) is timed
apart from the operations, and repeated in fresh processes so that
``setup_s`` is a median.  Operation timings are reported at a reference
machine speed (see speed.py); the raw wall times are kept in the result file.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics.  With ``--trace 1`` the operations of half the time
run untraced and then again traced; the traced results must match the
untraced ones bit for bit, and the JSON holds the per-layer metrics.  Results, facts about
the machine and the spans go to ``.perfbench_out/`` in the checkout.  A
failed output check exits with status 1, a checkout without the package
with status 2.
"""
import time

_STARTED = time.perf_counter()   # set-up is timed from here, imports included

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scenario_batch", "long_horizon", "verify_audit")
BLAS_THREADS = 1
SETUP_REPEATS = 5            # this process plus four fresh ones
TAIL_SAMPLES = 10            # samples required beyond the tail percentile

# kernel_s: calibration kernel time around the operation (see speed.py)
Record = namedtuple("Record", "seconds kernel_s outcome digest")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import csrchain from this checkout's src/, never from elsewhere."""
    if not (SRC / "csrchain" / "__init__.py").is_file():
        print(f"error: {SRC / 'csrchain'} not found; run from a csrchain source checkout",
              file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import csrchain
    if Path(csrchain.__file__).resolve().parent != (SRC / "csrchain").resolve():
        print(f"error: imported csrchain from {csrchain.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts():
    """Facts that must match for two results to be comparable."""
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    mem_kb = None
    try:
        with open("/proc/meminfo") as handle:
            mem_kb = int(next(l for l in handle if l.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb / 1024 if mem_kb else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_phase(plan, seconds, rounds=None, tracer=None):
    """Run whole rounds, closed loop: until ``seconds`` have passed and
    ``plan.min_rounds`` are done, or exactly ``rounds`` when given.  The
    calibration kernel runs between operations."""
    import speed

    records = []
    started = time.perf_counter()
    before = speed.kernel_seconds()
    done = 0
    while (done < rounds) if rounds is not None else (
            done < plan.min_rounds or time.perf_counter() - started < seconds):
        for _, op in plan.rounds[done % len(plan.rounds)]:
            span = tracer.op(len(records)) if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                outcome = op()
                elapsed = time.perf_counter() - t0
            after = speed.kernel_seconds()
            records.append(Record(elapsed, (before + after) / 2, outcome, outcome.digest()))
            outcome.arrays = ()   # keeps memory independent of the run's length
            before = after
        done += 1
    return {"records": records, "rounds": done, "wall_s": time.perf_counter() - started}


def scaled_seconds(records):
    """Operation times at the reference speed."""
    import speed

    return [r.seconds * speed.factor(r.kernel_s) for r in records]


def percentile(values, p):
    """Linear-interpolation percentile, p in [0, 1]."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(plan):
    """p90, or the highest percentile that has TAIL_SAMPLES samples beyond it
    in the smallest run the plan allows, so that it does not move with the
    number of rounds."""
    fewest = plan.min_rounds * len(plan.rounds[0])
    return min(0.9, 1.0 - TAIL_SAMPLES / fewest)


def digits_p10(errors):
    """Near-worst correct decimal digits: the 10th percentile over operations
    of -log10(error); 0 when no operation returned one."""
    digits = [-math.log10(max(e, sys.float_info.min)) for e in errors]
    return percentile(digits, 0.1) if digits else 0.0


def end_to_end(plan, phase, setup_samples, peak_rss_mb):
    records = phase["records"]
    times = scaled_seconds(records)
    outcomes = [r.outcome for r in records]
    failed = sum(o.failed for o in outcomes)
    p_tail = tail_percentile(plan)
    residuals = [o.residual_max for o in outcomes if o.residual_max is not None]
    inner = [o.inner_delta for o in outcomes if o.inner_delta is not None]
    # an operation completes when it returns, within tolerance or not
    completed_periods = sum(o.horizon for o in outcomes if o.error is None)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms_p50": (1e3 * percentile(times, 0.5), "ms"),
        "op_ms_p90": (1e3 * percentile(times, p_tail), "ms"),
        "periods_per_s": (completed_periods / sum(times), "1/s"),
        "residual_digits_p10": (digits_p10(residuals), "digits"),
        "inner_delta_digits_p10": (digits_p10(inner), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = [r.seconds for r in records]
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
        "op_ms_p50": f"raw {1e3 * percentile(raw, 0.5):.4g} ms",
        "op_ms_p90": f"p{100 * p_tail:.4g} of {len(times)} samples; "
                     f"raw {1e3 * percentile(raw, p_tail):.4g} ms",
        "periods_per_s": f"raw {completed_periods / sum(raw):.6g}",
        "residual_digits_p10": f"worst residual_max {max(residuals, default=math.nan):.3e}",
        "inner_delta_digits_p10": f"worst inner_consistency_delta "
                                  f"{max(inner, default=math.nan):.3e}",
    }
    return metrics, notes


PER_LAYER_UNITS = {
    "bytes_written": "B/op", "steps": "steps/op", "calls": "calls/op",
    "unknowns": "count", "matrix_bytes_computed": "B/op",
    "lu_flops_computed": "flop/op", "inner_share": "share", "errors": "count",
    "coverage": "share", "delta_max": "abs", "residual_max_worst": "abs",
    "inner_delta_max": "abs", "overhead_ms": "ms",
}


def per_layer(untraced, traced, tracer):
    import tracing

    outcomes = [r.outcome for r in traced["records"]]
    values = tracing.per_layer_metrics(tracer.spans, len(outcomes))

    def worst(field):
        return max((getattr(o, field) for o in outcomes if getattr(o, field) is not None),
                   default=0.0)

    values["sweep.solve_game.residual_max_worst"] = worst("residual_max")
    values["sweep.solve_game.inner_delta_max"] = worst("inner_delta")
    values["oracle.dense_solve.delta_max"] = worst("oracle_delta")
    values["trace.overhead_ms"] = 1e3 * (percentile(scaled_seconds(traced["records"]), 0.5)
                                         - percentile(scaled_seconds(untraced["records"]), 0.5))
    metrics = {}
    for name, value in values.items():
        stat = name.rsplit(".", 1)[1]
        unit = "ms/op" if stat in ("ms", "self_ms") else PER_LAYER_UNITS[stat]
        metrics[name] = (value, unit)
    return metrics, {}


def check_outcomes(plan, phase, label):
    """Every repeat of an input must reproduce its first result bit for bit."""
    problems = []
    first = dict(plan.reference_digests)
    width = len(plan.rounds[0])
    for index, record in enumerate(phase["records"]):
        key = ((index // width) % len(plan.rounds), index % width)
        if first.setdefault(key, record.digest) != record.digest:
            problems.append(f"{label}: op {index} (round {key[0]}, slot {key[1]}, "
                            f"T={record.outcome.horizon}) differs from the first run "
                            "of the same input")
    return problems


def setup_probes(args):
    """Set up again in fresh processes; returns their set-up seconds."""
    samples = []
    for k in range(1, SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--setup-probe", str(k)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    import numpy as np

    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe is not None:
        tag = f"{args.workload}-seed{args.seed}-probe{args.setup_probe}"
    work_dir = OUT / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    plan = workloads.PLANS[args.workload](np.random.default_rng(args.seed), work_dir)
    problems = plan.warm_up()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe is not None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # A traced run spends half its time untraced and half replaying the same
    # operations traced, so that every run lasts about --seconds.
    untraced = run_phase(plan, args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += check_outcomes(plan, untraced, "untraced")
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_phase(plan, args.seconds, rounds=untraced["rounds"], tracer=tracer)
        for index, (a, b) in enumerate(zip(untraced["records"], traced["records"])):
            if a.digest != b.digest:
                problems.append(f"traced op {index} (T={a.outcome.horizon}) "
                                "differs from untraced")
        tracer.write(work_dir / "spans.jsonl")
        metrics, notes = per_layer(untraced, traced, tracer)
    else:
        metrics, notes = end_to_end(plan, untraced, [setup_s] + setup_probes(args), peak_rss_mb)
    problems += plan.final_check()

    phase = traced if args.trace else untraced
    outcomes = [r.outcome for r in phase["records"]]
    attempted, failed = len(outcomes), sum(o.failed for o in outcomes)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": phase["rounds"], "wall_s": phase["wall_s"],
        "attempted": attempted, "failed": failed, "problems": problems,
        "facts": machine_facts(),
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k)}
                    for k, (v, u) in metrics.items()},
        "ops": [{"T": r.outcome.horizon, "ms": 1e3 * r.seconds, "kernel_ms": 1e3 * r.kernel_s,
                 "failed": r.outcome.failed, "error": r.outcome.error,
                 "residual_max": r.outcome.residual_max} for r in phase["records"]],
    }
    (work_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} ops in {phase['rounds']} rounds, {phase['wall_s']:.2f} s  "
          f"failed {failed} (fail_share {failed / attempted:.4g})")
    print("facts " + json.dumps(result["facts"]))
    for name, (value, unit) in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:<52} {value:>14.6g} {unit}{note}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
