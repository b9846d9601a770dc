"""Benchmark for convecon: the audit, solve and logs workloads.

    python3 perfbench/run.py --workload {audit,solve,logs} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It imports ``convecon`` from the
checkout's ``src/``, never an installed copy, and exits non-zero without a
result when there are no sources there.

One process with one thread acts as a single closed-loop caller.
``--seed`` shuffles the workload's pool of distinct cases, and the run takes
cases from the front of that order, each once, until ``--seconds`` have
passed and there are enough operations for the tail percentile, or until
the pool is used up. Every output is checked against the reference
recorded with the case. An operation fails on a mismatch (exit codes
included), a non-finite number, an exit code outside 0, 2, 3, 4, or an
exception. The CLI turns ``EconError`` into its documented exit codes 2, 3
and 4; those are outcomes, not failures.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics. With ``--trace 1`` the run takes a fixed number of cases
for its ``--seconds``, runs each once untraced and once traced, and the
result holds the per-layer metrics of the traced calls, per operation, and
the tracing overhead: traced over untraced time. The line before the result
is the run's context: versions, counts, grids and why the workload was
chosen. Spans go to ``.perfbench/trace-<workload>.npz``.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS must not start a pool of its own (set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_PROBES = 7
# Past this many seconds no further operation starts, so a run ends within 180 s.
DEADLINE_S = 120.0
SHOWN_FAILURES = 5


def load_program():
    """Import convecon from this checkout's ``src/`` and prove where it came from."""
    package = SRC / "convecon" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no convecon sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import convecon

    if Path(convecon.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported convecon from {convecon.__file__}, not {package}")
    return convecon


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "solve", "logs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a child process that only sets up, for setup_s.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclass
class Ops:
    """What a sequence of operations produced."""

    latencies: list = field(default_factory=list)
    items: int = 0
    out_bytes: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


def run_op(workload, case, index, out: Ops, tracer=None) -> None:
    """Run one case, timing it, and check and count its output."""
    error = None
    with tracer.op(index) if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            result = workload.run(case)
        except Exception as exc:  # judged below, with the output checks
            error = exc
        out.latencies.append(time.perf_counter() - t0)
    try:
        if error is not None:
            raise error
        outcome = workload.outcome(case, result)
    except Exception as exc:  # the loop must go on and report the failure
        out.failed += 1
        if len(out.failures) < SHOWN_FAILURES:
            out.failures.append(f"case {index}: {type(exc).__name__}: {exc}")
            traceback.print_exception(exc, file=sys.stderr)
        return
    out.items += outcome["items"]
    out.out_bytes += outcome["out_bytes"]
    out.counts.update(outcome["counts"])


def measure_setup(args) -> list[float]:
    """Seconds from starting a process to the end of its set-up, per probe.

    Each probe is a fresh interpreter that imports convecon, loads and
    prepares the cases, then prints ``ready``; the time is taken when that
    line arrives.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
        times.append(ready - start)
    return times


def end_to_end(workload, ops: Ops, setup_times: list[float]) -> dict:
    latencies = np.array(ops.latencies)
    attempted = len(ops.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (ops.items / latencies.sum(), "1/s"),
        "op_ms_p50": (float(np.median(latencies)) * 1e3, "ms"),
        "op_ms_tail": (float(np.percentile(latencies, workload.tail)) * 1e3, "ms"),
        "out_bytes_per_item": (ops.out_bytes / ops.items if ops.items else float(ops.out_bytes), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - ops.failed / attempted, "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# Workload-specific names of the generic end-to-end metrics, repeated in the context line.
WORKLOAD_NAMES = {
    "audit": {"audit_samples_per_s": "items_per_s"},
    "solve": {"solve_ms_p50": "op_ms_p50", "solve_ms_p99": "op_ms_tail", "solve_req_per_s": "items_per_s"},
    "logs": {"logs_sessions_per_s": "items_per_s", "logs_bytes_per_session": "out_bytes_per_item"},
}


def per_layer(summary: dict, counts: Counter, ops: int, overhead_frac: float) -> dict:
    """The per-layer metrics BENCHMARK.json lists, per traced operation.

    A name ending in ``.calls``, ``.self_s`` or ``.p50_us`` is that statistic
    of the span named by the rest; ``trace.overhead_frac`` is the tracing
    overhead; any other name is a counter.
    """
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        span, _, stat = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif stat == "p50_us":
            value = summary.get(span, {}).get(stat, 0.0)
        elif stat in ("calls", "self_s"):
            value = summary.get(span, {}).get(stat, 0) / ops
        else:
            value = counts[name] / ops
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def base_context(workload, args, cases) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "program": str(SRC / "convecon"),
        "loop": "closed, one caller, one thread",
        "pool_cases": len(cases),
        "item": workload.item,
        **workload.context(),
    }


def op_counts(ops: Ops) -> dict:
    return {
        "ops": len(ops.latencies),
        "items": ops.items,
        "failed": ops.failed,
        "failures": ops.failures,
        "op_s": sum(ops.latencies),
        "counts_per_op": {key: value / len(ops.latencies) for key, value in sorted(ops.counts.items())},
    }


def timed(workload, order, args, setup_times):
    ops = Ops()
    started = time.perf_counter()
    for index, case in order:
        run_op(workload, case, index, ops)
        elapsed = time.perf_counter() - started
        if (elapsed >= args.seconds and len(ops.latencies) >= workload.min_ops) or elapsed >= DEADLINE_S:
            break
    metrics = end_to_end(workload, ops, setup_times)
    tail = metrics["op_ms_tail"]["value"] / 1e3
    context = {
        **op_counts(ops),
        "pool_used_up": len(ops.latencies) == len(order),
        "tail_percentile": workload.tail,
        "ops_beyond_tail": sum(1 for x in ops.latencies if x > tail),
        "setup_probes_s": setup_times,
        "named_metrics": {
            "setup_s": metrics["setup_s"]["value"],
            "failed_frac": ops.failed / len(ops.latencies),
            "peak_rss_mb": metrics["peak_rss_mb"]["value"],
            **{named: metrics[ours]["value"] for named, ours in WORKLOAD_NAMES[workload.name].items()},
        },
    }
    return len(ops.latencies), ops.failed, metrics, context


def traced(workload, order, args):
    """Each of a fixed number of cases runs once untraced and once traced.

    The number of cases depends only on ``--seconds``, so a seed's counts
    repeat exactly. The two runs of a case alternate their order (untraced
    first, then traced first), so that drift in machine speed cancels out of
    the overhead.
    """
    from tracing import Tracer

    untraced, ops, tracer = Ops(), Ops(), Tracer()
    started = time.perf_counter()
    for k, (index, case) in enumerate(order[:math.ceil(args.seconds * workload.trace_ops_per_s)]):
        for tracing in (False, True) if k % 2 == 0 else (True, False):
            if not tracing:
                run_op(workload, case, index, untraced)
                continue
            tracer.install()
            try:
                run_op(workload, case, index, ops, tracer)
            finally:
                tracer.uninstall()
        if time.perf_counter() - started >= DEADLINE_S:
            break
    spans = tracer.arrays()
    counts = ops.counts + tracer.counts
    untraced_s, traced_s = sum(untraced.latencies), sum(ops.latencies)
    metrics = per_layer(tracer.summary(spans), counts, len(ops.latencies), traced_s / untraced_s - 1.0)
    trace_path = SCRATCH / f"trace-{workload.name}.npz"
    tracer.write(trace_path, spans)
    context = {
        **op_counts(ops),
        "untraced_failures": untraced.failures,
        # program counts from the outputs plus those the tracer took at call boundaries
        "counts_per_op": {key: value / len(ops.latencies) for key, value in sorted(counts.items())},
        "spans": len(tracer.start),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "untraced_op_s": untraced_s,
        "overhead_s_per_op": (traced_s - untraced_s) / len(ops.latencies),
    }
    attempted = len(untraced.latencies) + len(ops.latencies)
    return attempted, untraced.failed + ops.failed, metrics, context


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_times = [] if args.setup_probe or args.trace else measure_setup(args)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        cases = workload.prepare(workload.load(), workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        order = [(int(i), cases[i]) for i in np.random.default_rng(args.seed).permutation(len(cases))]
        # The pool is the benchmark's, not the program's: keep it out of the
        # program's garbage collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            attempted, failed, metrics, context = traced(workload, order, args)
        else:
            attempted, failed, metrics, context = timed(workload, order, args, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"context": {**base_context(workload, args, cases), **context}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
