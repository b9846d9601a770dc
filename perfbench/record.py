"""Draw each workload's case pool and record the program's answers as references.

    python3 perfbench/record.py [--workload NAME ...]

Run from the root of a checkout at the commit whose answers are to be the
reference. It rewrites ``perfbench/cases/<workload>.json``: the pool is
drawn from the workload's fixed ``pool_seed``, each case is run once, and
the part of its output the benchmark checks is stored with it. It refuses
to record a case whose output would fail the benchmark's own checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

import run


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def record(workload, commit: str) -> None:
    from workloads import CASES_DIR

    rng = np.random.default_rng(workload.pool_seed)
    pool = workload.draw_pool(rng)
    cases = pool["cases"]
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"record-{workload.name}-", dir=run.SCRATCH)
    try:
        ready = workload.prepare(pool, Path(workdir))
        for case, ready_case in zip(cases, ready):
            result = workload.run(ready_case)
            case["expected"] = workload.reference(ready_case, result)
            workload.outcome({**ready_case, "expected": case["expected"]}, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # One list item per line, so that re-recording shows up as a readable diff.
    header = json.dumps({"workload": workload.name, "pool_seed": workload.pool_seed, "recorded_at": commit})
    lists = ", ".join(
        json.dumps(key) + ": [\n" + ",\n".join(json.dumps(item, separators=(",", ":")) for item in items) + "\n]"
        for key, items in pool.items()
    )
    CASES_DIR.mkdir(exist_ok=True)
    (CASES_DIR / f"{workload.name}.json").write_text(header[:-1] + ", " + lists + "}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=("audit", "solve", "logs"))
    args = parser.parse_args()
    run.load_program()
    import workloads

    commit = git_commit()
    for name in args.workload or sorted(workloads.WORKLOADS):
        record(workloads.WORKLOADS[name], commit)
        print(f"recorded {name}")


if __name__ == "__main__":
    main()
