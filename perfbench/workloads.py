"""The benchmark's three workloads: case pools, operations and output checks.

Each workload has a pool of distinct cases in ``cases/<name>.json``.
``record.py`` drew the cases once from a fixed pool seed and stored, next to
each case, the reference answer the program gave for it when the benchmark
was defined. A run's ``--seed`` shuffles the pool and the run takes cases
from the front of that order, never visiting one twice, so no input repeats
within a run and each seed runs its own selection of inputs.

An operation is one closed-loop call by a single caller: one
``audit_claims`` call, one CLI request, or one log study.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import click
import numpy as np

from convecon import _jsonio, cli, sessions, statics
from convecon.core import PARAM_FIELDS, ModelKind, Strategy, params_from_mapping
from convecon.oracle import GridSpec

CASES_DIR = Path(__file__).resolve().parent / "cases"

REL_TOL = 1e-9
ABS_TOL = 1e-12

# Exit codes the CLI documents: success, invalid input, no usable optimum,
# insufficient design. Anything else is a failure.
DOCUMENTED_EXITS = (0, 2, 3, 4)


class CheckFailed(Exception):
    """An operation's output differs from its reference or is not finite."""


def draw_params(rng: np.random.Generator, region) -> dict:
    """The seven model parameters, each log-uniform over its region axis."""
    return {
        name: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for name, lo, hi in region.bounds
        if name in PARAM_FIELDS
    }


def project(doc, spec):
    """The part of ``doc`` named by ``spec``, which is what references keep.

    ``spec`` maps keys to sub-specs (``None`` keeps the whole value); applied
    to a list, it applies to every element.
    """
    if spec is None:
        return doc
    if isinstance(doc, list):
        return [project(item, spec) for item in doc]
    return {key: project(doc[key], sub) for key, sub in spec.items() if key in doc}


def mismatches(expected, actual, path="$"):
    """Paths where ``actual`` differs from ``expected``.

    Only keys present in ``expected`` are compared, so documents may gain
    fields without failing. Floats compare to a relative 1e-9.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [path]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key} missing")
            else:
                out.extend(mismatches(value, actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [path]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        return [] if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL) else [path]
    if type(expected) is not type(actual) and not (
        isinstance(expected, int) and isinstance(actual, float) and float(expected) == actual
    ):
        return [path]
    return [] if expected == actual else [path]


def non_finite(doc, path="$"):
    """Paths of NaN or infinite numbers anywhere in a JSON-like document."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in non_finite(value, f"{path}.{key}")]
    if isinstance(doc, (list, tuple)):
        return [p for i, value in enumerate(doc) for p in non_finite(value, f"{path}[{i}]")]
    if isinstance(doc, float) and not math.isfinite(doc):
        return [path]
    return []


def check(expected, actual) -> None:
    bad = non_finite(actual)
    if bad:
        raise CheckFailed(f"non-finite value at {', '.join(bad[:3])}")
    bad = mismatches(expected, actual)
    if bad:
        raise CheckFailed(f"differs from reference at {', '.join(bad[:3])}")


class Workload:
    """One workload: how to prepare its cases, run one, and check it."""

    name: str
    why: str
    item: str  # what items_per_s counts
    tail: float  # the tail percentile op_ms_tail reports
    min_ops: int  # operations a timed run makes at least, so some fall beyond the tail
    pool_size: int  # more cases than one timed run takes
    pool_seed: int  # record.py draws the pool from this seed
    trace_ops_per_s: float  # a traced run takes ceil(seconds * this) cases

    def load(self) -> dict:
        return json.loads((CASES_DIR / f"{self.name}.json").read_text())

    def draw(self, rng: np.random.Generator, index: int) -> dict:
        """Case ``index`` of the pool."""
        raise NotImplementedError

    def draw_pool(self, rng: np.random.Generator) -> dict:
        """The whole pool, its cases under ``cases`` (used by ``record.py`` only)."""
        return {"cases": [self.draw(rng, index) for index in range(self.pool_size)]}

    def prepare(self, pool: dict, workdir: Path) -> list:
        """Turn recorded cases into ready-to-run operations (set-up work)."""
        raise NotImplementedError

    def run(self, case):
        """The timed operation; returns what :meth:`outcome` inspects."""
        raise NotImplementedError

    def reference(self, case, result):
        """What ``record.py`` stores as the case's expected answer."""
        raise NotImplementedError

    def outcome(self, case, result) -> dict:
        """Check ``result`` (raising :class:`CheckFailed`) and count it.

        Returns ``items``, ``out_bytes`` and per-layer ``counts``.
        """
        raise NotImplementedError

    def context(self) -> dict:
        return {}


class Audit(Workload):
    name = "audit"
    why = ("Batch claims audit: statics.audit_claims at the CLI's 200 samples, audit grid, g=100. "
           "Oracle-bound; shows batched-oracle and model-table work. No sessions or jsonio.")
    item = "sample"
    # A 200-sample call takes seconds, so a run makes only a handful: p75
    # with at least four calls leaves one beyond it.
    tail = 75.0
    min_ops = 4
    pool_size = 32
    pool_seed = 101
    trace_ops_per_s = 0.2

    SAMPLES = 200  # `convecon audit --samples` default
    GAIN = 100.0
    SPEC = {
        "claims": dict.fromkeys((
            "id", "n_formula", "holds_formula", "flat_formula", "skipped_formula",
            "n_oracle", "holds_oracle", "flat_oracle", "skipped_oracle",
        )),
        "agreement": dict.fromkeys(("name", "n", "median_rel_dev", "verdict")),
    }

    def draw(self, rng, index):
        return {"seed": int(rng.integers(0, 2**31))}

    def prepare(self, pool, workdir):
        region = statics.default_region()
        return [{**case, "region": region} for case in pool["cases"]]

    def run(self, case):
        return statics.audit_claims(
            region=case["region"], samples=self.SAMPLES, seed=case["seed"], g=self.GAIN,
            grid=statics.DEFAULT_AUDIT_GRID,
        )

    def reference(self, case, result):
        return project(result.to_dict(), self.SPEC)

    def outcome(self, case, result):
        doc = result.to_dict()
        check(case["expected"], doc)
        skipped = sum(row["skipped_formula"] + row["skipped_oracle"] for row in doc["claims"])
        skipped += sum(row["skipped"] for row in doc["agreement"])
        flat = sum(row["flat_formula"] + row["flat_oracle"] for row in doc["claims"])
        return {
            "items": self.SAMPLES,
            # the report as `convecon audit` writes it
            "out_bytes": len(_jsonio.dumps(doc, indent=2)) + 1,
            "counts": {"statics.skipped": skipped, "statics.flat": flat},
        }

    def context(self):
        return {
            "samples_per_call": self.SAMPLES,
            "gain": self.GAIN,
            "grid": statics.DEFAULT_AUDIT_GRID.to_dict(),
            "region": statics.default_region().to_dict(),
        }


class Solve(Workload):
    name = "solve"
    why = ("Single questions through the CLI in-process: viability, oracle --integer, optimize "
           "--integer at the default grid. The one-instance path batching must not slow.")
    item = "request"
    tail = 99.0
    min_ops = 1000
    pool_size = 6000
    pool_seed = 202
    trace_ops_per_s = 50.0

    POINTS = 300  # parameter points; each serves pool_size // POINTS requests

    COMMANDS = ("viability", "oracle", "optimize")
    MODELS = ("m0", "m1", "m2")
    GAIN_RANGE = (1e1, 1e6)
    INTEGER = {"integer": dict.fromkeys(("q", "f", "a", "total_cost"))}
    SPECS = {
        "viability": dict.fromkeys(("cheapest", "costs", "strategies")),
        "oracle": {**dict.fromkeys(("q", "f", "a", "total_cost")), **INTEGER},
        "optimize": {"solutions": {**dict.fromkeys(("variant", "q_star", "f_star", "a_star")), **INTEGER}},
    }

    def draw_pool(self, rng):
        # A user asks several questions of one parameter file; every request
        # still has its own command, model and gain. The command rotates, and
        # the model rotates across each command's turns. Set-up writes one
        # file per point: with a file per request, disk latency made set-up
        # swing, and rewriting one file before each request slowed the
        # requests around the writes.
        lo, hi = (math.log(x) for x in self.GAIN_RANGE)
        points = []
        cases = []
        for point in range(self.POINTS):
            points.append(draw_params(rng, statics.default_region()))
            for _ in range(self.pool_size // self.POINTS):
                command = self.COMMANDS[len(cases) % len(self.COMMANDS)]
                case = {"command": command, "point": point, "gain": float(np.exp(rng.uniform(lo, hi)))}
                if command != "viability":
                    case["model"] = self.MODELS[len(cases) // len(self.COMMANDS) % len(self.MODELS)]
                cases.append(case)
        return {"points": points, "cases": cases}

    def prepare(self, pool, workdir):
        files = [workdir / f"params-{point}.json" for point in range(len(pool["points"]))]
        for path, params in zip(files, pool["points"]):
            path.write_text(json.dumps(params))
        ready = []
        for case in pool["cases"]:
            args = [case["command"]]
            if "model" in case:
                args += ["--model", case["model"]]
            args += ["--params", str(files[case["point"]]), "--gain", repr(case["gain"])]
            if case["command"] != "viability":
                args.append("--integer")
            ready.append({**case, "args": args})
        return ready

    def run(self, case):
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                cli.main.main(case["args"], standalone_mode=False)
        except click.ClickException as exc:
            return exc.exit_code, stdout.getvalue()
        return 0, stdout.getvalue()

    def reference(self, case, result):
        code, text = result
        ref = {"exit": code}
        if code == 0:
            ref["doc"] = project(json.loads(text), self.SPECS[case["command"]])
        return ref

    def outcome(self, case, result):
        code, text = result
        if code not in DOCUMENTED_EXITS:
            raise CheckFailed(f"undocumented exit code {code}")
        actual = {"exit": code}
        if code == 0:
            actual["doc"] = json.loads(text)
        check(case["expected"], actual)
        return {"items": 1, "out_bytes": len(text.encode()), "counts": {f"cli.exit.{code}": 1}}

    def context(self):
        return {
            "parameter_points": self.POINTS,
            "commands": list(self.COMMANDS),
            "gain_range": list(self.GAIN_RANGE),
            "grid": GridSpec().to_dict(),
            "region": statics.default_region().to_dict(),
        }


class Logs(Workload):
    name = "logs"
    why = ("Log studies: simulate sessions, write_jsonl, read_jsonl, fit gain and cost. "
           "The write-then-read path with no oracle calls; shows count-only log work.")
    item = "session"
    tail = 95.0
    min_ops = 200
    pool_size = 500
    pool_seed = 303
    trace_ops_per_s = 8.0

    MODELS = ("m0", "m1", "m2")
    STRATEGIES = 5
    SESSIONS_PER_STRATEGY = 2
    SIGMA = 0.05
    Q_MAX, F_MAX, A_MAX = 100, 3, 10  # q log-uniform in [1, Q_MAX]; f, a uniform integers
    GAIN_SPEC = dict.fromkeys(("alpha_hat", "beta_hat", "gamma_hat", "n_sessions"))
    COST_SPEC = dict.fromkeys(("cq_hat", "cf_hat", "ca_hat", "n_sessions"))

    def draw(self, rng, index):
        model = self.MODELS[index % 3]
        params = draw_params(rng, statics.default_region())
        strategies = set()
        while len(strategies) < self.STRATEGIES:
            q = max(1, round(math.exp(rng.uniform(0.0, math.log(self.Q_MAX)))))
            f = 0 if model == "m0" else int(rng.integers(0, self.F_MAX + 1))
            a = int(rng.integers(1, self.A_MAX + 1))
            strategies.add((q, f, a))
        return {
            "model": model,
            "params": params,
            "strategies": sorted(strategies),
            "seed": int(rng.integers(0, 2**31)),
        }

    def prepare(self, pool, workdir):
        path = workdir / "study.jsonl"
        ready = []
        for case in pool["cases"]:
            efficiency, costs = params_from_mapping(case["params"])
            model = ModelKind(case["model"])
            strategies = [Strategy(model, q, f, a) for q, f, a in case["strategies"]]
            ready.append({**case, "kind": model, "efficiency": efficiency, "costs": costs,
                          "strategy_objects": strategies, "path": path})
        return ready

    def run(self, case):
        logs = []
        for offset, strategy in enumerate(case["strategy_objects"]):
            logs += sessions.simulate(
                strategy, case["efficiency"], case["costs"], sigma=self.SIGMA,
                seed=case["seed"] + offset, n=self.SESSIONS_PER_STRATEGY,
            )
        sessions.write_jsonl(logs, case["path"])
        back = sessions.read_jsonl(case["path"])
        gain_fit = sessions.fit_gain_params(back, case["kind"])
        cost_fit = sessions.fit_cost_params(back)
        return logs, back, {"gain": gain_fit.to_dict(), "cost": cost_fit.to_dict()}

    def reference(self, case, result):
        _, _, fits = result
        return {"gain": project(fits["gain"], self.GAIN_SPEC), "cost": project(fits["cost"], self.COST_SPEC)}

    def outcome(self, case, result):
        logs, back, fits = result
        if len(back) != len(logs):
            raise CheckFailed(f"read {len(back)} sessions, wrote {len(logs)}")
        for written, read in zip(logs, back):
            for field in ("session_id", "model", "strategy", "actions", "realized_gain", "realized_cost"):
                if getattr(written, field) != getattr(read, field):
                    raise CheckFailed(f"session {written.session_id}: {field} changed in the round trip")
        check(case["expected"], fits)
        return {
            "items": len(logs),
            "out_bytes": case["path"].stat().st_size,
            "counts": {"sessions.actions": sum(len(log.actions) for log in logs)},
        }

    def context(self):
        return {
            "strategies_per_study": self.STRATEGIES,
            "sessions_per_strategy": self.SESSIONS_PER_STRATEGY,
            "sigma": self.SIGMA,
            "q_range": [1, self.Q_MAX],
            "f_range": [0, self.F_MAX],
            "a_range": [1, self.A_MAX],
        }


WORKLOADS = {w.name: w for w in (Audit(), Solve(), Logs())}
