"""Span tracing from outside the program, for the benchmark's traced run.

Nothing in ``src/`` is edited. Instead, :class:`Tracer` rebinds each traced
function at the name its caller looks it up by (for example
``convecon.statics.minimize_cost``, which the audit calls), records a span
around every call, and puts the original back when the run ends. The
untraced runs never install a tracer, so they call the program unwrapped.

Spans live in flat in-memory arrays (name, start, end, parent, request) and
are written out once, after the run. A span's self time is its duration
minus the time covered by its direct children; calls are synchronous on one
thread, so children never overlap.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

from convecon import _jsonio, cli, closed_form, core, oracle, sessions, statics
from convecon.core import ModelKind
from convecon.errors import Unbounded
from convecon.oracle import GridSpec

_FORMULAS = (
    "a0_star", "a1_star", "f1_star", "a2_star_partial", "a2_star_full", "f2_star", "f2_star_coupled",
)


def _lattice_nodes(args, kwargs) -> int:
    """Lattice nodes one ``minimize_cost`` call evaluates, from its arguments.

    Every refinement round evaluates ``points`` nodes per searched axis; a
    pinned axis, and the feedback axis of the baseline model, hold one node.
    """
    model = ModelKind(args[0] if args else kwargs["model"])
    grid = args[4] if len(args) > 4 else kwargs.get("grid")
    grid = grid if grid is not None else GridSpec()
    searched = int(kwargs.get("pin_a") is None)
    if model.uses_feedback and kwargs.get("pin_f") is None:
        searched += 1
    return (grid.refinements + 1) * grid.points ** searched


class Tracer:
    """Records spans around rebound program functions; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, request_id: int):
        """Span around one benchmark operation; program spans nest under it."""
        self.request_id = request_id
        index = self._open(self._name_id("bench.op"))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, *, on_call=None, on_result=None, on_error=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def rebind(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._rebound.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self) -> None:
        """Rebind every traced function at the names its callers use."""
        counts = self.counts

        def count_nodes(args, kwargs):
            counts["oracle.lattice_nodes"] += _lattice_nodes(args, kwargs)

        def count_unbounded(exc):
            if isinstance(exc, Unbounded):
                counts["oracle.unbounded"] += 1

        def count_iterations(solution):
            counts["closed_form.fixed_point.iters"] += solution.iterations

        def count_bytes(text):
            counts["jsonio.bytes"] += len(text.encode())

        for owner in (statics, sessions, cli):
            self.rebind(owner, "minimize_cost", "oracle.minimize_cost",
                        on_call=count_nodes, on_error=count_unbounded)
        self.rebind(oracle, "kkt_residual", "oracle.kkt_residual")
        self.rebind(cli, "integer_refine", "oracle.integer_refine")
        for owner, attr in (
            (oracle, "recover_q_value"), (oracle, "cost_value"), (closed_form, "recover_q_value"),
            (core, "gain_value"), (core, "cost_value"),
        ):
            self.rebind(owner, attr, "core.eval")
        self.rebind(cli, "load_params", "core.load_params")
        for attr in _FORMULAS:
            self.rebind(closed_form, attr, "closed_form.formula")
        for attr in ("model1_solve", "model2_solve_coupled"):
            self.rebind(closed_form, attr, "closed_form.fixed_point", on_result=count_iterations)
        self.rebind(statics, "audit_claims", "statics.audit_claims")
        self.rebind(cli, "viability", "sessions.viability")
        for attr in ("simulate", "write_jsonl", "read_jsonl"):
            self.rebind(sessions, attr, f"sessions.{attr}")
        for attr in ("fit_gain_params", "fit_cost_params"):
            self.rebind(sessions, attr, "sessions.fit")
        # write_jsonl imports dump_line from the module at call time.
        self.rebind(_jsonio, "dump_line", "jsonio.dumps", on_result=count_bytes)
        self.rebind(cli, "dumps", "jsonio.dumps", on_result=count_bytes)
        # The solve workload calls cli.main.main(...) on the click group.
        self.rebind(cli.main, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            if isinstance(owner, ModuleType):
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # drop the instance attribute shadowing the method
        self._rebound.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "request": np.array(self.request, dtype=np.int64),
            "duration": duration,
            "self": duration - covered,
        }

    def summary(self, spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds, median duration."""
        out = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(spans["self"][mask].sum()),
                "p50_us": float(np.median(spans["duration"][mask]) * 1e6) if mask.any() else 0.0,
            }
        return out

    def write(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{key: spans[key] for key in ("name", "start", "end", "parent", "request")},
        )
