"""Synthetic session logs, parameter estimation, and the viability call.

A session is one user following a fixed strategy: the strategy's counts are
unrolled into the model's action grammar (query / feedback / assess), costs
are booked per action, and the session's gain gets one multiplicative
log-normal shock. Estimators run ordinary least squares the other way:
gain parameters from log-linear structure, unit costs from action counts.
``viability`` asks the oracle whether either feedback style actually beats
the plain query-assess loop for a given gain target; it reads the oracle's
bare incumbents and builds no KKT report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ._jsonio import check_keys, named, read_user_file
from .core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    _assessments,
    _model_row,
    _ModelRow,
    _require_count,
    _require_finite,
    check_gain,
    cost,
    gain,
)
from .errors import DomainError, EconError, InsufficientDesign, Unbounded
# minimize_cost is not called here; it stays a module name because the
# benchmark's tracer rebinds ``sessions.minimize_cost``.
from .oracle import GridSpec, _minimize_batch, minimize_cost

__all__ = [
    "ActionKind",
    "SessionAction",
    "SessionLog",
    "simulate",
    "EstimationResult",
    "fit_gain_params",
    "fit_cost_params",
    "write_jsonl",
    "read_jsonl",
    "Recommendation",
    "viability",
]


class ActionKind(str, Enum):
    QUERY = "query"
    FEEDBACK = "feedback"
    ASSESS = "assess"


@dataclass(frozen=True)
class SessionAction:
    """One logged action: position in the session, kind, and its price."""

    step: int
    kind: ActionKind
    unit_cost: float


_SCHEMA = 2  # version of the JSONL session record; the reader refuses any other


@dataclass(frozen=True)
class SessionLog:
    """One simulated session: the strategy, its prices, and outcomes.

    ``realized_cost`` is deterministic bookkeeping (it equals the strategy's
    cost formula; the per-action unit costs sum to the same number).
    ``realized_gain`` carries the session's single log-normal shock. The
    action trace is never stored: :attr:`actions` unrolls it from the counts
    and prices.
    """

    session_id: int
    model: ModelKind
    strategy: Strategy
    costs: CostParams
    realized_gain: float
    realized_cost: float

    @property
    def actions(self) -> tuple[SessionAction, ...]:
        """The action trace, unrolled from the counts and prices on each access."""
        return _unrolled_actions(self.strategy, self.costs)

    def to_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "session_id": self.session_id,
            "model": self.model.code,
            "q": self.strategy.q,
            "f": self.strategy.f,
            "a": self.strategy.a,
            "c_query": self.costs.c_query,
            "c_feedback": self.costs.c_feedback,
            "c_assess": self.costs.c_assess,
            "realized_gain": self.realized_gain,
            "realized_cost": self.realized_cost,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object], *, source: str = "session") -> "SessionLog":
        required = ("schema", "session_id", "model", "q", "f", "a",
                    "c_query", "c_feedback", "c_assess", "realized_gain", "realized_cost")
        check_keys(data, required, source=source)
        with named(source):
            schema = _require_count("schema", data["schema"], 1)
            if schema != _SCHEMA:
                raise DomainError(f"schema {schema} is not supported (expected {_SCHEMA})")
            model = ModelKind.from_code(str(data["model"]))
            strategy = Strategy(model, data["q"], data["f"], data["a"])
            costs = CostParams(data["c_query"], data["c_feedback"], data["c_assess"])
            session_id = _require_count("session_id", data["session_id"], 0)
            realized_gain = _require_finite("realized_gain", data["realized_gain"])
            realized_cost = _require_finite("realized_cost", data["realized_cost"])
        return cls(session_id, model, strategy, costs, realized_gain, realized_cost)


def _unrolled_actions(strategy: Strategy, costs: CostParams) -> tuple[SessionAction, ...]:
    """Expand integer counts into the model's action grammar.

    Every query starts a block: the query, the feedback rounds that come
    before results, one assessment pass, and then, where feedback repeats
    the pass, each remaining feedback round followed by another pass.
    """
    q, f, a = int(strategy.q), int(strategy.f), int(strategy.a)
    after = int(_model_row(strategy.model).repeat * f)
    prices = {
        ActionKind.QUERY: costs.c_query,
        ActionKind.FEEDBACK: costs.c_feedback,
        ActionKind.ASSESS: costs.c_assess,
    }
    assess = [ActionKind.ASSESS] * a
    block = [ActionKind.QUERY] + [ActionKind.FEEDBACK] * (f - after) + assess
    block += ([ActionKind.FEEDBACK] + assess) * after
    return tuple(
        SessionAction(step=i, kind=kind, unit_cost=prices[kind])
        for i, kind in enumerate(block * q)
    )


def simulate(
    strategy: Strategy,
    efficiency: EfficiencyParams,
    costs: CostParams,
    *,
    sigma: float = 0.0,
    seed: int = 0,
    n: int = 1,
) -> list[SessionLog]:
    """Generate ``n`` independent session logs for one integer strategy.

    Every session has the same counts and prices, so the same action trace
    and cost; only the gain shock differs. Each session draws from its own
    substream spawned off ``seed``, so logs are bit-identical for identical
    arguments and session ``i`` does not change when ``n`` grows past it.
    A session cost or gain too large for a float raises :class:`DomainError`.
    """
    if not strategy.is_integer:
        raise DomainError("simulate requires an integer strategy (whole q, f, a)")
    if strategy.q < 1 or strategy.a < 1:
        raise DomainError("simulate requires q >= 1 and a >= 1")
    sigma = _require_finite("sigma", sigma)
    if sigma < 0.0:
        raise DomainError("sigma must be >= 0")
    n = _require_count("n", n, 1)
    seed = _require_count("seed", seed, 0)

    base_gain = gain(strategy, efficiency)
    base_cost = cost(strategy, costs)
    if base_cost == math.inf:
        raise DomainError(f"the session cost overflows a float at q={strategy.q}, f={strategy.f}, a={strategy.a}")

    logs = []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
        shock = np.random.default_rng(stream).normal(0.0, sigma)
        try:
            realized_gain = base_gain * math.exp(shock)
        except OverflowError:  # exp(shock) alone is past a float's range
            realized_gain = math.inf
        if realized_gain == math.inf:
            raise DomainError(f"a session's realized gain overflows a float (sigma={sigma})")
        logs.append(SessionLog(i, strategy.model, strategy, costs, realized_gain, base_cost))
    return logs


@dataclass(frozen=True)
class EstimationResult:
    """Least-squares estimates from session logs (gain or cost side).

    Whichever side was not fitted stays ``None``. ``condition_warning``
    means the design matrix was rank-deficient (to 1e-8) or a cost estimate
    came out negative; ``note`` spells out the specific ambiguity when one
    is recognised.
    """

    alpha_hat: Optional[float] = None
    beta_hat: Optional[float] = None
    gamma_hat: Optional[float] = None
    cq_hat: Optional[float] = None
    cf_hat: Optional[float] = None
    ca_hat: Optional[float] = None
    residual_rms: float = 0.0
    n_sessions: int = 0
    condition_warning: bool = False
    note: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
            "gamma_hat": self.gamma_hat,
            "cq_hat": self.cq_hat,
            "cf_hat": self.cf_hat,
            "ca_hat": self.ca_hat,
            "residual_rms": self.residual_rms,
            "n_sessions": self.n_sessions,
            "condition_warning": self.condition_warning,
            "note": self.note,
        }


def _shared_model(logs: Sequence[SessionLog]) -> ModelKind:
    if not logs:
        raise DomainError("no session logs")
    models = {log.model for log in logs}
    if len(models) > 1:
        raise DomainError("logs must share one model")
    return next(iter(models))


def _design_row(row: _ModelRow, first: float, feedback: float, last: float) -> list[float]:
    """One session's regressors; the feedback column only where the model has one."""
    return [first, feedback, last] if row.feedback else [first, last]


def _lstsq(
    logs: Sequence[SessionLog], rows: list[list[float]], target: list[float], unknowns: str,
) -> tuple[np.ndarray, float, bool]:
    """Least squares of ``target`` on the design ``rows`` of ``logs``; the
    rows' coefficients are named ``unknowns`` where too few distinct design
    points leave them unidentified."""
    k = len(rows[0])
    points = len({(log.strategy.q, log.strategy.f, log.strategy.a) for log in logs})
    if points < k:
        raise InsufficientDesign(f"{points} distinct design point(s) cannot identify {k} {unknowns}")
    design, target = np.asarray(rows), np.asarray(target)
    # Each count is finite, but a product of counts (q*f, q*(1+f)*a) can
    # overflow, and LAPACK's SVD does not converge on an inf.
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        raise DomainError("session counts are too large to fit: a design value overflows a float")
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=1e-8)
    fitted = design @ coef
    rms = float(np.sqrt(np.mean((target - fitted) ** 2)))
    return coef, rms, rank < design.shape[1]


def fit_gain_params(
    logs: Sequence[SessionLog],
    model: Optional[ModelKind] = None,
) -> EstimationResult:
    """Estimate the gain exponents from logs by log-space least squares.

    The gain expressions are linear in their exponents after taking logs:
    the baseline regresses log gain on (log q, log a); feedback-first adds
    the interaction f·log q, whose coefficient is the per-round exponent
    boost; feedback-after adds log(1+f) instead. ``model`` is optional and
    only cross-checked against the logs.
    """
    shared = _shared_model(logs)
    if model is not None:
        wanted = model if isinstance(model, ModelKind) else ModelKind.from_code(model)
        if wanted is not shared:
            raise DomainError(f"logs are {shared.code}, not {wanted.code}")

    row = _model_row(shared)
    rows = []
    target = []
    for log in logs:
        s = log.strategy
        if log.realized_gain <= 0.0:
            raise DomainError("realized_gain must be positive to fit in log space")
        if s.q <= 0.0 or s.a <= 0.0:
            raise DomainError("strategies must have positive q and a to fit in log space")
        lq, la = math.log(s.q), math.log(s.a)
        feedback = row.lift * s.f * lq + row.repeat * math.log1p(s.f)
        rows.append(_design_row(row, lq, feedback, la))
        target.append(math.log(log.realized_gain))

    coef, rms, deficient = _lstsq(logs, rows, target, "gain coefficients")
    note = None
    if deficient and row.lift and len({log.strategy.f for log in logs}) == 1:
        note = "alpha and gamma1 are unidentifiable: feedback level is constant across sessions"

    return EstimationResult(
        alpha_hat=float(coef[0]),
        beta_hat=float(coef[-1]),
        gamma_hat=float(coef[1]) if row.feedback else None,
        residual_rms=rms,
        n_sessions=len(logs),
        condition_warning=deficient,
        note=note,
    )


def fit_cost_params(logs: Sequence[SessionLog]) -> EstimationResult:
    """Estimate unit costs from realized costs by linear least squares.

    Regressors are the action counts implied by each strategy (for the
    feedback-after model the assessed total is q·(1+f)·a). Negative
    estimates are reported as-is with ``condition_warning`` — a wrong sign
    is evidence of misspecification, and hiding it would defeat the fit.
    """
    row = _model_row(_shared_model(logs))
    rows = []
    target = []
    for log in logs:
        s = log.strategy
        rows.append(_design_row(row, s.q, s.q * s.f, _assessments(row, s.q, s.f, s.a)))
        target.append(log.realized_cost)

    coef, rms, deficient = _lstsq(logs, rows, target, "unit costs")
    note = None
    if deficient and row.feedback:
        levels = {log.strategy.f for log in logs}
        if levels == {0.0}:
            note = "c_feedback is unidentifiable: no feedback actions in the logs"
        elif len(levels) == 1:
            note = "c_query and c_feedback are unidentifiable: feedback level is constant across sessions"

    cq_hat, ca_hat = float(coef[0]), float(coef[-1])
    cf_hat = float(coef[1]) if row.feedback else None
    negative = any(v is not None and v < 0.0 for v in (cq_hat, cf_hat, ca_hat))
    return EstimationResult(
        cq_hat=cq_hat,
        cf_hat=cf_hat,
        ca_hat=ca_hat,
        residual_rms=rms,
        n_sessions=len(logs),
        condition_warning=deficient or negative,
        note=note,
    )


def write_jsonl(logs: Iterable[SessionLog], target: Union[str, Path, IO[str]]) -> None:
    """Write logs as JSON Lines (one session object per line)."""
    from ._jsonio import dump_line

    lines = "".join(dump_line(log.to_dict()) for log in logs)
    if hasattr(target, "write"):
        target.write(lines)
    else:
        Path(target).write_text(lines)


def read_jsonl(source: Union[str, Path, IO[str]]) -> list[SessionLog]:
    """Read session logs written by :func:`write_jsonl`."""
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "session log")
    else:
        text = read_user_file(source, "session log")
        name = str(Path(source))
    logs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{name}:{lineno}: not valid JSON ({exc.msg})") from None
        logs.append(SessionLog.from_dict(data, source=f"{name}:{lineno}"))
    return logs


@dataclass(frozen=True)
class Recommendation:
    """The viability verdict: per-model optimal costs and the model to use.

    ``cheapest`` is the recommendation itself — the baseline unless a
    feedback model is worthwhile, where worthwhile means the oracle kept a
    strictly positive feedback level (not the grid floor) and undercut the
    baseline's optimal cost by more than 1e-6 relative. Ties therefore go
    to the baseline, the simplest interaction; between the two feedback
    models the cheaper one wins. Models whose search is unbounded are
    listed in ``not_comparable`` with no strategy and no cost.
    """

    cheapest: ModelKind
    strategies: Mapping[str, Optional[Strategy]]
    costs: Mapping[str, Optional[float]]
    worthwhile: Mapping[str, bool]
    not_comparable: tuple[str, ...]

    def cost_of(self, model: Union[str, ModelKind]) -> Optional[float]:
        return self.costs[model.code if isinstance(model, ModelKind) else str(model)]

    def to_dict(self) -> dict:
        return {
            "cheapest": self.cheapest.code,
            "costs": {model.code: self.cost_of(model) for model in ModelKind},
            "worthwhile": dict(self.worthwhile),
            "not_comparable": list(self.not_comparable),
            "strategies": {
                code: None if strategy is None else {"q": strategy.q, "f": strategy.f, "a": strategy.a}
                for code, strategy in self.strategies.items()
            },
        }


def viability(
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
    grid: Optional[GridSpec] = None,
) -> Recommendation:
    """Is feedback worth it? Oracle-solve all three models and compare.

    Each model is one oracle search, read off its bare incumbent: the
    verdict needs the strategy and its cost, not a KKT report. A feedback
    model is never recommended on a corner solution: if the oracle pins its
    feedback level at the grid floor, that model's best play is effectively
    "don't give feedback", and the baseline already is that play without
    the machinery.
    """
    g = check_gain(g)
    grid = grid if grid is not None else GridSpec()

    strategies: dict[str, Optional[Strategy]] = {}
    totals: dict[str, Optional[float]] = {}
    worthwhile: dict[str, bool] = {}
    not_comparable = []
    cheapest = ModelKind.BASELINE
    for model in ModelKind:
        results = _minimize_batch(model, efficiency, costs, g, grid)
        if model.uses_feedback and isinstance(results[0], Unbounded):
            strategies[model.code] = totals[model.code] = None
            worthwhile[model.code] = False
            not_comparable.append(model.code)
            continue
        if isinstance(results[0], EconError):
            # Popped, not bound to a name, as in oracle.minimize_cost.
            raise results.pop()
        incumbent = results[0]
        strategy = strategies[model.code] = Strategy(model, q=incumbent.q, f=incumbent.f, a=incumbent.a)
        total = totals[model.code] = cost(strategy, costs)
        if not model.uses_feedback:
            continue
        positive_feedback = "f" not in incumbent.lower_corner_axes and incumbent.f > grid.min * (1.0 + 1e-9)
        undercuts = total < totals[ModelKind.BASELINE.code] * (1.0 - 1e-6)
        worthwhile[model.code] = positive_feedback and undercuts
        if worthwhile[model.code] and total < totals[cheapest.code]:
            cheapest = model

    return Recommendation(
        cheapest=cheapest,
        strategies=strategies,
        costs=totals,
        worthwhile=worthwhile,
        not_comparable=tuple(not_comparable),
    )
