"""Gain and cost primitives for three conversational interaction models.

A session consists of ``q`` query rounds. Depending on the model, each round
may also carry relevance feedback and carries some number of result
assessments:

``m0`` (baseline)
    Each of the ``q`` queries is followed by ``a`` assessments. Gain is
    Cobb-Douglas in the two counts, ``q**alpha * a**beta``.

``m1`` (feedback before results)
    Each query is preceded by ``f`` feedback utterances that sharpen the query
    before results come back. Feedback lifts the query exponent linearly:
    the gain is ``q**(gamma1 * f + alpha) * a**beta``. Feedback touches no
    result lists, so assessment effort is unchanged.

``m2`` (feedback after results)
    Each query is followed by an assessment pass, then ``f`` feedback rounds,
    each triggering a fresh result list and another assessment pass. Gain is
    ``q**alpha * (1 + f)**gamma2 * a**beta`` and assessment effort scales by
    ``(1 + f)``.

Costs are linear in action counts with per-action prices ``c_query``,
``c_feedback`` and ``c_assess``. Setting ``f = 0`` collapses either feedback
model onto the baseline, in gain and in cost, which several tests and the
acceptance suite rely on.

All three are one gain,
``q**(lift*gamma1*f + alpha) * (1 + f)**(repeat*gamma2) * a**beta``, and
one cost over the action counts ``(q, q*f, q*(1 + repeat*f)*a)``. A
private table holds one row per :class:`ModelKind`: ``feedback`` (the
model has a feedback axis), ``lift`` (1.0 for m1) and ``repeat`` (1.0 for
m2). Gain, cost, the query count pinned by a gain floor, the oracle's
gradients and lattice, the session grammar and the fit design rows are all
derived from the row, so a fourth model is a fourth row.

Counts are modelled as non-negative reals so the optimisation layer can work
on a continuous relaxation; integer rounding is handled separately by the
oracle module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Union

import numpy as np

from ._jsonio import check_keys, load_json_file, named
from .errors import DomainError

__all__ = [
    "ModelKind",
    "EfficiencyParams",
    "CostParams",
    "ValidatedParams",
    "Strategy",
    "gain",
    "cost",
    "gain_value",
    "cost_value",
    "recover_q_value",
    "check_gain",
    "load_params",
    "params_to_mapping",
    "PARAM_FIELDS",
]


class ModelKind(str, Enum):
    """The three interaction models, keyed by their short codes."""

    BASELINE = "m0"
    FEEDBACK_FIRST = "m1"
    FEEDBACK_AFTER = "m2"

    @classmethod
    def from_code(cls, code: str) -> "ModelKind":
        try:
            return cls(code)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DomainError(f"unknown model code {code!r}; expected one of {valid}") from None

    @property
    def code(self) -> str:
        return self.value

    @property
    def uses_feedback(self) -> bool:
        return _MODEL_TABLE[self].feedback


class _ModelRow(NamedTuple):
    """How feedback enters one model; see the module docstring."""

    feedback: bool
    lift: float
    repeat: float


_MODEL_TABLE = {
    ModelKind.BASELINE: _ModelRow(feedback=False, lift=0.0, repeat=0.0),
    ModelKind.FEEDBACK_FIRST: _ModelRow(feedback=True, lift=1.0, repeat=0.0),
    ModelKind.FEEDBACK_AFTER: _ModelRow(feedback=True, lift=0.0, repeat=1.0),
}


def _model_row(model: ModelKind) -> _ModelRow:
    if not isinstance(model, ModelKind):
        raise DomainError(f"unknown model {model!r}")
    return _MODEL_TABLE[model]


def _query_exponent(row: _ModelRow, f, efficiency: EfficiencyParams):
    """``gamma1 * f + alpha`` where feedback lifts it, else plain ``alpha``."""
    return efficiency.gamma1 * f + efficiency.alpha if row.lift else efficiency.alpha


def _assessments(row: _ModelRow, q, f, a):
    """Assessments in a session: ``q * (1 + f) * a`` where feedback repeats
    the pass, else ``q * a``; array-safe."""
    return q * (1.0 + f) * a if row.repeat else q * a


def _require_finite(name: str, value) -> float:
    """The number rule for every value a user gives: a real number (not a
    bool or a string) that is finite as a float; returns that float."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError(f"{name} must be finite") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _require_count(name: str, value, minimum: int) -> int:
    """The count rule: a number (see :func:`_require_finite`) that is a
    whole number >= ``minimum``; returns it as an int."""
    number = _require_finite(name, value)
    if not number.is_integer() or number < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}")
    return int(value)


@dataclass(frozen=True)
class EfficiencyParams:
    """Gain-side elasticities.

    ``alpha`` and ``beta`` are the query and assessment exponents, both in
    ``(0, 1]``. ``gamma1`` (>= 0) is the per-feedback lift applied to the
    query exponent in model m1. ``gamma2`` (in ``[0, 1]``) is the exponent on
    ``1 + f`` in model m2. The feedback parameters default to zero so a
    baseline-only caller never has to mention them.
    """

    alpha: float
    beta: float
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self) -> None:
        for name in _EFFICIENCY_FIELDS:
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not self.alpha > 0.0:
            raise DomainError("alpha must be > 0")
        if self.alpha > 1.0:
            raise DomainError("alpha must be <= 1")
        if not self.beta > 0.0:
            raise DomainError("beta must be > 0")
        if self.beta > 1.0:
            raise DomainError("beta must be <= 1")
        if self.gamma1 < 0.0:
            raise DomainError("gamma1 must be >= 0")
        if not 0.0 <= self.gamma2 <= 1.0:
            raise DomainError("gamma2 must be in [0, 1]")


@dataclass(frozen=True)
class CostParams:
    """Per-action prices; each must be a positive finite number."""

    c_query: float
    c_feedback: float
    c_assess: float

    def __post_init__(self) -> None:
        for name in _COST_FIELDS:
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if not value > 0.0:
                raise DomainError(f"{name} must be > 0")


class ValidatedParams(NamedTuple):
    efficiency: EfficiencyParams
    costs: CostParams


@dataclass(frozen=True)
class Strategy:
    """An action plan: model plus (queries, feedback per query, assessments).

    Counts are continuous and non-negative. A baseline strategy must carry
    ``f = 0``; the feedback models accept any ``f >= 0``.
    """

    model: ModelKind
    q: float
    f: float
    a: float

    def __post_init__(self) -> None:
        if not isinstance(self.model, ModelKind):
            object.__setattr__(self, "model", ModelKind.from_code(self.model))
        for name in ("q", "f", "a"):
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 0.0:
                raise DomainError(f"{name} must be >= 0")
        if not self.model.uses_feedback and self.f != 0.0:
            raise DomainError("baseline strategies must have f = 0")

    @property
    def is_integer(self) -> bool:
        return all(float(v).is_integer() for v in (self.q, self.f, self.a))


def gain_value(model: ModelKind, q, f, a, efficiency: EfficiencyParams):
    """Gain for raw counts; works elementwise on numpy arrays too.

    ``q**(lift*gamma1*f + alpha) * (1 + f)**(repeat*gamma2) * a**beta``,
    arranged so that ``f = 0`` gives the exact baseline expression
    (``gamma1 * 0 + alpha`` is ``alpha``, and ``(1 + 0) ** gamma2`` is
    exactly 1.0).
    """
    row = _model_row(model)
    return (
        q ** _query_exponent(row, f, efficiency)
        * (1.0 + f) ** (row.repeat * efficiency.gamma2)
        * a ** efficiency.beta
    )


def cost_value(model: ModelKind, q, f, a, costs: CostParams):
    """Session cost for raw counts; elementwise on numpy arrays too.

    Each term multiplies the integer action count out first and applies the
    unit price last, so integer strategies with representable prices incur
    no avoidable rounding. A model without feedback expects ``f = 0``.
    """
    row = _model_row(model)
    return (
        q * costs.c_query
        + (q * f) * costs.c_feedback
        + _assessments(row, q, f, a) * costs.c_assess
    )


def recover_q_value(model: ModelKind, g, f, a, efficiency: EfficiencyParams):
    """Query count pinned by the gain floor; raw arithmetic, array-safe.

    ``exp((log g - beta*log a - repeat*gamma2*log1p f) / (lift*gamma1*f + alpha))``
    from the model's table row; inf where the count overflows and 0 where it
    underflows. numpy's ``log``, ``log1p`` and ``exp`` run on scalars too, so
    a count for plain floats has the bits of the same node in the oracle's
    lattice (``math.log`` and ``math.exp`` can differ in the last bit).
    """
    row = _model_row(model)
    with np.errstate(over="ignore", under="ignore"):
        log_q = np.log(g) - efficiency.beta * np.log(a)
        if row.repeat:
            log_q = log_q - efficiency.gamma2 * np.log1p(f)
        return np.exp(log_q / _query_exponent(row, f, efficiency))


def gain(strategy: Strategy, efficiency: EfficiencyParams) -> float:
    """Expected gain of a strategy under the given elasticities.

    A gain too large for a float raises :class:`DomainError`.
    """
    try:
        return float(gain_value(strategy.model, strategy.q, strategy.f, strategy.a, efficiency))
    except OverflowError:
        raise DomainError(
            f"gain overflows a float at q={strategy.q}, f={strategy.f}, a={strategy.a}"
        ) from None


def cost(strategy: Strategy, costs: CostParams) -> float:
    """Total session cost of a strategy under the given prices."""
    return float(cost_value(strategy.model, strategy.q, strategy.f, strategy.a, costs))


def check_gain(g: float) -> float:
    """Validate a target gain level (must be a positive finite number)."""
    g = _require_finite("gain target", g)
    if not g > 0.0:
        raise DomainError("gain target must be > 0")
    return g


_EFFICIENCY_FIELDS = tuple(field.name for field in fields(EfficiencyParams))
_COST_FIELDS = tuple(field.name for field in fields(CostParams))

PARAM_FIELDS = _EFFICIENCY_FIELDS + _COST_FIELDS


def params_from_mapping(data: Mapping[str, object], *, source: str = "params") -> ValidatedParams:
    """Build validated parameters from a plain mapping with exactly the
    seven canonical keys. Unknown and missing keys are both rejected so a
    typo cannot silently fall back to a default."""
    check_keys(data, PARAM_FIELDS, source=source)
    with named(source):
        efficiency = EfficiencyParams(**{k: data[k] for k in _EFFICIENCY_FIELDS})
        costs = CostParams(**{k: data[k] for k in _COST_FIELDS})
    return ValidatedParams(efficiency, costs)


def load_params(path: Union[str, Path]) -> ValidatedParams:
    """Load and validate a parameter file (JSON object, seven keys)."""
    return params_from_mapping(load_json_file(path, "params"), source=str(Path(path)))


def params_to_mapping(params: ValidatedParams) -> dict:
    """Inverse of :func:`params_from_mapping`, handy for echoing configs."""
    efficiency, costs = params
    return {
        **{name: getattr(efficiency, name) for name in _EFFICIENCY_FIELDS},
        **{name: getattr(costs, name) for name in _COST_FIELDS},
    }
