"""First-order-condition solutions for cost-minimal strategies.

Each function here is an explicit formula (or a small fixed-point iteration
over two formulas) for the cheapest way to hit a gain floor in one of the
interaction models. Conventions used throughout:

* ``a``-formulas answer "how deep to assess", ``f``-formulas answer "how much
  feedback per query". The query count never gets its own formula; it is
  pinned by the gain floor afterwards via :func:`recover_q`.
* Formulas whose raw value can leave the feasible range are clamped at zero
  and report both numbers through :class:`ClampedValue`, so callers can tell
  an interior solution from a corner.
* Model m2 ships two inconsistent assessment-depth formulas, a "partial" one
  that treats the feedback level as fixed and a "full" one that does not.
  Both are kept, deliberately, as separate variants; the comparative-statics
  auditor treats reconciling them against the brute-force oracle as data,
  not as something to smooth over here.
* The formulas, the clamp and :func:`recover_q` take plain floats or
  columns: parameter bundles whose fields are (K,) arrays, with (K,) arrays
  for ``f`` and ``a``. Each column entry gets the bits of its own call on
  plain floats. A domain guard (:func:`_fails`) raises as before for plain
  floats, and for columns when any entry fails it; the audit then repeats
  the call entry by entry (:func:`_one_by_one`). A guard also fails where
  its denominator underflows a float to 0, and a value past a float's range
  outside the coupled loop (:func:`_in_range`) has no interior optimum, as
  a query count past it has in :func:`recover_q`. The coupled solvers are
  one damped loop over K instances (:func:`_solve_coupled`): plain floats
  for the lone entries :func:`model1_solve` and
  :func:`model2_solve_coupled`, columns for the audit's agreement rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    _instance,
    _taken,
    check_gain,
    recover_q_value,
)
from .errors import Diverged, DomainError, EconError, NoInteriorOptimum

__all__ = [
    "ClampedValue",
    "SolutionSource",
    "ClosedFormSolution",
    "a0_star",
    "a1_star",
    "f1_star",
    "a2_star_partial",
    "a2_star_full",
    "f2_star",
    "f2_star_coupled",
    "recover_q",
    "solve_model0",
    "model1_solve",
    "solve_model2_partial",
    "solve_model2_full",
    "model2_solve_coupled",
    "solutions_for",
]


class ClampedValue(NamedTuple):
    """A formula output after clamping, next to the raw formula value.

    A named tuple, so it unpacks as ``(value, raw)`` and compares equal to
    that plain tuple. For columns both fields are columns."""

    value: float
    raw: float

    @property
    def corner(self) -> bool:
        """True when clamping actually changed the value; elementwise for
        columns."""
        return self.value != self.raw


def _clamp_floor(raw, floor: float = 0.0) -> ClampedValue:
    """``max(raw, floor)`` next to ``raw``; elementwise for columns, with
    :func:`max`'s choice of operand where they compare equal."""
    if isinstance(raw, np.ndarray):
        return ClampedValue(np.where(floor > raw, floor, raw), raw)
    return ClampedValue(floor if floor > raw else raw, raw)


def _fails(bad) -> bool:
    """Whether a domain guard fails: the one check of plain floats, or any
    element of a column's check."""
    return bad is True or bad is not False and bool(bad.any())


def _in_range(value, name: str, low: float = -math.inf):
    """``value``, a formula's output as a plain float or a column; raises
    :class:`NoInteriorOptimum` where it, or any element, is not finite or
    not above ``low``: the formula left a float's range."""
    inside = (value > low) & (value < math.inf)
    if _fails(~inside if isinstance(inside, np.ndarray) else not inside):
        raise NoInteriorOptimum(f"{name} leaves the range of a float")
    return value


def _underflow(name: str, denominator: str) -> NoInteriorOptimum:
    """The error of a formula whose denominator, positive for these
    parameters, underflows a float to 0."""
    return NoInteriorOptimum(f"the {name} formula's denominator {denominator} underflows a float to 0")


def a0_star(efficiency: EfficiencyParams, costs: CostParams) -> float:
    """Baseline assessment depth: ``beta * c_query / ((alpha - beta) * c_assess)``.

    Needs ``alpha > beta``; otherwise assessing more never stops paying for
    itself and there is no interior optimum to return.
    """
    gap = efficiency.alpha - efficiency.beta
    denominator = gap * costs.c_assess
    if _fails(denominator <= 0.0):
        if _fails(gap <= 0.0):
            raise NoInteriorOptimum(
                "baseline depth requires alpha > beta "
                f"(got alpha={efficiency.alpha}, beta={efficiency.beta})"
            )
        raise _underflow("baseline depth", "(alpha - beta) * c_assess")
    return _in_range(efficiency.beta * costs.c_query / denominator, "the baseline depth", 0.0)


def a1_star(f: float, efficiency: EfficiencyParams, costs: CostParams) -> float:
    """Assessment depth in m1 at feedback level ``f``.

    ``(beta * c_query + f * c_feedback) / ((gamma1 * f + alpha - beta) * c_assess)``.
    At ``f = 0`` this is exactly the baseline depth.
    """
    if _fails(f < 0.0):
        raise DomainError("f must be >= 0")
    gap = efficiency.gamma1 * f + efficiency.alpha - efficiency.beta
    denominator = gap * costs.c_assess
    if _fails(denominator <= 0.0):
        if _fails(gap <= 0.0):
            raise NoInteriorOptimum(
                "m1 depth requires gamma1 * f + alpha > beta "
                f"(got {efficiency.gamma1} * {f} + {efficiency.alpha} vs beta={efficiency.beta})"
            )
        raise _underflow("m1 depth", "(gamma1 * f + alpha - beta) * c_assess")
    return (efficiency.beta * costs.c_query + f * costs.c_feedback) / denominator


def f1_star(a: float, efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Feedback level in m1 at assessment depth ``a``, clamped at zero.

    ``(beta * c_query + (alpha - beta) * a * c_assess) / (gamma1 * a * c_assess + beta * c_feedback)``.
    """
    if _fails(a < 0.0):
        raise DomainError("a must be >= 0")
    denom = efficiency.gamma1 * a * costs.c_assess + efficiency.beta * costs.c_feedback
    if _fails(denom <= 0.0):
        raise DomainError("m1 feedback formula has a non-positive denominator")
    raw = (
        efficiency.beta * costs.c_query
        + (efficiency.alpha - efficiency.beta) * a * costs.c_assess
    ) / denom
    return _clamp_floor(raw)


def a2_star_partial(f: float, efficiency: EfficiencyParams, costs: CostParams) -> float:
    """Assessment depth in m2 at feedback level ``f``, holding ``f`` fixed.

    ``beta * (c_query + f * c_feedback) / ((alpha - beta) * (f + 1) * c_assess)``.
    """
    if _fails(f < 0.0):
        raise DomainError("f must be >= 0")
    gap = efficiency.alpha - efficiency.beta
    denominator = gap * (f + 1.0) * costs.c_assess
    if _fails(denominator <= 0.0):
        if _fails(gap <= 0.0):
            raise NoInteriorOptimum(
                "m2 depth requires alpha > beta "
                f"(got alpha={efficiency.alpha}, beta={efficiency.beta})"
            )
        raise _underflow("m2 depth", "(alpha - beta) * (f + 1) * c_assess")
    return efficiency.beta * (costs.c_query + f * costs.c_feedback) / denominator


def a2_star_full(f: float, efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Assessment depth in m2 with the feedback trade-off folded in.

    ``(gamma2 * (c_query + c_feedback) - alpha * (1 + f) * c_feedback)
    / ((alpha - gamma2) * (1 + f) * c_assess)``, clamped at zero. Undefined
    at ``alpha == gamma2`` (zero denominator); evaluated as written
    everywhere else, negative outputs included.
    """
    if _fails(f < 0.0):
        raise DomainError("f must be >= 0")
    gap = efficiency.alpha - efficiency.gamma2
    denominator = gap * (1.0 + f) * costs.c_assess
    if _fails(denominator == 0.0):
        if _fails(gap == 0.0):
            raise DomainError(
                f"m2 full-depth formula is undefined at alpha == gamma2 (both {efficiency.alpha})"
            )
        raise _underflow("m2 full-depth", "(alpha - gamma2) * (1 + f) * c_assess")
    raw = (
        efficiency.gamma2 * (costs.c_query + costs.c_feedback)
        - efficiency.alpha * (1.0 + f) * costs.c_feedback
    ) / denominator
    return _clamp_floor(_in_range(raw, "the m2 full depth"))


def f2_star(efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Feedback level in m2, independent of depth.

    ``((gamma2 - beta) * c_query + (beta - alpha) * c_feedback) / ((alpha - gamma2) * c_feedback)``,
    clamped at zero. Undefined at ``alpha == gamma2`` (zero denominator).
    Note the assessment price does not appear at all, a property the tests
    pin down.
    """
    gap = efficiency.alpha - efficiency.gamma2
    denominator = gap * costs.c_feedback
    if _fails(denominator == 0.0):
        if _fails(gap == 0.0):
            raise DomainError(
                f"m2 feedback formula is undefined at alpha == gamma2 (both {efficiency.alpha})"
            )
        raise _underflow("m2 feedback", "(alpha - gamma2) * c_feedback")
    raw = (
        (efficiency.gamma2 - efficiency.beta) * costs.c_query
        + (efficiency.beta - efficiency.alpha) * costs.c_feedback
    ) / denominator
    return _clamp_floor(_in_range(raw, "the m2 feedback level"))


def f2_star_coupled(a: float, efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Depth-coupled feedback level in m2, clamped at zero.

    ``(beta * c_query + (alpha - beta) * a * c_assess)
    / ((alpha - beta) * a * c_assess + beta * c_feedback)``. This is the
    earlier, depth-dependent alternative to :func:`f2_star`; it is kept as
    its own variant so the auditor can compare both routes to the oracle.
    """
    if _fails(a < 0.0):
        raise DomainError("a must be >= 0")
    gap = efficiency.alpha - efficiency.beta
    denom = gap * a * costs.c_assess + efficiency.beta * costs.c_feedback
    if _fails(denom <= 0.0):
        raise DomainError(
            "m2 coupled feedback formula requires (alpha - beta) * a * c_assess "
            f"+ beta * c_feedback > 0 (got alpha={efficiency.alpha}, beta={efficiency.beta}, a={a})"
        )
    raw = (efficiency.beta * costs.c_query + gap * a * costs.c_assess) / denom
    return _clamp_floor(raw)


def recover_q(
    g: float, f: float, a: float, model: ModelKind, efficiency: EfficiencyParams
) -> float:
    """Smallest query count that reaches gain ``g`` at fixed ``(f, a)``.

    Inverts the gain expression of ``model`` in its ``q`` argument. ``a``
    must be positive (zero assessments produce zero gain, so no finite query
    count reaches a positive floor). A query count too large for a float is
    reported as :class:`NoInteriorOptimum`. Columns give a column.
    """
    g = check_gain(g)
    if _fails(a <= 0.0):
        raise DomainError("a must be > 0 to recover a query count")
    if _fails(f < 0.0):
        raise DomainError("f must be >= 0")
    q = recover_q_value(model, g, f, a, efficiency)
    columns = isinstance(q, np.ndarray)
    q = q if columns else float(q)
    if _fails(~np.isfinite(q) if columns else not math.isfinite(q)):
        raise NoInteriorOptimum(
            f"no finite query count reaches gain {g} at f={f}, a={a} "
            "(the query count overflows a float)"
        )
    return q


class SolutionSource(str, Enum):
    """Which formula route produced a :class:`ClosedFormSolution`."""

    MODEL0 = "m0"
    MODEL1_COUPLED = "m1-coupled"
    MODEL2_PARTIAL = "m2-partial"
    MODEL2_FULL = "m2-full"
    MODEL2_COUPLED = "m2-coupled"


@dataclass(frozen=True)
class ClosedFormSolution:
    """A complete strategy assembled from closed-form pieces.

    ``corner`` is True when any clamped component ended at its bound, and the
    ``raw_*`` fields keep the unclamped values in that case. ``iterations``
    is set only by the fixed-point routes.
    """

    strategy: Strategy
    source: SolutionSource
    corner: bool = False
    iterations: Optional[int] = None
    raw_f: Optional[float] = None
    raw_a: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "source": self.source.value,
            "model": self.strategy.model.code,
            "q": self.strategy.q,
            "f": self.strategy.f,
            "a": self.strategy.a,
            "corner": self.corner,
        }
        if self.iterations is not None:
            out["iterations"] = self.iterations
        if self.corner:
            if self.raw_f is not None:
                out["raw_f"] = self.raw_f
            if self.raw_a is not None:
                out["raw_a"] = self.raw_a
        return out


def solve_model0(efficiency: EfficiencyParams, costs: CostParams, g: float) -> ClosedFormSolution:
    """Cheapest baseline strategy hitting gain ``g``."""
    g = check_gain(g)
    a = a0_star(efficiency, costs)
    q = recover_q(g, 0.0, a, ModelKind.BASELINE, efficiency)
    return ClosedFormSolution(
        strategy=Strategy(ModelKind.BASELINE, q=q, f=0.0, a=a),
        source=SolutionSource.MODEL0,
    )


# The coupled solvers' damped Gauss-Seidel: each step moves a coordinate
# _RELAXATION of the way to its formula's value; stop once no coordinate
# moves by _TOLERANCE, and give up after _STEP_LIMIT steps.
_RELAXATION = 0.5
_TOLERANCE = 1e-9
_STEP_LIMIT = 1000

# Each feedback model's coupled pair: the source it reports, then its depth
# and feedback formulas by name. The formulas are looked up at call time, so
# a rebinding of the module attribute is seen.
_COUPLED = {
    ModelKind.FEEDBACK_FIRST: (SolutionSource.MODEL1_COUPLED, "a1_star", "f1_star"),
    ModelKind.FEEDBACK_AFTER: (SolutionSource.MODEL2_COUPLED, "a2_star_partial", "f2_star_coupled"),
}


def _listed(value) -> list:
    """A column's elements, or a plain value, as a list of plain values."""
    return value.tolist() if isinstance(value, np.ndarray) else [value]


def _one_by_one(call, size: int, *columns) -> list:
    """``call`` on each of ``size`` instances in turn, with plain floats for
    its ``columns`` (arrays and bundles of them): each instance's result, or
    the :class:`EconError` it raises, without a traceback."""
    results = []
    for k in range(size):
        args = [_instance(column, k) for column in columns]
        try:
            results.append(call(*args))
        except EconError as exc:
            results.append(exc.with_traceback(None))
    return results


def _start_depth(efficiency: EfficiencyParams, costs: CostParams):
    """The baseline depth, or 1.0 where it has no interior optimum; instance
    by instance for columns."""
    try:
        return a0_star(efficiency, costs)
    except NoInteriorOptimum:
        if not isinstance(efficiency.alpha, np.ndarray):
            return 1.0
        return np.array(_one_by_one(_start_depth, len(efficiency.alpha), efficiency, costs))


def _step(depth_at, feedback_at, f, a, efficiency, costs):
    """One damped step from ``(f, a)``: the feedback formula's
    :class:`ClampedValue`, then the next ``f`` and ``a``."""
    fb = feedback_at(a, efficiency, costs)
    f_next = f + _RELAXATION * (fb.value - f)
    return fb, f_next, a + _RELAXATION * (depth_at(f_next, efficiency, costs) - a)


def _solve_coupled(
    model: ModelKind, efficiency: EfficiencyParams, costs: CostParams, g: float,
) -> list[Union[ClosedFormSolution, EconError]]:
    """Joint strategies from a depth formula and a feedback formula that each
    take the other's output (the model's ``_COUPLED`` row), by damped
    Gauss-Seidel from the baseline depth; the query count is recovered from
    the gain floor at the end.

    ``efficiency`` and ``costs`` hold one instance's plain floats or K
    instances' (K,) columns; a step is then one pass of the formulas over
    the columns of the instances still iterating. Each instance stops at its
    own step, so it gets the bits of its own solve on plain floats, or the
    error that solve raises: a formula's refusal, a non-finite iterate or
    the step cap (:class:`Diverged`), or a query count :func:`recover_q`
    rejects. A call over columns that raises is repeated instance by
    instance on plain floats (:func:`_one_by_one`), and only the instances
    whose own call raises drop out. Returns one result per instance: plain
    floats raise their error, and columns return each error in its
    instance's place.
    """
    g = check_gain(g)
    source, depth, feedback = _COUPLED[model]
    depth_at, feedback_at = globals()[depth], globals()[feedback]
    lone = not isinstance(efficiency.alpha, np.ndarray)
    # On plain floats, numpy's checks would cost more than the step itself.
    isfinite, larger = (math.isfinite, max) if lone else (np.isfinite, np.maximum)
    live = np.arange(1 if lone else len(efficiency.alpha))  # the instances still iterating
    results: list = [None] * len(live)
    settled = []  # per step where instances converged: (instances, step, f, a, raw f)
    eff, cst = efficiency, costs  # the live instances' parameters
    with np.errstate(all="ignore"):
        a = _start_depth(efficiency, costs)
        f = 0.0 if lone else np.zeros(len(live))
        for iteration in range(1, _STEP_LIMIT + 1):
            try:
                fb, f_next, a_next = _step(depth_at, feedback_at, f, a, eff, cst)
            except EconError:
                if lone:
                    raise
                steps = _one_by_one(partial(_step, depth_at, feedback_at), len(live), f, a, eff, cst)
                keep = []
                for i, (k, one) in enumerate(zip(live.tolist(), steps)):
                    if isinstance(one, EconError):
                        results[k] = one
                    else:
                        keep.append(i)
                if not keep:
                    break
                live, f, a, eff, cst = live[keep], f[keep], a[keep], _taken(eff, keep), _taken(cst, keep)
                fb = ClampedValue(*map(np.array, zip(*(steps[i][0] for i in keep))))
                f_next, a_next = map(np.array, zip(*(steps[i][1:] for i in keep)))
            finite = isfinite(f_next) & isfinite(a_next)
            going = finite & (larger(abs(f_next - f), abs(a_next - a)) >= _TOLERANCE)
            f, a = f_next, a_next
            if going is True or not lone and len(live) and going.all():
                continue
            diverged = f"fixed-point iterate left the finite range at step {iteration}"
            if lone:
                if not finite:
                    raise Diverged(diverged)
                settled.append((live, iteration, f, a, fb.raw))
                break
            for k in live[~finite].tolist():
                results[k] = Diverged(diverged)
            done = finite & ~going
            settled.append((live[done], np.full(np.count_nonzero(done), iteration), f[done], a[done], fb.raw[done]))
            live, f, a, eff, cst = live[going], f[going], a[going], _taken(eff, going), _taken(cst, going)
            if not len(live):
                break
        else:
            cap = f"fixed point not reached after {_STEP_LIMIT} iterations"
            if lone:
                raise Diverged(cap)
            for k in live.tolist():
                results[k] = Diverged(cap)

        if not settled:
            return results
        # The converged instances, as plain values for one instance, else as
        # columns; the query counts are recovered in one call.
        instances, iterations, f, a, raw = settled[0] if lone else map(np.concatenate, zip(*settled))
        at = efficiency if lone else _taken(efficiency, instances)
        try:
            qs = _listed(recover_q(g, f, a, model, at))
        except EconError:
            if lone:
                raise
            qs = _one_by_one(lambda f_k, a_k, at_k: recover_q(g, f_k, a_k, model, at_k), len(instances), f, a, at)
        corners = _listed((f == 0.0) & (raw < 0.0))
        for k, q, f_k, a_k, raw_k, corner, iteration in zip(
            _listed(instances), qs, _listed(f), _listed(a), _listed(raw), corners, _listed(iterations),
        ):
            results[k] = q if isinstance(q, EconError) else ClosedFormSolution(
                strategy=Strategy(model, q=q, f=f_k, a=a_k),
                source=source,
                corner=corner,
                iterations=iteration,
                raw_f=raw_k if corner else None,
            )
    return results


def model1_solve(efficiency: EfficiencyParams, costs: CostParams, g: float) -> ClosedFormSolution:
    """Joint m1 strategy from the mutually-dependent depth/feedback formulas.

    Neither :func:`a1_star` nor :func:`f1_star` stands alone (each takes the
    other's output), so the pair is resolved as a damped fixed point and the
    query count is recovered from the gain floor at the end.
    """
    return _solve_coupled(ModelKind.FEEDBACK_FIRST, efficiency, costs, g)[0]


def solve_model2_partial(
    efficiency: EfficiencyParams, costs: CostParams, g: float
) -> ClosedFormSolution:
    """m2 strategy from the depth-free feedback level plus the partial depth.

    Feedback comes from :func:`f2_star`; depth from :func:`a2_star_partial`
    evaluated at that feedback level.
    """
    g = check_gain(g)
    fb = f2_star(efficiency, costs)
    a = _in_range(a2_star_partial(fb.value, efficiency, costs), "the m2 partial depth", 0.0)
    q = recover_q(g, fb.value, a, ModelKind.FEEDBACK_AFTER, efficiency)
    return ClosedFormSolution(
        strategy=Strategy(ModelKind.FEEDBACK_AFTER, q=q, f=fb.value, a=a),
        source=SolutionSource.MODEL2_PARTIAL,
        corner=fb.corner,
        raw_f=fb.raw if fb.corner else None,
    )


def solve_model2_full(
    efficiency: EfficiencyParams, costs: CostParams, g: float
) -> ClosedFormSolution:
    """m2 strategy pairing :func:`f2_star` with the full depth formula.

    The full variant can clamp to zero depth, which cannot reach a positive
    gain floor; that case is surfaced as :class:`NoInteriorOptimum` rather
    than an infinite query count.
    """
    g = check_gain(g)
    fb = f2_star(efficiency, costs)
    depth = a2_star_full(fb.value, efficiency, costs)
    if depth.value <= 0.0:
        raise NoInteriorOptimum(
            "m2 full-depth formula clamped to zero assessments "
            f"(raw value {depth.raw}); no finite strategy reaches the gain floor"
        )
    q = recover_q(g, fb.value, depth.value, ModelKind.FEEDBACK_AFTER, efficiency)
    return ClosedFormSolution(
        strategy=Strategy(ModelKind.FEEDBACK_AFTER, q=q, f=fb.value, a=depth.value),
        source=SolutionSource.MODEL2_FULL,
        corner=fb.corner or depth.corner,
        raw_f=fb.raw if fb.corner else None,
        raw_a=depth.raw if depth.corner else None,
    )


def model2_solve_coupled(efficiency: EfficiencyParams, costs: CostParams, g: float) -> ClosedFormSolution:
    """Joint m2 strategy from the depth-coupled feedback variant.

    Same fixed-point scheme as :func:`model1_solve`, over
    :func:`f2_star_coupled` and :func:`a2_star_partial`.
    """
    return _solve_coupled(ModelKind.FEEDBACK_AFTER, efficiency, costs, g)[0]


# Each model's closed-form routes, by function name, in their stable order.
# Looked up at call time, so a rebinding of the module attribute is seen.
_ROUTES = {
    ModelKind.BASELINE: ("solve_model0",),
    ModelKind.FEEDBACK_FIRST: ("model1_solve",),
    ModelKind.FEEDBACK_AFTER: ("solve_model2_partial", "solve_model2_full", "model2_solve_coupled"),
}


def solutions_for(
    model: ModelKind,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
) -> list[ClosedFormSolution]:
    """All closed-form routes that apply to ``model``, in a stable order.

    m0 and m1 each have a single route; m2 returns its partial, full and
    coupled variants (in that order) because they genuinely disagree and
    picking one silently would hide that. A variant without an interior
    optimum is dropped from the list; if no variant survives, the first
    failure is re-raised.
    """
    if not isinstance(model, ModelKind):
        raise DomainError(f"unknown model {model!r}")
    solutions: list[ClosedFormSolution] = []
    first_failure: Optional[NoInteriorOptimum] = None
    for name in _ROUTES[model]:
        try:
            solutions.append(globals()[name](efficiency, costs, g))
        except NoInteriorOptimum as exc:
            if first_failure is None:
                first_failure = exc
    if not solutions:
        assert first_failure is not None
        raise first_failure
    return solutions
