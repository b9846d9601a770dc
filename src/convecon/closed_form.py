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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    check_gain,
    recover_q_value,
)
from .errors import Diverged, DomainError, NoInteriorOptimum

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


@dataclass(frozen=True)
class ClampedValue:
    """A formula output after clamping, next to the raw formula value."""

    value: float
    raw: float

    @property
    def corner(self) -> bool:
        """True when clamping actually changed the value."""
        return self.value != self.raw


def _clamp_floor(raw: float, floor: float = 0.0) -> ClampedValue:
    return ClampedValue(value=max(raw, floor), raw=raw)


def a0_star(efficiency: EfficiencyParams, costs: CostParams) -> float:
    """Baseline assessment depth: ``beta * c_query / ((alpha - beta) * c_assess)``.

    Needs ``alpha > beta``; otherwise assessing more never stops paying for
    itself and there is no interior optimum to return.
    """
    gap = efficiency.alpha - efficiency.beta
    if gap <= 0.0:
        raise NoInteriorOptimum(
            "baseline depth requires alpha > beta "
            f"(got alpha={efficiency.alpha}, beta={efficiency.beta})"
        )
    return efficiency.beta * costs.c_query / (gap * costs.c_assess)


def a1_star(f: float, efficiency: EfficiencyParams, costs: CostParams) -> float:
    """Assessment depth in m1 at feedback level ``f``.

    ``(beta * c_query + f * c_feedback) / ((gamma1 * f + alpha - beta) * c_assess)``.
    At ``f = 0`` this is exactly the baseline depth.
    """
    if f < 0.0:
        raise DomainError("f must be >= 0")
    gap = efficiency.gamma1 * f + efficiency.alpha - efficiency.beta
    if gap <= 0.0:
        raise NoInteriorOptimum(
            "m1 depth requires gamma1 * f + alpha > beta "
            f"(got {efficiency.gamma1} * {f} + {efficiency.alpha} vs beta={efficiency.beta})"
        )
    return (efficiency.beta * costs.c_query + f * costs.c_feedback) / (gap * costs.c_assess)


def f1_star(a: float, efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Feedback level in m1 at assessment depth ``a``, clamped at zero.

    ``(beta * c_query + (alpha - beta) * a * c_assess) / (gamma1 * a * c_assess + beta * c_feedback)``.
    """
    if a < 0.0:
        raise DomainError("a must be >= 0")
    denom = efficiency.gamma1 * a * costs.c_assess + efficiency.beta * costs.c_feedback
    if denom <= 0.0:
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
    if f < 0.0:
        raise DomainError("f must be >= 0")
    gap = efficiency.alpha - efficiency.beta
    if gap <= 0.0:
        raise NoInteriorOptimum(
            "m2 depth requires alpha > beta "
            f"(got alpha={efficiency.alpha}, beta={efficiency.beta})"
        )
    return (
        efficiency.beta
        * (costs.c_query + f * costs.c_feedback)
        / (gap * (f + 1.0) * costs.c_assess)
    )


def a2_star_full(f: float, efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Assessment depth in m2 with the feedback trade-off folded in.

    ``(gamma2 * (c_query + c_feedback) - alpha * (1 + f) * c_feedback)
    / ((alpha - gamma2) * (1 + f) * c_assess)``, clamped at zero. Undefined
    at ``alpha == gamma2`` (zero denominator); evaluated as written
    everywhere else, negative outputs included.
    """
    if f < 0.0:
        raise DomainError("f must be >= 0")
    gap = efficiency.alpha - efficiency.gamma2
    if gap == 0.0:
        raise DomainError(
            f"m2 full-depth formula is undefined at alpha == gamma2 (both {efficiency.alpha})"
        )
    raw = (
        efficiency.gamma2 * (costs.c_query + costs.c_feedback)
        - efficiency.alpha * (1.0 + f) * costs.c_feedback
    ) / (gap * (1.0 + f) * costs.c_assess)
    return _clamp_floor(raw)


def f2_star(efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Feedback level in m2, independent of depth.

    ``((gamma2 - beta) * c_query + (beta - alpha) * c_feedback) / ((alpha - gamma2) * c_feedback)``,
    clamped at zero. Undefined at ``alpha == gamma2`` (zero denominator).
    Note the assessment price does not appear at all, a property the tests
    pin down.
    """
    gap = efficiency.alpha - efficiency.gamma2
    if gap == 0.0:
        raise DomainError(
            f"m2 feedback formula is undefined at alpha == gamma2 (both {efficiency.alpha})"
        )
    raw = (
        (efficiency.gamma2 - efficiency.beta) * costs.c_query
        + (efficiency.beta - efficiency.alpha) * costs.c_feedback
    ) / (gap * costs.c_feedback)
    return _clamp_floor(raw)


def f2_star_coupled(a: float, efficiency: EfficiencyParams, costs: CostParams) -> ClampedValue:
    """Depth-coupled feedback level in m2, clamped at zero.

    ``(beta * c_query + (alpha - beta) * a * c_assess)
    / ((alpha - beta) * a * c_assess + beta * c_feedback)``. This is the
    earlier, depth-dependent alternative to :func:`f2_star`; it is kept as
    its own variant so the auditor can compare both routes to the oracle.
    """
    if a < 0.0:
        raise DomainError("a must be >= 0")
    gap = efficiency.alpha - efficiency.beta
    denom = gap * a * costs.c_assess + efficiency.beta * costs.c_feedback
    if denom <= 0.0:
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
    reported as :class:`NoInteriorOptimum`.
    """
    g = check_gain(g)
    if a <= 0.0:
        raise DomainError("a must be > 0 to recover a query count")
    if f < 0.0:
        raise DomainError("f must be >= 0")
    q = float(recover_q_value(model, g, f, a, efficiency))
    if not math.isfinite(q):
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


def _start_depth(efficiency: EfficiencyParams, costs: CostParams) -> float:
    try:
        return a0_star(efficiency, costs)
    except NoInteriorOptimum:
        return 1.0


def _solve_coupled(
    model: ModelKind,
    source: SolutionSource,
    depth: str,
    feedback: str,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
) -> ClosedFormSolution:
    """Joint strategy from a depth formula and a feedback formula that each
    take the other's output, by damped Gauss-Seidel from the baseline depth.

    ``depth`` and ``feedback`` name the formulas in this module; they are
    looked up at call time, so a rebinding of the module attribute is seen.
    Raises :class:`Diverged` when the iteration cap is hit or the iterates
    stop being finite; the query count is recovered from the gain floor at
    the end.
    """
    g = check_gain(g)
    depth_at, feedback_at = globals()[depth], globals()[feedback]
    a = _start_depth(efficiency, costs)
    f = 0.0
    for iteration in range(1, _STEP_LIMIT + 1):
        fb = feedback_at(a, efficiency, costs)
        f_next = f + _RELAXATION * (fb.value - f)
        a_next = a + _RELAXATION * (depth_at(f_next, efficiency, costs) - a)
        if not (math.isfinite(f_next) and math.isfinite(a_next)):
            raise Diverged(f"fixed-point iterate left the finite range at step {iteration}")
        step = max(abs(f_next - f), abs(a_next - a))
        f, a = f_next, a_next
        if step < _TOLERANCE:
            break
    else:
        raise Diverged(f"fixed point not reached after {_STEP_LIMIT} iterations")
    q = recover_q(g, f, a, model, efficiency)
    corner = f == 0.0 and fb.raw < 0.0
    return ClosedFormSolution(
        strategy=Strategy(model, q=q, f=f, a=a),
        source=source,
        corner=corner,
        iterations=iteration,
        raw_f=fb.raw if corner else None,
    )


def model1_solve(efficiency: EfficiencyParams, costs: CostParams, g: float) -> ClosedFormSolution:
    """Joint m1 strategy from the mutually-dependent depth/feedback formulas.

    Neither :func:`a1_star` nor :func:`f1_star` stands alone (each takes the
    other's output), so the pair is resolved as a damped fixed point and the
    query count is recovered from the gain floor at the end.
    """
    return _solve_coupled(
        ModelKind.FEEDBACK_FIRST, SolutionSource.MODEL1_COUPLED, "a1_star", "f1_star",
        efficiency, costs, g,
    )


def solve_model2_partial(
    efficiency: EfficiencyParams, costs: CostParams, g: float
) -> ClosedFormSolution:
    """m2 strategy from the depth-free feedback level plus the partial depth.

    Feedback comes from :func:`f2_star`; depth from :func:`a2_star_partial`
    evaluated at that feedback level.
    """
    g = check_gain(g)
    fb = f2_star(efficiency, costs)
    a = a2_star_partial(fb.value, efficiency, costs)
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
    return _solve_coupled(
        ModelKind.FEEDBACK_AFTER, SolutionSource.MODEL2_COUPLED, "a2_star_partial", "f2_star_coupled",
        efficiency, costs, g,
    )


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
