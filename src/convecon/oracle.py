"""Brute-force reference optimiser and first-order diagnostics.

The closed forms in :mod:`convecon.closed_form` are only as good as the
derivations behind them, so this module provides an independent route to the
same answers: eliminate the query count analytically through the gain floor
(cost is increasing in ``q``, so the floor always binds), then grid-search
the remaining one or two axes on a logarithmic lattice with a few zoom-in
refinement rounds.

The zoom search runs on a leading instance axis: K instances of one model
and one pin kind are searched at once, their lattices stacked as
(K, feedback, assessment) arrays, each instance with its own windows.
:func:`_minimize_batch` is the one entry: it validates the instances and
solves them in blocks of at most ``_BLOCK_NODES`` lattice nodes (at least
one instance per block). At the audit grid (64 points) a block holds 8 joint
searches or 512 one-axis searches; at the default grid (200 points) a joint
search is alone. :func:`minimize_cost` is its one-instance call, and the
audit passes it every perturbed sample of a claim at once. Every instance
gets the bits its own K=1 call gives, by three rules:

* numpy computes ``x**0.5``, ``x**2`` and ``x**-1`` by sqrt, square and
  reciprocal only for a scalar exponent; a column of K exponents goes
  through pow, which can differ in the last bit. An instance whose K=1
  lattice raises to one of those values as a scalar is searched alone.
* window shrinking stays in :mod:`math`, one instance at a time
  (``np.log10`` and ``np.power`` can differ from ``math.log10`` and
  ``10.0 **`` in the last bit); the axes are built with numpy logspace's
  own arithmetic, which is elementwise, so each row gets the bits of its
  own scalar call.
* at K=1 the parameters reach numpy as plain floats, not (1, 1, 1) arrays:
  the bits are the same, but arrays slow the lattice arithmetic down.

Each zoom round writes its lattices into a workspace that the thread keeps
(:func:`_workspace`): three lattice-sized buffers, reused across rounds and
calls, so a round allocates no lattice. The thread keeps three times the
largest block lattice it has searched: 0.8 MB at the audit grid, 0.96 MB
at the default grid.

The oracle also reports stationarity diagnostics (:func:`kkt_residual`) and
an integer neighbourhood search (:func:`integer_refine`) for callers who need
whole-number action counts rather than the continuous relaxation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ._jsonio import check_keys, named
from .closed_form import ClosedFormSolution, recover_q_value
# cost_value is not called here; it stays a module name because the
# benchmark's tracer rebinds ``oracle.recover_q_value`` and
# ``oracle.cost_value``.
from .core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    _model_row,
    _query_exponent,
    _require_count,
    _require_finite,
    check_gain,
    cost,
    cost_value,
    gain,
)
from .errors import DomainError, EconError, Infeasible, NoInteriorOptimum, Unbounded

__all__ = [
    "GridSpec",
    "GridMeta",
    "KktReport",
    "OptimalStrategy",
    "IntegerRefinement",
    "lagrangian",
    "kkt_residual",
    "minimize_cost",
    "integer_refine",
]

_GRID_FIELDS = ("min", "max", "points", "refinements")

# Lattice nodes searched at once: K instances of ``points ** searched`` nodes.
_BLOCK_NODES = 2**15

# Per thread, the flat float64 arena behind _workspace's lattice buffers.
_WORKSPACE = threading.local()


@dataclass(frozen=True)
class GridSpec:
    """Search-box description for the brute-force oracle.

    ``min``/``max`` bound every searched axis (feedback and assessment
    counts); ``points`` is the lattice size per axis per round, and
    ``refinements`` is how many times the window shrinks (a tenth of its
    log-span, centred on the incumbent, clipped to the global box) after the
    initial pass.
    """

    min: float = 1e-3
    max: float = 1e4
    points: int = 200
    refinements: int = 3

    def __post_init__(self) -> None:
        lo = _require_finite("grid min", self.min)
        hi = _require_finite("grid max", self.max)
        if not 0.0 < lo < hi:
            raise DomainError("grid requires 0 < min < max")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)
        object.__setattr__(self, "points", _require_count("grid points", self.points, 2))
        object.__setattr__(self, "refinements", _require_count("grid refinements", self.refinements, 0))

    @classmethod
    def from_mapping(cls, data: Mapping[str, object], *, source: str = "grid") -> "GridSpec":
        check_keys(data, (), _GRID_FIELDS, source=source)
        with named(source):
            return cls(**data)

    def to_dict(self) -> dict:
        return {
            "min": self.min,
            "max": self.max,
            "points": self.points,
            "refinements": self.refinements,
        }


@dataclass(frozen=True)
class GridMeta:
    """Where the search ended up: final windows and corner contacts."""

    points: int
    refinements: int
    a_window: tuple[float, float]
    f_window: Optional[tuple[float, float]] = None
    lower_corner_axes: tuple[str, ...] = ()
    pinned_axes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "points": self.points,
            "refinements": self.refinements,
            "a_window": list(self.a_window),
            "lower_corner_axes": list(self.lower_corner_axes),
        }
        if self.f_window is not None:
            out["f_window"] = list(self.f_window)
        if self.pinned_axes:
            out["pinned_axes"] = list(self.pinned_axes)
        return out


@dataclass(frozen=True)
class KktReport:
    """Normalised stationarity residuals at a candidate strategy.

    The multiplier is read off the assessment axis (whose residual is then
    zero by construction) and the remaining first-order conditions are
    checked against it. Residuals are scaled by the Euclidean norm of the
    cost gradient so the numbers are comparable across instances.
    ``constraint_rel_gap`` is how far realised gain sits from the floor,
    relative to the floor.
    """

    lam: float
    residual_q: float
    residual_f: float
    residual_max: float
    constraint_rel_gap: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "residual_q": self.residual_q,
            "residual_f": self.residual_f,
            "residual_max": self.residual_max,
            "constraint_rel_gap": self.constraint_rel_gap,
        }


@dataclass(frozen=True)
class IntegerRefinement:
    """An all-integer strategy meeting the gain floor, with its outcomes."""

    strategy: Strategy
    achieved_gain: float
    total_cost: float

    def to_dict(self) -> dict:
        return {
            "q": self.strategy.q,
            "f": self.strategy.f,
            "a": self.strategy.a,
            "achieved_gain": self.achieved_gain,
            "total_cost": self.total_cost,
        }


@dataclass(frozen=True)
class OptimalStrategy:
    """Oracle output: the incumbent strategy plus its diagnostics."""

    strategy: Strategy
    achieved_gain: float
    total_cost: float
    kkt: KktReport
    grid_meta: GridMeta
    integer_neighbor: Optional[IntegerRefinement] = None

    def with_integer(self, neighbor: IntegerRefinement) -> "OptimalStrategy":
        return replace(self, integer_neighbor=neighbor)

    def to_dict(self) -> dict:
        out = {
            "model": self.strategy.model.code,
            "q": self.strategy.q,
            "f": self.strategy.f,
            "a": self.strategy.a,
            "achieved_gain": self.achieved_gain,
            "total_cost": self.total_cost,
            "kkt": self.kkt.to_dict(),
            "grid": self.grid_meta.to_dict(),
        }
        if self.integer_neighbor is not None:
            out["integer"] = self.integer_neighbor.to_dict()
        return out


def lagrangian(
    strategy: Strategy,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
    lam: float,
) -> float:
    """Cost minus ``lam`` times the gain surplus over the floor."""
    g = check_gain(g)
    return cost(strategy, costs) - lam * (gain(strategy, efficiency) - g)


def _gradients(strategy: Strategy, efficiency: EfficiencyParams, costs: CostParams):
    """Analytic (cost, gain) gradients in (q, f, a) order, from the model's row.

    A model without feedback has no ``f`` component: both ``f`` entries are
    0.0, so the cost-gradient norm in :func:`kkt_residual` spans (q, a) only.
    """
    q, f, a = strategy.q, strategy.f, strategy.a
    if q <= 0.0 or a <= 0.0:
        raise DomainError("gradients require q > 0 and a > 0")
    row = _model_row(strategy.model)
    value = gain(strategy, efficiency)
    passes = 1.0 + row.repeat * f
    cost_grad = (
        costs.c_query + f * costs.c_feedback + passes * a * costs.c_assess,
        q * costs.c_feedback + row.repeat * q * a * costs.c_assess if row.feedback else 0.0,
        q * passes * costs.c_assess,
    )
    gain_grad = (
        _query_exponent(row, f, efficiency) * value / q,
        row.lift * efficiency.gamma1 * math.log(q) * value
        + row.repeat * efficiency.gamma2 * value / (1.0 + f),
        efficiency.beta * value / a,
    )
    return cost_grad, gain_grad


def kkt_residual(
    strategy: Strategy,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
) -> KktReport:
    """First-order-condition residuals at ``strategy`` for gain floor ``g``.

    Small residuals certify an interior stationary point; a corner optimum
    legitimately shows a non-zero feedback residual, so this is a diagnostic,
    not a pass/fail test on its own.
    """
    g = check_gain(g)
    cost_grad, gain_grad = _gradients(strategy, efficiency, costs)
    if gain_grad[2] == 0.0:
        raise DomainError("assessment gain gradient is zero; cannot read off a multiplier")
    lam = cost_grad[2] / gain_grad[2]
    norm = math.sqrt(sum(component * component for component in cost_grad))
    residual_q = (cost_grad[0] - lam * gain_grad[0]) / norm
    residual_f = (cost_grad[1] - lam * gain_grad[1]) / norm
    gap = (gain(strategy, efficiency) - g) / g
    return KktReport(
        lam=lam,
        residual_q=residual_q,
        residual_f=residual_f,
        residual_max=max(abs(residual_q), abs(residual_f)),
        constraint_rel_gap=gap,
    )


def _log_axes(windows: Sequence[tuple[float, float]], points: int) -> np.ndarray:
    """One log-spaced axis per window, as rows of a (K, points) array.

    This is numpy logspace's arithmetic written out for a column of
    endpoints; every step is elementwise, so each row gets the bits of its
    own scalar ``np.logspace`` call.
    """
    exponents = np.array([(math.log10(lo), math.log10(hi)) for lo, hi in windows])
    lo, hi = exponents[:, :1], exponents[:, 1:]
    y = np.arange(points, dtype=float) * ((hi - lo) / (points - 1))
    y += lo
    y[:, -1:] = hi
    return np.power(10.0, y)


def _shrink(window: tuple[float, float], center: float, spec: GridSpec) -> tuple[float, float]:
    """Next refinement window: a tenth of the log-span, centred, clipped."""
    lo, hi = math.log10(window[0]), math.log10(window[1])
    half = (hi - lo) / 2.0 / 10.0
    c = math.log10(center)
    g_lo, g_hi = math.log10(spec.min), math.log10(spec.max)
    return (10.0 ** max(g_lo, c - half), 10.0 ** min(g_hi, c + half))


def _argmin_lex(total: np.ndarray, qv: np.ndarray, f_axis: np.ndarray, a_axis: np.ndarray) -> list[int]:
    """Per instance, the flat index of the least cost, ties going to the
    smallest (q, f, a); -1 where no node has a finite cost."""
    flat = total.reshape(len(total), -1)
    index = flat.argmin(axis=1)
    best = flat[np.arange(len(flat)), index]
    is_best = flat == best[:, None]
    # Counting per instance costs a pass over the lattice; skip it unless
    # some instance has more than one least-cost node.
    tied = is_best.sum(axis=1).tolist() if np.count_nonzero(is_best) > len(flat) else None
    index = index.tolist()
    for k, value in enumerate(best.tolist()):
        if not math.isfinite(value):
            index[k] = -1
        elif tied is not None and tied[k] > 1:
            nodes = np.flatnonzero(is_best[k])
            f_idx, a_idx = np.divmod(nodes, a_axis.shape[1])
            order = np.lexsort((a_axis[k, a_idx], f_axis[k, f_idx], qv[k].ravel()[nodes]))
            index[k] = int(nodes[order[0]])
    return index


def _workspace(shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three lattice buffers of ``shape``: views of this thread's arena.

    The arena grows to three times the largest lattice the thread has asked
    for and is kept across rounds and calls. A later call reuses the same
    memory, so :func:`_search` is not re-entrant within a thread, and no
    view may leave it.
    """
    size = shape[0] * shape[1] * shape[2]
    arena = getattr(_WORKSPACE, "arena", None)
    if arena is None or arena.size < 3 * size:
        arena = _WORKSPACE.arena = np.empty(3 * size)
    return tuple(arena[i * size:(i + 1) * size].reshape(shape) for i in range(3))


def _front(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first elements of a lattice buffer, viewed as a smaller shape."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


def _evaluate(model, efficiency, costs, g, f_axis, a_axis):
    """Cost surfaces over K lattices with q eliminated through the floor.

    ``f_axis`` and ``a_axis`` hold one axis per instance, (K, F) and (K, A);
    returns (q, total) arrays of instances by feedback rows by assessment
    columns, views of the thread's workspace. The arithmetic is
    :func:`~convecon.closed_form.recover_q_value` and then
    :func:`~convecon.core.cost_value`, operation for operation, each written
    into a workspace buffer; a scalar power is an in-place ``**=``, so it
    takes the operator's sqrt/square/reciprocal fast path where ``x ** p``
    would. Non-finite costs become ``inf``.
    """
    row = _model_row(model)
    fcol = f_axis[:, :, None]
    arow = a_axis[:, None, :]
    qv, total, scratch = _workspace((len(f_axis), f_axis.shape[1], a_axis.shape[1]))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        # q = (g / ((1 + f)**(repeat*gamma2) * a**beta)) ** (1 / exponent)
        scale = _front(total, arow.shape)
        np.copyto(scale, arow)
        scale **= efficiency.beta
        if row.repeat:
            passes = _front(scratch, fcol.shape)
            np.add(1.0, fcol, out=passes)
            passes **= efficiency.gamma2
            scale = np.multiply(passes, scale, out=qv)
        if row.lift:
            inverse = _front(scratch, fcol.shape)
            np.multiply(efficiency.gamma1, fcol, out=inverse)
            np.add(inverse, efficiency.alpha, out=inverse)
            np.divide(1.0, inverse, out=inverse)
            np.divide(g, scale, out=scale)
            np.power(scale, inverse, out=qv)
        else:
            np.divide(g, scale, out=qv)
            qv **= 1.0 / efficiency.alpha
        # total = q*c_query + (q*f)*c_feedback + assessments*c_assess
        np.multiply(qv, costs.c_query, out=total)
        np.multiply(qv, fcol, out=scratch)
        np.multiply(scratch, costs.c_feedback, out=scratch)
        np.add(total, scratch, out=total)
        if row.repeat:
            np.add(1.0, fcol, out=scratch)
            np.multiply(qv, scratch, out=scratch)
            np.multiply(scratch, arow, out=scratch)
        else:
            np.multiply(qv, arow, out=scratch)
        np.multiply(scratch, costs.c_assess, out=scratch)
        np.add(total, scratch, out=total)
    np.copyto(total, np.inf, where=~np.isfinite(total))
    return qv, total


def _columns(params: Sequence) -> SimpleNamespace:
    """K parameter bundles as one, each field a (K, 1, 1) column.

    ``recover_q_value`` and ``cost_value`` only read the fields, so the
    columns broadcast against K stacked lattices.
    """
    return SimpleNamespace(**{
        field.name: np.array([getattr(p, field.name) for p in params]).reshape(-1, 1, 1)
        for field in fields(params[0])
    })


def _pow_fast_path(model: ModelKind, efficiency: EfficiencyParams) -> bool:
    """Whether a lone lattice of this instance raises to an exponent numpy
    special-cases.

    Given float parameters, ``recover_q_value`` raises to ``beta``, to
    ``gamma2`` where feedback repeats the pass, and to ``1 / alpha`` where
    feedback does not lift the query exponent as scalars (a lifted exponent
    is an array over ``f``). numpy computes a scalar 0.5, 2 or -1 by sqrt,
    square or reciprocal; in a column of K exponents it uses pow, which can
    differ in the last bit.
    """
    row = _model_row(model)
    exponents = [efficiency.beta]
    if row.repeat:
        exponents.append(efficiency.gamma2)
    if not row.lift:
        exponents.append(1.0 / efficiency.alpha)
    return any(value in (0.5, 2.0, -1.0) for value in exponents)


def _check_pin(model: ModelKind, pin: Optional[str], value) -> None:
    if pin == "f":
        if not model.uses_feedback:
            raise DomainError("pin_f applies only to feedback models")
        if not math.isfinite(value) or value < 0.0:
            raise DomainError("pin_f must be finite and >= 0")
    elif pin == "a" and (not math.isfinite(value) or value <= 0.0):
        raise DomainError("pin_a must be finite and > 0")


def minimize_cost(
    model: ModelKind,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
    grid: Optional[GridSpec] = None,
    *,
    pin_f: Optional[float] = None,
    pin_a: Optional[float] = None,
) -> OptimalStrategy:
    """Cheapest strategy reaching gain ``g``, found by zoomed grid search.

    The gain constraint always binds at an optimum (cost strictly increases
    in ``q``), so ``q`` is resolved analytically at every lattice node and
    only the feedback and assessment axes are searched. If the incumbent
    lands on the upper edge of the global box with cost still falling toward
    it, the problem is reported as :class:`Unbounded` instead of returning a
    box artefact. Lower-edge contacts are legitimate corners (for example, a
    feedback model with a zero feedback exponent) and are recorded in the
    grid metadata.

    ``pin_f`` / ``pin_a`` hold one axis at a fixed value and search only the
    other, which is how the comparative-statics auditor asks conditional
    questions ("best depth at this feedback level"). A pinned axis is exempt
    from boundary diagnostics.
    """
    if pin_f is not None and pin_a is not None:
        raise DomainError("cannot pin both axes; nothing would be left to search")
    pin = "a" if pin_a is not None else "f" if pin_f is not None else None
    value = pin_a if pin == "a" else pin_f
    results = _minimize_batch(model, [(efficiency, costs, value)], g, grid, pin=pin)
    if isinstance(results[0], EconError):
        # Popped, not bound to a name: the traceback would hold this frame,
        # and the frame the error, in a cycle only the collector frees.
        raise results.pop()
    return results[0]


def _minimize_batch(
    model: ModelKind,
    instances: Sequence[tuple[EfficiencyParams, CostParams, Optional[float]]],
    g: float,
    grid: Optional[GridSpec] = None,
    *,
    pin: Optional[str] = None,
) -> list[Union[OptimalStrategy, EconError]]:
    """:func:`minimize_cost` for many instances of one model and pin kind.

    ``instances`` are ``(efficiency, costs, value)`` triples, ``value``
    being the instance's ``pin_f`` or ``pin_a`` as ``pin`` is ``"f"`` or
    ``"a"`` (ignored when ``pin`` is None). Returns, in order, each
    instance's solution or the :class:`EconError` its own call would raise,
    kept without a traceback; solutions match their own calls bit for bit.
    Instances are searched together in blocks of at most ``_BLOCK_NODES``
    lattice nodes, and at least one instance.
    """
    g = check_gain(g)
    if not isinstance(model, ModelKind):
        model = ModelKind.from_code(model)
    spec = grid if grid is not None else GridSpec()
    searched = int(pin != "a") + int(model.uses_feedback and pin != "f")
    cap = max(1, _BLOCK_NODES // spec.points ** searched)

    results: list = [None] * len(instances)
    blocks, pending = [], []
    for i, (efficiency, _, value) in enumerate(instances):
        try:
            _check_pin(model, pin, value)
        except DomainError as exc:
            results[i] = exc.with_traceback(None)
            continue
        if _pow_fast_path(model, efficiency):
            blocks.append([i])
        else:
            pending.append(i)
    blocks += [pending[start:start + cap] for start in range(0, len(pending), cap)]
    for block in blocks:
        solved = _search(model, [instances[i] for i in block], g, spec, pin)
        for i, result in zip(block, solved):
            results[i] = result
    return results


def _search(
    model: ModelKind,
    instances: Sequence[tuple[EfficiencyParams, CostParams, Optional[float]]],
    g: float,
    spec: GridSpec,
    pin: Optional[str],
) -> list[Union[OptimalStrategy, EconError]]:
    """The zoom search for one block of K validated instances, their
    lattices stacked on a leading axis; each instance keeps its own
    windows. Returns what :func:`_minimize_batch` does for the block.

    The lattices live in the thread's workspace (:func:`_workspace`) and
    only floats copied out of them are returned, so this is not re-entrant
    within a thread."""
    size = len(instances)
    if size == 1:
        # Float parameters at K=1: the same bits, and faster than columns.
        efficiency, costs = instances[0][0], instances[0][1]
    else:
        efficiency = _columns([instance[0] for instance in instances])
        costs = _columns([instance[1] for instance in instances])
    values = [instance[2] for instance in instances]
    pinned = np.array(values).reshape(size, 1) if pin is not None else None
    # A model without feedback searches the single feedback row f = 0.
    f_fixed = pinned if pin == "f" else None if model.uses_feedback else np.zeros((size, 1))
    a_fixed = pinned if pin == "a" else None
    f_windows = [(spec.min, spec.max)] * size if f_fixed is None else None
    a_windows = [(spec.min, spec.max)] * size if a_fixed is None else None
    pinned_axes = (pin,) if pin is not None else ()

    errors: list[Optional[EconError]] = [None] * size
    best = [(0, 0)] * size
    for round_index in range(spec.refinements + 1):
        f_axis = f_fixed if f_windows is None else _log_axes(f_windows, spec.points)
        a_axis = a_fixed if a_windows is None else _log_axes(a_windows, spec.points)
        qv, total = _evaluate(model, efficiency, costs, g, f_axis, a_axis)
        for k, flat_idx in enumerate(_argmin_lex(total, qv, f_axis, a_axis)):
            if flat_idx < 0:
                # A valid input whose gain target no finite query count reaches.
                errors[k] = errors[k] or NoInteriorOptimum("grid evaluation produced no finite cost")
            else:
                best[k] = divmod(flat_idx, a_axis.shape[1])
        if all(errors):
            return errors
        if round_index < spec.refinements:
            if a_windows is not None:
                a_windows = [
                    _shrink(window, float(a_axis[k, a_idx]), spec)
                    for k, (window, (_, a_idx)) in enumerate(zip(a_windows, best))
                ]
            if f_windows is not None:
                f_windows = [
                    _shrink(window, float(f_axis[k, f_idx]), spec)
                    for k, (window, (f_idx, _)) in enumerate(zip(f_windows, best))
                ]

    results: list = []
    for k, (efficiency_k, costs_k, value) in enumerate(instances):
        if errors[k] is not None:
            results.append(errors[k])
            continue
        f_idx, a_idx = best[k]
        surface = total[k]
        lower_corners = []
        if f_windows is not None:
            if f_idx == f_axis.shape[1] - 1 and f_axis[k, -1] == spec.max:
                if surface[f_idx - 1, a_idx] > surface[f_idx, a_idx]:
                    results.append(Unbounded(
                        "cost still decreasing at the upper grid bound on the feedback axis "
                        f"(f = {spec.max}); the optimum lies outside the search box"
                    ))
                    continue
            if f_idx == 0 and f_axis[k, 0] == spec.min:
                lower_corners.append("f")
        if a_windows is not None:
            if a_idx == a_axis.shape[1] - 1 and a_axis[k, -1] == spec.max:
                if surface[f_idx, a_idx - 1] > surface[f_idx, a_idx]:
                    results.append(Unbounded(
                        "cost still decreasing at the upper grid bound on the assessment axis "
                        f"(a = {spec.max}); the optimum lies outside the search box"
                    ))
                    continue
            if a_idx == 0 and a_axis[k, 0] == spec.min:
                lower_corners.append("a")
        strategy = Strategy(
            model, q=float(qv[k, f_idx, a_idx]), f=float(f_axis[k, f_idx]), a=float(a_axis[k, a_idx]),
        )
        meta = GridMeta(
            points=spec.points,
            refinements=spec.refinements,
            a_window=(value, value) if pin == "a" else a_windows[k],
            f_window=(value, value) if pin == "f" else None if f_windows is None else f_windows[k],
            lower_corner_axes=tuple(lower_corners),
            pinned_axes=pinned_axes,
        )
        try:
            results.append(OptimalStrategy(
                strategy=strategy,
                achieved_gain=gain(strategy, efficiency_k),
                total_cost=cost(strategy, costs_k),
                kkt=kkt_residual(strategy, efficiency_k, costs_k, g),
                grid_meta=meta,
            ))
        except EconError as exc:
            results.append(exc.with_traceback(None))
    return results


def _integer_candidates(center: float, radius: int, floor: int) -> range:
    lo = math.floor(center) - (radius - 1)
    hi = math.ceil(center) + (radius - 1)
    return range(max(floor, lo), max(floor, hi) + 1)


def integer_refine(
    solution: Union[OptimalStrategy, ClosedFormSolution, Strategy],
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
    radius: int = 1,
) -> IntegerRefinement:
    """Cheapest all-integer strategy near a continuous solution.

    Searches the integer lattice within ``radius`` of each rounded component
    (queries and assessments at least 1, feedback at least 0). For every
    feedback/assessment pair, the query count that exactly meets the floor is
    rounded up and offered as an extra candidate, so a feasible point exists
    whenever the floor is attainable at all. Candidates must reach the gain
    floor (to within a 1e-12 relative slack for float rounding); ties on cost
    go to the lexicographically smallest counts. A candidate whose gain
    overflows a float raises :class:`NoInteriorOptimum`.
    """
    g = check_gain(g)
    radius = _require_count("radius", radius, 1)
    base = getattr(solution, "strategy", solution)
    if not isinstance(base, Strategy):
        raise DomainError("solution must carry a Strategy")
    model = base.model

    f_candidates: Sequence[int] = (0,)
    if model.uses_feedback:
        f_candidates = _integer_candidates(base.f, radius, floor=0)
    a_candidates = _integer_candidates(base.a, radius, floor=1)
    q_candidates = list(_integer_candidates(base.q, radius, floor=1))

    feasible: list[tuple[float, int, int, int, float]] = []
    slack = 1.0 - 1e-12
    for f in f_candidates:
        for a in a_candidates:
            try:
                q_exact = float(recover_q_value(model, g, float(f), float(a), efficiency))
            except OverflowError:
                q_exact = float("inf")
            options = set(q_candidates)
            if math.isfinite(q_exact):
                options.add(max(1, math.ceil(q_exact)))
            for q in sorted(options):
                candidate = Strategy(model, q=float(q), f=float(f), a=float(a))
                try:
                    achieved = gain(candidate, efficiency)
                except DomainError:
                    raise NoInteriorOptimum(
                        f"the gain of integer candidate (q={q}, f={f}, a={a}) overflows a float"
                    ) from None
                if achieved >= g * slack:
                    feasible.append((cost(candidate, costs), q, f, a, achieved))
    if not feasible:
        raise Infeasible(
            f"no integer strategy within radius {radius} of "
            f"(q={base.q:.3f}, f={base.f:.3f}, a={base.a:.3f}) reaches gain {g}"
        )
    feasible.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    total_cost, q, f, a, achieved = feasible[0]
    return IntegerRefinement(
        strategy=Strategy(model, q=float(q), f=float(f), a=float(a)),
        achieved_gain=achieved,
        total_cost=total_cost,
    )
