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

A block of joint searches (a feedback model, no pin) whose full lattice has
at least ``_PRUNE_NODES`` nodes (a lone search from 128 points per axis, 8
searches from 46) evaluates only the feedback rows that can hold a round's
least cost (:func:`_kept_rows`); a smaller block evaluates every row, which
is cheaper there. Each round first bounds every row's least cost from below
(:func:`_row_floors`: the row's continuous minimum over the assessment
window, worked out from the model row in :mod:`convecon.core`, less a 1e-9
relative slack) and evaluates the row with the lowest bound. That row's
least cost is a lattice value, so no row whose bound exceeds it can hold
the round's least cost or tie it. Each instance then evaluates one window
of consecutive rows that covers the rows left, at its own offset, with a
full lattice's arithmetic; so the incumbent, the tie-break, the corner
flags and the :class:`Unbounded` check keep their bits (a neighbour row
outside the window is costlier than the incumbent). The bound only chooses
rows and never supplies an answer, and it uses :mod:`convecon.core`, never
the closed forms. Every row is kept where subnormal values could lose the
precision the slack assumes, and for an m1 instance whose exponent
``1 / (gamma1*f + alpha)`` is 0.5 or 2 on some row: whether numpy takes its
sqrt or square path there depends on the lattice's shape. A default-grid
joint solve at the README parameters evaluates 1,600 to 3,000 nodes, not
160,000. One-axis searches have a single row or column and evaluate it all.

Each zoom round writes its lattices into a workspace that the thread keeps
(:func:`_workspace`): three lattice-sized buffers, reused across rounds and
calls, so a round allocates no lattice. The arena grows only to three times
the largest lattice the thread is asked for: at most 0.8 MB at the audit
grid and 0.96 MB at the default grid, where every row is kept.

The batch returns bare incumbents: the least-cost node's ``(q, f, a)`` and
where the search ended (:class:`GridMeta`), or the instance's error. Only
:func:`minimize_cost`, which the ``oracle`` command calls, turns its
incumbent into a report (:class:`OptimalStrategy`), adding the achieved
gain, the total cost and the stationarity diagnostics
(:func:`kkt_residual`); the audit, sweeps and the viability call read the
incumbents alone. An integer neighbourhood search (:func:`integer_refine`)
serves callers who need whole-number action counts rather than the
continuous relaxation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Optional, Sequence, Union

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
    "kkt_residual",
    "minimize_cost",
    "integer_refine",
]

_GRID_FIELDS = ("min", "max", "points", "refinements")

# Lattice nodes searched at once: K instances of ``points ** searched`` nodes.
_BLOCK_NODES = 2**15
# A joint block evaluates only its kept rows (_kept_rows) when its full
# lattice has at least this many nodes. Below that, bounding and probing the
# rows costs more than evaluating them all: a lone search breaks even near
# 100 points per axis, a block of 8 near 40.
_PRUNE_NODES = 2**14

# Per thread, the flat float64 arena behind _workspace's lattice buffers.
_WORKSPACE = threading.local()

# Exponents numpy computes by sqrt, square and reciprocal when it holds
# them fixed, instead of by pow.
_SPECIAL_EXPONENTS = (0.5, 2.0, -1.0)

# A row floor is lowered by this relative slack, far above the rounding of
# the lattice arithmetic, so no lattice node of the row costs less.
_FLOOR_SLACK = 1e-9
# Values at or below this may be subnormal somewhere in the lattice
# arithmetic, where the slack no longer covers the lost precision.
_FLOOR_TINY = 1e-290


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

    def to_dict(self) -> dict:
        out = {
            "points": self.points,
            "refinements": self.refinements,
            "a_window": list(self.a_window),
            "lower_corner_axes": list(self.lower_corner_axes),
        }
        if self.f_window is not None:
            out["f_window"] = list(self.f_window)
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

    def to_dict(self) -> dict:
        return {
            "model": self.strategy.model.code,
            "q": self.strategy.q,
            "f": self.strategy.f,
            "a": self.strategy.a,
            "achieved_gain": self.achieved_gain,
            "total_cost": self.total_cost,
            "kkt": self.kkt.to_dict(),
            "grid": self.grid_meta.to_dict(),
        }


class _Incumbent(NamedTuple):
    """One instance's search result: the least-cost node, as plain floats,
    and where the search ended."""

    q: float
    f: float
    a: float
    grid_meta: GridMeta


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
    not a pass/fail test on its own. A gradient component or a residual that
    overflows a float raises :class:`NoInteriorOptimum`.
    """
    g = check_gain(g)
    cost_grad, gain_grad = _gradients(strategy, efficiency, costs)
    at = f"at (q={strategy.q!r}, f={strategy.f!r}, a={strategy.a!r})"
    for name, gradient in (("cost", cost_grad), ("gain", gain_grad)):
        if not all(math.isfinite(component) for component in gradient):
            raise NoInteriorOptimum(f"the {name} gradient {at} overflows a float")
    if gain_grad[2] == 0.0:
        raise DomainError("assessment gain gradient is zero; cannot read off a multiplier")
    lam = cost_grad[2] / gain_grad[2]
    norm = math.sqrt(sum(component * component for component in cost_grad))
    residual_q = (cost_grad[0] - lam * gain_grad[0]) / norm
    residual_f = (cost_grad[1] - lam * gain_grad[1]) / norm
    if not (math.isfinite(residual_q) and math.isfinite(residual_f)):
        raise NoInteriorOptimum(f"the KKT residuals {at} overflow a float")
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


def _row_floors(model, efficiency, costs, g, f_axis, a_axis):
    """Per instance, a lower bound on each feedback row's least lattice
    cost, as a (K, F) array; 0 where the bound is not sound.

    With q eliminated through the gain floor, row ``f`` costs
    ``Q0 * a**-r * (K1 + K2*a)`` with ``r = beta / (alpha + lift*gamma1*f)``,
    ``K1 = c_query + f*c_feedback`` and ``K2 = (1 + repeat*f)*c_assess``
    (the model row, as in :func:`_gradients`). For ``r < 1`` that is
    unimodal in ``a``, least at ``a* = r*K1 / ((1 - r)*K2)``; for ``r >= 1``
    it falls in ``a``. So the row's continuous minimum over the assessment
    window is its cost at ``a*`` clipped to the window, less
    ``_FLOOR_SLACK``.

    A row's floor is 0, so that the row is always evaluated, where the
    floor is not finite, or where it, the row's least ``g / scale`` or
    ``min(1, q) * min(1, f, a)`` (at the row's least ``q`` and the window's
    least ``a``) is at most ``_FLOOR_TINY``.
    """
    row = _model_row(model)
    f = f_axis[:, :, None]
    lo, hi = a_axis[:, None, :1], a_axis[:, None, -1:]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        exponent = _query_exponent(row, f, efficiency)
        inverse = 1.0 / exponent
        ratio = efficiency.beta / exponent
        fixed = costs.c_query + f * costs.c_feedback
        per_a = (1.0 + f) * costs.c_assess if row.repeat else costs.c_assess
        turn = ratio * fixed / ((1.0 - ratio) * per_a)
        a = np.where(ratio < 1.0, np.minimum(np.maximum(turn, lo), hi), hi)
        passes = (1.0 + f) ** efficiency.gamma2 if row.repeat else 1.0
        floor = (g / (passes * a ** efficiency.beta)) ** inverse * (fixed + per_a * a)
        floor *= 1.0 - _FLOOR_SLACK
        least_x = g / (passes * hi ** efficiency.beta)
        least_q = least_x ** inverse
        smallest = np.minimum(least_x, np.minimum(least_q, 1.0) * np.minimum(np.minimum(f, lo), 1.0))
        sound = np.isfinite(floor) & (floor > _FLOOR_TINY) & (smallest > _FLOOR_TINY)
    floors = np.where(sound, floor, 0.0)[:, :, 0]
    if row.lift:
        # _evaluate raises to these reciprocals as an array. numpy computes
        # a special exponent by square, sqrt or reciprocal only where its
        # inner loop holds the exponent fixed, and which loop it runs
        # depends on the lattice's shape; so such an instance keeps every
        # row, and the lattice shape of a full search.
        floors[(inverse == np.array(_SPECIAL_EXPONENTS)).any(axis=(1, 2))] = 0.0
    return floors


def _kept_rows(model, efficiency, costs, g, f_axis, a_axis):
    """The feedback rows a joint round has to evaluate: per instance, a
    window of consecutive rows holding every row that can hold the least
    cost; returns each instance's first row and the (K, W) window axis.

    Each instance first evaluates the row with the lowest floor
    (:func:`_row_floors`); that row's least cost ``U`` is a lattice value,
    so a row whose floor exceeds ``U`` can neither hold the round's least
    cost nor tie it. Where ``U`` is not finite or is at most
    ``_FLOOR_TINY``, every row is kept. The window width ``W`` is the widest
    instance's, each instance at its own offset.
    """
    size, rows = f_axis.shape
    instance = np.arange(size)
    floors = _row_floors(model, efficiency, costs, g, f_axis, a_axis)
    probe = floors.argmin(axis=1)
    _, probe_total = _evaluate(model, efficiency, costs, g, f_axis[instance, probe][:, None], a_axis)
    least = probe_total.min(axis=(1, 2))
    kept = floors <= least[:, None]
    kept[~((least > _FLOOR_TINY) & (least < np.inf))] = True
    first = kept.argmax(axis=1)
    width = int((rows - kept[:, ::-1].argmax(axis=1) - first).max())
    if width == rows:
        return [0] * size, f_axis
    start = np.minimum(first, rows - width)
    return start.tolist(), f_axis[instance[:, None], start[:, None] + np.arange(width)]


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
    return any(value in _SPECIAL_EXPONENTS for value in exponents)


def _check_pin(model: ModelKind, pin: Optional[str], value) -> None:
    if pin == "f":
        if not model.uses_feedback:
            raise DomainError("a pinned f applies only to feedback models")
        if not math.isfinite(value) or value < 0.0:
            raise DomainError("a pinned f must be finite and >= 0")
    elif pin == "a" and (not math.isfinite(value) or value <= 0.0):
        raise DomainError("a pinned a must be finite and > 0")


def minimize_cost(
    model: ModelKind,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
    grid: Optional[GridSpec] = None,
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
    """
    results = _minimize_batch(model, [(efficiency, costs, None)], g, grid)
    if isinstance(results[0], EconError):
        # Popped, not bound to a name: the traceback would hold this frame,
        # and the frame the error, in a cycle only the collector frees.
        raise results.pop()
    incumbent = results[0]
    strategy = Strategy(model, q=incumbent.q, f=incumbent.f, a=incumbent.a)
    return OptimalStrategy(
        strategy=strategy,
        achieved_gain=gain(strategy, efficiency),
        total_cost=cost(strategy, costs),
        kkt=kkt_residual(strategy, efficiency, costs, g),
        grid_meta=incumbent.grid_meta,
    )


def _minimize_batch(
    model: ModelKind,
    instances: Sequence[tuple[EfficiencyParams, CostParams, Optional[float]]],
    g: float,
    grid: Optional[GridSpec] = None,
    *,
    pin: Optional[str] = None,
) -> list[Union[_Incumbent, EconError]]:
    """The zoom search of :func:`minimize_cost` for many instances of one
    model and pin kind.

    ``instances`` are ``(efficiency, costs, value)`` triples. With ``pin``
    ``"f"`` or ``"a"``, that axis is held at each instance's ``value`` and
    only the other is searched, which is how the claims audit asks
    conditional questions ("best depth at this feedback level"); a pinned
    axis is exempt from boundary diagnostics. ``value`` is ignored when
    ``pin`` is None. Returns, in order, each
    instance's incumbent or the :class:`EconError` its search ends in, kept
    without a traceback; incumbents match their own K=1 calls bit for bit.
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
) -> list[Union[_Incumbent, EconError]]:
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

    errors: list[Optional[EconError]] = [None] * size
    best = [(0, 0)] * size
    # Each instance's first evaluated feedback row; a large joint block
    # evaluates only the rows _kept_rows keeps.
    start = [0] * size
    prune = f_windows is not None and a_windows is not None and size * spec.points**2 >= _PRUNE_NODES
    for round_index in range(spec.refinements + 1):
        f_axis = f_fixed if f_windows is None else _log_axes(f_windows, spec.points)
        a_axis = a_fixed if a_windows is None else _log_axes(a_windows, spec.points)
        f_rows = f_axis
        if prune:
            start, f_rows = _kept_rows(model, efficiency, costs, g, f_axis, a_axis)
        qv, total = _evaluate(model, efficiency, costs, g, f_rows, a_axis)
        for k, flat_idx in enumerate(_argmin_lex(total, qv, f_rows, a_axis)):
            if flat_idx < 0:
                # A valid input whose gain target no finite query count reaches.
                errors[k] = errors[k] or NoInteriorOptimum("grid evaluation produced no finite cost")
            else:
                row_idx, a_idx = divmod(flat_idx, a_axis.shape[1])
                best[k] = (start[k] + row_idx, a_idx)
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
    for k, value in enumerate(values):
        if errors[k] is not None:
            results.append(errors[k])
            continue
        f_idx, a_idx = best[k]
        surface = total[k]
        row_idx = f_idx - start[k]
        lower_corners = []
        if f_windows is not None:
            if f_idx == f_axis.shape[1] - 1 and f_axis[k, -1] == spec.max:
                # A row left out of the window has a floor above the
                # incumbent's cost, so every node of it is costlier.
                if row_idx == 0 or surface[row_idx - 1, a_idx] > surface[row_idx, a_idx]:
                    results.append(Unbounded(
                        "cost still decreasing at the upper grid bound on the feedback axis "
                        f"(f = {spec.max}); the optimum lies outside the search box"
                    ))
                    continue
            if f_idx == 0 and f_axis[k, 0] == spec.min:
                lower_corners.append("f")
        if a_windows is not None:
            if a_idx == a_axis.shape[1] - 1 and a_axis[k, -1] == spec.max:
                if surface[row_idx, a_idx - 1] > surface[row_idx, a_idx]:
                    results.append(Unbounded(
                        "cost still decreasing at the upper grid bound on the assessment axis "
                        f"(a = {spec.max}); the optimum lies outside the search box"
                    ))
                    continue
            if a_idx == 0 and a_axis[k, 0] == spec.min:
                lower_corners.append("a")
        q = float(qv[k, row_idx, a_idx])
        if q == 0.0:
            results.append(NoInteriorOptimum(
                f"the query count that reaches gain {g!r} underflows a float to 0"
            ))
            continue
        results.append(_Incumbent(q, float(f_axis[k, f_idx]), float(a_axis[k, a_idx]), GridMeta(
            points=spec.points,
            refinements=spec.refinements,
            a_window=(value, value) if pin == "a" else a_windows[k],
            f_window=(value, value) if pin == "f" else None if f_windows is None else f_windows[k],
            lower_corner_axes=tuple(lower_corners),
        )))
    return results


def _integer_candidates(center: float, floor: int) -> range:
    return range(max(floor, math.floor(center)), max(floor, math.ceil(center)) + 1)


def integer_refine(
    solution: Union[OptimalStrategy, ClosedFormSolution, Strategy],
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
) -> IntegerRefinement:
    """Cheapest all-integer strategy near a continuous solution.

    Searches the floor and ceiling of each component (queries and
    assessments at least 1, feedback at least 0). For every
    feedback/assessment pair, the query count that exactly meets the floor is
    rounded up and offered as an extra candidate, so a feasible point exists
    whenever the floor is attainable at all. Candidates must reach the gain
    floor (to within a 1e-12 relative slack for float rounding); ties on cost
    go to the lexicographically smallest counts. A candidate whose gain
    overflows a float raises :class:`NoInteriorOptimum`.
    """
    g = check_gain(g)
    base = getattr(solution, "strategy", solution)
    if not isinstance(base, Strategy):
        raise DomainError("solution must carry a Strategy")
    model = base.model

    f_candidates: Sequence[int] = (0,)
    if model.uses_feedback:
        f_candidates = _integer_candidates(base.f, floor=0)
    a_candidates = _integer_candidates(base.a, floor=1)
    q_candidates = list(_integer_candidates(base.q, floor=1))

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
            "no integer strategy within radius 1 of "
            f"(q={base.q:.3f}, f={base.f:.3f}, a={base.a:.3f}) reaches gain {g}"
        )
    feasible.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    total_cost, q, f, a, achieved = feasible[0]
    return IntegerRefinement(
        strategy=Strategy(model, q=float(q), f=float(f), a=float(a)),
        achieved_gain=achieved,
        total_cost=total_cost,
    )
