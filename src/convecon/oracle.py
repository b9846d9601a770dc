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
:func:`_minimize_batch` is the one entry: it takes the instances as
parameter columns, one (K,) array per field
(:func:`~convecon.core._param_columns`), and solves them in blocks sized by
the nodes a round holds at once, at most ``_BLOCK_NODES`` (at least one
instance per block): one row of nodes per one-axis search and about four
per joint search. At the audit grid (64 points) a block holds 512 one-axis
or 128 joint searches; at the default grid (200 points) 163 or 40, so a
25-step sweep is one block. :func:`minimize_cost` is its one-instance call,
and the audit passes it every perturbed sample of a claim at once. Every
instance gets the bits its own K=1 call gives, by three rules:

* the query count is taken in log space by numpy's elementwise ``log``,
  ``log1p`` and ``exp`` (:func:`~convecon.core.recover_q_value`), whose
  bits do not depend on the lattice's shape;
* a window is kept as its endpoints and their ``log10``, both worked out
  in :mod:`math` once, when the window is made (``np.log10`` and
  ``np.power`` can differ from ``math.log10`` and ``10.0 **`` in the last
  bit). A round's axes, both searched axes' in one call, are numpy
  logspace's own arithmetic on those exponents, elementwise, so each row
  gets the bits of its own scalar call. A shrink (:func:`_shrink`) takes
  each window's span from its stored exponents and its center's ``log10``
  and the new endpoints' ``10.0 **`` from :mod:`math`, float by float;
* at K=1 the parameters reach numpy as plain floats, not (1, 1, 1) arrays:
  the bits are the same, but arrays slow the lattice arithmetic down.

A block of joint searches (a feedback model, no pin) whose full lattice has
at least ``_PRUNE_NODES`` nodes (a lone search from 128 points per axis, 4
searches at the audit grid) evaluates only the feedback rows that can hold
a round's least cost (:func:`_kept_rows`); a smaller block evaluates every
row, which is cheaper there. Each round first bounds every row's least cost
from below (:func:`_row_floors`: the row's continuous minimum over the
assessment window, one log-space pass from the model row, less a 1e-9
relative slack) and evaluates the row with the lowest bound, the probe.
That row's least cost is a lattice value, so no row whose bound exceeds it
can hold the round's least cost or tie it. The round then evaluates exactly
the kept rows (:func:`_lattices`): a lone search as a row index into its
axes, or none where it keeps only the probe row and takes its lattice; a
block as a ragged list of (instance, row) pairs, rows ascending within each
instance, each pair a one-row lattice with its parameters and assessment
axis gathered, in slices of whole instances and at most ``_BLOCK_NODES``
nodes. Each instance's node is the least over its pairs by (cost, q, f, a),
the first row among equals (:func:`_least_pairs`), which is the node its
whole lattice gives. So the incumbent, the tie-break and the corner flags
keep their bits. :class:`Unbounded` needs no row a round left out: after
the last round, :func:`_search` evaluates each node on a searched axis's
upper box edge again, next to the node one step below it on that axis, in
one :func:`_evaluate` call per such axis, and the instance is unbounded
where the node is the cheaper. The bound only chooses rows and never
supplies an answer, and it uses :mod:`convecon.core`, never the closed
forms. Every row is kept where subnormal values could lose the precision
the slack assumes. A default-grid joint solve at the README parameters
evaluates 1,600 to 3,000 nodes, not 160,000, in at most six
:func:`_evaluate` calls; the seed-0 audit's m2 joint searches, all in
blocks, evaluate 17,513 rows, one probe per search and round and 12,113
kept rows. One-axis searches have a single row or column and evaluate it
all. A block's search, whose lattice arithmetic and floors overflow by
design, runs in one ``np.errstate`` that ignores it.

Each zoom round writes its lattices into three buffers that the thread
keeps across rounds and calls (:func:`_workspace`), so a round allocates no
lattice: at most 0.8 MB at the audit grid and 0.96 MB at the default grid.

The batch returns bare incumbents (:class:`_Incumbent`): the least-cost
node's ``(q, f, a)``, the final windows and the lower-corner axes, or the
instance's error. Only :func:`minimize_cost`, which the ``oracle`` command
calls, turns its incumbent into a report (:class:`OptimalStrategy`), adding
the search's :class:`GridMeta`, the achieved gain, the total cost and the
stationarity diagnostics (:func:`kkt_residual`); the audit, sweeps and the
viability call read the incumbents' fields alone. An integer neighbourhood
search (:func:`integer_refine`) serves callers who need whole-number action
counts rather than the continuous relaxation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from operator import add, sub
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from ._jsonio import check_keys, named
from .closed_form import ClosedFormSolution
# cost_value is not called here; it stays a module name because the
# benchmark's tracer rebinds ``oracle.cost_value``.
from .core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    _instance,
    _model_row,
    _query_exponent,
    _require_count,
    _require_finite,
    _taken,
    check_gain,
    cost,
    cost_value,
    gain,
    recover_q_value,
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

# An incumbent's lower_corner_axes, indexed by 1 for "f" plus 2 for "a"
# (the order GridMeta has always listed them in).
_CORNERS = ((), ("f",), ("a",), ("f", "a"))

# Lattice nodes a round holds at once: a block's instances and a slice of
# its kept rows.
_BLOCK_NODES = 2**15
# A joint block evaluates only its kept rows (_kept_rows) when its full
# lattice has at least this many nodes. Below that, bounding and probing the
# rows costs more than evaluating them all: a lone search breaks even near
# 100 points per axis, a block of 8 near 40.
_PRUNE_NODES = 2**14

# Per thread, the flat float64 arena behind _workspace's lattice buffers.
_WORKSPACE = threading.local()

# A row floor is lowered by this relative slack, far above the rounding of
# the lattice arithmetic, so no lattice node of the row costs less.
_FLOOR_SLACK = 1e-9
# Values at or below this may be subnormal somewhere in the lattice
# arithmetic, where the slack no longer covers the lost precision.
_FLOOR_TINY = 1e-290

# integer_refine also offers the integer below a recovered query count that
# exceeds it by at most this relative amount. Below 2**53, where integers
# are distinct floats, |log q| < 36.8, so each rounding of log q moves
# exp(log q) by at most 36.8 * 2**-53 = 4.1e-15 relative; this allows two
# such roundings and exp's own.
_Q_ROUNDING = 1e-14


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
    checked against it. Residuals are taken in log coordinates and divided
    by the total cost: ``residual_q`` is ``q * dL/dq / cost`` and
    ``residual_f`` is ``f * dL/df / cost``, for the Lagrangian
    ``L = cost - lambda * gain``. Each is the change in ``L``, as a share of
    the cost, per relative step in its count, so the numbers are comparable
    across instances and counts of any size. ``constraint_rel_gap`` is how
    far realised gain sits from the floor, relative to the floor.
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
    and where the search ended, as :class:`GridMeta` records it: the final
    windows (a pinned axis's is ``(value, value)``; a model without
    feedback has no feedback window) and the axes whose lower box edge the
    node sits on."""

    q: float
    f: float
    a: float
    a_window: tuple[float, float]
    f_window: Optional[tuple[float, float]]
    lower_corner_axes: tuple[str, ...]


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

    Small residuals certify an interior stationary point (:class:`KktReport`);
    a corner optimum legitimately shows a non-zero feedback residual, so
    this is a diagnostic, not a pass/fail test on its own. A gradient
    component, a residual or the constraint gap that overflows a float
    raises :class:`NoInteriorOptimum`.
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
    # Cost is linear in q, so the total cost is q * cost_grad[0]; dividing
    # by that product without forming it keeps a cost that overflows a float
    # out of the residuals.
    residual_q = (cost_grad[0] - lam * gain_grad[0]) / cost_grad[0]
    residual_f = strategy.f * ((cost_grad[1] - lam * gain_grad[1]) / strategy.q) / cost_grad[0]
    gap = (gain(strategy, efficiency) - g) / g
    if not (math.isfinite(residual_q) and math.isfinite(residual_f) and math.isfinite(gap)):
        raise NoInteriorOptimum(f"the KKT residuals or constraint gap {at} overflow a float")
    return KktReport(
        lam=lam,
        residual_q=residual_q,
        residual_f=residual_f,
        residual_max=max(abs(residual_q), abs(residual_f)),
        constraint_rel_gap=gap,
    )


_DEFAULT_GRID = GridSpec()


def _log_axes(exponents: np.ndarray, points: int) -> np.ndarray:
    """One log-spaced axis per window, as rows of a (K, points) array, from
    the windows' ``log10`` endpoints as a (2, K) array: the lows, then the
    highs.

    This is numpy logspace's arithmetic written out for a column of
    endpoints; every step is elementwise, so each row gets the bits of its
    own scalar ``np.logspace`` call.
    """
    lo, hi = exponents[0, :, None], exponents[1, :, None]
    y = np.arange(points, dtype=float) * ((hi - lo) / (points - 1))
    y += lo
    y[:, -1:] = hi
    return np.power(10.0, y)


class _Windows(NamedTuple):
    """A block's n windows, one per searched axis and instance, feedback
    windows first: their endpoints, the n lows then the n highs, and those
    endpoints' ``log10`` as a (2, n) array."""

    ends: list[float]
    exponents: np.ndarray


def _windows(ends: list[float]) -> _Windows:
    """Windows from their endpoints, the lows then the highs; the ``log10``
    of each is :mod:`math`'s, worked out here once."""
    return _Windows(ends, np.fromiter(map(math.log10, ends), float, len(ends)).reshape(2, -1))


def _shrink(windows: _Windows, centers: Sequence[float], box: tuple[float, float]) -> _Windows:
    """Next refinement windows: a tenth of each window's log-span, centred
    on its incumbent coordinate (``centers``, in window order), clipped to
    the global box's ``log10`` bounds ``box``.

    The spans come from the stored exponents; each step is one pass of
    float arithmetic over the windows, :mod:`math` for the ``log10`` and
    ``10.0 **``. Array arithmetic for the spans and the clipping would pay
    numpy's cost per call, which a lone search pays every round: on a
    2-vCPU Xeon with numpy 2.4, a shrink of one window takes 3.3 us this
    way and 7.4 us that way, while at 400 windows array arithmetic saves
    0.1 us a window (0.55 against 0.45 us), about 1% of an audit.
    """
    (lo_box, hi_box), (lo_exp, hi_exp) = box, windows.exponents.tolist()
    half = [(hi - lo) / 2.0 / 10.0 for lo, hi in zip(lo_exp, hi_exp)]
    c = list(map(math.log10, centers))
    # max(lo_box, x) and min(hi_box, x), spelled without a call per window.
    ends = [10.0 ** (x if x > lo_box else lo_box) for x in map(sub, c, half)]
    ends += [10.0 ** (x if x < hi_box else hi_box) for x in map(add, c, half)]
    return _windows(ends)


def _argmin_lex(total: np.ndarray, qv: np.ndarray, f_axis: np.ndarray, a_axis: np.ndarray) -> np.ndarray:
    """Per lattice, the flat index of the least cost, ties going to the
    smallest (q, f, a) and then to the first in (row, a) order; -1 where no
    node has a finite cost."""
    flat = total.reshape(len(total), -1)
    index = flat.argmin(axis=1)
    best = flat[np.arange(len(flat)), index]
    is_best = flat == best[:, None]
    # Counting per lattice costs a pass over it; skip that unless some
    # lattice has more than one least-cost node. A lattice of several nodes
    # with no finite cost has every node at inf, so it counts too.
    if np.count_nonzero(is_best) > len(flat) or flat.shape[1] == 1:
        for k in np.flatnonzero((np.count_nonzero(is_best, axis=1) > 1) & (best < np.inf)).tolist():
            nodes = np.flatnonzero(is_best[k])
            f_idx, a_idx = np.divmod(nodes, a_axis.shape[1])
            order = np.lexsort((a_axis[k, a_idx], f_axis[k, f_idx], qv[k].ravel()[nodes]))
            index[k] = nodes[order[0]]
        index[best == np.inf] = -1
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
    return tuple(arena[:3 * size].reshape((3, *shape)))


def _front(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first elements of a lattice buffer, viewed as a smaller shape."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


def _evaluate(model, efficiency, costs, g, f_axis, a_axis):
    """Cost surfaces over K lattices with q eliminated through the floor.

    ``f_axis`` and ``a_axis`` hold one axis per instance, (K, F) and (K, A);
    returns (q, total) arrays of instances by feedback rows by assessment
    columns, views of the thread's workspace. The arithmetic is
    :func:`~convecon.core.recover_q_value` and then
    :func:`~convecon.core.cost_value`, operation for operation, each written
    into a workspace buffer (a model without feedback skips the feedback
    term, which is zero there). Non-finite costs become ``inf``; the
    overflows warn unless the caller ignores them, as :func:`_minimize_batch` does.
    """
    row = _model_row(model)
    fcol = f_axis[:, :, None]
    arow = a_axis[:, None, :]
    qv, total, scratch = _workspace((len(f_axis), f_axis.shape[1], a_axis.shape[1]))
    # q = exp((log g - beta*log a - repeat*gamma2*log1p f) / exponent)
    log_q = _front(total, arow.shape)
    np.log(arow, out=log_q)
    np.multiply(efficiency.beta, log_q, out=log_q)
    np.subtract(np.log(g), log_q, out=log_q)
    if row.repeat:
        passes = _front(scratch, fcol.shape)
        np.log1p(fcol, out=passes)
        np.multiply(efficiency.gamma2, passes, out=passes)
        log_q = np.subtract(log_q, passes, out=qv)
    if row.lift:
        exponent = _front(scratch, fcol.shape)
        np.multiply(efficiency.gamma1, fcol, out=exponent)
        np.add(exponent, efficiency.alpha, out=exponent)
        np.divide(log_q, exponent, out=qv)
    else:
        np.divide(log_q, efficiency.alpha, out=qv)
    np.exp(qv, out=qv)
    # total = q*c_query + (q*f)*c_feedback + assessments*c_assess
    np.multiply(qv, costs.c_query, out=total)
    if row.feedback:
        # Without feedback f = 0, so this term adds +0.0 to a finite
        # total and leaves a non-finite one non-finite: the same bits.
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
    ``_FLOOR_SLACK``. ``log q = (top - beta*log a) / exponent`` with
    ``top = log g - repeat*gamma2*log1p f``, at ``a*`` and at the window's
    upper end, is :func:`~convecon.core.recover_q_value` summed in another
    order: about 1e-13 relative off, far inside the slack.

    A row's floor is 0, so that the row is always evaluated, where the
    floor is not finite, or where it or ``min(1, q) * min(1, f, a)`` (at the
    row's least ``q`` and the window's least ``a``) is at most
    ``_FLOOR_TINY``.
    """
    row = _model_row(model)
    f = f_axis[:, :, None]
    lo, hi = a_axis[:, None, :1], a_axis[:, None, -1:]
    exponent = _query_exponent(row, f, efficiency)
    ratio = efficiency.beta / exponent
    fixed = costs.c_query + f * costs.c_feedback
    per_a = (1.0 + f) * costs.c_assess if row.repeat else costs.c_assess
    turn = ratio * fixed / ((1.0 - ratio) * per_a)
    a = np.where(ratio < 1.0, np.minimum(np.maximum(turn, lo), hi), hi)
    top = np.log(g) - efficiency.gamma2 * np.log1p(f) if row.repeat else np.log(g)
    floor = np.exp((top - efficiency.beta * np.log(a)) / exponent) * (fixed + per_a * a) * (1.0 - _FLOOR_SLACK)
    least_q = np.exp((top - efficiency.beta * np.log(hi)) / exponent)
    smallest = np.minimum(least_q, 1.0) * np.minimum(np.minimum(f, lo), 1.0)
    sound = np.isfinite(floor) & (floor > _FLOOR_TINY) & (smallest > _FLOOR_TINY)
    return np.where(sound, floor, 0.0)[:, :, 0]


def _kept_rows(model, efficiency, costs, g, f_axis, a_axis):
    """The feedback rows a joint round has to evaluate, as a (K, F) mask:
    per instance, every row that can hold the round's least cost; and the
    probe lattice ``(rows, qv, total)``, (K,) rows and (K, 1, A) views.

    Each instance first evaluates the row with the lowest floor
    (:func:`_row_floors`); that row's least cost ``U`` is a lattice value,
    so a row whose floor exceeds ``U`` can neither hold the round's least
    cost nor tie it. Where ``U`` is not finite or is at most
    ``_FLOOR_TINY``, every row is kept.
    """
    floors = _row_floors(model, efficiency, costs, g, f_axis, a_axis)
    probe = floors.argmin(axis=1)
    qv, total = _evaluate(model, efficiency, costs, g, f_axis[np.arange(len(f_axis)), probe][:, None], a_axis)
    least = total.min(axis=(1, 2))
    kept = floors <= least[:, None]
    kept[~((least > _FLOOR_TINY) & (least < np.inf))] = True
    return kept, (probe, qv, total)


def _lattices(model, efficiency, costs, g, f_axis, a_axis, kept, probe):
    """A round's lattices: yields ``(owners, rows, f_rows, a_rows, qv,
    total)`` per slice of the round.

    Lattice ``i`` of the (M, R, A) ``qv`` and ``total`` belongs to instance
    ``owners[i]`` (instance ``i`` where ``owners`` is None), with feedback
    rows ``rows[i]`` (indices into the instance's feedback axis, ascending;
    all of them where ``rows`` is None), feedback values ``f_rows[i]`` and
    assessment axis ``a_rows[i]``. The arrays ``qv`` and ``total`` are
    views of the thread's workspace, valid until the next slice.

    With ``kept`` None, every row is evaluated as one lattice per instance.
    Otherwise only the kept rows: at K=1 as a row index into the instance's
    axes (the probe row alone: its lattice ``probe``), and in a block as a
    ragged list of (instance, row) pairs, a one-row lattice each, with
    their parameters and assessment axes gathered per pair. A slice holds
    whole instances and at most ``_BLOCK_NODES`` nodes, or one instance
    whose kept rows alone exceed that (at most one full lattice, as a lone
    search evaluates).
    """
    size = len(f_axis)
    if kept is None:
        qv, total = _evaluate(model, efficiency, costs, g, f_axis, a_axis)
        yield None, None, f_axis, a_axis, qv, total
        return
    if size == 1:
        rows = np.flatnonzero(kept[0])
        f_rows = f_axis[:, rows]
        taken = len(rows) == 1 and rows[0] == probe[0][0]
        qv, total = probe[1:] if taken else _evaluate(model, efficiency, costs, g, f_rows, a_axis)
        yield None, rows[None, :], f_rows, a_axis, qv, total
        return
    owners, rows = np.nonzero(kept)
    cap = max(1, _BLOCK_NODES // a_axis.shape[1])
    cuts, end = [0], 0
    for stop in np.cumsum(kept.sum(axis=1)).tolist():
        if stop - cuts[-1] > cap and end > cuts[-1]:
            cuts.append(end)
        end = stop
    cuts.append(end)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pair_owners = owners[lo:hi]
        f_rows = f_axis[pair_owners, rows[lo:hi]][:, None]
        a_rows = a_axis[pair_owners]
        qv, total = _evaluate(
            model, _taken(efficiency, pair_owners), _taken(costs, pair_owners), g, f_rows, a_rows,
        )
        yield pair_owners, rows[lo:hi, None], f_rows, a_rows, qv, total


def _least_pairs(owners, index, total, qv, f_rows, a_rows) -> np.ndarray:
    """Per instance, the one-row lattice (an (instance, row) pair) that
    holds its least-cost node, given each pair's node ``index``
    (:func:`_argmin_lex`); instances ascending.

    The least over an instance's pairs by (cost, q, f, a), the first pair
    among equals, is the node :func:`_argmin_lex` picks over the instance's
    whole lattice: its pairs are in ascending row order.
    """
    pairs = np.arange(len(owners))
    cost = total[pairs, 0, index]
    cost[index < 0] = np.inf
    order = np.lexsort((a_rows[pairs, index], f_rows[:, 0], qv[pairs, 0, index], cost, owners))
    return order[np.r_[True, owners[order[1:]] != owners[order[:-1]]]]


def _least_nodes(model, efficiency, costs, g, f_axis, a_axis, kept, probe, last):
    """Evaluate one round (:func:`_lattices`); returns ``[index, f_idx,
    a_idx]``, (K,) arrays over the instances: the flat index of the
    instance's least-cost node in its lattice, -1 where no node has a
    finite cost, and the node's indices on the instance's axes. The
    ``last`` round appends ``q``, each node's query count.
    """
    parts = []
    for owners, rows, f_rows, a_rows, qv, total in _lattices(model, efficiency, costs, g, f_axis, a_axis, kept, probe):
        index = _argmin_lex(total, qv, f_rows, a_rows)
        if kept is not None and len(f_axis) > 1:
            lattices = _least_pairs(owners, index, total, qv, f_rows, a_rows)
            index = index[lattices]
        elif rows is not None or last:
            lattices = np.arange(len(index))
        i, a_idx = index // total.shape[2], index % total.shape[2]
        f_idx = i if rows is None else rows[lattices, i]
        parts.append([index, f_idx, a_idx, qv[lattices, i, a_idx]] if last else [index, f_idx, a_idx])
    return parts[0] if len(parts) == 1 else [np.concatenate(column) for column in zip(*parts)]


def _block(params: SimpleNamespace, block: list[int]) -> SimpleNamespace:
    """The parameters of a block of instances (positions into the columns
    ``params``): plain floats for one instance, which give the same bits as
    a column and are faster, else (K, 1, 1) columns, which broadcast against
    K stacked lattices."""
    return _instance(params, block[0]) if len(block) == 1 else _taken(params, (block, None, None))


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
    results = _minimize_batch(model, efficiency, costs, g, grid)
    if isinstance(results[0], EconError):
        # Popped, not bound to a name: the traceback would hold this frame,
        # and the frame the error, in a cycle only the collector frees.
        raise results.pop()
    incumbent = results[0]
    strategy = Strategy(model, q=incumbent.q, f=incumbent.f, a=incumbent.a)
    spec = grid if grid is not None else _DEFAULT_GRID
    return OptimalStrategy(
        strategy=strategy,
        achieved_gain=gain(strategy, efficiency),
        total_cost=cost(strategy, costs),
        kkt=kkt_residual(strategy, efficiency, costs, g),
        grid_meta=GridMeta(
            points=spec.points,
            refinements=spec.refinements,
            a_window=incumbent.a_window,
            f_window=incumbent.f_window,
            lower_corner_axes=incumbent.lower_corner_axes,
        ),
    )


def _minimize_batch(
    model: ModelKind,
    efficiency: EfficiencyParams,
    costs: CostParams,
    g: float,
    grid: Optional[GridSpec] = None,
    *,
    pin: Optional[str] = None,
    values=None,
) -> list[Union[_Incumbent, EconError]]:
    """The zoom search of :func:`minimize_cost` for many instances of one
    model and pin kind.

    ``efficiency`` and ``costs`` hold the instances' parameters: each field
    a (K,) column (:func:`~convecon.core._param_columns`), or a plain float
    for one instance, as in a parameter dataclass. With ``pin`` ``"f"`` or
    ``"a"``, that axis is held at each instance's entry of ``values`` (a
    (K,) column, or a float for one instance) and only the other is
    searched, which is how the claims audit asks conditional questions
    ("best depth at this feedback level"); a pinned axis is exempt from
    boundary diagnostics. ``values`` is ignored when ``pin`` is None. The
    caller keeps pinned values in the model's domain: a pinned ``f`` finite
    and >= 0, for a feedback model only, and a pinned ``a`` finite and > 0.
    Returns, in order, each instance's incumbent or the :class:`EconError`
    its search ends in, kept without a traceback; incumbents match their
    own K=1 calls bit for bit.
    """
    g = check_gain(g)
    if not isinstance(model, ModelKind):
        model = ModelKind.from_code(model)
    spec = grid if grid is not None else _DEFAULT_GRID
    lone = not isinstance(efficiency.alpha, np.ndarray)
    size = 1 if lone else len(efficiency.alpha)
    if pin is not None:
        values = np.asarray(values, dtype=float).reshape(size)
    # Searches per block: a one-axis round holds one row of nodes per
    # search. A joint round holds its floors, a probe row and its kept rows
    # (2.2 a round for the audit's m2 searches) with their gathered
    # assessment axes; four rows a search is measured: with 512, 256 and
    # 128 joint searches a block (the audit grid), the audit workload's
    # peak RSS rose 6.1%, 3-4% and 2.2% over blocks of 8, at the same speed
    # for 256 and 128.
    rows = 4 if model.uses_feedback and pin is None else 1
    cap = max(1, _BLOCK_NODES // (rows * spec.points))

    results: list = []
    for start in range(0, size, cap):
        block = list(range(start, min(start + cap, size)))
        params = (efficiency, costs) if lone else (_block(efficiency, block), _block(costs, block))
        with np.errstate(all="ignore"):
            results += _search(model, *params, len(block), None if pin is None else values[block], g, spec, pin)
    return results


def _search(
    model: ModelKind,
    efficiency,
    costs,
    size: int,
    values: Optional[np.ndarray],
    g: float,
    spec: GridSpec,
    pin: Optional[str],
) -> list[Union[_Incumbent, EconError]]:
    """The zoom search for one block of ``size`` validated instances, their
    lattices stacked on a leading axis; each instance keeps its own
    windows. ``efficiency`` and ``costs`` are the block's parameters
    (:func:`_block`), and ``values`` its (K,) pinned values, None without a
    pin. Returns what :func:`_minimize_batch` does for the block, only
    floats copied out of the thread's workspace (:func:`_workspace`)."""
    pinned = values.reshape(size, 1) if pin is not None else None
    # A model without feedback searches the single feedback row f = 0.
    f_fixed = pinned if pin == "f" else None if model.uses_feedback else np.zeros((size, 1))
    a_fixed = pinned if pin == "a" else None
    box = (math.log10(spec.min), math.log10(spec.max))
    # The searched axes' windows, feedback first. With the nodes' feedback
    # indices stacked on their assessment indices, slice `searched` holds
    # each window's node.
    searched = slice(0 if f_fixed is None else size, size if a_fixed is not None else 2 * size)
    rows = searched.stop - searched.start
    windows = _windows([spec.min] * rows + [spec.max] * rows)
    window_rows = np.arange(rows)

    errors: list[Optional[EconError]] = [None] * size
    prune = f_fixed is None and a_fixed is None and size * spec.points**2 >= _PRUNE_NODES
    for round_index in range(spec.refinements + 1):
        # Both searched axes' rows come from one call.
        axes = _log_axes(windows.exponents, spec.points)
        f_axis = axes[:size] if f_fixed is None else f_fixed
        a_axis = axes[rows - size:] if a_fixed is None else a_fixed
        kept, probe = _kept_rows(model, efficiency, costs, g, f_axis, a_axis) if prune else (None, None)
        last = round_index == spec.refinements
        index, f_idx, a_idx, *outcome = _least_nodes(model, efficiency, costs, g, f_axis, a_axis, kept, probe, last)
        if min(index.tolist()) < 0:
            for k in np.flatnonzero(index < 0).tolist():
                # A valid input whose gain target no finite query count reaches.
                errors[k] = errors[k] or NoInteriorOptimum("grid evaluation produced no finite cost")
            if all(errors):
                return errors
        # Each window's node: the next round's centres, or the incumbents'
        # coordinates on the searched axes.
        centers = axes[window_rows, np.concatenate((f_idx, a_idx))[searched]].tolist()
        if not last:
            windows = _shrink(windows, centers, box)

    (q,) = outcome
    f_values = centers[:size] if f_fixed is None else f_fixed[:, 0].tolist()
    a_values = centers[rows - size:] if a_fixed is None else a_fixed[:, 0].tolist()
    # Per instance: Unbounded where the node sits on a searched axis's upper
    # box edge and costs less than the node one step below it on that axis
    # (the feedback axis is tested first, so its message wins), and the
    # lower box edges the node sits on.
    corners = [0] * size
    for name, symbol, fixed, at, axis, other, other_at in (
        ("feedback", "f", f_fixed, f_idx, f_axis, a_axis, a_idx),
        ("assessment", "a", a_fixed, a_idx, a_axis, f_axis, f_idx),
    ):
        if fixed is not None:
            continue
        edge = [
            k for k in (at == spec.points - 1).nonzero()[0].tolist()
            if index[k] >= 0 and axis[k, -1] == spec.max
        ]
        if edge:
            # One two-node lattice per edge node: the node one step below,
            # then the node, with the other coordinate held.
            pair, held = axis[edge, -2:], other[edge, other_at[edge]][:, None]
            params = (efficiency, costs) if size == 1 else (_taken(efficiency, edge), _taken(costs, edge))
            total = _evaluate(model, *params, g, *((pair, held) if symbol == "f" else (held, pair)))[1]
            for k in np.array(edge)[total[:, -1, -1] < total[:, 0, 0]].tolist():
                errors[k] = errors[k] or Unbounded(
                    f"cost still decreasing at the upper grid bound on the {name} axis "
                    f"({symbol} = {spec.max}); the optimum lies outside the search box"
                )
        for k in (at == 0).nonzero()[0].tolist():
            if axis[k, 0] == spec.min:
                corners[k] += 1 if symbol == "f" else 2
    pinned_ends = [(value, value) for value in values.tolist()] if pin is not None else None
    lo, hi = windows.ends[:rows], windows.ends[rows:]
    a_ends = pinned_ends if pin == "a" else list(zip(lo[rows - size:], hi[rows - size:]))
    f_ends = pinned_ends if pin == "f" else [None] * size if f_fixed is not None else list(zip(lo[:size], hi[:size]))

    results: list = []
    for k, q_k in enumerate(q.tolist()):
        if errors[k] is not None:
            results.append(errors[k])
        elif q_k == 0.0:
            results.append(NoInteriorOptimum(
                f"the query count that reaches gain {g!r} underflows a float to 0"
            ))
        else:
            results.append(_Incumbent(q_k, f_values[k], a_values[k], a_ends[k], f_ends[k], _CORNERS[corners[k]]))
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
    whenever the floor is attainable at all; so is the integer below it where
    the recovered count exceeds that integer only by its rounding
    (``_Q_ROUNDING``). Candidates must reach the gain
    floor (to within a 1e-12 relative slack for float rounding); ties on cost
    go to the lexicographically smallest counts. A candidate whose gain
    overflows a float raises :class:`NoInteriorOptimum`, and so does a least
    cost that overflows one.
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
            q_exact = float(recover_q_value(model, g, float(f), float(a), efficiency))
            options = set(q_candidates)
            if math.isfinite(q_exact):
                options.add(max(1, math.ceil(q_exact)))
                options.add(max(1, math.ceil(q_exact * (1.0 - _Q_ROUNDING))))
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
    if total_cost == math.inf:
        raise NoInteriorOptimum(f"the cost of integer candidate (q={q}, f={f}, a={a}) overflows a float")
    return IntegerRefinement(
        strategy=Strategy(model, q=float(q), f=float(f), a=float(a)),
        achieved_gain=achieved,
        total_cost=total_cost,
    )
