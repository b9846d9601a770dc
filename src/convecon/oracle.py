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
solves them in blocks sized by the nodes a round holds at once, at most
``_BLOCK_NODES`` (at least one instance per block): one row of nodes per
one-axis search and about four per joint search. At the audit grid (64
points) a block holds 512 one-axis or 128 joint searches; at the default
grid (200 points) 163 or 40, so a 25-step sweep is one block.
:func:`minimize_cost` is its one-instance call, and the audit passes it
every perturbed sample of a claim at once. Every instance gets the bits its
own K=1 call gives, by three rules:

* the query count is taken in log space by numpy's elementwise ``log``,
  ``log1p`` and ``exp`` (:func:`~convecon.core.recover_q_value`), whose
  bits do not depend on the lattice's shape;
* window shrinking stays in :mod:`math`, one instance at a time
  (``np.log10`` and ``np.power`` can differ from ``math.log10`` and
  ``10.0 **`` in the last bit); the axes are built with numpy logspace's
  own arithmetic, which is elementwise, so each row gets the bits of its
  own scalar call.
* at K=1 the parameters reach numpy as plain floats, not (1, 1, 1) arrays:
  the bits are the same, but arrays slow the lattice arithmetic down.

A block of joint searches (a feedback model, no pin) whose full lattice has
at least ``_PRUNE_NODES`` nodes (a lone search from 128 points per axis, 4
searches at the audit grid) evaluates only the feedback rows that can hold
a round's least cost (:func:`_kept_rows`); a smaller block evaluates every
row, which is cheaper there. Each round first bounds every row's least cost
from below (:func:`_row_floors`: the row's continuous minimum over the
assessment window, worked out from the model row in :mod:`convecon.core`,
less a 1e-9 relative slack) and evaluates the row with the lowest bound.
That row's least cost is a lattice value, so no row whose bound exceeds it
can hold the round's least cost or tie it. The round then evaluates exactly
the kept rows (:func:`_lattices`): a lone search as a row index into its
axes; a block as a ragged list of (instance, row) pairs, rows ascending
within each instance, each pair a one-row lattice with its parameters and
assessment axis gathered, in slices of whole instances and at most
``_BLOCK_NODES`` nodes. Each instance's node is the least over its pairs by
(cost, q, f, a), the first row among equals (:func:`_least_pairs`), which
is the node its whole lattice gives; the :class:`Unbounded` check counts a
neighbour row that was not evaluated as costlier, which its floor proves.
So the incumbent, the tie-break, the corner flags and the check keep their
bits. The bound only chooses rows and never supplies an answer, and it uses
:mod:`convecon.core`, never the closed forms. Every row is kept where
subnormal values could lose the precision the slack assumes. A default-grid
joint solve at the README parameters evaluates 1,600 to 3,000 nodes, not
160,000; the seed-0 audit's m2 joint searches evaluate 17,513 rows, one
probe per search and round and 12,113 kept rows. One-axis searches have a
single row or column and evaluate it all.

Each zoom round writes its lattices into a workspace that the thread keeps
(:func:`_workspace`): three lattice-sized buffers, reused across rounds and
calls, so a round allocates no lattice. The arena grows only to three times
the largest lattice or slice the thread is asked for: at most 0.8 MB
(three ``_BLOCK_NODES`` slices) at the audit grid, and 0.96 MB at the
default grid, where a lone search or an instance that keeps every row
evaluates a full 200 x 200 lattice.

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
from .closed_form import ClosedFormSolution
# cost_value is not called here; it stays a module name because the
# benchmark's tracer rebinds ``oracle.cost_value``.
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


def _argmin_lex(total: np.ndarray, qv: np.ndarray, f_axis: np.ndarray, a_axis: np.ndarray) -> np.ndarray:
    """Per lattice, the flat index of the least cost, ties going to the
    smallest (q, f, a) and then to the first in (row, a) order; -1 where no
    node has a finite cost."""
    flat = total.reshape(len(total), -1)
    index = flat.argmin(axis=1)
    best = flat[np.arange(len(flat)), index]
    is_best = flat == best[:, None]
    # Counting per lattice costs a pass over it; skip that unless some
    # lattice has more than one least-cost node.
    if np.count_nonzero(is_best) > len(flat):
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
    return tuple(arena[i * size:(i + 1) * size].reshape(shape) for i in range(3))


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
    into a workspace buffer. Non-finite costs become ``inf``.
    """
    row = _model_row(model)
    fcol = f_axis[:, :, None]
    arow = a_axis[:, None, :]
    qv, total, scratch = _workspace((len(f_axis), f_axis.shape[1], a_axis.shape[1]))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
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
    floor is not finite, or where it or ``min(1, q) * min(1, f, a)`` (at the
    row's least ``q`` and the window's least ``a``) is at most
    ``_FLOOR_TINY``.
    """
    row = _model_row(model)
    f = f_axis[:, :, None]
    lo, hi = a_axis[:, None, :1], a_axis[:, None, -1:]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        ratio = efficiency.beta / _query_exponent(row, f, efficiency)
        fixed = costs.c_query + f * costs.c_feedback
        per_a = (1.0 + f) * costs.c_assess if row.repeat else costs.c_assess
        turn = ratio * fixed / ((1.0 - ratio) * per_a)
        a = np.where(ratio < 1.0, np.minimum(np.maximum(turn, lo), hi), hi)
        floor = recover_q_value(model, g, f, a, efficiency) * (fixed + per_a * a)
        floor *= 1.0 - _FLOOR_SLACK
        least_q = recover_q_value(model, g, f, hi, efficiency)
        smallest = np.minimum(least_q, 1.0) * np.minimum(np.minimum(f, lo), 1.0)
        sound = np.isfinite(floor) & (floor > _FLOOR_TINY) & (smallest > _FLOOR_TINY)
    return np.where(sound, floor, 0.0)[:, :, 0]


def _kept_rows(model, efficiency, costs, g, f_axis, a_axis):
    """The feedback rows a joint round has to evaluate, as a (K, F) mask:
    per instance, every row that can hold the round's least cost.

    Each instance first evaluates the row with the lowest floor
    (:func:`_row_floors`); that row's least cost ``U`` is a lattice value,
    so a row whose floor exceeds ``U`` can neither hold the round's least
    cost nor tie it. Where ``U`` is not finite or is at most
    ``_FLOOR_TINY``, every row is kept.
    """
    floors = _row_floors(model, efficiency, costs, g, f_axis, a_axis)
    probe = floors.argmin(axis=1)
    _, probe_total = _evaluate(model, efficiency, costs, g, f_axis[np.arange(len(f_axis)), probe][:, None], a_axis)
    least = probe_total.min(axis=(1, 2))
    kept = floors <= least[:, None]
    kept[~((least > _FLOOR_TINY) & (least < np.inf))] = True
    return kept


def _lattices(model, efficiency, costs, g, f_axis, a_axis, kept):
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
    axes, and in a block as a ragged list of (instance, row) pairs, a
    one-row lattice each, with their parameters and assessment axes
    gathered per pair. A slice holds whole instances and at most
    ``_BLOCK_NODES`` nodes, or one instance whose kept rows alone exceed
    that (at most one full lattice, as a lone search evaluates).
    """
    size = len(f_axis)
    if kept is None:
        qv, total = _evaluate(model, efficiency, costs, g, f_axis, a_axis)
        yield None, None, f_axis, a_axis, qv, total
        return
    if size == 1:
        rows = np.flatnonzero(kept[0])
        f_rows = f_axis[:, rows]
        qv, total = _evaluate(model, efficiency, costs, g, f_rows, a_axis)
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
            model, _gathered(efficiency, pair_owners), _gathered(costs, pair_owners), g, f_rows, a_rows,
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


def _least_nodes(model, efficiency, costs, g, f_axis, a_axis, kept, last):
    """Evaluate one round (:func:`_lattices`); returns ``(k, node)`` for
    each instance ``k``: ``node`` is None where no node has a finite cost,
    else the least-cost node as ``(f_idx, a_idx)``, or in the ``last``
    round as ``(f_idx, a_idx, q, f_falls, a_falls)``.

    ``f_falls`` and ``a_falls`` say whether the cost falls toward the node
    from the node before it on that axis; they are only worked out for a
    node on the axis's last index and are False elsewhere. The node before
    on the feedback axis is the lattice row before, or the previous
    lattice's row where that is a pair of the same instance; it must be the
    instance's previous feedback row. A feedback row the round left out has
    a floor above the node's cost, so every node of it is costlier.
    """
    ragged = kept is not None and len(f_axis) > 1
    last_row = f_axis.shape[1] - 1
    nodes = []
    for owners, rows, f_rows, a_rows, qv, total in _lattices(model, efficiency, costs, g, f_axis, a_axis, kept):
        index = _argmin_lex(total, qv, f_rows, a_rows)
        lattices = instances = range(len(index))
        if ragged:
            chosen = _least_pairs(owners, index, total, qv, f_rows, a_rows)
            index = index[chosen]
            lattices, instances = chosen.tolist(), owners[chosen].tolist()
        last_column = total.shape[2] - 1
        for j, k, node in zip(lattices, instances, index.tolist()):
            if node < 0:
                nodes.append((k, None))
                continue
            i, a_idx = divmod(node, last_column + 1)
            f_idx = i if rows is None else int(rows[j, i])
            if not last:
                nodes.append((k, (f_idx, a_idx)))
                continue
            here = total[j, i, a_idx]
            f_falls = a_falls = False
            if f_idx == last_row:
                before = None
                if i > 0 and (rows is None or rows[j, i - 1] == f_idx - 1):
                    before = total[j, i - 1, a_idx]
                elif i == 0 and ragged and j > 0 and owners[j - 1] == k and rows[j - 1, -1] == f_idx - 1:
                    before = total[j - 1, -1, a_idx]
                f_falls = before is None or bool(before > here)
            if a_idx == last_column:
                a_falls = bool(total[j, i, a_idx - 1] > here)
            nodes.append((k, (f_idx, a_idx, float(qv[j, i, a_idx]), f_falls, a_falls)))
    return nodes


def _columns(params: Sequence) -> SimpleNamespace:
    """K parameter bundles as one, each field a (K, 1, 1) column.

    ``recover_q_value`` and ``cost_value`` only read the fields, so the
    columns broadcast against K stacked lattices.
    """
    return SimpleNamespace(**{
        field.name: np.array([getattr(p, field.name) for p in params]).reshape(-1, 1, 1)
        for field in fields(params[0])
    })


def _gathered(columns: SimpleNamespace, owners: np.ndarray) -> SimpleNamespace:
    """The parameter columns of :func:`_columns`, one row per owner."""
    return SimpleNamespace(**{name: column[owners] for name, column in vars(columns).items()})


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
    Instances are searched together in blocks whose rounds hold at most
    ``_BLOCK_NODES`` nodes at once, and at least one instance.
    """
    g = check_gain(g)
    if not isinstance(model, ModelKind):
        model = ModelKind.from_code(model)
    spec = grid if grid is not None else GridSpec()
    # Searches per block: a one-axis round holds one row of nodes per
    # search. A joint round holds its floors, a probe row and its kept rows
    # (2.2 a round for the audit's m2 searches) with their gathered
    # assessment axes; four rows a search is measured: with 512, 256 and
    # 128 joint searches a block (the audit grid), the audit workload's
    # peak RSS rose 6.1%, 3-4% and 2.2% over blocks of 8, at the same speed
    # for 256 and 128.
    rows = 4 if model.uses_feedback and pin is None else 1
    cap = max(1, _BLOCK_NODES // (rows * spec.points))

    results: list = [None] * len(instances)
    pending = []
    for i, (_, _, value) in enumerate(instances):
        try:
            _check_pin(model, pin, value)
        except DomainError as exc:
            results[i] = exc.with_traceback(None)
            continue
        pending.append(i)
    for start in range(0, len(pending), cap):
        block = pending[start:start + cap]
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
    # Per instance, the round's least-cost node (_least_nodes).
    best: list = [(0, 0)] * size
    prune = f_windows is not None and a_windows is not None and size * spec.points**2 >= _PRUNE_NODES
    for round_index in range(spec.refinements + 1):
        f_axis = f_fixed if f_windows is None else _log_axes(f_windows, spec.points)
        a_axis = a_fixed if a_windows is None else _log_axes(a_windows, spec.points)
        kept = _kept_rows(model, efficiency, costs, g, f_axis, a_axis) if prune else None
        last = round_index == spec.refinements
        for k, node in _least_nodes(model, efficiency, costs, g, f_axis, a_axis, kept, last):
            if node is None:
                # A valid input whose gain target no finite query count reaches.
                errors[k] = errors[k] or NoInteriorOptimum("grid evaluation produced no finite cost")
            else:
                best[k] = node
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
        f_idx, a_idx, q, f_falls, a_falls = best[k]
        lower_corners = []
        if f_windows is not None:
            if f_idx == f_axis.shape[1] - 1 and f_axis[k, -1] == spec.max and f_falls:
                results.append(Unbounded(
                    "cost still decreasing at the upper grid bound on the feedback axis "
                    f"(f = {spec.max}); the optimum lies outside the search box"
                ))
                continue
            if f_idx == 0 and f_axis[k, 0] == spec.min:
                lower_corners.append("f")
        if a_windows is not None:
            if a_idx == a_axis.shape[1] - 1 and a_axis[k, -1] == spec.max and a_falls:
                results.append(Unbounded(
                    "cost still decreasing at the upper grid bound on the assessment axis "
                    f"(a = {spec.max}); the optimum lies outside the search box"
                ))
                continue
            if a_idx == 0 and a_axis[k, 0] == spec.min:
                lower_corners.append("a")
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
    whenever the floor is attainable at all; so is the integer below it where
    the recovered count exceeds that integer only by its rounding
    (``_Q_ROUNDING``). Candidates must reach the gain
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
    return IntegerRefinement(
        strategy=Strategy(model, q=float(q), f=float(f), a=float(a)),
        achieved_gain=achieved,
        total_cost=total_cost,
    )
