"""Comparative statics: sweeps, derivative signs, and the claims audit.

The models make a raft of directional promises of the form "when this price
or exponent moves, the optimal behaviour moves that way". This module turns
each promise into a :class:`Claim` and checks it two independent ways at
sampled parameter points:

* on the closed-form expression that backs the claim (finite differences on
  the printed formula), and
* on the brute-force oracle's solution component, conditioned the same way
  the formula is (depth claims hold feedback fixed, fixed-depth feedback
  claims hold depth fixed, unconditioned feedback claims use the joint
  optimum).

The audit also scores how well each formula route tracks the oracle numerically
(the agreement section); AGREES/DISAGREES verdicts there are findings about
the formulas, not test failures. Claims marked ``informational`` come from a
disputed source and are never treated as normative.

Each printed formula is a :class:`FormulaVariant`, and one private table row
per variant says what it is: its model, the optimum it gives (``a*`` or
``f*``) and the coordinate it takes as input (none, ``f`` or ``a``). The
formula route calls the ``closed_form`` function the variant is named after,
the oracle route pins the coordinate the formula is given, the agreement
rows and their names, and each claim's model and quantity, all follow from
that row.

The audit holds its samples as columns: one float64 array per axis of
``AXIS_ORDER``. Moving a parameter, evaluating a printed formula, solving a
coupled pair and taking differences and deviations are each one array pass
over a claim's samples, with the float arithmetic of a sample on its own,
so every sample keeps the bits it would get alone. Where a formula refuses
some sample, the call over the columns raises and is repeated sample by
sample on plain floats. A sweep holds its steps the same way.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import closed_form as cf
from ._jsonio import check_keys, format_float, named
from .core import (
    PARAM_FIELDS,
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    _DOMAINS,
    _EFFICIENCY_FIELDS,
    _in_domain,
    _instance,
    _param_columns,
    _require_count,
    _require_finite,
    check_gain,
    cost,
    gain,
    params_from_mapping,
    params_to_mapping,
)
from .errors import DomainError, EconError
# minimize_cost is not called here; it stays a module name because the
# benchmark's tracer rebinds ``statics.minimize_cost``.
from .oracle import GridSpec, _minimize_batch, minimize_cost

__all__ = [
    "Quantity",
    "FormulaVariant",
    "Claim",
    "claim_registry",
    "ParameterRegion",
    "default_region",
    "SweepTable",
    "sweep",
    "ClaimAudit",
    "FormulaAgreement",
    "ClaimAuditReport",
    "audit_claims",
    "DEFAULT_AUDIT_GRID",
]

# Lighter than the oracle's default: the audit solves 46 instances per
# sample (22 claims at two moved points each, plus two joint agreement
# solves: 9,200 at 200 samples), every one different, and only needs ~0.3%
# component accuracy for sign and 5%-agreement work.
DEFAULT_AUDIT_GRID = GridSpec(points=64, refinements=2)

AXIS_ORDER = PARAM_FIELDS + ("f", "a")

SIGN_POSITIVE = "+"
SIGN_NEGATIVE = "-"

FLAT_THRESHOLD = 1e-9

# Relative central-difference steps of the audit's two routes. The oracle's
# is larger because grid quantisation drowns a 1e-4 step.
FORMULA_H = 1e-4
ORACLE_H = 0.05


class Quantity(str, Enum):
    """What a claim is about: optimal depth or optimal feedback level."""

    A_STAR = "a_star"
    F_STAR = "f_star"


class FormulaVariant(str, Enum):
    """Which closed-form route backs a claim."""

    A0 = "a0_star"
    A1 = "a1_star"
    F1 = "f1_star"
    A2_PARTIAL = "a2_star_partial"
    A2_FULL = "a2_star_full"
    F2 = "f2_star"
    F2_COUPLED = "f2_star_coupled"


@dataclass(frozen=True)
class Claim:
    """One directional promise about an optimal quantity.

    ``parameter`` is the axis being perturbed (one of the seven model
    parameters, or the conditioning coordinate ``f``). ``informational``
    claims come from a source whose final form is disputed; they are audited
    and reported but never asserted.
    """

    id: str
    model: ModelKind
    quantity: Quantity
    formula_variant: FormulaVariant
    parameter: str
    expected_sign: str
    statement: str
    informational: bool = False

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "model": self.model.code,
            "quantity": self.quantity.value,
            "variant": self.formula_variant.value,
            "parameter": self.parameter,
            "expected": self.expected_sign,
            "informational": self.informational,
            "statement": self.statement,
        }


class _VariantRow(NamedTuple):
    """What one formula variant is: its model, the optimum it gives, and the
    coordinate it takes as input (None, "f" or "a")."""

    model: ModelKind
    quantity: Quantity
    given: Optional[str]


_M0, _M1, _M2 = ModelKind.BASELINE, ModelKind.FEEDBACK_FIRST, ModelKind.FEEDBACK_AFTER
_A, _F = Quantity.A_STAR, Quantity.F_STAR
_V = FormulaVariant

# One row per variant. The formula is the closed_form function named by the
# variant's value, looked up at call time (never stored here) so that a
# rebinding of the module attribute is seen. The oracle route pins the same
# coordinate the formula is given.
_VARIANTS = {
    _V.A0: _VariantRow(_M0, _A, None),
    _V.A1: _VariantRow(_M1, _A, "f"),
    _V.F1: _VariantRow(_M1, _F, "a"),
    _V.A2_PARTIAL: _VariantRow(_M2, _A, "f"),
    _V.A2_FULL: _VariantRow(_M2, _A, "f"),
    _V.F2: _VariantRow(_M2, _F, None),
    _V.F2_COUPLED: _VariantRow(_M2, _F, "a"),
}

# The strategy coordinate each quantity reads.
_AXIS = {_A: "a", _F: "f"}


def _claim(claim_id: str, variant: FormulaVariant, *rest: str, informational: bool = False) -> Claim:
    """A registry row; its model and quantity come from the variant's row."""
    row = _VARIANTS[variant]
    return Claim(claim_id, row.model, row.quantity, variant, *rest, informational=informational)


_REGISTRY: tuple[Claim, ...] = (
    _claim("M0-1", _V.A0, "c_query", "+", "costlier queries push baseline assessment depth up"),
    _claim("M0-2", _V.A0, "c_assess", "-", "costlier assessment pushes baseline assessment depth down"),
    _claim("M0-3", _V.A0, "alpha", "-", "a stronger query exponent lowers baseline assessment depth"),
    _claim("M0-4", _V.A0, "beta", "+", "a stronger assessment exponent raises baseline assessment depth"),
    _claim("M1-1", _V.A1, "c_query", "+", "costlier queries deepen assessment at a fixed feedback level"),
    _claim("M1-2", _V.A1, "c_assess", "-", "costlier assessment shallows assessment at a fixed feedback level"),
    _claim("M1-3", _V.A1, "c_feedback", "+", "costlier feedback deepens assessment when feedback is given"),
    _claim("M1-4", _V.A1, "f", "-", "more feedback per query shallows assessment"),
    _claim("M1-5", _V.F1, "c_query", "+", "costlier queries call for more feedback at a fixed depth"),
    _claim("M1-6", _V.F1, "c_assess", "+", "costlier assessment calls for more feedback at a fixed depth"),
    _claim("M1-7", _V.F1, "c_feedback", "-", "costlier feedback calls for less feedback at a fixed depth"),
    _claim("M1-8", _V.F1, "gamma1", "-", "more effective feedback needs fewer rounds of it"),
    _claim("M1-9", _V.F1, "beta", "+",
           "feedback rises as the assessment exponent approaches the query exponent", informational=True),
    _claim("M2-1", _V.A2_PARTIAL, "c_feedback", "+", "costlier feedback deepens per-pass assessment when feedback is given"),
    _claim("M2-2", _V.A2_PARTIAL, "c_assess", "-", "costlier assessment shallows per-pass assessment"),
    _claim("M2-3", _V.A2_PARTIAL, "beta", "+", "a stronger assessment exponent deepens per-pass assessment"),
    _claim("M2-4", _V.F2, "c_query", "+", "costlier queries motivate more post-results feedback"),
    _claim("M2-5", _V.F2, "c_feedback", "-", "costlier feedback warrants less post-results feedback"),
    _claim("M2-6", _V.F2, "gamma2", "+", "more effective feedback invites more of it"),
    _claim("M2-7", _V.F2, "alpha", "-", "a stronger query exponent shifts effort from feedback to querying"),
    _claim("M2-8", _V.A2_FULL, "gamma2", "-",
           "more effective feedback shallows per-pass assessment (full-depth variant)", informational=True),
    _claim("M2-9", _V.F2_COUPLED, "beta", "-",
           "feedback fades as the assessment exponent overtakes querying (depth-coupled variant)", informational=True),
)


def claim_registry() -> tuple[Claim, ...]:
    """The fixed registry of audited claims, in stable order with stable ids."""
    return _REGISTRY


@dataclass(frozen=True)
class ParameterRegion:
    """A box of parameter ranges (plus the f/a conditioning coordinates).

    All nine axes are required and sampled log-uniformly, so every lower
    bound must be strictly positive.
    """

    bounds: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        names = [name for name, _, _ in self.bounds]
        if names != list(AXIS_ORDER):
            raise DomainError(f"region must define exactly the axes {', '.join(AXIS_ORDER)} in order")
        caps = {name: domain.high for name, domain in _DOMAINS.items() if domain.high < math.inf}
        bounds = []
        for name, lo, hi in self.bounds:
            lo = _require_finite(f"region axis {name} lo", lo)
            hi = _require_finite(f"region axis {name} hi", hi)
            if not 0.0 < lo < hi:
                raise DomainError(f"region axis {name}: requires 0 < lo < hi (log-uniform sampling)")
            if name in caps and hi > caps[name]:
                raise DomainError(f"region axis {name}: upper bound must be <= {caps[name]}")
            bounds.append((name, lo, hi))
        object.__setattr__(self, "bounds", tuple(bounds))

    @classmethod
    def from_mapping(cls, data: Mapping[str, object], *, source: str = "region") -> "ParameterRegion":
        check_keys(data, AXIS_ORDER, source=source, noun="axis(es)")
        bounds = []
        for name in AXIS_ORDER:
            pair = data[name]
            if not isinstance(pair, Sequence) or isinstance(pair, (str, bytes)) or len(pair) != 2:
                raise DomainError(f"{source}: axis {name} must be a [lo, hi] pair")
            lo, hi = pair
            bounds.append((name, lo, hi))
        with named(source):
            return cls(bounds=tuple(bounds))

    def to_dict(self) -> dict:
        return {name: [lo, hi] for name, lo, hi in self.bounds}


def default_region() -> ParameterRegion:
    """A broad, well-behaved box: exponents ordered with margin, prices
    spanning roughly two decades, conditioning coordinates in a realistic
    session range."""
    return ParameterRegion(bounds=(
        ("alpha", 0.55, 0.95),
        ("beta", 0.05, 0.45),
        ("gamma1", 0.02, 0.4),
        ("gamma2", 0.1, 0.9),
        ("c_query", 1.0, 50.0),
        ("c_feedback", 0.2, 10.0),
        ("c_assess", 0.2, 10.0),
        ("f", 0.5, 6.0),
        ("a", 1.0, 30.0),
    ))


# A route's values at a set of points, as columns over the points: (value,
# clamped, evaluated). Where a point is not evaluated, its value and clamped
# flag mean nothing.
_Values = tuple[np.ndarray, np.ndarray, np.ndarray]


def _formula_values(variant: FormulaVariant, points: Mapping[str, np.ndarray]) -> _Values:
    """The formula route: the variant's printed formula at every point.

    The formula is given the points' coordinate named by the variant's row,
    and is called once on the columns. Where that call raises, it is called
    point by point on plain floats, and a point whose own call raises is not
    evaluated. A formula without clamping is never clamped.
    """
    formula = getattr(cf, variant.value)
    given = _VARIANTS[variant].given
    args = (() if given is None else (points[given],)) + _param_columns(points)
    size = len(points["f"])
    with np.errstate(all="ignore"):
        try:
            return (*_read(formula(*args)), np.ones(size, dtype=bool))
        except EconError:
            results = cf._one_by_one(formula, size, *args)
    evaluated = [not isinstance(result, EconError) for result in results]
    pairs = [_read(result) if ok else (np.nan, False) for result, ok in zip(results, evaluated)]
    return (
        np.array([value for value, _ in pairs], dtype=float),
        np.array([clamped for _, clamped in pairs], dtype=bool),
        np.array(evaluated, dtype=bool),
    )


def _read(result) -> tuple:
    """(value, clamped) of a formula's output, plain or columns; a formula
    without clamping is never clamped."""
    if isinstance(result, cf.ClampedValue):
        return result.value, result.corner
    return result, np.zeros(np.shape(result), dtype=bool)


def _oracle_values(
    variant: FormulaVariant, points: Mapping[str, np.ndarray], *, g: float, grid: GridSpec,
) -> _Values:
    """The oracle route: the optimum the variant gives, conditioned as the
    formula is, at every point, as one batch.

    The coordinate the formula is given is pinned at the point's value, so
    depth formulas get a depth-only search, fixed-depth feedback formulas a
    feedback-only search, and unconditioned formulas the joint search. A
    component at the grid floor counts as clamped.
    """
    model, quantity, given = _VARIANTS[variant]
    incumbents = _minimize_batch(
        model, *_param_columns(points), g, grid, pin=given, values=None if given is None else points[given],
    )
    axis = _AXIS[quantity]
    # An incumbent's coordinates are finite floats, so NaN marks an error.
    value = np.array([np.nan if isinstance(i, EconError) else getattr(i, axis) for i in incumbents], dtype=float)
    return value, value <= grid.min * (1.0 + 1e-9), ~np.isnan(value)


def _step_columns(columns: Mapping[str, np.ndarray], parameter: str, h: float) -> tuple[np.ndarray, dict]:
    """Every sample moved in ``parameter`` by the relative step ``h``, for a
    central difference.

    Returns the mask of samples with a valid step, and the moved points as
    columns: the valid samples at ``base*(1+h)``, then at ``base*(1-h)``. A
    step is valid where the base is not zero and, for a model parameter,
    both moved values lie in its domain (the check its constructor makes).
    """
    base = columns[parameter]
    with np.errstate(over="ignore"):  # a moved value that overflows is not valid
        up, down = base * (1.0 + h), base * (1.0 - h)
    valid = base != 0.0
    if parameter in _DOMAINS:
        valid &= _in_domain(parameter, up) & _in_domain(parameter, down)
    moved = {name: np.concatenate((column[valid], column[valid])) for name, column in columns.items()}
    moved[parameter] = np.concatenate((up[valid], down[valid]))
    return valid, moved


def _differences(values: _Values, base: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One central difference per sample with a valid step, from a route's
    values at its moved points (:func:`_step_columns`) and the samples'
    ``base`` values.

    Returns (scored, sign): scored where both of the sample's values were
    evaluated; the sign +1 or -1 where scored and neither value clamped nor
    the derivative's magnitude below ``FLAT_THRESHOLD``, else 0.
    """
    value, clamped, evaluated = values
    m = len(base)
    with np.errstate(all="ignore"):
        derivative = (value[:m] - value[m:]) / (2.0 * h * base)
    scored = evaluated[:m] & evaluated[m:]
    signed = scored & ~(clamped[:m] | clamped[m:] | (np.abs(derivative) < FLAT_THRESHOLD))
    return scored, np.where(signed, np.where(derivative > 0.0, 1, -1), 0)


@dataclass(frozen=True)
class ClaimAudit:
    """Audit outcome for one claim: per-route fractions and diagnostics."""

    claim: Claim
    samples: int
    n_formula: int
    holds_formula: int
    flat_formula: int
    skipped_formula: int
    n_oracle: int
    holds_oracle: int
    flat_oracle: int
    skipped_oracle: int
    counterexamples: tuple[dict, ...]

    @property
    def fraction_holding_formula(self) -> Optional[float]:
        return self.holds_formula / self.n_formula if self.n_formula else None

    @property
    def fraction_holding_oracle(self) -> Optional[float]:
        return self.holds_oracle / self.n_oracle if self.n_oracle else None

    @property
    def no_data(self) -> bool:
        return self.n_formula == 0

    def to_dict(self) -> dict:
        out = self.claim.to_dict()
        out.update({
            "samples": self.samples,
            "n_formula": self.n_formula,
            "fraction_holding_formula": self.fraction_holding_formula,
            "flat_formula": self.flat_formula,
            "skipped_formula": self.skipped_formula,
            "n_oracle": self.n_oracle,
            "fraction_holding_oracle": self.fraction_holding_oracle,
            "flat_oracle": self.flat_oracle,
            "skipped_oracle": self.skipped_oracle,
            "no_data": self.no_data,
            "counterexamples": list(self.counterexamples),
        })
        return out


AGREEMENT_TOLERANCE = 0.05
AGREEMENT_THRESHOLD = 0.9

VERDICT_AGREES = "AGREES"
VERDICT_DISAGREES = "DISAGREES"
VERDICT_NO_DATA = "NO DATA"


@dataclass(frozen=True)
class FormulaAgreement:
    """How closely one formula route tracks the oracle across the samples.

    ``verdict`` is AGREES when at least 90% of evaluated samples land within
    5% relative of the oracle component; it is a reported finding about the
    formula, not a build gate.
    """

    name: str
    n: int
    skipped: int
    median_rel_dev: Optional[float]
    within_tol_fraction: Optional[float]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "skipped": self.skipped,
            "median_rel_dev": self.median_rel_dev,
            "within_tol_fraction": self.within_tol_fraction,
            "verdict": self.verdict,
            "tolerance": AGREEMENT_TOLERANCE,
            "threshold": AGREEMENT_THRESHOLD,
        }


# Each feedback model's agreement section ends with its coupled fixed-point
# solve (closed_form's coupled pair), scored on both coordinates.
_COUPLED_PAIRS = {_M1: "model1_coupled_pair", _M2: "model2_coupled_pair"}


def _agreement_rows(model: ModelKind) -> tuple[tuple[str, Optional[FormulaVariant]], ...]:
    """The model's agreement rows as (name, variant): each of its variants
    in enum order, given the coordinate it conditions on from the joint
    oracle optimum, then its coupled pair, whose variant is None."""
    rows = []
    for variant in FormulaVariant:
        row = _VARIANTS[variant]
        if row.model is model:
            suffix = "" if row.given is None else f"_at_oracle_{row.given}"
            rows.append((variant.value + suffix, variant))
    return tuple(rows) + ((_COUPLED_PAIRS[model], None),)


_AGREEMENT_SECTIONS = tuple((model, _agreement_rows(model)) for model in _COUPLED_PAIRS)


@dataclass(frozen=True)
class ClaimAuditReport:
    """Everything one audit run produced, serializable and renderable."""

    claims: tuple[ClaimAudit, ...]
    agreement: tuple[FormulaAgreement, ...]
    meta: dict

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "claims": [row.to_dict() for row in self.claims],
            "agreement": [row.to_dict() for row in self.agreement],
        }

    def claim(self, claim_id: str) -> ClaimAudit:
        for row in self.claims:
            if row.claim.id == claim_id:
                return row
        raise KeyError(claim_id)

    def agreement_row(self, name: str) -> FormulaAgreement:
        for row in self.agreement:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_text(self) -> str:
        def fmt_fraction(x: Optional[float]) -> str:
            return "  n/a" if x is None else f"{x:5.3f}"

        lines = []
        lines.append(
            f"claims audit: {self.meta['samples']} samples, seed {self.meta['seed']}, "
            f"gain target {self.meta['g']}"
        )
        lines.append("")
        header = (
            f"{'id':<6} {'quantity':<22} {'exp':<3} {'formula':>7} {'oracle':>7} "
            f"{'flat':>5} {'skip':>5}  statement"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.claims:
            claim = row.claim
            label = f"{claim.formula_variant.value} / {claim.parameter}"
            info = " [informational]" if claim.informational else ""
            lines.append(
                f"{claim.id:<6} {label:<22} {claim.expected_sign:<3} "
                f"{fmt_fraction(row.fraction_holding_formula):>7} "
                f"{fmt_fraction(row.fraction_holding_oracle):>7} "
                f"{row.flat_formula:>5} {row.skipped_formula:>5}  {claim.statement}{info}"
            )
        lines.append("")
        lines.append("formula-vs-oracle agreement (5% tolerance, 90% threshold):")
        header = f"{'route':<28} {'n':>5} {'skip':>5} {'median dev':>11} {'within':>7}  verdict"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.agreement:
            med = "n/a" if row.median_rel_dev is None else f"{row.median_rel_dev:.4f}"
            within = "n/a" if row.within_tol_fraction is None else f"{row.within_tol_fraction:5.3f}"
            lines.append(
                f"{row.name:<28} {row.n:>5} {row.skipped:>5} {med:>11} {within:>7}  {row.verdict}"
            )
        return "\n".join(lines) + "\n"


def _draw_columns(seed: int, samples: int, region: ParameterRegion) -> dict[str, np.ndarray]:
    """The audit's samples as one (samples,) column per axis, in
    ``AXIS_ORDER``: log-uniform in the region, each sample drawn from its
    own substream spawned off ``seed``, one double per axis. The drawn
    parameters are checked as their constructors check them.

    Each value is ``exp(low + (high - low) * u)`` for the logs of the axis
    bounds and the substream's next double ``u``: the arithmetic of the
    generator's ``uniform`` followed by ``exp``, done once over all samples.
    """
    bounds = np.array([(lo, hi) for _, lo, hi in region.bounds])
    lows, highs = np.log(bounds[:, 0]), np.log(bounds[:, 1])
    doubles = np.array([
        np.random.default_rng(stream).random(len(bounds))
        for stream in np.random.SeedSequence(seed).spawn(samples)
    ])
    columns = dict(zip(AXIS_ORDER, np.exp(lows + (highs - lows) * doubles).T.copy()))
    for name in PARAM_FIELDS:
        outside = np.flatnonzero(~_in_domain(name, columns[name]))
        if len(outside):
            # The first offending sample raises its constructor's error.
            row = vars(_instance(SimpleNamespace(**columns), outside[0]))
            params_from_mapping({name: row[name] for name in PARAM_FIELDS}, source="region sample")
    return columns


def _deviations(formula_values: np.ndarray, oracle_values: np.ndarray) -> np.ndarray:
    """The relative deviation of each formula value from its oracle value."""
    return np.abs(formula_values - oracle_values) / np.maximum(np.abs(oracle_values), 1e-12)


def _agreement(name: str, deviations: np.ndarray, skipped: int) -> FormulaAgreement:
    """An agreement row from its scored samples' deviations and the count of
    skipped ones."""
    values = deviations.tolist()
    n = len(values)
    if n == 0:
        return FormulaAgreement(name, 0, skipped, None, None, VERDICT_NO_DATA)
    within = sum(1 for d in values if d <= AGREEMENT_TOLERANCE) / n
    verdict = VERDICT_AGREES if within >= AGREEMENT_THRESHOLD else VERDICT_DISAGREES
    return FormulaAgreement(
        name=name,
        n=n,
        skipped=skipped,
        median_rel_dev=float(statistics.median(values)),
        within_tol_fraction=within,
        verdict=verdict,
    )


def _collect_agreement(columns: Mapping[str, np.ndarray], g: float, grid: GridSpec) -> tuple[FormulaAgreement, ...]:
    """Every agreement row, each scored on every sample.

    Each feedback model's joint oracle solves all samples as one batch. A
    model's rows are all skipped at a sample where its joint oracle has no
    optimum or puts feedback at the grid floor. At the other samples, each
    row is one call over their columns: a variant's formula, given the
    coordinate it conditions on from the joint optimum, and the model's
    coupled pair. A sample alone is skipped on a row where the formula
    raises or is clamped, or where the coupled solve fails.
    """
    agreement = []
    for model, rows in _AGREEMENT_SECTIONS:
        joints = _minimize_batch(model, *_param_columns(columns), g, grid)
        scored = [
            i for i, joint in enumerate(joints)
            if not isinstance(joint, EconError) and "f" not in joint.lower_corner_axes
        ]
        at = {name: column[scored] for name, column in columns.items()}
        at["f"] = np.array([joints[i].f for i in scored], dtype=float)
        at["a"] = np.array([joints[i].a for i in scored], dtype=float)
        unscored = len(joints) - len(scored)
        for name, variant in rows:
            if variant is not None:
                value, clamped, evaluated = _formula_values(variant, at)
                kept = evaluated & ~clamped
                axis = _AXIS[_VARIANTS[variant].quantity]
                deviations = _deviations(value[kept], at[axis][kept])
            else:
                solutions = cf._solve_coupled(model, *_param_columns(at), g)
                kept = np.array([not isinstance(solution, EconError) for solution in solutions], dtype=bool)
                f_dev, a_dev = (
                    _deviations(
                        np.array([getattr(s.strategy, axis) for s in solutions if not isinstance(s, EconError)]),
                        at[axis][kept],
                    )
                    for axis in ("f", "a")
                )
                # The larger of the two, the first where they tie.
                deviations = np.where(a_dev > f_dev, a_dev, f_dev)
            agreement.append(_agreement(name, deviations, unscored + int(np.count_nonzero(~kept))))
    return tuple(agreement)


# Each sign as the audit's columns hold it.
_SIGN_CODES = {SIGN_POSITIVE: 1, SIGN_NEGATIVE: -1}
_SIGNS = {1: SIGN_POSITIVE, -1: SIGN_NEGATIVE, 0: None}


def audit_claims(
    region: Optional[ParameterRegion] = None,
    samples: int = 200,
    seed: int = 0,
    g: float = 100.0,
    grid: Optional[GridSpec] = None,
) -> ClaimAuditReport:
    """Audit every registry claim over log-uniform samples from ``region``.

    Each claim is scored on two routes (printed formula, conditioned oracle)
    with central differences. Samples where a route cannot evaluate are
    counted as skipped for that route; samples where the quantity is clamped
    at zero on either side of the perturbation, or the derivative magnitude
    is below 1e-9, count as flat and leave the denominator. The oracle route
    uses a larger relative step (``ORACLE_H``) than the formulas
    (``FORMULA_H``) because grid quantisation drowns the formulas' step.

    Deterministic for fixed arguments: each sample gets its own spawned
    random substream, and aggregation order is fixed. The samples are held
    as columns, one array per axis, and every sample is drawn first. The
    claims then run grouped by parameter: the samples are moved once per
    parameter and step (:func:`_step_columns`), and each route evaluates a
    claim at all of the moved samples in one call, as arrays: one pass of
    the printed formula, or one batch of oracle searches. A formula call
    that raises is repeated sample by sample on plain floats, so each
    sample gets the value or the skip its own call gives.
    """
    region = region if region is not None else default_region()
    grid = grid if grid is not None else DEFAULT_AUDIT_GRID
    g = check_gain(g)
    samples = _require_count("samples", samples, 1)
    seed = _require_count("seed", seed, 0)

    # One row per route: (name, relative step, values at a variant's points).
    routes = (
        ("formula", FORMULA_H, _formula_values),
        ("oracle", ORACLE_H, partial(_oracle_values, g=g, grid=grid)),
    )
    registry = claim_registry()
    counts: dict[str, dict[str, int]] = {claim.id: {} for claim in registry}
    counterexamples: dict[str, list[dict]] = {claim.id: [] for claim in registry}

    columns = _draw_columns(seed, samples, region)

    # Claims on one parameter share its moved samples: each (parameter,
    # step) is moved once, and one route's points are held at a time.
    by_parameter: dict[str, list[Claim]] = {}
    for claim in registry:
        by_parameter.setdefault(claim.parameter, []).append(claim)
    for parameter, claims in by_parameter.items():
        # Per claim and route, each sample's sign code; 0 where it has none.
        signs: dict[str, dict[str, np.ndarray]] = {claim.id: {} for claim in claims}
        for route, h, values_at in routes:
            valid, moved = _step_columns(columns, parameter, h)
            base = columns[parameter][valid]
            for claim in claims:
                scored, sign = _differences(values_at(claim.formula_variant, moved), base, h)
                n, evaluated = int(np.count_nonzero(sign)), int(np.count_nonzero(scored))
                counts[claim.id].update({
                    f"n_{route}": n,
                    f"holds_{route}": int(np.count_nonzero(sign == _SIGN_CODES[claim.expected_sign])),
                    f"flat_{route}": evaluated - n,
                    f"skipped_{route}": samples - evaluated,
                })
                signs[claim.id][route] = np.zeros(samples, dtype=int)
                signs[claim.id][route][valid] = sign
            del moved

        for claim in claims:
            formula_signs, oracle_signs = signs[claim.id]["formula"], signs[claim.id]["oracle"]
            against = (formula_signs != 0) & (formula_signs != _SIGN_CODES[claim.expected_sign])
            for i in np.flatnonzero(against)[:5].tolist():
                counterexamples[claim.id].append({
                    "point": vars(_instance(SimpleNamespace(**columns), i)),
                    "expected": claim.expected_sign,
                    "formula_sign": _SIGNS[formula_signs[i]],
                    "oracle_sign": _SIGNS[oracle_signs[i]],
                })

    agreement = _collect_agreement(columns, g, grid)

    rows = tuple(
        ClaimAudit(
            claim=claim,
            samples=samples,
            counterexamples=tuple(counterexamples[claim.id]),
            **counts[claim.id],
        )
        for claim in registry
    )
    meta = {
        "samples": samples,
        "seed": seed,
        "g": g,
        "region": region.to_dict(),
        "grid": grid.to_dict(),
        "formula_h": FORMULA_H,
        "oracle_h": ORACLE_H,
        "agreement_tolerance": AGREEMENT_TOLERANCE,
        "agreement_threshold": AGREEMENT_THRESHOLD,
    }
    return ClaimAuditReport(
        claims=rows,
        agreement=agreement,
        meta=meta,
    )


@dataclass(frozen=True)
class SweepTable:
    """A parameter sweep: column names plus numeric rows, CSV-ready."""

    vary: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def column(self, name: str) -> list[float]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_float(v) for v in row))
        return "\n".join(lines) + "\n"


_DEFAULT_TARGETS = {
    ModelKind.BASELINE: ("a0_star",),
    ModelKind.FEEDBACK_FIRST: ("m1_f_star", "m1_a_star"),
    ModelKind.FEEDBACK_AFTER: ("f2_star", "a2_star_partial", "a2_star_full"),
}


def _sweep_targets(point_eff: EfficiencyParams, point_costs: CostParams,
                   g: float, targets: Sequence[str]) -> dict[str, float]:
    """Every closed-form column in ``targets``, for any model."""
    values: dict[str, float] = {}
    level: Optional[float] = None  # f2_star, computed once for the m2 targets
    for name in targets:
        if name in values:
            continue
        if name in ("m1_f_star", "m1_a_star"):
            pair = cf.model1_solve(point_eff, point_costs, g).strategy
            values["m1_f_star"], values["m1_a_star"] = pair.f, pair.a
        elif name == "a0_star":
            values[name] = cf.a0_star(point_eff, point_costs)
        elif name in ("f2_star", "a2_star_partial", "a2_star_full"):
            if level is None:
                level = cf.f2_star(point_eff, point_costs).value
            if name == "f2_star":
                values[name] = level
            elif name == "a2_star_partial":
                values[name] = cf._in_range(cf.a2_star_partial(level, point_eff, point_costs), name, 0.0)
            else:
                values[name] = cf.a2_star_full(level, point_eff, point_costs).value
        else:
            raise DomainError(f"unknown sweep target {name!r}")
    return values


def sweep(
    model: ModelKind,
    efficiency: EfficiencyParams,
    costs: CostParams,
    vary: str,
    lo: float,
    hi: float,
    steps: int,
    g: float,
    targets: Optional[Sequence[str]] = None,
    grid: Optional[GridSpec] = None,
) -> SweepTable:
    """Closed-form quantities and the oracle optimum along one parameter axis.

    The varied parameter takes ``steps`` equally spaced values in
    ``[lo, hi]``; all other parameters stay at their given values. The
    steps are held as columns, one float64 array per parameter, and each
    step is read back as plain floats for its formulas, cost and gain. The
    oracle columns come from one batch search over every step, read off the
    bare incumbents: no KKT report is built. Errors from validation, from
    formulas without an interior optimum or from the oracle propagate, since
    a sweep crossing out of the domain is a caller mistake, not data; the
    first step that fails decides, and within a step its parameter comes
    first, then its formulas, then its oracle search.
    """
    if not isinstance(model, ModelKind):
        model = ModelKind.from_code(model)
    if vary not in PARAM_FIELDS:
        raise DomainError(f"vary must be one of {', '.join(PARAM_FIELDS)}")
    lo, hi = _require_finite("lo", lo), _require_finite("hi", hi)
    if not lo < hi:
        raise DomainError("sweep requires finite lo < hi")
    steps = _require_count("steps", steps, 2)
    g = check_gain(g)
    grid = grid if grid is not None else GridSpec()
    target_names = tuple(targets) if targets is not None else _DEFAULT_TARGETS[model]

    columns = (vary,) + target_names + ("oracle_f", "oracle_a", "total_cost", "achieved_gain")
    at = {name: np.full(steps, value) for name, value in params_to_mapping((efficiency, costs)).items()}
    at[vary] = np.linspace(lo, hi, steps)
    inside = _in_domain(vary, at[vary])
    solved = steps if inside.all() else int(np.argmin(inside))
    failed: list[DomainError] = []
    if solved < steps:
        # The first step out of the domain raises its own constructor's
        # error. No later step is solved, and the error comes after the rows
        # of the steps before it, as it would step by step.
        try:
            replace(efficiency if vary in _EFFICIENCY_FIELDS else costs, **{vary: at[vary][solved].item()})
        except DomainError as exc:
            failed.append(exc.with_traceback(None))
        if solved == 0:
            raise failed.pop()
    efficiencies, prices = _param_columns({name: column[:solved] for name, column in at.items()})
    results = _minimize_batch(model, efficiencies, prices, g, grid)
    rows = []
    for i in range(solved):
        step_efficiency, step_costs = _instance(efficiencies, i), _instance(prices, i)
        formulas = _sweep_targets(step_efficiency, step_costs, g, target_names)
        if isinstance(results[i], EconError):
            # Popped, not bound to a name, as in oracle.minimize_cost.
            raise results.pop(i)
        incumbent = results[i]
        strategy = Strategy(model, q=incumbent.q, f=incumbent.f, a=incumbent.a)
        rows.append((at[vary][i].item(),) + tuple(formulas[name] for name in target_names) + (
            incumbent.f, incumbent.a, cost(strategy, step_costs), gain(strategy, step_efficiency),
        ))
    if failed:
        raise failed.pop()
    return SweepTable(vary=vary, columns=columns, rows=tuple(rows))
