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
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import closed_form as cf
from ._jsonio import check_keys, format_float, named
from .core import (
    PARAM_FIELDS,
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
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
from .oracle import GridSpec, _Incumbent, _minimize_batch, minimize_cost

__all__ = [
    "Quantity",
    "FormulaVariant",
    "Claim",
    "claim_registry",
    "ParameterRegion",
    "default_region",
    "SamplePoint",
    "SweepTable",
    "sweep",
    "ClaimAudit",
    "FormulaAgreement",
    "ClaimAuditReport",
    "audit_claims",
    "DEFAULT_AUDIT_GRID",
]

# Lighter than the oracle's default: the audit solves about 46 instances per
# sample (about 9,100 at 200 samples), every one different, and only needs
# ~0.3% component accuracy for sign and 5%-agreement work.
DEFAULT_AUDIT_GRID = GridSpec(points=64, refinements=2)

AXIS_ORDER = PARAM_FIELDS + ("f", "a")

SIGN_POSITIVE = "+"
SIGN_NEGATIVE = "-"
SIGN_FLAT = "0"

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
        caps = {"alpha": 1.0, "beta": 1.0, "gamma2": 1.0}
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


@dataclass(frozen=True)
class SamplePoint:
    """One sampled parameter point plus the (f, a) conditioning coordinates."""

    efficiency: EfficiencyParams
    costs: CostParams
    f: float
    a: float

    def value_of(self, name: str) -> float:
        if name in ("f", "a"):
            return getattr(self, name)
        return getattr(getattr(self, _holder_of(name)), name)

    def with_param(self, name: str, value: float) -> "SamplePoint":
        """This point with one axis moved; a parameter out of its holder's
        domain raises the holder's :class:`DomainError`."""
        if name in ("f", "a"):
            return SamplePoint(**{**vars(self), name: float(value)})
        holder = _holder_of(name)
        params = getattr(self, holder)
        changed = type(params)(**{**vars(params), name: float(value)})
        return SamplePoint(**{**vars(self), holder: changed})

    def to_dict(self) -> dict:
        """Every axis, in ``AXIS_ORDER``."""
        return {**params_to_mapping((self.efficiency, self.costs)), "f": self.f, "a": self.a}


# The SamplePoint field holding each model parameter.
_HOLDER = {
    **{field.name: "efficiency" for field in fields(EfficiencyParams)},
    **{field.name: "costs" for field in fields(CostParams)},
}


def _holder_of(name: str) -> str:
    try:
        return _HOLDER[name]
    except KeyError:
        raise DomainError(f"unknown parameter {name!r}") from None


def _sign_of(derivative: float) -> str:
    if abs(derivative) < FLAT_THRESHOLD:
        return SIGN_FLAT
    return SIGN_POSITIVE if derivative > 0.0 else SIGN_NEGATIVE


def _formula_value(variant: FormulaVariant, point: SamplePoint) -> tuple[float, bool]:
    """(value, clamped) of the variant's printed formula at ``point``.

    The formula is given ``point``'s coordinate named by the variant's row;
    formulas without clamping always report clamped=False, so the audit can
    censor corner samples.
    """
    given = _VARIANTS[variant].given
    args = () if given is None else (getattr(point, given),)
    value = getattr(cf, variant.value)(*args, point.efficiency, point.costs)
    if isinstance(value, cf.ClampedValue):
        return value.value, value.corner
    return value, False


def _component(incumbent: _Incumbent, quantity: Quantity, grid: GridSpec) -> tuple[float, bool]:
    """(component, at_corner) of an oracle incumbent for ``quantity``."""
    component = getattr(incumbent, _AXIS[quantity])
    return component, component <= grid.min * (1.0 + 1e-9)


def _perturbed(point: SamplePoint, parameter: str, h: float) -> tuple[float, SamplePoint, SamplePoint]:
    """(base, point at base*(1+h), point at base*(1-h)) for a relative
    central difference in ``parameter``."""
    base = point.value_of(parameter)
    if base == 0.0:
        raise DomainError(f"{parameter} is 0; a relative step needs a non-zero value")
    return (
        base,
        point.with_param(parameter, base * (1.0 + h)),
        point.with_param(parameter, base * (1.0 - h)),
    )


def _difference(
    hi: tuple[float, bool], lo: tuple[float, bool], base: float, h: float,
) -> tuple[str, bool]:
    """(sign, censored) of one central difference from the (value, clamped)
    pairs at ``base*(1+h)`` and ``base*(1-h)``."""
    (hi_value, hi_clamped), (lo_value, lo_clamped) = hi, lo
    if hi_clamped or lo_clamped:
        return SIGN_FLAT, True
    derivative = (hi_value - lo_value) / (2.0 * h * base)
    return _sign_of(derivative), False


# A route's values at a list of points: one (value, clamped) pair per point,
# or None where the route cannot evaluate there.
_Values = list[Optional[tuple[float, bool]]]

# A route's outcome at one sample: (sign, censored), or None when it cannot
# evaluate there.
_Outcome = Optional[tuple[str, bool]]


def _formula_values(variant: FormulaVariant, points: Sequence[SamplePoint]) -> _Values:
    """The formula route: the variant's printed formula at every point."""
    values: _Values = []
    for point in points:
        try:
            values.append(_formula_value(variant, point))
        except EconError:
            values.append(None)
    return values


def _oracle_values(
    variant: FormulaVariant, points: Sequence[SamplePoint], *, g: float, grid: GridSpec,
) -> _Values:
    """The oracle route: the optimum the variant gives, conditioned as the
    formula is, at every point, as one batch.

    The coordinate the formula is given is pinned at the point's value, so
    depth formulas get a depth-only search, fixed-depth feedback formulas a
    feedback-only search, and unconditioned formulas the joint search. A
    component at the grid floor counts as clamped.
    """
    model, quantity, given = _VARIANTS[variant]
    instances = [(p.efficiency, p.costs, None if given is None else getattr(p, given)) for p in points]
    incumbents = _minimize_batch(model, instances, g, grid, pin=given)
    return [None if isinstance(i, EconError) else _component(i, quantity, grid) for i in incumbents]


def _outcomes(
    values_at: Callable[[Sequence[SamplePoint]], _Values],
    parameter: str,
    points: Sequence[SamplePoint],
    h: float,
) -> list[_Outcome]:
    """One central difference per sample on one route.

    Every sample is perturbed once (a sample without a valid step is
    skipped), the route is called once with every perturbed point, and each
    sample's pair of values becomes its outcome; a sample is skipped when
    either of its values is missing.
    """
    steps = []
    for point in points:
        try:
            steps.append(_perturbed(point, parameter, h))
        except EconError:
            steps.append(None)
    values = iter(values_at([p for step in steps if step is not None for p in step[1:]]))
    outcomes: list[_Outcome] = []
    for step in steps:
        pair = None if step is None else (next(values), next(values))
        if pair is None or None in pair:
            outcomes.append(None)
        else:
            outcomes.append(_difference(*pair, step[0], h))
    return outcomes


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
# solve, scored on both coordinates: (row name, closed_form solver name).
_COUPLED_PAIRS = {
    _M1: ("model1_coupled_pair", "model1_solve"),
    _M2: ("model2_coupled_pair", "model2_solve_coupled"),
}


def _agreement_rows(model: ModelKind) -> tuple[tuple[str, FormulaVariant | str], ...]:
    """The model's agreement rows as (name, source): each of its variants in
    enum order, given the coordinate it conditions on from the joint oracle
    optimum, then its coupled pair."""
    rows = []
    for variant in FormulaVariant:
        row = _VARIANTS[variant]
        if row.model is model:
            suffix = "" if row.given is None else f"_at_oracle_{row.given}"
            rows.append((variant.value + suffix, variant))
    return tuple(rows) + (_COUPLED_PAIRS[model],)


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


def _draw_point(rng: np.random.Generator, region: ParameterRegion) -> SamplePoint:
    values = {
        name: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for name, lo, hi in region.bounds
    }
    f, a = values.pop("f"), values.pop("a")
    efficiency, costs = params_from_mapping(values, source="region sample")
    return SamplePoint(efficiency, costs, f=f, a=a)


class _AgreementTally:
    __slots__ = ("deviations", "skipped")

    def __init__(self) -> None:
        self.deviations: list[float] = []
        self.skipped = 0

    def add(self, formula_values: Sequence[float], oracle_values: Sequence[float]) -> None:
        """Tally the largest relative deviation over the paired components."""
        self.deviations.append(max(
            abs(fv - ov) / max(abs(ov), 1e-12)
            for fv, ov in zip(formula_values, oracle_values)
        ))

    def skip(self) -> None:
        self.skipped += 1

    def finish(self, name: str) -> FormulaAgreement:
        n = len(self.deviations)
        if n == 0:
            return FormulaAgreement(name, 0, self.skipped, None, None, VERDICT_NO_DATA)
        within = sum(1 for d in self.deviations if d <= AGREEMENT_TOLERANCE) / n
        verdict = VERDICT_AGREES if within >= AGREEMENT_THRESHOLD else VERDICT_DISAGREES
        return FormulaAgreement(
            name=name,
            n=n,
            skipped=self.skipped,
            median_rel_dev=float(statistics.median(self.deviations)),
            within_tol_fraction=within,
            verdict=verdict,
        )


def _formula_components(
    source: FormulaVariant | str, at: SamplePoint, g: float,
) -> Optional[dict[str, float]]:
    """The formula side of one agreement row, keyed by strategy coordinate,
    or None when the formula is clamped. ``source`` is a variant, evaluated
    at the joint oracle optimum ``at``, or a coupled solver's name."""
    if isinstance(source, FormulaVariant):
        value, clamped = _formula_value(source, at)
        return None if clamped else {_AXIS[_VARIANTS[source].quantity]: value}
    strategy = getattr(cf, source)(at.efficiency, at.costs, g).strategy
    return {"f": strategy.f, "a": strategy.a}


def _collect_agreement(
    tallies: dict[str, _AgreementTally],
    points: Sequence[SamplePoint],
    g: float,
    grid: GridSpec,
) -> None:
    """Score every sample on every agreement row.

    Each feedback model's joint oracle solves all samples as one batch. A
    model's rows are all skipped at a sample where its joint oracle has no
    optimum or puts feedback at the grid floor; a row alone is skipped when
    its formula raises or is clamped.
    """
    for model, rows in _AGREEMENT_SECTIONS:
        joints = _minimize_batch(model, [(p.efficiency, p.costs, None) for p in points], g, grid)
        for point, joint in zip(points, joints):
            if isinstance(joint, EconError) or "f" in joint.grid_meta.lower_corner_axes:
                for name, _ in rows:
                    tallies[name].skip()
                continue
            at = replace(point, f=joint.f, a=joint.a)
            for name, source in rows:
                try:
                    formula = _formula_components(source, at, g)
                except EconError:
                    formula = None
                if formula is None:
                    tallies[name].skip()
                else:
                    oracle_values = tuple(getattr(joint, axis) for axis in formula)
                    tallies[name].add(tuple(formula.values()), oracle_values)


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
    random substream, and aggregation order is fixed. Every sample is drawn
    first; the claims then run one at a time, and each route evaluates all
    of a claim's perturbed samples in one call.
    """
    region = region if region is not None else default_region()
    grid = grid if grid is not None else DEFAULT_AUDIT_GRID
    g = check_gain(g)
    samples = _require_count("samples", samples, 1)

    # One row per route: (name, relative step, values at a variant's points).
    routes = (
        ("formula", FORMULA_H, _formula_values),
        ("oracle", ORACLE_H, partial(_oracle_values, g=g, grid=grid)),
    )
    registry = claim_registry()
    # Keyed by ClaimAudit's field names: n_, holds_, flat_, skipped_ per route.
    stats = [f"{stat}_{route}" for route, _, _ in routes for stat in ("n", "holds", "flat", "skipped")]
    counts = {claim.id: dict.fromkeys(stats, 0) for claim in registry}
    counterexamples: dict[str, list[dict]] = {claim.id: [] for claim in registry}
    tallies = {name: _AgreementTally() for _, rows in _AGREEMENT_SECTIONS for name, _ in rows}

    streams = np.random.SeedSequence(seed).spawn(samples)
    points = [_draw_point(np.random.default_rng(stream), region) for stream in streams]

    for claim in registry:
        tally = counts[claim.id]
        signs: dict[str, list[Optional[str]]] = {}
        for route, h, values_at in routes:
            signs[route] = []
            for outcome in _outcomes(partial(values_at, claim.formula_variant), claim.parameter, points, h):
                sign: Optional[str] = None
                if outcome is None:
                    tally[f"skipped_{route}"] += 1
                else:
                    sign, censored = outcome
                    if censored or sign == SIGN_FLAT:
                        tally[f"flat_{route}"] += 1
                        sign = None
                    else:
                        tally[f"n_{route}"] += 1
                        if sign == claim.expected_sign:
                            tally[f"holds_{route}"] += 1
                signs[route].append(sign)

        for point, formula_sign, oracle_sign in zip(points, signs["formula"], signs["oracle"]):
            if (
                formula_sign is not None
                and formula_sign != claim.expected_sign
                and len(counterexamples[claim.id]) < 5
            ):
                counterexamples[claim.id].append({
                    "point": point.to_dict(),
                    "expected": claim.expected_sign,
                    "formula_sign": formula_sign,
                    "oracle_sign": oracle_sign,
                })

    _collect_agreement(tallies, points, g, grid)

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
        agreement=tuple(tally.finish(name) for name, tally in tallies.items()),
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
                values[name] = cf.a2_star_partial(level, point_eff, point_costs)
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

    base_point = SamplePoint(efficiency, costs, f=0.0, a=1.0)
    columns = (vary,) + target_names + ("oracle_f", "oracle_a", "total_cost", "achieved_gain")
    steps_at: list[tuple[float, SamplePoint]] = []
    failed: list[DomainError] = []
    for value in np.linspace(lo, hi, steps):
        try:
            steps_at.append((float(value), base_point.with_param(vary, float(value))))
        except DomainError as exc:
            # No later step is solved: this error comes after the rows of the
            # steps before it, as it would step by step.
            failed.append(exc.with_traceback(None))
            break
    results = _minimize_batch(model, [(point.efficiency, point.costs, None) for _, point in steps_at], g, grid)
    rows = []
    for i, (value, point) in enumerate(steps_at):
        formulas = _sweep_targets(point.efficiency, point.costs, g, target_names)
        if isinstance(results[i], EconError):
            # Popped, not bound to a name, as in oracle.minimize_cost.
            raise results.pop(i)
        q, f, a, _ = results[i]
        strategy = Strategy(model, q=q, f=f, a=a)
        rows.append((value,) + tuple(formulas[name] for name in target_names) + (
            f, a, cost(strategy, point.costs), gain(strategy, point.efficiency),
        ))
    if failed:
        raise failed.pop()
    return SweepTable(vary=vary, columns=columns, rows=tuple(rows))
