"""Comparative statics: claim registry, sign audit, agreement, sweeps."""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from convecon import oracle, statics
from convecon import (
    CostParams,
    DomainError,
    FormulaVariant,
    ModelKind,
    ParameterRegion,
    Quantity,
    a0_star,
    a2_star_full,
    a2_star_partial,
    audit_claims,
    claim_registry,
    default_region,
    f2_star,
    minimize_cost,
    model1_solve,
    sweep,
)
from convecon.core import _param_columns, params_to_mapping
from convecon.statics import (
    AXIS_ORDER, DEFAULT_AUDIT_GRID, FORMULA_H, ORACLE_H, _differences, _draw_columns, _step_columns,
)


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_count_and_unique_ids(self):
        claims = claim_registry()
        assert len(claims) == 22
        assert len({c.id for c in claims}) == 22

    def test_informational_markers(self):
        flagged = {c.id for c in claim_registry() if c.informational}
        assert flagged == {"M1-9", "M2-8", "M2-9"}

    def test_every_claim_is_complete(self):
        for claim in claim_registry():
            assert claim.statement.strip()
            assert claim.expected_sign in ("+", "-")
            assert claim.parameter in AXIS_ORDER
            assert isinstance(claim.model, ModelKind)
            assert isinstance(claim.quantity, Quantity)
            assert isinstance(claim.formula_variant, FormulaVariant)

    def test_spot_check_first_entry(self):
        first = claim_registry()[0]
        assert first.id == "M0-1"
        assert first.model is ModelKind.BASELINE
        assert first.quantity is Quantity.A_STAR
        assert first.parameter == "c_query"
        assert first.expected_sign == "+"
        assert not first.informational

    def test_to_dict_shape(self):
        doc = claim_registry()[0].to_dict()
        assert set(doc) == {
            "id", "model", "quantity", "variant", "parameter",
            "expected", "informational", "statement",
        }


# ---------------------------------------------------------------------------
# Regions and sample points


class TestParameterRegion:
    def test_default_region_axes(self):
        region = default_region()
        assert tuple(name for name, _, _ in region.bounds) == AXIS_ORDER

    def test_mapping_round_trip(self):
        region = default_region()
        assert ParameterRegion.from_mapping(region.to_dict()) == region

    def test_from_mapping_rejects_missing_axis(self):
        data = default_region().to_dict()
        del data["gamma1"]
        with pytest.raises(DomainError, match="missing axis.*gamma1"):
            ParameterRegion.from_mapping(data)

    def test_from_mapping_rejects_unknown_axis(self):
        data = default_region().to_dict()
        data["delta"] = [0.1, 0.2]
        with pytest.raises(DomainError, match="unknown axis.*delta"):
            ParameterRegion.from_mapping(data)

    def test_from_mapping_rejects_bad_pairs(self):
        data = default_region().to_dict()
        data["f"] = [1.0]
        with pytest.raises(DomainError, match="axis f"):
            ParameterRegion.from_mapping(data)
        data["f"] = [True, 2.0]
        with pytest.raises(DomainError, match="axis f lo must be a number"):
            ParameterRegion.from_mapping(data)

    def test_rejects_inverted_or_nonpositive_bounds(self):
        data = default_region().to_dict()
        data["c_query"] = [5.0, 1.0]
        with pytest.raises(DomainError, match="0 < lo < hi"):
            ParameterRegion.from_mapping(data)
        data["c_query"] = [0.0, 1.0]
        with pytest.raises(DomainError, match="0 < lo < hi"):
            ParameterRegion.from_mapping(data)

    def test_exponent_caps(self):
        data = default_region().to_dict()
        data["alpha"] = [0.5, 1.2]
        with pytest.raises(DomainError, match="alpha.*<= 1"):
            ParameterRegion.from_mapping(data)


# ---------------------------------------------------------------------------
# Finite differences


def _one_sample(efficiency, costs, f=2.0, a=4.0):
    """A sample point as the audit's columns: one (1,) array per axis."""
    axes = {**params_to_mapping((efficiency, costs)), "f": f, "a": a}
    return {name: np.array([value]) for name, value in axes.items()}


def _sign(evaluator, parameter, columns):
    """The sign of one central difference at the one sample of ``columns``,
    through the audit's step and difference helpers, on a route that
    evaluates ``evaluator`` unclamped at every moved point (given the moved
    points' parameter columns)."""
    valid, moved = _step_columns(columns, parameter, FORMULA_H)
    efficiency, costs = _param_columns(moved)
    value = np.broadcast_to(evaluator(SimpleNamespace(efficiency=efficiency, costs=costs)), (2,))
    scored, sign = _differences((value, np.zeros(2, bool), np.ones(2, bool)), columns[parameter][valid], FORMULA_H)
    assert scored.tolist() == [True]
    return {1: "+", -1: "-", 0: "0"}[int(sign[0])]


class TestFiniteDiffSign:
    def test_increasing(self, std_efficiency, std_costs):
        point = _one_sample(std_efficiency, std_costs)
        assert _sign(lambda p: a0_star(p.efficiency, p.costs), "c_query", point) == "+"

    def test_decreasing(self, std_efficiency, std_costs):
        point = _one_sample(std_efficiency, std_costs)
        assert _sign(lambda p: a0_star(p.efficiency, p.costs), "c_assess", point) == "-"

    def test_flat(self, std_efficiency, std_costs):
        assert _sign(lambda p: 3.25, "c_query", _one_sample(std_efficiency, std_costs)) == "0"

    def test_step_is_relative(self, std_efficiency, std_costs):
        # A quadratic in the parameter: central differences on a relative
        # step recover the exact derivative sign even far from 1.0.
        big = _one_sample(std_efficiency, replace(std_costs, c_query=4000.0))
        assert _sign(lambda p: (p.costs.c_query - 5000.0) ** 2, "c_query", big) == "-"

    def test_zero_valued_parameter_is_domain_error(self, std_efficiency, std_costs):
        # A relative step around 0 is no step at all: like a step out of the
        # domain, the sample has no valid step and the audit skips it.
        valid, moved = _step_columns(_one_sample(replace(std_efficiency, gamma1=0.0), std_costs), "gamma1", FORMULA_H)
        assert valid.tolist() == [False]
        assert all(len(column) == 0 for column in moved.values())

    def test_step_out_of_domain_is_not_valid(self, std_efficiency, std_costs):
        # alpha 0.98 moved up 5% leaves (0, 1]; moved 0.01% it does not.
        columns = _one_sample(replace(std_efficiency, alpha=0.98), std_costs)
        assert _step_columns(columns, "alpha", ORACLE_H)[0].tolist() == [False]
        valid, moved = _step_columns(columns, "alpha", FORMULA_H)
        assert valid.tolist() == [True]
        assert moved["alpha"].tolist() == [0.98 * (1.0 + FORMULA_H), 0.98 * (1.0 - FORMULA_H)]
        assert moved["beta"].tolist() == [std_efficiency.beta] * 2


# ---------------------------------------------------------------------------
# Sample columns against lone points


_WIDE = {"alpha": [0.3, 1.0], "beta": [0.05, 1.0], "gamma2": [0.1, 1.0], "gamma1": [1e-6, 5.0]}


def _regions():
    return [default_region(), ParameterRegion.from_mapping({**default_region().to_dict(), **_WIDE})]


def _points(columns):
    """The samples of the columns as lone points: validated parameters and
    the (f, a) coordinates."""
    points = []
    for k in range(len(columns["f"])):
        row = {name: column[k].item() for name, column in columns.items()}
        efficiency, costs = statics.params_from_mapping({name: row[name] for name in statics.PARAM_FIELDS})
        points.append(SimpleNamespace(efficiency=efficiency, costs=costs, f=row["f"], a=row["a"]))
    return points


def _moved(point, parameter, value):
    """The value of ``parameter`` once the lone point is moved to ``value``:
    a model parameter goes through its class's constructor by
    ``dataclasses.replace``, which raises DomainError outside the domain."""
    for params in (point.efficiency, point.costs):
        if hasattr(params, parameter):
            return getattr(replace(params, **{parameter: value}), parameter)
    return value


def test_draws_match_scalar_draws_bit_for_bit():
    # One uniform draw and one exp per sample over all nine axes give the
    # bits of nine scalar draws, each through math-free numpy scalars.
    for region in _regions():
        columns = _draw_columns(11, 50, region)
        assert list(columns) == list(AXIS_ORDER)
        for k, stream in enumerate(np.random.SeedSequence(11).spawn(50)):
            rng = np.random.default_rng(stream)
            scalar = [float(np.exp(rng.uniform(np.log(lo), np.log(hi)))).hex() for _, lo, hi in region.bounds]
            assert [columns[name][k].item().hex() for name in AXIS_ORDER] == scalar


def test_step_columns_match_lone_steps_bit_for_bit():
    # Each moved value is the float product a lone step makes, and a step
    # is valid exactly where the lone point takes both moved values.
    for region in _regions():
        columns = _draw_columns(12, 60, region)
        columns["gamma1"][::7] = 0.0  # a zero base has no relative step
        points = _points(columns)
        for parameter in AXIS_ORDER:
            for h in (FORMULA_H, ORACLE_H):
                valid, moved = _step_columns(columns, parameter, h)
                expected_valid, expected_up, expected_down = [], [], []
                for point in points:
                    base = {**vars(point.efficiency), **vars(point.costs), "f": point.f, "a": point.a}[parameter]
                    try:
                        if base == 0.0:
                            raise DomainError("zero base")
                        up = _moved(point, parameter, base * (1.0 + h))
                        down = _moved(point, parameter, base * (1.0 - h))
                    except DomainError:
                        expected_valid.append(False)
                        continue
                    expected_valid.append(True)
                    expected_up.append(up.hex())
                    expected_down.append(down.hex())
                assert valid.tolist() == expected_valid
                m = len(expected_up)
                assert [v.hex() for v in moved[parameter][:m].tolist()] == expected_up
                assert [v.hex() for v in moved[parameter][m:].tolist()] == expected_down
        assert region == default_region() or not _step_columns(columns, "alpha", ORACLE_H)[0].all()


def test_drawn_parameter_outside_its_domain_raises_its_error(monkeypatch):
    # Region bounds keep real draws inside the domains; a generator whose
    # doubles run past 1 moves alpha past its cap of 1.
    class Past:
        def random(self, size):
            return np.full(size, 2.0)

    monkeypatch.setattr(statics.np.random, "default_rng", lambda stream: Past())
    with pytest.raises(DomainError, match="^region sample: alpha must be <= 1$"):
        _draw_columns(0, 3, default_region())


def test_overflowing_step_is_not_valid():
    # A moved value that overflows a float is no valid step, as a lone
    # point rejects a parameter that is not finite.
    region = ParameterRegion.from_mapping({**default_region().to_dict(), "c_query": [1.75e308, 1.79e308]})
    columns = _draw_columns(4, 20, region)
    with np.errstate(over="raise"):
        valid, moved = _step_columns(columns, "c_query", ORACLE_H)
    assert not valid.any()
    report = audit_claims(region=region, samples=4, seed=4)
    assert report.claim("M0-1").skipped_oracle == 4


@pytest.mark.parametrize("variant", list(FormulaVariant), ids=lambda variant: variant.value)
def test_formula_route_matches_lone_formulas_bit_for_bit(variant):
    # The route's one call over the columns, or where it raises its calls
    # point by point, give each point its lone value and clamp or its skip.
    from convecon import closed_form

    given = statics._VARIANTS[variant].given
    fallbacks = 0
    for region in _regions():
        columns = _draw_columns(13, 60, region)
        columns["gamma2"][5] = columns["alpha"][5]  # the m2 full-depth and feedback formulas refuse
        expected = []
        for point in _points(columns):
            try:
                result = getattr(closed_form, variant.value)(
                    *(() if given is None else (getattr(point, given),)), point.efficiency, point.costs,
                )
            except statics.EconError:
                expected.append(None)
                continue
            value, clamped = (result.value, result.corner) if isinstance(result, closed_form.ClampedValue) else (result, False)
            expected.append((value.hex(), clamped))
        value, clamped, evaluated = statics._formula_values(variant, columns)
        got = [
            (v.hex(), c) if ok else None
            for v, c, ok in zip(value.tolist(), clamped.tolist(), evaluated.tolist())
        ]
        assert got == expected
        fallbacks += None in expected
    assert fallbacks or variant in (FormulaVariant.F1,)


# ---------------------------------------------------------------------------
# Claim audit


# Per claim: (n, holds, flat, skipped) on the formula route, then on the
# oracle route, for 30 samples of the wide region at seed 3.
_WIDE_REGION_COUNTS = {
    "M0-1": (23, 23, 0, 7, 23, 23, 0, 7),
    "M0-2": (23, 23, 0, 7, 23, 23, 0, 7),
    "M0-3": (23, 23, 0, 7, 21, 21, 0, 9),
    "M0-4": (23, 23, 0, 7, 22, 22, 0, 8),
    "M1-1": (27, 27, 0, 3, 27, 27, 0, 3),
    "M1-2": (27, 27, 0, 3, 27, 27, 0, 3),
    "M1-3": (27, 27, 0, 3, 27, 27, 0, 3),
    "M1-4": (27, 8, 0, 3, 26, 17, 1, 3),
    "M1-5": (28, 28, 2, 0, 25, 25, 5, 0),
    "M1-6": (28, 9, 2, 0, 24, 24, 6, 0),
    "M1-7": (28, 28, 2, 0, 29, 29, 1, 0),
    "M1-8": (28, 28, 2, 0, 30, 30, 0, 0),
    "M1-9": (28, 10, 2, 0, 26, 0, 4, 0),
    "M2-1": (23, 23, 0, 7, 23, 23, 0, 7),
    "M2-2": (23, 23, 0, 7, 23, 23, 0, 7),
    "M2-3": (23, 23, 0, 7, 22, 22, 0, 8),
    "M2-4": (11, 8, 19, 0, 8, 8, 9, 13),
    "M2-5": (11, 8, 19, 0, 8, 8, 9, 13),
    "M2-6": (11, 10, 19, 0, 8, 8, 9, 13),
    "M2-7": (11, 10, 19, 0, 8, 8, 8, 14),
    "M2-8": (13, 2, 17, 0, 0, 0, 23, 7),
    "M2-9": (26, 6, 0, 4, 0, 0, 22, 8),
}
# Per agreement row: (n, skipped), same samples.
_WIDE_REGION_AGREEMENT = {
    "a1_star_at_oracle_f": (25, 5),
    "f1_star_at_oracle_a": (23, 7),
    "model1_coupled_pair": (22, 8),
    "a2_star_partial_at_oracle_f": (8, 22),
    "a2_star_full_at_oracle_f": (2, 28),
    "f2_star": (8, 22),
    "f2_star_coupled_at_oracle_a": (8, 22),
    "model2_coupled_pair": (8, 22),
}


@pytest.fixture(scope="module")
def small_audit():
    return audit_claims(samples=60, seed=7)


class TestAuditClaims:
    def test_baseline_claims_hold_everywhere(self, small_audit):
        # The baseline formula is undisputed and the region keeps
        # alpha > beta, so both routes must agree with all four signs on
        # every single sample.
        for claim_id in ("M0-1", "M0-2", "M0-3", "M0-4"):
            row = small_audit.claim(claim_id)
            assert row.fraction_holding_formula == 1.0
            assert row.fraction_holding_oracle == 1.0
            assert row.skipped_formula == 0
            assert row.counterexamples == ()

    def test_disputed_depth_claim_fails_on_formula_route(self, small_audit):
        # The printed fixed-depth formula rises in f over most of the region;
        # the audit exists to make that visible rather than hide it.
        row = small_audit.claim("M1-4")
        assert row.fraction_holding_formula < 0.5
        assert len(row.counterexamples) == 5  # capped

    def test_oracle_route_confirms_feedback_vs_assess_price(self, small_audit):
        # The conditioned search says more expensive assessment always calls
        # for more feedback, even though the printed formula disagrees with
        # itself across the region.
        row = small_audit.claim("M1-6")
        assert row.fraction_holding_oracle == 1.0
        assert row.fraction_holding_formula < 0.9

    def test_full_depth_variant_is_flat_on_oracle_route(self, small_audit):
        # Conditioned on the feedback level, the searched depth does not
        # move with gamma2 at all: every sample lands below the flat
        # threshold and the oracle fraction is undefined.
        row = small_audit.claim("M2-8")
        assert row.n_oracle == 0
        assert row.fraction_holding_oracle is None
        assert row.flat_oracle + row.skipped_oracle == 60
        assert row.claim.informational

    def test_perturbs_each_parameter_and_step_once(self, monkeypatch):
        # Claims on one parameter share its moved samples: 16 (parameter,
        # step) pairs, each moved once for every sample at a time, not once
        # per claim and route.
        calls = []
        step_columns = statics._step_columns

        def counting(columns, parameter, h):
            calls.append((parameter, h))
            return step_columns(columns, parameter, h)

        monkeypatch.setattr(statics, "_step_columns", counting)
        audit_claims(samples=10, seed=3)
        pairs = {(claim.parameter, h) for claim in claim_registry() for h in (FORMULA_H, ORACLE_H)}
        assert len(pairs) == 16
        assert Counter(calls) == dict.fromkeys(pairs, 1)

    def test_counterexamples_record_signs_and_point(self, small_audit):
        example = small_audit.claim("M1-4").counterexamples[0]
        assert {"point", "formula_sign", "oracle_sign"} <= set(example)
        assert set(example["point"]) == set(AXIS_ORDER)

    def test_agreement_verdicts(self, small_audit):
        # Frozen findings: the published m2 pieces track the search, the
        # draft/coupled variants and the m1 pair do not.
        expected = {
            "a1_star_at_oracle_f": "DISAGREES",
            "model1_coupled_pair": "DISAGREES",
            "a2_star_partial_at_oracle_f": "AGREES",
            "f2_star": "AGREES",
            "a2_star_full_at_oracle_f": "DISAGREES",
        }
        for name, verdict in expected.items():
            assert small_audit.agreement_row(name).verdict == verdict

    def test_agreement_rows_complete(self, small_audit):
        names = [row.name for row in small_audit.agreement]
        assert names == [
            "a1_star_at_oracle_f",
            "f1_star_at_oracle_a",
            "model1_coupled_pair",
            "a2_star_partial_at_oracle_f",
            "a2_star_full_at_oracle_f",
            "f2_star",
            "f2_star_coupled_at_oracle_a",
            "model2_coupled_pair",
        ]
        for row in small_audit.agreement:
            assert row.verdict in ("AGREES", "DISAGREES", "NO DATA")

    def test_every_sample_is_counted_once(self, small_audit):
        # Each route counts each sample as evaluated, flat or skipped, and
        # each agreement row as evaluated or skipped: none is lost or doubled.
        samples = small_audit.meta["samples"]
        for row in small_audit.claims:
            assert row.samples == samples
            assert row.n_formula + row.flat_formula + row.skipped_formula == samples
            assert row.n_oracle + row.flat_oracle + row.skipped_oracle == samples
        for row in small_audit.agreement:
            assert row.n + row.skipped == samples

    def test_wide_region_counts_invalid_steps_as_skipped(self):
        # Exponents up to their cap of 1: a +5% oracle step can leave the
        # valid domain, and such a sample must still be counted, as skipped.
        # Formulas refuse samples with alpha <= beta, so each claim's call
        # over the columns raises and is repeated sample by sample; the
        # counts are the ones the audit gave when it evaluated every sample
        # on its own.
        region = ParameterRegion.from_mapping({
            **default_region().to_dict(),
            "alpha": [0.3, 1.0], "beta": [0.05, 1.0], "gamma2": [0.1, 1.0],
        })
        report = audit_claims(region=region, samples=30, seed=3)
        counts = {
            row.claim.id: (
                row.n_formula, row.holds_formula, row.flat_formula, row.skipped_formula,
                row.n_oracle, row.holds_oracle, row.flat_oracle, row.skipped_oracle,
            )
            for row in report.claims
        }
        assert counts == _WIDE_REGION_COUNTS
        assert {row.name: (row.n, row.skipped) for row in report.agreement} == _WIDE_REGION_AGREEMENT
        alphas = _draw_columns(3, 30, region)["alpha"]
        over_cap = int(np.count_nonzero(alphas * 1.05 > 1.0))
        assert over_cap > 0
        assert report.claim("M0-3").skipped_oracle >= over_cap > 0

    def test_deterministic_rerun(self, small_audit):
        again = audit_claims(samples=60, seed=7)
        assert again.to_dict() == small_audit.to_dict()

    def test_audit_reads_no_kkt_report(self, monkeypatch):
        # The audit reads only the oracle's incumbents; a KKT report that
        # could not be built must change nothing.
        unpatched = audit_claims(samples=10)

        def no_report(*args, **kwargs):
            raise AssertionError("the audit asked for a KKT report")

        monkeypatch.setattr(oracle, "kkt_residual", no_report)
        assert audit_claims(samples=10).to_dict() == unpatched.to_dict()

    def test_meta_echoes_inputs(self, small_audit):
        meta = small_audit.meta
        assert meta["samples"] == 60
        assert meta["seed"] == 7
        assert meta["g"] == 100.0
        assert meta["grid"] == DEFAULT_AUDIT_GRID.to_dict()
        assert meta["region"] == default_region().to_dict()

    def test_text_rendering_mentions_every_claim(self, small_audit):
        text = small_audit.to_text()
        for claim in claim_registry():
            assert claim.id in text
        assert "agreement" in text
        assert text.endswith("\n")

    def test_lookup_errors(self, small_audit):
        with pytest.raises(KeyError):
            small_audit.claim("M9-9")
        with pytest.raises(KeyError):
            small_audit.agreement_row("nonesuch")

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError, match="samples"):
            audit_claims(samples=0)
        with pytest.raises(DomainError, match="samples"):
            audit_claims(samples=2.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, float("nan")])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            audit_claims(samples=2, seed=seed)


# ---------------------------------------------------------------------------
# Sweeps


class TestSweep:
    def test_baseline_depth_rises_with_query_price(self, std_efficiency, std_costs, light_grid):
        table = sweep(
            ModelKind.BASELINE, std_efficiency, std_costs,
            "c_query", 0.5, 2.5, 5, 100.0, grid=light_grid,
        )
        assert table.columns == (
            "c_query", "a0_star", "oracle_f", "oracle_a", "total_cost", "achieved_gain",
        )
        depths = table.column("a0_star")
        assert all(b > a for a, b in zip(depths, depths[1:]))
        # endpoints are evaluated at exactly lo and hi
        assert table.column("c_query")[0] == 0.5
        assert table.column("c_query")[-1] == 2.5
        first = a0_star(std_efficiency, CostParams(0.5, std_costs.c_feedback, std_costs.c_assess))
        assert depths[0] == first

    def test_two_steps_hit_both_endpoints(self, std_efficiency, std_costs, light_grid):
        table = sweep(
            ModelKind.BASELINE, std_efficiency, std_costs,
            "beta", 0.2, 0.4, 2, 100.0, grid=light_grid,
        )
        assert table.column("beta") == [0.2, 0.4]

    def test_feedback_after_tracks_closed_form(self, std_efficiency, std_costs, light_grid):
        table = sweep(
            ModelKind.FEEDBACK_AFTER, std_efficiency, std_costs,
            "gamma2", 0.45, 0.75, 3, 100.0, grid=light_grid,
        )
        level = table.column("f2_star")
        assert all(b > a for a, b in zip(level, level[1:]))
        for printed, searched in zip(level, table.column("oracle_f")):
            assert searched == pytest.approx(printed, rel=0.05)

    def test_feedback_first_uses_damped_pair(self, std_efficiency, std_costs, light_grid):
        table = sweep(
            ModelKind.FEEDBACK_FIRST, std_efficiency, std_costs,
            "c_feedback", 1.5, 2.5, 3, 100.0, grid=light_grid,
        )
        assert table.columns[:3] == ("c_feedback", "m1_f_star", "m1_a_star")
        rounds = table.column("m1_f_star")
        assert all(b < a for a, b in zip(rounds, rounds[1:]))

    def test_csv_shape(self, std_efficiency, std_costs, light_grid):
        table = sweep(
            ModelKind.BASELINE, std_efficiency, std_costs,
            "c_query", 0.5, 2.5, 5, 100.0, grid=light_grid,
        )
        lines = table.to_csv().splitlines()
        assert lines[0] == "c_query,a0_star,oracle_f,oracle_a,total_cost,achieved_gain"
        assert len(lines) == 6
        assert lines[1].startswith("0.5,")
        assert table.to_csv().endswith("\n")

    def test_rejects_bad_axis(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="vary must be one of"):
            sweep(ModelKind.BASELINE, std_efficiency, std_costs, "f", 0.5, 2.0, 3, 100.0)

    def test_rejects_bad_ranges_and_steps(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="lo < hi"):
            sweep(ModelKind.BASELINE, std_efficiency, std_costs, "c_query", 2.0, 1.0, 3, 100.0)
        with pytest.raises(DomainError, match="steps"):
            sweep(ModelKind.BASELINE, std_efficiency, std_costs, "c_query", 1.0, 2.0, 1, 100.0)

    def test_first_step_out_of_domain_raises_its_error(self, std_efficiency, std_costs):
        # alpha = 0 is the first step, so no step is solved.
        with pytest.raises(DomainError, match="alpha must be > 0"):
            sweep(ModelKind.BASELINE, std_efficiency, std_costs, "alpha", 0.0, 0.5, 3, 100.0)

    def test_later_step_out_of_domain_raises_its_error(self, std_efficiency, std_costs):
        # alpha = 1.2 is the last step: the steps before it are solved, and
        # its error is its constructor's, with no prefix.
        with pytest.raises(DomainError, match="^alpha must be <= 1$"):
            sweep(ModelKind.BASELINE, std_efficiency, std_costs, "alpha", 0.6, 1.2, 4, 100.0)

    def test_rejects_unknown_target(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="unknown sweep target"):
            sweep(
                ModelKind.BASELINE, std_efficiency, std_costs,
                "c_query", 1.0, 2.0, 2, 100.0, targets=("a9_star",),
            )

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda model: model.code)
    def test_reads_no_kkt_report(self, model, std_efficiency, std_costs, light_grid, monkeypatch):
        # A sweep prints no KKT report, so it must not build one; its oracle
        # columns are each step's own minimize_cost answer, bit for bit.
        expected = []
        for value in np.linspace(5.0, 20.0, 4):
            costs = CostParams(float(value), std_costs.c_feedback, std_costs.c_assess)
            solution = minimize_cost(model, std_efficiency, costs, 100.0, light_grid)
            expected.append((solution.strategy.f, solution.strategy.a, solution.total_cost, solution.achieved_gain))

        def no_report(*args, **kwargs):
            raise AssertionError("the sweep asked for a KKT report")

        monkeypatch.setattr(oracle, "kkt_residual", no_report)
        table = sweep(model, std_efficiency, std_costs, "c_query", 5.0, 20.0, 4, 100.0, grid=light_grid)
        assert [row[-4:] for row in table.rows] == expected


_SWEEP_TARGETS = ("a0_star", "m1_f_star", "m1_a_star", "f2_star", "a2_star_partial", "a2_star_full")


def _lone_targets(efficiency, costs, g):
    """Every sweep target at one step, each formula called on its own."""
    pair = model1_solve(efficiency, costs, g).strategy
    level = f2_star(efficiency, costs).value
    return {
        "a0_star": a0_star(efficiency, costs),
        "m1_f_star": pair.f,
        "m1_a_star": pair.a,
        "f2_star": level,
        "a2_star_partial": a2_star_partial(level, efficiency, costs),
        "a2_star_full": a2_star_full(level, efficiency, costs).value,
    }


@pytest.mark.parametrize("vary, lo, hi", [("c_feedback", 0.5, 4.0), ("beta", 0.1, 0.4)])
@pytest.mark.parametrize("model", list(ModelKind), ids=lambda model: model.code)
def test_sweep_rows_match_lone_steps_bit_for_bit(model, vary, lo, hi, std_efficiency, std_costs, light_grid):
    # Each row holds the bits of its step alone: the formulas on the step's
    # parameter classes and minimize_cost's answer.
    expected = []
    for value in np.linspace(lo, hi, 4).tolist():
        efficiency, costs = (
            (replace(std_efficiency, **{vary: value}), std_costs) if hasattr(std_efficiency, vary)
            else (std_efficiency, replace(std_costs, **{vary: value}))
        )
        solution = minimize_cost(model, efficiency, costs, 100.0, light_grid)
        expected.append((value, _lone_targets(efficiency, costs, 100.0), (
            solution.strategy.f, solution.strategy.a, solution.total_cost, solution.achieved_gain,
        )))
    for targets in (None, _SWEEP_TARGETS):
        table = sweep(model, std_efficiency, std_costs, vary, lo, hi, 4, 100.0, targets=targets, grid=light_grid)
        names = table.columns[1:-4]
        assert names == (targets or statics._DEFAULT_TARGETS[model])
        assert [[float(v).hex() for v in row] for row in table.rows] == [
            [float(v).hex() for v in (value, *(formulas[name] for name in names), *oracle)]
            for value, formulas, oracle in expected
        ]
