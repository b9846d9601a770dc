"""Comparative statics: claim registry, sign audit, agreement, sweeps."""

import math
from collections import Counter

import numpy as np
import pytest

from convecon import oracle, statics
from convecon import (
    Claim,
    CostParams,
    DomainError,
    EfficiencyParams,
    FormulaVariant,
    GridSpec,
    ModelKind,
    ParameterRegion,
    Quantity,
    SamplePoint,
    a0_star,
    audit_claims,
    claim_registry,
    default_region,
    minimize_cost,
    sweep,
)
from convecon.statics import (
    AXIS_ORDER, DEFAULT_AUDIT_GRID, FORMULA_H, ORACLE_H, _draw_point, _outcomes, _perturbed, _steps,
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


class TestSamplePoint:
    @pytest.fixture
    def point(self, std_efficiency, std_costs):
        return SamplePoint(std_efficiency, std_costs, f=2.0, a=4.0)

    def test_value_of_covers_all_axes(self, point):
        assert point.value_of("alpha") == 0.9
        assert point.value_of("c_feedback") == 2.0
        assert point.value_of("f") == 2.0
        assert point.value_of("a") == 4.0

    def test_with_param_replaces_only_one_axis(self, point):
        moved = point.with_param("c_assess", 9.0)
        assert moved.costs.c_assess == 9.0
        assert moved.costs.c_query == point.costs.c_query
        assert point.costs.c_assess == 1.0  # original untouched

    def test_with_param_handles_conditioning_coordinates(self, point):
        assert point.with_param("f", 0.25).f == 0.25
        assert point.with_param("a", 7.0).a == 7.0

    def test_unknown_parameter(self, point):
        with pytest.raises(DomainError, match="unknown parameter"):
            point.value_of("delta")
        with pytest.raises(DomainError, match="unknown parameter"):
            point.with_param("delta", 1.0)


# ---------------------------------------------------------------------------
# Finite differences


def _sign(evaluator, parameter, point):
    """The sign of one central difference, through the audit's route helper,
    on a route that evaluates ``evaluator`` unclamped at every point."""
    steps = _steps([point], parameter, FORMULA_H)
    [outcome] = _outcomes(lambda points: [(evaluator(p), False) for p in points], steps, FORMULA_H)
    return outcome[0]


class TestFiniteDiffSign:
    @pytest.fixture
    def point(self, std_efficiency, std_costs):
        return SamplePoint(std_efficiency, std_costs, f=2.0, a=4.0)

    def test_increasing(self, point):
        assert _sign(lambda p: a0_star(p.efficiency, p.costs), "c_query", point) == "+"

    def test_decreasing(self, point):
        assert _sign(lambda p: a0_star(p.efficiency, p.costs), "c_assess", point) == "-"

    def test_flat(self, point):
        assert _sign(lambda p: 3.25, "c_query", point) == "0"

    def test_step_is_relative(self, point):
        # A quadratic in the parameter: central differences on a relative
        # step recover the exact derivative sign even far from 1.0.
        big = point.with_param("c_query", 4000.0)
        assert _sign(lambda p: (p.costs.c_query - 5000.0) ** 2, "c_query", big) == "-"

    def test_zero_valued_parameter_is_domain_error(self, point):
        # A relative step around 0 is no step at all; the audit skips it.
        at_zero = point.with_param("gamma1", 0.0)
        with pytest.raises(DomainError, match="gamma1"):
            _perturbed(at_zero, "gamma1", FORMULA_H)
        steps = _steps([at_zero], "gamma1", FORMULA_H)
        assert steps == [None]
        assert _outcomes(lambda points: [(1.0, False)] * len(points), steps, FORMULA_H) == [None]


# ---------------------------------------------------------------------------
# Claim audit


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
        # Claims on one parameter share its perturbed samples: 16 (parameter,
        # step) pairs, not one per claim and route.
        calls = []
        perturbed = statics._perturbed

        def counting(point, parameter, h):
            calls.append((parameter, h))
            return perturbed(point, parameter, h)

        monkeypatch.setattr(statics, "_perturbed", counting)
        audit_claims(samples=10, seed=3)
        pairs = {(claim.parameter, h) for claim in claim_registry() for h in (FORMULA_H, ORACLE_H)}
        assert len(pairs) == 16
        assert Counter(calls) == dict.fromkeys(pairs, 10)

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
        region = ParameterRegion.from_mapping({
            **default_region().to_dict(),
            "alpha": [0.3, 1.0], "beta": [0.05, 1.0], "gamma2": [0.1, 1.0],
        })
        report = audit_claims(region=region, samples=30, seed=3)
        for row in report.claims:
            assert row.n_formula + row.flat_formula + row.skipped_formula == 30
            assert row.n_oracle + row.flat_oracle + row.skipped_oracle == 30
        streams = np.random.SeedSequence(3).spawn(30)
        alphas = [_draw_point(np.random.default_rng(s), region).efficiency.alpha for s in streams]
        over_cap = sum(alpha * 1.05 > 1.0 for alpha in alphas)
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
