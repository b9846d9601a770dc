"""Grid-search oracle: search behaviour, KKT diagnostics, integer rounding.

The oracle and the closed forms are independent routes to the same optima,
so most tests here cross-check one against the other. Where the two routes
are known to disagree (the m1 damped pair), the test pins down the
disagreement instead of smoothing it away.
"""

import math
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convecon import (
    CostParams,
    DomainError,
    EfficiencyParams,
    GridSpec,
    Infeasible,
    ModelKind,
    Strategy,
    Unbounded,
    a0_star,
    a2_star_partial,
    cost,
    f2_star,
    gain,
    integer_refine,
    kkt_residual,
    minimize_cost,
    model1_solve,
    recover_q,
    solve_model0,
    solutions_for,
    viability,
)
from convecon.core import PARAM_FIELDS, _param_columns, cost_value, gain_value, params_to_mapping, recover_q_value
from convecon.errors import EconError, NoInteriorOptimum
from convecon import oracle
from convecon.oracle import (
    _Incumbent, _argmin_lex, _block, _evaluate, _gradients, _log_axes, _minimize_batch,
)
from convecon.statics import audit_claims

M0 = ModelKind.BASELINE
M1 = ModelKind.FEEDBACK_FIRST
M2 = ModelKind.FEEDBACK_AFTER


def _param_bundles(pairs):
    """(efficiency, costs) pairs as the parameter columns ``_minimize_batch``
    takes."""
    rows = [params_to_mapping(pair) for pair in pairs]
    return _param_columns({name: np.array([row[name] for row in rows], dtype=float) for name in PARAM_FIELDS})


def _batch(model, instances, g, grid=None, pin=None):
    """``_minimize_batch`` over ``(efficiency, costs, value)`` triples, passed
    as parameter columns and pinned values."""
    efficiencies, costs, values = zip(*instances)
    return _minimize_batch(
        model, *_param_bundles(zip(efficiencies, costs)), g, grid, pin=pin, values=values if pin else None,
    )


def _lattice_columns(pairs):
    """(efficiency, costs) pairs as the (K, 1, 1) columns a block's lattices
    read."""
    block = list(range(len(pairs)))
    return tuple(_block(bundle, block) for bundle in _param_bundles(pairs))


# ---------------------------------------------------------------------------
# GridSpec


def test_grid_spec_defaults():
    spec = GridSpec()
    assert spec.min == 1e-3
    assert spec.max == 1e4
    assert spec.points == 200
    assert spec.refinements == 3


def test_grid_spec_mapping_round_trip():
    spec = GridSpec(min=0.01, max=500.0, points=80, refinements=1)
    assert GridSpec.from_mapping(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min": 0.0},
        {"min": -1.0},
        {"min": 10.0, "max": 1.0},
        {"min": float("nan")},
        {"max": float("inf")},
        {"points": 1},
        {"points": 2.5},
        {"refinements": -1},
        {"refinements": 1.5},
    ],
)
def test_grid_spec_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        GridSpec(**kwargs)


def test_grid_spec_from_mapping_rejects_unknown_fields():
    with pytest.raises(DomainError, match="unknown field.*zoom"):
        GridSpec.from_mapping({"points": 50, "zoom": 2})


def test_grid_spec_from_mapping_rejects_non_numbers():
    with pytest.raises(DomainError, match="points must be a number"):
        GridSpec.from_mapping({"points": "many"})
    with pytest.raises(DomainError, match="min must be a number"):
        GridSpec.from_mapping({"min": True})


# ---------------------------------------------------------------------------
# KKT diagnostics


class TestKktResidual:
    def test_multiplier_read_from_assessment_axis(self, std_efficiency, std_costs):
        s = Strategy(M2, q=7.0, f=2.0, a=3.0)
        value = gain(s, std_efficiency)
        cost_grad_a = s.q * (1.0 + s.f) * std_costs.c_assess
        gain_grad_a = std_efficiency.beta * value / s.a
        report = kkt_residual(s, std_efficiency, std_costs, 50.0)
        assert report.lam == cost_grad_a / gain_grad_a

    def test_assessment_residual_vanishes_by_construction(self, std_efficiency, std_costs):
        # The multiplier is defined as the ratio that zeroes the assessment
        # condition, so re-deriving that condition from the report's lambda
        # must give (numerically) nothing.
        s = Strategy(M2, q=7.0, f=2.0, a=3.0)
        value = gain(s, std_efficiency)
        report = kkt_residual(s, std_efficiency, std_costs, 50.0)
        cost_grad_a = s.q * (1.0 + s.f) * std_costs.c_assess
        gain_grad_a = std_efficiency.beta * value / s.a
        assert abs(cost_grad_a - report.lam * gain_grad_a) <= 1e-12 * cost_grad_a

    def test_zero_residuals_at_baseline_optimum(self, std_efficiency, std_costs):
        a = a0_star(std_efficiency, std_costs)
        q = recover_q(100.0, 0.0, a, M0, std_efficiency)
        report = kkt_residual(Strategy(M0, q, 0.0, a), std_efficiency, std_costs, 100.0)
        assert report.residual_f == 0.0  # no feedback axis on the baseline
        assert abs(report.residual_q) <= 1e-12
        assert report.residual_max <= 1e-12
        assert abs(report.constraint_rel_gap) <= 1e-12

    def test_zero_residuals_at_feedback_after_optimum(self, std_efficiency, std_costs):
        # Independent confirmation that the published feedback level and the
        # conditional depth solve the joint first-order conditions.
        f = f2_star(std_efficiency, std_costs).value
        a = a2_star_partial(f, std_efficiency, std_costs)
        q = recover_q(100.0, f, a, M2, std_efficiency)
        report = kkt_residual(Strategy(M2, q, f, a), std_efficiency, std_costs, 100.0)
        assert report.residual_max <= 1e-12

    def test_doubling_assessments_raises_residual(self, std_efficiency, std_costs):
        a = a0_star(std_efficiency, std_costs)
        q = recover_q(100.0, 0.0, a, M0, std_efficiency)
        at_opt = kkt_residual(Strategy(M0, q, 0.0, a), std_efficiency, std_costs, 100.0)
        perturbed = kkt_residual(Strategy(M0, q, 0.0, 2.0 * a), std_efficiency, std_costs, 100.0)
        assert perturbed.residual_max > at_opt.residual_max

    def test_rejects_zero_coordinates(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="q > 0 and a > 0"):
            kkt_residual(Strategy(M2, 0.0, 1.0, 2.0), std_efficiency, std_costs, 10.0)
        with pytest.raises(DomainError, match="q > 0 and a > 0"):
            kkt_residual(Strategy(M2, 2.0, 1.0, 0.0), std_efficiency, std_costs, 10.0)

    def test_rejects_bad_target(self, std_efficiency, std_costs):
        s = Strategy(M0, 2.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            kkt_residual(s, std_efficiency, std_costs, -1.0)

    def test_overflowing_gradient_has_no_interior_optimum(self, std_efficiency, std_costs):
        # The m1 optimum at gain 1e308 is finite, but the q component of the
        # gain gradient, (gamma1*f + alpha) * gain / q, overflows a float.
        s = Strategy(M1, q=2.716682433670388, f=3541.919557534125, a=3.0016795165352446)
        with pytest.raises(NoInteriorOptimum, match="gain gradient .* overflows a float"):
            kkt_residual(s, std_efficiency, std_costs, 1e308)

    def test_overflowing_constraint_gap_has_no_interior_optimum(self, std_efficiency, std_costs):
        # The gain, 1e180, over a floor of 1e-300 overflows a float.
        strategy = Strategy(M0, q=1e200, f=0.0, a=1.0)
        with pytest.raises(NoInteriorOptimum, match=r"^the KKT residuals or constraint gap at .* overflow a float$"):
            kkt_residual(strategy, std_efficiency, std_costs, 1e-300)

    def test_overflowing_residual_has_no_interior_optimum(self):
        # Every gradient component is finite, but the multiplier
        # q*c_assess / (beta*gain/a) overflows, and the q residual with it.
        efficiency = EfficiencyParams(0.001, 0.001)
        costs = CostParams(1.0, 1.0, 1e-290)
        s = Strategy(M0, q=1e300, f=0.0, a=1e300)
        with pytest.raises(NoInteriorOptimum, match="KKT residuals .* overflow a float"):
            kkt_residual(s, efficiency, costs, 1.0)

    def test_huge_query_count_is_not_certified_stationary(self):
        # At q = 1e160 the assessment component (q * c_assess) dwarfs the
        # others, so residuals scaled by the gradient's norm read 0 here,
        # although the baseline's best depth at these prices is 0.5, not 5.
        # In log coordinates, over the total cost, the q residual is
        # (1 + a - alpha*a/beta) / (1 + a) = -1.5.
        s = Strategy(M0, q=1e160, f=0.0, a=5.0)
        report = kkt_residual(s, EfficiencyParams(0.9, 0.3), CostParams(1.0, 1.0, 1.0), 1.0)
        assert report.residual_q == pytest.approx(-1.5, rel=1e-12)
        assert report.residual_f == 0.0
        assert report.residual_max == pytest.approx(1.5, rel=1e-12)

    def test_residuals_do_not_depend_on_the_gain_scale(self, std_efficiency, std_costs):
        # The residuals are shares of the total cost per relative step, so
        # scaling q (and with it the gain target) leaves them unchanged.
        at = [kkt_residual(Strategy(M2, q, 2.0, 3.0), std_efficiency, std_costs, 1.0) for q in (7.0, 7e12)]
        assert at[0].residual_q == pytest.approx(at[1].residual_q, rel=1e-9)
        assert at[0].residual_f == pytest.approx(at[1].residual_f, rel=1e-6)
        assert at[0].residual_max > 0.01

    def test_dict_uses_lambda_key(self, std_efficiency, std_costs):
        s = Strategy(M0, 2.0, 0.0, 2.0)
        doc = kkt_residual(s, std_efficiency, std_costs, 1.0).to_dict()
        assert set(doc) == {
            "lambda",
            "residual_q",
            "residual_f",
            "residual_max",
            "constraint_rel_gap",
        }


# ---------------------------------------------------------------------------
# minimize_cost


class TestMinimizeCost:
    def test_baseline_matches_closed_form(self, std_efficiency, std_costs):
        sol = minimize_cost(M0, std_efficiency, std_costs, 100.0)
        reference = solve_model0(std_efficiency, std_costs, 100.0)
        assert sol.strategy.a == pytest.approx(reference.strategy.a, rel=1e-3)
        assert sol.total_cost == pytest.approx(cost(reference.strategy, std_costs), rel=1e-9)
        assert sol.kkt.residual_max <= 1e-3
        assert abs(sol.kkt.constraint_rel_gap) <= 1e-9

    def test_assessment_level_ignores_gain_target(self, std_efficiency, std_costs):
        # The gain floor scales the whole cost surface by a positive factor,
        # so the argmin — and with it the returned depth — is bit-identical.
        solutions = [
            minimize_cost(M0, std_efficiency, std_costs, g) for g in (10.0, 100.0, 1000.0)
        ]
        depths = {sol.strategy.a for sol in solutions}
        assert len(depths) == 1

    def test_feedback_after_matches_published_pair(self, std_efficiency, std_costs):
        sol = minimize_cost(M2, std_efficiency, std_costs, 100.0)
        f = f2_star(std_efficiency, std_costs).value
        a = a2_star_partial(f, std_efficiency, std_costs)
        assert sol.strategy.f == pytest.approx(f, rel=1e-3)
        assert sol.strategy.a == pytest.approx(a, rel=1e-3)
        assert sol.kkt.residual_max <= 1e-3
        assert sol.grid_meta.lower_corner_axes == ()

    def test_feedback_first_beats_damped_pair(self, std_efficiency, std_costs):
        # The damped fixed point satisfies the printed equations, but those
        # equations are not the joint first-order conditions, and the search
        # finds a strategy less than half as expensive. Keeping this pinned
        # guards against "fixing" the oracle to agree with the formulas.
        sol = minimize_cost(M1, std_efficiency, std_costs, 100.0)
        pair = model1_solve(std_efficiency, std_costs, 100.0)
        assert sol.total_cost < 0.75 * cost(pair.strategy, std_costs)
        assert sol.kkt.residual_max <= 1e-3

    def test_zero_feedback_exponent_lands_on_corner(self, std_costs, light_grid):
        flat = EfficiencyParams(0.9, 0.3, 0.0, 0.0)
        sol = minimize_cost(M2, flat, std_costs, 100.0, light_grid)
        assert sol.strategy.f == light_grid.min
        assert sol.grid_meta.lower_corner_axes == ("f",)

    def test_unbounded_on_feedback_axis(self, std_costs, light_grid):
        runaway = EfficiencyParams(0.5, 0.3, 0.0, 0.8)
        with pytest.raises(Unbounded, match="feedback axis"):
            minimize_cost(M2, runaway, std_costs, 100.0, light_grid)

    @pytest.mark.parametrize("beta", [0.9, 0.5])
    def test_unbounded_on_assessment_axis(self, std_costs, light_grid, beta):
        # beta >= alpha: trading queries for ever-deeper assessment keeps
        # lowering cost, so there is no interior optimum to return.
        runaway = EfficiencyParams(0.5, beta)
        with pytest.raises(Unbounded, match="assessment axis"):
            minimize_cost(M0, runaway, std_costs, 100.0, light_grid)

    @pytest.mark.parametrize("target", [0.0, -5.0, float("inf")])
    def test_rejects_bad_target(self, std_efficiency, std_costs, target):
        with pytest.raises(DomainError):
            minimize_cost(M0, std_efficiency, std_costs, target)

    def test_accepts_model_codes(self, std_efficiency, std_costs, light_grid):
        by_code = minimize_cost("m0", std_efficiency, std_costs, 100.0, light_grid)
        by_enum = minimize_cost(M0, std_efficiency, std_costs, 100.0, light_grid)
        assert by_code.to_dict() == by_enum.to_dict()

    def test_rejects_unknown_model_code(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="unknown model code"):
            minimize_cost("m3", std_efficiency, std_costs, 100.0)

    def test_deterministic_reruns(self, std_efficiency, std_costs):
        first = minimize_cost(M2, std_efficiency, std_costs, 100.0)
        second = minimize_cost(M2, std_efficiency, std_costs, 100.0)
        assert first.to_dict() == second.to_dict()

    def test_meta_records_final_windows(self, std_efficiency, std_costs):
        spec = GridSpec(points=80, refinements=2)
        sol = minimize_cost(M2, std_efficiency, std_costs, 100.0, spec)
        meta = sol.grid_meta
        assert meta.points == 80 and meta.refinements == 2
        assert meta.a_window[0] <= sol.strategy.a <= meta.a_window[1]
        assert meta.f_window[0] <= sol.strategy.f <= meta.f_window[1]


def _own_call(model, efficiency, costs, g, grid=None, pin=None, value=None):
    """One instance's incumbent, or its error, from a batch of one."""
    return _minimize_batch(model, efficiency, costs, g, grid, pin=pin, values=value)[0]


class TestPinnedAxes:
    def test_pin_feedback_solves_conditional_depth(self, std_efficiency, std_costs):
        pinned = _own_call(M2, std_efficiency, std_costs, 100.0, pin="f", value=1.0)
        assert pinned.f == 1.0
        assert pinned.f_window == (1.0, 1.0)
        expected = a2_star_partial(1.0, std_efficiency, std_costs)
        assert pinned.a == pytest.approx(expected, rel=1e-3)

    def test_pin_zero_feedback_reduces_to_baseline(self, std_efficiency, std_costs, light_grid):
        # f pinned below the grid floor is legal and must not trip the corner
        # diagnostics; with f = 0 the model-m2 surface is the baseline one.
        pinned = _own_call(M2, std_efficiency, std_costs, 100.0, light_grid, pin="f", value=0.0)
        baseline = minimize_cost(M0, std_efficiency, std_costs, 100.0, light_grid)
        assert pinned.a == baseline.strategy.a
        assert cost(Strategy(M2, pinned.q, pinned.f, pinned.a), std_costs) == baseline.total_cost
        assert pinned.lower_corner_axes == ()

    def test_pin_assessment_recovers_joint_feedback(self, std_efficiency, std_costs):
        joint = minimize_cost(M2, std_efficiency, std_costs, 100.0)
        pinned = _own_call(M2, std_efficiency, std_costs, 100.0, pin="a", value=joint.strategy.a)
        assert pinned.a == joint.strategy.a
        assert pinned.a_window == (joint.strategy.a, joint.strategy.a)
        assert pinned.f == pytest.approx(joint.strategy.f, rel=1e-2)
        pinned_cost = cost(Strategy(M2, pinned.q, pinned.f, pinned.a), std_costs)
        assert pinned_cost == pytest.approx(joint.total_cost, rel=1e-4)


# ---------------------------------------------------------------------------
# Integer refinement


def _neighborhood_best(base, efficiency, costs, g):
    """Independent enumeration of the documented candidate set.

    Floor/ceil combinations of each component, plus, for every
    feedback/depth pair, the query count re-solved upward to the next
    integer that meets the floor, and the integer below it where the
    re-solved count exceeds that by at most 1e-14 relative. Returns the
    least-cost feasible row with lexicographic tie-breaking, as
    (cost, q, f, a).
    """

    def around(center, lo):
        return sorted({max(lo, math.floor(center)), max(lo, math.ceil(center))})

    f_options = [0] if base.model is M0 else around(base.f, 0)
    rows = []
    for f in f_options:
        for a in around(base.a, 1):
            q_options = set(around(base.q, 1))
            resolved = recover_q(g, float(f), float(a), base.model, efficiency)
            if math.isfinite(resolved):
                q_options.add(max(1, math.ceil(resolved)))
                q_options.add(max(1, math.ceil(resolved * (1.0 - 1e-14))))
            for q in sorted(q_options):
                candidate = Strategy(base.model, float(q), float(f), float(a))
                if gain(candidate, efficiency) >= g * (1.0 - 1e-12):
                    rows.append((cost(candidate, costs), q, f, a))
    assert rows, "enumeration found no feasible integer point"
    rows.sort()
    return rows[0]


class TestIntegerRefine:
    def test_already_integral_identity(self):
        # On the constraint surface (gain is exactly 100 at these counts),
        # an all-integer input comes back unchanged.
        efficiency = EfficiencyParams(0.5, 0.5)
        costs = CostParams(10.0, 2.0, 1.0)
        refined = integer_refine(Strategy(M0, 2500.0, 0.0, 4.0), efficiency, costs, 100.0)
        assert (refined.strategy.q, refined.strategy.f, refined.strategy.a) == (2500.0, 0.0, 4.0)
        assert refined.achieved_gain == 100.0
        assert refined.total_cost == 35000.0

    def test_query_count_resolves_down_to_floor(self):
        # An integral input sitting above the constraint surface is not a
        # fixed point: re-solving the query count at the same depth finds
        # the strictly cheaper point that still meets the floor.
        efficiency = EfficiencyParams(0.5, 0.5)
        costs = CostParams(10.0, 2.0, 1.0)
        refined = integer_refine(Strategy(M0, 2500.0, 0.0, 5.0), efficiency, costs, 100.0)
        assert (refined.strategy.q, refined.strategy.a) == (2000.0, 5.0)
        assert refined.total_cost == 30000.0

    def test_offers_the_count_rounding_pushed_one_ulp_above(self):
        # At a = 3 the count that meets gain 3 is exactly 3, and its
        # recovery can round to 3.0000000000000004, whose ceiling is 4
        # (cost 52). q = 3 (cost 39) meets the floor within the slack.
        efficiency = EfficiencyParams(0.5, 0.5)
        costs = CostParams(10.0, 2.0, 1.0)
        refined = integer_refine(Strategy(M0, 300.0, 0.0, 3.0), efficiency, costs, 3.0)
        assert (refined.strategy.q, refined.strategy.f, refined.strategy.a) == (3.0, 0.0, 3.0)
        assert refined.total_cost == 39.0

    def test_cost_ties_break_lexicographically(self):
        # With unit prices the cost is q * (1 + a); (3,0,3) and (4,0,2) are
        # both candidates around (3.5, 0, 2.5), both cost exactly 12 and both
        # clear the floor, so the smaller query count must win.
        efficiency = EfficiencyParams(0.6, 0.4)
        costs = CostParams(1.0, 1.0, 1.0)
        refined = integer_refine(Strategy(M0, 3.5, 0.0, 2.5), efficiency, costs, 2.9)
        assert (refined.strategy.q, refined.strategy.f, refined.strategy.a) == (3.0, 0.0, 3.0)
        assert refined.total_cost == 12.0

    @pytest.mark.parametrize("model", [M0, M1, M2])
    def test_matches_exhaustive_enumeration(self, model, std_efficiency, std_costs, light_grid):
        sol = minimize_cost(model, std_efficiency, std_costs, 100.0, light_grid)
        refined = integer_refine(sol, std_efficiency, std_costs, 100.0)
        best = _neighborhood_best(sol.strategy, std_efficiency, std_costs, 100.0)
        assert (
            refined.total_cost,
            refined.strategy.q,
            refined.strategy.f,
            refined.strategy.a,
        ) == best
        assert refined.strategy.is_integer
        assert refined.achieved_gain >= 100.0 * (1.0 - 1e-12)

    def test_accepts_closed_form_solutions(self, std_efficiency, std_costs):
        reference = solve_model0(std_efficiency, std_costs, 100.0)
        refined = integer_refine(reference, std_efficiency, std_costs, 100.0)
        best = _neighborhood_best(reference.strategy, std_efficiency, std_costs, 100.0)
        assert (refined.strategy.q, refined.strategy.f, refined.strategy.a) == best[1:]

    def test_infeasible_when_floor_unreachable(self):
        # A floor beyond float range: the exact query count overflows, and
        # no nearby integer point gets anywhere close.
        efficiency = EfficiencyParams(0.5, 0.5)
        costs = CostParams(1.0, 1.0, 1.0)
        with pytest.raises(Infeasible, match="no integer strategy within radius"):
            integer_refine(Strategy(M0, 1.0, 0.0, 1.0), efficiency, costs, 1e308)

    def test_least_cost_that_overflows_has_no_interior_optimum(self, std_efficiency, std_costs):
        # Every candidate near q = 1e300 and a = 1e10 meets the floor, at a
        # cost of about 1e310.
        strategy = Strategy(M0, q=1e300, f=0.0, a=1e10)
        with pytest.raises(NoInteriorOptimum, match=r"^the cost of integer candidate .* overflows a float$"):
            integer_refine(strategy, std_efficiency, std_costs, gain(strategy, std_efficiency))

    def test_unit_radius_always_feasible_near_solutions(self, light_grid):
        # At radius 1 the candidate (ceil q_exact, ceil f, ceil a) meets the
        # floor: q falls as f and a rise, so q_exact is no larger than the
        # solution's finite q (or below 1). So oracle and closed-form
        # solutions over a wide region and gains from 1e-3 to 1e150 never
        # come out Infeasible; an overflowing candidate gain is
        # NoInteriorOptimum.
        rng = np.random.default_rng(8)

        def draw(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        refined = 0
        for _ in range(400):
            efficiency = EfficiencyParams(draw(0.3, 1.0), draw(0.05, 1.0), draw(0.02, 0.4), draw(0.1, 1.0))
            costs = CostParams(draw(1e-3, 1e3), draw(1e-3, 1e3), draw(1e-3, 1e3))
            g = draw(1e-3, 1e150)
            for model in ModelKind:
                solutions = []
                for solve in (
                    lambda: [minimize_cost(model, efficiency, costs, g, light_grid)],
                    lambda: solutions_for(model, efficiency, costs, g),
                ):
                    try:
                        solutions += solve()
                    except EconError:
                        pass
                for solution in solutions:
                    try:
                        integer_refine(solution, efficiency, costs, g)
                    except NoInteriorOptimum:
                        continue
                    refined += 1
        assert refined > 1500

    def test_rejects_strategyless_input(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="must carry a Strategy"):
            integer_refine(42, std_efficiency, std_costs, 5.0)


# ---------------------------------------------------------------------------
# Global optimality invariant


def _sample_instance(rng):
    alpha = rng.uniform(0.55, 0.95)
    beta = rng.uniform(0.05, alpha - 0.1)
    gamma1 = rng.uniform(0.02, 0.3)
    gamma2 = rng.uniform(0.1, min(0.9, alpha - 0.05))
    efficiency = EfficiencyParams(alpha, beta, gamma1, gamma2)
    costs = CostParams(*np.exp(rng.uniform(np.log(0.5), np.log(20.0), size=3)))
    g = float(np.exp(rng.uniform(np.log(10.0), np.log(1000.0))))
    return efficiency, costs, g


def _fine_grid_minimum(model, efficiency, costs, g, sol, factor=10):
    """Cheapest cost on a ``factor``-times finer lattice over the final window."""
    meta = sol.grid_meta
    n = meta.points * factor
    a_axis = np.logspace(math.log10(meta.a_window[0]), math.log10(meta.a_window[1]), n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if model is M0:
            qv = recover_q_value(model, g, 0.0, a_axis, efficiency)
            total = cost_value(model, qv, 0.0, a_axis, costs)
        else:
            f_axis = np.logspace(
                math.log10(meta.f_window[0]), math.log10(meta.f_window[1]), n
            )
            qv = recover_q_value(model, g, f_axis[:, None], a_axis[None, :], efficiency)
            total = cost_value(
                model,
                qv,
                np.broadcast_to(f_axis[:, None], qv.shape),
                np.broadcast_to(a_axis[None, :], qv.shape),
                costs,
            )
    total = np.where(np.isfinite(total), total, np.inf)
    return float(total.min())


@pytest.mark.parametrize("model", [M0, M1, M2])
def test_finer_grid_cannot_improve_optimum(model):
    rng = np.random.default_rng(20260817)
    for _ in range(50):
        efficiency, costs, g = _sample_instance(rng)
        sol = minimize_cost(model, efficiency, costs, g)
        fine = _fine_grid_minimum(model, efficiency, costs, g, sol)
        assert fine >= sol.total_cost * (1.0 - 1e-4)
        if model is M0:
            # alpha > beta throughout the sampled region, so the closed form
            # applies and must agree with the search.
            assert sol.strategy.a == pytest.approx(a0_star(efficiency, costs), rel=1e-3)


@pytest.mark.parametrize("model", [M0, M1, M2])
def test_gradients_match_central_differences(model):
    rng = np.random.default_rng(20261018)
    for _ in range(20):
        efficiency, costs, _g = _sample_instance(rng)
        q, f, a = (float(v) for v in np.exp(rng.uniform(1.0, 4.0, size=3)))
        counts = [q, f if model.uses_feedback else 0.0, a]
        cost_grad, gain_grad = _gradients(Strategy(model, *counts), efficiency, costs)
        for axis in range(3):
            if axis == 1 and not model.uses_feedback:
                assert cost_grad[1] == gain_grad[1] == 0.0
                continue
            h = 1e-5 * counts[axis]
            up, down = list(counts), list(counts)
            up[axis] += h
            down[axis] -= h
            numeric_cost = (cost_value(model, *up, costs) - cost_value(model, *down, costs)) / (2 * h)
            numeric_gain = (
                gain_value(model, *up, efficiency) - gain_value(model, *down, efficiency)
            ) / (2 * h)
            assert cost_grad[axis] == pytest.approx(numeric_cost, rel=1e-6)
            assert gain_grad[axis] == pytest.approx(numeric_gain, rel=1e-6)


# ---------------------------------------------------------------------------
# Batched search: every instance gets the bits of its own call


# gamma1 0 and alpha 0.5 give every m1 row the round exponent
# 1 / (gamma1*f + alpha) = 2.
_EXPONENT_TWO = (
    EfficiencyParams(0.5, 0.0271586695465435, 0.0, 0.0),
    CostParams(27.77027915882111, 1433.8581173978196, 2.940159211015901),
)


def _batch_instances():
    """(efficiency, costs) pairs mixing random draws with the cases that
    could part a batch from its single calls."""
    rng = np.random.default_rng(20261018)
    instances = [_sample_instance(rng)[:2] for _ in range(5)]
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    for alpha, beta, gamma1, gamma2 in (
        # Round exponents: 1/alpha = 2, beta = 0.5, gamma2 = 0.5.
        (0.5, 0.3, 0.2, 0.1),
        (0.9, 0.5, 0.2, 0.3),
        (0.9, 0.3, 0.2, 0.5),
        # No finite query count reaches the larger gain target.
        (0.0068, 0.003, 0.1, 0.4),
        # Unbounded for m2 (gamma2 >= alpha); the first also has 1/alpha = 2.
        (0.5, 0.3, 0.2, 0.8),
        (0.55, 0.3, 0.2, 0.8),
    ):
        instances.append((EfficiencyParams(alpha, beta, gamma1, gamma2), costs))
    return instances


def test_argmin_lex_breaks_ties_by_smallest_q_f_a():
    # Hand-made (K=4, F=2, A=3) lattices. Each of the first three instances
    # has two least-cost nodes, and plain argmin (the first in flat order)
    # is not the one with the smallest (q, f, a); the last has no finite cost.
    inf = np.inf
    total = np.array([
        [[5.0, 1.0, 7.0], [1.0, 9.0, 9.0]],  # tie at flat 1 and 3
        [[1.0, 9.0, 9.0], [1.0, 9.0, 9.0]],  # tie at flat 0 and 3
        [[1.0, 1.0, 5.0], [5.0, 5.0, 5.0]],  # tie at flat 0 and 1
        [[inf, inf, inf], [inf, inf, inf]],
    ])
    qv = np.ones_like(total)
    qv[0, 0, 1], qv[0, 1, 0] = 4.0, 2.0  # the later node has the smaller q
    f_axis = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [1.0, 2.0]])  # equal q: smaller f
    a_axis = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])  # then smaller a
    assert total.reshape(4, -1)[:3].argmin(axis=1).tolist() == [1, 0, 0]
    assert _argmin_lex(total, qv, f_axis, a_axis).tolist() == [3, 3, 1, -1]
    # Without a tie, the least cost wins outright.
    assert _argmin_lex(total[:1] + np.arange(6.0).reshape(1, 2, 3), qv[:1], f_axis[:1], a_axis[:1]).tolist() == [1]


def test_least_pairs_pick_the_node_of_the_whole_lattice():
    # Ragged (instance, row) pairs whose costs, q, f and a take few values,
    # so least costs tie across rows and so do (q, f, a). The pair that
    # holds each instance's least, and its column, are the node
    # _argmin_lex picks over the instance's whole lattice, including the
    # first row among equals; an instance with no finite cost gets -1.
    rng = np.random.default_rng(20261025)
    size, rows, columns = 6, 5, 4
    for _ in range(200):
        total = rng.integers(1, 4, (size, rows, columns)).astype(float)
        total[0] = np.inf
        qv = rng.integers(1, 3, total.shape).astype(float)
        f_axis = rng.integers(1, 3, (size, rows)).astype(float)
        a_axis = rng.integers(1, 3, (size, columns)).astype(float)
        expected = _argmin_lex(total, qv, f_axis, a_axis).tolist()
        # Every row holding the least cost is kept, and some others.
        kept = (total.min(axis=2) == total.min(axis=(1, 2))[:, None]) | (rng.random((size, rows)) < 0.3)
        owners, kept_rows = np.nonzero(kept)
        pair_total, pair_q = total[owners, kept_rows][:, None, :], qv[owners, kept_rows][:, None, :]
        f_rows, a_rows = f_axis[owners, kept_rows][:, None], a_axis[owners]
        index = _argmin_lex(pair_total, pair_q, f_rows, a_rows)
        chosen = oracle._least_pairs(owners, index, pair_total, pair_q, f_rows, a_rows)
        assert owners[chosen].tolist() == list(range(size))
        assert [-1 if index[j] < 0 else kept_rows[j] * columns + index[j] for j in chosen] == expected


def _exponents(windows):
    """Windows' log10 endpoints as the search keeps them: a (2, K) array of
    the lows, then the highs."""
    return np.array([[math.log10(lo) for lo, _ in windows], [math.log10(hi) for _, hi in windows]])


def test_log_axes_rows_match_scalar_logspace():
    # numpy's logspace over arrays of endpoints takes another branch for
    # every row once one row has a zero step; each row must still get the
    # bits of its own scalar call.
    windows = [(0.5, 40.0), (1e-3, 1e4), (2.0, 2.0)]
    for block in (windows, windows[:2]):
        axes = _log_axes(_exponents(block), 64)
        assert axes.shape == (len(block), 64)
        for row, (lo, hi) in zip(axes, block):
            expected = np.logspace(math.log10(lo), math.log10(hi), 64)
            assert [v.hex() for v in row] == [v.hex() for v in expected]


def test_shrink_matches_scalar_window_arithmetic():
    # Each new window is a tenth of the old log-span around its center,
    # clipped to the box, in math on floats: the same bits at one window as
    # in a block, including windows clipped at either box edge and a window
    # of zero span.
    box = (math.log10(1e-3), math.log10(1e4))
    rng = np.random.default_rng(20261030)
    lows = [1e-3, 1e-3, 2.0] + (10.0 ** rng.uniform(-3.0, 2.0, 40)).tolist()
    highs = [1e4, 1e4, 2.0] + [lo * 10.0 ** rng.uniform(0.1, 3.0) for lo in lows[3:]]
    centers = [1e-3, 1e4, 2.0] + [math.sqrt(lo * hi) * 10.0 ** rng.uniform(-0.5, 0.5) for lo, hi in zip(lows[3:], highs[3:])]
    expected = []
    for lo, hi, center in zip(lows, highs, centers):
        half = (math.log10(hi) - math.log10(lo)) / 2.0 / 10.0
        c = math.log10(center)
        expected.append((10.0 ** max(box[0], c - half), 10.0 ** min(box[1], c + half)))
    assert expected[0][0] == 1e-3 and expected[1][1] == 1e4 and expected[2][0] == expected[2][1]
    for count in (1, 2, len(lows)):
        shrunk = oracle._shrink(oracle._windows(lows[:count] + highs[:count]), centers[:count], box)
        got = list(zip(shrunk.ends[:count], shrunk.ends[count:]))
        assert [(lo.hex(), hi.hex()) for lo, hi in got] == [(lo.hex(), hi.hex()) for lo, hi in expected[:count]]
        assert shrunk.exponents.tolist() == [[math.log10(lo) for lo, _ in got], [math.log10(hi) for _, hi in got]]


def _assert_incumbent_is(incumbent, expected):
    """A batch incumbent carries the node of ``expected`` (its own
    one-instance incumbent or ``minimize_cost`` solution), bit for bit, and
    its final windows and lower corners, bit for bit."""
    counts = getattr(expected, "strategy", expected)
    meta = getattr(expected, "grid_meta", expected)
    for axis in "qfa":
        assert getattr(incumbent, axis).hex() == getattr(counts, axis).hex()
    # Equal positive floats have equal bits.
    fields = ("a_window", "f_window", "lower_corner_axes")
    assert [getattr(incumbent, name) for name in fields] == [getattr(meta, name) for name in fields]


def test_only_minimize_cost_builds_grid_meta(std_efficiency, std_costs, monkeypatch):
    # A batch returns bare incumbents, their windows and corners as plain
    # fields; only the one-instance report builds the GridMeta it prints.
    built = []

    class CountingGridMeta(oracle.GridMeta):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(oracle, "GridMeta", CountingGridMeta)
    rng = np.random.default_rng(20261027)
    instances = [_sample_instance(rng)[:2] + (float(rng.uniform(0.5, 30.0)),) for _ in range(40)]
    grid = GridSpec(points=64, refinements=2)
    for model, pin in ((M2, None), (M1, None), (M0, None), (M2, "f"), (M1, "a"), (M0, "a")):
        batch = _batch(model, instances, 100.0, grid, pin=pin)
        assert sum(isinstance(result, _Incumbent) for result in batch) > 20
    assert built == []
    sol = minimize_cost(M2, std_efficiency, std_costs, 100.0, grid)
    assert built == [sol.grid_meta]
    assert sol.grid_meta.to_dict()["points"] == 64


@pytest.mark.parametrize("grid", [
    GridSpec(points=64, refinements=2), GridSpec(), GridSpec(points=4, refinements=18),
], ids=["audit-grid", "default-grid", "collapsing-windows"])
# m0 has no feedback axis to pin.
@pytest.mark.parametrize("model,pin", [
    (model, pin) for model in (M0, M1, M2) for pin in (None, "f", "a") if model.uses_feedback or pin != "f"
])
def test_batch_matches_single_calls_bit_for_bit(model, pin, grid, monkeypatch):
    pairs = _batch_instances()
    values = np.exp(np.random.default_rng(7).uniform(np.log(0.5), np.log(30.0), len(pairs)))
    instances = [(efficiency, costs, float(value)) for (efficiency, costs), value in zip(pairs, values)]
    if pin == "f":
        instances[0] = instances[0][:2] + (0.0,)
    searches = []
    search = oracle._search

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(oracle, "_search", counting)
    seen = set()
    for g in (100.0, 3.2e10):
        searches.clear()
        batch = _batch(model, instances, g, grid, pin=pin)
        assert len(batch) == len(instances)
        # One block: the round exponents do not part an instance from it.
        assert len(searches) <= 1
        for (efficiency, costs, value), result in zip(instances, batch):
            expected = _own_call(model, efficiency, costs, g, grid, pin, value)
            if isinstance(expected, EconError):
                assert type(result) is type(expected)
                assert str(result) == str(expected)
                assert result.__traceback__ is None
            else:
                _assert_incumbent_is(result, expected)
            seen.add(type(expected))
    if model is not M1 and pin is None:
        assert NoInteriorOptimum in seen


@pytest.mark.parametrize("model", [M0, M1, M2])
def test_scalar_recover_q_matches_lattice_bit_for_bit(model):
    # recover_q_value on plain floats gives the bits of the same node of
    # _evaluate's lattice, alone and in a block, at overflowing and
    # underflowing counts too.
    pairs = _batch_instances() + [_EXPONENT_TWO]
    rng = np.random.default_rng(20261026)
    windows = [tuple(sorted(np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 2)))) for _ in range(2 * len(pairs))]
    f_axis = _log_axes(_exponents(windows[:len(pairs)]), 16) if model.uses_feedback else np.zeros((len(pairs), 1))
    a_axis = _log_axes(_exponents(windows[len(pairs):]), 16)
    efficiencies, costs = _lattice_columns(pairs)
    for g in (100.0, 3.2e10, 1e-300):
        with np.errstate(all="ignore"):
            block_q = _evaluate(model, efficiencies, costs, g, f_axis, a_axis)[0].copy()
        for k, (efficiency, instance_costs) in enumerate(pairs):
            with np.errstate(all="ignore"):
                lone_q = _evaluate(model, efficiency, instance_costs, g, f_axis[k:k + 1], a_axis[k:k + 1])[0]
            scalar = [
                [float(recover_q_value(model, g, float(f), float(a), efficiency)).hex() for a in a_axis[k]]
                for f in f_axis[k]
            ]
            assert [[v.hex() for v in row] for row in lone_q[0].tolist()] == scalar
            assert [[v.hex() for v in row] for row in block_q[k].tolist()] == scalar


@pytest.mark.parametrize("model", [M0, M1, M2])
def test_underflowing_query_count_has_no_interior_optimum(model, light_grid):
    # At alpha 0.7 the query count that reaches gain 1e-300 underflows to 0
    # on every node that reaches it, and a node with q = 0 costs 0. At
    # alpha 1 it stays a normal float. One block searches all four.
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    instances = [
        (EfficiencyParams(1.0, beta, 0.2, 0.4), costs, None) for beta in (0.2, 0.3, 0.4)
    ]
    instances.insert(1, (EfficiencyParams(0.7, 0.3, 0.2, 0.4), costs, None))
    g = 1e-300
    batch = _batch(model, instances, g, light_grid)
    assert isinstance(batch[1], NoInteriorOptimum)
    assert "underflows" in str(batch[1])
    with pytest.raises(NoInteriorOptimum, match="underflows"):
        minimize_cost(model, *instances[1][:2], g, light_grid)
    for i in (0, 2, 3):
        solution = minimize_cost(model, *instances[i][:2], g, light_grid)
        assert solution.strategy.q > 0.0
        _assert_incumbent_is(batch[i], solution)


def _reference_surfaces(model, efficiency, costs, g, f_axis, a_axis):
    """The lattice arithmetic in operator spelling: fresh arrays from
    ``recover_q_value`` and ``cost_value``, non-finite costs to inf by
    ``np.where``."""
    fcol, arow = f_axis[:, :, None], a_axis[:, None, :]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        qv = recover_q_value(model, g, fcol, arow, efficiency)
        total = cost_value(model, qv, fcol, arow, costs)
    return qv, np.where(np.isfinite(total), total, np.inf)


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("points", [64, 200], ids=["audit-grid", "default-grid"])
@pytest.mark.parametrize("size", [1, 8])
@pytest.mark.parametrize("model", [M0, M1, M2])
def test_evaluate_matches_operator_spelling_bit_for_bit(model, size, points):
    rng = np.random.default_rng(20261019)
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    leads = [_sample_instance(rng)[:2]] + [
        # Round exponents: 1/alpha = 2 and 1, beta = 0.5, gamma2 = 0.5.
        (EfficiencyParams(alpha, beta, 0.2, gamma2), costs)
        for alpha, beta, gamma2 in ((0.5, 0.3, 0.1), (1.0, 0.3, 0.4), (0.9, 0.5, 0.3), (0.9, 0.3, 0.5))
    ] + [
        # No finite query count reaches the larger gain target.
        (EfficiencyParams(0.0068, 0.003, 0.1, 0.4), costs),
    ]
    non_finite = 0
    for lead in leads:
        pairs = [lead] + [_sample_instance(rng)[:2] for _ in range(size - 1)]
        if size == 1:
            efficiency, block_costs = lead
        else:
            efficiency, block_costs = _lattice_columns(pairs)
        windows = [tuple(sorted(np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 2)))) for _ in range(size * 2)]
        f_axis, a_axis = _log_axes(_exponents(windows[:size]), points), _log_axes(_exponents(windows[size:]), points)
        pinned = np.exp(rng.uniform(np.log(0.5), np.log(30.0), (size, 1)))
        if model is M0:
            shapes = [(np.zeros((size, 1)), a_axis), (np.zeros((size, 1)), pinned)]
        else:
            shapes = [(f_axis, a_axis), (pinned, a_axis), (f_axis, pinned)]
        for g in (100.0, 3.2e10):
            for f, a in shapes:
                want_q, want_total = _reference_surfaces(model, efficiency, block_costs, g, f, a)
                with np.errstate(all="ignore"):
                    got_q, got_total = _evaluate(model, efficiency, block_costs, g, f, a)
                assert got_q.shape == got_total.shape == want_q.shape
                assert np.array_equal(_bits(got_q), _bits(want_q))
                assert np.array_equal(_bits(got_total), _bits(want_total))
                non_finite += np.count_nonzero(np.isinf(want_total))
    assert non_finite > 0


def _solve_bits(jobs):
    out = []
    for model, instances, grid in jobs:
        for result in _batch(model, instances, 100.0, grid):
            out.append([getattr(result, axis).hex() for axis in "qfa"] + list(result[3:]))
    return out


def test_concurrent_solves_get_their_sequential_bits():
    # Each thread searches in its own workspace. numpy drops the interpreter
    # lock inside lattice arithmetic, so threads sharing one would overwrite
    # each other's lattices mid-round.
    rng = np.random.default_rng(20261020)
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    audit_grid = GridSpec(points=64, refinements=2)
    instances = [(EfficiencyParams(0.9, 0.3, 0.2, 0.4), costs, None)] + [
        _sample_instance(rng)[:2] + (None,) for _ in range(15)
    ]
    work = [
        [(M1, instances[:3], GridSpec())],
        [(M2, instances[:3], GridSpec())],
        [(M1, instances, audit_grid)] * 2,
        [(M2, instances, audit_grid)] * 2,
    ]
    expected = [_solve_bits(jobs) for jobs in work]
    got = [None] * len(work)
    barrier = threading.Barrier(len(work), timeout=60)

    def run(index):
        barrier.wait()
        got[index] = _solve_bits(work[index])

    threads = [threading.Thread(target=run, args=(index,)) for index in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


@pytest.mark.parametrize("model", [M1, M2])
def test_default_grid_joint_solve_allocates_no_lattice(model, std_efficiency, std_costs):
    # numpy reports its array memory to tracemalloc. Once the thread's
    # workspace has grown, a solve allocates only axes and masks, each far
    # below one 200 x 200 float64 lattice.
    minimize_cost(model, std_efficiency, std_costs, 100.0)
    tracemalloc.start()
    try:
        minimize_cost(model, std_efficiency, std_costs, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 200 * 8


# ---------------------------------------------------------------------------
# Row floors: a joint round evaluates only the rows that can hold its least cost


def _wide_draw(rng, model):
    """Parameters up to the edges of the domain: alpha down to 1e-3, gamma1
    up to 100, gamma2 in {0, 0.5, 1}, prices 1e-4 to 1e4. A fifth are m2
    runaways (gamma2 >= alpha), a fifth lift every m1 row to the exponent 2
    (alpha 0.5, gamma1 0), and two fifths keep alpha above 0.3, where most
    gain targets have a finite optimum."""
    alpha = float(10.0 ** rng.uniform(-3.0, 0.0))
    beta = float(rng.choice([0.5, 1.0, 10.0 ** rng.uniform(-3.0, 0.0)]))
    gamma1 = float(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 2.0)]))
    gamma2 = float(rng.choice([0.0, 0.5, 1.0]))
    kind = rng.integers(5)
    if kind == 0 and model is M2:
        alpha, gamma2 = min(alpha, 0.9), 1.0
    elif kind == 1:
        alpha, gamma1 = 0.5, 0.0
    elif kind >= 3:
        alpha = float(rng.uniform(0.3, 1.0))
    prices = 10.0 ** rng.uniform(-4.0, 4.0, size=3)
    return EfficiencyParams(alpha, beta, gamma1, gamma2), CostParams(*(float(p) for p in prices))


def _keep_every_row(model, efficiency, costs, g, f_axis, a_axis):
    """A stand-in for ``_row_floors``: every floor 0, so every row is kept,
    which is the full lattice."""
    return np.zeros(f_axis.shape)


def _count_rows(monkeypatch):
    """Wrap ``_evaluate``; the list it returns gets each call's (feedback
    rows over all its lattices, columns)."""
    calls = []
    evaluate = oracle._evaluate

    def counting(model, efficiency, costs, g, f_axis, a_axis):
        calls.append((f_axis.size, a_axis.shape[1]))
        return evaluate(model, efficiency, costs, g, f_axis, a_axis)

    monkeypatch.setattr(oracle, "_evaluate", counting)
    return calls


def _only_probe(kept, probe):
    """Whether a round is a lone search's that keeps only its probe row."""
    return len(kept) == 1 and kept.sum() == 1 and bool(kept[0, probe[0][0]])


def _count_kept(monkeypatch):
    """Wrap ``_kept_rows``; the list it returns gets each pruned round's
    kept-row count per instance and whether it keeps only a lone search's
    probe row (:func:`_only_probe`)."""
    rounds = []
    kept_rows = oracle._kept_rows

    def counting(*args):
        kept, probe = kept_rows(*args)
        rounds.append((kept.sum(axis=1).tolist(), _only_probe(kept, probe)))
        return kept, probe

    monkeypatch.setattr(oracle, "_kept_rows", counting)
    return rounds


def _outcomes(results):
    return [
        (type(result).__name__, str(result)) if isinstance(result, EconError)
        else ([getattr(result, axis).hex() for axis in "qfa"], result[3:])
        for result in results
    ]


@pytest.mark.parametrize("grid", [
    GridSpec(), GridSpec(points=64, refinements=2), GridSpec(points=7, refinements=5),
    GridSpec(min=1e-6, max=1e6, points=31, refinements=3),
], ids=["default-grid", "audit-grid", "seven-points", "wide-box"])
@pytest.mark.parametrize("model", [M1, M2])
def test_row_floors_keep_every_incumbent_bit_for_bit(model, grid, monkeypatch):
    monkeypatch.setattr(oracle, "_PRUNE_NODES", 0)  # every block evaluates kept rows only
    rng = np.random.default_rng(20261021)
    jobs = []
    for size in (1, 3, 8):
        for g in (1e-300, 1e308, float(10.0 ** rng.uniform(-300.0, 300.0)), float(10.0 ** rng.uniform(0.0, 6.0))):
            jobs.append(([_wide_draw(rng, model) + (None,) for _ in range(size)], g))
    # Cheap feedback that lifts the query exponent a little: the cost still
    # falls at the feedback axis's upper edge in both models.
    jobs.append(([(EfficiencyParams(0.05, 0.01, 1e-7, 0.5), CostParams(10.0, 1e-4, 1.0), None)], 10.0))
    calls = _count_rows(monkeypatch)
    rounds = _count_kept(monkeypatch)
    edges = []
    least_nodes = oracle._least_nodes

    def counting_nodes(model, efficiency, costs, g, f_axis, a_axis, kept, probe, last):
        nodes = least_nodes(model, efficiency, costs, g, f_axis, a_axis, kept, probe, last)
        if last and kept is not None:
            # The nodes on an upper box edge: each is evaluated again with
            # its neighbour one step below, a feedback pair as two rows and
            # an assessment pair as one row.
            index, f_idx, a_idx, _ = nodes
            on_f = (index >= 0) & (f_idx == grid.points - 1) & (f_axis[:, -1] == grid.max)
            on_a = (index >= 0) & (a_idx == grid.points - 1) & (a_axis[:, -1] == grid.max)
            edges.append((2 * int(on_f.sum()) + int(on_a.sum()), not kept[on_f, -2].all()))
        return nodes

    monkeypatch.setattr(oracle, "_least_nodes", counting_nodes)
    pruned = [_outcomes(_batch(model, instances, g, grid)) for instances, g in jobs]
    # Each round evaluates one probe row per instance, then exactly its kept
    # rows: no padding rows. A lone round that keeps only its probe row
    # evaluates it once. Many rounds leave rows out. The last round's edge
    # pairs add their rows, and some feedback edge node's row below was
    # left out of its round.
    assert sum(rows for rows, _ in calls) == (
        sum(len(kept) + sum(kept) - lone for kept, lone in rounds) + sum(rows for rows, _ in edges)
    )
    assert any(lone for _, lone in rounds)
    assert sum(sum(kept) < len(kept) * grid.points for kept, _ in rounds) > len(rounds) // 5
    assert any(left_out for _, left_out in edges)
    monkeypatch.setattr(oracle, "_PRUNE_NODES", math.inf)  # every row of every round
    full = [_outcomes(_batch(model, instances, g, grid)) for instances, g in jobs]
    assert pruned == full
    kinds = {outcome[0] if isinstance(outcome[0], str) else "incumbent" for batch in full for outcome in batch}
    assert {"incumbent", "NoInteriorOptimum", "Unbounded"} <= kinds


@pytest.mark.parametrize("model,efficiency,costs,g,grid", [
    # Every m1 row has the exponent 2 (_EXPONENT_TWO): its kept rows must
    # give the full 7 x 7 lattice's incumbent.
    (M1, *_EXPONENT_TWO, 8926.23606639164, GridSpec(points=7, refinements=5)),
    # The query counts near f = 1e4 are subnormal, where the slack does not
    # cover the lost precision: Unbounded on the full lattice.
    (M2, EfficiencyParams(0.9545455952088651, 0.3445865306156437, 1.568690048126101, 1.0),
     CostParams(0.00032267969897433526, 0.0001681144411925177, 0.01507220868603185),
     1e-300, GridSpec()),
], ids=["exponent-two", "subnormal-q"])
def test_row_floors_keep_bits_where_rows_must_stay(model, efficiency, costs, g, grid, monkeypatch):
    monkeypatch.setattr(oracle, "_PRUNE_NODES", 0)
    pruned = _outcomes(_batch(model, [(efficiency, costs, None)], g, grid))
    monkeypatch.setattr(oracle, "_row_floors", _keep_every_row)
    assert pruned == _outcomes(_batch(model, [(efficiency, costs, None)], g, grid))


_UNIT = st.floats(1e-3, 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    model=st.sampled_from([M1, M2]),
    efficiency=st.builds(EfficiencyParams, _UNIT, _UNIT, st.floats(0.0, 100.0), st.floats(0.0, 1.0)),
    costs=st.builds(CostParams, *[st.floats(1e-4, 1e4)] * 3),
    log_gain=st.floats(-300.0, 300.0),
    windows=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 12.0)), min_size=2, max_size=2),
)
def test_row_floor_never_exceeds_the_row_least_cost(model, efficiency, costs, log_gain, windows):
    (f_lo, f_span), (a_lo, a_span) = windows
    f_axis = _log_axes(_exponents([(10.0 ** f_lo, 10.0 ** (f_lo + f_span))]), 31)
    a_axis = _log_axes(_exponents([(10.0 ** a_lo, 10.0 ** (a_lo + a_span))]), 31)
    g = 10.0 ** log_gain
    with np.errstate(all="ignore"):
        floors = oracle._row_floors(model, efficiency, costs, g, f_axis, a_axis)
        _, total = _evaluate(model, efficiency, costs, g, f_axis, a_axis)
    assert floors.shape == (1, 31)
    assert np.all(floors[0] <= total[0].min(axis=1))


@pytest.mark.parametrize("g", [10.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("model", [M1, M2])
def test_default_grid_joint_solve_evaluates_few_nodes(model, g, std_efficiency, std_costs, monkeypatch):
    # The full lattice is 4 rounds of 200 x 200 nodes; the rows that can
    # hold each round's least cost, probe rows included, are a few. Each
    # round evaluates its probe row, and most keep only that row, which
    # the round takes without evaluating it again.
    calls = _count_rows(monkeypatch)
    minimize_cost(model, std_efficiency, std_costs, g)
    assert sum(rows * columns for rows, columns in calls) <= 4000
    assert len(calls) <= 6


@pytest.mark.parametrize("model", [M1, M2])
def test_row_floors_lone_round_evaluates_its_probe_once(model, std_efficiency, std_costs, monkeypatch):
    # A lone round that keeps only its probe row makes one _evaluate call,
    # the probe's; a round that keeps more rows makes two.
    calls = _count_rows(monkeypatch)
    rounds = []
    kept_rows, least_nodes = oracle._kept_rows, oracle._least_nodes

    def counting_kept(*args):
        start = len(calls)
        kept, probe = kept_rows(*args)
        rounds.append([_only_probe(kept, probe), start])
        return kept, probe

    def counting_nodes(*args):
        nodes = least_nodes(*args)
        rounds[-1][1] = len(calls) - rounds[-1][1]
        return nodes

    monkeypatch.setattr(oracle, "_kept_rows", counting_kept)
    monkeypatch.setattr(oracle, "_least_nodes", counting_nodes)
    for g in (10.0, 1e2, 1e4, 1e6):
        minimize_cost(model, std_efficiency, std_costs, g)
    assert len(rounds) == 16
    assert any(lone for lone, _ in rounds)
    assert all(evaluated == (1 if lone else 2) for lone, evaluated in rounds)


# ---------------------------------------------------------------------------
# Ragged kept rows: a block's joint rounds evaluate (instance, row) pairs


def _count_slices(monkeypatch):
    """Wrap ``_lattices``; the list it returns gets each pruned round's
    slices, as (lattices, rows per lattice) shapes."""
    rounds = []
    lattices = oracle._lattices

    def counting(model, efficiency, costs, g, f_axis, a_axis, kept, probe):
        if kept is not None:
            rounds.append([])
        for lattice in lattices(model, efficiency, costs, g, f_axis, a_axis, kept, probe):
            if kept is not None:
                rounds[-1].append(lattice[-1].shape[:2])
            yield lattice

    monkeypatch.setattr(oracle, "_lattices", counting)
    return rounds


def _unsound(scale):
    """An instance whose prices are so small that its row floors are not
    sound: it keeps every row."""
    return EfficiencyParams(0.9, 0.3, 0.2, 0.4), CostParams(*(scale * p for p in (1.0, 2.0, 3.0)))


@pytest.mark.parametrize("model", [M1, M2])
def test_large_joint_block_matches_single_calls_bit_for_bit(model, monkeypatch):
    # A full audit-grid block of joint searches, whose pruned rounds
    # evaluate ragged kept rows in more than one slice, among random draws:
    # instances that keep every row, the exponent-two instance, runaways
    # and gains no finite (or no normal) query count reaches. Each must get
    # the bits of its own one-instance call.
    grid = GridSpec(points=64, refinements=2)
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    special = [_unsound(10.0 ** -exponent) for exponent in range(292, 300)] + [
        _EXPONENT_TWO,
        (EfficiencyParams(0.55, 0.3, 0.2, 0.8), costs),
        (EfficiencyParams(0.5, 0.9, 0.0, 0.0), costs),
        (EfficiencyParams(0.0068, 0.003, 0.1, 0.4), costs),
        (EfficiencyParams(0.7, 0.3, 0.2, 0.4), costs),
    ]
    rng = np.random.default_rng(20261022)
    pairs = [_sample_instance(rng)[:2] for _ in range(136 - len(special))]
    for position, pair in zip(range(3, 136, 10), special):
        pairs.insert(position, pair)
    instances = [pair + (None,) for pair in pairs]
    rounds = _count_slices(monkeypatch)
    seen = set()
    for g in (100.0, 3.2e10, 1e-300):
        batch = _batch(model, instances, g, grid)
        for (efficiency, costs, _), result in zip(instances, batch):
            expected = _own_call(model, efficiency, costs, g, grid)
            if isinstance(expected, EconError):
                assert type(result) is type(expected)
                assert str(result) == str(expected)
            else:
                _assert_incumbent_is(result, expected)
            seen.add(type(expected))
    assert {_Incumbent, Unbounded, NoInteriorOptimum} <= seen
    # One-row lattices; some block keeps at least 128 searches and every
    # row of seven, and some round takes more than one slice.
    assert all(rows == 1 for slices in rounds for _, rows in slices)
    assert max(sum(lattices for lattices, _ in slices) for slices in rounds) >= 128 + 7 * grid.points
    assert max(len(slices) for slices in rounds) > 1


def test_joint_batches_keep_the_workspace_within_three_blocks(monkeypatch):
    # A block's kept rows are evaluated in slices of whole instances and at
    # most _BLOCK_NODES nodes, so neither an audit's 400 joint solves (some
    # keeping every row) nor a sweep's 25 default-grid steps grow the
    # thread's arena past three slices. An instance whose kept rows alone
    # exceed a slice (every row at the default grid) is a slice of its own,
    # as large as a lone search's lattice. A new thread starts with an empty
    # arena.
    rng = np.random.default_rng(20261023)
    instances = [_sample_instance(rng)[:2] + (None,) for _ in range(400)]
    for position in range(0, 400, 25):
        instances[position] = _unsound(1e-295) + (None,)
    rounds = _count_slices(monkeypatch)
    sizes = []

    def run():
        for model in (M1, M2):
            _batch(model, instances, 100.0, GridSpec(points=64, refinements=2))
            _batch(model, [instance for i, instance in enumerate(instances) if i % 25][:25], 100.0)
        sizes.append(oracle._WORKSPACE.arena.size)
        _batch(M2, instances[:25], 100.0)
        sizes.append(oracle._WORKSPACE.arena.size)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert max(len(slices) for slices in rounds) > 1
    assert sizes[0] <= 3 * oracle._BLOCK_NODES
    assert sizes[1] <= 3 * 200 * 200


@pytest.mark.parametrize("model", [M1, M2])
def test_audit_grid_joint_block_allocates_no_lattice(model):
    # A round of 128 joint searches allocates their axes, floors, probe
    # rows' masks and gathered assessment axes, about a quarter of the
    # block's full 128 x 64 x 64 lattice, and never the lattice itself.
    rng = np.random.default_rng(20261024)
    instances = [_sample_instance(rng)[:2] + (None,) for _ in range(128)]
    grid = GridSpec(points=64, refinements=2)
    _batch(model, instances, 100.0, grid)
    tracemalloc.start()
    try:
        _batch(model, instances, 100.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 64 * 64 * 8 // 3


def test_audit_feedback_after_rounds_evaluate_kept_rows_and_probes_only(monkeypatch):
    # The seed-0 audit's m2 joint searches (four claims and the agreement
    # rows, 1,800 solves) evaluate one probe row per search and round plus
    # the rows that can hold its least cost; a window per instance, padded
    # to the widest in its block, evaluated about 39,000.
    rows = {"probes": 0, "kept": 0, "evaluated": 0}
    kept_rows, lattices = oracle._kept_rows, oracle._lattices

    def counting_kept(model, *args):
        kept, probe = kept_rows(model, *args)
        if model is M2:
            rows["probes"] += len(kept)
            rows["kept"] += int(kept.sum())
        return kept, probe

    def counting_lattices(model, efficiency, costs, g, f_axis, a_axis, kept, probe):
        for lattice in lattices(model, efficiency, costs, g, f_axis, a_axis, kept, probe):
            if model is M2 and kept is not None:
                rows["evaluated"] += lattice[-1].shape[0] * lattice[-1].shape[1]
            yield lattice

    monkeypatch.setattr(oracle, "_kept_rows", counting_kept)
    monkeypatch.setattr(oracle, "_lattices", counting_lattices)
    audit_claims(samples=200, seed=0)
    assert rows["probes"] == 5400  # 1,800 searches, 3 rounds each
    assert rows["evaluated"] == rows["kept"]
    assert rows["probes"] + rows["kept"] < 18_000


def test_solves_and_audit_raise_no_runtime_warning(std_efficiency, std_costs):
    # The lattice arithmetic and the row floors overflow, underflow and
    # divide by zero by design (gain 1e300 overflows most query counts);
    # each block's search runs in one error state that keeps them quiet,
    # and nothing outside it warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for g in (100.0, 1e300, 1e-300):
            for solve in [partial(minimize_cost, model) for model in (M0, M1, M2)] + [viability]:
                try:
                    solve(std_efficiency, std_costs, g)
                except EconError:
                    pass
        audit_claims(samples=20, seed=0)
