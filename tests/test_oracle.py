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

import numpy as np
import pytest

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
    lagrangian,
    minimize_cost,
    model1_solve,
    recover_q,
    solve_model0,
    solutions_for,
)
from convecon.closed_form import recover_q_value
from convecon.core import cost_value, gain_value
from convecon.errors import EconError, NoInteriorOptimum
from convecon.oracle import _columns, _evaluate, _gradients, _log_axes, _minimize_batch

M0 = ModelKind.BASELINE
M1 = ModelKind.FEEDBACK_FIRST
M2 = ModelKind.FEEDBACK_AFTER


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
# Lagrangian


def test_lagrangian_multiplier_off(std_efficiency, std_costs):
    s = Strategy(M2, q=2.0, f=3.0, a=4.0)
    assert lagrangian(s, std_efficiency, std_costs, 50.0, 0.0) == cost(s, std_costs)


def test_lagrangian_zero_slack_for_any_multiplier(std_efficiency, std_costs):
    # On the constraint surface the multiplier term vanishes exactly.
    s = Strategy(M1, q=5.0, f=2.0, a=3.0)
    on_surface = gain(s, std_efficiency)
    for lam in (-3.0, 0.7, 12.0):
        assert lagrangian(s, std_efficiency, std_costs, on_surface, lam) == cost(s, std_costs)


def test_lagrangian_worked_example(std_efficiency, std_costs):
    s = Strategy(M2, q=2.0, f=3.0, a=4.0)
    target = gain(s, std_efficiency)
    assert lagrangian(s, std_efficiency, std_costs, target, 1.0) == 64.0


def test_lagrangian_rejects_bad_target(std_efficiency, std_costs):
    s = Strategy(M0, q=1.0, f=0.0, a=1.0)
    with pytest.raises(DomainError):
        lagrangian(s, std_efficiency, std_costs, 0.0, 1.0)


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
        assert sol.strategy.a == pytest.approx(reference.a, rel=1e-3)
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
        assert meta.pinned_axes == ()


class TestPinnedAxes:
    def test_pin_feedback_solves_conditional_depth(self, std_efficiency, std_costs):
        sol = minimize_cost(M2, std_efficiency, std_costs, 100.0, pin_f=1.0)
        assert sol.strategy.f == 1.0
        assert sol.grid_meta.pinned_axes == ("f",)
        assert sol.grid_meta.f_window == (1.0, 1.0)
        expected = a2_star_partial(1.0, std_efficiency, std_costs)
        assert sol.strategy.a == pytest.approx(expected, rel=1e-3)

    def test_pin_zero_feedback_reduces_to_baseline(self, std_efficiency, std_costs, light_grid):
        # f pinned below the grid floor is legal and must not trip the corner
        # diagnostics; with f = 0 the model-m2 surface is the baseline one.
        pinned = minimize_cost(M2, std_efficiency, std_costs, 100.0, light_grid, pin_f=0.0)
        baseline = minimize_cost(M0, std_efficiency, std_costs, 100.0, light_grid)
        assert pinned.strategy.a == baseline.strategy.a
        assert pinned.total_cost == baseline.total_cost
        assert pinned.grid_meta.lower_corner_axes == ()

    def test_pin_assessment_recovers_joint_feedback(self, std_efficiency, std_costs):
        joint = minimize_cost(M2, std_efficiency, std_costs, 100.0)
        pinned = minimize_cost(
            M2, std_efficiency, std_costs, 100.0, pin_a=joint.strategy.a
        )
        assert pinned.strategy.a == joint.strategy.a
        assert pinned.grid_meta.pinned_axes == ("a",)
        assert pinned.strategy.f == pytest.approx(joint.strategy.f, rel=1e-2)
        assert pinned.total_cost == pytest.approx(joint.total_cost, rel=1e-4)

    def test_pin_rejections(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="cannot pin both axes"):
            minimize_cost(M2, std_efficiency, std_costs, 100.0, pin_f=1.0, pin_a=2.0)
        with pytest.raises(DomainError, match="pin_f applies only to feedback models"):
            minimize_cost(M0, std_efficiency, std_costs, 100.0, pin_f=1.0)
        with pytest.raises(DomainError, match="pin_f"):
            minimize_cost(M2, std_efficiency, std_costs, 100.0, pin_f=-0.5)
        with pytest.raises(DomainError, match="pin_a"):
            minimize_cost(M2, std_efficiency, std_costs, 100.0, pin_a=0.0)


# ---------------------------------------------------------------------------
# Integer refinement


def _neighborhood_best(base, efficiency, costs, g, radius=1):
    """Independent enumeration of the documented candidate set.

    Floor/ceil combinations within ``radius`` of each component, plus, for
    every feedback/depth pair, the query count re-solved upward to the next
    integer that meets the floor. Returns the least-cost feasible row with
    lexicographic tie-breaking, as (cost, q, f, a).
    """

    def around(center, lo):
        raw = range(math.floor(center) - (radius - 1), math.ceil(center) + radius)
        return sorted({max(lo, v) for v in raw})

    f_options = [0] if base.model is M0 else around(base.f, 0)
    rows = []
    for f in f_options:
        for a in around(base.a, 1):
            q_options = set(around(base.q, 1))
            resolved = recover_q(g, float(f), float(a), base.model, efficiency)
            if math.isfinite(resolved):
                q_options.add(max(1, math.ceil(resolved)))
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

    def test_cost_ties_break_lexicographically(self):
        # With unit prices the cost is q * (1 + a); (3,0,3), (4,0,2) and
        # (6,0,1) all cost exactly 12 and all clear the floor, so the
        # smallest query count must win.
        efficiency = EfficiencyParams(0.6, 0.4)
        costs = CostParams(1.0, 1.0, 1.0)
        refined = integer_refine(Strategy(M0, 4.0, 0.0, 2.0), efficiency, costs, 2.9, radius=2)
        assert (refined.strategy.q, refined.strategy.f, refined.strategy.a) == (3.0, 0.0, 3.0)
        assert refined.total_cost == 12.0

    def test_wider_radius_reaches_cheaper_points(self, std_costs):
        efficiency = EfficiencyParams(0.9, 0.3)
        base = Strategy(M0, 200.0, 0.0, 2.5)  # depth far below the optimum near 5
        narrow = integer_refine(base, efficiency, std_costs, 100.0, radius=1)
        wide = integer_refine(base, efficiency, std_costs, 100.0, radius=2)
        assert narrow.strategy.a == 3.0
        assert wide.strategy.a == 4.0
        assert wide.total_cost < narrow.total_cost

    @pytest.mark.parametrize("model", [M0, M1, M2])
    def test_matches_exhaustive_enumeration(self, model, std_efficiency, std_costs, light_grid):
        sol = minimize_cost(model, std_efficiency, std_costs, 100.0, light_grid)
        for radius in (1, 2):
            refined = integer_refine(sol, std_efficiency, std_costs, 100.0, radius=radius)
            best = _neighborhood_best(sol.strategy, std_efficiency, std_costs, 100.0, radius)
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

    @pytest.mark.parametrize("radius", [0, -1, 1.5, True])
    def test_rejects_bad_radius(self, std_efficiency, std_costs, radius):
        base = Strategy(M0, 10.0, 0.0, 2.0)
        with pytest.raises(DomainError, match="radius"):
            integer_refine(base, std_efficiency, std_costs, 5.0, radius=radius)

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


def _batch_instances():
    """(efficiency, costs) pairs mixing random draws with the cases that
    could part a batch from its single calls."""
    rng = np.random.default_rng(20261018)
    instances = [_sample_instance(rng)[:2] for _ in range(5)]
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    for alpha, beta, gamma1, gamma2 in (
        # Exponents numpy computes by sqrt, square or reciprocal when they
        # are scalars: 1/alpha = 2, beta = 0.5, gamma2 = 0.5.
        (0.5, 0.3, 0.2, 0.1),
        (0.9, 0.5, 0.2, 0.3),
        (0.9, 0.3, 0.2, 0.5),
        # No finite query count reaches the larger gain target.
        (0.0068, 0.003, 0.1, 0.4),
        # Unbounded for m2 (gamma2 >= alpha); the first is also a fast path.
        (0.5, 0.3, 0.2, 0.8),
        (0.55, 0.3, 0.2, 0.8),
    ):
        instances.append((EfficiencyParams(alpha, beta, gamma1, gamma2), costs))
    return instances


def test_log_axes_rows_match_scalar_logspace():
    # numpy's logspace over arrays of endpoints takes another branch for
    # every row once one row has a zero step; each row must still get the
    # bits of its own scalar call.
    windows = [(0.5, 40.0), (1e-3, 1e4), (2.0, 2.0)]
    for block in (windows, windows[:2]):
        axes = _log_axes(block, 64)
        assert axes.shape == (len(block), 64)
        for row, (lo, hi) in zip(axes, block):
            expected = np.logspace(math.log10(lo), math.log10(hi), 64)
            assert [v.hex() for v in row] == [v.hex() for v in expected]


def _own_call(model, efficiency, costs, g, grid, pin, value):
    kwargs = {} if pin is None else {f"pin_{pin}": value}
    try:
        return minimize_cost(model, efficiency, costs, g, grid, **kwargs)
    except EconError as exc:
        return exc


@pytest.mark.parametrize("grid", [
    GridSpec(points=64, refinements=2), GridSpec(), GridSpec(points=4, refinements=18),
], ids=["audit-grid", "default-grid", "collapsing-windows"])
@pytest.mark.parametrize("pin", [None, "f", "a"])
@pytest.mark.parametrize("model", [M0, M1, M2])
def test_batch_matches_single_calls_bit_for_bit(model, pin, grid):
    pairs = _batch_instances()
    values = np.exp(np.random.default_rng(7).uniform(np.log(0.5), np.log(30.0), len(pairs)))
    instances = [(efficiency, costs, float(value)) for (efficiency, costs), value in zip(pairs, values)]
    if pin == "f":
        instances[0] = instances[0][:2] + (0.0,)
    seen = set()
    for g in (100.0, 3.2e10):
        batch = _minimize_batch(model, instances, g, grid, pin=pin)
        assert len(batch) == len(instances)
        for (efficiency, costs, value), result in zip(instances, batch):
            expected = _own_call(model, efficiency, costs, g, grid, pin, value)
            assert type(result) is type(expected)
            seen.add(type(result))
            if isinstance(expected, EconError):
                assert str(result) == str(expected)
                assert result.__traceback__ is None
            else:
                for axis in "qfa":
                    got, want = getattr(result.strategy, axis), getattr(expected.strategy, axis)
                    assert got.hex() == want.hex()
                assert result.to_dict() == expected.to_dict()
    if model is M0 and pin == "f":
        assert seen == {DomainError}  # pin_f applies only to feedback models
    elif model is not M1 and pin is None:
        assert NoInteriorOptimum in seen


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
        # 1/alpha = 2 and 1, beta = 0.5, gamma2 = 0.5: the scalar powers
        # numpy may special-case.
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
            efficiency = _columns([pair[0] for pair in pairs])
            block_costs = _columns([pair[1] for pair in pairs])
        windows = [tuple(sorted(np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 2)))) for _ in range(size * 2)]
        f_axis, a_axis = _log_axes(windows[:size], points), _log_axes(windows[size:], points)
        pinned = np.exp(rng.uniform(np.log(0.5), np.log(30.0), (size, 1)))
        if model is M0:
            shapes = [(np.zeros((size, 1)), a_axis), (np.zeros((size, 1)), pinned)]
        else:
            shapes = [(f_axis, a_axis), (pinned, a_axis), (f_axis, pinned)]
        for g in (100.0, 3.2e10):
            for f, a in shapes:
                want_q, want_total = _reference_surfaces(model, efficiency, block_costs, g, f, a)
                got_q, got_total = _evaluate(model, efficiency, block_costs, g, f, a)
                assert got_q.shape == got_total.shape == want_q.shape
                assert np.array_equal(_bits(got_q), _bits(want_q))
                assert np.array_equal(_bits(got_total), _bits(want_total))
                non_finite += np.count_nonzero(np.isinf(want_total))
    assert non_finite > 0


def _solve_bits(jobs):
    out = []
    for model, instances, grid in jobs:
        for result in _minimize_batch(model, instances, 100.0, grid):
            out.append([getattr(result.strategy, axis).hex() for axis in "qfa"] + [result.to_dict()])
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
