import math
import re

import numpy as np
import pytest

from convecon import closed_form
from convecon.closed_form import (
    ClampedValue,
    _clamp_floor,
    _one_by_one,
    _solve_coupled,
    a0_star,
    a1_star,
    a2_star_full,
    a2_star_partial,
    f1_star,
    f2_star,
    f2_star_coupled,
    model1_solve,
    model2_solve_coupled,
    recover_q,
    solutions_for,
    solve_model0,
    solve_model2_full,
    solve_model2_partial,
)
from convecon.core import (
    PARAM_FIELDS, CostParams, EfficiencyParams, ModelKind, Strategy, _param_columns, gain, params_from_mapping,
)
from convecon.errors import Diverged, DomainError, EconError, NoInteriorOptimum


def eff(alpha=0.9, beta=0.3, gamma1=0.0, gamma2=0.0):
    return EfficiencyParams(alpha=alpha, beta=beta, gamma1=gamma1, gamma2=gamma2)


def costs(c_query=10.0, c_feedback=2.0, c_assess=1.0):
    return CostParams(c_query=c_query, c_feedback=c_feedback, c_assess=c_assess)


# ---------------------------------------------------------------- a0_star

def test_a0_star_examples():
    assert a0_star(eff(0.9, 0.3), costs(10.0)) == pytest.approx(5.0)
    assert a0_star(eff(0.6, 0.3), costs(c_query=20.0, c_assess=2.0)) == pytest.approx(10.0)


def test_a0_star_requires_alpha_above_beta():
    with pytest.raises(NoInteriorOptimum):
        a0_star(eff(0.3, 0.3), costs())
    with pytest.raises(NoInteriorOptimum):
        a0_star(eff(0.2, 0.3), costs())


# ---------------------------------------------------------------- a1_star

def test_a1_star_examples():
    assert a1_star(2.0, eff(0.9, 0.3, gamma1=0.2), costs()) == pytest.approx(7.0)
    # f=0 reduces to the baseline depth
    assert a1_star(0.0, eff(0.9, 0.3, gamma1=0.2), costs()) == pytest.approx(5.0)
    value = a1_star(
        1.0,
        eff(alpha=0.8, beta=0.5, gamma1=0.1),
        costs(c_query=4.0, c_feedback=1.0, c_assess=0.5),
    )
    assert value == pytest.approx(15.0)


def test_a1_star_error_on_bad_denominator():
    # gamma1*f + alpha - beta <= 0
    with pytest.raises(NoInteriorOptimum):
        a1_star(0.0, eff(alpha=0.3, beta=0.3, gamma1=0.1), costs())


# ---------------------------------------------------------------- f1_star

def test_f1_star_example():
    value = f1_star(5.0, eff(0.9, 0.3, gamma1=0.2), costs())
    assert value.value == pytest.approx(3.75)
    assert not value.corner


def test_f1_star_with_zero_gamma1_is_positive_anyway():
    # The printed expression keeps recommending feedback even when feedback
    # confers no gain benefit; surfaced, not corrected.
    value = f1_star(5.0, eff(0.9, 0.3, gamma1=0.0), costs())
    assert value.value == pytest.approx(10.0)


def test_f1_star_large_depth_limit():
    e = eff(0.9, 0.3, gamma1=0.2)
    limit = (e.alpha - e.beta) / e.gamma1
    assert f1_star(1e9, e, costs()).value == pytest.approx(limit, rel=1e-6)


# ------------------------------------------------------- a2_star_partial

def test_a2_star_partial_examples():
    assert a2_star_partial(0.0, eff(0.9, 0.3), costs()) == pytest.approx(5.0)
    assert a2_star_partial(2.0, eff(0.9, 0.3), costs()) == pytest.approx(0.3 * 14.0 / (0.6 * 3.0))


def test_a2_star_partial_free_feedback():
    e, c = eff(0.9, 0.3), costs(c_feedback=1e-12)
    expected = e.beta * c.c_query / ((e.alpha - e.beta) * 3.0 * c.c_assess)
    assert a2_star_partial(2.0, e, c) == pytest.approx(expected, rel=1e-9)


def test_a2_star_partial_requires_alpha_above_beta():
    with pytest.raises(NoInteriorOptimum):
        a2_star_partial(1.0, eff(0.3, 0.3), costs())


def test_a2_star_partial_total_assessments_increase_with_f():
    e, c = eff(0.9, 0.3), costs()
    totals = [a2_star_partial(f, e, c) * (f + 1.0) for f in np.linspace(0.0, 8.0, 17)]
    assert all(b > a for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------- a2_star_full

def test_a2_star_full_example():
    value = a2_star_full(2.0, eff(0.9, 0.3, gamma2=0.5), costs())
    assert value.value == pytest.approx(0.5)
    assert not value.corner


def test_a2_star_full_equal_exponents_error():
    with pytest.raises(DomainError):
        a2_star_full(2.0, eff(0.5, 0.3, gamma2=0.5), costs())


def test_a2_star_full_clamps_negative():
    # Large f makes the printed numerator negative.
    value = a2_star_full(50.0, eff(0.9, 0.3, gamma2=0.5), costs())
    assert value.corner
    assert value.value == 0.0
    assert value.raw < 0.0
    # A clamped value is a named (value, raw) tuple.
    clamped, raw = value
    assert value == (clamped, raw) == (0.0, value.raw)


# -------------------------------------------------------------- f2_star

def test_f2_star_example():
    value = f2_star(eff(0.9, 0.2, gamma2=0.5), costs())
    assert value.value == pytest.approx(2.0)
    assert not value.corner


def test_f2_star_equal_costs_clamp_to_corner():
    value = f2_star(eff(0.9, 0.2, gamma2=0.5), costs(c_query=3.0, c_feedback=3.0))
    assert value.raw == pytest.approx(-1.0)
    assert value.value == 0.0
    assert value.corner


def test_f2_star_equal_exponents_error():
    with pytest.raises(DomainError):
        f2_star(eff(0.5, 0.2, gamma2=0.5), costs())


def test_f2_star_never_depends_on_assess_cost():
    e = eff(0.9, 0.2, gamma2=0.5)
    low = f2_star(e, costs(c_assess=0.01)).value
    high = f2_star(e, costs(c_assess=100.0)).value
    assert low == high


# ------------------------------------------------------- f2_star_coupled

def test_f2_star_coupled_example():
    value = f2_star_coupled(5.0, eff(0.9, 0.3), costs())
    assert value.value == pytest.approx(6.0 / 3.6)


def test_f2_star_coupled_large_depth_limit():
    assert f2_star_coupled(1e10, eff(0.9, 0.3), costs()).value == pytest.approx(1.0, rel=1e-6)


def test_f2_star_coupled_bad_denominator():
    with pytest.raises(DomainError):
        f2_star_coupled(5.0, eff(alpha=0.3, beta=0.9), costs(c_feedback=0.0001))


# ------------------------------------------------- past a float's range

# Valid parameters whose denominator, positive for them, underflows a float
# to 0: each formula has no interior optimum there and names it.
_TINY = eff(1e-300, 1e-301)


@pytest.mark.parametrize("call,denominator", [
    (lambda: a0_star(_TINY, costs(c_assess=1e-300)), "(alpha - beta) * c_assess"),
    (lambda: a1_star(0.0, _TINY, costs(c_assess=1e-300)), "(gamma1 * f + alpha - beta) * c_assess"),
    (lambda: a2_star_partial(0.0, _TINY, costs(c_assess=1e-300)), "(alpha - beta) * (f + 1) * c_assess"),
    (lambda: a2_star_full(0.0, _TINY, costs(c_assess=1e-300)), "(alpha - gamma2) * (1 + f) * c_assess"),
    (lambda: f2_star(_TINY, costs(c_feedback=1e-300)), "(alpha - gamma2) * c_feedback"),
], ids=["a0_star", "a1_star", "a2_star_partial", "a2_star_full", "f2_star"])
def test_denominator_that_underflows_has_no_interior_optimum(call, denominator):
    with pytest.raises(NoInteriorOptimum, match=re.escape(f"denominator {denominator} underflows a float to 0")):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: a0_star(eff(), costs(c_query=1e300, c_assess=1e-300)), "the baseline depth"),
    # beta * c_query underflows to a depth of 0.
    (lambda: a0_star(eff(beta=1e-300), costs(c_query=1e-300)), "the baseline depth"),
    (lambda: f2_star(eff(gamma2=0.5), costs(c_query=1e300, c_feedback=1e-300)), "the m2 feedback level"),
    (lambda: a2_star_full(0.0, eff(gamma2=0.5), costs(c_query=1e300, c_assess=1e-300)), "the m2 full depth"),
    # f2_star clamps to 0, where the partial depth overflows.
    (lambda: solve_model2_partial(eff(gamma2=0.5), costs(1e300, 1e300, 1e-300), 100.0), "the m2 partial depth"),
], ids=["a0-overflow", "a0-underflow", "f2_star", "a2_star_full", "m2-partial"])
def test_value_past_float_range_has_no_interior_optimum(call, name):
    with pytest.raises(NoInteriorOptimum, match=f"^{name} leaves the range of a float$"):
        call()


# ------------------------------------------------------------- recover_q

def test_recover_q_baseline_example():
    q = recover_q(100.0, 0.0, 4.0, ModelKind.BASELINE, eff(0.5, 0.5))
    assert q == pytest.approx(2500.0)


def test_recover_q_feedback_after_reduces_at_f0():
    e = eff(0.5, 0.5, gamma2=0.7)
    q0 = recover_q(100.0, 0.0, 4.0, ModelKind.BASELINE, e)
    q2 = recover_q(100.0, 0.0, 4.0, ModelKind.FEEDBACK_AFTER, e)
    assert q2 == pytest.approx(q0, rel=1e-12)


def test_recover_q_rejects_zero_depth():
    with pytest.raises(DomainError):
        recover_q(100.0, 0.0, 0.0, ModelKind.BASELINE, eff())


def test_recover_q_round_trip_property():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        e = EfficiencyParams(
            alpha=rng.uniform(0.2, 0.99), beta=rng.uniform(0.05, 0.99),
            gamma1=rng.uniform(0.0, 0.5), gamma2=rng.uniform(0.0, 0.99),
        )
        model = (ModelKind.BASELINE, ModelKind.FEEDBACK_FIRST, ModelKind.FEEDBACK_AFTER)[rng.integers(0, 3)]
        f = 0.0 if model is ModelKind.BASELINE else float(rng.uniform(0.0, 6.0))
        a = float(rng.uniform(0.2, 40.0))
        g = float(rng.uniform(0.5, 5000.0))
        q = recover_q(g, f, a, model, e)
        achieved = gain(Strategy(model, q, f, a), e)
        assert achieved == pytest.approx(g, rel=1e-10)


# ----------------------------------------------------- reduction at f=0

def test_every_depth_formula_reduces_to_a0_at_f0():
    rng = np.random.default_rng(5)
    for _ in range(100):
        e = EfficiencyParams(
            alpha=rng.uniform(0.4, 0.95), beta=rng.uniform(0.05, 0.35),
            gamma1=rng.uniform(0.0, 0.4), gamma2=rng.uniform(0.0, 0.95),
        )
        c = CostParams(
            c_query=rng.uniform(0.5, 40.0), c_feedback=rng.uniform(0.1, 10.0),
            c_assess=rng.uniform(0.1, 10.0),
        )
        base = a0_star(e, c)
        assert abs(a1_star(0.0, e, c) - base) <= 1e-12 * base
        assert abs(a2_star_partial(0.0, e, c) - base) <= 1e-12 * base


def test_depth_formulas_monotone_in_costs():
    rng = np.random.default_rng(6)
    for _ in range(100):
        e = EfficiencyParams(
            alpha=rng.uniform(0.5, 0.95), beta=rng.uniform(0.05, 0.4),
            gamma1=rng.uniform(0.01, 0.4),
        )
        c = CostParams(
            c_query=rng.uniform(0.5, 40.0), c_feedback=rng.uniform(0.1, 10.0),
            c_assess=rng.uniform(0.1, 10.0),
        )
        richer_q = CostParams(c.c_query * 1.25, c.c_feedback, c.c_assess)
        richer_a = CostParams(c.c_query, c.c_feedback, c.c_assess * 1.25)
        f = float(rng.uniform(0.0, 5.0))
        for formula in (
            lambda cc: a0_star(e, cc),
            lambda cc: a1_star(f, e, cc),
            lambda cc: a2_star_partial(f, e, cc),
        ):
            assert formula(richer_q) > formula(c)
            assert formula(richer_a) < formula(c)


def test_clamped_values_never_negative_and_corner_iff_raw_negative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = EfficiencyParams(
            alpha=rng.uniform(0.5, 0.95), beta=rng.uniform(0.05, 0.45),
            gamma1=rng.uniform(0.01, 0.4), gamma2=rng.uniform(0.05, 0.95),
        )
        c = CostParams(
            c_query=rng.uniform(0.5, 40.0), c_feedback=rng.uniform(0.1, 10.0),
            c_assess=rng.uniform(0.1, 10.0),
        )
        a = float(rng.uniform(0.5, 30.0))
        f = float(rng.uniform(0.0, 6.0))
        produced = [f1_star(a, e, c), f2_star_coupled(a, e, c)]
        if abs(e.alpha - e.gamma2) > 1e-9:
            produced.append(f2_star(e, c))
            produced.append(a2_star_full(f, e, c))
        for value in produced:
            assert value.value >= 0.0
            assert value.corner == (value.raw < 0.0)
            if not value.corner:
                assert value.value == value.raw


# -------------------------------------------------- coupled m1 solution

class TestModel1Solve:
    E = dict(alpha=0.9, beta=0.3, gamma1=0.2)

    def test_matches_algebraic_fixed_point(self):
        """The printed pair (a1_star, f1_star) has an exact simultaneous
        solution at these params: a* solves 0.6a^2 - 2.1a - 35 = 0, so
        a* = (7 + sqrt(569))/4 and f* follows from the f-map."""
        a_exact = (7.0 + math.sqrt(569.0)) / 4.0
        f_exact = (3.0 + 0.6 * a_exact) / (0.2 * a_exact + 0.6)
        solution = model1_solve(eff(**self.E), costs(), 100.0)
        assert solution.strategy.a == pytest.approx(a_exact, rel=1e-8)
        assert solution.strategy.f == pytest.approx(f_exact, rel=1e-8)
        assert solution.iterations is not None and solution.iterations < 200
        # and the recovered q actually meets the gain floor
        achieved = gain(solution.strategy, eff(**self.E))
        assert achieved == pytest.approx(100.0, rel=1e-9)

    def test_fixed_point_is_self_consistent(self):
        solution = model1_solve(eff(**self.E), costs(), 100.0)
        a, f = solution.strategy.a, solution.strategy.f
        assert a1_star(f, eff(**self.E), costs()) == pytest.approx(a, rel=1e-7)
        assert f1_star(a, eff(**self.E), costs()).value == pytest.approx(f, rel=1e-7)

    def test_gamma1_zero_diverges(self):
        # With gamma1 = 0 the printed pair has no finite fixed point here:
        # both maps grow linearly and their composite slope exceeds one, so
        # the iterates run away and the solver must say so rather than
        # return something. (Raw f-map values stay positive throughout —
        # the starting depth gives raw f = 2*beta*c_query/denominator > 0 —
        # so the clamp never engages.)
        with pytest.raises(Diverged):
            model1_solve(eff(0.9, 0.3, gamma1=0.0), costs(), 100.0)


# ------------------------------------------------ coupled m2 draft pair

def test_model2_coupled_feedback_is_sqrt_of_cost_ratio():
    """At the draft pair's fixed point the feedback level solves
    f^2 = c_query / c_feedback, independent of the exponents."""
    for cq, cf in [(10.0, 2.0), (8.0, 2.0), (45.0, 5.0)]:
        solution = model2_solve_coupled(
            eff(0.9, 0.3, gamma2=0.5), costs(c_query=cq, c_feedback=cf), 100.0
        )
        assert solution.strategy.f == pytest.approx(math.sqrt(cq / cf), rel=1e-6)


def test_model2_coupled_depth_matches_partial_formula():
    e, c = eff(0.9, 0.3, gamma2=0.5), costs()
    solution = model2_solve_coupled(e, c, 100.0)
    assert solution.strategy.a == pytest.approx(
        a2_star_partial(solution.strategy.f, e, c), rel=1e-6
    )


# ----------------------------------------------------- solution bundles

def test_solve_model0_bundle(std_efficiency, std_costs):
    solution = solve_model0(std_efficiency, std_costs, 100.0)
    assert solution.strategy.a == pytest.approx(5.0)
    assert solution.strategy.f == 0.0
    assert gain(solution.strategy, std_efficiency) == pytest.approx(100.0, rel=1e-9)


def test_solutions_for_m2_has_partial_and_full(std_efficiency, std_costs):
    variants = {s.source.value for s in solutions_for(
        ModelKind.FEEDBACK_AFTER, std_efficiency, std_costs, 100.0)}
    assert "m2-partial" in variants
    assert "m2-full" in variants


def test_solve_model2_partial_uses_published_feedback_level(std_efficiency, std_costs):
    solution = solve_model2_partial(std_efficiency, std_costs, 100.0)
    level = f2_star(std_efficiency, std_costs).value
    assert solution.strategy.f == pytest.approx(level)
    assert solution.strategy.a == pytest.approx(
        a2_star_partial(level, std_efficiency, std_costs)
    )


def test_solve_model2_full_marks_corner_when_clamped():
    e = eff(0.9, 0.2, gamma2=0.5)
    c = costs(c_query=3.0, c_feedback=3.0)  # raw f2* = -1
    solution = solve_model2_full(e, c, 100.0)
    assert solution.corner
    assert solution.strategy.f == 0.0


# ------------------------------------------- columns against lone calls

_FORMULAS = {  # each formula and the coordinate it is given
    "a0_star": None, "a1_star": "f", "f1_star": "a", "a2_star_partial": "f",
    "a2_star_full": "f", "f2_star": None, "f2_star_coupled": "a",
}

_RAISING = [
    # alpha < beta: no baseline depth; the m2 depths and the m1 depth at
    # little feedback refuse, and a negative f and a refuse everywhere.
    dict(alpha=0.3, beta=0.5, gamma1=0.2, gamma2=0.5, c_query=10.0, c_feedback=2.0, c_assess=1.0, f=-1.0, a=-2.0),
    dict(alpha=0.4, beta=0.4, gamma1=0.3, gamma2=0.4, c_query=5.0, c_feedback=1.0, c_assess=2.0, f=0.0, a=3.0),
    dict(alpha=0.35, beta=0.9, gamma1=2.0, gamma2=0.2, c_query=1.0, c_feedback=0.5, c_assess=4.0, f=2.0, a=1.0),
    # gamma1 = 0: the m1 iterates run away (Diverged).
    dict(alpha=0.9, beta=0.3, gamma1=0.0, gamma2=0.5, c_query=10.0, c_feedback=2.0, c_assess=1.0, f=1.0, a=5.0),
    # alpha == gamma2: the m2 full-depth and feedback formulas are undefined.
    dict(alpha=0.7, beta=0.2, gamma1=0.1, gamma2=0.7, c_query=3.0, c_feedback=2.0, c_assess=1.0, f=1.5, a=2.0),
]


def _draws(raising=False):
    """200 default-region draws as rows, with the raising rows spread among
    them when ``raising``."""
    from convecon.statics import _draw_columns, default_region

    columns = _draw_columns(20261019, 200, default_region())
    rows = [{name: column[k].item() for name, column in columns.items()} for k in range(200)]
    if raising:
        for position, row in zip(range(7, 200, 40), _RAISING):
            rows.insert(position, row)
    return rows


def _as_columns(rows):
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _lone_params(row):
    return params_from_mapping({name: row[name] for name in PARAM_FIELDS})


def _outcome(result):
    """A formula's output or error, by bits."""
    if isinstance(result, EconError):
        return type(result).__name__, str(result), result.__traceback__ is None
    if isinstance(result, ClampedValue):
        return result.value.hex(), result.raw.hex(), result.corner
    return result.hex()


@pytest.mark.parametrize("name", list(_FORMULAS))
def test_column_formulas_match_lone_calls_bit_for_bit(name):
    formula = getattr(closed_form, name)
    given = _FORMULAS[name]
    for raising in (False, True):
        rows = _draws(raising)
        columns = _as_columns(rows)
        args = (() if given is None else (columns[given],)) + _param_columns(columns)
        lone = []
        for row in rows:
            try:
                result = formula(*(() if given is None else (row[given],)), *_lone_params(row))
            except EconError as exc:
                result = exc.with_traceback(None)
            lone.append(_outcome(result))
        # Instance by instance on plain floats: each lone value or error.
        assert [_outcome(r) for r in _one_by_one(formula, len(rows), *args)] == lone
        if not raising:
            result = formula(*args)
            if isinstance(result, ClampedValue):
                assert isinstance(result.corner, np.ndarray)
                got = [_outcome(ClampedValue(*pair)) for pair in zip(result.value.tolist(), result.raw.tolist())]
            else:
                got = [_outcome(value) for value in result.tolist()]
            assert got == lone
        else:
            # Some lone call raises, so the call over the columns raises.
            assert any(isinstance(outcome, tuple) and isinstance(outcome[2], bool) and outcome[1] for outcome in lone)
            with pytest.raises(EconError):
                formula(*args)


def _solution_bits(solution):
    strategy = solution.strategy
    assert type(solution.corner) is bool and type(solution.iterations) is int
    return (
        strategy.model, solution.source, strategy.q.hex(), strategy.f.hex(), strategy.a.hex(),
        solution.iterations, solution.corner, solution.raw_f, solution.raw_a,
    )


def _assert_batch_matches_lone_solves(model, rows, g):
    """The batched coupled solve over ``rows`` gives each row's lone solve,
    bit for bit, or its error; returns the kinds of outcome seen."""
    lone_solve = {ModelKind.FEEDBACK_FIRST: model1_solve, ModelKind.FEEDBACK_AFTER: model2_solve_coupled}[model]
    batch = _solve_coupled(model, *_param_columns(_as_columns(rows)), g)
    assert len(batch) == len(rows)
    seen = set()
    for row, result in zip(rows, batch):
        try:
            expected = lone_solve(*_lone_params(row), g)
        except EconError as exc:
            assert type(result) is type(exc)
            assert str(result) == str(exc)
            assert result.__traceback__ is None
            seen.add((type(exc).__name__, str(exc).split(" (")[0].split(" at ")[0]))
        else:
            assert _solution_bits(result) == _solution_bits(expected)
            seen.add("solution")
    return seen


@pytest.mark.parametrize("g", [100.0, 1e308])
@pytest.mark.parametrize("model", [ModelKind.FEEDBACK_FIRST, ModelKind.FEEDBACK_AFTER], ids=["m1", "m2"])
def test_batched_coupled_solve_matches_lone_solves_bit_for_bit(model, g):
    seen = _assert_batch_matches_lone_solves(model, _draws(raising=True), g)
    kinds = {kind if kind == "solution" else kind[0] for kind in seen}
    if g == 100.0:
        assert "solution" in kinds and "NoInteriorOptimum" in kinds
        if model is ModelKind.FEEDBACK_FIRST:
            assert "Diverged" in kinds
    else:
        # The query count overflows a float: recover_q rejects it.
        assert ("NoInteriorOptimum", "no finite query count reaches gain 1e+308") in seen


def test_batched_coupled_solve_hits_the_step_cap_as_lone_solves_do(monkeypatch):
    # One instance's columns give its lone solve too.
    assert _assert_batch_matches_lone_solves(ModelKind.FEEDBACK_FIRST, _draws()[:1], 100.0) == {"solution"}
    # A batch whose every instance fails.
    seen = _assert_batch_matches_lone_solves(ModelKind.FEEDBACK_AFTER, _RAISING[:3], 100.0)
    assert "solution" not in seen
    monkeypatch.setattr(closed_form, "_STEP_LIMIT", 40)
    for model in (ModelKind.FEEDBACK_FIRST, ModelKind.FEEDBACK_AFTER):
        seen = _assert_batch_matches_lone_solves(model, _draws(raising=True), 100.0)
        assert {"solution", ("Diverged", "fixed point not reached after 40 iterations")} <= seen


def test_batched_coupled_solve_of_no_instances_takes_one_step(monkeypatch):
    steps = []
    step = closed_form._step
    monkeypatch.setattr(closed_form, "_step", lambda *args: steps.append(args) or step(*args))
    empty = {name: np.zeros(0) for name in PARAM_FIELDS}
    assert _solve_coupled(ModelKind.FEEDBACK_AFTER, *_param_columns(empty), 100.0) == []
    assert len(steps) == 1


def test_clamp_floor_works_elementwise_with_max_operand_order():
    raw = np.array([-1.0, -0.0, 0.0, 2.5, np.nan])
    clamped = _clamp_floor(raw)
    lone = [_clamp_floor(value) for value in raw.tolist()]
    assert [value.hex() for value in clamped.value.tolist()] == [c.value.hex() for c in lone]
    assert clamped.corner.tolist() == [c.corner for c in lone]
