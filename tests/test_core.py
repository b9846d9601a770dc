import math
from dataclasses import replace

import numpy as np
import pytest

from convecon.core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    cost,
    gain,
    load_params,
    params_from_mapping,
    params_to_mapping,
)
from convecon.errors import DomainError


def test_validate_rejects_zero_alpha():
    with pytest.raises(DomainError, match="alpha must be > 0"):
        EfficiencyParams(alpha=0.0, beta=0.3)


def test_validate_rejects_negative_assess_cost():
    with pytest.raises(DomainError, match="c_assess must be > 0"):
        CostParams(c_query=10.0, c_feedback=2.0, c_assess=-1.0)


@pytest.mark.parametrize("field,value", [
    ("alpha", 1.5),
    ("beta", 0.0),
    ("gamma1", -0.1),
    ("gamma2", 1.2),
])
def test_efficiency_bounds(field, value):
    kwargs = {"alpha": 0.9, "beta": 0.3, "gamma1": 0.1, "gamma2": 0.5}
    kwargs[field] = value
    with pytest.raises(DomainError, match=field):
        EfficiencyParams(**kwargs)


def test_gain_baseline_linear_case():
    eff = EfficiencyParams(alpha=1.0, beta=1.0)
    assert gain(Strategy(ModelKind.BASELINE, 2, 0, 3), eff) == pytest.approx(6.0)


def test_gain_feedback_after_reverts_at_f0():
    eff = EfficiencyParams(alpha=0.5, beta=0.5, gamma2=0.7)
    value = gain(Strategy(ModelKind.FEEDBACK_AFTER, 4, 0, 2), eff)
    assert value == pytest.approx(2.0 * math.sqrt(2.0))


def test_gain_feedback_first_example():
    eff = EfficiencyParams(alpha=0.6, beta=0.5, gamma1=0.1)
    value = gain(Strategy(ModelKind.FEEDBACK_FIRST, 10, 2, 1), eff)
    assert value == pytest.approx(10.0 ** 0.8)


def test_cost_examples():
    s0 = Strategy(ModelKind.BASELINE, 2, 0, 3)
    assert cost(s0, CostParams(c_query=10.0, c_feedback=1.0, c_assess=2.0)) == pytest.approx(32.0)
    unit = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    assert cost(Strategy(ModelKind.FEEDBACK_FIRST, 2, 3, 4), unit) == pytest.approx(40.0)
    assert cost(Strategy(ModelKind.FEEDBACK_AFTER, 2, 3, 4), unit) == pytest.approx(64.0)


def test_zero_strategy_is_defined():
    # Degenerate all-zero strategies evaluate (no trap); zero exponents use
    # the 0^0 = 1 convention, e.g. the feedback factor (1+f)^0 stays 1.
    eff = EfficiencyParams(alpha=0.5, beta=0.5)
    assert gain(Strategy(ModelKind.BASELINE, 0, 0, 0), eff) == 0.0
    assert cost(Strategy(ModelKind.BASELINE, 0, 0, 0),
                CostParams(c_query=1.0, c_feedback=1.0, c_assess=1.0)) == 0.0
    no_benefit = EfficiencyParams(alpha=0.5, beta=0.5, gamma2=0.0)
    with_f = gain(Strategy(ModelKind.FEEDBACK_AFTER, 4, 3, 2), no_benefit)
    without = gain(Strategy(ModelKind.BASELINE, 4, 0, 2), no_benefit)
    assert with_f == pytest.approx(without, rel=1e-15)


def test_baseline_strategy_requires_zero_f():
    with pytest.raises(DomainError, match="baseline"):
        Strategy(ModelKind.BASELINE, 2, 1, 3)


def _random_draws(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        eff = EfficiencyParams(
            alpha=rng.uniform(0.2, 0.99),
            beta=rng.uniform(0.05, 0.99),
            gamma1=rng.uniform(0.0, 0.5),
            gamma2=rng.uniform(0.0, 0.99),
        )
        costs = CostParams(
            c_query=rng.uniform(0.1, 50.0),
            c_feedback=rng.uniform(0.1, 20.0),
            c_assess=rng.uniform(0.1, 20.0),
        )
        q = rng.uniform(0.5, 100.0)
        a = rng.uniform(0.5, 50.0)
        yield eff, costs, q, a


def test_reduction_f0_matches_baseline():
    """m1 and m2 with f=0 must coincide with m0 in both gain and cost."""
    for eff, costs, q, a in _random_draws(200, seed=11):
        base = Strategy(ModelKind.BASELINE, q, 0, a)
        g0, c0 = gain(base, eff), cost(base, costs)
        for model in (ModelKind.FEEDBACK_FIRST, ModelKind.FEEDBACK_AFTER):
            s = Strategy(model, q, 0, a)
            assert abs(gain(s, eff) - g0) <= 1e-12 * g0
            assert abs(cost(s, costs) - c0) <= 1e-12 * c0


def test_gain_monotone_in_each_count():
    for eff, costs, q, a in _random_draws(50, seed=12):
        for model in ModelKind:
            f = 0.0 if model is ModelKind.BASELINE else 2.0
            s = Strategy(model, q, f, a)
            base = gain(s, eff)
            assert gain(replace(s, q=q * 1.1), eff) > base
            assert gain(replace(s, a=a * 1.1), eff) > base
            if model is not ModelKind.BASELINE:
                boosted = gain(replace(s, f=f + 1.0), eff)
                gamma = eff.gamma1 if model is ModelKind.FEEDBACK_FIRST else eff.gamma2
                # m1's feedback raises the *query* exponent, so it only helps
                # when q > 1 (d gain/d f = gamma1 * ln(q) * gain); m2's
                # multiplier (1+f)^gamma2 helps unconditionally.
                helps = q > 1.0 if model is ModelKind.FEEDBACK_FIRST else True
                if gamma > 0 and helps:
                    assert boosted > base


def test_diminishing_returns():
    for eff, costs, q, a in _random_draws(50, seed=13):
        if eff.alpha >= 1.0 or eff.beta >= 1.0:
            continue
        s = Strategy(ModelKind.BASELINE, q, 0, a)
        assert gain(replace(s, q=2 * q), eff) < 2.0 * gain(s, eff)
        assert gain(replace(s, a=2 * a), eff) < 2.0 * gain(s, eff)


def test_gain_homogeneity_and_cost_degree_one():
    for eff, costs, q, a in _random_draws(50, seed=14):
        k = 3.7
        for model in (ModelKind.BASELINE, ModelKind.FEEDBACK_AFTER):
            f = 0.0 if model is ModelKind.BASELINE else 1.5
            s = Strategy(model, q, f, a)
            scaled = replace(s, q=k * q)
            assert gain(scaled, eff) == pytest.approx(k ** eff.alpha * gain(s, eff), rel=1e-12)
            assert cost(scaled, costs) == pytest.approx(k * cost(s, costs), rel=1e-12)


def test_cost_increasing_in_counts_and_prices():
    eff = EfficiencyParams(alpha=0.9, beta=0.3, gamma2=0.5)
    costs = CostParams(c_query=10.0, c_feedback=2.0, c_assess=1.0)
    s = Strategy(ModelKind.FEEDBACK_AFTER, 5, 2, 4)
    base = cost(s, costs)
    assert cost(replace(s, q=6), costs) > base
    assert cost(replace(s, f=3), costs) > base
    assert cost(replace(s, a=5), costs) > base
    assert cost(s, CostParams(11.0, 2.0, 1.0)) > base
    assert cost(s, CostParams(10.0, 2.5, 1.0)) > base
    assert cost(s, CostParams(10.0, 2.0, 1.5)) > base


class TestParamsIO:
    GOOD = {
        "alpha": 0.9, "beta": 0.3, "gamma1": 0.2, "gamma2": 0.5,
        "c_query": 10.0, "c_feedback": 2.0, "c_assess": 1.0,
    }

    def test_round_trip(self):
        params = params_from_mapping(self.GOOD)
        assert params_to_mapping(params) == self.GOOD

    def test_unknown_field_rejected(self):
        data = dict(self.GOOD, extra=1.0)
        with pytest.raises(DomainError, match="unknown field"):
            params_from_mapping(data)

    def test_missing_field_rejected(self):
        data = dict(self.GOOD)
        del data["c_feedback"]
        with pytest.raises(DomainError, match="missing field.*c_feedback"):
            params_from_mapping(data)

    def test_boolean_value_rejected(self):
        data = dict(self.GOOD, alpha=True)
        with pytest.raises(DomainError, match="alpha must be a number"):
            params_from_mapping(data)

    def test_load_params_names_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(DomainError, match="nope.json"):
            load_params(missing)

    def test_load_params_reads_file(self, params_file):
        path = params_file()
        efficiency, costs = load_params(path)
        assert efficiency.alpha == 0.9
        assert costs.c_query == 10.0

    def test_load_params_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DomainError, match="not valid JSON"):
            load_params(path)
