"""The four readers of user documents (params, grid, region, session record)
either build their value object or raise DomainError, for any JSON value in
any one field of an otherwise valid document."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convecon.core import (
    ModelKind,
    Strategy,
    ValidatedParams,
    _require_count,
    _require_finite,
    params_from_mapping,
)
from convecon.errors import DomainError
from convecon.oracle import GridSpec
from convecon.sessions import SessionLog, simulate
from convecon.statics import ParameterRegion, default_region

GOOD_PARAMS = {
    "alpha": 0.9, "beta": 0.3, "gamma1": 0.2, "gamma2": 0.5,
    "c_query": 10.0, "c_feedback": 2.0, "c_assess": 1.0,
}


def _good_record() -> dict:
    efficiency, costs = params_from_mapping(GOOD_PARAMS)
    strategy = Strategy(ModelKind.FEEDBACK_AFTER, 2, 1, 2)
    return simulate(strategy, efficiency, costs, sigma=0.1, seed=3)[0].to_dict()


# reader, a valid document, the value object it builds
READERS = {
    "params": (params_from_mapping, GOOD_PARAMS, ValidatedParams),
    "grid": (GridSpec.from_mapping, GridSpec().to_dict(), GridSpec),
    "region": (ParameterRegion.from_mapping, default_region().to_dict(), ParameterRegion),
    "session": (SessionLog.from_dict, _good_record(), SessionLog),
}

# Strings from a small alphabet that spells numbers, model codes and
# action kinds ("1e400", "m2", "query"); a full unicode alphabet adds
# seconds of set-up and no case the readers treat differently.
TEXT = st.text(alphabet="0123456789.eE+-NaInfitymquryasfdbk", max_size=8)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def _read(name, doc):
    reader, _, kind = READERS[name]
    try:
        value = reader(doc)
    except DomainError:
        return
    assert isinstance(value, kind)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_any_json_value_in_one_field_builds_or_is_domain_error(name, data):
    valid = READERS[name][1]
    key = data.draw(st.sampled_from(sorted(valid)))
    _read(name, dict(valid, **{key: data.draw(JSON_VALUES)}))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_any_json_value_as_one_region_bound_builds_or_is_domain_error(data):
    valid = READERS["region"][1]
    axis = data.draw(st.sampled_from(sorted(valid)))
    pair = list(valid[axis])
    pair[data.draw(st.sampled_from([0, 1]))] = data.draw(JSON_VALUES)
    _read("region", dict(valid, **{axis: pair}))


@pytest.mark.parametrize("value", [True, "0.7", None, [1.0]])
def test_number_rule_rejects_non_numbers(value):
    with pytest.raises(DomainError, match=r"x must be a number, got "):
        _require_finite("x", value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
def test_number_rule_rejects_non_finite(value):
    with pytest.raises(DomainError, match="x must be finite"):
        _require_finite("x", value)


@pytest.mark.parametrize("value", [1.5, -1, False])
def test_count_rule_rejects_non_counts(value):
    with pytest.raises(DomainError, match="n must be"):
        _require_count("n", value, 0)


def test_count_rule_keeps_large_integers_exact():
    assert _require_count("n", 10**20 + 1, 1) == 10**20 + 1
    assert _require_count("n", 3.0, 1) == 3
