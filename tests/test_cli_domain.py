"""Every subcommand, on inputs anywhere in the documented domain, exits with
a documented code (0, 2, 3 or 4) and prints or writes only finite numbers."""

import json
import math
import re
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convecon.cli import main
from convecon.core import PARAM_FIELDS

README_PARAMS = {
    "alpha": 0.9, "beta": 0.3, "gamma1": 0.2, "gamma2": 0.5,
    "c_query": 10.0, "c_feedback": 2.0, "c_assess": 1.0,
}
DOCUMENTED_EXITS = {0, 2, 3, 4}
COMMANDS = ("optimize", "oracle", "viability", "sweep", "simulate", "audit")


def _powers(lo, hi):
    """10 to a power drawn uniformly from [lo, hi]."""
    return st.floats(lo, hi).map(lambda exponent: 10.0 ** exponent)


# Each parameter over its whole domain: its ends, a log-uniform draw over
# it, and a draw near the README values, where most questions have answers.
UNIT = st.sampled_from([1e-300, 1.0]) | _powers(-300.0, 0.0) | st.floats(0.01, 1.0)
POSITIVE = st.sampled_from([1e-300, 1e300]) | _powers(-300.0, 300.0) | _powers(-2.0, 2.0)
DOMAINS = {
    "alpha": UNIT,
    "beta": UNIT,
    "gamma1": st.just(0.0) | POSITIVE,
    "gamma2": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    "c_query": POSITIVE,
    "c_feedback": POSITIVE,
    "c_assess": POSITIVE,
}
PARAMS = st.fixed_dictionaries(DOMAINS)
# Small grids anywhere in the domain; None is the command's default grid.
GRIDS = st.none() | st.tuples(
    st.floats(-300.0, 290.0), st.floats(0.01, 10.0), st.integers(2, 6), st.integers(0, 2),
).map(lambda t: {"min": 10.0 ** t[0], "max": 10.0 ** (t[0] + t[1]), "points": t[2], "refinements": t[3]})
# The options of sweep (vary, lo, hi), simulate (q, f, a, sigma, n, seed)
# and audit (samples, seed).
KNOBS = st.fixed_dictionaries({
    "vary": st.sampled_from(PARAM_FIELDS),
    "ends": st.tuples(POSITIVE, POSITIVE),
    "q": st.integers(1, 10**12),
    "f": st.integers(0, 1000),
    "a": st.integers(1, 10**6),
    "sigma": st.just(0.0) | st.floats(0.0, 10.0) | _powers(-300.0, 300.0),
    "n": st.integers(1, 3),
    "seed": st.integers(0, 2**32),
    "samples": st.integers(1, 3),
})
KNOB_DEFAULTS = {
    "vary": "c_query", "ends": (5.0, 10.0), "q": 1, "f": 0, "a": 1,
    "sigma": 0.0, "n": 1, "seed": 0, "samples": 1,
}
# Domain edges that once ended in a traceback or a misreport: underflowing
# closed-form denominators, a baseline depth past the largest float, and
# session gains and costs past it.
TINY = {**README_PARAMS, "alpha": 1e-300, "beta": 1e-301, "gamma2": 0.0, "c_feedback": 1e-300}
HUGE_DEPTH = {**README_PARAMS, "c_query": 1e300, "c_assess": 1e-300}


def _finite_json(text):
    """Parse a JSON document, refusing NaN and infinite numbers."""
    def refuse(token):
        raise AssertionError(f"non-finite number {token} in {text!r}")

    doc = json.loads(text, parse_constant=refuse)
    _assert_finite(doc)
    return doc


def _assert_finite(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for value in doc:
            _assert_finite(value)
    elif isinstance(doc, float):
        assert math.isfinite(doc), doc


def _commands(command, model, params, gain, grid, knobs, folder):
    """The argument lists to run, in order, and a check per list of what it
    printed or wrote."""
    (folder / "params.json").write_text(json.dumps(params))
    common = ["--params", folder / "params.json", "--gain", repr(gain)]
    grid_args = []
    if grid is not None:
        (folder / "grid.json").write_text(json.dumps(grid))
        grid_args = ["--grid", folder / "grid.json"]
    if command == "optimize":
        return [(["optimize", "--model", model, *common, "--integer"], _finite_json)]
    if command == "oracle":
        return [(["oracle", "--model", model, *common, *grid_args, "--integer"], _finite_json)]
    if command == "viability":
        return [(["viability", *common, *grid_args], _finite_json)]
    if command == "sweep":
        lo, hi = sorted(knobs["ends"])
        args = ["sweep", "--model", model, *common, "--vary", knobs["vary"], "--lo", repr(lo), "--hi", repr(hi),
                "--steps", "3", *grid_args, "--format", "json"]
        return [(args, _finite_json)]
    if command == "simulate":
        logs = folder / "logs.jsonl"

        def records(_):
            for line in logs.read_text().splitlines():
                _finite_json(line)

        simulate = ["simulate", "--model", model, "--params", folder / "params.json"]
        simulate += [f"--{name}={knobs[name]!r}" for name in ("q", "f", "a", "sigma", "seed", "n")]
        return [(simulate + ["--output", logs], records), (["fit", "--logs", logs], _finite_json)]
    report = folder / "audit.json"

    def audited(stdout):
        _finite_json(report.read_text())
        assert not re.search(r"\b(nan|inf)\b", stdout, re.IGNORECASE), stdout

    args = ["audit", "--samples", str(knobs["samples"]), "--seed", str(knobs["seed"]), "--gain", repr(gain)]
    return [(args + [*grid_args, "--output", report], audited)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    command=st.sampled_from(COMMANDS),
    model=st.sampled_from(["m0", "m1", "m2"]),
    params=PARAMS,
    gain=st.sampled_from([1e-300, 1e300]) | _powers(-300.0, 300.0) | _powers(0.0, 6.0),
    grid=GRIDS,
    knobs=KNOBS,
)
@example(command="optimize", model="m2", params=TINY, gain=100.0, grid=None, knobs=KNOB_DEFAULTS)
@example(command="sweep", model="m2", params=TINY, gain=100.0, grid=None, knobs=KNOB_DEFAULTS)
@example(command="optimize", model="m0", params=HUGE_DEPTH, gain=100.0, grid=None, knobs=KNOB_DEFAULTS)
@example(
    command="simulate", model="m0", params=README_PARAMS, gain=100.0, grid=None,
    knobs={**KNOB_DEFAULTS, "sigma": 1000.0, "n": 3},
)
@example(
    command="simulate", model="m0", params={**README_PARAMS, "c_query": 1e300}, gain=100.0, grid=None,
    knobs={**KNOB_DEFAULTS, "q": 10**9},
)
@example(  # the KKT report's constraint gap overflows
    command="oracle", model="m1", gain=1e-300, knobs=KNOB_DEFAULTS,
    params={**README_PARAMS, "alpha": 0.3164863526742556, "beta": 1.0, "gamma1": 1.0, "c_query": 1e300},
    grid={"min": 3.496796437996721e73, "max": 4.4022058956653417e74, "points": 5, "refinements": 2},
)
@example(  # the integer strategy's cost overflows
    command="optimize", model="m0", gain=4.865804105638506e210, grid=None, knobs=KNOB_DEFAULTS,
    params={**README_PARAMS, "alpha": 1.0, "beta": 0.4143151101735932, "c_query": 1e300},
)
def test_every_command_exits_documented_with_finite_numbers(command, model, params, gain, grid, knobs):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as folder:
        for args, check in _commands(command, model, params, gain, grid, knobs, Path(folder)):
            result = runner.invoke(main, [str(arg) for arg in args])
            assert result.exit_code in DOCUMENTED_EXITS, (args, result.output, result.exception)
            if result.exit_code:
                break
            check(result.stdout)
