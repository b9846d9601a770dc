"""End-to-end command-line behaviour through click's test runner."""

import contextlib
import gc
import io
import json
import math
import weakref
from dataclasses import replace

import pytest
from click.testing import CliRunner

from convecon._jsonio import format_float
from convecon.cli import main
from convecon.closed_form import model1_solve
from convecon.core import ModelKind, Strategy, load_params
from convecon.sessions import read_jsonl, simulate


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"points": 64, "refinements": 2}))
    return path


def _run(runner, args):
    result = runner.invoke(main, [str(a) for a in args])
    return result


# ---------------------------------------------------------------------------
# optimize


class TestOptimize:
    def test_baseline_solution(self, runner, params_file):
        result = _run(runner, ["optimize", "--model", "m0", "--params", params_file(), "--gain", "100"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["model"] == "m0"
        assert doc["gain_target"] == 100.0
        (entry,) = doc["solutions"]
        assert entry["variant"] == "m0"
        assert entry["f_star"] == 0.0
        assert entry["a_star"] == pytest.approx(5.0, rel=1e-12)
        assert entry["corner"] is False

    def test_feedback_after_lists_all_variants(self, runner, params_file):
        result = _run(runner, ["optimize", "--model", "m2", "--params", params_file(), "--gain", "100"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        variants = [entry["variant"] for entry in doc["solutions"]]
        assert variants == ["m2-partial", "m2-full", "m2-coupled"]

    def test_feedback_first_reports_iterations(self, runner, params_file):
        result = _run(runner, ["optimize", "--model", "m1", "--params", params_file(), "--gain", "100"])
        assert result.exit_code == 0
        (entry,) = json.loads(result.output)["solutions"]
        assert entry["variant"] == "m1-coupled"
        assert entry["iterations"] >= 1

    def test_integer_block(self, runner, params_file):
        result = _run(runner, [
            "optimize", "--model", "m0", "--params", params_file(), "--gain", "100", "--integer",
        ])
        assert result.exit_code == 0
        (entry,) = json.loads(result.output)["solutions"]
        block = entry["integer"]
        assert block["q"] == int(block["q"])
        assert block["a"] == int(block["a"])
        assert block["achieved_gain"] >= 100.0 * (1 - 1e-12)

    def test_missing_params_file_is_invalid_input(self, runner, tmp_path):
        missing = tmp_path / "nope.json"
        result = _run(runner, ["optimize", "--model", "m0", "--params", missing, "--gain", "100"])
        assert result.exit_code == 2
        assert str(missing) in result.stderr

    def test_bad_json_is_invalid_input(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = _run(runner, ["optimize", "--model", "m0", "--params", path, "--gain", "100"])
        assert result.exit_code == 2
        assert "not valid JSON" in result.stderr

    def test_no_interior_optimum_exits_three(self, runner, params_file):
        equal = params_file("equal.json", alpha=0.5, beta=0.5)
        result = _run(runner, ["optimize", "--model", "m0", "--params", equal, "--gain", "100"])
        assert result.exit_code == 3

    def test_corner_entry_keys_in_order(self, runner, params_file):
        # gamma2 < beta: f2_star's raw value is negative and clamps to zero,
        # and the full-depth variant has no interior optimum at f = 0.
        corner = params_file("corner.json", gamma2=0.1)
        result = _run(runner, [
            "optimize", "--model", "m2", "--params", corner, "--gain", "100", "--integer",
        ])
        assert result.exit_code == 0
        partial, coupled = json.loads(result.output)["solutions"]
        assert list(partial) == ["variant", "q_star", "f_star", "a_star", "corner", "raw_f", "integer"]
        assert partial["variant"] == "m2-partial"
        assert partial["corner"] is True
        assert partial["raw_f"] == pytest.approx(-2.0, rel=1e-12)
        assert list(coupled) == [
            "variant", "q_star", "f_star", "a_star", "corner", "iterations", "integer",
        ]

    def test_overflowing_query_count_exits_three(self, runner, params_file):
        tiny = params_file(
            "tiny.json", alpha=0.0068, beta=0.003, gamma1=0.1, gamma2=0.5,
            c_query=1, c_feedback=1, c_assess=1,
        )
        result = _run(runner, ["optimize", "--model", "m0", "--params", tiny, "--gain", "3.2e10"])
        assert result.exit_code == 3
        assert "overflows" in result.stderr

    def test_text_format_carries_identical_numbers(self, runner, params_file):
        path = params_file()
        as_json = _run(runner, ["optimize", "--model", "m0", "--params", path, "--gain", "100"])
        as_text = _run(runner, [
            "optimize", "--model", "m0", "--params", path, "--gain", "100", "--format", "text",
        ])
        (entry,) = json.loads(as_json.output)["solutions"]
        assert f"a_star: {format_float(entry['a_star'])}" in as_text.output
        assert f"q_star: {format_float(entry['q_star'])}" in as_text.output


# ---------------------------------------------------------------------------
# oracle


class TestOracle:
    def test_solution_with_kkt_block(self, runner, params_file, grid_file):
        result = _run(runner, [
            "oracle", "--model", "m0", "--params", params_file(), "--gain", "100",
            "--grid", grid_file,
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["a"] == pytest.approx(5.0, rel=2e-3)
        assert doc["grid"]["points"] == 64
        assert set(doc["kkt"]) == {
            "lambda", "residual_q", "residual_f", "residual_max", "constraint_rel_gap",
        }
        assert doc["kkt"]["residual_max"] <= 1e-2

    def test_integer_block(self, runner, params_file, grid_file):
        result = _run(runner, [
            "oracle", "--model", "m0", "--params", params_file(), "--gain", "100",
            "--grid", grid_file, "--integer",
        ])
        doc = json.loads(result.output)
        assert doc["integer"]["q"] == int(doc["integer"]["q"])
        assert doc["integer"]["total_cost"] >= doc["total_cost"]

    def test_unbounded_exits_three(self, runner, params_file, grid_file):
        runaway = params_file("runaway.json", alpha=0.5, gamma2=0.8)
        result = _run(runner, [
            "oracle", "--model", "m2", "--params", runaway, "--gain", "100", "--grid", grid_file,
        ])
        assert result.exit_code == 3
        assert "grid bound" in result.stderr

    @pytest.mark.parametrize("command", [
        ["oracle", "--model", "m0"], ["oracle", "--model", "m2"], ["viability"],
    ], ids=["oracle-m0", "oracle-m2", "viability"])
    def test_no_finite_cost_exits_three(self, runner, params_file, grid_file, command):
        # No finite query count reaches the gain target anywhere on the
        # lattice: a valid input with no usable optimum, not invalid input.
        tiny = params_file(
            "tiny.json", alpha=0.0068, beta=0.003, gamma1=0.1, gamma2=0.5,
            c_query=1, c_feedback=1, c_assess=1,
        )
        result = _run(runner, command + ["--params", tiny, "--gain", "3.2e10", "--grid", grid_file])
        assert result.exit_code == 3
        assert "no finite cost" in result.stderr

    @pytest.mark.parametrize("command", [
        ["oracle", "--model", "m0"], ["oracle", "--model", "m1"], ["oracle", "--model", "m2"], ["viability"],
    ], ids=["oracle-m0", "oracle-m1", "oracle-m2", "viability"])
    def test_underflowing_query_count_exits_three(self, runner, params_file, grid_file, command):
        # At alpha 0.9 the query count that reaches gain 1e-300 is below the
        # smallest float: a valid input with no usable optimum.
        result = _run(runner, command + ["--params", params_file(), "--gain", "1e-300", "--grid", grid_file])
        assert result.exit_code == 3
        assert "underflows a float to 0" in result.stderr

    @pytest.mark.parametrize("command", [["oracle", "--model", "m1"]], ids=["oracle"])
    def test_overflowing_kkt_gradient_exits_three(self, runner, params_file, command):
        # At gain 1e308 the m1 optimum (q ~ 2.72, f ~ 3542, a ~ 3.00) is
        # finite, but the gain gradient at it overflows a float, so there is
        # no KKT report to write. A sweep prints no report and writes its
        # table (TestSweep).
        result = _run(runner, command + ["--params", params_file(), "--gain", "1e308"])
        assert result.exit_code == 3
        assert "gain gradient" in result.stderr
        assert "overflows a float" in result.stderr

    def test_overflowing_integer_candidate_exits_three(self, runner, params_file):
        # The optimum is q ~ 1.016, f ~ 5014; the integer candidate q = 2
        # raises q to a power over 1000, which overflows a float.
        steep = params_file(
            "steep.json", alpha=0.8716648111547015, beta=0.39182507097828484,
            gamma1=0.21636730541808963, gamma2=0.48983090551237896, c_query=429.0530275749106,
            c_feedback=0.001366804416105897, c_assess=0.00511247694924416,
        )
        result = _run(runner, ["oracle", "--model", "m1", "--params", steep, "--gain", "1e8", "--integer"])
        assert result.exit_code == 3
        assert "overflows a float" in result.stderr
        assert not isinstance(result.exception, OverflowError)

    def test_bad_grid_file_is_invalid_input(self, runner, params_file, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"points": 64, "zoom": 3}))
        result = _run(runner, [
            "oracle", "--model", "m0", "--params", params_file(), "--gain", "100", "--grid", grid,
        ])
        assert result.exit_code == 2
        assert "unknown field" in result.stderr

    def test_deterministic_output_files(self, runner, params_file, grid_file, tmp_path):
        path = params_file()
        out1, out2 = tmp_path / "sol1.json", tmp_path / "sol2.json"
        for out in (out1, out2):
            result = _run(runner, [
                "oracle", "--model", "m2", "--params", path, "--gain", "100",
                "--grid", grid_file, "--output", out,
            ])
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# audit


class TestAudit:
    def test_report_file_and_summary(self, runner, tmp_path):
        out = tmp_path / "audit.json"
        result = _run(runner, ["audit", "--samples", "20", "--seed", "3", "--output", out])
        assert result.exit_code == 0
        assert "M0-1" in result.output
        assert "agreement" in result.output
        doc = json.loads(out.read_text())
        assert doc["meta"]["samples"] == 20
        assert len(doc["claims"]) == 22

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
        for out in (out1, out2):
            result = _run(runner, ["audit", "--samples", "20", "--seed", "3", "--output", out])
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_custom_region_file(self, runner, tmp_path):
        region = {
            "alpha": [0.7, 0.9], "beta": [0.1, 0.3], "gamma1": [0.05, 0.2],
            "gamma2": [0.4, 0.6], "c_query": [5.0, 20.0], "c_feedback": [1.0, 4.0],
            "c_assess": [0.5, 2.0], "f": [1.0, 3.0], "a": [2.0, 10.0],
        }
        region_path = tmp_path / "region.json"
        region_path.write_text(json.dumps(region))
        out = tmp_path / "audit.json"
        result = _run(runner, [
            "audit", "--samples", "10", "--region", region_path, "--output", out,
        ])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["meta"]["region"] == region

    def test_bad_region_is_invalid_input(self, runner, tmp_path):
        region_path = tmp_path / "region.json"
        region_path.write_text(json.dumps({"alpha": [0.7, 0.9]}))
        result = _run(runner, ["audit", "--region", region_path, "--output", tmp_path / "x.json"])
        assert result.exit_code == 2
        assert "missing axis" in result.stderr

        region = {axis: [1.0, 2.0] for axis in ("gamma1", "c_query", "c_feedback", "c_assess", "f", "a")}
        region.update(alpha=["x", 0.9], beta=[0.1, 0.3], gamma2=[0.4, 0.6])
        region_path.write_text(json.dumps(region))
        result = _run(runner, ["audit", "--region", region_path, "--output", tmp_path / "x.json"])
        assert result.exit_code == 2
        assert f"{region_path}: region axis alpha lo must be a number, got 'x'" in result.stderr


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_csv_output(self, runner, params_file, grid_file):
        result = _run(runner, [
            "sweep", "--model", "m0", "--params", params_file(), "--vary", "c_query",
            "--lo", "0.5", "--hi", "2.5", "--steps", "5", "--gain", "100", "--grid", grid_file,
        ])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "c_query,a0_star,oracle_f,oracle_a,total_cost,achieved_gain"
        assert len(lines) == 6

    def test_json_output(self, runner, params_file, grid_file):
        result = _run(runner, [
            "sweep", "--model", "m0", "--params", params_file(), "--vary", "c_query",
            "--lo", "0.5", "--hi", "2.5", "--steps", "3", "--gain", "100",
            "--grid", grid_file, "--format", "json",
        ])
        doc = json.loads(result.output)
        assert doc["vary"] == "c_query"
        assert len(doc["rows"]) == 3
        assert doc["columns"][0] == "c_query"

    def test_custom_targets(self, runner, params_file, grid_file):
        result = _run(runner, [
            "sweep", "--model", "m2", "--params", params_file(), "--vary", "gamma2",
            "--lo", "0.45", "--hi", "0.75", "--steps", "3", "--gain", "100",
            "--grid", grid_file, "--targets", "f2_star",
        ])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "gamma2,f2_star,oracle_f,oracle_a,total_cost,achieved_gain"

    def test_any_model_takes_every_closed_form_column(self, runner, params_file, grid_file):
        path = params_file()
        result = _run(runner, [
            "sweep", "--model", "m0", "--params", path, "--vary", "c_query",
            "--lo", "5", "--hi", "20", "--steps", "3", "--gain", "100",
            "--grid", grid_file, "--targets", "m1_f_star,m1_a_star", "--format", "json",
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["columns"][:3] == ["c_query", "m1_f_star", "m1_a_star"]
        efficiency, costs = load_params(path)
        for row in doc["rows"]:
            pair = model1_solve(efficiency, replace(costs, c_query=row[0]), 100.0).strategy
            assert row[1:3] == [pair.f, pair.a]

    def test_unknown_target_is_invalid_input(self, runner, params_file, grid_file):
        result = _run(runner, [
            "sweep", "--model", "m0", "--params", params_file(), "--vary", "c_query",
            "--lo", "1", "--hi", "2", "--steps", "2", "--gain", "100",
            "--grid", grid_file, "--targets", "a9_star",
        ])
        assert result.exit_code == 2

    def test_overflowing_kkt_gradient_still_writes_the_table(self, runner, params_file):
        # At gain 1e308 the gain gradient at the m1 optimum overflows a float,
        # so no KKT report exists; a sweep prints none and needs none.
        result = _run(runner, [
            "sweep", "--model", "m1", "--params", params_file(), "--vary", "c_query",
            "--lo", "5", "--hi", "10", "--steps", "2", "--gain", "1e308", "--format", "json",
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(doc["rows"]) == 2
        assert all(math.isfinite(value) for row in doc["rows"] for value in row)
        first = dict(zip(doc["columns"], doc["rows"][0]))
        assert first["oracle_f"] == pytest.approx(3539, rel=1e-3)
        assert first["achieved_gain"] == pytest.approx(1e308, rel=1e-9)

    def test_earliest_failing_step_decides_the_error(self, runner, params_file):
        # beta takes 0.5, 0.733, 0.967 and 1.2. Step 3 has no baseline depth
        # (alpha 0.9 < beta: exit 3); step 4 is out of beta's domain (exit 2)
        # and must not be reported first.
        result = _run(runner, [
            "sweep", "--model", "m0", "--params", params_file(), "--vary", "beta",
            "--lo", "0.5", "--hi", "1.2", "--steps", "4", "--gain", "100",
        ])
        assert result.exit_code == 3
        assert "baseline depth requires alpha > beta" in result.stderr


# ---------------------------------------------------------------------------
# simulate and fit


class TestSimulateAndFit:
    def test_simulate_emits_jsonl(self, runner, params_file):
        result = _run(runner, [
            "simulate", "--model", "m2", "--params", params_file(),
            "--q", "1", "--f", "2", "--a", "2", "--n", "2",
        ])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 2
        first = read_jsonl(io.StringIO(result.output))[0]
        assert first.model is ModelKind.FEEDBACK_AFTER
        assert [a.kind.value for a in first.actions] == [
            "query", "assess", "assess",
            "feedback", "assess", "assess",
            "feedback", "assess", "assess",
        ]

    def test_simulate_rerun_is_byte_identical(self, runner, params_file, tmp_path):
        path = params_file()
        out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        for out in (out1, out2):
            result = _run(runner, [
                "simulate", "--model", "m1", "--params", path,
                "--q", "3", "--f", "1", "--a", "2", "--sigma", "0.3",
                "--seed", "17", "--n", "5", "--output", out,
            ])
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_round_trip(self, runner, params_file, tmp_path):
        path = params_file()
        merged = tmp_path / "all.jsonl"
        chunks = []
        for q, a in ((2, 2), (4, 3), (8, 2), (2, 5)):
            out = tmp_path / f"part{q}_{a}.jsonl"
            result = _run(runner, [
                "simulate", "--model", "m0", "--params", path,
                "--q", q, "--a", a, "--output", out,
            ])
            assert result.exit_code == 0
            chunks.append(out.read_text())
        merged.write_text("".join(chunks))
        result = _run(runner, ["fit", "--logs", merged, "--kind", "both"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["gain"]["alpha_hat"] == pytest.approx(0.9, abs=1e-9)
        assert doc["gain"]["beta_hat"] == pytest.approx(0.3, abs=1e-9)
        assert doc["cost"]["cq_hat"] == pytest.approx(10.0, rel=1e-9)
        assert doc["cost"]["ca_hat"] == pytest.approx(1.0, rel=1e-9)

    def test_fit_single_point_exits_four(self, runner, params_file, tmp_path):
        out = tmp_path / "one.jsonl"
        result = _run(runner, [
            "simulate", "--model", "m0", "--params", params_file(),
            "--q", "4", "--a", "2", "--n", "5", "--output", out,
        ])
        assert result.exit_code == 0
        result = _run(runner, ["fit", "--logs", out, "--kind", "gain"])
        assert result.exit_code == 4
        assert "distinct design point" in result.stderr

    def test_fit_model_mismatch_exits_two(self, runner, params_file, tmp_path):
        out = tmp_path / "m0.jsonl"
        _run(runner, [
            "simulate", "--model", "m0", "--params", params_file(),
            "--q", "4", "--a", "2", "--output", out,
        ])
        result = _run(runner, ["fit", "--logs", out, "--kind", "gain", "--model", "m1"])
        assert result.exit_code == 2
        assert "logs are m0, not m1" in result.stderr

    def test_simulate_overflowing_gain_exits_two(self, runner, params_file):
        result = _run(runner, [
            "simulate", "--model", "m1", "--params", params_file(), "--q", "2", "--f", "6000", "--a", "1",
        ])
        assert result.exit_code == 2
        assert "gain overflows a float at q=2.0, f=6000.0, a=1.0" in result.stderr
        assert not isinstance(result.exception, OverflowError)

    def test_simulate_rejects_zero_queries(self, runner, params_file):
        result = _run(runner, [
            "simulate", "--model", "m0", "--params", params_file(), "--q", "0", "--a", "2",
        ])
        assert result.exit_code == 2


# ---------------------------------------------------------------------------
# viability


class TestViability:
    def test_flat_feedback_recommends_baseline(self, runner, params_file, grid_file):
        flat = params_file("flat.json", gamma1=0.0, gamma2=0.0)
        result = _run(runner, [
            "viability", "--params", flat, "--gain", "100", "--grid", grid_file,
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["cheapest"] == "m0"
        assert doc["worthwhile"] == {"m1": False, "m2": False}
        assert doc["costs"]["m0"] <= doc["costs"]["m1"]

    def test_unbounded_model_reported_not_comparable(self, runner, params_file, grid_file):
        runaway = params_file("runaway.json", alpha=0.5, gamma1=0.0, gamma2=0.8)
        result = _run(runner, [
            "viability", "--params", runaway, "--gain", "100", "--grid", grid_file,
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["not_comparable"] == ["m2"]
        assert doc["costs"]["m2"] is None

    def test_in_process_call_keeps_no_stdout_buffer(self, params_file, grid_file):
        # A caller that runs commands in-process and redirects standard
        # output must get its buffer back: nothing may cache the stream.
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main.main(
                ["viability", "--params", str(params_file()), "--gain", "100", "--grid", str(grid_file)],
                standalone_mode=False,
            )
        assert json.loads(buffer.getvalue())["cheapest"] in ("m0", "m1", "m2")
        kept = weakref.ref(buffer)
        del buffer
        gc.collect()
        assert kept() is None


# ---------------------------------------------------------------------------
# files the user names


@pytest.mark.parametrize("option", ["--params", "--grid", "--region", "--logs"])
@pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
def test_unreadable_file_is_invalid_input(runner, params_file, tmp_path, option, unreadable):
    bad = tmp_path / "bad"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe{")
    args = {
        "--params": ["viability", "--params", bad, "--gain", "100"],
        "--grid": ["oracle", "--model", "m0", "--params", params_file(), "--gain", "100", "--grid", bad],
        "--region": ["audit", "--region", bad, "--output", tmp_path / "audit.json"],
        "--logs": ["fit", "--logs", bad],
    }[option]
    result = _run(runner, args)
    assert result.exit_code == 2
    assert f"file {bad}" in result.stderr


# ---------------------------------------------------------------------------
# malformed values in the files a user names


def _assert_invalid_input(result, *named):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    for text in named:
        assert text in result.stderr


@pytest.mark.parametrize("grid_text", ['{"points": 1e400}', '{"points": NaN}', '{"refinements": 1e400}'])
@pytest.mark.parametrize("command", ["oracle", "audit"])
def test_non_finite_grid_count_is_invalid_input(runner, params_file, tmp_path, grid_text, command):
    grid = tmp_path / "grid.json"
    grid.write_text(grid_text)
    args = {
        "oracle": ["oracle", "--model", "m0", "--params", params_file(), "--gain", "100"],
        "audit": ["audit", "--samples", "1", "--output", tmp_path / "audit.json"],
    }[command]
    result = _run(runner, args + ["--grid", grid])
    _assert_invalid_input(result, f"{grid}: grid ", "must be finite")


def _record_lines(params_path):
    """Three m0 sessions at distinct (q, a): enough design for either fit."""
    efficiency, costs = load_params(params_path)
    return [
        json.dumps(simulate(Strategy(ModelKind.BASELINE, q, 0, a), efficiency, costs)[0].to_dict())
        for q, a in ((2, 3), (4, 2), (5, 7))
    ]


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("both", None, 123),
        ("both", None, None),
        ("both", "q", "abc"),
        ("both", "q", None),
        ("both", "session_id", "x"),
        ("cost", "realized_cost", float("nan")),
        ("gain", "realized_gain", float("inf")),
        ("both", "session_id", 1.5),
        ("both", "q", True),
        ("both", "schema", 3),
        ("cost", "c_query", float("nan")),
    ],
)
def test_malformed_log_record_is_invalid_input(runner, params_file, tmp_path, kind, field, value):
    lines = _record_lines(params_file())
    record = json.loads(lines[2])
    if field is None:
        record = value
    else:
        record[field] = value
    lines[2] = json.dumps(record)
    logs = tmp_path / "logs.jsonl"
    logs.write_text("\n".join(lines) + "\n")
    result = _run(runner, ["fit", "--logs", logs, "--kind", kind])
    _assert_invalid_input(result, f"{logs}:3: ")


@pytest.mark.parametrize("kind", ["cost", "both"])
def test_cost_design_that_overflows_is_invalid_input(runner, params_file, tmp_path, kind):
    # Each count is finite, but q*f and q*(1+f)*a of the last record overflow.
    efficiency, costs = load_params(params_file())
    records = [
        simulate(Strategy(ModelKind.FEEDBACK_AFTER, q, f, a), efficiency, costs)[0].to_dict()
        for q, f, a in ((2, 0, 3), (4, 1, 2), (5, 2, 7), (3, 1, 2))
    ]
    records[3]["q"] = records[3]["f"] = 1e300
    logs = tmp_path / "logs.jsonl"
    logs.write_text("".join(json.dumps(record) + "\n" for record in records))
    result = _run(runner, ["fit", "--logs", logs, "--kind", kind])
    _assert_invalid_input(result, "a design value overflows a float")


def test_trace_record_from_before_schema_2_is_invalid_input(runner, tmp_path):
    logs = tmp_path / "old.jsonl"
    logs.write_text(
        '{"session_id": 0, "model": "m0", "q": 1, "f": 0, "a": 1, "realized_gain": 1, "realized_cost": 11, '
        '"actions": [{"step": 0, "kind": "query", "unit_cost": 10}, {"step": 1, "kind": "assess", "unit_cost": 1}]}\n'
    )
    result = _run(runner, ["fit", "--logs", logs, "--kind", "cost"])
    _assert_invalid_input(result, f"{logs}:1: unknown field(s): actions")


def test_simulate_query_count_too_large_for_a_float_is_invalid_input(runner, params_file):
    result = _run(runner, [
        "simulate", "--model", "m0", "--params", params_file(), "--q", "1" + "0" * 400, "--a", "1",
    ])
    _assert_invalid_input(result, "q must be finite")


# ---------------------------------------------------------------------------
# group-level behaviour


def test_version_flag(runner):
    result = _run(runner, ["--version"])
    assert result.exit_code == 0
    assert "version" in result.output


def test_help_documents_exit_codes(runner):
    result = _run(runner, ["--help"])
    assert result.exit_code == 0
    assert "Exit codes: 0 success" in result.output
    assert "4 insufficient" in result.output
