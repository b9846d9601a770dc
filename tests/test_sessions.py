"""Session simulation, JSONL round trips, estimation, and the viability call."""

import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convecon import oracle
from convecon import (
    ActionKind,
    CostParams,
    DomainError,
    EfficiencyParams,
    InsufficientDesign,
    ModelKind,
    SessionLog,
    Strategy,
    cost,
    fit_cost_params,
    fit_gain_params,
    gain,
    minimize_cost,
    read_jsonl,
    simulate,
    viability,
    write_jsonl,
)

M0 = ModelKind.BASELINE
M1 = ModelKind.FEEDBACK_FIRST
M2 = ModelKind.FEEDBACK_AFTER


def _kinds(log):
    return "".join(action.kind.value[0] for action in log.actions)


# ---------------------------------------------------------------------------
# Action grammar


class TestActionGrammar:
    def test_baseline_trace(self, std_efficiency, std_costs):
        (log,) = simulate(Strategy(M0, 2, 0, 3), std_efficiency, std_costs)
        assert _kinds(log) == "qaaaqaaa"

    def test_feedback_first_trace(self, std_efficiency, std_costs):
        # Feedback sharpens the query before results, so it sits between
        # the query and that query's assessments.
        (log,) = simulate(Strategy(M1, 2, 1, 2), std_efficiency, std_costs)
        assert _kinds(log) == "qfaaqfaa"

    def test_feedback_after_trace(self, std_efficiency, std_costs):
        # Each feedback round triggers a fresh result list, so every one of
        # them is followed by a full assessment pass: 1 + 2*(1+2) + 2 = 9.
        (log,) = simulate(Strategy(M2, 1, 2, 2), std_efficiency, std_costs)
        assert _kinds(log) == "qaafaafaa"
        assert len(log.actions) == 9

    def test_steps_are_contiguous(self, std_efficiency, std_costs):
        (log,) = simulate(Strategy(M2, 3, 2, 4), std_efficiency, std_costs)
        assert [action.step for action in log.actions] == list(range(len(log.actions)))

    @pytest.mark.parametrize(
        "strategy",
        [Strategy(M0, 3, 0, 2), Strategy(M1, 2, 3, 2), Strategy(M2, 2, 2, 3)],
    )
    def test_action_counts_match_cost_identities(self, strategy, std_efficiency, std_costs):
        (log,) = simulate(strategy, std_efficiency, std_costs)
        tally = {kind: 0 for kind in ActionKind}
        for action in log.actions:
            tally[action.kind] += 1
        q, f, a = strategy.q, strategy.f, strategy.a
        assert tally[ActionKind.QUERY] == q
        assert tally[ActionKind.FEEDBACK] == q * f
        if strategy.model is M2:
            assert tally[ActionKind.ASSESS] == q * (1 + f) * a
        else:
            assert tally[ActionKind.ASSESS] == q * a

    def test_unit_costs_sum_to_realized_cost(self, std_efficiency, std_costs):
        (log,) = simulate(Strategy(M2, 3, 2, 4), std_efficiency, std_costs)
        total = math.fsum(action.unit_cost for action in log.actions)
        assert total == pytest.approx(log.realized_cost, rel=1e-12)


# ---------------------------------------------------------------------------
# Simulation semantics


class TestSimulate:
    def test_realized_cost_is_the_formula(self, std_efficiency, std_costs):
        strategy = Strategy(M2, 4, 1, 3)
        (log,) = simulate(strategy, std_efficiency, std_costs, sigma=0.7, seed=3)
        assert log.realized_cost == cost(strategy, std_costs)

    def test_zero_sigma_gives_exact_gain(self, std_efficiency, std_costs):
        strategy = Strategy(M1, 5, 2, 3)
        logs = simulate(strategy, std_efficiency, std_costs, sigma=0.0, seed=9, n=3)
        for log in logs:
            assert log.realized_gain == gain(strategy, std_efficiency)

    def test_shock_comes_from_spawned_substream(self, std_efficiency, std_costs):
        # The contract worth pinning: session i draws one normal from the
        # i-th substream of SeedSequence(seed), so logs are reproducible
        # from the seed alone.
        strategy = Strategy(M0, 4, 0, 2)
        logs = simulate(strategy, std_efficiency, std_costs, sigma=0.3, seed=11, n=4)
        base = gain(strategy, std_efficiency)
        for i, log in enumerate(logs):
            rng = np.random.default_rng(np.random.SeedSequence(11).spawn(4)[i])
            assert log.realized_gain == base * math.exp(rng.normal(0.0, 0.3))

    def test_deterministic_and_prefix_stable(self, std_efficiency, std_costs):
        strategy = Strategy(M2, 2, 1, 2)
        a = simulate(strategy, std_efficiency, std_costs, sigma=0.5, seed=21, n=5)
        b = simulate(strategy, std_efficiency, std_costs, sigma=0.5, seed=21, n=5)
        assert [log.to_dict() for log in a] == [log.to_dict() for log in b]
        shorter = simulate(strategy, std_efficiency, std_costs, sigma=0.5, seed=21, n=3)
        assert [log.to_dict() for log in shorter] == [log.to_dict() for log in a[:3]]

    def test_session_ids_count_up(self, std_efficiency, std_costs):
        logs = simulate(Strategy(M0, 1, 0, 1), std_efficiency, std_costs, n=4)
        assert [log.session_id for log in logs] == [0, 1, 2, 3]

    def test_rejects_fractional_strategies(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="integer strategy"):
            simulate(Strategy(M0, 2.5, 0, 3), std_efficiency, std_costs)

    def test_rejects_empty_sessions(self, std_efficiency, std_costs):
        with pytest.raises(DomainError, match="q >= 1 and a >= 1"):
            simulate(Strategy(M0, 0, 0, 1), std_efficiency, std_costs)
        with pytest.raises(DomainError, match="q >= 1 and a >= 1"):
            simulate(Strategy(M1, 2, 1, 0), std_efficiency, std_costs)

    def test_rejects_bad_noise_and_counts(self, std_efficiency, std_costs):
        strategy = Strategy(M0, 1, 0, 1)
        with pytest.raises(DomainError, match="sigma"):
            simulate(strategy, std_efficiency, std_costs, sigma=-0.1)
        with pytest.raises(DomainError, match="n must be"):
            simulate(strategy, std_efficiency, std_costs, n=0)


# ---------------------------------------------------------------------------
# JSONL round trip


class TestJsonl:
    def test_file_round_trip(self, std_efficiency, std_costs, tmp_path):
        logs = simulate(Strategy(M2, 2, 1, 2), std_efficiency, std_costs, sigma=0.4, seed=8, n=3)
        path = tmp_path / "sessions.jsonl"
        write_jsonl(logs, path)
        back = read_jsonl(path)
        assert [log.to_dict() for log in back] == [log.to_dict() for log in logs]

    def test_stream_round_trip_drops_runtime_ids(self, std_efficiency, std_costs):
        logs = simulate(Strategy(M1, 2, 1, 2), std_efficiency, std_costs, sigma=0.4, seed=8, n=2)
        buffer = io.StringIO()
        write_jsonl(logs, buffer)
        back = read_jsonl(io.StringIO(buffer.getvalue()))
        assert [log.to_dict() for log in back] == [log.to_dict() for log in logs]
        # the substream index is runtime bookkeeping, not data
        assert "stream_id" not in logs[0].to_dict()
        assert back[0].stream_id is None

    def test_line_shape(self, std_efficiency, std_costs):
        (log,) = simulate(Strategy(M0, 1, 0, 1), std_efficiency, std_costs)
        buffer = io.StringIO()
        write_jsonl([log], buffer)
        line = buffer.getvalue()
        assert line.endswith("\n")
        assert line.index('"session_id"') < line.index('"model"') < line.index('"q"')
        assert '"actions"' not in line
        assert line.startswith('{"schema": 2, ')
        for key in ("c_query", "c_feedback", "c_assess"):
            assert f'"{key}": ' in line

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        model=st.sampled_from(list(ModelKind)),
        q=st.integers(1, 20),
        f=st.integers(0, 4),
        a=st.integers(1, 8),
        prices=st.tuples(*[st.floats(1e-6, 1e6)] * 3),
        sigma=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_gives_back_every_field_and_the_trace(self, model, q, f, a, prices, sigma, seed):
        f = 0 if model is M0 else f
        efficiency = EfficiencyParams(0.9, 0.3, 0.2, 0.5)
        strategy = Strategy(model, q, f, a)
        logs = simulate(strategy, efficiency, CostParams(*prices), sigma=sigma, seed=seed, n=2)
        buffer = io.StringIO()
        write_jsonl(logs, buffer)
        back = read_jsonl(io.StringIO(buffer.getvalue()))
        assert len(back) == len(logs)
        for written, read in zip(logs, back):
            for field in ("session_id", "model", "strategy", "costs", "realized_gain", "realized_cost"):
                assert getattr(read, field) == getattr(written, field)
            assert read.actions == written.actions
            tally = Counter(action.kind for action in read.actions)
            assert tally[ActionKind.QUERY] == q
            assert tally[ActionKind.FEEDBACK] == q * f
            assert tally[ActionKind.ASSESS] == (q * (1 + f) * a if model is M2 else q * a)

    def test_read_rejects_broken_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"session_id": 0,\n')
        with pytest.raises(DomainError, match=r"bad\.jsonl:1: not valid JSON"):
            read_jsonl(path)

    def test_read_rejects_unknown_fields(self, std_efficiency, std_costs, tmp_path):
        (log,) = simulate(Strategy(M0, 1, 0, 1), std_efficiency, std_costs)
        doc = log.to_dict()
        doc["mood"] = "great"
        path = tmp_path / "extra.jsonl"
        write_jsonl_line = __import__("json").dumps(doc) + "\n"
        path.write_text(write_jsonl_line)
        with pytest.raises(DomainError, match="unknown field.*mood"):
            read_jsonl(path)

    def test_read_missing_file_names_path(self, tmp_path):
        with pytest.raises(DomainError, match="not found.*nowhere"):
            read_jsonl(tmp_path / "nowhere.jsonl")


# ---------------------------------------------------------------------------
# Estimation


def _grid_logs(model, std_efficiency, std_costs, *, sigma=0.0, per_point=1):
    """A small full-rank design: q, a, and (where used) f all vary."""
    qs, fs, As = (2, 4, 8), (0, 1, 2), (2, 3, 5)
    logs = []
    for i, q in enumerate(qs):
        for j, a in enumerate(As):
            f = fs[(i + j) % 3] if model is not M0 else 0
            strategy = Strategy(model, q, f, a)
            logs.extend(
                simulate(strategy, std_efficiency, std_costs,
                         sigma=sigma, seed=1000 * q + 10 * a + f, n=per_point)
            )
    return logs


class TestGainFit:
    @pytest.mark.parametrize("model", [M0, M1, M2])
    def test_noiseless_recovery_is_exact(self, model, std_efficiency, std_costs):
        logs = _grid_logs(model, std_efficiency, std_costs)
        fit = fit_gain_params(logs)
        assert fit.alpha_hat == pytest.approx(0.9, abs=1e-9)
        assert fit.beta_hat == pytest.approx(0.3, abs=1e-9)
        if model is M1:
            assert fit.gamma_hat == pytest.approx(0.2, abs=1e-9)
        elif model is M2:
            assert fit.gamma_hat == pytest.approx(0.5, abs=1e-9)
        else:
            assert fit.gamma_hat is None
        assert fit.residual_rms <= 1e-12
        assert not fit.condition_warning
        assert fit.n_sessions == len(logs)

    def test_noisy_recovery_within_tolerance(self, std_efficiency, std_costs):
        rng = np.random.default_rng(5)
        logs = []
        for _ in range(10):
            q, a = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            logs.extend(
                simulate(Strategy(M0, q, 0, a), std_efficiency, std_costs,
                         sigma=0.05, seed=q * 100 + a, n=20)
            )
        fit = fit_gain_params(logs)
        assert fit.alpha_hat == pytest.approx(0.9, abs=0.05)
        assert fit.beta_hat == pytest.approx(0.3, abs=0.05)

    def test_single_design_point_is_insufficient(self, std_efficiency, std_costs):
        logs = simulate(Strategy(M0, 4, 0, 2), std_efficiency, std_costs, n=5)
        with pytest.raises(InsufficientDesign, match="1 distinct design point"):
            fit_gain_params(logs)

    def test_constant_feedback_level_warns(self, std_efficiency, std_costs):
        # f never moves, so the plain and interaction log-q columns are
        # proportional: the fit goes through but flags the ambiguity.
        logs = []
        for q, a in ((2, 2), (4, 2), (2, 5), (8, 3)):
            logs.extend(simulate(Strategy(M1, q, 2, a), std_efficiency, std_costs))
        fit = fit_gain_params(logs)
        assert fit.condition_warning
        assert "alpha and gamma1" in fit.note

    def test_model_cross_check(self, std_efficiency, std_costs):
        logs = _grid_logs(M0, std_efficiency, std_costs)
        assert fit_gain_params(logs, model=M0).alpha_hat is not None
        with pytest.raises(DomainError, match="logs are m0, not m1"):
            fit_gain_params(logs, model=M1)

    def test_mixed_models_rejected(self, std_efficiency, std_costs):
        logs = simulate(Strategy(M0, 2, 0, 2), std_efficiency, std_costs)
        logs += simulate(Strategy(M1, 2, 1, 2), std_efficiency, std_costs)
        with pytest.raises(DomainError, match="share one model"):
            fit_gain_params(logs)

    def test_no_logs_rejected(self):
        with pytest.raises(DomainError, match="no session logs"):
            fit_gain_params([])


class TestCostFit:
    @pytest.mark.parametrize("model", [M0, M1, M2])
    def test_noiseless_recovery_is_exact(self, model, std_efficiency, std_costs):
        logs = _grid_logs(model, std_efficiency, std_costs)
        fit = fit_cost_params(logs)
        assert fit.cq_hat == pytest.approx(10.0, rel=1e-9)
        assert fit.ca_hat == pytest.approx(1.0, rel=1e-9)
        if model is M0:
            assert fit.cf_hat is None
        else:
            assert fit.cf_hat == pytest.approx(2.0, rel=1e-9)
        assert not fit.condition_warning

    def test_no_feedback_actions_warns(self, std_efficiency, std_costs):
        logs = []
        for q, a in ((2, 2), (4, 2), (2, 5)):
            logs.extend(simulate(Strategy(M1, q, 0, a), std_efficiency, std_costs))
        fit = fit_cost_params(logs)
        assert fit.condition_warning
        assert "no feedback actions" in fit.note

    def test_constant_positive_feedback_warns(self, std_efficiency, std_costs):
        logs = []
        for q, a in ((2, 2), (4, 2), (2, 5)):
            logs.extend(simulate(Strategy(M2, q, 2, a), std_efficiency, std_costs))
        fit = fit_cost_params(logs)
        assert fit.condition_warning
        assert "c_query and c_feedback" in fit.note

    def test_negative_estimates_surface_with_warning(self, std_efficiency):
        # Hand-built books that no positive price vector can explain: the
        # fit reports the negative coefficient instead of clipping it.
        def fake(q, a, realized_cost):
            return SessionLog(
                session_id=0, model=M0,
                strategy=Strategy(M0, q, 0, a), costs=CostParams(1.0, 1.0, 1.0),
                realized_gain=1.0, realized_cost=realized_cost,
            )

        fit = fit_cost_params([fake(1, 1, 3.0), fake(1, 2, 2.0)])
        assert fit.ca_hat == pytest.approx(-1.0)
        assert fit.cq_hat == pytest.approx(4.0)
        assert fit.condition_warning
        assert fit.note is None

    def test_single_design_point_is_insufficient(self, std_efficiency, std_costs):
        logs = simulate(Strategy(M2, 2, 1, 2), std_efficiency, std_costs, n=4)
        with pytest.raises(InsufficientDesign, match="cannot identify 3 unit costs"):
            fit_cost_params(logs)


# ---------------------------------------------------------------------------
# Viability


class TestViability:
    def test_useless_feedback_keeps_the_baseline(self, std_costs, light_grid):
        flat = EfficiencyParams(0.9, 0.3, 0.0, 0.0)
        verdict = viability(flat, std_costs, 100.0, light_grid)
        assert verdict.cheapest is M0
        assert verdict.worthwhile == {"m1": False, "m2": False}
        assert verdict.not_comparable == ()
        # all three were still solved and priced
        assert all(verdict.cost_of(code) is not None for code in ("m0", "m1", "m2"))

    def test_effective_feedback_wins(self, light_grid):
        # Queries are expensive and feedback is cheap and powerful; both
        # feedback styles beat the baseline and the cheaper one is chosen.
        efficiency = EfficiencyParams(0.9, 0.2, 0.05, 0.8)
        costs = CostParams(50.0, 0.5, 1.0)
        verdict = viability(efficiency, costs, 100.0, light_grid)
        assert verdict.cheapest is M1
        assert verdict.worthwhile == {"m1": True, "m2": True}
        assert verdict.cost_of("m1") < verdict.cost_of("m2") < verdict.cost_of("m0")

    def test_unbounded_model_is_not_comparable(self, std_costs, light_grid):
        runaway = EfficiencyParams(0.5, 0.3, 0.0, 0.8)
        verdict = viability(runaway, std_costs, 100.0, light_grid)
        assert verdict.not_comparable == ("m2",)
        assert verdict.cost_of("m2") is None
        assert verdict.strategies["m2"] is None
        assert verdict.worthwhile["m2"] is False
        assert verdict.cheapest is M0

    def test_reads_no_kkt_report(self, std_efficiency, std_costs, light_grid, monkeypatch):
        # The verdict needs each model's strategy and cost, not a KKT report;
        # both are each model's own minimize_cost answer, bit for bit.
        expected = {
            model.code: minimize_cost(model, std_efficiency, std_costs, 100.0, light_grid)
            for model in ModelKind
        }

        def no_report(*args, **kwargs):
            raise AssertionError("viability asked for a KKT report")

        monkeypatch.setattr(oracle, "kkt_residual", no_report)
        verdict = viability(std_efficiency, std_costs, 100.0, light_grid)
        for code, solution in expected.items():
            assert verdict.strategies[code] == solution.strategy
            assert verdict.cost_of(code) == solution.total_cost

    def test_dict_shape(self, std_costs, light_grid):
        flat = EfficiencyParams(0.9, 0.3, 0.0, 0.0)
        doc = viability(flat, std_costs, 100.0, light_grid).to_dict()
        assert set(doc) == {"cheapest", "costs", "worthwhile", "not_comparable", "strategies"}
        assert set(doc["costs"]) == {"m0", "m1", "m2"}
        assert doc["strategies"]["m0"].keys() == {"q", "f", "a"}
