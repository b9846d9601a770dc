"""Acceptance suite: nine numbered end-to-end checks.

Each test finishes by printing a single ``criterion N: PASS/FAIL`` line with
the measured worst case (visible under ``pytest -s`` and in failure reports),
then asserts the verdict. Every check runs at desk scale — the whole module
completes in well under a minute on one core.
"""

import json
from collections import Counter

import numpy as np
from click.testing import CliRunner
from numpy.random import default_rng

from convecon import (
    CostParams,
    EfficiencyParams,
    GridSpec,
    ModelKind,
    Strategy,
    a0_star,
    audit_claims,
    cost,
    f2_star,
    fit_cost_params,
    fit_gain_params,
    gain,
    minimize_cost,
    simulate,
    viability,
)
from convecon.cli import main

GRID = GridSpec(points=64, refinements=2)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def test_criterion_1_feedback_free_reduction():
    """With f = 0, both feedback models price and produce exactly like m0."""
    rng = default_rng(101)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.05, 1.0)
        eff = EfficiencyParams(alpha, beta, rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
        costs = CostParams(*(_log_uniform(rng, 0.1, 50.0) for _ in range(3)))
        q = _log_uniform(rng, 0.5, 1000.0)
        a = _log_uniform(rng, 0.5, 1000.0)
        base = Strategy(ModelKind.BASELINE, q, 0.0, a)
        g0, c0 = gain(base, eff), cost(base, costs)
        for kind in (ModelKind.FEEDBACK_FIRST, ModelKind.FEEDBACK_AFTER):
            flat = Strategy(kind, q, 0.0, a)
            worst = max(
                worst,
                abs(gain(flat, eff) - g0) / g0,
                abs(cost(flat, costs) - c0) / c0,
            )
    _verdict(1, worst <= 1e-12, f"1000 draws, worst f=0 reduction rel dev {worst:.3g} (tol 1e-12)")


def test_criterion_2_baseline_closed_form_vs_oracle():
    """Oracle m0 depth matches the closed form, with small KKT residuals."""
    rng = default_rng(202)
    worst_a, worst_kkt = 0.0, 0.0
    for _ in range(50):
        alpha = rng.uniform(0.55, 0.95)
        beta = rng.uniform(0.05, alpha - 0.1)
        eff = EfficiencyParams(alpha, beta, 0.2, 0.5)
        costs = CostParams(*(_log_uniform(rng, 0.5, 20.0) for _ in range(3)))
        g = _log_uniform(rng, 10.0, 1000.0)
        sol = minimize_cost(ModelKind.BASELINE, eff, costs, g)
        expected = a0_star(eff, costs)
        worst_a = max(worst_a, abs(sol.strategy.a - expected) / expected)
        worst_kkt = max(worst_kkt, sol.kkt.residual_max)
    ok = worst_a <= 1e-3 and worst_kkt <= 1e-3
    _verdict(2, ok, f"50 instances, worst depth rel dev {worst_a:.3g} (tol 1e-3), worst KKT {worst_kkt:.3g} (tol 1e-3)")


def test_criterion_3_depth_invariant_to_gain_target():
    """Optimal depth does not move with the gain target for m0 and m2.

    Feedback-first is deliberately not part of this check: its joint optimum
    couples the query exponent to f, so the true minimiser genuinely shifts
    with the target level and only the per-axis conditional formulas are
    target-free.
    """
    rng = default_rng(303)
    worst = 0.0
    for _ in range(10):
        alpha = rng.uniform(0.55, 0.95)
        beta = rng.uniform(0.05, alpha - 0.1)
        gamma2 = rng.uniform(0.1, alpha - 0.05)
        eff = EfficiencyParams(alpha, beta, 0.2, gamma2)
        costs = CostParams(*(_log_uniform(rng, 0.5, 20.0) for _ in range(3)))
        for kind in (ModelKind.BASELINE, ModelKind.FEEDBACK_AFTER):
            depths = [
                minimize_cost(kind, eff, costs, g, GRID).strategy.a
                for g in (10.0, 100.0, 1000.0)
            ]
            worst = max(worst, (max(depths) - min(depths)) / min(depths))
    _verdict(3, worst <= 1e-3, f"10 instances x 3 targets, worst depth spread {worst:.3g} (tol 1e-3)")


def test_criterion_4_feedback_after_level_formula():
    """Oracle m2 feedback level matches the closed form on interior instances."""
    rng = default_rng(20240817)
    kept, tries, worst = 0, 0, 0.0
    while kept < 25 and tries < 4000:
        tries += 1
        alpha = rng.uniform(0.6, 0.95)
        gamma2 = rng.uniform(0.15, alpha - 0.05)
        if gamma2 <= 0.1:
            continue
        beta = rng.uniform(0.05, gamma2 - 0.05)
        if beta <= 0:
            continue
        costs = CostParams(*(_log_uniform(rng, 0.5, 20.0) for _ in range(3)))
        eff = EfficiencyParams(alpha, beta, 0.2, gamma2)
        level = f2_star(eff, costs)
        if level.raw < 0.1:
            continue
        kept += 1
        sol = minimize_cost(ModelKind.FEEDBACK_AFTER, eff, costs, 100.0, GRID)
        worst = max(worst, abs(sol.strategy.f - level.value) / level.value)
    ok = kept == 25 and worst <= 2e-2
    _verdict(4, ok, f"{kept} interior instances, worst feedback-level rel dev {worst:.3g} (tol 2e-2)")


def test_criterion_5_claims_audit_report():
    """Default audit is deterministic, scores m0 exactly, and rates every
    feedback-first and coupled-variant formula."""
    report = audit_claims()
    again = audit_claims()
    deterministic = report.to_dict() == again.to_dict()

    m0_exact = all(
        report.claim("M0-%d" % i).fraction_holding_formula == 1.0 for i in (1, 2, 3, 4)
    )
    rated_rows = (
        "a1_star_at_oracle_f",
        "f1_star_at_oracle_a",
        "model1_coupled_pair",
        "f2_star_coupled_at_oracle_a",
        "model2_coupled_pair",
    )
    rated = all(
        report.agreement_row(name).verdict in ("AGREES", "DISAGREES")
        and report.agreement_row(name).within_tol_fraction is not None
        for name in rated_rows
    )
    ok = deterministic and m0_exact and rated
    _verdict(
        5,
        ok,
        "deterministic=%s, m0 formula fractions exact=%s, all m1/coupled rows rated=%s"
        % (deterministic, m0_exact, rated),
    )


def test_criterion_6_zero_elasticity_corner():
    """With gamma2 = 0 the oracle pins feedback at the grid floor and the
    recommendation rules m2 out."""
    eff = EfficiencyParams(0.9, 0.3, 0.2, 0.0)
    costs = CostParams(10.0, 2.0, 1.0)
    sol = minimize_cost(ModelKind.FEEDBACK_AFTER, eff, costs, 100.0, GRID)
    at_floor = sol.strategy.f == GRID.min
    rec = viability(eff, costs, 100.0, GRID)
    ruled_out = rec.worthwhile["m2"] is False
    _verdict(6, at_floor and ruled_out, f"feedback at grid floor={at_floor}, m2 not worthwhile={ruled_out}")


def _design_logs(kind, eff, costs, *, sigma, seed, points, sessions):
    rng = default_rng(seed)
    logs = []
    for i in range(points):
        q = max(1, int(round(_log_uniform(rng, 1.0, 32.0))))
        a = max(1, int(round(_log_uniform(rng, 1.0, 32.0))))
        f = int(rng.integers(0, 9)) if kind is not ModelKind.BASELINE else 0
        strategy = Strategy(kind, q, f, a)
        logs.extend(simulate(strategy, eff, costs, n=sessions, sigma=sigma, seed=seed * 1000 + i))
    return logs


def test_criterion_7_estimation_round_trip():
    """Noiseless fits are exact; sigma=0.05 over 500 sessions stays within
    +/-0.05 on every exponent."""
    eff = EfficiencyParams(0.9, 0.3, 0.2, 0.5)
    costs = CostParams(10.0, 2.0, 1.0)
    worst_exact, worst_noisy = 0.0, 0.0
    for kind in ModelKind:
        exact = _design_logs(kind, eff, costs, sigma=0.0, seed=70 + int(kind is not ModelKind.BASELINE), points=9, sessions=1)
        fit = fit_gain_params(exact)
        errs = [abs(fit.alpha_hat - 0.9), abs(fit.beta_hat - 0.3)]
        if kind is ModelKind.FEEDBACK_FIRST:
            errs.append(abs(fit.gamma_hat - 0.2))
        if kind is ModelKind.FEEDBACK_AFTER:
            errs.append(abs(fit.gamma_hat - 0.5))
        prices = fit_cost_params(exact)
        errs.extend([abs(prices.cq_hat - 10.0) / 10.0, abs(prices.ca_hat - 1.0)])
        if kind is not ModelKind.BASELINE:
            errs.append(abs(prices.cf_hat - 2.0) / 2.0)
        worst_exact = max(worst_exact, *errs)

        noisy = _design_logs(kind, eff, costs, sigma=0.05, seed=700 + int(kind.value[-1]), points=25, sessions=20)
        assert len(noisy) == 500
        fit = fit_gain_params(noisy)
        errs = [abs(fit.alpha_hat - 0.9), abs(fit.beta_hat - 0.3)]
        if kind is ModelKind.FEEDBACK_FIRST:
            errs.append(abs(fit.gamma_hat - 0.2))
        if kind is ModelKind.FEEDBACK_AFTER:
            errs.append(abs(fit.gamma_hat - 0.5))
        worst_noisy = max(worst_noisy, *errs)
    ok = worst_exact <= 1e-9 and worst_noisy <= 0.05
    _verdict(7, ok, f"noiseless worst err {worst_exact:.3g} (tol 1e-9), sigma=0.05 worst exponent err {worst_noisy:.3g} (tol 0.05)")


def test_criterion_8_command_line_determinism(tmp_path):
    """oracle, audit, and simulate reruns with identical seeds are byte-identical."""
    runner = CliRunner()
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "alpha": 0.9, "beta": 0.3, "gamma1": 0.2, "gamma2": 0.5,
        "c_query": 10.0, "c_feedback": 2.0, "c_assess": 1.0,
    }))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": 64, "refinements": 2}))

    commands = {
        "oracle": ["oracle", "--model", "m2", "--params", str(params), "--gain", "100", "--grid", str(grid)],
        "audit": ["audit", "--samples", "30", "--seed", "9"],
        "simulate": ["simulate", "--model", "m1", "--params", str(params),
                     "--q", "3", "--f", "1", "--a", "2", "--sigma", "0.3", "--seed", "17", "--n", "5"],
    }
    stable = {}
    for name, argv in commands.items():
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}{run}.out"
            result = runner.invoke(main, argv + ["--output", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        stable[name] = outputs[0] == outputs[1]
    _verdict(8, all(stable.values()), f"byte-identical reruns: {stable}")


def test_criterion_9_grammar_cost_accounting():
    """Simulated action counts reproduce the cost formulas exactly."""
    rng = default_rng(909)
    checked, exact = 0, True
    for kind in ModelKind:
        for _ in range(100):
            q = int(rng.integers(1, 9))
            a = int(rng.integers(1, 7))
            f = int(rng.integers(0, 5)) if kind is not ModelKind.BASELINE else 0
            eff = EfficiencyParams(0.9, 0.3, 0.2, 0.5)
            costs = CostParams(*(_log_uniform(rng, 0.5, 20.0) for _ in range(3)))
            strategy = Strategy(kind, q, f, a)
            log = simulate(strategy, eff, costs, n=1, sigma=0.0, seed=int(rng.integers(0, 2**31)))[0]
            counts = Counter(action.kind.value for action in log.actions)
            assess = q * (1 + f) * a if kind is ModelKind.FEEDBACK_AFTER else q * a
            shape_ok = (
                counts.get("query", 0) == q
                and counts.get("feedback", 0) == q * f
                and counts.get("assess", 0) == assess
            )
            cost_ok = log.realized_cost == cost(strategy, costs)
            exact = exact and shape_ok and cost_ok
            checked += 1
    _verdict(9, exact and checked == 300, f"{checked} integer strategies, action counts and realized cost exact={exact}")
