"""Economic models of conversational search strategies.

Three interaction models — a plain query-assess baseline, feedback before
results, and feedback after results — each with Cobb-Douglas gain and
linear per-action costs. The package solves for cost-minimal strategies in
closed form and by a brute-force oracle, audits the models' directional
claims, simulates session logs, estimates parameters back from logs, and
judges when feedback is economically worthwhile.
"""

from .closed_form import (
    ClampedValue,
    ClosedFormSolution,
    SolutionSource,
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
from .core import (
    CostParams,
    EfficiencyParams,
    ModelKind,
    Strategy,
    ValidatedParams,
    cost,
    cost_value,
    gain,
    gain_value,
    load_params,
    params_from_mapping,
    params_to_mapping,
)
from .errors import (
    Diverged,
    DomainError,
    EconError,
    Infeasible,
    InsufficientDesign,
    NoInteriorOptimum,
    Unbounded,
)
from .oracle import (
    GridSpec,
    IntegerRefinement,
    KktReport,
    OptimalStrategy,
    integer_refine,
    kkt_residual,
    minimize_cost,
)
from .sessions import (
    ActionKind,
    EstimationResult,
    Recommendation,
    SessionAction,
    SessionLog,
    fit_cost_params,
    fit_gain_params,
    read_jsonl,
    simulate,
    viability,
    write_jsonl,
)
from .statics import (
    Claim,
    ClaimAuditReport,
    FormulaVariant,
    ParameterRegion,
    Quantity,
    SweepTable,
    audit_claims,
    claim_registry,
    default_region,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EconError", "DomainError", "NoInteriorOptimum", "Diverged", "Unbounded",
    "Infeasible", "InsufficientDesign",
    # core
    "ModelKind", "EfficiencyParams", "CostParams", "ValidatedParams", "Strategy",
    "gain", "gain_value", "cost", "cost_value",
    "params_from_mapping", "params_to_mapping", "load_params",
    # closed form
    "ClampedValue", "ClosedFormSolution", "SolutionSource",
    "a0_star", "a1_star", "f1_star", "a2_star_partial", "a2_star_full",
    "f2_star", "f2_star_coupled", "recover_q",
    "solve_model0", "model1_solve", "solve_model2_partial", "solve_model2_full",
    "model2_solve_coupled", "solutions_for",
    # oracle
    "GridSpec", "OptimalStrategy", "KktReport", "IntegerRefinement",
    "minimize_cost", "integer_refine", "kkt_residual",
    # statics
    "Quantity", "FormulaVariant", "Claim", "claim_registry",
    "ParameterRegion", "default_region",
    "SweepTable", "sweep", "ClaimAuditReport", "audit_claims",
    # sessions
    "ActionKind", "SessionAction", "SessionLog", "simulate",
    "EstimationResult", "fit_gain_params", "fit_cost_params",
    "write_jsonl", "read_jsonl", "Recommendation", "viability",
]
