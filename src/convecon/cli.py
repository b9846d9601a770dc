"""Command-line front end.

Every subcommand reads JSON parameter files, writes deterministic documents
(JSON with 17-significant-digit floats, CSV, or aligned text), and reports
failures through a small exit-code scheme so shell pipelines can branch on
what went wrong rather than parsing error prose.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

import click

from . import __version__, closed_form
from ._jsonio import dumps, format_float, load_json_file
from .core import PARAM_FIELDS, ModelKind, Strategy, load_params
from .errors import (
    Diverged,
    DomainError,
    Infeasible,
    InsufficientDesign,
    NoInteriorOptimum,
    Unbounded,
)
from .oracle import GridSpec, integer_refine, minimize_cost
from .sessions import fit_cost_params, fit_gain_params, read_jsonl, simulate, viability, write_jsonl
from .statics import ParameterRegion, audit_claims, sweep

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_OPTIMUM = 3
EXIT_INSUFFICIENT_DESIGN = 4

_EXIT_CODE_HELP = (
    "Exit codes: 0 success; 2 invalid input (bad files, parameters out of "
    "domain); 3 no usable optimum (no interior optimum, unbounded search, "
    "infeasible integer neighborhood, diverged iteration); 4 insufficient "
    "design for estimation."
)


class _Failure(click.ClickException):
    """A command failure with a specific exit code; message goes to stderr."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.exit_code = code


def _fail_on_econ_errors(body):
    """Run ``body``, translating domain failures to the exit-code scheme."""
    try:
        return body()
    except InsufficientDesign as exc:
        raise _Failure(str(exc), EXIT_INSUFFICIENT_DESIGN) from None
    except (NoInteriorOptimum, Unbounded, Infeasible, Diverged) as exc:
        raise _Failure(str(exc), EXIT_NO_OPTIMUM) from None
    except DomainError as exc:
        raise _Failure(str(exc), EXIT_INVALID_INPUT) from None


def _grid_from_option(path: Optional[str]) -> Optional[GridSpec]:
    if path is None:
        return None
    return GridSpec.from_mapping(load_json_file(path, "grid"), source=path)


def _render_text(doc, indent: int = 0) -> str:
    """Flat key/value rendering of a JSON-able document.

    Uses the same float formatting as the JSON output so the two formats
    carry identical numbers.
    """
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(value)}")
    else:
        lines.append(f"{pad}{_scalar_text(doc)}")
    return "\n".join(lines)


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _write(text: str, output: Optional[str] = None) -> None:
    """Write a document to the file ``output``, or to standard output as it
    is now.

    The stream is passed explicitly: without one, click caches every new
    ``sys.stdout`` in a weak-keyed map whose value is the stream itself, so
    each buffer an in-process caller redirects to would be kept forever.
    """
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, file=sys.stdout, nl=False)


def _emit(doc, fmt: str, output: Optional[str]) -> None:
    rendered = _render_text(doc) if fmt == "text" else dumps(doc, indent=2)
    _write(rendered + "\n", output)


_MODEL_CODES = [model.code for model in ModelKind]

_model_option = click.option(
    "--model", "model_code", type=click.Choice(_MODEL_CODES), required=True,
    help="Which interaction model to use.",
)
_params_option = click.option(
    "--params", "params_path", required=True, metavar="FILE",
    help="JSON file with alpha, beta, gamma1, gamma2, c_query, c_feedback, c_assess.",
)
_gain_option = click.option(
    "--gain", "gain_target", type=float, required=True, help="Gain target the strategy must reach.",
)
_grid_option = click.option(
    "--grid", "grid_path", metavar="FILE", default=None,
    help="JSON file overriding the search grid (min, max, points, refinements).",
)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    show_default=True, help="Output rendering; both carry the same numbers.",
)
_output_option = click.option(
    "--output", "output", metavar="FILE", default=None,
    help="Write the document here instead of standard output.",
)


@click.group(epilog=_EXIT_CODE_HELP)
@click.version_option(version=__version__)
def main() -> None:
    """Economics of conversational search strategies.

    Solve for optimal interaction strategies (closed-form and by brute-force
    oracle), audit the models' comparative-statics claims, sweep parameters,
    simulate session logs, estimate parameters back from logs, and decide
    whether feedback is economically viable.
    """


# ClosedFormSolution.to_dict keys as the optimize document names them.
_OPTIMIZE_KEYS = {"source": "variant", "q": "q_star", "f": "f_star", "a": "a_star"}


@main.command()
@_model_option
@_params_option
@_gain_option
@click.option("--integer", "want_integer", is_flag=True, help="Add a nearby all-integer strategy.")
@_format_option
@_output_option
def optimize(model_code, params_path, gain_target, want_integer, fmt, output):
    """Closed-form optimal strategies for one model."""

    def body():
        efficiency, costs = load_params(params_path)
        model = ModelKind.from_code(model_code)
        solutions = closed_form.solutions_for(model, efficiency, costs, gain_target)
        entries = []
        for solution in solutions:
            entry = {
                _OPTIMIZE_KEYS.get(key, key): value
                for key, value in solution.to_dict().items()
                if key != "model"
            }
            if want_integer:
                entry["integer"] = integer_refine(solution, efficiency, costs, gain_target).to_dict()
            entries.append(entry)
        doc = {"model": model.code, "gain_target": gain_target, "solutions": entries}
        _emit(doc, fmt, output)

    _fail_on_econ_errors(body)


@main.command()
@_model_option
@_params_option
@_gain_option
@_grid_option
@click.option("--integer", "want_integer", is_flag=True, help="Add a nearby all-integer strategy.")
@_format_option
@_output_option
def oracle(model_code, params_path, gain_target, grid_path, want_integer, fmt, output):
    """Brute-force grid oracle for one model (with KKT diagnostics)."""

    def body():
        efficiency, costs = load_params(params_path)
        model = ModelKind.from_code(model_code)
        grid = _grid_from_option(grid_path)
        solution = minimize_cost(model, efficiency, costs, gain_target, grid)
        doc = solution.to_dict()
        if want_integer:
            doc["integer"] = integer_refine(solution, efficiency, costs, gain_target).to_dict()
        _emit(doc, fmt, output)

    _fail_on_econ_errors(body)


@main.command()
@click.option("--region", "region_path", metavar="FILE", default=None,
              help="JSON file of axis ranges; default is the built-in region.")
@click.option("--samples", type=int, default=200, show_default=True, help="Sample points to draw.")
@click.option("--seed", type=int, default=0, show_default=True, help="Random seed.")
@click.option("--gain", "gain_target", type=float, default=100.0, show_default=True,
              help="Gain target for the oracle solves.")
@_grid_option
@click.option("--output", "output", metavar="FILE", default="audit.json", show_default=True,
              help="Where the JSON report is written.")
def audit(region_path, samples, seed, gain_target, grid_path, output):
    """Audit the directional claims; always exits 0 once the report exists.

    The JSON report goes to --output and an aligned text summary to standard
    output. Failing claims are findings recorded in the report, not errors.
    """

    def body():
        region = None
        if region_path is not None:
            region = ParameterRegion.from_mapping(
                load_json_file(region_path, "region"), source=region_path
            )
        report = audit_claims(
            region=region, samples=samples, seed=seed, g=gain_target, grid=_grid_from_option(grid_path),
        )
        Path(output).write_text(dumps(report.to_dict(), indent=2) + "\n")
        _write(report.to_text())

    _fail_on_econ_errors(body)


@main.command("sweep")
@_model_option
@_params_option
@click.option("--vary", required=True,
              type=click.Choice(PARAM_FIELDS),
              help="Parameter to sweep.")
@click.option("--lo", type=float, required=True, help="Low end of the sweep.")
@click.option("--hi", type=float, required=True, help="High end of the sweep.")
@click.option("--steps", type=int, default=25, show_default=True, help="Grid points, endpoints included.")
@_gain_option
@click.option("--targets", default=None, metavar="NAMES",
              help="Comma-separated closed-form columns; default depends on the model.")
@_grid_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="CSV rows or a JSON table.")
@_output_option
def sweep_cmd(model_code, params_path, vary, lo, hi, steps, gain_target, targets, grid_path, fmt, output):
    """Closed-form and oracle optima along one parameter axis."""

    def body():
        efficiency, costs = load_params(params_path)
        model = ModelKind.from_code(model_code)
        target_names = None
        if targets is not None:
            target_names = tuple(name.strip() for name in targets.split(",") if name.strip())
        table = sweep(
            model, efficiency, costs, vary, lo, hi, steps, gain_target,
            targets=target_names, grid=_grid_from_option(grid_path),
        )
        if fmt == "json":
            doc = {
                "vary": table.vary,
                "columns": list(table.columns),
                "rows": [list(row) for row in table.rows],
            }
            _emit(doc, fmt, output)
        else:
            _write(table.to_csv(), output)

    _fail_on_econ_errors(body)


@main.command("simulate")
@_model_option
@_params_option
@click.option("--q", "q", type=int, required=True, help="Queries per session.")
@click.option("--f", "f", type=int, default=0, show_default=True, help="Feedback rounds per query.")
@click.option("--a", "a", type=int, required=True, help="Assessments per pass.")
@click.option("--sigma", type=float, default=0.0, show_default=True, help="Log-space gain noise.")
@click.option("--seed", type=int, default=0, show_default=True, help="Random seed.")
@click.option("--n", "n", type=int, default=1, show_default=True, help="Number of sessions.")
@_output_option
def simulate_cmd(model_code, params_path, q, f, a, sigma, seed, n, output):
    """Simulate session logs for one integer strategy (JSON Lines out)."""

    def body():
        efficiency, costs = load_params(params_path)
        strategy = Strategy(ModelKind.from_code(model_code), q, f, a)
        logs = simulate(strategy, efficiency, costs, sigma=sigma, seed=seed, n=n)
        # The stream as it is now, passed explicitly (see _write).
        write_jsonl(logs, output or sys.stdout)

    _fail_on_econ_errors(body)


@main.command()
@click.option("--logs", "logs_path", required=True, metavar="FILE", help="JSON Lines session log file.")
@click.option("--kind", type=click.Choice(["gain", "cost", "both"]), default="both",
              show_default=True, help="Which side to estimate.")
@click.option("--model", "model_code", type=click.Choice(_MODEL_CODES), default=None,
              help="Cross-check that the logs use this model.")
@_format_option
@_output_option
def fit(logs_path, kind, model_code, fmt, output):
    """Estimate gain and/or cost parameters from session logs."""

    def body():
        logs = read_jsonl(logs_path)
        model = None if model_code is None else ModelKind.from_code(model_code)
        if kind == "gain":
            doc = fit_gain_params(logs, model).to_dict()
        elif kind == "cost":
            if model is not None and logs and logs[0].model is not model:
                raise DomainError(f"logs are {logs[0].model.code}, not {model.code}")
            doc = fit_cost_params(logs).to_dict()
        else:
            gain_fit = fit_gain_params(logs, model)
            cost_fit = fit_cost_params(logs)
            doc = {"gain": gain_fit.to_dict(), "cost": cost_fit.to_dict()}
        _emit(doc, fmt, output)

    _fail_on_econ_errors(body)


@main.command("viability")
@_params_option
@_gain_option
@_grid_option
@_format_option
@_output_option
def viability_cmd(params_path, gain_target, grid_path, fmt, output):
    """Compare all three models at one gain target; recommend the cheapest."""

    def body():
        efficiency, costs = load_params(params_path)
        recommendation = viability(efficiency, costs, gain_target, _grid_from_option(grid_path))
        _emit(recommendation.to_dict(), fmt, output)

    _fail_on_econ_errors(body)


if __name__ == "__main__":
    main()
