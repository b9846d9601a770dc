"""The benchmark's traced run rebinds program names from outside.

``perfbench/tracing.py`` looks each traced function up with ``getattr`` at
the name its caller uses (``statics.minimize_cost``,
``oracle.recover_q_value``, ``oracle.cost_value``, ``oracle.kkt_residual``
and more), so renaming or removing one of them breaks ``--trace 1``. This
test installs and uninstalls the tracer against the current program.
"""

import importlib.util
from pathlib import Path

from convecon import oracle, statics

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    names = [
        (statics, "minimize_cost"),
        (oracle, "recover_q_value"),
        (oracle, "cost_value"),
        (oracle, "kkt_residual"),
    ]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()  # raises AttributeError if a traced name is gone
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(names, originals):
        assert getattr(owner, attr) is original
