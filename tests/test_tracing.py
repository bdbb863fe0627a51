"""The benchmark's trace plan (perfbench/tracing.py) still binds to the package.

``install`` raises if a traced function is bound nowhere, so renaming or
deleting one of them fails here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from steinpoisson import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_plan_installs_and_multivariate_spans_fire(capsys):
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["sweep", "process-matching", "--n", "2..4"]) == cli.EXIT_OK
        assert cli.main(["sweep", "joint-matching-succession", "--n", "3"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {"multivariate.config", "multivariate.joint"} <= tracing.fired(tracer)
