"""The benchmark's trace plan (perfbench/tracing.py) still binds to the package.

``install`` raises if a traced function is bound nowhere, so renaming or
deleting one of them fails here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from steinpoisson import cli, exact_laws

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


def test_poisson_binomial_spans_fire_across_blocks(capsys, monkeypatch):
    # blocks of 10 length-1 vectors: 11 points make two blocks
    monkeypatch.setattr(cli, "PB_BLOCK_ENTRIES", 20)
    table_checks = []
    table_laws = exact_laws._table_laws
    monkeypatch.setattr(exact_laws, "_table_laws",
                        lambda table: table_checks.append(len(table)) or table_laws(table))
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        argv = ["sweep", "poisson-binomial", "--count", "11", "--maxlen", "1", "--seed", "3"]
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {"exact_laws.poisson_binomial", "bounds", "cli.write"} <= tracing.fired(tracer)
    assert tracer.spans["cli.record"].calls == 11
    assert tracer.spans["cli.write"].calls == 11
    assert tracer.spans["exact_laws.poisson_binomial"].calls == 2
    # one bound call and one check of the law table per (block, length)
    # group, and no Pmf check per law
    assert tracer.spans["bounds"].calls == 2
    assert table_checks == [10, 1]
    assert "stein_core.pmf_check" not in tracing.fired(tracer)


def test_poisson_binomial_bounds_fire_once_per_length_group(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PB_BLOCK_ENTRIES", 30)
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        argv = ["sweep", "poisson-binomial", "--count", "40", "--maxlen", "4", "--seed", "5",
                "--bound", "coupling"]
        assert cli.main(argv) == cli.EXIT_OK
        grid = cli.build_grid("poisson-binomial", cli.build_parser().parse_args(argv))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    groups, block, entries = 0, set(), 0
    for point in grid:
        size = len(point["p"]) + 1
        if block and entries + size > 30:
            groups, block, entries = groups + len(block), set(), 0
        block.add(size)
        entries += size
    groups += len(block)
    assert groups > 10
    assert tracer.spans["bounds"].calls == groups
    assert tracer.spans["exact_laws.poisson_binomial"].calls == groups
    assert tracer.spans["cli.record"].calls == 40


@pytest.mark.parametrize("argv, records", [
    ("sweep coloring --n 6..8 --k 3 --c 2..5", 12),
    ("sweep birthday-pairs --n 10..20 --theta 1", 11),
])
def test_engine_sweeps_fire_one_dp_span_per_record(argv, records, capsys):
    # the laws of a sweep share tables, but each is still its own dp call
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(argv.split()) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.spans["cli.record"].calls == records
    assert tracer.spans["exact_laws.dp"].calls == records


def test_pair_model_spans_fire(capsys):
    # the benchmark names each Monte Carlo span after the model's ``problem``
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    points = {
        "matching": "--n 10",
        "poisson_binomial": "--p 0.1,0.5,0.9",
        "birthday_pairs": "--n 50 --k 10",
        "birthday_triples": "--n 20 --k 10",
        "coupon": "--n 10 --k 30",
    }
    try:
        tracing.install(tracer)
        for family in tracing.MC_FAMILIES:
            argv = f"verify-pair {family.replace('_', '-')} {points[family]} --trials 10000"
            assert cli.main(argv.split()) == cli.EXIT_OK, argv
        assert cli.main("verify-pair coupon --n 3 --k 3 --exact".split()) == cli.EXIT_OK
        assert cli.main("mc-tv matching --n 10 --trials 10000".split()) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = {f"pair_models.mc_verify.{family}" for family in tracing.MC_FAMILIES}
    assert spans | {"pair_models.exact_kernel", "pair_models.mc_tv"} <= tracing.fired(tracer)
    assert all(tracer.spans[span].work == 10000 for span in spans)
