"""Run one workload in this process and print one JSON summary line.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  Runs
passes of the workload's command list through ``steinpoisson.cli.main`` until
``--seconds`` is used up (at least ``MIN_PASSES``), checking every output
against its reference.  With ``--trace 1`` passes alternate untraced/traced.

    python3 perfbench/worker.py --workload many-small --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shlex
import sys
import time
import traceback

import checks
import tracing
from workloads import WORKLOADS

MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # of each kind in a traced run
HARD_LIMIT_S = 120.0
MAX_LOGGED_FAILURES = 20


def run_command(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if rc != 0:
        sys.stderr.write(f"command {shlex.join(argv)} exited {rc}:\n{err.getvalue()[-2000:]}\n")
    return rc, out.getvalue(), seconds


def run_pass(cli, commands, expected, failures: list[str]) -> dict:
    wall = mc_time = 0.0
    attempted = failed = mc_trials = 0
    for template, argv in commands:
        rc, out, seconds = run_command(cli, argv)
        wall += seconds
        ops, bad = checks.check_output(argv, rc, out, expected[template])
        attempted += ops
        failed += len(bad)
        failures.extend(f"{shlex.join(argv)}: {msg}" for msg in bad[:MAX_LOGGED_FAILURES])
        trials = checks.mc_trials(argv)
        if trials:
            mc_trials += trials
            mc_time += seconds
    return {"wall_s": wall, "attempted": attempted, "failed": failed,
            "mc_trials": mc_trials, "mc_time_s": mc_time}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    from steinpoisson import cli

    workload = WORKLOADS[args.workload]
    commands = [(t, shlex.split(t.format(seed=args.seed))) for t in workload.commands]
    reference = checks.load_reference()
    expected = {t: checks.expected_for(t, argv, reference) for t, argv in commands}

    tracer = tracing.Tracer()
    fired: set[str] = set()
    failures: list[str] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracing.install(tracer)
        try:
            result = run_pass(cli, commands, expected, failures)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        if traced:
            result["layers"] = tracing.layer_metrics(tracer)
            fired |= tracing.fired(tracer)
        passes.append(result)

        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        enough = (n_plain >= MIN_TRACE_PASSES and n_traced >= MIN_TRACE_PASSES
                  if args.trace else n_plain >= MIN_PASSES)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if elapsed > HARD_LIMIT_S or (enough and elapsed + per_pass > args.seconds):
            break

    summary = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_spans": sorted(workload.spans - fired) if args.trace else [],
        "failures": failures[:MAX_LOGGED_FAILURES],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
