"""Certification benchmark for the `stein-poisson` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload occupancy-dp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own fresh single-threaded interpreter (worker.py),
a closed loop of CLI commands with one client.  ``--trace 0`` reports the
end-to-end metrics (set-up time, wall time per pass of the command list, peak
memory); ``--trace 1`` reports the per-layer metrics from alternating
untraced and traced passes.  Every record is checked against its reference.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
#: printed in the report; fail_frac is failed/attempted of the JSON line and
#: mc_samples_per_s exists on pair-verify only, so neither is a JSON metric
REPORT_ONLY = (("fail_frac", "ratio"), ("mc_samples_per_s", "1/s"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: set-up starts per run, half before and half after the workload, so that
#: their median spans the run instead of one moment of a shared machine
SETUP_STARTS = 10
SETUP_SNIPPET = ("import steinpoisson.cli as c; c.build_parser(); "
                 "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()")
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STEIN_POISSON_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "steinpoisson")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(env: dict, seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "STEIN_POISSON_THREADS": env.get("STEIN_POISSON_THREADS"),
    }


def measure_setup(env: dict, starts: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    steinpoisson.cli and built the parser, for ``starts`` starts after one
    discarded warm-up start (which may write the bytecode cache)."""
    times = []
    for _ in range(starts + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - start
            if line.strip() != b"ready":
                proc.kill()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed to import steinpoisson.cli")
        times.append(elapsed)
    return times[1:]


def run_worker(env: dict, workload: str, seed: int, seconds: float, trace: int,
               budget: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"workload {workload} did not finish within {budget:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    env = child_env()
    setup = [] if trace else measure_setup(env, SETUP_STARTS // 2)
    summary = run_worker(env, name, seed, seconds, trace,
                         RUN_LIMIT_S - (time.perf_counter() - started))
    if not trace:
        setup += measure_setup(env, SETUP_STARTS - len(setup))
    passes = summary["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    mc = [p["mc_trials"] / p["mc_time_s"] for p in plain if p["mc_time_s"] > 0]
    mc_rate = statistics.median(mc) if mc else 0.0

    for msg in summary["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {name}: seed {seed}, {len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} operations")
    print("env " + json.dumps(environment(env, seed), sort_keys=True))
    if trace:
        if summary["missing_spans"]:
            raise BenchError(f"declared spans never fired on {name}: {summary['missing_spans']}")
        values = {m: statistics.median(p["layers"][m] for p in traced)
                  for m in traced[0]["layers"]}
        values["mc_samples_per_s"] = mc_rate
        values["trace_overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / wall - 1.0)
        for metric, unit in PER_LAYER:
            print(f"{metric:<45} {fmt(values[metric]):>12} {unit}")
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": summary["peak_rss_mb"],
            "fail_frac": failed / attempted,
            "mc_samples_per_s": mc_rate,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": "median of passes: " + ", ".join(fmt(p["wall_s"]) for p in plain),
            "peak_rss_mb": "worker process",
            "fail_frac": f"{failed} of {attempted} operations failed",
            "mc_samples_per_s": "Monte Carlo trials per second of verify-pair/mc-tv"
                                if mc else "no Monte Carlo in this workload",
        }
        for metric, unit in END_TO_END + REPORT_ONLY:
            print(f"{metric:<18} {fmt(values[metric]):>12} {unit:<6} {notes[metric]}")
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "steinpoisson", "cli.py")):
        print(f"error: no steinpoisson sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
