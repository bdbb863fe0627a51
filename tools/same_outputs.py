"""Check that two source trees print the same workload outputs.

Runs every command of ``perfbench/workloads.py`` at seeds 1 and 7, once with
each tree's ``src`` on ``PYTHONPATH``, and lists every run whose stdout,
stderr or exit code differs between the trees.  Timing is masked: the last
column of a CSV whose header ends in ``seconds``, and the ``seconds:`` line
of a single-point report.  A sweep whose records differ only in
``exact_tv`` is listed as drift, with how many records moved and the largest
change.  A Monte Carlo run whose ``mode:``, ``verdict:`` and other report
lines match, and whose sample values alone differ, is listed as ``STREAM``
apart from the real differences: the same law drawn from another stream.
Exits 1 if any run differs, else 0.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE
"""

from __future__ import annotations

import argparse
import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 7)
#: report keys of Monte Carlo sample values: verify-pair's standardized
#: deviations and mc-tv's estimate
SAMPLE_KEYS = ("max standardized deviation", "up z", "mc_tv", "mc_stderr")


def mask_seconds(stdout: str) -> str:
    lines = []
    in_csv = False
    for line in stdout.splitlines():
        if line.startswith("seconds:"):
            line = "seconds: <masked>"
        elif in_csv:
            line = line.rsplit(",", 1)[0] + ",<masked>"
        in_csv = in_csv or line.endswith(",seconds")
        lines.append(line)
    return "\n".join(lines)


def exact_tv_drift(a: str, b: str) -> tuple[int, float] | None:
    """``(records moved, largest |Δ|)`` when two masked sweep outputs
    differ only in their ``exact_tv`` column, else None."""
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if len(rows_a) != len(rows_b):
        return None
    col, moved, largest = None, 0, 0.0
    for x, y in zip(rows_a, rows_b):
        if x == y:
            if col is None and "exact_tv" in x:
                col = x.index("exact_tv")
            continue
        if col is None or len(x) != len(y) or x[:col] + x[col + 1 :] != y[:col] + y[col + 1 :]:
            return None
        moved += 1
        largest = max(largest, abs(float(x[col]) - float(y[col])))
    return moved, largest


def stream_only(a: str, b: str) -> bool:
    """Whether two masked reports with a ``verdict:`` line differ only in
    their Monte Carlo sample values."""
    def kept(text):
        return [line for line in text.splitlines()
                if line.lstrip().partition(":")[0] not in SAMPLE_KEYS]
    return kept(a) == kept(b) and any(line.startswith("verdict:") for line in kept(a))


def run(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, masked stdout and stderr of one command on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "steinpoisson.cli", *argv],
                          env=env, capture_output=True, text=True)
    return proc.returncode, mask_seconds(proc.stdout), proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    runs = differ = 0
    streams = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for template in workload.commands:
                argv = shlex.split(template.format(seed=seed))
                a, b = run(args.parent, argv), run(args.change, argv)
                runs += 1
                parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                         if x != y]
                if not parts:
                    continue
                differ += 1
                if parts == ["stdout"] and stream_only(a[1], b[1]):
                    streams.append(f"STREAM (sample values only): {name} seed {seed}: "
                                   f"{shlex.join(argv)}")
                    continue
                drift = exact_tv_drift(a[1], b[1]) if parts == ["stdout"] else None
                if drift:
                    what = f"exact_tv only: {drift[0]} records moved, largest |Δ| {drift[1]:.1e}"
                else:
                    what = ", ".join(parts)
                print(f"DIFFERS ({what}): {name} seed {seed}: {shlex.join(argv)}")
    for line in streams:
        print(line)
    print(f"{runs - differ} of {runs} runs identical, {len(streams)} differ in their "
          "Monte Carlo stream only")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
