"""Check that two source trees print the same workload outputs.

Runs every command of ``perfbench/workloads.py`` at seeds 1 and 7, once with
each tree's ``src`` on ``PYTHONPATH``, and lists every run whose stdout,
stderr or exit code differs between the trees.  Timing is masked: the last
column of a CSV whose header ends in ``seconds``, and the ``seconds:`` line
of a single-point report.  Exits 1 if any run differs, else 0.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 7)


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
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for template in workload.commands:
                argv = shlex.split(template.format(seed=seed))
                a, b = run(args.parent, argv), run(args.change, argv)
                runs += 1
                parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                         if x != y]
                if parts:
                    differ += 1
                    print(f"DIFFERS ({', '.join(parts)}): {name} seed {seed}: {shlex.join(argv)}")
    print(f"{runs - differ} of {runs} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
