"""Write reference.json: the expected output of every fixed workload command.

Run once from the repository root, at the commit whose outputs define
correctness:

    PYTHONPATH=src python3 perfbench/make_reference.py

Every stored record is cross-checked against the brute-force oracles in
``tests/oracles.py`` wherever enumeration is small enough, and so is the
independent Poisson-binomial reference of ``checks.py`` on a sample of the
seeded grid.  The script refuses to write a reference that disagrees with an
oracle, that holds a failing verdict, or whose smallest bound gap is not far
above ``checks.TV_TOL``.  Records whose bound is attained (a single-indicator
Poisson-binomial: the Barbour-Hall bound equals its TV) have a gap of zero up
to rounding; they are counted apart, and their verdicts are compared exactly.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import checks  # noqa: E402
import oracles  # noqa: E402
from run import git_commit  # noqa: E402
from worker import run_command  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MC_REFERENCE_SEED = 1
ORACLE_MAX_OUTCOMES = 100_000
ORACLE_TOL = 1e-9
PB_ORACLE_SAMPLE = 300
MIN_GAP_OVER_TOL = 1000.0


def parse_params(text: str) -> dict:
    out = {}
    for part in text.split():
        key, _, val = part.partition("=")
        out[key] = val
    return out


def oracle_law(problem: str, params: dict):
    """Brute-force law of one record, or None when enumeration is too large."""
    if problem == "matching":
        n = int(params["n"])
        return oracles.enumerate_matching(n) if math.factorial(n) <= ORACLE_MAX_OUTCOMES else None
    if problem == "generalized-matching":
        l = [int(x) for x in params["l"].split(",")]
        n = sum(l)
        if math.factorial(n) > ORACLE_MAX_OUTCOMES:
            return None
        word = [letter for letter, mult in enumerate(l) for _ in range(mult)]
        return oracles.enumerate_matching(n, word)
    stats = {
        "birthday-pairs": (oracles.stat_pairs, lambda n, k: k // 2),
        "birthday-triples": (oracles.stat_triples, lambda n, k: math.comb(k, 3)),
        "birthday-pair-count": (oracles.stat_pair_count, lambda n, k: math.comb(k, 2)),
        "coupon": (oracles.stat_empty, lambda n, k: n),
    }
    if problem in stats:
        n, k = int(params["n"]), int(params["k"])
        if n**k > ORACLE_MAX_OUTCOMES:
            return None
        stat, top = stats[problem]
        return oracles.enumerate_occupancy(n, k, stat, top(n, k))
    if problem == "coloring":
        n, k, c = int(params["n"]), int(params["k"]), int(params["c"])
        return oracles.enumerate_coloring(n, k, c) if c**n <= ORACLE_MAX_OUTCOMES else None
    return None


def oracle_tv(law, lam: float) -> float:
    """TV to Poisson(lam); the Poisson mass past the table is added exactly."""
    length = min(len(law) + 40, 170)  # lam**j / j! overflows past j = 170
    poi = oracles.poisson_series(lam, length)
    return oracles.tv_arrays(law, poi) + 0.5 * max(0.0, 1.0 - math.fsum(poi.tolist()))


def set_distance_bound(row: dict) -> float:
    bound = float(row["bound"])
    return bound if row["convention"] == "set_distance" else min(1.0, 2.0 * bound)


def main() -> int:
    from steinpoisson import cli

    commands: dict[str, dict] = {}
    checked: dict[str, int] = {}
    worst_oracle = 0.0
    gaps = []
    for workload in WORKLOADS.values():
        for template in workload.commands:
            argv = shlex.split(template.format(seed=MC_REFERENCE_SEED))
            if checks.is_seeded_poisson_binomial(argv):
                continue
            rc, out, _ = run_command(cli, argv)
            if rc != 0:
                raise SystemExit(f"{template}: exit {rc}")
            if argv[0] == "sweep":
                rows = [checks.record_fields(r) for r in checks.parse_sweep(out)]
                for row in rows:
                    if row["verdict"] != "pass":
                        raise SystemExit(f"{template}: failing verdict {row}")
                    gaps.append(set_distance_bound(row) - float(row["exact_tv"]))
                    law = oracle_law(row["problem"], parse_params(row["params"]))
                    if law is None:
                        continue
                    dev = abs(oracle_tv(law, float(row["lambda"])) - float(row["exact_tv"]))
                    if dev > ORACLE_TOL:
                        raise SystemExit(f"{template}: oracle disagrees on {row} by {dev:.3g}")
                    worst_oracle = max(worst_oracle, dev)
                    checked[row["problem"]] = checked.get(row["problem"], 0) + 1
                commands[template] = {"kind": "sweep", "rows": rows}
            elif argv[0] == "verify-pair":
                keep = ("mode:", "joint measure symmetric:")
                lines = [line for line in out.splitlines() if line.startswith(keep)]
                commands[template] = {"kind": "verify", "lines": lines}
            else:
                got = checks.parse_fields(out)
                fields = {key: got[key] for key in checks.EXACT_FIELDS + ("mc_tv", "mc_stderr")}
                if fields["verdict"] != "pass":
                    raise SystemExit(f"{template}: failing verdict {fields}")
                commands[template] = {"kind": "mc-tv", "fields": fields}
            print(f"reference: {template}", file=sys.stderr)

    # the seeded grid's own reference against the program and the oracle
    argv = shlex.split(f"sweep poisson-binomial --count {PB_ORACLE_SAMPLE} --maxlen 12 "
                       f"--seed {MC_REFERENCE_SEED}")
    rc, out, _ = run_command(cli, argv)
    mine = checks.poisson_binomial_rows(MC_REFERENCE_SEED, PB_ORACLE_SAMPLE, 12, False)
    ops, bad = checks.check_output(argv, rc, out, {"kind": "sweep", "rows": mine})
    if bad:
        raise SystemExit(f"Poisson-binomial reference disagrees with the program: {bad[:3]}")
    for (_, p), row in zip(checks.random_p_vectors(MC_REFERENCE_SEED, PB_ORACLE_SAMPLE, 12), mine):
        dev = abs(oracle_tv(oracles.enumerate_poisson_binomial(p), float(row["lambda"]))
                  - float(row["exact_tv"]))
        if dev > ORACLE_TOL:
            raise SystemExit(f"oracle disagrees with Poisson-binomial reference {row}: {dev:.3g}")
        worst_oracle = max(worst_oracle, dev)
        gaps.append(set_distance_bound(row) - float(row["exact_tv"]))
    checked["poisson-binomial"] = ops

    tight = sum(1 for gap in gaps if gap <= checks.VERDICT_SLACK)
    min_gap = min(gap for gap in gaps if gap > checks.VERDICT_SLACK)
    if min_gap < MIN_GAP_OVER_TOL * checks.TV_TOL:
        raise SystemExit(f"smallest bound gap {min_gap:.3g} is not far above TV_TOL")
    payload = {
        "generated_at_commit": git_commit(),
        "mc_reference_seed": MC_REFERENCE_SEED,
        "exact_tv_tolerance": checks.TV_TOL,
        "smallest_bound_gap": min_gap,
        "attained_bound_records": tight,
        "oracle_cross_check": {"records": checked, "max_abs_tv_deviation": worst_oracle,
                               "tolerance": ORACLE_TOL},
        "commands": commands,
    }
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(payload["oracle_cross_check"]), f"min gap {min_gap:.3g}, {tight} attained", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
