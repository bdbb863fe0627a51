"""Correctness gate: compare each command's output with its reference.

Fixed-grid commands are compared with ``reference.json`` (generated once by
``make_reference.py``).  The seeded Poisson-binomial grid is compared with an
independent reference computed here from the same seed.  ``lambda``,
``bound``, ``convention``, ``surrogate``, ``params`` and ``verdict`` must match
exactly; ``exact_tv`` must match within ``TV_TOL``.

``TV_TOL`` is an absolute tolerance on a total variation distance.  It admits
a change of summation order (pmf entries moving by about 1e-13 shift a TV by
at most support size times that) and is far below the smallest gap between
a bound and its exact TV in the references (recorded in ``reference.json``).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

TV_TOL = 1e-10
VERDICT_SLACK = 1e-12
EXACT_FIELDS = ("problem", "params", "lambda", "bound", "convention", "surrogate", "verdict")
FLOAT_FIELDS = ("lambda", "bound")
MC_TV_SIGMAS = 10.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def flag(argv: list[str], name: str, default=None):
    """Value of ``--name VALUE`` or ``--name=VALUE`` in an argv list."""
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def is_seeded_poisson_binomial(argv: list[str]) -> bool:
    return argv[:2] == ["sweep", "poisson-binomial"] and flag(argv, "--count") is not None


def mc_trials(argv: list[str]) -> int:
    """Monte Carlo trials a command draws (0 for exact commands)."""
    if argv[0] in ("verify-pair", "mc-tv") and "--exact" not in argv:
        return int(flag(argv, "--trials", 100_000))
    return 0


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_sweep(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def parse_fields(text: str) -> dict:
    """``key: value`` lines (mc-tv and exact-tv output)."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def record_fields(row: dict) -> dict:
    """The reference-relevant part of one sweep row."""
    return {key: row[key] for key in EXACT_FIELDS + ("exact_tv",)}


# ---------------------------------------------------------------------------
# independent reference for the seeded Poisson-binomial grid
# ---------------------------------------------------------------------------


def random_p_vectors(seed: int, count: int, maxlen: int):
    """The grid ``sweep poisson-binomial --count`` draws: vector i comes from
    sub-stream i of the master seed."""
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        length = int(rng.integers(1, maxlen + 1))
        yield i, [float(x) for x in rng.random(length)]


def poisson_binomial_law(p) -> np.ndarray:
    law = np.array([1.0])
    for pi in p:
        law = np.convolve(law, [1.0 - pi, pi])
    return law


def poisson_binomial_rows(seed: int, count: int, maxlen: int, coupling: bool) -> list[dict]:
    """Expected records of the seeded grid: law by convolution, TV against the
    full Poisson law (its mass beyond the support counted exactly), and the
    Barbour-Hall / size-bias coupling bounds written out from their formulas."""
    rows = []
    for i, p in random_p_vectors(seed, count, maxlen):
        probs = np.asarray(p, dtype=float)
        lam = float(probs.sum())
        sum_sq = float(np.sum(probs**2))
        if coupling:
            raw = -math.expm1(-lam) * (sum_sq / lam)
            convention, as_set = "set_distance", min(1.0, raw)
        else:
            raw = -math.expm1(-lam) / (2.0 * lam) * sum_sq
            convention, as_set = "tv", min(1.0, 2.0 * raw)
        law = poisson_binomial_law(p)
        poi = np.empty(law.size)
        term = math.exp(-lam)
        for j in range(law.size):
            poi[j] = term
            term *= lam / (j + 1)
        beyond = max(0.0, 1.0 - math.fsum(poi.tolist()))
        tv = 0.5 * (math.fsum(np.abs(law - poi).tolist()) + beyond)
        rows.append({
            "problem": "poisson-binomial",
            "params": f"random#{i} len={len(p)}",
            "lambda": repr(lam),
            "exact_tv": repr(tv),
            "bound": repr(min(1.0, raw)),
            "convention": convention,
            "surrogate": "false",
            "verdict": "pass" if as_set >= tv - VERDICT_SLACK else "fail",
        })
    return rows


def expected_for(template: str, argv: list[str], reference: dict) -> dict:
    """Reference entry for one command, computing the seeded grid on demand."""
    if is_seeded_poisson_binomial(argv):
        rows = poisson_binomial_rows(
            int(flag(argv, "--seed")), int(flag(argv, "--count")),
            int(flag(argv, "--maxlen", 12)), flag(argv, "--bound") == "coupling",
        )
        return {"kind": "sweep", "rows": rows}
    return reference["commands"][template]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _row_problems(got: dict, want: dict) -> list[str]:
    bad = []
    for key in EXACT_FIELDS:
        g, w = got.get(key), want[key]
        if key in FLOAT_FIELDS:
            try:
                same = float(g) == float(w)
            except (TypeError, ValueError):
                same = False
        else:
            same = g == w
        if not same:
            bad.append(f"{key} {g!r} != {w!r}")
    try:
        if not abs(float(got.get("exact_tv")) - float(want["exact_tv"])) <= TV_TOL:
            bad.append(f"exact_tv {got.get('exact_tv')} vs {want['exact_tv']} (tol {TV_TOL})")
    except (TypeError, ValueError):
        bad.append(f"exact_tv unreadable: {got.get('exact_tv')!r}")
    if got.get("verdict") != "pass":
        bad.append(f"verdict {got.get('verdict')!r}")
    return bad


def check_output(argv: list[str], rc: int, out: str, want: dict) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation)."""
    kind = want["kind"]
    if kind == "sweep":
        rows = want["rows"]
        if rc != 0:
            return len(rows), [f"exit code {rc}"] * len(rows)
        got = parse_sweep(out)
        failures = []
        for i, w in enumerate(rows):
            if i >= len(got):
                failures.append(f"record {w['params']}: missing")
                continue
            bad = _row_problems(got[i], w)
            if bad:
                failures.append(f"record {w['params']}: " + "; ".join(bad))
        extra = len(got) - len(rows)
        failures.extend(["unexpected extra record"] * max(0, extra))
        return len(rows) + max(0, extra), failures
    if rc != 0:
        return 1, [f"exit code {rc}"]
    if kind == "verify":
        lines = set(out.splitlines())
        missing = [line for line in want["lines"] + ["verdict: pass"] if line not in lines]
        return 1, ([f"missing output line(s) {missing}"] if missing else [])
    if kind == "mc-tv":
        got = parse_fields(out)
        ref = want["fields"]
        bad = [f"{key} {got.get(key)!r} != {ref[key]!r}"
               for key in EXACT_FIELDS if got.get(key) != ref[key]]
        try:
            est, se = float(got["mc_tv"]), float(got["mc_stderr"])
            allowed = MC_TV_SIGMAS * max(se, float(ref["mc_stderr"]))
            if not (0.0 <= est <= 1.0 and abs(est - float(ref["mc_tv"])) <= allowed):
                bad.append(f"mc_tv {est} vs {ref['mc_tv']} (allowed {allowed:.3g})")
        except (KeyError, ValueError):
            bad.append("mc_tv/mc_stderr unreadable")
        return 1, (["; ".join(bad)] if bad else [])
    raise ValueError(f"unknown reference kind {kind!r}")
