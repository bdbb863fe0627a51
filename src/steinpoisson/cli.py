"""Certification harness CLI.

Subcommands:

* ``bound``       -- evaluate one closed-form bound and print it
* ``exact-tv``    -- exact law vs its Poisson target: TV, bound, verdict
* ``mc-tv``       -- Monte Carlo TV estimate for instances past the exact caps,
                     against the Poisson target of the bound report's rate,
                     as in ``exact-tv``
* ``sweep``       -- run a parameter grid, stream certification records to
                     CSV/JSON, exit nonzero if any dominance verdict fails
* ``verify-pair`` -- certify the exchangeable-pair conditionals (exact
                     enumeration on small instances, 4-sigma Monte Carlo
                     otherwise)

Every problem family is described once, in ``FAMILIES``; the subcommands
look its entry up.  Every subcommand takes its points from ``build_grid``
(``bound``, ``exact-tv``, ``mc-tv`` and ``verify-pair`` exactly one), where
a family reads the flags of its axes, ``--theta`` where it scales k and
``--n``, ``--count`` and ``--maxlen`` where it has its own grid.  Only
``sweep``, ``mc-tv`` and ``verify-pair`` take ``--seed``, only ``mc-tv``
and ``verify-pair`` ``--trials``, only ``sweep`` ``--count`` and
``--maxlen``.  Any other of these flags, or one that a flag given with it
leaves unread (``UNREAD_WITH``: ``--theta`` with ``--k``,
``--count``/``--maxlen`` with ``--p``, ``--trials`` and ``--seed`` with
``--exact``), is a usage error that names it.  So is the first point of a
``sweep`` or ``exact-tv`` that the family's ``check`` refuses: each bound
owns its domain, and the point's rate must be in (0, ``MAX_LAM``] (~708.4).
A family evaluates a list of points (exact law, bound report, exact TV) as
an iterator, so ``sweep`` and ``exact-tv`` (its one-point case) share one
path, ``_certify``: Poisson-binomial grids are evaluated a block of points
at a time, with one matrix DP, one bound call and one table of Poisson
targets per vector length, every other family one point at a time (the
allocation-engine families over tables planned from the whole list, see
``_planned``).  A record's ``seconds`` covers its law, bound, Poisson
target and TV plus the record's assembly; a point evaluated in a block is
charged an even share of the block's time.  Exit codes: 0 all pass, 1
dominance/verification failure, 2 usage error or records that cannot be
written.  Identical command + seed
produces byte-identical report bodies; the ``seconds`` column is the only
timing field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import bounds as bd
from . import exact_laws as laws
from . import multivariate as mv
from . import pair_models as pm
from . import stein_core
from .stein_core import SteinParams, poisson_pmf, tv_distance

SCHEMA_VERSION = "stein-poisson-cert-v1"

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
VERDICT_SLACK = 1e-12
#: the defaults of --trials, --maxlen and --seed, which parse as None where
#: another flag can leave them unread, so that giving one there is seen
MC_TRIALS = 100_000
RANDOM_MAXLEN = 12
DEFAULT_SEED = 20240901


class UsageError(Exception):
    pass


#: the text of a record field, by the field value's exact type
_FIELD_TEXT = {float: repr, str: str, bool: lambda b: "true" if b else "false",
               type(None): lambda _: ""}


@dataclass
class CertRecord:
    """One certification record; its fields, in order, are the CSV columns."""

    problem: str
    params: str
    lam: float
    exact_tv: float | None
    mc_tv: float | None
    mc_stderr: float | None
    bound: float
    convention: str
    surrogate: bool
    verdict: str
    seconds: float

    def row(self) -> list[str]:
        return [_FIELD_TEXT[type(x)](x) for x in vars(self).values()]

    def as_dict(self) -> dict:
        return dict(zip(CSV_COLUMNS, self.row()))


CSV_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(CertRecord)]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _in_float_range(value: int, flag: str) -> int:
    """``value``, refused with a usage error naming ``flag`` if no float holds it."""
    try:
        float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise UsageError(f"{flag}: a {digits}-digit integer is past the float range") from None
    return value


def parse_int_list(text: str, flag: str) -> list[int]:
    """Comma list with .. ranges: '4..7,10' -> [4, 5, 6, 7, 10].  A value
    past the float range is a usage error that names ``flag``."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (_in_float_range(int(x), flag) for x in part.split(".."))
            if lo > hi:
                raise UsageError(f"reversed range {part!r} in {text!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(_in_float_range(int(part), flag))
    if not out:
        raise UsageError(f"empty integer list: {text!r}")
    return out


def parse_float_list(text: str) -> list[float]:
    out = [float(p) for p in text.split(",") if p.strip()]
    if not out or not all(map(math.isfinite, out)):
        raise UsageError(f"not a list of finite floats: {text!r}")
    return out


def _p_float(word: str, text: str) -> float:
    """``float(word)`` of the --p value ``text``, or a usage error naming --p."""
    try:
        return float(word)
    except ValueError:
        raise UsageError(f"--p {text!r}: {word!r} is not a float") from None


def _recipe_n(recipe: str, n: int | None) -> int:
    """The --n of a --p recipe, refused with a usage error unless given and >= 1."""
    if n is None:
        raise UsageError(f"recipe {recipe} needs --n")
    if n < 1:
        raise UsageError(f"--n must be >= 1 for the --p recipes (got {n})")
    return n


def parse_p_vector(text: str, n: int | None) -> tuple[float, ...]:
    """Explicit comma list, which takes no --n, or the recipes 'uniform:LAM'
    (p_i = LAM/n) and 'harmonic' (p_i = 1/i), both of which need --n >= 1."""
    if text.startswith("uniform:"):
        lam = _p_float(text.split(":", 1)[1], text)
        n = _recipe_n("uniform:LAM", n)
        return tuple(lam / n for _ in range(n))
    if text == "harmonic":
        return tuple(1.0 / i for i in range(1, _recipe_n("harmonic", n) + 1))
    if n is not None:
        raise UsageError("an explicit --p list takes no --n")
    return tuple(_p_float(word, text) for word in text.split(","))


# ---------------------------------------------------------------------------
# problem families
# ---------------------------------------------------------------------------


class Evaluation(NamedTuple):
    """One point's bound report and exact TV, with the seconds they took."""

    report: bd.BoundReport
    exact_tv: float
    seconds: float


def _poisson_tv(law, lam: float) -> float:
    """``tv`` of a univariate law: TV against Poisson(lam)."""
    return tv_distance(law, poisson_pmf(SteinParams(lam)))


@dataclass(frozen=True)
class Family:
    """Everything the subcommands know about one problem family.

    - ``axes``: the parameters of one point.
    - ``check(point, bound)``: raises ValueError where the law module's cap
      check (asked first) or ``bound`` (each bound owns its domain) refuses
      the point, or its report's rate is outside (0, ``stein_core.MAX_LAM``].
    - ``evaluate(points, bound)``: the bound report (``bound`` is one of
      ``bounds``) and exact TV of each of a list of points, in order, as an
      iterator of ``Evaluation``s.  Points are evaluated as the iterator is
      advanced, never the whole list ahead; the allocation-engine families
      (occupancy counts but coupon, and coloring) read the whole list first
      only to plan the tables their laws share.
    - ``bounds``: each ``--bound`` kind -> ``point -> BoundReport``.
    - ``scale_k(n, theta)``: the k of a ``--theta`` value.
    - ``pair_model(point)``: the exchangeable pair.
    - ``grid(args)``: replaces the product of the axis lists.

    Entries call the library through its modules at call time, so a function
    patched on a module is the one that runs.
    """

    axes: tuple[str, ...]
    check: Callable[[dict, Callable[[dict], bd.BoundReport]], None]
    evaluate: Callable[[list[dict], Callable[[dict], bd.BoundReport]], Iterator[Evaluation]]
    bounds: dict[str, Callable[[dict], bd.BoundReport]]
    scale_k: Callable[[int, float], int] | None = None
    pair_model: Callable[[dict], pm.PairModel] | None = None
    grid: Callable[[argparse.Namespace], list[dict]] | None = None


def _each(law: Callable[[dict], object], tv: Callable[[object, float], float] = _poisson_tv):
    """``evaluate`` of a family whose points are evaluated one at a time:
    ``law(point)`` is the exact law of a point and ``tv(law, lam)`` its exact
    TV against the target of rate ``lam``, the rate of the point's report."""

    def evaluate(points, bound):
        for pt in points:
            start = time.perf_counter()
            value = law(pt)
            report = bound(pt)
            exact = tv(value, report.lam)
            yield Evaluation(report, exact, time.perf_counter() - start)

    return evaluate


def _planned(spec: Callable[[dict], object], law: Callable[[object, object], object]):
    """``evaluate`` of an allocation-engine family: the whole point list is
    read first, to plan the cell-group tables its laws share
    (``exact_laws.AllocationTables``); ``law(spec, tables)`` then gives each
    point's law one point at a time, as in ``_each``."""

    def evaluate(points, bound):
        tables = laws.AllocationTables([spec(pt) for pt in points])
        yield from _each(lambda pt: law(spec(pt), tables))(points, bound)

    return evaluate


def _matching_spec(pt: dict) -> laws.MatchingSpec:
    l = pt.get("l")
    return laws.MatchingSpec(sum(l), tuple(l)) if l else laws.MatchingSpec(pt["n"])


def _bounded(law_check: Callable[[dict], None]):
    """``check`` of a family from its law module's cap check."""

    def check(pt, bound):
        law_check(pt)
        stein_core.check_rate(bound(pt).lam)

    return check


_check_matching = _bounded(lambda pt: laws.check_matching(_matching_spec(pt)))


def _matching_family(axes: tuple[str, ...], bounds: dict, pair_model) -> Family:
    law = _each(lambda pt: laws.matching_pmf(_matching_spec(pt)))
    return Family(axes, _check_matching, law, bounds, pair_model=pair_model)


def _check_probabilities(pt: dict, bound) -> None:
    """``check`` of Poisson-binomial; both its bounds take every vector it passes."""
    p = pt["p"]
    if any(not 0 <= x <= 1 for x in p):
        raise ValueError("success probabilities must lie in [0, 1]")
    # the Poisson target's own domain (an empty vector's rate 0 is outside),
    # so no block of checked points raises
    stein_core.check_rate(sum(p))


def _poisson_binomial_grid(args) -> list[dict]:
    """Recipe vectors over --n, an explicit --p list as one point, or (sweep
    only) --count random vectors from sub-streams of --seed."""
    if args.p and args.n:
        return [{"p": parse_p_vector(args.p, n), "tag": f"n={n} recipe={args.p}"}
                for n in parse_int_list(args.n, "--n")]
    if args.p:
        return [{"p": parse_p_vector(args.p, None)}]
    if args.n:
        raise UsageError("--n is read by the --p recipes only")
    if getattr(args, "count", None) is None:
        raise UsageError("poisson-binomial needs --p (or, in sweep, --count)")
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    maxlen = RANDOM_MAXLEN if args.maxlen is None else args.maxlen
    if maxlen < 1:
        raise UsageError("--maxlen must be >= 1")
    grid = []
    for i, rng in enumerate(pm.substreams(_seed(args), args.count)):
        length = int(rng.integers(1, maxlen + 1))
        p = tuple(rng.random(length).tolist())
        grid.append({"p": p, "tag": f"random#{i} len={length}"})
    return grid


#: a Poisson-binomial block holds grid points up to this many law entries
#: (rows x (n + 1)); a single longer vector makes a block of its own.  On
#: vectors of up to 12 entries a block's length groups are about 180 rows
#: each, enough to spread NumPy's per-call cost, and the records a block
#: holds until its last group is done stay under 1 MiB
PB_BLOCK_ENTRIES = 1 << 14


def _poisson_binomial_blocks(points: list[dict], bound) -> Iterator[Evaluation]:
    """``evaluate`` of Poisson-binomial points: consecutive points form
    blocks of at most ``PB_BLOCK_ENTRIES`` law entries."""
    block: list[tuple[float, ...]] = []
    entries = 0
    for pt in points:
        size = len(pt["p"]) + 1
        if block and entries + size > PB_BLOCK_ENTRIES:
            yield from _poisson_binomial_block(block, bound)
            block, entries = [], 0
        block.append(pt["p"])
        entries += size
    if block:
        yield from _poisson_binomial_block(block, bound)


def _poisson_binomial_block(vectors: list[tuple[float, ...]], bound) -> Iterator[Evaluation]:
    """Each vector length in the block gets one matrix of its vectors, and
    from it one ``poisson_binomial_pmf`` call (the laws, one DP table checked
    once), one ``bound`` call on the point ``{"p": matrix}`` (the reports,
    one per row) and one ``stein_core._poisson_tvs`` call (the targets, one
    column recurrence, and the TVs)."""
    start = time.perf_counter()
    by_length: dict[int, list[int]] = {}
    for i, p in enumerate(vectors):
        by_length.setdefault(len(p), []).append(i)
    out: list = [None] * len(vectors)
    for rows in by_length.values():
        probs = np.array([vectors[i] for i in rows])
        group_laws = laws.poisson_binomial_pmf(probs)
        reports = bound({"p": probs})
        tvs = stein_core._poisson_tvs(group_laws, [r.lam for r in reports])
        for i, report, exact in zip(rows, reports, tvs):
            out[i] = (report, exact)
    share = (time.perf_counter() - start) / len(vectors)
    for report, exact in out:
        yield Evaluation(report, exact, share)


def _occupancy_family(statistic: str, bounds: dict, scale_k, pair_model=None) -> Family:
    """k balls in n boxes."""

    def spec(pt):
        return laws.OccupancySpec(pt["n"], pt["k"], statistic)

    if statistic == "empty":  # a closed form, no engine tables to share
        evaluate = _each(lambda pt: laws.occupancy_pmf(spec(pt)))
    else:
        evaluate = _planned(spec, lambda s, tables: laws.occupancy_pmf(s, tables))
    check = _bounded(lambda pt: laws.check_occupancy(spec(pt)))
    return Family(("n", "k"), check, evaluate, bounds, scale_k, pair_model)


def _sqrt_scale(n: int, theta: float) -> int:
    return max(1, round(theta * math.sqrt(n)))


def _coloring_spec(pt: dict) -> laws.ColoringSpec:
    return laws.ColoringSpec(pt["n"], pt["k"], pt["c"])


FAMILIES: dict[str, Family] = {
    "matching": _matching_family(
        ("n",),
        {"default": lambda pt: bd.bound_matching(pt["n"]),
         "coupling": lambda pt: bd.bound_coupling_matching(pt["n"])},
        lambda pt: pm.matching_model(pt["n"]),
    ),
    "generalized-matching": _matching_family(
        ("l",),
        {"default": lambda pt: bd.bound_generalized_matching(pt["l"])},
        lambda pt: pm.matching_model(sum(pt["l"]), pt["l"]),
    ),
    "poisson-binomial": Family(
        ("p",),
        _check_probabilities,
        _poisson_binomial_blocks,
        # each also takes a point whose p is a matrix of equal-length vectors
        {"default": lambda pt: bd.bound_poisson_binomial(pt["p"]),
         "coupling": lambda pt: bd.bound_coupling_poisson_binomial(pt["p"])},
        pair_model=lambda pt: pm.poisson_binomial_model(pt["p"]),
        grid=_poisson_binomial_grid,
    ),
    "birthday-pairs": _occupancy_family(
        "pairs",
        {"default": lambda pt: bd.bound_birthday_pairs(pt["n"], pt["k"])},
        _sqrt_scale,
        lambda pt: pm.birthday_pairs_model(pt["n"], pt["k"]),
    ),
    "birthday-pair-count": _occupancy_family(
        "pair_count",
        dict.fromkeys(("default", "coupling"),
                      lambda pt: bd.bound_coupling_pair_count(pt["n"], pt["k"])),
        _sqrt_scale,
    ),
    "birthday-triples": _occupancy_family(
        "triples",
        {"default": lambda pt: bd.bound_birthday_triples(pt["n"], pt["k"])},
        lambda n, theta: max(3, round(theta * n ** (2.0 / 3.0))),
        lambda pt: pm.birthday_triples_model(pt["n"], pt["k"]),
    ),
    "coupon": _occupancy_family(
        "empty",
        {"default": lambda pt: bd.bound_coupon_collector(pt["n"], pt["k"]),
         "coupling": lambda pt: bd.bound_coupling_coupon(pt["n"], pt["k"]),
         "negative-association": lambda pt: bd.bound_coupon_negative_association(pt["n"], pt["k"])},
        lambda n, theta: max(1, round(n * math.log(n) + theta * n)),
        lambda pt: pm.coupon_model(pt["n"], pt["k"]),
    ),
    "coloring": Family(
        ("n", "k", "c"),
        _bounded(lambda pt: laws.check_coloring(_coloring_spec(pt))),
        _planned(_coloring_spec, lambda s, tables: laws.coloring_pmf(s, tables)),
        {"default": lambda pt: bd.bound_monochromatic(pt["n"], pt["k"], pt["c"])},
    ),
    "joint-matching-succession": Family(
        ("n",),
        _bounded(lambda pt: mv.check_joint(pt["n"])),
        _each(lambda pt: mv.joint_fixed_point_succession_pmf(pt["n"]),
              lambda law, lam: mv.joint_tv(law, mv.product_poisson_joint([lam, lam]))),
        {"default": lambda pt: mv.bound_fixed_point_succession(pt["n"])},
    ),
    "process-matching": Family(
        ("n",),
        _check_matching,
        _each(lambda pt: mv.matching_config_law(pt["n"]),
              lambda law, lam: mv.process_tv(
                  law, mv.product_poisson_config_law([lam / law.index_size] * law.index_size))),
        {"default": lambda pt: bd.bound_process_matching(pt["n"])},
    ),
}
BOUND_KINDS = tuple(dict.fromkeys(kind for fam in FAMILIES.values() for kind in fam.bounds))


def _family(problem: str) -> Family:
    fam = FAMILIES.get(problem)
    if fam is None:
        raise UsageError(f"unknown problem {problem!r}")
    return fam


def _bound_fn(problem: str, kind: str) -> Callable[[dict], bd.BoundReport]:
    bounds = _family(problem).bounds
    if kind not in bounds:
        raise UsageError(f"{problem} has no {kind!r} bound (available: {', '.join(bounds)})")
    return bounds[kind]


def _pair_model(problem: str, point: dict) -> pm.PairModel:
    fam = _family(problem)
    if fam.pair_model is None:
        raise UsageError(f"problem {problem!r} has no pair model")
    return fam.pair_model(point)


# ---------------------------------------------------------------------------
# certification records
# ---------------------------------------------------------------------------


def compute_record(problem: str, params: dict, evaluation: Evaluation,
                   tag: str | None = None) -> CertRecord:
    """The record of one point from its family's ``evaluate``; its
    ``seconds`` add the evaluation's.  ``tag`` replaces the params string."""
    start = time.perf_counter() - evaluation.seconds
    report, exact = evaluation.report, evaluation.exact_tv
    # dominance is judged on the set-distance equivalent: tv_distance is the
    # standard sup-over-events distance, and "tv"-convention values carry a
    # halved bookkeeping whose standard-TV claim is twice the printed number
    ok = report.in_convention("set_distance") >= exact - VERDICT_SLACK
    return _record(problem, tag or _params_string(params), report.lam, report, ok, start,
                   exact_tv=exact)


def _record(problem, params: str, lam, report, ok, start, exact_tv=None, mc_tv=None,
            mc_stderr=None) -> CertRecord:
    return CertRecord(problem, params, lam, exact_tv, mc_tv, mc_stderr,
                      report.value, report.convention, report.surrogate,
                      "pass" if ok else "fail", time.perf_counter() - start)


def _params_string(params: dict) -> str:
    parts = []
    for key in sorted(params):
        val = params[key]
        if key == "p":
            if len(val) > 6:
                parts.append(f"p=<{len(val)} probs>")
            else:
                parts.append("p=" + ",".join(repr(float(x)) for x in val))
        elif key == "l":
            parts.append("l=" + ",".join(str(x) for x in val))
        else:
            parts.append(f"{key}={val}")
    return " ".join(parts)


def compute_mc_record(problem: str, params: dict, trials: int, seed: int) -> CertRecord:
    start = time.perf_counter()
    model = _pair_model(problem, params)
    report = _bound_fn(problem, "default")(params)
    target = poisson_pmf(SteinParams(report.lam))
    est, se = pm.mc_tv_estimate(model, target, trials, pm.substream(seed, 0))
    ok = report.in_convention("set_distance") >= est - 3.0 * se
    return _record(problem, _params_string(params), report.lam, report, ok, start,
                   mc_tv=est, mc_stderr=se)


# ---------------------------------------------------------------------------
# feasibility prechecks (sweep validates the whole grid before running)
# ---------------------------------------------------------------------------


def feasibility_error(problem: str, params: dict, bound=None) -> str | None:
    """Why ``check`` refuses ``params`` with ``bound`` (default: kind ``default``), or None."""
    fam = FAMILIES.get(problem)
    if fam is None:
        return f"unknown problem {problem!r}"
    try:
        fam.check(params, bound or fam.bounds["default"])
    except (ValueError, KeyError, OverflowError) as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


#: the flags that a mode flag, when given, leaves unread: --k fixes the k
#: that --theta would scale, --p gives the points that --count and --maxlen
#: would draw at random, and --exact enumerates what --trials and --seed
#: would sample
UNREAD_WITH = {"k": ("theta",), "p": ("count", "maxlen"), "exact": ("trials", "seed")}


def build_grid(problem: str, args) -> list[dict]:
    """The points of the flags: the family's own ``grid``, or the product of
    its axis lists, with k from --theta where the family scales it.  A flag
    given that the family does not read, or that a mode flag given with it
    leaves unread (``UNREAD_WITH``), is a usage error that names it."""
    fam = _family(problem)
    reads = {*fam.axes, "trials", "seed", *["theta"] * bool(fam.scale_k),
             *["n", "count", "maxlen"] * bool(fam.grid)}
    unread = {flag: f" with --{mode}" for mode, flags in UNREAD_WITH.items()
              if getattr(args, mode, None) for flag in flags if flag in reads}
    for flag in ("n", "k", "c", "l", "p", "theta", "count", "maxlen", "trials", "seed"):
        if getattr(args, flag, None) is not None and (flag not in reads or flag in unread):
            raise UsageError(f"{problem} does not read --{flag}{unread.get(flag, '')}")
    if fam.grid is not None:
        return fam.grid(args)
    values = {axis: [tuple(parse_int_list(spec, "--l")) for spec in args.l] if axis == "l"
              else parse_int_list(getattr(args, axis), f"--{axis}")
              for axis in fam.axes if getattr(args, axis)}
    if args.theta and "n" in values:
        thetas = parse_float_list(args.theta)
        try:
            return [{"n": n, "k": fam.scale_k(n, theta)} for n in values["n"] for theta in thetas]
        except OverflowError:
            raise UsageError(f"--theta {args.theta} gives {problem} no finite k") from None
    missing = [f"--{axis}" for axis in fam.axes if axis not in values]
    if missing:
        alt = " (or --theta for --k)" if fam.scale_k else ""
        raise UsageError(f"{problem} needs {', '.join(missing)}{alt}")
    return [dict(zip(fam.axes, combo)) for combo in product(*values.values())]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", newline=""), True
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None


class RecordWriter:
    """Streams CSV rows as they arrive (so an interrupt keeps partial
    results); JSON is buffered and dumped whole, including on interrupt.
    Only JSON keeps the records; both count the records written and the
    failed verdicts as they arrive."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self.records: list[CertRecord] = []
        self.written = 0
        self.failed = 0
        if fmt == "csv":
            out.write(f"# schema={SCHEMA_VERSION}\n")
            self._csv = csv.writer(out, lineterminator="\n")
            self._csv.writerow(CSV_COLUMNS)
            out.flush()

    def write(self, rec: CertRecord) -> None:
        self.written += 1
        self.failed += rec.verdict != "pass"
        if self.fmt == "csv":
            self._csv.writerow(rec.row())
            self.out.flush()
        else:
            self.records.append(rec)

    def finish(self) -> None:
        if self.fmt == "json":
            payload = {
                "schema": SCHEMA_VERSION,
                "records": [rec.as_dict() for rec in self.records],
            }
            json.dump(payload, self.out, indent=2)
            self.out.write("\n")
            self.out.flush()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _print_bound(report: bd.BoundReport) -> None:
    print(f"theorem_id:  {report.theorem_id}")
    print(f"lambda:      {report.lam!r}")
    print(f"value:       {report.value!r}  (raw {report.raw_value!r})")
    print(f"convention:  {report.convention}")
    print(f"surrogate:   {str(report.surrogate).lower()}")
    if report.degenerate:
        print("degenerate:  true")
    other = "set_distance" if report.convention == "tv" else "tv"
    print(f"as {other}:   {report.in_convention(other)!r}")
    for key, val in report.inputs.items():
        print(f"  {key} = {val}")


def cmd_bound(args) -> int:
    point = _single_point(args)
    _print_bound(_bound_fn(args.problem, args.bound)(point))
    return EXIT_OK


def _single_point(args) -> dict:
    """The one point of ``build_grid`` for a single-point subcommand, untagged."""
    grid = build_grid(args.problem, args)
    if len(grid) != 1:
        raise UsageError(f"{args.command} takes one point, not {len(grid)}; sweep takes grids")
    return {key: val for key, val in grid[0].items() if key != "tag"}


def _certify(problem: str, grid: list[dict], bound) -> Iterator[CertRecord]:
    """The records of a list of points, made as the returned iterator is
    advanced; every point is prechecked with ``bound`` first, and the first
    one refused raises a usage error that names it."""
    points = [{k: v for k, v in point.items() if k != "tag"} for point in grid]
    for point, clean in zip(grid, points):
        err = feasibility_error(problem, clean, bound)
        if err:
            raise UsageError(f"point {point.get('tag') or _params_string(clean)}: {err}")
    evaluations = FAMILIES[problem].evaluate(points, bound)
    return (compute_record(problem, clean, evaluation, point.get("tag"))
            for point, clean, evaluation in zip(grid, points, evaluations, strict=True))


def _seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _print_record(rec: CertRecord) -> int:
    for key, val in zip(CSV_COLUMNS, rec.row()):
        print(f"{key}: {val}")
    return EXIT_OK if rec.verdict == "pass" else EXIT_FAIL


def cmd_exact_tv(args) -> int:
    [record] = _certify(args.problem, [_single_point(args)], _bound_fn(args.problem, args.bound))
    return _print_record(record)


def cmd_mc_tv(args) -> int:
    point = _single_point(args)
    return _print_record(compute_mc_record(args.problem, point, args.trials, _seed(args)))


def cmd_sweep(args) -> int:
    bound = _bound_fn(args.problem, args.bound)
    records = _certify(args.problem, build_grid(args.problem, args), bound)
    out, close = _open_out(args.out)
    try:
        with out if close else contextlib.nullcontext():
            writer = RecordWriter(args.format, out)
            try:
                for rec in records:
                    writer.write(rec)
            except KeyboardInterrupt:
                writer.finish()
                raise
            writer.finish()
    except OSError as exc:  # a full disk, or a reader that closed the pipe
        if not close:  # the exit's flush of stdout then writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = f"--out {args.out}" if close else "stdout"
        raise UsageError(f"cannot write {target}: {exc.strerror}") from None
    if writer.failed:
        print(f"{writer.failed}/{writer.written} dominance verdicts FAILED", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify_pair(args) -> int:
    model = _pair_model(args.problem, _single_point(args))
    ok = True
    if args.exact:
        report = pm.verify_step_probs(model)
        print(f"mode: exact over {report.samples} states")
        print(f"max |formula - enumerated conditional|: {report.max_dev!r}")
        print(f"  up: {report.up_dev!r}  down: {report.down_dev!r}")
        print(f"up/down balance (exchangeability): {report.balance_dev!r}")
        try:
            ex = pm.verify_exchangeability(model)
            print(f"joint measure symmetric: {ex.symmetric}  margins ok: {ex.margins_ok}")
            ok = ok and ex.symmetric and ex.margins_ok
        except ValueError as exc:
            print(f"joint measure check skipped: {exc}")
        print("verdict:", "pass" if report.passed and ok else "fail")
        ok = ok and report.passed
    else:
        trials = MC_TRIALS if args.trials is None else args.trials
        report = pm.verify_step_probs(model, trials=trials, rng=pm.substream(_seed(args), 0))
        print(f"mode: monte-carlo, {report.samples} trials")
        print(f"max standardized deviation: {report.max_dev:.3f} (gate 4.0)")
        print(f"  up z: {report.up_dev:.3f}  down z: {report.down_dev:.3f}  "
              f"balance z: {report.balance_dev:.3f}")
        print("verdict:", "pass" if report.passed else "fail")
        ok = report.passed
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_point_flags(sub):
    sub.add_argument("--n", help="integer list, e.g. 100 or 4..12,20")
    sub.add_argument("--k", help="integer list")
    sub.add_argument("--c", help="integer list (colors)")
    sub.add_argument("--theta", help="float list, not with --k; use --theta=-0.5,0 for negatives")
    sub.add_argument("--l", action="append", help="comma list of multiplicities (repeatable)")
    sub.add_argument("--p", help="comma list of probabilities, 'uniform:LAM', or 'harmonic'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stein-poisson",
        description="Poisson-approximation bound certification harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    pair_problems = [name for name, fam in FAMILIES.items() if fam.pair_model]

    b = subs.add_parser("bound", help="evaluate one closed-form bound")
    b.add_argument("problem")
    b.add_argument("--bound", default="default", choices=BOUND_KINDS)
    _add_point_flags(b)
    b.set_defaults(func=cmd_bound)

    e = subs.add_parser("exact-tv", help="exact law vs Poisson target with verdict")
    e.add_argument("problem", choices=FAMILIES)
    e.add_argument("--bound", default="default", choices=BOUND_KINDS)
    _add_point_flags(e)
    e.set_defaults(func=cmd_exact_tv)

    m = subs.add_parser("mc-tv", help="Monte Carlo TV estimate with verdict")
    m.add_argument("problem", choices=pair_problems)
    m.add_argument("--trials", type=int, default=MC_TRIALS)
    _add_point_flags(m)
    m.set_defaults(func=cmd_mc_tv)

    s = subs.add_parser("sweep", help="run a certification grid to CSV/JSON")
    s.add_argument("problem", choices=FAMILIES)
    s.add_argument("--bound", default="default", choices=BOUND_KINDS)
    s.add_argument("--count", type=int,
                   help="number of random p vectors (poisson-binomial without --p)")
    s.add_argument("--maxlen", type=int,
                   help=f"max random p vector length (default {RANDOM_MAXLEN}; with --count)")
    s.add_argument("--format", default="csv", choices=["csv", "json"])
    s.add_argument("--out", help="output path (default stdout)")
    _add_point_flags(s)
    s.set_defaults(func=cmd_sweep)

    v = subs.add_parser("verify-pair", help="certify pair-construction conditionals")
    v.add_argument("problem", choices=pair_problems)
    v.add_argument("--exact", action="store_true", help="exact enumeration (small instances)")
    v.add_argument("--trials", type=int,
                   help=f"Monte Carlo samples (default {MC_TRIALS}; not with --exact)")
    _add_point_flags(v)
    v.set_defaults(func=cmd_verify_pair)
    for sub in (m, s, v):
        sub.add_argument("--seed", type=int, help=f"default {DEFAULT_SEED}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OverflowError) as exc:  # e.g. a bound past the float range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
