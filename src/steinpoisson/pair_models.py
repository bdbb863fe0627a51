"""Exchangeable-pair constructions for the classical problems.

Each problem family couples a stationary sampler with a one-step reversible
move (resample a coordinate, compose with a random transposition, move a
random ball to a random box) and the closed-form conditional probabilities
of the statistic moving up or down by one.  Small instances can be
enumerated exactly, which is the strongest possible check of those formulas;
large instances are certified statistically.

Every family is one private record (:class:`_PairFamily`) that writes W,
the step observables, the (up, down) formula, the stationary draw and the
move once, over an array holding one state per row, next to an enumeration
oracle whose stationary law and kernel are integer weights over one integer
denominator each, so the exact checks compare Python ints.  The scalar API
applies those batch functions to one row.

Seeding contract: samplers take a ``numpy.random.Generator``.  Reproducible
runs derive sub-streams from a non-negative integer master seed by a counter
scheme: sub-stream i is ``default_rng(SeedSequence(master_seed,
spawn_key=(i,)))``, bit for bit, for every i below 2**32.
``substreams(master_seed, count)`` gives sub-streams 0..count-1 with their
seed words derived in bulk, and ``substream(master_seed, index)`` is its
one-index case (both from :mod:`steinpoisson.seeding`).  Identical seeds give
identical sample streams.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .exact_laws import BOX_STATISTICS, MatchingSpec
from .seeding import substream, substreams
from .stein_core import EnumeratedPairMeasure, Pmf, tv_distance

__all__ = [
    "PairModel",
    "BernoulliStats",
    "PlainMatchingStats",
    "GeneralizedMatchingStats",
    "OccupancyStats",
    "StepProbsReport",
    "ExchangeabilityReport",
    "poisson_binomial_model",
    "matching_model",
    "birthday_pairs_model",
    "birthday_triples_model",
    "coupon_model",
    "substream",
    "substreams",
    "sample_state",
    "sample_pair",
    "statistic",
    "state_stats",
    "step_probs",
    "sample_statistics",
    "is_enumerable",
    "enumeration_size",
    "enumerate_pair_measure",
    "exact_joint_measure",
    "verify_exchangeability",
    "verify_step_probs",
    "mc_tv_estimate",
]

#: enumeration caps (states / kernel transitions) for the exact checks
ENUM_STATE_CAP = 400_000
ENUM_TRANSITION_CAP = 30_000_000
#: state cap of the joint-measure (exchangeability) check, which holds one
#: integer weight per kernel transition in a dict keyed by state-index pairs
JOINT_STATE_CAP = 20_000
_MC_CHUNK = 8192
#: rows per sub-block of the balls-in-boxes count table
_TABLE_ROWS = 512
#: observable-table entries per batch evaluation of W over enumerated states
#: and their successors (rows times ``_PairFamily.cells``)
_ENUM_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# model definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairModel:
    """One exchangeable-pair problem instance.

    ``c`` is the error-term scaling constant for the problem's pair
    construction and ``lam`` the Poisson rate the statistic is compared
    against.  Fields not used by a family are ``None``.
    """

    problem: str
    c: float
    lam: float
    p: tuple[float, ...] | None = None
    spec: MatchingSpec | None = None
    n: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.problem not in _FAMILIES:
            raise ValueError(f"problem must be one of {tuple(_FAMILIES)}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("c must be positive")


def poisson_binomial_model(p) -> PairModel:
    """Independent indicators with success probabilities ``p``; c = n."""
    probs = tuple(float(x) for x in p)
    if not probs:
        raise ValueError("p must be nonempty")
    if any(not 0.0 <= x <= 1.0 for x in probs):
        raise ValueError("success probabilities must lie in [0, 1]")
    n = len(probs)
    return PairModel("poisson_binomial", c=float(n), lam=sum(probs), p=probs, n=n)


def matching_model(n: int, multiplicities=None) -> PairModel:
    """Fixed points of a uniform permutation, moved by a random transposition;
    c = (n - 1) / 2."""
    spec = MatchingSpec(n, tuple(multiplicities) if multiplicities is not None else None)
    if n < 2:
        raise ValueError("matching pair model needs n >= 2")
    mult = spec.multiplicities if spec.multiplicities is not None else (1,) * n
    lam = sum(l * l for l in mult) / n
    return PairModel("matching", c=(n - 1) / 2.0, lam=lam, spec=spec, n=n)


def birthday_pairs_model(n: int, k: int) -> PairModel:
    """Boxes holding two or more of k uniform balls; c = k / 2."""
    _check_balls(n, k)
    return PairModel("birthday_pairs", c=k / 2.0, lam=k * k / (2.0 * n), n=n, k=k)


def birthday_triples_model(n: int, k: int) -> PairModel:
    """Ball triples sharing a box; c = k / 3."""
    _check_balls(n, k)
    return PairModel("birthday_triples", c=k / 3.0, lam=math.comb(k, 3) / n**2, n=n, k=k)


def coupon_model(n: int, k: int) -> PairModel:
    """Empty boxes after k uniform drops; c = n, rate exp(-theta) with
    theta = (k - n log n) / n."""
    _check_balls(n, k)
    theta = (k - n * math.log(n)) / n
    return PairModel("coupon", c=float(n), lam=math.exp(-theta), n=n, k=k)


def _check_balls(n, k):
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("need at least n >= 2 boxes")
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("need at least one ball")


# ---------------------------------------------------------------------------
# step observables
# ---------------------------------------------------------------------------
# Each field holds one value per state of a batch, or a plain scalar for the
# one state that ``state_stats`` returns.


@dataclass(frozen=True)
class BernoulliStats:
    w: int
    weighted_sum: float  # sum of p_i over the active coordinates


@dataclass(frozen=True)
class PlainMatchingStats:
    w: int
    a2: int  # number of 2-cycles


@dataclass(frozen=True)
class GeneralizedMatchingStats:
    """Per-letter transfer counts: wij[i, j] = slots showing letter j where
    letter i originally stood (a stack of such tables for a batch)."""

    wij: np.ndarray

    @property
    def wi(self) -> np.ndarray:
        return np.diagonal(self.wij, axis1=-2, axis2=-1)

    @property
    def w(self):
        return self.wi.sum(axis=-1)


@dataclass(frozen=True)
class OccupancyStats:
    """Box-level profile (m0..m3) and the statistic value w of the state."""

    m0: int
    m1: int
    m2: int
    m3: int
    w: int


# ---------------------------------------------------------------------------
# the pair families
# ---------------------------------------------------------------------------


class _PairFamily:
    """One exchangeable pair, written once as batch functions over a
    (rows x dim) array ``states`` holding one state per row: ``draw``
    (stationary states), ``w`` (the statistic W), ``observe`` (the step
    observables ``s``, of class ``stats``), ``steps`` (P(W'=W+1 | state),
    P(W'=W-1 | state)), ``check`` (rejects inconsistent observables),
    ``move`` (columns, new values and dw of one reversible move) and
    ``step_arrays`` (the Monte Carlo batch: predicted steps, one realized
    move's dw, and W).  ``cells`` bounds the entries per state of the widest
    table those functions build; ``_blocks`` sizes row blocks by it, so a
    block's tables hold about as many entries as the state array.

    The enumeration oracle shares no code with them: ``size`` (states,
    kernel transitions), ``iter_states`` (state tuples), ``denominators``
    (D_P, D_K), and ``prob`` and ``kernel`` in integer weights: a state has
    stationary probability ``prob / D_P`` and ``kernel`` yields (weight,
    next state) pairs, each of probability ``weight / D_K``.
    """

    def cells(self, model):
        return model.n

    def step_arrays(self, model, states, rng):
        """(up, down, dw, W) of each row: the predicted steps, one realized
        move and the statistic."""
        up, down, w = _predict(self, model, states)
        return up, down, self.move(model, states, rng)[2], w

    def prob(self, model, state):  # uniform stationary law over D_P states
        return 1


class _Bernoulli(_PairFamily):
    """Independent indicators; a move resamples one uniform coordinate."""

    stats = BernoulliStats

    def draw(self, model, rows, rng):
        return rng.random((rows, model.n)) < np.asarray(model.p)

    def w(self, model, states):
        return states.sum(axis=1)

    def observe(self, model, states):
        return BernoulliStats(w=self.w(model, states), weighted_sum=states @ np.asarray(model.p))

    def steps(self, model, s):
        return (model.lam - s.weighted_sum) / model.n, (s.w - s.weighted_sum) / model.n

    def check(self, model, s):
        if not (0 <= s.w <= model.n):
            raise ValueError("w out of range")
        if s.weighted_sum < -1e-12 or s.weighted_sum > min(model.lam, float(s.w)) + 1e-9:
            raise ValueError("weighted_sum inconsistent with w")

    def move(self, model, states, rng):
        idx = rng.integers(0, model.n, len(states))
        eps = rng.random(len(states)) < np.asarray(model.p)[idx]
        dw = eps.astype(np.int64) - states[np.arange(len(states)), idx]
        return idx[:, None], eps[:, None], dw

    def size(self, model):
        return 2**model.n, 2**model.n * 2 * model.n

    def iter_states(self, model):
        return itertools.product((0, 1), repeat=model.n)

    def denominators(self, model):
        scale = _numerators(model.p)[0]
        return scale**model.n, model.n * scale

    def prob(self, model, state):
        scale, a = _numerators(model.p)
        return math.prod(ai if x else scale - ai for x, ai in zip(state, a))

    def kernel(self, model, state):
        scale, a = _numerators(model.p)
        for i, ai in enumerate(a):
            for eps, weight in ((1, ai), (0, scale - ai)):
                if weight:
                    yield weight, state[:i] + (eps,) + state[i + 1 :]


@functools.lru_cache(maxsize=8)
def _numerators(p: tuple[float, ...]) -> tuple[int, tuple[int, ...]]:
    """(L, a) with p_i = a_i / L exactly: L is the lcm of the denominators of
    the p_i (those of 1 - p_i are the same), and 1 - p_i = (L - a_i) / L."""
    exact = [Fraction(pi) for pi in p]
    scale = math.lcm(*(f.denominator for f in exact))
    return scale, tuple(f.numerator * (scale // f.denominator) for f in exact)


class _PlainMatching(_PairFamily):
    """Fixed points of a uniform permutation; a move composes it with a
    uniform transposition."""

    stats = PlainMatchingStats

    def draw(self, model, rows, rng):
        states = np.tile(np.arange(model.n), (rows, 1))
        rng.permuted(states, axis=1, out=states)
        return states

    def w(self, model, states):
        return (states == np.arange(model.n)).sum(axis=1)

    def observe(self, model, states):
        ident = np.arange(model.n)
        two_cycle = (np.take_along_axis(states, states, axis=1) == ident) & (states != ident)
        return PlainMatchingStats(w=self.w(model, states), a2=two_cycle.sum(axis=1) // 2)

    def steps(self, model, s):
        n = model.n
        denom = n * (n - 1)
        return 2.0 * (n - s.w - 2 * s.a2) / denom, 2.0 * s.w * (n - s.w) / denom

    def check(self, model, s):
        if not (0 <= s.w <= model.n and s.a2 >= 0 and s.w + 2 * s.a2 <= model.n):
            raise ValueError("fixed points and 2-cycles inconsistent")

    def move(self, model, states, rng):
        n = model.n
        i = rng.integers(0, n, len(states))
        j = rng.integers(0, n - 1, len(states))
        j = j + (j >= i)
        rows = np.arange(len(states))
        si, sj = states[rows, i], states[rows, j]
        wv = np.asarray(model.spec.word())  # the identity for plain matching
        dw = ((wv[sj] == wv[i]).astype(np.int64) + (wv[si] == wv[j])
              - (wv[si] == wv[i]) - (wv[sj] == wv[j]))
        return np.stack((i, j), axis=1), np.stack((sj, si), axis=1), dw

    def size(self, model):
        return math.factorial(model.n), math.factorial(model.n) * math.comb(model.n, 2)

    def iter_states(self, model):
        return itertools.permutations(range(model.n))

    def denominators(self, model):
        return math.factorial(model.n), math.comb(model.n, 2)

    def kernel(self, model, state):
        for i in range(model.n):
            for j in range(i + 1, model.n):
                nxt = list(state)
                nxt[i], nxt[j] = nxt[j], nxt[i]
                yield 1, tuple(nxt)


class _MultisetMatching(_PlainMatching):
    """Matches of a multiset word against a uniform rearrangement; the same
    permutations and moves as plain matching."""

    stats = GeneralizedMatchingStats

    def w(self, model, states):
        word = np.asarray(model.spec.word())
        return (word[states] == word).sum(axis=1)

    def observe(self, model, states):
        word = np.asarray(model.spec.word())
        letters = len(model.spec.multiplicities)
        cells = letters * letters
        flat = word * letters + word[states] + np.arange(len(states))[:, None] * cells
        wij = np.bincount(flat.ravel(), minlength=len(states) * cells)
        wij.flags.writeable = False
        return GeneralizedMatchingStats(wij=wij.reshape(len(states), letters, letters))

    def steps(self, model, s):
        n = model.n
        denom = n * (n - 1)
        l = np.asarray(model.spec.multiplicities, dtype=np.int64)
        wi, w = s.wi, s.w
        wi2 = (wi * wi).sum(axis=-1)
        off_cross = np.einsum("...ij,...ji->...", s.wij, s.wij) - wi2
        up = 2.0 * ((l * l - 2 * l * wi + wi * wi).sum(axis=-1) - off_cross) / denom
        # a swap lowers the match count by one iff it pairs a matched slot of
        # letter i with an unmatched slot that neither holds nor displays
        # letter i; those exclusion sets are disjoint (l_i - w_i slots each),
        # giving sum_i w_i (n - w - 2(l_i - w_i)) over C(n, 2) swaps.  Kernel
        # enumeration certifies this count exactly (see test suite).
        down = 2.0 * (n * w - 2 * (wi @ l) - w * w + 2 * wi2) / denom
        return up, down

    def check(self, model, s):
        l = np.asarray(model.spec.multiplicities, dtype=np.int64)
        if s.wij.shape != (l.size, l.size) or np.any(s.wij < 0):
            raise ValueError("wij must be a nonnegative letters x letters matrix")
        if not (np.array_equal(s.wij.sum(axis=1), l) and np.array_equal(s.wij.sum(axis=0), l)):
            raise ValueError("wij margins must equal the multiplicities")

    def cells(self, model):
        return len(model.spec.multiplicities) ** 2


class _Boxes(_PairFamily):
    """k uniform balls in n boxes; a move sends one uniform ball to a uniform
    box.  Each subclass names its per-box statistic in
    ``exact_laws.BOX_STATISTICS``, which the allocation engine (conditional
    per-box laws joined by binomial splits of the balls) reads too, and gives
    its (up, down) formula and the rule tying w to the box profile.

    ``occupancy`` serves W, the observables and the move's change of W alike.
    It gives each row's occupancy histogram h, where h[r, c] counts the boxes
    of row r that hold c balls, so m0..m3 are its first four columns and W is
    h times the per-box statistic of 0, 1, 2, ... balls.  It also gives the
    ball count of any one box per row.  Which of two kernels computes them
    follows from (n, k) alone:

    * 3k < n, sorted runs: each row's ball labels are sorted and offset by
      row * n; the runs of equal keys are the occupied boxes and their
      lengths the counts, and a box's count is read by binary search in the
      keys.  Nothing is n wide, so the cost grows with k, not n.
    * 3k >= n, count table: the rows' n-wide box-count tables, built
      ``_TABLE_ROWS`` rows at a time and histogrammed by one more bincount;
      a box's count is read from its table.

    The switch sits where the two cost the same per row of ``step_arrays``:
    timed on 8192-row chunks (2-vCPU VM), the table took 0.82-1.23 times the sorted
    runs' time at k/n = 0.3 for n from 100 to 40 000, and 0.4-0.6 times at
    k >= n (coupon (100, 500): 14.6 ms against 34 ms per chunk).

    ``cells`` bounds the kernel's widest row: the histogram has at most
    max(k, 3) + 1 columns (box counts 0..k, at least four), the sorted keys
    k, the count table n.
    """

    stats = OccupancyStats

    def box_w(self, c):
        return BOX_STATISTICS[self.statistic](c, None)

    @staticmethod
    def sorts(model):
        """Whether ``occupancy`` runs the sorted-runs kernel."""
        return 3 * model.k < model.n

    def cells(self, model):
        return max(model.k, 3) + 1 if self.sorts(model) else max(model.n, model.k, 3) + 1

    def occupancy(self, model, states):
        """(h, count): the rows' occupancy histogram, at least four columns
        wide, and the function giving the ball count of one box per row."""
        n, k = model.n, model.k
        rows = np.arange(len(states))
        if self.sorts(model):
            keys = (np.sort(states, axis=1) + rows[:, None] * n).ravel()
            edges = np.empty(keys.size + 1, dtype=bool)  # where runs start and end
            edges[0] = edges[-1] = True
            np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
            bounds = np.flatnonzero(edges)
            starts, lengths = bounds[:-1], np.diff(bounds)
            top = lengths.max(initial=3) + 1
            h = np.bincount(starts // k * top + lengths, minlength=len(states) * top)
            h = h.reshape(len(states), top)
            h[:, 0] = n - h.sum(axis=1)

            def count(box):
                at = rows * n + box
                return np.searchsorted(keys, at, "right") - np.searchsorted(keys, at, "left")
        else:
            # built a sub-block of rows at a time, so the offset labels are
            # never states-sized
            table = np.empty((len(states), n), dtype=np.intp)
            offsets = np.arange(_TABLE_ROWS)[:, None] * n
            for start in range(0, len(states), _TABLE_ROWS):
                block = states[start : start + _TABLE_ROWS]
                table[start : start + len(block)] = np.bincount(
                    (block + offsets[: len(block)]).ravel(), minlength=len(block) * n
                ).reshape(len(block), n)
            top = table.max(initial=3) + 1
            h = np.bincount((table + rows[:, None] * top).ravel(), minlength=len(states) * top)
            h = h.reshape(len(states), top)

            def count(box):
                return table[rows, box]
        return h, count

    def tally(self, h):
        w = h @ self.box_w(np.arange(h.shape[1])).astype(np.int64)
        return OccupancyStats(m0=h[:, 0], m1=h[:, 1], m2=h[:, 2], m3=h[:, 3], w=w)

    def draw(self, model, rows, rng):
        return rng.integers(0, model.n, (rows, model.k))

    def w(self, model, states):
        return self.observe(model, states).w

    def observe(self, model, states):
        return self.tally(self.occupancy(model, states)[0])

    def check(self, model, s):
        for name in ("m0", "m1", "m2", "m3", "w"):
            if getattr(s, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if s.m0 + s.m1 + s.m2 + s.m3 > model.n:
            raise ValueError("level counts m0 + m1 + m2 + m3 exceed the box count")
        if s.m1 + 2 * s.m2 + 3 * s.m3 > model.k:
            raise ValueError("level counts use more balls than available")
        self.check_w(model, s)

    def propose(self, model, rows, rng):
        """The ball each row moves and the box it moves to."""
        return rng.integers(0, model.k, rows), rng.integers(0, model.n, rows)

    def dw(self, states, count, ball, newbox):
        """Change of W under the proposed moves, from the rows' box counts."""
        oldbox = states[np.arange(len(states)), ball]
        c_old, c_new = count(oldbox), count(newbox)
        box_w = self.box_w
        dw = box_w(c_new + 1).astype(np.int64) - box_w(c_new) + box_w(c_old - 1) - box_w(c_old)
        return np.where(oldbox != newbox, dw, 0)

    def move(self, model, states, rng):
        ball, newbox = self.propose(model, len(states), rng)
        dw = self.dw(states, self.occupancy(model, states)[1], ball, newbox)
        return ball[:, None], newbox[:, None], dw

    def step_arrays(self, model, states, rng):
        # the move's draws come first, as in the default; each block's
        # occupancy then serves both the observables and the move
        ball, newbox = self.propose(model, len(states), rng)
        parts = []
        for rows in _blocks(self, model, states):
            h, count = self.occupancy(model, states[rows])
            stats = self.tally(h)
            dw = self.dw(states[rows], count, ball[rows], newbox[rows])
            parts.append((*self.steps(model, stats), dw, stats.w))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def size(self, model):
        return model.n**model.k, model.n**model.k * model.k * model.n

    def iter_states(self, model):
        return itertools.product(range(model.n), repeat=model.k)

    def denominators(self, model):
        return model.n**model.k, model.k * model.n

    def kernel(self, model, state):
        for ball in range(model.k):
            for box in range(model.n):
                yield 1, state[:ball] + (box,) + state[ball + 1 :]


class _BirthdayPairs(_Boxes):
    statistic = "pairs"

    def steps(self, model, s):
        n, k = model.n, model.k
        return s.m1 * (k - 2 * s.m2 - 1) / (k * n), 2.0 * s.m2 * (n - s.m1 - 1) / (k * n)

    def check_w(self, model, s):
        if s.w != model.n - s.m0 - s.m1:
            raise ValueError("pair statistic must equal n - m0 - m1")


class _BirthdayTriples(_Boxes):
    statistic = "triples"

    def steps(self, model, s):
        kn = model.k * model.n
        up = (s.m1 * s.m2 + 2 * s.m2**2 - 2 * s.m2) / kn
        return up, (3.0 * s.m3 * s.m0 + 3.0 * s.m3 * s.m1) / kn

    def check_w(self, model, s):
        if s.w < s.m3:
            raise ValueError("triple count cannot be below m3")


class _Coupon(_Boxes):
    statistic = "empty"

    def steps(self, model, s):
        n, k = model.n, model.k
        return s.m1 * (n - s.w - 1) / (k * n), (k - s.m1) * s.w / (k * n)

    def check_w(self, model, s):
        if s.w != s.m0:
            raise ValueError("empty-box statistic must equal m0")


_FAMILIES = {
    "poisson_binomial": _Bernoulli(),
    "matching": _PlainMatching(),
    "birthday_pairs": _BirthdayPairs(),
    "birthday_triples": _BirthdayTriples(),
    "coupon": _Coupon(),
}
_MULTISET = _MultisetMatching()


def _family(model: PairModel) -> _PairFamily:
    if model.spec is not None and not model.spec.is_plain:
        return _MULTISET
    return _FAMILIES[model.problem]


def _blocks(fam: _PairFamily, model: PairModel, states: np.ndarray) -> list[slice]:
    """Row blocks of ``states`` whose observable tables hold no more entries
    than ``states``."""
    step = max(1, states.size // fam.cells(model))
    return [slice(start, start + step) for start in range(0, len(states), step)]


def _predict(fam: _PairFamily, model: PairModel, states: np.ndarray):
    """(up, down, W) of each row, evaluated a block of rows at a time."""
    parts = []
    for rows in _blocks(fam, model, states):
        stats = fam.observe(model, states[rows])
        parts.append((*fam.steps(model, stats), stats.w))
    return tuple(np.concatenate(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# scalar API: the batch functions applied to one row
# ---------------------------------------------------------------------------


def _row(model: PairModel, state) -> np.ndarray:
    """``state`` as a batch of one row, after checking that its ball labels
    name boxes (the batch code, fed by ``draw`` and enumeration, does not)."""
    states = np.asarray(state)[None]
    if isinstance(_family(model), _Boxes) and states.size:
        if states.min() < 0 or states.max() >= model.n:
            raise ValueError(f"ball labels must lie in [0, {model.n})")
    return states


def statistic(model: PairModel, state) -> int:
    """Value of the problem's statistic W at a state."""
    return int(_family(model).w(model, _row(model, state))[0])


def _first_row(value):
    row = value[0]
    return row.item() if row.ndim == 0 else row


def state_stats(model: PairModel, state):
    """Extract the observables the conditional step formulas need."""
    batch = _family(model).observe(model, _row(model, state))
    return type(batch)(**{f.name: _first_row(getattr(batch, f.name)) for f in fields(batch)})


def step_probs(model: PairModel, stats) -> tuple[float, float]:
    """Analytic one-step conditionals (P(W'=W+1 | state), P(W'=W-1 | state))."""
    fam = _family(model)
    if not isinstance(stats, fam.stats):
        raise ValueError(f"{model.problem} expects {fam.stats.__name__}")
    fam.check(model, stats)
    up, down = fam.steps(model, stats)
    return float(up), float(down)


def sample_state(model: PairModel, rng: np.random.Generator):
    """One stationary draw: product Bernoulli, uniform permutation, or
    i.i.d. uniform box assignments."""
    return _family(model).draw(model, 1, rng)[0]


def sample_pair(model: PairModel, state, rng: np.random.Generator):
    """One reversible move from ``state``; (state, result) is exchangeable."""
    new = _row(model, state)[0].copy()
    columns, values, _ = _family(model).move(model, new[None], rng)
    new[columns[0]] = values[0]
    return new


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumeration_size(model: PairModel) -> tuple[int, int]:
    """(number of states, number of kernel transitions) of the instance."""
    return _family(model).size(model)


def is_enumerable(model: PairModel) -> bool:
    states, transitions = enumeration_size(model)
    return states <= ENUM_STATE_CAP and transitions <= ENUM_TRANSITION_CAP


def _enumerate(model: PairModel) -> tuple[np.ndarray, EnumeratedPairMeasure]:
    """The enumerated states, one per row, and their pair measure.

    Each conditional sums the integer kernel weights of the moves that step
    W up or down by one and divides the sum once by D_K.  W is evaluated
    over a block of states and all their successors at once.
    """
    states_n, transitions = enumeration_size(model)
    if not is_enumerable(model):
        raise ValueError(
            f"instance is not enumerable: {states_n:.3e} states, "
            f"{transitions:.3e} transitions "
            f"(caps {ENUM_STATE_CAP:.0e} / {ENUM_TRANSITION_CAP:.0e})"
        )
    fam = _family(model)
    d_p, d_k = fam.denominators(model)
    states = list(fam.iter_states(model))
    block = max(1, _ENUM_ENTRIES // ((1 + transitions // states_n) * fam.cells(model)))
    probs, w_vals, q_up, q_down = [], [], [], []
    for start in range(0, states_n, block):
        chunk = states[start : start + block]
        rows, weights, ends = list(chunk), [], []
        for state in chunk:
            for weight, nxt in fam.kernel(model, state):
                rows.append(nxt)
                weights.append(weight)
            ends.append(len(weights))
        w_all = fam.w(model, np.array(rows)).tolist()
        w_next = w_all[len(chunk) :]  # the successors of each state, in order
        begin = 0
        for state, w, end in zip(chunk, w_all, ends):
            up = down = 0
            for weight, wn in zip(weights[begin:end], w_next[begin:end]):
                if wn == w + 1:
                    up += weight
                elif wn == w - 1:
                    down += weight
            begin = end
            probs.append(fam.prob(model, state) / d_p)
            w_vals.append(w)
            q_up.append(up / d_k)
            q_down.append(down / d_k)
    measure = EnumeratedPairMeasure(
        probs=np.array(probs), w=np.array(w_vals), q_up=np.array(q_up), q_down=np.array(q_down)
    )
    return np.array(states), measure


def enumerate_pair_measure(model: PairModel) -> EnumeratedPairMeasure:
    """Enumerate the stationary law and the exact one-step conditionals.

    Raises for instances over the enumeration caps.
    """
    return _enumerate(model)[1]


def _joint_weights(model: PairModel):
    """(states, a, q): the stationary weights a_i over D_P and the joint pair
    measure q(i, j) = a_i * (kernel weight of i -> j) over D_P * D_K, all
    Python ints, with ``q`` a sparse dict keyed by state-index pairs."""
    states_n, _ = enumeration_size(model)
    if states_n > JOINT_STATE_CAP:
        raise ValueError(
            f"joint measure enumeration capped at {JOINT_STATE_CAP} states "
            f"(instance has {states_n})"
        )
    fam = _family(model)
    states = list(fam.iter_states(model))
    index = {s: i for i, s in enumerate(states)}
    weights = [fam.prob(model, s) for s in states]
    q: dict[tuple[int, int], int] = {}
    for i, (state, a) in enumerate(zip(states, weights)):
        for weight, nxt in fam.kernel(model, state):
            key = (i, index[nxt])
            q[key] = q.get(key, 0) + a * weight
    return states, weights, q


def exact_joint_measure(model: PairModel):
    """Exact-rational joint pair measure Q(state, state') on a small instance.

    Returns (states, probs, q) with ``q`` a sparse dict keyed by state-index
    pairs; all values are Fractions, each built once from the integer
    weights of the enumeration.
    """
    states, weights, q = _joint_weights(model)
    d_p, d_k = _family(model).denominators(model)
    probs = [Fraction(a, d_p) for a in weights]
    return states, probs, {key: Fraction(val, d_p * d_k) for key, val in q.items()}


@dataclass(frozen=True)
class ExchangeabilityReport:
    states: int
    symmetric: bool
    margins_ok: bool


def verify_exchangeability(model: PairModel) -> ExchangeabilityReport:
    """Exact check that the joint pair measure is symmetric with the
    stationary margins, in integers: q(i, j) == q(j, i), and each row sums
    to a_i * D_K, i.e. the kernel's weights from every state sum to D_K."""
    states, weights, q = _joint_weights(model)
    d_k = _family(model).denominators(model)[1]
    symmetric = all(q.get((j, i), 0) == val for (i, j), val in q.items())
    margins = [0] * len(states)
    for (i, _), val in q.items():
        margins[i] += val
    margins_ok = all(m == a * d_k for m, a in zip(margins, weights))
    return ExchangeabilityReport(states=len(states), symmetric=symmetric, margins_ok=margins_ok)


# ---------------------------------------------------------------------------
# statistical verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepProbsReport:
    """Outcome of checking the analytic step formulas against the kernel.

    Exact mode reports the worst absolute error over all states; Monte Carlo
    mode reports standardized deviations of the up and down move counts from
    the formulas' expected counts, and of the up moves among all moves from
    the half that exchangeability implies.
    """

    problem: str
    mode: str
    samples: int
    max_dev: float
    up_dev: float
    down_dev: float
    balance_dev: float
    passed: bool


def _mc_arrays(model: PairModel, size: int, rng: np.random.Generator):
    """Vectorized batch: predicted (up, down), realized move dw, and W."""
    fam = _family(model)
    return fam.step_arrays(model, fam.draw(model, size, rng), rng)


def verify_step_probs(
    model: PairModel,
    trials: int | None = None,
    rng: np.random.Generator | None = None,
    bias: tuple[float, float] = (0.0, 0.0),
    exact_tol: float = 1e-12,
) -> StepProbsReport:
    """Certify the analytic conditionals against the actual kernel.

    Enumerable instances (``trials`` omitted) are checked state by state
    against the exactly enumerated kernel.  Otherwise ``trials`` sampled
    states each take one kernel step; the up and down move counts are judged
    against the formulas' expected counts (:func:`_count_z`) at a 4-sigma
    gate, together with the up/down balance that exchangeability forces.
    ``bias`` adds a constant to the predicted (up, down); it exists so the
    harness can demonstrate its own detection power and must be (0, 0) for
    real verification.
    """
    if trials is None:
        if not is_enumerable(model):
            raise ValueError("instance too large to enumerate; pass trials for Monte Carlo")
        states, measure = _enumerate(model)
        up, down, _ = _predict(_family(model), model, states)
        up_dev = float(np.abs(up + bias[0] - measure.q_up).max())
        down_dev = float(np.abs(down + bias[1] - measure.q_down).max())
        balance = abs(math.fsum((measure.probs * (measure.q_up - measure.q_down)).tolist()))
        max_dev = max(up_dev, down_dev)
        passed = bool(max_dev <= exact_tol and balance <= exact_tol)
        return StepProbsReport(model.problem, "exact", len(measure.probs), max_dev, up_dev,
                               down_dev, balance, passed)
    trials = int(trials)
    if trials < 10_000:
        raise ValueError("Monte Carlo verification needs trials >= 10000")
    if rng is None:
        rng = np.random.default_rng()
    moves = np.zeros(2, np.int64)  # realized up and down moves
    expected = np.zeros(2)  # their expected counts under the formulas
    variances = np.zeros(2)
    done = 0
    while done < trials:
        size = min(_MC_CHUNK, trials - done)
        up, down, dw, _ = _mc_arrays(model, size, rng)
        for i, (step, prob) in enumerate(((1, up + bias[0]), (-1, down + bias[1]))):
            moves[i] += np.count_nonzero(dw == step)
            expected[i] += prob.sum()
            clipped = np.clip(prob, 0.0, 1.0)
            variances[i] += (clipped * (1.0 - clipped)).sum()
        done += size
    z = [_count_z(*args) for args in zip(moves.tolist(), expected.tolist(), variances.tolist())]
    # exchangeability makes up and down moves equally likely: given their
    # total, the up moves are Binomial(total, 1/2)
    total = int(moves.sum())
    norm = math.lgamma(total + 1) - total * math.log(2.0)
    z.append(_tail_z(int(moves[0]), total / 2, lambda j: (
        norm - math.lgamma(j + 1) - math.lgamma(total - j + 1) if j <= total else -math.inf)))
    return StepProbsReport(model.problem, "mc", trials, max(z), *z, max(z) <= _Z_GATE)


#: the Monte Carlo gate, in standard deviations (two-sided level 6.3e-5)
_Z_GATE = 4.0
#: expected move counts below this are judged by an exact Poisson tail
_EXACT_TAIL_BELOW = 100.0


def _count_z(count: int, mean: float, var: float) -> float:
    """Standardized deviation of a realized move count from its expected count.

    The normal gate takes the variance ``sum u (1 - u)`` of the formulas'
    move probabilities u, not that of the realized moves.  A small expected
    count is judged by its exact Poisson(mean) tail instead: away from the
    mean, Poisson tails dominate those of the Poisson-binomial count, so
    the false-alarm rate stays within the normal gate's.
    """
    if mean >= _EXACT_TAIL_BELOW and var > 0.0:
        return abs(count - mean) / math.sqrt(var)
    return _tail_z(count, mean, lambda j: j * math.log(mean) - mean - math.lgamma(j + 1))


def _tail_z(count: int, mean: float, log_pmf) -> float:
    """The normal deviate of a count's exact tail past the mean of its law
    (given by its log pmf): ``P(X <= count)`` below the mean, else
    ``P(X >= count)``, summed outwards from ``count`` while terms matter."""
    if mean <= 0.0:
        return 0.0 if count == mean else math.inf
    step = -1 if count < mean else 1
    tail, j = 0.0, count
    while j >= 0:
        term = math.exp(log_pmf(j))
        tail += term
        if term <= tail * 1e-17:
            break
        j += step
    if tail <= 0.0:
        return math.inf
    lo, hi = 0.0, 40.0  # bisect for the z whose normal tail erfc(z / sqrt 2) / 2 is ``tail``
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2.0)) / 2 > tail else (lo, mid)
    return lo


def sample_statistics(model: PairModel, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized i.i.d. draws of the statistic W: stationary states a chunk
    at a time, W evaluated a block of rows at a time (no step observables
    and no move)."""
    fam = _family(model)
    out = np.empty(size, dtype=np.int64)
    done = 0
    while done < size:
        chunk = min(_MC_CHUNK, size - done)
        states = fam.draw(model, chunk, rng)
        blocks = _blocks(fam, model, states)
        out[done : done + chunk] = np.concatenate([fam.w(model, states[rows]) for rows in blocks])
        done += chunk
    return out


def mc_tv_estimate(
    model: PairModel,
    target: Pmf,
    samples: int,
    rng: np.random.Generator,
    bootstrap: int = 200,
) -> tuple[float, float]:
    """Plug-in total variation between the empirical law of W and a target.

    The plug-in estimator is upward-biased at finite sample size (the
    empirical pmf has sampling noise in every cell), so treat the estimate as
    a noisy upper indication, not an unbiased value.  The standard error is a
    multinomial bootstrap over the observed counts with ``bootstrap``
    resamples.
    """
    samples = int(samples)
    if samples < 10_000:
        raise ValueError("mc_tv_estimate needs samples >= 10000")
    w = sample_statistics(model, samples, rng)
    counts = np.bincount(w)
    emp = Pmf.from_mass(counts / samples)
    estimate = tv_distance(emp, target)
    probs = counts / samples
    reps = np.empty(bootstrap)
    for b in range(bootstrap):
        resampled = rng.multinomial(samples, probs)
        reps[b] = tv_distance(Pmf.from_mass(resampled / samples), target)
    return float(estimate), float(reps.std(ddof=1))
