"""Exchangeable-pair constructions for the classical problems.

Each problem family couples a stationary sampler with a one-step reversible
move (resample a coordinate, compose with a random transposition, move a
random ball to a random box) and the closed-form conditional probabilities
of the statistic moving up or down by one.  Small instances can be
enumerated exactly, which is the strongest possible check of those formulas;
large instances are certified statistically.

Each family is one frozen class, a subclass of :class:`PairModel` whose
instances hold only their own parameters.  It writes W, the step
observables, the (up, down) formula, the stationary draw and the move once,
over an array holding one state per row, next to an enumeration oracle,
also over arrays, whose stationary law and kernel are integer weights over
one integer denominator each, so the exact checks compare exact integers.
The batch functions are the only interface; one state is a batch of one
row.

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
import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .exact_laws import BOX_STATISTICS, MatchingSpec, _scientific
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
    "sample_statistics",
    "is_enumerable",
    "enumerate_pair_measure",
    "verify_exchangeability",
    "verify_step_probs",
    "mc_tv_estimate",
]

#: enumeration caps (states / kernel transitions) for the exact checks
ENUM_STATE_CAP = 400_000
ENUM_TRANSITION_CAP = 30_000_000
#: transition cap of the joint-measure (exchangeability) check, which holds a
#: state-index pair code and an integer kernel weight per kernel transition
#: and sorts them by code: its traced peak measured 45-57 bytes per
#: transition on the uniform families (birthday pairs (1000, 1): 54 MiB at
#: 10^6 transitions) and 103 on independent indicators with p = 0.05, whose
#: Python-int weights are as wide as their lcm; so about 60 MiB at the cap
JOINT_TRANSITION_CAP = 1 << 20
#: entries per batch of rows: a Monte Carlo chunk or block, or a block of
#: enumerated states with their successors, holds at most this many per array
#: (rows times ``PairModel.cells``, times the moves plus one for a block of
#: enumerated states)
_ENTRIES = 1 << 18
#: Monte Carlo chunks hold at most this many rows
_MC_CHUNK = 8192
#: the exact check's tolerance, and the bootstrap resamples of mc_tv_estimate
_EXACT_TOL, _BOOTSTRAP = 1e-12, 200
#: permutations are drawn by sorting 32-bit keys while at most this share of
#: rows is expected to tie in the keys' random bits
_TIED_SHARE = 0.01


# ---------------------------------------------------------------------------
# step observables
# ---------------------------------------------------------------------------
# Each field holds one value per state of a batch.


@dataclass(frozen=True)
class BernoulliStats:
    w: np.ndarray
    weighted_sum: np.ndarray  # sum of p_i over the active coordinates


@dataclass(frozen=True)
class PlainMatchingStats:
    w: np.ndarray
    a2: np.ndarray  # number of 2-cycles


@dataclass(frozen=True)
class GeneralizedMatchingStats:
    """Per-letter transfer counts: wij[r, i, j] = slots of state r showing
    letter j where letter i originally stood."""

    wij: np.ndarray

    @property
    def wi(self) -> np.ndarray:
        return np.diagonal(self.wij, axis1=-2, axis2=-1)

    @property
    def w(self):
        return self.wi.sum(axis=-1)


@dataclass(frozen=True)
class OccupancyStats:
    """Box-level profile (m0..m3) and the statistic value w of each state."""

    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    w: np.ndarray


# ---------------------------------------------------------------------------
# the pair models
# ---------------------------------------------------------------------------


class PairModel:
    """One exchangeable-pair problem instance.  Each family is a frozen
    dataclass subclass that holds only its own parameters; ``problem`` names
    the family, ``c`` is the error-term scaling constant of its pair
    construction and ``lam`` the Poisson rate the statistic is compared
    against.

    The pair is written once as batch functions over a (rows x dim) array
    ``states`` holding one state per row: ``draw`` (stationary states), ``w``
    (the statistic W), ``observe`` (the step observables ``s``, one of the
    ``*Stats`` classes), ``steps`` (P(W'=W+1 | state), P(W'=W-1 | state)),
    ``move`` (columns, new values and dw of one reversible move) and
    ``step_arrays`` (the Monte Carlo batch: predicted steps, one realized
    move's dw, and W).  One state is a batch of one row.  ``cells`` bounds
    the entries per row of what a batch holds, the states themselves or the
    tables those functions build; ``_chunk_rows`` sizes both Monte Carlo
    chunks and ``_blocks``' row blocks by it, so that no array of a batch
    holds more than about ``_ENTRIES`` entries and a Monte Carlo chunk is
    one block.

    The enumeration oracle shares no code with them: ``size`` (states,
    kernel transitions), ``denominators`` (D_P, D_K), ``all_states`` (every
    state, one per row, in the lexicographic order of the rows, with
    ``draw``'s dtype), ``weights`` (each state's stationary probability
    times D_P, in that order) and ``successors`` (each row's successor under
    every move, one explicit entry per move, and each move's kernel weight:
    its probability times D_K, the same from every state).  The weights are
    int64 ones for the uniform families and Python ints for independent
    indicators, whose products outgrow int64 (L is 2**1074 for p_i = 5e-324).
    """

    problem: str

    def cells(self):
        return self.n

    def step_arrays(self, states, rng):
        """(up, down, dw, W) of each row: the predicted steps, one realized
        move and the statistic."""
        up, down, w = _predict(self, states)
        return up, down, self.move(states, rng)[2], w

    def weights(self):  # uniform stationary law over D_P states
        return np.ones(self.size()[0], dtype=np.int64)


@dataclass(frozen=True)
class _Bernoulli(PairModel):
    """Independent indicators; a move resamples one uniform coordinate."""

    p: tuple[float, ...]
    problem = "poisson_binomial"
    n = property(lambda self: len(self.p))
    c = property(lambda self: float(self.n))
    lam = property(lambda self: sum(self.p))

    def draw(self, rows, rng):
        return rng.random((rows, self.n)) < np.asarray(self.p)

    def w(self, states):
        return states.sum(axis=1)

    def observe(self, states):
        return BernoulliStats(w=self.w(states), weighted_sum=states @ np.asarray(self.p))

    def steps(self, s):
        return (self.lam - s.weighted_sum) / self.n, (s.w - s.weighted_sum) / self.n

    def move(self, states, rng):
        idx = rng.integers(0, self.n, len(states))
        eps = rng.random(len(states)) < np.asarray(self.p)[idx]
        dw = eps.astype(np.int64) - states[np.arange(len(states)), idx]
        return idx[:, None], eps[:, None], dw

    def size(self):
        return 2**self.n, 2**self.n * 2 * self.n

    def all_states(self):
        return _digit_rows(2, self.n, bool)

    @functools.cached_property
    def _numerators(self) -> tuple[int, tuple[int, ...]]:
        """(L, a) with p_i = a_i / L exactly: L is the lcm of the denominators
        of the p_i (those of 1 - p_i are the same), and 1 - p_i = (L - a_i) / L."""
        exact = [Fraction(pi) for pi in self.p]
        scale = math.lcm(*(f.denominator for f in exact))
        return scale, tuple(f.numerator * (scale // f.denominator) for f in exact)

    def denominators(self):
        scale = self._numerators[0]
        return scale**self.n, self.n * scale

    def weights(self):
        # the product of a_i or L - a_i over the coordinates, which join one
        # at a time as the next lower digit of the state index
        scale, a = self._numerators
        out = np.ones(1, object)
        for ai in a:
            out = np.multiply.outer(out, np.array([scale - ai, ai], object)).ravel()
        return out

    def successors(self, states):
        # move 2i sets coordinate i to 1 (weight a_i), move 2i + 1 to 0
        # (weight L - a_i); the weights of one state sum to D_K = n L
        scale, a = self._numerators
        moves = np.arange(2 * self.n)
        nxt = np.repeat(states[:, None], len(moves), axis=1)
        nxt[:, moves, moves // 2] = moves % 2 == 0
        return nxt, np.array([w for ai in a for w in (ai, scale - ai)], object)


class _Permutations(PairModel):
    """Uniform permutations of n slots; a move composes one with a uniform
    transposition.  ``word`` gives the letter of each slot."""

    problem = "matching"
    c = property(lambda self: (self.n - 1) / 2.0)

    def draw(self, rows, rng):
        """``rows`` uniform permutations as 32-bit slot indices, from sorted
        packed keys (``_sorted_permutations``) where ``_random_bits`` gives
        the keys random bits, else from shuffles."""
        bits = _random_bits(self.n)
        if bits:
            return _sorted_permutations(rows, self.n, bits, rng)
        return _shuffled(rows, self.n, rng)

    def move(self, states, rng):
        n = self.n
        i = rng.integers(0, n, len(states))
        j = rng.integers(0, n - 1, len(states))
        j = j + (j >= i)
        rows = np.arange(len(states))
        si, sj = states[rows, i], states[rows, j]
        wv = self.word()
        dw = ((wv[sj] == wv[i]).astype(np.int64) + (wv[si] == wv[j])
              - (wv[si] == wv[i]) - (wv[sj] == wv[j]))
        return np.stack((i, j), axis=1), np.stack((sj, si), axis=1), dw

    def size(self):
        return math.factorial(self.n), math.factorial(self.n) * math.comb(self.n, 2)

    def all_states(self):
        # the permutations of m values in lexicographic order: each first
        # value f in turn, before those of m - 1 values with f left out
        perms = np.zeros((1, 0), dtype=np.int32)
        for m in range(1, self.n + 1):
            perms = np.concatenate([
                np.column_stack((np.full(len(perms), f, np.int32), perms + (perms >= f)))
                for f in range(m)])
        return perms

    def denominators(self):
        return math.factorial(self.n), math.comb(self.n, 2)

    def successors(self, states):
        # move (i, j), i < j, swaps the values of slots i and j
        i, j = np.triu_indices(self.n, 1)
        moves = np.arange(len(i))
        nxt = np.repeat(states[:, None], len(moves), axis=1)
        nxt[:, moves, i] = states[:, j]
        nxt[:, moves, j] = states[:, i]
        return nxt, np.ones(len(moves), np.int64)


@dataclass(frozen=True)
class _PlainMatching(_Permutations):
    """Fixed points of a uniform permutation."""

    n: int
    lam = 1.0

    def word(self):
        return np.arange(self.n)

    def w(self, states):
        return (states == np.arange(self.n)).sum(axis=1)

    def observe(self, states):
        # slots with sigma(sigma(i)) = i are the fixed points and the slots
        # of the 2-cycles, two per cycle.  sigma(sigma(i)) is one gather from
        # the flat rows, indexed in the narrowest signed type that holds the
        # flat indices (int32 for a block of draws): intp indices, at twice
        # the width, made the pair-verify benchmark slower and larger
        n = self.n
        w = self.w(states)
        index = np.promote_types(states.dtype, np.min_scalar_type(-len(states) * n))
        rows = np.arange(0, len(states) * n, n, dtype=index)[:, None]
        involuted = (states.ravel()[states + rows] == np.arange(n, dtype=index)).sum(axis=1)
        return PlainMatchingStats(w=w, a2=(involuted - w) // 2)

    def steps(self, s):
        n = self.n
        denom = n * (n - 1)
        return 2.0 * (n - s.w - 2 * s.a2) / denom, 2.0 * s.w * (n - s.w) / denom


@dataclass(frozen=True)
class _MultisetMatching(_Permutations):
    """Matches of the multiset word of ``spec`` against a uniform
    rearrangement."""

    spec: MatchingSpec
    n = property(lambda self: self.spec.n)
    lam = property(lambda self: sum(l * l for l in self.spec.multiplicities) / self.n)

    def word(self):
        return np.asarray(self.spec.word())

    def w(self, states):
        word = self.word()
        return (word[states] == word).sum(axis=1)

    def observe(self, states):
        word = self.word()
        letters = len(self.spec.multiplicities)
        cells = letters * letters
        flat = word * letters + word[states] + np.arange(len(states))[:, None] * cells
        wij = np.bincount(flat.ravel(), minlength=len(states) * cells)
        wij.flags.writeable = False
        return GeneralizedMatchingStats(wij=wij.reshape(len(states), letters, letters))

    def steps(self, s):
        n = self.n
        denom = n * (n - 1)
        l = np.asarray(self.spec.multiplicities, dtype=np.int64)
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

    def cells(self):
        return max(self.n, len(self.spec.multiplicities) ** 2)


@dataclass(frozen=True)
class _Boxes(PairModel):
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

    * 4k < 3n, sorted runs: each row's ball labels are sorted and offset by
      row * n; the runs of equal keys are the occupied boxes and their
      lengths the counts, and a box's count is read by binary search in the
      keys.  Nothing is n wide, so the cost grows with k, not n.
    * 4k >= 3n, count table: the rows' n-wide box-count tables, built by one
      bincount of the offset labels and histogrammed by one more; a box's
      count is read from its table.  A block holds at most ``_ENTRIES``
      labels and table entries, so the intp copies stay near 2 MiB.

    Per row of ``step_arrays``, each kernel on its own chunks of
    ``_ENTRIES // cells`` rows (draw included; coupon, 16-bit labels, 2-vCPU
    VM, n from 100 to 10 000), the table took 1.4-3.0 times the sorted
    runs' time at k/n = 0.3, 1.4-1.9 times from 0.7 to 0.9, 1.13-1.23 times
    at k = n and 0.49-0.55 times at k = 5n.  So the switch at 4k = 3n lies
    below where the two cost the same, which is between k = n and 5n.

    ``cells`` counts what a row holds at once.  The sorted runs keep four
    intp arrays about as long as the labels alive together (the offset
    keys, the run bounds, the run lengths and each run's histogram cell),
    so they count four entries for each of max(k, 3) + 1, which bounds both
    the labels and the histogram's columns (box counts 0..k, at least
    four).  The count table counts its widest array: the states (k), the
    table (n) or the histogram (at most max(k, 3) + 1 columns).
    """

    n: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError("need at least n >= 2 boxes")
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError("need at least one ball")

    def box_w(self, c):
        return BOX_STATISTICS[self.statistic](c)

    def sorts(self):
        """Whether ``occupancy`` runs the sorted-runs kernel."""
        return 4 * self.k < 3 * self.n

    def cells(self):
        return 4 * (max(self.k, 3) + 1) if self.sorts() else max(self.n, self.k, 3) + 1

    def occupancy(self, states):
        """(h, count): the rows' occupancy histogram, at least four columns
        wide, and the function giving the ball count of one box per row."""
        n, k = self.n, self.k
        rows = np.arange(len(states))
        if self.sorts():
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
            table = np.bincount((states + rows[:, None] * n).ravel(), minlength=len(states) * n)
            table = table.reshape(len(states), n)
            top = table.max(initial=3) + 1
            h = np.bincount((table + rows[:, None] * top).ravel(), minlength=len(states) * top)
            h = h.reshape(len(states), top)

            def count(box):
                return table[rows, box]
        return h, count

    def tally(self, h):
        w = h @ self.box_w(np.arange(h.shape[1])).astype(np.int64)
        return OccupancyStats(m0=h[:, 0], m1=h[:, 1], m2=h[:, 2], m3=h[:, 3], w=w)

    def labels(self):
        """The dtype of ball labels: the narrowest of at least 16 bits that
        holds 0..n-1 (8-bit draws are several times slower than 16-bit
        ones)."""
        return np.int16 if self.n <= 1 << 15 else np.int32 if self.n <= 1 << 31 else np.int64

    def draw(self, rows, rng):
        return rng.integers(0, self.n, (rows, self.k), dtype=self.labels())

    def w(self, states):
        return self.observe(states).w

    def observe(self, states):
        return self.tally(self.occupancy(states)[0])

    def propose(self, rows, rng):
        """The ball each row moves and the box it moves to."""
        return rng.integers(0, self.k, rows), rng.integers(0, self.n, rows)

    def dw(self, states, count, ball, newbox):
        """Change of W under the proposed moves, from the rows' box counts."""
        oldbox = states[np.arange(len(states)), ball]
        c_old, c_new = count(oldbox), count(newbox)
        box_w = self.box_w
        dw = box_w(c_new + 1).astype(np.int64) - box_w(c_new) + box_w(c_old - 1) - box_w(c_old)
        return np.where(oldbox != newbox, dw, 0)

    def move(self, states, rng):
        ball, newbox = self.propose(len(states), rng)
        dw = self.dw(states, self.occupancy(states)[1], ball, newbox)
        return ball[:, None], newbox[:, None], dw

    def step_arrays(self, states, rng):
        # the move's draws come first, as in the default; each block's
        # occupancy then serves both the observables and the move
        ball, newbox = self.propose(len(states), rng)
        parts = []
        for rows in _blocks(self, states):
            h, count = self.occupancy(states[rows])
            stats = self.tally(h)
            dw = self.dw(states[rows], count, ball[rows], newbox[rows])
            parts.append((*self.steps(stats), dw, stats.w))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def size(self):
        return self.n**self.k, self.n**self.k * self.k * self.n

    def all_states(self):
        return _digit_rows(self.n, self.k, self.labels())

    def denominators(self):
        return self.n**self.k, self.k * self.n

    def successors(self, states):
        # move (ball, box) puts that ball in that box, its own box included
        ball, box = np.divmod(np.arange(self.k * self.n), self.n)
        nxt = np.repeat(states[:, None], len(box), axis=1)
        nxt[:, np.arange(len(box)), ball] = box
        return nxt, np.ones(len(box), np.int64)


@dataclass(frozen=True)
class _BirthdayPairs(_Boxes):
    problem, statistic = "birthday_pairs", "pairs"
    c = property(lambda self: self.k / 2.0)
    lam = property(lambda self: self.k * self.k / (2.0 * self.n))

    def steps(self, s):
        n, k = self.n, self.k
        return s.m1 * (k - 2 * s.m2 - 1) / (k * n), 2.0 * s.m2 * (n - s.m1 - 1) / (k * n)


@dataclass(frozen=True)
class _BirthdayTriples(_Boxes):
    problem, statistic = "birthday_triples", "triples"
    c = property(lambda self: self.k / 3.0)
    lam = property(lambda self: math.comb(self.k, 3) / self.n**2)

    def steps(self, s):
        kn = self.k * self.n
        up = (s.m1 * s.m2 + 2 * s.m2**2 - 2 * s.m2) / kn
        return up, (3.0 * s.m3 * s.m0 + 3.0 * s.m3 * s.m1) / kn


@dataclass(frozen=True)
class _Coupon(_Boxes):
    problem, statistic = "coupon", "empty"
    c = property(lambda self: float(self.n))
    lam = property(lambda self: math.exp(-(self.k - self.n * math.log(self.n)) / self.n))

    def steps(self, s):
        n, k = self.n, self.k
        return s.m1 * (n - s.w - 1) / (k * n), (k - s.m1) * s.w / (k * n)


def poisson_binomial_model(p) -> PairModel:
    """Independent indicators with success probabilities ``p``; c = n."""
    probs = tuple(float(x) for x in p)
    if not probs:
        raise ValueError("p must be nonempty")
    if any(not 0.0 <= x <= 1.0 for x in probs):
        raise ValueError("success probabilities must lie in [0, 1]")
    return _Bernoulli(probs)


def matching_model(n: int, multiplicities=None) -> PairModel:
    """Fixed points of a uniform permutation, moved by a random transposition;
    c = (n - 1) / 2.  Multiplicities other than all ones give multiset
    matching."""
    spec = MatchingSpec(n, tuple(multiplicities) if multiplicities is not None else None)
    if n < 2:
        raise ValueError("matching pair model needs n >= 2")
    return _PlainMatching(n) if spec.is_plain else _MultisetMatching(spec)


def birthday_pairs_model(n: int, k: int) -> PairModel:
    """Boxes holding two or more of k uniform balls; c = k / 2."""
    return _BirthdayPairs(n, k)


def birthday_triples_model(n: int, k: int) -> PairModel:
    """Ball triples sharing a box; c = k / 3."""
    return _BirthdayTriples(n, k)


def coupon_model(n: int, k: int) -> PairModel:
    """Empty boxes after k uniform drops; c = n, rate exp(-theta) with
    theta = (k - n log n) / n."""
    return _Coupon(n, k)


def _digit_rows(base: int, width: int, dtype) -> np.ndarray:
    """Every row of ``width`` digits below ``base`` in lexicographic order,
    which is the order of the numbers they write, the first digit highest."""
    index = np.arange(base**width)
    rows = np.empty((len(index), width), dtype=dtype)
    for column in range(width - 1, -1, -1):
        index, rows[:, column] = np.divmod(index, base)
    return rows


def _chunk_rows(model: PairModel) -> int:
    """Rows per Monte Carlo chunk and per row block: ``_ENTRIES //
    model.cells()``, so that neither the states nor any table of a batch
    (nor the sorted runs' four label-long arrays together) holds more than
    ``_ENTRIES`` entries, capped at ``_MC_CHUNK`` and at least one."""
    return max(1, min(_MC_CHUNK, _ENTRIES // model.cells()))


def _blocks(model: PairModel, states: np.ndarray) -> list[slice]:
    """Row blocks of ``states`` of ``_chunk_rows`` rows each, so a Monte
    Carlo chunk is one block."""
    step = _chunk_rows(model)
    return [slice(start, start + step) for start in range(0, len(states), step)]


def _random_bits(n: int) -> int:
    """Random bits above the slot index in the 32-bit sort keys of n slots,
    or 0 where permutations are shuffled instead.  The keys are used from
    n = 5, below which shuffles are faster (up to 1.6 times at n = 3), while
    C(n, 2) / 2^bits, which bounds the share of rows with a tie in their
    random bits, is at most ``_TIED_SHARE`` (up to n = 410)."""
    bits = 32 - (n - 1).bit_length()
    return bits if n >= 5 and math.comb(n, 2) <= _TIED_SHARE * 2**bits else 0


def _shuffled(rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` uniform permutations of n slots by Fisher-Yates shuffles."""
    states = np.tile(np.arange(n, dtype=np.int32), (rows, 1))
    rng.permuted(states, axis=1, out=states)
    return states


def _sorted_permutations(rows: int, n: int, bits: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` uniform permutations of n slots from one sort per row of
    32-bit keys, each ``bits`` random bits above its slot index.

    Sorting orders the slots by their random bits, which gives a uniform
    permutation where those are distinct.  A row where two of them tie would
    keep its tied slots in index order, so it is redrawn by ``_shuffled``:
    the law stays exactly uniform at every n and ``bits``.
    """
    shift = (n - 1).bit_length()
    keys = rng.integers(0, 1 << bits, (rows, n), dtype=np.uint32)
    keys <<= shift
    keys |= np.arange(n, dtype=np.uint32)
    keys.sort(axis=1)
    rand = keys >> shift
    tied = (rand[:, 1:] == rand[:, :-1]).any(axis=1)
    keys &= (1 << shift) - 1
    states = keys.view(np.int32)
    if tied.any():
        states[tied] = _shuffled(np.count_nonzero(tied), n, rng)
    return states


def _predict(model: PairModel, states: np.ndarray):
    """(up, down, W) of each row, evaluated a block of rows at a time."""
    parts = []
    for rows in _blocks(model, states):
        stats = model.observe(states[rows])
        parts.append((*model.steps(stats), stats.w))
    return tuple(np.concatenate(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def is_enumerable(model: PairModel) -> bool:
    states, transitions = model.size()
    return states <= ENUM_STATE_CAP and transitions <= ENUM_TRANSITION_CAP


def _enumerate(model: PairModel) -> tuple[np.ndarray, EnumeratedPairMeasure]:
    """The enumerated states, one per row, and their pair measure.

    Each conditional sums the integer kernel weights of the moves that step
    W up or down by one and divides the sum once by D_K.  W is evaluated
    over a block of states and all their successors at once.
    """
    states_n, transitions = model.size()
    if not is_enumerable(model):
        raise ValueError(
            f"instance is not enumerable: {_scientific(states_n, 3)} states, "
            f"{_scientific(transitions, 3)} transitions "
            f"(caps {ENUM_STATE_CAP:.0e} / {ENUM_TRANSITION_CAP:.0e})"
        )
    d_p, d_k = model.denominators()
    states = model.all_states()
    w, up, down = [], [], []
    for rows, nxt, weights in _successor_blocks(model, states):
        w_now = model.w(states[rows])[:, None]
        w_next = model.w(nxt.reshape(-1, nxt.shape[2])).reshape(nxt.shape[:2])
        w.append(w_now[:, 0])
        up.append((w_next == w_now + 1) @ weights)
        down.append((w_next == w_now - 1) @ weights)
    measure = EnumeratedPairMeasure(
        probs=_quotients(model.weights(), d_p), w=np.concatenate(w),
        q_up=_quotients(np.concatenate(up), d_k), q_down=_quotients(np.concatenate(down), d_k),
    )
    return states, measure


def _successor_blocks(model: PairModel, states: np.ndarray):
    """(rows, successors, weights) of ``model.successors`` over row blocks of
    the enumerated ``states``, each block with its successors holding at
    most about ``_ENTRIES`` entries per array."""
    moves = model.size()[1] // len(states)
    step = max(1, _ENTRIES // ((1 + moves) * model.cells()))
    for start in range(0, len(states), step):
        rows = slice(start, start + step)
        yield rows, *model.successors(states[rows])


def _quotients(num: np.ndarray, den: int) -> np.ndarray:
    """num / den for an array of non-negative integers, each quotient the
    correctly rounded double of the exact one, as Python's int / int gives."""
    return np.array([x / den for x in num.tolist()], dtype=float)


def enumerate_pair_measure(model: PairModel) -> EnumeratedPairMeasure:
    """Enumerate the stationary law and the exact one-step conditionals.

    Raises for instances over the enumeration caps.
    """
    return _enumerate(model)[1]


@dataclass(frozen=True)
class ExchangeabilityReport:
    states: int
    symmetric: bool
    margins_ok: bool


def verify_exchangeability(model: PairModel) -> ExchangeabilityReport:
    """Exact check that the joint pair measure is symmetric with the
    stationary margins, in Python ints: with a_i the stationary weight of
    state i over D_P, q(i, j) = a_i * (kernel weight of i -> j) over D_P *
    D_K must equal q(j, i), and each row must sum to a_i * D_K, i.e. the
    kernel's weights from every state sum to D_K."""
    states_n, transitions = model.size()
    if transitions > JOINT_TRANSITION_CAP:
        raise ValueError(
            f"joint measure enumeration capped at {JOINT_TRANSITION_CAP} transitions "
            f"(instance has {transitions})"
        )
    pairs, q = _transitions(model, model.all_states())
    i = pairs // states_n
    a = model.weights().astype(object)
    q = q.astype(object)
    q *= a[i]
    # each q(i, j) against q(j, i), which is 0 where j -> i is no transition
    turned = pairs % states_n * states_n + i
    back = np.minimum(np.searchsorted(pairs, turned), len(pairs) - 1)
    symmetric = bool(np.array_equal(np.where(pairs[back] == turned, q[back], 0), q))
    margins = np.zeros(states_n, dtype=object)  # q's rows lie in order
    row_first = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
    margins[i[row_first]] = np.add.reduceat(q, row_first)
    margins_ok = bool(np.array_equal(margins, a * model.denominators()[1]))
    return ExchangeabilityReport(states=states_n, symmetric=symmetric, margins_ok=margins_ok)


def _transitions(model: PairModel, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, weights): each transition i -> j between the enumerated
    ``states`` coded i * states + j, in increasing order and each once, and
    the summed kernel weight of the moves that make it.

    Successors are found among the states by their base-b codes (b one more
    than the largest entry of a state; ``np.ravel_multi_index``), which
    increase along the lexicographic order of the states.  Within a block,
    each move's key (transition code * moves + move) is sorted in place
    along its row, and equal transition codes are summed before the next
    block, so only one copy of each transition outlives its block.
    """
    digits = (int(states.max()) + 1,) * states.shape[1]
    index = np.ravel_multi_index(states.T, digits)
    pairs, kernel = [], []
    for rows, nxt, weights in _successor_blocks(model, states):
        moves = len(weights)
        key = np.searchsorted(index, np.ravel_multi_index(np.moveaxis(nxt, 2, 0), digits))
        del nxt
        key += np.arange(len(states))[rows, None] * len(states)
        key *= moves
        key += np.arange(moves)
        key.sort(axis=1)
        key = key.ravel()
        weight = weights[key % moves]
        key //= moves
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        pairs.append(key[first])
        kernel.append(np.add.reduceat(weight, first))
        del key, weight, first  # before the next block's, or the concatenation
    return np.concatenate(pairs), np.concatenate(kernel)


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


def verify_step_probs(
    model: PairModel,
    trials: int | None = None,
    rng: np.random.Generator | None = None,
) -> StepProbsReport:
    """Certify the analytic conditionals against the actual kernel.

    With ``trials`` omitted the instance is checked state by state against
    the exactly enumerated kernel (:func:`_enumerate` refuses one past the
    enumeration caps).  Otherwise ``trials`` sampled
    states each take one kernel step; the up and down move counts are judged
    against the formulas' expected counts (:func:`_count_z`) at a 4-sigma
    gate, together with the up/down balance that exchangeability forces.
    """
    if trials is None:
        states, measure = _enumerate(model)
        up, down, _ = _predict(model, states)
        up_dev = float(np.abs(up - measure.q_up).max())
        down_dev = float(np.abs(down - measure.q_down).max())
        balance = abs(math.fsum((measure.probs * (measure.q_up - measure.q_down)).tolist()))
        max_dev = max(up_dev, down_dev)
        passed = bool(max_dev <= _EXACT_TOL and balance <= _EXACT_TOL)
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
    rows = _chunk_rows(model)
    done = 0
    while done < trials:
        size = min(rows, trials - done)
        up, down, dw, _ = model.step_arrays(model.draw(size, rng), rng)
        for i, (step, prob) in enumerate(((1, up), (-1, down))):
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
    return max(0.0, -NormalDist().inv_cdf(min(tail, 0.5)))


def sample_statistics(model: PairModel, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized i.i.d. draws of the statistic W: stationary states one
    chunk of ``_chunk_rows`` rows at a time, W evaluated over the whole
    chunk, which is one block (no step observables and no move)."""
    out = np.empty(size, dtype=np.int64)
    rows = _chunk_rows(model)
    done = 0
    while done < size:
        chunk = min(rows, size - done)
        states = model.draw(chunk, rng)
        out[done : done + chunk] = model.w(states)
        del states  # so that the next chunk is drawn with this one freed
        done += chunk
    return out


def mc_tv_estimate(
    model: PairModel,
    target: Pmf,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Plug-in total variation between the empirical law of W and a target.

    The plug-in estimator is upward-biased at finite sample size (the
    empirical pmf has sampling noise in every cell), so treat the estimate as
    a noisy upper indication, not an unbiased value.  The standard error is a
    multinomial bootstrap over the observed counts with ``_BOOTSTRAP``
    resamples.
    """
    samples = int(samples)
    if samples < 10_000:
        raise ValueError("mc_tv_estimate needs samples >= 10000")
    w = sample_statistics(model, samples, rng)
    counts = np.bincount(w)
    emp = Pmf(counts / samples)
    estimate = tv_distance(emp, target)
    probs = counts / samples
    reps = np.empty(_BOOTSTRAP)
    for b in range(_BOOTSTRAP):
        resampled = rng.multinomial(samples, probs)
        reps[b] = tv_distance(Pmf(resampled / samples), target)
    return float(estimate), float(reps.std(ddof=1))
