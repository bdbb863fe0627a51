"""Exchangeable-pair constructions for the classical problems.

Each problem family couples a stationary sampler with a one-step reversible
move (resample a coordinate, compose with a random transposition, move a
random ball to a random box) and the closed-form conditional probabilities
of the statistic moving up or down by one.  Small instances can be
enumerated exactly, which is the strongest possible check of those formulas;
large instances are certified statistically.

Seeding contract: samplers take a ``numpy.random.Generator``.  Reproducible
parallel sweeps derive sub-streams from a 64-bit master seed by a counter
scheme, ``substream(master_seed, index)``; identical seeds give identical
sample streams.  Generators are thread-confined: send them between threads,
never share one concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_laws import MatchingSpec
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

PROBLEMS = ("poisson_binomial", "matching", "birthday_pairs", "birthday_triples", "coupon")

#: enumeration caps (states / kernel transitions) for the exact checks
ENUM_STATE_CAP = 400_000
ENUM_TRANSITION_CAP = 30_000_000
#: tighter caps for the exact-rational joint-measure (exchangeability) check
JOINT_STATE_CAP = 20_000
_MC_CHUNK = 8192


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
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}")
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


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Sub-stream ``index`` of a 64-bit master seed (counter scheme)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# state statistics
# ---------------------------------------------------------------------------


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
    letter i originally stood."""

    wij: np.ndarray

    @property
    def wi(self) -> np.ndarray:
        return np.diagonal(self.wij)

    @property
    def w(self) -> int:
        return int(np.trace(self.wij))


@dataclass(frozen=True)
class OccupancyStats:
    """Box-level profile (m0..m3) and the statistic value w of the state."""

    m0: int
    m1: int
    m2: int
    m3: int
    w: int


def _box_counts(model: PairModel, state) -> np.ndarray:
    return np.bincount(np.asarray(state, dtype=np.int64), minlength=model.n)


#: contribution to W of a box holding ``c`` balls, elementwise over count
#: arrays; the indicator statistics stay boolean, so count matrices are never
#: widened
_BOX_STAT = {
    "birthday_pairs": lambda c: c >= 2,
    "birthday_triples": lambda c: c * (c - 1) * (c - 2) // 6,
    "coupon": lambda c: c == 0,
}


def statistic(model: PairModel, state) -> int:
    """Value of the problem's statistic W at a state."""
    arr = np.asarray(state)
    if model.problem == "poisson_binomial":
        return int(arr.sum())
    if model.problem == "matching":
        word = np.asarray(model.spec.word())
        return int((word[arr] == word).sum())
    return int(_BOX_STAT[model.problem](_box_counts(model, arr)).sum())


def state_stats(model: PairModel, state):
    """Extract the observables the conditional step formulas need."""
    arr = np.asarray(state)
    if model.problem == "poisson_binomial":
        p = np.asarray(model.p)
        return BernoulliStats(w=int(arr.sum()), weighted_sum=float(np.dot(p, arr)))
    if model.problem == "matching":
        if model.spec.is_plain:
            n = model.n
            fixed = arr == np.arange(n)
            two_cycle = (arr[arr] == np.arange(n)) & ~fixed
            return PlainMatchingStats(w=int(fixed.sum()), a2=int(two_cycle.sum()) // 2)
        word = np.asarray(model.spec.word())
        n_letters = len(model.spec.multiplicities)
        wij = np.zeros((n_letters, n_letters), dtype=np.int64)
        np.add.at(wij, (word, word[arr]), 1)
        wij.flags.writeable = False
        return GeneralizedMatchingStats(wij=wij)
    counts = _box_counts(model, arr)
    m = [int((counts == i).sum()) for i in range(4)]
    return OccupancyStats(m0=m[0], m1=m[1], m2=m[2], m3=m[3], w=statistic(model, arr))


def _check_occupancy_stats(model: PairModel, s: OccupancyStats):
    n, k = model.n, model.k
    for name in ("m0", "m1", "m2", "m3", "w"):
        if getattr(s, name) < 0:
            raise ValueError(f"{name} must be nonnegative")
    if s.m0 + s.m1 + s.m2 + s.m3 > n:
        raise ValueError("level counts m0 + m1 + m2 + m3 exceed the box count")
    if s.m1 + 2 * s.m2 + 3 * s.m3 > k:
        raise ValueError("level counts use more balls than available")
    if model.problem == "birthday_pairs" and s.w != n - s.m0 - s.m1:
        raise ValueError("pair statistic must equal n - m0 - m1")
    if model.problem == "coupon" and s.w != s.m0:
        raise ValueError("empty-box statistic must equal m0")
    if model.problem == "birthday_triples" and s.w < s.m3:
        raise ValueError("triple count cannot be below m3")


# One-step conditionals (P(W'=W+1 | state), P(W'=W-1 | state)) per family.
# Each takes scalars or equal-length arrays, so the exact check
# (step_probs) and the Monte Carlo gate (_mc_arrays) evaluate one formula.


def _bernoulli_steps(n, lam, s, w):
    return (lam - s) / n, (w - s) / n


def _plain_matching_steps(n, w, a2):
    denom = n * (n - 1)
    return 2.0 * (n - w - 2 * a2) / denom, 2.0 * w * (n - w) / denom


def _occupancy_steps(problem, n, k, m0, m1, m2, m3, w):
    kn = k * n
    if problem == "birthday_pairs":
        return m1 * (k - 2 * m2 - 1) / kn, 2.0 * m2 * (n - m1 - 1) / kn
    if problem == "birthday_triples":
        return (m1 * m2 + 2 * m2**2 - 2 * m2) / kn, (3.0 * m3 * m0 + 3.0 * m3 * m1) / kn
    return m1 * (n - w - 1) / kn, (k - m1) * w / kn  # coupon


def step_probs(model: PairModel, stats) -> tuple[float, float]:
    """Analytic one-step conditionals (P(W'=W+1 | state), P(W'=W-1 | state))."""
    if model.problem == "poisson_binomial":
        if not isinstance(stats, BernoulliStats):
            raise ValueError("poisson_binomial expects BernoulliStats")
        n, lam, s, w = model.n, model.lam, stats.weighted_sum, stats.w
        if not (0 <= w <= n):
            raise ValueError("w out of range")
        if s < -1e-12 or s > min(lam, float(w)) + 1e-9:
            raise ValueError("weighted_sum inconsistent with w")
        return _bernoulli_steps(n, lam, s, w)
    if model.problem == "matching":
        n = model.n
        if model.spec.is_plain:
            if not isinstance(stats, PlainMatchingStats):
                raise ValueError("plain matching expects PlainMatchingStats")
            w, a2 = stats.w, stats.a2
            if not (0 <= w <= n and a2 >= 0 and w + 2 * a2 <= n):
                raise ValueError("fixed points and 2-cycles inconsistent")
            return _plain_matching_steps(n, w, a2)
        denom = n * (n - 1)
        if not isinstance(stats, GeneralizedMatchingStats):
            raise ValueError("generalized matching expects GeneralizedMatchingStats")
        l = np.asarray(model.spec.multiplicities, dtype=np.int64)
        wij = stats.wij
        if wij.shape != (l.size, l.size) or np.any(wij < 0):
            raise ValueError("wij must be a nonnegative letters x letters matrix")
        if not (np.array_equal(wij.sum(axis=1), l) and np.array_equal(wij.sum(axis=0), l)):
            raise ValueError("wij margins must equal the multiplicities")
        wi = np.diagonal(wij)
        w = int(wi.sum())
        cross = wij * wij.T
        off_cross = int(cross.sum() - (wi * wi).sum())
        up = 2.0 * float(np.sum(l * l - 2 * l * wi + wi * wi) - off_cross) / denom
        # a swap lowers the match count by one iff it pairs a matched slot of
        # letter i with an unmatched slot that neither holds nor displays
        # letter i; those exclusion sets are disjoint (l_i - w_i slots each),
        # giving sum_i w_i (n - w - 2(l_i - w_i)) over C(n, 2) swaps.  Kernel
        # enumeration certifies this count exactly (see test suite).
        down = 2.0 * float(n * w - 2 * np.dot(l, wi) - w * w + 2 * np.dot(wi, wi)) / denom
        return up, down
    if not isinstance(stats, OccupancyStats):
        raise ValueError(f"{model.problem} expects OccupancyStats")
    _check_occupancy_stats(model, stats)
    return _occupancy_steps(model.problem, model.n, model.k,
                            stats.m0, stats.m1, stats.m2, stats.m3, stats.w)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_state(model: PairModel, rng: np.random.Generator):
    """One stationary draw: product Bernoulli, uniform permutation, or
    i.i.d. uniform box assignments."""
    if model.problem == "poisson_binomial":
        return (rng.random(model.n) < np.asarray(model.p)).astype(np.int8)
    if model.problem == "matching":
        return rng.permutation(model.n)
    return rng.integers(0, model.n, size=model.k)


def sample_pair(model: PairModel, state, rng: np.random.Generator):
    """One reversible move from ``state``; (state, result) is exchangeable."""
    new = np.array(state, copy=True)
    if model.problem == "poisson_binomial":
        i = int(rng.integers(model.n))
        new[i] = 1 if rng.random() < model.p[i] else 0
        return new
    if model.problem == "matching":
        n = model.n
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        new[i], new[j] = new[j], new[i]
        return new
    ball = int(rng.integers(model.k))
    new[ball] = int(rng.integers(model.n))
    return new


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumeration_size(model: PairModel) -> tuple[int, int]:
    """(number of states, number of kernel transitions) of the instance."""
    if model.problem == "poisson_binomial":
        states = 2**model.n
        return states, states * 2 * model.n
    if model.problem == "matching":
        states = math.factorial(model.n)
        return states, states * math.comb(model.n, 2)
    states = model.n**model.k
    return states, states * model.k * model.n


def is_enumerable(model: PairModel) -> bool:
    states, transitions = enumeration_size(model)
    return states <= ENUM_STATE_CAP and transitions <= ENUM_TRANSITION_CAP


def _iter_states(model: PairModel):
    if model.problem == "poisson_binomial":
        yield from itertools.product((0, 1), repeat=model.n)
    elif model.problem == "matching":
        yield from itertools.permutations(range(model.n))
    else:
        yield from itertools.product(range(model.n), repeat=model.k)


def _state_prob(model: PairModel, state) -> Fraction:
    if model.problem == "poisson_binomial":
        prob = Fraction(1)
        for x, pi in zip(state, model.p):
            f = Fraction(pi)
            prob *= f if x else 1 - f
        return prob
    if model.problem == "matching":
        return Fraction(1, math.factorial(model.n))
    return Fraction(1, model.n**model.k)


def _iter_kernel(model: PairModel, state):
    """Yield (probability, next_state) pairs of one reversible move."""
    if model.problem == "poisson_binomial":
        n = model.n
        base = Fraction(1, n)
        for i in range(n):
            pi = Fraction(model.p[i])
            for eps, pr in ((1, pi), (0, 1 - pi)):
                if pr == 0:
                    continue
                nxt = state[:i] + (eps,) + state[i + 1 :]
                yield base * pr, nxt
    elif model.problem == "matching":
        n = model.n
        pr = Fraction(1, math.comb(n, 2))
        for i in range(n):
            for j in range(i + 1, n):
                nxt = list(state)
                nxt[i], nxt[j] = nxt[j], nxt[i]
                yield pr, tuple(nxt)
    else:
        n, k = model.n, model.k
        pr = Fraction(1, k * n)
        for ball in range(k):
            for box in range(n):
                nxt = state[:ball] + (box,) + state[ball + 1 :]
                yield pr, nxt


def enumerate_pair_measure(model: PairModel) -> EnumeratedPairMeasure:
    """Enumerate the stationary law and the exact one-step conditionals.

    Raises for instances over the enumeration caps.
    """
    states_n, transitions = enumeration_size(model)
    if not is_enumerable(model):
        raise ValueError(
            f"instance is not enumerable: {states_n:.3e} states, "
            f"{transitions:.3e} transitions "
            f"(caps {ENUM_STATE_CAP:.0e} / {ENUM_TRANSITION_CAP:.0e})"
        )
    probs, w_vals, q_up, q_down = [], [], [], []
    for state in _iter_states(model):
        w = statistic(model, state)
        up = 0.0
        down = 0.0
        for pr, nxt in _iter_kernel(model, state):
            w_next = statistic(model, nxt)
            if w_next == w + 1:
                up += float(pr)
            elif w_next == w - 1:
                down += float(pr)
        probs.append(float(_state_prob(model, state)))
        w_vals.append(w)
        q_up.append(up)
        q_down.append(down)
    return EnumeratedPairMeasure(
        probs=np.array(probs), w=np.array(w_vals), q_up=np.array(q_up), q_down=np.array(q_down)
    )


def exact_joint_measure(model: PairModel):
    """Exact-rational joint pair measure Q(state, state') on a small instance.

    Returns (states, probs, q) with ``q`` a sparse dict keyed by state-index
    pairs; all values are Fractions, so symmetry and margin checks are exact.
    """
    states_n, _ = enumeration_size(model)
    if states_n > JOINT_STATE_CAP:
        raise ValueError(
            f"joint measure enumeration capped at {JOINT_STATE_CAP} states "
            f"(instance has {states_n})"
        )
    states = list(_iter_states(model))
    index = {s: i for i, s in enumerate(states)}
    probs = [_state_prob(model, s) for s in states]
    q: dict[tuple[int, int], Fraction] = {}
    for i, state in enumerate(states):
        for pr, nxt in _iter_kernel(model, state):
            key = (i, index[nxt])
            q[key] = q.get(key, Fraction(0)) + probs[i] * pr
    return states, probs, q


@dataclass(frozen=True)
class ExchangeabilityReport:
    states: int
    symmetric: bool
    margins_ok: bool


def verify_exchangeability(model: PairModel) -> ExchangeabilityReport:
    """Exact check that the joint pair measure is symmetric with the
    stationary margins."""
    states, probs, q = exact_joint_measure(model)
    symmetric = all(q.get((j, i), Fraction(0)) == val for (i, j), val in q.items())
    margins = [Fraction(0)] * len(states)
    for (i, _), val in q.items():
        margins[i] += val
    margins_ok = margins == probs
    return ExchangeabilityReport(states=len(states), symmetric=symmetric, margins_ok=margins_ok)


# ---------------------------------------------------------------------------
# statistical verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepProbsReport:
    """Outcome of checking the analytic step formulas against the kernel.

    Exact mode reports the worst absolute error over all states; Monte Carlo
    mode reports standardized deviations (empirical move frequency minus the
    predicted conditional, scaled by its standard error) plus the
    up/down-rate balance implied by exchangeability.
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
    if model.problem == "poisson_binomial":
        p = np.asarray(model.p)
        n = model.n
        omega = rng.random((size, n)) < p
        w = omega.sum(axis=1)
        up, down = _bernoulli_steps(n, model.lam, omega @ p, w)
        idx = rng.integers(0, n, size)
        eps = rng.random(size) < p[idx]
        dw = eps.astype(np.int64) - omega[np.arange(size), idx]
        return up, down, dw, w
    if model.problem == "matching":
        n = model.n
        sig = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        ident = np.arange(n)
        if model.spec.is_plain:
            fixed = sig == ident
            w = fixed.sum(axis=1)
            two = (np.take_along_axis(sig, sig, axis=1) == ident) & ~fixed
            up, down = _plain_matching_steps(n, w, two.sum(axis=1) // 2)
        else:
            up = np.empty(size)
            down = np.empty(size)
            w = np.empty(size, dtype=np.int64)
            for t in range(size):
                st = state_stats(model, sig[t])
                up[t], down[t] = step_probs(model, st)
                w[t] = st.w
        i = rng.integers(0, n, size)
        j = rng.integers(0, n - 1, size)
        j = j + (j >= i)
        rows = np.arange(size)
        si, sj = sig[rows, i], sig[rows, j]
        wv = np.asarray(model.spec.word())  # the identity for plain matching
        dw = (
            (wv[sj] == wv[i]).astype(np.int64)
            + (wv[si] == wv[j])
            - (wv[si] == wv[i])
            - (wv[sj] == wv[j])
        )
        return up, down, dw, w
    # balls in boxes families
    n, k = model.n, model.k
    boxes = rng.integers(0, n, (size, k))
    offsets = np.arange(size)[:, None] * n
    counts = np.bincount((boxes + offsets).ravel(), minlength=size * n).reshape(size, n)
    m0, m1, m2, m3 = ((counts == level).sum(axis=1) for level in range(4))
    stat = _BOX_STAT[model.problem]
    w = stat(counts).sum(axis=1)
    up, down = _occupancy_steps(model.problem, n, k, m0, m1, m2, m3, w)
    ball = rng.integers(0, k, size)
    newbox = rng.integers(0, n, size)
    rows = np.arange(size)
    oldbox = boxes[rows, ball]
    c_old = counts[rows, oldbox]
    c_new = counts[rows, newbox]

    def box_w(c):  # 1-D move vectors only
        return stat(c).astype(np.int64)

    dw = np.where(oldbox != newbox,
                  box_w(c_new + 1) - box_w(c_new) + box_w(c_old - 1) - box_w(c_old), 0)
    return up, down, dw, w


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
    states each take one kernel step and the aggregated move frequencies are
    compared with the averaged formulas at a 4-sigma gate, together with the
    up/down balance that exchangeability forces.  ``bias`` adds a constant to
    the predicted (up, down); it exists so the harness can demonstrate its
    own detection power and must be (0, 0) for real verification.
    """
    if trials is None:
        if not is_enumerable(model):
            raise ValueError("instance too large to enumerate; pass trials for Monte Carlo")
        measure = enumerate_pair_measure(model)
        pred = np.array(
            [step_probs(model, state_stats(model, state)) for state in _iter_states(model)]
        )
        up_dev = float(np.abs(pred[:, 0] + bias[0] - measure.q_up).max())
        down_dev = float(np.abs(pred[:, 1] + bias[1] - measure.q_down).max())
        balance = abs(
            math.fsum((measure.probs * (measure.q_up - measure.q_down)).tolist())
        )
        max_dev = max(up_dev, down_dev)
        return StepProbsReport(
            problem=model.problem,
            mode="exact",
            samples=measure.probs.size,
            max_dev=max_dev,
            up_dev=up_dev,
            down_dev=down_dev,
            balance_dev=balance,
            passed=bool(max_dev <= exact_tol and balance <= exact_tol),
        )
    trials = int(trials)
    if trials < 10_000:
        raise ValueError("Monte Carlo verification needs trials >= 10000")
    if rng is None:
        rng = np.random.default_rng()
    sums = np.zeros(3)
    sq_sums = np.zeros(3)
    done = 0
    while done < trials:
        size = min(_MC_CHUNK, trials - done)
        up, down, dw, _ = _mc_arrays(model, size, rng)
        d_up = (dw == 1).astype(float) - (up + bias[0])
        d_down = (dw == -1).astype(float) - (down + bias[1])
        bal = (up + bias[0]) - (down + bias[1])
        for i, arr in enumerate((d_up, d_down, bal)):
            sums[i] += arr.sum()
            sq_sums[i] += (arr * arr).sum()
        done += size
    means = sums / trials
    variances = np.maximum(sq_sums / trials - means**2, 0.0)
    ses = np.sqrt(variances / trials)
    z = np.where(ses > 0, np.abs(means) / np.where(ses > 0, ses, 1.0), np.where(means == 0, 0.0, np.inf))
    return StepProbsReport(
        problem=model.problem,
        mode="mc",
        samples=trials,
        max_dev=float(z.max()),
        up_dev=float(z[0]),
        down_dev=float(z[1]),
        balance_dev=float(z[2]),
        passed=bool(z.max() <= 4.0),
    )


def sample_statistics(model: PairModel, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized i.i.d. draws of the statistic W."""
    out = np.empty(size, dtype=np.int64)
    done = 0
    while done < size:
        chunk = min(_MC_CHUNK, size - done)
        _, _, _, w = _mc_arrays(model, chunk, rng)
        out[done : done + chunk] = w
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
