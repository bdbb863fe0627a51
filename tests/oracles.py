"""Brute-force enumeration oracles.

Exponential-cost reference implementations that define correctness for the
library's closed forms and DP paths.  Deliberately written with the dumbest
possible approach (full enumeration, direct series) and no shared code with
the package internals.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def poisson_series(lam: float, length: int) -> np.ndarray:
    """Poisson pmf by direct evaluation of exp(-lam) lam^k / k!."""
    return np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(length)])


def tv_arrays(a, b) -> float:
    """Half-l1 distance between zero-padded pmf arrays (no tail handling)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    size = max(a.size, b.size)
    pa = np.zeros(size)
    pb = np.zeros(size)
    pa[: a.size] = a
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def enumerate_poisson_binomial(p) -> np.ndarray:
    """Law of the indicator sum by summing over all 2^n outcomes."""
    p = list(p)
    n = len(p)
    mass = np.zeros(n + 1)
    for omega in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for x, pi in zip(omega, p):
            prob *= pi if x else 1.0 - pi
        mass[sum(omega)] += prob
    return mass


def enumerate_matching(n: int, word=None) -> np.ndarray:
    """Fixed-point law by enumerating all n! permutations.

    ``word`` gives the letter at each slot for multiset matching; a match at
    slot i means the displayed letter equals the original one.
    """
    if word is None:
        word = tuple(range(n))
    counts = [0] * (n + 1)
    for sigma in itertools.permutations(range(n)):
        w = sum(1 for i in range(n) if word[sigma[i]] == word[i])
        counts[w] += 1
    total = math.factorial(n)
    return np.array([Fraction(c, total) for c in counts], dtype=float)


def enumerate_joint_fixed_succession(n: int) -> np.ndarray:
    """Joint law of (fixed points, cyclic successions) over all n! permutations:
    counts of i with sigma(i) = i and with sigma(i) = i + 1 mod n, as an
    (n + 1) x (n + 1) table."""
    counts = np.zeros((n + 1, n + 1), dtype=object)
    for sigma in itertools.permutations(range(n)):
        fixed = sum(1 for i in range(n) if sigma[i] == i)
        succ = sum(1 for i in range(n) if sigma[i] == (i + 1) % n)
        counts[fixed, succ] += 1
    total = math.factorial(n)
    return np.array([[float(Fraction(c, total)) for c in row] for row in counts])


def enumerate_fixed_point_configurations(n: int) -> dict:
    """Number of permutations of n letters with each fixed-point indicator
    configuration, over all n! permutations."""
    counts = {}
    for sigma in itertools.permutations(range(n)):
        cfg = tuple(int(sigma[i] == i) for i in range(n))
        counts[cfg] = counts.get(cfg, 0) + 1
    return counts


def derangements(m: int) -> int:
    """Permutations of m letters without fixed points, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(m, j) * math.factorial(m - j) for j in range(m + 1))


def matching_config_cube(n: int) -> dict:
    """Fixed-point configuration law on all 2^n configurations: a configuration
    with s fixed points is reached by the D_{n-s} derangements of the rest."""
    total = math.factorial(n)
    return {
        cfg: float(Fraction(derangements(n - sum(cfg)), total))
        for cfg in itertools.product((0, 1), repeat=n)
    }


def product_poisson_config_cube(p) -> tuple[dict, float]:
    """Independent Poisson(p_i) coordinates on all 2^n binary configurations,
    with the non-binary mass ``1 - sum`` returned beside them."""
    mass = {}
    for cfg in itertools.product((0, 1), repeat=len(p)):
        prob = 1.0
        for bit, x in zip(cfg, p):
            prob *= math.exp(-x) * (x if bit else 1.0)
        mass[cfg] = prob
    return mass, 1.0 - math.fsum(mass.values())


def cube_tv(a: dict, a_tail: float, b: dict, b_tail: float) -> float:
    """Total variation configuration by configuration, tails added."""
    keys = set(a) | set(b)
    l1 = math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
    return 0.5 * (l1 + a_tail + b_tail)


def config_generator_apply(h, p, xi) -> float:
    """Immigration-death generator on count configurations:

        sum_i p_i [h(xi + delta_i) - h(xi)] + sum_i x_i [h(xi - delta_i) - h(xi)]

    ``h`` maps count tuples to reals; births at site i run at rate p_i,
    deaths at unit rate per particle.  The product Poisson law of rates p is
    stationary for this dynamics.
    """
    rates = [float(x) for x in p]
    cfg = tuple(int(x) for x in xi)
    if len(cfg) != len(rates):
        raise ValueError("configuration and rate table sizes differ")
    if any(x < 0 for x in cfg):
        raise ValueError("counts must be nonnegative")
    base = h(cfg)
    total = 0.0
    for i, rate in enumerate(rates):
        up = cfg[:i] + (cfg[i] + 1,) + cfg[i + 1 :]
        total += rate * (h(up) - base)
        if cfg[i] > 0:
            down = cfg[:i] + (cfg[i] - 1,) + cfg[i + 1 :]
            total += cfg[i] * (h(down) - base)
    return total


def enumerate_occupancy(n: int, k: int, statistic, top: int) -> np.ndarray:
    """Occupancy-statistic law over all n^k placements.

    ``statistic`` maps the box-count vector to the statistic value.
    """
    mass = np.zeros(top + 1)
    total = n**k
    for placement in itertools.product(range(n), repeat=k):
        counts = [0] * n
        for box in placement:
            counts[box] += 1
        mass[statistic(counts)] += 1
    return mass / total


def stat_empty(counts):
    return sum(1 for c in counts if c == 0)


def stat_pairs(counts):
    return sum(1 for c in counts if c >= 2)


def stat_triples(counts):
    return sum(math.comb(c, 3) for c in counts)


def stat_pair_count(counts):
    return sum(math.comb(c, 2) for c in counts)


def pairs_law_exact(n: int, k: int) -> np.ndarray:
    """Law of the number of boxes holding at least two of k balls in n boxes,
    by exact integer counting rather than enumeration.

    An allocation with m1 singles, m2 doubles and r boxes of three or more
    balls (m0 = n - m1 - m2 - r empty) arises in
    ``n!/(m0! m1! m2! r!) * k!/(j! 2^m2) * r! S3(j, r)`` ways, j = k - m1 - 2 m2,
    where S3(j, r) counts partitions of j balls into r blocks of size >= 3:
    ``S3(j, r) = r S3(j-1, r) + C(j-1, 2) S3(j-3, r-1)``.
    """
    r_max = k // 3
    s3 = [[0] * (r_max + 1) for _ in range(k + 1)]
    s3[0][0] = 1
    for j in range(1, k + 1):
        for r in range(1, r_max + 1):
            s3[j][r] = r * s3[j - 1][r] + (math.comb(j - 1, 2) * s3[j - 3][r - 1] if j >= 3 else 0)
    f = [math.factorial(i) for i in range(max(n, k) + 1)]
    counts = [0] * (min(n, k // 2) + 1)
    for m1 in range(min(n, k) + 1):
        for m2 in range(min(n - m1, (k - m1) // 2) + 1):
            j = k - m1 - 2 * m2
            for r in range(min(n - m1 - m2, j // 3) + 1):
                if s3[j][r] == 0:
                    continue
                boxes = f[n] // (f[n - m1 - m2 - r] * f[m1] * f[m2] * f[r])
                balls = f[k] // (f[j] * 2**m2) * f[r] * s3[j][r]
                counts[m2 + r] += boxes * balls
    total = n**k
    assert sum(counts) == total
    return np.array([c / total for c in counts])


def allocation_law_exact(cells: int, items: int, box_value) -> list[Fraction]:
    """Exact law of ``sum_j box_value(c_j)`` for ``items`` uniform items in
    ``cells`` cells, one cell at a time in exact integers.

    With r items not yet placed, the next cell takes c of them in
    ``C(r, c)`` ways; the last cell takes the rest.  The allocations counted
    this way number ``cells**items``.  ``box_value`` maps a cell's item count
    to its integer contribution.
    """
    state = {(items, 0): 1}
    for left in range(cells, 0, -1):
        nxt = {}
        for (r, s), ways in state.items():
            for c in range(r + 1) if left > 1 else (r,):
                key = (r - c, s + int(box_value(c)))
                nxt[key] = nxt.get(key, 0) + ways * math.comb(r, c)
        state = nxt
    counts = [0] * (max(s for _, s in state) + 1)
    for (_, s), ways in state.items():
        counts[s] += ways
    assert sum(counts) == cells**items
    return [Fraction(c, cells**items) for c in counts]


def enumerate_coloring(n: int, k: int, c: int) -> np.ndarray:
    """Monochromatic k-tuple law over all c^n colorings."""
    top = math.comb(n, k)
    mass = np.zeros(top + 1)
    subsets = list(itertools.combinations(range(n), k))
    for coloring in itertools.product(range(c), repeat=n):
        w = sum(1 for s in subsets if len({coloring[i] for i in s}) == 1)
        mass[w] += 1
    return mass / c**n


def coupon_oracle(n: int, k: int) -> Fraction:
    """Variance of the number of singleton boxes by full enumeration of the
    n^k placements of k balls in n boxes."""
    total = n**k
    en1 = 0
    en1_sq = 0
    for placement in itertools.product(range(n), repeat=k):
        counts = [0] * n
        for box in placement:
            counts[box] += 1
        n1 = sum(1 for c in counts if c == 1)
        en1 += n1
        en1_sq += n1 * n1
    return Fraction(en1_sq, total) - Fraction(en1, total) ** 2


def singleton_variance(n: int, k: int) -> Fraction:
    """Exact variance of the number of singleton boxes, k balls in n >= 3
    boxes: n p (1 - p) + n (n - 1) (rho - p^2), where p is the chance that a
    box holds exactly one ball and rho that two given boxes each do."""
    p = k * Fraction(n - 1, n) ** (k - 1) / n
    rho = k * (k - 1) * Fraction(n - 2, n) ** (k - 2) / n**2
    return n * p * (1 - p) + n * (n - 1) * (rho - p * p)


def pair_chain_fractions(model):
    """The state chain of an exchangeable-pair model in exact Fractions:
    (states, prob, kernel) with ``prob(state)`` the stationary probability
    and ``kernel(state)`` yielding (probability, next state) pairs.

    Independent indicators resample one uniform coordinate; permutations
    (plain and multiset matching) compose with a uniform transposition; box
    assignments send one uniform ball to a uniform box.
    """
    n = model.n
    if model.problem == "poisson_binomial":
        p = [Fraction(x) for x in model.p]

        def prob(state):
            out = Fraction(1)
            for x, pi in zip(state, p):
                out *= pi if x else 1 - pi
            return out

        def kernel(state):
            for i in range(n):
                for eps, pr in ((1, p[i]), (0, 1 - p[i])):
                    if pr != 0:
                        yield Fraction(1, n) * pr, state[:i] + (eps,) + state[i + 1 :]

        return list(itertools.product((0, 1), repeat=n)), prob, kernel
    if model.problem == "matching":
        states = list(itertools.permutations(range(n)))
        pr = Fraction(1, math.comb(n, 2))

        def kernel(state):
            for i in range(n):
                for j in range(i + 1, n):
                    nxt = list(state)
                    nxt[i], nxt[j] = nxt[j], nxt[i]
                    yield pr, tuple(nxt)

        return states, lambda state: Fraction(1, len(states)), kernel
    k = model.k
    states = list(itertools.product(range(n), repeat=k))
    pr = Fraction(1, k * n)

    def kernel(state):
        for ball in range(k):
            for box in range(n):
                yield pr, state[:ball] + (box,) + state[ball + 1 :]

    return states, lambda state: Fraction(1, len(states)), kernel


def pair_statistic(model, state) -> int:
    """W of one state tuple, counted from its definition: successes,
    letters matched in their own slots, or the per-box statistic summed
    over the box counts."""
    if model.problem == "poisson_binomial":
        return sum(state)
    if model.problem == "matching":
        word = list(model.spec.word()) if hasattr(model, "spec") else list(range(model.n))
        return sum(word[s] == word[i] for i, s in enumerate(state))
    counts = [0] * model.n
    for box in state:
        counts[box] += 1
    stat = {"birthday_pairs": stat_pairs, "birthday_triples": stat_triples,
            "coupon": stat_empty}[model.problem]
    return stat(counts)


def pair_measure_fractions(model) -> tuple[list, list, list, list]:
    """(probs, w, q_up, q_down) over the states in enumeration order: each
    probability the float of its exact Fraction."""
    states, prob, kernel = pair_chain_fractions(model)
    probs, ws, ups, downs = [], [], [], []
    for state in states:
        w = pair_statistic(model, state)
        up = down = Fraction(0)
        for pr, nxt in kernel(state):
            wn = pair_statistic(model, nxt)
            if wn == w + 1:
                up += pr
            elif wn == w - 1:
                down += pr
        probs.append(float(prob(state)))
        ws.append(w)
        ups.append(float(up))
        downs.append(float(down))
    return probs, ws, ups, downs


def pair_joint_measure_fractions(model):
    """Joint pair measure Q(state, state') by enumeration in Fractions:
    (states, probs, q) with ``q`` a sparse dict keyed by state-index pairs."""
    states, prob, kernel = pair_chain_fractions(model)
    index = {s: i for i, s in enumerate(states)}
    probs = [prob(s) for s in states]
    q = {}
    for i, state in enumerate(states):
        for pr, nxt in kernel(state):
            key = (i, index[nxt])
            q[key] = q.get(key, Fraction(0)) + probs[i] * pr
    return states, probs, q


def pair_exchangeability_fractions(model) -> tuple[int, bool, bool]:
    """(states, symmetric, margins_ok) of the joint pair measure: Q equals
    its transpose, and each row of Q sums to the stationary probability."""
    states, probs, q = pair_joint_measure_fractions(model)
    symmetric = all(q.get((j, i), Fraction(0)) == val for (i, j), val in q.items())
    margins = [Fraction(0)] * len(states)
    for (i, _), val in q.items():
        margins[i] += val
    return len(states), symmetric, margins == probs
