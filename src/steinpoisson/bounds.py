"""Closed-form Poisson-approximation error bounds, evaluated as numbers.

Every bound returns a :class:`BoundReport` carrying the Poisson rate, the raw
and capped values (total variation never exceeds 1, but the raw value is kept
for rate analysis), the bookkeeping convention of the source inequality, and
a ``surrogate`` flag for bounds that are assembled or calibrated here rather
than printed in closed form.  Dominance over the exact laws is certified
empirically by the test suite and the sweep harness, never assumed.

Conventions.  The classical inequalities mix two bookkeeping styles that
differ by a factor of two.  ``"set_distance"`` marks values that bound the
standard total variation distance sup_A |mu(A) - nu(A)| (= half the l1
distance), which is what :func:`steinpoisson.stein_core.tv_distance`
computes.  ``"tv"`` marks values whose derivation halves the set-level
error term (the independent-indicators and generalized-matching bounds
carry this half); their claim against standard TV is twice the printed
number, which is exactly what :meth:`BoundReport.in_convention` returns
for ``"set_distance"``.  The halved form is NOT a valid standard-TV bound
in general -- a single indicator with success probability 0.7 already
exceeds it by the full factor of two -- so certification verdicts always
compare the set-distance equivalent, and the raw comparison is reported
alongside, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exact_laws import _success_probabilities
from .stein_core import _positive_rate, check_rate

__all__ = [
    "BoundReport",
    "DependencyGraph",
    "TRIPLE_SURROGATE_C",
    "bound_poisson_binomial",
    "bound_matching",
    "bound_generalized_matching",
    "bound_birthday_pairs",
    "bound_birthday_triples",
    "bound_process_matching",
    "bound_coupon_collector",
    "bound_coupling_poisson_binomial",
    "bound_coupling_matching",
    "bound_coupling_coupon",
    "bound_coupling_pair_count",
    "bound_negative_association",
    "bound_coupon_negative_association",
    "bound_dependency_graph",
    "bound_dependency_graph_general",
    "bound_monochromatic",
    "coloring_dependency_graph",
]

CONVENTION_TV = "tv"
CONVENTION_SET = "set_distance"

#: calibrated constant of the triple-match surrogate C * k^4 / n^3.  The
#: exact triple-count TV times n^3/k^4 reaches 0.0913 on the calibration
#: sweep (n, k) in {(30, 9), (60, 15), (100, 21)} and 0.1263 over the full
#: certification sweep (up to (512, 32)), so 0.15 dominates the sweep.  It
#: is not the ratio's limit: along k = theta n^(2/3) the ratio tends to
#: c(theta) = (1/48) ||Poi(theta^3/6) * (delta_4 - 4 delta_1 + 3 delta_0)||_1
#: (boxes holding four balls), with c(0.5) = 0.1641, c(0.95) = 0.1500 and
#: c(1) = 0.1474.  For theta < 0.95 ((512, 32) has theta = 0.5) the
#: constant lies below that limit, so 0.15 k^4/n^3 is not a bound for large
#: n there, and dominance holds only on certified sweeps, never extrapolated.
TRIPLE_SURROGATE_C = 0.15


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: rate, value, convention and parameter echo."""

    theorem_id: str
    lam: float
    value: float
    raw_value: float
    convention: str
    surrogate: bool = False
    degenerate: bool = False
    inputs: dict = field(default_factory=dict)

    def in_convention(self, convention: str) -> float:
        """Value under the requested convention (capped at 1).

        The two styles differ by the factor two; converting never changes
        which convention the bound was certified under.
        """
        if convention not in (CONVENTION_TV, CONVENTION_SET):
            raise ValueError("convention must be 'tv' or 'set_distance'")
        if convention == self.convention:
            return self.value
        factor = 0.5 if convention == CONVENTION_TV else 2.0
        return min(1.0, self.raw_value * factor)


def _report(theorem_id, lam, raw, convention, surrogate=False, degenerate=False, **inputs):
    raw = float(raw)
    if not math.isfinite(raw):
        raise ValueError(f"{theorem_id}: bound evaluated non-finite ({raw})")
    if raw < 0:
        raise ValueError(f"{theorem_id}: bound evaluated negative ({raw})")
    return BoundReport(
        theorem_id=theorem_id,
        lam=float(lam),
        value=min(1.0, raw),
        raw_value=raw,
        convention=convention,
        surrogate=surrogate,
        degenerate=degenerate,
        inputs=inputs,
    )


# ---------------------------------------------------------------------------
# independent indicators
# ---------------------------------------------------------------------------


def _poisson_binomial_reports(p, report) -> BoundReport | list[BoundReport]:
    """``report(lam, sum_p_sq, n)`` of each vector of success probabilities.

    ``p`` is one vector (one report) or a matrix whose rows are vectors of
    one length n (one report per row).  Row sums of a C-contiguous matrix
    take the same pairwise summation as the sum of the row alone, so each
    row's report is bit-identical to the report of its vector.
    """
    probs = _success_probabilities(p)
    rows = probs.reshape(-1, probs.shape[-1])
    lams = rows.sum(axis=1).tolist()
    _positive_rate(min(lams))  # every sum is finite, so the least decides
    n = rows.shape[1]
    reports = [report(lam, sum_p_sq, n)
               for lam, sum_p_sq in zip(lams, (rows**2).sum(axis=1).tolist())]
    return reports if probs.ndim == 2 else reports[0]


def bound_poisson_binomial(p) -> BoundReport | list[BoundReport]:
    """((1 - e^-lam) / 2 lam) * sum p_i^2 for independent indicators.

    ``p`` is one vector, or a matrix of equal-length vectors (one report per
    row, see :func:`_poisson_binomial_reports`).
    """
    return _poisson_binomial_reports(p, lambda lam, sum_p_sq, n: _report(
        "poisson_binomial_independent", lam, -math.expm1(-lam) / (2.0 * lam) * sum_p_sq,
        CONVENTION_TV, n=n, sum_p_sq=sum_p_sq))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def bound_matching(n: int) -> BoundReport:
    """2/n for the fixed points of a uniform permutation.

    The proof path controls single-event differences, hence the
    ``set_distance`` convention.  The report also carries the classical sharp
    reference ``2^n / n!`` for comparison (computed in log space so large n
    cannot overflow).
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("matching bound needs n >= 2")
    sharp = math.exp(n * math.log(2.0) - math.lgamma(n + 1.0))
    return _report(
        "matching_fixed_points", 1.0, 2.0 / n, CONVENTION_SET, n=n, sharp_reference=sharp
    )


def bound_generalized_matching(l) -> BoundReport:
    """1.4 [lam^{3/2}/(n-1) + 3 mu / (2 n^2 lam^{1/2})] for multiset matching,
    with lam = (1/n) sum l_i^2 and mu = sum l_i^3."""
    mult = [int(x) for x in l]
    if not mult or any(x < 1 for x in mult):
        raise ValueError("multiplicities must be positive integers")
    n = sum(mult)
    if n < 2:
        raise ValueError("need n = sum(l) >= 2")
    lam = sum(x * x for x in mult) / n
    mu = sum(x**3 for x in mult)
    raw = 1.4 * (lam**1.5 / (n - 1) + 3.0 * mu / (2.0 * n * n * math.sqrt(lam)))
    return _report("generalized_matching", lam, raw, CONVENTION_TV, l=tuple(mult), n=n, mu=mu)


def bound_process_matching(n: int) -> BoundReport:
    """4/n for the fixed-point indicator configuration of a uniform
    permutation against independent Poisson(1/n) coordinates.

    The distance is taken over configuration events, hence ``set_distance``.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("process matching bound needs n >= 2")
    return _report("config_matching", 1.0, 4.0 / n, CONVENTION_SET, n=n)


# ---------------------------------------------------------------------------
# birthday problem
# ---------------------------------------------------------------------------


def bound_birthday_pairs(n: int, k: int) -> BoundReport:
    """min{1, sqrt(2)/theta} [(19 theta^3 + 6 theta)/(12 sqrt(n)) + theta^2/(2n)]
    with theta = k / sqrt(n), for the boxes holding at least two balls.

    With lam = theta^2 / 2 the prefactor is exactly min{1, lam^{-1/2}}: a
    sharper Stein factor than the min{1, 1.4 lam^{-1/2}} that
    :func:`~steinpoisson.stein_core.pseudo_inverse_bounds` certifies.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not (isinstance(k, int) and k >= 0):
        raise ValueError("k must be a nonnegative integer")
    theta = k / math.sqrt(n)
    lam = k * k / (2.0 * n)
    if k == 0:
        return _report("birthday_pairs", 0.0, 0.0, CONVENTION_SET, degenerate=True, n=n, k=k, theta=0.0)
    prefactor = min(1.0, math.sqrt(2.0) / theta)
    raw = prefactor * ((19.0 * theta**3 + 6.0 * theta) / (12.0 * math.sqrt(n)) + theta**2 / (2.0 * n))
    return _report("birthday_pairs", lam, raw, CONVENTION_SET, n=n, k=k, theta=theta)


def bound_birthday_triples(n: int, k: int) -> BoundReport:
    """Calibrated surrogate C * k^4 / n^3 for the triple-match count.

    The available result fixes only the order k^4/n^3; the constant
    ``TRIPLE_SURROGATE_C`` is pinned by the dominance sweep (see module
    docstring), so the report is flagged ``surrogate``.
    """
    if not (isinstance(k, int) and k >= 3):
        raise ValueError("triple matches need k >= 3")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    lam = math.comb(k, 3) / n**2
    raw = TRIPLE_SURROGATE_C * k**4 / n**3
    return _report(
        "birthday_triples_surrogate", lam, raw, CONVENTION_SET, surrogate=True,
        n=n, k=k, constant=TRIPLE_SURROGATE_C,
    )


# ---------------------------------------------------------------------------
# coupon collector
# ---------------------------------------------------------------------------


def _check_coupon(n, k, name: str) -> None:
    if not (isinstance(n, int) and n >= 3 and isinstance(k, int) and k >= 1):
        raise ValueError(f"{name} needs n >= 3 boxes and k >= 1 balls")


def _singleton_variance_bound(n: int, k: int) -> float:
    """Closed-form upper bound on the variance of the number of boxes that
    hold exactly one of k >= 1 balls in n boxes."""
    one_minus_1 = 1.0 - 1.0 / n
    one_minus_2 = 1.0 - 2.0 / n
    return k * one_minus_1 ** (k - 1) + (2.0 * k * k / n) * one_minus_2 ** (k - 2)


def bound_coupon_collector(n: int, k: int) -> BoundReport:
    """Assembled error chain for the empty-box count at k = n log n + theta n.

    The published result fixes only the order exp(-theta)/sqrt(log n); this
    evaluator assembles the displayed intermediate inequalities into an
    explicit number (flagged ``surrogate``):

        value = min(1, 1.4 lam^{-1/2}) * (C_hat + D_hat + B_hat)

    with lam = exp(-theta), B_hat the two-box collision term, C_hat the
    rate-mismatch term and D_hat the singleton-concentration term driven by
    the closed-form variance bound of the singleton count.  theta may be
    negative; absolute values are used where the chain assumed theta >= 0.
    A rate outside (0, ``MAX_LAM``] raises ``check_rate``'s ValueError.
    """
    _check_coupon(n, k, "coupon collector chain")
    log_n = math.log(n)
    theta = (k - n * log_n) / n
    lam = math.exp(-theta)
    check_rate(lam)  # exp(-theta) underflows to 0 at large k
    b_hat = n * (1.0 - 2.0 / n) ** (k - 1)
    c_hat = lam * (abs(theta) * n + (lam + 1.0) * log_n) / k
    d_hat = (n * log_n / k) * (
        n * abs(theta) * lam / ((n - 1) * log_n)
        + lam / (n - 1)
        + lam * (log_n + theta) / (2.0 * (n - 1))
        + math.sqrt(_singleton_variance_bound(n, k)) / log_n
    )
    raw = min(1.0, 1.4 / math.sqrt(lam)) * (c_hat + d_hat + b_hat)
    return _report(
        "coupon_collector_chain", lam, raw, CONVENTION_SET, surrogate=True,
        n=n, k=k, theta=theta, b_hat=b_hat, c_hat=c_hat, d_hat=d_hat,
    )


# ---------------------------------------------------------------------------
# size-bias couplings: (1 - e^-lam) E|W + 1 - W*|, where W* has the
# size-biased law of W; each expectation below is in closed form
# ---------------------------------------------------------------------------


def bound_coupling_poisson_binomial(p) -> BoundReport | list[BoundReport]:
    """(1 - e^-lam) sum p_i^2 / lam for independent indicators, lam = sum p_i > 0;
    ``p`` may be a matrix of equal-length rows, as in :func:`bound_poisson_binomial`."""
    return _poisson_binomial_reports(p, lambda lam, sum_p_sq, n: _report(
        "coupling_poisson_binomial", lam, -math.expm1(-lam) * (sum_p_sq / lam),
        CONVENTION_SET, n=n))


def bound_coupling_matching(n: int) -> BoundReport:
    """(1 - e^-1) 2/n for the fixed points of a uniform permutation, lam = 1."""
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("matching coupling needs n >= 2")
    lam = 1.0
    return _report("coupling_matching", lam, -math.expm1(-lam) * 2.0 / n, CONVENTION_SET, n=n)


def bound_coupling_coupon(n: int, k: int) -> BoundReport:
    """(1 - e^-lam)(1 - 1/n)^k (1 + k/n) for the empty boxes, lam = n (1 - 1/n)^k;
    at n = 2, k = 1 (W = 1 for sure) 0.474 is below the exact TV 1 - e^-1."""
    _check_coupon(n, k, "coupon coupling")
    lam = n * (1.0 - 1.0 / n) ** k
    e_term = (1.0 - 1.0 / n) ** k * (1.0 + k / n)
    return _report("coupling_coupon", lam, -math.expm1(-lam) * e_term, CONVENTION_SET, n=n, k=k)


def bound_coupling_pair_count(n: int, k: int) -> BoundReport:
    """(1 - e^-lam)(1 + 2k)/n for the pair count, lam = C(k, 2)/n (degenerate at k < 2)."""
    if not (isinstance(n, int) and n >= 1 and isinstance(k, int) and k >= 0):
        raise ValueError("birthday coupling needs n >= 1 and k >= 0")
    lam = math.comb(k, 2) / n
    if lam <= 0.0:
        return _report("coupling_birthday", 0.0, 0.0, CONVENTION_SET, degenerate=True, n=n, k=k)
    e_term = (1.0 + 2.0 * k) / n
    return _report("coupling_birthday", lam, -math.expm1(-lam) * e_term, CONVENTION_SET, n=n, k=k)


# ---------------------------------------------------------------------------
# negative association
# ---------------------------------------------------------------------------


def bound_negative_association(lam: float, sigma2: float) -> BoundReport:
    """(1 - e^-lam)(1 - sigma^2 / lam) for binary negatively associated
    summands with mean lam and variance sigma^2 <= lam."""
    _positive_rate(lam)
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError("sigma2 must be positive")
    if sigma2 > lam * (1.0 + 1e-12):
        raise ValueError(
            f"sigma2 = {sigma2} exceeds lam = {lam}: negative association forces "
            "variance <= mean, so these inputs violate the hypothesis"
        )
    raw = -math.expm1(-lam) * max(0.0, 1.0 - sigma2 / lam)
    return _report("negative_association", lam, raw, CONVENTION_SET, sigma2=sigma2)


def bound_coupon_negative_association(n: int, k: int) -> BoundReport:
    """:func:`bound_negative_association` for the (negatively associated) empty
    boxes: lam = n (1 - 1/n)^k, sigma^2 = lam + n (n - 1)(1 - 2/n)^k - lam^2."""
    _check_coupon(n, k, "coupon negative association")
    lam = n * (1.0 - 1.0 / n) ** k
    sigma2 = lam + n * (n - 1) * (1 - 2 / n) ** k - lam * lam
    return bound_negative_association(lam, sigma2)


# ---------------------------------------------------------------------------
# dependency graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependencyGraph:
    """Indicator metadata on a dependency graph.

    ``p[i]`` is the marginal success probability, ``neighborhoods[i]`` the
    closed neighborhood N_i (must contain i, symmetric), and ``p_pair`` the
    joint success probabilities for adjacent pairs, keyed by (i, j) in either
    order.
    """

    p: np.ndarray
    neighborhoods: tuple[frozenset, ...]
    p_pair: dict

    def __post_init__(self):
        p = np.ascontiguousarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a nonempty 1-D array")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("marginal probabilities must lie in [0, 1]")
        m = p.size
        hoods = tuple(frozenset(int(j) for j in nb) for nb in self.neighborhoods)
        if len(hoods) != m:
            raise ValueError("need one neighborhood per vertex")
        for i, nb in enumerate(hoods):
            if i not in nb:
                raise ValueError(f"vertex {i} missing from its own neighborhood")
            if any(j < 0 or j >= m for j in nb):
                raise ValueError("neighborhood indices out of range")
            for j in nb:
                if i not in hoods[j]:
                    raise ValueError(f"adjacency must be symmetric: {i} in N_{j}?")
        for i, nb in enumerate(hoods):
            for j in nb:
                if j == i:
                    continue
                pij = self.pair_prob(i, j)
                if pij is None:
                    raise ValueError(f"missing joint probability for edge ({i}, {j})")
                if pij > min(p[i], p[j]) + 1e-12 or pij < 0.0:
                    raise ValueError(f"p_{i}{j} must lie in [0, min(p_i, p_j)]")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "neighborhoods", hoods)

    def pair_prob(self, i: int, j: int):
        val = self.p_pair.get((i, j))
        if val is None:
            val = self.p_pair.get((j, i))
        return val

    @property
    def size(self) -> int:
        return int(self.p.size)


def _graph_rate(g: DependencyGraph) -> float:
    """lam = sum(p), which both dependency-graph bounds need positive."""
    return _positive_rate(float(g.p.sum()))


def bound_dependency_graph(g: DependencyGraph) -> BoundReport:
    """min(1, 1/lam) [sum_i sum_{j in N_i \\ i} p_ij + sum_i sum_{j in N_i} p_i p_j].

    The second double sum deliberately includes j = i, contributing
    sum p_i^2; an empty edge set therefore reduces to the independent-trials
    form min(1, 1/lam) sum p_i^2.
    """
    lam = _graph_rate(g)
    joint = 0.0
    product = 0.0
    for i, nb in enumerate(g.neighborhoods):
        for j in nb:
            product += g.p[i] * g.p[j]
            if j != i:
                joint += g.pair_prob(i, j)
    raw = min(1.0, 1.0 / lam) * (joint + product)
    return _report("dependency_graph", lam, raw, CONVENTION_SET,
                   vertices=g.size, joint_sum=joint, product_sum=product)


def bound_dependency_graph_general(g: DependencyGraph, etas, z_means, xz_means) -> BoundReport:
    """min(1, 1/lam) sum_i [p_i^2 + p_i E Z_i + E(X_i Z_i)] + min(1, 1/lam) sum_i eta_i.

    ``Z_i`` is the caller's strongly-dependent neighborhood sum and ``eta_i``
    the weak-dependence defect; this evaluator does not derive them.  With
    ``Z_i`` summed over N_i minus i and ``eta_i = 0`` it reproduces
    :func:`bound_dependency_graph` exactly.
    """
    etas = np.ascontiguousarray(etas, dtype=float)
    z = np.ascontiguousarray(z_means, dtype=float)
    xz = np.ascontiguousarray(xz_means, dtype=float)
    m = g.size
    if not (etas.size == z.size == xz.size == m):
        raise ValueError("etas, z_means, xz_means must have one entry per vertex")
    if np.any(etas < 0.0) or np.any(z < 0.0) or np.any(xz < 0.0):
        raise ValueError("etas, z_means and xz_means must be nonnegative")
    lam = _graph_rate(g)
    core = float(np.sum(g.p**2 + g.p * z + xz))
    raw = min(1.0, 1.0 / lam) * (core + float(etas.sum()))
    return _report("dependency_graph_general", lam, raw, CONVENTION_SET,
                   vertices=m, core=core, eta_sum=float(etas.sum()))


# ---------------------------------------------------------------------------
# monochromatic tuples
# ---------------------------------------------------------------------------


def bound_monochromatic(n: int, k: int, c: int) -> BoundReport:
    """Dependency-graph bound for the monochromatic k-tuple count:

        min(1, 1/lam) [ C(n,k) sum_{l=1}^{k-1} C(k,l) C(n-k,k-l) c^{1-(2k-l)}
                        + C(n,k) c^{2-2k} sum_{l=1}^{k} C(k,l) C(n-k,k-l) ]

    with lam = C(n,k) c^{1-k}.
    """
    if not (isinstance(n, int) and isinstance(k, int) and 2 <= k <= n):
        raise ValueError("need integers 2 <= k <= n")
    if not (isinstance(c, int) and c >= 1):
        raise ValueError("need at least one color")
    lam = math.comb(n, k) * float(c) ** (1 - k)
    overlap_sum = sum(
        math.comb(k, l) * math.comb(n - k, k - l) * float(c) ** (1 - (2 * k - l))
        for l in range(1, k)
    )
    neighbor_sum = sum(math.comb(k, l) * math.comb(n - k, k - l) for l in range(1, k + 1))
    raw = min(1.0, 1.0 / lam) * (
        math.comb(n, k) * overlap_sum + math.comb(n, k) * float(c) ** (2 - 2 * k) * neighbor_sum
    )
    return _report("monochromatic_tuples", lam, raw, CONVENTION_SET, n=n, k=k, c=c)


def coloring_dependency_graph(n: int, k: int, c: int) -> DependencyGraph:
    """Explicit dependency graph of the monochromatic-tuple indicators.

    Vertices are the k-subsets of [n]; two subsets are adjacent iff they
    intersect; a pair overlapping in l points has joint probability
    c^{1-(2k-l)}.  Feeding this graph to :func:`bound_dependency_graph`
    reproduces :func:`bound_monochromatic` exactly, which the test suite
    asserts.
    """
    if not (isinstance(n, int) and isinstance(k, int) and 2 <= k <= n):
        raise ValueError("need integers 2 <= k <= n")
    subsets = [frozenset(s) for s in combinations(range(n), k)]
    m = len(subsets)
    p = np.full(m, float(c) ** (1 - k))
    hoods = []
    p_pair = {}
    for i in range(m):
        nb = {i}
        for j in range(m):
            if j == i:
                continue
            overlap = len(subsets[i] & subsets[j])
            if overlap > 0:
                nb.add(j)
                if i < j:
                    p_pair[(i, j)] = float(c) ** (1 - (2 * k - overlap))
        hoods.append(frozenset(nb))
    return DependencyGraph(p=p, neighborhoods=tuple(hoods), p_pair=p_pair)
