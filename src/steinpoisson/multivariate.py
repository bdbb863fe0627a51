"""Multivariate and configuration-level Poisson approximation.

Joint laws over integer vectors, binary-configuration laws, their product
Poisson references with exactly accounted tails, the corresponding total
variation distances, the immigration-death generator on configurations, and
the worked multivariate bounds.  Closed forms in exact integers (bivariate
rook numbers, derangement numbers) supply the joint ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import CONVENTION_SET, BoundReport, _report
from .exact_laws import _completions, _hits_exactly, derangement_numbers
from .stein_core import Pmf, SteinParams, poisson_pmf

__all__ = [
    "JointPmf",
    "ConfigLaw",
    "JOINT_CAP",
    "CONFIG_LAW_CAP",
    "check_joint",
    "check_config",
    "joint_fixed_point_succession_pmf",
    "product_poisson_joint",
    "joint_tv",
    "joint_marginal",
    "bound_fixed_point_succession",
    "multivariate_error_bound",
    "matching_config_law",
    "product_poisson_config_law",
    "config_count_projection",
    "process_tv",
    "config_generator_apply",
]

#: joint fixed-point/succession law up to this n (0.13 s at n=100, 1.2 s at n=200; 2-vCPU)
JOINT_CAP = 100
#: binary-configuration cap for the exact matching configuration law
CONFIG_LAW_CAP = 14


def _check_sparse_law(mass: dict, tail: float, check_key) -> None:
    """``check_key`` vets each support point; probabilities and tail sum to one."""
    total = 0.0
    for key, prob in mass.items():
        check_key(key)
        if not (-1e-15 <= prob <= 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        total += prob
    if not (-1e-15 <= tail <= 1 + 1e-12):
        raise ValueError("tail must lie in [0, 1]")
    if abs(total + tail - 1.0) > 1e-12:
        raise ValueError(f"mass + tail must sum to 1 (got {total + tail:.17g})")


def _sparse_tv(a, b) -> float:
    """Total variation over the union of supports, tails added conservatively."""
    keys = set(a.mass) | set(b.mass)
    l1 = math.fsum(abs(a.mass.get(k, 0.0) - b.mass.get(k, 0.0)) for k in sorted(keys))
    return 0.5 * (l1 + a.tail + b.tail)


@dataclass(frozen=True)
class JointPmf:
    """Sparse pmf over integer vectors in N^dim with residual tail mass."""

    dim: int
    mass: dict
    tail: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        _check_sparse_law(self.mass, self.tail, self._check_vector)

    def _check_vector(self, vec):
        if len(vec) != self.dim:
            raise ValueError(f"vector {vec} does not have dim {self.dim}")
        if any(x < 0 for x in vec):
            raise ValueError("supports live in N^dim: componentwise >= 0")


@dataclass(frozen=True)
class ConfigLaw:
    """Law over binary configurations on an index set of size ``index_size``.

    Empirical laws have binary support and ``tail == 0``; a product-Poisson
    reference restricted to binary configurations stores the exactly
    aggregated non-binary mass in ``tail``.
    """

    index_size: int
    mass: dict
    tail: float = 0.0

    def __post_init__(self):
        _check_sparse_law(self.mass, self.tail, self._check_config)

    def _check_config(self, cfg):
        if len(cfg) != self.index_size or any(x not in (0, 1) for x in cfg):
            raise ValueError("configurations must be binary tuples of index_size")


# ---------------------------------------------------------------------------
# joint fixed points / cyclic successions
# ---------------------------------------------------------------------------


def check_joint(n: int) -> None:
    """Raise ValueError if :func:`joint_fixed_point_succession_pmf` cannot take ``n``."""
    if not (isinstance(n, int) and 2 <= n <= JOINT_CAP):
        raise ValueError(f"joint law needs 2 <= n <= {JOINT_CAP}")


def joint_fixed_point_succession_pmf(n: int) -> JointPmf:
    """Exact joint law of (fixed points, cyclic successions) of a uniform
    permutation: positions with sigma(i) = i and with sigma(i) = i + 1,
    counted cyclically so sigma(n) = 1 contributes to the second count.

    The hit cells (0,0), (0,1), (1,1), ..., (n-1,0) form a 2n-cycle whose
    neighbours share a row or a column, so the rook numbers ``rooks[j1, j2]``
    count its independent sets; a two-state walk (last cell free / taken)
    around it gives them.  Times ``(n-j1-j2)!`` they count permutations with
    at least those hits, and inclusion-exclusion on both axes makes them exact.
    """
    check_joint(n)
    rooks = np.zeros((n + 1, n + 1), dtype=object)
    for first in (0, 1):  # cell (0,0) free, then taken
        free, taken = np.zeros_like(rooks), np.zeros_like(rooks)
        (taken if first else free)[first, 0] = 1
        for cell in range(1, 2 * n):  # even cells fixed points (axis 0); rolls never wrap
            free, taken = free + taken, np.roll(free, 1, axis=cell % 2)
        rooks += free if first else free + taken  # (n-1,0) neighbours (0,0)
    j = np.arange(n + 1)  # rooks vanish past j1 + j2 = n
    at_least = rooks * _completions(n)[np.minimum(j[:, None] + j[None, :], n)]
    counts = _hits_exactly(_hits_exactly(at_least, 0), 1)
    n_fact = math.factorial(n)
    assert counts.sum() == n_fact
    mass = {key: c / n_fact for key, c in np.ndenumerate(counts) if c}
    return JointPmf(dim=2, mass=mass)


def product_poisson_joint(lambdas, truncation_eps: float = 1e-12) -> JointPmf:
    """Product of truncated Poisson laws on a box, exact residual tail.

    Per-coordinate truncation at ``truncation_eps`` makes the total tail at
    most ``dim * truncation_eps`` (union bound); the stored tail is the exact
    residual ``1 - prod(coordinate masses)``.
    """
    rates = [float(l) for l in lambdas]
    if not rates or any(l <= 0 for l in rates):
        raise ValueError("all rates must be positive")
    coords = [poisson_pmf(SteinParams(l, truncation_eps)) for l in rates]
    mass = {}
    for vec in itertools.product(*(range(c.mass.size) for c in coords)):
        prob = 1.0
        for x, c in zip(vec, coords):
            prob *= c.mass[x]
        mass[vec] = prob
    covered = 1.0
    for c in coords:
        covered *= math.fsum(c.mass.tolist())
    tail = max(0.0, 1.0 - covered)
    return JointPmf(dim=len(rates), mass=mass, tail=tail)


def joint_tv(p: JointPmf, q: JointPmf) -> float:
    """Total variation over the union of supports, tails added conservatively."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return _sparse_tv(p, q)


def joint_marginal(p: JointPmf, axis: int) -> Pmf:
    """Project a joint law onto one coordinate; the joint tail is inherited."""
    if not (0 <= axis < p.dim):
        raise ValueError("axis out of range")
    top = max(vec[axis] for vec in p.mass)
    mass = np.zeros(top + 1)
    for vec, prob in p.mass.items():
        mass[vec[axis]] += prob
    return Pmf.from_mass(mass, tail=p.tail)


def bound_fixed_point_succession(n: int) -> BoundReport:
    """13/n for the joint law of fixed points and cyclic successions against
    independent unit-rate Poisson coordinates."""
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("needs n >= 3")
    return _report("joint_fixed_point_succession", 1.0, 13.0 / n, CONVENTION_SET, n=n, dim=2)


def multivariate_error_bound(lambdas, error_terms) -> BoundReport:
    """Combination rule for coordinatewise exchangeable-pair errors.

    ``error_terms[k] = (e_up, e_down)`` are the caller-computed expectations
    ``E|lam_k - c_k P(up event)|`` and ``E|W_k - c_k P(down event)|``; the
    bound is ``sum_k min(1, 1.4 lam_k^{-1/2}) (e_up + e_down)``.  With one
    coordinate this reduces to the univariate error form.
    """
    rates = [float(l) for l in lambdas]
    if not rates or any(l <= 0 for l in rates):
        raise ValueError("all rates must be positive")
    if len(error_terms) != len(rates):
        raise ValueError("need one (e_up, e_down) pair per coordinate")
    raw = 0.0
    for lam_k, (e_up, e_down) in zip(rates, error_terms):
        if e_up < 0 or e_down < 0:
            raise ValueError("error expectations must be nonnegative")
        raw += min(1.0, 1.4 / math.sqrt(lam_k)) * (e_up + e_down)
    return _report(
        "multivariate_combination", float(sum(rates)), raw, CONVENTION_SET, dim=len(rates)
    )


# ---------------------------------------------------------------------------
# configuration laws
# ---------------------------------------------------------------------------


def check_config(n: int) -> None:
    """Raise ValueError if :func:`matching_config_law` cannot take ``n``."""
    if not (isinstance(n, int) and 2 <= n <= CONFIG_LAW_CAP):
        raise ValueError(f"configuration law needs 2 <= n <= {CONFIG_LAW_CAP}")


def matching_config_law(n: int) -> ConfigLaw:
    """Exact law of the fixed-point indicator configuration of a uniform
    permutation.

    A binary configuration whose support has size s arises from exactly
    D_{n-s} permutations (derange the complement), so its mass is
    D_{n-s}/n!; the closed form extends the reach well past brute-force
    enumeration of permutations.
    """
    check_config(n)
    d = derangement_numbers(n)
    n_fact = math.factorial(n)
    assert sum(math.comb(n, s) * d[n - s] for s in range(n + 1)) == n_fact
    by_size = [d[n - s] / n_fact for s in range(n + 1)]
    mass = {}
    for cfg in itertools.product((0, 1), repeat=n):
        mass[cfg] = by_size[sum(cfg)]
    return ConfigLaw(index_size=n, mass=mass)


def product_poisson_config_law(p, index_size: int | None = None) -> ConfigLaw:
    """Independent Poisson coordinates restricted to binary configurations.

    ``mass[cfg] = prod_i P(Poi(p_i) = cfg_i)``; the exactly aggregated
    non-binary mass ``1 - prod_i e^{-p_i}(1 + p_i)`` is stored as tail.
    """
    rates = [float(x) for x in p]
    if index_size is not None and index_size != len(rates):
        raise ValueError("index_size must match len(p)")
    if not rates or any(x <= 0 for x in rates):
        raise ValueError("rates must be positive")
    n = len(rates)
    if n > CONFIG_LAW_CAP + 2:
        raise ValueError(f"configuration law capped at {CONFIG_LAW_CAP + 2} indices")
    zero_one = [(math.exp(-x), x * math.exp(-x)) for x in rates]
    mass = {}
    for cfg in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for bit, (p0, p1) in zip(cfg, zero_one):
            prob *= p1 if bit else p0
        mass[cfg] = prob
    covered = math.fsum(mass.values())
    return ConfigLaw(index_size=n, mass=mass, tail=max(0.0, 1.0 - covered))


def config_count_projection(law: ConfigLaw) -> Pmf:
    """Project a configuration law onto the total count; tail is inherited."""
    mass = np.zeros(law.index_size + 1)
    for cfg, prob in law.mass.items():
        mass[sum(cfg)] += prob
    return Pmf.from_mass(mass, tail=law.tail)


def process_tv(a: ConfigLaw, b: ConfigLaw) -> float:
    """Total variation between configuration laws over the binary cube.

    Tails are handled conservatively (added), so the value is exact whenever
    one side is tail-free and an upper bound otherwise.
    """
    if a.index_size != b.index_size:
        raise ValueError("index sets differ")
    return _sparse_tv(a, b)


def config_generator_apply(h, p, xi) -> float:
    """Immigration-death generator on configurations:

        sum_i p_i [h(xi + delta_i) - h(xi)] + sum_i x_i [h(xi - delta_i) - h(xi)]

    ``h`` maps count tuples to reals; births at site i run at rate p_i,
    deaths at unit rate per particle.  The product Poisson law of rates p is
    stationary for this dynamics, which the test suite checks by truncated
    exact summation.
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
