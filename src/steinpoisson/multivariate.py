"""Multivariate and configuration-level Poisson approximation.

Joint laws over integer vectors as dense tables, exchangeable laws on binary
configurations stored by the law of their size, their product Poisson
references with exactly accounted tails, the corresponding total variation
distances, and the worked multivariate bounds.  Closed forms in exact
integers (bivariate rook numbers, rencontres numbers) supply the ground
truth; the fixed-point configuration of process matching reaches
``MATCHING_CAP`` because its total variation is a univariate one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import CONVENTION_SET, BoundReport, _report
from .exact_laws import (
    MatchingSpec,
    _binomial_row,
    _completions,
    _divided_once,
    _hits_exactly,
    matching_pmf,
)
from .stein_core import Pmf, SteinParams, _positive_rate, _tv, poisson_pmf, tv_distance

__all__ = [
    "JointPmf",
    "ConfigLaw",
    "JOINT_CAP",
    "check_joint",
    "joint_fixed_point_succession_pmf",
    "product_poisson_joint",
    "joint_tv",
    "joint_marginal",
    "bound_fixed_point_succession",
    "matching_config_law",
    "product_poisson_config_law",
    "process_tv",
]

#: joint fixed-point/succession law up to this n (0.13 s at n=100, 1.2 s at n=200; 2-vCPU)
JOINT_CAP = 100


@dataclass(frozen=True)
class JointPmf:
    """Dense pmf table over a box of N^dim, ``dim = mass.ndim``, with residual
    tail mass; ``mass[x_1, ..., x_dim]`` is the probability of that vector."""

    mass: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.mass, dtype=float)
        if arr.ndim < 1:
            raise ValueError("dim must be >= 1")
        tail = Pmf(arr.ravel(), self.tail).tail  # entries, tail and total as for one axis
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)
        object.__setattr__(self, "tail", tail)

    @property
    def dim(self) -> int:
        return self.mass.ndim


@dataclass(frozen=True)
class ConfigLaw:
    """Exchangeable law on the binary configurations {0,1}^index_size, stored
    as the law of the configuration's size.

    Exchangeability gives every configuration of size s the same mass,
    ``size.mass[s] / C(index_size, s)``.  Laws on the cube have
    ``size.tail == 0``; a product-Poisson reference restricted to binary
    configurations stores its exactly aggregated non-binary mass there.
    """

    index_size: int
    size: Pmf

    def __post_init__(self):
        if self.size.support_max > self.index_size:
            raise ValueError("configuration sizes cannot exceed index_size")


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
    The table is ``counts / n!``, one correctly rounded division per entry.
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
    counts = np.array(_hits_exactly(at_least))  # along j1, rows as entries
    counts = np.array(_hits_exactly(counts.T)).T  # along j2
    return JointPmf(_divided_once(counts.ravel(), math.factorial(n)).reshape(counts.shape))


def _positive_rates(lambdas) -> list[float]:
    """The coordinate rates as floats, refused unless nonempty and each in
    (0, inf)."""
    rates = [_positive_rate(float(l)) for l in lambdas]
    if not rates:
        raise ValueError("need at least one rate")
    return rates


def product_poisson_joint(lambdas) -> JointPmf:
    """Product of truncated Poisson laws on a box, exact residual tail.

    The table is the outer product of the coordinate tables.  Per-coordinate
    truncation at ``TRUNCATION_EPS`` makes the total tail at most
    ``dim * TRUNCATION_EPS`` (union bound); the stored tail is the exact
    residual ``1 - prod(coordinate masses)``.
    """
    rates = _positive_rates(lambdas)
    coords = [poisson_pmf(SteinParams(l)) for l in rates]
    mass = functools.reduce(np.multiply.outer, [c.mass for c in coords])
    covered = math.prod(math.fsum(c.mass.tolist()) for c in coords)
    return JointPmf(mass, tail=max(0.0, 1.0 - covered))


def joint_tv(p: JointPmf, q: JointPmf) -> float:
    """Total variation between tables zero-padded to a common box, tails
    added conservatively as in :func:`tv_distance`."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    shape = np.maximum(p.mass.shape, q.mass.shape)
    a, b = (np.pad(x.mass, [(0, s - k) for s, k in zip(shape, x.mass.shape)]) for x in (p, q))
    return _tv(np.abs(a - b).ravel().tolist(), p.tail, q.tail)


def joint_marginal(p: JointPmf, axis: int) -> Pmf:
    """Project a joint law onto one coordinate; the joint tail is inherited."""
    if not (0 <= axis < p.dim):
        raise ValueError("axis out of range")
    others = tuple(i for i in range(p.dim) if i != axis)
    return Pmf(p.mass.sum(axis=others), tail=p.tail)


def bound_fixed_point_succession(n: int) -> BoundReport:
    """13/n for the joint law of fixed points and cyclic successions against
    independent unit-rate Poisson coordinates."""
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("joint fixed-point/succession bound needs n >= 3")
    return _report("joint_fixed_point_succession", 1.0, 13.0 / n, CONVENTION_SET, n=n, dim=2)


# ---------------------------------------------------------------------------
# configuration laws
# ---------------------------------------------------------------------------


def matching_config_law(n: int) -> ConfigLaw:
    """Exact law of the fixed-point indicator configuration of a uniform
    permutation (n <= MATCHING_CAP).

    A configuration whose support has size s arises from exactly D_{n-s}
    permutations (derange the complement), whatever the support, so the law
    is exchangeable and its size law is the rencontres law of the number of
    fixed points.
    """
    return ConfigLaw(n, matching_pmf(MatchingSpec(n)))


def product_poisson_config_law(p) -> ConfigLaw:
    """Independent Poisson(x) coordinates, all of one rate x, restricted to
    binary configurations.

    The size law is ``C(n, s) p0^{n-s} p1^s`` with ``p0 = e^{-x}`` and
    ``p1 = x e^{-x}``; the exactly aggregated non-binary mass ``1 - sum`` is
    stored as tail.  Unequal rates give a law that is not exchangeable, with
    no by-size form, and are rejected.
    """
    rates = _positive_rates(p)
    if any(x != rates[0] for x in rates):
        raise ValueError("a configuration law by size needs equal rates")
    n, x = len(rates), rates[0]
    p0, p1 = math.exp(-x), x * math.exp(-x)
    try:
        size = [c * (p0 ** (n - s) * p1**s) for s, c in enumerate(_binomial_row(n))]
    except OverflowError:
        raise ValueError(f"C({n}, s) overflows a double") from None
    return ConfigLaw(n, Pmf(np.array(size), tail=max(0.0, 1.0 - math.fsum(size))))


def process_tv(a: ConfigLaw, b: ConfigLaw) -> float:
    """Total variation between configuration laws over the binary cube.

    Both laws are uniform within each size class, so the distance over the
    cube equals the distance between the size laws.  Tails are added
    conservatively, so the value is exact whenever one side is tail-free.
    """
    if a.index_size != b.index_size:
        raise ValueError("index sets differ")
    return tv_distance(a.size, b.size)
