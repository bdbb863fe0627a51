"""Univariate Stein machinery for Poisson approximation.

This module is the numerical core shared by the exact laws, the bound
catalogue and the certification harness:

* ``Pmf`` -- a finite pmf table on ``{0, ..., support_max}`` with an explicit
  tail mass, so truncation error is carried through every computation instead
  of being silently dropped.  Exact finite laws carry ``tail == 0``.
* ``poisson_pmf`` -- Poisson reference laws truncated at ``TRUNCATION_EPS``,
  with certified tails.
* ``tv_distance`` -- total variation distance with conservative tail
  handling; the result is an upper bound, tight to within the summed tails.
* ``stein_apply`` / ``stein_inverse`` -- the characterizing operator of the
  Poisson law, ``f(j) -> lam*f(j+1) - j*f(j)``, and its pseudo-inverse on
  centered functions.
* ``pseudo_inverse_bounds`` -- the classical sup / first-difference bounds
  for the pseudo-inverse of ``[0, 1]``-valued test functions.
* ``stein_identity_oracle`` -- an exact-summation check of the
  exchangeable-pair identity on a fully enumerated problem instance.

Function tables ("FnTable" below) are plain 1-D float arrays; index ``j``
holds ``f(j)``.  Where an operator needs one slot past a pmf's support
(`f(W + 1)` must be defined) the table is simply one entry longer.

All operations are pure; ``Pmf`` instances are immutable and safe to share
across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pmf",
    "SteinParams",
    "EnumeratedPairMeasure",
    "poisson_pmf",
    "poisson_expectation",
    "tv_distance",
    "stein_apply",
    "stein_inverse",
    "pseudo_inverse_bounds",
    "stein_identity_oracle",
]

#: tolerance used when validating that mass + tail sums to one
MASS_TOL = 1e-12
#: every Poisson target is truncated at the smallest N whose upper tail is
#: at most this
TRUNCATION_EPS = 1e-12
_BAD_RATE = "lam must be a positive finite real"
#: the largest rate whose first Poisson mass exp(-lam) is a normal float;
#: past it that mass is subnormal (from ~745, zero) and too badly rounded
#: for the truncated law to be certified
MAX_LAM = -math.log(sys.float_info.min)


def _as_fn_table(values, name: str = "f", min_len: int = 1) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < min_len:
        raise ValueError(f"{name} must be a 1-D table with at least {min_len} entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain finite entries only")
    return arr


_NOT_FINITE = "mass must be finite"
_ENTRY_RANGE = "mass entries must lie in [0, 1]"
_TAIL_RANGE = "tail must lie in [0, 1]"


def _bad_sum(total: float) -> str:
    return f"mass + tail must sum to 1 (got {total:.17g})"


def _check_mass(values: list[float], tail) -> float:
    """The checks of a :class:`Pmf`, on its entries as Python floats; returns
    the tail as a float.

    One pass over the entries: a nan or inf entry makes the sum non-finite
    (or raises), and only then are entries inspected.
    """
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        total = math.inf
    if not math.isfinite(total) and not all(map(math.isfinite, values)):
        raise ValueError(_NOT_FINITE)
    if min(values) < 0.0 or max(values) > 1.0 + MASS_TOL:
        raise ValueError(_ENTRY_RANGE)
    tail = float(tail)
    if not (0.0 <= tail <= 1.0 + MASS_TOL):
        raise ValueError(_TAIL_RANGE)
    total += tail
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(_bad_sum(total))
    return tail


def _row_sums(table: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D table, after the entry rules of
    :func:`_check_mass` on the whole table (entries finite and in [0, 1], so
    no sum can leave the float range); zero padding adds nothing to a sum."""
    if not np.isfinite(table).all():
        raise ValueError(_NOT_FINITE)
    if table.min() < 0.0 or table.max() > 1.0 + MASS_TOL:
        raise ValueError(_ENTRY_RANGE)
    return np.array([math.fsum(row) for row in table.tolist()])


def _check_sums(totals: np.ndarray, tails: np.ndarray) -> None:
    """The tail and sum rules of :func:`_check_mass` on the rows of a table
    at once: ``totals`` from :func:`_row_sums`, ``tails`` the rows' tails."""
    if not ((0.0 <= tails) & (tails <= 1.0 + MASS_TOL)).all():  # also refuses nan
        raise ValueError(_TAIL_RANGE)
    sums = totals + tails
    off = np.abs(sums - 1.0) > MASS_TOL
    if off.any():
        raise ValueError(_bad_sum(sums[off.argmax()]))


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on ``{0, ..., support_max}`` plus tail mass.

    ``mass[j]`` is ``P(W = j)``; ``tail`` is the (certified) probability of
    ``W > support_max``.  The invariant ``sum(mass) + tail == 1`` is enforced
    to within ``MASS_TOL`` at construction, or once for a whole table of
    rows by :func:`_table_laws`.
    """

    mass: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.mass, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mass must be a nonempty 1-D array")
        tail = _check_mass(arr.tolist(), self.tail)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)
        object.__setattr__(self, "tail", tail)

    @property
    def support_max(self) -> int:
        return int(self.mass.size - 1)

    def prob(self, j: int) -> float:
        """P(W = j); zero beyond the stored support."""
        if 0 <= j <= self.support_max:
            return float(self.mass[j])
        return 0.0

    def mean(self) -> float:
        """Mean over the stored support (the tail contributes nothing)."""
        j = np.arange(self.mass.size)
        return float(np.dot(j, self.mass))

    def variance(self) -> float:
        j = np.arange(self.mass.size)
        m = float(np.dot(j, self.mass))
        return max(0.0, float(np.dot(j * j, self.mass)) - m * m)


def _table_laws(table: np.ndarray) -> list[Pmf]:
    """One tail-free ``Pmf`` per row of a 2-D float table, each a read-only
    view of it.  The table is checked once, as a ``Pmf`` checks its rows
    (:func:`_row_sums`, :func:`_check_sums`), and the rows skip
    ``Pmf.__post_init__``.  Nothing is clipped."""
    _check_sums(_row_sums(table), np.zeros(len(table)))
    table.flags.writeable = False
    laws = [object.__new__(Pmf) for _ in range(len(table))]
    for law, row in zip(laws, table):
        vars(law).update(mass=row, tail=0.0)
    return laws


@dataclass(frozen=True)
class SteinParams:
    """The rate of the Poisson reference law."""

    lam: float

    def __post_init__(self):
        _positive_rate(self.lam)


def _positive_rate(lam: float) -> float:
    """``lam``, refused unless in (0, inf): the package's one rate rule."""
    if not 0.0 < lam < math.inf:  # also refuses nan
        raise ValueError(_BAD_RATE)
    return lam


def check_rate(lam: float) -> None:
    """Raise ValueError unless ``lam`` lies in (0, ``MAX_LAM``], the rates
    whose target :func:`poisson_pmf` builds."""
    if _positive_rate(lam) > MAX_LAM:
        raise ValueError(f"lam={lam} too large: exp(-lam) underflows")


def _poisson_terms(lam: float) -> tuple[list[float], float]:
    """Poisson(lam) masses up to the smallest N whose upper tail is <=
    ``TRUNCATION_EPS``, and the exact remainder ``1 - sum(masses)``."""
    check_rate(lam)
    p = math.exp(-lam)
    terms = [p]
    cum = p
    k = 0
    while 1.0 - cum > TRUNCATION_EPS:
        k += 1
        p *= lam / k
        terms.append(p)
        cum += p
        if k > 100_000:
            raise RuntimeError("Poisson truncation failed to converge")
    return terms, max(0.0, 1.0 - math.fsum(terms))


def poisson_pmf(params: SteinParams) -> Pmf:
    """Poisson law truncated at the smallest N whose upper tail is <=
    ``TRUNCATION_EPS``.

    The ``tail`` field holds the exact remainder ``1 - sum(mass)``, so the
    returned Pmf is a certified representation of the full law.
    """
    terms, tail = _poisson_terms(params.lam)
    return Pmf(np.array(terms), tail)


def _abs_diff(a: np.ndarray, b: np.ndarray) -> list:
    """``|a - b|`` as Python floats, the narrower of ``a`` and ``b``
    zero-padded to the other's width: two vectors (a flat list), or two
    tables of matching rows (a list per row).  ``|a - b| == |b - a|`` and
    ``x - 0 == x`` in floating point, so the wider one is copied and the
    narrower one subtracted from its leading columns."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    diff = a.copy()
    diff[..., : b.shape[-1]] -= b
    return np.abs(diff, out=diff).tolist()


def _tv(abs_diff: list[float], p_tail: float, q_tail: float) -> float:
    """Half the l1 distance from the entries of ``|p - q|`` plus both tails, at most 1."""
    return min(1.0, 0.5 * (math.fsum(abs_diff) + p_tail + q_tail))


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance, half the l1 distance between the tables.

    Tail masses are counted in full (their overlap is unknown, at most
    ``p.tail + q.tail``), so the result is an upper bound on the true
    distance, tight to within ``p.tail + q.tail``.  Exact for tail-free laws.
    """
    return _tv(_abs_diff(p.mass, q.mass), p.tail, q.tail)


def _poisson_table(lams) -> tuple[np.ndarray, list[float]]:
    """The masses of ``poisson_pmf(SteinParams(lam))`` for each rate, as the
    rows of one table zero-padded to the longest, and their tails.

    Each rate gets :func:`check_rate`.  The rows are :func:`_poisson_terms`'
    loop (which the one-rate :func:`poisson_pmf` keeps: a single row is
    faster there) run as one column recurrence, each column the same float
    operations the loop does on each rate: ``p_0 = math.exp(-lam)`` (not
    ``np.exp``, whose rounding differs), then ``p_k = p_{k-1} * (lam / k)``
    and ``cum_k = cum_{k-1} + p_k`` until every row's ``1 - cum`` is at most
    ``TRUNCATION_EPS``.  A row ends at its own first such column, and
    entries past it are zero.  Each tail is ``1 - math.fsum(row)`` as in the
    loop, and the table is checked once as a ``Pmf`` checks its rows
    (:func:`_row_sums`, :func:`_check_sums`), never built as Pmfs.
    """
    rate = np.array(lams, dtype=float)
    bad = ~((rate > 0.0) & (rate <= MAX_LAM))  # check_rate's domain; nan is bad
    if bad.any():
        check_rate(lams[bad.argmax()])
    p = np.array([math.exp(-lam) for lam in lams])
    columns, cums = [p], [p]
    # 1 - cum is monotone in cum, so the least cum decides whether any row is open
    while 1.0 - cums[-1].min() > TRUNCATION_EPS:
        if len(columns) > 100_000:
            raise RuntimeError("Poisson truncation failed to converge")
        p = p * (rate / len(columns))
        columns.append(p)
        cums.append(cums[-1] + p)
    table = np.stack(columns, axis=1)
    # entry k belongs to the rows still open after entry k - 1
    table[:, 1:][1.0 - np.stack(cums[:-1], axis=1) <= TRUNCATION_EPS] = 0.0
    totals = _row_sums(table)
    tails = np.maximum(0.0, 1.0 - totals)
    _check_sums(totals, tails)
    return table, tails.tolist()


def _poisson_tvs(laws: list[Pmf], lams: list[float]) -> list[float]:
    """``tv_distance(law, poisson_pmf(SteinParams(lam)))`` of each of a
    nonempty list of laws of one support size and its rate, bit for bit.

    The targets fill one table (:func:`_poisson_table`, one column
    recurrence for all rates), and the distances are taken over the two
    tables at once.
    """
    targets, tails = _poisson_table(lams)
    rows = _abs_diff(np.array([law.mass for law in laws]), targets)
    return [_tv(row, law.tail, tail) for row, law, tail in zip(rows, laws, tails)]


def stein_apply(f, params: SteinParams) -> np.ndarray:
    """Apply the Poisson characterizing operator to a function table.

    Input ``f`` holds values at ``0..L``; the result holds
    ``lam * f(j+1) - j * f(j)`` for ``j = 0..L-1`` (one entry shorter: the
    final slot of ``f`` is consumed by the forward difference).
    """
    arr = _as_fn_table(f, "f", min_len=2)
    j = np.arange(arr.size - 1)
    return params.lam * arr[1:] - j * arr[:-1]


def _poisson_weights(lam: float, length: int) -> np.ndarray:
    w = np.empty(length)
    w[0] = math.exp(-lam)
    for k in range(1, length):
        w[k] = w[k - 1] * lam / k
    if w[-1] < 1e-280:
        raise ValueError(
            f"weight table underflows at index {length - 1} for lam={lam}; "
            "shorten the function table"
        )
    return w


def poisson_expectation(f, params: SteinParams) -> float:
    """Expectation of a table under the Poisson law conditioned to its support.

    ``f`` is treated as defined on ``{0, ..., len(f)-1}``; the reference
    weights are renormalized over that range, which keeps the centering
    constant used by :func:`stein_inverse` exactly consistent and differs
    from the untruncated expectation by at most ``2 * tail * max|f|``.
    """
    arr = _as_fn_table(f, "f")
    w = _poisson_weights(params.lam, arr.size)
    return math.fsum((w * arr).tolist()) / math.fsum(w.tolist())


def stein_inverse(f, params: SteinParams) -> np.ndarray:
    """Pseudo-inverse of the characterizing operator, with ``u(0) = 0``.

    Solves ``lam * u(j+1) - j * u(j) = f(j) - E_o f`` for ``j = 0..L-1``
    where ``L = len(f)``, returning ``u`` on ``0..L``.  Evaluation uses the
    forward recurrence ``u(j+1) = (j/lam) * u(j) + (f(j) - E_o f)/lam``
    regrouped in summed form ``u(j) = P_j / (j * w_j)`` with ``P_j`` the
    cumulative sum of ``w_k * (f(k) - E_o f)`` and ``w`` the Poisson weights.
    The regrouping is algebraically identical but keeps rounding additive
    instead of compounding it through the ``j/lam`` factors, and no factorial
    is ever formed, so long tables cannot overflow.
    """
    arr = _as_fn_table(f, "f")
    lam = params.lam
    size = arr.size
    w = _poisson_weights(lam, size + 1)
    e_f = math.fsum((w[:size] * arr).tolist()) / math.fsum(w[:size].tolist())
    partial = np.concatenate(([0.0], np.cumsum(w[:size] * (arr - e_f))))
    u = np.zeros(size + 1)
    j = np.arange(1, size + 1)
    u[1:] = partial[1:] / (j * w[1:])
    return u


def pseudo_inverse_bounds(params: SteinParams) -> tuple[float, float]:
    """Sup and first-difference bounds for the pseudo-inverse.

    For every ``f`` with ``0 <= f <= 1``: ``|u(j)| <= min(1, 1.4/sqrt(lam))``
    and ``|u(j+1) - u(j)| <= (1 - exp(-lam))/lam``.
    """
    lam = params.lam
    sup_bound = min(1.0, 1.4 / math.sqrt(lam))
    diff_bound = -math.expm1(-lam) / lam
    return sup_bound, diff_bound


@dataclass(frozen=True)
class EnumeratedPairMeasure:
    """A fully enumerated exchangeable-pair instance.

    ``probs[i]`` is the stationary probability of state ``i``, ``w[i]`` its
    statistic value, and ``q_up[i]`` / ``q_down[i]`` the exact one-step
    conditional probabilities of the statistic moving to ``w[i] +- 1``.
    """

    probs: np.ndarray
    w: np.ndarray
    q_up: np.ndarray
    q_down: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=float)
        w = np.ascontiguousarray(self.w, dtype=np.int64)
        q_up = np.ascontiguousarray(self.q_up, dtype=float)
        q_down = np.ascontiguousarray(self.q_down, dtype=float)
        if not (probs.size == w.size == q_up.size == q_down.size > 0):
            raise ValueError("all arrays must share a common nonzero length")
        if abs(math.fsum(probs.tolist()) - 1.0) > 1e-9:
            raise ValueError("state probabilities must sum to 1")
        if np.any(w < 0):
            raise ValueError("statistic values must be nonnegative integers")
        for name, arr in (("probs", probs), ("q_up", q_up), ("q_down", q_down)):
            if np.any(arr < -1e-15) or np.any(arr > 1 + 1e-12):
                raise ValueError(f"{name} entries must be probabilities")
        for arr in (probs, w, q_up, q_down):
            arr.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q_up", q_up)
        object.__setattr__(self, "q_down", q_down)

    @property
    def lam(self) -> float:
        """Exact mean of the statistic under the stationary law."""
        return math.fsum((self.probs * self.w).tolist())


def stein_identity_oracle(
    measure: EnumeratedPairMeasure,
    c: float,
    g,
) -> tuple[float, float]:
    """Exact-summation check of the exchangeable-pair error identity.

    For a fully enumerated instance, both sides of

        E g(W) - E_o g  ==  E[ lam*u(W+1) - W*u(W)
                               - c*u(W+1)*Q(W'=W+1|state)
                               + c*u(W)*Q(W'=W-1|state) ]

    are computed by exact summation over the state space, with ``u`` the
    pseudo-inverse table of ``g`` and ``lam`` the exact mean of the
    statistic.  The identity holds whenever the pair measure is exchangeable
    and the conditionals are exact, so agreement of ``lhs`` and ``rhs``
    certifies the whole pipeline at once.

    Returns ``(lhs, rhs)``.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError("c must be a positive real")
    g_arr = _as_fn_table(g, "g")
    lam = measure.lam
    params = SteinParams(lam)
    ref = poisson_pmf(params)
    w_max = int(measure.w.max())
    length = max(g_arr.size, ref.mass.size, w_max + 2)
    g_pad = np.zeros(length)
    g_pad[: g_arr.size] = g_arr
    u = stein_inverse(g_pad, params)
    e_g = poisson_expectation(g_pad, params)

    w = measure.w
    lhs = math.fsum((measure.probs * g_pad[w]).tolist()) - e_g
    op = lam * u[w + 1] - w * u[w]
    pair = c * (u[w + 1] * measure.q_up - u[w] * measure.q_down)
    rhs = math.fsum((measure.probs * (op - pair)).tolist())
    return lhs, rhs
