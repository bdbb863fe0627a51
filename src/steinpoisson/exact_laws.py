"""Exact reference distributions and moments for the combinatorial problems.

Every law here is ground truth.  Inclusion-exclusion, rencontres and rook
polynomials give exact integer counts; the counts are checked to sum to the
exact total and each is divided by it once, a correctly rounded int/int
division, so every probability is the double nearest the exact rational.
Sparse empty-box instances too large for exact integers take the same
inclusion-exclusion truncated after its first terms, in ``decimal`` arithmetic
with a rigorous truncation and rounding certificate.
The additive occupancy and coloring statistics share one allocation engine:
a group of cells holds, for every item count m, the law of its statistic
given m items; two groups join by splitting the items binomially between
them, and binary powering over the bits of the cell count needs O(log cells)
joins, all with nonnegative weights.  The laws of a sweep share one plan of
group tables (:class:`AllocationTables`), each built once.
Brute-force enumeration oracles live in the test suite, not here; these
functions are the quantities they certify.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .stein_core import Pmf

__all__ = [
    "MatchingSpec",
    "MatchingMoments",
    "OccupancySpec",
    "OccupancyMoments",
    "ColoringSpec",
    "CouponDiagnostics",
    "AllocationTables",
    "derangement_numbers",
    "poisson_binomial_pmf",
    "matching_pmf",
    "matching_moments",
    "occupancy_pmf",
    "occupancy_moments",
    "coloring_pmf",
    "coupon_collector_diagnostics",
    "check_matching",
    "check_occupancy",
    "check_coloring",
]

#: matching laws (plain and multiset letters) are computed up to this many letters
MATCHING_CAP = 500
#: feasibility cap for the allocation engine, counted as cells * items *
#: statistic states (the size of a cell-by-cell table, not the engine's work)
DP_STATE_CAP = 100_000_000
#: exact-integer empty-box path: max boxes and max digits of n^k
EMPTY_EXACT_BOX_CAP = 400
EMPTY_EXACT_DIGIT_CAP = 20_000
#: the certified empty-box path (truncated inclusion-exclusion in decimal)
#: requires n*exp(-k/n) at most this, which keeps it under 400 terms of at
#: most ~85 digits
EMPTY_CERTIFIED_RATIO_CAP = 50.0

#: contribution ``f(c, level)`` of a box holding ``c`` balls to each additive
#: occupancy statistic, elementwise over count arrays (indicators stay boolean,
#: so count matrices are never widened); the allocation engine and the pair
#: models both read it
BOX_STATISTICS = {
    "pairs": lambda c, level: c >= 2,
    "triples": lambda c, level: c * (c - 1) * (c - 2) // 6,
    "empty": lambda c, level: c == 0,
    "exact_level": lambda c, level: c == level,
    "pair_count": lambda c, level: c * (c - 1) // 2,
}
OCCUPANCY_STATISTICS = tuple(BOX_STATISTICS)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchingSpec:
    """Fixed points of a uniform permutation of ``n`` letters.

    With ``multiplicities`` absent the letters are distinct (plain matching);
    otherwise letter ``i`` occurs ``multiplicities[i]`` times and the entries
    must sum to ``n``.
    """

    n: int
    multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if self.multiplicities is not None:
            mult = tuple(int(l) for l in self.multiplicities)
            if any(l < 1 for l in mult):
                raise ValueError("multiplicities must be positive integers")
            if sum(mult) != self.n:
                raise ValueError("multiplicities must sum to n")
            object.__setattr__(self, "multiplicities", mult)

    @property
    def is_plain(self) -> bool:
        return self.multiplicities is None or all(l == 1 for l in self.multiplicities)

    def word(self) -> tuple[int, ...]:
        """Letter ids by slot, e.g. multiplicities (2, 2) -> (0, 0, 1, 1)."""
        if self.multiplicities is None:
            return tuple(range(self.n))
        out: list[int] = []
        for i, l in enumerate(self.multiplicities):
            out.extend([i] * l)
        return tuple(out)


@dataclass(frozen=True)
class OccupancySpec:
    """Balls-in-boxes experiment and the statistic whose law is requested.

    statistic:
      * ``"pairs"``      -- number of boxes holding at least two balls
      * ``"triples"``    -- number of ball triples sharing a box
      * ``"empty"``      -- number of empty boxes
      * ``"exact_level"``-- number of boxes holding exactly ``level`` balls
      * ``"pair_count"`` -- number of ball pairs sharing a box
    """

    n_boxes: int
    k_balls: int
    statistic: str
    level: int | None = None

    def __post_init__(self):
        if not (isinstance(self.n_boxes, int) and self.n_boxes >= 1):
            raise ValueError("n_boxes must be a positive integer")
        if not (isinstance(self.k_balls, int) and self.k_balls >= 0):
            raise ValueError("k_balls must be a nonnegative integer")
        if self.statistic not in OCCUPANCY_STATISTICS:
            raise ValueError(f"statistic must be one of {OCCUPANCY_STATISTICS}")
        if self.statistic == "exact_level":
            if self.level is None or self.level < 0:
                raise ValueError("exact_level requires a nonnegative level")
        elif self.level is not None:
            raise ValueError("level is only meaningful for exact_level")


@dataclass(frozen=True)
class ColoringSpec:
    """Uniform independent coloring of ``n_points`` with ``n_colors`` colors;
    the statistic is the number of monochromatic ``tuple_size``-subsets."""

    n_points: int
    tuple_size: int
    n_colors: int

    def __post_init__(self):
        if not (isinstance(self.n_points, int) and self.n_points >= 1):
            raise ValueError("n_points must be a positive integer")
        if not (isinstance(self.tuple_size, int) and 2 <= self.tuple_size <= self.n_points):
            raise ValueError("tuple_size must satisfy 2 <= k <= n_points")
        if not (isinstance(self.n_colors, int) and self.n_colors >= 1):
            raise ValueError("n_colors must be a positive integer")


# ---------------------------------------------------------------------------
# permutations and derangements
# ---------------------------------------------------------------------------


def derangement_numbers(n: int) -> list[int]:
    """D_0..D_n with D_m = (m-1)(D_{m-1} + D_{m-2}), D_0 = 1, D_1 = 0."""
    d = [1, 0]
    for m in range(2, n + 1):
        d.append((m - 1) * (d[m - 1] + d[m - 2]))
    return d[: n + 1]


def _hits_exactly(at_least, axis: int = 0) -> np.ndarray:
    """Inclusion-exclusion from "at least these hits" to "exactly m hits".

    ``E_m = sum_j (-1)^(j-m) C(j, m) N_j`` along ``axis`` of an exact-integer
    array: the Taylor shift ``E(x) = N(x - 1)`` of the generating polynomials,
    taken as ``N(-x)`` shifted by +1, one suffix sum per coefficient.
    """
    counts = np.moveaxis(np.array(at_least, dtype=object), axis, 0)
    counts[1::2] = -counts[1::2]
    for i in range(len(counts) - 1):
        counts[i:] = np.cumsum(counts[i:][::-1], axis=0)[::-1]
    counts[1::2] = -counts[1::2]
    return np.moveaxis(counts, 0, axis)


def _binomial_row(n: int) -> list[int]:
    """``C(n, j)`` for ``j = 0..n`` by a running product, one exact division each."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def _divided_once(counts, total: int) -> np.ndarray:
    """``count / total`` for exact-integer counts that must sum to ``total``.

    Python's int/int true division rounds the exact rational once, so each
    value is the double nearest ``count / total``, with no gcd normalization.
    """
    assert sum(counts) == total
    return np.array([c / total for c in counts])


def _completions(n: int) -> np.ndarray:
    """``(n - j)!`` for ``j = 0..n``: the permutations extending a j-rook placement."""
    return np.array([math.factorial(n - j) for j in range(n + 1)], dtype=object)


# ---------------------------------------------------------------------------
# Poisson-binomial
# ---------------------------------------------------------------------------


def poisson_binomial_pmf(p) -> Pmf | list[Pmf]:
    """Exact law of a sum of independent indicators via one-pass convolution.

    ``p`` is one vector (returns its ``Pmf``) or a matrix whose rows are
    vectors of one length (returns one ``Pmf`` per row, each a view of one
    table, see :meth:`Pmf.rows_from_mass`).  Both run the same
    DP over the columns, all rows at once, updated in place:

        mass[1 : i + 2] = mass[1 : i + 2] * (1 - p_i) + mass[: i + 1] * p_i
        mass[0] *= 1 - p_i

    Each row sees exactly the operations of its own one-vector call, so a
    row's law is bit-identical to the law of that vector alone.
    """
    probs = np.ascontiguousarray(p, dtype=float)
    if probs.ndim not in (1, 2) or probs.size == 0:
        raise ValueError("p must be a nonempty 1-D sequence or a matrix of such rows")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("each success probability must lie in [0, 1]")
    rows = probs.reshape(-1, probs.shape[-1])
    succ = rows.T[:, :, None]
    fail = 1.0 - succ
    mass = np.zeros((rows.shape[0], rows.shape[1] + 1))
    mass[:, 0] = 1.0
    for i in range(rows.shape[1]):
        mass[:, 1 : i + 2] = mass[:, 1 : i + 2] * fail[i] + mass[:, : i + 1] * succ[i]
        mass[:, 0] *= fail[i, :, 0]
    laws = Pmf.rows_from_mass(mass)
    return laws[0] if probs.ndim == 1 else laws


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def check_matching(spec: MatchingSpec) -> None:
    """Raise ValueError if :func:`matching_pmf` cannot take ``spec``."""
    if spec.n > MATCHING_CAP:
        raise ValueError(f"matching capped at n={MATCHING_CAP} (requested n={spec.n})")


def matching_pmf(spec: MatchingSpec) -> Pmf:
    """Exact law ``count_m / n!`` of the number of fixed points, where ``count_m``
    labeled permutations have m matches (n <= MATCHING_CAP).

    Plain letters: rencontres, ``count_m = C(n, m) D_{n-m}``.  Multisets: the
    match cells form a block-diagonal board of ``l x l`` blocks, with rook
    polynomial ``r(x) = prod_i sum_j C(l_i, j)^2 j! x^j``; ``r_j (n-j)!`` counts
    permutations with at least j matches, by inclusion-exclusion.
    """
    check_matching(spec)
    n = spec.n
    if spec.is_plain:
        d = derangement_numbers(n)
        counts = [c * d[n - m] for m, c in enumerate(_binomial_row(n))]
    else:
        rook = np.ones(1, dtype=object)
        for l in spec.multiplicities:
            block = [math.comb(l, j) ** 2 * math.factorial(j) for j in range(l + 1)]
            rook = np.convolve(rook, np.array(block, dtype=object))
        counts = _hits_exactly(rook * _completions(n))
    return Pmf(_divided_once(counts, math.factorial(n)))


@dataclass(frozen=True)
class MatchingMoments:
    """Closed-form moments of the fixed-point statistic.

    ``e2a2`` (twice the expected number of 2-cycles) is only defined for the
    plain problem; the per-letter tables follow the multiplicity order.
    """

    lam: float
    ew2: float
    e2a2: float | None
    ewi: tuple[float, ...]
    ewi2: tuple[float, ...]
    ewij_wji: np.ndarray
    cross_term: float


def matching_moments(spec: MatchingSpec) -> MatchingMoments:
    n = spec.n
    if n < 2:
        raise ValueError("moments require n >= 2")
    mult = spec.multiplicities if spec.multiplicities is not None else (1,) * n
    l = np.array(mult, dtype=float)
    lam = float(np.sum(l**2) / n)
    ewi = l**2 / n
    ewi2 = l**2 * (n + l**2 - 2 * l) / (n * (n - 1))
    cross = np.outer(l**2, l**2) / (n * (n - 1))
    np.fill_diagonal(cross, 0.0)
    cross_term = float(cross.sum())
    ew2 = cross_term + float(ewi2.sum())
    e2a2 = 1.0 if spec.is_plain else None
    cross.flags.writeable = False
    return MatchingMoments(
        lam=lam,
        ew2=ew2,
        e2a2=e2a2,
        ewi=tuple(ewi),
        ewi2=tuple(ewi2),
        ewij_wji=cross,
        cross_term=cross_term,
    )


# ---------------------------------------------------------------------------
# occupancy laws
# ---------------------------------------------------------------------------


def _stat_support_max(spec: OccupancySpec) -> int:
    n, k = spec.n_boxes, spec.k_balls
    if spec.statistic == "pairs":
        return min(n, k // 2)
    if spec.statistic == "triples":
        return math.comb(k, 3)
    if spec.statistic == "pair_count":
        return math.comb(k, 2)
    if spec.statistic == "exact_level":
        return n if spec.level == 0 else min(n, k // spec.level)
    return n  # empty


def _split_weights(share: float, top: int):
    """Rows ``m = 0..top`` of the split law Binomial(m, share), ``share >= 1/2``.

    Pascal's rule in mass-conserving form: each entry sends ``fl(share * w)``
    one place up and keeps ``w - fl(share * w)``, a difference that is exact
    for ``share >= 1/2``, so the only rounding is where two portions meet.
    Each row is divided by its sum, so that rounding drift is not carried from
    one row to the next.
    """
    row = np.ones(1)
    yield 0, row
    for m in range(1, top + 1):
        moved = row * share
        nxt = np.empty(m + 1)
        np.subtract(row, moved, out=nxt[:-1])
        nxt[-1] = 0.0
        nxt[1:] += moved
        row = nxt / np.add.reduce(nxt)
        yield m, row


def _split_law(share: float, m: int) -> np.ndarray:
    """Row ``m`` alone of the split law: term ratios multiplied outwards from
    the mode, then divided by their sum."""
    mode = min(m, int((m + 1) * share))
    odds = share / (1.0 - share)
    row = np.empty(m + 1)
    row[mode] = 1.0
    i = np.arange(mode, m, dtype=float)
    row[mode + 1 :] = np.cumprod((m - i) / (i + 1.0) * odds)
    i = np.arange(mode, 0, -1, dtype=float)
    row[:mode] = np.cumprod(i / (m - i + 1.0) / odds)[::-1]
    return row / row.sum()


# A cell-group table holds, for m = 0..items, the law of the group's statistic
# given that m of the items fall in the group.  It is either dense, a
# (statistic x items) array, or ragged, (lo, rows): row m holds the
# probabilities of the statistic values lo[m], lo[m] + 1, ..., trimmed to the
# values it reaches.


def _lengths(table) -> np.ndarray:
    """Length of every row from its first to its last reached value."""
    if isinstance(table, np.ndarray):
        reached = table != 0.0
        return table.shape[0] - reached.argmax(axis=0) - reached[::-1].argmax(axis=0)
    return np.fromiter(map(len, table[1]), np.int64, len(table[1]))


def _width(table) -> int:
    """Number of statistic values up to the largest one any row reaches."""
    if isinstance(table, np.ndarray):
        return table.shape[0]
    return int((table[0] + _lengths(table)).max())


def _dense(table) -> np.ndarray:
    """The table as a (statistic x items) array."""
    if isinstance(table, np.ndarray):
        return table
    lo, rows = table
    lens = _lengths(table)
    ends = np.cumsum(lens)
    offset = np.arange(ends[-1]) - np.repeat(ends - lens, lens)
    out = np.zeros((int((lo + lens).max()), len(rows)))
    out[np.repeat(lo, lens) + offset, np.repeat(np.arange(len(rows)), lens)] = np.concatenate(rows)
    return out


def _ragged(table):
    """The table as (lo, rows), each row trimmed to the values it reaches."""
    if not isinstance(table, np.ndarray):
        return table
    reached = table != 0.0
    lo = reached.argmax(axis=0)
    hi = table.shape[0] - reached[::-1].argmax(axis=0)
    by_row = np.ascontiguousarray(table.T)
    return lo, [row[a:b] for row, a, b in zip(by_row, lo.tolist(), hi.tolist())]


def _join_dense(a: np.ndarray, b: np.ndarray, splits) -> np.ndarray:
    """Row m is ``sum_{s+t=u} g[s, t]`` with ``g = (a_{.,<=m} * w) b_rev^T``:
    one matrix product over the splits for every row."""
    top = a.shape[1] - 1
    wa, wb = a.shape[0], b.shape[0]
    diagonal = np.add.outer(np.arange(wa), np.arange(wb)).ravel()
    b_rev = np.ascontiguousarray(b[:, ::-1])  # column top - m + i holds b's column m - i
    out = np.zeros((wa + wb - 1, top + 1))
    for m, w in splits:
        g = (a[:, : m + 1] * w) @ b_rev[:, top - m :].T
        out[:, m] = np.bincount(diagonal, g.ravel(), wa + wb - 1)
    return out[: np.flatnonzero(out.any(axis=1))[-1] + 1]


def _join_ragged(a, b, splits, square: bool):
    """Row m is ``sum_i w_i conv(a_i, b_{m-i})``, one 1-D convolution per
    split; a squaring folds the mirror splits i and m - i into one term."""
    lo_a, rows_a = a
    lo_b, rows_b = b
    top = len(rows_a) - 1
    hi_a = lo_a + _lengths(a)
    hi_b = lo_b + _lengths(b)
    lo_c = np.zeros(top + 1, np.int64)
    rows_c = [None] * (top + 1)
    for m, w in splits:
        starts = lo_a[: m + 1] + lo_b[m::-1]
        base = int(starts.min())
        out = np.zeros(int((hi_a[: m + 1] + hi_b[m::-1]).max()) - base - 1)
        weights = w[: m // 2 + 1] * 2.0 if square else w
        if square and m % 2 == 0:
            weights[-1] = w[m // 2]
        for i, (wi, start) in enumerate(zip(weights.tolist(), (starts - base).tolist())):
            if wi == 0.0:
                continue
            row_a, row_b = rows_a[i], rows_b[m - i]
            if row_b.size == 1:  # a point mass shifts row_a
                out[start : start + row_a.size] += (wi * row_b[0]) * row_a
            else:
                seg = np.convolve(row_a, row_b)
                out[start : start + seg.size] += wi * seg
        nz = np.flatnonzero(out)
        lo_c[m] = base + nz[0]
        rows_c[m] = out[nz[0] : nz[-1] + 1]
    return lo_c, rows_c


#: cost of one NumPy call in multiply-adds, for choosing a join's kernel
_CALL_COST = 2000


def _dense_is_cheaper(len_a, len_b, width: int, square: bool, last: bool) -> bool:
    """Compare a join's estimated work on dense tables (one call and
    ``(m + 1) * width`` multiply-adds per row, ``width`` the product of the
    two table widths) with its work on trimmed rows (one convolution per
    split, of the two rows' lengths)."""
    top = len(len_a) - 1
    if last:
        rows, split_count, products = 1, top + 1, int(len_a @ len_b[::-1])
    else:
        rows, split_count = top + 1, (top + 1) * (top + 2) // 2
        products = int(np.convolve(len_a, len_b)[: top + 1].sum())
    convolutions = split_count // 2 + rows if square else split_count
    if square:
        products //= 2
    dense = _CALL_COST * rows + split_count * width
    return dense <= _CALL_COST * convolutions + products


def _sources(size: int) -> list[int]:
    """Group sizes the binary-powering join into ``size`` cells reads: its half
    (a squaring), or one cell fewer and one cell."""
    return [size // 2] if size % 2 == 0 else [size - 1, 1]


def _top_rows(table, top: int):
    """Rows ``0..top`` of a table, in its own form (dense: trimmed to the
    statistic values those rows reach)."""
    if isinstance(table, np.ndarray):
        if table.shape[1] == top + 1:
            return table
        part = table[:, : top + 1]
        return part[: np.flatnonzero(part.any(axis=1))[-1] + 1]
    lo, rows = table
    return table if len(rows) == top + 1 else (lo[: top + 1], rows[: top + 1])


def _row_mass(table, m: int) -> np.ndarray:
    """Row ``m`` of a table as a new mass vector from statistic value 0."""
    if isinstance(table, np.ndarray):
        col = table[:, m]
        return col[: np.flatnonzero(col)[-1] + 1].copy()
    lo, rows = table
    mass = np.zeros(int(lo[m]) + rows[m].size)
    mass[int(lo[m]) :] = rows[m]
    return mass


def _engine_point(spec):
    """``(statistic key, cells, items, cell value)`` of an engine law."""
    if isinstance(spec, ColoringSpec):
        k = spec.tuple_size
        return ("coloring", k), spec.n_colors, spec.n_points, lambda m: math.comb(m, k)
    if spec.statistic == "empty":
        raise ValueError("the empty-box law has a closed form, not an engine plan")
    box = BOX_STATISTICS[spec.statistic]
    return (spec.statistic, spec.level), spec.n_boxes, spec.k_balls, lambda c: box(c, spec.level)


class AllocationTables:
    """The allocation engine, planned over the laws of a list of specs.

    A group of cells has a table whose row m is the law of the group's
    statistic given that m of the items fall in it; for one cell, row m is
    the point mass at the cell's value.  Two groups of a and b cells join by
    splitting m items Binomial(m, a/(a+b)) between them (Barbour, Holst &
    Janson, *Poisson Approximation*, ch. 6, conditioning on the total):
    row m of the join is ``sum_i P(i | m) conv(A_i, B_{m-i})``.  Binary
    powering over the bits of the cell count (square, then add one cell for
    each set bit) reaches it in O(log cells) joins.  Row 0 is an exact point
    mass at every size, and all weights are nonnegative.

    Row m depends on the statistic, the group size and m, not on the spec,
    so the specs share tables: each group size on any spec's chain is built
    once per statistic, with rows up to the most items of the specs whose
    chains pass through it.  A spec whose cell count is an inner group of
    some chain reads its row from that table; any other forms only its own
    row, in a last join.  A table is built when a law first needs it and
    dropped after its last reader (a join or a law), so a one-spec plan
    holds what one chain does: the one-cell table, the predecessor and the
    join's output.  :meth:`law` gives a spec's law once per listing.

    Each join runs on whichever kernel the row lengths it sees make cheaper:
    dense tables with one matrix product per row (short rows, many items),
    or one 1-D convolution per split of the trimmed rows (long rows).  A
    table keeps the form its join produced.
    """

    def __init__(self, specs):
        self._values = {}  # statistic key -> value of one cell holding c items
        self._readers = Counter()  # (key, size) -> joins and laws still to read it
        self._laws = Counter()  # (key, cells, items) -> laws still to give
        self._live = {}  # (key, size) -> built table
        chains = []
        for spec in specs:
            key, cells, items, value = _engine_point(spec)
            self._values.setdefault(key, value)
            self._laws[key, cells, items] += 1
            chain = [cells]
            while chain[-1] > 1:
                chain.append(_sources(chain[-1])[0])
            chains.append((key, items, chain))
        # (key, size) of each table -> the last row it needs
        self._top = {(key, size): 0 for key, _, chain in chains for size in chain[1:] + [1]}
        for key, items, chain in chains:
            for size in chain:
                if (key, size) in self._top:
                    self._top[key, size] = max(self._top[key, size], items)
            final = [chain[0]] if (key, chain[0]) in self._top else _sources(chain[0])
            self._readers.update((key, size) for size in final)
        for key, size in self._top:
            if size > 1:
                self._readers.update((key, source) for source in _sources(size))

    def law(self, spec) -> Pmf:
        """The law of ``spec``, which the plan must still list."""
        key, cells, items, _ = _engine_point(spec)
        if not self._laws[key, cells, items]:
            raise ValueError(f"{spec} is not, or no longer, in this plan")
        self._laws[key, cells, items] -= 1
        if (key, cells) not in self._top:
            return Pmf.from_mass(_row_mass(self._join(key, cells, items), items))
        mass = _row_mass(self._table(key, cells), items)
        self._release(key, [cells])
        return Pmf.from_mass(mass)

    def _table(self, key, size: int):
        if (key, size) not in self._live:
            if size == 1:
                values = [int(self._values[key](c)) for c in range(self._top[key, 1] + 1)]
                table = (np.array(values, np.int64), [np.ones(1)] * len(values))
            else:
                table = self._join(key, size)
            self._live[key, size] = table
        return self._live[key, size]

    def _release(self, key, sizes) -> None:
        for size in sizes:
            self._readers[key, size] -= 1
            if not self._readers[key, size]:
                del self._live[key, size]

    def _join(self, key, size: int, last: int | None = None):
        """The table of ``size`` cells from its sources: every row up to its
        plan's top, or with ``last`` only row ``last`` (the others empty)."""
        sources = _sources(size)
        square = len(sources) == 1
        top = self._top[key, size] if last is None else last
        a = _top_rows(self._table(key, sources[0]), top)
        b = a if square else _top_rows(self._table(key, 1), top)
        share = 0.5 if square else sources[0] / size
        splits = _split_weights(share, top) if last is None else [(top, _split_law(share, top))]
        len_a, width_a = _lengths(a), _width(a)
        len_b, width_b = (len_a, width_a) if square else (_lengths(b), _width(b))
        if _dense_is_cheaper(len_a, len_b, width_a * width_b, square, last is not None):
            a = _dense(a)
            table = _join_dense(a, a if square else _dense(b), splits)
        else:
            a = _ragged(a)
            table = _join_ragged(a, a if square else b, splits, square)
        self._release(key, sources)
        return table


def _empty_boxes_counts(n: int, k: int) -> np.ndarray:
    """Allocations of k labelled balls to n boxes with exactly w empty boxes,
    w = 0..n, as exact integers summing to ``n**k``.

    ``C(n, j) (n - j)^k`` allocations leave a chosen set of j boxes empty,
    summed over the sets; inclusion-exclusion turns these "at least j empty"
    counts into exact ones.
    """
    return _hits_exactly([c * (n - j) ** k for j, c in enumerate(_binomial_row(n))])


def _empty_exact_fits(n: int, k: int) -> bool:
    """Whether the exact-integer empty-box path takes n boxes and k balls."""
    return n <= EMPTY_EXACT_BOX_CAP and k * math.log10(n) <= EMPTY_EXACT_DIGIT_CAP


def _empty_boxes_mass_exact(n: int, k: int) -> np.ndarray:
    """Law of the empty-box count: exact integer counts, each divided once by
    ``n**k`` with correct rounding."""
    return _divided_once(_empty_boxes_counts(n, k), n**k)


#: truncation budget of each certified empty-box mass, and of the total mass
#: the certified path drops past its last term
_CERTIFIED_TRUNCATION = 1e-30


def _empty_boxes_mass_certified(n: int, k: int) -> np.ndarray:
    """Empty-box law by inclusion-exclusion truncated after its first terms.

    ``S_j = C(n, j) (1 - j/n)^k`` is the "at least j empty" mass (``E C(W, j)``),
    and ``S_j <= r0^j / j!`` with ``r0 = n exp(-k/n)``.  The masses come from
    ``S_0..S_J`` by the exact path's :func:`_hits_exactly`, where J is the
    first index with ``2^(J+1) S_(J+1) <= _CERTIFIED_TRUNCATION``.

    Truncation: by Bonferroni's inequalities the partial sums of
    ``P(W = w) = sum_j (-1)^(j-w) C(j, w) S_j`` bracket the mass, so cutting
    after J moves mass w by at most ``C(J+1, w) S_(J+1) <= 2^(J+1) S_(J+1)``;
    the masses past J are dropped and total ``P(W > J) <= S_(J+1)``.

    Rounding: everything runs in ``decimal`` at ``p = ceil(2 r0 log10 e) + 40``
    digits, unit roundoff ``u = 10^(1-p) / 2 <= e^(-2 r0) 10^-39 / 2``.  Each
    ``S_j`` carries a few roundings: two powers of exact integers (each within
    about an ulp), a quotient and a product; a power of the rounded ratio
    ``1 - j/n`` would instead multiply its rounding by k.  ``_hits_exactly``
    reaches mass w from ``S_j`` along ``C(j, w)`` chains of at most ``j + 1``
    additions, so every intermediate value is at most
    ``sum_j 2^j S_j <= sum_j (2 r0)^j / j! = e^(2 r0)`` in size, and mass w is
    off by at most about ``(J + 5) u e^(2 r0) <= (J + 5) 10^-39 / 2``.  J stays
    under 400 below ``EMPTY_CERTIFIED_RATIO_CAP``, so this is far inside the
    budget.  A mass that comes out negative is set to 0 only when it lies
    within the budget; anything more negative raises ValueError.
    """
    r0 = n * math.exp(-k / n)
    if r0 > EMPTY_CERTIFIED_RATIO_CAP:
        raise ValueError(
            "certified empty-box path needs n*exp(-k/n) <= "
            f"{EMPTY_CERTIFIED_RATIO_CAP}; got {r0:.3g} (n={n}, k={k})"
        )
    digits = math.ceil(2 * r0 * math.log10(math.e)) + 40
    with decimal.localcontext(decimal.Context(prec=digits, Emax=decimal.MAX_EMAX)):
        budget = decimal.Decimal(_CERTIFIED_TRUNCATION)
        n_to_k = decimal.Decimal(n) ** k
        at_least = [decimal.Decimal(1)]
        while True:
            j = len(at_least)
            s_j = math.comb(n, j) * decimal.Decimal(n - j) ** k / n_to_k
            if 2**j * s_j <= budget:
                break
            at_least.append(s_j)
        mass = np.array([float(m) for m in _hits_exactly(at_least)])
    for w in np.flatnonzero(mass < 0.0):
        if mass[w] < -_CERTIFIED_TRUNCATION:
            raise ValueError(
                f"certified empty-box mass at w={w} is {mass[w]:.3g}, "
                f"beyond the truncation budget {_CERTIFIED_TRUNCATION} (n={n}, k={k})"
            )
        mass[w] = 0.0
    return mass


def _empty_boxes_pmf(n: int, k: int) -> Pmf:
    if k == 0:
        mass = np.zeros(n + 1)
        mass[n] = 1.0
        return Pmf(mass)
    if _empty_exact_fits(n, k):
        mass = _empty_boxes_mass_exact(n, k)
    else:
        mass = _empty_boxes_mass_certified(n, k)
    last = int(np.nonzero(mass)[0].max(initial=0))
    return Pmf.from_mass(mass[: last + 1])


def check_occupancy(spec: OccupancySpec) -> None:
    """Raise ValueError if :func:`occupancy_pmf` cannot take ``spec``."""
    n, k = spec.n_boxes, spec.k_balls
    if k == 0:
        return
    if spec.statistic == "empty":
        r0 = n * math.exp(-k / n)
        if not _empty_exact_fits(n, k) and r0 > EMPTY_CERTIFIED_RATIO_CAP:
            raise ValueError(
                "empty-box law infeasible: exact path needs about "
                f"{k * math.log10(n):.0f}-digit integers over {n + 1} support points "
                f"(caps: n<={EMPTY_EXACT_BOX_CAP}, {EMPTY_EXACT_DIGIT_CAP} digits) "
                f"and the certified path needs n*exp(-k/n) <= "
                f"{EMPTY_CERTIFIED_RATIO_CAP} (got {r0:.3g})"
            )
        return
    states = n * k * max(1, _stat_support_max(spec))
    if states > DP_STATE_CAP:
        raise ValueError(
            f"occupancy DP needs ~{states:.2e} states "
            f"(cap {DP_STATE_CAP:.0e}); n={n}, k={k}, statistic={spec.statistic}"
        )


def occupancy_pmf(spec: OccupancySpec, tables: AllocationTables | None = None) -> Pmf:
    """Exact law of the requested occupancy statistic.

    The empty-box count uses the inclusion-exclusion closed form; the other
    statistics run the allocation engine (conditional per-box laws joined by
    binomial splits of the balls, binary powering over the boxes) with boxes
    as cells and balls as items, on ``tables`` (a plan listing ``spec``)
    or on a plan of its own.  :func:`check_occupancy` applies the caps up
    front, e.g. ``n_boxes * k_balls * max_statistic <= DP_STATE_CAP`` for the
    engine.
    """
    check_occupancy(spec)
    n, k = spec.n_boxes, spec.k_balls
    if spec.statistic == "empty":
        return _empty_boxes_pmf(n, k)
    return (AllocationTables([spec]) if tables is None else tables).law(spec)


@dataclass(frozen=True)
class OccupancyMoments:
    """Closed-form boxes-at-level moments: em[l] = E M_l, em2[l] = E M_l^2."""

    em: dict[int, float]
    em2: dict[int, float]
    ew: float


def occupancy_moments(spec: OccupancySpec, levels=None) -> OccupancyMoments:
    """First and second moments of the level counts, plus E W per statistic.

    ``E M_l = n C(k,l) n^{-l} (1-1/n)^{k-l}`` and
    ``E M_l^2 = E M_l + n(n-1) C(k,l) C(k-l,l) n^{-2l} (1-2/n)^{k-2l}``
    (the joint term vanishes when ``2l > k``).
    """
    n, k = spec.n_boxes, spec.k_balls
    if levels is None:
        levels = range(0, min(k, 6) + 1)
    levels = [int(l) for l in levels]
    if any(l < 0 or l > k for l in levels):
        raise ValueError("levels must lie in [0, k_balls]")
    em: dict[int, float] = {}
    em2: dict[int, float] = {}
    for l in levels:
        m1 = n * math.comb(k, l) * n**-l * (1.0 - 1.0 / n) ** (k - l) if n >= 1 else 0.0
        if n == 1:
            m1 = 1.0 if l == k else 0.0
        joint = 0.0
        if 2 * l <= k and n >= 2:
            joint = (
                n
                * (n - 1)
                * math.comb(k, l)
                * math.comb(k - l, l)
                * float(n) ** (-2 * l)
                * (1.0 - 2.0 / n) ** (k - 2 * l)
            )
        em[l] = m1
        em2[l] = m1 + joint
    if spec.statistic == "triples":
        ew = math.comb(k, 3) / n**2
    elif spec.statistic == "pair_count":
        ew = math.comb(k, 2) / n
    elif spec.statistic == "empty":
        ew = n * (1.0 - 1.0 / n) ** k if n >= 2 else (1.0 if k == 0 else 0.0)
    elif spec.statistic == "pairs":
        m0 = n * (1.0 - 1.0 / n) ** k if n >= 2 else (1.0 if k == 0 else 0.0)
        m1 = n * math.comb(k, 1) * (1.0 / n) * (1.0 - 1.0 / n) ** (k - 1) if k >= 1 else 0.0
        if n == 1:
            m1 = 1.0 if k == 1 else 0.0
        ew = n - m0 - m1
    else:  # exact_level
        l = spec.level
        ew = em.get(l)
        if ew is None:
            ew = occupancy_moments(spec, levels=[l]).em[l] if l <= k else 0.0
    return OccupancyMoments(em=em, em2=em2, ew=float(ew))


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def check_coloring(spec: ColoringSpec) -> None:
    """Raise ValueError if :func:`coloring_pmf` cannot take ``spec``."""
    states = spec.n_colors * spec.n_points * max(1, math.comb(spec.n_points, spec.tuple_size))
    if states > DP_STATE_CAP:
        raise ValueError(
            f"coloring DP needs ~{states:.2e} states (cap {DP_STATE_CAP:.0e})"
        )


def coloring_pmf(spec: ColoringSpec, tables: AllocationTables | None = None) -> Pmf:
    """Exact law of the monochromatic tuple count.

    Color class sizes are a uniform multinomial over the colors, so the
    allocation engine (conditional per-cell laws, binomial splits, binary
    powering) applies with colors as cells and points as items; a class of
    size m contributes C(m, tuple_size).  ``tables`` is as in
    :func:`occupancy_pmf`.
    """
    check_coloring(spec)
    return (AllocationTables([spec]) if tables is None else tables).law(spec)


# ---------------------------------------------------------------------------
# coupon collector diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouponDiagnostics:
    """Exact empty/singleton-box quantities for k balls in n boxes.

    ``var_n1_exact`` is the textbook indicator-sum variance
    ``n p (1-p) + n(n-1)(rho - p^2)``; ``var_n1_bound`` is the companion
    closed-form upper bound used by the error-chain assembly.
    """

    ew: float
    en1w: float
    p: float
    rho: float
    var_n1_exact: float
    var_n1_bound: float


def coupon_collector_diagnostics(n: int, k: int) -> CouponDiagnostics:
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("n must be an integer >= 3")
    if not (isinstance(k, int) and k >= 0):
        raise ValueError("k must be a nonnegative integer")
    one_minus_1 = 1.0 - 1.0 / n
    one_minus_2 = 1.0 - 2.0 / n
    ew = n * one_minus_1**k
    if k >= 1:
        en1w = n * (n - 1) * (k / n) * one_minus_2 ** (k - 1)
        p = k * (1.0 / n) * one_minus_1 ** (k - 1)
        var_bound = k * one_minus_1 ** (k - 1) + (2.0 * k * k / n) * one_minus_2 ** (k - 2)
    else:
        en1w = 0.0
        p = 0.0
        var_bound = 0.0
    rho = k * (k - 1) / n**2 * one_minus_2 ** (k - 2) if k >= 2 else 0.0
    var_exact = n * p * (1.0 - p) + n * (n - 1) * (rho - p * p)
    var_exact = max(0.0, var_exact)
    return CouponDiagnostics(
        ew=ew,
        en1w=en1w,
        p=p,
        rho=rho,
        var_n1_exact=var_exact,
        var_n1_bound=var_bound,
    )
