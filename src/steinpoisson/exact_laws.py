"""Exact reference distributions for the combinatorial problems.

Every law here is ground truth.  Inclusion-exclusion, rencontres and rook
polynomials give exact integer counts; the counts are checked to sum to the
exact total and each is divided by it once, a correctly rounded int/int
division, so every probability is the double nearest the exact rational.
Sparse empty-box instances too large for exact integers take the same
inclusion-exclusion truncated after its first terms, in ``decimal`` arithmetic
with a rigorous truncation and rounding certificate.
The additive occupancy and coloring statistics share one allocation engine:
a group of cells holds, for every item count m, the law of its statistic
given m items.  With at most cells + 1 items the rows come from one ball
insertion recurrence; otherwise two groups join by splitting the items
binomially between them, and binary powering over the bits of the cell count
needs O(log cells) joins.  Both routes use nonnegative weights only.  The
laws of a sweep share one plan of group tables (:class:`AllocationTables`),
each built once.
Brute-force enumeration oracles live in the test suite, not here; these
functions are the quantities they certify.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .stein_core import Pmf, _table_laws

__all__ = [
    "MatchingSpec",
    "OccupancySpec",
    "ColoringSpec",
    "AllocationTables",
    "derangement_numbers",
    "poisson_binomial_pmf",
    "matching_pmf",
    "occupancy_pmf",
    "coloring_pmf",
    "check_matching",
    "check_occupancy",
    "check_coloring",
]

#: matching laws (plain and multiset letters) are computed up to this many letters
MATCHING_CAP = 500
#: feasibility cap for the allocation engine, counted as cells * items *
#: statistic states on the joins and as the values read on ball insertion
DP_STATE_CAP = 100_000_000
#: exact-integer empty-box path: max boxes and max digits of n^k
EMPTY_EXACT_BOX_CAP = 400
EMPTY_EXACT_DIGIT_CAP = 20_000
#: the certified empty-box path (truncated inclusion-exclusion in decimal)
#: requires n*exp(-k/n) at most this, which keeps it under 400 terms of at
#: most ~85 digits
EMPTY_CERTIFIED_RATIO_CAP = 50.0


def _tuples(c, t: int):
    """C(c, t), the t-subsets of c items in one cell, of an int or elementwise."""
    return math.prod((c - i for i in range(1, t)), start=c) // math.factorial(t)


#: contribution ``f(c)`` of a box holding ``c`` balls to each additive
#: occupancy statistic, elementwise over count arrays (indicators stay boolean,
#: so count matrices are never widened); the pair models read it, and the
#: allocation engine reads ``pairs`` and, as the tuple size t = 3 and 2,
#: ``triples`` and ``pair_count`` (see :func:`_engine_point`)
BOX_STATISTICS = {
    "pairs": lambda c: c >= 2,
    "triples": lambda c: _tuples(c, 3),
    "empty": lambda c: c == 0,
    "pair_count": lambda c: _tuples(c, 2),
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
      * ``"pair_count"`` -- number of ball pairs sharing a box
    """

    n_boxes: int
    k_balls: int
    statistic: str

    def __post_init__(self):
        if not (isinstance(self.n_boxes, int) and self.n_boxes >= 1):
            raise ValueError("n_boxes must be a positive integer")
        if not (isinstance(self.k_balls, int) and self.k_balls >= 0):
            raise ValueError("k_balls must be a nonnegative integer")
        if self.statistic not in OCCUPANCY_STATISTICS:
            raise ValueError(f"statistic must be one of {OCCUPANCY_STATISTICS}")


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


def _hits_exactly(at_least) -> list:
    """Inclusion-exclusion from "at least these hits" to "exactly m hits".

    ``E_m = sum_j (-1)^(j-m) C(j, m) N_j`` over exact entries ``N_j``: the
    Taylor shift ``E(x) = N(x - 1)`` of the generating polynomials, taken as
    ``N(-x)`` shifted by +1, one suffix sum per coefficient.  The entries are
    Python ints, ``Decimal``s (summed in the caller's context), or the rows of
    an object array, for one pass along its first axis.
    """
    # highest coefficient first, so that a suffix sum is a running sum
    counts = [-c if j % 2 else c for j, c in enumerate(at_least)][::-1]
    for end in range(len(counts), 1, -1):  # coefficients len - end .. len - 1
        counts[:end] = accumulate(counts[:end])
    return [-c if j % 2 else c for j, c in enumerate(reversed(counts))]


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
    Counts that do not sum to ``total`` raise RuntimeError.
    """
    counted = sum(counts)
    if counted != total:
        raise RuntimeError(
            f"exact counts sum to {_scientific(counted, 17)}, not to their total "
            f"{_scientific(total, 17)} (off by {_scientific(counted - total, 3)})"
        )
    return np.array([c / total for c in counts])


def _completions(n: int) -> np.ndarray:
    """``(n - j)!`` for ``j = 0..n``: the permutations extending a j-rook placement."""
    return np.array([math.factorial(n - j) for j in range(n + 1)], dtype=object)


# ---------------------------------------------------------------------------
# Poisson-binomial
# ---------------------------------------------------------------------------


def _success_probabilities(p) -> np.ndarray:
    """``p`` as a C-contiguous float array: one vector of success
    probabilities, or a matrix whose rows are vectors of one length."""
    probs = np.ascontiguousarray(p, dtype=float)
    if probs.ndim not in (1, 2) or probs.size == 0:
        raise ValueError("p must be a nonempty 1-D sequence or a matrix of such rows")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    return probs


def poisson_binomial_pmf(p) -> Pmf | list[Pmf]:
    """Exact law of a sum of independent indicators via one-pass convolution.

    ``p`` is one vector (returns its ``Pmf``) or a matrix whose rows are
    vectors of one length (returns one ``Pmf`` per row, each a view of one
    table, so a kept row keeps the table alive).  Both run the same
    DP over the columns, all rows at once, updated in place:

        mass[1 : i + 2] = mass[1 : i + 2] * (1 - p_i) + mass[: i + 1] * p_i
        mass[0] *= 1 - p_i

    Each row sees exactly the operations of its own one-vector call, so a
    row's law is bit-identical to the law of that vector alone.  The table
    is checked once, as a ``Pmf`` checks its rows (``stein_core._table_laws``).
    """
    probs = _success_probabilities(p)
    rows = probs.reshape(-1, probs.shape[-1])
    succ = rows.T[:, :, None]
    fail = 1.0 - succ
    mass = np.zeros((rows.shape[0], rows.shape[1] + 1))
    mass[:, 0] = 1.0
    for i in range(rows.shape[1]):
        mass[:, 1 : i + 2] = mass[:, 1 : i + 2] * fail[i] + mass[:, : i + 1] * succ[i]
        mass[:, 0] *= fail[i, :, 0]
    laws = _table_laws(mass)
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


# ---------------------------------------------------------------------------
# occupancy laws
# ---------------------------------------------------------------------------


def _scientific(count: int, digits: int) -> str:
    """``count`` in the style of ``f"{float(count):.{digits}e}"``, rounded
    from the exact integer, so that a count past the float range prints."""
    mantissa, exponent = f"{decimal.Decimal(count):.{digits}e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"


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


# A cell-group table holds, for m = 0..items, the law of the group's statistic
# given that m of the items fall in the group, as (lo, rows): row m holds the
# probabilities of the statistic values lo[m], lo[m] + 1, ..., trimmed to the
# values it reaches.  Every row, inserted or joined, comes out of ``_row``.


def _lengths(table) -> np.ndarray:
    """Length of every row from its first to its last reached value."""
    return np.fromiter(map(len, table[1]), np.int64, len(table[1]))


def _row(base: int, size: int, pieces):
    """``(lo, row)`` of one table row: the ``(offset, values)`` pieces summed,
    in order, into ``size`` zeros, trimmed to the first and last nonzero
    (``lo`` is ``base`` plus the first one's offset)."""
    out = np.zeros(size)
    for offset, values in pieces:
        out[offset : offset + values.size] += values
    nz = out.nonzero()[0]
    return base + int(nz[0]), out[nz[0] : nz[-1] + 1]


def _join_ragged(a, b, splits, square: bool):
    """Row m is ``sum_i w_i conv(a_i, b_{m-i})``, one 1-D convolution per
    split; a squaring folds the mirror splits i and m - i into one term."""
    lo_a, rows_a = a
    lo_b, rows_b = b
    top = len(rows_a) - 1
    hi_a = lo_a + _lengths(a)
    hi_b = lo_b + _lengths(b)
    lo_c, rows_c = np.zeros(top + 1, np.int64), [None] * (top + 1)
    for m, w in splits:
        starts = lo_a[: m + 1] + lo_b[m::-1]
        base = int(starts.min())
        size = int((hi_a[: m + 1] + hi_b[m::-1]).max()) - base - 1
        weights = w[: m // 2 + 1] * 2.0 if square else w
        if square and m % 2 == 0:
            weights[-1] = w[m // 2]
        terms = zip(weights.tolist(), rows_a, rows_b[m::-1], (starts - base).tolist())
        lo_c[m], rows_c[m] = _row(base, size, (
            # a point mass in row_b shifts row_a
            (start, (wi * row_b[0]) * row_a if row_b.size == 1 else wi * np.convolve(row_a, row_b))
            for wi, row_a, row_b, start in terms if wi != 0.0
        ))
    return lo_c, rows_c


def _sources(size: int) -> list[int]:
    """Group sizes the binary-powering join into ``size`` cells reads: its half
    (a squaring), or one cell fewer and one cell."""
    return [size // 2] if size % 2 == 0 else [size - 1, 1]


def _top_rows(table, top: int):
    """Rows ``0..top`` of a table."""
    lo, rows = table
    return table if len(rows) == top + 1 else (lo[: top + 1], rows[: top + 1])


def _row_mass(table, m: int) -> np.ndarray:
    """Row ``m`` of a table as a new mass vector from statistic value 0."""
    lo, rows = table
    mass = np.zeros(int(lo[m]) + rows[m].size)
    mass[int(lo[m]) :] = rows[m]
    return mass


def _insert(value, cells: int, top: int):
    """Rows ``0..top`` of the table of ``cells`` cells by ball insertion,
    for ``top <= cells + 1`` and ``value(0) == 0``.

    J. C. P. Miller's recurrence for the powers of a power series (Knuth,
    TAOCP vol. 2, 4.7), applied to ``F(x, y)**cells`` with
    ``F = sum_c y**value(c) x**c / c!``, gives for the row generating
    functions ``h_m(y) = E[y**S | m items]``:

        h_m = sum_{i=1..m} w(m, i) y**value(i) h_{m-i},
        w(m, i) = C(m, i) ((cells + 1) i - m) / (m cells**i).

    The weights sum to 1, and they are nonnegative exactly when
    ``m <= cells + 1``, so each row is a convex mix of shifted earlier rows.
    ``C(m, i) / cells**i`` is a running product, and the sum stops only where
    it underflows to 0 (every later term is smaller still); a zero weight
    alone is skipped, since ``w(cells + 1, 1) = 0`` while later ones are not.
    """
    shift = [int(value(c)) for c in range(top + 1)]
    lo, rows = [0], [np.ones(1)]
    for m in range(1, top + 1):
        ratio, terms = 1.0, []
        for i in range(1, m + 1):
            ratio *= (m - i + 1) / (i * cells)  # C(m, i) / cells**i
            if not ratio:
                break
            w = ratio * (((cells + 1) * i - m) / m)
            if w:
                terms.append((w, rows[m - i], lo[m - i] + shift[i]))
        base = min(start for _, _, start in terms)
        size = max(start + row.size for _, row, start in terms) - base
        lo_m, row_m = _row(base, size, ((start - base, w * row) for w, row, start in terms))
        lo.append(lo_m)
        rows.append(row_m)
    return np.array(lo, np.int64), rows


def _engine_point(spec):
    """``(statistic, cells, items)`` of an engine law: ``"pairs"`` or the
    tuple size t.  A coloring of n points with c colors is the birthday
    t-tuple count of n balls in c boxes: ``pair_count`` is 2, ``triples`` 3."""
    if isinstance(spec, ColoringSpec):
        return spec.tuple_size, spec.n_colors, spec.n_points
    if spec.statistic == "empty":
        raise ValueError("the empty-box law has a closed form, not an engine plan")
    statistic = {"pair_count": 2, "triples": 3}.get(spec.statistic, spec.statistic)
    return statistic, spec.n_boxes, spec.k_balls


def _cell_value(statistic):
    """An engine statistic at one cell by its item count, 0 when it is empty."""
    return BOX_STATISTICS["pairs"] if statistic == "pairs" else lambda c: _tuples(c, statistic)


def _inserts(cells: int, items: int) -> bool:
    """Whether rows up to ``items`` of ``cells`` cells come from ball
    insertion: its weights are nonnegative up to ``cells + 1`` items."""
    return items <= cells + 1


def _engine_states(spec) -> int:
    """The allocation engine's states for ``spec``: on the joins cells *
    items * the statistic's largest value, on ball insertion an upper bound
    on the values the recurrence reads.  Row j spans at most C(j, t) + 1
    values (t = 1 for ``"pairs"``) and rows j+1..items read it, so the reads
    are at most C(items + 1, t + 2) + C(items + 1, 2)."""
    statistic, cells, items = _engine_point(spec)
    t = 1 if statistic == "pairs" else statistic
    if not _inserts(cells, items):
        top = min(cells, items // 2) if statistic == "pairs" else _tuples(items, t)
        return cells * items * max(1, top)
    return math.comb(items + 1, t + 2) + math.comb(items + 1, 2)


def _check_engine(spec) -> None:
    """Raise ValueError if the engine's states for ``spec`` exceed
    ``DP_STATE_CAP``."""
    states = _engine_states(spec)
    if states > DP_STATE_CAP:
        raise ValueError(
            f"allocation engine needs ~{_scientific(states, 2)} states (cap {DP_STATE_CAP:.0e})"
        )


class AllocationTables:
    """The allocation engine, planned over the laws of a list of specs.

    A group of cells has a table whose row m is the law of the group's
    statistic given that m of the items fall in it; for one cell, row m is
    the point mass at the cell's value.  A table is built on one of two
    routes, chosen from its cell count and its last row alone:

    * **Ball insertion** (:func:`_insert`) when the last row is at most
      ``cells + 1``: each row is a convex mix of earlier rows shifted by one
      cell's value, with no convolution.
    * **Joins** otherwise.  Two groups of a and b cells join by splitting m
      items Binomial(m, a/(a+b)) between them (Barbour, Holst & Janson,
      *Poisson Approximation*, ch. 6, conditioning on the total): row m of
      the join is ``sum_i P(i | m) conv(A_i, B_{m-i})``, one 1-D
      convolution of trimmed rows per split (:func:`_join_ragged`), for
      every join, full or last, squaring or one cell.  Binary powering
      over the bits of the cell count (square, then add one cell for each
      set bit) reaches it in O(log cells) joins.  Row 0 is an exact point
      mass at every size.

    Both routes use nonnegative weights only, and :func:`_row` sums and
    trims every row.  The law functions check ``DP_STATE_CAP`` against each
    route's own work (:func:`_engine_states`).

    Row m depends on the statistic, the group size and m, not on the spec,
    so the specs share tables, a coloring those of its tuple count.  A spec
    of at most ``cells + 1`` items reads its row from the inserted table of
    its cell count, one table up to the most items of those specs.  Every
    other spec has a join chain: each group size on any such chain is built
    once per statistic, with rows up to the most items of the specs whose
    chains pass through it.  A spec whose cell count is an inner group of
    some chain reads its row from that table; any other forms only its own
    row, in a last join: a join that forms row m alone, from the same split
    rows as a full join.  A table is built when a law first needs it and
    dropped after its last reader (a join or a law), so a one-spec plan
    holds what one chain does: the one-cell table, the predecessor and the
    join's output.  :meth:`law` gives a spec's law once per listing.
    """

    def __init__(self, specs):
        self._readers = Counter()  # (key, size) -> joins and laws still to read it
        self._laws = Counter()  # (key, cells, items) -> laws still to give
        self._live = {}  # (key, size) -> built table
        points, chains = [], []
        for spec in specs:
            key, cells, items = _engine_point(spec)
            self._laws[key, cells, items] += 1
            points.append((key, cells, items))
            if not _inserts(cells, items):
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
        for key, cells, items in points:
            if _inserts(cells, items):
                self._top[key, cells] = max(self._top.get((key, cells), 0), items)
        for key, cells, items in points:
            if self._top.get((key, cells), -1) >= items:
                self._readers[key, cells] += 1
            else:  # a last join
                self._readers.update((key, size) for size in _sources(cells))
        for (key, size), top in self._top.items():
            if size > 1 and not _inserts(size, top):
                self._readers.update((key, source) for source in _sources(size))

    def law(self, spec) -> Pmf:
        """The law of ``spec``, which the plan must still list."""
        key, cells, items = _engine_point(spec)
        if not self._laws[key, cells, items]:
            raise ValueError(f"{spec} is not, or no longer, in this plan")
        self._laws[key, cells, items] -= 1
        if self._top.get((key, cells), -1) < items:
            return Pmf(_row_mass(self._join(key, cells, items), items))
        mass = _row_mass(self._table(key, cells), items)
        self._release(key, [cells])
        return Pmf(mass)

    def _table(self, key, size: int):
        if (key, size) not in self._live:
            top = self._top[key, size]
            if size == 1:
                values = [int(_cell_value(key)(c)) for c in range(top + 1)]
                table = (np.array(values, np.int64), [np.ones(1)] * len(values))
            elif _inserts(size, top):
                table = _insert(_cell_value(key), size, top)
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
        """The table of ``size`` cells from its sources: rows 0 up to its
        plan's top, or with ``last`` only row ``last`` (the others None).
        Either way each row formed convolves the same split rows."""
        sources = _sources(size)
        square = len(sources) == 1
        top = self._top[key, size] if last is None else last
        first = 0 if last is None else top
        a = _top_rows(self._table(key, sources[0]), top)
        b = a if square else _top_rows(self._table(key, 1), top)
        share = 0.5 if square else sources[0] / size
        splits = ((m, w) for m, w in _split_weights(share, top) if m >= first)
        table = _join_ragged(a, b, splits, square)
        self._release(key, sources)
        return table


def _empty_boxes_counts(n: int, k: int) -> list[int]:
    """Allocations of k labelled balls to n boxes with exactly w empty boxes,
    w = 0..n, as exact integers summing to ``n**k``.

    ``C(n, j) (n - j)^k`` allocations leave a chosen set of j boxes empty,
    summed over the sets; inclusion-exclusion turns these "at least j empty"
    counts into exact ones.
    """
    return _hits_exactly([c * (n - j) ** k for j, c in enumerate(_binomial_row(n))])


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
    :func:`_empty_boxes_path` sends it only points under that cap.
    """
    r0 = n * math.exp(-k / n)
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


def _empty_boxes_path(n: int, k: int):
    """The empty-box mass function that takes n boxes and k >= 1 balls: the
    exact-integer path within its caps, else the certified one within its
    ratio cap; raises ValueError where neither does."""
    if n <= EMPTY_EXACT_BOX_CAP and k * math.log10(n) <= EMPTY_EXACT_DIGIT_CAP:
        return _empty_boxes_mass_exact
    r0 = n * math.exp(-k / n)
    if r0 > EMPTY_CERTIFIED_RATIO_CAP:
        raise ValueError(
            "empty-box law infeasible: exact path needs about "
            f"{k * math.log10(n):.0f}-digit integers over {n + 1} support points "
            f"(caps: n<={EMPTY_EXACT_BOX_CAP}, {EMPTY_EXACT_DIGIT_CAP} digits) "
            f"and the certified path needs n*exp(-k/n) <= "
            f"{EMPTY_CERTIFIED_RATIO_CAP} (got {r0:.3g})"
        )
    return _empty_boxes_mass_certified


def _empty_boxes_pmf(n: int, k: int) -> Pmf:
    if k == 0:
        mass = np.zeros(n + 1)
        mass[n] = 1.0
        return Pmf(mass)
    mass = _empty_boxes_path(n, k)(n, k)
    last = int(np.nonzero(mass)[0].max(initial=0))
    return Pmf(mass[: last + 1])


def check_occupancy(spec: OccupancySpec) -> None:
    """Raise ValueError if :func:`occupancy_pmf` cannot take ``spec``."""
    if spec.k_balls == 0:
        return
    if spec.statistic == "empty":
        _empty_boxes_path(spec.n_boxes, spec.k_balls)
    else:
        _check_engine(spec)


def occupancy_pmf(spec: OccupancySpec, tables: AllocationTables | None = None) -> Pmf:
    """Exact law of the requested occupancy statistic.

    The empty-box count uses the inclusion-exclusion closed form; the other
    statistics run the allocation engine with boxes as cells and balls as
    items, on ``tables`` (a plan listing ``spec``) or on a plan of its own.
    With ``k_balls <= n_boxes + 1`` the engine inserts the balls one
    recurrence step at a time; otherwise it joins conditional per-box laws by
    binomial splits of the balls, binary powering over the boxes.  :func:`check_occupancy` applies
    the caps up front: :func:`_empty_boxes_path` for the empty boxes, else
    ``DP_STATE_CAP`` on the chosen route's work (:func:`_check_engine`).
    """
    check_occupancy(spec)
    n, k = spec.n_boxes, spec.k_balls
    if spec.statistic == "empty":
        return _empty_boxes_pmf(n, k)
    return (AllocationTables([spec]) if tables is None else tables).law(spec)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def check_coloring(spec: ColoringSpec) -> None:
    """Raise ValueError if :func:`coloring_pmf` cannot take ``spec``."""
    _check_engine(spec)


def coloring_pmf(spec: ColoringSpec, tables: AllocationTables | None = None) -> Pmf:
    """Exact law of the monochromatic tuple count.

    Color class sizes are a uniform multinomial over the colors, so the
    allocation engine applies with colors as cells and points as items; a
    class of size m contributes C(m, tuple_size).  With
    ``n_points <= n_colors + 1`` it inserts the points one recurrence step at
    a time, otherwise it joins conditional per-color laws by binomial splits
    (binary powering over the colors).  ``tables`` is as in
    :func:`occupancy_pmf`, and :func:`check_coloring` caps each route's
    work as :func:`check_occupancy` does.
    """
    check_coloring(spec)
    return (AllocationTables([spec]) if tables is None else tables).law(spec)
