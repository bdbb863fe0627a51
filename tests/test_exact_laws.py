import decimal
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinpoisson import (
    ColoringSpec,
    MatchingSpec,
    OccupancySpec,
    Pmf,
    bound_birthday_triples,
    bound_coupling_coupon,
    bound_coupling_pair_count,
    bound_coupon_negative_association,
    bound_generalized_matching,
    bound_monochromatic,
    coloring_pmf,
    derangement_numbers,
    matching_pmf,
    occupancy_pmf,
    poisson_binomial_pmf,
)
from steinpoisson import cli, exact_laws
from steinpoisson.exact_laws import (
    BOX_STATISTICS,
    AllocationTables,
    EMPTY_CERTIFIED_RATIO_CAP,
    EMPTY_EXACT_DIGIT_CAP,
    _CERTIFIED_TRUNCATION,
    _divided_once,
    _empty_boxes_counts,
    _empty_boxes_mass_certified,
    _empty_boxes_mass_exact,
    _hits_exactly,
)

import oracles


def partitions(n, top=None):
    """Every partition of n as a non-increasing tuple of parts."""
    top = n if top is None else top
    if n == 0:
        yield ()
        return
    for part in range(min(n, top), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


#: letter multiplicities of every partition of n <= 7
SMALL_PARTITIONS = [p for n in range(1, 8) for p in partitions(n)]


class TestPoissonBinomial:
    def test_symmetric_two_trials(self):
        law = poisson_binomial_pmf([0.5, 0.5])
        assert np.allclose(law.mass, [0.25, 0.5, 0.25], atol=1e-16)

    def test_deterministic(self):
        law = poisson_binomial_pmf([1.0, 1.0, 1.0])
        assert np.array_equal(law.mass, [0.0, 0.0, 0.0, 1.0])

    def test_harmonic_mean(self):
        p = [1.0, 1 / 2, 1 / 3, 1 / 4]
        law = poisson_binomial_pmf(p)
        assert law.mean() == pytest.approx(25 / 12, abs=1e-14)

    def test_against_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.random(rng.integers(1, 9))
            law = poisson_binomial_pmf(p)
            brute = oracles.enumerate_poisson_binomial(p)
            assert np.abs(law.mass - brute).max() < 1e-13

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.2])
        with pytest.raises(ValueError):
            poisson_binomial_pmf([-0.1])
        with pytest.raises(ValueError):
            poisson_binomial_pmf([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probs(self, bad):
        with pytest.raises(ValueError, match="success probabilities must lie in"):
            poisson_binomial_pmf([0.5, bad])
        with pytest.raises(ValueError, match="success probabilities must lie in"):
            poisson_binomial_pmf([[0.5, 0.5], [0.5, bad]])

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="nonempty"):
            poisson_binomial_pmf(np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="nonempty"):
            poisson_binomial_pmf(np.empty((3, 0)))

    @pytest.mark.parametrize("length", [1, 2, 5, 9])
    def test_matrix_rows_are_the_vector_laws(self, length):
        rng = np.random.default_rng(length)
        p = rng.random((40, length))
        p[rng.random(p.shape) < 0.15] = 0.0
        p[rng.random(p.shape) < 0.15] = 1.0
        p[0] = 0.0
        p[1] = 1.0
        laws = poisson_binomial_pmf(p)
        assert isinstance(laws, list) and len(laws) == len(p)
        for row, law in zip(p, laws):
            assert np.array_equal(law.mass, poisson_binomial_pmf(row).mass)
            assert np.abs(law.mass - oracles.enumerate_poisson_binomial(row)).max() < 1e-13
        assert np.array_equal(laws[1].mass, np.eye(length + 1)[length])

    def test_laws_are_read_only_tail_free_pmfs(self):
        laws = poisson_binomial_pmf(np.random.default_rng(2).random((5, 3)))
        for law in laws:
            checked = Pmf(law.mass.copy())
            assert type(law) is Pmf and law.tail == checked.tail == 0.0
            assert np.array_equal(law.mass, checked.mass)
            assert not law.mass.flags.writeable

    @pytest.mark.parametrize("entry, value", [(0, 0.25), (1, -0.625), (2, math.nan), (0, 1.5)])
    def test_a_bad_row_of_the_law_table_gets_the_pmf_message(self, monkeypatch, entry, value):
        # the table is checked once, not per row: one bad DP row is still refused
        # with the message a Pmf of that row gives
        table_laws = exact_laws._table_laws
        bad_rows = []

        def corrupted(table):
            table[2, entry] += value
            bad_rows.append(table[2].copy())
            return table_laws(table)

        monkeypatch.setattr(exact_laws, "_table_laws", corrupted)
        with pytest.raises(ValueError) as block:
            poisson_binomial_pmf(np.full((4, 2), 0.5))
        with pytest.raises(ValueError) as scalar:
            Pmf(bad_rows[0])
        assert str(block.value) == str(scalar.value)

    def test_one_row_matrix_gives_a_list(self):
        [law] = poisson_binomial_pmf([[0.25, 0.75]])
        assert np.array_equal(law.mass, poisson_binomial_pmf([0.25, 0.75]).mass)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9), st.randoms())
    def test_permutation_invariant(self, p, rnd):
        shuffled = list(p)
        rnd.shuffle(shuffled)
        a = poisson_binomial_pmf(p).mass
        b = poisson_binomial_pmf(shuffled).mass
        assert np.abs(a - b).max() < 1e-13


def direct_hits(at_least):
    """``E_m = sum_j (-1)^(j-m) C(j, m) N_j``, term by term."""
    return [sum((-1) ** (j - m) * math.comb(j, m) * at_least[j] for j in range(m, len(at_least)))
            for m in range(len(at_least))]


class TestInclusionExclusion:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**400), 2**400), min_size=1, max_size=40))
    def test_hits_exactly_is_the_direct_sum(self, at_least):
        assert _hits_exactly(at_least) == direct_hits(at_least)

    def test_hits_exactly_along_both_axes_of_a_table(self):
        # the joint law's call: the rows of an object array as the entries
        # give axis 0, the rows of its transpose axis 1
        rng = np.random.default_rng(3)
        table = np.array([[int(x) * 7**60 for x in row]
                          for row in rng.integers(-10**6, 10**6, (9, 6))], dtype=object)
        down = np.array(_hits_exactly(table))
        across = np.array(_hits_exactly(table.T)).T
        for col in range(6):
            assert down[:, col].tolist() == direct_hits(table[:, col].tolist())
        for row in range(9):
            assert across[row].tolist() == direct_hits(table[row].tolist())

    def test_hits_exactly_on_decimals_is_exact_with_enough_digits(self):
        at_least = [c * (9 - j) ** 40 for j, c in enumerate(exact_laws._binomial_row(9))]
        with decimal.localcontext(decimal.Context(prec=100)):
            hits = _hits_exactly([decimal.Decimal(c) for c in at_least])
        assert hits == direct_hits(at_least) == _empty_boxes_counts(9, 40)

    def test_divided_once_refuses_counts_off_their_total(self):
        with pytest.raises(RuntimeError, match=r"sum to 3\.0+e\+00, not to their total "
                                               r"4\.0+e\+00 \(off by -1\.000e\+00\)"):
            _divided_once([1, 2], 4)
        # counts past the int-to-str digit limit are named too
        big = 10**20_000
        with pytest.raises(RuntimeError, match=r"sum to 1\.0+e\+20000, not to their total "
                                               r"1\.0+e\+20000 \(off by 1\.000e\+00\)"):
            _divided_once([big, 1], big)

    def test_divided_once_refuses_under_python_o(self):
        code = "from steinpoisson.exact_laws import _divided_once; _divided_once([1, 2], 4)"
        src = Path(exact_laws.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == (
            "RuntimeError: exact counts sum to 3.00000000000000000e+00, not to their total "
            "4.00000000000000000e+00 (off by -1.000e+00)")


class TestMatchingPmf:
    def test_single_letter(self):
        law = matching_pmf(MatchingSpec(1))
        assert np.array_equal(law.mass, [0.0, 1.0])

    def test_four_letters(self):
        law = matching_pmf(MatchingSpec(4))
        assert np.allclose(law.mass * 24, [9, 8, 6, 0, 1], atol=1e-12)
        assert np.abs(law.mass - oracles.enumerate_matching(4)).max() < 1e-15

    def test_mean_is_one(self):
        for n in (2, 5, 17, 120):
            assert matching_pmf(MatchingSpec(n)).mean() == pytest.approx(1.0, abs=1e-12)

    def test_rencontres_relation_exact(self):
        # P_n(m) = P_{n-m}(0) / m! in exact rationals
        d = derangement_numbers(40)
        for n in (5, 12, 30, 40):
            for m in range(0, n - 1):
                lhs = Fraction(math.comb(n, m) * d[n - m], math.factorial(n))
                rhs = Fraction(d[n - m], math.factorial(n - m)) / math.factorial(m)
                assert lhs == rhs

    def test_multiset_two_pairs(self):
        spec = MatchingSpec(4, (2, 2))
        law = matching_pmf(spec)
        assert law.mean() == pytest.approx(2.0, abs=1e-13)
        brute = oracles.enumerate_matching(4, spec.word())
        assert np.abs(law.mass - brute).max() < 1e-15

    def test_multiset_mixed(self):
        spec = MatchingSpec(5, (2, 2, 1))
        assert matching_pmf(spec).mean() == pytest.approx(9 / 5, abs=1e-13)
        for mult in SMALL_PARTITIONS:  # (2, 2, 1) among them; bit for bit
            spec = MatchingSpec(sum(mult), mult)
            brute = oracles.enumerate_matching(spec.n, spec.word())
            assert matching_pmf(spec).mass.tobytes() == brute.tobytes(), mult

    def test_multiset_deck_of_cards(self):
        # 13 ranks x 4 suits: the classical P(no rank matches) = 0.016233
        law = matching_pmf(MatchingSpec(52, (4,) * 13))
        assert law.mass[0] == pytest.approx(0.016233, abs=5e-7)
        assert law.mean() == pytest.approx(4.0, abs=1e-12)

    def test_rencontres_divided_once_at_cap(self):
        # running-product binomials, each count divided once by n!, bit for bit
        n = 500
        d = derangement_numbers(n)
        expected = [math.comb(n, m) * d[n - m] / math.factorial(n) for m in range(n + 1)]
        assert matching_pmf(MatchingSpec(n)).mass.tolist() == expected

    def test_caps(self):
        with pytest.raises(ValueError):
            matching_pmf(MatchingSpec(501))
        with pytest.raises(ValueError):
            matching_pmf(MatchingSpec(501, (2,) * 250 + (1,)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MatchingSpec(4, (2, 3))  # does not sum to n
        with pytest.raises(ValueError):
            MatchingSpec(0)


class TestOccupancyPmf:
    def test_empty_two_boxes(self):
        law = occupancy_pmf(OccupancySpec(2, 2, "empty"))
        assert np.allclose(law.mass, [0.5, 0.5], atol=1e-16)

    def test_pairs_two_boxes(self):
        law = occupancy_pmf(OccupancySpec(2, 2, "pairs"))
        assert law.prob(1) == pytest.approx(0.5, abs=1e-15)

    def test_triples_impossible(self):
        law = occupancy_pmf(OccupancySpec(5, 2, "triples"))
        assert law.mass.size == 1
        assert law.mass[0] == pytest.approx(1.0, abs=1e-14)

    def test_no_balls(self):
        law = occupancy_pmf(OccupancySpec(4, 0, "empty"))
        assert law.prob(4) == 1.0
        assert occupancy_pmf(OccupancySpec(4, 0, "pairs")).prob(0) == 1.0

    @pytest.mark.parametrize(
        "n,k,stat,oracle_stat",
        [
            (4, 6, "pairs", oracles.stat_pairs),
            (6, 7, "pairs", oracles.stat_pairs),
            (5, 6, "triples", oracles.stat_triples),
            (5, 4, "empty", oracles.stat_empty),
            (4, 5, "pair_count", oracles.stat_pair_count),
        ],
    )
    def test_against_enumeration(self, n, k, stat, oracle_stat):
        law = occupancy_pmf(OccupancySpec(n, k, stat))
        brute = oracles.enumerate_occupancy(n, k, lambda c: oracle_stat(c), law.support_max)
        assert np.abs(law.mass - brute).max() < 1e-13

    def test_sums_to_one(self):
        for spec in (
            OccupancySpec(7, 9, "pairs"),
            OccupancySpec(30, 12, "triples"),
            OccupancySpec(50, 260, "empty"),
        ):
            law = occupancy_pmf(spec)
            assert abs(law.mass.sum() + law.tail - 1.0) < 1e-12

    @pytest.mark.parametrize("n,k", [(2, 1100), (3, 1500)])
    def test_few_boxes_many_balls(self, n, k):
        # 550 and 500 balls per box: the weights of lopsided splits underflow
        law = occupancy_pmf(OccupancySpec(n, k, "pairs"))
        assert law.prob(n) == pytest.approx(1.0, abs=1e-15)
        assert abs(law.mass.sum() + law.tail - 1.0) < 1e-15

    def test_many_sparse_boxes(self):
        # one rounded empty-box weight, shared by all 30 000 boxes, would
        # move the total mass by ~1.6e-12 if it were not exact
        n = 30_000
        law = occupancy_pmf(OccupancySpec(n, 2, "pairs"))
        assert law.prob(1) == pytest.approx(1 / n, rel=1e-13)
        assert abs(math.fsum(law.mass) - 1.0) < 1e-14

    @pytest.mark.parametrize("n,k", [(365, 23), (1000, 47)])
    def test_pairs_against_exact_integer_law(self, n, k):
        law = occupancy_pmf(OccupancySpec(n, k, "pairs"))
        exact = oracles.pairs_law_exact(n, k)
        assert law.mass.size <= exact.size
        assert np.abs(exact[: law.mass.size] - law.mass).max() < 1e-13
        assert np.abs(exact[law.mass.size :]).max(initial=0.0) < 1e-13

    @pytest.mark.parametrize("k", [20_000, 60_000])
    def test_one_box_is_a_point_mass(self, k):
        law = occupancy_pmf(OccupancySpec(1, k, "pairs"))
        assert law.mass.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "n,k,stat", [(14_000, 118, "pairs"), (200_000, 10, "pairs"), (400, 70, "pair_count")]
    )
    def test_mass_at_reach(self, n, k, stat):
        law = occupancy_pmf(OccupancySpec(n, k, stat))
        assert abs(math.fsum(law.mass) + law.tail - 1.0) < 1e-14

    def test_pairs_against_exact_integer_law_at_reach(self):
        law = occupancy_pmf(OccupancySpec(2000, 90, "pairs"))
        exact = oracles.pairs_law_exact(2000, 90)
        assert law.mass.size <= exact.size
        assert np.abs(exact[: law.mass.size] - law.mass).max() < 1e-14
        assert np.abs(exact[law.mass.size :]).max(initial=0.0) < 1e-14

    # per-box contribution of each statistic, written independently of the package
    BOX_VALUES = {
        "pairs": lambda c: c >= 2,
        "triples": lambda c: math.comb(c, 3),
        "empty": lambda c: c == 0,
        "pair_count": lambda c: math.comb(c, 2),
    }

    @pytest.mark.parametrize("stat", sorted(BOX_STATISTICS))
    @pytest.mark.parametrize("n", range(1, 18))
    def test_against_exact_rational_allocation(self, n, stat):
        # 1..17 boxes run every odd/even bit path of the powering
        assert set(self.BOX_VALUES) == set(BOX_STATISTICS)
        for k in (0, 1, 2, 5, 9):
            law = occupancy_pmf(OccupancySpec(n, k, stat))
            exact = oracles.allocation_law_exact(n, k, self.BOX_VALUES[stat])
            exact = np.array([float(x) for x in exact])
            size = max(exact.size, law.mass.size)
            assert np.abs(np.pad(exact, (0, size - exact.size))
                          - np.pad(law.mass, (0, size - law.mass.size))).max() < 1e-15

    def test_cap_rejection_mentions_size(self):
        with pytest.raises(ValueError, match="states"):
            occupancy_pmf(OccupancySpec(4000, 300, "triples"))

    def test_empty_mean_consistency(self):
        # mean of the empty-box law equals n(1 - 1/n)^k on both paths
        for n, k in ((6, 9), (40, 120), (1000, 6908)):
            law = occupancy_pmf(OccupancySpec(n, k, "empty"))
            assert law.mean() == pytest.approx(n * (1 - 1 / n) ** k, abs=1e-12)

    def test_multiset_mean_matches_moments(self):
        # the rate the multiset matching verdict compares the law with
        for mult in SMALL_PARTITIONS[1:]:  # (2, 2), (3, 2, 1), (2, 2, 2) among them; n >= 2
            spec = MatchingSpec(sum(mult), mult)
            assert matching_pmf(spec).mean() == pytest.approx(
                bound_generalized_matching(mult).lam, abs=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 18))
    def test_empty_counts_against_exact_allocation(self, n):
        for k in sorted({0, 1, n - 1, 3 * n}):
            counts = _empty_boxes_counts(n, k)
            assert sum(counts) == n**k
            exact = oracles.allocation_law_exact(n, k, lambda c: c == 0)
            exact += [Fraction(0)] * (n + 1 - len(exact))
            assert [Fraction(c, n**k) for c in counts] == exact, k

    def test_empty_exact_path_rounds_correctly_at_digit_cap(self):
        # the largest k the exact path takes at n = 400: ~20 000-digit counts,
        # each divided once, must give the double nearest the rational
        n = 400
        k = int(EMPTY_EXACT_DIGIT_CAP / math.log10(n))
        assert k * math.log10(n) <= EMPTY_EXACT_DIGIT_CAP < (k + 1) * math.log10(n)
        total = n**k
        mass = occupancy_pmf(OccupancySpec(n, k, "empty")).mass.tolist()
        mass += [0.0] * (n + 1 - len(mass))
        for count, x in zip(_empty_boxes_counts(n, k), mass):
            # count/total lies between the midpoints to x's two neighbours
            for y, side in ((math.nextafter(x, -math.inf), -1), (math.nextafter(x, math.inf), 1)):
                mid = (Fraction(x) + Fraction(y)) / 2
                assert side * (count * mid.denominator - total * mid.numerator) <= 0

    def test_certified_path_matches_exact_rationals(self):
        # r0 = n exp(-k/n) from the bench's regime up to the certified cap,
        # where the alternating sums cancel hardest
        for n in (300, 400):
            for r0 in (1, math.exp(0.5), 5, 10, 20, 30, 40, 45, 48, EMPTY_CERTIFIED_RATIO_CAP):
                k = math.ceil(n * math.log(n / r0))
                exact = _empty_boxes_mass_exact(n, k)
                cert = np.zeros(n + 1)
                cert_mass = _empty_boxes_mass_certified(n, k)
                cert[: cert_mass.size] = cert_mass
                assert np.abs(exact - cert).max() <= _CERTIFIED_TRUNCATION, (n, k)

    def test_empty_over_cap_message(self):
        # large n with k too small for the sparse-regime certificate
        with pytest.raises(ValueError, match="infeasible"):
            occupancy_pmf(OccupancySpec(5000, 100, "empty"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OccupancySpec(0, 2, "pairs")
        with pytest.raises(ValueError):
            OccupancySpec(2, -1, "pairs")
        with pytest.raises(ValueError):
            OccupancySpec(2, 2, "nope")


class TestVerdictRates:
    """Each rate a verdict compares its law with is that law's exact mean."""

    @pytest.mark.parametrize("mult", [(2, 2), (3, 2, 1), (2, 2, 2), (4, 1, 1)])
    def test_matching_rate_against_enumeration(self, mult):
        spec = MatchingSpec(sum(mult), mult)
        brute = oracles.enumerate_matching(spec.n, spec.word())
        assert bound_generalized_matching(mult).lam == pytest.approx(
            float(np.arange(brute.size) @ brute), abs=1e-13)

    def test_card_deck_rate(self):
        rep = bound_generalized_matching((4,) * 13)
        assert rep.lam == 4.0
        assert matching_pmf(MatchingSpec(52, (4,) * 13)).mean() == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("bound, spec", [
        (bound_birthday_triples, OccupancySpec(10, 9, "triples")),
        (bound_birthday_triples, OccupancySpec(50, 40, "triples")),
        (bound_coupling_pair_count, OccupancySpec(9, 12, "pair_count")),
        (bound_coupling_coupon, OccupancySpec(9, 20, "empty")),
        (bound_coupon_negative_association, OccupancySpec(9, 20, "empty")),
    ], ids=lambda x: getattr(x, "__name__", None) or f"{x.n_boxes}-{x.k_balls}")
    def test_occupancy_rate_is_the_law_mean(self, bound, spec):
        rep = bound(spec.n_boxes, spec.k_balls)
        assert rep.lam == pytest.approx(occupancy_pmf(spec).mean(), rel=1e-12)

    @pytest.mark.parametrize("n, k, c", [(7, 3, 4), (12, 2, 30)])
    def test_monochromatic_rate_is_the_law_mean(self, n, k, c):
        rep = bound_monochromatic(n, k, c)
        assert rep.lam == pytest.approx(coloring_pmf(ColoringSpec(n, k, c)).mean(), rel=1e-12)


class TestColoringPmf:
    def test_two_points_two_colors(self):
        law = coloring_pmf(ColoringSpec(2, 2, 2))
        assert np.allclose(law.mass, [0.5, 0.5], atol=1e-15)

    def test_mean_matches_rate(self):
        for n, k, c in ((6, 2, 3), (7, 3, 4), (5, 2, 9)):
            law = coloring_pmf(ColoringSpec(n, k, c))
            lam = math.comb(n, k) * c ** (1 - k)
            assert law.mean() == pytest.approx(lam, abs=1e-12)

    def test_single_color_degenerate(self):
        law = coloring_pmf(ColoringSpec(5, 3, 1))
        assert law.prob(math.comb(5, 3)) == pytest.approx(1.0, abs=1e-15)

    def test_against_enumeration(self):
        for n, k, c in ((5, 2, 3), (6, 3, 2), (4, 2, 4)):
            law = coloring_pmf(ColoringSpec(n, k, c))
            brute = oracles.enumerate_coloring(n, k, c)
            m = min(law.mass.size, brute.size)
            assert np.abs(law.mass[:m] - brute[:m]).max() < 1e-13
            assert np.abs(brute[m:]).max(initial=0.0) < 1e-15

    @pytest.mark.parametrize("c", range(1, 18))
    def test_against_exact_rational_allocation(self, c):
        for n, k in ((2, 2), (5, 2), (7, 3), (9, 4)):
            law = coloring_pmf(ColoringSpec(n, k, c))
            exact = oracles.allocation_law_exact(c, n, lambda m: math.comb(m, k))
            exact = np.array([float(x) for x in exact])
            size = max(exact.size, law.mass.size)
            assert np.abs(np.pad(exact, (0, size - exact.size))
                          - np.pad(law.mass, (0, size - law.mass.size))).max() < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ColoringSpec(3, 4, 2)  # k > n
        with pytest.raises(ValueError):
            ColoringSpec(3, 1, 2)  # k < 2
        with pytest.raises(ValueError):
            ColoringSpec(3, 2, 0)


def _sweep_specs(argv: str) -> list:
    """The specs of a ``sweep`` command's grid, as its family builds them."""
    args = cli.build_parser().parse_args(argv.split())
    spec = cli._coloring_spec if args.problem == "coloring" else (
        lambda pt: OccupancySpec(pt["n"], pt["k"], {"birthday-pairs": "pairs",
                                                    "birthday-pair-count": "pair_count",
                                                    "birthday-triples": "triples"}[args.problem]))
    return [spec(pt) for pt in cli.build_grid(args.problem, args)]


def _law(spec, tables=None):
    pmf = coloring_pmf if isinstance(spec, ColoringSpec) else occupancy_pmf
    return pmf(spec, tables)


def _engine_law_error(spec, law) -> float:
    """Largest gap between ``law`` and the exact-rational law of ``spec``."""
    if isinstance(spec, ColoringSpec):
        cells, items, value = spec.n_colors, spec.n_points, lambda m: math.comb(m, spec.tuple_size)
    else:
        cells, items, value = spec.n_boxes, spec.k_balls, BOX_STATISTICS[spec.statistic]
    exact = np.array([float(x) for x in oracles.allocation_law_exact(cells, items, value)])
    size = max(exact.size, law.mass.size)
    return float(np.abs(np.pad(exact, (0, size - exact.size))
                        - np.pad(law.mass, (0, size - law.mass.size))).max())


def _track_joins(monkeypatch) -> tuple[list, list]:
    """Weak references to every join's output table, and how many earlier
    outputs were still alive as each join started."""
    outputs, alive_at_start = [], []
    def tracked(*args, _join=exact_laws._join_ragged):
        alive_at_start.append(sum(ref() is not None for ref in outputs))
        table = _join(*args)
        outputs.append(weakref.ref(table[0]))
        return table
    monkeypatch.setattr(exact_laws, "_join_ragged", tracked)
    return outputs, alive_at_start


def _track_inserts(monkeypatch) -> list:
    """``(cells, top)`` of every table built by ball insertion."""
    built = []
    def tracked(value, cells, top, _insert=exact_laws._insert):
        built.append((cells, top))
        return _insert(value, cells, top)
    monkeypatch.setattr(exact_laws, "_insert", tracked)
    return built


class TestAllocationTables:
    @pytest.mark.parametrize("argv, joins, exact", [
        # the engine sweeps of the many-small benchmark workload: every
        # birthday point has k <= n + 1 balls, so its table inserts them, and
        # an inserted row does not depend on the table's last row
        ("sweep birthday-pairs --n 10..40 --theta 0.5,1,1.5,2", False, True),
        ("sweep birthday-triples --n 8..40 --theta 0.5,1", False, True),
        ("sweep birthday-pair-count --n 10..40 --theta 0.5,1,1.5", False, True),
        ("sweep coloring --n 6..12 --k 2,3 --c 2..6", True, True),
        # past n + 1 balls the tables join, some inner groups shared
        ("sweep birthday-pairs --n 10..24 --k 5,26,40", True, False),
        ("sweep birthday-triples --n 8..20 --k 6,22", True, False),
        # the occupancy-dp workload's coloring sweep: its last joins read the
        # same split rows as the full joins of its shared table
        ("sweep coloring --n 30,40 --k 3 --c 10,20", True, True),
    ])
    def test_plan_laws_match_one_point_laws(self, argv, joins, exact, monkeypatch):
        specs = _sweep_specs(argv)
        alone = [_law(spec) for spec in specs]
        outputs, _ = _track_joins(monkeypatch)
        tables = AllocationTables(specs)
        for spec, law in zip(specs, alone):
            planned = _law(spec, tables)
            assert planned.mass.size == law.mass.size
            assert np.abs(planned.mass - law.mass).max() <= 1e-15
            assert np.array_equal(planned.mass, law.mass) or not exact, spec
        # after the last law the plan holds no table
        assert bool(outputs) == joins
        assert all(ref() is None for ref in outputs)
        assert not tables._live

    def test_joins_against_exact_allocation(self):
        # every point has more balls than boxes + 1, so its laws join
        specs = [OccupancySpec(n, k, stat) for stat in ("pairs", "triples", "pair_count")
                 for n, k in ((2, 5), (5, 9), (9, 12), (7, 20))]
        specs += [ColoringSpec(n, t, c) for n, t, c in ((8, 2, 3), (14, 3, 4), (10, 4, 3))]
        for spec in specs:
            assert _engine_law_error(spec, _law(spec)) <= 1e-15, spec

    def test_shared_prefixes_against_exact_allocation(self):
        # join chains 1-2-4-5, 5-10, 10-11 and 10-20: 5 and 10 are read from
        # their tables, 11 and 20 come from last joins; (10, 12) is listed
        # twice; (10, 3) reads the joined table of 10, while (20, 6) and
        # (11, 9) insert their balls beside the last joins of 20 and 11
        points = [(5, 7), (10, 12), (11, 13), (20, 22), (10, 12), (1, 4), (10, 3), (20, 6),
                  (11, 9)]
        specs = [OccupancySpec(n, k, stat)
                 for stat in ("pairs", "triples", "pair_count") for n, k in points]
        specs += [ColoringSpec(k + 2, 2, n) for n, k in points]
        tables = AllocationTables(specs)
        for spec in specs:
            assert _engine_law_error(spec, _law(spec, tables)) <= 1e-15
        assert not tables._live
        with pytest.raises(ValueError, match="plan"):
            _law(specs[1], tables)

    @pytest.mark.parametrize("spec", [OccupancySpec(20, 40, "pairs"),
                                      OccupancySpec(24, 30, "triples"),
                                      ColoringSpec(40, 3, 23)])
    def test_one_point_plan_holds_two_tables_at_most(self, spec, monkeypatch):
        outputs, alive_at_start = _track_joins(monkeypatch)
        _law(spec)
        # each join reads the one table before it: that and its output
        assert len(alive_at_start) > 3
        assert max(alive_at_start) == 1
        assert all(ref() is None for ref in outputs)

    @pytest.mark.parametrize("stat", ["pairs", "triples", "pair_count"])
    def test_insertion_boundary_against_exact_allocation(self, stat):
        # k = n + 1 is the last ball count with nonnegative weights; there
        # the weight of the one-ball term is exactly 0 and later ones are not
        for n in range(1, 18):
            for k in range(max(0, n - 1), n + 3):
                spec = OccupancySpec(n, k, stat)
                assert _engine_law_error(spec, occupancy_pmf(spec)) <= 1e-15, spec

    @pytest.mark.parametrize("spec", [ColoringSpec(6, 2, 5), ColoringSpec(6, 3, 5),
                                      ColoringSpec(7, 2, 6), ColoringSpec(7, 3, 6)])
    def test_coloring_insertion_against_exact_allocation(self, spec):
        # points = colors + 1
        assert _engine_law_error(spec, coloring_pmf(spec)) <= 1e-15

    @pytest.mark.parametrize("c", range(1, 18))
    def test_coloring_insertion_boundary_against_exact_allocation(self, c):
        # the coloring twin of the ball-count boundary above, at tuple sizes 2-4
        for t in (2, 3, 4):
            for n in range(max(t, c - 1), c + 3):
                spec = ColoringSpec(n, t, c)
                assert _engine_law_error(spec, coloring_pmf(spec)) <= 1e-15, spec

    @pytest.mark.parametrize("spec", [OccupancySpec(n, k, stat)
                                      for stat in ("pairs", "triples", "pair_count")
                                      for n, k in ((1, 2), (9, 10), (40, 41), (200, 30))]
                             + [ColoringSpec(6, 3, 5), ColoringSpec(20, 2, 23)]
                             + [ColoringSpec(k, t, n) for n, k, t in ((1, 2, 2), (9, 10, 3),
                                                                       (40, 41, 4), (200, 30, 5))])
    def test_balls_up_to_boxes_plus_one_never_join(self, spec, monkeypatch):
        outputs, _ = _track_joins(monkeypatch)
        inserted = _track_inserts(monkeypatch)
        _law(spec)
        assert outputs == []
        cells, items = ((spec.n_colors, spec.n_points) if isinstance(spec, ColoringSpec)
                        else (spec.n_boxes, spec.k_balls))
        assert inserted == ([] if cells == 1 else [(cells, items)])

    @pytest.mark.parametrize("spec", [OccupancySpec(n, n + 2, stat)
                                      for stat in ("pairs", "triples", "pair_count")
                                      for n in (2, 9, 40)]
                             + [ColoringSpec(n + 2, t, n) for n, t in ((2, 2), (5, 3), (9, 4),
                                                                        (40, 2))])
    def test_more_balls_than_boxes_plus_one_join(self, spec, monkeypatch):
        outputs, _ = _track_joins(monkeypatch)
        inserted = _track_inserts(monkeypatch)
        _law(spec)
        assert outputs
        assert inserted == []

    @pytest.mark.parametrize("specs", [
        [OccupancySpec(n, k, stat) for n in range(1, 14) for k in range(1, n + 2)]
        for stat in ("pairs", "triples", "pair_count")
    ] + [[ColoringSpec(k, t, n) for n in range(1, 10) for k in range(t, n + 2)]
          for t in (2, 3, 4, 5)])
    def test_insertion_states_bound_the_recurrence_reads(self, specs):
        # row m reads each of rows 0..m-1 at most once
        for spec in specs:
            statistic, cells, items = exact_laws._engine_point(spec)
            _, rows = exact_laws._insert(exact_laws._cell_value(statistic), cells, items)
            reads = sum((items - j) * row.size for j, row in enumerate(rows))
            assert reads <= exact_laws._engine_states(spec), spec

    def test_cap_and_plan_share_the_route_test(self, monkeypatch):
        # triples (1000, 50) insertion reads at most ~2.35e6 values, where
        # the joins would need 9.80e8 states
        spec = OccupancySpec(1000, 50, "triples")
        exact_laws.check_occupancy(spec)
        monkeypatch.setattr(exact_laws, "_inserts", lambda cells, items: False)
        with pytest.raises(ValueError, match=r"needs ~9\.80e\+08 states"):
            exact_laws.check_occupancy(spec)
        outputs, _ = _track_joins(monkeypatch)
        inserted = _track_inserts(monkeypatch)
        _law(OccupancySpec(9, 5, "pairs"))
        assert outputs and not inserted

    def test_colorings_share_the_tables_of_their_tuple_counts(self, monkeypatch):
        # a coloring of n points with c colors is the birthday t-tuple count
        # of n balls in c boxes, so one join chain serves both
        specs = [ColoringSpec(12, 2, 5), OccupancySpec(5, 12, "pair_count"),
                 ColoringSpec(30, 3, 7), OccupancySpec(7, 30, "triples")]
        outputs, _ = _track_joins(monkeypatch)
        tables = AllocationTables(specs)
        laws = [_law(spec, tables) for spec in specs]
        assert len(outputs) == 9
        for coloring, count in zip(laws[::2], laws[1::2]):
            assert np.array_equal(coloring.mass, count.mass)

    @pytest.mark.parametrize("t, stat", [(2, "pair_count"), (3, "triples")])
    def test_colorings_are_tuple_counts(self, t, stat):
        for c in range(1, 9):
            for n in range(t, 21):
                assert np.array_equal(_law(ColoringSpec(n, t, c)).mass,
                                      _law(OccupancySpec(c, n, stat)).mass), (n, c)

    def test_one_table_serves_a_box_count(self, monkeypatch):
        # the points of `sweep birthday-pairs --n 1000 --theta 0.5,1.5`
        specs = _sweep_specs("sweep birthday-pairs --n 1000 --theta 0.5,1.5")
        assert [spec.k_balls for spec in specs] == [16, 47]
        alone = [_law(spec) for spec in specs]
        inserted = _track_inserts(monkeypatch)
        tables = AllocationTables(specs)
        for spec, law in zip(specs, alone):
            assert np.array_equal(_law(spec, tables).mass, law.mass)
        assert inserted == [(1000, 47)]
        assert not tables._live

    @pytest.mark.parametrize("spec", [OccupancySpec(3, 2, stat)
                                      for stat in sorted(BOX_STATISTICS) if stat != "empty"]
                             + [ColoringSpec(6, t, 3) for t in range(2, 6)])
    def test_every_engine_cell_value_is_zero_at_an_empty_cell(self, spec):
        # ball insertion needs it, and `_inserts` takes it as given
        statistic, _, _ = exact_laws._engine_point(spec)
        assert exact_laws._cell_value(statistic)(0) == 0

    def test_empty_boxes_have_no_plan(self):
        with pytest.raises(ValueError, match="closed form"):
            AllocationTables([OccupancySpec(5, 3, "empty")])
