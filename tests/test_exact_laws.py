import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinpoisson import (
    ColoringSpec,
    MatchingSpec,
    OccupancySpec,
    coloring_pmf,
    coupon_collector_diagnostics,
    derangement_numbers,
    matching_moments,
    matching_pmf,
    occupancy_moments,
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
    _empty_boxes_counts,
    _empty_boxes_mass_certified,
    _empty_boxes_mass_exact,
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
        with pytest.raises(ValueError, match="success probability must lie in"):
            poisson_binomial_pmf([0.5, bad])
        with pytest.raises(ValueError, match="success probability must lie in"):
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


class TestMatchingMoments:
    def test_plain_values(self):
        for n in (2, 6, 50):
            mom = matching_moments(MatchingSpec(n))
            assert mom.lam == pytest.approx(1.0, abs=1e-15)
            assert mom.ew2 == pytest.approx(2.0, abs=1e-12)
            assert mom.e2a2 == 1.0

    def test_card_deck_rate(self):
        mom = matching_moments(MatchingSpec(52, (4,) * 13))
        assert mom.lam == pytest.approx(4.0, abs=1e-15)
        assert mom.e2a2 is None

    def test_two_pairs_against_enumeration(self):
        spec = MatchingSpec(4, (2, 2))
        mom = matching_moments(spec)
        brute = oracles.matching_moment_oracle(4, spec.word())
        assert mom.lam == pytest.approx(brute["lam"], abs=1e-13)
        assert mom.ew2 == pytest.approx(brute["ew2"], abs=1e-12)
        assert mom.cross_term == pytest.approx(brute["cross_term"], abs=1e-12)
        assert np.allclose(mom.ewi, brute["ewi"], atol=1e-13)
        assert np.allclose(mom.ewi2, brute["ewi2"], atol=1e-13)
        assert np.allclose(mom.ewij_wji, brute["ewij_wji"], atol=1e-13)

    def test_triple_letters_against_enumeration(self):
        spec = MatchingSpec(6, (3, 2, 1))
        mom = matching_moments(spec)
        brute = oracles.matching_moment_oracle(6, spec.word())
        assert mom.lam == pytest.approx(brute["lam"], abs=1e-13)
        assert mom.ew2 == pytest.approx(brute["ew2"], abs=1e-12)
        assert np.allclose(mom.ewi2, brute["ewi2"], atol=1e-12)
        assert np.allclose(mom.ewij_wji, brute["ewij_wji"], atol=1e-12)


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
            (3, 6, "exact_level", oracles.stat_level(2)),
        ],
    )
    def test_against_enumeration(self, n, k, stat, oracle_stat):
        spec = (
            OccupancySpec(n, k, stat, level=2)
            if stat == "exact_level"
            else OccupancySpec(n, k, stat)
        )
        law = occupancy_pmf(spec)
        brute = oracles.enumerate_occupancy(n, k, lambda c: oracle_stat(c), law.support_max)
        assert np.abs(law.mass - brute).max() < 1e-13

    def test_exact_level_zero_equals_empty(self):
        a = occupancy_pmf(OccupancySpec(6, 9, "exact_level", level=0))
        b = occupancy_pmf(OccupancySpec(6, 9, "empty"))
        size = max(a.mass.size, b.mass.size)
        pa = np.zeros(size)
        pb = np.zeros(size)
        pa[: a.mass.size] = a.mass
        pb[: b.mass.size] = b.mass
        assert np.abs(pa - pb).max() < 1e-13

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
        "pairs": lambda c, level: c >= 2,
        "triples": lambda c, level: math.comb(c, 3),
        "empty": lambda c, level: c == 0,
        "exact_level": lambda c, level: c == level,
        "pair_count": lambda c, level: math.comb(c, 2),
    }

    @pytest.mark.parametrize("stat", sorted(BOX_STATISTICS))
    @pytest.mark.parametrize("n", range(1, 18))
    def test_against_exact_rational_allocation(self, n, stat):
        # 1..17 boxes run every odd/even bit path of the powering
        assert set(self.BOX_VALUES) == set(BOX_STATISTICS)
        for k in (0, 1, 2, 5, 9):
            for level in (0, 1, 2) if stat == "exact_level" else (None,):
                law = occupancy_pmf(OccupancySpec(n, k, stat, level=level))
                exact = oracles.allocation_law_exact(n, k, lambda c: self.BOX_VALUES[stat](c, level))
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
        for mult in SMALL_PARTITIONS[1:]:  # (2, 2), (3, 2, 1), (2, 2, 2) among them; n >= 2
            spec = MatchingSpec(sum(mult), mult)
            assert matching_pmf(spec).mean() == pytest.approx(
                matching_moments(spec).lam, abs=1e-12
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
        with pytest.raises(ValueError):
            OccupancySpec(2, 2, "exact_level")  # missing level
        with pytest.raises(ValueError):
            OccupancySpec(2, 2, "pairs", level=1)


class TestOccupancyMoments:
    def test_single_ball_level(self):
        mom = occupancy_moments(OccupancySpec(2, 2, "exact_level", level=1), levels=[1])
        assert mom.em[1] == pytest.approx(1.0, abs=1e-15)

    def test_triples_rate(self):
        for n, k in ((10, 9), (50, 40)):
            mom = occupancy_moments(OccupancySpec(n, k, "triples"))
            assert mom.ew == pytest.approx(math.comb(k, 3) / n**2, rel=1e-14)

    def test_against_enumeration(self):
        n, k = 3, 3
        brute = oracles.occupancy_level_moments(n, k)
        mom = occupancy_moments(OccupancySpec(n, k, "empty"), levels=range(k + 1))
        for l in range(k + 1):
            assert mom.em[l] == pytest.approx(brute["em"][l], abs=1e-13)
            assert mom.em2[l] == pytest.approx(brute["em2"][l], abs=1e-13)

    def test_empty_rate(self):
        mom = occupancy_moments(OccupancySpec(9, 20, "empty"))
        assert mom.ew == pytest.approx(9 * (1 - 1 / 9) ** 20, rel=1e-14)

    def test_pairs_rate_matches_law(self):
        spec = OccupancySpec(6, 7, "pairs")
        assert occupancy_moments(spec).ew == pytest.approx(occupancy_pmf(spec).mean(), abs=1e-12)


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


def _track_joins(monkeypatch) -> tuple[list, list]:
    """Weak references to every join's output table, and how many earlier
    outputs were still alive as each join started."""
    outputs, alive_at_start = [], []
    for name in ("_join_dense", "_join_ragged"):
        def tracked(*args, _join=getattr(exact_laws, name)):
            alive_at_start.append(sum(ref() is not None for ref in outputs))
            table = _join(*args)
            outputs.append(weakref.ref(table if isinstance(table, np.ndarray) else table[0]))
            return table
        monkeypatch.setattr(exact_laws, name, tracked)
    return outputs, alive_at_start


class TestAllocationTables:
    # the engine sweeps of the many-small benchmark workload
    @pytest.mark.parametrize("argv", [
        "sweep birthday-pairs --n 10..40 --theta 0.5,1,1.5,2",
        "sweep birthday-triples --n 8..40 --theta 0.5,1",
        "sweep birthday-pair-count --n 10..40 --theta 0.5,1,1.5",
        "sweep coloring --n 6..12 --k 2,3 --c 2..6",
    ])
    def test_plan_laws_match_one_point_laws(self, argv, monkeypatch):
        specs = _sweep_specs(argv)
        alone = [_law(spec) for spec in specs]
        outputs, _ = _track_joins(monkeypatch)
        tables = AllocationTables(specs)
        for spec, law in zip(specs, alone):
            planned = _law(spec, tables)
            assert planned.mass.size == law.mass.size
            assert np.abs(planned.mass - law.mass).max() <= 1e-15
        # after the last law the plan holds no table
        assert outputs and all(ref() is None for ref in outputs)
        assert not tables._live

    def test_shared_prefixes_against_exact_allocation(self):
        # chains 1-2-4-5, 5-10, 10-11 and 10-20: 5 and 10 are read from their
        # tables, 11 and 20 come from last joins; (10, 3) is listed twice
        points = [(5, 7), (10, 3), (11, 9), (20, 6), (10, 3), (1, 4)]
        specs = [OccupancySpec(n, k, stat, level=1 if stat == "exact_level" else None)
                 for stat in ("pairs", "triples", "pair_count", "exact_level") for n, k in points]
        specs += [ColoringSpec(k + 2, 2, n) for n, k in points]
        tables = AllocationTables(specs)
        for spec in specs:
            if isinstance(spec, ColoringSpec):
                cells, items, value = spec.n_colors, spec.n_points, lambda m: math.comb(m, 2)
            else:
                box = BOX_STATISTICS[spec.statistic]
                cells, items = spec.n_boxes, spec.k_balls
                value = lambda c, box=box, level=spec.level: box(c, level)  # noqa: E731
            law = _law(spec, tables)
            exact = np.array([float(x) for x in oracles.allocation_law_exact(cells, items, value)])
            size = max(exact.size, law.mass.size)
            assert np.abs(np.pad(exact, (0, size - exact.size))
                          - np.pad(law.mass, (0, size - law.mass.size))).max() <= 1e-15
        assert not tables._live
        with pytest.raises(ValueError, match="plan"):
            _law(specs[1], tables)

    @pytest.mark.parametrize("spec", [OccupancySpec(1000, 47, "pairs"),
                                      OccupancySpec(216, 36, "triples"),
                                      ColoringSpec(40, 3, 23)])
    def test_one_point_plan_holds_two_tables_at_most(self, spec, monkeypatch):
        outputs, alive_at_start = _track_joins(monkeypatch)
        _law(spec)
        # each join reads the one table before it: that and its output
        assert len(alive_at_start) > 3
        assert max(alive_at_start) == 1
        assert all(ref() is None for ref in outputs)

    def test_empty_boxes_have_no_plan(self):
        with pytest.raises(ValueError, match="closed form"):
            AllocationTables([OccupancySpec(5, 3, "empty")])


class TestCouponDiagnostics:
    def test_no_balls(self):
        diag = coupon_collector_diagnostics(5, 0)
        assert diag.ew == 5.0
        assert diag.p == 0.0
        assert diag.var_n1_exact == 0.0

    def test_small_case_against_enumeration(self):
        diag = coupon_collector_diagnostics(3, 2)
        brute = oracles.coupon_oracle(3, 2)
        assert diag.ew == pytest.approx(brute["ew"], abs=1e-14)
        assert diag.en1w == pytest.approx(brute["en1w"], abs=1e-13)
        assert diag.var_n1_exact == pytest.approx(brute["var_n1"], abs=1e-12)
        assert diag.p == pytest.approx(brute["p_single"], abs=1e-14)

    def test_more_cases_against_enumeration(self):
        for n, k in ((3, 4), (4, 3), (5, 5)):
            diag = coupon_collector_diagnostics(n, k)
            brute = oracles.coupon_oracle(n, k)
            assert diag.ew == pytest.approx(brute["ew"], abs=1e-12)
            assert diag.en1w == pytest.approx(brute["en1w"], abs=1e-12)
            assert diag.var_n1_exact == pytest.approx(brute["var_n1"], abs=1e-11)

    def test_variance_bound_dominates_on_sweep(self):
        for n in range(50, 501, 50):
            for theta in (-1.0, 0.0, 1.0):
                k = max(1, round(n * math.log(n) + theta * n))
                diag = coupon_collector_diagnostics(n, k)
                assert diag.var_n1_exact <= diag.var_n1_bound + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            coupon_collector_diagnostics(2, 5)
        with pytest.raises(ValueError):
            coupon_collector_diagnostics(5, -1)
