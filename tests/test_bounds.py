import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinpoisson import (
    DependencyGraph,
    MatchingSpec,
    OccupancySpec,
    SteinParams,
    bound_birthday_pairs,
    bound_birthday_triples,
    bound_coupling_coupon,
    bound_coupling_matching,
    bound_coupling_pair_count,
    bound_coupling_poisson_binomial,
    bound_coupon_collector,
    bound_coupon_negative_association,
    bound_dependency_graph,
    bound_dependency_graph_general,
    bound_generalized_matching,
    bound_matching,
    bound_monochromatic,
    bound_negative_association,
    bound_poisson_binomial,
    coloring_dependency_graph,
    matching_pmf,
    occupancy_pmf,
    poisson_binomial_pmf,
    poisson_pmf,
    tv_distance,
)
from steinpoisson.bounds import TRIPLE_SURROGATE_C, _report, _singleton_variance_bound

import oracles


class TestPoissonBinomialBound:
    def test_uniform_family_closed_form(self):
        for lam, n in ((0.5, 10), (1.0, 25), (2.0, 40)):
            rep = bound_poisson_binomial([lam / n] * n)
            expected = -math.expm1(-lam) * lam / (2 * n)
            assert rep.raw_value == pytest.approx(expected, rel=1e-12)
            assert rep.convention == "tv"

    def test_single_trial(self):
        rep = bound_poisson_binomial([1.0])
        assert rep.raw_value == pytest.approx(-math.expm1(-1.0) / 2.0, abs=1e-15)

    def test_harmonic_ratio_approaches_limit(self):
        # p_i = 1/i: the bound over pi^2/(12 log n) tends to 1 from below
        ratios = []
        for n in (10**2, 10**3, 10**4, 10**5):
            p = 1.0 / np.arange(1, n + 1)
            rep = bound_poisson_binomial(p)
            ratios.append(rep.raw_value / (math.pi**2 / (12 * math.log(n))))
        assert all(0.75 < r < 1.05 for r in ratios)
        gaps = [abs(1 - r) for r in ratios]
        assert gaps == sorted(gaps, reverse=True)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            bound_poisson_binomial([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probs(self, bad):
        with pytest.raises(ValueError, match="success probabilities must lie in"):
            bound_poisson_binomial([0.5, bad])
        with pytest.raises(ValueError, match="success probabilities must lie in"):
            bound_coupling_poisson_binomial([0.5, bad])

    def test_sum_of_squares_reported(self):
        p = np.array([0.1, 0.25, 0.7])
        rep = bound_poisson_binomial(p)
        sum_sq = float(np.sum(p**2))
        assert rep.inputs["sum_p_sq"] == sum_sq
        assert rep.raw_value == -math.expm1(-rep.lam) / (2.0 * rep.lam) * sum_sq

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10), st.randoms())
    def test_permutation_invariant(self, p, rnd):
        shuffled = list(p)
        rnd.shuffle(shuffled)
        assert bound_poisson_binomial(p).raw_value == pytest.approx(
            bound_poisson_binomial(shuffled).raw_value, rel=1e-12
        )


def _vector_reference(p, coupling: bool) -> tuple[float, float]:
    """(lam, raw) of one vector by the per-vector formulas: numpy sums of the
    1-D vector, and math.expm1 of each rate."""
    probs = np.asarray(p, dtype=float)
    lam = float(probs.sum())
    sum_sq = float(np.sum(probs**2))
    if coupling:
        return lam, -math.expm1(-lam) * (sum_sq / lam)
    return lam, -math.expm1(-lam) / (2.0 * lam) * sum_sq


POISSON_BINOMIAL_BOUNDS = {
    "default": bound_poisson_binomial,
    "coupling": bound_coupling_poisson_binomial,
}


class TestPoissonBinomialBlocks:
    """A matrix of equal-length vectors gives, row by row, the report of each
    vector alone, bit for bit."""

    @pytest.mark.parametrize("kind", ["default", "coupling"])
    def test_block_reports_equal_vector_reports(self, kind):
        bound = POISSON_BINOMIAL_BOUNDS[kind]
        rng = np.random.default_rng(20261018)
        rates = 0
        # lengths 1..40 cross numpy's 8-way pairwise summation
        for n in range(1, 41):
            rows = rng.random((150, n))
            rows[0] = 1.0
            rows[1, -1] = 1.0
            if n > 1:  # zero entries, keeping every rate positive
                rows[2, ::2] = 0.0
                rows[3, 0] = 0.0
                rows[4, 1:] = 0.0
            block = bound(rows)
            assert len(block) == len(rows)
            for row, report in zip(rows, block):
                assert report == bound(row)
                assert (report.lam, report.raw_value) == _vector_reference(row, kind == "coupling")
            assert bound(rows[:1]) == [bound(rows[0])]
            rates += len(rows)
        assert rates >= 5000

    @pytest.mark.parametrize("kind", ["default", "coupling"])
    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, math.inf])
    def test_invalid_row_raises_the_vector_message(self, kind, bad):
        rows = np.full((4, 3), 0.2)
        rows[2, 1] = bad
        with pytest.raises(ValueError, match=r"^success probabilities must lie in \[0, 1\]$"):
            POISSON_BINOMIAL_BOUNDS[kind](rows)
        with pytest.raises(ValueError, match=r"^success probabilities must lie in \[0, 1\]$"):
            poisson_binomial_pmf(rows)

    @pytest.mark.parametrize("kind", ["default", "coupling"])
    def test_zero_rate_refused_by_both_bounds(self, kind):
        # stein_core's one rate rule: the sweep's precheck and the Poisson
        # target refuse the point with the same message (see test_cli)
        bound = POISSON_BINOMIAL_BOUNDS[kind]
        with pytest.raises(ValueError, match=r"^lam must be a positive finite real$"):
            bound([0.0, 0.0])
        rows = np.full((3, 2), 0.3)
        rows[1] = 0.0
        with pytest.raises(ValueError, match=r"^lam must be a positive finite real$"):
            bound(rows)


class TestMatchingBound:
    def test_value(self):
        rep = bound_matching(100)
        assert rep.value == 0.02
        assert rep.convention == "set_distance"

    def test_cap_at_two(self):
        rep = bound_matching(2)
        assert rep.value == 1.0

    def test_sharp_companion(self):
        rep = bound_matching(12)
        assert rep.inputs["sharp_reference"] == pytest.approx(
            2**12 / math.factorial(12), rel=1e-12
        )
        # log-space evaluation keeps huge n finite
        assert bound_matching(300).inputs["sharp_reference"] == 0.0 or True
        assert math.isfinite(bound_matching(300).inputs["sharp_reference"])

    def test_decreasing_in_n(self):
        values = [bound_matching(n).value for n in range(2, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bound_matching(1)


class TestGeneralizedMatchingBound:
    def test_constant_multiplicity_form(self):
        # for l_i = l the classical simplification 3.5 l^{3/2}/(n-1) replaces
        # 3/(2n) by 3/(2(n-1)): it dominates the exact value and matches it
        # to first order
        for l, k in ((2, 5), (3, 4), (4, 13)):
            n = l * k
            rep = bound_generalized_matching([l] * k)
            simplified = 3.5 * l**1.5 / (n - 1)
            assert rep.raw_value <= simplified + 1e-12
            assert rep.raw_value / simplified > 0.9
            assert rep.lam == pytest.approx(float(l), abs=1e-12)

    def test_all_ones_reduction(self):
        # lam = 1 and mu = n, so the formula collapses to
        # 1.4 [1/(n-1) + 3/(2n)]
        n = 9
        rep = bound_generalized_matching([1] * n)
        assert rep.raw_value == pytest.approx(1.4 * (1 / (n - 1) + 3 / (2 * n)), rel=1e-12)
        # both routes bound the same exact TV
        exact = tv_distance(matching_pmf(MatchingSpec(n)), poisson_pmf(SteinParams(1.0)))
        assert rep.value >= exact
        assert bound_matching(n).value >= exact

    def test_card_deck_pinned(self):
        rep = bound_generalized_matching([4] * 13)
        assert rep.lam == 4.0
        assert rep.inputs["mu"] == 832
        assert rep.raw_value == pytest.approx(0.5426847662141779, abs=1e-15)


class TestBirthdayBounds:
    def test_theta_one_instance(self):
        rep = bound_birthday_pairs(100, 10)
        assert rep.raw_value == pytest.approx(25 / 120 + 1 / 200, rel=1e-12)
        assert rep.lam == pytest.approx(0.5)

    def test_no_balls_degenerate(self):
        rep = bound_birthday_pairs(100, 0)
        assert rep.value == 0.0
        assert rep.degenerate

    def test_theta_two_pinned(self):
        rep = bound_birthday_pairs(10_000, 200)
        assert rep.raw_value == pytest.approx(0.0967793481183988, abs=1e-15)

    def test_triples_scaling(self):
        # along k = theta * n^(2/3) the surrogate scales as theta^4 / n^(1/3)
        for n, k in ((64, 16), (216, 36)):
            rep = bound_birthday_triples(n, k)
            theta = k / n ** (2 / 3)
            assert rep.raw_value == pytest.approx(
                TRIPLE_SURROGATE_C * theta**4 / n ** (1 / 3), rel=1e-9
            )
            assert rep.surrogate

    def test_triples_vanishing(self):
        assert bound_birthday_triples(10**6, 3).value < 1e-14

    def test_triples_requires_three_balls(self):
        with pytest.raises(ValueError):
            bound_birthday_triples(10, 2)


class TestCouponBound:
    def test_large_theta_vanishes(self):
        # the chain decays like exp(-theta/2) through the variance term
        n = 100
        values = []
        for theta in (1, 4, 10, 16):
            k = round(n * math.log(n) + theta * n)
            rep = bound_coupon_collector(n, k)
            assert rep.surrogate
            values.append(rep.value)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_rate_field(self):
        n, k = 200, round(200 * math.log(200))
        rep = bound_coupon_collector(n, k)
        theta = (k - n * math.log(n)) / n
        assert rep.lam == pytest.approx(math.exp(-theta), rel=1e-12)

    def test_negative_theta_is_finite_and_positive(self):
        n = 50
        k = round(n * math.log(n) - 0.8 * n)
        rep = bound_coupon_collector(n, k)
        assert rep.raw_value > 0
        assert math.isfinite(rep.raw_value)

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_coupon_collector(2, 5)

    def test_rate_underflow_is_refused(self):
        # lam = exp(-theta) is 0 at theta ~ 1665; the chain divides by sqrt(lam)
        with pytest.raises(ValueError, match="lam must be a positive finite real"):
            bound_coupon_collector(3, 5000)

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 1), (3, 2), (3, 4), (4, 3), (5, 5)])
    def test_singleton_variance_against_enumeration(self, n, k):
        assert oracles.singleton_variance(n, k) == oracles.coupon_oracle(n, k)

    def test_variance_bound_dominates_on_sweep(self):
        # the chain's closed-form variance bound against the exact variance
        for n in range(50, 501, 50):
            for theta in (-1.0, 0.0, 1.0):
                k = max(1, round(n * math.log(n) + theta * n))
                assert oracles.singleton_variance(n, k) <= _singleton_variance_bound(n, k)


class TestCouplingBounds:
    def test_matching(self):
        rep = bound_coupling_matching(100)
        assert rep.raw_value == pytest.approx(-math.expm1(-1.0) * 0.02, rel=1e-12)

    def test_poisson_binomial(self):
        rep = bound_coupling_poisson_binomial([0.5, 0.5])
        assert rep.lam == pytest.approx(1.0)
        assert rep.raw_value == pytest.approx(-math.expm1(-1.0) * 0.5, rel=1e-12)

    def test_birthday_degenerate(self):
        rep = bound_coupling_pair_count(10, 0)
        assert rep.value == 0.0
        assert rep.degenerate

    def test_coupon_form(self):
        n, k = 20, 65
        rep = bound_coupling_coupon(n, k)
        lam = n * (1 - 1 / n) ** k
        expected = -math.expm1(-lam) * (1 - 1 / n) ** k * (1 + k / n)
        assert rep.raw_value == pytest.approx(expected, rel=1e-12)

    def test_coupon_domain(self):
        # at n = 2, k = 1 the coupling value 0.474 is below the exact TV 1 - e^-1
        for n, k in ((2, 1), (3, 0), (2, 5)):
            with pytest.raises(ValueError, match="coupon coupling needs n >= 3 boxes"):
                bound_coupling_coupon(n, k)


class TestNegativeAssociationBound:
    def test_poisson_signature_zero(self):
        assert bound_negative_association(2.0, 2.0).value == 0.0

    def test_half_variance(self):
        rep = bound_negative_association(1.0, 0.5)
        assert rep.raw_value == pytest.approx(-math.expm1(-1.0) * 0.5, abs=1e-15)

    def test_rejects_overdispersion(self):
        with pytest.raises(ValueError, match="negative association"):
            bound_negative_association(1.0, 1.5)

    def test_empty_box_dominance(self):
        n, k = 10, 30
        lam = n * (1 - 1 / n) ** k
        sigma2 = lam + n * (n - 1) * (1 - 2 / n) ** k - lam * lam
        rep = bound_negative_association(lam, sigma2)
        law = occupancy_pmf(OccupancySpec(n, k, "empty"))
        exact = tv_distance(law, poisson_pmf(SteinParams(lam)))
        assert rep.value >= exact
        assert bound_coupon_negative_association(n, k) == rep

    def test_coupon_domain(self):
        # one ball leaves exactly n - 1 boxes empty: sigma^2 = 0
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            bound_coupon_negative_association(10, 1)
        for n, k in ((2, 5), (5, 0)):
            with pytest.raises(ValueError, match="needs n >= 3 boxes and k >= 1 balls"):
                bound_coupon_negative_association(n, k)


class TestDependencyGraph:
    def test_empty_edges_reduce_to_independent(self):
        p = np.array([0.1, 0.2, 0.3])
        g = DependencyGraph(p, tuple(frozenset([i]) for i in range(3)), {})
        rep = bound_dependency_graph(g)
        lam = p.sum()
        assert rep.raw_value == pytest.approx(min(1, 1 / lam) * float((p**2).sum()), rel=1e-12)

    def test_complete_pair(self):
        q = 0.3
        g = DependencyGraph(
            np.array([q, q]),
            (frozenset([0, 1]), frozenset([0, 1])),
            {(0, 1): q * q},
        )
        rep = bound_dependency_graph(g)
        assert rep.raw_value == pytest.approx(min(1, 1 / (2 * q)) * (2 * q**2 + 4 * q**2), rel=1e-12)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            DependencyGraph(
                np.array([0.1, 0.1]),
                (frozenset([0, 1]), frozenset([1])),
                {(0, 1): 0.01},
            )

    def test_nan_marginal_rejected(self):
        with pytest.raises(ValueError, match="marginal probabilities"):
            DependencyGraph(p=[0.5, math.nan], neighborhoods=({0}, {1}), p_pair={})

    def test_joint_probability_validated(self):
        with pytest.raises(ValueError):
            DependencyGraph(
                np.array([0.1, 0.2]),
                (frozenset([0, 1]), frozenset([0, 1])),
                {(0, 1): 0.15},  # above min(p_i, p_j)
            )
        with pytest.raises(ValueError, match="missing joint"):
            DependencyGraph(
                np.array([0.1, 0.2]),
                (frozenset([0, 1]), frozenset([0, 1])),
                {},
            )

    def test_coloring_graph_matches_closed_form(self):
        for n, k, c in ((6, 2, 3), (6, 2, 7), (8, 3, 4)):
            g = coloring_dependency_graph(n, k, c)
            graph_value = bound_dependency_graph(g)
            closed = bound_monochromatic(n, k, c)
            assert graph_value.raw_value == pytest.approx(closed.raw_value, abs=1e-12)
            assert graph_value.lam == pytest.approx(closed.lam, rel=1e-14)


class TestGeneralDependencyBound:
    def test_recovers_graph_bound(self):
        g = coloring_dependency_graph(6, 2, 4)
        z_means = np.array(
            [sum(g.p[j] for j in nb if j != i) for i, nb in enumerate(g.neighborhoods)]
        )
        xz_means = np.array(
            [sum(g.pair_prob(i, j) for j in nb if j != i) for i, nb in enumerate(g.neighborhoods)]
        )
        etas = np.zeros(g.size)
        general = bound_dependency_graph_general(g, etas, z_means, xz_means)
        direct = bound_dependency_graph(g)
        assert general.raw_value == pytest.approx(direct.raw_value, abs=1e-12)

    def test_all_zero_inputs(self):
        p = np.array([0.2, 0.4])
        g = DependencyGraph(p, (frozenset([0]), frozenset([1])), {})
        rep = bound_dependency_graph_general(g, [0, 0], [0, 0], [0, 0])
        lam = p.sum()
        assert rep.raw_value == pytest.approx(min(1, 1 / lam) * float((p**2).sum()), rel=1e-12)

    def test_rejects_negative_inputs(self):
        p = np.array([0.2, 0.4])
        g = DependencyGraph(p, (frozenset([0]), frozenset([1])), {})
        with pytest.raises(ValueError):
            bound_dependency_graph_general(g, [-1, 0], [0, 0], [0, 0])


class TestMonochromaticBound:
    def test_single_color_capped(self):
        rep = bound_monochromatic(6, 2, 1)
        assert rep.lam == math.comb(6, 2)
        assert rep.value == 1.0

    def test_pinned_instance(self):
        rep = bound_monochromatic(6, 2, 3)
        assert rep.raw_value == pytest.approx(5.666666666666666, rel=1e-12)
        assert rep.lam == pytest.approx(5.0)

    def test_pair_case_order_matches_box_bound(self):
        # coloring n points with c colors ~ dropping n balls into c boxes;
        # for k = 2 the tuple bound and the box-pair bound share the same
        # order as c grows with n fixed
        n = 12
        for c in (144, 288, 576):
            tuple_bound = bound_monochromatic(n, 2, c).raw_value
            box_bound = bound_birthday_pairs(c, n).raw_value
            assert 0.1 < tuple_bound / box_bound < 10.0

    def test_convention_conversion_roundtrip(self):
        rep = bound_monochromatic(8, 3, 9)
        assert rep.in_convention(rep.convention) == rep.value
        other = rep.in_convention("set_distance")
        assert other == pytest.approx(min(1.0, rep.raw_value * 2), rel=1e-15)
        with pytest.raises(ValueError):
            rep.in_convention("other")

    def test_convention_coherent_verdicts(self):
        # converting a report's convention never reverses a dominance verdict
        # as long as the distance converts with it: under 'tv' bookkeeping the
        # comparison target is half the standard TV
        cases = [
            (bound_matching(8), tv_distance(matching_pmf(MatchingSpec(8)), poisson_pmf(SteinParams(1.0)))),
            (bound_poisson_binomial([0.7]), 0.3524),
            (bound_coupling_matching(8), tv_distance(matching_pmf(MatchingSpec(8)), poisson_pmf(SteinParams(1.0)))),
        ]
        for rep, exact in cases:
            set_verdict = rep.in_convention("set_distance") >= exact - 1e-12
            tv_verdict = rep.in_convention("tv") >= exact / 2.0 - 1e-12
            assert set_verdict == tv_verdict


class TestReport:
    @pytest.mark.parametrize("raw", [math.nan, math.inf])
    def test_rejects_non_finite_raw(self, raw):
        with pytest.raises(ValueError, match="non-finite"):
            _report("t", 1.0, raw, "tv")

    def test_rejects_negative_raw(self):
        with pytest.raises(ValueError, match="negative"):
            _report("t", 1.0, -0.5, "tv")
