import math
import tracemalloc

import numpy as np
import pytest

from steinpoisson import (
    MatchingSpec,
    SteinParams,
    matching_pmf,
    poisson_pmf,
    tv_distance,
)
from steinpoisson.pair_models import (
    BernoulliStats,
    _mc_arrays,
    OccupancyStats,
    PlainMatchingStats,
    birthday_pairs_model,
    birthday_triples_model,
    coupon_model,
    enumerate_pair_measure,
    is_enumerable,
    matching_model,
    mc_tv_estimate,
    poisson_binomial_model,
    sample_pair,
    sample_state,
    sample_statistics,
    state_stats,
    statistic,
    step_probs,
    substream,
    verify_exchangeability,
    verify_step_probs,
)


class TestModelFactories:
    def test_scaling_constants(self):
        assert poisson_binomial_model([0.2, 0.3]).c == 2.0
        assert matching_model(9).c == 4.0
        assert birthday_pairs_model(10, 6).c == 3.0
        assert birthday_triples_model(10, 6).c == 2.0
        assert coupon_model(10, 6).c == 10.0

    def test_rates(self):
        assert poisson_binomial_model([0.2, 0.3]).lam == pytest.approx(0.5)
        assert matching_model(6).lam == 1.0
        assert matching_model(4, (2, 2)).lam == pytest.approx(2.0)
        assert birthday_pairs_model(100, 10).lam == pytest.approx(0.5)
        n, k = 50, 250
        theta = (k - n * math.log(n)) / n
        assert coupon_model(n, k).lam == pytest.approx(math.exp(-theta))

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_binomial_model([1.5])
        with pytest.raises(ValueError):
            matching_model(1)
        with pytest.raises(ValueError):
            coupon_model(10, 0)


class TestSamplers:
    def test_degenerate_bernoulli(self):
        model = poisson_binomial_model([1.0, 0.0])
        rng = substream(1, 0)
        for _ in range(50):
            assert np.array_equal(sample_state(model, rng), [1, 0])

    def test_uniform_permutation_frequencies(self):
        model = matching_model(2)
        rng = substream(2, 0)
        draws = 100_000
        hits = sum(int(sample_state(model, rng)[0] == 0) for _ in range(draws))
        # identity frequency 1/2 within 4 sigma
        sigma = math.sqrt(draws * 0.25)
        assert abs(hits - draws / 2) < 4 * sigma

    def test_uniform_box_frequencies(self):
        model = birthday_pairs_model(3, 2)
        rng = substream(3, 0)
        draws = 90_000
        counts = np.zeros(9)
        for _ in range(draws):
            b = sample_state(model, rng)
            counts[3 * b[0] + b[1]] += 1
        sigma = math.sqrt(draws * (1 / 9) * (8 / 9))
        assert np.abs(counts - draws / 9).max() < 4.5 * sigma

    def test_pair_step_changes_one_coordinate(self):
        model = coupon_model(6, 10)
        rng = substream(4, 0)
        state = sample_state(model, rng)
        new = sample_pair(model, state, rng)
        assert (np.asarray(state) != np.asarray(new)).sum() <= 1

    def test_transposition_step(self):
        model = matching_model(5)
        rng = substream(5, 0)
        sigma = sample_state(model, rng)
        tau = sample_pair(model, sigma, rng)
        assert sorted(tau) == list(range(5))
        assert (np.asarray(sigma) != np.asarray(tau)).sum() == 2

    def test_determinism(self):
        model = coupon_model(8, 12)
        a = [sample_state(model, substream(99, i)).tolist() for i in range(4)]
        b = [sample_state(model, substream(99, i)).tolist() for i in range(4)]
        assert a == b


class TestStepProbs:
    def test_matching_identity_permutation(self):
        model = matching_model(6)
        up, down = step_probs(model, PlainMatchingStats(w=6, a2=0))
        assert up == 0.0
        assert down == 0.0

    def test_birthday_all_distinct(self):
        model = birthday_pairs_model(9, 4)
        stats = OccupancyStats(m0=5, m1=4, m2=0, m3=0, w=0)
        up, down = step_probs(model, stats)
        assert down == 0.0
        assert up == pytest.approx(4 * (4 - 1) / (4 * 9))

    def test_rejects_inconsistent_stats(self):
        model = birthday_pairs_model(5, 4)
        with pytest.raises(ValueError):
            step_probs(model, OccupancyStats(m0=3, m1=2, m2=2, m3=0, w=0))  # counts > n
        with pytest.raises(ValueError):
            step_probs(model, OccupancyStats(m0=3, m1=2, m2=0, m3=0, w=1))  # w mismatch
        with pytest.raises(ValueError):
            step_probs(model, BernoulliStats(w=1, weighted_sum=0.2))  # wrong family
        coupon = coupon_model(5, 4)
        with pytest.raises(ValueError):
            step_probs(coupon, OccupancyStats(m0=2, m1=2, m2=1, m3=0, w=1))  # w != m0

    def test_probabilities_well_formed_on_sampled_states(self):
        # up and down are probabilities of disjoint events of one move
        rng = substream(77, 0)
        models = [
            poisson_binomial_model(rng.random(12)),
            matching_model(15),
            matching_model(6, (3, 2, 1)),
            birthday_pairs_model(12, 9),
            birthday_triples_model(9, 10),
            coupon_model(8, 20),
        ]
        for model in models:
            for _ in range(40):
                stats = state_stats(model, sample_state(model, rng))
                up, down = step_probs(model, stats)
                assert up >= -1e-15 and down >= -1e-15
                assert up + down <= 1.0 + 1e-12

    def test_rejects_inconsistent_weighted_sum(self):
        model = poisson_binomial_model([0.5, 0.5])
        with pytest.raises(ValueError):
            step_probs(model, BernoulliStats(w=0, weighted_sum=0.9))

    def test_generalized_margin_validation(self):
        model = matching_model(4, (2, 2))
        bad = np.array([[2, 1], [0, 1]])
        with pytest.raises(ValueError):
            step_probs(model, state_stats(model, [0, 1, 2, 3]).__class__(wij=bad))


ENUMERABLE_CASES = [
    ("poisson_binomial", lambda: poisson_binomial_model([0.83, 0.21, 0.56, 0.07, 0.61])),
    ("matching", lambda: matching_model(5)),
    ("generalized_matching", lambda: matching_model(4, (2, 2))),
    ("generalized_matching_6", lambda: matching_model(6, (2, 2, 2))),
    ("birthday_pairs", lambda: birthday_pairs_model(3, 3)),
    ("birthday_triples", lambda: birthday_triples_model(3, 4)),
    ("birthday_triples_4", lambda: birthday_triples_model(4, 4)),
    ("coupon", lambda: coupon_model(3, 3)),
    ("coupon_32", lambda: coupon_model(3, 2)),
]


class TestExactVerification:
    @pytest.mark.parametrize("name,factory", ENUMERABLE_CASES)
    def test_per_state_conditionals_exact(self, name, factory):
        report = verify_step_probs(factory())
        assert report.mode == "exact"
        assert report.max_dev <= 1e-12, (name, report)
        assert report.balance_dev <= 1e-12, (name, report)
        assert report.passed

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: matching_model(4),
            lambda: poisson_binomial_model([0.3, 0.9, 0.44, 0.18, 0.7, 0.05, 0.99, 0.5, 0.2, 0.6]),
            lambda: birthday_pairs_model(3, 2),
            lambda: birthday_triples_model(3, 4),
            lambda: coupon_model(4, 3),
            lambda: matching_model(4, (2, 2)),
        ],
    )
    def test_joint_measure_symmetric_with_margins(self, factory):
        report = verify_exchangeability(factory())
        assert report.symmetric
        assert report.margins_ok

    def test_up_down_rates_balance(self):
        for _, factory in ENUMERABLE_CASES:
            measure = enumerate_pair_measure(factory())
            up = float(np.dot(measure.probs, measure.q_up))
            down = float(np.dot(measure.probs, measure.q_down))
            assert abs(up - down) <= 1e-13

    def test_rejects_non_enumerable(self):
        with pytest.raises(ValueError, match="enumerable"):
            enumerate_pair_measure(matching_model(50))
        assert not is_enumerable(matching_model(50))


class TestMonteCarloVerification:
    def test_matching_large_instance(self):
        report = verify_step_probs(matching_model(40), trials=40_000, rng=substream(11, 0))
        assert report.mode == "mc"
        assert report.passed, report

    def test_coupon_large_instance(self):
        report = verify_step_probs(coupon_model(30, 120), trials=40_000, rng=substream(12, 0))
        assert report.passed, report

    def test_bias_injection_detected(self):
        # harness self-test: a 1/(kn) shift of the down formula must fail at
        # 4 sigma with 10^5 trials
        n, k = 10, 8
        report = verify_step_probs(
            birthday_pairs_model(n, k),
            trials=100_000,
            rng=substream(13, 0),
            bias=(0.0, 1.0 / (k * n)),
        )
        assert not report.passed
        assert report.down_dev > 4.0

    def test_multiset_matching_large_instance(self):
        model = matching_model(12, (4, 4, 4))
        report = verify_step_probs(model, trials=40_000, rng=substream(14, 0))
        assert report.mode == "mc"
        assert report.passed, report

    def test_multiset_bias_injection_detected(self):
        # a 1/C(12, 2) shift of the down formula fails the multiset gate
        report = verify_step_probs(
            matching_model(12, (4, 4, 4)), trials=40_000, rng=substream(14, 0), bias=(0.0, 1 / 66)
        )
        assert not report.passed
        assert report.down_dev > 4.0

    def test_multiset_batch_memory_is_bounded(self):
        # 100 letters: a whole-chunk letter-transfer table would take
        # 8192 x 100 x 100 int64 entries (~650 MB); blocks keep it near the
        # size of the chunk's state matrix
        model = matching_model(200, (2,) * 100)
        tracemalloc.start()
        try:
            _mc_arrays(model, 8192, substream(15, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: birthday_pairs_model(365, 23),
            lambda: birthday_triples_model(50, 12),
            lambda: coupon_model(30, 60),
        ],
    )
    def test_boxes_batch_matches_one_state_at_a_time(self, factory):
        # the batch draws the states, then each row's ball and new box, in
        # that order; its dw must equal W recomputed after the move
        model, rows = factory(), 300
        up, down, dw, w = _mc_arrays(model, rows, substream(16, 0))
        rng = substream(16, 0)
        states = rng.integers(0, model.n, (rows, model.k))
        ball, newbox = rng.integers(0, model.k, rows), rng.integers(0, model.n, rows)
        for r in range(rows):
            moved = states[r].copy()
            moved[ball[r]] = newbox[r]
            assert dw[r] == statistic(model, moved) - statistic(model, states[r])
            assert w[r] == statistic(model, states[r])
            assert (up[r], down[r]) == pytest.approx(step_probs(model, state_stats(model, states[r])))

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            verify_step_probs(matching_model(30), trials=100, rng=substream(1, 0))


class TestSampleStatistics:
    def test_matches_exact_law(self):
        model = matching_model(12)
        w = sample_statistics(model, 60_000, substream(21, 0))
        law = matching_pmf(MatchingSpec(12))
        emp = np.bincount(w, minlength=law.mass.size) / w.size
        assert np.abs(emp[: law.mass.size] - law.mass).max() < 0.01

    def test_multiset_statistics(self):
        model = matching_model(4, (2, 2))
        w = sample_statistics(model, 30_000, substream(22, 0))
        law = matching_pmf(MatchingSpec(4, (2, 2)))
        emp = np.bincount(w, minlength=law.mass.size) / w.size
        assert np.abs(emp[: law.mass.size] - law.mass).max() < 0.02


class TestMcTvEstimate:
    def test_self_target_is_small(self):
        model = matching_model(30)
        target = matching_pmf(MatchingSpec(30))
        est, se = mc_tv_estimate(model, target, 100_000, substream(31, 0))
        assert est <= 0.01
        assert se > 0.0

    def test_matching_against_poisson(self):
        model = matching_model(100)
        target = poisson_pmf(SteinParams(1.0))
        exact = tv_distance(matching_pmf(MatchingSpec(100)), target)
        est, se = mc_tv_estimate(model, target, 200_000, substream(32, 0))
        assert abs(est - exact) <= 3.0 * se

    def test_rejects_small_samples(self):
        model = matching_model(10)
        target = poisson_pmf(SteinParams(1.0))
        with pytest.raises(ValueError):
            mc_tv_estimate(model, target, 0, substream(1, 0))
        with pytest.raises(ValueError):
            mc_tv_estimate(model, target, 5_000, substream(1, 0))
