import math
import tracemalloc

import numpy as np
import pytest

import oracles
from steinpoisson import (
    MatchingSpec,
    OccupancySpec,
    SteinParams,
    matching_pmf,
    occupancy_pmf,
    poisson_binomial_pmf,
    poisson_pmf,
    tv_distance,
)
from steinpoisson import pair_models
from steinpoisson.pair_models import (
    BernoulliStats,
    _mc_arrays,
    OccupancyStats,
    PlainMatchingStats,
    birthday_pairs_model,
    birthday_triples_model,
    coupon_model,
    enumerate_pair_measure,
    exact_joint_measure,
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

    @pytest.mark.parametrize("labels", [[400] * 23, [-1] + [0] * 22, [365] + [0] * 22])
    def test_scalar_api_rejects_labels_outside_the_boxes(self, labels):
        model = birthday_pairs_model(365, 23)
        for call in (lambda: statistic(model, labels), lambda: state_stats(model, labels),
                     lambda: sample_pair(model, labels, substream(3, 0))):
            with pytest.raises(ValueError, match="ball labels"):
                call()
        assert statistic(model, [364] * 23) == 1  # one box, the last, holds every ball

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

SYMMETRIC_PAIR_CASES = [
    lambda: matching_model(4),
    lambda: poisson_binomial_model([0.3, 0.9, 0.44, 0.18, 0.7, 0.05, 0.99, 0.5, 0.2, 0.6]),
    lambda: birthday_pairs_model(3, 2),
    lambda: birthday_triples_model(3, 4),
    lambda: coupon_model(4, 3),
    lambda: matching_model(4, (2, 2)),
]


class TestExactVerification:
    @pytest.mark.parametrize("name,factory", ENUMERABLE_CASES)
    def test_per_state_conditionals_exact(self, name, factory):
        report = verify_step_probs(factory())
        assert report.mode == "exact"
        assert report.max_dev <= 1e-12, (name, report)
        assert report.balance_dev <= 1e-12, (name, report)
        assert report.passed

    @pytest.mark.parametrize("factory", SYMMETRIC_PAIR_CASES)
    def test_joint_measure_symmetric_with_margins(self, factory):
        report = verify_exchangeability(factory())
        assert report.symmetric
        assert report.margins_ok

    @pytest.mark.parametrize(
        "factory", [factory for _, factory in ENUMERABLE_CASES] + SYMMETRIC_PAIR_CASES
    )
    def test_integer_check_matches_fraction_oracle(self, factory):
        # the integer-weight check against the exact-rational enumeration
        # that shares no code with it
        model = factory()
        report = verify_exchangeability(model)
        expected = oracles.pair_exchangeability_fractions(model)
        assert (report.states, report.symmetric, report.margins_ok) == expected
        assert exact_joint_measure(model) == oracles.pair_joint_measure_fractions(model)

    def test_kernel_missing_moves_is_asymmetric(self, monkeypatch):
        # no ball ever moves into box 0: leaving box 0 has no reverse move
        def no_box_zero(model, state):
            for ball in range(model.k):
                for box in range(1, model.n):
                    yield 1, state[:ball] + (box,) + state[ball + 1 :]

        monkeypatch.setattr(pair_models._FAMILIES["birthday_pairs"], "kernel", no_box_zero)
        report = verify_exchangeability(birthday_pairs_model(3, 2))
        assert not report.symmetric

    def test_kernel_extra_weight_breaks_margins(self, monkeypatch):
        # one more self-loop weight: still symmetric, but each row sums to D_K + 1
        fam = pair_models._FAMILIES["coupon"]
        kernel = fam.kernel

        def extra_weight(model, state):
            yield from kernel(model, state)
            yield 1, state

        monkeypatch.setattr(fam, "kernel", extra_weight)
        report = verify_exchangeability(coupon_model(3, 2))
        assert report.symmetric
        assert not report.margins_ok

    def test_kernel_with_wrong_weights_is_asymmetric(self, monkeypatch):
        # p = (1/4, 1/2) gives D_K = 2 * 4; resampling coordinate 0 with p_0
        # and 1 - p_0 swapped keeps every row summing to D_K, but the move no
        # longer preserves the stationary law
        def swapped(model, state):
            yield 3, (1,) + state[1:]
            yield 1, (0,) + state[1:]
            yield 2, state[:1] + (1,)
            yield 2, state[:1] + (0,)

        monkeypatch.setattr(pair_models._FAMILIES["poisson_binomial"], "kernel", swapped)
        report = verify_exchangeability(poisson_binomial_model([0.25, 0.5]))
        assert not report.symmetric
        assert report.margins_ok

    def test_up_down_rates_balance(self):
        for _, factory in ENUMERABLE_CASES:
            measure = enumerate_pair_measure(factory())
            up = float(np.dot(measure.probs, measure.q_up))
            down = float(np.dot(measure.probs, measure.q_down))
            assert abs(up - down) <= 1e-13

    @pytest.mark.parametrize("name,factory", ENUMERABLE_CASES)
    def test_enumeration_blocks_do_not_change_the_measure(self, name, factory, monkeypatch):
        # one state (and its successors) per evaluation of W
        model = factory()
        whole = enumerate_pair_measure(model)
        monkeypatch.setattr(pair_models, "_ENUM_ENTRIES", 1)
        blocked = enumerate_pair_measure(model)
        for field in ("probs", "w", "q_up", "q_down"):
            assert np.array_equal(getattr(whole, field), getattr(blocked, field)), (name, field)

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

    def test_sparse_birthday_passes_on_every_seed(self):
        # about 0.2 up and 0.2 down moves are expected: a standard error taken
        # from the realized moves failed 9 of these 10 seeds
        for seed in range(10):
            report = verify_step_probs(birthday_pairs_model(10**6, 20), trials=10_000,
                                       rng=substream(5, seed))
            assert report.passed, (seed, report)

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

    def test_count_table_memory_is_bounded(self):
        # coupon (100, 500) runs the count-table kernel: the chunk's ball
        # labels take 31 MiB, and offsetting them all at once would add as
        # much again
        model = coupon_model(100, 500)
        assert not pair_models._family(model).sorts(model)
        tracemalloc.start()
        try:
            _mc_arrays(model, 8192, substream(1, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_count_table_across_sub_blocks(self):
        model = coupon_model(8, 40)
        fam = pair_models._family(model)
        rows = 2 * pair_models._TABLE_ROWS + 3
        rng = substream(18, 0)
        states = rng.integers(0, model.n, (rows, model.k))
        counts = np.array([np.bincount(state, minlength=model.n) for state in states])
        h, count = fam.occupancy(model, states)
        assert h.tolist() == [np.bincount(c, minlength=h.shape[1]).tolist() for c in counts]
        boxes = rng.integers(0, model.n, rows)
        assert count(boxes).tolist() == counts[np.arange(rows), boxes].tolist()

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

    @pytest.mark.parametrize(
        "factory,low,sorts",
        [
            # for every family: sorted runs (3k < n), and the count table
            # with k < n and with k >= n
            (lambda: birthday_pairs_model(50, 12), 0, True),
            (lambda: birthday_pairs_model(20, 12), 0, False),
            (lambda: birthday_pairs_model(6, 40), 0, False),
            (lambda: birthday_triples_model(60, 12), 0, True),
            (lambda: birthday_triples_model(40, 25), 0, False),
            (lambda: birthday_triples_model(5, 30), 0, False),
            (lambda: coupon_model(50, 12), 0, True),
            (lambda: coupon_model(30, 12), 0, False),
            (lambda: coupon_model(8, 40), 0, False),
            (lambda: birthday_pairs_model(4, 1), 0, True),
            (lambda: birthday_pairs_model(2, 1), 0, False),
            # labels packed into the top six of 40 000 boxes: long runs and
            # keys far past any small-int range
            (lambda: birthday_triples_model(40_000, 20), 39_994, True),
            (lambda: birthday_pairs_model(40_000, 20), 39_994, True),
            (lambda: coupon_model(40_000, 20), 39_994, True),
        ],
    )
    def test_box_kernels_match_a_plain_bincount(self, factory, low, sorts):
        # m0..m3, W, the move's dw and a box's count against per-row
        # np.bincount tables and the brute-force per-box statistics
        model, rows = factory(), 40
        stat = {"birthday_pairs": oracles.stat_pairs, "birthday_triples": oracles.stat_triples,
                "coupon": oracles.stat_empty}[model.problem]
        fam = pair_models._family(model)
        assert fam.sorts(model) is sorts
        rng = substream(19, 0)
        states = rng.integers(low, model.n, (rows, model.k))
        counts = [np.bincount(state, minlength=model.n) for state in states]
        w = [stat(c.tolist()) for c in counts]
        s = fam.observe(model, states)
        for level in range(4):
            expected = [int((c == level).sum()) for c in counts]
            assert getattr(s, f"m{level}").tolist() == expected, level
        assert s.w.tolist() == w
        assert fam.w(model, states).tolist() == w

        columns, values, dw = fam.move(model, states, substream(19, 1))
        moved = states.copy()
        moved[np.arange(rows), columns[:, 0]] = values[:, 0]
        expected_dw = [stat(np.bincount(m, minlength=model.n).tolist()) - wr for m, wr in zip(moved, w)]
        assert dw.tolist() == expected_dw
        # the batch step makes the same proposals from the same stream
        _, _, dw_batch, w_batch = fam.step_arrays(model, states, substream(19, 1))
        assert dw_batch.tolist() == expected_dw
        assert w_batch.tolist() == w

        boxes = rng.integers(low, model.n, rows)
        count = fam.occupancy(model, states)[1]
        assert count(boxes).tolist() == [int(c[b]) for c, b in zip(counts, boxes)]

    def test_birthday_reach_without_n_wide_tables(self):
        # 40 balls in 10^7 boxes: one count table would take 80 MB per row
        tracemalloc.start()
        try:
            _mc_arrays(birthday_pairs_model(10**7, 40), 64, substream(20, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # a smoke check only, not a reach check: about 14 up and 14 down
        # moves are expected here, counts the gate judges by their exact
        # Poisson tails, so it fails no more often than the 4-sigma level
        report = verify_step_probs(birthday_pairs_model(40_000, 30), trials=20_000,
                                   rng=substream(20, 1))
        assert report.passed, report

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

    @pytest.mark.parametrize(
        "model,law",
        [
            (birthday_pairs_model(20, 8), lambda: occupancy_pmf(OccupancySpec(20, 8, "pairs"))),
            (birthday_triples_model(6, 8), lambda: occupancy_pmf(OccupancySpec(6, 8, "triples"))),
            (coupon_model(6, 10), lambda: occupancy_pmf(OccupancySpec(6, 10, "empty"))),
            (poisson_binomial_model([0.1, 0.5, 0.9, 0.3, 0.7]),
             lambda: poisson_binomial_pmf([0.1, 0.5, 0.9, 0.3, 0.7])),
        ],
    )
    def test_boxes_and_bernoulli_statistics(self, model, law):
        w = sample_statistics(model, 60_000, substream(23, 0))
        law = law()
        emp = np.bincount(w, minlength=law.mass.size) / w.size
        assert emp.size == law.mass.size
        assert np.abs(emp - law.mass).max() < 0.01

    def test_boxes_w_of_the_stationary_draws(self):
        # 300 rows of 60 balls in 2000 boxes run the sorted-runs kernel in
        # blocks of 295 and 5 rows; W must be the statistic of each drawn
        # row, in order
        model, rows = birthday_pairs_model(2000, 60), 300
        w = sample_statistics(model, rows, substream(24, 0))
        states = substream(24, 0).integers(0, model.n, (rows, model.k))
        assert w.tolist() == [statistic(model, state) for state in states]


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
