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
    GeneralizedMatchingStats,
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
    sample_statistics,
    substream,
    verify_exchangeability,
    verify_step_probs,
)


def _moved(model, state, rng):
    """A copy of ``state`` after one reversible move."""
    new = state.copy()
    columns, values, _ = model.move(new[None], rng)
    new[columns[0]] = values[0]
    return new


def _observables_consistent(model, s):
    """Per row, whether the step observables ``s`` can come from one state."""
    if isinstance(s, BernoulliStats):
        return ((0 <= s.w) & (s.w <= model.n) & (s.weighted_sum >= -1e-12)
                & (s.weighted_sum <= np.minimum(model.lam, s.w) + 1e-9))
    if isinstance(s, PlainMatchingStats):
        return (s.a2 >= 0) & (s.w + 2 * s.a2 <= model.n)
    if isinstance(s, GeneralizedMatchingStats):
        l = model.spec.multiplicities
        return (s.wij.sum(axis=2) == l).all(axis=1) & (s.wij.sum(axis=1) == l).all(axis=1)
    w_rule = {"birthday_pairs": s.w == model.n - s.m0 - s.m1, "birthday_triples": s.w >= s.m3,
              "coupon": s.w == s.m0}[model.problem]
    return ((s.m0 + s.m1 + s.m2 + s.m3 <= model.n) & (s.m1 + 2 * s.m2 + 3 * s.m3 <= model.k)
            & w_rule)


def _rows(cls, *columns):
    """Step observables of class ``cls`` with one column of rows per field."""
    return cls(*(np.array(c) for c in columns))


def _shift_down(monkeypatch, cls, shift):
    """Patch the (up, down) formula of ``cls`` to add ``shift(model)`` to down."""
    steps = cls.steps

    def shifted(self, s):
        up, down = steps(self, s)
        return up, down + shift(self)

    monkeypatch.setattr(cls, "steps", shifted)


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
            assert np.array_equal(model.draw(1, rng)[0], [1, 0])

    def test_uniform_permutation_frequencies(self):
        model = matching_model(2)
        rng = substream(2, 0)
        draws = 100_000
        hits = sum(int(model.draw(1, rng)[0][0] == 0) for _ in range(draws))
        # identity frequency 1/2 within 4 sigma
        sigma = math.sqrt(draws * 0.25)
        assert abs(hits - draws / 2) < 4 * sigma

    @pytest.mark.parametrize("n, bits", [(3, 1), (3, 2), (4, 3), (5, 3)])
    def test_sorted_permutations_are_uniform_where_keys_tie(self, n, bits):
        # 1-3 random bits tie in 59-100 % of the rows, each redrawn by a
        # shuffle; tied rows kept in index order gave chi2 ~ 1e5
        cells = math.factorial(n)
        draws = 500 * cells
        states = pair_models._sorted_permutations(draws, n, bits, substream(40, n * bits))
        assert (np.sort(states, axis=1) == np.arange(n)).all()
        counts = np.bincount(states @ n ** np.arange(n), minlength=n**n)
        counts = counts[counts > 0]
        assert counts.size == cells
        chi2 = float(((counts - draws / cells) ** 2).sum() / (draws / cells))
        # 4-sigma upper quantile of chi2 with cells - 1 degrees of freedom
        # (Wilson-Hilferty)
        df = cells - 1
        assert chi2 < df * (1 - 2 / (9 * df) + 4 * math.sqrt(2 / (9 * df))) ** 3, chi2

    @pytest.mark.parametrize("n", [2, 4, 5, 8, 9, 100, 256, 257, 410, 411, 1000])
    def test_draws_are_permutations_at_every_key_layout(self, n):
        # n = 2^j + 1 takes one more index bit than 2^j; below n = 5 and
        # past n = 410 the rows are shuffled
        states = matching_model(n).draw(50, substream(41, n))
        assert states.dtype == np.int32
        assert (np.sort(states, axis=1) == np.arange(n)).all()

    def test_key_width_keeps_the_tied_share_within_one_percent(self):
        # the exact share of rows with a tie among n draws of ``bits``
        # random bits, where the sort keys are used; shuffles have none
        for n in range(2, 10**6 + 1):
            bits = pair_models._random_bits(n)
            if bits:
                assert bits + (n - 1).bit_length() == 32
                tied = 1 - math.prod(1 - i / 2**bits for i in range(n))
                assert tied <= 0.01, (n, tied)
        assert [n for n in (4, 5, 410, 411) if pair_models._random_bits(n)] == [5, 410]

    def test_uniform_box_frequencies(self):
        model = birthday_pairs_model(3, 2)
        rng = substream(3, 0)
        draws = 90_000
        counts = np.zeros(9)
        for _ in range(draws):
            b = model.draw(1, rng)[0]
            counts[3 * b[0] + b[1]] += 1
        sigma = math.sqrt(draws * (1 / 9) * (8 / 9))
        assert np.abs(counts - draws / 9).max() < 4.5 * sigma

    def test_pair_step_changes_one_coordinate(self):
        model = coupon_model(6, 10)
        rng = substream(4, 0)
        state = model.draw(1, rng)[0]
        new = _moved(model, state, rng)
        assert (np.asarray(state) != np.asarray(new)).sum() <= 1

    def test_transposition_step(self):
        model = matching_model(5)
        rng = substream(5, 0)
        sigma = model.draw(1, rng)[0]
        tau = _moved(model, sigma, rng)
        assert sorted(tau) == list(range(5))
        assert (np.asarray(sigma) != np.asarray(tau)).sum() == 2

    def test_determinism(self):
        model = coupon_model(8, 12)
        a = [model.draw(1, substream(99, i))[0].tolist() for i in range(4)]
        b = [model.draw(1, substream(99, i))[0].tolist() for i in range(4)]
        assert a == b


class TestStepProbs:
    def test_matching_identity_permutation(self):
        model = matching_model(6)
        up, down = model.steps(PlainMatchingStats(w=np.array([6]), a2=np.array([0])))
        assert up.tolist() == [0.0]
        assert down.tolist() == [0.0]

    def test_birthday_all_distinct(self):
        model = birthday_pairs_model(9, 4)
        stats = OccupancyStats(*(np.array([v]) for v in (5, 4, 0, 0, 0)))  # m0..m3, w
        up, down = model.steps(stats)
        assert down.tolist() == [0.0]
        assert up[0] == pytest.approx(4 * (4 - 1) / (4 * 9))

    def test_probabilities_well_formed_on_sampled_states(self):
        # up and down are probabilities of disjoint events of one move, and
        # every drawn state's observables are consistent
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
            stats = model.observe(model.draw(40, rng))
            assert _observables_consistent(model, stats).all(), model.problem
            up, down = model.steps(stats)
            assert (up >= -1e-15).all() and (down >= -1e-15).all()
            assert (up + down <= 1.0 + 1e-12).all()

    @pytest.mark.parametrize(
        "model,stats",
        [
            (birthday_pairs_model(5, 4), _rows(OccupancyStats, [3, 3], [2, 2], [0, 2], [0, 0],
                                               [0, 0])),
            (birthday_pairs_model(5, 4), _rows(OccupancyStats, [3, 3], [2, 2], [0, 0], [0, 0],
                                               [0, 1])),
            (birthday_pairs_model(5, 4), _rows(OccupancyStats, [3, 3], [0, 0], [2, 1], [0, 1],
                                               [2, 2])),
            (coupon_model(5, 4), _rows(OccupancyStats, [2, 2], [2, 2], [1, 1], [0, 0], [2, 1])),
            (birthday_triples_model(5, 4), _rows(OccupancyStats, [3, 4], [1, 0], [0, 0], [1, 1],
                                                 [1, 0])),
            (poisson_binomial_model([0.5, 0.5]), _rows(BernoulliStats, [1, 0], [0.5, 0.9])),
            (matching_model(6), _rows(PlainMatchingStats, [4, 5], [1, 1])),
            (matching_model(4, (2, 2)), GeneralizedMatchingStats(
                wij=np.array([[[2, 0], [0, 2]], [[2, 1], [0, 1]]]))),
        ],
        ids=["counts_over_n", "pairs_w_not_n_minus_m0_m1", "balls_over_k", "coupon_w_not_m0",
             "triples_w_under_m3", "weighted_sum_over_w", "matching_w_plus_2a2_over_n",
             "multiset_margins"],
    )
    def test_consistency_helper_rejects_impossible_observables(self, model, stats):
        # the first row can come from a state and the second cannot, so the
        # invariants asserted above are not vacuous
        assert _observables_consistent(model, stats).tolist() == [True, False]

    def test_every_ball_in_the_last_box(self):
        model = birthday_pairs_model(365, 23)
        # one box, the last, holds every ball
        assert model.w(np.full((1, 23), 364)).tolist() == [1]


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

# stationary and kernel weights past int64 (the lcm of the denominators of
# the p_i is 2**1074), and zero-weight moves
EXTREME_WEIGHT_CASES = [
    ("poisson_binomial_tiny", lambda: poisson_binomial_model([1e-5, 0.3, 1e-300, 5e-324, 0.7])),
    ("poisson_binomial_0_1", lambda: poisson_binomial_model([0.0, 1.0, 0.25, 0.5])),
]

SYMMETRIC_PAIR_CASES = [
    lambda: matching_model(4),
    lambda: poisson_binomial_model([0.3, 0.9, 0.44, 0.18, 0.7, 0.05, 0.99, 0.5, 0.2, 0.6]),
    lambda: birthday_pairs_model(3, 2),
    lambda: birthday_triples_model(3, 4),
    lambda: coupon_model(4, 3),
    lambda: matching_model(4, (2, 2)),
]


@pytest.fixture(params=["one_block", "one_state_per_block"])
def joint_blocks(request, monkeypatch):
    """The joint check over one block of states, or over one state per
    block, where each transition and its reverse lie in different blocks."""
    if request.param == "one_state_per_block":
        monkeypatch.setattr(pair_models, "_ENTRIES", 1)


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
        "factory",
        [factory for _, factory in ENUMERABLE_CASES + EXTREME_WEIGHT_CASES] + SYMMETRIC_PAIR_CASES,
    )
    def test_integer_check_matches_fraction_oracle(self, factory, joint_blocks):
        # the integer-weight check against the exact-rational enumeration
        # that shares no code with it
        model = factory()
        report = verify_exchangeability(model)
        expected = oracles.pair_exchangeability_fractions(model)
        assert (report.states, report.symmetric, report.margins_ok) == expected

    def test_transition_cap_refuses_before_allocating(self):
        # 5000 states pass any state cap, but their 2.5e7 transitions would
        # hold over a GiB; the cap counts transitions and refuses at once
        model = birthday_pairs_model(5000, 1)
        assert model.size() == (5000, 25_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"^joint measure enumeration capped at {pair_models.JOINT_TRANSITION_CAP} "
                    r"transitions \(instance has 25000000\)$")):
                verify_exchangeability(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_kernel_missing_moves_is_asymmetric(self, monkeypatch, joint_blocks):
        # no ball ever moves into box 0: leaving box 0 has no reverse move
        def no_box_zero(self, states):
            ball, box = np.divmod(np.arange(self.k * (self.n - 1)), self.n - 1)
            nxt = np.repeat(states[:, None], len(box), axis=1)
            nxt[:, np.arange(len(box)), ball] = box + 1
            return nxt, np.ones(len(box), np.int64)

        monkeypatch.setattr(pair_models._BirthdayPairs, "successors", no_box_zero)
        report = verify_exchangeability(birthday_pairs_model(3, 2))
        assert not report.symmetric

    def test_kernel_extra_weight_breaks_margins(self, monkeypatch, joint_blocks):
        # one more self-loop weight: still symmetric, but each row sums to D_K + 1
        successors = pair_models._Coupon.successors

        def extra_weight(self, states):
            nxt, weights = successors(self, states)
            return np.concatenate((nxt, states[:, None]), axis=1), np.append(weights, 1)

        monkeypatch.setattr(pair_models._Coupon, "successors", extra_weight)
        report = verify_exchangeability(coupon_model(3, 2))
        assert report.symmetric
        assert not report.margins_ok

    def test_kernel_with_wrong_weights_is_asymmetric(self, monkeypatch, joint_blocks):
        # p = (1/4, 1/2) gives D_K = 2 * 4; resampling coordinate 0 with p_0
        # and 1 - p_0 swapped keeps every row summing to D_K, but the move no
        # longer preserves the stationary law
        def swapped(self, states):
            nxt = np.repeat(states[:, None], 4, axis=1)
            nxt[:, [0, 1, 2, 3], [0, 0, 1, 1]] = [True, False, True, False]
            return nxt, np.array([3, 1, 2, 2])

        monkeypatch.setattr(pair_models._Bernoulli, "successors", swapped)
        report = verify_exchangeability(poisson_binomial_model([0.25, 0.5]))
        assert not report.symmetric
        assert report.margins_ok

    @pytest.mark.parametrize("name,factory", ENUMERABLE_CASES + EXTREME_WEIGHT_CASES)
    def test_measure_matches_fraction_chain(self, name, factory):
        # every field the correctly rounded double of the exact rational the
        # Fraction chain that shares no code with the arrays gives
        model = factory()
        measure = enumerate_pair_measure(model)
        expected = oracles.pair_measure_fractions(model)
        for field, values in zip(("probs", "w", "q_up", "q_down"), expected):
            assert getattr(measure, field).tolist() == values, (name, field)

    def test_states_follow_the_lexicographic_order_in_the_draw_dtype(self):
        for model in (poisson_binomial_model([0.5] * 3), matching_model(4),
                      matching_model(4, (2, 2)), coupon_model(3, 3), birthday_pairs_model(4, 2)):
            states, _, _ = oracles.pair_chain_fractions(model)
            ours = model.all_states()
            assert [tuple(row) for row in ours.tolist()] == states
            assert ours.dtype == model.draw(1, substream(1, 0)).dtype

    @pytest.mark.parametrize("check, bound", [
        (verify_step_probs, 3.5),  # 5.2 MiB with a tuple per state and per successor
        (verify_exchangeability, 1.2),  # 1.4 MiB with a dict of the joint measure
    ])
    def test_exact_checks_hold_arrays_not_tuples(self, check, bound):
        model = coupon_model(4, 5)
        tracemalloc.start()
        try:
            check(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20

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
        monkeypatch.setattr(pair_models, "_ENTRIES", 1)
        blocked = enumerate_pair_measure(model)
        for field in ("probs", "w", "q_up", "q_down"):
            assert np.array_equal(getattr(whole, field), getattr(blocked, field)), (name, field)

    def test_rejects_non_enumerable(self):
        with pytest.raises(ValueError, match="enumerable"):
            enumerate_pair_measure(matching_model(50))
        assert not is_enumerable(matching_model(50))

    @pytest.mark.parametrize("check, model, counts", [
        # counts past the float range are printed from the exact integers
        (enumerate_pair_measure, birthday_pairs_model(1000, 200), "1.000e+600 states, 2.000e+605"),
        (verify_step_probs, matching_model(200), "7.887e+374 states, 1.569e+379"),
    ])
    def test_refusal_names_both_counts_and_caps(self, check, model, counts):
        with pytest.raises(ValueError) as exc:
            check(model)
        assert str(exc.value) == (
            f"instance is not enumerable: {counts} transitions (caps 4e+05 / 3e+07)")


class TestMonteCarloVerification:
    def test_matching_large_instance(self):
        report = verify_step_probs(matching_model(40), trials=40_000, rng=substream(11, 0))
        assert report.mode == "mc"
        assert report.passed, report

    def test_coupon_large_instance(self):
        report = verify_step_probs(coupon_model(30, 120), trials=40_000, rng=substream(12, 0))
        assert report.passed, report

    def test_bias_injection_detected(self, monkeypatch):
        # harness self-test: a 1/(kn) shift of the down formula must fail at
        # 4 sigma with 10^5 trials
        _shift_down(monkeypatch, pair_models._BirthdayPairs, lambda m: 1.0 / (m.k * m.n))
        report = verify_step_probs(birthday_pairs_model(10, 8), trials=100_000,
                                   rng=substream(13, 0))
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

    def test_multiset_bias_injection_detected(self, monkeypatch):
        # a 1/C(12, 2) shift of the down formula fails the multiset gate
        _shift_down(monkeypatch, pair_models._MultisetMatching, lambda m: 1 / math.comb(m.n, 2))
        report = verify_step_probs(matching_model(12, (4, 4, 4)), trials=40_000,
                                   rng=substream(14, 0))
        assert not report.passed
        assert report.down_dev > 4.0

    def test_multiset_batch_memory_is_bounded(self):
        # 100 letters: a whole-batch letter-transfer table would take
        # 8192 x 100 x 100 int64 entries (~650 MB); blocks of _ENTRIES table
        # entries keep it near 2 MiB beside the 6.25 MiB of 32-bit states
        model, rng = matching_model(200, (2,) * 100), substream(15, 0)
        tracemalloc.start()
        try:
            model.step_arrays(model.draw(8192, rng), rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_count_table_memory_is_bounded(self):
        # coupon (100, 500) runs the count-table kernel: a whole-batch
        # table would offset every ball label as intp; blocks of about
        # _ENTRIES labels keep a batch of 8192 rows near its 8 MiB of 16-bit
        # labels, and one Monte Carlo chunk (523 rows) near 2 MiB
        model, rng = coupon_model(100, 500), substream(1, 0)
        assert not model.sorts()
        for rows, bound in ((8192, 16), (pair_models._chunk_rows(model), 4)):
            tracemalloc.start()
            try:
                model.step_arrays(model.draw(rows, rng), rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, rows

    def test_wide_states_chunk_by_entries(self):
        # coupon (1000, 8000): the ball labels of an 8192-row chunk alone
        # would take 125 MiB; chunks of at most _ENTRIES entries per array
        # keep both Monte Carlo paths near 2 MiB
        model = coupon_model(1000, 8000)
        assert pair_models._chunk_rows(model) == pair_models._ENTRIES // 8001
        target = poisson_pmf(SteinParams(model.lam))
        for run in (lambda: verify_step_probs(model, trials=10_000, rng=substream(3, 0)),
                    lambda: mc_tv_estimate(model, target, 10_000, substream(4, 0))):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    @pytest.mark.parametrize("model, cells", [
        (coupon_model(100, 500), 501),
        (birthday_pairs_model(2000, 60), 244),
        (matching_model(100), 100),
        (matching_model(512), 512),
        (matching_model(12, (4, 4, 4)), 12),
        (matching_model(200, (2,) * 100), 10_000),
        (poisson_binomial_model([0.5] * 200), 200),
        (coupon_model(300_000, 400_000), 400_001),
    ])
    def test_chunks_hold_entries_by_the_widest_array(self, model, cells):
        # rows = _ENTRIES // cells, at most 8192 and at least one; a chunk
        # is one block
        assert model.cells() == cells
        rows = pair_models._chunk_rows(model)
        assert rows == min(8192, max(1, pair_models._ENTRIES // cells))
        assert len(pair_models._blocks(model, model.draw(rows, substream(19, 0)))) == 1

    def test_sorted_runs_chunks_count_four_arrays_per_label(self):
        # the seeded streams of the benchmark's birthday commands depend on
        # the chunk size: the sorted-runs kernel holds four intp arrays as
        # long as the chunk's labels, and histograms of max(k, 3) + 1 columns
        for model, rows in ((birthday_pairs_model(365, 23), 2730),
                            (birthday_triples_model(200, 30), 2114),
                            (birthday_pairs_model(2000, 60), 1074)):
            assert model.sorts()
            assert model.cells() == 4 * (model.k + 1)
            assert pair_models._chunk_rows(model) == rows

    @pytest.mark.parametrize("model, run", [
        (birthday_pairs_model(365, 23), "step_arrays"),  # 6.7 MiB at 8192-row chunks
        (birthday_triples_model(200, 30), "step_arrays"),  # 8.4 MiB at 8192-row chunks
        (birthday_pairs_model(2000, 60), "w"),  # 8.7 MiB at 4297-row chunks
    ])
    def test_sorted_runs_chunk_memory_is_bounded(self, model, run):
        # one Monte Carlo chunk of the sorted-runs kernel: its keys, run
        # bounds, run lengths and histogram cells hold _ENTRIES intp entries
        # together, 2 MiB
        rng = substream(1, 0)
        tracemalloc.start()
        try:
            states = model.draw(pair_models._chunk_rows(model), rng)
            model.step_arrays(states, rng) if run == "step_arrays" else model.w(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_count_table_across_sub_blocks(self):
        # 133 rows of 4000 balls: step_arrays takes blocks of 65, 65 and 3
        model = coupon_model(8, 4000)
        rows = 2 * (pair_models._ENTRIES // model.cells()) + 3
        rng = substream(18, 0)
        states = model.draw(rows, rng)
        counts = np.array([np.bincount(state, minlength=model.n) for state in states])
        h, count = model.occupancy(states)
        assert h.tolist() == [np.bincount(c, minlength=h.shape[1]).tolist() for c in counts]
        boxes = rng.integers(0, model.n, rows)
        assert count(boxes).tolist() == counts[np.arange(rows), boxes].tolist()
        w = model.step_arrays(states, rng)[3]
        assert w.tolist() == [model.w(state[None])[0] for state in states]

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
        model, rows, batch_rng = factory(), 300, substream(16, 0)
        up, down, dw, w = model.step_arrays(model.draw(rows, batch_rng), batch_rng)
        rng = substream(16, 0)
        states = model.draw(rows, rng)
        ball, newbox = model.propose(rows, rng)
        for r in range(rows):
            moved = states[r].copy()
            moved[ball[r]] = newbox[r]
            one = model.observe(states[r][None])
            assert dw[r] == model.w(moved[None])[0] - one.w[0]
            assert w[r] == one.w[0]
            one_up, one_down = model.steps(one)
            assert (up[r], down[r]) == pytest.approx((one_up[0], one_down[0]))

    @pytest.mark.parametrize(
        "factory,low,sorts",
        [
            # for every family: sorted runs (4k < 3n), and the count table
            # with k < n and with k >= n
            (lambda: birthday_pairs_model(50, 12), 0, True),
            (lambda: birthday_pairs_model(20, 16), 0, False),
            (lambda: birthday_pairs_model(6, 40), 0, False),
            (lambda: birthday_triples_model(60, 12), 0, True),
            (lambda: birthday_triples_model(40, 32), 0, False),
            (lambda: birthday_triples_model(5, 30), 0, False),
            (lambda: coupon_model(50, 12), 0, True),
            (lambda: coupon_model(30, 24), 0, False),
            (lambda: coupon_model(8, 40), 0, False),
            (lambda: birthday_pairs_model(4, 1), 0, True),
            (lambda: birthday_pairs_model(2, 2), 0, False),
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
        assert model.sorts() is sorts
        rng = substream(19, 0)
        states = rng.integers(low, model.n, (rows, model.k))
        counts = [np.bincount(state, minlength=model.n) for state in states]
        w = [stat(c.tolist()) for c in counts]
        s = model.observe(states)
        for level in range(4):
            expected = [int((c == level).sum()) for c in counts]
            assert getattr(s, f"m{level}").tolist() == expected, level
        assert s.w.tolist() == w
        assert model.w(states).tolist() == w

        columns, values, dw = model.move(states, substream(19, 1))
        moved = states.copy()
        moved[np.arange(rows), columns[:, 0]] = values[:, 0]
        expected_dw = [stat(np.bincount(m, minlength=model.n).tolist()) - wr for m, wr in zip(moved, w)]
        assert dw.tolist() == expected_dw
        # the batch step makes the same proposals from the same stream
        _, _, dw_batch, w_batch = model.step_arrays(states, substream(19, 1))
        assert dw_batch.tolist() == expected_dw
        assert w_batch.tolist() == w

        boxes = rng.integers(low, model.n, rows)
        count = model.occupancy(states)[1]
        assert count(boxes).tolist() == [int(c[b]) for c, b in zip(counts, boxes)]

    @pytest.mark.parametrize("n, dtype", [
        (100, np.int16), (2**15, np.int16), (2**15 + 1, np.int32), (10**7, np.int32),
        (2**31, np.int32), (2**31 + 1, np.int64),
    ])
    def test_labels_are_drawn_at_their_width(self, n, dtype):
        assert birthday_pairs_model(n, 5).draw(8, substream(25, 0)).dtype == dtype

    @pytest.mark.parametrize("factory, sorts", [
        # both kernels, at the top of the 16-bit range, where any offset
        # row * n or block offset summed in int16 would wrap
        (lambda: birthday_triples_model(2**15, 20), True),
        (lambda: birthday_pairs_model(2**15, 10_000), True),
        (lambda: coupon_model(2**15, 25_000), False),
    ])
    def test_16_and_64_bit_labels_give_the_same_numbers(self, factory, sorts):
        model, rows = factory(), 45
        assert model.sorts() is sorts
        narrow = model.draw(rows, substream(26, 0))
        assert narrow.dtype == np.int16
        narrow[:, :3] = 2**15 - 1 - np.arange(3)  # boxes near the top label
        wide = narrow.astype(np.int64)
        (h16, count16), (h64, count64) = model.occupancy(narrow), model.occupancy(wide)
        assert np.array_equal(h16, h64)
        assert np.array_equal(count16(narrow[:, 0]), count64(wide[:, 0]))
        for run in (model.step_arrays, model.move):
            got16, got64 = run(narrow, substream(26, 1)), run(wide, substream(26, 1))
            for a, b in zip(got16, got64):
                assert np.array_equal(a, b)

    def test_birthday_reach_without_n_wide_tables(self):
        # 40 balls in 10^7 boxes: one count table would take 80 MB per row
        model, rng = birthday_pairs_model(10**7, 40), substream(20, 0)
        tracemalloc.start()
        try:
            model.step_arrays(model.draw(64, rng), rng)
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

    def test_boxes_w_of_the_stationary_draws(self, monkeypatch):
        # 300 rows of 60 balls in 2000 boxes run the sorted-runs kernel in
        # chunks of 4096 // 244 = 16 rows and a last one of 12; W must be the
        # statistic of each drawn row, in order
        monkeypatch.setattr(pair_models, "_ENTRIES", 4096)
        model, rows = birthday_pairs_model(2000, 60), 300
        w = sample_statistics(model, rows, substream(24, 0))
        rng = substream(24, 0)
        states = np.concatenate([model.draw(min(16, rows - start), rng)
                                 for start in range(0, rows, 16)])
        assert w.tolist() == [model.w(state[None])[0] for state in states]


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
