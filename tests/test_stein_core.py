import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinpoisson import (
    Pmf,
    SteinParams,
    poisson_expectation,
    poisson_pmf,
    pseudo_inverse_bounds,
    stein_apply,
    stein_identity_oracle,
    stein_inverse,
    tv_distance,
)
from steinpoisson.exact_laws import poisson_binomial_pmf
from steinpoisson import stein_core
from steinpoisson.stein_core import TRUNCATION_EPS, _poisson_table, _poisson_tvs
from steinpoisson.pair_models import (
    birthday_pairs_model,
    birthday_triples_model,
    coupon_model,
    enumerate_pair_measure,
    matching_model,
    poisson_binomial_model,
)

import oracles

LAMBDA_GRID = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]


# ---------------------------------------------------------------------------
# Pmf
# ---------------------------------------------------------------------------


class TestPmf:
    def test_valid_construction(self):
        p = Pmf(np.array([0.5, 0.25, 0.25]))
        assert p.support_max == 2
        assert p.tail == 0.0
        assert p.prob(1) == 0.25
        assert p.prob(99) == 0.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]))  # sums over 1
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, -0.5, 1.0]))
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.25]), tail=0.1)  # mass + tail != 1
        with pytest.raises(ValueError):
            Pmf(np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="mass entries"):
            Pmf([-1e-3, 1.001])
        with pytest.raises(ValueError, match="nonempty"):
            Pmf([])

    @pytest.mark.parametrize("mass", [
        [np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [np.inf, -np.inf], [-np.inf, 1.0],
        [1e308, 1e308, np.nan],
    ])
    def test_non_finite_entries_named(self, mass):
        with pytest.raises(ValueError, match="mass must be finite"):
            Pmf(np.array(mass))

    @pytest.mark.parametrize("mass", [[1e308, 1e308], [-1e308, -1e308], [1.5, -0.5], [-1e-20, 1.0]])
    def test_out_of_range_entries_named(self, mass):
        with pytest.raises(ValueError, match=r"mass entries must lie in \[0, 1\]"):
            Pmf(np.array(mass))

    def test_signed_zero_is_valid(self):
        assert Pmf(np.array([-0.0, 1.0])).prob(1) == 1.0

    def test_immutable(self):
        p = Pmf(np.array([1.0]))
        with pytest.raises(ValueError):
            p.mass[0] = 0.5

    def test_mean_variance(self):
        p = Pmf(np.array([0.25, 0.5, 0.25]))
        assert p.mean() == 1.0
        assert abs(p.variance() - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# Poisson reference law
# ---------------------------------------------------------------------------


class TestPoissonPmf:
    def test_mass_at_zero(self):
        p = poisson_pmf(SteinParams(1.0))
        assert abs(p.mass[0] - math.exp(-1.0)) < 1e-16

    def test_unit_rate_recursion(self):
        # lam * p(k-1) = k * p(k); at lam = 1 the first two masses coincide
        p = poisson_pmf(SteinParams(1.0))
        assert p.mass[1] == pytest.approx(p.mass[0], abs=1e-16)
        for k in range(1, p.support_max + 1):
            assert 1.0 * p.mass[k - 1] == pytest.approx(k * p.mass[k], rel=1e-12)

    def test_mean_with_tail_correction(self):
        lam = 4.0
        p = poisson_pmf(SteinParams(lam))
        # the mean deficit of the truncated table is exactly
        # lam * (mass[-1] + tail)
        corrected = p.mean() + lam * (p.mass[-1] + p.tail)
        assert abs(corrected - lam) < 1e-12
        assert abs(p.mean() - lam) < 1e-9

    def test_truncation_is_minimal(self):
        p = poisson_pmf(SteinParams(2.0))
        assert p.tail <= TRUNCATION_EPS
        # one entry earlier the tail would exceed the budget
        assert p.tail + p.mass[-1] > TRUNCATION_EPS

    def test_matches_direct_series(self):
        for lam in LAMBDA_GRID:
            p = poisson_pmf(SteinParams(lam))
            direct = oracles.poisson_series(lam, p.mass.size)
            assert np.abs(p.mass - direct).max() < 1e-14

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SteinParams(0.0)
        with pytest.raises(ValueError):
            SteinParams(-1.0)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


class TestTvDistance:
    def test_identical_is_zero(self):
        p = poisson_pmf(SteinParams(2.0))
        assert tv_distance(p, p) == pytest.approx(p.tail, abs=1e-15)
        q = Pmf(np.array([0.5, 0.5]))
        assert tv_distance(q, q) == 0.0

    def test_disjoint_point_masses(self):
        p = Pmf(np.array([1.0]))
        q = Pmf(np.array([0.0, 1.0]))
        assert tv_distance(p, q) == 1.0

    def test_rencontres_four_vs_unit_poisson_pinned(self):
        # oracle: enumerate S_4, Poisson by direct series, plain half-l1
        from steinpoisson import MatchingSpec, matching_pmf

        brute = oracles.enumerate_matching(4)
        ref = poisson_pmf(SteinParams(1.0))
        direct = oracles.poisson_series(1.0, ref.mass.size)
        oracle_value = oracles.tv_arrays(brute, direct) + 0.5 * ref.tail
        value = tv_distance(matching_pmf(MatchingSpec(4)), ref)
        assert value == pytest.approx(oracle_value, abs=1e-13)
        assert value == pytest.approx(0.09951919486069308, abs=1e-14)

    def test_never_exceeds_one(self):
        p = Pmf(np.array([0.3]), tail=0.7)
        q = Pmf(np.array([0.0, 0.4]), tail=0.6)
        assert tv_distance(p, q) <= 1.0

    def test_rounding_past_one_is_capped(self):
        # a mass within MASS_TOL of 1 can carry half the l1 sum past 1
        assert tv_distance(Pmf([0.0, 1 + 5e-13]), Pmf([1.0])) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
        b=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
        c=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
    )
    def test_metric_properties(self, a, b, c):
        def norm(values):
            arr = np.array(values)
            return Pmf(arr / arr.sum())

        p, q, r = norm(a), norm(b), norm(c)
        assert tv_distance(p, q) == tv_distance(q, p)  # symmetry, exact
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        assert tv_distance(p, p) == 0.0


def _reference_tv(p: Pmf, q: Pmf) -> float:
    """Half the l1 distance of two zero-padded tables plus both tails."""
    size = max(p.mass.size, q.mass.size)
    a = np.zeros(size)
    b = np.zeros(size)
    a[: p.mass.size] = p.mass
    b[: q.mass.size] = q.mass
    return 0.5 * (math.fsum(np.abs(a - b).tolist()) + p.tail + q.tail)


#: 1 - cum of its truncated Poisson(lam) table is the float just below
#: TRUNCATION_EPS
LAM_AT_EPS = 2.9276433796378063
#: rates whose table ends where 1 - cum first lands within 2**-53 (an ulp of
#: cum) below TRUNCATION_EPS, as LAM_AT_EPS's does ...
LAMS_ENDING_AT_EPS = [LAM_AT_EPS, 15.041942569315324, 27.948252740576724]
#: ... and rates whose table goes on one more entry because 1 - cum lands
#: within 2**-53 above it; both found by a search over random rates
LAMS_GOING_ON_AT_EPS = [16.087969241785146, 27.35297414885948]


class TestPoissonTvs:
    """Block targets and TVs are the one-rate ``poisson_pmf`` and
    ``tv_distance`` values, bit for bit."""

    def _rates(self):
        rng = np.random.default_rng(5)
        return ([1e-9, *LAMS_ENDING_AT_EPS, 1.0, *LAMS_GOING_ON_AT_EPS, 700.0]
                + rng.uniform(0.01, 40.0, 300).tolist())

    def test_rates_at_eps_land_next_to_eps(self):
        from itertools import accumulate

        for lam in LAMS_ENDING_AT_EPS + LAMS_GOING_ON_AT_EPS:
            *_, before, cum = accumulate(poisson_pmf(SteinParams(lam)).mass.tolist())
            assert 1.0 - before > TRUNCATION_EPS >= 1.0 - cum
            if lam in LAMS_ENDING_AT_EPS:
                assert TRUNCATION_EPS - 2.0**-53 < 1.0 - cum
            else:
                assert 1.0 - before <= TRUNCATION_EPS + 2.0**-53

    def _assert_targets(self, lams, table, tails):
        lengths = [poisson_pmf(SteinParams(lam)).mass.size for lam in lams]
        assert table.shape == (len(lams), max(lengths)) and len(tails) == len(lams)
        for row, tail, lam in zip(table, tails, lams):
            target = poisson_pmf(SteinParams(lam))
            assert tail == target.tail
            assert row[0] == math.exp(-lam)
            assert np.array_equal(row[: target.mass.size], target.mass)
            assert row[target.mass.size - 1] > 0.0
            assert not row[target.mass.size :].any()

    def test_block_targets_equal_poisson_pmf(self):
        lams = self._rates()
        self._assert_targets(lams, *_poisson_table(lams))

    def test_rates_at_eps_next_to_extremes_in_one_group(self):
        # the column recurrence ends each row at its own column, whatever
        # the rows around it need
        lams = [1e-9, *LAMS_ENDING_AT_EPS, *LAMS_GOING_ON_AT_EPS, 700.0]
        self._assert_targets(lams, *_poisson_table(lams))
        for lam in lams:
            self._assert_targets([lam], *_poisson_table([lam]))

    def test_block_tvs_equal_tv_distance(self):
        lams = self._rates()
        rng = np.random.default_rng(6)
        for n in (1, 7, 40):
            laws = poisson_binomial_pmf(rng.random((len(lams), n)))
            got = _poisson_tvs(laws, lams)
            for law, lam, tv in zip(laws, lams, got):
                target = poisson_pmf(SteinParams(lam))
                assert tv == tv_distance(law, target) == _reference_tv(law, target)

    def test_laws_with_tails(self):
        law = Pmf(np.array([0.5, 0.3]), tail=0.2)
        lams = [0.4, LAM_AT_EPS]
        assert _poisson_tvs([law, law], lams) == [
            _reference_tv(law, poisson_pmf(SteinParams(lam))) for lam in lams]

    @pytest.mark.parametrize("terms, tail", [
        ([0.5, 0.6], 0.0), ([1.5, -0.5], 0.0), ([1.0], 2.0), ([1.0], math.nan),
        ([math.nan, 1.0], 0.0), ([math.inf, -math.inf], 0.0)])
    def test_the_table_check_gives_the_pmf_messages(self, terms, tail):
        # a group's targets are checked once as a table, rule by rule; a bad
        # row between good ones (one per rule of the check) gets the message
        # a Pmf of that row gives
        with pytest.raises(ValueError) as scalar:
            Pmf(np.array(terms), tail)
        table = np.zeros((3, 3))
        table[[0, 2], :2] = 0.5
        table[1, : len(terms)] = terms
        with pytest.raises(ValueError) as block:
            stein_core._check_sums(stein_core._row_sums(table), np.array([0.0, tail, 0.0]))
        assert str(block.value) == str(scalar.value)

    def test_underflow_and_bad_rates_raise_the_scalar_message(self):
        laws = [Pmf(np.array([0.5, 0.5]))] * 3
        # at 720 and 740 exp(-lam) is subnormal, not 0: the truncation used
        # to run past 100 000 terms, or miss mass + tail = 1
        for lam in (720.0, 740.0, 800.0):
            with pytest.raises(ValueError) as scalar:
                poisson_pmf(SteinParams(lam))
            with pytest.raises(ValueError) as block:
                _poisson_tvs(laws, [1.0, lam, 2.0])
            want = f"lam={lam} too large: exp(-lam) underflows"
            assert str(block.value) == str(scalar.value) == want
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^lam must be a positive finite real$"):
                _poisson_tvs(laws, [1.0, bad, 2.0])

    def test_largest_rate_still_certified(self):
        # exp(-MAX_LAM) is the smallest normal float; every rate up to it
        # gets a target whose mass and tail sum to one
        assert math.exp(-stein_core.MAX_LAM) >= 2.2e-308
        for lam in (708.0, stein_core.MAX_LAM):
            target = poisson_pmf(SteinParams(lam))
            assert 0.0 <= target.tail <= 1e-12
            assert _poisson_tvs([target], [lam]) == [target.tail]
        with pytest.raises(ValueError, match="too large"):
            poisson_pmf(SteinParams(math.nextafter(stein_core.MAX_LAM, math.inf)))


# ---------------------------------------------------------------------------
# characterizing operator
# ---------------------------------------------------------------------------


class TestSteinApply:
    def test_constant_function(self):
        params = SteinParams(2.0)
        f = np.ones(8)
        out = stein_apply(f, params)
        assert np.array_equal(out, 2.0 - np.arange(7))

    def test_point_mass_function(self):
        lam, k, size = 1.5, 3, 8
        f = np.zeros(size)
        f[k] = 1.0
        out = stein_apply(f, SteinParams(lam))
        expected = np.zeros(size - 1)
        expected[k - 1] = lam
        expected[k] = -k
        assert np.array_equal(out, expected)

    def test_rejects_undefined_final_slot(self):
        with pytest.raises(ValueError):
            stein_apply(np.array([1.0, np.inf]), SteinParams(1.0))
        with pytest.raises(ValueError):
            stein_apply(np.array([1.0]), SteinParams(1.0))

    def test_characterizing_property(self):
        # E_o[T f] telescopes to the boundary term (N+1) w_{N+1} f(N+1),
        # so the truncated expectation vanishes within (N+2) * eps * ||f||
        rng = np.random.default_rng(7)
        eps = TRUNCATION_EPS
        for lam in LAMBDA_GRID:
            params = SteinParams(lam)
            ref = poisson_pmf(params)
            n_top = ref.support_max
            for _ in range(25):
                f = rng.uniform(-1.0, 1.0, n_top + 2)
                value = float(np.dot(ref.mass, stein_apply(f, params)))
                w_next = ref.mass[-1] * lam / (n_top + 1)
                boundary = (n_top + 1) * w_next * f[n_top + 1]
                assert abs(value - boundary) < 1e-13
                assert abs(value) <= (n_top + 2) * eps * np.abs(f).max()


class TestSteinInverse:
    def test_constant_maps_to_zero(self):
        params = SteinParams(3.0)
        u = stein_inverse(np.full(12, 0.7), params)
        assert np.abs(u).max() < 1e-13

    def test_inverse_property_random_functions(self):
        rng = np.random.default_rng(11)
        for lam in [0.25, 1.0, 4.0, 16.0]:
            params = SteinParams(lam)
            size = poisson_pmf(params).mass.size
            for _ in range(100):
                f = rng.uniform(-1.0, 1.0, size)
                u = stein_inverse(f, params)
                lhs = stein_apply(u, params)
                e_f = poisson_expectation(f, params)
                assert np.abs(lhs - (f - e_f)).max() <= 1e-12

    def test_centered_indicator_bound(self):
        # f = indicator of {0} at lam = 1: sup |u| <= 1 - e^{-1}
        params = SteinParams(1.0)
        size = poisson_pmf(params).mass.size
        f = np.zeros(size)
        f[0] = 1.0
        u = stein_inverse(f, params)
        assert np.abs(u).max() <= -math.expm1(-1.0) + 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            stein_inverse(np.array([]), SteinParams(1.0))

    def test_indicator_bounds_dominance(self):
        rng = np.random.default_rng(23)
        for lam in LAMBDA_GRID:
            params = SteinParams(lam)
            sup_bound, diff_bound = pseudo_inverse_bounds(params)
            size = poisson_pmf(params).mass.size
            for _ in range(100):
                f = (rng.random(size) < 0.5).astype(float)
                u = stein_inverse(f, params)
                assert np.abs(u).max() <= sup_bound + 1e-12
                assert np.abs(np.diff(u)).max() <= diff_bound + 1e-12


class TestPseudoInverseBounds:
    def test_unit_rate(self):
        sup_b, diff_b = pseudo_inverse_bounds(SteinParams(1.0))
        assert sup_b == 1.0
        assert diff_b == pytest.approx(-math.expm1(-1.0), abs=1e-16)

    def test_rate_four(self):
        sup_b, diff_b = pseudo_inverse_bounds(SteinParams(4.0))
        assert sup_b == pytest.approx(0.7, abs=1e-15)
        assert diff_b == pytest.approx(-math.expm1(-4.0) / 4.0, abs=1e-16)

    def test_large_rate_scaling(self):
        for lam in [100.0, 400.0, 2500.0]:
            sup_b, _ = pseudo_inverse_bounds(SteinParams(lam))
            assert sup_b == pytest.approx(1.4 / math.sqrt(lam), rel=1e-15)


# ---------------------------------------------------------------------------
# exchangeable-pair identity oracle
# ---------------------------------------------------------------------------


def _delta(size, hits):
    g = np.zeros(size)
    for h in hits:
        g[h] = 1.0
    return g


class TestIdentityOracle:
    def test_poisson_binomial_indicator(self):
        rng = np.random.default_rng(5)
        p = rng.random(6)
        model = poisson_binomial_model(p)
        measure = enumerate_pair_measure(model)
        g = _delta(7, [0, 2, 5])
        lhs, rhs = stein_identity_oracle(measure, c=float(len(p)), g=g)
        assert abs(lhs - rhs) <= 1e-10

    def test_matching_indicator(self):
        model = matching_model(6)
        measure = enumerate_pair_measure(model)
        lhs, rhs = stein_identity_oracle(measure, c=(6 - 1) / 2.0, g=_delta(7, [0]))
        assert abs(lhs - rhs) <= 1e-10

    def test_constant_function_gives_zero(self):
        # the table must cover the whole truncated reference support,
        # otherwise the zero padding makes it non-constant
        model = matching_model(4)
        measure = enumerate_pair_measure(model)
        size = poisson_pmf(SteinParams(measure.lam)).mass.size + 1
        lhs, rhs = stein_identity_oracle(measure, c=1.5, g=np.full(size, 0.3))
        assert abs(lhs) < 1e-14
        assert abs(rhs) < 1e-13

    def test_rejects_nonpositive_c(self):
        model = matching_model(4)
        measure = enumerate_pair_measure(model)
        with pytest.raises(ValueError):
            stein_identity_oracle(measure, c=0.0, g=np.ones(5))

    def test_every_enumerable_family(self):
        rng = np.random.default_rng(17)
        cases = [
            poisson_binomial_model(rng.random(5)),
            matching_model(5),
            matching_model(4, (2, 2)),
            birthday_pairs_model(3, 3),
            birthday_triples_model(4, 4),
            coupon_model(3, 3),
        ]
        for model in cases:
            measure = enumerate_pair_measure(model)
            top = int(measure.w.max()) + 2
            g = (rng.random(top) < 0.5).astype(float)
            lhs, rhs = stein_identity_oracle(measure, c=model.c, g=g)
            assert abs(lhs - rhs) <= 1e-10, model.problem
