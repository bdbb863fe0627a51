import itertools
import math

import numpy as np
import pytest

from steinpoisson import (
    MatchingSpec,
    SteinParams,
    Pmf,
    bound_fixed_point_succession,
    joint_fixed_point_succession_pmf,
    joint_marginal,
    joint_tv,
    matching_config_law,
    matching_pmf,
    poisson_pmf,
    process_tv,
    product_poisson_config_law,
    product_poisson_joint,
    tv_distance,
)
from steinpoisson.exact_laws import MATCHING_CAP
from steinpoisson.multivariate import JOINT_CAP, ConfigLaw, JointPmf
from steinpoisson.stein_core import TRUNCATION_EPS

import oracles


class TestJointFixedSuccession:
    def test_two_letters(self):
        # identity has two fixed points; the swap has two cyclic successions
        law = joint_fixed_point_succession_pmf(2)
        assert law.dim == 2
        assert np.array_equal(law.mass, [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]])

    def test_marginals_match_univariate(self):
        for n in (3, 5, 6, 50):
            law = joint_fixed_point_succession_pmf(n)
            fixed = joint_marginal(law, 0)
            succ = joint_marginal(law, 1)
            ref = matching_pmf(MatchingSpec(n))
            size = ref.mass.size
            assert np.abs(fixed.mass[:size] - ref.mass).max() < 1e-12
            # the cyclic-succession count has the same law as the fixed points
            assert np.abs(succ.mass[: fixed.mass.size] - fixed.mass).max() < 1e-12

    def test_unit_means(self):
        for n in (2, 4, 7):
            law = joint_fixed_point_succession_pmf(n)
            assert joint_marginal(law, 0).mean() == pytest.approx(1.0, abs=1e-12)
            assert joint_marginal(law, 1).mean() == pytest.approx(1.0, abs=1e-12)

    def test_equals_enumeration(self):
        for n in range(2, 9):
            brute = oracles.enumerate_joint_fixed_succession(n)
            # nonnegative floats: equal values means bit for bit
            assert np.array_equal(joint_fixed_point_succession_pmf(n).mass, brute)

    def test_cap(self):
        with pytest.raises(ValueError):
            joint_fixed_point_succession_pmf(JOINT_CAP + 1)


class TestProductPoissonJoint:
    def test_one_dimension_reduces(self):
        joint = product_poisson_joint([2.0])
        ref = poisson_pmf(SteinParams(2.0))
        for j in range(ref.mass.size):
            assert joint.mass[(j,)] == pytest.approx(ref.mass[j], abs=1e-16)
        assert joint.tail == pytest.approx(ref.tail, abs=1e-15)

    def test_origin_mass(self):
        joint = product_poisson_joint([1.0, 1.5])
        assert joint.mass[(0, 0)] == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_tail_union_bound(self):
        joint = product_poisson_joint([1.0, 1.0])
        assert joint.tail <= 2 * TRUNCATION_EPS
        # exact residual: 1 - product of covered coordinate masses
        covered = joint.mass.sum()
        assert joint.tail == pytest.approx(1.0 - covered, abs=1e-14)


    @pytest.mark.parametrize("law", [product_poisson_joint, product_poisson_config_law])
    @pytest.mark.parametrize("rates", [[], [0.0], [-0.5], [1.0, 0.0], [math.nan], [math.inf],
                                       [math.nan, math.nan], [1.0, math.nan]], ids=str)
    def test_product_laws_share_the_positive_rate_rule(self, law, rates):
        message = "lam must be a positive finite real" if rates else "need at least one rate"
        with pytest.raises(ValueError, match=f"^{message}$"):
            law(rates)


class TestJointTv:
    def test_identical_zero(self):
        law = joint_fixed_point_succession_pmf(4)
        assert joint_tv(law, law) == 0.0

    def test_capped_at_one_as_tv_distance(self):
        assert joint_tv(JointPmf(np.array([[0.0, 1 + 5e-13]])), JointPmf(np.array([[1.0]]))) == 1.0

    def test_seven_letters_pinned(self):
        law = joint_fixed_point_succession_pmf(7)
        ref = product_poisson_joint([1.0, 1.0])
        value = joint_tv(law, ref)
        assert value == pytest.approx(0.05082463267416586, abs=1e-13)
        assert value <= 13 / 7

    def test_dimension_mismatch(self):
        law = joint_fixed_point_succession_pmf(4)
        with pytest.raises(ValueError):
            joint_tv(law, product_poisson_joint([1.0]))

    def test_pads_to_common_box(self):
        # tables of different shapes compare as if zero-padded
        a = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
        b = JointPmf(np.array([[0.5, 0.0, 0.25], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]]))
        assert joint_tv(a, b) == 0.5

    def test_dominates_marginal_tv(self):
        # projecting to one coordinate can only lose information
        for n in (4, 6):
            law = joint_fixed_point_succession_pmf(n)
            ref = product_poisson_joint([1.0, 1.0])
            joint_value = joint_tv(law, ref)
            uni = tv_distance(matching_pmf(MatchingSpec(n)), poisson_pmf(SteinParams(1.0)))
            assert joint_value >= uni - 1e-12


class TestMultivariateBounds:
    def test_worked_example_values(self):
        assert bound_fixed_point_succession(13).value == 1.0
        assert bound_fixed_point_succession(100).value == pytest.approx(0.13)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bound_fixed_point_succession(2)


class TestMatchingConfigLaw:
    def test_two_letters(self):
        # identity (both fixed) or the swap (neither)
        law = matching_config_law(2)
        assert law.index_size == 2
        assert np.array_equal(law.size.mass, [0.5, 0.0, 0.5])

    def test_total_mass_one(self):
        for n in (3, 6, 10, MATCHING_CAP):
            law = matching_config_law(n)
            assert math.fsum(law.size.mass.tolist()) == pytest.approx(1.0, abs=1e-12)
            assert law.size.tail == 0.0

    def test_projection_is_matching_law(self):
        for n in (3, 5, 9):
            size = matching_config_law(n).size
            ref = matching_pmf(MatchingSpec(n))
            assert np.array_equal(size.mass, ref.mass)

    def test_against_permutation_enumeration(self):
        # exchangeability, which the by-size form relies on: every
        # configuration with s fixed points is reached by the same number
        # of permutations, D_{n-s}, so it carries mass size.mass[s] / C(n, s)
        for n in range(2, 8):
            law = matching_config_law(n)
            counts = oracles.enumerate_fixed_point_configurations(n)
            by_size = {}
            for cfg, cnt in counts.items():
                by_size.setdefault(sum(cfg), set()).add(cnt)
            for s, cnts in by_size.items():
                assert cnts == {oracles.derangements(n - s)}
                per_cfg = law.size.mass[s] / math.comb(n, s)
                assert per_cfg == pytest.approx(cnts.pop() / math.factorial(n), rel=1e-14)

    def test_cap(self):
        with pytest.raises(ValueError):
            matching_config_law(MATCHING_CAP + 1)


class TestProductPoissonConfigLaw:
    def test_all_zeros_mass(self):
        law = product_poisson_config_law([0.3] * 3)
        assert law.size.mass[0] == pytest.approx(math.exp(-0.9), rel=1e-13)

    def test_pair_of_halves(self):
        law = product_poisson_config_law([0.5, 0.5])
        assert law.size.mass[2] == pytest.approx(math.exp(-1.0) / 4.0, rel=1e-13)

    def test_tail_formula_against_series(self):
        p = [0.5, 0.5]
        law = product_poisson_config_law(p)
        # direct series: total mass of the product law with any count >= 2,
        # summed far past numerical relevance
        def poi(lam, j):
            return math.exp(-lam) * lam**j / math.factorial(j)

        covered = sum(
            poi(p[0], a) * poi(p[1], b) for a in range(2) for b in range(2)
        )
        series_tail = 1.0 - covered
        assert law.size.tail == pytest.approx(series_tail, abs=1e-14)
        formula_tail = 1.0 - math.prod(math.exp(-x) * (1 + x) for x in p)
        assert law.size.tail == pytest.approx(formula_tail, abs=1e-14)

    def test_by_size_matches_cube(self):
        for n in (1, 4, 7):
            law = product_poisson_config_law([0.2] * n)
            cube, tail = oracles.product_poisson_config_cube([0.2] * n)
            for s in range(n + 1):
                in_class = [m for cfg, m in cube.items() if sum(cfg) == s]
                assert law.size.mass[s] == pytest.approx(math.fsum(in_class), rel=1e-14)
            assert law.size.tail == pytest.approx(tail, abs=1e-15)

    def test_rejects_unequal_rates(self):
        with pytest.raises(ValueError, match="equal rates"):
            product_poisson_config_law([0.5, 0.25])
        with pytest.raises(ValueError):
            product_poisson_config_law([])
        with pytest.raises(ValueError):
            product_poisson_config_law([0.0, 0.0])
        with pytest.raises(ValueError, match="overflows"):
            product_poisson_config_law([1e-3] * 1100)  # C(1100, 550) > 1.8e308


class TestProcessTv:
    def test_identical_zero(self):
        law = matching_config_law(4)
        assert process_tv(law, law) == 0.0

    def test_six_letters_pinned(self):
        config = matching_config_law(6)
        ref = product_poisson_config_law([1 / 6] * 6)
        value = process_tv(config, ref)
        assert value == pytest.approx(0.073842131618612, abs=1e-13)
        assert value <= 4 / 6

    def test_index_mismatch(self):
        with pytest.raises(ValueError):
            process_tv(matching_config_law(3), matching_config_law(4))

    def test_equals_cube_total_variation(self):
        # the by-size distance is the distance over all 2^n configurations
        for n in range(2, 13):
            ref = product_poisson_config_law([1 / n] * n)
            cube, tail = oracles.product_poisson_config_cube([1 / n] * n)
            brute = oracles.cube_tv(oracles.matching_config_cube(n), 0.0, cube, tail)
            assert process_tv(matching_config_law(n), ref) == pytest.approx(brute, abs=1e-15)

    def test_dominates_count_projection(self):
        # the size law is the count projection; against the full Poisson
        # count law the binary restriction's tail is what differs
        for n in (4, 8):
            config = matching_config_law(n)
            ref = product_poisson_config_law([1 / n] * n)
            proc = process_tv(config, ref)
            uni = tv_distance(matching_pmf(MatchingSpec(n)), poisson_pmf(SteinParams(1.0)))
            assert proc == tv_distance(config.size, ref.size)
            assert proc >= uni - 2e-3

    def test_data_processing_inequalities(self):
        # a genuine projection: joint -> marginal.  (The succession count
        # is not a function of the fixed-point configuration, so no
        # inequality links process TV and joint TV; at n = 6 they order as
        # 0.0738 < 0.0752.)
        for n in (4, 6, 8):
            joint = joint_fixed_point_succession_pmf(n)
            ref2 = product_poisson_joint([1.0, 1.0])
            assert joint_tv(joint, ref2) >= tv_distance(
                joint_marginal(joint, 0), joint_marginal(ref2, 0)
            ) - 1e-12


class TestConfigGenerator:
    def test_empty_configuration(self):
        p = [0.5, 0.25]

        def h(cfg):
            return float(sum(cfg) ** 2)

        value = oracles.config_generator_apply(h, p, (0, 0))
        expected = sum(pi * (h((1, 0)) - h((0, 0))) for pi in p)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_constant_function(self):
        assert oracles.config_generator_apply(lambda cfg: 3.0, [0.3, 0.7], (2, 1)) == 0.0

    def test_death_term(self):
        p = [0.4]

        def h(cfg):
            return float(cfg[0])

        # births at rate p, deaths at unit rate per particle
        assert oracles.config_generator_apply(h, p, (3,)) == pytest.approx(0.4 - 3.0, abs=1e-14)

    def test_stationarity_of_product_poisson(self):
        rng = np.random.default_rng(44)
        p = [0.5, 0.35, 0.8]
        cap = 6
        grid = list(itertools.product(range(cap + 1), repeat=3))
        weights = {}
        for cfg in grid:
            w = 1.0
            for x, lam in zip(cfg, p):
                w *= math.exp(-lam) * lam**x / math.factorial(x)
            weights[cfg] = w
        tail = 1.0 - math.fsum(weights.values())
        for _ in range(50):
            table = rng.uniform(-1.0, 1.0, (cap + 2, cap + 2, cap + 2))

            def h(cfg):
                return float(table[min(cfg[0], cap + 1), min(cfg[1], cap + 1), min(cfg[2], cap + 1)])

            mean = math.fsum(
                weights[cfg] * oracles.config_generator_apply(h, p, cfg) for cfg in grid
            )
            delta = 2.0 * np.abs(table).max()
            assert abs(mean) <= 10.0 * tail * delta

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            oracles.config_generator_apply(lambda cfg: 0.0, [0.5], (-1,))

    def test_stationary_residual_decays_with_truncation(self):
        # E[T h] over the truncated product law shrinks as the cap grows
        rng = np.random.default_rng(7)
        p = [0.6, 0.4]
        table = rng.uniform(-1.0, 1.0, (12, 12))

        def h(cfg):
            return float(table[min(cfg[0], 11), min(cfg[1], 11)])

        residuals = []
        for cap in (2, 4, 6, 8):
            grid = list(itertools.product(range(cap + 1), repeat=2))
            mean = 0.0
            for cfg in grid:
                w = 1.0
                for x, lam in zip(cfg, p):
                    w *= math.exp(-lam) * lam**x / math.factorial(x)
                mean += w * oracles.config_generator_apply(h, p, cfg)
            residuals.append(abs(mean))
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[-1] < 1e-6


class TestLawValidation:
    def test_joint_pmf_invariants(self):
        with pytest.raises(ValueError):
            JointPmf(np.array([[0.5, 0.0]]))  # mass deficit
        with pytest.raises(ValueError):
            JointPmf(np.array(1.0))  # no coordinate
        with pytest.raises(ValueError):
            JointPmf(np.array([[1.5, -0.5]]))  # negative mass
        assert JointPmf(np.array([[0.25, 0.25], [0.25, 0.0]]), tail=0.25).dim == 2

    def test_config_law_invariants(self):
        with pytest.raises(ValueError):
            ConfigLaw(2, Pmf(np.array([0.0, 0.0, 0.0, 1.0])))  # size past the index set
        with pytest.raises(ValueError):
            ConfigLaw(2, Pmf(np.array([0.0, 0.9])))  # deficit
