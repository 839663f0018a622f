import numpy as np
import pytest

from aqradius import (
    RankTooLow,
    Weight,
    a_inner,
    a_norm_vec,
    complete_pair,
    sample_pairs,
)
from conftest import random_pd_weight, random_q


class TestCompletePair:
    def test_q_one_forces_partner_equal(self):
        w = Weight.identity(2)
        pair = complete_pair(w, [1, 0], [0, 1], theta=0.0, q=1.0)
        np.testing.assert_allclose(pair.y, [1, 0], atol=1e-15)

    def test_half_q_on_plane(self):
        w = Weight.identity(2)
        pair = complete_pair(w, [1, 0], [0, 1], theta=0.0, q=0.5)
        np.testing.assert_allclose(pair.y, [0.5, np.sqrt(3) / 2], atol=1e-15)
        assert a_inner(w, pair.x, pair.y) == pytest.approx(0.5, abs=1e-15)

    def test_weighted_imaginary_q(self):
        w = Weight.diagonal([1, 4])
        x = np.array([1, 0], dtype=complex)
        z = np.array([0, 0.5], dtype=complex)
        pair = complete_pair(w, x, z, theta=np.pi / 2, q=0.6j)
        np.testing.assert_allclose(pair.y, [-0.6j, 0.4j], atol=1e-12)
        assert pair.constraint_residual < 1e-12

    def test_rejects_non_unit_x(self):
        w = Weight.identity(2)
        with pytest.raises(ValueError, match="A-unit"):
            complete_pair(w, [2, 0], [0, 1], 0.0, 0.5)

    def test_rejects_non_orthogonal_z(self):
        w = Weight.identity(2)
        z = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(ValueError, match="orthogonal"):
            complete_pair(w, [1, 0], z, 0.0, 0.5)


class TestSamplePairs:
    def test_rank_too_low(self):
        with pytest.raises(RankTooLow):
            sample_pairs(Weight.diagonal([1, 0]), 0.5, 4, seed=0)

    def test_rank_one_degenerate_q_allowed(self):
        pairs = sample_pairs(Weight.diagonal([1, 0]), 1.0, 4, seed=0)
        for pair in pairs:
            np.testing.assert_allclose(pair.y, pair.x, atol=1e-12)

    def test_q_one_gives_equal_pairs(self):
        for pair in sample_pairs(Weight.identity(2), 1.0, 8, seed=3):
            np.testing.assert_allclose(pair.y, pair.x, atol=1e-10)

    def test_residual_audit(self):
        w = Weight.identity(3)
        pairs = sample_pairs(w, 0.7, 1000, seed=11)
        assert len(pairs) == 1000
        for pair in pairs:
            assert abs(pair.q_achieved - 0.7) < 1e-9
            assert abs(a_norm_vec(w, pair.x) - 1) < 1e-9
            assert abs(a_norm_vec(w, pair.y) - 1) < 1e-9

    def test_pair_invariants_on_weighted_instances(self, rng):
        for _ in range(5):
            w = random_pd_weight(rng, 3)
            q = random_q(rng)
            for pair in sample_pairs(w, q, 20, seed=int(rng.integers(2**31))):
                assert abs(a_norm_vec(w, pair.x) - 1) <= 1e-9
                assert abs(a_norm_vec(w, pair.y) - 1) <= 1e-9
                assert abs(pair.q_achieved - q) <= 1e-9

    def test_norm_identity_for_sum_and_difference(self, rng):
        # || x +- y ||_A = sqrt(2) sqrt(1 +- Re q) on every sampled pair
        for _ in range(5):
            w = random_pd_weight(rng, 4)
            q = random_q(rng)
            for pair in sample_pairs(w, q, 25, seed=int(rng.integers(2**31))):
                plus = a_norm_vec(w, pair.x + pair.y)
                minus = a_norm_vec(w, pair.x - pair.y)
                assert plus == pytest.approx(np.sqrt(2 * (1 + q.real)), abs=1e-8)
                assert minus == pytest.approx(np.sqrt(2 * (1 - q.real)), abs=1e-8)

    def test_reproducible_bit_for_bit(self):
        w = Weight.diagonal([1, 2, 3])
        first = sample_pairs(w, 0.4 + 0.2j, 50, seed=42)
        second = sample_pairs(w, 0.4 + 0.2j, 50, seed=42)
        for p1, p2 in zip(first, second):
            assert np.array_equal(p1.x, p2.x)
            assert np.array_equal(p1.y, p2.y)
            assert p1.q_achieved == p2.q_achieved

    def test_different_seeds_differ(self):
        w = Weight.identity(2)
        a = sample_pairs(w, 0.5, 1, seed=0)[0]
        b = sample_pairs(w, 0.5, 1, seed=1)[0]
        assert not np.allclose(a.x, b.x)

    def test_singular_weight_pairs_live_in_range(self, rng):
        w = Weight.diagonal([2.0, 1.0, 0.0])
        for pair in sample_pairs(w, 0.6, 10, seed=5):
            assert abs(pair.x[2]) < 1e-12
            assert abs(pair.y[2]) < 1e-12
            assert abs(pair.q_achieved - 0.6) < 1e-9

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8, 1e12])
    def test_constraints_hold_at_every_weight_scale(self, rng, scale):
        # round-off in <x, x>_A grows with ||A||; the checks must scale with it
        w = Weight(scale * random_pd_weight(rng, 4).a)
        q = 0.6 + 0.3j
        for pair in sample_pairs(w, q, 50, seed=3):
            assert abs(a_norm_vec(w, pair.x) - 1) <= 1e-9
            assert abs(a_norm_vec(w, pair.y) - 1) <= 1e-9
            assert abs(pair.q_achieved - q) <= 1e-9
