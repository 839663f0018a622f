"""Constraint pairs: the witnesses (x, y) that aq_radius and aq_crawford return.

Each estimator returns a witness pair with ||x||_A = ||y||_A = 1 and
<x, y>_A = q, lifted from the reduced partner vectors of its route; these tests
check that the pairs it hands back satisfy the constraints and attain the value
reported.
"""

import numpy as np
import pytest

from aqradius import Weight, a_inner, a_norm_vec, a_opnorm, aq_crawford, aq_radius
from conftest import crandn, random_pd_weight, random_q

ESTIMATORS = (aq_radius, aq_crawford)


def witness_pairs(w, t, q):
    """Yield (estimate, x, y) for each estimator on (w, t, q)."""
    for estimator in ESTIMATORS:
        est = estimator(w, t, q)
        yield est, est.witness_x, est.witness_y


def assert_constraint_pair(w, x, y, q):
    assert a_norm_vec(w, x) == pytest.approx(1.0, abs=1e-9)
    assert a_norm_vec(w, y) == pytest.approx(1.0, abs=1e-9)
    assert a_inner(w, x, y) == pytest.approx(q, abs=1e-9)


class TestSamplePairs:
    """The witness pairs of both estimators: their constraints and the values they attain."""

    def test_pair_invariants_on_weighted_instances(self, rng):
        for _ in range(3):
            n = int(rng.integers(2, 5))
            w = random_pd_weight(rng, n)
            t = crandn(rng, n, n)
            q = random_q(rng)
            for _, x, y in witness_pairs(w, t, q):
                assert_constraint_pair(w, x, y, q)

    def test_norm_identity_for_sum_and_difference(self, rng):
        # || x +- y ||_A = sqrt(2) sqrt(1 +- Re q) on every witness pair
        for _ in range(3):
            w = random_pd_weight(rng, 4)
            t = crandn(rng, 4, 4)
            q = random_q(rng)
            for _, x, y in witness_pairs(w, t, q):
                plus = a_norm_vec(w, x + y)
                minus = a_norm_vec(w, x - y)
                assert plus == pytest.approx(np.sqrt(2 * (1 + q.real)), abs=1e-8)
                assert minus == pytest.approx(np.sqrt(2 * (1 - q.real)), abs=1e-8)

    def test_singular_weight_pairs_live_in_range(self, rng):
        w = Weight.diagonal([2.0, 1.0, 0.0])
        t = crandn(rng, 3, 3)
        t[:2, 2] = 0.0  # maps the null vector e3 into the null space
        for est, x, y in witness_pairs(w, t, 0.6):
            assert abs(x[2]) < 1e-12
            assert abs(y[2]) < 1e-12
            assert_constraint_pair(w, x, y, 0.6)
            assert abs(a_inner(w, t @ x, y)) == pytest.approx(est.value, abs=1e-12 * a_opnorm(w, t))

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8, 1e12])
    def test_constraints_hold_at_every_weight_scale(self, rng, scale):
        # round-off in <x, x>_A grows with ||A||; the checks must scale with it,
        # and the witness must attain the value down to T -> 1e-16 T
        w = Weight(scale * random_pd_weight(rng, 3).a)
        t = crandn(rng, 3, 3)
        q = 0.6 + 0.3j
        for c in (1e-16, 1e-8, 1.0):
            tc = c * t
            for est, x, y in witness_pairs(w, tc, q):
                assert_constraint_pair(w, x, y, q)
                assert abs(a_inner(w, tc @ x, y)) == pytest.approx(
                    est.value, abs=1e-12 * a_opnorm(w, tc)
                )
