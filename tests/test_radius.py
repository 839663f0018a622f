import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqradius import (
    LOWER_BOUND_OF_SUP,
    TWO_SIDED,
    UPPER_BOUND_OF_INF,
    Budget,
    NotABounded,
    RankTooLow,
    Weight,
    a_crawford,
    a_inner,
    a_opnorm,
    a_radius,
    aq_crawford,
    aq_radius,
    canonical_2x2,
    jordan3_q_radius,
    q_crawford_2x2,
    q_radius_2x2,
    reduce_to_range,
)
from aqradius import cli, radius, semispace
from aqradius.radius import (
    _BRACKET_PHASES,
    _bfgs_update,
    _bracket,
    _extremize,
    _normalize_rows,
    _prepare,
    _rule,
    _starts,
    _witness,
)
from aqradius.semispace import as_operator
from conftest import clear_estimate_caches, crandn, nearly_normal, phase_grid, random_pd_weight, random_q
from oracle import oracle_grid

EX1 = np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
EX2 = np.array([[0.0, 1.0 / 24.0], [0.0, 0.0]], dtype=complex)
JORDAN3 = np.diag([1.0, 1.0], k=1).astype(complex)
I2 = Weight.identity(2)
I3 = Weight.identity(3)


def witness_value(w, t, est):
    return abs(a_inner(w, np.asarray(t) @ est.witness_x, est.witness_y))


class TestARadius:
    def test_paper_halved_norm_nilpotent(self):
        est = a_radius(I2, EX2)
        assert est.value == pytest.approx(1 / 48, abs=1e-12)
        assert est.direction == TWO_SIDED

    def test_paper_jordan_block(self):
        assert a_radius(I3, JORDAN3).value == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_hermitian_spectral_radius(self):
        assert a_radius(I2, np.diag([-2.0, 1.0])).value == pytest.approx(2.0, abs=1e-12)

    def test_witness_reproduces_value(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        est = a_radius(w, t)
        assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-12 * a_opnorm(w, t))


class TestPhaseMax:
    """`_bracket`, the max over the phase behind every |q| = 1 value."""

    @pytest.mark.parametrize("offset", [-0.3, 0.37, 5.5, 15.8])
    def test_finds_a_maximum_between_grid_points(self, rng, offset):
        # B is normal, so lambda_max(H(e^{i phi} B)) is max_j Re(e^{i phi} mu_j); it
        # peaks at |mu_1| = 3 where phi = 2 pi offset / 16, between the grid's phases
        peak = 2 * np.pi * offset / 16
        u = np.linalg.qr(crandn(rng, 3, 3))[0]
        b = (u * [3 * np.exp(-1j * peak), 1.5j, -1.0]) @ u.conj().T
        value, _, vectors, *_ = _bracket(b, smallest=False)
        v = vectors[:, -1]
        assert value == pytest.approx(3.0, abs=3e-12)
        assert abs(np.vdot(v, b @ v)) == pytest.approx(value, abs=3e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 8]), smallest=st.booleans())
    @example(seed=2027, n=8, smallest=True)  # a refine's eigh put the best sample an ulp below it
    def test_never_below_the_best_grid_sample(self, seed, n, smallest):
        # the first level samples 16 equispaced phases with the bracket's own solver,
        # half of them as the negated spectra of the others: H at phi + pi is -H at phi
        b = crandn(np.random.default_rng(seed), n, n)
        h = radius._hermitian(b, 2 * np.pi / _BRACKET_PHASES * np.arange(_BRACKET_PHASES // 2))
        vals = np.linalg.eigh(h)[0] if smallest else np.linalg.eigvalsh(h)
        low, high = np.concatenate([vals[:, 0], -vals[:, -1]]), np.concatenate([vals[:, -1], -vals[:, 0]])
        assert _bracket(b, smallest)[0] >= (max(low.max(), 0.0) if smallest else high.max())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 8]),
        kind=st.sampled_from(["gaussian", "shifted", "nearly-normal"]),
        smallest=st.booleans(),
    )
    def test_brackets_the_dense_grid_max(self, seed, n, kind, smallest):
        # the 4096-phase grid is a lower bound of the max, which lies below upper up
        # to the eigensolver's backward error; the bracket closes to 1e-12 ||B||
        rng = np.random.default_rng(seed)
        b = nearly_normal(seed, n) if kind == "nearly-normal" else crandn(rng, n, n)
        if kind == "shifted":
            b = b + 2.0 * np.sqrt(n) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(n)
        norm = np.linalg.norm(b, 2)
        lower, upper, _, _, _, closed = _bracket(b, smallest)
        grid = max(phase_grid(b, True), 0.0) if smallest else phase_grid(b, False)
        assert grid <= upper + n * np.finfo(float).eps * norm
        assert lower <= upper <= lower + 1e-12 * norm
        assert closed == 1

    def test_an_open_bracket_keeps_the_bound_of_its_open_cells(self):
        # lambda_max of J3 is flat (W(J3) is a disk about 0), so no cell closes before
        # the cap: the bracket's omega_A is a lower bound, and upper the bound of the cells
        # left open.  a_radius takes J3's generator instead, one eigenproblem, two-sided
        b = JORDAN3 / np.linalg.norm(JORDAN3)  # omega = 1 / 2
        lower, upper, _, _, evaluations, closed = _bracket(b, smallest=False)
        assert (closed, evaluations <= radius._BRACKET_CAP + 1) == (0, True)
        assert lower == pytest.approx(0.5, abs=1e-15)
        assert upper > 0.5 + 1e-12
        est = a_radius(I3, JORDAN3)
        assert (est.direction, est.evaluations, est.converged) == (TWO_SIDED, 1, 1)

    def test_eigenvector_reproduces_the_value_among_several_peaks(self):
        # nearly normal B peak several times; the eigenvector at the best phase attains
        # the value, also for nearly_normal(278, 8), where a Newton refine once stopped
        # at the end of a cell while lambda_max still rose
        cases = [nearly_normal(278, 8)] + [nearly_normal(s) for s in range(40)]
        for b in cases:
            value, _, vectors, *_ = _bracket(b, smallest=False)
            v = vectors[:, -1]
            assert abs(np.vdot(v, b @ v)) == pytest.approx(value, abs=1e-12 * np.linalg.norm(b, 2))


class TestAqRadius:
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_example1_formula(self, q):
        target = (1 + np.sqrt(1 - q * q)) / 140
        assert aq_radius(I2, EX1, q).value == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("q", [0.1, 0.4, 1.0])
    def test_scalar_formula(self, q):
        est = aq_radius(I2, np.eye(2) / 20, q)
        assert est.value == pytest.approx(q / 20, abs=1e-10)

    def test_jordan_li_nakazato_value(self):
        q = 0.75
        target = 0.125 * np.sqrt(
            27 + 18 * q - 13 * q**2 + (9 + 7 * q) * np.sqrt((1 - q) * (9 + 7 * q))
        )
        assert aq_radius(I3, JORDAN3, q).value == pytest.approx(target, abs=1e-5)

    def test_q_one_matches_phase_sweep(self, rng):
        # a 4096-point lambda_max grid is a lower bound within 3e-7 ||B||_2 of omega_A
        for _ in range(8):
            n = int(rng.integers(2, 5))
            w = random_pd_weight(rng, n)
            t = crandn(rng, n, n)
            b = reduce_to_range(w, t)
            grid, norm = phase_grid(b, smallest=False), np.linalg.norm(b, 2)
            assert grid - 1e-12 * norm <= aq_radius(w, t, 1.0).value <= grid + 1e-6 * norm

    def test_direction_label(self):
        # reduced dimension 2 takes the closed form, dimension 3 the sphere search
        assert aq_radius(I2, EX1, 0.5).direction == TWO_SIDED
        assert aq_radius(I3, JORDAN3, 0.5).direction == LOWER_BOUND_OF_SUP

    def test_rank_too_low(self):
        w = Weight.diagonal([1.0, 0.0])
        with pytest.raises(RankTooLow):
            aq_radius(w, np.diag([1.0, 0.0]), 0.5)

    def test_rank_one_degenerate_q(self):
        w = Weight.diagonal([1.0, 0.0])
        est = aq_radius(w, np.diag([3.0, 0.0]), 1.0)
        assert est.value == pytest.approx(3.0, abs=1e-10)

    def test_not_a_bounded_propagates(self):
        w = Weight.diagonal([1.0, 0.0])
        with pytest.raises(NotABounded):
            aq_radius(w, np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_witness_is_constraint_pair_reproducing_value(self, rng):
        for _ in range(6):
            w = random_pd_weight(rng, 3)
            t = crandn(rng, 3, 3)
            q = random_q(rng)
            est = aq_radius(w, t, q)
            assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-7)
            assert a_inner(w, est.witness_x, est.witness_y) == pytest.approx(q, abs=1e-9)

    def test_depends_only_on_q_modulus(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        q = random_q(rng)
        for estimator in (aq_radius, aq_crawford):
            assert estimator(w, t, 0.6j).value == estimator(w, t, 0.6).value
            assert estimator(w, t, q).value == estimator(w, t, abs(q)).value


class TestAqCrawford:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_nilpotent_vanishes(self, q):
        assert aq_crawford(I2, EX1, q).value == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("q", [0.3, 0.8, 1.0])
    def test_scalar_formula(self, q):
        # reduced dimension 2 takes the closed form, two-sided at every q
        est = aq_crawford(I2, np.eye(2) / 20, q)
        assert est.value == pytest.approx(q / 20, abs=1e-10)
        assert est.direction == TWO_SIDED

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_attained_zero_is_two_sided(self, n):
        # unshifted Gaussian draws put 0 in the disk rule's reach; as c_q >= 0,
        # a 0 that the witness attains is exact.  A shift by s = 4 ||T||_A / |q|
        # gives |q| |c| >= 3 ||T||_A > p rho, so c_q > 0 stays one-sided
        rng = np.random.default_rng(n)
        budget = Budget(16, 200)
        for _ in range(4):
            w, t, q = random_pd_weight(rng, n), crandn(rng, n, n), random_q(rng)
            est = aq_crawford(w, t, q, budget)
            assert est.value == 0.0
            assert est.direction == TWO_SIDED
            assert witness_value(w, t, est) <= 1e-12 * a_opnorm(w, t)
            shift = 4.0 * a_opnorm(w, t) / abs(q)
            shifted = aq_crawford(w, t + shift * np.eye(n), q, budget)
            assert shifted.value > 0.0
            assert shifted.direction == UPPER_BOUND_OF_INF

    def test_positive_diagonal_crawford_at_q_one(self):
        assert aq_crawford(I2, np.diag([1.0, 3.0]), 1.0).value == pytest.approx(
            1.0, abs=1e-6
        )

    def test_a_crawford_is_q_one_specialization(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        assert a_crawford(w, t).value == aq_crawford(w, t, 1.0).value

    def test_witness_reproduces_value(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            w = random_pd_weight(rng, n)
            t = crandn(rng, n, n)
            q = random_q(rng)
            est = aq_crawford(w, t, q)
            assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-7)
            assert a_inner(w, est.witness_x, est.witness_y) == pytest.approx(q, abs=1e-9)


class TestGaps:
    """Gaps against the seminorm, ||T||_A minus each estimate, as `sequences.trace_gaps` takes them."""

    @pytest.mark.parametrize("q", [0.3, 0.8 + 0.1j, 1.0])
    def test_identity_gaps(self, q):
        op = a_opnorm(I2, np.eye(2))
        assert op - aq_radius(I2, np.eye(2), q).value == pytest.approx(1 - abs(q), abs=1e-8)
        assert op - aq_crawford(I2, np.eye(2), q).value == pytest.approx(1 - abs(q), abs=1e-8)

    def test_example1_gap_at_q_one(self):
        op = a_opnorm(I2, EX1)
        assert op == pytest.approx(1 / 70, abs=1e-15)
        assert op - aq_radius(I2, EX1, 1.0).value == pytest.approx(1 / 140, abs=1e-8)

    def test_gap_identity_holds(self, rng):
        # 0 <= ||T||_A - omega_q <= ||T||_A - c_q; with one seed both searches
        # share their starts, where the inf rule never exceeds the sup rule
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        op = a_opnorm(w, t)
        gap_omega = op - aq_radius(w, t, 0.7).value
        gap_c = op - aq_crawford(w, t, 0.7).value
        assert gap_omega >= -1e-7
        assert gap_c >= gap_omega


class TestOracleGrid:
    def test_example1_against_formula(self):
        lo_sup, _ = oracle_grid(I2, EX1, 0.5, resolution=400)
        target = (1 + np.sqrt(0.75)) / 140
        assert lo_sup == pytest.approx(target, abs=2e-4)
        assert lo_sup <= target + 1e-12

    def test_zero_matrix(self):
        assert oracle_grid(I2, np.zeros((2, 2)), 0.5, 64) == (0.0, 0.0)

    def test_hermitian_q_one_matches_eigenvalues(self):
        t = np.diag([-2.0, 1.0]).astype(complex)
        lo_sup, up_inf = oracle_grid(I2, t, 1.0, resolution=200)
        assert lo_sup == pytest.approx(2.0, abs=1e-6)  # spectral radius
        assert up_inf == pytest.approx(0.0, abs=1e-6)  # 0 is inside [-2, 1]

    def test_rejects_large_dimension(self, rng):
        w = Weight.identity(4)
        with pytest.raises(ValueError, match="<= 3"):
            oracle_grid(w, crandn(rng, 4, 4), 0.5)

    def test_estimators_agree_with_oracle(self, rng):
        for n in (2, 3):
            for _ in range(2):
                w = random_pd_weight(rng, n)
                t = crandn(rng, n, n)
                q = random_q(rng)
                lo_sup, up_inf = oracle_grid(w, t, q, resolution=200)
                rad = aq_radius(w, t, q).value
                cra = aq_crawford(w, t, q).value
                assert rad >= lo_sup - 1e-6
                assert cra <= up_inf + 1e-6
                assert rad == pytest.approx(lo_sup, abs=5e-3)
                assert cra == pytest.approx(up_inf, abs=5e-3)


class TestEstimatorContracts:
    @pytest.mark.parametrize(
        "fields",
        [
            {"restarts": 0},
            {"iterations": -5},
            {"grid_resolution": -1},
            {"grid_resolution": 3},
            {"grid_resolution": 4.5},
            {"restarts": 2.5},
            {"iterations": 4.5},
            {"iterations": 64.0},
            {"restarts": True},
            {"iterations": np.True_},
        ],
        ids=[
            "restarts-0", "iterations-negative", "grid-negative", "grid-3", "grid-4.5",
            "restarts-2.5", "iterations-4.5", "iterations-64.0", "restarts-True", "iterations-np.True_",
        ],  # fmt: skip
    )
    def test_budget_rejects_fields_it_cannot_run(self, fields):
        with pytest.raises(ValueError, match="restarts >= 1, iterations >= 1, grid_resolution >= 4"):
            Budget(**fields)

    def test_monotone_budget_in_restarts(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        q = 0.45
        small, big = Budget(restarts=4, iterations=60), Budget(restarts=8, iterations=60)
        rad_small = aq_radius(w, t, q, small, seed=9).value
        rad_big = aq_radius(w, t, q, big, seed=9).value
        assert rad_big >= rad_small - 1e-12
        cra_small = aq_crawford(w, t, q, small, seed=9).value
        cra_big = aq_crawford(w, t, q, big, seed=9).value
        assert cra_big <= cra_small + 1e-12

    def test_deterministic_for_fixed_seed(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        e1 = aq_radius(w, t, 0.3, Budget(8, 80), seed=5)
        clear_estimate_caches()
        e2 = aq_radius(w, t, 0.3, Budget(8, 80), seed=5)
        assert e1.value == e2.value
        assert np.array_equal(e1.witness_x, e2.witness_x)

    def test_inner_maximization_identity(self, rng):
        # the collapsed objective dominates every raw pair value and is attained
        w = random_pd_weight(rng, 4)
        t = crandn(rng, 4, 4)
        q = random_q(rng)
        b = reduce_to_range(w, t)
        p = np.sqrt(max(0.0, 1 - abs(q) ** 2))
        for _ in range(10_000):
            u = crandn(rng, 4)
            u /= np.linalg.norm(u)
            z = crandn(rng, 4)
            z -= (u.conj() @ z) * u
            z /= np.linalg.norm(z)
            theta = rng.uniform(0, 2 * np.pi)
            raw = abs(q * (u.conj() @ b @ u) + p * np.exp(-1j * theta) * (z.conj() @ b @ u))
            bu = b @ u
            c = u.conj() @ bu
            rho = np.linalg.norm(bu - c * u)
            assert raw <= abs(q) * abs(c) + p * rho + 1e-10

    def test_phase_covariance_of_radius_and_crawford(self, rng):
        # scaling the operator by a unimodular factor moves the phase onto q
        for _ in range(4):
            w = random_pd_weight(rng, 3)
            t = crandn(rng, 3, 3)
            q = random_q(rng)
            alpha = np.exp(1j * rng.uniform(0, 2 * np.pi))
            lhs = aq_radius(w, alpha * t, q).value
            rhs = aq_radius(w, t, alpha * q).value
            assert lhs == pytest.approx(rhs, abs=2e-3)
            lhs_c = aq_crawford(w, alpha * t, q).value
            rhs_c = aq_crawford(w, t, alpha * q).value
            assert lhs_c == pytest.approx(rhs_c, abs=2e-3)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), scalar=st.booleans())
    def test_radius_bounded_by_opnorm(self, seed, n, scalar):
        # c_q <= omega_q <= ||T||_A.  The estimates bound c_q from above and
        # omega_q from below, so the order is not implied by the bound
        # directions; distinct seeds keep the two searches from sharing starts,
        # where the inf rule never exceeds the sup rule
        rng = np.random.default_rng(seed)
        w = random_pd_weight(rng, n)
        t = complex(*rng.standard_normal(2)) * np.eye(n) if scalar else crandn(rng, n, n)
        q = random_q(rng)
        budget = Budget(16, 300)
        opnorm = a_opnorm(w, t)
        tol = 1e-9 * opnorm
        cra = aq_crawford(w, t, q, budget, seed=1).value
        rad = aq_radius(w, t, q, budget, seed=2).value
        assert cra <= rad + tol
        assert rad <= opnorm + tol
        if scalar:  # every pair gives |q| |z|, so c_q = omega_q
            assert cra == pytest.approx(rad, abs=tol)


def counting(rule):
    """`rule` wrapped to record the rows of each evaluation."""
    rows = []

    def wrapped(u):
        rows.append(u.shape[0])
        return rule(u)

    return wrapped, rows


class TestSearchCounts:
    def test_iteration_cap(self, rng):
        budget = Budget(8, 3)
        est = aq_radius(I3, crandn(rng, 3, 3), 0.4, budget)
        assert (est.evaluations, est.converged) == (budget.iterations + 1, 0)

    @pytest.mark.parametrize("estimator", [aq_radius, aq_crawford])
    def test_scalar_operator_stops_at_the_starts(self, rng, estimator):
        # every unit vector is a stationary point of both rules.  A scalar W(B) is a
        # (degenerate) segment, so the estimators take the closed form instead
        b = (0.3 - 2j) * np.eye(3) / np.sqrt(3 * abs(0.3 - 2j) ** 2)
        kind, budget = "sup" if estimator is aq_radius else "disk", Budget()
        _, _, evaluations, converged = _extremize(_rule(b, 0.4, np.sqrt(1 - 0.4**2), kind), 3, budget, 0)
        assert (evaluations, converged) == (1, budget.restarts)
        est = estimator(random_pd_weight(rng, 3), (0.3 - 2j) * np.eye(3), 0.4)
        assert (est.direction, est.evaluations, est.converged) == (TWO_SIDED, 1, 1)

    @pytest.mark.parametrize("estimator", [a_radius, a_crawford])
    def test_phase_bracket_closes_and_counts_eigenproblems(self, rng, estimator):
        # shifted, so that the Crawford number is positive.  The counts are the
        # bracket's: the eigenproblems it solved (for omega_A, one more eigh at the
        # best) and 1 for a closed bracket.  Reduced dimension 2 takes the closed form
        smallest = estimator is a_crawford
        for n in (3, 8, 16):
            t = crandn(rng, n, n) + 3.0 * np.sqrt(n) * np.eye(n)
            est = estimator(Weight.identity(n), t)
            assert est.direction == TWO_SIDED
            assert est.converged == 1
            assert est.evaluations == _bracket(t / np.linalg.norm(t), smallest)[4]
            assert _BRACKET_PHASES // 2 + (not smallest) < est.evaluations <= radius._BRACKET_CAP + 1


class TestStarts:
    def test_read_only(self):
        starts = _starts(0, 4, 3)
        assert not starts.flags.writeable
        with pytest.raises(ValueError):
            starts[0, 0] = 1.0

    @pytest.mark.parametrize("factor", [2, 4, 16])
    def test_budget_ladder_extends_the_starts(self, factor):
        # a budget with more restarts keeps the smaller budget's starts, so best-so-far holds
        for m in (1, 6, 8):
            small = _starts(7, m, 4)
            assert _starts(7, factor * m, 4)[:m].tobytes() == small.tobytes()

    def test_estimates_leave_the_cached_starts_unchanged(self, rng):
        budget = Budget(8, 40)
        before = _starts(3, budget.restarts, 3).copy()
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        aq_radius(w, t, 0.6, budget, seed=3)
        aq_crawford(w, t, 0.6, budget, seed=3)
        assert _starts(3, budget.restarts, 3).tobytes() == before.tobytes()

    def test_same_estimates_after_cache_clear(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        q = random_q(rng)
        for estimator in (aq_radius, aq_crawford):
            cached = estimator(w, t, q, Budget(8, 80), seed=4)
            _starts.cache_clear()
            clear_estimate_caches()  # else the cached search would serve the fresh call
            fresh = estimator(w, t, q, Budget(8, 80), seed=4)
            assert fresh.value == cached.value
            assert fresh.witness_x.tobytes() == cached.witness_x.tobytes()
            assert fresh.witness_y.tobytes() == cached.witness_y.tobytes()


def estimate_fields(est):
    """Every field of an Estimate, witnesses by their bytes."""
    return (est.value, est.direction, est.witness_x.tobytes(), est.witness_y.tobytes(), est.budget, est.seed,
            est.evaluations, est.converged)  # fmt: skip


PREPARED_ROUTES = [
    # (id, q, maker of (A, T), (closed form?, basis?) of the preparation): one per route of `_estimate`
    ("closed-form-2x2", 0.6, lambda rng: (random_pd_weight(rng, 2), crandn(rng, 2, 2)), (True, False)),
    ("segment", 0.6, lambda rng: (Weight.diagonal(rng.uniform(0.5, 2.0, 4)),
                                  np.exp(0.7j) * np.diag([1.0, -2.0, 0.5, 3.0]) + (0.2 - 1j) * np.eye(4)),
     (True, True)),
    ("bracket", 1.0, lambda rng: (random_pd_weight(rng, 3), crandn(rng, 3, 3) + 4.0 * np.eye(3)), (False, False)),
    ("sphere", 0.6, lambda rng: (random_pd_weight(rng, 3), crandn(rng, 3, 3)), (False, False)),
]  # fmt: skip


class TestPrepared:
    """`_prepare` and `_search`: the (A, T) work both estimators share and their sphere searches, 8 keys each."""

    @pytest.mark.parametrize("q, make, route", [pytest.param(*case[1:], id=case[0]) for case in PREPARED_ROUTES])
    def test_cold_warm_and_crossed_calls_agree(self, rng, q, make, route):
        (w, t), budget = make(rng), Budget(8, 80)
        _, basis, form, *_ = _prepare(w, as_operator(t).tobytes())
        assert (form is not None, basis is not None) == route
        sphere = int(form is None and q < 1.0)
        for estimator, other in ((aq_radius, aq_crawford), (aq_crawford, aq_radius)):
            clear_estimate_caches()
            cold = estimate_fields(estimator(w, t, q, budget, seed=4))
            warm = estimate_fields(estimator(w, t, q, budget, seed=4))
            assert radius._search.cache_info()[:2] == (sphere, sphere)  # (hits, misses): the cold search served
            clear_estimate_caches()
            other(w, t, q, budget, seed=4)
            crossed = estimate_fields(estimator(w, t, q, budget, seed=4))
            assert _prepare.cache_info().misses == 1  # the other estimator's preparation served
            assert radius._search.cache_info()[:2] == (0, 2 * sphere)  # each estimator ran its own search
            assert warm == cold
            assert crossed == cold

    def test_operator_changed_in_place_is_prepared_anew(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        before = aq_radius(w, t, 0.6, Budget(8, 80))
        t[0, 1] += 1.0
        after = estimate_fields(aq_radius(w, t, 0.6, Budget(8, 80)))
        clear_estimate_caches()
        assert after == estimate_fields(aq_radius(w, t.copy(), 0.6, Budget(8, 80)))
        assert after[0] != before.value

    @pytest.mark.parametrize("n", [2, 3])
    def test_c_and_fortran_copies_give_the_same_bits(self, rng, n):
        w, t = random_pd_weight(rng, n), crandn(rng, n, n)
        copies = np.ascontiguousarray(t), np.asfortranarray(t)
        assert copies[1].flags.f_contiguous and not copies[1].flags.c_contiguous
        for estimator in (aq_radius, aq_crawford):
            seen = []
            for first, second in (copies, copies[::-1]):
                clear_estimate_caches()
                seen += [estimate_fields(estimator(w, m, 0.6, Budget(8, 80))) for m in (first, second)]
            assert seen == [seen[0]] * 4

    @pytest.mark.parametrize("t, count", [
        (np.diag([1.0, 2.0, -0.5]) + 0.3j * np.eye(3), 3), (JORDAN3 + 0.5 * np.eye(3, k=-1), 1), (EX1, 2), (JORDAN3, 2),
    ])  # fmt: skip
    def test_cached_arrays_are_read_only(self, t, count):
        # a segment keeps B's compression, V and the form's basis; a sphere search B alone; n = 2 B and
        # the basis; a graded B (J3) also C, as no cache keeps K; count is those prepared arrays,
        # and a cached sphere search (every route without a form) adds its u
        w, key = Weight.identity(t.shape[0]), as_operator(t).tobytes()
        b, basis, form, _, _, _, centred = _prepare(w, key)
        arrays = [a for a in (b, basis, form and form.u_similar, *(centred or ())[1:]) if a is not None]
        assert len(arrays) == count
        if form is None:
            searched = radius._search(w, key, 0.6, 0.8, Budget(2, 20), 0, True)[1]
            assert searched is not None
            arrays.append(searched)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    def test_errors_are_raised_on_every_call(self):
        rank_one, diag = Weight.diagonal([1.0, 0.0, 0.0]), np.diag([2.0, 0.0, 0.0])
        singular, leaking = Weight.diagonal([1.0, 2.0, 0.0]), np.ones((3, 3))
        _prepare.cache_clear()
        for estimator in (aq_radius, aq_crawford):
            for _ in range(2):
                with pytest.raises(RankTooLow):
                    estimator(rank_one, diag, 0.6)
                assert estimator(rank_one, diag, 1.0).value == pytest.approx(2.0)  # a hit: the next RankTooLow is warm
                with pytest.raises(NotABounded):
                    estimator(singular, leaking, 0.6)
                with pytest.raises(ValueError, match="dimensions differ"):
                    estimator(I3, np.eye(2), 0.6)
        assert _prepare.cache_info().currsize == 1  # the rank-one weight's; a call that raised left none

    def test_cache_keeps_no_reference_to_the_callers_array(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        _prepare.cache_clear()
        aq_radius(w, t, 0.6, Budget(2, 20))
        alive = weakref.ref(t)
        del t
        assert alive() is None
        assert _prepare.cache_info().currsize == 1

    def test_cache_keeps_eight_preparations(self):
        caches = (_prepare, radius._search)
        assert [cache.cache_info().maxsize for cache in caches] == [radius._PREPARED] * 2 == [8] * 2


class TestStopRule:
    def test_plateau_stops_at_once(self):
        rule, rows = counting(lambda u: (np.zeros(u.shape[0]), np.zeros_like(u)))
        value, u, evaluations, converged = _extremize(rule, 3, Budget(), seed=0)
        assert value == 0.0
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert len(rows) <= 2
        assert (evaluations, converged) == (len(rows), Budget().restarts)

    def test_restarts_stop_once_converged(self, rng):
        budget = Budget()
        evaluations = []
        for _ in range(20):
            n = int(rng.integers(3, 6))  # reduced dimension 2 takes the closed form
            b = crandn(rng, n, n) + rng.choice([0.0, 2.0 * n]) * np.eye(n)
            absq = 1.0 - rng.random()
            p = np.sqrt(1 - absq**2)
            for kind in ("sup", "disk"):
                rule, rows = counting(_rule(b / np.linalg.norm(b), absq, p, kind))
                _extremize(rule, n, budget, seed=0)
                evaluations.append(len(rows))
        assert np.median(evaluations) < budget.iterations / 4


class TestBfgsSteps:
    def test_update_meets_the_secant_condition(self, rng):
        # rows 0-2 accept with positive curvature; row 3 is rejected, row 4 has s.y < 0
        h = np.tile(np.eye(6), (5, 1, 1))
        s = crandn(rng, 5, 3)
        y = np.empty_like(s)
        for i in range(5):
            a = rng.standard_normal((6, 6))
            y[i].view(np.float64)[:] = (a @ a.T + np.eye(6)) @ s[i].view(np.float64)
        y[4] = -y[4]
        before = h.copy()
        _bfgs_update(h, s, y, np.array([True, True, True, False, True]))
        for i in range(3):
            np.testing.assert_allclose(h[i] @ y[i].view(np.float64), s[i].view(np.float64), atol=1e-12)
            np.testing.assert_allclose(h[i], h[i].T, atol=1e-14)
            assert np.linalg.eigvalsh(h[i]).min() > 0.0
        np.testing.assert_array_equal(h[3:], before[3:])

    @pytest.mark.parametrize("estimator", [aq_radius, aq_crawford])
    def test_shifted_jordan_block_in_few_steps(self, rng, estimator):
        # the q-range of J3 + s I is the disc of radius omega_q(J3) about q s; gradient steps
        # crawl to its peak, up to the 200-step cap, and BFGS steps take a fraction of that.
        # The restarts that reach a peak found before them end there: the most evaluations
        # of a search here are 42 (38 for aq_crawford; 58 before), and the bound leaves 8
        # steps for round-off to move a stop
        budget = Budget(16, 200)
        sphere, gradient = [], []
        for _ in range(6):
            shift = 2.0 * np.exp(2j * np.pi * rng.random())
            q = (0.5 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            t = JORDAN3 + shift * np.eye(3)
            est = estimator(I3, t, q, budget)
            sign = 1.0 if estimator is aq_radius else -1.0
            assert est.value == pytest.approx(2.0 * abs(q) + sign * jordan3_q_radius(abs(q)), abs=1e-12)
            kind = "sup" if estimator is aq_radius else "disk"
            b = t / np.linalg.norm(t)
            sphere.append(est.evaluations)
            gradient.append(_extremize(_rule(b, abs(q), np.sqrt(1 - abs(q) ** 2), kind), 3, budget, 0)[2])
        assert max(sphere) <= 50
        assert sum(sphere) < sum(gradient) / 2

    @pytest.mark.parametrize("seed", range(4))
    def test_dimension_six_sup_converges_within_a_short_budget(self, seed):
        # reduced dimension 6 takes BFGS steps: at 47 iterations gradient steps end most
        # restarts at the cap, BFGS steps retire them by the stop rule
        rng = np.random.default_rng(seed)
        est = aq_radius(Weight.identity(6), crandn(rng, 6, 6), 0.7, Budget(6, 47))
        assert est.converged >= 5


def reference_extremize(value_grad, dim, budget, seed, bfgs=False):
    """`radius._extremize` before restarts retired at a found peak: each restart runs
    until its own stop rule (the gradient or the stall test) or the iteration cap."""
    u = radius._starts(seed, budget.restarts, dim).copy()
    f, grad = value_grad(u)
    gsq = np.vecdot(grad, grad).real
    evaluations, converged = 1, 0
    best_f = np.empty(budget.restarts)
    best_u = np.empty((budget.restarts, dim), dtype=complex)
    index = np.arange(budget.restarts)
    alpha = np.ones(budget.restarts)
    ring = np.empty((radius._STALL_STEPS, budget.restarts))
    tol = 1e-16 if bfgs else 1e-24
    eye = np.eye(2 * dim) if bfgs else None
    h = None  # the BFGS estimates, built at the first update

    for step in range(budget.iterations):
        keep = gsq > tol
        slot = step % radius._STALL_STEPS
        if step >= radius._STALL_STEPS:
            keep &= f - ring[slot] > 1e-12
        ring[slot] = f
        live = int(np.count_nonzero(keep))
        if live < index.size:
            stop = ~keep
            best_f[index[stop]], best_u[index[stop]] = f[stop], u[stop]
            converged += index.size - live
            u, f, grad, gsq = u[keep], f[keep], grad[keep], gsq[keep]
            alpha, index, ring = alpha[keep], index[keep], ring[:, keep]
            if h is not None:
                h = h[keep]
            if live == 0:
                break
        if h is None:
            d, slope = grad, gsq
        else:
            d = (h @ grad.view(np.float64)[:, :, None])[:, :, 0].view(np.complex128)
            slope = np.maximum(np.vecdot(grad, d).real, 0.0)
        cand = u + alpha[:, None] * d
        cand /= np.sqrt(np.vecdot(cand, cand).real)[:, None]
        f_cand, g_cand = value_grad(cand)
        g_cand_sq = np.vecdot(g_cand, g_cand).real
        evaluations += 1
        ok = f_cand >= f + 1e-4 * alpha * slope
        if bfgs:
            if h is None:
                h = np.tile(eye, (live, 1, 1))
            radius._bfgs_update(h, cand - u, grad - g_cand, ok)
        if np.count_nonzero(ok) == live:
            u, f, grad, gsq = cand, f_cand, g_cand, g_cand_sq
            alpha = np.ones(live) if bfgs else alpha * 1.3
        else:
            rows = ok[:, None]
            np.copyto(u, cand, where=rows)
            np.copyto(f, f_cand, where=ok)
            np.copyto(grad, g_cand, where=rows)
            np.copyto(gsq, g_cand_sq, where=ok)
            if bfgs:
                np.copyto(h, eye, where=~rows[:, :, None])
            alpha = np.where(ok, 1.0 if bfgs else 1.3 * alpha, 0.5 * alpha)

    best_f[index], best_u[index] = f, u
    idx = int(np.argmax(best_f))
    return float(best_f[idx]), best_u[idx], evaluations, converged


SPHERE_KINDS = ("gaussian", "shifted", "nearly_normal", "nilpotent", "jordan")


def sphere_operator(seed, kind, n):
    """B / ||B||_F of one draw kind at reduced dimension n."""
    rng = np.random.default_rng(seed)
    shift = 2.0 * np.sqrt(n) * np.exp(2j * np.pi * rng.random()) * np.eye(n)
    if kind == "gaussian":
        b = crandn(rng, n, n)
    elif kind == "shifted":
        b = crandn(rng, n, n) + shift
    elif kind == "nearly_normal":
        b = nearly_normal(seed, n)
    elif kind == "nilpotent":
        b = np.triu(crandn(rng, n, n), 1)
    else:
        b = np.eye(n, k=1) + shift / np.sqrt(n)
    return b / np.linalg.norm(b)


def rayleigh(m):
    """The rule u -> u^H M u of a Hermitian M, whose gradient 2 (M u - f u) vanishes at its eigenvectors."""

    def rule(u):
        mu = u @ m.T
        f = np.vecdot(u, mu).real
        return f, 2.0 * (mu - f[:, None] * u)

    return rule


class TestFoundPeaks:
    # A restart retired at a found peak j ends there, where the reference's would have gone
    # on to j's peak and stopped on its own, a little higher or lower.  The gradient test
    # leaves j about 1e-16 / curvature short of the peak, and the stall test up to about its
    # own 1e-12 threshold, most at a flat peak.  Values moved by at most 3.7e-14 on 2400
    # searches over 400 draws of the five kinds (n = 3-8 and 16, the three budgets below),
    # and by 1.5e-13 on 3000 over 1500 nearly normal draws (n = 16, Budget(64, 500)).
    TOL = 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(SPHERE_KINDS),
        n=st.sampled_from([3, 4, 5, 6, 7, 8, 16]),
        absq=st.floats(0.05, 0.99),
        budget=st.sampled_from([Budget(6, 47), Budget(16, 200), Budget(64, 500)]),
    )
    def test_matches_the_reference(self, seed, kind, n, absq, budget):
        # the restarts that are not retired take the reference's steps, so no search takes
        # more of them, and every restart the reference's stop rule retired still counts
        b = sphere_operator(seed, kind, n)
        for rule_kind in ("sup", "disk"):
            rule = _rule(b, absq, np.sqrt(1 - absq**2), rule_kind)
            value, u, evaluations, converged = _extremize(rule, n, budget, seed, n <= radius._BFGS_DIM)
            ref_value, _, ref_evaluations, ref_converged = reference_extremize(
                rule, n, budget, seed, n <= radius._BFGS_DIM
            )
            assert abs(value - ref_value) <= self.TOL
            assert rule(u[None])[0][0] == pytest.approx(value, abs=1e-15)
            assert evaluations <= ref_evaluations
            assert converged >= ref_converged

    @pytest.mark.parametrize(
        "overlap, level, tilt, above",
        [((0.99, 1.0), 0.0, 0.0, True), ((0.5, 0.9), 0.5, np.pi / 4, False)],
        ids=["above-the-found-peak", "apart-from-the-found-peak"],
    )
    def test_a_restart_beyond_a_found_peak_reaches_the_higher_one(self, overlap, level, tilt, above):
        # start row 0 is an eigenvector of M (eigenvalue `level`), so the gradient test stops
        # it at once and it marks a found peak; row 1 climbs to the top eigenvector (1).  It
        # starts within `overlap` of row 0: above its peak, or below it but apart from it
        budget = Budget(2, 200)
        seed = next(s for s in range(10_000) if overlap[0] < abs(np.vdot(*_starts(s, 2, 3))) < overlap[1])
        first, second = _starts(seed, 2, 3)
        away = second - np.vdot(first, second) * first
        away /= np.linalg.norm(away)
        other = radius._orth_unit(first, away)
        top = np.cos(tilt) * away + np.sin(tilt) * other
        low = np.cos(tilt) * other - np.sin(tilt) * away
        m = level * np.outer(first, first.conj()) + np.outer(top, top.conj()) - np.outer(low, low.conj())
        rule = rayleigh(m)
        start = rule(np.stack([first, second]))[0]
        assert start[0] == pytest.approx(level, abs=1e-15)
        assert (start[1] > level + 1e-12) == above
        value, u, evaluations, converged = _extremize(rule, 3, budget, seed, True)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(top, u)) == pytest.approx(1.0, abs=1e-6)
        assert converged == 2
        ref_value, _, ref_evaluations, _ = reference_extremize(rule, 3, budget, seed, True)
        assert (value, evaluations) == (ref_value, ref_evaluations)

def central_difference(fn, u, h=1e-6):
    """Central differences in the 2r real coordinates, as complex rows d/dRe + i d/dIm."""
    grad = np.zeros(u.shape, dtype=complex)
    for j in range(u.shape[1]):
        for step in (h, 1j * h):
            up, um = u.copy(), u.copy()
            up[:, j] += step
            um[:, j] -= step
            grad[:, j] += (fn(up) - fn(um)) / (2 * h) * (step / h)
    return grad


def sphere_objectives(b, absq):
    """(name, value, analytic gradient) of the sup rule and the minus-inf disk rule.

    The value is taken at the normalized rows, so central differences see the
    row-scale invariant extension whose gradient the rules return.
    """
    p = np.sqrt(1 - absq**2)
    rules = [(kind, _rule(b, absq, p, kind)) for kind in ("sup", "disk")]
    return [
        (name, lambda u, rule=rule: rule(_normalize_rows(u))[0], lambda u, rule=rule: rule(u)[1])
        for name, rule in rules
    ]


class TestSphereGradient:
    @pytest.mark.parametrize("absq", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("r", [1, 2, 3, 8, 16])
    def test_matches_central_differences(self, rng, r, absq):
        # the shifted operator puts the disk objective on its smooth side t > 0
        for b in (crandn(rng, r, r), crandn(rng, r, r) + 2 * r * np.eye(r)):
            u = _normalize_rows(crandn(rng, 6, r))
            scale = np.linalg.norm(b, 2)
            for name, fn, grad_fn in sphere_objectives(b, absq):
                numeric = central_difference(fn, u)
                np.testing.assert_allclose(
                    grad_fn(u), numeric, rtol=0, atol=1e-7 * max(scale, np.abs(numeric).max()),
                    err_msg=name,
                )

    def test_finite_at_kinks(self, rng):
        with np.errstate(all="raise"):
            for b, u in kink_rows(rng):
                for absq in (0.0, 0.3, 0.9, 1.0):
                    for name, _, grad_fn in sphere_objectives(b, absq):
                        assert np.all(np.isfinite(grad_fn(u))), name


def kink_rows(rng):
    """(B, unit rows u) at the kinks of the rules: rho = 0, c = 0 or both."""
    herm = crandn(rng, 4, 4)
    herm = herm + herm.conj().T
    off_diag = np.array([[0, 1, 0], [2, 0, 1j], [0, 1, 3]], dtype=complex)
    return [
        (herm, np.linalg.eigh(herm)[1].T),  # rho = 0 up to round-off
        (np.diag([2.0, -1.0, 0.5]).astype(complex), np.eye(3, dtype=complex)),  # rho = 0
        (off_diag, np.eye(3, dtype=complex)[:1]),  # c = 0
        (np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)),  # c = rho = 0
    ]


def reference_rule(b, absq, p, kind):
    """`_rule` as first written: B u and B^H u from one product with [B^T | conj(B)],
    B^H r from its own product, the coefficient of u summed from its two terms,
    and row inner products by `einsum`."""
    n = b.shape[0]
    b_conj = b.conj()
    both = np.concatenate([b.T, b_conj], axis=1)

    def rule(u):
        prods = u @ both
        bu, bhu = prods[:, :n], prods[:, n:]
        c = np.einsum("ij,ij->i", u.conj(), bu)
        r = bu - c[:, None] * u
        abs_c = np.abs(c)
        rho = np.sqrt(np.einsum("ij,ij->i", r.conj(), r).real)
        inv_c = np.divide(1.0, abs_c, out=np.zeros(abs_c.shape), where=abs_c > 0.0)
        inv_rho = np.divide(1.0, rho, out=np.zeros(rho.shape), where=rho > 0.0)
        if kind == "sup":
            value, a1, a2 = absq * abs_c + p * rho, absq, p
        else:
            t = absq * abs_c - p * rho
            slope = (t > 0.0).astype(float)
            value = -np.maximum(t, 0.0)
            a1, a2 = -slope * absq, slope * p
        a1_c = a1 * inv_c
        a2_rho = a2 * inv_rho
        grad = (
            (c.conj() * (a1_c - a2_rho))[:, None] * r
            + (a1_c * c)[:, None] * bhu
            + a2_rho[:, None] * (r @ b_conj)
            - (a1 * abs_c + a2 * rho)[:, None] * u
        )
        return value, grad

    return rule


class TestRuleReference:
    """`_rule` against `reference_rule` on B / ||B||_F, as the search sees it: values to
    1e-14, gradients to 1e-13 ||B||_2."""

    @staticmethod
    def assert_matches(b, u, rho_direction=True):
        b = b / (np.linalg.norm(b) or 1.0)
        scale = np.linalg.norm(b, 2)
        for absq in (0.0, 0.3, 0.9, 1.0):
            p = np.sqrt(1 - absq**2)
            for kind in ("sup", "disk"):
                value, grad = _rule(b, absq, p, kind)(u)
                ref_value, ref_grad = reference_rule(b, absq, p, kind)(u)
                np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-14, err_msg=kind)
                if rho_direction or p == 0.0:
                    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-13 * scale, err_msg=kind)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_matches_the_reference(self, rng, n):
        # the shifted operator puts the inf rules on their smooth side t > 0
        for b in (crandn(rng, n, n), crandn(rng, n, n) + 2 * n * np.eye(n)):
            self.assert_matches(b, _normalize_rows(crandn(rng, 32, n)))

    def test_matches_the_reference_at_kinks(self, rng):
        # where rho is round-off, r / rho is a round-off direction in either
        # kernel, so there the gradients are compared only at p = 0
        (herm, eigenvectors), *exact_kinks = kink_rows(rng)
        with np.errstate(all="raise"):
            self.assert_matches(herm, eigenvectors, rho_direction=False)
            for b, u in exact_kinks:
                self.assert_matches(b, u)


def test_witnesses_at_exact_eigenvector():
    # rho = 0 at a standard basis vector: the partner direction is completed
    # from the other basis vectors, one of which projects to zero
    b = np.diag([2.0, -1.0, 0.5]).astype(complex)
    u = np.eye(3, dtype=complex)[0]
    q = 0.6 + 0.3j
    p = np.sqrt(1 - abs(q) ** 2)
    with np.errstate(all="raise"):
        for v in (_witness(b, u, q, p, sup=True), _witness(b, u, q, p, sup=False)):
            assert np.vdot(v, u) == pytest.approx(q, abs=1e-12)  # <u, v> = v^H u
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def _unit(*entries):
    u = np.array(entries, dtype=complex)
    return u / np.linalg.norm(u)


SUP_B = np.array([[1, 2, 0], [0, 1j, 1], [1, 0, -1]], dtype=complex)
SUP_U = _unit(1, 1j, -1)
WITNESS_BRANCHES = [
    # (id, B, unit u, q, sup); in dimension 2 the partner values of u form a circle,
    # in dimension >= 3 a disk
    *(
        (f"{case}-{'sup' if sup else 'inf'}", b, u, q, sup)
        for case, b, u, q in [
            ("dim1", np.array([[2 - 1j]]), _unit(np.exp(0.3j)), -1.0),
            ("p0", SUP_B, SUP_U, 1j),
            ("rho0-dim2", np.diag([2, -1j]), _unit(1, 0), 0.6 + 0.3j),
            ("rho0-dim3", np.diag([2, -1, 0.5]).astype(complex), _unit(1, 0, 0), 0.6 + 0.3j),
        ]
        for sup in (True, False)
    ),
    ("sup", SUP_B, SUP_U, 0.6 + 0.3j, True),
    ("circle", np.array([[1, 2], [0, -1j]]), _unit(1, 1j), 0.6 + 0.3j, False),
    # nilpotent shift: |q c| = 0.2 < p rho = 0.45, so beta < 1
    ("disk-beta<1", JORDAN3, _unit(1, 1, 1), 0.3, False),
    # |q c| = 3 >= p rho = 0.65, so beta = 1
    ("disk-beta=1", np.diag([4, 5, 6]).astype(complex), _unit(1, 1, 1), 0.6, False),
]


@pytest.mark.parametrize(
    "b, u, q, sup", [pytest.param(*case[1:], id=case[0]) for case in WITNESS_BRANCHES]
)
def test_witness_attains_the_rule_value(b, u, q, sup):
    assert_witness_attains(b, u, q, sup, all="raise")


@pytest.mark.parametrize("sup", [True, False])
@pytest.mark.parametrize("b, u", [(np.array([[1, 2], [0, -1j]]), _unit(1, 1j)), (SUP_B, SUP_U)], ids=["dim2", "dim3"])
def test_witness_at_a_subnormal_q(b, u, sup):
    # at |q| = 1e-318 the product q c keeps 5 digits, so q c / |q c| misses modulus 1 by 1e-6
    assert_witness_attains(b, u, 1e-318 * np.exp(0.3j), sup, all="raise", under="ignore")


def assert_witness_attains(b, u, q, sup, **errstate):
    absq = abs(q)
    p = np.sqrt(max(0.0, 1 - absq**2))
    if sup or u.size != 2:
        value = (1.0 if sup else -1.0) * _rule(b, absq, p, "sup" if sup else "disk")(u[None, :])[0][0]
    else:  # the circle's least modulus, | |q| |c| - p rho |, which the disk rule clamps at 0
        bu = b @ u
        c = np.vdot(u, bu)
        value = abs(absq * abs(c) - p * np.linalg.norm(bu - c * u))
    with np.errstate(**errstate):
        v = _witness(b, u, q, p, sup)
    assert np.vdot(v, u) == pytest.approx(q, abs=1e-12)  # <u, v> = v^H u
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(v, b @ u)) == pytest.approx(value, abs=1e-12 * np.linalg.norm(b, 2))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(1e-5, 1e-2),
    ratio=st.sampled_from([0.5, 1.0, 2.0]),
    sup=st.booleans(),
)
def test_witness_is_exact_at_a_small_residual(seed, spread, ratio, sup):
    # u near an eigenvector of a normal B, so rho is small, and |q| |c| = ratio rho: the
    # residual B u - c u is orthogonal to u only up to eps ||B|| / rho, which the partner
    # must not inherit (an unorthogonalized residual missed both figures by up to 5e-11)
    rng = np.random.default_rng(seed)
    h = crandn(rng, 8, 8)
    lam, vecs = np.linalg.eigh(h + h.conj().T)
    b = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (vecs * lam) @ vecs.conj().T
    b += complex(*rng.standard_normal(2)) * np.eye(8)
    b /= np.linalg.norm(b)
    u = np.sqrt(1.0 - spread**2) * vecs[:, 0] + spread * np.exp(1j * rng.uniform(0, 2 * np.pi)) * vecs[:, -1]
    bu = b @ u
    c = np.vdot(u, bu)
    rho = np.linalg.norm(bu - c * u)
    q = min(1.0, ratio * rho / abs(c)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p = np.sqrt(1.0 - abs(q) ** 2)
    value = abs(q) * abs(c) + p * rho if sup else max(0.0, abs(q) * abs(c) - p * rho)
    v = _witness(b, u, q, p, sup)
    assert abs(np.vdot(v, u) - q) <= 1e-14
    assert abs(np.vdot(v, bu)) == pytest.approx(value, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_estimates_invariant_under_weight_scaling(seed, n, scale):
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, n)
    t = crandn(rng, n, n) + rng.choice([0.0, 2.0 * n]) * np.eye(n)
    q = random_q(rng)
    w_scaled = Weight(scale * w.a)
    budget = Budget(8, 150)
    tol = 1e-9 * a_opnorm(w, t)
    for estimator in (aq_radius, aq_crawford):
        est = estimator(w_scaled, t, q, budget, seed=3)
        clear_estimate_caches()
        again = estimator(w_scaled, t, q, budget, seed=3)
        assert again.value == est.value
        assert np.array_equal(again.witness_x, est.witness_x)
        assert np.array_equal(again.witness_y, est.witness_y)
        assert est.value == pytest.approx(estimator(w, t, q, budget, seed=3).value, abs=tol)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 5]),
    c=st.sampled_from([1e-8, 1e-4, 1.0, 1e4]),
    unimodular=st.booleans(),
)
@example(seed=12, n=4, c=1e-8, unimodular=False)  # a search on the unscaled B missed both values by 13-14%
def test_estimates_homogeneous_in_t(seed, n, c, unimodular):
    # omega_{A,q}(cT) = c omega_{A,q}(T) and c_{A,q}(cT) = c c_{A,q}(T): the search
    # runs on the same unit-size operator at every c
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, n)
    t = crandn(rng, n, n) + rng.choice([0.0, 2.0 * n]) * np.eye(n)
    q = np.exp(1j * rng.uniform(0, 2 * np.pi)) if unimodular else random_q(rng)
    budget = Budget(16, 300)
    tol = 1e-12 * c * a_opnorm(w, t)
    for estimator in (aq_radius, aq_crawford):
        value = estimator(w, t, q, budget, seed=3).value
        assert estimator(w, c * t, q, budget, seed=3).value == pytest.approx(c * value, abs=tol)


ORIGIN_INSIDE = np.array([[0.1 + 0.05j, 1.0], [0.5, 0.1 + 0.05j]])  # its q-range at q = 0.6 holds 0
GAUSS3 = crandn(np.random.default_rng(0), 3, 3)


@pytest.mark.parametrize(
    ("t", "c"),
    [(ORIGIN_INSIDE, c) for c in (1e160, 1e200, 1e300, 1.7e308, 1e-300, 1e-310)]
    + [(GAUSS3, c) for c in (1e-165, 1e-310)],
    ids=["2x2-1e160", "2x2-1e200", "2x2-1e300", "2x2-1.7e308", "2x2-1e-300", "2x2-1e-310"]
    + ["gauss3-1e-165", "gauss3-1e-310"],
)
def test_estimates_homogeneous_far_from_unit_size(t, c):
    # ||B||_F as a plain sum of squares overflows above about 1e154 entries (a NaN
    # value) and underflows below about 1e-162 (B left unscaled); B divided by its
    # largest entry overflows where that entry is subnormal, and m ||B / m||_F
    # overflows at 1.7e308
    w = Weight.identity(t.shape[0])
    for estimator in (aq_radius, aq_crawford):
        unit, far = estimator(w, t, 0.6), estimator(w, c * t, 0.6)
        assert far.value / c == pytest.approx(unit.value, rel=1e-12)
        assert far.direction == unit.direction


# finite parts, but an entry modulus of 1.98e308, beyond the largest float
HUGE_PART = np.diag([1.5e308 + 1.3e308j, 1.0])


def test_estimates_of_an_entry_whose_modulus_overflows():
    # B 2^-e takes e from the largest part, which cannot overflow.  The q-range at q = 0.6 is
    # the ellipse about 0.6 gamma of semi-axes a and 0.8 a, with |gamma| = a = |lambda_1| / 2
    # but for 1e-308 relative: omega_q = 0.8 |lambda_1|, and the ellipse holds 0
    w, half = Weight.identity(2), abs(HUGE_PART[0, 0] / 2.0)
    radius_, crawford = aq_radius(w, HUGE_PART, 0.6), aq_crawford(w, HUGE_PART, 0.6)
    assert radius_.value == pytest.approx(1.6 * half, rel=1e-12)
    assert radius_.direction == TWO_SIDED
    assert (crawford.value, crawford.direction) == (0.0, TWO_SIDED)
    # omega_A = |lambda_1| itself overflows: an error that names it, not NaN or an OverflowError
    with pytest.raises(ValueError, match="overflows the largest float"):
        aq_radius(w, HUGE_PART, 1.0)


_POW2_RNG = np.random.default_rng(28)
_H4 = crandn(_POW2_RNG, 4, 4)
POW2_ROUTES = {  # (weight, T, q), one for each route of radius._estimate; the shifts make c_q > 0
    "closed-form-2x2": (random_pd_weight(_POW2_RNG, 2, (0.5, 2.0)), crandn(_POW2_RNG, 2, 2) + 12.0 * np.eye(2), 0.6),
    "segment": (Weight.identity(4), np.exp(0.7j) * (_H4 + _H4.conj().T) + (0.3 - 0.2j) * np.eye(4), 0.6),
    "bracket": (random_pd_weight(_POW2_RNG, 3), crandn(_POW2_RNG, 3, 3), 1.0),
    "bracket-shifted": (random_pd_weight(_POW2_RNG, 3), crandn(_POW2_RNG, 3, 3) + 6.0j * np.eye(3), 1.0),
    "sphere": (random_pd_weight(_POW2_RNG, 3), crandn(_POW2_RNG, 3, 3), 0.6),
    "sphere-shifted": (random_pd_weight(_POW2_RNG, 4, (0.5, 2.0)), crandn(_POW2_RNG, 4, 4) + 8.0 * np.eye(4), 0.9),
}


@settings(max_examples=25, deadline=None)
@example(route="closed-form-2x2", k=-1000)
@example(route="segment", k=1000)
@example(route="bracket", k=-1000)
@example(route="sphere-shifted", k=1000)
@given(route=st.sampled_from(sorted(POW2_ROUTES)), k=st.integers(-1000, 1000))
def test_estimates_exactly_homogeneous_in_powers_of_two(route, k):
    # 2^k T reduces to 2^k B, and B 2^-e is then the same array at every k: each route
    # runs on the same bits, so the value is exactly 2^k times the unit-size one and the
    # witnesses are the same vectors
    w, t, q = POW2_ROUTES[route]
    budget = Budget(8, 60)
    for estimator in (aq_radius, aq_crawford):
        unit, far = estimator(w, t, q, budget), estimator(w, t * 2.0**k, q, budget)
        assert far.value == np.ldexp(unit.value, k)
        assert far.direction == unit.direction
        assert np.array_equal(far.witness_x, unit.witness_x)
        assert np.array_equal(far.witness_y, unit.witness_y)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_estimates_invariant_under_unitary_congruence(seed, n):
    # (A, T) -> (U^H A U, U^H T U) conjugates the reduced operator by a unitary
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, n)
    t = crandn(rng, n, n) + rng.choice([0.0, 2.0 * n]) * np.eye(n)
    q = random_q(rng)
    u = np.linalg.qr(crandn(rng, n, n))[0]
    w_u, t_u = Weight(u.conj().T @ w.a @ u), u.conj().T @ t @ u
    budget = Budget(16, 300)
    tol = 1e-9 * a_opnorm(w, t)
    assert a_opnorm(w_u, t_u) == pytest.approx(a_opnorm(w, t), abs=tol)
    assert a_radius(w_u, t_u, budget).value == pytest.approx(a_radius(w, t, budget).value, abs=tol)
    for estimator in (aq_radius, aq_crawford):
        value = estimator(w, t, q, budget, seed=3).value
        assert estimator(w_u, t_u, q, budget, seed=3).value == pytest.approx(value, abs=tol)


def embed_2x2(rng, b0, n):
    """Weight of rank 2 on C^n and T whose weighted reduction is unitarily similar to b0."""
    u = np.linalg.qr(crandn(rng, n, n))[0]
    ur, un = u[:, :2], u[:, 2:]
    s = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
    a = (ur * s**2) @ ur.conj().T
    t = (ur / s) @ b0 @ (s[:, None] * ur.conj().T) + un @ crandn(rng, n - 2, n - 2) @ un.conj().T
    return Weight(0.5 * (a + a.conj().T)), t


@settings(max_examples=25, deadline=None)
@example(seed=0, n=2, modulus=1.0, theta=0.0)  # p = 0
@example(seed=0, n=2, modulus=1.0 - 2.0**-53, theta=0.0)  # p = 1.5e-8
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3]),
    modulus=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * np.pi),
)
def test_radius_matches_the_2x2_closed_form(seed, n, modulus, theta):
    # a PD weight on C^2 or a rank-2 weight on C^3: reduced dimension 2 either way
    rng = np.random.default_rng(seed)
    b0 = crandn(rng, 2, 2)
    w, t = embed_2x2(rng, b0, n)
    q = modulus * np.exp(1j * theta)
    norm = np.linalg.norm(b0, 2)
    assert a_opnorm(w, t) == pytest.approx(norm, rel=1e-9)
    exact = q_radius_2x2(canonical_2x2(b0), q)
    assert aq_radius(w, t, q).value == pytest.approx(exact, abs=1e-9 * norm)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3]),
    shift=st.sampled_from([0.0, 1.0, 3.0]),
    modulus=st.floats(0.0, 0.99),
    theta=st.floats(0.0, 2 * np.pi),
)
def test_crawford_matches_the_2x2_closed_form(seed, n, shift, modulus, theta):
    # the shifts move the ellipse off the origin, so c_q > 0 is drawn as well as c_q = 0
    rng = np.random.default_rng(seed)
    b0 = crandn(rng, 2, 2) + shift * np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * np.eye(2)
    w, t = embed_2x2(rng, b0, n)
    q = modulus * np.exp(1j * theta)
    exact = q_crawford_2x2(canonical_2x2(b0), q)
    assert aq_crawford(w, t, q).value == pytest.approx(exact, abs=1e-9 * np.linalg.norm(b0, 2))


def draw_2x2(rng, kind):
    """A 2x2 operator of one of the families the closed-form route must cover."""
    b = crandn(rng, 2, 2)
    if kind == "shifted":  # the origin leaves the range for most q, so c_q > 0
        return b + 3.0 * rng.random() * crandn(rng) * np.eye(2)
    if kind == "traceless":  # the range is centred at the origin, so c_q = 0
        return b - 0.5 * np.trace(b) * np.eye(2)
    if kind == "diagonal":  # normal: at |q| = 1 the range is a segment
        return np.diag(np.diag(b))
    return b


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gaussian", "shifted", "traceless", "diagonal"]),
    modulus=st.sampled_from([0.0, 1.0, None]),  # None: uniform in [0, 1)
    theta=st.floats(0.0, 2 * np.pi),
)
def test_2x2_closed_form_route(seed, kind, modulus, theta):
    # each witness pair attains its value and meets the constraint; the values agree
    # with the brute-force pair grid, which bounds omega_q from below and c_q from
    # above (to 1e-2 ||B||_F: at |q| = 1 the grid's c_q is off by up to 2e-3 ||B||_F
    # near a zero of <B u, u>), and the radius is never below a sphere search of the sup rule
    rng = np.random.default_rng(seed)
    b = draw_2x2(rng, kind)
    q = (rng.random() if modulus is None else modulus) * np.exp(1j * theta)
    p = np.sqrt(max(0.0, 1.0 - abs(q) ** 2))
    size = np.linalg.norm(b)
    lo_sup, up_inf = oracle_grid(I2, b, q, resolution=64)
    rad, cra = aq_radius(I2, b, q), aq_crawford(I2, b, q)
    for est in (rad, cra):
        assert (est.direction, est.evaluations, est.converged) == (TWO_SIDED, 1, 1)
        assert witness_value(I2, b, est) == pytest.approx(est.value, abs=1e-13 * size)
        assert a_inner(I2, est.witness_x, est.witness_y) == pytest.approx(q, abs=1e-13)
    assert lo_sup - 1e-13 * size <= rad.value <= lo_sup + 1e-2 * size
    assert up_inf - 1e-2 * size <= cra.value <= up_inf + 1e-13 * size
    searched = _extremize(_rule(b / size, abs(q), p, "sup"), 2, Budget(8, 200), seed=0)[0]
    assert rad.value >= size * searched - 1e-13 * size


def test_q_one_crawford_matches_the_2x2_closed_form():
    # a q = 1 sphere search missed this Crawford number by 1.3e-5 ||B||; the closed form meets it
    b = np.array(
        [
            [0.302037 - 0.981239j, 1.296558 - 0.159437j],
            [-0.429271 - 0.673309j, 0.216538 - 0.757542j],
        ]
    )
    exact = q_crawford_2x2(canonical_2x2(b), 1.0)
    assert a_crawford(I2, b).value == pytest.approx(exact, abs=1e-9 * np.linalg.norm(b, 2))


KINKS = [
    # (id, B, c_A): W(B) is a segment or a hull of two ellipses, and the point of
    # W(B) nearest 0 lies where two eigenvalues of the Hermitian part cross
    ("segment", np.diag([1 + 1j, 1 - 1j]), 1.0),
    ("segment-and-point", np.diag([2 + 1j, 2 - 1j, 5]), 2.0),
    (
        "two-disks",  # the hull of the disks |z - 1 -+ i| <= 1/4 is nearest 0 at 3/4
        np.block(
            [
                [np.array([[1 + 1j, 0.5], [0, 1 + 1j]]), np.zeros((2, 2))],
                [np.zeros((2, 2)), np.array([[1 - 1j, 0.5], [0, 1 - 1j]])],
            ]
        ),
        0.75,
    ),
]


@pytest.mark.parametrize("b, exact", [pytest.param(*case[1:], id=case[0]) for case in KINKS])
def test_q_one_crawford_at_a_kink(b, exact):
    # the bracket's eigenvector misses c_A there; the witness comes from the compression
    # onto the two lowest eigenvectors at the best phase, or from the closed form at
    # reduced dimension 2
    w, norm = Weight.identity(b.shape[0]), np.linalg.norm(b, 2)
    value, _, vectors, *_ = _bracket(b, smallest=True)
    u = vectors[:, 0]
    assert value == pytest.approx(exact, abs=1e-9 * norm)
    assert abs(np.vdot(u, b @ u)) > exact + 0.1
    est = a_crawford(w, b)
    assert est.direction == TWO_SIDED
    assert est.value == pytest.approx(exact, abs=1e-9 * norm)
    assert witness_value(w, b, est) == pytest.approx(est.value, abs=1e-12 * norm)
    if b.shape[0] == 2:  # the closed form runs instead of the bracket, and counts one evaluation
        assert (est.evaluations, est.converged) == (1, 1)
        return
    # the counts are the bracket's own: its certificate solves 2x2 closed forms
    reduced = reduce_to_range(w, b)
    assert (est.evaluations, est.converged) == _bracket(reduced / np.linalg.norm(reduced), smallest=True)[4:]


def test_zero_crawford_at_q_one_is_certified():
    # c_A(J3) = 0: the lambda_min bracket peaks at 0, and the witness attains it
    est = a_crawford(I3, JORDAN3)
    assert (est.value, est.direction) == (0.0, TWO_SIDED)
    assert witness_value(I3, JORDAN3, est) <= 1e-15
    assert (est.evaluations, est.converged) == _bracket(JORDAN3 / np.linalg.norm(JORDAN3), smallest=True)[4:]


def rotated(rng, b):
    """B under a random unitary similarity, which keeps W(B)."""
    u = np.linalg.qr(crandn(rng, b.shape[0], b.shape[0]))[0]
    return u @ b @ u.conj().T


def jordan_disk(n):
    """The n x n nilpotent Jordan block: W(J_n) is the disk of radius cos(pi / (n + 1)) about 0."""
    return np.diag(np.ones(n - 1), k=1).astype(complex)


BOUNDARIES = [
    # (id, B, c_A): 0 on the boundary of W(B), within 1e-9 of it, or at a crossing
    ("segment-and-point", np.diag([2 + 1j, 2 - 1j, 5]), 2.0),
    ("two-disks", KINKS[2][1], 0.75),
    ("roots-of-unity-5", np.diag(np.exp(2j * np.pi * np.arange(5) / 5)), 0.0),
    ("zero-vertex", np.diag([0.0, 1 + 1j, 1 - 1j, 2]), 0.0),
    ("zero-on-an-edge", np.diag([1j, -1j, 3]), 0.0),
    ("hermitian-indefinite", np.exp(0.7j) * np.diag([-1.0, 0.5, 2.0]), 0.0),
    ("rank-one", np.outer([1.0, 2j, 0.5], [0.3, 1.0, -1j]), 0.0),
    ("jordan3-tangent", JORDAN3 + np.cos(np.pi / 4) * np.eye(3), 0.0),
    ("jordan3-outside-1e-9", JORDAN3 + (np.cos(np.pi / 4) + 1e-9) * np.eye(3), 1e-9),
    ("jordan3-inside-1e-9", JORDAN3 + (np.cos(np.pi / 4) - 1e-9) * np.eye(3), 0.0),
    ("jordan4-tangent", jordan_disk(4) + 1j * np.cos(np.pi / 5) * np.eye(4), 0.0),
]


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("b, exact", [pytest.param(*case[1:], id=case[0]) for case in BOUNDARIES])
def test_q_one_crawford_is_certified_at_kinks_and_boundaries(rng, b, exact, scale):
    t = scale * rotated(rng, b)
    w, norm = Weight.identity(b.shape[0]), np.linalg.norm(t, 2)
    est = a_crawford(w, t)
    assert est.direction == TWO_SIDED
    assert est.value == pytest.approx(scale * exact, abs=1e-12 * norm)
    assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-12 * norm)


def test_q_one_never_runs_the_sphere_search(rng, monkeypatch):
    # at |q| = 1 the phase bracket and its certificate are the only route, also where c_A = 0
    def refuse(*args, **kwargs):
        raise AssertionError("the sphere search ran at |q| = 1")

    monkeypatch.setattr(radius, "_extremize", refuse)
    cases = [crandn(rng, n, n) for n in (3, 4, 8)] + [JORDAN3] + [case[1] for case in BOUNDARIES]
    for t in cases:
        w = Weight.identity(t.shape[0])
        for estimator in (aq_radius, aq_crawford):
            for q in (1.0, np.exp(2.5j)):
                estimator(w, t, q)


def crawford_family(rng, kind, n):
    """B of one family of the Crawford property: c_A is 0 for all but the shifted ones."""
    if kind == "gaussian":
        return crandn(rng, n, n)
    if kind == "shifted":
        return crandn(rng, n, n) + 2.0 * np.sqrt(n) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(n)
    if kind == "nearly-normal":
        return nearly_normal(int(rng.integers(2**31)), n)
    if kind == "normal-zero-vertex":  # the other eigenvalues in an open half-plane
        ev = rng.uniform(0.1, 2.0, n - 1) * np.exp(1j * rng.uniform(-1.4, 1.4, n - 1))
        return rotated(rng, np.diag(np.concatenate([[0.0], ev * np.exp(1j * rng.uniform(0, 2 * np.pi))])))
    if kind == "normal-zero-inside":
        return rotated(rng, np.diag(rng.uniform(0.1, 2.0, n) * np.exp(2j * np.pi * (np.arange(n) + rng.random(n)) / n)))
    if kind == "rotated-hermitian":
        h = crandn(rng, n, n)
        return np.exp(1j * rng.uniform(0, 2 * np.pi)) * (h + h.conj().T)
    # J_n + s I with 0 on the boundary circle of W(J_n)
    return rotated(rng, jordan_disk(n) + np.cos(np.pi / (n + 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(n))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([3, 4, 8]),
    kind=st.sampled_from(
        [
            "gaussian",
            "shifted",
            "nearly-normal",
            "normal-zero-vertex",
            "normal-zero-inside",
            "rotated-hermitian",
            "jordan-tangent",
        ]
    ),
)
def test_q_one_crawford_is_certified(seed, n, kind):
    # two-sided, its witness attains it, and it lies between the 4096-phase grid's
    # lower bound max(0, max lambda_min) and the least |v^H B v| over that grid's
    # lambda_min eigenvectors, whose points lie in W(B)
    rng = np.random.default_rng(seed)
    b = crawford_family(rng, kind, n)
    w, tol = Weight.identity(n), 1e-12 * np.linalg.norm(b, 2)
    est = a_crawford(w, b)
    assert est.direction == TWO_SIDED
    assert witness_value(w, b, est) == pytest.approx(est.value, abs=tol)
    rot = np.exp(2j * np.pi * np.arange(4096) / 4096)[:, None, None]
    vals, vecs = np.linalg.eigh(0.5 * (rot * b + rot.conj() * b.conj().T))
    v = vecs[:, :, 0]
    points = np.abs(np.einsum("ki,ij,kj->k", v.conj(), b, v))
    assert max(0.0, vals[:, 0].max()) - tol <= est.value <= points.min() + tol


@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi / 2, 2.5, np.pi, 4.0])
def test_unimodular_q_takes_the_q_one_values(rng, theta):
    # shifted, so that the Crawford bracket is certified as well; |q| is taken as given,
    # and at these phases abs(q) is exactly 1 (one ulp below, p = 1.5e-8 and the
    # sphere search runs)
    w = random_pd_weight(rng, 3)
    t = crandn(rng, 3, 3) + 6.0 * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(3)
    q = np.exp(1j * theta)
    assert abs(q) == 1.0
    for estimator in (aq_radius, aq_crawford):
        one, est = estimator(w, t, 1.0), estimator(w, t, q)
        assert est.direction == one.direction == TWO_SIDED
        assert est.value == one.value
        assert a_inner(w, est.witness_x, est.witness_y) == pytest.approx(q, abs=1e-12)
        assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-12 * a_opnorm(w, t))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 8]),
    shift=st.sampled_from([0.0, 1.0, 3.0]),
)
def test_q_one_crawford_meets_the_phase_grid(seed, n, shift):
    # every phase's lambda_min bounds c_A from below, so the value is at least the
    # grid's; at n = 2 a positive c_A is the closed form's
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, n)
    t = crandn(rng, n, n) + shift * np.sqrt(n) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(n)
    b = reduce_to_range(w, t)
    tol = 1e-12 * np.linalg.norm(b, 2)
    est = aq_crawford(w, t, 1.0)
    assert est.value >= max(0.0, phase_grid(b, smallest=True)) - tol
    if n == 2 and (exact := q_crawford_2x2(canonical_2x2(b), 1.0)) > 0.0:
        assert est.value == pytest.approx(exact, abs=tol)
        assert est.direction == TWO_SIDED



@pytest.mark.parametrize("grid", [16, 24, 64])
def test_q_one_radius_climbs_past_a_lower_peak(grid):
    # a Brent refine of the best two grid cells stopped at a lower peak here, and
    # reported 1.003018, 4.7e-3 ||B|| below the 4096-point grid's 1.0077106 at 16 phases.
    # The bracket closes past it whatever grid the budget names, a field no estimator reads
    b = nearly_normal(81)
    est = a_radius(Weight.identity(b.shape[0]), b, Budget(grid_resolution=grid))
    assert est.value >= phase_grid(b, smallest=False) - 1e-12 * np.linalg.norm(b, 2)
    assert (est.direction, est.converged) == (TWO_SIDED, 1)


def test_q_one_radius_is_two_sided_only_at_its_max():
    # the CLI's --budget 1 and --budget 6 and the benchmark's dense budget once meant
    # 4, 24 and 64 sampled phases, and omega_A was labelled two-sided whatever they
    # missed: 20, 10 and 0 of these 40 values fell short of the 4096-phase grid, by up
    # to 2.3e-2 ||B||_2.  The bracket ignores the budget and closes on every one
    budgets = [cli._budget_from_flag(1), cli._budget_from_flag(6), Budget(6, 60, 64)]
    for n in (3, 4, 8, 16):
        for seed in range(10):
            b = nearly_normal(seed, n)
            floor = phase_grid(b, smallest=False) - 1e-12 * np.linalg.norm(b, 2)
            for budget in budgets:
                est = a_radius(Weight.identity(n), b, budget)
                assert est.direction == TWO_SIDED
                assert est.value >= floor


def nearly_hermitian(rng, n, eps):
    """A rotated Hermitian B plus a non-normal part of eps ||B||_F: W(B) is a sliver around a segment."""
    h, g = crandn(rng, n, n), crandn(rng, n, n)
    b = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (h + h.conj().T)
    return b + eps * np.linalg.norm(b) * g / np.linalg.norm(g)


@pytest.mark.parametrize("eps", [2e-12, 5e-12, 1e-11, 1e-10])
def test_q_one_crawford_of_a_nearly_hermitian_operator_is_certified(eps):
    # a certificate from 16 grid phases left 71 of these 360 values one-sided: no
    # point z = v^H B v it built came within 1e-12 ||B||_2 of the lower bound.  The
    # bracket's phases reach the sliver's flat sides, and where 0 lies just outside
    # the hull of their points, the chord nearest 0 carries the witness
    for n in (3, 4, 8):
        for seed in range(30):
            b = nearly_hermitian(np.random.default_rng(seed), n, eps)
            w, tol = Weight.identity(n), 1e-12 * np.linalg.norm(b, 2)
            est = a_crawford(w, b)
            assert est.direction == TWO_SIDED
            assert witness_value(w, b, est) == pytest.approx(est.value, abs=tol)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 8]),
    shift=st.sampled_from([0.0, 1.0, 3.0]),
)
def test_q_one_radius_meets_the_phase_grid(seed, n, shift):
    # every phase's lambda_max bounds omega_A from below, so the value is at least
    # the grid's; at n = 2 it is the closed form's
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, n)
    t = crandn(rng, n, n) + shift * np.sqrt(n) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(n)
    b = reduce_to_range(w, t)
    tol = 1e-12 * np.linalg.norm(b, 2)
    est = aq_radius(w, t, 1.0)
    assert est.value >= phase_grid(b, smallest=False) - tol
    if n == 2:
        assert est.value == pytest.approx(q_radius_2x2(canonical_2x2(b), 1.0), abs=tol)
        assert est.direction == TWO_SIDED


def segment_operator(rng, n, positive):
    """U (e^{i phi} Lambda + s I) U^H, Lambda real, so W(B) is a segment; `positive` takes s = 0 and Lambda > 0."""
    lam = rng.uniform(0.1, 2.0, n) if positive else rng.standard_normal(n)
    shift = 0.0 if positive else complex(*rng.standard_normal(2))
    return rotated(rng, np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi)) * lam + shift)), lam


def weighted(rng, b, c):
    """A weight c A, A random PD, and T whose reduction under it is B."""
    w = Weight(c * random_pd_weight(rng, b.shape[0]).a)
    s = np.sqrt(w.eigvals)
    return w, w.eigvecs @ (b * s[None, :] / s[:, None]) @ w.eigvecs.conj().T


@settings(max_examples=30, deadline=None)
@example(seed=0, n=3, c=1.0, modulus=1.0, positive=True)
@example(seed=1, n=8, c=1e8, modulus=0.5, positive=False)
# a small rho: a c_q = 0 witness from the unorthogonalized residual missed by 1.85e-12 against tol 1.80e-12
@example(seed=77563, n=8, c=1e-8, modulus=1e-3, positive=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([3, 4, 8]),
    c=st.sampled_from([1e-8, 1.0, 1e8]),
    modulus=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    positive=st.booleans(),
)
def test_segment_route(seed, n, c, modulus, positive):
    # W(B) = [a, b] makes the q-range that of diag(a, b): both values are its closed
    # form, two-sided with a witness, and no search runs.  At |q| = 1 the 4096-phase
    # grids only bound them from below (lambda_min falls short at the segment's kink)
    rng = np.random.default_rng(seed)
    b, lam = segment_operator(rng, n, positive)
    w, t = weighted(rng, b, c)
    q = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))
    size, tol = np.linalg.norm(b), 1e-12 * np.linalg.norm(b, 2)
    rad, cra = aq_radius(w, t, q), aq_crawford(w, t, q)
    for est in (rad, cra):
        assert (est.direction, est.evaluations, est.converged) == (TWO_SIDED, 1, 1)
        assert witness_value(w, t, est) == pytest.approx(est.value, abs=tol)
        assert a_inner(w, est.witness_x, est.witness_y) == pytest.approx(q, abs=1e-12)
    if modulus == 1.0:
        assert rad.value >= phase_grid(b, smallest=False) - tol
        assert cra.value >= max(0.0, phase_grid(b, smallest=True)) - tol
    else:
        p, budget = np.sqrt(1.0 - modulus**2), Budget(64, 2000)
        sup = _extremize(_rule(b / size, modulus, p, "sup"), n, budget, 0, n <= 4)[0]
        inf = -_extremize(_rule(b / size, modulus, p, "disk"), n, budget, 0, n <= 4)[0]
        assert rad.value >= size * sup - tol
        assert cra.value <= size * inf + tol
    if positive:  # the ellipse's vertices on [m, M]
        centre, half = modulus * (lam.min() + lam.max()) / 2, (lam.max() - lam.min()) / 2
        assert rad.value == pytest.approx(centre + half, abs=tol)
        assert cra.value == pytest.approx(max(0.0, centre - half), abs=tol)


def test_segment_route_runs_from_dimension_two():
    # n = 2 is the closed form on B itself, with no basis to map back by; n = 1 has no 2x2 compression (a rank-one
    # weight at |q| = 1 keeps the bracket, which returns 3, not 6)
    t = np.diag([1.0 + 1j, 2.0])
    b, basis, form = _prepare(Weight.identity(2), t.tobytes())[:3]
    assert b.shape == (2, 2) and form is not None and basis is None
    w, t = Weight.diagonal([1.0, 0.0]), np.diag([3.0 + 0j, 0.0])
    b, basis, form = _prepare(w, t.tobytes())[:3]
    assert b.shape == (1, 1) and (basis, form) == (None, None)
    est = aq_radius(w, t, np.exp(0.5j))
    assert est.value == pytest.approx(3.0, abs=1e-10)


def diagonal_operator(rng, n, kind):
    """A diagonal T of one kind: real, complex collinear, complex non-collinear, with tied extremes, or scalar."""
    d = rng.standard_normal(n)
    if kind == "tied":  # the smallest and the largest entry each twice (at n = 3, the largest)
        lo, hi = np.sort(rng.standard_normal(2))
        d = rng.permutation(np.concatenate([[lo, hi, hi], [lo] * (n > 3), rng.uniform(lo, hi, max(n - 4, 0))]))
    elif kind == "scalar":
        d = np.full(n, rng.standard_normal())
    if kind == "non-collinear":
        d = d + 1j * rng.standard_normal(n)
    elif kind != "real":  # W(T) a segment off the real axis
        d = np.exp(1j * rng.uniform(0, 2 * np.pi)) * d + complex(*rng.standard_normal(2))
    return np.diag(d.astype(complex))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([3, 4, 8, 16, 64]),  # 64: `converge`'s default grid
    kind=st.sampled_from(["real", "collinear", "non-collinear", "tied", "scalar"]),
    diagonal_weight=st.booleans(),
    q=st.sampled_from([0.6, 0.3 + 0.4j, 0.95, 1.0]),
)
def test_diagonal_segment_route(seed, n, kind, diagonal_weight, q):
    # a diagonal T under a diagonal weight reduces to a diagonal B: a segment takes its end
    # eigenvectors from the standard basis, with no eigensolver, and its values and witnesses
    # are those of U T U^H under U A U^H, whose reduction is not diagonal and goes through eigh
    rng = np.random.default_rng(seed)
    t = diagonal_operator(rng, n, kind)
    a = np.diag(rng.uniform(0.1, 3.0, n)) if diagonal_weight else np.eye(n)
    u = np.linalg.qr(crandn(rng, n, n))[0]
    w, w_u, t_u = Weight(a), Weight(u @ a @ u.conj().T), u @ t @ u.conj().T
    tol = 1e-12 * np.linalg.norm(t, 2)
    _prepare.cache_clear()
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        _, basis, form, *_ = _prepare(w, t.tobytes())
        assert eigh.call_count == 0
        if kind == "non-collinear":  # W(T) is a polygon: no segment
            assert form is None
            return
        assert np.count_nonzero(basis) == 2 and np.all(basis[basis != 0] == 1.0)  # standard basis vectors
        for estimator in (aq_radius, aq_crawford):
            est, other = estimator(w, t, q), estimator(w_u, t_u, q)
            assert (est.direction, est.evaluations, est.converged) == (TWO_SIDED, 1, 1)
            assert witness_value(w, t, est) == pytest.approx(est.value, abs=tol)
            assert other.direction == TWO_SIDED
            assert est.value == pytest.approx(other.value, abs=tol)
        assert eigh.call_count == 1  # the rotated operator's segment, prepared once for both estimators


@pytest.mark.parametrize("n", [3, 8, 64])
@pytest.mark.parametrize("eps, accepted", [(1e-13, True), (1e-11, False)])
def test_diagonal_segment_test_keeps_the_dense_threshold(n, eps, accepted):
    # a collinear complex diagonal with i eps ||B||_F added to one entry, across its line: the
    # diagonal test reads ||Im g|| against the dense test's 1e-12 ||B||_F, with no eigensolver,
    # and the dense test on U B U^H gives the same verdict.  So does a dense rotated Hermitian B
    # whose entry (n - 1, 1) grows by eps ||B||_F: ||b_ij| - |b_ji|| = eps ||B||_F there alone,
    # away from the (0, 1) pair that `_prepare` screens above n = 8
    rng = np.random.default_rng(n)
    d = np.exp(0.3j) * rng.standard_normal(n) + (0.3 + 0.2j)  # on a line at angle 0.3
    d[n // 2] += np.exp(0.3j) * 1j * eps * np.linalg.norm(d)
    t = np.diag(d)
    u = np.linalg.qr(crandn(rng, n, n))[0]
    w = Weight.identity(n)
    _prepare.cache_clear()
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        assert (_prepare(w, t.tobytes())[2] is not None) == accepted
        assert eigh.call_count == 0
    assert (_prepare(w, (u @ t @ u.conj().T).tobytes())[2] is not None) == accepted
    h = crandn(rng, n, n)
    b = np.exp(0.3j) * (h + h.conj().T) + (0.3 + 0.2j) * np.eye(n)
    b[n - 1, 1] *= 1.0 + eps * np.linalg.norm(b) / abs(b[n - 1, 1])
    assert (_prepare(w, b.tobytes())[2] is not None) == accepted


@pytest.mark.parametrize("t", [
    pytest.param(np.array([[0.3 + 0.1j, 1.0], [0.2j, -0.4]]), id="2x2"),
    pytest.param(np.diag(np.exp(0.3j) * np.linspace(-1.0, 2.0, 8) + (0.3 + 0.2j)), id="diagonal-segment-8"),
])  # fmt: skip
@pytest.mark.parametrize("estimator", [aq_radius, aq_crawford])
def test_closed_form_estimate_checks_q_once(monkeypatch, t, estimator):
    # the estimate derives |q| and p with its one check and hands them to the closed form,
    # which does not check q again; every binding of validate_q is counted
    calls, original = [], semispace.validate_q

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "aqradius"]:
        if getattr(module, "validate_q", None) is original:
            monkeypatch.setattr(module, "validate_q", counted)
    est = estimator(Weight.identity(t.shape[0]), t, 0.6)
    assert (est.direction, est.evaluations) == (TWO_SIDED, 1)
    assert len(calls) == 1


def is_graded(w, t):
    """Whether the preparation of (A, T) keeps a C that may be graded, and `radius._generator` finds its generator."""
    centred = _prepare(w, as_operator(t).tobytes())[6]
    return centred is not None and radius._generator(centred[1]) is not None


SEGMENT_MISSES = [
    # (id, B): W(B) is not a segment, so the bracket or the sphere search runs; the graded
    # J3 + 0.5 I takes one eigenproblem for its radius at |q| = 1, and as 0.5 |q| < omega_q(J3)
    # its Crawford number keeps the bracket and the disk search
    ("normal-not-collinear", np.diag([2 + 1j, 2 - 1j, 5])),
    ("jordan3-shifted", JORDAN3 + 0.5 * np.eye(3)),
    # a 1e-9 ||B|| non-normal corner entry leaves |b01| = |b10|: the full test rejects it
    ("segment-plus-1e-9", np.exp(0.4j) * np.diag([1.0, 2.0, -0.5]) + 0.3 + 2e-9 * np.eye(3, k=2)),
]


@pytest.mark.parametrize("q", [1.0, 0.6])
@pytest.mark.parametrize("b", [pytest.param(case[1], id=case[0]) for case in SEGMENT_MISSES])
def test_segment_route_misses_keep_their_counts(b, q):
    w, budget = Weight.identity(3), Budget(16, 200)
    reduced = reduce_to_range(w, b)
    reduced = reduced / np.linalg.norm(reduced)
    assert _prepare(w, as_operator(b).tobytes())[2] is None
    p = np.sqrt(1.0 - q * q)
    graded = is_graded(w, b)
    for estimator, sup in ((aq_radius, True), (aq_crawford, False)):
        est = estimator(w, b, q, budget)
        if graded and sup and p == 0.0:
            counts = (1, 1)
        elif p == 0.0:
            counts = _bracket(reduced, not sup)[4:]
        else:
            counts = _extremize(_rule(reduced, q, p, "sup" if sup else "disk"), 3, budget, 0, True)[2:]
        assert (est.evaluations, est.converged) == counts
        assert est.evaluations > 1 or counts == (1, 1)


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_q_one_crawford_just_outside_the_segment_route(seed):
    # an indefinite rotated Hermitian B plus a 5e-12 ||B||_F non-normal part fails the
    # segment test, so the bracket runs; its certificate must treat the nearly collinear
    # points z = v^H B v within tol of a ray as on it to reach the witness of c_A = 0
    rng = np.random.default_rng(seed)
    h, g = crandn(rng, 4, 4), crandn(rng, 4, 4)
    b = np.exp(1j * rng.uniform(0, 6.3)) * (h + h.conj().T)
    b = b + 5e-12 * np.linalg.norm(b) * g / np.linalg.norm(g)
    assert _prepare(Weight.identity(4), b.tobytes())[2] is None
    est, tol = a_crawford(Weight.identity(4), b), 1e-12 * np.linalg.norm(b, 2)
    assert (est.value, est.direction) == (0.0, TWO_SIDED)
    assert witness_value(Weight.identity(4), b, est) <= tol


def test_diagonal_q_one_crawford_takes_no_svd():
    # a complex diagonal whose W(T) is a triangle off 0: the bracket runs, and the certificate's
    # tolerance reads ||B||_2 off the diagonal; value and label are those of the SVD's tolerance
    t = np.diag([2.0 + 1.0j, 3.0 - 0.5j, 2.5 + 2.0j])
    w = Weight.identity(3)
    _prepare.cache_clear()
    b, basis, form, size, e, diagonal, centred = _prepare(w, t.tobytes())
    assert (basis, form, centred, diagonal) == (None, None, None, True)
    original = np.linalg.svd
    with (
        mock.patch.object(np.linalg._linalg, "svd", wraps=original) as inner,
        mock.patch.object(np.linalg, "svd", wraps=original) as outer,
    ):
        est = a_crawford(w, t)
        assert inner.call_count == outer.call_count == 0
    lower, _, vectors, rows, _, _ = _bracket(b, True)
    u = radius._crawford_witness(b, lower, vectors, rows, 1e-12 * np.linalg.norm(b, 2))
    assert est.direction == TWO_SIDED
    assert est.value == radius._scale_back(size * lower, e)
    assert np.array_equal(est.witness_x, w._lift(u))
    # W(T) is the triangle of the diagonal, which misses 0: c_A is the distance to its nearest edge [z, z + d]
    ends = np.diag(t)
    distances = []
    for z, d in zip(ends, np.roll(ends, -1) - ends):
        distances.append(abs(z + np.clip(-(d.conjugate() * z).real / abs(d) ** 2, 0.0, 1.0) * d))
    assert est.value == pytest.approx(min(distances), abs=1e-12 * np.linalg.norm(t, 2))


GRADED_KINDS = ("jordan", "shift", "jordan-conjugate", "shift-conjugate")
GRADED_WEIGHTS = ("identity", "1e-08", "1", "1e+08", "diagonal")


def graded_case(seed, kind, n, weight):
    """(w, T, B): a shifted J_n or weighted shift, or a unitary conjugate, as T under a weight, and its reduction B.

    Under a diagonal weight D an operator that is not conjugated is T itself, which D turns into
    another weighted shift; a conjugate U G U^H is T = D^-1/2 U G U^H D^1/2, which reduces to it.
    """
    rng = np.random.default_rng(seed)
    b = np.diag(np.ones(n - 1) if kind.startswith("jordan") else rng.uniform(0.2, 2.0, n - 1), k=1).astype(complex)
    if kind.endswith("conjugate"):
        b = rotated(rng, b)
    b = b + rng.uniform(0.0, 3.0) * np.exp(2j * np.pi * rng.random()) * np.eye(n)
    if weight == "identity":
        return Weight.identity(n), b, b
    if weight != "diagonal":
        return Weight(float(weight) * np.eye(n)), b, b
    d = rng.uniform(0.1, 10.0, n)
    w = Weight.diagonal(d)
    t = b if not kind.endswith("conjugate") else (b * np.sqrt(d)[None, :]) / np.sqrt(d)[:, None]
    return w, t, reduce_to_range(w, t)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(GRADED_KINDS),
    n=st.integers(3, 8),
    weight=st.sampled_from(GRADED_WEIGHTS),
)
@example(seed=0, kind="jordan", n=3, weight="identity")
def test_graded_q_one_radius_is_two_sided(seed, kind, n, weight):
    # W(B) is the disk of radius lambda_max(H(C)) about s: one eigenproblem certifies omega_A
    w, t, b = graded_case(seed, kind, n, weight)
    assert is_graded(w, t)
    s = np.trace(b) / n
    c = b - s * np.eye(n)
    norm = np.linalg.norm(b, 2)
    est = a_radius(w, t)
    assert (est.direction, est.evaluations, est.converged) == (TWO_SIDED, 1, 1)
    assert est.value == pytest.approx(abs(s) + np.linalg.eigvalsh(0.5 * (c + c.conj().T))[-1], abs=1e-12 * norm)
    assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-12 * norm)
    crawford = a_crawford(w, t)
    assert crawford.direction == TWO_SIDED
    assert witness_value(w, t, crawford) == pytest.approx(crawford.value, abs=1e-12 * norm)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(GRADED_KINDS),
    n=st.integers(3, 8),
    weight=st.sampled_from(GRADED_WEIGHTS),
    absq=st.floats(0.5, 0.99),
    phase=st.floats(0.0, 2 * np.pi),
)
@example(seed=1, kind="jordan", n=3, weight="1e+08", absq=0.75, phase=1.0)
def test_graded_q_range_is_a_disk(seed, kind, n, weight, absq, phase):
    # W_q(B) is the disk of radius omega_q(C) about q s, so omega_q + c_q = 2 |s| |q| where c_q > 0,
    # both values depend on |q| alone, and each witness pair attains its value
    w, t, b = graded_case(seed, kind, n, weight)
    q, budget = absq * np.exp(1j * phase), Budget(16, 200)
    norm, shift = np.linalg.norm(b, 2), abs(np.trace(b)) / n * absq
    omega, crawford = aq_radius(w, t, q, budget), aq_crawford(w, t, q, budget)
    assert omega.direction == LOWER_BOUND_OF_SUP
    assert crawford.direction == (UPPER_BOUND_OF_INF if crawford.value else TWO_SIDED)
    if crawford.value > 0.0:
        assert omega.value + crawford.value == pytest.approx(2.0 * shift, abs=1e-12 * norm)
    if kind == "jordan" and n == 3 and weight != "diagonal" and absq > 0.5:  # at 1/2: the next test
        assert omega.value == pytest.approx(shift + jordan3_q_radius(absq), abs=1e-12)
        if shift > jordan3_q_radius(absq):
            assert crawford.value == pytest.approx(shift - jordan3_q_radius(absq), abs=1e-12)
    for estimator, est in ((aq_radius, omega), (aq_crawford, crawford)):
        at_modulus = estimator(w, t, abs(q), budget)
        assert (at_modulus.value, at_modulus.direction) == (est.value, est.direction)
        assert a_inner(w, est.witness_x, est.witness_y) == pytest.approx(q, abs=1e-12)
        assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-12 * norm)


def test_operators_that_are_not_graded_keep_their_route(rng):
    # J2 + [0.1] fails the trace test, a strictly upper triangular 3x3 and J5 under a random
    # Hermitian weight are nilpotent but have no generator, and a Gaussian B fails the trace test
    j2_point = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.1]], dtype=complex)
    cases = [
        (I3, j2_point),
        (I3, np.triu(crandn(rng, 3, 3), 1)),
        (random_pd_weight(rng, 5), np.eye(5, k=1)),
        (I3, crandn(rng, 3, 3)),
    ]
    for w, t in cases:
        assert not is_graded(w, t)
    est = a_radius(I3, j2_point)
    assert est.direction == LOWER_BOUND_OF_SUP


@pytest.mark.parametrize("t", [
    pytest.param(JORDAN3, id="jordan3"),
    pytest.param(np.triu(crandn(np.random.default_rng(7), 3, 3), 1), id="strictly-upper-triangular"),
])  # fmt: skip
def test_standalone_crawford_runs_one_search(monkeypatch, t):
    # J3 (s = 0) and a strictly upper triangular 3x3 (nilpotent, with no generator) hold 0 in W_q:
    # a Crawford call alone runs the disk search and no sup search, every binding counted
    calls, original = [], radius._extremize

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "aqradius"]:
        if getattr(module, "_extremize", None) is original:
            monkeypatch.setattr(module, "_extremize", counted)
    clear_estimate_caches()
    est = aq_crawford(I3, t, 0.6)
    assert len(calls) == 1
    q, m, p = semispace._q_parts(0.6)
    b = _prepare(I3, as_operator(t).tobytes())[0]
    value, u, evaluations, converged = original(_rule(b, m, p, "disk"), 3, Budget(), 0, True)
    assert (value, est.value, est.direction) == (0.0, 0.0, TWO_SIDED)
    assert (est.evaluations, est.converged) == (evaluations, converged)
    assert est.witness_x.tobytes() == I3._lift(u).tobytes()
    assert est.witness_y.tobytes() == I3._lift(_witness(b, u, q, p, False)).tobytes()


@pytest.mark.parametrize("estimator, q", [
    pytest.param(aq_crawford, 0.6, id="aq_crawford-0.6"),
    pytest.param(aq_crawford, 1.0, id="aq_crawford-1.0"),
    pytest.param(lambda w, t, q: a_crawford(w, t), 1.0, id="a_crawford"),
])  # fmt: skip
@pytest.mark.parametrize("t", [
    pytest.param(JORDAN3, id="jordan3"),
    pytest.param(np.triu(crandn(np.random.default_rng(7), 3, 3), 1), id="strictly-upper-triangular"),
])  # fmt: skip
def test_standalone_crawford_solves_no_generator(monkeypatch, t, estimator, q):
    # s = tr B / n = 0 for both, so W_q holds 0 and the Crawford number never reads a generator:
    # no least-squares solve runs, and the estimate is that of the route after the graded one
    calls, original = [], np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    clear_estimate_caches()
    est = estimate_fields(estimator(I3, t, q))
    assert calls == []
    monkeypatch.setattr(radius, "_graded_estimate", lambda *args: None)
    clear_estimate_caches()
    assert est == estimate_fields(estimator(I3, t, q))


@pytest.mark.xfail(reason="at |q| = 1/2 the peak of J3's rule is degenerate, and the sphere search stops short")
def test_graded_j3_at_half_meets_its_closed_form():
    # omega_q(J3 + s I) = |q| |s| + omega_q(J3); at the default budget the search's u gives a value
    # 2.4e-11 below it, as the search on B did before the graded route
    est = aq_radius(I3, JORDAN3 + 2.0 * np.exp(1j) * np.eye(3), 0.5)
    assert est.value == pytest.approx(1.0 + jordan3_q_radius(0.5), abs=1e-12)
