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
    gaps,
    q_crawford_2x2,
    q_radius_2x2,
    reduce_to_range,
)
from aqradius.radius import _extremize, _normalize_rows, _phase_max, _rule, _starts, _sweep, _witness
from conftest import crandn, random_pd_weight, random_q
from oracle import oracle_grid

EX1 = np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
EX2 = np.array([[0.0, 1.0 / 24.0], [0.0, 0.0]], dtype=complex)
JORDAN3 = np.diag([1.0, 1.0], k=1).astype(complex)
I2 = Weight.identity(2)
I3 = Weight.identity(3)


def witness_value(w, t, est):
    return abs(a_inner(w, np.asarray(t) @ est.witness_x, est.witness_y))


def phase_grid(b, smallest, points=4096):
    """Largest lambda_min (or lambda_max) of H(e^{i phi} B) over equispaced phases: a lower bound."""
    rot = np.exp(2j * np.pi * np.arange(points) / points)[:, None, None]
    vals = np.linalg.eigvalsh(0.5 * (rot * b + rot.conj() * b.conj().T))
    return float(vals[:, 0 if smallest else -1].max())


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
        assert witness_value(w, t, est) == pytest.approx(est.value, abs=1e-7)


class TestPhaseMax:
    @pytest.mark.parametrize("offset", [-0.3, 0.37, 5.5, 15.8])
    def test_finds_a_maximum_between_grid_points(self, offset):
        grid = 16
        peak = 2 * np.pi * offset / grid
        phase, value = _phase_max(lambda phis: 2.0 + np.cos(phis - peak), grid)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert np.angle(np.exp(1j * (phase - peak))) == pytest.approx(0.0, abs=1e-7)

    def test_keeps_the_grid_sample_when_the_refine_does_worse(self):
        # a spike too narrow for the refine at a grid phase, beside a broad lower
        # bump: the refine climbs the bump to 0.5, below the sample's 1
        grid = 16
        step = 2 * np.pi / grid
        peak = 5 * step

        def f(phis):
            d = np.angle(np.exp(1j * (phis - peak)))
            bump = (d - 0.6 * step) / (0.2 * step)
            return np.exp(-((d / 1e-9) ** 2)) + 0.5 * np.exp(-(bump**2))

        assert _phase_max(f, grid) == (peak, f(np.array([peak]))[0])


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
        assert aq_radius(I2, EX1, 0.5).direction == LOWER_BOUND_OF_SUP

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
        # at q = 1 the phase sweep certifies the value
        est = aq_crawford(I2, np.eye(2) / 20, q)
        assert est.value == pytest.approx(q / 20, abs=1e-10)
        assert est.direction == (TWO_SIDED if q == 1.0 else UPPER_BOUND_OF_INF)

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
    @pytest.mark.parametrize("q", [0.3, 0.8 + 0.1j, 1.0])
    def test_identity_gaps(self, q):
        gw, gc = gaps(I2, np.eye(2), q)
        assert gw.gap == pytest.approx(1 - abs(q), abs=1e-8)
        assert gc.gap == pytest.approx(1 - abs(q), abs=1e-8)

    def test_example1_gap_at_q_one(self):
        gw, _ = gaps(I2, EX1, 1.0)
        assert gw.op_norm == pytest.approx(1 / 70, abs=1e-15)
        assert gw.gap == pytest.approx(1 / 140, abs=1e-8)

    def test_gap_identity_holds(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        gw, gc = gaps(w, t, 0.7)
        assert gw.gap == gw.op_norm - gw.radius_or_crawford
        assert gc.gap == gc.op_norm - gc.radius_or_crawford
        assert gw.gap >= -1e-7


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
        [{"restarts": 0}, {"iterations": -5}, {"grid_resolution": -1}, {"grid_resolution": 3}],
        ids=["restarts-0", "iterations-negative", "grid-negative", "grid-3"],
    )
    def test_budget_rejects_fields_it_cannot_run(self, fields):
        with pytest.raises(ValueError, match="restarts >= 1, iterations >= 1, grid_resolution >= 4"):
            Budget(**fields)

    def test_monotone_budget_in_restarts(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        q = 0.45
        small = Budget(restarts=4, iterations=60)
        rad_small = aq_radius(w, t, q, small, seed=9).value
        rad_big = aq_radius(w, t, q, small.scaled(2), seed=9).value
        assert rad_big >= rad_small - 1e-12
        cra_small = aq_crawford(w, t, q, small, seed=9).value
        cra_big = aq_crawford(w, t, q, small.scaled(2), seed=9).value
        assert cra_big <= cra_small + 1e-12

    def test_deterministic_for_fixed_seed(self, rng):
        w = random_pd_weight(rng, 3)
        t = crandn(rng, 3, 3)
        e1 = aq_radius(w, t, 0.3, Budget(8, 80), seed=5)
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
        # every unit vector is a stationary point of both rules
        est = estimator(random_pd_weight(rng, 3), (0.3 - 2j) * np.eye(3), 0.4)
        assert (est.evaluations, est.converged) == (1, est.budget.restarts)

    def test_phase_sweep_reports_no_search(self, rng):
        est = a_radius(I3, crandn(rng, 3, 3))
        assert est.evaluations is None and est.converged is None


class TestStarts:
    def test_read_only(self):
        starts = _starts(0, 4, 3)
        assert not starts.flags.writeable
        with pytest.raises(ValueError):
            starts[0, 0] = 1.0

    @pytest.mark.parametrize("factor", [2, 4, 16])
    def test_budget_ladder_extends_the_starts(self, factor):
        # Budget.scaled keeps the smaller budget's starts, so best-so-far holds
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
            fresh = estimator(w, t, q, Budget(8, 80), seed=4)
            assert fresh.value == cached.value
            assert fresh.witness_x.tobytes() == cached.witness_x.tobytes()
            assert fresh.witness_y.tobytes() == cached.witness_y.tobytes()


class TestStopRule:
    def test_plateau_stops_at_once(self):
        rule, rows = counting(lambda u: (np.zeros(u.shape[0]), np.zeros_like(u)))
        value, u, evaluations, converged = _extremize(rule, 3, Budget(), seed=0, scale=1.0)
        assert value == 0.0
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert len(rows) <= 2
        assert (evaluations, converged) == (len(rows), Budget().restarts)

    def test_restarts_stop_once_converged(self, rng):
        budget = Budget()
        evaluations = []
        for _ in range(20):
            n = int(rng.integers(2, 5))
            b = crandn(rng, n, n) + rng.choice([0.0, 2.0 * n]) * np.eye(n)
            absq = 1.0 - rng.random()
            p = np.sqrt(1 - absq**2)
            for kind in ("sup", "circle" if n == 2 else "disk"):
                rule, rows = counting(_rule(b, absq, p, kind))
                _extremize(rule, n, budget, seed=0, scale=np.linalg.norm(b))
                evaluations.append(len(rows))
        assert np.median(evaluations) < budget.iterations / 4


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
    """(name, value, analytic gradient) of the sup rule and the two minus-inf rules.

    The value is taken at the normalized rows, so central differences see the
    row-scale invariant extension whose gradient the rules return.
    """
    p = np.sqrt(1 - absq**2)
    rules = [(kind, _rule(b, absq, p, kind)) for kind in ("sup", "circle", "disk")]
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
        herm = crandn(rng, 4, 4)
        herm = herm + herm.conj().T
        off_diag = np.array([[0, 1, 0], [2, 0, 1j], [0, 1, 3]], dtype=complex)
        kinks = [
            (herm, np.linalg.eigh(herm)[1].T),  # rho = 0 up to round-off
            (np.diag([2.0, -1.0, 0.5]).astype(complex), np.eye(3, dtype=complex)),  # rho = 0
            (off_diag, np.eye(3, dtype=complex)[:1]),  # c = 0
            (np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)),  # c = rho = 0
        ]
        with np.errstate(all="raise"):
            for b, u in kinks:
                for absq in (0.0, 0.3, 0.9, 1.0):
                    for name, _, grad_fn in sphere_objectives(b, absq):
                        assert np.all(np.isfinite(grad_fn(u))), name


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
    # (id, B, unit u, q, sup); the inf rule is the circle in dimension 2, the disk above
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
    absq = abs(q)
    p = np.sqrt(max(0.0, 1 - absq**2))
    kind = "sup" if sup else "circle" if u.size == 2 else "disk"
    value = (1.0 if sup else -1.0) * _rule(b, absq, p, kind)(u[None, :])[0][0]
    with np.errstate(all="raise"):
        v = _witness(b, u, q, p, sup)
    assert np.vdot(v, u) == pytest.approx(q, abs=1e-12)  # <u, v> = v^H u
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(v, b @ u)) == pytest.approx(value, abs=1e-12 * np.linalg.norm(b, 2))


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
        again = estimator(w_scaled, t, q, budget, seed=3)
        assert again.value == est.value
        assert np.array_equal(again.witness_x, est.witness_x)
        assert np.array_equal(again.witness_y, est.witness_y)
        assert est.value == pytest.approx(estimator(w, t, q, budget, seed=3).value, abs=tol)


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
@example(seed=0, n=2, modulus=1.0, theta=0.0)  # the phase sweep
@example(seed=0, n=2, modulus=1.0 - 2.0**-53, theta=0.0)  # p = 1.5e-8: the sphere search
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


def test_q_one_crawford_matches_the_2x2_closed_form():
    # the q = 1 sphere search misses this Crawford number by 1.3e-5 ||B||; the sweep meets it
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
    # the sweep's eigenvector misses c_A there, so the witness comes from the sphere search
    w, norm = Weight.identity(b.shape[0]), np.linalg.norm(b, 2)
    value, u = _sweep(b, 16, smallest=True)
    assert value == pytest.approx(exact, abs=1e-9 * norm)
    assert abs(np.vdot(u, b @ u)) > exact + 0.1
    est = a_crawford(w, b)
    assert est.value == pytest.approx(exact, abs=1e-9 * norm)
    assert witness_value(w, b, est) == pytest.approx(est.value, abs=1e-12 * norm)


@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi / 2, 2.5, np.pi, 4.0])
def test_unimodular_q_takes_the_q_one_values(rng, theta):
    # shifted, so that the Crawford sweep is certified as well; |q| is taken as given,
    # and at these phases abs(q) is exactly 1 (one ulp below, p = 1.5e-8 and the
    # sphere search runs, as in the @example of test_radius_matches_the_2x2_closed_form)
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
