import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqradius import (
    TWO_SIDED,
    Budget,
    QOutOfRange,
    Weight,
    a_crawford,
    a_radius,
    aq_crawford,
    aq_radius,
    canonical_2x2,
    jordan3_q_radius,
    q_crawford_2x2,
    q_extremal_2x2,
    q_radius_2x2,
    q_range_2x2,
)
from aqradius import exact
from aqradius.exact import CanonicalForm2x2, EllipseDisk
from aqradius.radius import _witness
from aqradius.semispace import as_operator
from conftest import crandn, random_pd_weight
from oracle import oracle_grid

EX1 = np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
EX2 = np.array([[0.0, 1.0 / 24.0], [0.0, 0.0]], dtype=complex)
Q_GRID = np.round(np.arange(0.1, 1.01, 0.1), 10)


def _shifted_scaled(count, seed=0):
    """Random 2x2 matrices, shifted off the origin and scaled by 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    return [
        (crandn(rng, 2, 2) + 3 * rng.random() * crandn(rng) * np.eye(2)) * 10 ** rng.uniform(-8, 8)
        for _ in range(count)
    ]


SHIFTED_SCALED = _shifted_scaled(1000)


def _point_outside(a, b, q, s, gap):
    """[[g, a], [b, g]] whose q-range ellipse has the origin `gap` outside it, on the normal at s."""
    p = np.sqrt(1 - q * q)
    big, small = (a + b) / 2 + p * (a - b) / 2, (a - b) / 2 + p * (a + b) / 2
    x, y = big * np.cos(s), small * np.sin(s)
    normal = complex(x / big**2, y / small**2)
    g = -(complex(x, y) + gap * normal / abs(normal)) / q
    return np.array([[g, a], [b, g]])


def reconstruction_residual(t, form):
    lhs = form.u_similar.conj().T @ t @ form.u_similar
    return np.max(np.abs(lhs - form.matrix()))


class TestCanonical2x2:
    def test_nilpotent_paper_matrix(self):
        form = canonical_2x2(EX1)
        assert form.t == pytest.approx(0.0, abs=1e-12)
        assert form.gamma == pytest.approx(0.0, abs=1e-12)
        assert form.a == pytest.approx(1 / 70, abs=1e-15)
        assert form.b == pytest.approx(0.0, abs=1e-15)

    def test_scalar(self):
        form = canonical_2x2(0.3 * np.eye(2))
        assert form.a == pytest.approx(0.0, abs=1e-12)
        assert form.b == pytest.approx(0.0, abs=1e-12)
        assert form.gamma * np.exp(1j * form.t) == pytest.approx(0.3)

    def test_reconstruction_concrete(self):
        t = np.array([[1.0, 2.0], [-1.0, 1.0]], dtype=complex)
        form = canonical_2x2(t)
        assert reconstruction_residual(t, form) < 1e-9
        assert 0 <= form.b <= form.a
        assert 0 <= form.t < 2 * np.pi

    def test_reconstruction_random(self, rng):
        for _ in range(50):
            t = crandn(rng, 2, 2)
            form = canonical_2x2(t)
            assert reconstruction_residual(t, form) < 1e-9
            assert form.u_similar.conj().T @ form.u_similar == pytest.approx(np.eye(2), abs=1e-12)
            assert 0 <= form.b <= form.a

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            canonical_2x2(np.eye(3))

    def test_entry_whose_modulus_overflows(self):
        # the parts are finite and the modulus 1.98e308 is not: T 2^-e takes e from the parts,
        # and a = b = |lambda_1 - lambda_2| / 2 scale back below the largest float
        lam = 1.5e308 + 1.3e308j
        form = canonical_2x2(np.diag([lam, 1.0]))
        assert form.a == pytest.approx(abs(lam / 2.0), rel=1e-12)
        assert form.b == pytest.approx(abs(lam / 2.0), rel=1e-12)
        assert abs(form.gamma) == pytest.approx(abs(lam / 2.0), rel=1e-12)

    def test_form_beyond_the_largest_float_raises(self):
        # the traceless part [[x, x], [x, -x]] has a = b = sqrt(2) x > 1.8e308
        x = 1.7e308
        with pytest.raises(ValueError, match="overflows the largest float"):
            canonical_2x2([[x, x], [x, -x]])


class TestQRange2x2:
    def test_disk_at_q_zero(self):
        disk = q_range_2x2(canonical_2x2(EX1), 0.0)
        assert disk.center == pytest.approx(0.0)
        assert disk.semi_major == pytest.approx(1 / 70)
        assert disk.semi_minor == pytest.approx(1 / 70)

    def test_classical_ellipse_at_q_one(self):
        form = canonical_2x2(EX1)
        disk = q_range_2x2(form, 1.0)
        assert disk.semi_major == pytest.approx((form.a + form.b) / 2)
        assert disk.semi_minor == pytest.approx((form.a - form.b) / 2)

    def test_balanced_entries_give_axes_ratio_p(self):
        t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        disk = q_range_2x2(canonical_2x2(t), 0.6)
        assert disk.semi_minor == pytest.approx(0.8 * disk.semi_major)

    def test_membership_matches_parameterization(self, rng):
        form = canonical_2x2(crandn(rng, 2, 2))
        disk = q_range_2x2(form, 0.7)
        for _ in range(200):
            r = rng.random()
            s = rng.uniform(0, 2 * np.pi)
            assert disk.contains(disk.point(r, s), tol=1e-9)

    def test_central_symmetry(self, rng):
        disk = q_range_2x2(canonical_2x2(crandn(rng, 2, 2)), 0.4)
        for _ in range(100):
            r = rng.random()
            s = rng.uniform(0, 2 * np.pi)
            z = disk.point(r, s)
            mirrored = 2 * disk.center - z
            assert disk.contains(mirrored, tol=1e-9)


class TestClosedFormValues:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_example1_radius_formula(self, q):
        target = (1 + np.sqrt(1 - q * q)) / 140
        assert q_radius_2x2(canonical_2x2(EX1), q) == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_example2_radius_formula(self, q):
        target = (1 + np.sqrt(1 - q * q)) / 48
        assert q_radius_2x2(canonical_2x2(EX2), q) == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_example3_scalar(self, q):
        form = canonical_2x2(np.eye(2) / 20)
        assert q_radius_2x2(form, q) == pytest.approx(q / 20, abs=1e-12)
        assert q_crawford_2x2(form, q) == pytest.approx(q / 20, abs=1e-12)

    @pytest.mark.parametrize(
        "ts",
        [[EX1], [EX2], [np.eye(2) / 20], SHIFTED_SCALED],
        ids=["example1", "example2", "example3", "random-shifted-scaled"],
    )
    def test_q_zero_gives_the_disk_of_radius_a(self, ts):
        # W_0(T) is the disk of radius a about 0, every boundary point of which is extreme
        for t in ts:
            form = canonical_2x2(t)
            assert q_radius_2x2(form, 0.0) == form.a
            assert q_crawford_2x2(form, 0.0) == 0.0

    def test_nilpotent_crawford_vanishes(self):
        form = canonical_2x2(EX1)
        for q in Q_GRID:
            assert q_crawford_2x2(form, q) == 0.0

    def test_q_one_specializes_to_radius(self, rng):
        for _ in range(25):
            t = crandn(rng, 2, 2)
            exact_val = q_radius_2x2(canonical_2x2(t), 1.0)
            swept = a_radius(Weight.identity(2), t).value
            assert exact_val == pytest.approx(swept, abs=1e-8)

    def test_crawford_positive_case(self):
        # shifted scalar: range is the single point 2q, distance formula must hit it
        form = canonical_2x2(2.0 * np.eye(2))
        assert q_crawford_2x2(form, 0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "t, q",
        [
            # center 3q, circle of radius (1 + p)/2 around it: the origin is outside, on the axis
            (np.array([[3.0, 1.0], [0.0, 3.0]], dtype=complex), 0.8),
            # b << a: semi-axes 0.8002 and 0.7998
            (np.array([[3 * np.exp(0.7j), 1.0], [1e-3, 3 * np.exp(0.7j)]]), 0.8),
            # b ~ a, q ~ 1: semi-axes 1.0 and 1.5e-5
            (np.array([[2 * np.exp(0.3j), 1.0], [1 - 1e-6, 2 * np.exp(0.3j)]]), 1 - 1e-10),
            # the query point 1e-7 outside the boundary, where the projection equation is steep
            (_point_outside(1.0, 0.4, 0.6, 0.9, 1e-7), 0.6),
            # 1e-8 outside a flat ellipse near its sharp end
            (_point_outside(1.0, 0.99, 0.999, 0.02, 1e-8), 0.999),
        ],
        ids=["on-axis", "near-circular", "flat", "near-boundary", "near-vertex"],
    )
    def test_crawford_outside_ellipse(self, t, q):
        form = canonical_2x2(t)
        val = q_crawford_2x2(form, q)
        # cross-check against a dense boundary search, refined around its best sample
        disk = q_range_2x2(form, q)

        def modulus(s):
            boundary = disk.center + np.exp(1j * disk.rotation) * (
                disk.semi_major * np.cos(s) + 1j * disk.semi_minor * np.sin(s)
            )
            return np.abs(boundary)

        s = np.linspace(0, 2 * np.pi, 200001)
        i, h = int(np.argmin(modulus(s))), s[1] - s[0]
        assert val == pytest.approx(np.min(modulus(np.linspace(s[i] - h, s[i] + h, 200001))), abs=1e-12)

    def test_radius_max_on_boundary_vs_full_grid(self, rng):
        # the maximizer sits on the outer ellipse: compare against an (r, s) grid
        form = canonical_2x2(crandn(rng, 2, 2))
        q = 0.35
        disk = q_range_2x2(form, q)
        rs = np.linspace(0.0, 1.0, 2000)
        ss = np.linspace(0.0, 2 * np.pi, 2001)
        pts = disk.center + np.exp(1j * disk.rotation) * (
            rs[:, None] * (disk.semi_major * np.cos(ss)[None, :] + 1j * disk.semi_minor * np.sin(ss)[None, :])
        )
        grid_max = np.max(np.abs(pts))
        assert q_radius_2x2(form, q) == pytest.approx(grid_max, abs=1e-5)
        assert q_radius_2x2(form, q) >= grid_max - 1e-9


class TestJordanFormula:
    def test_value_at_one(self):
        assert jordan3_q_radius(1.0) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_value_at_half(self):
        # 27 + 9 - 13/4 + 12.5 * 2.5 = 64, so the radius is exactly 1
        assert jordan3_q_radius(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_against_sampling_estimator(self):
        jordan = np.diag([1.0, 1.0], k=1).astype(complex)
        w = Weight.identity(3)
        for q in (0.5, 0.75):
            est = aq_radius(w, jordan, q, Budget(32, 300))
            assert est.value == pytest.approx(jordan3_q_radius(q), abs=1e-5)

    def test_domain(self):
        with pytest.raises(QOutOfRange):
            jordan3_q_radius(0.4)
        with pytest.raises(QOutOfRange):
            jordan3_q_radius(1.2)
        with pytest.raises(QOutOfRange):  # abs(q) would overflow
            jordan3_q_radius(1.5e308 + 1.5e308j)
        with pytest.raises(QOutOfRange):
            q_radius_2x2(canonical_2x2(EX1), 1.5e308 + 1.5e308j)


PHASES = st.floats(0.0, 2 * np.pi)


@settings(max_examples=30, deadline=None)
@example(seed=1, modulus=5e-324, theta=0.0)  # the range's centre |q| gamma is subnormal
@given(seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.0, 1.0), theta=PHASES)
def test_closed_forms_take_q_by_its_modulus(seed, modulus, theta):
    # W_q(T) = (q/|q|) W_{|q|}(T), so no modulus over it moves with arg q; the
    # reference is taken at abs(q), since the values are not Lipschitz in |q| at 1
    t = crandn(np.random.default_rng(seed), 2, 2)
    form = canonical_2x2(t)
    q = modulus * np.exp(1j * theta)
    tol = 1e-12 * np.linalg.norm(t, 2)
    assert q_radius_2x2(form, q) == pytest.approx(q_radius_2x2(form, abs(q)), abs=tol)
    assert q_crawford_2x2(form, q) == pytest.approx(q_crawford_2x2(form, abs(q)), abs=tol)
    q = (0.5 + 0.5 * modulus) * np.exp(1j * theta)  # the Jordan formula covers |q| in [1/2, 1]
    assert jordan3_q_radius(q) == pytest.approx(jordan3_q_radius(abs(q)), abs=1e-12)  # norm 1


# the origin 1e-6 and 0.3 outside the q = 0.8 range ellipse
NEAR_BOUNDARY = [(_point_outside(1.0, 0.4, 0.8, 0.7, gap), 0.8) for gap in (1e-6, 0.3)]
# a numerical range that holds the origin: at q = 1 a Schur-basis quadratic divided by a^2
# (ZeroDivisionError at c = 1e-300) and gave a NaN witness at c = 1e300
INSIDE = np.array([[0.1 + 0.05j, 1.0], [0.5, 0.1 + 0.05j]])


def _unit_gaussian(seed):
    """A complex Gaussian of unit 2-norm, so that 1.7e308 times it is finite."""
    t = crandn(np.random.default_rng(seed), 2, 2)
    return t / np.linalg.norm(t, 2)


GAUSSIAN = _unit_gaussian(0)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    t = crandn(rng, 2, 2) + 3 * rng.random() * crandn(rng) * np.eye(2)  # a shift moves the origin out
    modulus = 1.0 if rng.random() < 0.25 else rng.random()
    return t, modulus * np.exp(2j * np.pi * rng.random())


@settings(max_examples=40, deadline=None)
@example(case=NEAR_BOUNDARY[0], c=1e-8)
@example(case=NEAR_BOUNDARY[1], c=1e-12)
@example(case=(INSIDE, 1.0), c=1e-300)
@example(case=(INSIDE, 1.0), c=1e300)
# near the largest float: the semi-axes' products (1 + p) a overflowed, so q_radius_2x2 was NaN
@example(case=(INSIDE, 0.0), c=1e308)
@example(case=(INSIDE, 0.6), c=1e308)
@example(case=(INSIDE, 1.0), c=1e308)
@example(case=(GAUSSIAN, 0.0), c=1e308)
@example(case=(GAUSSIAN, 0.6), c=1e308)
@example(case=(GAUSSIAN, 1.0), c=1e308)
@example(case=(INSIDE, 0.0), c=1.7e308)
@example(case=(INSIDE, 0.6), c=1.7e308)
@example(case=(INSIDE, 1.0), c=1.7e308)
@given(
    case=st.one_of(
        st.sampled_from([*NEAR_BOUNDARY, (INSIDE, 1.0), (INSIDE, 0.6)]),
        st.integers(0, 2**32 - 1).map(_random_case),
    ),
    c=st.sampled_from([1e-310, 1e-300, 1e-200, 1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e200, 1e300]),
)
def test_closed_forms_are_homogeneous(case, c):
    # W_q(cT) = c W_q(T), so both moduli scale with c at every magnitude, and the unit u of
    # q_extremal_2x2 at cT, with its partner from radius._witness, attains the value
    t, q = case
    tol = 1e-12 * np.linalg.norm(t, 2)
    p = math.sqrt(max(0.0, 1.0 - abs(q) ** 2))
    for sup in (True, False):
        value, u = q_extremal_2x2(canonical_2x2(c * t), q, sup)
        assert value / c == pytest.approx(q_extremal_2x2(canonical_2x2(t), q, sup)[0], abs=tol)
        v = _witness(c * t, u, complex(q), p, sup)
        assert abs(np.vdot(v, c * t @ u)) / c == pytest.approx(value / c, abs=tol)


@settings(max_examples=30, deadline=None)
@example(seed=239, c=1.7e308)  # at the entries' own scale, t10 / d0 overflows to -inf
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1e308, 1.7e308]))
def test_canonical_form_is_homogeneous_near_the_largest_float(seed, c):
    # the form of cT is that of T with gamma, a and b times c, and the closed forms follow it
    t = _unit_gaussian(seed)
    form, big = canonical_2x2(t), canonical_2x2(c * t)
    assert abs(cmath.exp(1j * big.t) - cmath.exp(1j * form.t)) <= 1e-12
    assert np.abs(big.u_similar - form.u_similar).max() <= 1e-12
    for scaled, unit in ((big.gamma, form.gamma), (big.a, form.a), (big.b, form.b)):
        assert abs(scaled / c - unit) <= 1e-12
    for q in (0.0, 0.6, 1.0):
        assert q_radius_2x2(big, q) / c == pytest.approx(q_radius_2x2(form, q), abs=1e-12)
        assert q_crawford_2x2(big, q) / c == pytest.approx(q_crawford_2x2(form, q), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.0, 1.0), theta=PHASES)
def test_rotated_range_contains_sampled_values(seed, modulus, theta):
    # unit x, y with <x, y> = y^H x = q: y = conj(q) x + p e^{i psi} w, w a unit orthogonal to x
    rng = np.random.default_rng(seed)
    t = crandn(rng, 2, 2)
    q = modulus * np.exp(1j * theta)
    p = np.sqrt(max(0.0, 1.0 - abs(q) ** 2))
    disk = q_range_2x2(canonical_2x2(t), q)
    for _ in range(50):
        x = crandn(rng, 2)
        x /= np.linalg.norm(x)
        w = np.array([-np.conj(x[1]), np.conj(x[0])])
        y = np.conj(q) * x + p * np.exp(2j * np.pi * rng.random()) * w
        assert np.vdot(y, x) == pytest.approx(q, abs=1e-12)
        assert disk.contains(np.vdot(y, t @ x), tol=1e-9)


def test_closed_forms_match_estimators_on_random_matrices(rng):
    # 200 random 2x2 matrices, q on the deciles: the estimators' values against the closed
    # forms to 1e-9 ||T||_2, and each witness pair attains its value to 1e-12 ||T||_2
    budget = Budget(restarts=32, iterations=300)
    w = Weight.identity(2)
    for k in range(200):
        t = crandn(rng, 2, 2)
        form = canonical_2x2(t)
        q = float(Q_GRID[k % len(Q_GRID)])
        norm = np.linalg.norm(t, 2)
        for estimator, exact in ((aq_radius, q_radius_2x2), (aq_crawford, q_crawford_2x2)):
            est = estimator(w, t, q, budget)
            assert est.value == pytest.approx(exact(form, q), abs=1e-9 * norm)
            assert abs(np.vdot(est.witness_y, t @ est.witness_x)) == pytest.approx(est.value, abs=1e-12 * norm)


@settings(max_examples=60, deadline=None)
@example(seed=0, eps=0.0)
@example(seed=7375394, eps=0.0)  # b / a = 1 - ulp: y / B at kappa = 1 is round-off over round-off
@given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.0, 1e-14, 1e-10, 1e-8]))
def test_q_one_zero_witness_on_segments_and_thin_ellipses(seed, eps):
    # T = U ([[l1, eps g], [0, l2]] + s I) U^H: W(T) is the segment [l1, l2] through 0 when
    # eps = 0, else an ellipse of semi-minor axis eps |g| / 2 about it, and s moves the
    # segment off 0 by at most a quarter of that; c_A = 0 and the witness attains it
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random())
    l1, l2 = rng.uniform(0.2, 1.0) * phase, -rng.uniform(0.2, 1.0) * phase
    g = eps * crandn(rng)
    s = 0.125 * abs(g) * rng.uniform(-1.0, 1.0) * 1j * phase
    u = np.linalg.qr(crandn(rng, 2, 2))[0]
    t = 10 ** rng.uniform(-8, 8) * u @ (np.array([[l1, g], [0, l2]]) + s * np.eye(2)) @ u.conj().T
    value, x = q_extremal_2x2(canonical_2x2(t), 1.0, False)
    assert value == 0.0
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(x, t @ x)) <= 1e-12 * np.linalg.norm(t, 2)


def test_q_one_zero_witness_of_a_hermitian_segment():
    # W(diag(0, 3)) is [0, 3], so c_A = 0; a witness of the quartic route attained 1.5
    t = np.diag([0.0, 3.0])
    est = a_crawford(Weight.identity(2), t)
    assert (est.value, est.direction) == (0.0, TWO_SIDED)
    assert abs(np.vdot(est.witness_y, t @ est.witness_x)) <= 1e-15


def _real_nearly_symmetric(seed):
    """A real symmetric n x n with one-decimal entries, n in {2, 3, 4, 6}, half of them plus a
    skew part of relative size 1e-16 to 1e-6 (n = 2: a multiple of [[0, 1], [-1, 0]])."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 4, 6]))
    h = np.triu(np.round(rng.uniform(-2.0, 2.0, (n, n)), 1))
    h = h + np.triu(h, 1).T
    if rng.random() < 0.5:
        skew = rng.standard_normal((n, n))
        skew -= skew.T
        h = h + 10.0 ** rng.uniform(-16.0, -6.0) * np.linalg.norm(h, 2) * skew / np.linalg.norm(skew, 2)
    return h


# the |q| = 1 Crawford witnesses of a two-sided 0 attained 0.37 ||T||_2 on the first and
# 0.066 ||T||_2 on the second while a Newton step on the phase of the origin's preimage moved
# it off a thin range's vertex, dividing round-off by the squared ratio of the axes
@settings(max_examples=60, deadline=None)
@example(t=np.array([[1.2, 0.0, -1.2], [0.0, 0.7, -0.4], [-1.2, -0.4, 1.1]]))
@example(t=np.array([[-1.78, 1.95], [1.94999999999999, 2.0]]))
@given(t=st.integers(0, 2**32 - 1).map(_real_nearly_symmetric))
def test_q_one_crawford_witness_of_real_nearly_symmetric_operators(t):
    # W(T) of a real symmetric T is a real segment, an ellipse about one for a small skew
    # part: a two-sided c_A (a_crawford, and aq_crawford at q = i) is attained by its witness
    norm = np.linalg.norm(t, 2)
    for est in (a_crawford(Weight.identity(len(t)), t), aq_crawford(Weight.identity(len(t)), t, 1j)):
        if est.direction == TWO_SIDED:
            assert abs(np.vdot(est.witness_y, t @ est.witness_x)) == pytest.approx(est.value, abs=1e-12 * norm)


# reference_origin_preimage misses the first example by |G| = 4.1e-7; on the second, the
# witness of the quartic route it keeps attained 1.4e-8 ||T||_2; on the third, the origin
# is found just outside the range, and the boundary quartic's phase for the least modulus
# gave a two-sided 1.1e-12 ||T||_2
@settings(max_examples=60, deadline=None)
@example(digits=None, log_p=-7.370620955674008, s=4.742036584061512, seed=2341192542)
@example(digits=None, log_p=-7.265627836658405, s=4.727399990611805, seed=1542215076)
@example(digits=None, log_p=-7.8125, s=0.0001, seed=125)
@given(
    digits=st.one_of(st.none(), st.floats(4.0, 16.0)),
    log_p=st.floats(math.log10(1.5e-8), -2.0),
    s=PHASES,
    seed=st.integers(0, 2**32 - 1),
)
def test_origin_preimage_on_the_boundary_of_thin_ranges(digits, log_p, s, seed):
    # a = b, or b = a (1 - 10^-digits), with p = sqrt(1 - |q|^2) in [1.5e-8, 1e-2] and the
    # origin on the boundary of the range: the preimage solves its equation to round-off,
    # and aq_crawford's two-sided value, 0 where the range is found to hold the origin, is
    # attained by its witness pair
    b, p = 1.0 if digits is None else 1.0 - 10.0**-digits, 10.0**log_p
    big, small = 0.5 * ((1 + b) + p * (1 - b)), 0.5 * ((1 - b) + p * (1 + b))
    w = complex(big * math.cos(s), small * math.sin(s))
    assert abs(_residual(b, p, w, *exact._origin_preimage(1.0, b, p, w))) <= 1e-14
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(crandn(rng, 2, 2))[0]
    q = math.sqrt(1.0 - p * p) * np.exp(2j * np.pi * rng.random())
    t = u @ _point_outside(1.0, b, abs(q), s, 0.0) @ u.conj().T
    est, norm = aq_crawford(Weight.identity(2), t, q), np.linalg.norm(t, 2)
    assert est.direction == TWO_SIDED
    assert est.value <= 1e-12 * norm
    assert abs(np.vdot(est.witness_y, t @ est.witness_x)) == pytest.approx(est.value, abs=1e-12 * norm)


def _thin_numerical_range_point(case):
    """(b, w): b = 1 - 10^-digits, or 1 - 2^-52 for digits None, and w inside the p = 0 range
    1/2 (1 + b) cos s + i/2 (1 - b) sin s at r of its major semi-axis and rel of its minor one."""
    digits, r, rel = case
    b = 1.0 - (2.0**-52 if digits is None else 10.0**-digits)
    return b, complex(0.5 * (1.0 + b) * r, 0.5 * (1.0 - b) * rel)


@settings(max_examples=60, deadline=None)
@example(case=(1.0 - 1e-9, 0.5 + 1e-20j))  # |G| was 0.96, with s = 2.5e10
@given(
    case=st.tuples(
        st.one_of(st.none(), st.floats(4.0, 16.0)), st.floats(-0.999, 0.999), st.floats(-1e-10, 1e-10)
    ).map(_thin_numerical_range_point)
)
def test_origin_preimage_near_the_axis_of_thin_numerical_ranges(case):
    # p = 0 (|q| = 1) on a thin range, w off its major axis by far less than the round-off of
    # the minor one: the preimage solves its equation to round-off
    b, w = case
    assert abs(_residual(b, 0.0, w, *exact._origin_preimage(1.0, b, 0.0, w))) <= 1e-14


def test_origin_preimage_with_a_subnormal_real_part():
    # at q = 0.6, -q gamma / a = -6e-311 - 0.06i lies on the segment that is the kappa_A
    # ellipse but for a subnormal real part; a climb from a subnormal kappa - kappa_A missed
    # the equation by |G| = 9.0e-8, and the witness of the two-sided 0 attained 8.0e-9 ||T||_2
    g = 1e-310 + 0.1j
    t, q = np.array([[g, 1.0], [0.5, g]]), 0.6
    form, p = canonical_2x2(t), 0.8
    a, b, w = form.a, form.b, -q * form.gamma
    assert abs(_residual(b / a, p, w / a, *exact._origin_preimage(a, b, p, w))) <= 1e-14
    est = aq_crawford(Weight.identity(2), t, q)
    assert (est.value, est.direction) == (0.0, TWO_SIDED)
    assert abs(np.vdot(est.witness_y, t @ est.witness_x)) <= 1e-12 * np.linalg.norm(t, 2)


@settings(max_examples=200, deadline=None)
@example(shape="random", centre="real", scale=1.0, seed=0)
@example(shape="thin", centre="imaginary", scale=1e200, seed=1)
@example(shape="segment", centre="zero", scale=1e-200, seed=2)
@example(shape="circle", centre="tiny", scale=1.0, seed=3)
@given(
    shape=st.sampled_from(["random", "thin", "circle", "segment"]),
    centre=st.sampled_from(["random", "zero", "real", "imaginary", "tiny"]),
    scale=st.sampled_from([1e-200, 1.0, 1e200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_boundary_extremes_match_the_reference(shape, centre, scale, seed):
    # the least |z| over the boundary no larger, and the largest no smaller, than the
    # np.roots reference's (which takes no Newton step) beyond 1e-15 (M + |zeta|), and each
    # attained at its returned phase; centres on an axis take the evolute's branch
    rng = np.random.default_rng(seed)
    big = rng.uniform(0.1, 2.0)
    ratio = {"random": rng.random(), "thin": 10.0 ** rng.uniform(-12.0, -3.0), "circle": 1.0, "segment": 0.0}
    zeta = {
        "random": complex(crandn(rng)) * 10.0 ** rng.uniform(-1.0, 1.0),
        "zero": 0.0,
        "real": complex(rng.standard_normal()),
        "imaginary": 1j * rng.standard_normal(),
        "tiny": 1e-12 * big * cmath.exp(2j * math.pi * rng.random()),
    }
    rotation = rng.uniform(0.0, 2.0 * math.pi)
    disk = EllipseDisk(scale * zeta[centre] * cmath.exp(1j * rotation), scale * big, scale * big * ratio[shape], rotation)
    framed = disk.center * cmath.exp(-1j * rotation)
    tol = 1e-15 * (disk.semi_major + abs(framed))
    (low, _), (high, _) = reference_boundary_moduli(disk)
    for sup, sign, reference in ((False, 1.0, low), (True, -1.0, high)):
        value, s = exact._boundary_extreme(disk, sup)
        assert sign * (value - reference) <= tol
        point = framed + complex(disk.semi_major * math.cos(s), disk.semi_minor * math.sin(s))
        assert abs(point) == pytest.approx(value, abs=tol)


# The closed forms as they were on numpy arrays, kept verbatim (but for their names) as the
# reference of the scalar route: canonical_2x2, the boundary quartic's np.roots, and the
# quartic of the origin's preimage with the Newton polish `_polish` and its `_residual`.


def reference_zero_diagonal_vector(m: np.ndarray) -> np.ndarray:
    """Unit u with u^H M u = 0 for a traceless 2x2 matrix M (closed form)."""
    d = complex(m[0, 0])
    b = complex(m[0, 1])
    c = complex(m[1, 0])
    if abs(d) < 1e-300:
        return np.array([1.0, 0.0], dtype=np.complex128)
    # u = (cos r, sin r e^{i phi}) gives u^H M u = d cos 2r + beta(phi) sin 2r
    # with beta = (b e^{i phi} + c e^{-i phi}) / 2; pick phi making beta a real
    # multiple of d, then solve the real equation for r.
    bp = b / d
    cp = c / d
    phi = math.atan2(-(bp.imag + cp.imag), bp.real - cp.real)
    kappa = ((b * cmath.exp(1j * phi) + c * cmath.exp(-1j * phi)) / (2.0 * d)).real
    two_r = math.atan2(1.0, -kappa)
    r = 0.5 * two_r
    return np.array([math.cos(r), math.sin(r) * cmath.exp(1j * phi)], dtype=np.complex128)


def reference_canonical_2x2(t) -> CanonicalForm2x2:
    """Canonical form of a 2x2 matrix under unitary similarity.

    Splits off the trace, conjugates the traceless part to zero diagonal, and
    absorbs the off-diagonal phases into a diagonal unitary so the remaining
    entries are the nonnegative reals b <= a times a common phase exp(i t).
    """
    t_mat = as_operator(t)
    if t_mat.shape != (2, 2):
        raise ValueError("canonical form is defined for 2x2 matrices only")
    half_trace = 0.5 * complex(np.trace(t_mat))
    m0 = t_mat - half_trace * np.eye(2)

    u1 = reference_zero_diagonal_vector(m0)
    u2 = np.array([-np.conj(u1[1]), np.conj(u1[0])], dtype=np.complex128)
    basis = np.column_stack([u1, u2])
    m = basis.conj().T @ m0 @ basis
    # missing arguments of vanished off-diagonals default to 0
    up, lo = complex(m[0, 1]), complex(m[1, 0])
    arg_up = cmath.phase(up) if abs(up) > 1e-300 else 0.0
    arg_lo = cmath.phase(lo) if abs(lo) > 1e-300 else 0.0
    phase = math.fmod(0.5 * (arg_up + arg_lo), 2.0 * math.pi)
    if phase < 0.0:
        phase += 2.0 * math.pi
    delta = 0.5 * (arg_lo - arg_up)
    basis = basis @ np.diag([1.0, cmath.exp(1j * delta)]).astype(np.complex128)
    a_val, b_val = abs(up), abs(lo)
    if a_val < b_val:
        a_val, b_val = b_val, a_val
        basis = basis @ np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    gamma = half_trace * cmath.exp(-1j * phase)
    return CanonicalForm2x2(t=phase, gamma=gamma, a=a_val, b=b_val, u_similar=basis)


def reference_boundary_moduli(disk: EllipseDisk) -> tuple[tuple[float, float], tuple[float, float]]:
    """Smallest and largest |z| over the boundary of the ellipse-disk, each with its phase s."""
    zeta = disk.center * cmath.exp(-1j * disk.rotation)
    big, small = disk.semi_major, disk.semi_minor
    size = big + abs(zeta) or 1.0
    x, y, mj, mn = zeta.real / size, zeta.imag / size, big / size, small / size
    lead = mn * mn - mj * mj
    coeffs = np.array([lead, 2 * (1j * mn * y - mj * x), 0.0, 2 * (1j * mn * y + mj * x), -lead])
    coeffs[np.abs(coeffs) <= 1e-15] = 0.0
    phases = np.concatenate([np.angle(np.roots(coeffs)), 0.5 * np.pi * np.arange(4)])
    moduli = np.abs(zeta + big * np.cos(phases) + 1j * small * np.sin(phases))
    low, high = int(np.argmin(moduli)), int(np.argmax(moduli))
    return (float(moduli[low]), float(phases[low])), (float(moduli[high]), float(phases[high]))


def reference_origin_preimage(a: float, b: float, p: float, w: complex) -> tuple[float, float]:
    """(kappa, s) in [-1, 1] x R with a (kappa + p) e^{is} + b (kappa - p) e^{-is} = 2 w, for p >= 0."""
    if a == 0.0:  # B is scalar, its range the point |q| gamma = -w = 0: any (kappa, s) will do
        return 0.0, 0.0
    b, w = b / a, w / a
    kappa = p * (b - 1.0) / (1.0 + b)
    starts = [(kappa, 0.0), (kappa, math.pi)]
    if w != 0.0:
        ww, rw = abs(w) ** 2, (w * w).real
        d, s2 = 1.0 - b * b, 1.0 + b * b  # a^2 - b^2 and a^2 + b^2, with a = 1
        a2, a1, a0 = d, 2.0 * p * s2, p * p * d  # alpha^2 - beta^2 = a2 k^2 + a1 k + a0
        coeffs = [
            a2 * a2,
            2.0 * a2 * a1,
            a1 * a1 + 2.0 * a2 * a0 - 4.0 * ww * s2 + 8.0 * rw * b,
            2.0 * a1 * a0 - 8.0 * ww * p * d,
            a0 * a0 - 4.0 * ww * p * p * s2 - 8.0 * rw * b * p * p,
        ]
        for root in np.roots(coeffs):
            kappa = min(1.0, max(-1.0, root.real))
            alpha, beta = kappa + p, b * (kappa - p)
            den = alpha * alpha - beta * beta
            zeta = math.copysign(1.0, den) * (alpha * w - beta * w.conjugate()) if den else w
            starts.append((kappa, cmath.phase(zeta)))
    best = (math.inf, 0.0, 0.0)
    for kappa, s in sorted(starts, key=lambda start: abs(_residual(b, p, w, *start))):
        best = min(best, _polish(b, p, w, kappa, s))
        if best[0] <= 1e-15:
            break
    return best[1], best[2]


_POLISH_STEPS = 8  # Newton steps per start on the preimage of the origin; a few reach round-off


def _residual(b: float, p: float, w: complex, kappa: float, s: float) -> complex:
    """G = (kappa + p) e^{is} + b (kappa - p) e^{-is} - 2 w, the equation of `_origin_preimage` with a = 1."""
    e = complex(math.cos(s), math.sin(s))
    return (kappa + p) * e + b * (kappa - p) * e.conjugate() - 2.0 * w


def _polish(b: float, p: float, w: complex, kappa: float, s: float) -> tuple[float, float, float]:
    """Newton steps on the two real equations G = 0 (`_residual`); returns (|G|, kappa, s).

    A step is halved until it lowers |G| (up to four times), and kappa is kept
    in [-1, 1]; the steps end when none lowers |G|, or after `_POLISH_STEPS`.
    """
    g = _residual(b, p, w, kappa, s)
    for _ in range(_POLISH_STEPS):
        if g == 0.0:
            break
        e = complex(math.cos(s), math.sin(s))
        gk, gs = e + b * e.conjugate(), 1j * ((kappa + p) * e - b * (kappa - p) * e.conjugate())
        det = gk.real * gs.imag - gs.real * gk.imag  # dG/dkappa and dG/ds as real 2-vectors
        if det == 0.0:
            break
        dk = (gs.real * g.imag - g.real * gs.imag) / det
        ds = (g.real * gk.imag - gk.real * g.imag) / det
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            k_new, s_new = min(1.0, max(-1.0, kappa + scale * dk)), s + scale * ds
            g_new = _residual(b, p, w, k_new, s_new)
            if abs(g_new) < abs(g):
                break
        else:
            break
        kappa, s, g = k_new, s_new, g_new
    return abs(g), kappa, s


def reference_values(t, q) -> tuple[float, float]:
    """(omega_q, c_q) of a 2x2 matrix by the reference closed forms."""
    m = abs(q)
    disk = q_range_2x2(reference_canonical_2x2(t), m)
    low, high = reference_boundary_moduli(disk)
    return high[0], 0.0 if disk.contains(0.0) else low[0]


FORM_KINDS = ["random", "scalar", "normal", "nilpotent", "a=b", "b=0", "boundary"]


def form_case(kind, rng, modulus):
    """A 2x2 matrix of the kind, as the canonical form sees it, and the modulus to take it at.

    "a=b" and "b=0" are canonical forms as given (zero diagonal after the trace is split
    off), so a = b and b = 0 hold exactly; "boundary" puts the origin on the boundary of
    the range at the modulus mapped to [1/2, 1] (at 0 the range is a disk about 0, and
    near 0 the trace that moves it there grows as 1 / |q|).
    """
    u = np.linalg.qr(crandn(rng, 2, 2))[0]
    gamma, a, b = crandn(rng), rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0)
    if kind == "random":
        t = crandn(rng, 2, 2) + 3 * rng.random() * gamma * np.eye(2)
    elif kind == "scalar":
        t = gamma * np.eye(2)
    elif kind == "normal":
        t = u @ np.diag(crandn(rng, 2)) @ u.conj().T
    elif kind == "nilpotent":
        t = u @ np.array([[0.0, a], [0.0, 0.0]]) @ u.conj().T
    elif kind == "a=b":
        t = gamma * np.eye(2) + a * np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2))) * (1 - np.eye(2))
    elif kind == "b=0":
        t = np.array([[gamma, a], [0.0, gamma]])
    else:
        modulus = 0.5 + 0.5 * modulus
        t = u @ _point_outside(a, a * b, modulus, rng.uniform(0, 2 * np.pi), 0.0) @ u.conj().T
    return t, modulus


@settings(max_examples=150, deadline=None)
@example(kind="boundary", seed=0, modulus=1.0, scale=1e8)
@example(kind="a=b", seed=1, modulus=0.5, scale=1e-8)
@example(kind="nilpotent", seed=2, modulus=0.0, scale=1.0)
@example(kind="a=b", seed=0, modulus=1 - 2**-53, scale=1.0)  # p = 2^-26, the smallest positive p
@example(kind="boundary", seed=0, modulus=1 - 2**-52, scale=1.0)  # |q| = 1 - 2^-53 once mapped to [1/2, 1]
# the origin outside the range by round-off, where the nearest point's phase alone missed
# the equation by |G| = 1.11e-15 and 1.79e-15 against the reference's 1.05e-15 and 1.67e-15
@example(kind="boundary", seed=1797717322, modulus=0.1706443401776797, scale=1.0)
@example(kind="boundary", seed=3856201369, modulus=0.07525053535808401, scale=1e8)
@given(
    kind=st.sampled_from(FORM_KINDS),
    seed=st.integers(0, 2**32 - 1),
    modulus=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_scalar_closed_forms_match_the_reference(kind, seed, modulus, scale):
    # the values within 1e-14 (|gamma| + a) of the numpy reference, the origin's preimage
    # solving its equation as closely, and the estimators' witness pairs attaining them
    rng = np.random.default_rng(seed)
    t, modulus = form_case(kind, rng, modulus)
    t = scale * t
    q = modulus * np.exp(2j * np.pi * rng.random())
    form, ref = canonical_2x2(t), reference_canonical_2x2(t)
    tol = 1e-14 * (abs(ref.gamma) + ref.a)
    assert reconstruction_residual(t, form) <= tol
    assert (form.a, form.b, abs(form.gamma)) == pytest.approx((ref.a, ref.b, abs(ref.gamma)), abs=tol)
    values = q_radius_2x2(form, q), q_crawford_2x2(form, q)
    assert values == pytest.approx(reference_values(t, q), abs=tol)
    p = math.sqrt(1.0 - modulus**2)
    if values[1] == 0.0 and form.a > 0.0:  # a preimage of the origin as exact as the reference's
        a, b, w = form.a, form.b, -modulus * form.gamma
        found, expected = exact._origin_preimage(a, b, p, w), reference_origin_preimage(a, b, p, w)
        residual = [abs(_residual(b / a, p, w / a, *point)) for point in (found, expected)]
        assert residual[0] <= max(residual[1], 1e-15)
    norm, w = np.linalg.norm(t, 2), Weight.identity(2)
    for estimator, value in zip((aq_radius, aq_crawford), values):
        est = estimator(w, t, q)
        assert est.value == pytest.approx(value, abs=tol)
        assert np.vdot(est.witness_y, est.witness_x) == pytest.approx(q, abs=1e-12)
        assert abs(np.vdot(est.witness_y, t @ est.witness_x)) == pytest.approx(est.value, abs=1e-12 * norm)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(FORM_KINDS), seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.0, 1.0))
def test_closed_forms_bracket_the_pair_grid(kind, seed, modulus):
    # reduced dimension 2 under a random weight: every pair the grid evaluates is feasible, so
    # its best sup bounds omega_q from below and its best inf bounds c_q from above
    rng = np.random.default_rng(seed)
    b, modulus = form_case(kind, rng, modulus)
    w = random_pd_weight(rng, 2)
    s = np.sqrt(w.eigvals)
    t = w.eigvecs @ (b * s[None, :] / s[:, None]) @ w.eigvecs.conj().T  # reduces to b
    q = modulus * np.exp(2j * np.pi * rng.random())
    lower_sup, upper_inf = oracle_grid(w, t, q, resolution=48)
    tol = 1e-12 * np.linalg.norm(b, 2)
    assert aq_radius(w, t, q).value >= lower_sup - tol
    assert aq_crawford(w, t, q).value <= upper_inf + tol
