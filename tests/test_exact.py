import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqradius import (
    Budget,
    QOutOfRange,
    Weight,
    a_radius,
    aq_crawford,
    aq_radius,
    canonical_2x2,
    jordan3_q_radius,
    q_crawford_2x2,
    q_radius_2x2,
    q_range_2x2,
)
from conftest import crandn

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
        # W_0(T) is the disk of radius a about 0, where every quartic coefficient vanishes
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


PHASES = st.floats(0.0, 2 * np.pi)


@settings(max_examples=30, deadline=None)
@example(seed=1, modulus=5e-324, theta=0.0)  # every nonzero quartic coefficient is denormal
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


def _random_case(seed):
    rng = np.random.default_rng(seed)
    t = crandn(rng, 2, 2) + 3 * rng.random() * crandn(rng) * np.eye(2)  # a shift moves the origin out
    return t, rng.random() * np.exp(2j * np.pi * rng.random())


@settings(max_examples=40, deadline=None)
@example(case=NEAR_BOUNDARY[0], c=1e-8)
@example(case=NEAR_BOUNDARY[1], c=1e-12)
@given(
    case=st.one_of(st.sampled_from(NEAR_BOUNDARY), st.integers(0, 2**32 - 1).map(_random_case)),
    c=st.sampled_from([1e-200, 1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e200]),
)
def test_closed_forms_are_homogeneous(case, c):
    # W_q(cT) = c W_q(T), so both moduli scale with c at every magnitude
    t, q = case
    tol = 1e-12 * np.linalg.norm(t, 2)
    for value in (q_radius_2x2, q_crawford_2x2):
        assert value(canonical_2x2(c * t), q) / c == pytest.approx(value(canonical_2x2(t), q), abs=tol)


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


# the q = 1 Crawford draws that the sphere search misses, by 3e-5 and 8.3e-7 of ||T||_2:
# both have c_A = 0, where the phase sweep leaves the value to the sphere search
Q_ONE_CRAWFORD_MISSES = {89, 119}


def test_closed_forms_match_estimators_on_random_matrices(rng):
    # 200 random 2x2 matrices, q on the deciles: closed form vs sampling, to 1e-9 ||T||_2
    budget = Budget(restarts=32, iterations=300)
    w = Weight.identity(2)
    for k in range(200):
        t = crandn(rng, 2, 2)
        form = canonical_2x2(t)
        q = float(Q_GRID[k % len(Q_GRID)])
        tol = 1e-9 * np.linalg.norm(t, 2)
        rad_exact = q_radius_2x2(form, q)
        cra_exact = q_crawford_2x2(form, q)
        assert aq_radius(w, t, q, budget).value == pytest.approx(rad_exact, abs=tol)
        cra_tol = 5e-4 if k in Q_ONE_CRAWFORD_MISSES else tol
        assert aq_crawford(w, t, q, budget).value == pytest.approx(cra_exact, abs=cra_tol)
