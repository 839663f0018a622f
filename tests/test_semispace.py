import json
import math
import warnings
import weakref
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqradius import (
    NotABounded,
    OperatorSequence,
    QOutOfRange,
    Weight,
    a_adjoint,
    a_inner,
    a_norm_vec,
    a_opnorm,
    a_radius,
    aq_crawford,
    aq_radius,
    canonical_2x2,
    check_law,
    jordan3_q_radius,
    kron,
    q_crawford_2x2,
    q_extremal_2x2,
    q_radius_2x2,
    q_range_2x2,
    trace,
    trace_gaps,
    trace_q,
    matrix_from_json,
    matrix_to_json,
    reduce_to_range,
    validate_q,
    weight_from_json,
    weight_to_json,
)
from aqradius import semispace
from aqradius.radius import _prepare
from aqradius.semispace import _q_parts, _unit_reduction, _unit_scale
from conftest import clear_estimate_caches, crandn, random_pd_weight


def lift_basis(w):
    """Columns w.lift(e_i): an A-orthonormal basis of range(A) (A^{1/2+} V_r)."""
    return np.column_stack([w.lift(e) for e in np.eye(w.rank)])


def inner_by_summation(a, x, y):
    """Independent oracle: <x, y>_A by direct triple summation of y^H A x."""
    total = 0.0 + 0.0j
    n = len(x)
    for i in range(n):
        for j in range(n):
            total += np.conj(y[i]) * a[i, j] * x[j]
    return total


class TestAInner:
    def test_orthonormal_basis(self):
        w = Weight.identity(2)
        assert a_inner(w, [1, 0], [0, 1]) == 0

    def test_diagonal_weight(self):
        w = Weight.diagonal([2, 3])
        assert a_inner(w, [1, 0], [1, 0]) == pytest.approx(2)

    def test_matches_summation_oracle(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        w = Weight(a)
        x = np.array([1.0, 1.0, 1.0]) / np.sqrt(6)
        y = np.array([0.0, 1.0, 0.0], dtype=complex)
        expected = inner_by_summation(a, x, y)
        assert expected == pytest.approx(2 / np.sqrt(6))
        assert a_inner(w, x, y) == pytest.approx(expected, abs=1e-14)

    def test_random_matches_summation_oracle(self, rng):
        w = random_pd_weight(rng, 4)
        x, y = crandn(rng, 4), crandn(rng, 4)
        assert a_inner(w, x, y) == pytest.approx(inner_by_summation(w.a, x, y), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            a_inner(Weight.identity(2), [1, 0, 0], [0, 1])

    def test_far_from_unit_size(self):
        # x, y and A are taken at unit size: A x = 1e400 overflows unscaled (1e-400 underflows),
        # yet the value is representable and comes out, with no RuntimeWarning
        w = Weight(1e200 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert a_inner(w, [1e200, 0], [1e-200, 0]) == 1e200
            assert a_inner(w, [1e200j, 0], [1e-200, 0]) == 1e200j
            tiny = a_inner(Weight(1e-200 * np.eye(2)), [1e-200, 0], [1e200, 0])
        assert tiny == pytest.approx(1e-200, rel=1e-15)

    def test_beyond_the_largest_float_raises(self):
        # the true value is 3e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the largest float"):
                a_inner(Weight(1.5e308 * np.eye(2)), [1, 1], [1, 1])


class TestANormVec:
    def test_euclidean(self):
        assert a_norm_vec(Weight.identity(2), [3, 4]) == pytest.approx(5)

    def test_weight_near_the_largest_float(self):
        # <x, x>_A = 4.86e308 overflows, but its root, 2.2e154, does not: A is taken at unit size too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = a_norm_vec(Weight(1.5e308 * np.eye(4)), [0.9] * 4)
        assert value == pytest.approx(math.sqrt(4 * 0.81 * 1.5) * 1e154, rel=1e-15)

    def test_null_direction_of_psd_weight(self):
        w = Weight.diagonal([1, 0])
        assert a_norm_vec(w, [0, 1]) == 0

    def test_diagonal(self):
        assert a_norm_vec(Weight.diagonal([2, 3]), [1, 1]) == pytest.approx(np.sqrt(5))

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
    def test_homogeneous_far_from_unit_size(self, c):
        # <x, x>_A as a plain sum of squares underflows to 0 at 1e-200 and overflows at 1e200;
        # a strided x is not C-contiguous, as a float view of it would need to be
        w = Weight.diagonal([1, 2, 3])
        x = np.array([1 + 1j, 2, -1j])
        unit = a_norm_vec(w, x)
        for scaled in (c * x, np.repeat(c * x, 2)[::2]):
            assert a_norm_vec(w, scaled) / c == pytest.approx(unit, rel=1e-15)


class TestWeight:
    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            Weight(-np.eye(2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            Weight(np.zeros((2, 2)))

    def test_symmetrizes_input(self, rng):
        a = np.diag([1.0, 2.0]) + 1e-14 * crandn(rng, 2, 2)
        w = Weight(a)
        np.testing.assert_allclose(w.a, w.a.conj().T)

    def test_sqrt_squares_back(self, rng):
        # F = A lift_basis(w) = V_r S_r is a square root of A (F F^H = A),
        # and the lifted basis is A-orthonormal (lift_basis^H F = I)
        w = random_pd_weight(rng, 5)
        f = w.a @ lift_basis(w)
        err = np.linalg.norm(f @ f.conj().T - w.a) / np.linalg.norm(w.a)
        assert err < 1e-10
        np.testing.assert_allclose(lift_basis(w).conj().T @ f, np.eye(5), atol=1e-10)

    def test_rank_counts_positive_eigenvalues(self):
        assert Weight.diagonal([3, 1, 0]).rank == 2
        assert Weight.identity(4).rank == 4

    @pytest.mark.parametrize("c", [1e-310, 1e-305, 1e-300, 1e-290, 1.0, 1e300])
    def test_psd_test_is_relative(self, c):
        # psd_tol = 1e-10 lambda_max scales with A; an absolute 1e-300 floor below it let
        # diag(1, -0.5, 2) pass as PSD at c <= 1e-300
        with pytest.raises(ValueError, match="positive semidefinite"):
            Weight(c * np.diag([1.0, -0.5, 2.0]))
        assert Weight(c * np.diag([1.0, 0.0, 2.0])).rank == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Weight([[np.inf, 0], [0, 1]])

    def test_rejects_a_negative_psd_tol(self):
        with pytest.raises(ValueError, match="psd_tol must be nonnegative"):
            Weight(np.eye(2), psd_tol=-1.0)

    @pytest.mark.parametrize("psd_tol", [np.nan, np.inf])
    def test_rejects_a_psd_tol_that_is_not_finite(self, psd_tol):
        # such a tolerance would count every eigenvalue as zero, and the error would blame the weight
        with pytest.raises(ValueError, match="psd_tol must be nonnegative and finite"):
            Weight(np.eye(3), psd_tol=psd_tol)
        text = json.dumps({**weight_to_json(Weight.identity(3)), "psd_tol": psd_tol})  # NaN or Infinity
        with pytest.raises(ValueError, match="psd_tol must be nonnegative and finite"):
            weight_from_json(json.loads(text))

    def test_entries_whose_sum_overflows(self):
        # A + A^H overflows above about 9e307: the weight is halved before the sum there,
        # and every value under 1.5e308 I equals its value under I, with no RuntimeWarning
        assert np.array_equal(Weight([[1.5e308, 0.0], [0.0, 1.0]]).a, [[1.5e308, 0.0], [0.0, 1.0]])
        big, unit = Weight(1.5e308 * np.eye(2)), Weight.identity(2)
        assert big.rank == 2
        t = np.array([[2.0 + 1.0j, 0.5], [0.3j, 1.5 - 0.5j]])
        for value in (
            lambda w: aq_radius(w, t, 0.6).value,
            lambda w: aq_crawford(w, t, 0.6).value,
            lambda w: a_radius(w, t).value,
            lambda w: a_opnorm(w, t),
        ):
            assert value(big) == pytest.approx(value(unit), rel=2e-14, abs=0.0)

    def test_rejects_a_largest_eigenvalue_beyond_the_largest_float(self):
        # eigenvalues 2.5e308 and 5e307: lambda_max = inf must not read as "nonzero PSD"
        with pytest.raises(ValueError, match="largest eigenvalue overflows"):
            Weight([[1.5e308, 1e308], [1e308, 1.5e308]])


class TestValidateQ:
    def test_accepts_boundary(self):
        assert validate_q(1.0) == 1.0
        assert validate_q(0.3 + 0.4j) == 0.3 + 0.4j

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError):
            validate_q(0.0)

    def test_zero_opt_in(self):
        assert validate_q(0.0, allow_zero=True) == 0.0

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            validate_q(1.2)

    def test_rejects_a_q_whose_modulus_overflows(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            validate_q(1.5e308 + 1.5e308j)

    def test_p_is_read_from_the_product_of_the_modulus(self):
        # every route reads p from |q| * |q|, which is correctly rounded; at this q, pow(|q|, 2) of the
        # C library (Python 3.11, x86_64 Linux) rounds the other way, and p moves by one ulp
        q = 0.6300097008235537 + 0.667894083052831j
        _, m, p = _q_parts(q)
        assert m == abs(q)
        assert p == math.sqrt(1.0 - m * m)


_T = np.array([[1.0, 2.0j], [0.5, -1.0]])
_FORM = canonical_2x2(_T)
_SEQUENCE = OperatorSequence.perturbation(Weight.identity(2), _T, np.eye(2))
# every public entry that takes q, as a function of q; the first group accepts q = 0
Q_ENTRIES = {
    "validate_q(allow_zero)": lambda q: validate_q(q, allow_zero=True),
    "aq_radius": lambda q: aq_radius(Weight.identity(2), _T, q),
    "aq_crawford": lambda q: aq_crawford(Weight.identity(2), _T, q),
    "q_radius_2x2": lambda q: q_radius_2x2(_FORM, q),
    "q_crawford_2x2": lambda q: q_crawford_2x2(_FORM, q),
    "q_extremal_2x2": lambda q: q_extremal_2x2(_FORM, q, True),
    "q_range_2x2": lambda q: q_range_2x2(_FORM, q),
    "jordan3_q_radius": jordan3_q_radius,
    "trace": lambda q: trace(_SEQUENCE, "radius", q, indices=(1, 2)),
    "trace_gaps": lambda q: trace_gaps(_SEQUENCE, q, indices=(1, 2)),
    "trace_q": lambda q: trace_q(Weight.identity(2), _T, [0.5, q]),
    "check_law": lambda q: check_law("t4_1", Weight.identity(2), _T, q),
}
TAKE_ZERO = list(Q_ENTRIES)[:7]


@pytest.mark.parametrize("entry", Q_ENTRIES)
@pytest.mark.parametrize(
    "q",
    [0.9 + 0.9j, complex(0.0, np.nan), np.inf, 1.5e308 + 1.5e308j, 2.0],
    ids=["modulus", "nan", "inf", "overflow", "part"],
)
def test_every_entry_refuses_a_q_outside_the_disc_by_the_one_rule(entry, q):
    # 0.9 + 0.9i has |q| = 1.27 with both parts <= 1; each entry raises validate_q's error and message
    with pytest.raises(QOutOfRange) as expected:
        validate_q(q)
    with pytest.raises(QOutOfRange) as exc:
        Q_ENTRIES[entry](q)
    assert str(exc.value) == str(expected.value)


@pytest.mark.parametrize("entry", Q_ENTRIES)
def test_q_zero_is_taken_by_the_estimators_and_closed_forms_alone(entry):
    if entry in TAKE_ZERO:
        Q_ENTRIES[entry](0.0)
    elif entry == "jordan3_q_radius":  # its formula covers |q| in [1/2, 1]
        with pytest.raises(QOutOfRange, match=r"outside \[1/2, 1\]"):
            jordan3_q_radius(0.0)
    else:
        with pytest.raises(QOutOfRange, match="q = 0 is outside"):
            Q_ENTRIES[entry](0.0)


def test_as_operator_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="expected a square matrix"):
        aq_radius(Weight.identity(2), np.ones((2, 3)), 0.5)


class TestReduce:
    def test_identity_weight_is_identity_map(self, rng):
        # the lifted basis of the identity weight is unitary, and B is T in that basis
        t = crandn(rng, 3, 3)
        w = Weight.identity(3)
        basis = lift_basis(w)
        np.testing.assert_allclose(basis @ reduce_to_range(w, t) @ basis.conj().T, t, atol=1e-12)

    def test_hand_computed_diagonal_case(self):
        # A-orthonormal basis {e1/2, e2}: T e2 = e1 = 2 (e1/2), so B has one entry, 2
        w = Weight.diagonal([4, 1])
        t = np.array([[0, 1], [0, 0]], dtype=complex)
        b = reduce_to_range(w, t)
        basis = lift_basis(w)
        np.testing.assert_allclose(np.abs(basis), [[0.5, 0], [0, 1]], atol=1e-12)
        np.testing.assert_allclose(np.abs(b), [[0, 2], [0, 0]], atol=1e-12)
        np.testing.assert_allclose(t @ basis, basis @ b, atol=1e-12)

    def test_rejects_operator_leaking_null_space(self):
        w = Weight.diagonal([1, 0])
        t = np.array([[0, 1], [0, 0]], dtype=complex)  # sends null(A) into range(A)
        with pytest.raises(NotABounded):
            reduce_to_range(w, t)

    @pytest.mark.parametrize("t_scale", [1e-310, 1e-200, 1.0, 1e200, 1e300])
    @pytest.mark.parametrize("a_scale", [1e-300, 1.0, 1e300])
    def test_compatibility_is_scale_free(self, a_scale, t_scale):
        # the leak A T N and A T are compared by their largest entries at unit-size A, and
        # B takes S_r at unit size: no sum of squares, absolute floor or product S_r T to
        # overflow or underflow.  T, not scaled, may be F-ordered.
        w = Weight(a_scale * np.diag([1.0, 2.0, 0.0]))
        leaking = np.array([[1, 2, 1], [3, 1, 0], [0, 0, 5]], dtype=complex)  # e_3 -> e_1 + 5 e_3
        with pytest.raises(NotABounded):
            reduce_to_range(w, t_scale * leaking)
        keeping = np.array([[1, 2, 0], [3, 1, 0], [0, 0, 5]], dtype=complex)
        unit = reduce_to_range(Weight(np.diag([1.0, 2.0, 0.0])), keeping)
        for t in (t_scale * keeping, np.asfortranarray(t_scale * keeping)):
            b = reduce_to_range(w, t)
            np.testing.assert_allclose(b, t_scale * unit, rtol=1e-12, atol=1e-12 * t_scale)

    def test_rejects_a_reduction_that_overflows(self):
        # B's (0, 1) entry is T's times sqrt(1 / 1e-4): 5e308
        w = Weight.diagonal([1.0, 1e-4, 2.0])
        t = np.array([[1.0, 5e306, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 3.0]])
        for quantity in (reduce_to_range, a_opnorm, lambda w, t: aq_radius(w, t, 0.6)):
            with pytest.raises(ValueError, match="overflows the largest float"):
                quantity(w, t)

    def test_accepts_operator_into_null_space(self):
        w = Weight.diagonal([1, 0])
        t = np.array([[0, 0], [1, 0]], dtype=complex)  # sends range into null(A)
        np.testing.assert_allclose(reduce_to_range(w, t), np.zeros((1, 1)), atol=1e-12)
        assert a_norm_vec(w, t @ w.lift([1.0])) == 0.0

    def test_reduction_soundness(self, rng):
        # <T x, y>_A equals v^H B u with x = lift(u), y = lift(v)
        w = random_pd_weight(rng, 4)
        t = crandn(rng, 4, 4)
        red = reduce_to_range(w, t)
        for _ in range(25):
            u, v = crandn(rng, 4), crandn(rng, 4)
            x, y = w.lift(u), w.lift(v)
            assert a_inner(w, t @ x, y) == pytest.approx(complex(v.conj() @ red @ u), abs=1e-9)

    def test_psd_weight_quantities_match_grid_sampling(self, rng):
        # seminorm of T under a singular weight agrees with direct ratio sampling
        w = Weight.diagonal([2.0, 1.0, 0.0])
        t = np.zeros((3, 3), dtype=complex)
        t[:2, :2] = crandn(rng, 2, 2)
        target = a_opnorm(w, t)
        best = 0.0
        for _ in range(4000):
            x = crandn(rng, 3)
            nx = a_norm_vec(w, x)
            if nx > 1e-9:
                best = max(best, a_norm_vec(w, t @ x) / nx)
        assert best <= target + 1e-9
        assert best == pytest.approx(target, rel=5e-3)


class TestAOpnorm:
    def test_paper_nilpotent(self):
        t = np.array([[0, 1 / 70], [0, 0]], dtype=complex)
        assert a_opnorm(Weight.identity(2), t) == pytest.approx(1 / 70, abs=1e-15)

    def test_paper_scalar(self):
        assert a_opnorm(Weight.identity(2), np.eye(2) / 20) == pytest.approx(1 / 20)

    def test_dominates_random_search(self, rng):
        w = Weight.diagonal([1, 2, 3])
        t = crandn(rng, 3, 3)
        target = a_opnorm(w, t)
        ratios = []
        for _ in range(2000):
            x = crandn(rng, 3)
            ratios.append(a_norm_vec(w, t @ x) / a_norm_vec(w, x))
        assert max(ratios) <= target + 1e-9
        assert max(ratios) == pytest.approx(target, rel=2e-2)

    def test_beyond_the_largest_float_raises(self):
        # ||T||_A = |1.5e308 + 1.3e308 i| = 1.98e308
        with pytest.raises(ValueError, match="overflows the largest float"):
            a_opnorm(Weight.identity(2), np.diag([1.5e308 + 1.3e308j, 1.0]))


def diagonal_entries(rng, n, kind):
    """n diagonal entries of one kind: real, complex, tied (the largest modulus several times), scalar or zero."""
    if kind == "zero":
        return np.zeros(n, dtype=complex)
    if kind == "scalar":
        return np.full(n, complex(*rng.standard_normal(2)))
    d = rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "complex" else 0j)
    if kind == "tied":  # +-top and +-i top share the largest modulus
        top = float(np.abs(d).max())
        d[: (n + 1) // 2] = top * rng.choice([1, 1j, -1, -1j], (n + 1) // 2)
    return rng.permutation(d)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3, 8, 64]),
    kind=st.sampled_from(["real", "complex", "tied", "scalar", "zero"]),
    weight=st.sampled_from(["identity", "diagonal", "rank-one"]),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    k=st.integers(0, 40),
)
def test_diagonal_seminorm_reads_the_diagonal(seed, n, kind, weight, scale, k):
    # a diagonal T under a diagonal weight reduces to a diagonal B: its seminorm is max |b_ii|,
    # correctly rounded, scaled back, with no SVD; within 2 ulps of the SVD of the same reduction,
    # which rounds |b_ii| its own way (1 ulp apart in 24% of 30000 random diagonals, 2 in 0.1%);
    # and exactly homogeneous in 2^k, the sign of k taken so that 2^k T moves towards unit size
    # and no entry of it rounds
    rng = np.random.default_rng(seed)
    if weight == "rank-one":  # diag(1, 0): a reduced dimension of 1
        n, w = 2, Weight.diagonal([1.0, 0.0])
    else:
        w = Weight.identity(n) if weight == "identity" else Weight.diagonal(rng.uniform(0.1, 3.0, n))
    t = scale * np.diag(diagonal_entries(rng, n, kind))
    k = -k if scale > 1.0 or (scale == 1.0 and seed % 2) else k
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        value, scaled = a_opnorm(w, t), a_opnorm(w, math.ldexp(1.0, k) * t)
        assert svd.call_count == 0
    b, e, diagonal = _unit_reduction(w, t.tobytes())
    assert diagonal
    assert value == math.ldexp(float(max((Decimal(z.real) ** 2 + Decimal(z.imag) ** 2).sqrt() for z in b.diagonal())), e)
    assert abs(value - math.ldexp(float(np.linalg.svd(b, compute_uv=False)[0]), e)) <= 2 * math.ulp(value)
    assert scaled == math.ldexp(value, k)


def test_seminorm_of_a_nearly_diagonal_reduction_takes_the_svd():
    # one off-diagonal entry of 1e-300 ||B|| makes B dense: the seminorm is its largest singular value
    t = np.diag([1.0, -2.0 + 1j, 0.5]).astype(complex)
    t[0, 2] = 1e-300 * np.linalg.norm(t, 2)
    w = Weight.identity(3)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        value = a_opnorm(w, t)
        assert svd.call_count == 1
    b, e, diagonal = _unit_reduction(w, t.tobytes())
    assert not diagonal
    assert value == math.ldexp(float(np.linalg.svd(b, compute_uv=False)[0]), e)


class TestUnitReduction:
    """`_unit_reduction`: B 2^-e and e of (A, T), shared by `a_opnorm` and the estimators' preparation."""

    def test_seminorm_and_estimators_share_one_reduction(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        clear_estimate_caches()
        _unit_reduction.cache_clear()
        cold = aq_radius(w, t, 0.6), a_opnorm(w, t)
        assert _unit_reduction.cache_info()[:2] == (1, 1)  # (hits, misses): the seminorm's served
        clear_estimate_caches()
        _unit_reduction.cache_clear()
        norm = a_opnorm(w, t)
        est = aq_radius(w, t, 0.6)
        assert _unit_reduction.cache_info()[:2] == (1, 1)  # the estimator's served
        assert norm == cold[1]
        assert (est.value, est.witness_x.tobytes(), est.witness_y.tobytes()) == (
            cold[0].value, cold[0].witness_x.tobytes(), cold[0].witness_y.tobytes())  # fmt: skip

    def test_cached_array_is_read_only(self, rng):
        b, e, diagonal = _unit_reduction(random_pd_weight(rng, 3), crandn(rng, 3, 3).tobytes())
        assert diagonal is False
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0] = 1.0
        assert 0.5 <= np.abs(b.view(np.float64)).max() < 1.0 and isinstance(e, int)

    def test_operator_changed_in_place_is_reduced_anew(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        before = a_opnorm(w, t)
        t[0, 1] += 1.0
        after = a_opnorm(w, t)
        _unit_reduction.cache_clear()
        assert after == a_opnorm(w, t.copy())
        assert after != before

    def test_c_and_fortran_copies_share_one_entry(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        _unit_reduction.cache_clear()
        values = [a_opnorm(w, m) for m in (np.ascontiguousarray(t), np.asfortranarray(t))]
        assert values[0] == values[1]
        assert _unit_reduction.cache_info()[:2] == (1, 1)

    def test_errors_are_raised_on_every_call(self):
        singular, leaking = Weight.diagonal([1.0, 2.0, 0.0]), np.ones((3, 3))
        thin, huge = Weight.diagonal([1.0, 1e-4, 2.0]), np.array([[1.0, 5e306, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 3.0]])
        _unit_reduction.cache_clear()
        for _ in range(2):  # cold, then warm: a pair of each weight is cached
            with pytest.raises(NotABounded):
                a_opnorm(singular, leaking)
            with pytest.raises(ValueError, match="dimensions differ"):
                a_opnorm(singular, np.eye(2))
            with pytest.raises(ValueError, match="overflows the largest float"):
                a_opnorm(thin, huge)
            assert a_opnorm(singular, np.eye(3)) == 1.0
            assert a_opnorm(thin, np.eye(3)) == 1.0
        assert _unit_reduction.cache_info().currsize == 2  # the calls that raised left none

    def test_cache_keeps_no_reference_to_the_callers_array(self, rng):
        w, t = random_pd_weight(rng, 3), crandn(rng, 3, 3)
        _unit_reduction.cache_clear()
        a_opnorm(w, t)
        alive = weakref.ref(t)
        del t
        assert alive() is None
        assert _unit_reduction.cache_info().currsize == 1

    def test_cache_keeps_eight_reductions(self):
        assert _unit_reduction.cache_info().maxsize == semispace._REDUCED == 8


class TestAAdjoint:
    T = np.array([[0.2 + 0.1j, 1.0], [-0.4j, 0.5]])

    def test_pairs_like_the_weighted_product(self, rng):
        # <T x, y>_A = <x, T^# y>_A on a rank-deficient weight, for a T that keeps null(A) in it
        w = Weight.diagonal([2.0, 0.5, 0.0])
        t = np.zeros((3, 3), dtype=complex)
        t[:2, :2] = crandn(rng, 2, 2)
        x, y = crandn(rng, 3, 1)[:, 0], crandn(rng, 3, 1)[:, 0]
        assert a_inner(w, t @ x, y) == pytest.approx(a_inner(w, x, a_adjoint(w, t) @ y), rel=1e-13)

    @pytest.mark.parametrize("c", [1e-310, 1e-300, 5e307])
    def test_scale_free_in_the_weight(self, c):
        # T, lambda_r and A are taken at unit size: at 1e-310, 1/lambda overflowed to a NaN
        # adjoint with a RuntimeWarning; A^+ T^H A does not depend on the scale of A
        unit = a_adjoint(Weight.diagonal([1.0, 3.0]), self.T)
        assert a_adjoint(Weight.diagonal([c, 3.0 * c]), self.T) == pytest.approx(unit, rel=1e-12)

    def test_refuses_an_adjoint_beyond_the_largest_float(self):
        # A^+ T^H A has the entry 1e9 conj(T_21), which is 1e308 at T_21 = 1e299 and overflows at 1e300
        w = Weight.diagonal([1e-9, 1.0])
        assert a_adjoint(w, [[0.0, 0.0], [1e299, 0.0]])[0, 1] == pytest.approx(1e308, rel=1e-15)
        with pytest.raises(ValueError, match="weighted adjoint overflows the largest float"):
            a_adjoint(w, [[0.0, 0.0], [1e300, 0.0]])


class TestUnitScale:
    def test_entry_whose_modulus_overflows(self):
        # the exponent comes from the largest part, 1.5e308: the modulus, 1.98e308, is inf
        entry = 1.5e308 + 1.3e308j
        x, e = _unit_scale(np.array([entry, 1.0]))
        parts = np.abs(x.view(np.float64))
        assert np.isfinite(parts).all()
        assert 0.5 <= parts.max() < 1.0
        assert complex(np.ldexp(x.real[0], e), np.ldexp(x.imag[0], e)) == entry


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
        )

    def test_index_formula_oracle(self, rng):
        a, b = crandn(rng, 2, 2), crandn(rng, 2, 2)
        prod = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for length in range(2):
                        assert prod[2 * i + k, 2 * j + length] == pytest.approx(
                            a[i, j] * b[k, length], rel=1e-14
                        )

    def test_nilpotent_pair(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        prod = kron(n, n)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1
        np.testing.assert_array_equal(prod, expected)

    def test_seminorm_multiplicative(self, rng):
        w1, w2 = random_pd_weight(rng, 2), random_pd_weight(rng, 3)
        t1, t2 = crandn(rng, 2, 2), crandn(rng, 3, 3)
        w = Weight(kron(w1.a, w2.a))
        lhs = a_opnorm(w, kron(t1, t2))
        rhs = a_opnorm(w1, t1) * a_opnorm(w2, t2)
        assert lhs == pytest.approx(rhs, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sesquilinearity(seed):
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, 3)
    x, y, z = (crandn(rng, 3) for _ in range(3))
    al, be = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    lhs = a_inner(w, al * x + be * y, z)
    assert lhs == pytest.approx(al * a_inner(w, x, z) + be * a_inner(w, y, z), abs=1e-10)
    rhs = a_inner(w, z, al * x + be * y)
    assert rhs == pytest.approx(
        np.conj(al) * a_inner(w, z, x) + np.conj(be) * a_inner(w, z, y), abs=1e-10
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_seminorm_axioms(seed):
    rng = np.random.default_rng(seed)
    w = random_pd_weight(rng, 3)
    x, y = crandn(rng, 3), crandn(rng, 3)
    al = complex(*rng.standard_normal(2))
    assert a_norm_vec(w, al * x) == pytest.approx(abs(al) * a_norm_vec(w, x), abs=1e-10)
    assert a_norm_vec(w, x + y) <= a_norm_vec(w, x) + a_norm_vec(w, y) + 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (crandn(rng, 2, 2) for _ in range(3))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def test_opnorm_dominates_reachable_norms(rng):
    w = random_pd_weight(rng, 3)
    t = crandn(rng, 3, 3)
    bound = a_opnorm(w, t)
    for _ in range(200):
        x = crandn(rng, 3)
        x = x / a_norm_vec(w, x)
        assert a_norm_vec(w, t @ x) <= bound + 1e-9


class TestJson:
    def test_matrix_round_trip(self, rng):
        m = crandn(rng, 3, 3)
        obj = matrix_to_json(m)
        np.testing.assert_array_equal(matrix_from_json(obj), m)
        assert matrix_to_json(matrix_from_json(obj)) == obj

    def test_json_text_round_trip(self, rng):
        m = crandn(rng, 2, 2)
        text = json.dumps(matrix_to_json(m))
        np.testing.assert_array_equal(matrix_from_json(json.loads(text)), m)

    def test_weight_round_trip(self, rng):
        w = random_pd_weight(rng, 3)
        again = weight_from_json(weight_to_json(w))
        np.testing.assert_allclose(again.a, w.a)
        assert again.psd_tol == w.psd_tol

    @pytest.mark.parametrize("size", [2.5, True, "2", None])
    def test_rejects_sizes_that_are_not_integers(self, size):
        # none is cut to an int: 2.5 is not 2, and true is not 1
        for name in ("rows", "cols"):
            obj = {"rows": 2, "cols": 2, "re": [0] * 4, "im": [0] * 4, name: size}
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                matrix_from_json(obj)

    def test_integral_float_sizes_are_read_as_ints(self):
        m = matrix_from_json({"rows": 2.0, "cols": 2.0, "re": [1, 2, 3, 4], "im": [0] * 4})
        np.testing.assert_array_equal(m, [[1, 2], [3, 4]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 3, "re": [0] * 6, "im": [0] * 6})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [0] * 3, "im": [0] * 4})
        # wrong JSON types raise a ValueError that names the field, not a TypeError from numpy or float()
        ok = {"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [0] * 4}
        with pytest.raises(ValueError, match="re must be a list of numbers"):
            matrix_from_json({**ok, "re": {"a": 1}})
        for obj in ([1, 0, 0, 1], "I"):
            with pytest.raises(ValueError, match="a matrix must be a JSON object"):
                matrix_from_json(obj)
            with pytest.raises(ValueError, match="a matrix must be a JSON object"):
                weight_from_json(obj)
        for psd_tol in ([1], "1e-3", True):  # float() would read "1e-3" as 0.001 and true as 1.0
            with pytest.raises(ValueError, match="psd_tol must be a number or null"):
                weight_from_json({**ok, "psd_tol": psd_tol})
        assert weight_from_json({**ok, "psd_tol": 0}).psd_tol == 0.0
