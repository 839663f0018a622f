import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqradius import (
    NotABounded,
    Weight,
    a_inner,
    a_norm_vec,
    a_opnorm,
    kron,
    matrix_from_json,
    matrix_to_json,
    reduce_to_range,
    validate_q,
    weight_from_json,
    weight_to_json,
)
from conftest import crandn, random_pd_weight


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


class TestANormVec:
    def test_euclidean(self):
        assert a_norm_vec(Weight.identity(2), [3, 4]) == pytest.approx(5)

    def test_null_direction_of_psd_weight(self):
        w = Weight.diagonal([1, 0])
        assert a_norm_vec(w, [0, 1]) == 0

    def test_diagonal(self):
        assert a_norm_vec(Weight.diagonal([2, 3]), [1, 1]) == pytest.approx(np.sqrt(5))


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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Weight([[np.inf, 0], [0, 1]])


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

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 3, "re": [0] * 6, "im": [0] * 6})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [0] * 3, "im": [0] * 4})
