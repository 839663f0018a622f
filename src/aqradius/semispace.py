"""Weighted semi-inner products on C^n and reduction to the standard inner product.

A positive-semidefinite weight matrix A turns C^n into a semi-Hilbert space via
``<x, y>_A = y^H A x`` (linear in the first slot, conjugate-linear in the second).
Everything downstream (operator seminorms, numerical radii, constraint pairs)
is computed by changing variables u = A^{1/2} x, which maps every A-quantity of
an operator T onto the corresponding standard quantity of the reduced operator
``A^{1/2} T A^{1/2+}`` restricted to range(A).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotABounded",
    "Weight",
    "a_adjoint",
    "a_inner",
    "a_norm_vec",
    "a_opnorm",
    "as_operator",
    "kron",
    "matrix_from_json",
    "matrix_to_json",
    "reduce_to_range",
    "validate_q",
    "weight_from_json",
    "weight_to_json",
]


class NotABounded(ValueError):
    """The operator moves the null space of the weight out of itself.

    Such an operator has no finite weighted operator seminorm, so every
    computation built on the reduction rejects it up front.
    """


def as_operator(m) -> np.ndarray:
    """Validate and convert input to a square complex matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def validate_q(q, *, allow_zero: bool = False) -> complex:
    """Check that a constraint parameter q satisfies 0 < |q| <= 1.

    The degenerate value q = 0 (orthogonal pairs) is accepted only where a
    caller opts in; the estimators and closed forms do, since the classical
    q = 0 range is well defined even though the weighted definition excludes it.
    """
    q = complex(q)
    if not (math.isfinite(q.real) and math.isfinite(q.imag)):
        raise ValueError("q must be finite")
    m = abs(q)
    if m > 1.0 + 1e-12:
        raise ValueError(f"|q| = {m} exceeds 1")
    if m == 0.0 and not allow_zero:
        raise ValueError("q = 0 is outside the admissible range 0 < |q| <= 1")
    return q


class Weight:
    """Hermitian positive-semidefinite weight with cached spectral data.

    The input is symmetrized (``A <- (A + A^H)/2``) before factorization to be
    robust against round-off in file input.  Eigenvalues below ``psd_tol``
    count as zero; anything below ``-psd_tol`` rejects the matrix as not PSD.

    Attributes
    ----------
    a : ndarray
        The (symmetrized) weight matrix.
    eigvals : ndarray
        Eigenvalues in descending order, clamped at zero.
    eigvecs : ndarray
        Unitary matrix of eigenvectors matching ``eigvals``.
    rank : int
        Number of eigenvalues above ``psd_tol``.
    """

    def __init__(self, a, psd_tol: float | None = None):
        a = as_operator(a)
        a = 0.5 * (a + a.conj().T)
        vals, vecs = np.linalg.eigh(a)
        vals = vals[::-1].copy()
        vecs = vecs[:, ::-1].copy()
        lam_max = float(vals[0]) if vals.size else 0.0
        if psd_tol is None:
            psd_tol = 1e-10 * max(lam_max, 0.0)
        psd_tol = float(psd_tol)
        if psd_tol < 0.0:
            raise ValueError("psd_tol must be nonnegative")
        if vals.size and float(vals[-1]) < -psd_tol - 1e-300:
            raise ValueError(
                f"weight is not positive semidefinite: min eigenvalue {vals[-1]:.3e}"
            )
        vals = np.maximum(vals, 0.0)
        rank = int(np.count_nonzero(vals > psd_tol))
        if rank == 0:
            raise ValueError("weight must be a nonzero PSD matrix")

        self.a = a
        self.psd_tol = psd_tol
        self.eigvals = vals
        self.eigvecs = vecs
        self.rank = rank
        vr = vecs[:, :rank]
        sr = np.sqrt(vals[:rank])
        self.range_projector = vr @ vr.conj().T
        self._range_basis = vr
        self._range_scale = sr

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Weight":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, d) -> "Weight":
        return cls(np.diag(np.asarray(d, dtype=np.complex128)))

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Map reduced coordinates u (on range(A)) back to C^n.

        A unit vector u maps to an A-unit vector x with A^{1/2} x = V_r u.
        """
        u = as_vector(u, self.rank)
        return self._range_basis @ (u / self._range_scale)


def a_inner(w: Weight, x, y) -> complex:
    """Weighted inner product <x, y>_A = y^H A x (conjugation on the second slot)."""
    x = as_vector(x, w.dim)
    y = as_vector(y, w.dim)
    return complex(y.conj() @ (w.a @ x))


def a_norm_vec(w: Weight, x) -> float:
    """Weighted seminorm sqrt(Re <x, x>_A); may vanish on nonzero vectors.

    Raises if Im <x, x>_A exceeds 1e-10 ||A|| ||x||^2, the scale of its round-off.
    """
    s = a_inner(w, x, x)
    if abs(s.imag) > 1e-10 * float(w.eigvals[0]) * float(np.vdot(x, x).real):
        raise ValueError(
            f"self inner product has imaginary part {s.imag:.3e}; weight is broken"
        )
    return math.sqrt(max(s.real, 0.0))


def _check_compatible(w: Weight, t: np.ndarray) -> None:
    # T is compatible with the weight iff A T vanishes on null(A); otherwise
    # the weighted operator seminorm is infinite.
    at = w.a @ t
    n = w.dim
    leak = at @ (np.eye(n) - w.range_projector)
    leak_norm = np.linalg.norm(leak)
    if leak_norm > 1e-8 * max(np.linalg.norm(at), 1e-300):
        raise NotABounded(
            f"operator maps null(weight) out of null(weight) (leak {leak_norm:.3e})"
        )


def reduce_to_range(w: Weight, t) -> np.ndarray:
    """Reduced operator B = S_r V_r^H T V_r S_r^{-1} on range(A), of size rank x rank.

    Contract: <T x, y>_A = v^H B u for x = ``w.lift(u)``, y = ``w.lift(v)``, so
    every weighted quantity of T equals the standard one of B.  Raises
    :class:`NotABounded` if T is incompatible with a rank-deficient weight.
    """
    t = as_operator(t)
    if t.shape[0] != w.dim:
        raise ValueError("operator and weight dimensions differ")
    _check_compatible(w, t)
    vr = w._range_basis
    sr = w._range_scale
    return (sr[:, None] * (vr.conj().T @ t @ vr)) / sr[None, :]


def a_opnorm(w: Weight, t) -> float:
    """Weighted operator seminorm: largest singular value of the reduction."""
    b = reduce_to_range(w, t)
    return float(np.linalg.svd(b, compute_uv=False)[0])


def a_adjoint(w: Weight, t) -> np.ndarray:
    """Adjoint with respect to the weighted product: A^+ T^H A (on range(A))."""
    t = as_operator(t)
    vr = w._range_basis
    lam = w.eigvals[: w.rank]
    pinv_a = (vr / lam) @ vr.conj().T
    return pinv_a @ t.conj().T @ w.a


def kron(a, b) -> np.ndarray:
    """Kronecker product; the matrix realization of a tensor product of operators."""
    return np.kron(as_operator(a), as_operator(b))


def matrix_to_json(m) -> dict:
    """Serialize a matrix to the {"rows", "cols", "re", "im"} row-major layout."""
    a = as_operator(m)
    n = a.shape[0]
    return {
        "rows": n,
        "cols": n,
        "re": [float(v) for v in a.real.ravel()],
        "im": [float(v) for v in a.imag.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    if rows != cols:
        raise ValueError("only square matrices are supported")
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError("re/im length does not match rows*cols")
    return as_operator((re + 1j * im).reshape(rows, cols))


def weight_to_json(w: Weight) -> dict:
    obj = matrix_to_json(w.a)
    obj["psd_tol"] = w.psd_tol
    return obj


def weight_from_json(obj: dict) -> Weight:
    psd_tol = obj.get("psd_tol")
    return Weight(matrix_from_json(obj), psd_tol=psd_tol)
