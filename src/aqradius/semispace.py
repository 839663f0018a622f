"""Weighted semi-inner products on C^n and reduction to the standard inner product.

A positive-semidefinite weight matrix A turns C^n into a semi-Hilbert space via
``<x, y>_A = y^H A x`` (linear in the first slot, conjugate-linear in the second).
Everything downstream (operator seminorms, numerical radii, Crawford numbers
and their witness vectors) is computed by changing variables u = A^{1/2} x,
which maps every A-quantity of an operator T onto the corresponding standard
quantity of the reduced operator ``A^{1/2} T A^{1/2+}`` restricted to range(A);
:meth:`Weight.lift` maps reduced witnesses back to A-unit vectors.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "NotABounded",
    "QOutOfRange",
    "RankTooLow",
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


class RankTooLow(ValueError):
    """The weight has rank < 2, so no A-orthogonal partner direction exists."""


class QOutOfRange(ValueError):
    """q is outside the closed unit disc, or outside the domain of the requested closed form."""


def as_operator(m) -> np.ndarray:
    """Validate and convert input to a square complex matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def _unit_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x scaled in place to x 2^-e, and e, the binary exponent of its largest real or imaginary part.

    x is a nonempty C-contiguous array of the caller's own; e is 0 for x = 0.
    Every power-of-two scaling in the package takes its exponent here.  A part,
    unlike a modulus, cannot overflow, so every finite x has one; an x with an
    entry that is not finite, such as a product that overflowed, raises a
    ValueError.  The largest part of x 2^-e lies in [1/2, 1) and its largest
    modulus in [1/2, sqrt(2)), so no sum of its squares overflows or
    underflows, and the scaling is exact: it changes exponents only, but for
    entries it takes below the smallest normal float.
    """
    flat = x.view(np.float64)  # ldexp takes no complex array; the view needs C order
    top = float(np.abs(flat).max())
    if not math.isfinite(top):
        raise ValueError("an entry overflows the largest float")
    e = math.frexp(top)[1]
    np.ldexp(flat, -e, out=flat)
    return x, e


def _scale_back(value: float, e: int) -> float:
    """value 2^e, for a value taken at the scale `_unit_scale` set; a ValueError if it overflows."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise ValueError(f"the value {value!r} x 2^{e} overflows the largest float") from None


def validate_q(q, *, allow_zero: bool = False) -> complex:
    """q as a complex number, once it satisfies 0 < |q| <= 1; the one check of q in the package.

    Every rejection raises :class:`QOutOfRange`, a ValueError: a q that is not
    finite, has a part beyond 1 (tested before abs(q), which can overflow), or
    has |q| > 1, each up to 1e-12.  The degenerate value q = 0 (orthogonal
    pairs) is accepted only where a caller opts in; the estimators and closed
    forms do, since the classical q = 0 range is well defined even though the
    weighted definition excludes it.
    """
    q = complex(q)
    if not (math.isfinite(q.real) and math.isfinite(q.imag)):
        raise QOutOfRange("q must be finite")
    if max(abs(q.real), abs(q.imag)) > 1.0 + 1e-12:  # before abs(q), which can overflow
        raise QOutOfRange(f"q = {q} has a part beyond 1, so |q| exceeds 1")
    m = abs(q)
    if m > 1.0 + 1e-12:
        raise QOutOfRange(f"|q| = {m} exceeds 1")
    if m == 0.0 and not allow_zero:
        raise QOutOfRange("q = 0 is outside the admissible range 0 < |q| <= 1")
    return q


def _q_parts(q) -> tuple[complex, float, float]:
    """(q, m, p) for a q that `validate_q` accepts with q = 0 allowed: m = |q| clamped to 1, p = sqrt(1 - m^2).

    The radius and Crawford values read q through m and p alone.
    """
    q = validate_q(q, allow_zero=True)
    m = min(abs(q), 1.0)
    return q, m, math.sqrt(1.0 - m * m)  # m * m, not m ** 2: a product is correctly rounded, pow need not be


class Weight:
    """Hermitian positive-semidefinite weight with cached spectral data.

    The input is symmetrized (``A <- A/2 + A^H/2``, halved first so that no
    sum of finite entries overflows) before factorization to be robust against
    round-off in file input; a largest eigenvalue beyond the largest float
    raises a ValueError.  Eigenvalues below ``psd_tol`` count as zero; anything below
    ``-psd_tol`` rejects the matrix as not PSD.  A ``psd_tol`` that is negative,
    infinite or NaN raises a ValueError.

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
        a = 0.5 * a + 0.5 * a.conj().T  # halved before the sum, which can overflow
        vals, vecs = np.linalg.eigh(a)
        vals = vals[::-1].copy()
        vecs = vecs[:, ::-1].copy()
        lam_max = float(vals[0]) if vals.size else 0.0
        if not math.isfinite(lam_max):
            raise ValueError("the weight's largest eigenvalue overflows the largest float")
        if psd_tol is None:
            psd_tol = 1e-10 * max(lam_max, 0.0)
        psd_tol = float(psd_tol)
        if not 0.0 <= psd_tol < math.inf:  # a NaN or infinite tolerance would count every eigenvalue as zero
            raise ValueError("psd_tol must be nonnegative and finite")
        if vals.size and float(vals[-1]) < -psd_tol:
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
        self._range_basis = vecs[:, :rank]
        self._range_basis_h = self._range_basis.conj().T  # V_r^H, for `reduce_to_range`
        self._range_scale = np.sqrt(vals[:rank])  # S_r, by which `lift` divides
        self._unit_range_scale = _unit_scale(self._range_scale.copy())[0]  # S_r at unit size, for `reduce_to_range`

    @functools.cached_property
    def _unit_a(self) -> tuple[np.ndarray, int]:
        """A at unit size, A 2^-e, and e, for `a_inner`, `a_norm_vec` and `_check_compatible`; built at first use."""
        return _unit_scale(self.a.copy())

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
        return self._lift(as_vector(u, self.rank))

    def _lift(self, u: np.ndarray) -> np.ndarray:
        """`lift` of a complex vector of length rank, unchecked."""
        return self._range_basis @ (u / self._range_scale)


def a_inner(w: Weight, x, y) -> complex:
    """Weighted inner product <x, y>_A = y^H A x (conjugation on the second slot).

    x, y and A are taken at unit size (`_unit_scale`), and each part of the
    product is scaled back by the sum of their exponents, so no product
    overflows, and none underflows but for entries far below the largest of
    their array; a part beyond the largest float raises a ValueError.
    """
    x, ex = _unit_scale(as_vector(x, w.dim).copy())
    y, ey = _unit_scale(as_vector(y, w.dim).copy())
    a, ea = w._unit_a
    s, e = complex(y.conj() @ (a @ x)), ex + ey + ea
    return complex(_scale_back(s.real, e), _scale_back(s.imag, e))


def a_norm_vec(w: Weight, x) -> float:
    """Weighted seminorm sqrt(Re <x, x>_A); may vanish on nonzero vectors.

    Raises if Im <x, x>_A exceeds 1e-10 ||A|| ||x||^2, the scale of its round-off.
    Both are taken at x 2^-e and A 2^-f (`_unit_scale`), and the seminorm is
    scaled back by 2^(e + f // 2), an odd f leaving a factor 2 under the root,
    so no square or product overflows or underflows; a seminorm beyond the
    largest float raises a ValueError.
    """
    x, e = _unit_scale(as_vector(x, w.dim).copy())
    a, f = w._unit_a
    s = complex(x.conj() @ (a @ x))
    if abs(s.imag) > 1e-10 * math.ldexp(float(w.eigvals[0]), -f) * float(np.vdot(x, x).real):
        raise ValueError(
            f"self inner product has imaginary part {s.imag:.3e} x 2^{2 * e + f}; weight is broken"
        )
    return _scale_back(math.sqrt(math.ldexp(max(s.real, 0.0), f % 2)), e + f // 2)


def _check_compatible(w: Weight, t: np.ndarray) -> None:
    # T is compatible with the weight iff A T vanishes on null(A); otherwise
    # the weighted operator seminorm is infinite.  The trailing eigenvectors
    # are an orthonormal basis N of null(A), so A T N is the leak A T (I - P),
    # P the projector onto range(A).  The test is scale-free: it takes A at unit
    # size and compares the leak with A T by their largest entry moduli, which,
    # unlike sums of squares, neither overflow nor underflow at any size of T.
    if w.rank == w.dim:
        return
    at = w._unit_a[0] @ t
    leak, top = np.abs(at @ w.eigvecs[:, w.rank :]).max(), np.abs(at).max()
    if leak > 1e-8 * top:
        raise NotABounded(
            f"operator maps null(weight) out of null(weight) (leak {leak / top:.3e})"
        )


def reduce_to_range(w: Weight, t) -> np.ndarray:
    """Reduced operator B = S_r V_r^H T V_r S_r^{-1} on range(A), of size rank x rank.

    Contract: <T x, y>_A = v^H B u for x = ``w.lift(u)``, y = ``w.lift(v)``, so
    every weighted quantity of T equals the standard one of B.  Raises
    :class:`NotABounded` if T is incompatible with a rank-deficient weight, and
    a ValueError if an entry of B overflows the largest float.
    """
    b = _reduce(w, as_operator(t))
    if not np.isfinite(b).all():
        raise ValueError("the reduced operator overflows the largest float")
    return b


def _reduce(w: Weight, t: np.ndarray) -> np.ndarray:
    """`reduce_to_range` of a square complex matrix, as `as_operator` returns it, but for its overflow check.

    An entry of B that overflows is inf or NaN; the callers that scale B by
    `_unit_scale` next leave the check to it.
    """
    if t.shape[0] != w.dim:
        raise ValueError("operator and weight dimensions differ")
    _check_compatible(w, t)
    sr = w._unit_range_scale  # S_r 2^-e: B takes only the ratios of its entries
    with np.errstate(over="ignore"):  # an overflow is refused by the caller, as a ValueError
        return (sr[:, None] * (w._range_basis_h @ t @ w._range_basis)) / sr


_REDUCED = 8  # the reductions `_unit_reduction` keeps


@functools.lru_cache(maxsize=_REDUCED)
def _unit_reduction(w: Weight, key: bytes) -> tuple[np.ndarray, int, bool]:
    """The reduction of T at unit size, B 2^-e (read-only), e, and whether B is diagonal, for the T whose bytes are key.

    key is the bytes of T, n x n complex in C order, from which T is rebuilt,
    so the cache keeps no reference to the caller's array, a C and a Fortran
    copy of T share one entry, and T changed in place keys anew.  B counts as
    diagonal where every off-diagonal entry is exactly 0, as for a
    multiplication operator under a diagonal weight; this is the one test of
    it, and both readers take the O(n) path it opens.  It keeps the last
    `_REDUCED` (8) reductions, keyed by the weight object and key; the
    seminorm (`a_opnorm`) and the estimators' preparation (`radius._prepare`)
    of one (A, T) share one.  Errors are not cached: a call that raises
    (`NotABounded`, a dimension mismatch, an overflow) raises again.
    """
    n = math.isqrt(len(key) // 16)
    b, e = _unit_scale(_reduce(w, np.frombuffer(key, np.complex128).reshape(n, n)))
    b.setflags(write=False)
    r = b.shape[0]  # the weight's rank
    return b, e, not b.ravel()[1:].reshape(r - 1, r + 1)[:, :r].any()  # the off-diagonal entries, row by row


def a_opnorm(w: Weight, t) -> float:
    """Weighted operator seminorm: largest singular value of the reduction, taken at unit size.

    The reduction comes from the cache `_unit_reduction`, which the estimators
    of the same (A, T) share.  A diagonal reduction reads max |b_ii| off its
    diagonal with no SVD, each modulus correctly rounded by `math.hypot`
    (numpy's complex abs and LAPACK's largest singular value are not always,
    and can differ from it by an ulp or two).  Any other reduction takes the
    SVD.  A reduction or a seminorm beyond the largest float raises a
    ValueError.
    """
    b, e, diagonal = _unit_reduction(w, as_operator(t).tobytes())
    if diagonal:
        d = b.diagonal()
        return _scale_back(max(map(math.hypot, d.real.tolist(), d.imag.tolist())), e)
    return _scale_back(float(np.linalg.svd(b, compute_uv=False)[0]), e)


def a_adjoint(w: Weight, t) -> np.ndarray:
    """Adjoint with respect to the weighted product: A^+ T^H A (on range(A)).

    T, the eigenvalues lambda_r of A on its range and A are each taken at unit
    size (`_unit_scale`), so no 1/lambda and no product overflows, and the
    adjoint is scaled back once, by the exact power of two; an adjoint with an
    entry beyond the largest float raises a ValueError.
    """
    t, et = _unit_scale(as_operator(t).copy())
    lam, el = _unit_scale(w.eigvals[: w.rank].copy())
    a, ea = w._unit_a
    vr = w._range_basis
    pinv_a = (vr / lam) @ vr.conj().T
    adj = pinv_a @ t.conj().T @ a
    flat = adj.view(np.float64)  # ldexp takes no complex array
    with np.errstate(over="ignore"):  # an overflow is refused below, as a ValueError
        np.ldexp(flat, et + ea - el, out=flat)
    if not np.isfinite(adj).all():
        raise ValueError("the weighted adjoint overflows the largest float")
    return adj


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


def _json_size(obj: dict, name: str) -> int:
    """obj[name] as an int; a bool, a fraction or a non-number raises a ValueError instead of being cut to an int."""
    value = obj[name]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_floats(obj: dict, name: str) -> np.ndarray:
    """obj[name] as a float array; a value numpy cannot read as numbers, such as an object, raises a ValueError."""
    try:
        return np.asarray(obj[name], dtype=np.float64)
    except TypeError:
        raise ValueError(f"{name} must be a list of numbers, got {obj[name]!r}") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"a matrix must be a JSON object with rows, cols, re and im, got {type(obj).__name__}")
    rows = _json_size(obj, "rows")
    cols = _json_size(obj, "cols")
    re = _json_floats(obj, "re")
    im = _json_floats(obj, "im")
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
    a = matrix_from_json(obj)
    psd_tol = obj.get("psd_tol")  # a number or null, as for rows and cols: "1e-3" and true are not read as floats
    if psd_tol is not None and (isinstance(psd_tol, bool) or not isinstance(psd_tol, (int, float))):
        raise ValueError(f"psd_tol must be a number or null, got {psd_tol!r}")
    return Weight(a, psd_tol=psd_tol)
