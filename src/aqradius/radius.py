"""Estimators for weighted (q-)numerical radii, Crawford numbers and gaps.

All quantities are computed on the reduced operator B (standard inner product,
dimension = rank of the weight).  For a unit vector u, the values attainable
over all admissible partner vectors form a circle (reduced dimension 2) or a
full disk (dimension >= 3) of radius ``p * ||(I - u u^H) B u||`` centered at
``q <B u, u>`` with ``p = sqrt(1 - |q|^2)``, so the partner search collapses
analytically and only the unit sphere in u remains.  The sphere search is
multi-start projected ascent on one rule per estimator (`_rule`), which
returns the value and the closed-form gradient together from two matrix
products, so each step costs one evaluation.  The search keeps only its live
restarts in its working set, retiring each one to a result array once the
stop rule ends it, and tests the stop rule against a ring buffer of the last
values.  Its seeded starts come from a small cache shared by all calls with
the same seed, restart count and dimension; the cached arrays are read-only,
so no call can change another's starts.  The A-numerical radius is instead
max over phi of lambda_max of the Hermitian part of e^{i phi} B, found by the
phase-sweep routine `_phase_max` (a grid plus a bounded Brent refine,
`_bounded_min`).

Suprema are therefore reported as lower bounds and infima as upper bounds.  Each
estimate carries a witness pair (x, y) with ||x||_A = ||y||_A = 1 and
<x, y>_A = q that attains the reported value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .semispace import RankTooLow, Weight, a_opnorm, reduce_to_range, validate_q

__all__ = [
    "Budget",
    "Estimate",
    "GapValue",
    "LOWER_BOUND_OF_SUP",
    "TWO_SIDED",
    "UPPER_BOUND_OF_INF",
    "a_crawford",
    "a_radius",
    "aq_crawford",
    "aq_radius",
    "gaps",
]

LOWER_BOUND_OF_SUP = "lower_bound_of_sup"
UPPER_BOUND_OF_INF = "upper_bound_of_inf"
TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class Budget:
    """Optimizer budget: restarts x iterations, plus the phase-grid density."""

    restarts: int = 64
    iterations: int = 500
    grid_resolution: float = 256.0

    def __post_init__(self):
        if not (self.restarts >= 1 and self.iterations >= 1 and self.grid_resolution >= 4):
            raise ValueError(f"{self} needs restarts >= 1, iterations >= 1, grid_resolution >= 4")

    def scaled(self, factor: int) -> "Budget":
        """Budget with `factor` times the restarts (best-so-far semantics)."""
        return replace(self, restarts=self.restarts * factor)


@dataclass
class Estimate:
    """A computed radius/Crawford value with its bound direction and witnesses.

    The witness pair re-produces `value` when plugged back into |<T x, y>_A|.
    A sphere search also reports its rule `evaluations` (the start batch
    included) and how many restarts its stop rule `converged` before the
    iteration cap; the phase sweep of `a_radius` leaves both None.
    """

    value: float
    direction: str
    witness_x: np.ndarray
    witness_y: np.ndarray
    budget: Budget
    seed: int
    evaluations: int | None = None
    converged: int | None = None


@dataclass
class GapValue:
    op_norm: float
    radius_or_crawford: float
    gap: float


def _normalize_rows(u: np.ndarray) -> np.ndarray:
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _row_norms(u: np.ndarray) -> np.ndarray:
    """Row 2-norms from one `einsum`, cheaper than `np.linalg.norm` on small batches."""
    return np.sqrt(np.einsum("ij,ij->i", u.conj(), u).real)


def _rule(b: np.ndarray, absq: float, p: float, kind: str):
    """Rule of one estimator: unit rows u -> (value, gradient), `kind` "sup", "circle" or "disk".

    With c = <B u, u>, r = B u - c u and rho = ||r||, the sup rule is
    |q| |c| + p rho; the minus-inf rules take t = |q| |c| - p rho to -|t|
    (circle) or -max(t, 0) (disk).  Gradients are complex rows
    g = df/dRe(u) + i df/dIm(u) of the row-scale invariant extensions, so g is
    orthogonal to u.  Each rule is a1 |c| + a2 rho up to its sign, and
    a1 grad |c| + a2 grad rho, from

        grad |c| = (conj(c) r + c B^H u - |c|^2 u) / |c|,
        grad rho = (B^H r - conj(c) r - rho^2 u) / rho,

    is four per-row coefficients times r, B^H u, B^H r and u.  The kink of each
    term (|c| = 0, rho = 0) zeroes its coefficients.  One product with
    [B^T | conj(B)] gives B u and B^H u; B^H r is its own product, since
    B^H B u - conj(c) B^H u cancels near rho = 0.
    """
    n = b.shape[0]
    b_conj = b.conj()
    both = np.concatenate([b.T, b_conj], axis=1)

    def rule(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        prods = u @ both
        bu, bhu = prods[:, :n], prods[:, n:]
        c = np.einsum("ij,ij->i", u.conj(), bu)
        r = bu - c[:, None] * u
        abs_c = np.abs(c)
        rho = _row_norms(r)
        inv_c = np.divide(1.0, abs_c, out=np.zeros(abs_c.shape), where=abs_c > 0.0)
        inv_rho = np.divide(1.0, rho, out=np.zeros(rho.shape), where=rho > 0.0)
        if kind == "sup":
            value, a1, a2 = absq * abs_c + p * rho, absq, p
        else:
            t = absq * abs_c - p * rho
            slope = np.sign(t) if kind == "circle" else (t > 0.0).astype(float)
            value = -np.abs(t) if kind == "circle" else -np.maximum(t, 0.0)
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


# After overshooting a kink of the Crawford rules a restart may halve its step
# 16 times before a step is accepted again; a shorter window stops it there.
_STALL_STEPS = 20


@functools.lru_cache(maxsize=32)
def _starts(seed: int, restarts: int, dim: int) -> np.ndarray:
    """Unit start rows of `_extremize`: row i is drawn from child i of SeedSequence(seed).

    Calls with the same arguments share one cached array, so it is read-only.
    Rows depend only on the seed and their index, so the first m rows of a
    larger batch are the m-restart starts.
    """
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(restarts))
    u = _normalize_rows(
        np.array([g.standard_normal(dim) + 1j * g.standard_normal(dim) for g in rngs])
    )
    u.setflags(write=False)
    return u


def _extremize(
    value_grad, dim: int, budget: Budget, seed: int, scale: float
) -> tuple[float, np.ndarray, int, int]:
    """Multi-start projected ascent of a rule (`_rule`) over the unit sphere in C^dim.

    The restarts start from the cached, read-only `_starts` rows.  The working
    set holds only the live restarts: each step evaluates all of them once,
    takes the accepted candidates with `np.where` and keeps their gradients
    for the next step, so every restart's value only rises.  A restart stops
    once its gradient norm is <= 1e-12 * scale (an exact plateau) or its last
    `_STALL_STEPS` steps raised its value by <= 1e-12 * scale, where `scale`
    is ||B||_F, so both thresholds scale with B; a ring buffer of the last
    `_STALL_STEPS` values serves that test.  A stopped restart is retired to
    the result arrays and dropped from the working set.  Returns the best value
    found, its unit argument, the number of rule evaluations (the start batch
    included) and the number of restarts the stop rule retired before the
    iteration cap.
    """
    u = _starts(seed, budget.restarts, dim)
    f, grad = value_grad(u)
    evaluations, converged = 1, 0
    best_f = np.empty(budget.restarts)
    best_u = np.empty((budget.restarts, dim), dtype=complex)
    index = np.arange(budget.restarts)
    alpha = np.full(budget.restarts, 0.1)
    ring = np.empty((_STALL_STEPS, budget.restarts))
    tol = 1e-12 * scale

    for step in range(budget.iterations):
        gnorm = _row_norms(grad)
        keep = gnorm > tol
        slot = step % _STALL_STEPS
        if step >= _STALL_STEPS:
            keep &= f - ring[slot] > tol
        ring[slot] = f
        if not keep.all():
            stop = ~keep
            best_f[index[stop]], best_u[index[stop]] = f[stop], u[stop]
            converged += int(np.count_nonzero(stop))
            u, f, grad, gnorm = u[keep], f[keep], grad[keep], gnorm[keep]
            alpha, index, ring = alpha[keep], index[keep], ring[:, keep]
            if index.size == 0:
                break
        cand = _normalize_rows(u + alpha[:, None] * grad)
        f_cand, g_cand = value_grad(cand)
        evaluations += 1
        ok = f_cand >= f + 1e-4 * alpha * gnorm**2
        u = np.where(ok[:, None], cand, u)
        f = np.where(ok, f_cand, f)
        grad = np.where(ok[:, None], g_cand, grad)
        alpha = np.where(ok, np.minimum(alpha * 1.3, 1.0), alpha * 0.5)

    best_f[index], best_u[index] = f, u
    idx = int(np.argmax(best_f))
    return float(best_f[idx]), best_u[idx], evaluations, converged


def _orth_unit(vectors: list[np.ndarray]) -> np.ndarray:
    """A unit vector orthogonal to orthonormal `vectors`: the normalized residual
    of the standard basis vector they overlap least, which has the largest residual."""
    v = np.array(vectors)
    k = int(np.argmin(np.sum(np.abs(v) ** 2, axis=0)))
    cand = -(v[:, k].conj() @ v)
    cand[k] += 1.0
    return cand / np.linalg.norm(cand)


def _witness(b: np.ndarray, u: np.ndarray, q: complex, p: float, sup: bool) -> np.ndarray:
    """Reduced partner v with <u, v> = q and |v^H B u| the rule's value at unit u.

    v = conj(q) u +- p conj(d) w, d the phase of q c, w a unit vector orthogonal
    to u: w^H B u = rho along the residual, beta rho when the disk tilts w out of it.
    """
    if u.size == 1 or p == 0.0:
        return np.conj(q) * u
    bu = b @ u
    c = complex(u.conj() @ bu)
    resid = bu - c * u
    rho = float(np.linalg.norm(resid))
    qc = q * c
    d = qc / abs(qc) if abs(qc) > 0.0 else 1.0
    if rho <= 1e-14 * np.linalg.norm(b):  # relative, so that T -> cT keeps the branch
        return np.conj(q) * u + p * np.conj(d) * _orth_unit([u])
    w = resid / rho
    if sup:
        return np.conj(q) * u + p * np.conj(d) * w
    if u.size > 2:
        beta = min(1.0, abs(qc) / (p * rho))
        w = beta * w + math.sqrt(max(0.0, 1.0 - beta * beta)) * _orth_unit([u, w])
    return np.conj(q) * u - p * np.conj(d) * w


# Brent's bounded minimizer (Brent 1973, ch. 5), ported line for line from
# scipy.optimize._minimize_scalar_bounded (scipy, BSD-3-Clause) so that the package
# needs numpy alone: it evaluates f at the same points and returns the same minimum
# as minimize_scalar(method="bounded") with the same xatol and its default cap of
# 500 evaluations.
def _bounded_min(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimum (x, f(x)) of a scalar f on [a, b] by golden sections and parabolic steps."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        si = 1.0 if rat >= 0.0 else -1.0
        x = xf + si * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _phase_max(f, grid: int) -> tuple[float, float]:
    """Maximum (phase, value) of a 2 pi-periodic function f of one phase.

    f maps an array of phases to their values.  It is sampled at `grid`
    equispaced phases; `_bounded_min` refines the best sample over its two
    neighbouring cells, and the sample stands if the refined value is lower.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = f(phis)
    i0 = int(np.argmax(vals))
    step = 2.0 * math.pi / grid
    lo, hi = float(phis[i0] - step), float(phis[i0] + step)
    phase, neg = _bounded_min(lambda phi: -float(f(np.array([phi]))[0]), lo, hi, 1e-13)
    if -neg >= vals[i0]:
        return phase, -neg
    return float(phis[i0]), float(vals[i0])


def a_radius(w: Weight, t, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Weighted numerical radius sup |<T x, x>_A| over A-unit x (two-sided)."""
    budget = budget or Budget()
    b = reduce_to_range(w, t)

    def hermitian_parts(phis: np.ndarray) -> np.ndarray:
        rot = np.exp(1j * phis)[:, None, None]
        return 0.5 * (rot * b + rot.conj() * b.conj().T)

    def lam_max(phis: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(hermitian_parts(phis))[:, -1]

    phase, _ = _phase_max(lam_max, int(budget.grid_resolution))
    vals, vecs = np.linalg.eigh(hermitian_parts(np.array([phase]))[0])
    value, x = float(vals[-1]), w.lift(vecs[:, -1])
    return Estimate(
        value=value, direction=TWO_SIDED, witness_x=x, witness_y=x, budget=budget, seed=seed
    )


def _sphere_estimate(w: Weight, t, q, budget: Budget | None, seed: int, sup: bool) -> Estimate:
    """Sphere search for the sup (or the inf) of |<T x, y>_A| and its witness pair."""
    q = validate_q(q, allow_zero=True)
    budget = budget or Budget()
    b = reduce_to_range(w, t)
    if w.rank < 2 and abs(abs(q) - 1.0) > 1e-12:
        raise RankTooLow(f"weight rank {w.rank} < 2: the constraint set is empty for |q| < 1")
    absq, p = abs(q), math.sqrt(max(0.0, 1.0 - abs(q) ** 2))
    kind = "sup" if sup else "circle" if b.shape[0] == 2 else "disk"
    value, u, evaluations, converged = _extremize(
        _rule(b, absq, p, kind), b.shape[0], budget, seed, float(np.linalg.norm(b))
    )
    return Estimate(
        value=value if sup else -value,
        direction=LOWER_BOUND_OF_SUP if sup else UPPER_BOUND_OF_INF,
        witness_x=w.lift(u),
        witness_y=w.lift(_witness(b, u, q, p, sup)),
        budget=budget,
        seed=seed,
        evaluations=evaluations,
        converged=converged,
    )


def aq_radius(w: Weight, t, q, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Lower-bound estimate of the weighted q-numerical radius.

    Maximizes ``|q <B u, u>| + sqrt(1 - |q|^2) ||(I - u u^H) B u||`` over unit
    u in the reduced space by multi-start projected ascent from Gaussian
    starts.  The returned witnesses are an exact constraint pair attaining the
    reported value.
    """
    return _sphere_estimate(w, t, q, budget, seed, sup=True)


def aq_crawford(w: Weight, t, q, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Upper-bound estimate of the weighted q-Crawford number.

    In reduced dimension 2 the partner values sweep a circle, so the inner
    minimum keeps the absolute value; in dimension >= 3 they fill a disk and
    the minimum clamps at zero.
    """
    return _sphere_estimate(w, t, q, budget, seed, sup=False)


def a_crawford(w: Weight, t, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Weighted Crawford number: the q-Crawford estimator specialized to q = 1."""
    return aq_crawford(w, t, 1.0, budget=budget, seed=seed)


def gaps(
    w: Weight, t, q, budget: Budget | None = None, seed: int = 0
) -> tuple[GapValue, GapValue]:
    """Gap pair (seminorm minus q-radius, seminorm minus q-Crawford number)."""
    op = a_opnorm(w, t)
    rad = aq_radius(w, t, q, budget=budget, seed=seed)
    cra = aq_crawford(w, t, q, budget=budget, seed=seed)
    return (
        GapValue(op_norm=op, radius_or_crawford=rad.value, gap=op - rad.value),
        GapValue(op_norm=op, radius_or_crawford=cra.value, gap=op - cra.value),
    )
