"""Estimators for weighted (q-)numerical radii, Crawford numbers and gaps.

All quantities are computed on the reduced operator B (standard inner product,
dimension = rank of the weight).  For a unit vector u, the values attainable
over all admissible partner vectors form a circle (reduced dimension 2) or a
full disk (dimension >= 3) of radius ``p * ||(I - u u^H) B u||`` centered at
``q <B u, u>`` with ``p = sqrt(1 - |q|^2)``, so the partner search collapses
analytically and only the unit sphere in u remains.  The sphere search is
multi-start projected ascent on one rule per estimator, which returns the
value and the closed-form gradient together, so each step costs one evaluation.

Suprema are therefore reported as lower bounds and infima as upper bounds.  Each
estimate carries a witness pair (x, y) with ||x||_A = ||y||_A = 1 and
<x, y>_A = q that attains the reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

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
    """

    value: float
    direction: str
    witness_x: np.ndarray
    witness_y: np.ndarray
    budget: Budget
    seed: int


@dataclass
class GapValue:
    op_norm: float
    radius_or_crawford: float
    gap: float


def _normalize_rows(u: np.ndarray) -> np.ndarray:
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _sphere_terms(
    b: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """|c|, rho and their gradients at unit rows u, c = <B u, u>, rho = ||B u - c u||.

    Gradients are complex rows g = df/dRe(u) + i df/dIm(u) of the row-scale
    invariant extensions, so g is orthogonal to u; with r = B u - c u,

        grad |c| = (conj(c) r + c (B^H u - conj(c) u)) / |c|,
        grad rho = ((B - c I)^H r - rho^2 u) / rho,

    each taken as 0 where |c| = 0 or rho = 0 (a kink of that term).
    """
    bu = u @ b.T
    c = np.einsum("ij,ij->i", u.conj(), bu)
    r = bu - c[:, None] * u
    abs_c = np.abs(c)
    rho = np.linalg.norm(r, axis=1)
    cc = c.conj()[:, None]
    g_c = cc * r + c[:, None] * (u @ b.conj() - cc * u)
    g_rho = r @ b.conj() - cc * r - (rho**2)[:, None] * u
    g_c = np.divide(g_c, abs_c[:, None], out=np.zeros_like(u), where=abs_c[:, None] > 0.0)
    g_rho = np.divide(g_rho, rho[:, None], out=np.zeros_like(u), where=rho[:, None] > 0.0)
    return abs_c, rho, g_c, g_rho


def _sup(b: np.ndarray, absq: float, p: float):
    """Rule of the sup: unit rows -> (|q| |c| + p rho, its gradient)."""

    def rule(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        abs_c, rho, g_c, g_rho = _sphere_terms(b, u)
        return absq * abs_c + p * rho, absq * g_c + p * g_rho

    return rule


def _neg_inf(b: np.ndarray, absq: float, p: float, circle: bool):
    """Rule of minus the inf, t = |q| |c| - p rho: -|t| on the circle, -max(t, 0) on the disk."""

    def rule(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        abs_c, rho, g_c, g_rho = _sphere_terms(b, u)
        t = absq * abs_c - p * rho
        slope = np.sign(t) if circle else (t > 0.0).astype(float)
        value = -np.abs(t) if circle else -np.maximum(t, 0.0)
        return value, -slope[:, None] * (absq * g_c - p * g_rho)

    return rule


# After overshooting a kink of the Crawford rules a restart may halve its step
# 16 times before a step is accepted again; a shorter window stops it there.
_STALL_STEPS = 20


def _extremize(
    value_grad, dim: int, budget: Budget, seed: int, scale: float
) -> tuple[float, np.ndarray]:
    """Multi-start projected ascent of a rule (`_sup`, `_neg_inf`) over the unit sphere in C^dim.

    Each step evaluates the live restarts once and keeps the gradient of the
    accepted rows for the next step, so every restart's value only rises.  A
    restart stops once its gradient norm is <= 1e-12 * scale (an exact plateau)
    or its last `_STALL_STEPS` steps raised its value by <= 1e-12 * scale,
    where `scale` is ||B||_F, so both thresholds scale with B.  Returns the
    best value found and its unit argument.  Restart i draws its start from its
    own seed-sequence child, so results depend only on the seed and the
    restart index.
    """
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(budget.restarts))
    starts = [g.standard_normal(dim) + 1j * g.standard_normal(dim) for g in rngs]
    u = _normalize_rows(np.array(starts))
    f, grad = value_grad(u)
    alpha = np.full(budget.restarts, 0.1)
    live = np.ones(budget.restarts, dtype=bool)
    tol = 1e-12 * scale
    history = [f.copy()]

    for step in range(budget.iterations):
        gnorm = np.linalg.norm(grad, axis=1)
        live &= gnorm > tol
        if step >= _STALL_STEPS:
            live &= f - history[step - _STALL_STEPS] > tol
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        cand = _normalize_rows(u[rows] + alpha[rows, None] * grad[rows])
        f_cand, g_cand = value_grad(cand)
        ok = f_cand >= f[rows] + 1e-4 * alpha[rows] * gnorm[rows] ** 2
        up = rows[ok]
        u[up], f[up], grad[up] = cand[ok], f_cand[ok], g_cand[ok]
        alpha[up] = np.minimum(alpha[up] * 1.3, 1.0)
        alpha[rows[~ok]] *= 0.5
        history.append(f.copy())

    idx = int(np.argmax(f))
    return float(f[idx]), u[idx]


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


def _phase_sweep(b: np.ndarray, grid: int) -> tuple[float, np.ndarray]:
    """Numerical radius of B by sweeping max eigenvalues of rotated Hermitian parts."""
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    rot = np.exp(1j * phis)[:, None, None]
    herm = 0.5 * (rot * b + np.conj(rot) * b.conj().T)
    lams = np.linalg.eigvalsh(herm)[:, -1]
    i0 = int(np.argmax(lams))
    step = 2.0 * math.pi / grid

    def neg_lam(phi: float) -> float:
        h = 0.5 * (np.exp(1j * phi) * b + np.exp(-1j * phi) * b.conj().T)
        return -float(np.linalg.eigvalsh(h)[-1])

    res = minimize_scalar(
        neg_lam,
        bounds=(phis[i0] - step, phis[i0] + step),
        method="bounded",
        options={"xatol": 1e-10},
    )
    phi_best = float(res.x) if -res.fun >= lams[i0] else float(phis[i0])
    h = 0.5 * (np.exp(1j * phi_best) * b + np.exp(-1j * phi_best) * b.conj().T)
    vals, vecs = np.linalg.eigh(h)
    return float(vals[-1]), vecs[:, -1]


def a_radius(w: Weight, t, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Weighted numerical radius sup |<T x, x>_A| over A-unit x (two-sided)."""
    budget = budget or Budget()
    b = reduce_to_range(w, t)
    value, vec = _phase_sweep(b, int(budget.grid_resolution))
    x = w.lift(vec)
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
    rule = _sup(b, absq, p) if sup else _neg_inf(b, absq, p, circle=b.shape[0] == 2)
    value, u = _extremize(rule, b.shape[0], budget, seed, float(np.linalg.norm(b)))
    return Estimate(
        value=value if sup else -value,
        direction=LOWER_BOUND_OF_SUP if sup else UPPER_BOUND_OF_INF,
        witness_x=w.lift(u),
        witness_y=w.lift(_witness(b, u, q, p, sup)),
        budget=budget,
        seed=seed,
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
