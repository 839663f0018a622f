"""Estimators for weighted (q-)numerical radii, Crawford numbers and gaps.

All quantities are computed on the reduced operator B (standard inner product,
dimension = rank of the weight).  For a unit vector u, the values attainable
over all admissible partner vectors form a circle (reduced dimension 2) or a
full disk (dimension >= 3) of radius ``p * ||(I - u u^H) B u||`` centered at
``q <B u, u>`` with ``p = sqrt(1 - |q|^2)``, so the partner search collapses
analytically and only the unit sphere in u remains.  The sphere search uses
multi-start projected ascent/descent with the closed-form gradient of
``|q| |<B u, u>|`` and ``p ||(I - u u^H) B u||``, which is tangent to the sphere.

Suprema are therefore reported as lower bounds and infima as upper bounds; an
independent brute-force grid oracle over the raw pair parameterization (no
shared inner formulas) is provided for cross-checking in reduced dimension <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .pairs import RankTooLow
from .semispace import Weight, a_opnorm, reduce_to_range, validate_q

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
    "oracle_grid",
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


def _p_of(q: complex) -> float:
    return math.sqrt(max(0.0, 1.0 - abs(q) ** 2))


def _normalize_rows(u: np.ndarray) -> np.ndarray:
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _center_and_spread(b: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<B u, u> and ||(I - u u^H) B u|| for rows of a normalized batch."""
    bu = u @ b.T
    c = np.einsum("ij,ij->i", u.conj(), bu)
    resid = bu - c[:, None] * u
    return c, np.linalg.norm(resid, axis=1)


def _sup_objective(b: np.ndarray, u: np.ndarray, absq: float, p: float) -> np.ndarray:
    c, rho = _center_and_spread(b, _normalize_rows(u))
    return absq * np.abs(c) + p * rho


def _inf_objective(
    b: np.ndarray, u: np.ndarray, absq: float, p: float, circle: bool
) -> np.ndarray:
    c, rho = _center_and_spread(b, _normalize_rows(u))
    t = absq * np.abs(c) - p * rho
    return np.abs(t) if circle else np.maximum(t, 0.0)


def _sphere_gradients(
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


def _sup_gradient(b: np.ndarray, u: np.ndarray, absq: float, p: float) -> np.ndarray:
    _, _, g_c, g_rho = _sphere_gradients(b, u)
    return absq * g_c + p * g_rho


def _neg_inf_gradient(
    b: np.ndarray, u: np.ndarray, absq: float, p: float, circle: bool
) -> np.ndarray:
    """Gradient of minus the inf objective: -sign(t) grad t (circle), -[t > 0] grad t (disk)."""
    abs_c, rho, g_c, g_rho = _sphere_gradients(b, u)
    t = absq * abs_c - p * rho
    slope = np.sign(t) if circle else (t > 0.0).astype(float)
    return -slope[:, None] * (absq * g_c - p * g_rho)


_MAX_PERTURBS = 3


def _extremize(fn, grad_fn, dim: int, budget: Budget, seed: int) -> tuple[float, np.ndarray]:
    """Multi-start projected ascent of `fn` over the unit sphere in C^dim.

    `fn` maps a batch of rows to values and must be invariant under row scaling;
    `grad_fn` gives its gradient at unit rows.  Returns the best value found and
    its (normalized) argument.  Restart i draws its start and its stagnation
    perturbations from its own seed-sequence child, so results depend only on
    the seed and the restart index.
    """
    n_restarts = max(1, int(budget.restarts))
    children = np.random.SeedSequence(seed).spawn(n_restarts)
    rngs = [np.random.default_rng(c) for c in children]

    starts = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for rng in rngs]
    u = _normalize_rows(np.array(starts))
    m = u.shape[0]

    f_cur = fn(u)
    best_val = f_cur.copy()
    best_u = u.copy()
    alpha = np.full(m, 0.1)
    active = np.ones(m, dtype=bool)
    perturbs = np.zeros(m, dtype=int)

    for _ in range(max(1, int(budget.iterations))):
        if not active.any():
            break
        grad = grad_fn(u)
        gnorm = np.linalg.norm(grad, axis=1)
        cand = _normalize_rows(u + alpha[:, None] * grad)
        f_cand = fn(cand)
        improved = active & (f_cand >= f_cur + 1e-4 * alpha * gnorm**2)
        u[improved] = cand[improved]
        f_cur[improved] = f_cand[improved]
        alpha[improved] = np.minimum(alpha[improved] * 1.3, 1.0)
        rejected = active & ~improved
        alpha[rejected] *= 0.5

        better = f_cur > best_val
        best_val[better] = f_cur[better]
        best_u[better] = u[better]

        stagnant = active & ((alpha < 1e-12) | (gnorm < 1e-11))
        for i in np.flatnonzero(stagnant):
            if perturbs[i] < _MAX_PERTURBS:
                noise = rngs[i].standard_normal(dim) + 1j * rngs[i].standard_normal(dim)
                u[i] = u[i] + 1e-3 * noise
                u[i] /= np.linalg.norm(u[i])
                f_cur[i] = fn(u[i][None, :])[0]
                alpha[i] = 0.01
                perturbs[i] += 1
            else:
                active[i] = False

    idx = int(np.argmax(best_val))
    return float(best_val[idx]), best_u[idx]


def _orth_unit(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """A unit vector orthogonal to the given (orthonormal-ish) vectors."""
    best = None
    best_norm = -1.0
    for k in range(dim):
        cand = np.zeros(dim, dtype=np.complex128)
        cand[k] = 1.0
        for v in vectors:
            cand = cand - v * (v.conj() @ cand)
        nc = float(np.linalg.norm(cand))
        if nc > best_norm:
            best_norm = nc
            best = cand
    return best / best_norm


def _sup_witness(b: np.ndarray, u: np.ndarray, q: complex, p: float) -> np.ndarray:
    """Reduced partner vector attaining |q c| + p rho at u."""
    bu = b @ u
    c = complex(u.conj() @ bu)
    resid = bu - c * u
    rho = float(np.linalg.norm(resid))
    if u.size == 1 or p == 0.0:
        return np.conj(q) * u
    w = resid / rho if rho > 1e-14 else _orth_unit([u], u.size)
    qc = q * c
    d = qc / abs(qc) if abs(qc) > 0.0 else 1.0
    return np.conj(q) * u + p * np.conj(d) * w


def _inf_witness(
    b: np.ndarray, u: np.ndarray, q: complex, p: float, circle: bool
) -> np.ndarray:
    """Reduced partner vector attaining the inner minimum at u."""
    bu = b @ u
    c = complex(u.conj() @ bu)
    resid = bu - c * u
    rho = float(np.linalg.norm(resid))
    if u.size == 1 or p == 0.0:
        return np.conj(q) * u
    qc = q * c
    d = qc / abs(qc) if abs(qc) > 0.0 else 1.0
    if rho <= 1e-14:
        w = _orth_unit([u], u.size)
        return np.conj(q) * u + p * np.conj(d) * w
    w_par = resid / rho
    if circle:
        w = w_par
    else:
        beta = min(1.0, abs(qc) / (p * rho))
        w_perp = _orth_unit([u, w_par], u.size)
        w = beta * w_par + math.sqrt(max(0.0, 1.0 - beta * beta)) * w_perp
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
    value, vec = _phase_sweep(b, max(4, int(budget.grid_resolution)))
    x = w.lift(vec)
    return Estimate(
        value=value, direction=TWO_SIDED, witness_x=x, witness_y=x, budget=budget, seed=seed
    )


def _check_rank_vs_q(w: Weight, q: complex) -> None:
    if w.rank < 2 and abs(abs(q) - 1.0) > 1e-12:
        raise RankTooLow(
            f"weight rank {w.rank} < 2: the constraint set is empty for |q| < 1"
        )


def aq_radius(w: Weight, t, q, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Lower-bound estimate of the weighted q-numerical radius.

    Maximizes ``|q <B u, u>| + sqrt(1 - |q|^2) ||(I - u u^H) B u||`` over unit
    u in the reduced space by multi-start projected ascent from Gaussian
    starts.  The returned witnesses are an exact constraint pair attaining the
    reported value.
    """
    q = validate_q(q, allow_zero=True)
    budget = budget or Budget()
    b = reduce_to_range(w, t)
    _check_rank_vs_q(w, q)
    absq, p = abs(q), _p_of(q)

    value, u = _extremize(
        lambda uu: _sup_objective(b, uu, absq, p),
        lambda uu: _sup_gradient(b, uu, absq, p),
        b.shape[0],
        budget,
        seed,
    )
    v = _sup_witness(b, u, q, p)
    return Estimate(
        value=value,
        direction=LOWER_BOUND_OF_SUP,
        witness_x=w.lift(u),
        witness_y=w.lift(v),
        budget=budget,
        seed=seed,
    )


def aq_crawford(w: Weight, t, q, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Upper-bound estimate of the weighted q-Crawford number.

    In reduced dimension 2 the partner values sweep a circle, so the inner
    minimum keeps the absolute value; in dimension >= 3 they fill a disk and
    the minimum clamps at zero.
    """
    q = validate_q(q, allow_zero=True)
    budget = budget or Budget()
    b = reduce_to_range(w, t)
    _check_rank_vs_q(w, q)
    absq, p = abs(q), _p_of(q)
    circle = b.shape[0] == 2

    neg_value, u = _extremize(
        lambda uu: -_inf_objective(b, uu, absq, p, circle),
        lambda uu: _neg_inf_gradient(b, uu, absq, p, circle),
        b.shape[0],
        budget,
        seed,
    )
    v = _inf_witness(b, u, q, p, circle)
    return Estimate(
        value=-neg_value,
        direction=UPPER_BOUND_OF_INF,
        witness_x=w.lift(u),
        witness_y=w.lift(v),
        budget=budget,
        seed=seed,
    )


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


# ---------------------------------------------------------------------------
# Brute-force grid oracle.  Evaluates |<T x, y>_A| = |v^H B u| directly on a
# product grid of the raw (x, z, theta) pair parameterization; it never forms
# the collapsed center/spread objective used by the estimators above.
# ---------------------------------------------------------------------------


def oracle_grid(w: Weight, t, q, resolution: int = 200) -> tuple[float, float]:
    """Exhaustive pair-grid evaluation; returns (lower_sup, upper_inf).

    Only reduced dimensions <= 3 are supported (the grid cost explodes above).
    In dimension 3 the per-coordinate density is capped and the incumbent best
    cells are refined by repeated local re-gridding, which keeps every reported
    value an exactly evaluated feasible point.
    """
    q = validate_q(q, allow_zero=True)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    b = reduce_to_range(w, t)
    r = b.shape[0]
    if r > 3:
        raise ValueError(f"oracle_grid supports reduced dimension <= 3, got {r}")
    _check_rank_vs_q(w, q)
    p = _p_of(q)
    if r == 1:
        val = abs(q) * abs(complex(b[0, 0]))
        return val, val
    if r == 2:
        return _oracle_dim2(b, q, p, resolution)
    return _oracle_dim3(b, q, p, resolution)


def _dim2_values(
    b: np.ndarray, q: complex, p: float, coords: tuple[np.ndarray, ...]
) -> np.ndarray:
    """|v^H B u| on broadcastable angle arrays (a, phase, theta), dimension 2."""
    a, phase, theta = coords
    u1 = np.cos(a)
    u2 = np.sin(a) * np.exp(1j * phase)
    bu1 = b[0, 0] * u1 + b[0, 1] * u2
    bu2 = b[1, 0] * u1 + b[1, 1] * u2
    c = u1 * bu1 + np.conj(u2) * bu2  # u1 is real
    s = -u2 * bu1 + u1 * bu2  # z = (-conj(u2), conj(u1)) spans the complement
    return np.abs(q * c + p * np.exp(-1j * theta) * s)


def _oracle_dim2(b: np.ndarray, q: complex, p: float, res: int) -> tuple[float, float]:
    a_grid = np.linspace(0.0, 0.5 * math.pi, res)
    b_grid = np.linspace(0.0, 2.0 * math.pi, res, endpoint=False)
    theta_grid = np.array([0.0]) if p == 0.0 else np.linspace(
        0.0, 2.0 * math.pi, res, endpoint=False
    )
    spacings = (
        a_grid[1] - a_grid[0],
        b_grid[1] - b_grid[0],
        theta_grid[1] - theta_grid[0] if theta_grid.size > 1 else 2.0 * math.pi,
    )
    aa = a_grid[:, None]
    bb = b_grid[None, :]
    hi, lo = -np.inf, np.inf
    hi_cands: list[tuple[tuple[float, ...], None, None]] = []
    lo_cands: list[tuple[tuple[float, ...], None, None]] = []
    n_bands = min(6, theta_grid.size)
    band_edges = np.linspace(0, theta_grid.size, n_bands + 1, dtype=int)
    band = 0
    band_best = [(-np.inf, None), (np.inf, None)]
    for it, theta in enumerate(theta_grid):
        while band < n_bands - 1 and it >= band_edges[band + 1]:
            hi_cands.append((band_best[0][1], None, None))
            lo_cands.append((band_best[1][1], None, None))
            band_best = [(-np.inf, None), (np.inf, None)]
            band += 1
        vals = _dim2_values(b, q, p, (aa, bb, theta))
        mx_idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        mn_idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        mx, mn = float(vals[mx_idx]), float(vals[mn_idx])
        hi, lo = max(hi, mx), min(lo, mn)
        if mx > band_best[0][0]:
            band_best[0] = (mx, (float(a_grid[mx_idx[0]]), float(b_grid[mx_idx[1]]), float(theta)))
        if mn < band_best[1][0]:
            band_best[1] = (mn, (float(a_grid[mn_idx[0]]), float(b_grid[mn_idx[1]]), float(theta)))
    hi_cands.append((band_best[0][1], None, None))
    lo_cands.append((band_best[1][1], None, None))

    eval_fn = lambda coords, k1, k2: _dim2_values(b, q, p, coords)
    hi = max(hi, _zoom(eval_fn, hi_cands, spacings, polar=(0,), maximize=True))
    lo = min(lo, _zoom(eval_fn, lo_cands, spacings, polar=(0,), maximize=False))
    return hi, lo


def _dim3_values(
    b: np.ndarray,
    q: complex,
    p: float,
    coords: tuple[np.ndarray, ...],
    k1,
    k2,
) -> np.ndarray:
    """|v^H B u| on broadcastable angle arrays (a1, a2, b1, b2, psi, phi, theta).

    k1, k2 select which standard basis vectors are projected to span the
    orthogonal complement of u (chosen away from the dominant components).
    """
    a1, a2, b1, b2, psi, phi, theta = coords
    u = np.stack(
        np.broadcast_arrays(
            np.cos(a1) + 0j,
            np.sin(a1) * np.cos(a2) * np.exp(1j * b1),
            np.sin(a1) * np.sin(a2) * np.exp(1j * b2),
        ),
        axis=-1,
    )
    shape = u.shape[:-1]
    k1 = np.broadcast_to(np.asarray(k1), shape)
    k2 = np.broadcast_to(np.asarray(k2), shape)
    eye = np.eye(3, dtype=np.complex128)
    e1 = eye[k1]
    e2 = eye[k2]
    u_k1 = np.take_along_axis(u, k1[..., None], axis=-1)[..., 0]
    u_k2 = np.take_along_axis(u, k2[..., None], axis=-1)[..., 0]
    w1 = e1 - np.conj(u_k1)[..., None] * u
    w1 = w1 / np.linalg.norm(w1, axis=-1, keepdims=True)
    w2 = e2 - np.conj(u_k2)[..., None] * u
    w2 = w2 - np.einsum("...i,...i->...", w1.conj(), w2)[..., None] * w1
    # second orthogonalization pass keeps near-degenerate anchors feasible
    w2 = w2 - np.einsum("...i,...i->...", u.conj(), w2)[..., None] * u
    w2 = w2 - np.einsum("...i,...i->...", w1.conj(), w2)[..., None] * w1
    w2 = w2 / np.maximum(np.linalg.norm(w2, axis=-1, keepdims=True), 1e-150)

    bu = np.einsum("ij,...j->...i", b, u)
    c = np.einsum("...i,...i->...", u.conj(), bu)
    s1 = np.einsum("...i,...i->...", w1.conj(), bu)
    s2 = np.einsum("...i,...i->...", w2.conj(), bu)
    zc = np.cos(psi) * s1 + np.sin(psi) * np.exp(-1j * phi) * s2
    return np.abs(q * c + p * np.exp(-1j * theta) * zc)


_ZOOM_LEVELS = 16
_ZOOM_GRID = 5


def _zoom(eval_fn, candidates, spacings, polar, maximize: bool) -> float:
    """Repeated local re-gridding around incumbent grid cells.

    Every evaluated point is feasible, so the refined extrema stay honest
    bounds; `polar` lists the coordinates clipped to [0, pi/2] (the rest are
    periodic and free to wander).
    """
    best_overall = -np.inf if maximize else np.inf
    n_coords = len(spacings)
    for point, k1, k2 in candidates:
        if point is None:
            continue
        center = list(point)
        windows = list(spacings)
        best_here = -np.inf if maximize else np.inf
        for _ in range(_ZOOM_LEVELS):
            axes = []
            for i in range(n_coords):
                axis = center[i] + np.linspace(-windows[i], windows[i], _ZOOM_GRID)
                if i in polar:
                    axis = np.clip(axis, 0.0, 0.5 * math.pi)
                axes.append(axis)
            grids = np.meshgrid(*axes, indexing="ij", sparse=True)
            vals = eval_fn(tuple(grids), k1, k2)
            flat = int(np.argmax(vals) if maximize else np.argmin(vals))
            idx = np.unravel_index(flat, vals.shape)
            val = float(vals[idx])
            if (maximize and val > best_here) or (not maximize and val < best_here):
                best_here = val
            center = [float(axes[i][idx[i]]) for i in range(n_coords)]
            windows = [wdt * 0.5 for wdt in windows]
        if maximize:
            best_overall = max(best_overall, best_here)
        else:
            best_overall = min(best_overall, best_here)
    return best_overall


def _dim3_anchors(a1: np.ndarray, a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    moduli = np.stack(
        [np.abs(np.cos(a1)), np.abs(np.sin(a1) * np.cos(a2)), np.abs(np.sin(a1) * np.sin(a2))],
        axis=-1,
    )
    order = np.argsort(moduli, axis=-1)
    return order[..., 0], order[..., 1]


def _oracle_dim3(b: np.ndarray, q: complex, p: float, res: int) -> tuple[float, float]:
    mp = min(res, 13)
    mc = min(res, 12)
    a1g = np.linspace(0.0, 0.5 * math.pi, mp)
    a2g = np.linspace(0.0, 0.5 * math.pi, mp)
    b1g = np.linspace(0.0, 2.0 * math.pi, mc, endpoint=False)
    b2g = np.linspace(0.0, 2.0 * math.pi, mc, endpoint=False)
    psig = np.linspace(0.0, 0.5 * math.pi, mp)
    if p == 0.0:
        phig = np.array([0.0])
        thetag = np.array([0.0])
    else:
        phig = np.linspace(0.0, 2.0 * math.pi, mc, endpoint=False)
        thetag = np.linspace(0.0, 2.0 * math.pi, mc, endpoint=False)

    xa1, xa2, xb1, xb2 = [v.ravel() for v in np.meshgrid(a1g, a2g, b1g, b2g, indexing="ij")]
    n_x = xa1.size
    k1, k2 = _dim3_anchors(xa1, xa2)

    spacing = {
        0: a1g[1] - a1g[0],
        1: a2g[1] - a2g[0],
        2: b1g[1] - b1g[0] if mc > 1 else 2.0 * math.pi,
        3: b2g[1] - b2g[0] if mc > 1 else 2.0 * math.pi,
        4: psig[1] - psig[0],
        5: phig[1] - phig[0] if phig.size > 1 else 2.0 * math.pi,
        6: thetag[1] - thetag[0] if thetag.size > 1 else 2.0 * math.pi,
    }

    hi, lo = -np.inf, np.inf
    hi_cands: list[tuple[tuple[float, ...], int, int]] = []
    lo_cands: list[tuple[tuple[float, ...], int, int]] = []
    chunk = 2048
    inner_shape = (psig.size, phig.size, thetag.size)
    psi_b = psig[None, :, None, None]
    phi_b = phig[None, None, :, None]
    theta_b = thetag[None, None, None, :]
    for start in range(0, n_x, chunk):
        sl = slice(start, min(start + chunk, n_x))
        coords = (
            xa1[sl][:, None, None, None],
            xa2[sl][:, None, None, None],
            xb1[sl][:, None, None, None],
            xb2[sl][:, None, None, None],
            psi_b,
            phi_b,
            theta_b,
        )
        vals = _dim3_values(b, q, p, coords, k1[sl][:, None, None, None], k2[sl][:, None, None, None])
        for cands, pick in ((hi_cands, np.argmax), (lo_cands, np.argmin)):
            flat = int(pick(vals))
            ix, rest = divmod(flat, int(np.prod(inner_shape)))
            ip, ifi, ith = np.unravel_index(rest, inner_shape)
            point = (
                float(xa1[sl][ix]),
                float(xa2[sl][ix]),
                float(xb1[sl][ix]),
                float(xb2[sl][ix]),
                float(psig[ip]),
                float(phig[ifi]),
                float(thetag[ith]),
            )
            cands.append((point, int(k1[sl][ix]), int(k2[sl][ix])))
        hi = max(hi, float(vals.flat[int(np.argmax(vals))]))
        lo = min(lo, float(vals.flat[int(np.argmin(vals))]))

    eval_fn = lambda coords, kk1, kk2: _dim3_values(b, q, p, coords, kk1, kk2)
    spacings = tuple(spacing[i] for i in range(7))
    hi = max(hi, _zoom(eval_fn, hi_cands, spacings, polar=(0, 1, 4), maximize=True))
    lo = min(lo, _zoom(eval_fn, lo_cands, spacings, polar=(0, 1, 4), maximize=False))
    return hi, lo
