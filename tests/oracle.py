"""Brute-force grid oracle for cross-checking the sphere estimators in tests.

Evaluates |<T x, y>_A| = |v^H B u| directly on a product grid of the raw
(x, z, theta) pair parameterization, y = conj(q) x + p e^{i theta} z with z
orthogonal to x; it never forms the collapsed center/spread objective that the
estimators in ``aqradius.radius`` maximize, and uses only the public API.
"""

from __future__ import annotations

import math

import numpy as np

from aqradius import RankTooLow, Weight, reduce_to_range, validate_q


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
    if w.rank < 2 and abs(abs(q) - 1.0) > 1e-12:
        raise RankTooLow(f"weight rank {w.rank} < 2: the constraint set is empty for |q| < 1")
    p = math.sqrt(max(0.0, 1.0 - abs(q) ** 2))
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
