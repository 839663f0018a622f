"""Estimators for weighted (q-)numerical radii and Crawford numbers.

All quantities are computed on the reduced operator B (standard inner product,
dimension n = rank of the weight), and every route runs on B / ||B||_F.  B
reaches unit size in two steps: an exact scaling to B 2^-e by
`semispace._unit_scale`, e the binary exponent of its largest real or
imaginary part, whose sum of squares can neither overflow nor underflow, then
the division by its norm; the value is scaled back by 2^e, and one beyond the
largest float raises a ValueError.  With
p = sqrt(1 - |q|^2), which `semispace._q_parts` derives with the check of q,
`_estimate` takes the first of three routes that applies:

- n = 2, or W(B) a segment [a, b] (B = e^{i phi} H + s I, H Hermitian, as for
  multiplication operators), any q: the 2x2 closed form on Python scalars,
  `exact.q_extremal_2x2`, two-sided, with a unit u attaining omega_q or c_q.
  On a segment both rules depend on u through the mean and the spread of H's
  spectrum under |u_i|^2, and the two-point law on its ends spreads most for
  its mean (Bhatia-Davis): the q-range is that of the compression to the end
  eigenvectors (`_segment`), accepted within 1e-12 ||B||_F of e^{i phi} H + s I,
  so that the value is within 3e-12 ||B||_F (both are sqrt(2)-Lipschitz).  A
  diagonal B (a multiplication operator under a diagonal weight) shows its end
  eigenvectors: they are standard basis vectors, and no eigensolver runs.
- p = 0 (|q| = 1 as given; one ulp below 1, p = 1.5e-8, is not): the phase
  bracket `_bracket`.  As W(B) is convex, omega_A and c_A are the max over phi
  of lambda_max and of max(0, lambda_min) of the Hermitian part H(e^{i phi} B).
  omega_A is its best sample, two-sided once the bracket closes; c_A takes the
  lower bound max(0, best lambda_min), two-sided once a witness built from the
  bracket's eigenvectors (`_crawford_witness`) attains it within 1e-12 ||B||_2.
- otherwise: the sphere search `_extremize`, whose suprema are lower bounds and
  infima upper bounds; an inf of exactly 0 is two-sided once its witness
  attains it within 1e-12 / sqrt(n) <= 1e-12 ||B||_2, as c_q >= 0.

For a unit vector u, the values attainable over all admissible partner vectors
form a circle (n = 2) or a full disk (n >= 3) of radius
``p * ||(I - u u^H) B u||`` centered at ``q <B u, u>``, so only the unit sphere
in u remains: `_extremize` is multi-start projected ascent, by BFGS steps at
reduced dimension 3 to 8, on one rule per estimator (`_rule`), whose value and
gradient cost one evaluation.  A restart that comes, no higher, to a peak an
earlier restart stopped at ends there, as in clustering multi-start methods
(MLSL).  Each estimate carries a witness pair (x, y) with ||x||_A = ||y||_A = 1
and <x, y>_A = q that attains the reported value; `_witness` builds the partner
of the route's u.  A certificate that falls short reports the point nearest 0
it found, an upper bound.

What depends on (A, T) alone is prepared once and shared by `aq_radius` and
`aq_crawford` at every q: `_prepare` holds B / ||B||_F (on the closed-form
route the 2x2 compression V^H B V instead), the basis V, the canonical form
of the closed form, ||B 2^-e||_F and e.  It keeps the last `_PREPARED` (8)
preparations in an LRU cache keyed by the weight object and T's bytes alone,
read in C order (they fix T's n x n shape, so a C and a Fortran copy of T
share one entry, and T changed in place keys anew); its arrays are read-only.
A miss starts from B 2^-e and e of `semispace._unit_reduction`, a cache of
the same key that `a_opnorm` shares, so the seminorm and both estimators of
one (A, T) reduce T once; T is rebuilt from the bytes there, so neither
cache keeps a reference to the caller's array, and a value and its
witnesses have the same bits whether either was cached or not.  Errors are
not cached: a call that raises raises again.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact import CanonicalForm2x2, _canonical, q_extremal_2x2
from .semispace import RankTooLow, Weight, _q_parts, _scale_back, _unit_reduction, as_operator

__all__ = [
    "Budget",
    "Estimate",
    "LOWER_BOUND_OF_SUP",
    "TWO_SIDED",
    "UPPER_BOUND_OF_INF",
    "a_crawford",
    "a_radius",
    "aq_crawford",
    "aq_radius",
]

LOWER_BOUND_OF_SUP = "lower_bound_of_sup"
UPPER_BOUND_OF_INF = "upper_bound_of_inf"
TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class Budget:
    """Sphere-search budget: restarts x iterations.

    A budget with more restarts draws the starts of one with fewer first, so
    its estimate is at least as good (best-so-far); the laws' re-run ladder
    raises the restarts by ``dataclasses.replace``.  No estimator reads
    `grid_resolution` (the |q| = 1 phase bracket refines until it closes); it
    stays, validated, for callers that still pass it.
    """

    restarts: int = 64
    iterations: int = 500
    grid_resolution: int = 256

    def __post_init__(self):
        fields = (self.restarts, self.iterations, self.grid_resolution)
        ints = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in fields)
        if not (ints and self.restarts >= 1 and self.iterations >= 1 and self.grid_resolution >= 4):
            raise ValueError(f"{self} needs restarts >= 1, iterations >= 1, grid_resolution >= 4 (ints)")
        for name, value in zip(("restarts", "iterations", "grid_resolution"), fields):
            object.__setattr__(self, name, int(value))  # plain ints, as JSON and np.empty take them


_DEFAULT_BUDGET = Budget()  # for calls made without one; frozen, so one instance serves them all


@dataclass
class Estimate:
    """A computed radius/Crawford value with its bound direction and witnesses.

    The witness pair re-produces `value` when plugged back into |<T x, y>_A|.
    A sphere search reports its rule `evaluations` (the start batch included)
    and how many restarts `converged` before the iteration cap: those its stop
    rule retired and those retired at a peak another restart had stopped at.
    The phase bracket at |q| = 1 reports the eigenproblems it solved (8 for
    its first 16 phases, one per later phase, and for omega_A one more at the
    best) and `converged = 1` when it closed, else 0.  A Crawford certificate
    adds no count: its 2x2 closed forms solve no eigenproblem, and its
    eigenvectors are the bracket's.  The closed form (reduced dimension 2, or
    W(B) a segment) reports `evaluations = 1` and `converged = 1`.  Both count
    the route's work alone: they are the same whether or not the preparation
    of (A, T) it ran on was cached (the module docstring).
    """

    value: float
    direction: str
    witness_x: np.ndarray
    witness_y: np.ndarray
    budget: Budget
    seed: int
    evaluations: int
    converged: int


def _normalize_rows(u: np.ndarray) -> np.ndarray:
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _rule(b: np.ndarray, absq: float, p: float, kind: str):
    """Rule of one estimator: unit rows u -> (value, gradient), `kind` "sup" or "disk".

    With c = <B u, u>, r = B u - c u and rho = ||r||, the sup rule is
    |q| |c| + p rho; the minus-inf (disk) rule takes t = |q| |c| - p rho to
    -max(t, 0), the inf over the disk of partner values at n >= 3.  Gradients
    are complex rows g = df/dRe(u) + i df/dIm(u) of the row-scale invariant
    extensions, so g is orthogonal to u.  Each rule is f = a1 |c| + a2 rho up to its sign, and
    a1 grad |c| + a2 grad rho, from

        grad |c| = (conj(c) r + c B^H u - |c|^2 u) / |c|,
        grad rho = (B^H r - conj(c) r - rho^2 u) / rho,

    is conj(c) (a1 / |c| - a2 / rho) r + B^H (a1 / |c| c u + a2 / rho r) - f u,
    since B^H is linear and a1 |c| + a2 rho is the value f itself.  The kink of
    each term (|c| = 0, rho = 0) zeroes its coefficient.  A step takes two
    products, B u (with B^T) and the B^H term (with conj(B)), and its row inner
    products by `np.vecdot`.  B^H r stays inside the B^H term, as
    B^H B u - conj(c) B^H u would cancel near rho = 0.
    """
    b_t, b_conj = b.T, b.conj()

    def rule(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bu = u @ b_t
        c = np.vecdot(u, bu)
        r = bu - c[:, None] * u
        abs_c = np.abs(c)
        rho = np.sqrt(np.vecdot(r, r).real)
        if kind == "sup":
            value, a1, a2 = absq * abs_c + p * rho, absq, p
        else:
            t = absq * abs_c - p * rho
            slope = (t > 0.0).astype(float)
            value = -np.maximum(t, 0.0)
            a1, a2 = -slope * absq, slope * p
        a1_c = np.divide(a1, abs_c, out=np.zeros(c.shape), where=abs_c > 0.0)
        a2_rho = np.divide(a2, rho, out=np.zeros(c.shape), where=rho > 0.0)
        grad = ((a1_c * c)[:, None] * u + a2_rho[:, None] * r) @ b_conj
        grad += (c.conj() * (a1_c - a2_rho))[:, None] * r - value[:, None] * u
        return value, grad

    return rule


# A restart ends once its last this many steps raised its value by <= 1e-12:
# at a kink of the disk rule (t = 0 or rho = 0) the gradient does not vanish,
# and near a flat peak it falls too slowly for the gradient test.  At the
# default budget, on 80 searches at |q| < 1 (n = 3-8, "sup" and "disk"), the
# window cut the rule evaluations from 14383 to 3137, values within 1.9e-13.
_STALL_STEPS = 20
# Reduced dimensions up to this take BFGS steps (see `_extremize`).  On the 57 sup
# searches at n = 5-8 of a law suite pass (seed 77) at Budget(6, 47), gradient steps
# ran to the cap (46.8 evaluations, 2.2 of 6 restarts converged) and BFGS steps did
# not (25.5, 5.8), in 1.86 against 1.99 ms a call on a 2-core machine; 4.69 against
# 6.41 ms at Budget(32, 250), 6.95 against 7.87 at the default.  At n = 16 and 32 the
# 2n x 2n metric costs more (8.26 against 4.57 ms a call at Budget(6, 60)).
_BFGS_DIM = 8
# A live restart ends at a found peak once |<u_i, u_j>| > 1 - this (see `_extremize`).
# On 400 draws (five kinds of B, n = 3-8 and 16), sup searches at Budget(6, 47),
# (16, 200) and (64, 500) took 33.6, 72.1 and 129.1 evaluations without the test and
# 29.7, 62.2 and 112.4 with it, values within 3.7e-14; at 0.5 they took 28.2, 49.8 and
# 84.7, but a restart bound for a higher peak ends once it passes 0.5 near a lower one.
_SAME_PEAK = 1e-2


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


def _bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray, ok: np.ndarray) -> None:
    """Update, in place, the inverse-Hessian estimates h (one 2n x 2n real matrix per row).

    s is each row's step and y the fall of its gradient (the rise of the gradient
    of -f), complex rows read as real 2n-vectors.  Only accepted rows (`ok`)
    whose curvature s.y exceeds 1e-10 |s|^2 update, which keeps every h
    positive definite:

        h <- h + s ((rho^2 y.h y + rho) s - rho h y)^T - (rho h y) s^T,  rho = 1 / s.y.
    """
    s, y = s.view(np.float64), y.view(np.float64)
    sy = np.vecdot(s, y)
    rho = np.divide(1.0, sy, out=np.zeros(sy.shape), where=ok & (sy > 1e-10 * np.vecdot(s, s)))
    rho_hy = rho[:, None] * (h @ y[:, :, None])[:, :, 0]
    c = rho * (1.0 + np.vecdot(y, rho_hy))
    h += s[:, :, None] * (c[:, None] * s - rho_hy)[:, None, :]
    h -= rho_hy[:, :, None] * s[:, None, :]


def _extremize(
    value_grad, dim: int, budget: Budget, seed: int, bfgs: bool = False
) -> tuple[float, np.ndarray, int, int]:
    """Multi-start projected ascent of a rule (`_rule`) over the unit sphere in C^dim.

    The restarts start from a copy of the cached, read-only `_starts` rows.  The
    working set holds only the live restarts: each step evaluates all of them
    once, keeps the accepted candidates and their gradients for the next step,
    so every restart's value only rises.  A step moves u by its length times a
    direction d and renormalizes; it is accepted when it raises the value by at
    least 1e-4 times its length times the slope g.d (Armijo), and the length
    halves when it is not.

    - Gradient steps: d = g; the length starts at 1 and grows by 1.3 when
      accepted.  A restart stops once ||g||^2 <= 1e-24 (an exact plateau).
      Their rate is linear and set by the conditioning of the peak, so a
      restart may take anywhere from 40 steps to the whole budget.
    - BFGS steps (`bfgs`): d = H g, with H per restart an estimate of the
      inverse Hessian of -f in the 2 dim real coordinates (`_bfgs_update`), the
      identity until its first update.  An accepted step sets the next length
      to 1; a rejected one also resets H, so the retry is a gradient step.  The
      rate is superlinear, so a restart stops once ||g||^2 <= 1e-16, which on
      B / ||B||_F leaves its value about 1e-16 / curvature below the peak,
      after about 20 steps whatever the conditioning.

    Either way a restart also stops once its last `_STALL_STEPS` steps raised
    its value by <= 1e-12; a ring buffer of the last `_STALL_STEPS` values
    serves that test.  The restarts it retires mark found peaks, u and value
    kept; once one exists, each step also retires every live restart i at a
    found peak j, |<u_i, u_j>| > 1 - `_SAME_PEAK`, and no higher, f_i <= f_j +
    1e-12 (MLSL's basin test, Rinnooy Kan and Timmer 1987), by one (live x
    found) product.  Such a restart marks no peak: it did not stop by itself.
    When every live restart accepts, the candidate arrays replace the working
    set; otherwise the accepted rows are copied in place.  Squared gradient
    norms (`np.vecdot`) are carried with the rows.  A retired restart goes to
    the result arrays and leaves the working set.  Returns the best value
    found, its unit argument, the number of rule evaluations (the start batch
    included) and the number of restarts retired before the iteration cap.
    """
    u = _starts(seed, budget.restarts, dim).copy()
    f, grad = value_grad(u)
    gsq = np.vecdot(grad, grad).real
    evaluations, converged = 1, 0
    best_f = np.empty(budget.restarts)
    best_u = np.empty((budget.restarts, dim), dtype=complex)
    index = np.arange(budget.restarts)
    alpha = np.ones(budget.restarts)
    ring = np.empty((_STALL_STEPS, budget.restarts))
    tol = 1e-16 if bfgs else 1e-24
    eye = np.eye(2 * dim) if bfgs else None
    h = None  # the BFGS estimates, built at the first update
    peak_f, peak_conj = np.empty(0), np.empty((0, dim), dtype=complex)  # found peaks, conjugated

    for step in range(budget.iterations):
        keep = gsq > tol
        slot = step % _STALL_STEPS
        if step >= _STALL_STEPS:
            keep &= f - ring[slot] > 1e-12
        ring[slot] = f
        live = int(np.count_nonzero(keep))
        if 0 < live < index.size:  # the restarts that stopped by themselves mark peaks
            peak_f, peak_conj = np.concatenate([peak_f, f[~keep]]), np.concatenate([peak_conj, u[~keep].conj()])
        if live and peak_f.size:  # a restart at a found peak, and no higher, ends there
            near = np.abs(u @ peak_conj.T) > 1.0 - _SAME_PEAK
            keep &= ~(near & (f[:, None] <= peak_f + 1e-12)).any(axis=1)
            live = int(np.count_nonzero(keep))
        if live < index.size:
            stop = ~keep
            best_f[index[stop]], best_u[index[stop]] = f[stop], u[stop]
            converged += index.size - live
            u, f, grad, gsq = u[keep], f[keep], grad[keep], gsq[keep]
            alpha, index, ring = alpha[keep], index[keep], ring[:, keep]
            if h is not None:
                h = h[keep]
            if live == 0:
                break
        if h is None:
            d, slope = grad, gsq
        else:
            d = (h @ grad.view(np.float64)[:, :, None])[:, :, 0].view(np.complex128)
            slope = np.maximum(np.vecdot(grad, d).real, 0.0)
        cand = u + alpha[:, None] * d
        cand /= np.sqrt(np.vecdot(cand, cand).real)[:, None]
        f_cand, g_cand = value_grad(cand)
        g_cand_sq = np.vecdot(g_cand, g_cand).real
        evaluations += 1
        ok = f_cand >= f + 1e-4 * alpha * slope
        if bfgs:
            if h is None:
                h = np.tile(eye, (live, 1, 1))
            _bfgs_update(h, cand - u, grad - g_cand, ok)
        if np.count_nonzero(ok) == live:
            u, f, grad, gsq = cand, f_cand, g_cand, g_cand_sq
            alpha = np.ones(live) if bfgs else alpha * 1.3
        else:
            rows = ok[:, None]
            np.copyto(u, cand, where=rows)
            np.copyto(f, f_cand, where=ok)
            np.copyto(grad, g_cand, where=rows)
            np.copyto(gsq, g_cand_sq, where=ok)
            if bfgs:
                np.copyto(h, eye, where=~rows[:, :, None])
            alpha = np.where(ok, 1.0 if bfgs else 1.3 * alpha, 0.5 * alpha)

    best_f[index], best_u[index] = f, u
    idx = int(np.argmax(best_f))
    return float(best_f[idx]), best_u[idx], evaluations, converged


def _orth_unit(u: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """A unit vector orthogonal to the orthonormal u (and w): the normalized residual
    of the standard basis vector they overlap least, which has the largest residual."""
    k = int(np.argmin(np.abs(u) if w is None else np.hypot(np.abs(u), np.abs(w))))
    cand = u * -u[k].conjugate()
    if w is not None:
        cand -= w * w[k].conjugate()
    cand[k] += 1.0
    return cand / math.sqrt(np.vdot(cand, cand).real)


def _witness(b: np.ndarray, u: np.ndarray, q: complex, p: float, sup: bool) -> np.ndarray:
    """Reduced partner v with <u, v> = q and |v^H B u| the sup (or inf) over u's partner values.

    v = conj(q) u +- p conj(d) w, d the phase of q c, w a unit vector orthogonal to u:
    w^H B u = rho along the residual (made orthogonal to u by one Gram-Schmidt pass),
    beta rho when the disk tilts w out of it; at n >= 3, B has ||B||_F = 1 (`_prepare`), and
    a rho up to 1e-14 counts as 0.  At n = 2 the partner values form a circle,
    whose inf is | |q| |c| - p rho |, and w is u's complement (-conj(u1), conj(u0)), on scalars.
    """
    if u.size == 1 or p == 0.0:
        return np.conj(q) * u
    if u.size == 2:  # w spans the complement of u exactly, however small rho is
        ((b00, b01), (b10, b11)), (u0, u1) = b.tolist(), u.tolist()
        bu0, bu1 = b00 * u0 + b01 * u1, b10 * u0 + b11 * u1
        qc = q * (u0.conjugate() * bu0 + u1.conjugate() * bu1)
        tilt = cmath.rect(p if sup else -p, cmath.phase(u0 * bu1 - u1 * bu0) - cmath.phase(qc))  # the first is w^H B u
        return np.array([q.conjugate() * u0 - tilt * u1.conjugate(), q.conjugate() * u1 + tilt * u0.conjugate()])
    bu = b @ u
    c = complex(u.conj() @ bu)
    qc = q * c
    d = cmath.rect(1.0, cmath.phase(qc))  # of modulus 1 also for a subnormal q c, unlike q c / |q c|
    resid = bu - c * u
    resid -= np.vdot(u, resid) * u
    rho = float(np.linalg.norm(resid))
    if rho <= 1e-14:  # relative to ||B||_F, so that T -> cT keeps the branch
        return np.conj(q) * u + p * np.conj(d) * _orth_unit(u)
    w = resid / rho
    if sup:
        return np.conj(q) * u + p * np.conj(d) * w
    beta = min(1.0, abs(qc) / (p * rho))
    w = beta * w + math.sqrt(max(0.0, 1.0 - beta * beta)) * _orth_unit(u, w)
    return np.conj(q) * u - p * np.conj(d) * w


_BRACKET_PHASES = 16  # phases of the bracket's first level: cells of pi / 8
_BRACKET_CAP = 128  # the most eigenproblems a bracket solves
_SPLIT = 0.99  # a cell splits within this share of its half-width from its centre


def _hermitian(b: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """H(e^{i phi} B) at each of the phases, stacked."""
    rot = np.exp(1j * phases)[:, None, None]
    return 0.5 * (rot * b + rot.conj() * b.conj().T)


def _cell_bounds(eta: np.ndarray, za: np.ndarray, zb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over |t| <= eta of min(Re(e^{it} za), Re(e^{it} zb)) per cell, and offsets t to split the cell at.

    A min of two sinusoids peaks at an end, where they cross or where one of
    them peaks; clipped into the cell, the best of these candidates is its max
    and the first split.  The second is the zero of the secant of the slopes
    -Im(e^{it} z) at the ends (the centre unless they rise and then fall).  At
    a parabola's peak the secant is exact, at a kink the crossing.
    """
    d = za - zb
    cross = np.arctan2(d.real, d.imag)  # Re(e^{it} d) = 0
    cross -= np.pi * np.round(cross / np.pi)
    t = np.clip(np.stack([-eta, eta, cross, -np.angle(za), -np.angle(zb)]), -eta, eta)
    turn = np.exp(1j * t)
    vals = np.minimum((turn * za).real, (turn * zb).real)
    slope_lo, slope_hi = -(turn[0] * za).imag, -(turn[1] * zb).imag
    peaked = (slope_lo > 0.0) & (slope_hi < 0.0)
    secant = np.divide(eta * (slope_lo + slope_hi), slope_lo - slope_hi, out=np.zeros(eta.size), where=peaked)
    best, cols = np.argmax(vals, axis=0), np.arange(eta.size)
    return vals[best, cols], np.stack([t[best, cols], secant])


def _bracket(b: np.ndarray, smallest: bool) -> tuple[float, float, np.ndarray, np.ndarray, int, int]:
    """Bracket [lower, upper] of the max over phi of lambda_max (or of max(0, lambda_min)) of H(e^{i phi} B).

    Each level bounds lambda on every open cell between sampled phases from
    its ends, with eta its half-width and t the offset from its centre:

    - lambda_max is the support function of W(B), so W(B) lies in the wedge of
      the supporting lines at the ends, and lambda_max <= alpha cos t + beta sin t,
      alpha = (h_lo + h_hi) / (2 cos eta), beta = (h_hi - h_lo) / (2 sin eta)
      (Johnson's outer polygon); the cell splits at its argmax.
    - lambda_min is the least of Re(e^{i phi} z) over W(B), so it is at most
      min(Re(e^{i phi} z_lo), Re(e^{i phi} z_hi)) at the ends' points
      z = v^H B v (the inner polygon, `_cell_bounds`).

    Both exceed lambda by O(eta^2) near a smooth peak.  A cell closes once its
    bound is within tol of the best sample (for lambda_min, of max(0, best));
    the others split, within `_SPLIT` of eta from the centre, and one stacked
    `eigvalsh` (lambda_max) or `eigh` (lambda_min) solves the new phases.  The
    first level's 16 phases take 8 eigenproblems, as H at phi + pi is -H at phi.
    tol is 1e-12 times the largest |lambda| of the first level: at most
    ||B||_2, at least cos(pi / 16) omega_A >= ||B||_2 / 2.1.  The bracket ends
    closed (no open cell: upper - lower <= tol) or, open, before a level that
    would pass `_BRACKET_CAP` eigenproblems; the max lies in it up to the
    eigensolver's backward error, about n eps ||B||_2.  Also returns the unit
    eigenvectors (ascending eigenvalues) at the best phase (for lambda_max
    from one more `eigh`), the extreme eigenvectors at every phase `eigh`
    solved, the eigenproblems solved, and 1 if closed, else 0.
    """
    best, best_phase, vectors, rows = -math.inf, 0.0, None, []

    def solve(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Eigenvalues (ascending) of H(e^{i phi} B) at the phases, and for lambda_min the eigenvectors."""
        h = _hermitian(b, phases)
        return np.linalg.eigh(h) if smallest else (np.linalg.eigvalsh(h), None)

    def record(phases: np.ndarray, vals: np.ndarray, vecs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The samples and, for lambda_min, the points z at the phases; keeps the best and the rows."""
        nonlocal best, best_phase, vectors
        k = 0 if smallest else -1
        i = int(np.argmax(vals[:, k]))
        if vals[i, k] > best:
            best, best_phase, vectors = float(vals[i, k]), float(phases[i]), None if vecs is None else vecs[i]
        if vecs is None:
            return vals[:, k], np.zeros(phases.size)
        rows.append(vecs[:, :, 0])
        return vals[:, 0], np.vecdot(rows[-1], rows[-1] @ b.T)

    phase = (2.0 * math.pi / _BRACKET_PHASES) * np.arange(_BRACKET_PHASES + 1)
    vals, vecs = solve(phase[: _BRACKET_PHASES // 2])  # H at phi + pi is -H at phi, in reverse order
    vals = np.concatenate([vals, -vals[:, ::-1]])
    vecs = vecs if vecs is None else np.concatenate([vecs, vecs[:, :, ::-1]])
    h, z = record(phase[:-1], vals, vecs)
    tol, evaluations = 1e-12 * float(np.abs(h).max()), _BRACKET_PHASES // 2
    # the open cells: their end phases, the samples there and, for lambda_min, the ends' points
    lo, hi, h_lo, h_hi, z_lo, z_hi = phase[:-1], phase[1:], h, np.roll(h, -1), z, np.roll(z, -1)
    top = -math.inf  # the largest bound of a closed cell
    while True:
        floor = max(best, 0.0) if smallest else best
        centre, eta = 0.5 * (hi + lo), 0.5 * (hi - lo)
        if smallest:
            turn = np.exp(1j * centre)
            bound, split = _cell_bounds(eta, turn * z_lo, turn * z_hi)
        else:
            alpha, beta = (h_lo + h_hi) / (2.0 * np.cos(eta)), (h_hi - h_lo) / (2.0 * np.sin(eta))
            split = np.arctan2(beta, alpha)[None]
            bound = np.where(np.abs(split[0]) <= eta, np.hypot(alpha, beta), np.maximum(h_lo, h_hi))
        keep = bound > floor + tol
        top = max(top, float(bound[~keep].max(initial=-math.inf)))
        if not keep.any() or evaluations + split.shape[0] * np.count_nonzero(keep) > _BRACKET_CAP:
            break
        lo, hi, h_lo, h_hi, z_lo, z_hi = lo[keep], hi[keep], h_lo[keep], h_hi[keep], z_lo[keep], z_hi[keep]
        eta = _SPLIT * eta[keep]
        new = (centre[keep] + np.sort(np.clip(split[:, keep], -eta, eta), axis=0)).ravel()
        h_new, z_new = record(new, *solve(new))
        evaluations += new.size
        # new holds each cell's first splits, then its second ones: the pieces pair them up in order
        lo, hi = np.concatenate([lo, new]), np.concatenate([new, hi])
        h_lo, h_hi = np.concatenate([h_lo, h_new]), np.concatenate([h_new, h_hi])
        z_lo, z_hi = np.concatenate([z_lo, z_new]), np.concatenate([z_new, z_hi])
    upper = max(floor, top, float(bound[keep].max(initial=-math.inf)))
    if not smallest:
        vectors = np.linalg.eigh(_hermitian(b, np.array([best_phase])))[1][0]
        rows.append(vectors[:, -1][None])
    return floor, upper, vectors, np.concatenate(rows), evaluations + (not smallest), int(not keep.any())


def _nearest_in_span(b: np.ndarray, basis: np.ndarray, w: complex = 0.0) -> np.ndarray:
    """Unit u in the span of two orthonormal columns with u^H B u the point of that compression's range nearest w.

    The range of the 2x2 compression C = basis^H B basis is an ellipse inside
    W(B), and the Crawford closed form of C - w I (`exact.q_extremal_2x2` at
    q = 1) gives the point nearest w with a unit vector that attains it.
    """
    c = basis.conj().T @ b @ basis - w * np.eye(2)
    return basis @ q_extremal_2x2(_canonical(c), 1.0, False)[1]


def _crawford_witness(b: np.ndarray, lower: float, vectors: np.ndarray, rows: np.ndarray, tol: float) -> np.ndarray:
    """Unit u with |u^H B u| within tol of `lower`, or the nearest to 0 found (the module docstring).

    `lower`, `vectors` and `rows` are the bracket's lower bound, eigenvectors
    at the best phase and lambda_min eigenvectors.  The lambda_min eigenvector
    at the best phase attains c_A, unless c_A = 0 or two eigenvalues cross
    there.  Else the points z = v^H B v of the rows and of the second lowest
    eigenvector at the best phase lie in W(B).  Where 0 lies in their hull: for
    each z_a and each pair z_i, z_j on either side of the ray from 0 away from
    z_a (within tol of it counts as on it, as for the nearly collinear points
    of a B just outside `_segment`'s test), the chord [z_i, z_j] crosses the
    ray at w, if at all; the triple whose shorter leg min(|z_a|, |w|) is
    longest is taken.  A vector of span(v_i, v_j) attains w, and one of the
    span of v_a and that vector attains the point nearest 0 of a range that
    holds [z_a, w], and with it 0.  Else the hull's point nearest 0, within the
    bracket's upper bound of 0, is on the chord nearest 0 (at a crossing, that
    of the two lowest eigenvectors), and the span of its two vectors has a
    point as near.  QR gives each span an orthonormal basis, also for parallel
    vectors.
    """
    u = vectors[:, 0]
    if abs(np.vdot(u, b @ u)) - lower <= tol:
        return u
    rows = np.vstack([rows, vectors[:, 1:2].T])  # none at n = 1
    z = np.vecdot(rows, rows @ b.T)
    size = np.abs(z)
    ray = np.divide(-z.conj(), size, out=np.zeros_like(z), where=size > 0.0)  # turns -z_a to the positive reals
    zeta = ray[:, None] * z
    side = np.where(np.abs(zeta.imag) <= tol, 0.0, zeta.imag)  # collinear points sit on the ray
    up, down = side[:, :, None], side[:, None, :]  # (a, i, j)
    frac = np.divide(up, up - down, out=np.zeros((z.size,) * 3), where=up > down)  # weight of z_j
    cross = (1.0 - frac) * zeta.real[:, :, None] + frac * zeta.real[:, None, :]
    leg = np.where((up >= 0.0) & (down <= 0.0), np.minimum(cross, size[:, None, None]), -np.inf)
    a, i, j = np.unravel_index(int(np.argmax(leg)), leg.shape)
    found = []
    if leg[a, i, j] > 0.0:
        x = _nearest_in_span(b, np.linalg.qr(rows[[i, j]].T)[0], cross[a, i, j] * ray[a].conjugate())
        found.append(_nearest_in_span(b, np.linalg.qr(np.stack([rows[a], x], axis=1))[0]))
    step = z[None, :] - z[:, None]  # z_j - z_i
    dd = np.abs(step) ** 2
    along = np.clip(np.divide(-(step.conj() * z[:, None]).real, dd, out=np.zeros(dd.shape), where=dd > 0.0), 0.0, 1.0)
    i, j = np.unravel_index(int(np.argmin(np.abs(z[:, None] + along * step))), dd.shape)
    found.append(_nearest_in_span(b, np.linalg.qr(rows[[i, j]].T)[0]))
    rows = np.concatenate([rows, found])
    return rows[int(np.argmin(np.abs(np.vecdot(rows, rows @ b.T))))]


def _frobenius(x: np.ndarray) -> float:
    """||x||_F, numpy's norm term for term without its argument handling, which costs a 2x2 estimate
    about as much as the scaling does."""
    flat = x.ravel()
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _segment(b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The closed form's 2x2 matrix V^H B V and basis V where W(B) is a segment, else None; at n = 2, (B, None).

    At n >= 3, with s = tr B / n, C = B - s I and e^{2 i phi} the phase of tr(C^2)
    (1 if it is 0), g = e^{-i phi} C must have ||(g - g^H) / 2||_F <= 1e-12; V holds
    the extreme eigenvectors of (g + g^H) / 2.  ||b_ij| - |b_ji|| is at most sqrt(2)
    times that, so a larger gap, at (0, 1) first, rejects B at less cost.  Where
    every off-diagonal entry of B is exactly 0, as for a multiplication operator
    under a diagonal weight, (g + g^H) / 2 is the diagonal Re diag(g), and V is
    read off it without an eigensolver: the standard basis vectors at its last
    largest and its first smallest entry, k and j, with V^H B V = diag(b_kk, b_jj).
    """
    n = b.shape[0]
    if n == 2:
        return b, None
    if n < 3 or abs(abs(b[0, 1]) - abs(b[1, 0])) > 2e-12:
        return None
    mod = np.abs(b)
    if np.abs(mod - mod.T).max() > 2e-12:
        return None
    c = b.copy()
    c.ravel()[:: n + 1] -= np.trace(b) / n  # the shift touches the diagonal alone
    square = complex(np.sum(c * c.T))  # tr(C^2) = e^{2 i phi} ||g||_F^2
    g = c * (cmath.sqrt(square / abs(square)).conjugate() if square else 1.0)
    g_h = g.conj().T
    if _frobenius(g - g_h) > 2e-12:
        return None
    if not b.ravel()[1:].reshape(n - 1, n + 1)[:, :n].any():  # the off-diagonal entries, row by row
        h = g.diagonal().real
        k, j = n - 1 - int(np.argmax(h[::-1])), int(np.argmin(h))
        v = np.zeros((n, 2), dtype=complex)
        v[k, 0] = v[j, 1] = 1.0
        return np.array([[b[k, k], 0.0], [0.0, b[j, j]]]), v
    v = np.linalg.eigh(0.5 * (g + g_h))[1][:, [-1, 0]]
    return v.conj().T @ b @ v, v


_PREPARED = 8  # the (weight, operator) preparations `_prepare` keeps


@functools.lru_cache(maxsize=_PREPARED)
def _prepare(w: Weight, key: bytes) -> tuple[np.ndarray, np.ndarray | None, CanonicalForm2x2 | None, float, int]:
    """What an estimate of T under A needs before q (the module docstring): b, basis, form, size and e.

    key is the bytes of T, n x n complex in C order, and B 2^-e and e come from
    `semispace._unit_reduction(w, key)`, whose cached array the division leaves as it is.  b is
    B / ||B||_F of B 2^-e (on the closed-form route its compression V^H b V), basis is V where
    W(B) is a segment at n >= 3, form is the canonical form of the closed form, and size is
    ||B 2^-e||_F.  The arrays are read-only.
    """
    b, e = _unit_reduction(w, key)  # read-only and shared with `a_opnorm`: the division makes b anew
    # both values scale with T: every route runs on B / ||B||_F, whose sum of squares at 2^-e can
    # neither overflow nor underflow
    size = _frobenius(b) or 1.0
    b = b / size
    basis = form = None
    if (segment := _segment(b)) is not None:  # the q-range is that of C = V^H B V: its closed form
        b, basis = segment  # (V v)^H B (V u) = v^H C u, so the route finds u and v for C and V maps them
        form = _canonical(b)
        form.u_similar.setflags(write=False)
    for a in (b, basis):
        if a is not None:
            a.setflags(write=False)
    return b, basis, form, size, e


def _estimate(w: Weight, t, q, budget: Budget | None, seed: int, sup: bool) -> Estimate:
    """The sup (or the inf) of |<T x, y>_A| and its witness pair, by the route of the module docstring."""
    q, m, p = _q_parts(q)
    budget = budget or _DEFAULT_BUDGET
    b, basis, form, size, e = _prepare(w, as_operator(t).tobytes())
    if w.rank < 2 and 1.0 - m > 1e-12:
        raise RankTooLow(f"weight rank {w.rank} < 2: the constraint set is empty for |q| < 1")
    lower = None  # a lower bound of the inf, two-sided once a witness attains it
    if form is not None:
        value, u = q_extremal_2x2(form, q, sup)
        direction, evaluations, converged = TWO_SIDED, 1, 1
    elif p == 0.0:
        value, _, vectors, rows, evaluations, converged = _bracket(b, not sup)
        if sup:
            u, direction = vectors[:, -1], TWO_SIDED if converged else LOWER_BOUND_OF_SUP
        else:
            lower, tol = value, 1e-12 * np.linalg.norm(b, 2)
            u = _crawford_witness(b, lower, vectors, rows, tol)
            value, direction = float(abs(np.vdot(u, b @ u))), UPPER_BOUND_OF_INF
    else:
        kind = "sup" if sup else "disk"
        value, u, evaluations, converged = _extremize(
            _rule(b, m, p, kind), b.shape[0], budget, seed, b.shape[0] <= _BFGS_DIM
        )
        value, direction = (value, LOWER_BOUND_OF_SUP) if sup else (-value, UPPER_BOUND_OF_INF)
        if value == 0.0 and not sup:  # c_q >= 0; 1 / sqrt(n) <= ||B||_2 needs no SVD
            lower, tol = 0.0, 1e-12 / math.sqrt(b.shape[0])
    v = _witness(b, u, q, p, sup)
    if lower is not None and abs(np.vdot(v, b @ u)) - lower <= tol:
        value, direction = lower, TWO_SIDED
    u, v = (u, v) if basis is None else (basis @ u, basis @ v)
    x, y = w._lift(u), w._lift(v)
    return Estimate(_scale_back(size * value, e), direction, x, y, budget, seed, evaluations, converged)


def aq_radius(w: Weight, t, q, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Estimate of the weighted q-numerical radius: two-sided at reduced dimension 2, on a segment or at |q| = 1.

    The closed form at reduced dimension 2 or where W(B) is a segment (a
    rotated, shifted Hermitian B), the phase bracket at |q| = 1 (a lower bound
    where its phase cap ends it open), and otherwise a lower bound: the max of
    ``|q <B u, u>| + sqrt(1 - |q|^2) ||(I - u u^H) B u||`` over unit u in the
    reduced space by multi-start projected ascent from Gaussian starts.  The returned witnesses are an
    exact constraint pair attaining the reported value.
    """
    return _estimate(w, t, q, budget, seed, sup=True)


def aq_crawford(w: Weight, t, q, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Estimate of the weighted q-Crawford number: two-sided at reduced dimension 2, on a segment or at |q| = 1.

    Reduced dimension 2 and a segment W(B) take the closed form, 0 where the
    ellipse-disk range holds the origin, with a witness pair attaining it.  At
    |q| = 1 the phase bracket gives the lower bound max(0, max_phi lambda_min),
    two-sided where a witness attains it; one built from 2x2 closed forms on
    the bracket's eigenvectors serves c_A = 0 and eigenvalue crossings.  Otherwise the sphere search
    minimizes over unit u, where the partner values fill a disk and the inner
    minimum clamps at zero; a value of exactly 0 whose witness pair attains it
    is two-sided too, since c_q >= 0.
    """
    return _estimate(w, t, q, budget, seed, sup=False)


def a_radius(w: Weight, t, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Weighted numerical radius: the q-radius estimator at q = 1, two-sided once its phase bracket closes."""
    return aq_radius(w, t, 1.0, budget=budget, seed=seed)


def a_crawford(w: Weight, t, budget: Budget | None = None, seed: int = 0) -> Estimate:
    """Weighted Crawford number: the q-Crawford estimator specialized to q = 1."""
    return aq_crawford(w, t, 1.0, budget=budget, seed=seed)

