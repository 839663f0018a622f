"""Independent references and value checks for the benchmark's computed values.

Nothing here calls ``aqradius`` except :func:`closed_form_2x2` and
:func:`shifted_jordan3`, which wrap the package's closed forms (``exact``) that the
workloads use as references.  The weighted reduction, the operator seminorm
and the q = 1 phase sweeps are written out here so that they do not share code
with the estimators they check.

Tolerances are relative: reference agreement and witness values to
``||T||_A``, constraint residuals to ``||A||`` times the size of the vectors
involved, so scaling the weight by 1e-8 or 1e8 does not change a verdict.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

REF_RTOL = 1e-6  # agreement with a reference, relative to ||T||_A
WITNESS_RTOL = 1e-8  # witness value and constraint residuals
ORDER_RTOL = 1e-9  # c_q <= omega_q <= ||T||_A


@dataclass
class Outcome:
    """Verdict on one item: values, references, agreement count and failures.

    ``problems`` are values the benchmark finds wrong; ``reported`` are
    failures the program reports itself (an exception, a law its own suite
    finds violated).  Both fail the item; only ``problems`` make the run's
    verdict ``correct`` false.
    """

    values: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    compared: int = 0
    agreed: int = 0
    problems: list[str] = field(default_factory=list)
    reported: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems or self.reported)

    def compare(self, key: str, value: float, ref: float, scale: float, exact=False) -> None:
        """Record value against ref; agreement is within REF_RTOL * scale.

        With ``exact`` the reference is a closed form the estimate must meet,
        so a miss is also a problem.
        """
        self.values[key] = value
        self.refs[key] = ref
        self.compared += 1
        if abs(value - ref) <= REF_RTOL * max(scale, 1e-300):
            self.agreed += 1
        elif exact:
            self.problems.append(f"{key} = {value:.12g} misses the closed form {ref:.12g}")


def digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.complex128)).tobytes())
    return h.hexdigest()[:12]


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_q(rng: np.random.Generator, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * complex(np.exp(2j * math.pi * rng.random()))


def embed(rng: np.random.Generator, b0: np.ndarray, n: int, scale: float):
    """Weight A (rank = size of b0) on C^n and T whose weighted reduction is b0.

    With A = c U_r S^2 U_r^H, T = U_r S^-1 b0 S U_r^H + (a block mapping null(A)
    into itself), the reduction S_r V_r^H T V_r S_r^-1 is unitarily similar to
    b0, so every weighted quantity of T equals the standard one of b0.
    """
    r = b0.shape[0]
    u = random_unitary(rng, n)
    ur, un = u[:, :r], u[:, r:]
    s = np.exp(rng.uniform(math.log(0.1), math.log(10.0), r))
    a = scale * (ur * s**2) @ ur.conj().T
    t = (ur / s) @ b0 @ (s[:, None] * ur.conj().T)
    if n > r:
        t = t + un @ crandn(rng, n - r, n - r) @ un.conj().T
    return 0.5 * (a + a.conj().T), t


def reduce(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The weighted reduction S V^H T V S^-1 on range(A), written independently."""
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    keep = vals > 1e-10 * vals.max()
    v, s = vecs[:, keep], np.sqrt(vals[keep])
    return (s[:, None] * (v.conj().T @ t @ v)) / s[None, :]


def opnorm(b: np.ndarray) -> float:
    return float(np.linalg.norm(b, 2))


def phase_extreme(b: np.ndarray, smallest: bool) -> float:
    """max over phi of lambda_max (or lambda_min) of Re(e^{-i phi} B).

    lambda_max gives the numerical radius (q = 1 radius); max(0, .) of the
    lambda_min version is the distance from 0 to the numerical range (q = 1
    Crawford number).  A 1024-point grid locates the local maxima, each of
    which is refined by a bounded scalar search.
    """
    bh = b.conj().T
    pick = 0 if smallest else -1

    def lam(phi):
        e = np.exp(-1j * np.asarray(phi))[..., None, None]
        return np.linalg.eigvalsh(0.5 * (e * b + np.conj(e) * bh))[..., pick]

    grid = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    vals = lam(grid)
    step = grid[1] - grid[0]
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    best = float(vals.max())
    for i in peaks[np.argsort(vals[peaks])[::-1][:4]]:
        res = minimize_scalar(
            lambda phi: -float(lam(phi)),
            bounds=(grid[i] - step, grid[i] + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        best = max(best, -float(res.fun))
    return best


def check_witness(out: Outcome, key: str, a, t, q, est, norm_t: float) -> None:
    """The witness pair is A-unit, has <x, y>_A = q and reproduces the value."""
    x = np.asarray(est.witness_x, dtype=np.complex128)
    y = np.asarray(est.witness_y, dtype=np.complex128)
    norm_a = float(np.linalg.norm(a, 2))
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    tx = t @ x
    got = abs(complex(y.conj() @ (a @ tx)))
    tol = WITNESS_RTOL * max(norm_t, norm_a * float(np.linalg.norm(tx)) * ny)
    if not abs(got - est.value) <= tol:
        out.problems.append(f"{key} witness gives {got:.12g}, estimate {est.value:.12g}")
    for label, u, v in (("||x||_A", x, x), ("||y||_A", y, y)):
        s = complex(v.conj() @ (a @ u))
        if not abs(s - 1.0) <= WITNESS_RTOL * max(1.0, norm_a * float(np.linalg.norm(u)) ** 2):
            out.problems.append(f"{key} witness {label}^2 = {s.real:.12g}")
    s = complex(y.conj() @ (a @ x))
    if not abs(s - complex(q)) <= WITNESS_RTOL * max(1.0, norm_a * nx * ny):
        out.problems.append(f"{key} witness <x, y>_A = {s:.6g}, q = {complex(q):.6g}")


def check_order(out: Outcome, key: str, value: float, norm_t: float, upper=None) -> None:
    """0 <= value <= ||T||_A, and value <= upper (c_q <= omega_q) when given."""
    tol = ORDER_RTOL * max(norm_t, 1e-300)
    if not -tol <= value <= norm_t + tol:
        out.problems.append(f"{key} = {value:.12g} outside [0, ||T||_A = {norm_t:.12g}]")
    if upper is not None and not value <= upper + tol:
        out.problems.append(f"{key} = {value:.12g} exceeds the q-radius {upper:.12g}")


def closed_form_2x2(aq, b0: np.ndarray, q, crawford: bool) -> float:
    form = aq.exact.canonical_2x2(b0)
    fn = aq.exact.q_crawford_2x2 if crawford else aq.exact.q_radius_2x2
    return float(fn(form, abs(complex(q))))


def shifted_jordan3(aq, q, shift: float, crawford: bool) -> float:
    """omega_q or c_q of J3 + s I with |s| = shift: the disc of J3 moved by q s."""
    radius = float(aq.exact.jordan3_q_radius(abs(complex(q))))
    moved = abs(complex(q)) * shift
    return max(0.0, moved - radius) if crawford else moved + radius


def hermitian_interval(m: float, big: float, q, crawford: bool) -> float:
    """omega_q / c_q of a Hermitian matrix with spectrum spanning [m, big], dim >= 3.

    Over unit u the objective is |q| mu + p sigma (radius) or max(0, |q| mu - p
    sigma) (Crawford), mu and sigma the mean and spread of the spectrum under
    |u_i|^2; a two-point law on {m, big} is extremal, giving the ellipse
    vertices |q| (m + big) / 2 +- (big - m) / 2.
    """
    absq = abs(complex(q))
    half = 0.5 * (big - m)
    centre = 0.5 * absq * (m + big)
    return max(0.0, centre - half) if crawford else centre + half
