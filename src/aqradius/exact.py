"""Closed-form q-radius and q-Crawford values for special matrices.

Any 2x2 complex matrix is unitarily similar to ``exp(i t) [[gamma, a], [b, gamma]]``
with 0 <= b <= a, and its q-numerical range for |q| <= 1 is a translated filled
ellipse.  Since W_q(T) = (q/|q|) W_{|q|}(T), a complex q rotates the ellipse of
|q| by arg q and leaves every modulus unchanged, so the radius and Crawford
values are evaluated at |q|.  This module computes that canonical form, the
ellipse, and the resulting extremal moduli, plus the known formula for the 3x3
nilpotent Jordan block.  Both extremal moduli are attained on the ellipse's
boundary, at phases where d|z|/ds = 0; these are the roots of one quartic in
e^{is} (`_boundary_moduli`), so neither value needs a grid or an iteration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .semispace import as_operator

__all__ = [
    "CanonicalForm2x2",
    "EllipseDisk",
    "QOutOfRange",
    "canonical_2x2",
    "jordan3_q_radius",
    "q_crawford_2x2",
    "q_radius_2x2",
    "q_range_2x2",
]


class QOutOfRange(ValueError):
    """q is outside the domain of the requested closed form."""


@dataclass
class CanonicalForm2x2:
    """Parameters (t, gamma, a, b) of the zero-diagonal canonical form.

    ``u_similar^H T u_similar = exp(i t) [[gamma, a], [b, gamma]]`` with
    0 <= b <= a and t in [0, 2 pi).
    """

    t: float
    gamma: complex
    a: float
    b: float
    u_similar: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.exp(1j * self.t) * np.array(
            [[self.gamma, self.a], [self.b, self.gamma]], dtype=np.complex128
        )


@dataclass
class EllipseDisk:
    """Filled rotated ellipse: the q-numerical range of a 2x2 matrix.

    The set is ``center + exp(i rotation) * {r (M cos s + i m sin s)}`` over
    r in [0, 1], s in [0, 2 pi), with semi-axes M = semi_major, m = semi_minor.
    """

    center: complex
    semi_major: float
    semi_minor: float
    rotation: float

    def point(self, r: float, s: float) -> complex:
        body = r * (self.semi_major * math.cos(s) + 1j * self.semi_minor * math.sin(s))
        return self.center + cmath.exp(1j * self.rotation) * body

    def contains(self, z: complex, tol: float = 1e-12) -> bool:
        """Membership up to the relative tolerance tol, so scaling z and the ellipse keeps the answer."""
        zeta = (complex(z) - self.center) * cmath.exp(-1j * self.rotation)
        xi, eta = zeta.real, zeta.imag
        big, small = self.semi_major, self.semi_minor
        slack = tol * max(big, abs(zeta))
        if big <= slack:
            return abs(zeta) <= slack
        if small <= slack:
            return abs(eta) <= slack and abs(xi) <= big + slack
        return (xi / big) ** 2 + (eta / small) ** 2 <= 1.0 + tol


def _zero_diagonal_vector(m: np.ndarray) -> np.ndarray:
    """Unit u with u^H M u = 0 for a traceless 2x2 matrix M (closed form)."""
    d = complex(m[0, 0])
    b = complex(m[0, 1])
    c = complex(m[1, 0])
    if abs(d) < 1e-300:
        return np.array([1.0, 0.0], dtype=np.complex128)
    # u = (cos r, sin r e^{i phi}) gives u^H M u = d cos 2r + beta(phi) sin 2r
    # with beta = (b e^{i phi} + c e^{-i phi}) / 2; pick phi making beta a real
    # multiple of d, then solve the real equation for r.
    bp = b / d
    cp = c / d
    phi = math.atan2(-(bp.imag + cp.imag), bp.real - cp.real)
    kappa = ((b * cmath.exp(1j * phi) + c * cmath.exp(-1j * phi)) / (2.0 * d)).real
    two_r = math.atan2(1.0, -kappa)
    r = 0.5 * two_r
    return np.array([math.cos(r), math.sin(r) * cmath.exp(1j * phi)], dtype=np.complex128)


def canonical_2x2(t) -> CanonicalForm2x2:
    """Canonical form of a 2x2 matrix under unitary similarity.

    Splits off the trace, conjugates the traceless part to zero diagonal, and
    absorbs the off-diagonal phases into a diagonal unitary so the remaining
    entries are the nonnegative reals b <= a times a common phase exp(i t).
    """
    t_mat = as_operator(t)
    if t_mat.shape != (2, 2):
        raise ValueError("canonical form is defined for 2x2 matrices only")
    half_trace = 0.5 * complex(np.trace(t_mat))
    m0 = t_mat - half_trace * np.eye(2)

    u1 = _zero_diagonal_vector(m0)
    u2 = np.array([-np.conj(u1[1]), np.conj(u1[0])], dtype=np.complex128)
    basis = np.column_stack([u1, u2])
    m = basis.conj().T @ m0 @ basis
    # missing arguments of vanished off-diagonals default to 0
    up, lo = complex(m[0, 1]), complex(m[1, 0])
    arg_up = cmath.phase(up) if abs(up) > 1e-300 else 0.0
    arg_lo = cmath.phase(lo) if abs(lo) > 1e-300 else 0.0
    phase = math.fmod(0.5 * (arg_up + arg_lo), 2.0 * math.pi)
    if phase < 0.0:
        phase += 2.0 * math.pi
    delta = 0.5 * (arg_lo - arg_up)
    basis = basis @ np.diag([1.0, cmath.exp(1j * delta)]).astype(np.complex128)
    a_val, b_val = abs(up), abs(lo)
    if a_val < b_val:
        a_val, b_val = b_val, a_val
        basis = basis @ np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    gamma = half_trace * cmath.exp(-1j * phase)
    return CanonicalForm2x2(t=phase, gamma=gamma, a=a_val, b=b_val, u_similar=basis)


def _modulus(q) -> float:
    """|q|, the only part of q the closed-form values depend on; |q| > 1 is out of range."""
    m = abs(complex(q))
    if not m <= 1.0 + 1e-12:
        raise QOutOfRange(f"|q| = {m} is outside [0, 1]")
    return min(m, 1.0)


def q_range_2x2(form: CanonicalForm2x2, q) -> EllipseDisk:
    """Ellipse-disk q-numerical range of a canonical 2x2 form: the |q| ellipse rotated by arg q."""
    m, theta = _modulus(q), cmath.phase(complex(q))
    p = math.sqrt(max(0.0, 1.0 - m * m))
    # ((1 + p) a +- (1 - p) b)/2, so q = 0 gives the disk of radius a exactly
    return EllipseDisk(
        center=cmath.exp(1j * form.t) * form.gamma * m * cmath.exp(1j * theta),
        semi_major=0.5 * ((1.0 + p) * form.a + (1.0 - p) * form.b),
        semi_minor=0.5 * ((1.0 + p) * form.a - (1.0 - p) * form.b),
        rotation=form.t + theta,
    )


def _boundary_moduli(disk: EllipseDisk) -> tuple[float, float]:
    """Smallest and largest |z| over the boundary of the ellipse-disk.

    In the ellipse's own frame the boundary is zeta + M cos s + i m sin s with
    zeta = x + i y, and d|z|^2/ds = 0 is, in w = e^{is}, the quartic
    (m^2 - M^2) w^4 + 2(i m y - M x) w^3 + 2(i m y + M x) w - (m^2 - M^2) = 0.
    The phases of its roots, with the four vertices for the centred circle where
    it vanishes, are the candidates.  The quartic is taken for the ellipse
    scaled to size M + |zeta| = 1, so its coefficients neither overflow nor
    underflow, and coefficients below round-off are dropped.
    """
    zeta = disk.center * cmath.exp(-1j * disk.rotation)
    big, small = disk.semi_major, disk.semi_minor
    size = big + abs(zeta) or 1.0
    x, y, mj, mn = zeta.real / size, zeta.imag / size, big / size, small / size
    lead = mn * mn - mj * mj
    coeffs = np.array([lead, 2 * (1j * mn * y - mj * x), 0.0, 2 * (1j * mn * y + mj * x), -lead])
    coeffs[np.abs(coeffs) <= 1e-15] = 0.0
    phases = np.concatenate([np.angle(np.roots(coeffs)), 0.5 * np.pi * np.arange(4)])
    moduli = np.abs(zeta + big * np.cos(phases) + 1j * small * np.sin(phases))
    return float(moduli.min()), float(moduli.max())


def q_radius_2x2(form: CanonicalForm2x2, q) -> float:
    """Largest modulus over the ellipse-disk range (attained on the boundary), at |q|."""
    return _boundary_moduli(q_range_2x2(form, _modulus(q)))[1]


def q_crawford_2x2(form: CanonicalForm2x2, q) -> float:
    """Smallest modulus over the ellipse-disk range (0 if the origin is inside), at |q|."""
    disk = q_range_2x2(form, _modulus(q))
    return 0.0 if disk.contains(0.0) else _boundary_moduli(disk)[0]


def jordan3_q_radius(q) -> float:
    """q-numerical radius of the 3x3 nilpotent Jordan block, |q| in [1/2, 1].

    omega_q = (1/8) sqrt(27 + 18 q - 13 q^2 + (9 + 7q) sqrt((1 - q)(9 + 7q)))
    at q = |q|; a complex q gives the value at its modulus.
    """
    m = _modulus(q)
    if m < 0.5 - 1e-12:
        raise QOutOfRange(f"|q| = {m} is outside [1/2, 1]")
    m = max(m, 0.5)
    inner = (1.0 - m) * (9.0 + 7.0 * m)
    val = 27.0 + 18.0 * m - 13.0 * m * m + (9.0 + 7.0 * m) * math.sqrt(inner)
    return 0.125 * math.sqrt(val)
