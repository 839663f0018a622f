"""Closed-form q-radius and q-Crawford values for special matrices.

Any 2x2 complex matrix is unitarily similar to ``exp(i t) [[gamma, a], [b, gamma]]``
with 0 <= b <= a, and its q-numerical range for |q| <= 1 is a translated filled
ellipse; a complex q rotates the ellipse of |q| by arg q, so every modulus is
taken at |q|.  Each public function checks and reads q once, by
``semispace._q_parts``, as |q| and p = sqrt(1 - |q|^2): a q outside the closed
unit disc raises ``QOutOfRange`` from ``semispace.validate_q``, as it does for
the estimators, and only the Jordan formula's narrower domain is checked here.
The private `_q_extremal` and `_q_range` take |q| and p as derived, so an
estimate, which derives them with its own check, checks q once in all.  Both
extremal moduli lie on the ellipse's boundary, at its farthest or nearest point
to the origin (`_boundary_extreme`), but for a Crawford number of 0 when the
origin is inside.
`q_extremal_2x2` returns each value with a unit u whose partner values reach it:
at the extremal boundary phase; for a Crawford number of 0, at the one parameter
of u whose ellipse of values, in a nested family, passes through the origin
(`_origin_preimage`), at every |q|.  Both roots are taken by one climb,
`_climb`: Newton steps that rise to the one root of a monotone, concave gauge.
The route runs on the four entries as Python scalars.  `radius` takes every
estimate at reduced dimension 2 or on a segment from it.  The 3x3 nilpotent
Jordan block has its known formula.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .semispace import QOutOfRange, _q_parts, _scale_back, _unit_scale, as_operator

__all__ = [
    "CanonicalForm2x2",
    "EllipseDisk",
    "canonical_2x2",
    "jordan3_q_radius",
    "q_crawford_2x2",
    "q_extremal_2x2",
    "q_radius_2x2",
    "q_range_2x2",
]


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


def canonical_2x2(t) -> CanonicalForm2x2:
    """Canonical form of a 2x2 matrix under unitary similarity, from its four entries as scalars.

    Splits off the trace, conjugates the traceless part M0 = [[d, b], [c, -d]] to zero
    diagonal in the basis u1, u2 = (-conj(u1[1]), conj(u1[0])), and absorbs the off-diagonal
    phases into a diagonal unitary: the entries left are b <= a times a phase exp(i t).  The
    form is taken of a copy of T at unit size, T 2^-e by ``semispace._unit_scale``, so no
    quotient or sum overflows, and gamma, a and b are scaled back by 2^e: the form scales
    with T at every magnitude, and one beyond the largest float raises a ValueError.
    """
    t_mat = as_operator(t)
    if t_mat.shape != (2, 2):
        raise ValueError("canonical form is defined for 2x2 matrices only")
    unit, e = _unit_scale(t_mat.copy())
    form = _canonical(unit)
    form.gamma = complex(_scale_back(form.gamma.real, e), _scale_back(form.gamma.imag, e))
    form.a, form.b = _scale_back(form.a, e), _scale_back(form.b, e)
    return form


def _canonical(t: np.ndarray) -> CanonicalForm2x2:
    """`canonical_2x2` of a finite 2x2 complex array at unit size, as `_unit_scale` leaves it, on scalars."""
    entries = t.ravel().tolist()
    t00, t01, t10, t11 = entries
    tiny = 1e-300 * max(map(abs, entries))  # a vanished entry is screened relative to the largest
    half_trace = 0.5 * (t00 + t11)
    d0, d1 = t00 - half_trace, t11 - half_trace
    x0, x1 = 1.0, 0.0
    if abs(d0) > tiny:
        # u1 = (cos r, sin r e^{i phi}) gives u1^H M0 u1 = d cos 2r + beta(phi) sin 2r, beta =
        # (b e^{i phi} + c e^{-i phi}) / 2: phi makes beta a real multiple of d, then solve for r
        bp, cp = t01 / d0, t10 / d0
        phi = math.atan2(-(bp.imag + cp.imag), bp.real - cp.real)
        kappa = ((t01 * cmath.exp(1j * phi) + t10 * cmath.exp(-1j * phi)) / (2.0 * d0)).real
        r = 0.5 * math.atan2(1.0, -kappa)
        x0, x1 = math.cos(r), math.sin(r) * cmath.exp(1j * phi)
    y0, y1 = -x1.conjugate(), x0.conjugate()
    up = x0.conjugate() * (d0 * y0 + t01 * y1) + x1.conjugate() * (t10 * y0 + d1 * y1)  # u1^H M0 u2
    lo = y0.conjugate() * (d0 * x0 + t01 * x1) + y1.conjugate() * (t10 * x0 + d1 * x1)  # u2^H M0 u1
    # missing arguments of vanished off-diagonals default to 0
    arg_up = cmath.phase(up) if abs(up) > tiny else 0.0
    arg_lo = cmath.phase(lo) if abs(lo) > tiny else 0.0
    phase = math.fmod(0.5 * (arg_up + arg_lo), 2.0 * math.pi)
    if phase < 0.0:
        phase += 2.0 * math.pi
    turn = cmath.exp(0.5j * (arg_lo - arg_up))
    y0, y1 = y0 * turn, y1 * turn
    a_val, b_val = abs(up), abs(lo)
    if a_val < b_val:
        a_val, b_val = b_val, a_val
        x0, x1, y0, y1 = y0, y1, x0, x1
    basis = np.array([[x0, y0], [x1, y1]], dtype=np.complex128)
    return CanonicalForm2x2(t=phase, gamma=half_trace * cmath.exp(-1j * phase), a=a_val, b=b_val, u_similar=basis)


def q_range_2x2(form: CanonicalForm2x2, q) -> EllipseDisk:
    """Ellipse-disk q-numerical range of a canonical 2x2 form: the |q| ellipse rotated by arg q."""
    q, m, p = _q_parts(q)
    return _q_range(form, m, p, cmath.phase(q))


def _q_range(form: CanonicalForm2x2, m: float, p: float, theta: float = 0.0) -> EllipseDisk:
    """`q_range_2x2` at the q of modulus m and phase theta, with p = sqrt(1 - m^2), as `_q_parts` derives them."""
    # ((1 + p) a +- (1 - p) b)/2 with a and b halved first, so that no product overflows and
    # q = 0 gives the disk of radius a exactly
    return EllipseDisk(
        center=cmath.exp(1j * form.t) * form.gamma * m * cmath.exp(1j * theta),
        semi_major=(1.0 + p) * (0.5 * form.a) + (1.0 - p) * (0.5 * form.b),
        semi_minor=(1.0 + p) * (0.5 * form.a) - (1.0 - p) * (0.5 * form.b),
        rotation=form.t + theta,
    )


def _climb(t: float, top: float, c0: float, a0: float, c1: float, a1: float, b1: float) -> tuple:
    """(t, r_0, r_1) at the root of g - 1 on [t, top], g = 1 / sqrt(r_0^2 + r_1^2).

    r_0 = c_0 / (a_0 t) and r_1 = c_1 / (a_1 t + b_1), whose denominators are
    positive on [t, top].  g is increasing and concave in t, so Newton steps from
    a t below the root climb to it without passing it; they stop where a step no
    longer moves t up, or at top.
    """
    while True:
        d0, d1 = a0 * t, a1 * t + b1
        r0, r1 = c0 / d0, c1 / d1
        gauge = r0 * r0 + r1 * r1  # 1 / g^2
        slope = a0 * r0 * r0 / d0 + a1 * r1 * r1 / d1  # -d(gauge)/dt / 2
        step = t + (gauge * math.sqrt(gauge) - gauge) / slope  # Newton on g - 1
        if t == top or not step > t:
            return t, r0, r1
        t = step if step < top else top


def _boundary_extreme(disk: EllipseDisk, sup: bool) -> tuple[float, float]:
    """The largest (sup) or smallest |z| over the boundary of the ellipse-disk, with its phase s.

    In the ellipse's own frame the boundary is zeta + e_0 cos s + i e_1 sin s
    with e_0 = M >= e_1 = m, so |z| is the distance from -zeta = (X_0, X_1) to
    (e_0 cos s, e_1 sin s).  The nearest and the farthest point are
    (e_0 z_0, e_1 z_1), z_i = e_i X_i / (t + e_i^2), at the root of |z| = 1 in
    t > -e_1^2 and in t < -e_0^2 (Eberly, *Distance from a Point to an Ellipse,
    an Ellipsoid, or a Hyperellipsoid*, 2013).  Measured from that pole by
    u > 0, with d = e_0^2 - e_1^2, the ratios' moduli are A / u and C / (u + d):
    A = e_1 |X_1| and C = e_0 |X_0| for the nearest point, A = e_0 |X_0| and
    C = e_1 |X_1| for the farthest.  The gauge 1 / |z| - 1 is increasing and
    concave in u, so `_climb` takes its root from the larger u at which one
    ratio alone is 1.  Where A vanishes and C < d (-zeta on an axis, inside the
    evolute) the root is u = 0, with the ratios sqrt(1 - (C / d)^2) and C / d.
    The nearest point lies on -zeta's side of both axes, the farthest across
    both.  The ellipse is scaled to size M + |zeta| = 2, where no step
    overflows; s is the phase of `EllipseDisk.point`.
    """
    zeta = disk.center * cmath.exp(-1j * disk.rotation)
    big, small = disk.semi_major, disk.semi_minor
    size = 0.5 * big + 0.5 * abs(zeta) or 1.0  # halved first, so that the sum cannot overflow
    x, y, mj, mn = zeta.real / size, zeta.imag / size, big / size, small / size
    gap = (mj - mn) * (mj + mn)  # d
    lead, rest, sign = (mj * abs(x), mn * abs(y), 1.0) if sup else (mn * abs(y), mj * abs(x), -1.0)  # A, C
    u = max(lead, rest - gap)
    if u < sys.float_info.min:  # A = 0 but for a subnormal, and C <= d: the root is u = 0
        other = rest / gap if rest < gap else 1.0
        pole = math.sqrt((1.0 - other) * (1.0 + other))
    else:
        _, pole, other = _climb(u, math.inf, lead, 1.0, rest, 1.0, gap)
    z0, z1 = (pole, other) if sup else (other, pole)
    s = math.atan2(math.copysign(z1, sign * y), math.copysign(z0, sign * x))
    return abs(zeta + complex(big * math.cos(s), small * math.sin(s))), s


def _origin_preimage(a: float, b: float, p: float, w: complex) -> tuple[float, float]:
    """(kappa, s) in [-1, 1] x R with a (kappa + p) e^{is} + b (kappa - p) e^{-is} = 2 w, for p >= 0.

    With a = 1 (the data scaled by a) the left side is 2 (A cos s + i B sin s),
    A = ((1 + b) kappa + p (1 - b)) / 2 and B = ((1 - b) kappa + p (1 + b)) / 2:
    an ellipse whose semi-axes grow with kappa, from A = 0 at
    kappa_A = -p (1 - b) / (1 + b) to the range's boundary at kappa = 1.  A point
    w = x + i y of the range lies on one of them, at the root on [kappa_A, 1] of
    r - 1 with 1 / r = sqrt((x / A)^2 + (y / B)^2), the gauge of w in the kappa
    ellipse.  r is increasing and concave in kappa, so `_climb` takes the root
    from a kappa below it: where A reaches |x| or B reaches |y|, on
    t = kappa - kappa_A, so that A = (1 + b) t / 2 keeps its digits near
    kappa_A; a start below the smallest normal float, where x / A would keep few
    digits, is w = i y up to a subnormal x on the segment at kappa_A.  At p = 0
    (|q| = 1, the numerical range) the ellipses are scaled copies of one, r is
    linear in kappa and the first step lands on the root; with b = 1 as well
    they are segments of the real axis, B = 0, and y / B is taken as 0.  s is
    the phase of (x / A, y / B) at the root, with no Newton step on the phase:
    on a thin range its curvature, about (m / M)^2, would divide round-off.  A w
    outside the range by round-off gets kappa = 1, where y / B can be round-off
    over round-off on a thin range, so its phase starts at the nearest point of
    the kappa = 1 ellipse by `_boundary_extreme`; of the float phases around it,
    it takes the one at which the equation's two sides, as rounded, differ
    least.
    """
    if a == 0.0:  # B is scalar, its range the point |q| gamma = -w = 0: any (kappa, s) will do
        return 0.0, 0.0
    b, x, y = b / a, 2.0 * w.real / a, 2.0 * w.imag / a
    offset, edge = p * (1.0 - b) / (1.0 + b), 4.0 * p * b / (1.0 + b)  # -kappa_A and 2 B at kappa_A
    top = 1.0 + offset  # t at kappa = 1
    t = abs(x) / (1.0 + b)
    if b < 1.0:
        t = max(t, (abs(y) - edge) / (1.0 - b))
    t = min(t, top)
    if t < sys.float_info.min:  # w = i y, but for a subnormal x, on the segment that is the ellipse at kappa_A
        return -offset, math.asin(min(1.0, max(-1.0, y / edge))) if edge else 0.0
    c1, b1 = (y, edge) if edge or b < 1.0 else (0.0, 1.0)  # y / B is taken as 0 where B = 0
    t, u, v = _climb(t, top, x, 1.0 + b, c1, 1.0 - b, b1)  # the ratios are x / (2 A) and y / (2 B)
    if t < top:
        return t - offset, math.atan2(v, u)
    # the semi-axes 2 A and 2 B at kappa = 1, as the equation forms them
    big, small = (1.0 + p) + b * (1.0 - p), (1.0 + p) - b * (1.0 - p)
    # w outside the range by round-off: no (kappa, s) solves the equation, and cos s and sin s
    # round differently at each float phase, so take the one that misses least within 16 ulps
    # of the nearest point's phase and of its turns by up to two full circles either way
    s = _boundary_extreme(EllipseDisk(-complex(x, y), big, small, 0.0), False)[1]

    def miss(phase: float) -> float:
        e = complex(math.cos(phase), math.sin(phase))
        return abs((1.0 + p) * e + b * (1.0 - p) * e.conjugate() - complex(x, y))

    turns = [s + j * math.tau for j in range(-2, 3)]
    return 1.0, min((turn + k * math.ulp(turn) for turn in turns for k in range(-16, 17)), key=miss)


def q_extremal_2x2(form: CanonicalForm2x2, q, sup: bool) -> tuple[float, np.ndarray]:
    """The largest (sup) or smallest modulus over the q-range of a 2x2 form, and a unit u attaining it.

    For u = U (cos theta, e^{is} sin theta), U = `form.u_similar`, and
    kappa = |q| sin 2 theta - p cos 2 theta, the values <T u, v> over partners v
    with <u, v> = q form a circle through e^{i (t + arg q)} (|q| gamma + z_N),
    z_N = [a (kappa + p) e^{is} + b (kappa - p) e^{-is}] / 2.  At kappa = 1
    (2 theta = atan2(|q|, -p)), z_N is the boundary point M cos s + i m sin s, so
    the phase of the boundary point farthest from (nearest to) the origin,
    `_boundary_extreme`, gives u for the radius and for a positive Crawford
    number.  If the range holds the origin, the Crawford number is 0 and u
    comes from the (kappa, s) at which |q| gamma + z_N vanishes: z_N runs over
    ellipses that grow with kappa, and `_origin_preimage` finds the one through
    -|q| gamma and the phase on it, at every |q|.  The circle of u then reaches the
    value: its largest (smallest) modulus is the partner of `radius._witness`.
    """
    _, m, p = _q_parts(q)
    return _q_extremal(form, m, p, sup)


def _q_extremal(form: CanonicalForm2x2, m: float, p: float, sup: bool) -> tuple[float, np.ndarray]:
    """`q_extremal_2x2` at |q| = m with p = sqrt(1 - m^2), as `_q_parts` derives them, for callers that did."""
    disk = _q_range(form, m, p)
    if not sup and disk.contains(0.0):
        value, (kappa, s) = 0.0, _origin_preimage(form.a, form.b, p, -m * form.gamma)
        two_theta = math.atan2(p, m) + math.asin(kappa)  # kappa = sin(2 theta - atan2(p, |q|))
    else:
        value, s = _boundary_extreme(disk, sup)
        two_theta = math.atan2(m, -p)
    y0, y1 = math.cos(0.5 * two_theta), cmath.exp(1j * s) * math.sin(0.5 * two_theta)
    (u00, u01), (u10, u11) = form.u_similar.tolist()  # u = U y
    return value, np.array([u00 * y0 + u01 * y1, u10 * y0 + u11 * y1])


def q_radius_2x2(form: CanonicalForm2x2, q) -> float:
    """Largest modulus over the ellipse-disk range (attained on the boundary), at |q|."""
    return q_extremal_2x2(form, q, sup=True)[0]


def q_crawford_2x2(form: CanonicalForm2x2, q) -> float:
    """Smallest modulus over the ellipse-disk range (0 if the origin is inside), at |q|."""
    return q_extremal_2x2(form, q, sup=False)[0]


def jordan3_q_radius(q) -> float:
    """q-numerical radius of the 3x3 nilpotent Jordan block, |q| in [1/2, 1].

    omega_q = (1/8) sqrt(27 + 18 q - 13 q^2 + (9 + 7q) sqrt((1 - q)(9 + 7q)))
    at q = |q|; a complex q gives the value at its modulus.
    """
    m = _q_parts(q)[1]
    if m < 0.5 - 1e-12:
        raise QOutOfRange(f"|q| = {m} is outside [1/2, 1]")
    m = max(m, 0.5)
    inner = (1.0 - m) * (9.0 + 7.0 * m)
    val = 27.0 + 18.0 * m - 13.0 * m * m + (9.0 + 7.0 * m) * math.sqrt(inner)
    return 0.125 * math.sqrt(val)
