"""3D quasi-periodic Lame Green's function: transverse mode tensors and series.

Each lattice mode ``a = alpha + l`` contributes a 3x3 tensor ``c_l(x2, x3)``
built from two transverse kernels at the branch roots
``b = sqrt(k_p^2 - a^2)`` and ``g = sqrt(k_s^2 - a^2)`` (Im >= 0):

    u0(m, r) = (pi i/2) H_0^(1)(m r),   u1(m, r) = -(pi/2) H_1^(1)(m r),

which reduce to K_0/K_1 for evanescent modes and to outgoing Hankel waves for
propagating ones; :func:`qpelastic.specfun.u01` evaluates each root by its
kind (cephes K_0/K_1 or the J/Y pair at a real argument, AMOS only at complex
frequency).  With w = 1/(4 pi^2 rho omega^2):

    c_11 = -w (g^2 u0(g) + a^2 u0(b))
    c_12 = c_21 = w a x2/r (g u1(g) - b u1(b))
    c_13 = c_31 = w a x3/r (g u1(g) - b u1(b))
    c_22 = -w (a^2 u0(g) + T33(g) + b^2 u0(b) - T33(b))
    c_23 = c_32 = w (T23(g) - T23(b))
    c_33 = -w (a^2 u0(g) + T22(g) + b^2 u0(b) - T22(b))

    T22(m) = m^2 x2^2/r^2 u0(m) - i m (x3^2 - x2^2)/r^3 u1(m)
    T33(m) = m^2 x3^2/r^2 u0(m) - i m (x2^2 - x3^2)/r^3 u1(m)
    T23(m) = x2 x3/r^2 (m^2 u0(m) + 2 i m u1(m)/r)

Every entry of this table is certified in the test suite against a direct
Hankel-transform quadrature of the Fourier-domain symbols (which the printed
case tables it replaces do not all pass; see tests/test_green3d_qp.py).
The assembled series solves ``(Delta* + rho omega^2) G = (1/2pi) * comb``.

With s2 = x2/r, s3 = x3/r and s2^2 + s3^2 = 1 the table splits into four
vectors of r alone, S0, S1 = u0, u1(g) and P0, P1 = u0, u1(b):

    V0 = -w (g^2 S0 + a^2 P0),   V1 = w a (g S1 - b P1),
    V2 = -w (a^2 S0 + b^2 P0 + (g^2 S0 - b^2 P0)/2),
    V3 = -w ((g^2 S0 + 2 i g S1/r) - (b^2 P0 + 2 i b P1/r)),

and the angular factors:

    c_11 = V0,   c_12 = s2 V1,   c_13 = s3 V1,   c_23 = -s2 s3 V3,
    c_22 = V2 + (s3^2 - s2^2) V3/2,   c_33 = V2 - (s3^2 - s2^2) V3/2.

Shapes: ``c_arrays(medium, modes, x2, x3)`` takes a :class:`ModeTable` of M
modes and scalar or array transverse coordinates (shape S) and returns
S + (M, 3, 3), the four vectors of each mode assembled at its direction.
The series sums the four vectors alone: ``_series.contract`` keys them on r,
so the kernels are evaluated once per distinct r and the sum over modes is one
(points x M) @ (M x 4) product, and the angular factors, linear in the
vectors, multiply the four sums of each point.
"""

from __future__ import annotations

import math

import numpy as np

from ._series import contract, geom_poly_sum, per_key, points, scalar_phases
from .errors import DomainError, NearSourceLine
from .green_free import GreenEval
from .medium import ElasticMedium, ModeTable, QuasiMomentum, series_window
from .specfun import u01

GAP_MIN = 1e-2
DEFAULT_TOL = 1e-10


def _mode_vectors(medium: ElasticMedium, modes: ModeTable, r):
    """The four r-only vectors (V0, V1, V2, V3) of each mode, shape S + (M, 4).

    ``r`` > 0 is a scalar or an array of shape S of transverse distances.
    """
    # complex copies: a float operand would send each product with the
    # S + (M,) arrays below through numpy's casting buffer
    a, a2 = modes.alpha_l.astype(complex), modes.alpha_sq.astype(complex)
    b, g = modes.beta_l, modes.gamma_l
    r = np.asarray(r, dtype=float)[..., None]
    # both roots in one call: its fixed cost matters at the few modes of a wide gap
    u0, u1 = u01(np.concatenate([g, b]), r)
    M = len(a)
    S0, P0, S1, P1 = u0[..., :M], u0[..., M:], u1[..., :M], u1[..., M:]
    w = 1.0 / (4 * np.pi**2 * medium.rho_omega2)
    gS0, bP0 = g * g * S0, b * b * P0
    v = np.empty(S0.shape + (4,), dtype=complex)
    v[..., 0] = -w * (gS0 + a2 * P0)
    v[..., 1] = w * a * (g * S1 - b * P1)
    v[..., 2] = -w * (a2 * S0 + bP0 + 0.5 * (gS0 - bP0))
    v[..., 3] = -w * ((gS0 + 2j * g * S1 / r) - (bP0 + 2j * b * P1 / r))
    return v


def _assemble(v, s2, s3):
    """The 3x3 tensors ``v.shape[:-1] + (3, 3)`` of mode vectors ``v`` (..., 4)
    at the directions s2 = x2/r, s3 = x3/r (broadcast against ``v[..., 0]``)."""
    v0, v1, v2, v3 = np.moveaxis(v, -1, 0)
    d = 0.5 * (s3 * s3 - s2 * s2) * v3
    c = np.empty(v.shape[:-1] + (3, 3), dtype=complex)
    c[..., 0, 0] = v0
    c[..., 0, 1] = c[..., 1, 0] = s2 * v1
    c[..., 0, 2] = c[..., 2, 0] = s3 * v1
    c[..., 1, 1] = v2 + d
    c[..., 2, 2] = v2 - d
    c[..., 1, 2] = c[..., 2, 1] = -(s2 * s3) * v3
    return c


def c_arrays(medium: ElasticMedium, modes: ModeTable, x2, x3):
    """Vectorized mode tensors of the M modes of ``modes``.

    Scalar (x2, x3) give shape (M, 3, 3).  Arrays of transverse coordinates
    (broadcast together to shape S) give shape S + (M, 3, 3).  Each entry
    equals the scalar call's at its (x2, x3), bit for bit at real frequency;
    at complex frequency numpy may round a complex product on a large
    temporary in the other operand order.
    """
    x2, x3 = np.broadcast_arrays(np.asarray(x2, dtype=float), np.asarray(x3, dtype=float))
    r = np.hypot(x2, x3)
    return _assemble(_mode_vectors(medium, modes, r), (x2 / r)[..., None], (x3 / r)[..., None])


def c_l(medium: ElasticMedium, q: QuasiMomentum, m: int, x2: float, x3: float) -> np.ndarray:
    """Transverse tensor (3, 3) of one lattice mode; requires r = |(x2, x3)| > 0."""
    if np.hypot(x2, x3) <= 0.0:
        raise DomainError("c_l is singular at r = 0")
    return c_arrays(medium, ModeTable.of(medium, q, [m]), x2, x3)[0]


def _kappa(z):
    """Generous cover of K_0, K_1 for z >= 0.7."""
    return math.sqrt(math.pi / (2 * z)) * math.exp(-z) * (1 + 2.0 / z)


def _tail_bound(medium):
    """Bound ``(a, r) -> float`` on one side's modes from |alpha_l| = a outwards at gap r.

    With g = i mu_g, b = i mu_b, each entry of ``c_arrays`` is at most |k_s^2| K_0 plus
    differences across [mu_g, mu_b] of K_0(mu r), mu K_1(mu r) and a^2 K_0 - s (mu^2 K_0 +
    2 mu K_1/r), s = x3^2/r^2 or x2^2/r^2, with mu-derivatives -r K_1, -mu r K_0 and
    -r K_1 (a^2 - s mu^2).  There |K_nu(mu r)| <= _kappa(gamma' r), gamma' = sqrt(a^2 -
    Re k_s^2), |mu| <= n = sqrt(a^2 + |Im k_s^2|), |a^2 - mu^2| <= |k_s^2| + 2 delta n and
    |mu_b - mu_g| <= delta = |k_s^2 - k_p^2|/(gamma' + sqrt(a^2 - Re k_p^2)); geometric
    sums over the side take up the powers of a.  ``inf`` unless a > Re k_s, gamma' r >= 0.7.
    """
    ks2, kp2 = complex(medium.k_s**2), complex(medium.k_p**2)
    dk2, c = abs(ks2 - kp2), math.sqrt(abs(ks2.imag))
    w = 1.0 / (4 * math.pi**2 * abs(medium.rho_omega2))

    def bound(a, r):
        if a * a <= ks2.real:
            return math.inf
        gp = math.sqrt(a * a - ks2.real)
        if gp * r < 0.7:
            return math.inf
        delta = dk2 / (gp + math.sqrt(a * a - kp2.real))
        q = math.exp(-2 * math.pi * r)
        # per mode delta r (a^2 + |k_s^2| + 2 delta n) + delta n + |k_s^2|, n <= a + c,
        # is at most delta r (a + h)^2 + const with h = delta + 1/(2 r)
        h = delta + 0.5 / r
        const = (2 * delta * r + 1) * delta * c + (delta * r + 1) * abs(ks2)
        return w * _kappa(gp * r) * (delta * r * geom_poly_sum(a + h, 2 * math.pi, q, 2)
                                     + const / (1 - q))
    return bound


def green3dqp_eval_batch(medium: ElasticMedium, q: QuasiMomentum, X, y,
                         tol: float = DEFAULT_TOL):
    """Vectorized series evaluation at points X (n, 3) for one source y.

    Returns ``(values, tails, n_modes)`` with values (n, 3, 3), tails <= tol.
    One mode window serves the whole call, sized from the smallest transverse
    gap, so one close point makes every point pay for its modes; callers with
    mixed gaps should batch by gap.  ``_series.contract`` sums the four mode
    vectors of each point, built once per distinct r = |(x2 - y2, x3 - y3)|,
    and each point's sums take its own direction's angular factors.
    """
    X, y = points(X, y, 3)
    t1 = X[:, 0] - y[0]
    dx2 = X[:, 1] - y[1]
    dx3 = X[:, 2] - y[2]
    r = np.hypot(dx2, dx3)
    if np.min(r) < GAP_MIN:
        raise NearSourceLine(f"transverse gap {np.min(r):.3e} below green3d_qp.GAP_MIN = "
                             f"{GAP_MIN:g}")
    modes, tail = series_window(medium, q, float(np.min(r)), tol, _tail_bound(medium))
    al = modes.alpha_l

    v = contract(r[:, None], len(al), lambda i: _mode_vectors(medium, modes, r[i]),
                 *scalar_phases(t1, al, 4))
    out = _assemble(v, dx2 / r, dx3 / r)
    tails = per_key(r, tail)
    return out, tails, len(al)


def green3dqp_eval(medium: ElasticMedium, q: QuasiMomentum, x, y,
                   tol: float = DEFAULT_TOL) -> GreenEval:
    """Series value sum_l e^{i (alpha+l)(x1-y1)} c_l(x2-y2, x3-y3)."""
    vals, tails, nmodes = green3dqp_eval_batch(medium, q, np.asarray(x)[None, :], y, tol)
    return GreenEval(3, vals[0], nmodes, float(tails[0]))
