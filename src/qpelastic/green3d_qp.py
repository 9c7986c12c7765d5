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

Shapes: ``c_arrays(medium, alpha_l, x2, x3)`` takes M momenta and scalar or
array transverse coordinates (shape S) and returns S + (M, 3, 3).  The
tensors depend on (x2, x3) only; ``_series.contract`` sums the series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._series import contract, geom_poly_sum, per_key, points, scalar_phases
from .errors import DomainError, NearSourceLine
from .green_free import GreenEval
from .medium import (ElasticMedium, ModeData, ModeTable, QuasiMomentum,
                     branch_sqrt, case_label, check_wood_window, mode_window)
from .specfun import u01

GAP_MIN = 1e-2
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class FourierMode3QP:
    """One mode's transverse tensor c_l at (x2, x3)."""

    mode: ModeData
    c: np.ndarray
    r: float
    case_used: str


def c_arrays(medium: ElasticMedium, alpha_l, x2, x3):
    """Vectorized mode tensors for a 1-D array of momenta ``alpha_l``.

    Scalar (x2, x3) give shape (M, 3, 3).  Arrays of transverse coordinates
    (broadcast together to shape S) give shape S + (M, 3, 3), with the branch
    roots taken once.  Each entry equals the scalar call's at its (x2, x3),
    bit for bit at real frequency; at complex frequency numpy may round a
    complex product on a large temporary in the other operand order.
    """
    a = np.asarray(alpha_l, dtype=complex)
    x2, x3 = np.broadcast_arrays(np.asarray(x2, dtype=float), np.asarray(x3, dtype=float))
    r = np.hypot(x2, x3)
    # powers of the coordinates by the C library's pow, as Python and numpy
    # scalars take them: numpy's vector power differs from it in the last bit
    # for a few percent of cubes
    X2, X3, R = (u.ravel().tolist() for u in (x2, x3, r))
    x22, x33, r2, r3 = np.reshape([[v**2 for v in X2], [v**2 for v in X3],
                                   [v**2 for v in R], [v**3 for v in R]],
                                  (4,) + r.shape + (1,))
    x2, x3, r = x2[..., None], x3[..., None], r[..., None]
    b = branch_sqrt(medium.k_p**2 - a * a)
    g = branch_sqrt(medium.k_s**2 - a * a)
    # both roots in one call: its fixed cost matters at the few modes of a wide gap
    u0, u1 = u01(np.concatenate([g, b]), r)
    M = len(a)
    S0, P0, S1, P1 = u0[..., :M], u0[..., M:], u1[..., :M], u1[..., M:]
    w = 1.0 / (4 * np.pi**2 * medium.rho_omega2)

    def t22(m, m0, m1):
        return m**2 * x22 / r2 * m0 - 1j * m * (x33 - x22) / r3 * m1

    def t33(m, m0, m1):
        return m**2 * x33 / r2 * m0 - 1j * m * (x22 - x33) / r3 * m1

    def t23(m, m0, m1):
        return x2 * x3 / r2 * (m**2 * m0 + 2j * m * m1 / r)

    c = np.empty(S0.shape + (3, 3), dtype=complex)
    c[..., 0, 0] = -w * (g * g * S0 + a * a * P0)
    c[..., 0, 1] = c[..., 1, 0] = w * a * x2 / r * (g * S1 - b * P1)
    c[..., 0, 2] = c[..., 2, 0] = w * a * x3 / r * (g * S1 - b * P1)
    c[..., 1, 1] = -w * (a * a * S0 + t33(g, S0, S1) + b * b * P0 - t33(b, P0, P1))
    c[..., 1, 2] = c[..., 2, 1] = w * (t23(g, S0, S1) - t23(b, P0, P1))
    c[..., 2, 2] = -w * (a * a * S0 + t22(g, S0, S1) + b * b * P0 - t22(b, P0, P1))
    return c


def c_l(medium: ElasticMedium, q: QuasiMomentum, m: int, x2: float, x3: float) -> FourierMode3QP:
    """Transverse tensor of one lattice mode; requires r = |(x2, x3)| > 0."""
    r = float(np.hypot(x2, x3))
    if r <= 0.0:
        raise DomainError("c_l is singular at r = 0")
    tab = ModeTable.of(medium, q, [m])
    c = c_arrays(medium, tab.alpha_l, x2, x3)[0]
    mode = tab.row(0)
    return FourierMode3QP(mode, c, r, case_label(mode))


def _kappa(z):
    """Generous cover of K_0, K_1 for z >= 0.7."""
    return np.sqrt(np.pi / (2 * z)) * np.exp(-z) * (1 + 2.0 / z)


def _tail_bound_side(medium, a_first, r):
    a0 = abs(a_first)
    ks2 = np.real(medium.k_s**2)
    if a0 * a0 <= 2 * ks2:
        return float("inf")
    g0 = np.sqrt(a0 * a0 - ks2)
    if g0 * r < 0.7:
        return float("inf")
    w = 1.0 / (4 * np.pi**2 * abs(medium.rho_omega2))
    q = np.exp(-2 * np.pi * r)
    s2 = geom_poly_sum(a0, 2 * np.pi, q, 2)
    return 8.0 * w * _kappa(g0 * r) * s2


def green3dqp_eval_batch(medium: ElasticMedium, q: QuasiMomentum, X, y,
                         tol: float = DEFAULT_TOL):
    """Vectorized series evaluation at points X (n, 3) for one source y.

    Returns ``(values, tails, n_modes)`` with values (n, 3, 3).  One mode
    window serves the whole call, sized from the smallest transverse gap, so
    one close point makes every point pay for its modes; callers with mixed
    gaps should batch by gap.  ``_series.contract`` builds the tensors c_l
    once per distinct (x2 - y2, x3 - y3).
    """
    X, y = points(X, y, 3)
    t1 = X[:, 0] - y[0]
    dx2 = X[:, 1] - y[1]
    dx3 = X[:, 2] - y[2]
    r = np.hypot(dx2, dx3)
    if np.min(r) < GAP_MIN:
        raise NearSourceLine(f"transverse gap {np.min(r):.3e} below green3d_qp.GAP_MIN = "
                             f"{GAP_MIN:g}")
    m, al = mode_window(medium, q, gap=float(np.min(r)), tol=tol)
    check_wood_window(medium, q, al)

    out = contract(np.stack([dx2, dx3], axis=-1), len(al),
                   lambda i: c_arrays(medium, al, dx2[i], dx3[i]), *scalar_phases(t1, al, 9))
    tails = per_key(r, lambda g: _tail_bound_side(medium, al[-1] + 2 * np.pi, g)
                    + _tail_bound_side(medium, al[0] - 2 * np.pi, g))
    return out, tails, len(al)


def green3dqp_eval(medium: ElasticMedium, q: QuasiMomentum, x, y,
                   tol: float = DEFAULT_TOL) -> GreenEval:
    """Series value sum_l e^{i (alpha+l)(x1-y1)} c_l(x2-y2, x3-y3)."""
    vals, tails, nmodes = green3dqp_eval_batch(medium, q, np.asarray(x)[None, :], y, tol)
    return GreenEval(3, vals[0], nmodes, float(tails[0]))
