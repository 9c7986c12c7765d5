"""Finite-difference application of the Navier operator, for verification.

``navier_residual`` applies ``Delta* u + rho omega^2 u`` with 4th-order
central differences to an arbitrary vector field callable; it is the
independent PDE oracle used by the test suite and the ``verify`` command.
"""

from __future__ import annotations

import numpy as np

from .medium import ElasticMedium, ModeTable

# 4th-order central stencils: first and second derivative, offsets
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFF = np.arange(-2, 3)


def _stencil_points(x, h, dim):
    """All points of the 5^dim tensor grid centered at x."""
    x = np.asarray(x, dtype=float)
    grids = np.meshgrid(*([_OFF] * dim), indexing="ij")
    pts = np.stack([x[k] + h * grids[k].ravel() for k in range(dim)], axis=-1)
    return pts


def navier_apply_fd(field, medium: ElasticMedium, x, h: float):
    """(Delta* + rho omega^2) field at x by 4th-order differences.

    ``field`` maps an (n, dim) array of points to an (n, dim) array of
    complex vector values.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    pts = _stencil_points(x, h, dim)
    vals = np.asarray(field(pts)).reshape((5,) * dim + (dim,))
    lam, mu = medium.lam, medium.mu

    center = vals[(2,) * dim]

    def axis_slice(i, idx):
        sl = [2] * dim
        sl[i] = idx
        return tuple(sl)

    # second derivatives along each axis
    d2 = []
    for i in range(dim):
        acc = np.zeros(dim, dtype=complex)
        for k in range(5):
            acc += _D2[k] * vals[axis_slice(i, k)]
        d2.append(acc / h**2)

    # mixed second derivatives
    dmix = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            acc = np.zeros(dim, dtype=complex)
            for ki in range(5):
                if _D1[ki] == 0.0:
                    continue
                for kj in range(5):
                    if _D1[kj] == 0.0:
                        continue
                    sl = [2] * dim
                    sl[i], sl[j] = ki, kj
                    acc += _D1[ki] * _D1[kj] * vals[tuple(sl)]
            dmix[(i, j)] = acc / h**2

    lap = sum(d2)
    grad_div = np.zeros(dim, dtype=complex)
    for i in range(dim):
        # (grad div u)_i = sum_j d_i d_j u_j
        acc = d2[i][i]
        for j in range(dim):
            if j == i:
                continue
            key = (min(i, j), max(i, j))
            acc = acc + dmix[key][j]
        grad_div[i] = acc
    return mu * lap + (lam + mu) * grad_div + medium.rho_omega2 * center


def navier_residual(field, medium: ElasticMedium, points, h: float) -> float:
    """Max relative residual of the Navier equation over the given points.

    Relative to ``rho omega^2 * max |field|`` at the first point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ref = abs(medium.rho_omega2) * float(np.max(np.abs(field(points[:1]))))
    return max(float(np.max(np.abs(navier_apply_fd(field, medium, x, h)))) / ref for x in points)


# ---------------------------------------------------------------------------
# Distributional delta weights of the mode ODE systems.
# ---------------------------------------------------------------------------
# the disk of delta_weight_qp3d: its radius, flux nodes on the circle,
# Gauss-Legendre nodes in the radius and central-difference step
_DISK_RADIUS = 0.5
_DISK_N_THETA = 64
_DISK_N_R = 48
_DISK_H = 1e-3


def delta_weight_qp3d(medium: ElasticMedium, q, m: int) -> np.ndarray:
    """Integrate the mode ODE operator over a transverse disk by quadrature.

    Divergence form: boundary flux on the circle of radius 0.5 (derivatives
    by central differences) plus the zeroth-order area term.  Returns the
    3x3 source weight; for the quasi-periodic mode system it equals
    (1/(2 pi)) I.
    """
    from .green3d_qp import c_arrays

    radius, n_theta, n_r, h = _DISK_RADIUS, _DISK_N_THETA, _DISK_N_R, _DISK_H
    a = ModeTable.of(medium, q, [m]).alpha_l[0]
    lam, mu = medium.lam, medium.mu
    rw2 = medium.rho_omega2

    theta = 2 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    nu2, nu3 = np.cos(theta), np.sin(theta)
    pts2, pts3 = radius * nu2, radius * nu3

    def cgrid(x2s, x3s):
        return c_arrays(medium, [a], x2s, x3s)[..., 0, :, :]

    c0 = cgrid(pts2, pts3)
    d2 = (cgrid(pts2 + h, pts3) - cgrid(pts2 - h, pts3)) / (2 * h)
    d3 = (cgrid(pts2, pts3 + h) - cgrid(pts2, pts3 - h)) / (2 * h)

    # flux integrands per operator row
    flux = np.empty((n_theta, 3, 3), dtype=complex)
    dn = nu2[:, None] * d2[:, 0, :] + nu3[:, None] * d3[:, 0, :]
    flux[:, 0, :] = mu * dn + 1j * (lam + mu) * a * (
        nu2[:, None] * c0[:, 1, :] + nu3[:, None] * c0[:, 2, :])
    flux[:, 1, :] = 1j * (lam + mu) * a * nu2[:, None] * c0[:, 0, :] \
        + (lam + 2 * mu) * nu2[:, None] * d2[:, 1, :] \
        + mu * nu3[:, None] * d3[:, 1, :] \
        + (lam + mu) * nu2[:, None] * d3[:, 2, :]
    flux[:, 2, :] = 1j * (lam + mu) * a * nu3[:, None] * c0[:, 0, :] \
        + (lam + mu) * nu3[:, None] * d2[:, 1, :] \
        + mu * nu2[:, None] * d2[:, 2, :] \
        + (lam + 2 * mu) * nu3[:, None] * d3[:, 2, :]
    boundary = (2 * np.pi * radius / n_theta) * np.sum(flux, axis=0)

    # area terms: substitution r = R u^2 tames the logarithmic singularity
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_r)
    u = 0.5 * (gl_x + 1.0)
    wu = 0.5 * gl_w
    rr = radius * u * u
    jacw = 2.0 * radius * u * rr  # r dr = r * (dr/du) du
    area = np.zeros((3, 3), dtype=complex)
    coef = np.array([rw2 - (lam + 2 * mu) * a * a,
                     rw2 - mu * a * a,
                     rw2 - mu * a * a])
    rings = cgrid(rr[:, None] * nu2, rr[:, None] * nu3)
    for ui in range(n_r):
        ring_avg = (2 * np.pi / n_theta) * np.sum(rings[ui], axis=0)
        area += wu[ui] * jacw[ui] * coef[:, None] * ring_avg
    return boundary + area


def delta_weight_biqp(medium: ElasticMedium, q, m) -> np.ndarray:
    """Jump relations of the biperiodic mode system across the source plane.

    Row i of the returned 3x3 matrix is
        mu (or lam+2mu for i=3) * [d3 c_ij] + i (lam+mu) alpha-terms * [c_.j]
    from the exact one-sided limits; it must equal (1/(4 pi^2)) delta_ij.
    """
    from .green3d_biqp import c_bi_d3_limits

    a1, a2 = ModeTable.of(medium, q, [m]).row(0).alpha_l
    lam, mu = medium.lam, medium.mu

    c_p, d_p = c_bi_d3_limits(medium, a1, a2, +1)
    c_m, d_m = c_bi_d3_limits(medium, a1, a2, -1)
    jump_d3 = d_p - d_m
    jump_c = c_p - c_m
    out = np.empty((3, 3), dtype=complex)
    out[0] = mu * jump_d3[0] + 1j * (lam + mu) * a1 * jump_c[2]
    out[1] = mu * jump_d3[1] + 1j * (lam + mu) * a2 * jump_c[2]
    out[2] = (lam + 2 * mu) * jump_d3[2] \
        + 1j * (lam + mu) * (a1 * jump_c[0] + a2 * jump_c[1])
    return out
