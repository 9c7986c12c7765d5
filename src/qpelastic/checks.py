"""The numerical checks behind ``qpelastic verify`` and the acceptance suite.

Each check in ``SUITES`` takes ``(rng, trials)`` and returns ``(worst, tol)``;
``rand_medium`` and ``rand_alpha`` draw their media and quasi-momenta.  The
finite-difference oracles they rest on live here too: ``navier_residual``
applies ``Delta* u + rho omega^2 u`` with 4th-order central differences to
any vector field callable, ``ode_residual`` applies the qp3d mode ODE to one
mode tensor, and the ``delta_weight_*`` functions recover the source weights.
The evaluator modules import nothing from here.
"""

from __future__ import annotations

import numpy as np

from . import errors, green2d, green3d_biqp, green3d_qp
from .green3d_biqp import c_bi_d3_limits
from .green3d_qp import c_arrays
from .green_free import comb_normalization, ewald_sum, lattice_sum
from .medium import (ElasticMedium, ModeTable, QuasiMomentum, make_medium,
                     make_quasi_momentum, mode_window)
from .specfun import bessel_j, hankel1, hankel1_deriv, mod_k, mod_k_deriv

# Each geometry's plain series, (medium, q, X, y, tol) -> (values, tails, modes):
# the evaluators of ``verify`` and ``eval``.  Each entry looks its function up on
# the evaluator module at call time, so a wrapper installed there sees every call.
SERIES = {
    "qp2d": lambda *a: green2d.green2d_eval_batch(*a),
    "qp3d": lambda *a: green3d_qp.green3dqp_eval_batch(*a),
    "biqp3d": lambda *a: green3d_biqp.greenbi_eval_batch(*a),
}
GEOMETRIES = tuple(SERIES)

# 4th-order central stencils: first and second derivative, offsets
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFF = np.arange(-2, 3)


def navier_apply_fd(field, medium: ElasticMedium, x, h: float):
    """(Delta* + rho omega^2) field at x by 4th-order differences.

    ``field`` maps an (n, dim) array of points to an (n, dim) array of
    complex vector values.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    # the 5^dim tensor grid centered at x
    grids = np.meshgrid(*([_OFF] * dim), indexing="ij")
    pts = np.stack([x[k] + h * grids[k].ravel() for k in range(dim)], axis=-1)
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


def ode_residual(medium: ElasticMedium, q: QuasiMomentum, m: int,
                 x2: float, x3: float, h: float) -> float:
    """Max-norm residual of the mode ODE system applied to c_l by 4th-order FD.

    The operator (rows j = source column):
        row1 = (rho w^2 - (lam+2mu) a^2) c_1j + mu (d22 + d33) c_1j
               + i (lam+mu) a (d2 c_2j + d3 c_3j)
        row2 = (rho w^2 - mu a^2) c_2j + i (lam+mu) a d2 c_1j
               + (lam+2mu) d22 c_2j + mu d33 c_2j + (lam+mu) d23 c_3j
        row3 = like row2 with the 2/3 axes swapped.
    Vanishes away from the transverse origin.
    """
    if np.hypot(x2, x3) <= 2 * h:
        raise errors.DomainError("stencil touches the singular point")
    mode = ModeTable.of(medium, q, [m])
    a = mode.alpha_l[0]
    lam, mu = medium.lam, medium.mu
    rw2 = medium.rho_omega2

    grid = c_arrays(medium, mode, x2 + _OFF[:, None] * h, x3 + _OFF[None, :] * h)[:, :, 0]

    c0 = grid[2, 2]
    d2 = np.tensordot(_D1, grid[:, 2], axes=(0, 0)) / h
    d3 = np.tensordot(_D1, grid[2, :], axes=(0, 0)) / h
    d22 = np.tensordot(_D2, grid[:, 2], axes=(0, 0)) / h**2
    d33 = np.tensordot(_D2, grid[2, :], axes=(0, 0)) / h**2
    d23 = np.einsum("i,j,ijab->ab", _D1, _D1, grid) / h**2

    res = np.empty((3, 3), dtype=complex)
    res[0] = (rw2 - (lam + 2 * mu) * a * a) * c0[0] + mu * (d22[0] + d33[0]) \
        + 1j * (lam + mu) * a * (d2[1] + d3[2])
    res[1] = (rw2 - mu * a * a) * c0[1] + 1j * (lam + mu) * a * d2[0] \
        + (lam + 2 * mu) * d22[1] + mu * d33[1] + (lam + mu) * d23[2]
    res[2] = (rw2 - mu * a * a) * c0[2] + 1j * (lam + mu) * a * d3[0] \
        + (lam + mu) * d23[1] + mu * d22[2] + (lam + 2 * mu) * d33[2]
    return float(np.max(np.abs(res)))


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
    radius, n_theta, n_r, h = _DISK_RADIUS, _DISK_N_THETA, _DISK_N_R, _DISK_H
    mode = ModeTable.of(medium, q, [m])
    a = mode.alpha_l[0]
    lam, mu = medium.lam, medium.mu
    rw2 = medium.rho_omega2

    theta = 2 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    nu2, nu3 = np.cos(theta), np.sin(theta)
    pts2, pts3 = radius * nu2, radius * nu3

    def cgrid(x2s, x3s):
        return c_arrays(medium, mode, x2s, x3s)[..., 0, :, :]

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
    mode = ModeTable.of(medium, q, [m])
    (a1, a2), = mode.alpha_l.tolist()
    lam, mu = medium.lam, medium.mu

    c_p, d_p = c_bi_d3_limits(medium, mode, +1)
    c_m, d_m = c_bi_d3_limits(medium, mode, -1)
    jump_d3 = d_p - d_m
    jump_c = c_p - c_m
    out = np.empty((3, 3), dtype=complex)
    out[0] = mu * jump_d3[0] + 1j * (lam + mu) * a1 * jump_c[2]
    out[1] = mu * jump_d3[1] + 1j * (lam + mu) * a2 * jump_c[2]
    out[2] = (lam + 2 * mu) * jump_d3[2] \
        + 1j * (lam + mu) * (a1 * jump_c[0] + a2 * jump_c[1])
    return out


# ---------------------------------------------------------------------------
# verify checks: each takes (rng, trials) and returns (worst, tol)
# ---------------------------------------------------------------------------
def rand_medium(rng):
    """A random medium with lam + mu > 0.1, rho = 1 and omega in [0.8, 3]."""
    lam = rng.uniform(-0.5, 3.0)
    mu = rng.uniform(0.5, 2.0)
    if lam + mu <= 0.1:
        lam = 0.1 - mu + 1.0
    omega = rng.uniform(0.8, 3.0)
    return make_medium(lam, mu, 1.0, omega)


def rand_alpha(rng, medium, kind):
    """A random quasi-momentum of ``kind`` inside the p circle whose modes
    clear the Wood-anomaly guard."""
    kp = float(np.real(medium.k_p))
    for _ in range(100):
        if kind == "biqp3d":
            a = (rng.uniform(-kp, kp) * 0.7, rng.uniform(-kp, kp) * 0.7)
        else:
            a = rng.uniform(-kp, kp) * 0.9
        q = make_quasi_momentum(kind, a, medium)
        try:
            ModeTable.of(medium, q, mode_window(medium, q, 0.5, 1e-12))
        except errors.WoodAnomaly:
            continue
        return q
    raise RuntimeError("could not draw anomaly-free momentum")


def quasiperiodicity(rng, trials):
    """G(x + e) = e^{i alpha.e} G(x) for a period e, relative to max |G|."""
    worst = 0.0
    for kind, trunc in zip(GEOMETRIES, (1e-12, 1e-10, 1e-8)):
        for _ in range(trials):
            med = rand_medium(rng)
            q = rand_alpha(rng, med, kind)
            if kind == "qp2d":
                x = np.array([rng.uniform(0, 1), rng.uniform(0.4, 1.5)])
                e, ph = np.array([1.0, 0]), np.exp(1j * q.alpha)
            elif kind == "qp3d":
                x = np.array([rng.uniform(0, 1), rng.uniform(0.4, 1.2), rng.uniform(0.2, 0.8)])
                e, ph = np.array([1.0, 0, 0]), np.exp(1j * q.alpha)
            else:
                x = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.4, 1.2)])
                e, ph = np.array([0, 1.0, 0]), np.exp(1j * q.alpha[1])
            # x and x + e share their gap, so one batch call sizes one window for both
            g0, g1 = SERIES[kind](med, q, np.stack([x, x + e]), np.zeros(len(x)), trunc)[0]
            worst = max(worst, float(np.max(np.abs(g1 - ph * g0)) / np.max(np.abs(g0))))
    return worst, 1e-12


def reciprocity(rng, trials):
    """G_alpha(x, y) = G_{-alpha}(y, x), relative to max |G|."""
    worst = 0.0
    for kind, trunc in zip(GEOMETRIES, (1e-12, 1e-10, 1e-8)):
        evalf = SERIES[kind]
        for _ in range(trials):
            med = rand_medium(rng)
            q = rand_alpha(rng, med, kind)
            if kind == "qp2d":
                x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.2)])
                y = np.array([rng.uniform(-0.5, 0.5), -rng.uniform(0.0, 0.5)])
            elif kind == "qp3d":
                x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.0), 0.3])
                y = np.array([rng.uniform(-0.5, 0.5), -0.2, -0.1])
            else:
                x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.0)])
                y = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), -0.2])
            a = evalf(med, q, x[None, :], y, trunc)[0][0]
            b = evalf(med, q.negated(), y[None, :], x, trunc)[0][0]
            worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(a))))
    return worst, 1e-12


def pde_residual(rng, trials):
    """Navier residual of a random column of G by 4th-order FD at h = 1e-2."""
    worst = 0.0
    for kind, trunc in zip(GEOMETRIES, (1e-13, 1e-12, 1e-10)):
        med = make_medium(2.0, 1.0, 1.0, 2.0)
        q = rand_alpha(rng, med, kind)
        for _ in range(max(trials // 3, 2)):
            if kind == "qp2d":
                x = np.array([rng.uniform(0, 1), rng.uniform(0.8, 1.4)])
            elif kind == "qp3d":
                x = np.array([rng.uniform(0, 1), rng.uniform(0.7, 1.2), rng.uniform(0.3, 0.8)])
            else:
                x = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.8, 1.4)])
            y = np.zeros(len(x))

            def fld(P, j=rng.integers(0, len(x))):
                return SERIES[kind](med, q, P, y, trunc)[0][:, :, j]

            worst = max(worst, navier_residual(fld, med, x[None, :], 1e-2))
    return worst, 1e-6


def oracle(rng, trials):
    """Spectral series against an independent lattice sum, relative to max |G|.

    qp2d and qp3d take the direct phased sum of N = 400 copies at the complex
    frequency omega (1 + 0.1 i), where it converges; biqp3d takes the Ewald
    split at the drawn medium's real frequency.  Each alpha is drawn against
    the medium evaluated, so its Wood screen and range are that medium's.
    """
    worst = 0.0
    for kind, x in zip(GEOMETRIES, ([0.3, 0.9], [0.3, 0.7, 0.6], [0.3, 0.2, 0.9])):
        x, y = np.array(x), np.zeros(len(x))
        for _ in range(max(trials // 3, 2)):
            med = rand_medium(rng)
            if kind != "biqp3d":
                med = med.complexified(0.1)
            qv = rand_alpha(rng, med, kind)
            spec = SERIES[kind](med, qv, x[None, :], y, 1e-12)[0][0]
            if kind == "biqp3d":
                lat = ewald_sum(med, qv, x, y).value
            else:
                lat = comb_normalization(kind) * lattice_sum(med, qv, x, y, N=400).value
            worst = max(worst, float(np.max(np.abs(spec - lat)) / np.max(np.abs(spec))))
    return worst, 1e-4


def ode_jump(rng, trials):
    """Mode ODE residual of c_l and the source weights of both mode systems."""
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("qp3d", 0.3, med)
    worst = 0.0
    for m in (0, 1, -2):
        worst = max(worst, ode_residual(med, q, m, 0.7, 0.6, 1e-2) / abs(med.rho_omega2))
    wq = delta_weight_qp3d(med, q, 0)
    worst = max(worst, float(np.max(np.abs(wq - np.eye(3) / (2 * np.pi)))))
    qb = make_quasi_momentum("biqp3d", (0.3, 0.45), med)
    for m in ((0, 0), (1, -1)):
        wb = delta_weight_biqp(med, qb, m)
        worst = max(worst, float(np.max(np.abs(wb - np.eye(3) / (4 * np.pi**2)))))
    return worst, 1e-6


def specfun(rng, trials):
    """Bessel/Hankel Wronskian, K recurrence and H' against a central difference."""
    xs = np.logspace(-1, 2, 200)
    worst = 0.0
    for m in (0, 1, 3):
        wron = bessel_j(m + 1, xs) * np.imag(hankel1(m, xs)) \
            - bessel_j(m, xs) * np.imag(hankel1(m + 1, xs))
        worst = max(worst, float(np.max(np.abs(wron - 2 / (np.pi * xs)))))
    for nu in (1, 2):
        xs2 = np.logspace(-1, 1.5, 50)
        rec = mod_k_deriv(nu, xs2) + mod_k(nu - 1, xs2) + nu / xs2 * mod_k(nu, xs2)
        worst = max(worst, float(np.max(np.abs(rec))))
    h = 1e-6
    for m in (0, 1, 2):
        fd = (hankel1(m, 2.0 + h) - hankel1(m, 2.0 - h)) / (2 * h)
        worst = max(worst, abs(hankel1_deriv(m, 2.0) - fd) / abs(fd))
    return worst, 1e-8


SUITES = {
    "quasiperiodicity": quasiperiodicity,
    "reciprocity": reciprocity,
    "pde_residual": pde_residual,
    "oracle": oracle,
    "ode_jump": ode_jump,
    "specfun": specfun,
}
