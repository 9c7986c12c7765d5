"""Independent reference computations used by the test suite only.

* 40-digit mpmath references for the special functions, the free-space
  tensor and the singular part S = a(r) ln r + kappa rhat rhat^T that the
  kernel table removes and the truncated qp3d series over a mode table, a
  50-digit one for the 2D mode matrix;
* the closed-form gradient of the 2D free-space tensor, its log coefficient
  a(r) from scipy's ``jv`` and its finite part at coincidence, the terms of
  the reference Nystrom kernel split;
* inversion of the Fourier-domain mode symbols by direct quadrature
  (polar Hankel-transform contour in 2D, dipped line contour in 1D),
  fully independent of the closed-form tensor tables they certify;
* the closed-form flat-interface reflection solution;
* the literal three-case (L1/L2/L3) form of the 2D mode matrix, the
  Richardson-extrapolated damped lattice sum, the transversality defect of
  3D Rayleigh coefficients, the per-point off-node log-quadrature weights
  the per-mode Wood-anomaly predicate and central-difference divergence
  and curl: reference forms of what the library computes another way;
* the 2D mode matrices one mode at a time from the library's mode weights,
  the Abel-Plana near-line form of the 2D tensor and its jet, the
  independent reference for the kernel table, and the plain 2D series summed
  pair by pair over stacks of mode matrices, the reference for the blocked
  mode sum and its expm1 shared per gap;
* the biperiodic series summed with one exponential per mode, the reference
  for its row-wise contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.integrate import quad
from scipy.special import hankel1, hankel2, jv, roots_laguerre

from qpelastic.green2d import _FAR_TOL, _ODD_COLUMNS, NEAR_GAP, _mode_weights
from qpelastic.green3d_biqp import _tail_bound as _biqp_tail_bound
from qpelastic.green3d_biqp import c_bi_arrays
from qpelastic.green_free import _kupradze_value, _radial2d, kupradze
from qpelastic.medium import (ElasticMedium, ModeTable, QuasiMomentum, branch_sqrt, mode_window,
                              series_window)
from qpelastic.rayleigh import RayleighCoeffs3Bi


# ---------------------------------------------------------------------------
# special-function references (mpmath, 40 digits)
# ---------------------------------------------------------------------------
def mp_bessel_j(n, x):
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.besselj(n, mp.mpf(x)))


def mp_hankel1(m, x):
    import mpmath as mp

    with mp.workdps(40):
        return complex(mp.besselj(m, mp.mpf(x)) + 1j * mp.bessely(m, mp.mpf(x)))


@lru_cache(maxsize=None)
def mp_mod_k(nu, x):
    """40-digit K_nu(x), kept per (nu, x): two tests read the same 400-point grid."""
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.besselk(nu, mp.mpf(x)))


def mp_u01(m, r):
    """40-digit transverse kernels ((pi i/2) H_0^(1)(m r), -(pi/2) H_1^(1)(m r)), Im m >= 0.

    Off the real axis they are (K_0(-i m r), K_1(-i m r)), by H_n^(1)(z) =
    (2/(pi i)) i^(-n) K_n(-i z) for -pi/2 < arg z <= pi: the K form has no
    J/Y cancellation where Im(m r) is large.
    """
    import mpmath as mp

    with mp.workdps(40):
        z = mp.mpmathify(m) * mp.mpf(r)
        if mp.im(z) == 0:
            return (complex(0.5j * mp.pi * mp.hankel1(0, z)),
                    complex(-0.5 * mp.pi * mp.hankel1(1, z)))
        return complex(mp.besselk(0, -1j * z)), complex(mp.besselk(1, -1j * z))


def _mp_kupradze2d_entry(medium, i, j, x1, x2):
    """Entry (i, j) of the free-space tensor at mpmath coordinates (x1, x2)."""
    import mpmath as mp

    ks, kp = mp.mpmathify(medium.k_s), mp.mpmathify(medium.k_p)
    r = mp.sqrt(x1 * x1 + x2 * x2)
    rh = (x1 / r, x2 / r)
    f1 = (-ks * mp.hankel1(1, ks * r) + kp * mp.hankel1(1, kp * r)) / r
    lap = -ks**2 * mp.hankel1(0, ks * r) + kp**2 * mp.hankel1(0, kp * r)
    e = 1 if i == j else 0
    hess = lap * rh[i] * rh[j] + f1 * (e - 2 * rh[i] * rh[j])
    return 1j / (4 * mp.mpmathify(medium.mu)) * mp.hankel1(0, ks * r) * e \
        + 1j / (4 * mp.mpmathify(medium.rho_omega2)) * hess


def mp_kupradze2d(medium, dx):
    """40-digit free-space tensor (i/4mu) H_0(k_s r) I + (i/4 rho w^2) Hess[H_0(k_s r) - H_0(k_p r)]."""
    import mpmath as mp

    with mp.workdps(40):
        x1, x2 = mp.mpf(dx[0]), mp.mpf(dx[1])
        return np.array([[complex(_mp_kupradze2d_entry(medium, i, j, x1, x2)) for j in range(2)]
                         for i in range(2)])


def mp_kupradze2d_grad(medium, dx):
    """(d/dx1, d/dx2) of the free-space tensor from 40-digit radial derivatives.

    d_k G_ij = (i/4mu) delta_ij d_k H_0(k_s r) + (i/4 rho w^2) d_i d_j d_k f for
    f = H_0(k_s r) - H_0(k_p r).  A radial f has

        d_i d_j d_k f = (f3 - 3 f2/r + 3 f1/r^2) rh_i rh_j rh_k
                        + (f2/r - f1/r^2) (delta_ij rh_k + delta_ik rh_j + delta_jk rh_i)

    with f1, f2, f3 its first three r-derivatives, and those of H_0(k r) follow
    from H_0' = -H_1 and H_1' = H_0 - H_1/z: four Hankel values per point serve
    all eight entries.
    """
    import mpmath as mp

    with mp.workdps(40):
        x = (mp.mpf(dx[0]), mp.mpf(dx[1]))
        r = mp.sqrt(x[0] ** 2 + x[1] ** 2)
        rh = (x[0] / r, x[1] / r)

        def radial(k):  # first three r-derivatives of H_0(k r)
            z = k * r
            h0, h1 = mp.hankel1(0, z), mp.hankel1(1, z)
            return -k * h1, -k**2 * (h0 - h1 / z), -k**3 * (2 * h1 / z**2 - h0 / z - h1)

        ds = radial(mp.mpmathify(medium.k_s))
        f1, f2, f3 = (s - p for s, p in zip(ds, radial(mp.mpmathify(medium.k_p))))
        c3 = f3 - 3 * f2 / r + 3 * f1 / r**2
        c1 = f2 / r - f1 / r**2
        cmu = 1j / (4 * mp.mpmathify(medium.mu))
        crw = 1j / (4 * mp.mpmathify(medium.rho_omega2))

        def entry(i, j, k):
            third = c3 * rh[i] * rh[j] * rh[k] \
                + c1 * ((i == j) * rh[k] + (i == k) * rh[j] + (j == k) * rh[i])
            return complex(cmu * (i == j) * ds[0] * rh[k] + crw * third)

        return tuple(np.array([[entry(i, j, k) for j in range(2)] for i in range(2)])
                     for k in range(2))


def mp_log_part(medium, dx):
    """40-digit (S, dS/dx1, dS/dx2) for S = a(r) ln r + kappa rhat rhat^T, the
    singular part of the free-space tensor that the kernel table removes.

    a_ij = -(1/2pi) [ delta_ij J_0(k_s r)/mu + d_i d_j g / (rho w^2) ] for
    g = J_0(k_s r) - J_0(k_p r), kappa = (k_s^2 - k_p^2)/(4 pi rho w^2), and

        d_k S_ij = (d_k a_ij) ln r + a_ij rh_k / r
                   + kappa (delta_ik rh_j + delta_jk rh_i - 2 rh_i rh_j rh_k) / r,

    with the second and third derivatives of the radial g as in
    :func:`mp_kupradze2d_grad`, from J_0' = -J_1 and J_1' = J_0 - J_1/z.
    """
    import mpmath as mp

    with mp.workdps(40):
        x = (mp.mpf(dx[0]), mp.mpf(dx[1]))
        r = mp.sqrt(x[0] ** 2 + x[1] ** 2)
        rh = (x[0] / r, x[1] / r)
        ks, kp = mp.mpmathify(medium.k_s), mp.mpmathify(medium.k_p)
        mu, rw2 = mp.mpmathify(medium.mu), mp.mpmathify(medium.rho_omega2)

        def radial(k):  # J_0(k r) and its first three r-derivatives
            z = k * r
            j0, j1 = mp.besselj(0, z), mp.besselj(1, z)
            return j0, -k * j1, -k**2 * (j0 - j1 / z), k**3 * (j1 + j0 / z - 2 * j1 / z**2)

        fs = radial(ks)
        f1, f2, f3 = (s - p for s, p in zip(fs[1:], radial(kp)[1:]))
        c2, c0 = f2 - f1 / r, f1 / r                   # Hess g = c2 rh rh^T + c0 I
        c3 = f3 - 3 * f2 / r + 3 * f1 / r**2
        c1 = f2 / r - f1 / r**2
        kappa = (ks**2 - kp**2) / (4 * mp.pi * rw2)
        ln_r = mp.log(r)

        def a(i, j):
            return -((i == j) * fs[0] / mu + (c2 * rh[i] * rh[j] + c0 * (i == j)) / rw2) \
                / (2 * mp.pi)

        def da(i, j, k):
            third = c3 * rh[i] * rh[j] * rh[k] \
                + c1 * ((i == j) * rh[k] + (i == k) * rh[j] + (j == k) * rh[i])
            return -((i == j) * fs[1] * rh[k] / mu + third / rw2) / (2 * mp.pi)

        def S(i, j):
            return complex(a(i, j) * ln_r + kappa * rh[i] * rh[j])

        def dS(i, j, k):
            return complex(da(i, j, k) * ln_r + a(i, j) * rh[k] / r + kappa * (
                (i == k) * rh[j] + (j == k) * rh[i] - 2 * rh[i] * rh[j] * rh[k]) / r)

        return (np.array([[S(i, j) for j in range(2)] for i in range(2)]),) + tuple(
            np.array([[dS(i, j, k) for j in range(2)] for i in range(2)]) for k in range(2))


def kupradze2d_jet(medium, dx):
    """(Phi, dPhi/dx1, dPhi/dx2) of the 2D free-space tensor at dx (..., 2),
    in closed form from the third derivatives of f = H_0(k_s r) - H_0(k_p r),

        d_i d_j d_k f = (lap' - 4 A/r) r_i r_j r_k
                        + (A/r) (delta_ij r_k + delta_ik r_j + delta_jk r_i),

    where lap' = k_s^3 H_1(k_s r) - k_p^3 H_1(k_p r) is the r-derivative of
    f'' + f'/r and A = f'' - f'/r = lap - 2 f'/r.  Both are free of the
    cancelling 1/r^2 parts once f'/r is (the library's small-r series).  The
    value is the library's own.
    """
    dx = np.asarray(dx, dtype=float)
    ks, kp = medium.k_s, medium.k_p
    r = np.sqrt(np.sum(dx * dx, axis=-1))
    rhat = dx / r[..., None]
    _, h1s, h1p, f1, lap = _radial2d(medium, r)
    eye = np.eye(2)
    rr = rhat[..., :, None] * rhat[..., None, :]
    a_r = (lap - 2.0 * f1) / r
    c3 = ks**3 * h1s - kp**3 * h1p - 4.0 * a_r
    out = [_kupradze_value(medium, dx)]
    for k in range(2):
        rk = rhat[..., k, None, None]
        ek = np.zeros_like(rhat)
        ek[..., k] = 1.0
        sym = rk * eye + ek[..., :, None] * rhat[..., None, :] \
            + rhat[..., :, None] * ek[..., None, :]
        third = c3[..., None, None] * rr * rk + a_r[..., None, None] * sym
        out.append((0.25j / medium.mu) * (-ks * h1s)[..., None, None] * rk * eye
                   + (0.25j / medium.rho_omega2) * third)
    return tuple(out)


def phi_finite_part(medium, that):
    """Finite part of the 2D free-space tensor at coincidence along unit
    tangents ``that`` (..., 2): the limit of Phi(r that) - a(r) ln r as r -> 0,

        (i/4mu) c_s I + (i/4 rho w^2) [ (2i/pi) g2 (that that^T + I/2) + 2 e1 I ]

    from the ascending series of H_0, with c_k = 1 + (2i/pi)(ln(k/2) + gamma_E),
    g2 = -(k_s^2 - k_p^2)/2 and e1 = -(k_s^2 c_s - k_p^2 c_p)/4 + (i/2pi)(k_s^2 - k_p^2).
    """
    ks, kp = medium.k_s, medium.k_p
    c_s = 1 + (2j / np.pi) * (np.log(ks / 2) + np.euler_gamma)
    c_p = 1 + (2j / np.pi) * (np.log(kp / 2) + np.euler_gamma)
    g2 = -(ks**2 - kp**2) / 2.0
    e1 = -(ks**2 * c_s - kp**2 * c_p) / 4.0 + (1j / (2 * np.pi)) * (ks**2 - kp**2)
    eye = np.eye(2)
    tt = that[..., :, None] * that[..., None, :]
    return (0.25j / medium.mu) * c_s * eye \
        + (0.25j / medium.rho_omega2) * ((2j / np.pi) * g2 * (tt + eye / 2.0) + 2.0 * e1 * eye)


def log_coeff_jv(medium, tau, d):
    """The log coefficient a(r) of the 2D free-space tensor, Phi = a ln r + ...,
    at separations (tau, d) (any shape; (..., 2, 2)), from scipy's ``jv``:

        a = -(1/2pi) [ J_0(k_s r)/mu I + (g'' rh rh^T + (g'/r)(I - rh rh^T)) / (rho w^2) ]

    for g = J_0(k_s r) - J_0(k_p r), with g' = -k J_1 and g'' = -k^2 (J_0 - J_2)/2
    per wavenumber; a(0) = -(1/2pi) (1/mu - (k_s^2 - k_p^2)/(2 rho w^2)) I.
    """
    tau, d = np.asarray(tau, dtype=float), np.asarray(d, dtype=float)
    r = np.hypot(tau, d)
    rs = np.where(r > 0, r, 1.0)
    g1, g2 = 0.0, 0.0
    for k, sign in ((medium.k_s, 1.0), (medium.k_p, -1.0)):
        g1 = g1 - sign * k * jv(1, k * rs)
        g2 = g2 - sign * k * k * (jv(0, k * rs) - jv(2, k * rs)) / 2
    rh = np.stack([tau / rs, d / rs], axis=-1)
    rr = rh[..., :, None] * rh[..., None, :]
    eye = np.eye(2)
    hess = g2[..., None, None] * rr + (g1 / rs)[..., None, None] * (eye - rr)
    a = -(jv(0, medium.k_s * rs)[..., None, None] / medium.mu * eye
          + hess / medium.rho_omega2) / (2 * np.pi)
    a0 = -(1 / medium.mu - (medium.k_s**2 - medium.k_p**2) / (2 * medium.rho_omega2)) \
        / (2 * np.pi) * eye
    return np.where((r > 0)[..., None, None], a, a0)


def _mp_root(w):
    """mpmath sqrt(w) on the branch Im >= 0, Re >= 0 on the nonnegative real axis."""
    import mpmath as mp

    z = mp.sqrt(w)
    return -z if mp.im(z) < 0 or (mp.im(z) == 0 and mp.re(z) < 0) else z


def mp_mode_block_2d(medium, alpha_l, d):
    """50-digit 2D mode matrix (i/4pi) C [[g Eg + a^2/b Eb, s a (Eb - Eg)], [., b Eb + a^2/g Eg]]."""
    import mpmath as mp

    with mp.workdps(50):
        lam, mu = mp.mpf(medium.lam), mp.mpf(medium.mu)
        kp2, ks2 = mp.mpmathify(medium.k_p) ** 2, mp.mpmathify(medium.k_s) ** 2
        a = mp.mpmathify(alpha_l)
        b, g = _mp_root(kp2 - a * a), _mp_root(ks2 - a * a)
        D, s = abs(mp.mpf(d)), mp.sign(mp.mpf(d))
        Eb, Eg = mp.exp(1j * b * D), mp.exp(1j * g * D)
        C = 1j / (4 * mp.pi) * (lam + mu) / (mu * (lam + 2 * mu) * (kp2 - ks2))
        M = [[g * Eg + a * a / b * Eb, s * a * (Eb - Eg)],
             [s * a * (Eb - Eg), b * Eb + a * a / g * Eg]]
        return np.array([[complex(C * M[i][j]) for j in range(2)] for i in range(2)])


# ---------------------------------------------------------------------------
# quadrature inversion of the transverse mode symbols (3D quasi-periodic)
# ---------------------------------------------------------------------------
def _cquad(g, a, b):
    re = quad(lambda t: g(t).real, a, b, limit=400, epsabs=1e-12, epsrel=1e-11)[0]
    im = quad(lambda t: g(t).imag, a, b, limit=400, epsabs=1e-12, epsrel=1e-11)[0]
    return re + 1j * im


def _radial_integral(f, m, r, poles):
    """int_0^inf f(s) J_m(s r) s ds with outgoing dips below real poles."""
    poles = sorted(poles)
    dip = 0.15
    if len(poles) == 2:
        dip = min(dip, (poles[1] - poles[0]) / 4)
    if poles:
        dip = min(dip, poles[0] / 2)
    segs = []
    cur = 0.0
    for p in poles:
        if p - dip > cur:
            segs.append(("line", cur, p - dip))
        segs.append(("arc", p, dip))
        cur = p + dip
    T = (poles[-1] + 1.0) if poles else 2.0
    segs.append(("line", cur, T))

    total = 0j
    for seg in segs:
        if seg[0] == "line":
            total += _cquad(lambda s: f(s) * jv(m, s * r) * s, seg[1], seg[2])
        else:
            p, d0 = seg[1], seg[2]

            def g(t, p=p, d0=d0):
                s = p + d0 * np.exp(1j * t)
                return f(s) * jv(m, s * r) * s * 1j * d0 * np.exp(1j * t)

            total += _cquad(g, np.pi, 2 * np.pi)
    U = 80.0 / r
    total += _cquad(lambda u: 0.5j * f(T + 1j * u) * hankel1(m, (T + 1j * u) * r) * (T + 1j * u), 0.0, U)
    total += _cquad(lambda u: -0.5j * f(T - 1j * u) * hankel2(m, (T - 1j * u) * r) * (T - 1j * u), 0.0, U)
    return total


def qp3d_mode_tensor_quadrature(medium, a, x2, x3):
    """c_l(x2, x3) by inverting the Fourier-domain symbols numerically."""
    lam, mu = medium.lam, medium.mu
    rw2 = float(np.real(medium.rho_omega2))
    kp2 = float(np.real(medium.k_p**2))
    ks2 = float(np.real(medium.k_s**2))
    r = np.hypot(x2, x3)
    phi = np.arctan2(x3, x2)
    poles = [np.sqrt(w) for w in (kp2 - a * a, ks2 - a * a) if w > 0]

    def D(s):
        return mu * (lam + 2 * mu) * (s * s + a * a - kp2) * (s * s + a * a - ks2)

    pref = 1 / (4 * np.pi**2) / (2 * np.pi)
    I0 = lambda f: _radial_integral(f, 0, r, poles)
    I1 = lambda f: _radial_integral(f, 1, r, poles)
    I2 = lambda f: _radial_integral(f, 2, r, poles)
    c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
    cp, sp = np.cos(phi), np.sin(phi)
    fs2 = lambda s: s * s / D(s)
    f01 = lambda s: (lam + mu) * a * s / D(s)
    A0 = lambda s: (rw2 - (lam + 2 * mu) * a * a) / D(s)

    c = np.empty((3, 3), dtype=complex)
    c[0, 0] = pref * 2 * np.pi * I0(lambda s: (rw2 - mu * a * a - (lam + 2 * mu) * s * s) / D(s))
    c[0, 1] = c[1, 0] = pref * 2 * np.pi * 1j * cp * I1(f01)
    c[0, 2] = c[2, 0] = pref * 2 * np.pi * 1j * sp * I1(f01)
    i0a, i0f, i2f = I0(A0), I0(fs2), I2(fs2)
    c[1, 1] = pref * (2 * np.pi * i0a - mu * np.pi * (i0f - c2 * i2f)
                      - (lam + 2 * mu) * np.pi * (i0f + c2 * i2f))
    c[2, 2] = pref * (2 * np.pi * i0a - (lam + 2 * mu) * np.pi * (i0f - c2 * i2f)
                      - mu * np.pi * (i0f + c2 * i2f))
    c[1, 2] = c[2, 1] = pref * (lam + mu) * (-np.pi * s2) * I2(fs2)
    return c


# ---------------------------------------------------------------------------
# the truncated 3D quasi-periodic series in 40 digits
# ---------------------------------------------------------------------------
def mp_k01(x):
    """(K_0(x), K_1(x)) at an mpmath x > 0, to about 40 digits for x <= 40.

    The trapezoid rule on K_n(x) = int_0^inf e^{-x cosh t} cosh(n t) dt, whose
    error falls like e^{-pi^2/h}; the step h shrinks with x because the
    integrand's growth off the real axis does.  Several times cheaper than
    mpmath's ``besselk``, which the tests hold it against.
    """
    import mpmath as mp

    h = 1 / (10 + x / 5)
    k0 = k1 = mp.mpf(0)
    j = 0
    while True:
        c = mp.cosh(j * h)
        e = mp.exp(-x * c) * (h / 2 if j == 0 else h)
        k0 += e
        k1 += e * c
        if e < mp.mpf(10) ** -45 * k0:
            return k0, k1
        j += 1


def mp_qp3d_series(medium, modes: ModeTable, D):
    """40-digit sum_l e^{i alpha_l d1} c_l(d2, d3) over the modes of ``modes``
    at each offset row (d1, d2, d3) of ``D`` (n, 3), at real frequency.

    Each mode tensor takes the T22/T33/T23 table at the top of
    ``qpelastic.green3d_qp``, with the roots taken in mpmath from the table's
    alpha_l and the kernels u0, u1 by ``mpmath.hankel1`` on a propagating root
    and :func:`mp_k01` on an evanescent one, once per distinct d2^2 + d3^2.
    """
    import mpmath as mp

    with mp.workdps(40):
        kp2, ks2 = mp.mpmathify(medium.k_p) ** 2, mp.mpmathify(medium.k_s) ** 2
        w = 1 / (4 * mp.pi**2 * mp.mpmathify(medium.rho_omega2))
        al = [mp.mpf(a) for a in modes.alpha_l.tolist()]
        roots = [(_mp_root(ks2 - a * a), _mp_root(kp2 - a * a)) for a in al]

        def u01(m, r):
            if mp.im(m) == 0:
                return 0.5j * mp.pi * mp.hankel1(0, m * r), -0.5 * mp.pi * mp.hankel1(1, m * r)
            if mp.re(m) != 0:
                raise ValueError("mp_qp3d_series takes real frequencies only")
            return mp_k01(mp.im(m) * r)

        kernels = {}
        out = []
        for d1, d2, d3 in np.asarray(D, dtype=float).tolist():
            d1, d2, d3 = mp.mpf(d1), mp.mpf(d2), mp.mpf(d3)
            r2 = d2 * d2 + d3 * d3
            r = mp.sqrt(r2)
            if r2 not in kernels:
                kernels[r2] = [(u01(g, r), u01(b, r)) for g, b in roots]

            def t22(m, m0, m1, x2, x3):
                return m * m * x2 * x2 / r2 * m0 - 1j * m * (x3 * x3 - x2 * x2) / r**3 * m1

            def t23(m, m0, m1):
                return d2 * d3 / r2 * (m * m * m0 + 2j * m * m1 / r)

            acc = [[mp.mpc(0)] * 3 for _ in range(3)]
            for a, (g, b), ((S0, S1), (P0, P1)) in zip(al, roots, kernels[r2]):
                ph = mp.expj(a * d1)
                c1 = w * a * (g * S1 - b * P1) / r
                c = {(0, 0): -w * (g * g * S0 + a * a * P0), (0, 1): c1 * d2, (0, 2): c1 * d3,
                     (1, 1): -w * (a * a * S0 + t22(g, S0, S1, d3, d2) + b * b * P0
                                   - t22(b, P0, P1, d3, d2)),
                     (1, 2): w * (t23(g, S0, S1) - t23(b, P0, P1)),
                     (2, 2): -w * (a * a * S0 + t22(g, S0, S1, d2, d3) + b * b * P0
                                   - t22(b, P0, P1, d2, d3))}
                for (i, j), cij in c.items():
                    acc[i][j] += ph * cij
            out.append([[complex(acc[min(i, j)][max(i, j)]) for j in range(3)] for i in range(3)])
        return np.array(out)


# ---------------------------------------------------------------------------
# 1D quadrature inversion (biperiodic mode profiles)
# ---------------------------------------------------------------------------
def biqp_mode_tensor_quadrature(medium, a1, a2, x3):
    lam, mu = medium.lam, medium.mu
    rw2 = float(np.real(medium.rho_omega2))
    kp2 = float(np.real(medium.k_p**2))
    ks2 = float(np.real(medium.k_s**2))
    A2 = a1 * a1 + a2 * a2

    def hatc(xi):
        kap2 = A2 + xi * xi
        Fs = 1.0 / (rw2 - mu * kap2)
        Fp = 1.0 / (rw2 - (lam + 2 * mu) * kap2)
        c = np.empty((3, 3), dtype=complex)
        c[0, 0] = ((a2 * a2 + xi * xi) * Fs + a1 * a1 * Fp) / kap2
        c[0, 1] = c[1, 0] = a1 * a2 * (Fp - Fs) / kap2
        c[0, 2] = c[2, 0] = a1 * xi * (Fp - Fs) / kap2
        c[1, 1] = ((a1 * a1 + xi * xi) * Fs + a2 * a2 * Fp) / kap2
        c[1, 2] = c[2, 1] = a2 * xi * (Fp - Fs) / kap2
        c[2, 2] = (xi * xi * Fp + A2 * Fs) / kap2
        return c / (2 * np.pi) ** 2.5

    poles = [np.sqrt(w) for w in (kp2 - A2, ks2 - A2) if w > 0]
    dip = 0.15
    if len(poles) == 2:
        dip = min(dip, (poles[1] - poles[0]) / 4)
    if poles:
        dip = min(dip, poles[0] / 2)
    T = (max(poles) + 1.0) if poles else 2.0
    t3 = abs(x3)
    sgn = np.sign(x3)
    odd = {(0, 2), (2, 0), (1, 2), (2, 1)}

    def component(i, j):
        def f(s):
            return hatc(s)[i, j] * np.exp(1j * s * t3) + hatc(-s)[i, j] * np.exp(-1j * s * t3)

        total = 0j
        segs = []
        cur = 0.0
        for p in poles:
            if p - dip > cur:
                segs.append(("line", cur, p - dip))
            segs.append(("arc", p, dip))
            cur = p + dip
        segs.append(("line", cur, T))
        for seg in segs:
            if seg[0] == "line":
                total += _cquad(f, seg[1], seg[2])
            else:
                p, d0 = seg[1], seg[2]
                total += _cquad(lambda t: f(p + d0 * np.exp(1j * t)) * 1j * d0 * np.exp(1j * t),
                                np.pi, 2 * np.pi)
        U = 80.0 / t3
        total += _cquad(lambda u: hatc(T + 1j * u)[i, j] * np.exp(1j * (T + 1j * u) * t3) * 1j, 0, U)
        total += _cquad(lambda u: hatc(-(T - 1j * u))[i, j] * np.exp(-1j * (T - 1j * u) * t3) * (-1j), 0, U)
        total = total / np.sqrt(2 * np.pi)
        if sgn < 0 and (i, j) in odd:
            total = -total
        return total

    c = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            c[i, j] = component(i, j)
    return c


# ---------------------------------------------------------------------------
# flat-interface reflection (closed form)
# ---------------------------------------------------------------------------
def flat_reflection(medium, theta, kind="plane_p"):
    """Specular (u_p, u_s) and quasi-momentum for a downward plane wave on a
    rigid flat boundary at x2 = 0.  The incident polarization is
    (sin theta, -cos theta) for a p wave and (cos theta, sin theta) for an s
    wave; the total field u_inc + u_p (alpha, beta) + u_s (gamma, -alpha)
    vanishes on the boundary.  beta is imaginary (an evanescent p mode) once
    an s wave's alpha passes k_p."""
    kp = float(np.real(medium.k_p))
    ks = float(np.real(medium.k_s))
    alpha = (kp if kind == "plane_p" else ks) * np.sin(theta)
    beta = np.sqrt(complex(kp**2 - alpha**2))
    gam = np.sqrt(ks**2 - alpha**2)
    mat = np.array([[alpha, gam], [beta, -alpha]])
    pol = (np.sin(theta), -np.cos(theta)) if kind == "plane_p" else (np.cos(theta), np.sin(theta))
    up, us = np.linalg.solve(mat, -np.array(pol))
    return alpha, up, us


# ---------------------------------------------------------------------------
# literal three-case form of the 2D mode matrix
# ---------------------------------------------------------------------------
def _literal_block(medium, mode: ModeTable, D, s):
    lam, mu = medium.lam, medium.mu
    kp2, ks2 = medium.k_p**2, medium.k_s**2
    a = mode.alpha_l[0]
    a2 = a * a
    klass = mode.klass[0]
    if klass == "L1":
        pref = 0.25j / np.pi * (lam + mu) / (mu * (lam + 2 * mu) * (kp2 - ks2))
        b = np.sqrt(kp2 - a2)
        g = np.sqrt(ks2 - a2)
        eb, eg = np.exp(1j * b * D), np.exp(1j * g * D)
        M = np.array([[g * eg + a2 / b * eb, s * a * (eb - eg)],
                      [s * a * (eb - eg), b * eb + a2 / g * eg]])
    elif klass == "L2":
        pref = 0.25 / np.pi * (lam + mu) / (mu * (lam + 2 * mu) * (ks2 - kp2))
        bp = np.sqrt(a2 - kp2)
        g = np.sqrt(ks2 - a2)
        ebp, eg = np.exp(-bp * D), np.exp(1j * g * D)
        M = np.array([[-a2 / bp * ebp - 1j * g * eg, 1j * a * s * (eg - ebp)],
                      [1j * a * s * (eg - ebp), bp * ebp - 1j * a2 / g * eg]])
    else:
        pref = 0.25 / np.pi * (lam + mu) / (mu * (lam + 2 * mu) * (ks2 - kp2))
        bp = np.sqrt(a2 - kp2)
        bs = np.sqrt(a2 - ks2)
        ebp, ebs = np.exp(-bp * D), np.exp(-bs * D)
        # bs ebs - a^2/bp ebp and bp ebp - a^2/bs ebs subtract O(|alpha_l|)
        # terms; with a^2/b = b + k^2/b they cancel in bs - bp instead
        dbs = (kp2 - ks2) / (bs + bp)       # bs - bp
        de = ebp * np.expm1(-dbs * D)       # ebs - ebp
        bebs = dbs * ebs + bp * de          # bs ebs - bp ebp
        M = np.array([[bebs - kp2 / bp * ebp, 1j * a * s * de],
                      [1j * a * s * de, -bebs - ks2 / bs * ebs]])
    return pref * M


def mode_blocks_2d(medium, modes: ModeTable, D, s, jet: bool = False):
    """Mode matrices M(alpha_l, d) (..., 2, 2) of the modes of ``modes`` at |d| = D
    and sgn(d) = s, broadcast together, or the (value, d/dx1, d/dx2) tuple of
    the term e^{i alpha_l tau} M at tau = 0 when ``jet``.

    Each mode on its own, W_b Eb + W_d (Eg - Eb) with the library's weights;
    Eg - Eb = Eb expm1(i (g - b) D), or Eg - Eb itself where that overflows.
    """
    g_b, W = _mode_weights(medium, modes, jet)
    Eb = np.exp(1j * modes.beta_l * D)
    with np.errstate(over="ignore", invalid="ignore"):
        dE = Eb * np.expm1(1j * g_b * D)
    if not np.all(np.isfinite(dE)):
        dE = np.where(np.isfinite(dE), dE, np.exp(1j * modes.gamma_l * D) - Eb)
    w = Eb[..., None] * W[0] + dE[..., None] * W[1]
    w[..., list(_ODD_COLUMNS[:4 if jet else 1])] *= np.asarray(s)[..., None]
    parts = [w[..., k:k + 3][..., [0, 1, 1, 2]].reshape(w.shape[:-1] + (2, 2))
             for k in range(0, w.shape[-1], 3)]
    return tuple(parts) if jet else parts[0]


@dataclass(frozen=True)
class ModeTerm2D:
    """One mode's 2x2 block (prefactor included) and which formula produced it."""

    mode: ModeTable
    matrix: np.ndarray
    case_used: str


def mode_term_2d(medium: ElasticMedium, mode: ModeTable, x2: float, y2: float,
                 form: str = "unified") -> ModeTerm2D:
    """Block G_i^{alpha_l}(x2, y2) of the one mode of ``mode``, literal or unified form."""
    d = x2 - y2
    D, s = abs(d), np.sign(d)
    if form == "unified":
        mat = mode_blocks_2d(medium, mode, D, s)[0]
        case = "unified"
    elif form == "literal":
        mat = _literal_block(medium, mode, D, s)
        case = f"literal_{mode.klass[0]}"
    else:
        raise ValueError(f"form must be 'literal' or 'unified', got {form!r}")
    return ModeTerm2D(mode, mat, case)


# ---------------------------------------------------------------------------
# the biperiodic series one exponential per mode
# ---------------------------------------------------------------------------
def biqp3d_per_mode(medium: ElasticMedium, q: QuasiMomentum, X, y,
                    tol: float = 1e-10) -> np.ndarray:
    """``sum_l e^{i (a1_l d1 + a2_l d2)} c_bi_arrays(a1_l, a2_l, d3)`` point by point.

    Sums over the disk ``greenbi_eval_batch`` takes for the batch X (sized
    from its smallest |d3|), with one exponential per mode: the reference for
    the batch's row-wise contraction with per-axis exponentials.
    """
    d = np.atleast_2d(np.asarray(X, dtype=float)) - np.asarray(y, dtype=float)
    modes, _ = series_window(medium, q, float(np.min(np.abs(d[:, 2]))), tol,
                             _biqp_tail_bound(medium))
    a1, a2 = modes.alpha_l.T
    return np.array([np.tensordot(np.exp(1j * (a1 * d1 + a2 * d2)),
                                  c_bi_arrays(medium, modes, d3), axes=(0, 0))
                     for d1, d2, d3 in d.tolist()])


# ---------------------------------------------------------------------------
# lattice sums: one tensor per copy, and Richardson-extrapolated damped sums
# ---------------------------------------------------------------------------
def lattice_sum_per_copy(medium: ElasticMedium, q: QuasiMomentum, x, y,
                         damping: float = 0.0, N: int = 20) -> np.ndarray:
    """``sum_n e^{i n.alpha - damping |n|^2} kupradze(x, y + shift_n)``, copy by copy.

    The reference for ``lattice_sum``, which contracts scalar radial sums
    instead of adding one tensor per copy.
    """
    dim = 2 if q.kind == "qp2d" else 3
    alpha = np.atleast_1d(np.asarray(q.alpha, dtype=float))
    y = np.asarray(y, dtype=float)
    total = np.zeros((dim, dim), dtype=complex)
    for n in product(range(-N, N + 1), repeat=alpha.size):
        n = np.array(n, dtype=float)
        shift = np.zeros(dim)
        shift[:n.size] = n
        weight = np.exp(1j * (n @ alpha) - damping * (n @ n))
        total += weight * kupradze(medium, dim, x, y + shift).value
    return total


def lattice_sum_richardson(medium: ElasticMedium, q: QuasiMomentum, x, y,
                           eps_list=(0.04, 0.02, 0.01), N: int = 600) -> np.ndarray:
    """Richardson-extrapolated Gaussian-damped lattice sum at real frequency.

    Extrapolates the damped sums to ``damping -> 0`` assuming an expansion in
    powers of the damping parameter; only used as a low-accuracy oracle.
    """
    eps = np.asarray(eps_list, dtype=float)
    table = [lattice_sum_per_copy(medium, q, x, y, damping=e, N=N) for e in eps]
    n = len(table)
    # Neville elimination in the damping parameter
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = eps[i], eps[i + level]
            table[i] = (x0 * table[i + 1] - x1 * table[i]) / (x0 - x1)
    return table[0]


# ---------------------------------------------------------------------------
# transversality of 3D Rayleigh s-coefficients
# ---------------------------------------------------------------------------
def transversality_defect(coeffs: RayleighCoeffs3Bi) -> float:
    """max |(alpha_n, gamma_n) . A_sn| over modes; optional validation only."""
    worst = 0.0
    for (a1, a2), g, asv in zip(coeffs.modes.alpha_l, coeffs.modes.gamma_l, coeffs.a_s):
        kvec = np.array([a1, a2, g])
        worst = max(worst, abs(np.dot(kvec, np.asarray(asv))))
    return worst


# ---------------------------------------------------------------------------
# off-node log-quadrature weights, one point at a time
# ---------------------------------------------------------------------------
def log_quadrature_weights_at(t: float, nodes: np.ndarray) -> np.ndarray:
    """Weights R_j(t) of the log rule at one point t, the reference for the FFT form
    ``bem2d.log_quadrature_weights_off_node``."""
    N = len(nodes)
    n = N // 2
    m = np.arange(1, n)
    diff = t - nodes
    w = -(2.0 / N) * np.cos(2 * np.pi * np.outer(diff, m)) @ (1.0 / m) \
        - (2.0 / N**2) * np.cos(np.pi * N * diff)
    return w


# ---------------------------------------------------------------------------
# central-difference divergence and curl of a vector field at one point
# ---------------------------------------------------------------------------
def fd_divergence(field, x, h: float = 1e-5):
    """Central-difference divergence of a vector field at one point."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    acc = 0.0 + 0.0j
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        acc += (field((x + e)[None, :])[0][i] - field((x - e)[None, :])[0][i]) / (2 * h)
    return acc


def fd_curl(field, x, h: float = 1e-5):
    """Central-difference curl. Scalar in 2D, 3-vector in 3D."""
    x = np.asarray(x, dtype=float)
    dim = x.size

    def d(i, j):
        e = np.zeros(dim)
        e[j] = h
        return (field((x + e)[None, :])[0][i] - field((x - e)[None, :])[0][i]) / (2 * h)

    if dim == 2:
        return d(1, 0) - d(0, 1)
    return np.array([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)])


# ---------------------------------------------------------------------------
# Wood-anomaly predicate, one mode at a time
# ---------------------------------------------------------------------------
def wood_modes_brute(medium: ElasticMedium, q: QuasiMomentum, threshold: float):
    """Indices of the modes with Im(gamma_l) <= threshold that sit at a cut-off.

    Enumerates the window mode by mode in Python floats (rows of m_1, then
    m_2 within the disk row for the pair lattice) and returns the list of
    ``(m, which)`` for every mode with ``||alpha_l|^2 - k^2| < 1e-8 k_s^2``,
    ``which`` in "p", "s".
    """
    kp2 = float(np.real(medium.k_p**2))
    ks2 = float(np.real(medium.k_s**2))
    margin = 1e-8 * ks2
    r = float(np.sqrt(ks2 + threshold**2))
    two_pi = 2.0 * np.pi

    def interval(alpha, rad):
        return range(int(np.ceil((-rad - alpha) / two_pi)), int(np.floor((rad - alpha) / two_pi)) + 1)

    if q.kind == "biqp3d":
        modes = []
        for m1 in interval(q.alpha[0], r):
            a1 = q.alpha[0] + two_pi * m1
            if r * r - a1 * a1 >= 0.0:
                for m2 in interval(q.alpha[1], np.sqrt(r * r - a1 * a1)):
                    a2 = q.alpha[1] + two_pi * m2
                    modes.append(((m1, m2), a1 * a1 + a2 * a2))
    else:
        modes = [(m, (q.alpha + two_pi * m) ** 2) for m in interval(q.alpha, r)]
    return [(m, which) for m, a2 in modes
            for which, k2 in (("p", kp2), ("s", ks2)) if abs(a2 - k2) < margin]


# ---------------------------------------------------------------------------
# Near-line evaluation of the 2D tensor by Abel-Plana tail summation
# (Linton, J. Eng. Math. 33 (1998)), the kernel table's independent reference.
#
# The plain series needs O(1/d) modes as the transverse gap d -> 0.  Here the
# finitely many low modes are summed exactly and each one-sided evanescent
# tail is replaced by the Abel-Plana identity
#
#   sum_{m>=0} h(m) = h(0)/2 + int_0^inf h(m) dm
#                     + i int_0^inf [h(iy) - h(-iy)] / (e^{2 pi y} - 1) dy,
#
# rotating the first integral onto the ray of steepest decay.  Both integrals
# converge exponentially for any (t1, d) != (0, 0) mod 1.
# ---------------------------------------------------------------------------
_AP_NODES = 48
_AP_CHUNK = 4096
_gl_x, _gl_w = roots_laguerre(_AP_NODES)
_leg_x, _leg_w = np.polynomial.legendre.leggauss(16)


def _momenta(medium, a):
    """The mode table of the momenta ``a`` (any shape, complex allowed), built
    field by field: the Abel-Plana contours take the mode matrices at complex
    momenta, which have no lattice index for ``ModeTable.of``."""
    a = np.asarray(a, dtype=complex)
    a2 = a * a
    return ModeTable(medium, None, a, a2, branch_sqrt(medium.k_p**2 - a2),
                     branch_sqrt(medium.k_s**2 - a2))


def _mode_h(medium, a, D, s, tau, jet: bool):
    """Phased mode matrices; a, D, s, tau broadcast together.

    Returns (..., 2, 2) or a (value, d1, d2) tuple of such stacks.
    """
    ph = np.exp(1j * a * tau)[..., None, None]
    if jet:
        return tuple(b * ph for b in mode_blocks_2d(medium, _momenta(medium, a), D, s, True))
    return mode_blocks_2d(medium, _momenta(medium, a), D, s) * ph


def _ray_nodes(rho_min, first):
    """Panelized Gauss-Legendre nodes for int_0^inf f(u) du where f has a
    singularity at distance ``first`` from u = 0 and decays like e^{-2 pi rho u}.

    The first panel ends at ``first``; geometrically growing panels then
    resolve the algebraic 1/m tail of the mode sum and the exponential cutoff.
    """
    u_max = 42.0 / (2 * np.pi * max(rho_min, 1e-9))
    knots = [0.0, first]
    while knots[-1] < u_max:
        knots.append(2.0 * knots[-1])
    nodes, weights = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * _leg_x)
        weights.append(half * _leg_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _ap_tail_batch(medium, a0, sigma, D, s, tau, jet):
    """Abel-Plana sum of modes a0 + 2 pi sigma m over m >= 0, batched.

    D, s, tau are (P,) arrays; the mode function is analytic in the mode
    index for |Re a| > k_s, which the caller guarantees via the margin.
    """
    rho0 = np.maximum(np.hypot(tau, D), 1e-14)  # (P,)

    def h(mm):  # mm (P, K) complex
        a = a0 + 2 * np.pi * sigma * mm
        return _mode_h(medium, a, D[:, None], s[:, None], tau[:, None], jet)

    end = h(np.zeros((len(D), 1)))

    # rotated ray: (i sigma tau - D) e^{i theta} = -rho, so the integrand
    # decays like e^{-2 pi rho u} exactly along the ray
    w_c = D - 1j * sigma * tau
    eith = np.conj(w_c) / np.abs(w_c)  # (P,)
    # the mode function's nearest branch point, alpha = +-k_s, lies at least
    # margin + 1 modes from a0 in the index; rays near the imaginary axis
    # (|tau| -> 1/2) pass that close to it, so the first panel ends there
    u, uw = _ray_nodes(float(np.min(rho0)), abs(abs(a0) - medium.k_s) / (2 * np.pi))
    decay = np.exp(-2 * np.pi * np.outer(rho0, u))  # (P, K) true modulus
    ray_vals = h(eith[:, None] * u[None, :])
    # drop the tiny tail contributions explicitly to avoid overflow surprises
    ray_wts = np.where(decay < 1e-18, 0.0, uw[None, :] * np.ones((len(D), 1)))

    # correction integral, conservative decay rate (true rate is 2 pi (1-|tau|))
    rate = 2 * np.pi * np.maximum(0.25, 1.0 - np.abs(tau) - D)  # (P,)
    y = _gl_x[None, :] / rate[:, None]
    num_p = h(1j * y)
    num_m = h(-1j * y)
    ker = (_gl_w[None, :] * np.exp(_gl_x[None, :] - 2 * np.pi * y)
           / (1.0 - np.exp(-2 * np.pi * y)))

    def combine(endpoint, rv, cv):
        ray = np.einsum("pk,pkab->pab", ray_wts, rv)
        corr = np.einsum("pk,pkab->pab", ker, cv)
        return 0.5 * endpoint + eith[:, None, None] * ray \
            + (1j / rate)[:, None, None] * corr

    if jet:
        return tuple(combine(end[j][:, 0], ray_vals[j], num_p[j] - num_m[j])
                     for j in range(3))
    return combine(end[:, 0], ray_vals, num_p - num_m)


def _main_window(medium, alpha, margin_modes):
    """Index range of the exactly summed modes: |alpha_l| <= k_s plus the margin."""
    ks = float(np.real(medium.k_s))
    lo = int(np.floor((-ks - 2 * np.pi * margin_modes - alpha) / (2 * np.pi)))
    hi = int(np.ceil((ks + 2 * np.pi * margin_modes - alpha) / (2 * np.pi)))
    return lo, hi


def _abel_plana(medium, alpha, tau, d, want_jet, margin_modes):
    """Low-mode block plus Abel-Plana sums of the two evanescent tails."""
    n = len(tau)
    if n > _AP_CHUNK:
        # sort by separation so each chunk shares a ray panel structure
        order = np.argsort(np.hypot(tau, d))
        inv = np.argsort(order)
        parts = [_abel_plana(medium, alpha, tau[order][i:i + _AP_CHUNK],
                             d[order][i:i + _AP_CHUNK], want_jet, margin_modes)
                 for i in range(0, n, _AP_CHUNK)]
        if want_jet:
            return tuple(np.concatenate([p[j] for p in parts])[inv] for j in range(3))
        return np.concatenate(parts)[inv]

    D, s = np.abs(d), np.sign(d)
    lo, hi = _main_window(medium, alpha, margin_modes)
    al = (alpha + 2 * np.pi * np.arange(lo, hi + 1)).astype(complex)
    main = _mode_h(medium, al[None, :], D[:, None], s[:, None], tau[:, None], want_jet)
    hi_tail = _ap_tail_batch(medium, alpha + 2 * np.pi * (hi + 1), +1, D, s, tau, want_jet)
    lo_tail = _ap_tail_batch(medium, alpha + 2 * np.pi * (lo - 1), -1, D, s, tau, want_jet)
    if want_jet:
        return tuple(main[j].sum(axis=1) + hi_tail[j] + lo_tail[j] for j in range(3))
    return main.sum(axis=1) + hi_tail + lo_tail


def _series_sum(medium, modes, tau, d, want_jet: bool):
    """sum_l e^{i alpha_l tau} M(alpha_l, d) over the table ``modes`` at pairs (tau, d).

    One (pairs x modes) contraction per output and block of pairs, the block
    sized so the weighted modes and the mode matrices of a jet stay near 25 MB.
    Returns (P, 2, 2), or a (value, d/dx1, d/dx2) tuple when ``want_jet``.
    """
    al = modes.alpha_l
    out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
    rows = max(1, (1 << 16) // len(al))
    for i in range(0, len(tau), rows):
        sl = slice(i, i + rows)
        ph = np.exp(1j * np.outer(tau[sl], al))
        blocks = mode_blocks_2d(medium, modes, np.abs(d[sl])[:, None], np.sign(d[sl])[:, None],
                                want_jet)
        for o, b in zip(out, blocks if want_jet else (blocks,)):
            o[sl] = np.einsum("pm,pmab->pab", ph, b)
    return tuple(out) if want_jet else out[0]


def near_line_abel_plana(medium: ElasticMedium, alpha: float, tau, d,
                         want_jet: bool = False, margin_modes: int = 3):
    """Quasi-periodic tensor at separations (tau, d), valid arbitrarily close
    to (and on) the source-height line, d = 0 included, for
    (tau, d) != (0, 0) mod the lattice.  |tau| <= 1/2 expected.

    Pairs with |d| <= NEAR_GAP take the exact low-mode block plus
    Abel-Plana summation of the two evanescent tails (``margin_modes``
    extra modes each side in the block); pairs with |d| > NEAR_GAP take the
    plain series over the window that gap NEAR_GAP needs.
    Returns (P, 2, 2), or a (value, d/dx1, d/dx2) tuple when ``want_jet``.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    q = QuasiMomentum("qp2d", alpha)
    lo, hi = _main_window(medium, alpha, margin_modes)
    ModeTable.of(medium, q, np.arange(lo, hi + 1))   # the Wood check of the exact block

    far = np.abs(d) > NEAR_GAP
    out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
    if np.any(far):
        window = ModeTable.of(medium, q, mode_window(medium, q, NEAR_GAP, _FAR_TOL))
        vals = _series_sum(medium, window, tau[far], d[far], want_jet)
        for o, v in zip(out, vals if want_jet else (vals,)):
            o[far] = v
    if not np.all(far):
        vals = _abel_plana(medium, alpha, tau[~far], d[~far], want_jet, margin_modes)
        for o, v in zip(out, vals if want_jet else (vals,)):
            o[~far] = v
    return tuple(out) if want_jet else out[0]
