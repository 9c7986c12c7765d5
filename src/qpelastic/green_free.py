"""Free-space Kupradze tensors and phased lattice-sum oracles.

The lattice sums are the slow-but-independent cross-check for every spectral
series in this package.  The direct sum :func:`lattice_sum` converges
absolutely only at a complexified frequency ``omega*(1+i*eta)``; the Ewald
split :func:`ewald_sum` of the biperiodic lattice converges like a Gaussian
at real frequency too.  Either agrees with the series up to the comb
normalization returned by :func:`comb_normalization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from ._series import geom_poly_sum, points
from .errors import CoincidentPoints
from .medium import ElasticMedium, ModeTable, QuasiMomentum
from .specfun import hankel01

COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class GreenEval:
    """A Green-tensor value with truncation metadata.

    ``tail_bound`` bounds the dropped series tail in max-norm (entrywise
    absolute value); it is 0 for closed-form evaluations and ``inf`` when no
    rigorous bound is available (conditionally convergent lattice sums).
    """

    dim: int
    value: np.ndarray
    modes_used: int
    tail_bound: float


def comb_normalization(kind: str) -> float:
    """Factor c with  spectral_series = c * phased_kupradze_lattice_sum.

    The spectral series solve ``(Delta* + rho omega^2) G = w * comb`` with the
    Fourier weight ``w = 1/(2 pi)`` per periodic direction (``1/(4 pi^2)`` for
    the biperiodic lattice), while the free-space tensor solves the same
    equation with ``-delta``; hence c = -w.
    """
    if kind in ("qp2d", "qp3d"):
        return -1.0 / (2.0 * np.pi)
    if kind == "biqp3d":
        return -1.0 / (4.0 * np.pi**2)
    raise ValueError(f"unknown kind {kind!r}")


def _dh0_over_r_series(ks, kp, r, terms: int = 12):
    """(1/r) d/dr [H_0^(1)(k_s r) - H_0^(1)(k_p r)] from the ascending series.

    With u = (k r / 2)^2, J_0 = sum_m (-u)^m / m!^2 and
    Y_0 = (2/pi) [(ln(k r/2) + gamma) J_0 + sum_{m>=1} (-1)^{m+1} H_m u^m / m!^2]
    (H_m the harmonic numbers).  The 1/r^2 parts of the two wavenumbers cancel
    analytically, in the J_0 difference, instead of in floating point.
    Accurate to rounding for |k_s| r <= 1, where u <= 1/4.
    """
    c = 2j / np.pi
    out = np.zeros(np.shape(r), dtype=complex)
    for k, sign in ((ks, 1.0), (kp, -1.0)):
        u = (0.5 * k * r) ** 2
        a = np.zeros_like(out)     # dJ_0/du
        b = np.zeros_like(out)     # d/du of the Y_0 power series
        term = -np.ones_like(out)  # (-1)^m u^(m-1) / (m! (m-1)!)
        harmonic = 0.0
        for m in range(1, terms + 1):
            harmonic += 1.0 / m
            a += term
            b -= harmonic * term
            term = term * (-u / (m * (m + 1)))
        log_part = 1.0 + c * (np.log(0.5 * k * r) + np.euler_gamma)
        out += sign * (0.5 * k * k) * (a * log_part + c * b)
    # (J_0(k_s r) - J_0(k_p r)) / r^2, the m = 0 terms cancelled
    jdiff = np.zeros_like(out)
    fact = 1.0
    for m in range(1, terms + 1):
        fact *= m * m
        jdiff += (-1) ** m * ((ks * ks / 4) ** m - (kp * kp / 4) ** m) * r ** (2 * m - 2) / fact
    return out + c * jdiff


def _radial2d(medium: ElasticMedium, r):
    """Radial parts of the 2D tensor at distances r (any shape).

    Returns (H_0(k_s r), H_1(k_s r), H_1(k_p r), f'/r, f'' + f'/r) for the
    radial f = H_0(k_s r) - H_0(k_p r), with f'' + f'/r = -k_s^2 H_0(k_s r)
    + k_p^2 H_0(k_p r) (Bessel's equation).  f'/r comes from the ascending
    series for |k_s| r < 1, where the Hankel form loses digits to cancelling
    1/r^2 parts.
    """
    ks, kp = medium.k_s, medium.k_p
    h0s, h1s = hankel01(ks * r)
    h0p, h1p = hankel01(kp * r)
    f1 = np.asarray((-ks * h1s + kp * h1p) / r)
    small = np.abs(ks) * r < 1.0
    if np.any(small):
        f1[small] = _dh0_over_r_series(ks, kp, r[small])
    lap = -(ks**2) * h0s + kp**2 * h0p
    return h0s, h1s, h1p, f1, lap


def _tensor_coeffs(medium: ElasticMedium, dim: int, r):
    """(a, c) with Phi(dx) = a(r) I + c(r) dx dx^T, where r = |dx|.

    The free-space tensor is a(r) I + b(r) rhat rhat^T; c = b / r^2, so a sum
    of phased copies needs only scalars per copy.  2D: a = (i/4mu) H_0(k_s r)
    + (i/4 rho omega^2) f'/r, b = (i/4 rho omega^2)(f'' - f'/r) with f from
    :func:`_radial2d`.  3D: the same with f = (e^{i k_s r} - e^{i k_p r})/r
    and 1/(4 pi) in place of i/4.
    """
    if dim == 2:
        h0s, _, _, f1, lap = _radial2d(medium, r)
        pref = 0.25j / medium.rho_omega2
        return (0.25j / medium.mu) * h0s + pref * f1, pref * (lap - 2.0 * f1) / (r * r)
    ks, kp = medium.k_s, medium.k_p
    inv_r = 1.0 / r
    es, ep = np.exp(1j * ks * r), np.exp(1j * kp * r)
    fp_r = ((1j * ks) * es - (1j * kp) * ep - (es - ep) * inv_r) * (inv_r * inv_r)
    fpp = ((kp**2) * ep - (ks**2) * es) * inv_r - 2.0 * fp_r
    pref = 1.0 / (4.0 * np.pi)
    a = (pref / medium.mu) * es * inv_r + (pref / medium.rho_omega2) * fp_r
    return a, (pref / medium.rho_omega2) * (fpp - fp_r) * (inv_r * inv_r)


def _kupradze_value(medium: ElasticMedium, dx):
    """a(r) I + c(r) dx dx^T of :func:`_tensor_coeffs`, batched over leading
    axes; dx has shape (..., 2) or (..., 3)."""
    dx = np.asarray(dx, dtype=float)
    dim = dx.shape[-1]
    a, c = _tensor_coeffs(medium, dim, np.sqrt(np.sum(dx * dx, axis=-1)))
    dxdx = dx[..., :, None] * dx[..., None, :]
    return a[..., None, None] * np.eye(dim) + c[..., None, None] * dxdx


def kupradze(medium: ElasticMedium, dim: int, x, y) -> GreenEval:
    """Free-space fundamental tensor, ``(Delta* + rho omega^2) Phi = -delta I``.

    2D: ``(i/4mu) H_0^(1)(k_s r) I + (i/4 rho omega^2) Hess[H_0^(1)(k_s r) - H_0^(1)(k_p r)]``;
    3D: ``(1/4 pi mu) e^{i k_s r}/r I + (1/4 pi rho omega^2) Hess[(e^{i k_s r} - e^{i k_p r})/r]``.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    x, y = points([x], y, dim)
    dx = x[0] - y
    if np.linalg.norm(dx) < COINCIDENT_TOL:
        raise CoincidentPoints(f"|x-y| = {np.linalg.norm(dx):.3e}")
    return GreenEval(dim, _kupradze_value(medium, dx), 0, 0.0)


def lattice_sum(medium: ElasticMedium, q: QuasiMomentum, x, y, N: int = 100) -> GreenEval:
    """Phased sum of free-space copies over the source lattice.

    ``sum_{|n|<=N} e^{i n alpha} Phi(x, y + n e_1)`` for the scalar-lattice
    kinds; pairs ``n=(n1,n2)`` with ``|n1|, |n2| <= N``, phase
    ``e^{i n.alpha}`` and shift ``n1 e_1 + n2 e_2`` for ``biqp3d``.  With
    Phi = a(r) I + c(r) dx dx^T the sum is ``(sum w a) I + dx^T diag(w c) dx``:
    scalars per copy, no tensor.
    """
    if not N >= 0:
        raise ValueError(f"N must be >= 0, got {N!r}")
    dim = 2 if q.kind == "qp2d" else 3
    x, y = points([x], y, dim)
    d = x[0] - y
    n = np.arange(-N, N + 1)

    def phases(alpha):
        return np.exp(1j * n * alpha)

    # dx[:, j] = x - y - shift_j, copies along the second axis
    if q.kind == "biqp3d":
        a1, a2 = q.alpha
        weights = np.outer(phases(a1), phases(a2)).ravel()
        dx = np.empty((3, weights.size))
        dx[0] = np.repeat(d[0] - n, n.size)
        dx[1] = np.tile(d[1] - n, n.size)
        dx[2] = d[2]
    else:
        weights = phases(q.alpha)
        dx = np.repeat(d[:, None], n.size, axis=1)
        dx[0] -= n

    r = np.sqrt(np.einsum("ij,ij->j", dx, dx))
    if np.any(r < COINCIDENT_TOL):
        raise CoincidentPoints("evaluation point on the source lattice")
    a, c = _tensor_coeffs(medium, dim, r)
    wc = weights * c
    # dx diag(wc) dx^T as two real products; a complex-by-real one upcasts dx
    total = (weights @ a) * np.eye(dim) + (dx * wc.real) @ dx.T + 1j * ((dx * wc.imag) @ dx.T)
    offset = float(np.max(np.abs(d[:2 if q.kind == "biqp3d" else 1])))
    tail = _lattice_tail_bound(medium, q, N, offset)
    return GreenEval(dim, total, len(weights), tail)


def _lattice_tail_bound(medium, q, N, offset):
    """Geometric bound on the omitted copies; inf at real omega.

    ``offset`` is the largest in-plane component of |x - y|, so an omitted
    copy n lies at least max_i |n_i| - offset from the target.  The bound is
    also inf when that leaves an omitted copy closer than 1.
    """
    rate = float(np.imag(medium.k_p))
    if rate <= 0.0 or N + 1 - offset < 1.0:
        return float("inf")
    # |Phi| at distance d >= n - max(2, offset + 1) decays like e^{-Im(k_p) d} with an
    # O(1/sqrt d) prefactor; use a crude unit prefactor times the mode scale.
    scale = 1.0 / (4.0 * abs(medium.mu)) + 1.0 / (4.0 * abs(medium.rho_omega2))
    ratio = np.exp(-rate)
    first = np.exp(-rate * (N + 1 - max(2.0, offset + 1.0)))
    if q.kind == "biqp3d":
        # 8m copies have max(|n1|, |n2|) = m: sum_{m>N} 8m ratio^(m-N-1)
        geo = 8.0 * first * geom_poly_sum(N + 1, 1, ratio, 1)
    else:
        geo = 2.0 * first / (1.0 - ratio)
    return float(scale * geo)


# ---------------------------------------------------------------------------
# The Ewald split of the biperiodic lattice sum
# ---------------------------------------------------------------------------
_SQRT_PI = math.sqrt(math.pi)


def _exp_erfc(e, g, w):
    """e erfc(w) from g = e e^{-w^2}: g erfcx(w) where Re w >= 0, else
    2 e - g erfcx(-w).  |erfcx| <= 1 on Re >= 0, so no factor overflows."""
    neg = w.real < 0
    ex = erfcx(np.where(neg, -w, w))
    return np.where(neg, 2.0 * e - g * ex, g * ex)


def _ewald_spectral(modes: ModeTable, d, eta):
    """Spectral parts of S_k and its Hessian at d, rows k = k_s, k_p.

    sum_m e^{i alpha_m . rho} F_m(z), F_m = [e^{g z} erfc(g/2eta + eta z) +
    e^{-g z} erfc(g/2eta - eta z)]/(4g), g = -i sqrt(k^2 - |alpha_m|^2):
    both erfc terms are erfcx times the one Gaussian e^{-g^2/4eta^2 - eta^2 z^2}.
    F' = [e^{g z} erfc(+) - e^{-g z} erfc(-)]/4 and F'' = g^2 F - (eta/sqrt pi)
    times that Gaussian.  F is even in z; it is formed at t = |z|.
    """
    t = abs(d[2])
    gam = -1j * np.stack([modes.gamma_l, modes.beta_l])
    gauss = np.exp(gam * gam * (-0.25 / eta**2) - (eta * t) ** 2)
    w = gam / (2 * eta)
    ep = gauss * erfcx(w + eta * t)
    em = _exp_erfc(np.exp(-gam * t), gauss, w - eta * t)
    f0 = (ep + em) / (4 * gam)
    f1 = (0.25 * np.sign(d[2])) * (ep - em)
    f2 = gam * gam * f0 - (eta / _SQRT_PI) * gauss
    a1, a2 = modes.alpha_l.T
    ph = np.exp(1j * (modes.alpha_l @ d[:2]))
    v = f0 @ (ph[:, None] * np.stack([np.ones_like(a1), -a1 * a1, -a2 * a2, -a1 * a2], axis=1))
    g = f1 @ ((1j * ph)[:, None] * modes.alpha_l)
    hess = np.empty((2, 3, 3), dtype=complex)
    hess[:, 0, 0], hess[:, 1, 1], hess[:, 2, 2] = v[:, 1], v[:, 2], f2 @ ph
    hess[:, 0, 1] = hess[:, 1, 0] = v[:, 3]
    hess[:, 0, 2] = hess[:, 2, 0] = g[:, 0]
    hess[:, 1, 2] = hess[:, 2, 1] = g[:, 1]
    return v[:, 0], hess


def _ewald_spatial(k, alpha, d, eta, radius):
    """Spatial parts of S_k and its Hessian at d, one row per wavenumber of k (2, 1),
    over the copies n with |(d1, d2) - n| < radius; and the number of copies.

    sum_n e^{i alpha.n} h(|d - n|), h = [e^{ikr} erfc(eta r + ik/2eta) +
    e^{-ikr} erfc(eta r - ik/2eta)]/(8 pi r); both terms are erfcx times
    e^{k^2/4eta^2 - eta^2 r^2}.  The Hessian of h(|x|) is
    h'' rhat rhat^T + (h'/r)(I - rhat rhat^T).
    """
    lo = np.ceil(d[:2] - radius).astype(int)
    hi = np.floor(d[:2] + radius).astype(int)
    n1, n2 = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1),
                         indexing="ij")
    dx = np.stack([d[0] - n1.ravel(), d[1] - n2.ravel(), np.full(n1.size, d[2])])
    keep = dx[0] ** 2 + dx[1] ** 2 < radius * radius
    dx = dx[:, keep]
    r = np.sqrt(np.einsum("ij,ij->j", dx, dx))
    if np.any(r < COINCIDENT_TOL):
        raise CoincidentPoints("evaluation point on the source lattice")
    ph = np.exp(1j * (alpha[0] * n1.ravel()[keep] + alpha[1] * n2.ravel()[keep]))
    gauss = np.exp(k * k * (0.25 / eta**2) - (eta * r) ** 2)
    w = (0.5j / eta) * k
    ekr = np.exp(1j * k * r)
    p = _exp_erfc(ekr, gauss, eta * r + w)
    m = _exp_erfc(1.0 / ekr, gauss, eta * r - w)
    a, b = p + m, p - m
    inv_r = 1.0 / r
    pref = inv_r / (8 * np.pi)
    ge = (4 * eta / _SQRT_PI) * gauss
    h1 = pref * (1j * k * b - ge - a * inv_r)
    h2 = pref * (-k * k * a + 2 * eta * eta * r * ge - 2j * k * b * inv_r
                 + 2 * ge * inv_r + 2 * a * inv_r * inv_r)
    s = (pref * a) @ ph
    iso = (h1 * inv_r) @ ph
    # (h'' - h'/r)/r^2 weighs dx dx^T
    wc = (h2 - h1 * inv_r) * (inv_r * inv_r) * ph
    hess = np.einsum("kj,ij,lj->kil", wc, dx, dx) + iso[:, None, None] * np.eye(3)
    return s, hess, dx.shape[1]


def _ewald_tails(k_s, k_p, eta, t, w_val, w_hess):
    """``(bound, R_min, s)`` for the spectral terms with |alpha_m| >= R and for
    the spatial copies with |rho - n| >= R: ``bound(R)`` holds for R >= R_min
    and falls like e^{-R^2/s}.

    Each bounds the omitted part of the entries of w_val S_{k_s} I + w_hess
    (Hess S_{k_s} - Hess S_{k_p}) in max-norm.
    - Counting: the lattice alpha + 2 pi Z^2 has at most (R + pi sqrt2)^2/(4 pi)
      points in a disk of radius R (each point's cell lies in the disk widened
      by half a cell diagonal), and rho - Z^2 at most pi (R + 1/sqrt2)^2.  For
      a per-term envelope f falling on [R, inf), summing by parts gives
      sum_{|p| >= R} f(|p|) <= N(R) f(R) + int_R^inf N'(u) f(u) du.
    - Spectral term, with A = |alpha_m|, A^2 >= 2 Re k^2, A^2 >= 2 eta^2 (so
      the envelope falls) and A^2 >= Re k^2 + 4 eta^4 t^2:
      Re g >= sqrt(A^2 - Re k^2) >= A/sqrt2 and Re(g/2eta - eta t) >= 0, so
      both erfcx are <= 1 and, with |G| = e^{(Re k^2 - A^2)/4eta^2 - eta^2 t^2},
      |F| <= |G|/(sqrt2 A) and |alpha_i alpha_j F|, |alpha_i F'|, |F''| <=
      |G| (A/sqrt2 + |k|/2 + eta/sqrt pi).
    - Spatial copy, with r >= |rho - n| >= 1 and eta r >= Im k/(2 eta): both
      erfcx are <= 1, so with |H| = e^{Re k^2/4eta^2 - eta^2 r^2}
      |h| <= |H|/(4 pi) and every Hessian entry is <= |h''| + |h'|/r <=
      |H| (2|k|^2 + 6|k| + 12 eta/sqrt pi + 6 + 8 eta^3/sqrt pi)/(8 pi).
    """
    s = 4 * eta * eta
    rows = ((k_s, w_val), (k_p, 0.0))
    re_k2 = max(max(float(np.real(k * k)), 0.0) for k, _ in rows)
    spec_min = max(math.sqrt(2 * re_k2), math.sqrt(re_k2 + s * s * t * t / 4),
                   math.sqrt(s / 2))
    c = math.pi * math.sqrt(2)

    def spectral(R):
        e = math.exp(-R * R / s)
        i0 = 0.5 * math.sqrt(math.pi * s) * math.erfc(R / math.sqrt(s))
        i1 = 0.5 * s * e
        i2 = 0.5 * s * (R * e + i0)
        total = 0.0
        for k, w0 in rows:
            a0 = w0 / (math.sqrt(2) * R) + w_hess * (abs(k) / 2 + eta / _SQRT_PI)
            a1 = w_hess / math.sqrt(2)
            integral = a1 * i2 + (a0 + a1 * c) * i1 + a0 * c * i0
            total += math.exp(float(np.real(k * k)) / s - (eta * t) ** 2) * (
                (R + c) ** 2 / (4 * math.pi) * (a0 + a1 * R) * e + integral / (2 * math.pi))
        return total

    spat_min = max(1.0, max(float(np.imag(k)) for k, _ in rows) / (2 * eta * eta))
    cs = 1 / math.sqrt(2)

    def spatial(R):
        e = math.exp(-(eta * R) ** 2)
        count = math.pi * ((R + cs) ** 2 * e + e / eta**2
                           + cs * _SQRT_PI / eta * math.erfc(eta * R))
        total = 0.0
        for k, w0 in rows:
            ak = abs(k)
            b0 = 2 * ak * ak + 6 * ak + 12 * eta / _SQRT_PI + 6 + 8 * eta**3 / _SQRT_PI
            total += math.exp(float(np.real(k * k)) / s - (eta * t) ** 2) * (
                w0 / (4 * math.pi) + w_hess * b0 / (8 * math.pi)) * count
        return total

    return (spectral, spec_min, s), (spatial, spat_min, 1 / eta**2)


def _ewald_radius(bound, R, s, tol):
    """A radius >= R whose bound is <= tol, and that bound.  The bound falls
    like e^{-R^2/s}; each step lowers that factor by e times the excess."""
    while (b := bound(R)) > tol:
        R = math.sqrt(R * R + s * (math.log(b / tol) + 1.0))
    return R, b


def ewald_sum(medium: ElasticMedium, q: QuasiMomentum, x, y,
              tol: float = 1e-12) -> GreenEval:
    """Biperiodic lattice sum of Kupradze copies by the Ewald split; biqp3d only.

    ``comb_normalization("biqp3d")`` times the phased sum, so the value is the
    series' value: G = c [(1/mu) S_{k_s} I + (1/rho w^2) Hess(S_{k_s} - S_{k_p})]
    with the scalar sums S_k(x) = sum_n e^{i alpha.n} e^{ik|x-n|}/(4 pi |x-n|)
    split at eta = max(sqrt pi, |k_s|/3) into a spectral sum over the modes
    alpha_m = alpha + 2 pi m and a spatial sum over the copies (Linton, SIAM
    Rev. 52 (2010)).  Both converge like Gaussians, at real or complex
    frequency.  Each part takes the smallest disk its derived bound
    (``_ewald_tails``) holds to tol/2, so ``tail_bound`` <= tol bounds the
    omitted terms in max-norm.  ``modes_used`` counts modes plus copies.  At
    real frequency the mode table raises :class:`WoodAnomaly` on a mode at a
    cut-off, where F_m's 1/g is infinite.
    """
    if q.kind != "biqp3d":
        raise ValueError(f"ewald_sum sums the biperiodic lattice only, got kind {q.kind!r}")
    x, y = points([x], y, 3)
    d = x[0] - y
    ks, kp = medium.k_s, medium.k_p
    eta = max(_SQRT_PI, float(abs(ks)) / 3)
    c = comb_normalization("biqp3d")
    (spec, spec_min, s_spec), (spat, spat_min, s_spat) = _ewald_tails(
        ks, kp, eta, abs(float(d[2])), abs(c / medium.mu), abs(c / medium.rho_omega2))
    r_spec, tail_spec = _ewald_radius(spec, spec_min, s_spec, tol / 2)
    r_spat, tail_spat = _ewald_radius(spat, spat_min, s_spat, tol / 2)
    modes = ModeTable.within(medium, q, r_spec)
    s1, h1 = _ewald_spectral(modes, d, eta)
    s2, h2, copies = _ewald_spatial(np.array([[ks], [kp]], dtype=complex), q.alpha, d, eta,
                                    r_spat)
    s, hess = s1 + s2, h1 + h2
    value = c * ((s[0] / medium.mu) * np.eye(3) + (hess[0] - hess[1]) / medium.rho_omega2)
    return GreenEval(3, value, len(modes.m) + copies, tail_spec + tail_spat)
