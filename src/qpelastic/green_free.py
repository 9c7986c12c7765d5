"""Free-space Kupradze tensors and phased lattice-sum oracles.

The lattice sums are the slow-but-independent cross-check for every spectral
series in this package: at a complexified frequency ``omega*(1+i*eta)`` both
representations converge absolutely and must agree up to the comb
normalization returned by :func:`comb_normalization`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1, j0, j1, y0, y1

from .errors import CoincidentPoints
from .medium import ElasticMedium, QuasiMomentum

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


def _hankel01(k, r):
    """(H_0^(1)(k r), H_1^(1)(k r)); the cephes J/Y pair for real k, AMOS otherwise."""
    x = k * r
    if np.iscomplexobj(x):
        return hankel1(0, x), hankel1(1, x)
    return j0(x) + 1j * y0(x), j1(x) + 1j * y1(x)


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


def _kupradze2d_value(medium: ElasticMedium, dx, want_jet: bool = False):
    """Batched over leading axes; dx has shape (..., 2).

    Uses Hess f = (f'' + f'/r) rr^T + (f'/r) (I - 2 rr^T) for the radial
    f = H_0(k_s r) - H_0(k_p r), with f'' + f'/r = -k_s^2 H_0(k_s r) + k_p^2 H_0(k_p r)
    (Bessel's equation).  f'/r comes from the ascending series for
    |k_s| r < 1, where the Hankel form loses digits to cancelling 1/r^2 parts.

    With ``want_jet`` returns (value, d/dx1, d/dx2), from the third
    derivatives of f,

        d_i d_j d_k f = (lap' - 4 A/r) r_i r_j r_k
                        + (A/r) (delta_ij r_k + delta_ik r_j + delta_jk r_i),

    where lap' = k_s^3 H_1(k_s r) - k_p^3 H_1(k_p r) is the r-derivative of
    f'' + f'/r and A = f'' - f'/r = lap - 2 f'/r.  Both are free of the
    cancelling 1/r^2 parts once f'/r is.
    """
    dx = np.asarray(dx, dtype=float)
    ks, kp = medium.k_s, medium.k_p
    r = np.sqrt(np.sum(dx * dx, axis=-1))
    rhat = dx / r[..., None]
    h0s, h1s = _hankel01(ks, r)
    h0p, h1p = _hankel01(kp, r)
    f1 = np.asarray((-ks * h1s + kp * h1p) / r)
    small = np.abs(ks) * r < 1.0
    if np.any(small):
        f1[small] = _dh0_over_r_series(ks, kp, r[small])
    lap = -(ks**2) * h0s + kp**2 * h0p
    eye = np.eye(2)
    rr = rhat[..., :, None] * rhat[..., None, :]
    hess = lap[..., None, None] * rr + f1[..., None, None] * (eye - 2.0 * rr)
    value = (0.25j / medium.mu) * h0s[..., None, None] * eye \
        + (0.25j / medium.rho_omega2) * hess
    if not want_jet:
        return value
    a_r = (lap - 2.0 * f1) / r
    c3 = ks**3 * h1s - kp**3 * h1p - 4.0 * a_r
    out = [value]
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


def _kupradze3d_value(medium: ElasticMedium, dx):
    """Batched over leading axes; dx has shape (..., 3)."""
    dx = np.asarray(dx, dtype=float)
    ks, kp = medium.k_s, medium.k_p
    r = np.sqrt(np.sum(dx * dx, axis=-1))
    rhat = dx / r[..., None]
    es, ep = np.exp(1j * ks * r), np.exp(1j * kp * r)
    f = (es - ep) / r
    fp = (1j * ks * es - 1j * kp * ep) / r - f / r
    fpp = (-(ks**2) * es + kp**2 * ep) / r - 2.0 * fp / r
    eye = np.eye(3)
    rr = rhat[..., :, None] * rhat[..., None, :]
    hess = fpp[..., None, None] * rr + (fp / r)[..., None, None] * (eye - rr)
    pref = 1.0 / (4.0 * np.pi)
    return pref / medium.mu * (es / r)[..., None, None] * eye \
        + pref / medium.rho_omega2 * hess


def kupradze(medium: ElasticMedium, dim: int, x, y) -> GreenEval:
    """Free-space fundamental tensor, ``(Delta* + rho omega^2) Phi = -delta I``.

    2D: ``(i/4mu) H_0^(1)(k_s r) I + (i/4 rho omega^2) Hess[H_0^(1)(k_s r) - H_0^(1)(k_p r)]``;
    3D: ``(1/4 pi mu) e^{i k_s r}/r I + (1/4 pi rho omega^2) Hess[(e^{i k_s r} - e^{i k_p r})/r]``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - y
    if np.linalg.norm(dx) < COINCIDENT_TOL:
        raise CoincidentPoints(f"|x-y| = {np.linalg.norm(dx):.3e}")
    if dim == 2:
        val = _kupradze2d_value(medium, dx)
    elif dim == 3:
        val = _kupradze3d_value(medium, dx)
    else:
        raise ValueError("dim must be 2 or 3")
    return GreenEval(dim, val, 0, 0.0)


def lattice_sum(medium: ElasticMedium, q: QuasiMomentum, x, y,
                damping: float = 0.0, N: int = 100) -> GreenEval:
    """Phased sum of free-space copies over the source lattice.

    ``sum_{|n|<=N} e^{i n alpha} e^{-damping n^2} Phi(x, y + n e_1)`` for the
    scalar-lattice kinds; pairs ``n=(n1,n2)`` with phase ``e^{i n.alpha}`` and
    shift ``n1 e_1 + n2 e_2`` for ``biqp3d``.  Index-ordered summation, so
    results are bit-stable.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = 2 if q.kind == "qp2d" else 3
    kup = _kupradze2d_value if dim == 2 else _kupradze3d_value

    if q.kind == "biqp3d":
        a1, a2 = q.alpha
        n1, n2 = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1), indexing="ij")
        n1, n2 = n1.ravel(), n2.ravel()
        shifts = np.zeros((n1.size, 3))
        shifts[:, 0], shifts[:, 1] = n1, n2
        weights = np.exp(1j * (n1 * a1 + n2 * a2) - damping * (n1 * n1 + n2 * n2))
    else:
        n = np.arange(-N, N + 1)
        shifts = np.zeros((n.size, dim))
        shifts[:, 0] = n
        weights = np.exp(1j * n * q.alpha - damping * n * n)

    dx = x - y - shifts
    if np.any(np.sqrt(np.sum(dx * dx, axis=-1)) < COINCIDENT_TOL):
        raise CoincidentPoints("evaluation point on the source lattice")
    vals = kup(medium, dx)
    total = np.tensordot(weights, vals, axes=(0, 0))
    count = len(weights)

    tail = _lattice_tail_bound(medium, q, N, damping)
    return GreenEval(dim, total, count, tail)


def _lattice_tail_bound(medium, q, N, damping):
    """Geometric bound on the omitted copies; inf when undamped at real omega."""
    imkp = float(np.imag(medium.k_p))
    rate = imkp + 0.0
    if damping > 0.0:
        # e^{-damping n^2} <= e^{-damping N n} for n >= N
        rate += damping * N
    if rate <= 0.0:
        return float("inf")
    # |Phi| at distance d >= n - O(1) decays like e^{-Im(k_p) d} with an O(1/sqrt d)
    # prefactor; use a crude unit prefactor times the mode scale.
    scale = 1.0 / (4.0 * abs(medium.mu)) + 1.0 / (4.0 * abs(medium.rho_omega2))
    per_dir = 2 if q.kind == "biqp3d" else 1
    first = np.exp(-rate * (N + 1 - 2))
    geo = first / (1.0 - np.exp(-rate))
    if per_dir == 2:
        geo = geo * (2 * N + 3) * 4
    else:
        geo *= 2
    return float(scale * geo)
