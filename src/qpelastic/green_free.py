"""Free-space Kupradze tensors and phased lattice-sum oracles.

The lattice sums are the slow-but-independent cross-check for every spectral
series in this package: at a complexified frequency ``omega*(1+i*eta)`` both
representations converge absolutely and must agree up to the comb
normalization returned by :func:`comb_normalization`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._series import geom_poly_sum, points
from .errors import CoincidentPoints
from .medium import ElasticMedium, QuasiMomentum
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


def lattice_sum(medium: ElasticMedium, q: QuasiMomentum, x, y,
                damping: float = 0.0, N: int = 100) -> GreenEval:
    """Phased sum of free-space copies over the source lattice.

    ``sum_{|n|<=N} e^{i n alpha} e^{-damping n^2} Phi(x, y + n e_1)`` for the
    scalar-lattice kinds; pairs ``n=(n1,n2)`` with ``|n1|, |n2| <= N``, phase
    ``e^{i n.alpha}``, damping ``e^{-damping |n|^2}`` and shift
    ``n1 e_1 + n2 e_2`` for ``biqp3d``.  With Phi = a(r) I + c(r) dx dx^T the
    sum is ``(sum w a) I + dx^T diag(w c) dx``: scalars per copy, no tensor.
    """
    if not N >= 0:
        raise ValueError(f"N must be >= 0, got {N!r}")
    if not damping >= 0.0:
        raise ValueError(f"damping must be >= 0 (the sum diverges otherwise), got {damping!r}")
    dim = 2 if q.kind == "qp2d" else 3
    x, y = points([x], y, dim)
    d = x[0] - y
    n = np.arange(-N, N + 1)

    def phases(alpha):
        return np.exp(1j * n * alpha - damping * n * n)

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
    tail = _lattice_tail_bound(medium, q, N, damping, offset)
    return GreenEval(dim, total, len(weights), tail)


def _lattice_tail_bound(medium, q, N, damping, offset):
    """Geometric bound on the omitted copies; inf when undamped at real omega.

    ``offset`` is the largest in-plane component of |x - y|, so an omitted
    copy n lies at least max_i |n_i| - offset from the target.  The bound is
    also inf when that leaves an omitted copy closer than 1.
    """
    imkp = float(np.imag(medium.k_p))
    rate = imkp + 0.0
    if damping > 0.0:
        # e^{-damping n^2} <= e^{-damping N n} for n >= N
        rate += damping * N
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
