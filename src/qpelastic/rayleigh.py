"""Rayleigh expansions: evaluation, coefficient extraction, diagnostics, flux.

2D expansion (period 1, upward-radiating):

    u(x) = sum_l u_l^p (alpha_l, beta_l) e^{i(alpha_l x1 + beta_l x2)}
         + sum_l u_l^s (gamma_l, -alpha_l) e^{i(alpha_l x1 + gamma_l x2)}

with the Im >= 0 branch roots of the coefficients' :class:`ModeTable`.
Extraction inverts this from samples on one horizontal line: FFT over x1,
then one stacked solve of the per-mode 2x2 systems in the vector basis
{(alpha_l, beta_l) e^{i beta_l h}, (gamma_l, -alpha_l) e^{i gamma_l h}},
whose determinant is -(alpha_l^2 + beta_l gamma_l).  It is for sampled
fields; a grating solution's own coefficients are a closed form in its
density (:meth:`qpelastic.bem2d.ScatterSolution.rayleigh`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._series import point_rows
from .errors import AliasedGrid, DegenerateModeBasis, DomainError
from .medium import ElasticMedium, ModeTable, QuasiMomentum
from .specfun import hankel1, hankel1_deriv

DEGENERACY_REL_TOL = 1e-10
UPGOING_REL_TOL = 1e-10


@dataclass(frozen=True)
class RayleighCoeffs2:
    """Per-mode amplitude pairs (u_l^p, u_l^s), each (M,), of the M modes of ``modes``."""

    modes: ModeTable
    u_p: np.ndarray
    u_s: np.ndarray

    def norm(self) -> float:
        return float(max(np.max(np.abs(self.u_p), initial=0.0),
                         np.max(np.abs(self.u_s), initial=0.0)))


@dataclass(frozen=True)
class RayleighCoeffs3Bi:
    """Per-mode (A_pn, vector A_sn) amplitudes of the modes of a pair-lattice ``modes``."""

    modes: ModeTable
    a_p: np.ndarray
    a_s: np.ndarray  # (n, 3)


@dataclass(frozen=True)
class RayleighCoeffs3Qp:
    """Cylinder-harmonic amplitudes per axial mode.

    ``entries`` maps the axial integer index n to a pair ``(A, B)`` with
    ``A`` shaped (2M+1,) and ``B`` shaped (2M+1, 3); harmonic order m runs
    from -M to M.  The p-part of an entry may only be nonzero when the axial
    mode is p-propagating, the s-part when it is s-propagating.
    """

    entries: dict
    m_max: int


def eval_rayleigh_2d(medium: ElasticMedium, q: QuasiMomentum,
                     coeffs: RayleighCoeffs2, X) -> np.ndarray:
    """Evaluate the 2D expansion at points X (n, 2) -> (n, 2)."""
    X = point_rows(X, 2)
    out = np.zeros((X.shape[0], 2), dtype=complex)
    t = coeffs.modes
    for a, b, g, up, us in zip(t.alpha_l, t.beta_l, t.gamma_l, coeffs.u_p, coeffs.u_s):
        ph_p = np.exp(1j * (a * X[:, 0] + b * X[:, 1]))
        ph_s = np.exp(1j * (a * X[:, 0] + g * X[:, 1]))
        out[:, 0] += up * a * ph_p + us * g * ph_s
        out[:, 1] += up * b * ph_p - us * a * ph_s
    return out


def extract_coeffs_2d(medium: ElasticMedium, q: QuasiMomentum, samples,
                      h: float, m_modes: int) -> RayleighCoeffs2:
    """Invert the expansion from field samples on a uniform x1-grid at height h.

    ``samples`` has shape (n_grid, 2) with x1_j = j/n_grid; requires
    ``n_grid >= 2*m_modes + 1``.  Raises DegenerateModeBasis when a mode's
    2x2 system has ``|alpha_l^2 + beta_l gamma_l| < 1e-10 k_s^2``; that guard
    belongs to extraction alone.  The coefficients are referenced to x2 = 0,
    so rounding in an evanescent mode grows by e^{Im(gamma_l) h}.
    """
    samples = np.asarray(samples, dtype=complex)
    n_grid = samples.shape[0]
    if n_grid < 2 * m_modes + 1:
        raise AliasedGrid(f"{n_grid} samples cannot resolve modes |m| <= {m_modes}")
    x1 = np.arange(n_grid) / n_grid
    periodic = samples * np.exp(-1j * q.alpha * x1)[:, None]
    spec = np.fft.fft(periodic, axis=0) / n_grid  # coefficient of e^{2 pi i m x1}

    ks2 = np.real(medium.k_s**2)
    modes = ModeTable.of(medium, q, np.arange(-m_modes, m_modes + 1))
    a, b, g = modes.alpha_l, modes.beta_l, modes.gamma_l
    det = np.abs(a * a + b * g)
    bad = det < DEGENERACY_REL_TOL * ks2
    if bad.any():
        i = np.argmax(bad)
        raise DegenerateModeBasis(f"mode m={modes.m[i]}: |alpha^2 + beta*gamma| = {det[i]:.3e}")
    eb, eg = np.exp(1j * b * h), np.exp(1j * g * h)
    mats = np.stack([np.stack([a * eb, g * eg], axis=-1),
                     np.stack([b * eb, -a * eg], axis=-1)], axis=-2)
    sol = np.linalg.solve(mats, spec[modes.m % n_grid][..., None])[..., 0]
    return RayleighCoeffs2(modes, sol[:, 0], sol[:, 1])


def eval_rayleigh_3d_bi(medium: ElasticMedium, q: QuasiMomentum,
                        coeffs: RayleighCoeffs3Bi, X) -> np.ndarray:
    """Evaluate the biperiodic plane-wave expansion at X (n, 3) -> (n, 3)."""
    X = point_rows(X, 3)
    out = np.zeros((X.shape[0], 3), dtype=complex)
    t = coeffs.modes
    for (a1, a2), b, g, ap, asv in zip(t.alpha_l, t.beta_l, t.gamma_l, coeffs.a_p, coeffs.a_s):
        base = 1j * (a1 * X[:, 0] + a2 * X[:, 1])
        ph_p = np.exp(base + 1j * b * X[:, 2])
        ph_s = np.exp(base + 1j * g * X[:, 2])
        out += ap * np.outer(ph_p, np.array([a1, a2, b]))
        out += ph_s[:, None] * np.asarray(asv)[None, :]
    return out


def _cyl_pair(m, k, r):
    """(H_m(k r), H_m'(k r)) for an integer order m of either sign."""
    H = hankel1(abs(m), k * r) if m >= 0 else (-1.0) ** m * hankel1(-m, k * r)
    Hp = hankel1_deriv(abs(m), k * r) if m >= 0 else (-1.0) ** m * hankel1_deriv(-m, k * r)
    return H, Hp


def eval_rayleigh_3d_qp(medium: ElasticMedium, q: QuasiMomentum,
                        coeffs: RayleighCoeffs3Qp, X) -> np.ndarray:
    """Evaluate the cylindrical-harmonic expansion at X (n, 3) -> (n, 3).

    Requires r = sqrt(x2^2 + x3^2) > 0 at every point.
    """
    X = point_rows(X, 3)
    r = np.hypot(X[:, 1], X[:, 2])
    if np.any(r <= 0.0):
        raise DomainError("cylindrical expansion undefined at r = 0")
    theta = np.arctan2(X[:, 2], X[:, 1])
    x2, x3 = X[:, 1], X[:, 2]
    kp2 = np.real(medium.k_p**2)
    ks2 = np.real(medium.k_s**2)
    out = np.zeros((X.shape[0], 3), dtype=complex)
    M = coeffs.m_max

    for n, (A, B) in sorted(coeffs.entries.items()):
        a = q.alpha + 2 * np.pi * n
        prop_p = a * a <= kp2
        prop_s = a * a <= ks2
        A = np.zeros(2 * M + 1, dtype=complex) if A is None else np.asarray(A, dtype=complex)
        B = np.zeros((2 * M + 1, 3), dtype=complex) if B is None else np.asarray(B, dtype=complex)
        if np.any(A != 0) and not prop_p:
            raise DomainError(f"axial mode n={n} is not p-propagating")
        if np.any(B != 0) and not prop_s:
            raise DomainError(f"axial mode n={n} is not s-propagating")
        ax_phase = np.exp(1j * a * X[:, 0])

        if np.any(A != 0):
            bn = np.sqrt(kp2 - a * a)
            phi = np.zeros(X.shape[0], dtype=complex)
            d2phi = np.zeros_like(phi)
            d3phi = np.zeros_like(phi)
            for idx, m in enumerate(range(-M, M + 1)):
                if A[idx] == 0:
                    continue
                H, Hp = _cyl_pair(m, bn, r)
                e = np.exp(1j * m * theta)
                phi += A[idx] * H * e
                d2phi += A[idx] * e / r * (x2 * bn * Hp - 1j * m * x3 * H / r)
                d3phi += A[idx] * e / r * (x3 * bn * Hp + 1j * m * x2 * H / r)
            out[:, 0] += ax_phase * 1j * a * phi
            out[:, 1] += ax_phase * d2phi
            out[:, 2] += ax_phase * d3phi

        if np.any(B != 0):
            gn = np.sqrt(ks2 - a * a)
            curl = np.zeros((X.shape[0], 3), dtype=complex)
            extra = np.zeros_like(curl)
            for idx, m in enumerate(range(-M, M + 1)):
                if np.all(B[idx] == 0):
                    continue
                H, Hp = _cyl_pair(m, gn, r)
                e = np.exp(1j * m * theta)
                radp = x2 * gn * Hp - 1j * m * x3 * H / r
                radm = x3 * gn * Hp + 1j * m * x2 * H / r
                curl[:, 0] += e / r * (radp * B[idx, 2] - radm * B[idx, 1])
                curl[:, 1] += e / r * B[idx, 0] * radm
                curl[:, 2] += e / r * B[idx, 0] * (1j * m * x3 * H / r - x2 * gn * Hp)
                extra[:, 1] += -e * H * B[idx, 2]
                extra[:, 2] += e * H * B[idx, 1]
            out += ax_phase[:, None] * (curl + 1j * a * extra)
    return out


def flux_2d(medium: ElasticMedium, u_samples, t_samples) -> float:
    """Time-averaged energy flux through one period of a horizontal line.

    ``u_samples``/``t_samples`` are the field and its upward traction on a
    uniform x1 grid over one period; positive return value means net upward
    transport (e^{-i omega t} convention).
    """
    u = np.asarray(u_samples)
    t = np.asarray(t_samples)
    density = np.sum(t * np.conj(u), axis=-1)
    return float(0.5 * np.real(medium.omega) * np.imag(np.mean(density)))


@dataclass(frozen=True)
class UpgoingReport:
    max_propagating: float
    holds: bool


def check_upgoing(coeffs: RayleighCoeffs2) -> UpgoingReport:
    """Largest propagating amplitude and whether any exceeds 1e-10 * |coeffs|."""
    total = coeffs.norm()
    best = 0.0
    for klass, up, us in zip(coeffs.modes.klass, coeffs.u_p, coeffs.u_s):
        if klass == "L1":
            best = max(best, abs(up))
        if klass != "L3":
            best = max(best, abs(us))
    return UpgoingReport(best, bool(best > UPGOING_REL_TOL * total) if total > 0 else False)
