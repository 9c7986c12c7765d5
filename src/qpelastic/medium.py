"""Elastic medium, quasi-momentum, and the lattice-mode machinery.

Conventions used throughout the library:

* period 1 in each periodic direction, so lattice frequencies live in
  ``2*pi*Z`` and mode ``m`` has ``alpha_l = alpha + 2*pi*m``;
* every square root of ``k^2 - alpha_l^2`` uses the branch with nonnegative
  imaginary part (positive real on the positive real axis), which folds the
  propagating/evanescent case split into a single exponential ``e^{i b |t|}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMedium, WoodAnomaly

TOL_WOOD_REL = 1e-8

_QP_KINDS = ("qp2d", "qp3d", "biqp3d")


def branch_sqrt(w):
    """Square root with Im >= 0 (and Re >= 0 on the nonnegative real axis).

    Accepts scalars or arrays; always returns complex values.
    """
    w = np.asarray(w, dtype=complex)
    z = np.sqrt(w)
    flip = (z.imag < 0) | ((z.imag == 0) & (z.real < 0))
    out = np.where(flip, -z, z)
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class ElasticMedium:
    """Homogeneous isotropic medium; derives the two wavenumbers.

    ``k_p = omega*sqrt(rho/(lam+2*mu))`` and ``k_s = omega*sqrt(rho/mu)``,
    so ``k_p < k_s`` always.  ``omega`` may be complex for internal
    analytic-continuation work; validated constructors only accept reals.
    """

    lam: float
    mu: float
    rho: float
    omega: float

    @property
    def k_p(self):
        return self.omega * np.sqrt(self.rho / (self.lam + 2.0 * self.mu))

    @property
    def k_s(self):
        return self.omega * np.sqrt(self.rho / self.mu)

    @property
    def rho_omega2(self):
        return self.rho * self.omega**2

    def is_real(self) -> bool:
        return np.imag(self.omega) == 0.0

    def complexified(self, eta: float = 0.1) -> "ElasticMedium":
        """Medium at frequency ``omega*(1+i*eta)`` for absolutely convergent sums."""
        return ElasticMedium(self.lam, self.mu, self.rho, self.omega * (1.0 + 1j * eta))


def make_medium(lam: float, mu: float, rho: float = 1.0, omega: float = 1.0) -> ElasticMedium:
    """Validated constructor for :class:`ElasticMedium`.

    Raises
    ------
    InvalidMedium
        If ``mu <= 0``, ``lam + mu <= 0``, ``rho <= 0`` or ``omega <= 0``.
    """
    if not mu > 0.0:
        raise InvalidMedium(f"mu must be positive, got {mu}")
    if not lam + mu > 0.0:
        raise InvalidMedium(f"lam + mu must be positive, got {lam + mu}")
    if not rho > 0.0:
        raise InvalidMedium(f"rho must be positive, got {rho}")
    if not omega > 0.0:
        raise InvalidMedium(f"omega must be positive, got {omega}")
    return ElasticMedium(float(lam), float(mu), float(rho), float(omega))


@dataclass(frozen=True)
class QuasiMomentum:
    """Quasi-momentum (Bloch phase per unit period).

    ``alpha`` is a float for the ``qp2d``/``qp3d`` kinds and a pair for
    ``biqp3d``.  ``physical`` records whether |alpha| <= k_p for the medium
    it was built against; values outside that range are still accepted
    everywhere away from Wood anomalies.
    """

    kind: str
    alpha: object
    physical: bool | None = None

    def alpha_vec(self):
        return np.atleast_1d(np.asarray(self.alpha, dtype=float))

    def negated(self) -> "QuasiMomentum":
        if self.kind == "biqp3d":
            a = tuple(-x for x in self.alpha)
        else:
            a = -self.alpha
        return QuasiMomentum(self.kind, a, self.physical)


def make_quasi_momentum(kind: str, alpha, medium: ElasticMedium | None = None) -> QuasiMomentum:
    if kind not in _QP_KINDS:
        raise ValueError(f"kind must be one of {_QP_KINDS}, got {kind!r}")
    if kind == "biqp3d":
        alpha = (float(alpha[0]), float(alpha[1]))
        mag = float(np.hypot(*alpha))
    else:
        alpha = float(alpha)
        mag = abs(alpha)
    if not np.isfinite(mag):
        raise ValueError("alpha must be finite")
    physical = None if medium is None else bool(mag <= np.real(medium.k_p))
    return QuasiMomentum(kind, alpha, physical)


@dataclass(frozen=True)
class ModeData:
    """One lattice mode: index, shifted momentum, vertical wavenumbers, class.

    ``m`` is the integer index (pair for biqp3d) with ``l = 2*pi*m``;
    ``beta_l`` and ``gamma_l`` are branch roots of ``k_p^2 - alpha_l^2``
    and ``k_s^2 - alpha_l^2`` (``|alpha_l|^2`` for the pair lattice), so an
    evanescent mode has a purely imaginary root with positive imaginary part.
    """

    m: object
    alpha_l: object
    beta_l: complex
    gamma_l: complex
    klass: str

    @property
    def l(self):
        if isinstance(self.m, tuple):
            return tuple(2.0 * np.pi * mi for mi in self.m)
        return 2.0 * np.pi * self.m

    @property
    def propagating_p(self) -> bool:
        return self.klass == "L1"

    @property
    def propagating_s(self) -> bool:
        return self.klass in ("L1", "L2")


def _alpha_sq(q: QuasiMomentum, m):
    if q.kind == "biqp3d":
        a1 = q.alpha[0] + 2.0 * np.pi * m[0]
        a2 = q.alpha[1] + 2.0 * np.pi * m[1]
        return (a1, a2), a1 * a1 + a2 * a2
    a = q.alpha + 2.0 * np.pi * m
    return a, a * a


def _check_wood(medium: ElasticMedium, a2, tol_wood):
    if not medium.is_real():
        return
    kp2 = medium.k_p**2
    ks2 = medium.k_s**2
    if tol_wood is None:
        tol_wood = TOL_WOOD_REL * ks2
    if abs(a2 - kp2) < tol_wood:
        raise WoodAnomaly(np.sqrt(a2), "p", tol_wood)
    if abs(a2 - ks2) < tol_wood:
        raise WoodAnomaly(np.sqrt(a2), "s", tol_wood)


def classify_mode(medium: ElasticMedium, q: QuasiMomentum, m, tol_wood: float | None = None) -> ModeData:
    """Mode data for lattice index ``m`` (integer, or pair for biqp3d).

    Raises :class:`WoodAnomaly` when ``alpha_l^2`` is within ``tol_wood``
    (default ``1e-8*k_s^2``) of either cut-off.
    """
    alpha_l, a2 = _alpha_sq(q, m)
    _check_wood(medium, a2, tol_wood)
    kp2 = medium.k_p**2
    ks2 = medium.k_s**2
    beta = branch_sqrt(kp2 - a2)
    gamma = branch_sqrt(ks2 - a2)
    if medium.is_real():
        if a2 < kp2.real:
            klass = "L1"
        elif a2 < ks2.real:
            klass = "L2"
        else:
            klass = "L3"
    else:
        klass = "L1"
    return ModeData(m if not isinstance(m, (list, np.ndarray)) else tuple(m), alpha_l, beta, gamma, klass)


def case_label(mode: ModeData) -> str:
    """Case of the 3D mode tables: "I" when both waves are evanescent, "II"
    when only the s wave propagates, "III" when both do (and at complex
    frequency)."""
    return {"L1": "III", "L2": "II", "L3": "I"}[mode.klass]


def _scalar_index_window(medium, alpha, threshold_im_gamma):
    """Integer window of modes with Im(gamma_l) <= threshold."""
    ks2 = np.real(medium.k_s**2)
    r = np.sqrt(ks2 + threshold_im_gamma**2)
    lo = int(np.ceil((-r - alpha) / (2.0 * np.pi)))
    hi = int(np.floor((r - alpha) / (2.0 * np.pi)))
    return lo, hi


def list_modes(medium: ElasticMedium, q: QuasiMomentum, criterion: str = "all_propagating",
               gap: float | None = None, tol: float | None = None,
               tol_wood: float | None = None):
    """Ordered mode list under a truncation criterion.

    ``all_propagating`` keeps exactly the modes with a real vertical
    wavenumber (class L1 or L2).  ``tail_bound`` keeps the modes with
    ``exp(-Im(gamma_l)*gap) >= tol``; the window is symmetric in
    ``|alpha_l|`` so negating ``(alpha, m)`` maps the set onto itself.
    """
    if criterion == "all_propagating":
        threshold = 0.0
    elif criterion == "tail_bound":
        if gap is None or tol is None or not gap > 0.0 or not 0.0 < tol < 1.0:
            raise ValueError("tail_bound needs gap > 0 and 0 < tol < 1")
        threshold = -np.log(tol) / gap
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    if q.kind == "biqp3d":
        r = np.sqrt(np.real(medium.k_s**2) + threshold**2)
        out = []
        lo1 = int(np.ceil((-r - q.alpha[0]) / (2 * np.pi)))
        hi1 = int(np.floor((r - q.alpha[0]) / (2 * np.pi)))
        for m1 in range(lo1, hi1 + 1):
            a1 = q.alpha[0] + 2 * np.pi * m1
            rem = r * r - a1 * a1
            if rem < 0.0:
                continue
            s = np.sqrt(rem)
            lo2 = int(np.ceil((-s - q.alpha[1]) / (2 * np.pi)))
            hi2 = int(np.floor((s - q.alpha[1]) / (2 * np.pi)))
            for m2 in range(lo2, hi2 + 1):
                out.append(classify_mode(medium, q, (m1, m2), tol_wood))
        return out

    lo, hi = _scalar_index_window(medium, q.alpha, threshold)
    return [classify_mode(medium, q, m, tol_wood) for m in range(lo, hi + 1)]


def mode_window(medium: ElasticMedium, q: QuasiMomentum, gap: float, tol: float):
    """Vectorized (m, alpha_l) arrays for the scalar-lattice tail_bound window."""
    threshold = -np.log(tol) / gap
    lo, hi = _scalar_index_window(medium, q.alpha, threshold)
    m = np.arange(lo, hi + 1)
    return m, q.alpha + 2.0 * np.pi * m


def check_wood_window(medium: ElasticMedium, q: QuasiMomentum, alpha_l, tol_wood: float | None = None):
    """Raise WoodAnomaly if any mode in ``alpha_l`` sits at a cut-off."""
    if not medium.is_real():
        return
    ks2 = np.real(medium.k_s**2)
    kp2 = np.real(medium.k_p**2)
    if tol_wood is None:
        tol_wood = TOL_WOOD_REL * ks2
    if q.kind == "biqp3d":
        a2 = np.asarray(alpha_l[0]) ** 2 + np.asarray(alpha_l[1]) ** 2
    else:
        a2 = np.asarray(alpha_l) ** 2
    bad_p = np.abs(a2 - kp2) < tol_wood
    bad_s = np.abs(a2 - ks2) < tol_wood
    if np.any(bad_p):
        raise WoodAnomaly(np.sqrt(a2[bad_p].flat[0]), "p", tol_wood)
    if np.any(bad_s):
        raise WoodAnomaly(np.sqrt(a2[bad_s].flat[0]), "s", tol_wood)
