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

    Accepts scalars or arrays; always returns complex values.  A real
    argument takes the real square root of |w|, on the imaginary axis where
    w < 0: the complex root's value, at a fraction of its cost.
    """
    w = np.asarray(w)
    if np.isrealobj(w):
        r = np.sqrt(np.abs(w))
        out = np.where(w < 0, 1j * r, r)
    else:
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


def lattice_window(medium: ElasticMedium, q: QuasiMomentum, threshold: float):
    """Indices ``m`` of the modes with Im(gamma_l) <= ``threshold``, and the radius r.

    They are the modes with ``|alpha_l| <= r = sqrt(k_s^2 + threshold^2)``:
    an (M,) integer interval on the scalar lattice, an (M, 2) disk of index
    pairs ordered by m_1, then m_2, on the pair lattice.
    """
    r = np.sqrt(np.real(medium.k_s**2) + threshold * threshold)

    def interval(alpha):
        return np.arange(int(np.ceil((-r - alpha) / (2.0 * np.pi))),
                         int(np.floor((r - alpha) / (2.0 * np.pi))) + 1)

    if q.kind != "biqp3d":
        return interval(q.alpha), r
    m1, m2 = np.meshgrid(interval(q.alpha[0]), interval(q.alpha[1]), indexing="ij")
    a1 = q.alpha[0] + 2.0 * np.pi * m1
    a2 = q.alpha[1] + 2.0 * np.pi * m2
    keep = a1 * a1 + a2 * a2 <= r * r
    return np.stack([m1[keep], m2[keep]], axis=-1), r


def check_wood_window(medium: ElasticMedium, m, alpha_sq):
    """Raise WoodAnomaly if a mode of indices ``m`` (ints, or (M, 2) index
    pairs) has ``|alpha_l|^2 = alpha_sq`` within ``TOL_WOOD_REL * k_s^2`` of
    ``k_p^2`` or ``k_s^2``; the error names the first such index, p before s."""
    if not medium.is_real():
        return
    ks2 = np.real(medium.k_s**2)
    kp2 = np.real(medium.k_p**2)
    tol = TOL_WOOD_REL * ks2
    for which, k2 in (("p", kp2), ("s", ks2)):
        bad = np.abs(alpha_sq - k2) < tol
        if bad.any():
            i = np.argmax(bad)
            mi = m[i].tolist()
            raise WoodAnomaly(float(np.sqrt(alpha_sq[i])), which, tol,
                              tuple(mi) if isinstance(mi, list) else mi)


@dataclass(frozen=True, eq=False)
class ModeTable:
    """The one mode-set type: a set of lattice modes as arrays, one row per mode.

    ``m`` is the integer index (an index pair on the pair lattice) with
    ``alpha_l = alpha + 2*pi*m``; ``m`` and ``alpha_l`` are (M,), or (M, 2)
    on the pair lattice.  ``alpha_sq`` = |alpha_l|^2, and ``beta_l`` and
    ``gamma_l`` are the branch roots of ``k_p^2 - alpha_sq`` and
    ``k_s^2 - alpha_sq``, each (M,), so an evanescent mode has a purely
    imaginary root with positive imaginary part.  :meth:`of` is the one
    constructor; every evaluator reads its modes' roots from a table.
    """

    medium: ElasticMedium
    m: np.ndarray
    alpha_l: np.ndarray
    alpha_sq: np.ndarray
    beta_l: np.ndarray
    gamma_l: np.ndarray

    @classmethod
    def of(cls, medium: ElasticMedium, q: QuasiMomentum, m):
        """Table of the modes with indices ``m`` (ints, or index pairs for biqp3d).

        Raises :class:`WoodAnomaly` when a mode sits at a cut-off (see
        :func:`check_wood_window`).
        """
        m = np.asarray(m, dtype=int).reshape((-1, 2) if q.kind == "biqp3d" else -1)
        al = np.asarray(q.alpha) + 2.0 * np.pi * m
        a2 = al[:, 0] * al[:, 0] + al[:, 1] * al[:, 1] if al.ndim == 2 else al * al
        check_wood_window(medium, m, a2)
        return cls(medium, m, al, a2, branch_sqrt(medium.k_p**2 - a2),
                   branch_sqrt(medium.k_s**2 - a2))

    @property
    def klass(self) -> np.ndarray:
        """Class of each mode, (M,): "L1" when the p and s waves propagate,
        "L2" when only the s wave does, "L3" when both are evanescent.  At
        complex frequency every mode reads "L1"."""
        klass = np.full(len(self.alpha_sq), "L1")
        if self.medium.is_real():
            klass[self.alpha_sq >= np.real(self.medium.k_p**2)] = "L2"
            klass[self.alpha_sq >= np.real(self.medium.k_s**2)] = "L3"
        return klass


def mode_window(medium: ElasticMedium, q: QuasiMomentum, gap: float, tol: float):
    """Indices m of the modes with ``exp(-Im(gamma_l)*gap) >= tol``, as
    :func:`lattice_window` orders them; the window is symmetric in
    ``|alpha_l|``, so negating ``(alpha, m)`` maps the set onto itself."""
    return lattice_window(medium, q, -np.log(tol) / gap)[0]
