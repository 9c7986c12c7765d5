"""Elastic medium, quasi-momentum, and the lattice-mode machinery.

Conventions used throughout the library:

* period 1 in each periodic direction, so lattice frequencies live in
  ``2*pi*Z`` and mode ``m`` has ``alpha_l = alpha + 2*pi*m``;
* every square root of ``k^2 - alpha_l^2`` uses the branch with nonnegative
  imaginary part (positive real on the positive real axis), which folds the
  propagating/evanescent case split into a single exponential ``e^{i b |t|}``.
"""

from __future__ import annotations

import bisect
import math
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


def _disk(q: QuasiMomentum, r):
    """Indices m of the modes with |alpha_l| <= r, as :func:`lattice_window`
    orders them, and their |alpha_l|^2."""
    def axis(a):
        lo = math.ceil((-r - a) / (2 * math.pi))
        return lo, a + 2 * np.pi * np.arange(lo, math.floor((r - a) / (2 * math.pi)) + 1)

    if q.kind != "biqp3d":
        lo, al = axis(q.alpha)
        return np.arange(lo, lo + len(al)), al * al
    (lo1, a1), (lo2, a2) = axis(q.alpha[0]), axis(q.alpha[1])
    a_sq = (a1 * a1)[:, None] + (a2 * a2)[None, :]
    m1, m2 = np.nonzero(a_sq <= r * r)
    return np.stack([m1 + lo1, m2 + lo2], axis=-1), a_sq[m1, m2]


def lattice_window(medium: ElasticMedium, q: QuasiMomentum, threshold: float):
    """Indices ``m`` of the modes with Im(gamma_l) <= ``threshold``, and the radius r.

    They are the modes with ``|alpha_l| <= r = sqrt(k_s^2 + threshold^2)``:
    an (M,) integer interval on the scalar lattice, an (M, 2) disk of index
    pairs ordered by m_1, then m_2, on the pair lattice.
    """
    r = np.sqrt(np.real(medium.k_s**2) + threshold * threshold)
    return _disk(q, r)[0], r


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

        At real frequency, raises :class:`WoodAnomaly` naming the first mode,
        p before s, whose |alpha_l|^2 lies within ``TOL_WOOD_REL * k_s^2`` of
        ``k_p^2`` or ``k_s^2``: a mode at a cut-off.
        """
        m = np.asarray(m, dtype=int).reshape((-1, 2) if q.kind == "biqp3d" else -1)
        al = np.asarray(q.alpha) + 2.0 * np.pi * m
        a2 = al[:, 0] * al[:, 0] + al[:, 1] * al[:, 1] if al.ndim == 2 else al * al
        kp2, ks2 = medium.k_p**2, medium.k_s**2
        tol = TOL_WOOD_REL * np.real(ks2)
        for which, k2 in (("p", kp2), ("s", ks2)) if medium.is_real() else ():
            bad = np.abs(a2 - k2) < tol
            if bad.any():
                i = np.argmax(bad)
                mi = m[i].tolist()
                raise WoodAnomaly(float(np.sqrt(a2[i])), which, tol,
                                  tuple(mi) if isinstance(mi, list) else mi)
        # both roots in one call: its fixed cost matters at the few modes of a wide gap
        roots = branch_sqrt(np.concatenate([kp2 - a2, ks2 - a2]))
        return cls(medium, m, al, a2, roots[:len(a2)], roots[len(a2):])

    @classmethod
    def within(cls, medium: ElasticMedium, q: QuasiMomentum, r: float):
        """Table of the modes with |alpha_l| <= r, ordered as :func:`lattice_window`
        orders them; for a window sized by a bound other than the series'."""
        return cls.of(medium, q, _disk(q, r)[0])

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


def series_window(medium: ElasticMedium, q: QuasiMomentum, gap: float, tol: float, bound):
    """The table of the smallest window |alpha_l| <= R whose tail bound at ``gap``
    is <= ``tol``, and that bound as a function of the gap: the one truncation rule.

    ``bound(a, gap)`` is the geometry's bound on the modes beyond radius a (pair
    lattice) or on one side's modes from its first omitted one, |alpha_l| = a
    (scalar lattice); wherever it is <= tol it falls as a grows.  R is the first
    midpoint between neighbouring distinct |alpha_l| whose tail is <= tol, so
    dropping the window's largest |alpha_l| gives a bound > tol.  Bounds fall like
    e^{-gap t}, t = sqrt(R^2 - k_s^2), so fixed-point steps on t find a radius r whose
    tail is <= tol.  The tail then holds at every midpoint from r on, and fails at
    every one up to the last step's radius whose tail was > tol, so one bisection
    over the midpoints from the first at or beyond that radius to the first at or
    beyond r finds R; the disk 4 pi wider than r holds them all.  The window, a
    function of the |alpha_l|, maps onto itself under (alpha, m) -> (-alpha, -m).
    """
    def tail(r, g=gap):
        if q.kind == "biqp3d":
            return bound(r, g)
        lo = math.ceil((-r - q.alpha) / (2 * math.pi)) - 1
        hi = math.floor((r - q.alpha) / (2 * math.pi)) + 1
        return bound(abs(q.alpha + 2 * math.pi * lo), g) + bound(abs(q.alpha + 2 * math.pi * hi), g)

    ks2 = float(np.real(medium.k_s**2))
    t, low = -math.log(tol) / gap, 0.0
    while (b := tail(r := math.sqrt(ks2 + t * t))) > tol:
        low = r
        t = 2 * t if b == math.inf else t + max(math.log(b / tol), 1.0) / gap
    m, a_sq = _disk(q, r + 4 * math.pi)
    u = np.unique(a_sq)

    def mid(i):   # midway between the i-th distinct |alpha_l| and the next
        return (math.sqrt(u[i]) + math.sqrt(u[i + 1])) / 2

    k = bisect.bisect_left(range(len(u) - 1), r, key=mid)   # the first midpoint at or beyond r
    j = bisect.bisect_left(range(k), low, key=mid) if low else 0   # and at or beyond low
    R = mid(bisect.bisect_left(range(k + 1), True, lo=j, key=lambda i: tail(mid(i)) <= tol))
    return ModeTable.of(medium, q, m[a_sq <= R * R]), lambda g: tail(R, g)
