"""Bessel/Hankel/modified-Bessel kernels with the conventions the series need.

Built on scipy.special: cephes for real arguments (``j0/j1/y0/y1``,
``k0/k1``) and AMOS for the rest (``hankel1``, ``kv`` and ``jv`` at any
order, and every complex argument).  :func:`hankel01` is the one place that
chooses between the two for the Hankel pair, and the 2D free-space tensor
and the 3D mode kernels :func:`u01` both take it.  The test suite checks
every function against an independent 40-digit mpmath reference on
log-spaced grids.  Derivatives are composed from the standard recurrences

    K_nu'(x)  = -K_{nu-1}(x) - (nu/x) K_nu(x)
    H_m^(1)'(x) = H_{m-1}^(1)(x) - (m/x) H_m^(1)(x)

so they inherit the accuracy of the base evaluations.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .errors import DomainError


def bessel_j(n: int, x):
    """Bessel J_n for integer n >= 0 and real x."""
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    return sp.jv(n, x)


def hankel1(m: int, x):
    """Hankel function H_m^(1)(x) = J_m(x) + i Y_m(x) for x > 0."""
    if m < 0:
        raise DomainError(f"order must be >= 0, got {m}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("hankel1 requires x > 0 (logarithmic singularity at 0)")
    out = sp.hankel1(m, x)
    return complex(out) if out.ndim == 0 else out


def hankel1_deriv(m: int, x):
    """d/dx H_m^(1)(x) via the recurrence; H_0' = -H_1."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("hankel1_deriv requires x > 0")
    if m == 0:
        out = -sp.hankel1(1, x)
    else:
        out = sp.hankel1(m - 1, x) - (m / x) * sp.hankel1(m, x)
    return complex(out) if np.ndim(out) == 0 else out


def mod_k(nu: int, x):
    """Modified Bessel K_nu(x) for integer nu >= 0 and x > 0."""
    if nu < 0:
        raise DomainError(f"order must be >= 0, got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("mod_k requires x > 0")
    out = sp.kv(nu, x)
    return float(out) if out.ndim == 0 else out


def mod_k_deriv(nu: int, x):
    """d/dx K_nu(x) = -K_{nu-1}(x) - (nu/x) K_nu(x), composed from mod_k."""
    if nu < 1:
        raise DomainError(f"order must be >= 1, got {nu}")
    return -mod_k(nu - 1, x) - (nu / np.asarray(x, dtype=float)) * mod_k(nu, x)


def hankel01(x):
    """(H_0^(1)(x), H_1^(1)(x)): the cephes J/Y pair for a real array, AMOS for a complex one."""
    if np.iscomplexobj(x):
        return sp.hankel1(0, x), sp.hankel1(1, x)
    return sp.j0(x) + 1j * sp.y0(x), sp.j1(x) + 1j * sp.y1(x)


def u01(m, r):
    """Transverse kernels (u0, u1) = ((pi i/2) H_0^(1)(m r), -(pi/2) H_1^(1)(m r)).

    ``m`` is an (M,) array of branch roots with Im m >= 0 and ``r`` > 0 a
    scalar or an array of shape S + (1,); both kernels have shape S + (M,).
    Each root is evaluated by its kind, with one pass for both kernels:

    * evanescent, m = i g with g > 0: u0 = K_0(g r), u1 = K_1(g r) by cephes
      at the real argument g r;
    * propagating, m real: the outgoing wave, by :func:`hankel01` at the real
      argument m r (the cephes J/Y pair);
    * any other root (complex frequency): :func:`hankel01` at the complex
      argument m r (AMOS).
    """
    m = np.asarray(m, dtype=complex)
    r = np.asarray(r, dtype=float)
    u0 = np.empty(r.shape[:-1] + m.shape, dtype=complex)
    u1 = np.empty_like(u0)
    ev = m.real == 0.0
    x = m.imag[ev] * r
    u0[..., ev] = sp.k0(x)
    u1[..., ev] = sp.k1(x)
    if not ev.all():
        real = m.imag == 0.0
        for sel, arg in ((~ev & real, m.real), (~(ev | real), m)):
            if sel.any():
                h0, h1 = hankel01(arg[sel] * r)
                u0[..., sel] = (0.5j * np.pi) * h0
                u1[..., sel] = (-0.5 * np.pi) * h1
    return u0, u1
