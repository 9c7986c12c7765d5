"""3D quasi-biperiodic Lame Green's function: exponential mode profiles.

Over the pair lattice ``alpha_l = (alpha_1 + l_1, alpha_2 + l_2)`` with
``A^2 = |alpha_l|^2`` and branch roots ``b = sqrt(k_p^2 - A^2)``,
``g = sqrt(k_s^2 - A^2)`` (Im >= 0), the mode profile at height t = x3 is,
with ``E(m) = e^{i m |t|}``, ``s = sgn(t)`` and ``p = 1/(8 pi^2)``:

    c_ii = p (-i/(mu g) E(g) + alpha_i^2/(rho w^2) (i/g E(g) - i/b E(b))), i=1,2
    c_12 = p i alpha_1 alpha_2 / (rho w^2) (E(g)/g - E(b)/b)
    c_i3 = p i alpha_i s / (rho w^2) (E(g) - E(b))
    c_33 = -p i/(rho w^2) (b E(b) + A^2/g E(g))

The c_33/c_i3 rows integrate to the 1/(4 pi^2) delta weight across t = 0
(checked by the distributional-jump test), and the whole table is certified
against a 1D quadrature of the Fourier-domain symbols.  The assembled double
series solves ``(Delta* + rho omega^2) G = (1/(4 pi^2)) * phased comb``.

Shapes: ``c_bi_arrays(medium, modes, x3)`` takes a :class:`ModeTable` of M
modes and a scalar or array height (shape S) and returns S + (M, 3, 3); on the
evanescent roots e^{i m |t|} is a real exponential.  The profiles depend on
x3 only, and on its sign only through the odd entries c_i3, so
``_series.contract`` builds them once per distinct |x3|.  The disk is ordered
by alpha_1, then alpha_2, so the phase e^{i (alpha_1 (x1 - y1) + alpha_2 (x2 -
y2))} splits into one exponential per axis index and point, and
``_disk_phases`` contracts the disk row by row.
"""

from __future__ import annotations

import math

import numpy as np

from ._series import _BLOCK_ELEMS, contract, geom_poly_sum, per_key, points
from .errors import DomainError, NearSourcePlane
from .green_free import GreenEval
from .medium import ElasticMedium, ModeTable, QuasiMomentum, series_window

GAP_MIN = 1e-2
DEFAULT_TOL = 1e-10
# sign of each profile entry under x3 -> -x3
_PARITY = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


def _exp_i(m, t):
    """e^{i m t} for roots m (M,) and heights t (S + (1,)): the real exponential
    e^{-Im(m) t} on the evanescent roots (Re m = 0), a complex one elsewhere."""
    out = np.exp(-m.imag * t).astype(complex)
    rest = np.flatnonzero(m.real)
    out[..., rest] = np.exp(1j * m[rest] * t)
    return out


def c_bi_arrays(medium: ElasticMedium, modes: ModeTable, x3):
    """Vectorized biperiodic mode tensors of the M modes of ``modes``.

    A scalar height x3 gives shape (M, 3, 3); an array of heights of shape S
    gives S + (M, 3, 3).  Entries equal the scalar call's as ``c_arrays``' do.
    """
    a1, a2 = modes.alpha_l.T
    # a complex copy: a float one would send its products with the S + (M,)
    # arrays below through numpy's casting buffer
    A2 = modes.alpha_sq.astype(complex)
    b, g = modes.beta_l, modes.gamma_l
    x3 = np.asarray(x3, dtype=float)[..., None]
    t = abs(x3)
    s = np.sign(x3)
    Eb = _exp_i(b, t)
    Eg = _exp_i(g, t)
    p = 1.0 / (8 * np.pi**2)
    w = 1j * p / medium.rho_omega2
    # the table above with its common factors E(g)/g, E(g)/g - E(b)/b and
    # E(g) - E(b) formed once
    Egg = Eg / g
    D = Egg - Eb / b
    F = Eg - Eb
    shear = (-1j * p / medium.mu) * Egg
    c = np.empty(Eb.shape + (3, 3), dtype=complex)
    c[..., 0, 0] = shear + (w * a1 * a1) * D
    c[..., 1, 1] = shear + (w * a2 * a2) * D
    c[..., 0, 1] = c[..., 1, 0] = (w * a1 * a2) * D
    c[..., 0, 2] = c[..., 2, 0] = (w * a1) * (s * F)
    c[..., 1, 2] = c[..., 2, 1] = (w * a2) * (s * F)
    c[..., 2, 2] = -w * (b * Eb + A2 * Egg)
    return c


def c_bi_d3_limits(medium: ElasticMedium, modes: ModeTable, side: int):
    """One-sided limits of (c, d3 c), each (3, 3), of the one mode of ``modes``
    as x3 -> 0 from ``side`` (+1 or -1).

    Exact closed forms (the exponentials evaluate to 1); used by the
    distributional-jump checks.
    """
    (a1, a2), = modes.alpha_l.tolist()
    A2 = float(modes.alpha_sq[0])
    b, g = complex(modes.beta_l[0]), complex(modes.gamma_l[0])
    rw2 = medium.rho_omega2
    p = 1.0 / (8 * np.pi**2)
    s = float(side)
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = p * (-1j / (medium.mu * g))
    c[1, 1] = p * (-1j / (medium.mu * g))
    c[0, 1] = c[1, 0] = p * 1j * a1 * a2 / rw2 * (1.0 / g - 1.0 / b)
    c[0, 0] += p * a1 * a1 / rw2 * (1j / g - 1j / b)
    c[1, 1] += p * a2 * a2 / rw2 * (1j / g - 1j / b)
    c[2, 2] = -p * 1j / rw2 * (b + A2 / g)
    # odd entries vanish in the limit

    d = np.zeros((3, 3), dtype=complex)
    d[0, 0] = s * p * (1.0 / medium.mu)
    d[1, 1] = s * p * (1.0 / medium.mu)
    d[0, 1] = d[1, 0] = 0.0
    d[0, 2] = d[2, 0] = -p * a1 / rw2 * (g - b)
    d[1, 2] = d[2, 1] = -p * a2 / rw2 * (g - b)
    d[2, 2] = s * p / rw2 * (b * b + A2)
    return c, d


def c_l_bi(medium: ElasticMedium, q: QuasiMomentum, m, x3: float) -> np.ndarray:
    """Mode profile (3, 3) at height x3 != 0.

    At x3 = 0 only the entries even in x3 have a limit (the sgn-carrying
    c_13/c_23 jump across the source plane), so evaluation there is refused.
    """
    if x3 == 0.0:
        raise DomainError("c_l_bi at x3 = 0: odd entries are ambiguous on the jump plane")
    return c_bi_arrays(medium, ModeTable.of(medium, q, [m]), x3)[0]


def _tail_bound(medium):
    """Bound ``(R, t) -> float`` on the omitted lattice modes outside radius R, at height t."""
    ks2 = float(np.real(medium.k_s**2))
    cov = (1.0 / abs(medium.mu) + 3.0 / abs(medium.rho_omega2)) / (8 * np.pi**2)

    def bound(R, t):
        if R * R <= 2 * ks2 or t <= 0.0:
            return math.inf
        # ring j has <= R + 2 pi (j+1) + 4 modes, each bounded by cov * sqrt2 * A_j e^{-g_j t}
        s2 = geom_poly_sum(R + 2 * math.pi + 4.0, 2 * math.pi, math.exp(-2 * math.pi * t), 2)
        return math.sqrt(2.0) * cov * math.exp(-math.sqrt(R * R - ks2) * t) * s2
    return bound


def _disk_phases(q, m1, m2, d1, d2):
    """``(product, block)`` of ``_series.contract`` for the disk (m1, m2).

    The phase of point p and the mode in row k (one m1) and column j (one
    m2) is E1[p, k] E2[p, j].  Row k is one run of consecutive columns and
    contributes E1[p, k] (E2[p, cols_k] @ c[row_k]); the row products of a
    block of points are written into one array and contracted with E1 once,
    and a block holds about as many entries as one set of profiles.  A call
    with at most ``_BLOCK_ELEMS`` (points x modes) forms the phase of every
    mode instead, which costs less there than a matrix product per row.
    """
    M = len(m1)
    starts = np.flatnonzero(np.diff(m1, prepend=m1[0] - 1))
    ends = np.append(starts[1:], M)
    lo2 = m2.min()
    ax1 = q.alpha[0] + 2 * np.pi * m1[starts]
    ax2 = q.alpha[1] + 2 * np.pi * np.arange(lo2, m2.max() + 1)
    if len(d1) * M <= _BLOCK_ELEMS:
        ph = np.exp(1j * np.outer(d1, ax1))[:, np.repeat(np.arange(len(starts)), ends - starts)]
        ph *= np.exp(1j * np.outer(d2, ax2))[:, m2 - lo2]
        return (lambda sub, c: ph[sub] @ c), len(d1)

    rows = list(zip(starts.tolist(), ends.tolist(), (m2[starts] - lo2).tolist()))

    def product(sub, c):
        e1 = np.exp(1j * np.outer(d1[sub], ax1))
        e2 = np.exp(1j * np.outer(d2[sub], ax2))
        z = np.empty((len(rows), len(sub), 9), dtype=complex)
        for k, (s, e, col) in enumerate(rows):
            np.dot(e2[:, col:col + e - s], c[s:e], out=z[k])
        return np.matmul(e1[:, None, :], z.transpose(1, 0, 2))[:, 0]

    # entries per point: 10 n1 in e1 and z, up to 3 n2 in e2 and its temporaries
    return product, max(1, max(_BLOCK_ELEMS, 9 * M) // (10 * len(rows) + 3 * len(ax2)))


def greenbi_eval_batch(medium: ElasticMedium, q: QuasiMomentum, X, y,
                       tol: float = DEFAULT_TOL):
    """Vectorized double-series evaluation at points X (n, 3) for source y.

    Returns ``(values, tails, n_modes)`` with values (n, 3, 3), tails <= tol.
    One lattice disk serves the whole call, sized from the smallest |x3 - y3|,
    so one close point makes every point pay for its modes; callers with mixed
    gaps should batch by gap.  ``_series.contract`` builds the profiles c_l once
    per distinct |x3 - y3|, and ``_disk_phases`` contracts them row by row
    of the disk.
    """
    X, y = points(X, y, 3)
    d1 = X[:, 0] - y[0]
    d2 = X[:, 1] - y[1]
    d3 = X[:, 2] - y[2]
    t3 = np.abs(d3)
    if np.min(t3) < GAP_MIN:
        raise NearSourcePlane(f"|x3 - y3| = {np.min(t3):.3e} below green3d_biqp.GAP_MIN = "
                              f"{GAP_MIN:g}")
    modes, tail = series_window(medium, q, float(np.min(t3)), tol, _tail_bound(medium))
    M = len(modes.m)
    out = contract(t3[:, None], M, lambda i: c_bi_arrays(medium, modes, t3[i]),
                   *_disk_phases(q, *modes.m.T, d1, d2))
    # below the source plane the entries odd in x3 change sign
    out[d3 < 0] *= _PARITY
    tails = per_key(t3, tail)
    return out, tails, M


def greenbi_eval(medium: ElasticMedium, q: QuasiMomentum, x, y,
                 tol: float = DEFAULT_TOL) -> GreenEval:
    """Biperiodic series value; the truncation disk is the smallest whose tail bound is <= tol."""
    vals, tails, nmodes = greenbi_eval_batch(medium, q, np.asarray(x)[None, :], y, tol)
    return GreenEval(3, vals[0], nmodes, float(tails[0]))
