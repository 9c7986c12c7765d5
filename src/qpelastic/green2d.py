"""2D quasi-periodic Lame Green's function as a truncated spectral series.

Each lattice mode alpha_l contributes the branch-root block

    M(alpha_l, d) = (i/4pi) C [[ g Eg + a^2/b Eb ,  s a (Eb - Eg) ],
                               [ s a (Eb - Eg)   ,  b Eb + a^2/g Eg ]]

with ``b = sqrt(k_p^2 - a^2)``, ``g = sqrt(k_s^2 - a^2)`` (Im >= 0 branch),
``Eb = e^{i b |d|}``, ``Eg = e^{i g |d|}``, ``s = sgn(d)`` and
``C = (lam+mu) / (mu (lam+2mu) (k_p^2 - k_s^2))``.  The test suite keeps the
literal three-case form (per-class real roots) as a standing regression
against transcription errors in either.

The full tensor is ``G(x, y) = sum_l e^{i alpha_l (x1-y1)} M(alpha_l, x2-y2)``
and solves ``(Delta* + rho omega^2) G = (1/2pi) * phased delta comb``; see
:func:`qpelastic.green_free.comb_normalization` for the lattice-sum mapping.

Close to the source line the series needs O(1/|d|) modes.  Two evaluators
cover that region: :class:`RemainderTable`, a tensor-Chebyshev table of the
smooth remainder ``R = G + Phi/(2 pi)`` on ``|tau| <= 1/2``,
``|d| <= NEAR_GAP``, and the Abel-Plana near-line form (any gap, d = 0
included, but costly per pair).  The table is built once per (medium, alpha)
from the plain series, one row of nodes at a time: the nodes of a row share
their gap d_k and with it the mode matrices M(alpha_l, d_k).  Beyond
``NEAR_GAP`` the plain series converges fast and is used directly.

:class:`QPSources` is the one way to apply the tensor from a set of sources
Y_n with charges c_n, sum_n G(x - Y_n) c_n.  It wraps x1 - y1 into
(tau, n) with |tau| <= 1/2, applies the phase e^{i alpha n}, and picks the
evaluator by one rule:

* targets more than NEAR_GAP above every source take the Rayleigh form of
  the plain series, O(modes) per target;
* values of pairs with |d| <= NEAR_GAP take the kernel table, when the
  source set has one;
* everything else takes :func:`green2d_near_line_batch`: Abel-Plana for
  |d| <= NEAR_GAP, the plain series beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre

from ._series import contract_by_key, equal_rows
from .errors import NearSourceLine, TableUnresolved
from .green_free import GreenEval, _kupradze2d_value
from .medium import (ElasticMedium, QuasiMomentum, branch_sqrt, check_wood_window,
                     mode_window)

GAP_MIN = 1e-3
DEFAULT_TOL = 1e-12
_AP_NODES = 48
# |d| above which pairs are summed as the plain series; the table covers
# |d| <= NEAR_GAP.  The nearest lattice image of a pair is 1/2 away, so the
# remainder is analytic on the table's cell.
NEAR_GAP = 0.25
# the plain series for |d| > NEAR_GAP keeps modes with e^{-Im(gamma) NEAR_GAP} >= this
_FAR_TOL = 1e-16
# pairs per block of the Abel-Plana and table evaluations, to bound memory
_CHUNK = 4096
# sign of each mode-matrix entry under d -> -d
_PARITY = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _pref(medium: ElasticMedium):
    kp2, ks2 = medium.k_p**2, medium.k_s**2
    c = (medium.lam + medium.mu) / (medium.mu * (medium.lam + 2 * medium.mu) * (kp2 - ks2))
    return 0.25j / np.pi * c


def _unified_blocks(medium, alpha_l, D, s, jet: bool = False):
    """Mode matrices (..., 2, 2) for array alpha_l (complex allowed), or the
    (value, d/dx1, d/dx2) stacks when ``jet``.

    The entries of the module docstring's M, rearranged with
    a^2/b = k_p^2/b - b and a^2/g = k_s^2/g - g.  For |a| >> k_s both roots
    approach i|a|, so Eg - Eb and g Eg - b Eb are formed from
    g - b = (k_s^2 - k_p^2)/(g + b) and expm1 rather than by subtraction.
    For k_p < |a| < k_s at large |a| D that form is 0 * inf (Eb underflows,
    the expm1 overflows); there |Eg| = 1 >> |Eb|, so Eg - Eb is formed
    directly, with no cancellation.
    """
    a = np.asarray(alpha_l, dtype=complex)
    a2 = a * a
    kp2, ks2 = medium.k_p**2, medium.k_s**2
    b = branch_sqrt(kp2 - a2)
    g = branch_sqrt(ks2 - a2)
    g_b = (ks2 - kp2) / (g + b)
    Eb = np.exp(1j * b * D)
    with np.errstate(over="ignore", invalid="ignore"):
        dE = Eb * np.expm1(1j * g_b * D)   # Eg - Eb
    # |Eg - Eb| <= 2, so the sum is finite exactly when every entry is
    if not np.isfinite(dE.sum()):
        dE = np.where(np.isfinite(dE), dE, np.exp(1j * g * D) - Eb)
    Eg = Eb + dE
    gEg_bEb = g_b * Eg + b * dE
    pref = _pref(medium)
    shape = np.broadcast_shapes(a.shape, np.shape(D), np.shape(s))
    val = np.empty(shape + (2, 2), dtype=complex)
    val[..., 0, 0] = gEg_bEb + kp2 / b * Eb
    val[..., 0, 1] = val[..., 1, 0] = -s * a * dE
    val[..., 1, 1] = ks2 / g * Eg - gEg_bEb
    if not jet:
        return pref * val
    # d/dx2 = s * d/dD; the sgn factor squares away on the off-diagonal
    d2 = np.empty_like(val)
    d2[..., 0, 0] = s * 1j * (ks2 * Eg - a2 * dE)
    d2[..., 0, 1] = d2[..., 1, 0] = -1j * a * gEg_bEb
    d2[..., 1, 1] = s * 1j * (kp2 * Eb + a2 * dE)
    d1 = (1j * a)[..., None, None] * val
    return pref * val, pref * d1, pref * d2


def _tail_bound(medium, alpha_first_omitted, D):
    """Rigorous max-norm bound on one side's omitted modes.

    Valid once |alpha| >= sqrt(2) k_s; callers arrange the window to reach
    that regime, and below it (a window that stopped widening) the bound is
    ``inf``.  Per-mode bound 5|pref||alpha| e^{-Im(gamma) D} and Im(gamma)
    grows by at least 2 pi per omitted mode.
    """
    a0 = abs(alpha_first_omitted)
    ks2 = np.real(medium.k_s**2)
    if D <= 0.0 or a0 * a0 < 2 * ks2:
        return float("inf")
    img0 = np.sqrt(a0 * a0 - ks2)
    q = np.exp(-2 * np.pi * D)
    geo = a0 / (1 - q) + 2 * np.pi * q / (1 - q) ** 2
    return 5.0 * abs(_pref(medium)) * np.exp(-img0 * D) * geo


def _window_arrays(medium, q, D, tol):
    m, al = mode_window(medium, q, gap=max(D, GAP_MIN), tol=tol)
    # extend so the tail-bound regime |alpha| >= sqrt(2) k_s is reached
    ks = float(np.real(medium.k_s))
    extra = 0
    while abs(al[0]) < np.sqrt(2) * ks or abs(al[-1]) < np.sqrt(2) * ks:
        extra += 1
        m = np.arange(m[0] - 1, m[-1] + 2)
        al = q.alpha + 2 * np.pi * m
        if extra > 64:
            break
    return m, al


def _series_sum(medium, al, tau, d, want_jet: bool):
    """sum_l e^{i alpha_l tau} M(alpha_l, d) over the modes ``al`` at pairs (tau, d).

    One (pairs x modes) contraction per block of pairs, the block sized so a
    stack of mode matrices stays near 16 MB.  Returns (P, 2, 2), or a
    (value, d/dx1, d/dx2) tuple when ``want_jet``.
    """
    al = np.asarray(al)
    out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
    rows = max(1, (1 << 18) // len(al))
    for i in range(0, len(tau), rows):
        sl = slice(i, i + rows)
        ph = np.exp(1j * np.outer(tau[sl], al))
        D, s = np.abs(d[sl])[:, None], np.sign(d[sl])[:, None]
        blocks = _unified_blocks(medium, al, D, s, want_jet)
        for o, b in zip(out, blocks if want_jet else (blocks,)):
            o[sl] = np.einsum("pm,pmab->pab", ph, b)
    return tuple(out) if want_jet else out[0]


def green2d_eval_batch(medium: ElasticMedium, q: QuasiMomentum, X, y,
                       tol: float = DEFAULT_TOL, gap_min: float = GAP_MIN,
                       tol_wood: float | None = None):
    """Vectorized evaluation at points ``X`` (n, 2) for one source ``y``.

    Returns ``(values, tails, n_modes)`` with values (n, 2, 2).  One mode
    window serves the whole call, sized from the smallest |x2 - y2|, so one
    close point makes every point pay for its modes; callers with mixed gaps
    should batch by gap.  The mode matrices are built once per distinct
    |x2 - y2|, and the points sharing one are contracted with them as one
    (points x modes) phase matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    t1 = X[:, 0] - y[0]
    d = X[:, 1] - y[1]
    D = np.abs(d)
    if np.any(D < gap_min):
        raise NearSourceLine(f"|x2-y2| below gap_min={gap_min}")
    m, al = _window_arrays(medium, q, float(np.min(D)), tol)
    check_wood_window(medium, q, al, tol_wood)

    tails = np.empty(len(d))
    for idx in equal_rows(D[:, None]):
        tails[idx] = _tail_bound(medium, al[-1] + 2 * np.pi, D[idx[0]]) \
            + _tail_bound(medium, al[0] - 2 * np.pi, D[idx[0]])
    out = contract_by_key(D[:, None], len(al),
                          lambda i: _unified_blocks(medium, al, D[i][:, None], 1.0),
                          lambda i: np.exp(1j * np.outer(t1[i], al)))
    # below the source line the off-diagonal entries, odd in x2, change sign
    out[d < 0] *= _PARITY
    return out, tails, len(al)


def green2d_eval(medium: ElasticMedium, q: QuasiMomentum, x, y,
                 tol: float = DEFAULT_TOL, gap_min: float = GAP_MIN,
                 tol_wood: float | None = None) -> GreenEval:
    """Spectral series value of the quasi-periodic tensor at one point pair.

    Requires ``|x2 - y2| >= gap_min`` (NearSourceLine otherwise); the
    reported ``tail_bound`` rigorously bounds the omitted modes in max-norm.
    """
    vals, tails, n_modes = green2d_eval_batch(medium, q, np.asarray(x)[None, :], y, tol,
                                              gap_min=gap_min, tol_wood=tol_wood)
    return GreenEval(2, vals[0], n_modes, float(tails[0]))


# ---------------------------------------------------------------------------
# Near-line evaluation via Abel-Plana tail summation.
#
# The plain series needs O(1/d) modes as the transverse gap d -> 0.  For the
# boundary-integral kernels we instead sum the finitely many low modes exactly
# and replace each one-sided evanescent tail by the Abel-Plana identity
#
#   sum_{m>=0} h(m) = h(0)/2 + int_0^inf h(m) dm
#                     + i int_0^inf [h(iy) - h(-iy)] / (e^{2 pi y} - 1) dy,
#
# rotating the first integral onto the ray of steepest decay.  Both integrals
# converge exponentially for any (t1, d) != (0, 0) mod 1.
# ---------------------------------------------------------------------------

_gl_x, _gl_w = roots_laguerre(_AP_NODES)
_leg_x, _leg_w = np.polynomial.legendre.leggauss(16)


def _mode_h(medium, a, D, s, tau, jet: bool):
    """Phased mode matrices; a, D, s, tau broadcast together.

    Returns (..., 2, 2) or a (value, d1, d2) tuple of such stacks.
    """
    ph = np.exp(1j * a * tau)[..., None, None]
    if jet:
        return tuple(m * ph for m in _unified_blocks(medium, a, D, s, True))
    return _unified_blocks(medium, a, D, s) * ph


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

    # endpoint h(0)
    zero = np.zeros((len(D), 1))
    end = h(zero)

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
    ray_wts = uw[None, :] * np.ones((len(D), 1))
    mask = decay < 1e-18
    ray_wts = np.where(mask, 0.0, ray_wts)

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


def _abel_plana(medium, alpha, tau, d, want_jet, margin_modes):
    """Low-mode block plus Abel-Plana sums of the two evanescent tails."""
    n = len(tau)
    if n > _CHUNK:
        # sort by separation so each chunk shares a ray panel structure
        order = np.argsort(np.hypot(tau, d))
        inv = np.argsort(order)
        parts = [_abel_plana(medium, alpha, tau[order][i:i + _CHUNK],
                             d[order][i:i + _CHUNK], want_jet, margin_modes)
                 for i in range(0, n, _CHUNK)]
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


def _main_window(medium, alpha, margin_modes):
    """Index range of the exactly summed modes: |alpha_l| <= k_s plus the margin."""
    ks = float(np.real(medium.k_s))
    lo = int(np.floor((-ks - 2 * np.pi * margin_modes - alpha) / (2 * np.pi)))
    hi = int(np.ceil((ks + 2 * np.pi * margin_modes - alpha) / (2 * np.pi)))
    return lo, hi


def green2d_near_line_batch(medium: ElasticMedium, alpha: float, tau, d,
                            want_jet: bool = False, margin_modes: int = 3):
    """Quasi-periodic tensor at separations (tau, d), valid arbitrarily close
    to (and on) the source-height line, d = 0 included, for
    (tau, d) != (0, 0) mod the lattice.  |tau| <= 1/2 expected.

    Pairs with |d| <= NEAR_GAP take the exact low-mode block plus
    Abel-Plana summation of the two evanescent tails (``margin_modes``
    extra modes each side in the block); pairs with |d| > NEAR_GAP take the
    plain series over the window that gap NEAR_GAP needs, as one
    (pairs x modes) contraction.
    Returns (P, 2, 2), or a (value, d/dx1, d/dx2) tuple when ``want_jet``.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    q = QuasiMomentum("qp2d", alpha)
    lo, hi = _main_window(medium, alpha, margin_modes)
    check_wood_window(medium, q, alpha + 2 * np.pi * np.arange(lo, hi + 1))

    far = np.abs(d) > NEAR_GAP
    out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
    if np.any(far):
        vals = _series_sum(medium, mode_window(medium, q, NEAR_GAP, _FAR_TOL)[1],
                           tau[far], d[far], want_jet)
        for o, v in zip(out, vals if want_jet else (vals,)):
            o[far] = v
    if not np.all(far):
        vals = _abel_plana(medium, alpha, tau[~far], d[~far], want_jet, margin_modes)
        for o, v in zip(out, vals if want_jet else (vals,)):
            o[~far] = v
    return tuple(out) if want_jet else out[0]


def _period(x1):
    """(x1 - n, n) as (P, 1) columns with n = floor(x1), so that
    e^{i alpha_l x1} = e^{i (alpha n + alpha_l (x1 - n))} keeps alpha_l's factor small."""
    n = np.floor(x1)
    return (x1 - n)[:, None], n[:, None]


class QPSources:
    """The quasi-periodic tensor applied from fixed sources Y (N, 2).

    :meth:`apply` sums G(x - Y_n) c_n by the evaluator rule of the module
    docstring; ``table``, when given, is the :class:`RemainderTable` of the
    same (medium, alpha).

    Targets more than NEAR_GAP above ``crest`` = max y2 take the plain series
    that :func:`green2d_near_line_batch` sums for |d| > NEAR_GAP, over the
    same window, in Rayleigh form.  For d > 0 the mode matrix splits into one
    rank-one term per wave type,

        M(alpha_l, d) = c e^{i beta_l d}/beta_l (a, b)(a, b)^T
                      + c e^{i gamma_l d}/gamma_l (g, -a)(g, -a)^T,

    with (a, b, g) = (alpha_l, beta_l, gamma_l) and c the prefactor of the
    module docstring.  ``src_p``/``src_s`` (N, K) hold
    e^{-i alpha_l y1 + i beta_l (crest - y2)} (resp. gamma_l) for every
    source, so that no factor exceeds 1; the charges then collapse into two
    coefficients per mode, and each target costs O(modes).  Raises
    WoodAnomaly when a mode of that window sits at a cut-off, since the form
    divides by beta_l and gamma_l.
    """

    def __init__(self, medium: ElasticMedium, q: QuasiMomentum, Y,
                 table: RemainderTable | None = None):
        self.medium, self.q, self.table = medium, q, table
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        al = mode_window(medium, q, NEAR_GAP, _FAR_TOL)[1]
        check_wood_window(medium, q, al)
        a = self.alpha_l = al.astype(complex)
        self.beta = branch_sqrt(medium.k_p**2 - a * a)
        self.gamma = branch_sqrt(medium.k_s**2 - a * a)
        self.crest = float(np.max(self.Y[:, 1]))
        y1, n = _period(-self.Y[:, 0])
        rise = (self.crest - self.Y[:, 1])[:, None]
        phase = q.alpha * n + y1 * a
        self.src_p = np.exp(1j * (phase + rise * self.beta))
        self.src_s = np.exp(1j * (phase + rise * self.gamma))

    def wrap(self, X):
        """Lattice offsets of targets X (P, 2) from every source, each (P, N):
        x1 - y1 = tau + n with |tau| <= 1/2, the phase e^{i alpha n} and
        d = x2 - y2."""
        t1 = X[:, 0][:, None] - self.Y[:, 0][None, :]
        n = np.round(t1)
        return t1 - n, np.exp(1j * self.q.alpha * n), X[:, 1][:, None] - self.Y[:, 1][None, :]

    def apply(self, charges, X, want_jet: bool = False):
        """sum_n G(x - Y_n) charges_n at targets X (P, 2); ``charges`` (N, 2).

        Returns (P, 2), or a (value, d/dx1, d/dx2) tuple when ``want_jet``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        charges = np.asarray(charges)
        out = [np.empty((len(X), 2), dtype=complex) for _ in range(3 if want_jet else 1)]
        above = X[:, 1] - self.crest > NEAR_GAP
        if np.any(above):
            for o, v in zip(out, self._rayleigh(charges, X[above], want_jet)):
                o[above] = v
        rest = ~above
        if np.any(rest):
            tau, phase, d = self.wrap(X[rest])
            if self.table is not None and not want_jet:
                G = self.table.green(tau.ravel(), d.ravel())
            else:
                G = green2d_near_line_batch(self.medium, self.q.alpha, tau.ravel(), d.ravel(),
                                            want_jet)
            for o, g in zip(out, G if want_jet else (G,)):
                o[rest] = np.einsum("xn,xnab,nb->xa", phase, g.reshape(tau.shape + (2, 2)),
                                    charges)
        return tuple(out) if want_jet else out[0]

    def _rayleigh(self, charges, X, want_jet):
        """[value] or [value, d/dx1, d/dx2] at targets more than NEAR_GAP above the crest."""
        a, b, g = self.alpha_l, self.beta, self.gamma
        pv = np.stack([a, b], axis=-1)    # (K, 2) polarisations
        sv = np.stack([g, -a], axis=-1)
        pref = _pref(self.medium)
        cp = pref / b * np.sum((self.src_p.T @ charges) * pv, axis=1)
        cs = pref / g * np.sum((self.src_s.T @ charges) * sv, axis=1)
        x1, n = _period(X[:, 0])
        h = (X[:, 1] - self.crest)[:, None]
        fp = np.exp(1j * (self.q.alpha * n + x1 * a + h * b)) * cp
        fs = np.exp(1j * (self.q.alpha * n + x1 * a + h * g)) * cs
        u = fp @ pv + fs @ sv
        if not want_jet:
            return [u]
        return [u, (1j * a * fp) @ pv + (1j * a * fs) @ sv,
                (1j * b * fp) @ pv + (1j * g * fs) @ sv]


def green2d_near_line(medium: ElasticMedium, alpha: float, t1: float, d: float,
                      want_jet: bool = False, margin_modes: int = 3):
    """Single-pair convenience wrapper around the batched near-line evaluator."""
    out = green2d_near_line_batch(medium, alpha, [t1], [d], want_jet, margin_modes)
    if want_jet:
        return np.stack([out[j][0] for j in range(3)], axis=0)
    return out[0]


# ---------------------------------------------------------------------------
# Tabulated smooth remainder for the boundary-integral kernel.
#
# R = G + Phi/(2 pi) removes the free-space copy of the source, so R is
# analytic on the period cell |tau| <= 1/2, |d| <= NEAR_GAP (the nearest
# other lattice image is 1/2 away) and a tensor Chebyshev series in
# (2 tau, d / NEAR_GAP) converges geometrically.  The diagonal entries of G
# and Phi are even in d and the off-diagonal ones odd, so R keeps only even
# (resp. odd) Chebyshev degrees in d and needs samples at d > 0 only.
# ---------------------------------------------------------------------------

_TABLE_TOL = 1e-14       # trailing coefficients relative to the largest one
_TABLE_START = (28, 28)  # Chebyshev nodes in tau and in d of the first fit
_TABLE_GROWTH = 1.25     # node-count factor per direction that has not converged
_TABLE_MAX = 128         # nodes per direction before giving up
# a trailing coefficient below this that stops falling as nodes are added is
# the series values' rounding floor, not an unresolved oscillation
_TABLE_FLOOR = 1e-11


def _cheb_nodes(n):
    """Chebyshev points of the first kind, in decreasing order."""
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def _cheb_basis(x, n):
    """T_0(x) .. T_{n-1}(x) by the three-term recurrence; shape (len(x), n)."""
    T = np.empty((n, len(x)))
    T[0] = 1.0
    if n > 1:
        T[1] = x
    for j in range(2, n):
        T[j] = 2.0 * x * T[j - 1] - T[j - 2]
    return T.T


@dataclass(frozen=True)
class RemainderTable:
    """Chebyshev table of R = G + Phi/(2 pi) for one (medium, alpha).

    ``R(tau, d) = sum_jk c_jk T_j(2 tau) T_k(d / NEAR_GAP)`` on |tau| <= 1/2,
    |d| <= NEAR_GAP.  ``coef[j, k, 0:2]`` hold the coefficients of degree 2k
    in d of R_11 and R_22, ``coef[j, k, 2]`` those of degree 2k + 1 of
    R_12 = R_21.
    """

    medium: ElasticMedium
    alpha: float
    coef: np.ndarray

    def remainder(self, tau, d) -> np.ndarray:
        """R at separations inside the table's cell; (P, 2, 2)."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        n_tau, m, _ = self.coef.shape
        # a real basis times complex coefficients, as real products on the
        # (re, im) pairs of R_11, R_22 and R_12
        re_im = self.coef.reshape(n_tau, 3 * m).view(float)
        v = (_cheb_basis(2.0 * tau, n_tau) @ re_im).reshape(len(tau), m, 6)
        ty = _cheb_basis(d / NEAR_GAP, 2 * m).reshape(len(tau), m, 2)
        r = np.empty((len(tau), 6))
        r[:, :4] = np.einsum("pk,pkf->pf", ty[..., 0], v[..., :4])   # even degrees
        r[:, 4:] = np.einsum("pk,pkf->pf", ty[..., 1], v[..., 4:])   # odd degrees
        r = r.view(complex)
        out = np.empty((len(tau), 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 1, 1] = r[:, 0], r[:, 1]
        out[:, 0, 1] = out[:, 1, 0] = r[:, 2]
        return out

    def green(self, tau, d) -> np.ndarray:
        """G at separations (tau, d) != (0, 0) with |tau| <= 1/2; (P, 2, 2).

        R minus the closed-form Phi/(2 pi) for |d| <= NEAR_GAP, the plain
        series of :func:`green2d_near_line_batch` beyond.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        out = np.empty((len(tau), 2, 2), dtype=complex)
        near = np.flatnonzero(np.abs(d) <= NEAR_GAP)
        for i in range(0, len(near), _CHUNK):
            idx = near[i:i + _CHUNK]
            dx = np.stack([tau[idx], d[idx]], axis=-1)
            out[idx] = self.remainder(tau[idx], d[idx]) \
                - _kupradze2d_value(self.medium, dx) / (2 * np.pi)
        if len(near) < len(d):
            far = np.abs(d) > NEAR_GAP
            out[far] = green2d_near_line_batch(self.medium, self.alpha, tau[far], d[far])
        return out


def _fit_remainder(medium, alpha, n_tau, n_d):
    """Coefficients (n_tau, n_d // 2, 3) from plain-series values at first-kind nodes.

    Every node of one row d_k > 0 shares the mode matrices M(alpha_l, d_k),
    so each row is one (tau nodes x modes) phase matrix times one stack of
    mode matrices over the window of gap d_k.
    """
    q = QuasiMomentum("qp2d", alpha)
    x = _cheb_nodes(n_tau)
    y = _cheb_nodes(n_d)[: n_d // 2]   # the nodes with d > 0
    G = np.empty((n_tau, len(y), 2, 2), dtype=complex)
    for k, dk in enumerate(NEAR_GAP * y):
        al = mode_window(medium, q, dk, _FAR_TOL)[1]
        check_wood_window(medium, q, al)
        blocks = _unified_blocks(medium, al, dk, 1.0).reshape(len(al), 4)
        G[:, k] = (np.exp(0.5j * np.outer(x, al)) @ blocks).reshape(n_tau, 2, 2)
    tau = np.repeat(0.5 * x, len(y))
    d = np.tile(NEAR_GAP * y, n_tau)
    R = G + _kupradze2d_value(medium, np.stack([tau, d], axis=-1)).reshape(G.shape) \
        / (2 * np.pi)
    # discrete orthogonality of T_j at first-kind nodes; in d the sum over
    # all n_d nodes is twice the sum over d > 0 by the parity of R
    ct = _cheb_basis(x, n_tau).T * (2.0 / n_tau)
    ct[0] /= 2.0
    cd = _cheb_basis(y, n_d).T * (4.0 / n_d)
    cd[0] /= 2.0
    diag = np.einsum("ji,ile,kl->jke", ct, np.stack([R[..., 0, 0], R[..., 1, 1]], -1),
                     cd[0::2], optimize=True)
    off = np.einsum("ji,il,kl->jk", ct, R[..., 0, 1], cd[1::2], optimize=True)
    return np.concatenate([diag, off[..., None]], axis=-1)


def remainder_table(medium: ElasticMedium, alpha: float) -> RemainderTable:
    """Tabulate R = G + Phi/(2 pi) on the period cell for one (medium, alpha).

    The node count in each direction grows from ``_TABLE_START`` until the
    two trailing Chebyshev coefficients in that direction fall below
    ``_TABLE_TOL`` times the largest coefficient.  Raises WoodAnomaly when a
    mode of the series window sits at a cut-off, and TableUnresolved when the
    trailing coefficients stop falling below ``_TABLE_FLOOR`` or have not
    reached the tolerance by ``_TABLE_MAX`` nodes.
    """
    n = list(_TABLE_START)
    before = [np.inf, np.inf]   # each direction's tail before its last growth
    while True:
        coef = _fit_remainder(medium, alpha, *n)
        scale = float(np.max(np.abs(coef)))
        tail = [float(np.max(np.abs(coef[-2:]))) / scale,
                float(np.max(np.abs(coef[:, -1]))) / scale]
        if max(tail) <= _TABLE_TOL:
            return RemainderTable(medium, float(alpha), coef)
        stalled = any(b <= t <= _TABLE_FLOOR for t, b in zip(tail, before))
        if stalled or max(n) >= _TABLE_MAX:
            raise TableUnresolved(
                f"remainder table for omega={medium.omega}, alpha={alpha}: trailing "
                f"coefficients {tail[0]:.1e} (tau), {tail[1]:.1e} (d) at {n[0]}x{n[1]} "
                f"nodes {'stopped falling' if stalled else 'reached the node limit'} "
                f"above {_TABLE_TOL:.0e}")
        for i in range(2):
            grow = tail[i] > _TABLE_TOL
            before[i] = tail[i] if grow else np.inf
            if grow:
                n[i] = 2 * int(np.ceil(_TABLE_GROWTH * n[i] / 2))
