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

Close to the source line the series needs O(1/|d|) modes.  There
:class:`RemainderTable`, a tensor-Chebyshev table of the smooth part
``T = G + S/(2 pi)`` on ``|tau| <= 1/2``, ``|d| <= NEAR_GAP``, gives G and
its x-derivatives.  ``S = a(r) ln r + kappa rhat rhat^T`` is the singular
part of the free-space tensor Phi: ``a`` is its log coefficient
(:func:`_log_coeff`, J_0 and J_1 by cephes) and
``kappa = (k_s^2 - k_p^2)/(4 pi rho omega^2)`` the bounded, direction-dependent
term, so that Phi - S is entire; S and grad S are closed forms, and no
Hankel function is evaluated per pair.  The table is built
once per (medium, alpha) from the plain series and kept, so every caller of
that (medium, alpha) shares it; it is fitted one row of nodes at a time:
the nodes of a row share their gap d_k and with it the mode matrices
M(alpha_l, d_k).  Where a table's coefficients do not decay it raises
``TableUnresolved``, and no other evaluator answers in its place.

Beyond ``NEAR_GAP`` the plain series converges fast, and each mode matrix
is summed as one rank-one term per wave type (Rayleigh's expansion),

    M(alpha_l, d) = c e^{i beta_l |d|}/beta_l p p^T + c e^{i gamma_l |d|}/gamma_l s s^T,

p = (alpha_l, sgn(d) beta_l), s = (gamma_l, -sgn(d) alpha_l), beta_l = b,
gamma_l = g and c = (i/4pi) C.  The two terms cancel where |alpha_l| >> k_s,
which at the smaller gaps of the table fit and of the point series costs
digits; those keep the form of M above.

:class:`QPSources` is the one way to apply the tensor from a set of sources
Y_n with charges c_n, sum_n G(x - Y_n) c_n.  It wraps x1 - y1 into
(tau, n) with |tau| <= 1/2, applies the phase e^{i alpha n}, and picks the
evaluator by one rule, for values and derivatives alike:

* targets more than NEAR_GAP above every source take the Rayleigh form
  factorised over the sources, O(modes) per target;
* every other target takes G at each separation from
  :meth:`QPSources.green`: pairs with |d| <= NEAR_GAP read the kernel
  table, built on first use, and pairs beyond sum the rank-one terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.special import j0, j1

from ._series import contract, geom_poly_sum, per_key, points, scalar_phases
from .errors import CoincidentPoints, DomainError, NearSourceLine, TableUnresolved
from .green_free import COINCIDENT_TOL, GreenEval
from .medium import (ElasticMedium, ModeTable, QuasiMomentum, branch_sqrt,
                     check_wood_window, mode_window)

GAP_MIN = 1e-3
DEFAULT_TOL = 1e-12
# |d| above which pairs are summed as the plain series; the table covers
# |d| <= NEAR_GAP.  The nearest lattice image of a pair is 1/2 away, so the
# remainder is analytic on the table's cell.
NEAR_GAP = 0.25
# the plain series for |d| > NEAR_GAP keeps modes with e^{-Im(gamma) NEAR_GAP} >= this
_FAR_TOL = 1e-16
# pairs per block of the table evaluations, to bound memory
_CHUNK = 4096
# sign of each mode-matrix entry under d -> -d
_PARITY = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _pref(medium: ElasticMedium):
    kp2, ks2 = medium.k_p**2, medium.k_s**2
    c = (medium.lam + medium.mu) / (medium.mu * (medium.lam + 2 * medium.mu) * (kp2 - ks2))
    return 0.25j / np.pi * c


def _unified_blocks(medium, alpha_l, D, s, jet: bool = False):
    """Mode matrices (..., 2, 2) for array alpha_l (complex allowed), or the
    (value, d/dx2) stacks when ``jet``.  d/dx1 of a phased term
    e^{i alpha_l tau} M is i alpha_l times it, which callers fold into the
    phase.

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
    return pref * val, pref * d2


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
    geo = geom_poly_sum(a0, 2 * np.pi, np.exp(-2 * np.pi * D), 1)
    return 5.0 * abs(_pref(medium)) * np.exp(-img0 * D) * geo


def _window_arrays(medium, q, D, tol):
    m, al = mode_window(medium, q, gap=D, tol=tol)
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


def green2d_eval_batch(medium: ElasticMedium, q: QuasiMomentum, X, y,
                       tol: float = DEFAULT_TOL):
    """Vectorized evaluation at points ``X`` (n, 2) for one source ``y``.

    Returns ``(values, tails, n_modes)`` with values (n, 2, 2).  One mode
    window serves the whole call, sized from the smallest |x2 - y2|, so one
    close point makes every point pay for its modes; callers with mixed gaps
    should batch by gap.  ``_series.contract`` builds the mode matrices once
    per distinct |x2 - y2|.
    """
    X, y = points(X, y, 2)
    t1 = X[:, 0] - y[0]
    d = X[:, 1] - y[1]
    D = np.abs(d)
    if np.min(D) < GAP_MIN:
        raise NearSourceLine(f"|x2 - y2| = {np.min(D):.3e} below green2d.GAP_MIN = {GAP_MIN:g}")
    m, al = _window_arrays(medium, q, float(np.min(D)), tol)
    check_wood_window(medium, q, al)

    tails = per_key(D, lambda g: _tail_bound(medium, al[-1] + 2 * np.pi, g)
                    + _tail_bound(medium, al[0] - 2 * np.pi, g))
    out = contract(D[:, None], len(al), lambda i: _unified_blocks(medium, al, D[i][:, None], 1.0),
                   *scalar_phases(t1, al, 4))
    # below the source line the off-diagonal entries, odd in x2, change sign
    out[d < 0] *= _PARITY
    return out, tails, len(al)


def green2d_eval(medium: ElasticMedium, q: QuasiMomentum, x, y,
                 tol: float = DEFAULT_TOL) -> GreenEval:
    """Spectral series value of the quasi-periodic tensor at one point pair.

    Requires ``|x2 - y2| >= GAP_MIN`` (NearSourceLine otherwise); the
    reported ``tail_bound`` rigorously bounds the omitted modes in max-norm.
    """
    vals, tails, n_modes = green2d_eval_batch(medium, q, np.asarray(x)[None, :], y, tol)
    return GreenEval(2, vals[0], n_modes, float(tails[0]))


def _scatter(out, idx, parts):
    """out[j][idx] = parts[j] for a jet tuple ``parts``, out[0][idx] = parts otherwise."""
    for o, p in zip(out, parts if isinstance(parts, tuple) else (parts,)):
        o[idx] = p


def _period(x1):
    """(x1 - n, n) as (P, 1) columns with n = floor(x1), so that
    e^{i alpha_l x1} = e^{i (alpha n + alpha_l (x1 - n))} keeps alpha_l's factor small."""
    n = np.floor(x1)
    return (x1 - n)[:, None], n[:, None]


class QPSources:
    """The quasi-periodic tensor applied from fixed sources Y (N, 2).

    :meth:`apply` sums G(x - Y_n) c_n and :meth:`green` gives G at
    separations, by the rule of the module docstring.  ``table``, the
    :class:`RemainderTable` of (medium, alpha) that :func:`remainder_table`
    keeps for every caller, is looked up when a pair first falls within
    NEAR_GAP.

    Pairs beyond NEAR_GAP sum the rank-one terms of the module docstring
    over the window that gap NEAR_GAP needs.  Targets more than NEAR_GAP
    above ``crest`` = max y2 sum the same terms in Rayleigh form: the source
    factors e^{-i alpha_l y1 + i beta_l (crest - y2)} (resp. gamma_l), built
    when a target first lies above the crest, are at most 1 in modulus; the
    charges then collapse into two coefficients per mode, and each target
    costs O(modes).  :meth:`rayleigh_coeffs` gives those coefficients, by the
    same expression, for any set of modes.  Raises WoodAnomaly when a mode of
    that window sits at a cut-off, since the terms divide by beta_l and
    gamma_l.
    """

    def __init__(self, medium: ElasticMedium, q: QuasiMomentum, Y):
        self.medium, self.q = medium, q
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        al = mode_window(medium, q, NEAR_GAP, _FAR_TOL)[1]
        check_wood_window(medium, q, al)
        a = self.alpha_l = al.astype(complex)
        self.beta_l = branch_sqrt(medium.k_p**2 - a * a)
        self.gamma_l = branch_sqrt(medium.k_s**2 - a * a)
        self.crest = float(np.max(self.Y[:, 1]))

    @cached_property
    def table(self) -> RemainderTable:
        return remainder_table(self.medium, self.q.alpha)

    @cached_property
    def _rayleigh_factors(self):
        """The source factors src_p, src_s (N, K) of the window, referenced to the crest."""
        return self._source_factors(self.alpha_l, self.beta_l, self.gamma_l, self.crest)

    def _source_factors(self, a, b, g, top):
        """e^{-i alpha_l y1 + i beta_l (top - y2)} and the same with gamma_l at
        every source, each (N, K), for the modes (alpha_l, beta_l, gamma_l) =
        (a, b, g)."""
        y1, n = _period(-self.Y[:, 0])
        rise = (top - self.Y[:, 1])[:, None]
        phase = self.q.alpha * n + y1 * a
        return np.exp(1j * (phase + rise * b)), np.exp(1j * (phase + rise * g))

    def _amplitudes(self, charges, a, b, g, factors):
        """The amplitudes (A_p, A_s), each (K,), of the modes (a, b, g) in the
        field of ``charges`` (N, 2) above every source:

            A_p(l) = (pref/beta_l) sum_n src_p[n, l] (alpha_l, beta_l).c_n,

        A_s the same with gamma_l, src_s and (gamma_l, -alpha_l), for
        ``factors`` = (src_p, src_s) of :meth:`_source_factors`; the field is
        then sum_l A_p(l) (alpha_l, beta_l) e^{i(alpha_l x1 + beta_l (x2 - top))}
        plus the s terms."""
        src_p, src_s = factors
        pref = _pref(self.medium)
        return (pref / b * np.sum((src_p.T @ charges) * np.stack([a, b], axis=-1), axis=1),
                pref / g * np.sum((src_s.T @ charges) * np.stack([g, -a], axis=-1), axis=1))

    def rayleigh_coeffs(self, charges, modes: ModeTable):
        """Rayleigh coefficients (u_p, u_s), each (M,), of sum_n G(x - Y_n) charges_n
        for the M modes of ``modes``, referenced to x2 = 0 as
        :func:`~qpelastic.rayleigh.eval_rayleigh_2d` takes them.  Above the
        crest the field is their expansion.  The modes need not lie in the
        window that :meth:`apply` sums above the crest: their source factors
        are formed here, one exponential per source and mode.
        """
        a = modes.alpha_l.astype(complex)
        b, g = modes.beta_l, modes.gamma_l
        return self._amplitudes(charges, a, b, g, self._source_factors(a, b, g, 0.0))

    def wrap(self, X):
        """Lattice offsets of targets X (P, 2) from every source, each (P, N):
        x1 - y1 = tau + n with |tau| <= 1/2, the phase e^{i alpha n} and
        d = x2 - y2.  n takes few distinct values, so the phase is formed
        once per value and gathered."""
        t1 = X[:, 0][:, None] - self.Y[:, 0][None, :]
        n = np.round(t1)
        n_u = np.unique(n)
        phase = np.exp(1j * self.q.alpha * n_u)[np.searchsorted(n_u, n)]
        return t1 - n, phase, X[:, 1][:, None] - self.Y[:, 1][None, :]

    def green(self, tau, d, want_jet: bool = False):
        """G at separations (tau, d) with |tau| <= 1/2 by the module's rule;
        (P, 2, 2), or the (value, d/dx1, d/dx2) tuple when ``want_jet``.
        Raises as :meth:`RemainderTable.green` does for pairs within NEAR_GAP.
        Far pairs go in blocks whose (pairs x modes) exponentials stay near 8 MB.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        near = np.abs(d) <= NEAR_GAP
        if near.all() and near.size:   # all in the table's cell, as in an assembly: no copies
            return self.table.green(tau, d, want_jet)
        out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
        if np.any(near):
            _scatter(out, near, self.table.green(tau[near], d[near], want_jet))
        far = np.flatnonzero(~near)
        rows = max(1, (1 << 18) // len(self.alpha_l))
        for i in range(0, len(far), rows):
            idx = far[i:i + rows]
            _scatter(out, idx, self._far(tau[idx], d[idx], want_jet))
        return tuple(out) if want_jet else out[0]

    def _far(self, tau, d, want_jet):
        """The rank-one sum at pairs with |d| > NEAR_GAP: entries 11, 12 and
        22 of c p p^T / beta_l and c s s^T / gamma_l at d > 0 as per-mode
        weights, sgn(d) applied to entry 12 and to d/dx2 = sgn(d) d/d|d|."""
        a, b, g = self.alpha_l, self.beta_l, self.gamma_l
        s, D = np.sign(d)[:, None], np.abs(d)[:, None]
        ep = np.exp(1j * (tau[:, None] * a + D * b))
        es = np.exp(1j * (tau[:, None] * a + D * g))
        wp = _pref(self.medium) * np.stack([a * a / b, a, b], axis=-1)
        ws = _pref(self.medium) * np.stack([g, -a, a * a / g], axis=-1)
        ia, ib, ig = (1j * x[:, None] for x in (a, b, g))
        out = []
        for fp, fs, sd in [(1.0, 1.0, 1.0), (ia, ia, 1.0), (ib, ig, s)][:3 if want_jet else 1]:
            v = sd * (ep @ (fp * wp) + es @ (fs * ws))
            v[:, 1:2] *= s
            out.append(v[:, [0, 1, 1, 2]].reshape(-1, 2, 2))
        return tuple(out) if want_jet else out[0]

    def apply(self, charges, X, want_jet: bool = False):
        """sum_n G(x - Y_n) charges_n at targets X (P, 2).

        ``charges`` is (N, 2), or a block (N, 2, k) of k charge vectors per
        source applied at once.  Returns (P, 2) (resp. (P, 2, k)), or a
        (value, d/dx1, d/dx2) tuple of such arrays when ``want_jet``.  Raises
        CoincidentPoints when a target lies on a source or one of its lattice
        images, |(tau, d)| < COINCIDENT_TOL, and TableUnresolved when a pair
        within NEAR_GAP needs a table that cannot be resolved.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        charges = np.asarray(charges)
        cols = [charges] if charges.ndim == 2 else \
            [np.ascontiguousarray(c) for c in np.moveaxis(charges, -1, 0)]
        out = [np.empty((len(X), 2, len(cols)), dtype=complex) for _ in range(3 if want_jet else 1)]
        above = X[:, 1] - self.crest > NEAR_GAP
        if np.any(above):
            _scatter(out, above, self._rayleigh(cols, X[above], want_jet))
        rest = ~above
        if np.any(rest):
            tau, phase, d = self.wrap(X[rest])
            G = self.green(tau.ravel(), d.ravel(), want_jet)
            for o, g in zip(out, G if want_jet else (G,)):
                g = g.reshape(tau.shape + (2, 2))
                for c, col in enumerate(cols):
                    o[rest, :, c] = np.einsum("xn,xnab,nb->xa", phase, g, col)
        if charges.ndim == 2:
            out = [o[..., 0] for o in out]
        return tuple(out) if want_jet else out[0]

    def _rayleigh(self, cols, X, want_jet):
        """(value,) or (value, d/dx1, d/dx2), each (P, 2, k), at targets more
        than NEAR_GAP above the crest, for the k charge arrays ``cols``."""
        a, b, g = self.alpha_l, self.beta_l, self.gamma_l
        pv = np.stack([a, b], axis=-1)    # (K, 2) polarisations
        sv = np.stack([g, -a], axis=-1)
        x1, n = _period(X[:, 0])
        h = (X[:, 1] - self.crest)[:, None]
        ep = np.exp(1j * (self.q.alpha * n + x1 * a + h * b))
        es = np.exp(1j * (self.q.alpha * n + x1 * a + h * g))
        out = tuple(np.empty((len(X), 2, len(cols)), dtype=complex)
                    for _ in range(3 if want_jet else 1))
        for c, charges in enumerate(cols):
            amp_p, amp_s = self._amplitudes(charges, a, b, g, self._rayleigh_factors)
            fp, fs = ep * amp_p, es * amp_s
            out[0][..., c] = fp @ pv + fs @ sv
            if want_jet:
                out[1][..., c] = (1j * a * fp) @ pv + (1j * a * fs) @ sv
                out[2][..., c] = (1j * b * fp) @ pv + (1j * g * fs) @ sv
        return out


# ---------------------------------------------------------------------------
# Tabulated smooth part of the boundary-integral kernel.
#
# T = G + S/(2 pi) removes the singular part S of the free-space copy of the
# source, and G + Phi/(2 pi) is analytic on the period cell |tau| <= 1/2,
# |d| <= NEAR_GAP (the nearest other lattice image is 1/2 away); Phi - S is
# entire, so T is analytic there too and a tensor Chebyshev series in
# (2 tau, d / NEAR_GAP) converges geometrically.  The diagonal entries of G
# and S are even in d and the off-diagonal ones odd, so T keeps only even
# (resp. odd) Chebyshev degrees in d and needs samples at d > 0 only.
# ---------------------------------------------------------------------------

def _log_coeff(medium: ElasticMedium, r, want_jet: bool = False):
    """(a_I, a_rr) with a(r) = a_I I + a_rr rhat rhat^T the log coefficient of
    the free-space tensor, Phi = a(r) ln r + kappa rhat rhat^T + entire, at
    distances r >= 0 (array); (a_I, a_rr, a_I', a_rr') with the r-derivatives,
    for r > 0, when ``want_jet``.

        a(r) = -(1/2 pi) [ (1/mu) J_0(k_s r) I + (1/rho omega^2) Hess g ],
        g = J_0(k_s r) - J_0(k_p r),   Hess g = (g'/r) I + (g'' - g'/r) rhat rhat^T,

    with g'/r = k_p^2 h(k_p r) - k_s^2 h(k_s r), h(x) = J_1(x)/x (1/2 at 0),
    and g'' - g'/r = k_s^2 J_2(k_s r) - k_p^2 J_2(k_p r), J_2 = 2h - J_0.  Both
    scalars are even and entire in r.  The derivatives use (g'/r)' = A/r and
    A' = (k_s^3 J_1(k_s r) - k_p^3 J_1(k_p r)) - 2A/r for A = g'' - g'/r.
    Real frequencies only: cephes J_0 and J_1 take real arguments.
    """
    ks, kp = medium.k_s, medium.k_p
    xs, xp = ks * r, kp * r
    J0s, J1s, J0p, J1p = j0(xs), j1(xs), j0(xp), j1(xp)
    hs = np.divide(J1s, xs, out=np.full_like(J1s, 0.5), where=xs != 0)
    hp = np.divide(J1p, xp, out=np.full_like(J1p, 0.5), where=xp != 0)
    ks2, kp2 = ks * ks, kp * kp
    A = ks2 * (2.0 * hs - J0s) - kp2 * (2.0 * hp - J0p)
    c, rw2 = -1.0 / (2 * np.pi), medium.rho_omega2
    a_i = c * (J0s / medium.mu + (kp2 * hp - ks2 * hs) / rw2)
    a_rr = (c / rw2) * A
    if not want_jet:
        return a_i, a_rr
    A_r = A / r
    return (a_i, a_rr, c * (A_r / rw2 - ks * J1s / medium.mu),
            (c / rw2) * (ks2 * ks * J1s - kp2 * kp * J1p - 2.0 * A_r))


def _kappa(medium: ElasticMedium):
    """kappa = (k_s^2 - k_p^2)/(4 pi rho omega^2), the coefficient of rhat rhat^T in S."""
    return (medium.k_s**2 - medium.k_p**2) / (4 * np.pi * medium.rho_omega2)


def _iso(c_i, c_rr, u1, u2):
    """c_i I + c_rr u u^T for scalar arrays and u = (u1, u2); shape (..., 2, 2)."""
    out = np.empty(np.shape(c_i) + (2, 2), dtype=np.result_type(c_i, c_rr))
    out[..., 0, 0] = c_i + c_rr * u1 * u1
    out[..., 1, 1] = c_i + c_rr * u2 * u2
    out[..., 0, 1] = out[..., 1, 0] = c_rr * u1 * u2
    return out


def _log_part(medium: ElasticMedium, tau, d, want_jet: bool = False):
    """S = a(r) ln r + kappa rhat rhat^T at separations (tau, d) != 0; (P, 2, 2),
    or the (S, dS/dx1, dS/dx2) tuple when ``want_jet``.

    With S = s_i I + s_rr rhat rhat^T (s_i = a_I ln r, s_rr = a_rr ln r + kappa),

        d_k S = s_i' u_k I + (s_rr' - 2 s_rr/r) u_k u u^T + (s_rr/r) (e_k u^T + u e_k^T),

    u = rhat, s' = a' ln r + a/r.
    """
    r = np.hypot(tau, d)
    u1, u2 = tau / r, d / r
    ln_r = np.log(r)
    parts = _log_coeff(medium, r, want_jet)
    s_i, s_rr = parts[0] * ln_r, parts[1] * ln_r + _kappa(medium)
    S = _iso(s_i, s_rr, u1, u2)
    if not want_jet:
        return S
    ds_i = parts[2] * ln_r + parts[0] / r
    q = s_rr / r
    ds_rr = parts[3] * ln_r + parts[1] / r - 2.0 * q
    out = [S]
    for k, (uk, other) in enumerate(((u1, u2), (u2, u1))):
        g = _iso(ds_i * uk, ds_rr * uk, u1, u2)
        # q (e_k u^T + u e_k^T): 2 q u_k on entry kk, q u_other off the diagonal
        g[..., k, k] += 2.0 * q * uk
        g[..., 0, 1] += q * other
        g[..., 1, 0] += q * other
        out.append(g)
    return tuple(out)


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


@dataclass(frozen=True)
class RemainderTable:
    """Chebyshev table of T = G + S/(2 pi) for one (medium, alpha).

    ``T(tau, d) = sum_jk c_jk T_j(2 tau) T_k(d / NEAR_GAP)`` on |tau| <= 1/2,
    |d| <= NEAR_GAP.  ``coef[j, k, 0:2]`` hold the coefficients of degree 2k
    in d of T_11 and T_22, ``coef[j, k, 2]`` those of degree 2k + 1 of
    T_12 = T_21.
    """

    medium: ElasticMedium
    alpha: float
    coef: np.ndarray

    @cached_property
    def _derivative_coef(self):
        """Coefficients of dT/dtau and dT/dd, fitted to the series' own
        derivative values from the table's node counts up, until they resolve
        as :func:`remainder_table` requires of ``coef``, or their refusal, kept
        for later jets.  Differentiating ``coef`` instead
        multiplies the rounding of the sampled values by about n^2 (1.7e-12
        of max |grad G| at omega = 60)."""
        n_tau, m, _ = self.coef.shape
        return _resolve(lambda n: _fit_remainder(self.medium, self.alpha, *n, derivatives=True),
                        [n_tau, 2 * m], f"derivative table for omega={self.medium.omega}, "
                        f"alpha={self.alpha}")

    def remainder(self, tau, d, want_jet: bool = False):
        """T at separations inside the table's cell; (P, 2, 2), or the
        (T, dT/dtau, dT/dd) tuple when ``want_jet``.

        The sum over the tau degrees is formed once per distinct tau and
        gathered to the pairs: a BEM matrix has one tau per node offset."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        coefs = (self.coef,) + (_unless_refused(self._derivative_coef) if want_jet else ())
        n_tau, m = (max(c.shape[i] for c in coefs) for i in (0, 1))
        tau_u, inv = np.unique(tau, return_inverse=True)
        tx = chebvander(2.0 * tau_u, n_tau - 1)
        # a real basis times complex coefficients, as real products on the
        # (re, im) pairs of T_11, T_22 and T_12
        vs = [(tx[:, :len(c)] @ c.reshape(len(c), -1).view(float))
              .reshape(len(tau_u), c.shape[1], 6) for c in coefs]
        del tx   # before the d basis is built, which keeps the peak memory down
        ty = chebvander(d / NEAR_GAP, 2 * m - 1).reshape(len(tau), m, 2)
        out = []
        for flip, v in zip((0, 0, 1), vs):   # d/dd flips the parity in d
            v = v[inv]   # one pair-sized product at a time keeps the peak memory down
            t = ty[:, :v.shape[1]]
            r = np.empty((len(tau), 6))
            r[:, :4] = np.einsum("pk,pkf->pf", t[..., flip], v[..., :4])       # diagonal
            r[:, 4:] = np.einsum("pk,pkf->pf", t[..., 1 - flip], v[..., 4:])   # off-diagonal
            r = r.view(complex)
            T = np.empty((len(tau), 2, 2), dtype=complex)
            T[:, 0, 0], T[:, 1, 1] = r[:, 0], r[:, 1]
            T[:, 0, 1] = T[:, 1, 0] = r[:, 2]
            out.append(T)
        return tuple(out) if want_jet else out[0]

    def green(self, tau, d, want_jet: bool = False):
        """G = T - S/(2 pi) at separations (tau, d) in the table's cell,
        |tau| <= 1/2 and |d| <= NEAR_GAP; (P, 2, 2), or the (value, d/dx1,
        d/dx2) tuple when ``want_jet``.  Raises DomainError for |d| > NEAR_GAP
        (:meth:`QPSources.green` covers every separation), and CoincidentPoints
        at |(tau, d)| < COINCIDENT_TOL, where G is singular.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        gap = np.max(np.abs(d), initial=0.0)
        if gap > NEAR_GAP:
            raise DomainError(f"|d| = {gap:.3e} outside the table's cell |d| <= {NEAR_GAP}")
        sep = np.min(np.hypot(tau, d), initial=np.inf)
        if sep < COINCIDENT_TOL:
            raise CoincidentPoints(f"separation {sep:.3e} from a source or its lattice image")
        out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
        for i in range(0, len(tau), _CHUNK):
            sl = slice(i, i + _CHUNK)
            T = self.remainder(tau[sl], d[sl], want_jet)
            S = _log_part(self.medium, tau[sl], d[sl], want_jet)
            parts = zip(T, S) if want_jet else [(T, S)]
            _scatter(out, sl, tuple(t - s / (2 * np.pi) for t, s in parts))
            del T, S, parts   # before the next chunk's temporaries: a lower peak
        return tuple(out) if want_jet else out[0]


def _fit_remainder(medium, alpha, n_tau, n_d, derivatives: bool = False):
    """Coefficients (n_tau, n_d // 2, 3) of T from plain-series values at
    first-kind nodes.

    With ``derivatives`` returns those of (dT/dtau, dT/dd) instead, each
    fitted to the series' own values of that derivative plus grad S/(2 pi).
    dT/dd is odd in d where T is even, so its array holds the degrees 2k + 1
    of the diagonal entries and the degrees 2k of T_12.

    Every node of one row d_k > 0 shares the mode matrices M(alpha_l, d_k),
    so each row is one (tau nodes x modes) phase matrix times one stack of
    mode matrices over the window of gap d_k.
    """
    q = QuasiMomentum("qp2d", alpha)
    x = _cheb_nodes(n_tau)
    y = _cheb_nodes(n_d)[: n_d // 2]   # the nodes with d > 0
    G = np.empty((2 if derivatives else 1, n_tau, len(y), 2, 2), dtype=complex)
    for k, dk in enumerate(NEAR_GAP * y):
        al = mode_window(medium, q, dk, _FAR_TOL)[1]
        check_wood_window(medium, q, al)
        ph = np.exp(0.5j * np.outer(x, al))
        if derivatives:
            val, d2 = (b.reshape(len(al), 4) for b in _unified_blocks(medium, al, dk, 1.0, True))
            rows = ((ph * (1j * al)) @ val, ph @ d2)
        else:
            rows = (ph @ _unified_blocks(medium, al, dk, 1.0).reshape(len(al), 4),)
        for g, row in zip(G, rows):
            g[:, k] = row.reshape(n_tau, 2, 2)
    tau = np.repeat(0.5 * x, len(y))
    d = np.tile(NEAR_GAP * y, n_tau)
    S = _log_part(medium, tau, d, derivatives)
    # discrete orthogonality of T_j at first-kind nodes; in d the sum over
    # all n_d nodes is twice the sum over d > 0 by the parity of T
    ct = chebvander(x, n_tau - 1).T * (2.0 / n_tau)
    ct[0] /= 2.0
    cd = chebvander(y, n_d - 1).T * (4.0 / n_d)
    cd[0] /= 2.0
    out = []
    for flip, g, p in zip((0, 1), G, S[1:] if derivatives else (S,)):
        T = g + p.reshape(g.shape) / (2 * np.pi)
        diag = np.einsum("ji,ile,kl->jke", ct, np.stack([T[..., 0, 0], T[..., 1, 1]], -1),
                         cd[flip::2], optimize=True)
        off = np.einsum("ji,il,kl->jk", ct, T[..., 0, 1], cd[1 - flip::2], optimize=True)
        out.append(np.concatenate([diag, off[..., None]], axis=-1))
    return tuple(out) if derivatives else out[0]


def _resolve(fit, n, what):
    """The coefficient arrays ``fit(n)`` at node counts n = [n_tau, n_d],
    grown until they resolve.

    The node count in each direction grows until the two trailing Chebyshev
    coefficients in that direction of every array fall below ``_TABLE_TOL``
    times that array's largest coefficient.  Returns, not raises, a
    TableUnresolved naming ``what`` when the trailing coefficients stop falling
    below ``_TABLE_FLOOR`` or miss the tolerance at ``_TABLE_MAX`` nodes, so
    that callers keep the refusal as they keep a result.
    """
    before = [np.inf, np.inf]   # each direction's tail before its last growth
    while True:
        coefs = fit(n)
        tail = [0.0, 0.0]
        for c in coefs:
            scale = float(np.max(np.abs(c)))
            tail = [max(tail[0], float(np.max(np.abs(c[-2:]))) / scale),
                    max(tail[1], float(np.max(np.abs(c[:, -1]))) / scale)]
        if max(tail) <= _TABLE_TOL:
            return coefs
        stalled = any(b <= t <= _TABLE_FLOOR for t, b in zip(tail, before))
        if stalled or max(n) >= _TABLE_MAX:
            return TableUnresolved(
                f"{what}: trailing coefficients {tail[0]:.1e} (tau), {tail[1]:.1e} (d) "
                f"at {n[0]}x{n[1]} nodes "
                f"{'stopped falling' if stalled else 'reached the node limit'} "
                f"above {_TABLE_TOL:.0e}")
        for i in range(2):
            grow = tail[i] > _TABLE_TOL
            before[i] = tail[i] if grow else np.inf
            if grow:
                n[i] = 2 * int(np.ceil(_TABLE_GROWTH * n[i] / 2))


def _unless_refused(kept):
    """``kept``, or a new error with its message when it is a kept refusal."""
    if isinstance(kept, TableUnresolved):
        raise TableUnresolved(*kept.args)
    return kept


@lru_cache(maxsize=16)
def _table_or_refusal(medium: ElasticMedium, alpha: float):
    coef = _resolve(lambda n: (_fit_remainder(medium, alpha, *n),), list(_TABLE_START),
                    f"remainder table for omega={medium.omega}, alpha={alpha}")
    if isinstance(coef, TableUnresolved):
        return coef
    return RemainderTable(medium, float(alpha), coef[0])


def remainder_table(medium: ElasticMedium, alpha: float) -> RemainderTable:
    """Tabulate T = G + S/(2 pi) on the period cell for one (medium, alpha).

    The node counts grow from ``_TABLE_START`` until the coefficients
    resolve (see :func:`_resolve`).  The 16 most recent tables or refusals
    are kept (``remainder_table.cache_clear()`` forgets them), so every caller
    of one (medium, alpha) shares one table and a refusal is fitted once.
    Raises WoodAnomaly when a mode of the series window sits at a cut-off, and
    TableUnresolved when the coefficients do not resolve.
    """
    return _unless_refused(_table_or_refusal(medium, alpha))


remainder_table.cache_clear = _table_or_refusal.cache_clear


def green2d_near_line_batch(medium: ElasticMedium, alpha: float, tau, d,
                            want_jet: bool = False):
    """Quasi-periodic tensor at separations (tau, d) with |tau| <= 1/2,
    d = 0 included, by the one rule of :meth:`QPSources.green` for
    (medium, alpha): (P, 2, 2), or a (value, d/dx1, d/dx2) tuple when
    ``want_jet``.
    """
    return QPSources(medium, QuasiMomentum("qp2d", alpha), [(0.0, 0.0)]).green(tau, d, want_jet)
