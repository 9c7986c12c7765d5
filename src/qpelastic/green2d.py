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
the nodes of a row share their gap d_k and with it one mode window.  Where
a table's coefficients do not decay it raises ``TableUnresolved``, and no
other evaluator answers in its place.  It is read one way, for scattered
pairs and the BEM assembly alike: its sums over the tau degrees, formed
once per distinct tau (:meth:`RemainderTable.tau_sums`), times the pairs'
Chebyshev basis in d (:func:`_read_table`).

One mode sum, :func:`_mode_sum`, serves the plain series, the table fit
and the pairs of :meth:`QPSources.green` beyond NEAR_GAP, with M rearranged
so that no term cancels where |alpha_l| >> k_s.  Each M is also one
rank-one term per wave type (Rayleigh's expansion),

    M(alpha_l, d) = c e^{i beta_l |d|}/beta_l p p^T + c e^{i gamma_l |d|}/gamma_l s s^T,

p = (alpha_l, sgn(d) beta_l), s = (gamma_l, -sgn(d) alpha_l), beta_l = b,
gamma_l = g and c = (i/4pi) C.  Its separate beta_l and gamma_l exponentials
factorise over the sources, which the Rayleigh forms below use.

:class:`QPSources` is the one way to apply the tensor from a set of sources
Y_n with charges c_n, sum_n G(x - Y_n) c_n.  It wraps x1 - y1 into
(tau, n) with |tau| <= 1/2, applies the phase e^{i alpha n}, and picks the
evaluator by one rule with three branches, for values and derivatives alike:

* targets more than NEAR_GAP above every source take the Rayleigh form
  factorised over the sources, O(modes) per target;
* targets more than NEAR_GAP below every source take its mirror, the same
  form with sgn(d) = -1;
* every other target takes G at each separation from
  :meth:`QPSources.green`: pairs with |d| <= NEAR_GAP read the kernel
  table, built on first use, and pairs beyond take the mode sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.special import j0, j1

from ._series import per_key, point_rows, points
from .errors import CoincidentPoints, DomainError, NearSourceLine, TableUnresolved
from .green_free import COINCIDENT_TOL, GreenEval
from .medium import ElasticMedium, ModeTable, QuasiMomentum, mode_window, series_window

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
# (pairs x modes) per block of the mode sum, to bound memory
_PAIR_MODES = 1 << 18


def _pref(medium: ElasticMedium):
    kp2, ks2 = medium.k_p**2, medium.k_s**2
    c = (medium.lam + medium.mu) / (medium.mu * (medium.lam + 2 * medium.mu) * (kp2 - ks2))
    return 0.25j / np.pi * c


def _mode_weights(medium, modes: ModeTable, want_jet: bool = False):
    """``(g_b, W)``: g_b = g - b and the weights W (2, ..., 3) over the modes'
    shape of entries 11, 12 and 22 of M = W[0] Eb + W[1] (Eg - Eb) at d > 0,
    or (2, ..., 9) with those of d/dx1 and d/d|d| after them when ``want_jet``.

    M of the module docstring with a^2/b = k_p^2/b - b, a^2/g = k_s^2/g - g
    and g - b = (k_s^2 - k_p^2)/(g + b): no weight subtracts O(|a|) terms
    where both roots approach i|a|.  d/dx1 of e^{i alpha_l tau} M is i alpha_l
    times it; d/d|d| takes i b Eb and i g_b Eb + i g (Eg - Eb).
    """
    a, a2, b, g = modes.alpha_l, modes.alpha_sq, modes.beta_l, modes.gamma_l
    kp2, ks2 = medium.k_p**2, medium.k_s**2
    g_b = (ks2 - kp2) / (g + b)
    W = np.zeros((2,) + np.shape(g_b) + (9 if want_jet else 3,), dtype=complex)
    W[0, ..., 0] = g_b + kp2 / b
    W[0, ..., 2] = ks2 / g - g_b
    W[1, ..., 0] = g
    W[1, ..., 1] = -a
    W[1, ..., 2] = a2 / g
    if want_jet:
        W[..., 3:6] = 1j * a[..., None] * W[..., :3]
        W[0, ..., 6], W[0, ..., 7], W[0, ..., 8] = 1j * ks2, -1j * a * g_b, 1j * kp2
        W[1, ..., 6], W[1, ..., 7], W[1, ..., 8] = 1j * (ks2 - a2), -1j * a * g, 1j * a2
    W *= _pref(medium)
    return g_b, W


# the weights' columns odd in d: entry 12 of value and d/dx1, the diagonal of d/dx2
_ODD_COLUMNS = (1, 4, 6, 8)


def _mode_sum(medium, modes: ModeTable, tau, d, want_jet: bool = False, value: bool = True):
    """sum_l e^{i alpha_l tau} M(alpha_l, d) over the modes of ``modes`` at
    pairs (tau, d), d of either sign; (P, 2, 2), or the (value, d/dx1, d/dx2)
    tuple when ``want_jet``, and the (d/dx1, d/dx2) tuple alone when also not
    ``value``: the value's columns of W then take no product.

    [Eb, Eg - Eb] @ W of :func:`_mode_weights`, with one exponential
    Eb = e^{i (alpha_l tau + beta_l |d|)} per pair and mode and Eg - Eb =
    Eb expm1(i g_b |d|), the expm1 once per distinct |d|.  For k_p < |a| < k_s
    at large |a| |d| that is 0 * inf; there |Eg| = 1 >> |Eb|, and Eg - Eb is
    formed directly.  Blocks of pairs hold at most ``_PAIR_MODES`` entries.
    """
    a, b, g = modes.alpha_l, modes.beta_l, modes.gamma_l
    K = len(a)
    g_b, W = _mode_weights(medium, modes, want_jet)
    skip = 0 if value else 3   # the value's columns
    W = W.reshape(2 * K, -1)[:, skip:]
    D = np.abs(d)
    out = np.empty((len(tau), W.shape[1]), dtype=complex)
    rows = max(1, _PAIR_MODES // K)
    for i in range(0, len(tau), rows):
        t, Di = tau[i:i + rows], D[i:i + rows]
        D_u = np.unique(Di)
        # pairs that share no |d|, as scattered pairs do, need no gather
        D_u, inv = (Di, slice(None)) if len(D_u) == len(Di) else (D_u, np.searchsorted(D_u, Di))
        E = np.empty((len(t), 2, K), dtype=complex)
        eb, de = E[:, 0], E[:, 1]
        np.multiply.outer(Di, 1j * b, out=eb)
        eb.imag += np.multiply.outer(t, a)
        np.exp(eb, out=eb)
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.expm1(np.multiply.outer(D_u, 1j * g_b))
            np.multiply(grow[inv], eb, out=de)
        if not np.isfinite(grow).all():
            r, c = np.nonzero(~np.isfinite(grow)[inv])
            de[r, c] = np.exp(1j * (t[r] * a[c] + Di[r] * g[c])) - eb[r, c]
        E = E.reshape(len(t), 2 * K)
        for k in range(0, W.shape[1], 3):   # the value alone as in a jet, bit for bit
            out[i:i + rows, k:k + 3] = E @ W[:, k:k + 3]
    for c in _ODD_COLUMNS[:4 if want_jet else 1]:
        if c >= skip:
            out[:, c - skip] *= np.sign(d)
    parts = [out[:, k:k + 3][:, [0, 1, 1, 2]].reshape(-1, 2, 2) for k in range(0, out.shape[1], 3)]
    return tuple(parts) if want_jet else parts[0]


def _tail_bound(medium):
    """Bound ``(a, D) -> float`` on one side's modes from |alpha_l| = a outwards at gap D.

    By g - b = (k_s^2 - k_p^2)/(g + b), each entry of M is at most |pref| e^{-gamma' D}
    [|k_s^2 - k_p^2| (n D + 1)/(gamma' + beta') + |k_s^2|/gamma'] with gamma' = sqrt(a^2 -
    Re k_s^2) <= Im g, beta' = sqrt(a^2 - Re k_p^2) <= Im b and n = max(a, sqrt(gamma'^2 +
    |Im k_s^2|)) >= |g|.  Every factor falls as a grows and gamma' grows by >= 2 pi a mode,
    so the side sums to this over 1 - e^{-2 pi D}; ``inf`` for a <= Re k_s.
    """
    ks2, kp2 = complex(medium.k_s**2), complex(medium.k_p**2)
    dk2, pref = abs(ks2 - kp2), abs(_pref(medium))

    def bound(a, D):
        if D <= 0.0 or a * a <= ks2.real:
            return math.inf
        gp = math.sqrt(a * a - ks2.real)
        n = max(a, math.sqrt(gp * gp + abs(ks2.imag)))
        bracket = dk2 * (n * D + 1.0) / (gp + math.sqrt(a * a - kp2.real)) + abs(ks2) / gp
        return pref * math.exp(-gp * D) * bracket / -math.expm1(-2 * math.pi * D)
    return bound


def green2d_eval_batch(medium: ElasticMedium, q: QuasiMomentum, X, y,
                       tol: float = DEFAULT_TOL):
    """Vectorized evaluation at points ``X`` (n, 2) for one source ``y``.

    Returns ``(values, tails, n_modes)`` with values (n, 2, 2), tails <= tol.
    One mode window serves the whole call, sized from the smallest |x2 - y2|,
    so one close point makes every point pay for its modes; callers with mixed
    gaps should batch by gap.  :func:`_mode_sum` sums the modes, with its
    expm1 once per distinct |x2 - y2|.
    """
    X, y = points(X, y, 2)
    t1 = X[:, 0] - y[0]
    d = X[:, 1] - y[1]
    D = np.abs(d)
    if np.min(D) < GAP_MIN:
        raise NearSourceLine(f"|x2 - y2| = {np.min(D):.3e} below green2d.GAP_MIN = {GAP_MIN:g}")
    modes, tail = series_window(medium, q, float(np.min(D)), tol, _tail_bound(medium))
    return _mode_sum(medium, modes, t1, d), per_key(D, tail), len(modes.m)


def green2d_eval(medium: ElasticMedium, q: QuasiMomentum, x, y,
                 tol: float = DEFAULT_TOL) -> GreenEval:
    """Spectral series value of the quasi-periodic tensor at one point pair.

    Requires ``|x2 - y2| >= GAP_MIN`` (NearSourceLine otherwise); the
    reported ``tail_bound`` <= tol rigorously bounds the omitted modes in max-norm.
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


@lru_cache(maxsize=16)
def _far_modes(medium: ElasticMedium, alpha: float) -> ModeTable:
    """The modes that pairs beyond NEAR_GAP sum, one table per (medium, alpha)
    for every :class:`QPSources` of it, as the kernel table is kept."""
    q = QuasiMomentum("qp2d", alpha)
    return ModeTable.of(medium, q, mode_window(medium, q, NEAR_GAP, _FAR_TOL))


class QPSources:
    """The quasi-periodic tensor applied from fixed sources Y (N, 2).

    ``modes`` is the :class:`ModeTable` of the window that gap NEAR_GAP
    needs, kept per (medium, alpha).  :meth:`apply` sums G(x - Y_n) c_n and
    :meth:`green` gives G at separations, by the rule of the module
    docstring.  ``table``, the :class:`RemainderTable` of (medium, alpha)
    that :func:`remainder_table` keeps for every caller, is looked up when a
    pair first falls within NEAR_GAP.

    Pairs beyond NEAR_GAP take :func:`_mode_sum` over ``modes``.  Targets
    more than NEAR_GAP above ``crest`` = max y2 sum the rank-one terms of
    the module docstring in Rayleigh form: the source factors
    e^{-i alpha_l y1 + i beta_l (crest - y2)} (resp. gamma_l), built when a
    target first lies above the crest, are at most 1 in modulus; the charges
    then collapse into two coefficients per mode, and each target costs
    O(modes).  Targets more than NEAR_GAP below ``trough`` = min y2 take the
    mirror: sgn(d) = -1 in the polarisations, (alpha_l, -beta_l) and
    (gamma_l, alpha_l), and source factors e^{-i alpha_l y1 + i beta_l
    (y2 - trough)}, again at most 1.  :meth:`rayleigh_coeffs` gives the
    coefficients above, by the same expression, for any set of modes.
    Raises WoodAnomaly when a mode of that window sits at a cut-off, since
    the terms divide by beta_l and gamma_l, and ValueError when a source is
    not of length 2.
    """

    def __init__(self, medium: ElasticMedium, q: QuasiMomentum, Y):
        self.medium, self.q = medium, q
        self.Y = point_rows(Y, 2)
        self.modes = _far_modes(medium, float(q.alpha))
        self.crest = float(np.max(self.Y[:, 1]))
        self.trough = float(np.min(self.Y[:, 1]))

    @cached_property
    def table(self) -> RemainderTable:
        return remainder_table(self.medium, self.q.alpha)

    @cached_property
    def _rayleigh_factors(self):
        """The source factors src_p, src_s (N, K) of the window, referenced to the crest."""
        return self._source_factors(self.modes, self.crest, 1.0)

    @cached_property
    def _trough_factors(self):
        """The same for targets below the sources, referenced to the trough."""
        return self._source_factors(self.modes, self.trough, -1.0)

    def _source_factors(self, modes: ModeTable, ref, side):
        """e^{-i alpha_l y1 + i beta_l side (ref - y2)} and the same with gamma_l
        at every source, each (N, K), for the K modes of ``modes``: side = 1
        for targets above the sources, -1 for targets below."""
        y1, n = _period(-self.Y[:, 0])
        rise = (side * (ref - self.Y[:, 1]))[:, None]
        phase = self.q.alpha * n + y1 * modes.alpha_l
        return (np.exp(1j * (phase + rise * modes.beta_l)),
                np.exp(1j * (phase + rise * modes.gamma_l)))

    @staticmethod
    def _polarisations(modes: ModeTable, side):
        """(alpha_l, side beta_l) and (gamma_l, -side alpha_l), each (K, 2)."""
        a, b, g = modes.alpha_l, modes.beta_l, modes.gamma_l
        return np.stack([a, side * b], axis=-1), np.stack([g, -side * a], axis=-1)

    def _amplitudes(self, charges, modes: ModeTable, factors, pols):
        """The amplitudes (A_p, A_s), each (K,), of the K modes of ``modes`` in the
        field of ``charges`` (N, 2) on one side of every source:

            A_p(l) = (pref/beta_l) sum_n src_p[n, l] p_l.c_n,

        A_s the same with gamma_l, src_s and s_l, for ``pols`` = (p, s) of
        :meth:`_polarisations` and ``factors`` = (src_p, src_s) of
        :meth:`_source_factors` on that side; the field is then
        sum_l A_p(l) p_l e^{i(alpha_l x1 + beta_l side (x2 - ref))} plus the s terms."""
        (src_p, src_s), (pv, sv) = factors, pols
        pref = _pref(self.medium)
        return (pref / modes.beta_l * np.sum((src_p.T @ charges) * pv, axis=1),
                pref / modes.gamma_l * np.sum((src_s.T @ charges) * sv, axis=1))

    def rayleigh_coeffs(self, charges, modes: ModeTable):
        """Rayleigh coefficients (u_p, u_s), each (M,), of sum_n G(x - Y_n) charges_n
        for the M modes of ``modes``, referenced to x2 = 0 as
        :func:`~qpelastic.rayleigh.eval_rayleigh_2d` takes them.  Above the
        crest the field is their expansion.  The modes need not lie in the
        window that :meth:`apply` sums above the crest: their source factors
        are formed here, one exponential per source and mode.
        """
        return self._amplitudes(charges, modes, self._source_factors(modes, 0.0, 1.0),
                               self._polarisations(modes, 1.0))

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
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        near = np.abs(d) <= NEAR_GAP
        if not near.any():
            return _mode_sum(self.medium, self.modes, tau, d, want_jet)
        if near.all():   # all in the table's cell, as in an assembly: no copies
            return self.table.green(tau, d, want_jet)
        out = [np.empty((len(tau), 2, 2), dtype=complex) for _ in range(3 if want_jet else 1)]
        _scatter(out, near, self.table.green(tau[near], d[near], want_jet))
        _scatter(out, ~near, _mode_sum(self.medium, self.modes, tau[~near], d[~near], want_jet))
        return tuple(out) if want_jet else out[0]

    def apply(self, charges, X, want_jet: bool = False):
        """sum_n G(x - Y_n) charges_n at targets X (P, 2).

        ``charges`` is (N, 2), or a block (N, 2, k) of k charge vectors per
        source applied at once.  Returns (P, 2) (resp. (P, 2, k)), or a
        (value, d/dx1, d/dx2) tuple of such arrays when ``want_jet``.  Raises
        CoincidentPoints when a target lies on a source or one of its lattice
        images, |(tau, d)| < COINCIDENT_TOL, TableUnresolved when a pair
        within NEAR_GAP needs a table that cannot be resolved, and ValueError
        when a target is not of length 2.
        """
        X = point_rows(X, 2)
        charges = np.asarray(charges)
        cols = [charges] if charges.ndim == 2 else \
            [np.ascontiguousarray(c) for c in np.moveaxis(charges, -1, 0)]
        out = [np.empty((len(X), 2, len(cols)), dtype=complex) for _ in range(3 if want_jet else 1)]
        above = X[:, 1] - self.crest > NEAR_GAP
        below = self.trough - X[:, 1] > NEAR_GAP
        for side, part in ((1.0, above), (-1.0, below)):
            if np.any(part):
                _scatter(out, part, self._rayleigh(cols, X[part], want_jet, side))
        rest = ~(above | below)
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

    def _rayleigh(self, cols, X, want_jet, side):
        """(value,) or (value, d/dx1, d/dx2), each (P, 2, k), at targets more
        than NEAR_GAP above the crest (``side`` = 1) or below the trough
        (``side`` = -1), for the k charge arrays ``cols``."""
        a, b, g = self.modes.alpha_l, self.modes.beta_l, self.modes.gamma_l
        pv, sv = self._polarisations(self.modes, side)
        ref, factors = (self.crest, self._rayleigh_factors) if side > 0 else \
            (self.trough, self._trough_factors)
        x1, n = _period(X[:, 0])
        h = (side * (X[:, 1] - ref))[:, None]
        ep = np.exp(1j * (self.q.alpha * n + x1 * a + h * b))
        es = np.exp(1j * (self.q.alpha * n + x1 * a + h * g))
        out = tuple(np.empty((len(X), 2, len(cols)), dtype=complex)
                    for _ in range(3 if want_jet else 1))
        for c, charges in enumerate(cols):
            amp_p, amp_s = self._amplitudes(charges, self.modes, factors, (pv, sv))
            fp, fs = ep * amp_p, es * amp_s
            out[0][..., c] = fp @ pv + fs @ sv
            if want_jet:
                out[1][..., c] = (1j * a * fp) @ pv + (1j * a * fs) @ sv
                out[2][..., c] = side * ((1j * b * fp) @ pv + (1j * g * fs) @ sv)
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

    def tau_sums(self, tau, want_jet: bool = False):
        """The table summed over its tau degrees at each of the separations
        ``tau`` along x1, sum_j c_jk T_j(2 tau): a list of (len(tau), m, 6)
        real arrays, the (re, im) pairs of T_11, T_22 and T_12 for each degree
        k in d, of T and, when ``want_jet``, of dT/dtau and dT/dd.  A real basis
        times complex coefficients, as real products.  :func:`_read_table`
        reads them at the pairs' gaps; the pairs of one BEM node offset share
        their tau, and with it these sums."""
        tau = np.asarray(tau, dtype=float)
        coefs = (self.coef,) + (_unless_refused(self._derivative_coef) if want_jet else ())
        return [(chebvander(2.0 * tau, len(c) - 1) @ c.reshape(len(c), -1).view(float))
                .reshape(len(tau), c.shape[1], 6) for c in coefs]

    def remainder(self, tau, d, want_jet: bool = False):
        """T at scattered separations inside the table's cell; (P, 2, 2), or
        the (T, dT/dtau, dT/dd) tuple when ``want_jet``.

        The tau sums are formed once per distinct tau, gathered to the pairs
        only when some pairs share a tau, and read by :func:`_read_table`, as
        the pairs of a BEM matrix are."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        tau_u, inv = np.unique(tau, return_inverse=True)
        if len(tau_u) == len(tau):
            tau_u, inv = tau, slice(None)
        out = [t[:, 0] for t in _read_table(self.tau_sums(tau_u, want_jet), d[:, None], inv)]
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


def _read_table(sums, d, inv=slice(None)):
    """T, or the jet (T, dT/dtau, dT/dd), at the pairs (tau_c, d[c, p]) inside
    the table's cell, from the sums of :meth:`RemainderTable.tau_sums` at
    separations tau, tau_c = tau[inv[c]], and gaps d (C, P): a list of
    (C, P, 2, 2) complex, one per array of sums.

    T_11 and T_22 are even in d and T_12 odd, so the diagonal's degree k is
    that of T_2k(d / NEAR_GAP) and T_12's that of T_{2k+1}; dT/dd swaps the
    two.  The Chebyshev basis in d is built once as (2m, C, P), so that each
    array is read by two batched ``matmul``s on strided operands,
    (C, 4, m) @ (C, m, P) for the diagonal and (C, 2, m) @ (C, m, P) for
    T_12.  The arrays are gathered to the rows of d one at a time."""
    x = d / NEAR_GAP
    x2 = 2.0 * x
    basis = np.empty((2 * max(v.shape[1] for v in sums),) + x.shape)
    basis[0] = 1.0
    basis[1] = x
    for k in range(2, len(basis)):   # T_k = 2 x T_{k-1} - T_{k-2}
        np.multiply(x2, basis[k - 1], out=basis[k])
        basis[k] -= basis[k - 2]
    basis = basis.transpose(1, 0, 2)
    out = []
    for flip, v in zip((0, 0, 1), sums):
        m, vt = v.shape[1], v[inv].transpose(0, 2, 1)
        s = np.empty((len(x), 6, x.shape[1]))
        np.matmul(vt[:, :4], basis[:, flip:2 * m:2], out=s[:, :4])
        np.matmul(vt[:, 4:], basis[:, 1 - flip:2 * m:2], out=s[:, 4:])
        del vt   # the gathered copy, before the next array's
        T = np.empty(x.shape + (2, 2), dtype=complex)
        for e, (a, b) in enumerate(((0, 0), (1, 1), (0, 1))):
            T[..., a, b].real = s[:, 2 * e]
            T[..., a, b].imag = s[:, 2 * e + 1]
        T[..., 1, 0] = T[..., 0, 1]
        out.append(T)
    return out


def _fit_remainder(medium, alpha, n_tau, n_d, derivatives: bool = False):
    """Coefficients (n_tau, n_d // 2, 3) of T from plain-series values at
    first-kind nodes.

    With ``derivatives`` returns those of (dT/dtau, dT/dd) instead, each
    fitted to the series' own values of that derivative plus grad S/(2 pi).
    dT/dd is odd in d where T is even, so its array holds the degrees 2k + 1
    of the diagonal entries and the degrees 2k of T_12.

    Every node of one row d_k > 0 shares the window of gap d_k, so each row
    is one :func:`_mode_sum` over it, whose jet gives the derivative rows.
    """
    q = QuasiMomentum("qp2d", alpha)
    x = _cheb_nodes(n_tau)
    y = _cheb_nodes(n_d)[: n_d // 2]   # the nodes with d > 0
    G = np.empty((2 if derivatives else 1, n_tau, len(y), 2, 2), dtype=complex)
    for k, dk in enumerate(NEAR_GAP * y):
        modes = ModeTable.of(medium, q, mode_window(medium, q, dk, _FAR_TOL))
        rows = _mode_sum(medium, modes, 0.5 * x, np.full(n_tau, dk), derivatives,
                         value=not derivatives)
        for g, row in zip(G, rows if derivatives else (rows,)):
            g[:, k] = row
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
