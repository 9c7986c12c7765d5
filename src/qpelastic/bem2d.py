"""Forward solver for the 2D rigid-grating Dirichlet problem.

Single-layer representation with the quasi-periodic kernel,

    u_sc(x) = int_Gamma G(x, y) psi(y) ds(y),      u_sc = -u_inc on Gamma,

discretized by Nystrom collocation at N uniform parameter nodes.  The kernel
splits as ``A(t,s) ln(4 sin^2(pi (t-s))) + B(t,s)`` with both factors smooth
and 1-periodic: A carries the logarithmic singularity of the local
free-space copy (windowed away from the seam |t-s| = 1/2), and B is the
kernel minus that part.  The log factor is integrated with the spectrally
accurate product-trapezoid rule for log kernels, the smooth factor with the
plain trapezoid rule.  ``_kernel_split`` returns the quadrature matrix
M = W o A + B/N itself, W the log weights at each row, in the (2 rows, 2N)
layout that the LU factorisation and the residual's one matrix-vector
product use; neither A nor B is held.  The factors that depend on tau alone
are formed once per distinct tau, of which a node matrix has N.

Each system keeps one :class:`~qpelastic.green2d.QPSources` at its nodes.
A pair within NEAR_GAP reads T = G + S/(2 pi) from the sources' kernel
table, where S = a(r) ln r + kappa rhat rhat^T is the singular part of the
free-space tensor; B takes T plus closed-form logarithms of the log
coefficient a that A needs anyway, so no pair evaluates a Hankel function,
and the on-diagonal finite part is T(0, 0) plus known logarithms.  A pair
beyond NEAR_GAP takes G from ``QPSources.green``, by the one evaluator rule
of :mod:`qpelastic.green2d`.  Incident point sources and the scattered field,
values and gradients alike, are one ``QPSources.apply`` from a source set.
There is one table per (medium, alpha), which the system and its
point-source incidences share.  A target on a point source or one of its
lattice images raises CoincidentPoints.  A solution's Rayleigh coefficients
are a closed form in its density (:meth:`ScatterSolution.rayleigh`), by the
expression with which the field above the crest is summed.

First-kind formulation by design: spurious interior resonances are detected
through a condition estimate, not cured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from .errors import CoincidentPoints, ResonanceSuspected, TooCloseToBoundary
from .green2d import _CHUNK, NEAR_GAP, QPSources, _iso, _kappa, _log_coeff
from .green_free import COINCIDENT_TOL
from .medium import ElasticMedium, ModeTable, QuasiMomentum
from .rayleigh import RayleighCoeffs2

COND_LIMIT = 1e12
EVAL_CLEARANCE_FACTOR = 10.0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileCurve2:
    """Grating profile x2 = f(x1), period 1, as a truncated Fourier series.

    f(t) = height + sum_k cos_coeffs[k-1] cos(2 pi k t) + sin_coeffs[k-1] sin(2 pi k t)
    """

    height: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def _terms(self):
        kmax = max(len(self.cos_coeffs), len(self.sin_coeffs))
        a = np.zeros(kmax)
        b = np.zeros(kmax)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        return np.arange(1, kmax + 1), a, b

    def f(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.height)
        if max(len(self.cos_coeffs), len(self.sin_coeffs)) == 0:
            return out
        k, a, b = self._terms()
        ang = 2 * np.pi * np.multiply.outer(t, k)
        return out + np.cos(ang) @ a + np.sin(ang) @ b

    def df(self, t):
        t = np.asarray(t, dtype=float)
        if max(len(self.cos_coeffs), len(self.sin_coeffs)) == 0:
            return np.zeros_like(t)
        k, a, b = self._terms()
        ang = 2 * np.pi * np.multiply.outer(t, k)
        return -np.sin(ang) @ (2 * np.pi * k * a) + np.cos(ang) @ (2 * np.pi * k * b)

    @property
    def max_height(self):
        return self.height + float(np.sum(np.abs(self.cos_coeffs)) + np.sum(np.abs(self.sin_coeffs)))


# ---------------------------------------------------------------------------
# incident fields
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IncidentField:
    """Plane p/s wave or phased point source.

    ``direction`` is the (unit, downward) propagation direction for plane
    waves; ``source``/``polarization`` describe a point source whose field is
    the quasi-periodic tensor applied to the polarization vector.
    """

    kind: str
    direction: tuple | None = None
    source: tuple | None = None
    polarization: tuple | None = None

    def eval(self, medium: ElasticMedium, q: QuasiMomentum, X):
        """u at points X (n, 2); (n, 2) complex.

        A point source raises CoincidentPoints at its own position and at
        its lattice images.
        """
        if self.kind == "point_source":
            return self._point_source(medium, q, X, False)
        return self.jet(medium, q, X)[0]

    def jet(self, medium: ElasticMedium, q: QuasiMomentum, X):
        """(u, du/dx1, du/dx2) at points X (n, 2); each (n, 2) complex."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "plane_p":
            d = np.asarray(self.direction, dtype=float)
            pol = d
            k = np.real(medium.k_p)
        elif self.kind == "plane_s":
            d = np.asarray(self.direction, dtype=float)
            pol = np.array([-d[1], d[0]])
            k = np.real(medium.k_s)
        elif self.kind == "point_source":
            return self._point_source(medium, q, X, True)
        else:
            raise ValueError(f"unknown incident kind {self.kind!r}")
        ph = np.exp(1j * k * (X @ d))
        u = pol[None, :] * ph[:, None]
        return u, 1j * k * d[0] * u, 1j * k * d[1] * u

    def _point_source(self, medium, q, X, want_jet):
        """The tensor applied from the one source to the polarization vector."""
        return QPSources(medium, q, [self.source]).apply(
            np.asarray([self.polarization], dtype=complex), X, want_jet)


def plane_incidence(medium: ElasticMedium, kind: str, theta: float):
    """Downward plane wave at incidence angle theta; returns (field, momentum).

    ``theta`` is measured from the downward vertical, so the direction is
    ``(sin theta, -cos theta)`` and the matching quasi-momentum is
    ``k sin(theta)``.
    """
    d = (np.sin(theta), -np.cos(theta))
    k = np.real(medium.k_p) if kind == "plane_p" else np.real(medium.k_s)
    from .medium import make_quasi_momentum

    q = make_quasi_momentum("qp2d", k * d[0], medium)
    return IncidentField(kind, direction=d), q


def point_source_incidence(z, polarization):
    return IncidentField("point_source", source=tuple(z), polarization=tuple(polarization))


# ---------------------------------------------------------------------------
# traction
# ---------------------------------------------------------------------------
def traction(medium: ElasticMedium, u, grad, nu):
    """Surface traction 2 mu d_nu u + lam nu (div u) - mu tau (curl u).

    ``grad[..., i, j] = d_j u_i``; ``tau`` is ``nu`` rotated by +90 degrees,
    which makes the formula the physical stress vector sigma.nu.
    """
    u = np.asarray(u)
    grad = np.asarray(grad)
    nu = np.asarray(nu, dtype=float)
    tau = np.stack([-nu[..., 1], nu[..., 0]], axis=-1)
    div = grad[..., 0, 0] + grad[..., 1, 1]
    curl = grad[..., 1, 0] - grad[..., 0, 1]
    dnu = np.einsum("...ij,...j->...i", grad, nu)
    return 2 * medium.mu * dnu + medium.lam * div[..., None] * nu \
        - medium.mu * curl[..., None] * tau


# ---------------------------------------------------------------------------
# kernel split machinery
# ---------------------------------------------------------------------------
def _chi(tau):
    """C-inf window: 1 for |tau| <= 0.25, 0 for |tau| >= 0.4."""
    u = (np.abs(tau) - 0.25) / 0.15
    out = np.ones_like(u)
    out[u >= 1.0] = 0.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    h1 = np.exp(-1.0 / (1.0 - um))
    h0 = np.exp(-1.0 / um)
    out[mid] = h1 / (h1 + h0)
    return out


def log_quadrature_weights_off_node(t, N: int) -> np.ndarray:
    """Weights R_j(t_c) at every point of ``t`` for the N uniform nodes j/N.

    Product-trapezoid rule for the periodic log kernel ln(4 sin^2(pi(t-s))):
    sum_j R_j(t) e^{2 pi i m j/N} = -e^{2 pi i m t}/|m| (0 at m = 0), exact for
    trigonometric polynomials of degree < N/2.  Each row is one FFT over j:
    R_j(t) = Re sum_{m=1}^{N/2} c_m e^{2 pi i m (t - j/N)} with c_m = -2/(N m),
    halved at m = N/2.  Returns (len(t), N).  On the nodes the rule is the
    circulant of the t = 0 row, R_j(i/N) = R_{j-i}(0).
    """
    m = np.arange(1, N // 2 + 1)
    c = -(2.0 / N) / m
    c[-1] /= 2.0
    coef = np.zeros((len(t), N), dtype=complex)
    coef[:, 1:N // 2 + 1] = c * np.exp(2j * np.pi * np.outer(t, m))
    return np.fft.fft(coef, axis=1).real.copy()   # frees the complex transform


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScatterSolution:
    """Nystrom solution: density at the nodes plus cached geometry."""

    medium: ElasticMedium
    q: QuasiMomentum
    profile: ProfileCurve2
    incident: IncidentField
    N: int
    points: np.ndarray        # (N, 2) on-curve points
    jacobian: np.ndarray      # (N,)
    density: np.ndarray       # (N, 2) complex
    cond_estimate: float
    sources: QPSources        # the nodes, with the system's kernel table

    @property
    def arc_length(self) -> float:
        return float(np.mean(self.jacobian))

    def rayleigh(self, m_modes: int) -> RayleighCoeffs2:
        """Rayleigh coefficients of the scattered field for the modes |m| <= m_modes.

        A closed form in the density: with c_n = psi_n jac_n / N at the nodes
        y_n and pref = (i/4 pi)(lam + mu)/(mu (lam + 2 mu)(k_p^2 - k_s^2)),

            u_p(l) = (pref/beta_l) sum_n e^{-i(alpha_l y1_n + beta_l y2_n)} (alpha_l, beta_l).c_n,

        and u_s(l) the same with gamma_l and (gamma_l, -alpha_l), referenced to
        x2 = 0 as :func:`~qpelastic.rayleigh.eval_rayleigh_2d` takes them; the
        expansion holds above the crest.  It is the expression by which
        :func:`eval_scattered` sums the field there.  Raises WoodAnomaly when a
        mode sits at a cut-off.  Unlike
        :func:`~qpelastic.rayleigh.extract_coeffs_2d` it samples no field and
        solves no 2x2 system per mode, so it raises no DegenerateModeBasis
        and divides by no e^{i gamma_l h}.
        """
        modes = ModeTable.of(self.medium, self.q, np.arange(-m_modes, m_modes + 1))
        u_p, u_s = self.sources.rayleigh_coeffs(
            self.density * (self.jacobian / self.N)[:, None], modes)
        return RayleighCoeffs2(tuple(modes.rows()), u_p, u_s)


def _geometry(profile: ProfileCurve2, t):
    """Points (n, 2), jacobians (n,) and unit tangents (n, 2) of the curve at ``t``."""
    fp = profile.df(t)
    jac = np.sqrt(1.0 + fp * fp)
    pts = np.stack([t, profile.f(t)], axis=-1)
    that = np.stack([np.ones_like(fp), fp], axis=-1) / jac[:, None]
    return pts, jac, that


def _kernel_split(sources: QPSources, pts_rows, jac_cols, log_weights, that_rows=None):
    """The quadrature matrix M = W o A + B/N of the single-layer operator.

    Rows are collocation points (may be off-node), columns the N quadrature
    nodes ``sources.Y``, which lie at x1 = t.  ``log_weights`` (rows, N) holds
    the product-trapezoid weights W of the log factor at each row: the
    circulant of the t = 0 row of ``log_quadrature_weights_off_node`` on the
    nodes, that function's rows elsewhere.  ``that_rows`` gives the
    unit tangents of rows that coincide with the columns (the on-node case);
    pass None when the row set avoids all columns.  Returns the
    (2 rows, 2 N) complex matrix whose entry (2c + a, 2n + b) is M[c, n]_ab,
    so that M @ psi.ravel() applies the operator to a density psi (N, 2).

    The kernel splits as A(t, s) L + B(t, s) with L = ln(4 sin^2(pi tau)),
    which is ln(4 sin^2(pi (t - s))).  With a = a_I I + a_rr rhat rhat^T the
    log coefficient of the free-space tensor
    (:func:`~qpelastic.green2d._log_coeff`) and w = phase * jac,

        A = -chi w a / (4 pi),
        B = w [T + a (chi L - ln r^2)/(4 pi) - kappa rhat rhat^T/(2 pi)]   (|d| <= NEAR_GAP),
        B = w [G + a chi L / (4 pi)]                                       (beyond),

    with T = G + S/(2 pi) from the sources' kernel table, so no pair
    evaluates the free-space tensor.  No A or B is held: each entry is
    formed at once as

        M = w/N [T + a (chi (L - N W) - ln r^2)/(4 pi) - kappa rhat rhat^T/(2 pi)]   (near),
        M = w/N [G + a chi (L - N W) / (4 pi)]                                       (beyond),

    with chi(tau) and L formed once per distinct tau.  On the diagonal the
    limit along the tangent is M = jac core / N - a(0) jac W_ii / (4 pi) I,
    core = T(0, 0) - (a(0) ln(jac/2 pi) + kappa that that^T)/(2 pi).
    Rows go in blocks of about ``_CHUNK`` pairs, so no temporary is full-size.
    Raises CoincidentPoints when a row lies on a column off the diagonal.
    """
    medium = sources.medium
    nr, nc = len(pts_rows), len(sources.Y)
    M = np.empty((nr, 2, nc, 2), dtype=complex)
    kappa = _kappa(medium)
    step = max(1, _CHUNK // nc)
    for i in range(0, nr, step):
        rows = slice(i, i + step)
        tau, phase, d = sources.wrap(pts_rows[rows])
        r = np.hypot(tau, d)
        diag = np.arange(i, i + len(r))[:, None] == np.arange(nc) if that_rows is not None \
            else np.zeros(r.shape, dtype=bool)
        sep = np.min(r[~diag], initial=np.inf)
        if sep < COINCIDENT_TOL:
            raise CoincidentPoints(f"collocation point {sep:.3e} from a node or its lattice image")
        # the table's temporaries are the largest: read it before the others exist
        near = np.abs(d) <= NEAR_GAP
        K = np.empty(r.shape + (2, 2), dtype=complex)
        if near.any():
            K[near] = sources.table.remainder(tau[near], d[near])
        if not near.all():
            K[~near] = sources.green(tau[~near], d[~near])

        u1 = np.divide(tau, r, out=np.zeros_like(r), where=~diag)
        u2 = np.divide(d, r, out=np.zeros_like(r), where=~diag)
        a_i, a_rr = _log_coeff(medium, r)
        tau_u, inv = np.unique(tau, return_inverse=True)
        inv = inv.reshape(tau.shape)
        with np.errstate(divide="ignore", invalid="ignore"):   # the diagonal, set below
            log_sin = np.log(4.0 * np.sin(np.pi * tau_u) ** 2)[inv]
            log_w = (_chi(tau_u)[inv] * (log_sin - nc * log_weights[rows])
                     - np.where(near, np.log(r * r), 0.0)) / (4 * np.pi)
            K += _iso(a_i * log_w, a_rr * log_w - np.where(near, kappa / (2 * np.pi), 0.0),
                      u1, u2)
        np.multiply(K, (phase * (jac_cols / nc))[..., None, None],
                    out=M[rows].transpose(0, 2, 1, 3))

    if that_rows is not None:
        t00 = sources.table.remainder(0.0, 0.0)[0]
        a0 = _log_coeff(medium, np.zeros(1))[0][0]
        ji = jac_cols[:nr, None, None]
        tt = that_rows[:, :, None] * that_rows[:, None, :]
        core = t00 - (a0 * np.log(ji / (2 * np.pi)) * np.eye(2) + kappa * tt) / (2 * np.pi)
        on = np.arange(nr)
        w_ii = log_weights[on, on][:, None, None]
        M[on, :, on, :] = ji * core / nc - (a0 / (4 * np.pi)) * ji * w_ii * np.eye(2)
    return M.reshape(2 * nr, 2 * nc)


def _build_system(medium: ElasticMedium, q: QuasiMomentum, profile: ProfileCurve2, N: int):
    if N < 32 or (N & (N - 1)) != 0:
        raise ValueError("N must be a power of two >= 32")
    t = np.arange(N) / N
    pts, jac, that = _geometry(profile, t)

    sources = QPSources(medium, q, pts)
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    w = log_quadrature_weights_off_node(np.zeros(1), N)[0]
    M = _kernel_split(sources, pts, jac, w[idx], that_rows=that)

    lu, piv = lu_factor(M)
    anorm = np.linalg.norm(M, 1)
    rcond = lapack.zgecon(lu, anorm)[0]
    cond = 1.0 / max(rcond, 1e-300)
    if cond > COND_LIMIT:
        raise ResonanceSuspected(cond, COND_LIMIT, N, medium.omega)
    return dict(pts=pts, jac=jac, lu=(lu, piv), cond=cond, sources=sources)


def solve_dirichlet(medium: ElasticMedium, q: QuasiMomentum, profile: ProfileCurve2,
                    incident: IncidentField, N: int = 128) -> ScatterSolution:
    """Solve the rigid-boundary problem by first-kind Nystrom collocation.

    ``N`` must be a power of two >= 32.  Raises ResonanceSuspected when the
    estimated condition number of the single-layer system exceeds
    ``COND_LIMIT`` (1e12).
    """
    return solve_dirichlet_multi(medium, q, profile, [incident], N)[0]


def solve_dirichlet_multi(medium: ElasticMedium, q: QuasiMomentum,
                          profile: ProfileCurve2, incidents, N: int = 128):
    """Solve one grating for several incident fields, factoring the matrix once."""
    for inc in incidents:
        if inc.kind in ("plane_p", "plane_s"):
            k = np.real(medium.k_p) if inc.kind == "plane_p" else np.real(medium.k_s)
            mismatch = (k * inc.direction[0] - q.alpha + np.pi) % (2 * np.pi) - np.pi
            if abs(mismatch) > 1e-10:
                raise ValueError(
                    f"incident wave momentum k*d1={k * inc.direction[0]:.6f} is not "
                    f"congruent to alpha={q.alpha:.6f} modulo 2 pi")
    sysd = _build_system(medium, q, profile, N)
    out = []
    for inc in incidents:
        rhs = -inc.eval(medium, q, sysd["pts"]).reshape(-1)
        psi = lu_solve(sysd["lu"], rhs).reshape(N, 2)
        out.append(ScatterSolution(medium, q, profile, inc, N, sysd["pts"], sysd["jac"],
                                   psi, sysd["cond"], sysd["sources"]))
    return out


def boundary_residual(sol: ScatterSolution) -> float:
    """Relative max-norm residual ||S psi + u_inc|| at 2N off-node boundary points."""
    N = sol.N
    tc = (np.arange(2 * N) + 0.37) / (2 * N)
    pc, jc, _ = _geometry(sol.profile, tc)
    Mat = _kernel_split(sol.sources, pc, sol.jacobian, log_quadrature_weights_off_node(tc, N))
    u_sc = (Mat @ sol.density.reshape(-1)).reshape(-1, 2)
    u_inc = sol.incident.eval(sol.medium, sol.q, pc)
    ref = float(np.max(np.abs(u_inc)))
    return float(np.max(np.abs(u_sc + u_inc))) / ref


def eval_scattered(sol: ScatterSolution, X, need_gradient: bool = False):
    """Scattered field (and gradient) at points X away from the boundary.

    Trapezoid quadrature of the representation, applied from the nodes by
    ``sol.sources``; requires a clearance of ``10 * arc_length / N`` from the
    periodized curve.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    clearance = EVAL_CLEARANCE_FACTOR * sol.arc_length / sol.N
    tau, _, d = sol.sources.wrap(X)
    if np.any(np.sqrt(tau**2 + d**2).min(axis=1) < clearance):
        raise TooCloseToBoundary(f"need distance >= {clearance:.3e} from the curve")
    out = sol.sources.apply(sol.density * (sol.jacobian / sol.N)[:, None], X, need_gradient)
    return (out[0], np.stack(out[1:], axis=-1)) if need_gradient else out
