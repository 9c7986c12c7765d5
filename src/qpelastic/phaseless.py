"""Phaseless-measurement harness over the grating solver.

Synthesizes the three magnitude fields of the superposed-point-source
measurement model (fixed source, movable source, superposition) on a
measurement line, certifies the cosine/Re-product identity that connects
two datasets, and runs numeric reciprocity checks at the point-source,
scattered-field, and total-field levels.

Every field here is the quasi-periodic tensor applied from a source set:
the point sources of a computation through one
:class:`~qpelastic.green2d.QPSources` over all of them, scattered fields
through the solution's sources at the nodes.  So the one evaluator rule of
:mod:`qpelastic.green2d` serves all of them, with one kernel table per
(medium, alpha) that every caller shares.  A synth evaluates its k
incidences as (P, 2, k) blocks: the incident fields in one ``apply`` of the
diagonal charge block, the scattered fields in one ``apply`` of the stacked
densities.  The point-source reciprocity level builds one set of sources
per quasi-momentum and takes every tensor from one ``apply`` of the
identity charge block.

Magnitudes are stored already phase-stripped; no phase survives the
synthesis boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bem2d import (ProfileCurve2, _incident_block, _scattered_block, eval_scattered,
                    point_source_incidence, solve_dirichlet_multi)
from .errors import ConfigError, GridMismatch
from .green2d import QPSources
from .medium import ElasticMedium, QuasiMomentum

COLINEAR_TOL = 1e-8
ZERO_TRACK_TOL = 1e-12


@dataclass(frozen=True)
class SourceConfig:
    """Measurement layout: one fixed source, movable sources on an arc, probes.

    ``z_tilde`` sits on the line Gamma_0; the movable sources sample an
    ellipse arc (center, semiaxes, angular range) playing the admissible
    curve Sigma; ``probes`` are the projection directions p_k and
    ``movable_pols`` the polarizations q_l of the movable source.
    The Dirichlet-eigenvalue condition on the interior of the arc is not
    verified; datasets record it as assumed.
    """

    z_tilde: tuple
    fixed_pol: tuple
    movable_pols: tuple
    probes: tuple
    sigma_center: tuple
    sigma_axes: tuple
    sigma_arc: tuple = (0.25 * np.pi, 0.75 * np.pi)
    n_sources: int = 3
    grid_x1: tuple = tuple(np.linspace(0.05, 0.95, 10))
    height: float = 1.0

    def movable_points(self):
        th = np.linspace(self.sigma_arc[0], self.sigma_arc[1], self.n_sources)
        cx, cy = self.sigma_center
        ex, ey = self.sigma_axes
        return np.stack([cx + ex * np.cos(th), cy + ey * np.sin(th)], axis=-1)

    def grid_points(self):
        x1 = np.asarray(self.grid_x1, dtype=float)
        return np.stack([x1, np.full_like(x1, self.height)], axis=-1)

    def validate(self, profile: ProfileCurve2):
        """Raise ConfigError (a ValueError) naming the offending field."""
        for name in ("movable_pols", "probes", "grid_x1"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(name, "must not be empty")
        for name, vecs in (("fixed_pol", [self.fixed_pol]),
                           ("movable_pols", self.movable_pols),
                           ("probes", self.probes)):
            for v in vecs:
                if abs(np.hypot(*v) - 1.0) > 1e-10:
                    raise ConfigError(name, f"entries must be unit vectors, got {v}")
        for i in range(len(self.probes)):
            for j in range(i + 1, len(self.probes)):
                cross = self.probes[i][0] * self.probes[j][1] \
                    - self.probes[i][1] * self.probes[j][0]
                if abs(cross) < COLINEAR_TOL:
                    raise ConfigError("probes", f"probes {i} and {j} are colinear")
        zs = self.movable_points()
        fmax = profile.max_height
        if not fmax < self.z_tilde[1]:
            raise ConfigError("z_tilde", "fixed source must sit above the profile")
        if not self.z_tilde[1] < float(np.min(zs[:, 1])):
            raise ConfigError("sigma_center", "movable sources must sit above the fixed source")
        if not float(np.max(zs[:, 1])) < self.height:
            raise ConfigError("height", "movable sources must sit below the measurement line")


@dataclass(frozen=True)
class PhaselessDataset:
    """The three magnitude arrays of the measurement model.

    ``r`` has shape (K, nx): |p_k . u_tot(x, z_tilde, q)|.
    ``s`` has shape (K, L, J, nx): |p_k . u_tot(x, z_j, q_l)|.
    ``b`` has shape (K, L, J, nx): the superposition magnitudes.
    """

    grid_x1: np.ndarray
    height: float
    r: np.ndarray
    s: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def same_grid(self, other: "PhaselessDataset") -> bool:
        return (self.r.shape == other.r.shape and self.s.shape == other.s.shape
                and self.height == other.height
                and np.array_equal(self.grid_x1, other.grid_x1))


def incident_superposition(medium: ElasticMedium, q: QuasiMomentum,
                           cfg: SourceConfig, X, which="both", j: int = 0,
                           l: int = 0) -> np.ndarray:
    """Incident field of the fixed source, one movable source, or their sum (one
    ``apply`` from both sources)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if which not in ("fixed", "movable", "both"):
        raise ValueError(f"unknown selector {which!r}")
    sources, pols = [], []
    if which != "movable":
        sources.append(cfg.z_tilde)
        pols.append(cfg.fixed_pol)
    if which != "fixed":
        sources.append(cfg.movable_points()[j])
        pols.append(cfg.movable_pols[l])
    return QPSources(medium, q, sources).apply(np.asarray(pols, dtype=complex), X)


def synth_phaseless(medium: ElasticMedium, q: QuasiMomentum, profile: ProfileCurve2,
                    cfg: SourceConfig, N: int = 128) -> PhaselessDataset:
    """Total fields for every incidence via the grating solver; magnitudes only.

    One matrix factorization serves all incidences; the superposition field
    is the sum of the two single-source totals (linearity of the problem).
    """
    cfg.validate(profile)
    X = cfg.grid_points()
    zs = cfg.movable_points()
    incidents = [point_source_incidence(cfg.z_tilde, cfg.fixed_pol)]
    for l in range(len(cfg.movable_pols)):
        for j in range(len(zs)):
            incidents.append(point_source_incidence(zs[j], cfg.movable_pols[l]))
    sols = solve_dirichlet_multi(medium, q, profile, incidents, N)
    # every incidence's total field in two block evaluations: the incident
    # fields from one set of sources, the scattered ones from the nodes
    totals = _incident_block(incidents, medium, q, X) + _scattered_block(
        sols[0], np.stack([sol.density for sol in sols], axis=-1), X)
    fields = np.moveaxis(totals, -1, 0)

    probes = np.asarray(cfg.probes, dtype=float)  # (K, 2)
    u_fixed = fields[0]
    K = len(probes)
    L, J, nx = len(cfg.movable_pols), len(zs), X.shape[0]
    r = np.abs(u_fixed @ probes.T).T  # (K, nx)
    s = np.empty((K, L, J, nx))
    b = np.empty((K, L, J, nx))
    for l in range(L):
        for j in range(J):
            u = fields[1 + l * J + j]
            s[:, l, j] = np.abs(u @ probes.T).T
            b[:, l, j] = np.abs((u_fixed + u) @ probes.T).T
    meta = {
        "eigenvalue_condition": "assumed",
        "N": N,
        "alpha": q.alpha,
        "omega": float(np.real(medium.omega)),
    }
    return PhaselessDataset(np.asarray(cfg.grid_x1, float), cfg.height, r, s, b, meta)


def re_products(ds: PhaselessDataset) -> np.ndarray:
    """Re(p.u1 conj(p.u2)) per track via the polarization identity
    (|a+b|^2 - |a|^2 - |b|^2)/2; shape (K, L, J, nx)."""
    return 0.5 * (ds.b**2 - ds.r[:, None, None, :] ** 2 - ds.s**2)


def cosine_identity(ds1: PhaselessDataset, ds2: PhaselessDataset) -> float:
    """Max discrepancy of the Re-product fields of two datasets."""
    if not ds1.same_grid(ds2):
        raise GridMismatch("datasets sampled on different grids")
    return float(np.max(np.abs(re_products(ds1) - re_products(ds2))))


def dataset_gap(ds1: PhaselessDataset, ds2: PhaselessDataset) -> float:
    """Largest entrywise magnitude difference between two datasets."""
    if not ds1.same_grid(ds2):
        raise GridMismatch("datasets sampled on different grids")
    return float(max(np.max(np.abs(ds1.r - ds2.r)),
                     np.max(np.abs(ds1.s - ds2.s)),
                     np.max(np.abs(ds1.b - ds2.b))))


def nonvanishing_probe(ds: PhaselessDataset):
    """(k, l, j) tracks of the movable-source magnitudes that vanish identically."""
    flags = []
    K, L, J, _ = ds.s.shape
    for k in range(K):
        for l in range(L):
            for j in range(J):
                if np.all(ds.s[k, l, j] < ZERO_TRACK_TOL):
                    flags.append((k, l, j))
    return flags


def check_reciprocity(medium: ElasticMedium, q: QuasiMomentum, profile: ProfileCurve2,
                      level: str, pairs, pols=None, N: int = 128) -> float:
    """Max violation of the reciprocity relation at the requested level.

    ``pairs`` is a sequence of point pairs (x, z); ``pols`` a matching
    sequence of (p, q) polarization pairs (defaults to coordinate axes).
    ``point_source`` compares the quasi-periodic tensors directly;
    ``scattered``/``total`` solve the grating problem at +alpha and -alpha,
    factoring each system once for all pairs.
    """
    pairs = [(np.asarray(a, float), np.asarray(b, float)) for a, b in pairs]
    if pols is None:
        pols = [((1.0, 0.0), (0.0, 1.0))] * len(pairs)
    qm = q.negated()

    if level == "point_source":
        # one set of sources per quasi-momentum and one apply of the identity
        # block (2S columns): column 2n + b is e_b at source n, and pair n
        # reads its tensor G(target_n - source_n) off the diagonal n = p
        def tensors(qq, sources, targets):
            S = len(sources)
            G = QPSources(medium, qq, sources).apply(np.eye(2 * S).reshape(S, 2, 2 * S), targets)
            return G.reshape(S, 2, S, 2)[np.arange(S), :, np.arange(S)]

        if not pairs:
            return 0.0
        xs, zs = (np.array(side) for side in zip(*pairs))
        return float(np.max(np.abs(tensors(q, zs, xs) - tensors(qm, xs, zs))))

    if level not in ("scattered", "total"):
        raise ValueError(f"unknown level {level!r}")

    # one factorisation per quasi-momentum serves every pair
    sols_f = solve_dirichlet_multi(medium, q, profile,
                                   [point_source_incidence(z, pq) for (_, z), (_, pq)
                                    in zip(pairs, pols)], N)
    sols_b = solve_dirichlet_multi(medium, qm, profile,
                                   [point_source_incidence(x, p) for (x, _), (p, _)
                                    in zip(pairs, pols)], N)
    worst = 0.0
    for (x, z), (p, pq), sol_f, sol_b in zip(pairs, pols, sols_f, sols_b):
        u_f = eval_scattered(sol_f, x[None, :])[0]
        u_b = eval_scattered(sol_b, z[None, :])[0]
        if level == "total":
            u_f = u_f + sol_f.incident.eval(medium, q, x[None, :])[0]
            u_b = u_b + sol_b.incident.eval(medium, qm, z[None, :])[0]
        lhs = np.dot(np.asarray(p, complex), u_f)
        rhs = np.dot(np.asarray(pq, complex), u_b)
        worst = max(worst, abs(lhs - rhs))
    return worst
