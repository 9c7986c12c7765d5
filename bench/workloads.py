"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload builds its inputs once from ``--seed``, then offers the same list
of operations for every round.  An operation is one call the user would make:
a CLI command through ``qpelastic.cli.main`` or one library call.  The
checks run after each round, outside the timed region, and return one
message per failed check; they compare against closed forms or test
properties the method must have, never against stored output.

Every package function is reached through its module attribute
(``cli.main``, ``phaseless.synth_phaseless``) so that the trace wrappers see
the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from qpelastic import bem2d, cli, green2d, medium as qmedium, phaseless


@dataclass
class Op:
    """One operation of a round; ``run`` returns its output or raises."""

    name: str
    phase: str
    run: object
    is_cli: bool = False     # returns an exit code; nonzero means failed
    known_fault: bool = False


@dataclass
class Result:
    op: Op
    seconds: float
    output: object = None
    error: str | None = None
    t0: float = 0.0
    scaled: float = 0.0      # seconds at the reference machine speed
    fail_msgs: list = field(default_factory=list)

    @property
    def failed(self):
        return self.error is not None or bool(self.fail_msgs)

    @property
    def usable(self):
        return self.error is None


def _wavenumbers(lam, mu, rho, omega):
    """(k_p, k_s) of the medium, computed here rather than by the package."""
    return omega * math.sqrt(rho / (lam + 2 * mu)), omega * math.sqrt(rho / mu)


def _cli_op(name, phase, argv, known_fault=False):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return Op(name, phase, run, True, known_fault)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# grating: qpelastic solve2d on rigid gratings under plane-p incidence
# ---------------------------------------------------------------------------
class Grating:
    """Flat profile, the 0.1 sinusoid over an N ladder, and the omega=12 demo.

    The seed draws the incidence angle of each case in [0.2, 0.3]; profile,
    frequency and N are fixed, so every seed does the same amount of work.
    """

    name = "grating"
    LADDER = (32, 64)
    FLAT_TOL = 1e-5          # specular/non-specular error against the closed form
    BALANCE_TOL = 1e-3

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 101])
        med5 = {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "omega": 5.0}
        med12 = dict(med5, omega=12.0)
        cases = [("flat32", med5, [], 32)]
        cases += [(f"sin{n}", med5, [0.1], n) for n in self.LADDER]
        cases += [("demo64", med12, [0.08], 64)]
        self.cases = []
        for label, med, sin, n in cases:
            theta = float(rng.uniform(0.2, 0.3))
            cfg = {"medium": med, "profile": {"height": 0.0, "cos": [], "sin": sin},
                   "incident": {"kind": "plane_p", "theta": theta},
                   "solver": {"N": n}, "rayleigh": {"m_modes": 5}}
            self.cases.append((label, cfg, os.path.join(workdir, f"{label}.json"),
                               os.path.join(workdir, f"{label}.out.json")))
        self.reference = {}

    def write_inputs(self):
        for _, cfg, path, _ in self.cases:
            _write_json(path, cfg)

    def resolve(self):
        for _, _, path, _ in self.cases:
            cli.resolve_config(cli.load_config(path))

    def ops(self):
        return [_cli_op(label, "solve2d", ["solve2d", "--config", path, "--out", out])
                for label, _, path, out in self.cases]

    def check(self, results):
        """Returns the residual digits of the finest ladder solve."""
        by = {}
        for (label, cfg, _, out), r in zip(self.cases, results):
            if not r.usable:
                continue
            raw = _read_bytes(out)
            if self.reference.setdefault(label, raw) != raw:
                r.fail_msgs.append("--out differs from the first round's bytes")
            sol = json.loads(raw)
            by[label] = (r, sol)
            bal = sol["energy"]["balance"]
            if not bal <= self.BALANCE_TOL:
                r.fail_msgs.append(f"energy balance {bal:.3e} > {self.BALANCE_TOL}")
            if label == "flat32":
                self._check_flat(r, cfg, sol)
        ladder = [by.get(f"sin{n}") for n in self.LADDER]
        if all(ladder):
            res = [sol["boundary_residual"] for _, sol in ladder]
            if not all(b < a for a, b in zip(res, res[1:])):
                ladder[-1][0].fail_msgs.append(f"residual not decreasing along N: {res}")
            return {"residual_digits": -math.log10(res[-1])}
        return {}

    def _check_flat(self, r, cfg, sol):
        """Rigid flat boundary: specular amplitudes from the 2x2 boundary system,
        all other orders zero."""
        m = cfg["medium"]
        kp, ks = _wavenumbers(m["lambda"], m["mu"], m["rho"], m["omega"])
        th = cfg["incident"]["theta"]
        a, b = kp * math.sin(th), kp * math.cos(th)
        g = math.sqrt(ks * ks - a * a)
        up, us = np.linalg.solve(np.array([[a, g], [b, -a]]), -np.array([a, -b]) / kp)
        worst = 0.0
        for mode in sol["rayleigh"]["modes"]:
            cp = complex(*mode["u_p"])
            cs = complex(*mode["u_s"])
            if mode["m"] == 0:
                cp, cs = cp - up, cs - us
            worst = max(worst, abs(cp), abs(cs))
        if not worst <= self.FLAT_TOL:
            r.fail_msgs.append(f"flat profile vs closed form: {worst:.3e} > {self.FLAT_TOL}")


# ---------------------------------------------------------------------------
# phaseless: the library calls of demos/phaseless_measurements.py
# ---------------------------------------------------------------------------
class Phaseless:
    """Two profiles, 13 incidences per factorisation, and the reciprocity ladder.

    The seed draws the quasi-momentum, the fixed-source and arc positions, the
    measurement-grid offset and the reciprocity pair; medium, profiles, N and
    the number of sources and probes are fixed.
    """

    name = "phaseless"
    N_SYNTH = 64
    N_RECIP = 64
    RECIP_TOL = 1e-4
    POINT_TOL = 1e-12
    DIFFER_REL = 1e-3        # relative to the largest magnitude (squared for products)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 202])
        self.med = qmedium.make_medium(2.0, 1.0, 1.0, 5.0)
        self.q = qmedium.make_quasi_momentum("qp2d", float(rng.uniform(0.2, 0.4)), self.med)
        sq2 = 1 / math.sqrt(2)
        off = float(rng.uniform(0.0, 0.03))
        self.cfg = phaseless.SourceConfig(
            z_tilde=(float(rng.uniform(0.3, 0.4)), 0.45),
            fixed_pol=(1.0, 0.0),
            movable_pols=((1.0, 0.0), (0.0, 1.0)),
            probes=((1.0, 0.0), (0.0, 1.0), (sq2, sq2), (sq2, -sq2), (0.6, 0.8)),
            sigma_center=(float(rng.uniform(0.45, 0.55)), 0.75),
            sigma_axes=(0.25, 0.1),
            n_sources=6,
            grid_x1=tuple(np.linspace(0.05, 0.95, 12) + off),
            height=1.1,
        )
        self.profile_a = bem2d.ProfileCurve2(0.0, (), (0.1,))
        self.profile_b = bem2d.ProfileCurve2(0.0, (0.05,), (0.08,))
        x = (float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.85, 0.95)))
        z = (float(rng.uniform(0.6, 0.8)), float(rng.uniform(0.65, 0.75)))
        ang = rng.uniform(0, math.pi, size=2)
        self.pairs = [(x, z)]
        self.pols = [((math.cos(ang[0]), math.sin(ang[0])), (math.cos(ang[1]), math.sin(ang[1])))]
        self.point_pairs = [((float(rng.uniform(0, 1)), float(rng.uniform(0.5, 1.2))),
                             (float(rng.uniform(0, 1)), float(rng.uniform(-0.3, 0.3))))
                            for _ in range(4)]
        self.reference = None

    def write_inputs(self):
        pass

    def resolve(self):
        self.cfg.validate(self.profile_a)
        self.cfg.validate(self.profile_b)

    def ops(self):
        med, q, cfg = self.med, self.q, self.cfg

        def synth(profile):
            return lambda: phaseless.synth_phaseless(med, q, profile, cfg, N=self.N_SYNTH)

        def recip(level, pairs, pols=None):
            return lambda: phaseless.check_reciprocity(med, q, self.profile_a, level, pairs,
                                                       pols, N=self.N_RECIP)

        return [
            Op("synth_a", "synth", synth(self.profile_a)),
            Op("synth_b", "synth", synth(self.profile_b)),
            Op("recip_point", "reciprocity", recip("point_source", self.point_pairs)),
            Op("recip_scattered", "reciprocity", recip("scattered", self.pairs, self.pols)),
            Op("recip_total", "reciprocity", recip("total", self.pairs, self.pols)),
        ]

    def check(self, results):
        out = {r.op.name: r for r in results if r.usable}
        if "synth_a" in out and "synth_b" in out:
            ra, rb = out["synth_a"], out["synth_b"]
            ds_a, ds_b = ra.output, rb.output
            same = phaseless.cosine_identity(ds_a, ds_a)
            if same != 0.0:
                ra.fail_msgs.append(f"cosine identity of a dataset with itself is {same!r}")
            gap = phaseless.dataset_gap(ds_a, ds_b)
            disc = phaseless.cosine_identity(ds_a, ds_b)
            big = max(float(np.max(getattr(ds_a, k))) for k in "rsb")
            if not (gap > self.DIFFER_REL * big and disc > self.DIFFER_REL * big * big):
                rb.fail_msgs.append(f"distinct profiles too close: gap {gap:.3e}, "
                                    f"cosine {disc:.3e}")
            arrays = [getattr(d, k) for d in (ds_a, ds_b) for k in "rsb"]
            if self.reference is None:
                self._check_re_products(ra, ds_a)
                self.reference = arrays
            elif not all(np.array_equal(x, y) for x, y in zip(arrays, self.reference)):
                ra.fail_msgs.append("datasets differ from the first round's")
        for name, tol in (("recip_point", self.POINT_TOL), ("recip_scattered", self.RECIP_TOL),
                          ("recip_total", self.RECIP_TOL)):
            if name in out and not out[name].output <= tol:
                out[name].fail_msgs.append(f"reciprocity {out[name].output:.3e} > {tol}")
        if "recip_point" in out:
            self._check_near_line(out["recip_point"])
        return {}

    def _check_re_products(self, r, ds):
        """Re(p.u1 conj(p.u2)) from complex total fields equals the products the
        magnitudes give through the polarization identity."""
        med, q, cfg = self.med, self.q, self.cfg
        X = cfg.grid_points()
        zs = cfg.movable_points()
        incs = [bem2d.point_source_incidence(cfg.z_tilde, cfg.fixed_pol)]
        incs += [bem2d.point_source_incidence(zs[j], cfg.movable_pols[l])
                 for l in range(len(cfg.movable_pols)) for j in range(len(zs))]
        sols = bem2d.solve_dirichlet_multi(med, q, self.profile_a, incs, self.N_SYNTH)
        fields = [s.incident.eval(med, q, X) + bem2d.eval_scattered(s, X) for s in sols]
        P = np.asarray(cfg.probes)
        pu0 = fields[0] @ P.T                                   # (nx, K)
        got = phaseless.re_products(ds)                         # (K, L, J, nx)
        J = len(zs)
        worst, scale = 0.0, 0.0
        for l in range(len(cfg.movable_pols)):
            for j in range(J):
                puj = fields[1 + l * J + j] @ P.T
                want = np.real(pu0 * np.conj(puj)).T            # (K, nx)
                worst = max(worst, float(np.max(np.abs(got[:, l, j] - want))))
                scale = max(scale, float(np.max(np.abs(pu0))), float(np.max(np.abs(puj))))
        if not worst <= 1e-9 * scale * scale:
            r.fail_msgs.append(f"Re-products off the complex fields by {worst:.3e}")

    def _check_near_line(self, r):
        """The near-line point-source field on the measurement line agrees with
        the plain spectral series within its tail bound plus roundoff."""
        cfg = self.cfg
        X = cfg.grid_points()
        pol = np.asarray(cfg.fixed_pol, dtype=complex)
        near = bem2d.point_source_incidence(cfg.z_tilde, cfg.fixed_pol).eval(self.med, self.q, X)
        worst = 0.0
        for x, u in zip(X, near):
            g = green2d.green2d_eval(self.med, self.q, x, np.asarray(cfg.z_tilde), 1e-12)
            err = float(np.max(np.abs(g.value @ pol - u)))
            allow = g.tail_bound + 1e-12 * float(np.max(np.abs(g.value)))
            worst = max(worst, err / allow)
        if not worst <= 1.0:
            r.fail_msgs.append(f"near-line vs series: {worst:.2f} x (tail bound + roundoff)")


# ---------------------------------------------------------------------------
# series: qpelastic eval over point grids, and qpelastic verify
# ---------------------------------------------------------------------------
class Series:
    """Plain spectral series for qp2d, qp3d and biqp3d, and the verify suites.

    The gap ladders are fixed; the seed draws the quasi-momenta, the source,
    the in-plane positions of the grid points and the seeds of the
    seed-dependent verify suites.  Each base point comes with its partner one
    period away along e1 (and e2 for biqp3d).  ``verify --suite oracle`` runs
    on the fixed seeds 0 (passes) and 7 (fails every time, a known fault of
    the lattice-sum oracle), so the failed share never depends on the seed.
    """

    name = "series"
    GAPS = {"qp2d": (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5),
            "qp3d": (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5),
            "biqp3d": (0.1, 0.2, 0.35, 0.6, 1.0, 1.5)}
    BASE_PER_GAP = {"qp2d": 40, "qp3d": 30, "biqp3d": 16}
    TOL = 1e-10
    TIGHT_TOL = 1e-13
    QP_TOL = 1e-12
    ROUNDOFF = 1e-13         # relative rounding allowance on top of the tail bounds

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 303])
        self.workdir = workdir
        medium = {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "omega": 2.0}
        self.evals = []
        for geo in cli.GEOMETRIES:
            if geo == "biqp3d":
                alpha = [float(v) for v in rng.uniform(-0.5, 0.5, size=2)]
                shifts = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])]
            else:
                alpha = float(rng.uniform(-0.7, 0.7))
                shifts = [np.eye(2 if geo == "qp2d" else 3)[0]]
            dim = 2 if geo == "qp2d" else 3
            src = np.zeros(dim)
            src[0] = rng.uniform(0, 1)
            pts, sub = [], []
            for gap in self.GAPS[geo]:
                for k in range(self.BASE_PER_GAP[geo]):
                    x = src.copy()
                    x[0] = rng.uniform(0, 1)
                    sign = rng.choice([-1.0, 1.0])
                    if geo == "qp3d":
                        phi = rng.uniform(0, 2 * math.pi)
                        x[1], x[2] = gap * math.cos(phi), gap * math.sin(phi)
                    elif geo == "biqp3d":
                        x[1] = rng.uniform(0, 1)
                        x[2] = sign * gap
                    else:
                        x[1] = sign * gap
                    if k == 0:
                        sub.append(x.tolist())
                    pts.append(x.tolist())
                    pts += [(x + s).tolist() for s in shifts]
            cfg = {"medium": medium, "geometry": geo, "quasi_momentum": {"alpha": alpha},
                   "truncation": {"tol": self.TOL},
                   "eval": {"source": src.tolist(), "points": pts}}
            tight = dict(cfg, truncation={"tol": self.TIGHT_TOL},
                         eval={"source": src.tolist(), "points": sub})
            self.evals.append((geo, cfg, tight, len(shifts)))
        vs = int(rng.integers(0, 2**31))
        self.verify = [("quasiperiodicity", vs), ("reciprocity", vs + 1),
                       ("pde_residual", 0), ("oracle", 0), ("oracle", 7),
                       ("ode_jump", 0), ("specfun", 0)]
        self.verify_cfg = {"medium": medium, "verify": {"trials": 6}}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def write_inputs(self):
        for geo, cfg, tight, _ in self.evals:
            _write_json(self._path(f"{geo}.json"), cfg)
            _write_json(self._path(f"{geo}.tight.json"), tight)
        _write_json(self._path("verify.json"), self.verify_cfg)

    def resolve(self):
        for geo, *_ in self.evals:
            for suffix in ("", ".tight"):
                cli.resolve_config(cli.load_config(self._path(f"{geo}{suffix}.json")))
        cli.resolve_config(cli.load_config(self._path("verify.json")))

    def ops(self):
        ops = []
        for geo, *_ in self.evals:
            for suffix in ("", ".tight"):
                ops.append(_cli_op(f"eval_{geo}{suffix}", "eval",
                                   ["eval", "--config", self._path(f"{geo}{suffix}.json"),
                                    "--out", self._path(f"{geo}{suffix}.csv")]))
        for suite, seed in self.verify:
            out = self._path(f"verify_{suite}_{seed}.json")
            ops.append(_cli_op(f"verify_{suite}_{seed}", "verify",
                               ["verify", "--config", self._path("verify.json"),
                                "--suite", suite, "--seed", str(seed), "--out", out],
                               known_fault=(suite == "oracle" and seed == 7)))
        return ops

    @staticmethod
    def _read_csv(path, dim):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[2:]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        G = rows[:, dim:dim + 2 * dim * dim]
        G = (G[:, 0::2] + 1j * G[:, 1::2]).reshape(-1, dim, dim)
        return G, rows[:, -1]

    def check(self, results):
        """Returns the number of tensors the eval commands wrote."""
        out = {r.op.name: r for r in results if r.usable}
        tensors = 0
        for geo, cfg, tight, nshift in self.evals:
            r, rt = out.get(f"eval_{geo}"), out.get(f"eval_{geo}.tight")
            if r is None or rt is None:
                continue
            dim = 2 if geo == "qp2d" else 3
            G, tb = self._read_csv(self._path(f"{geo}.csv"), dim)
            Gt, tbt = self._read_csv(self._path(f"{geo}.tight.csv"), dim)
            tensors += len(G) + len(Gt)
            alpha = np.atleast_1d(cfg["quasi_momentum"]["alpha"])
            step = 1 + nshift
            worst = 0.0
            for s in range(nshift):
                base, moved = G[0::step], G[1 + s::step]
                ph = np.exp(1j * alpha[s])
                rel = np.max(np.abs(moved - ph * base), axis=(1, 2)) \
                    / np.max(np.abs(base), axis=(1, 2))
                worst = max(worst, float(np.max(rel)))
            if not worst <= self.QP_TOL:
                r.fail_msgs.append(f"quasi-periodicity {worst:.3e} > {self.QP_TOL}")
            stride = step * self.BASE_PER_GAP[geo]
            err = np.max(np.abs(G[0::stride] - Gt), axis=(1, 2))
            allow = tb[0::stride] + tbt \
                + self.ROUNDOFF * np.max(np.abs(Gt), axis=(1, 2))
            if not np.all(err <= allow):
                i = int(np.argmax(err / allow))
                rt.fail_msgs.append(f"|G(tol) - G(tight)| {err[i]:.3e} exceeds the tail "
                                    f"bounds plus roundoff {allow[i]:.3e}")
        for suite, seed in self.verify:
            r = out.get(f"verify_{suite}_{seed}")
            if r is None:
                continue
            with open(self._path(f"verify_{suite}_{seed}.json"), encoding="utf-8") as fh:
                rep = json.load(fh)
            if not rep["pass"]:
                r.fail_msgs.append(f"verify {suite} seed {seed}: worst {rep['worst']:.3e}")
        return {"tensors": tensors}


WORKLOADS = {w.name: w for w in (Grating, Phaseless, Series)}
