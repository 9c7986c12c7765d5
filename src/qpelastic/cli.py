"""Command-line front door: config parsing, batch evaluation, verification.

``verify --suite NAME`` runs ``checks.SUITES[NAME]``; the checks themselves
live in :mod:`qpelastic.checks`, which the acceptance suite calls too.

All outputs are deterministic for a fixed config (fixed summation orders, no
timestamps) and embed the fully-resolved configuration for reproducibility.
Exit codes: 0 success, 1 numerical suite failure, 2 config error, 3 domain
error (Wood anomaly, near-source evaluation, resonance, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import errors
from ._series import equal_rows
from .bem2d import (ProfileCurve2, boundary_residual, eval_scattered,
                    plane_incidence, point_source_incidence, solve_dirichlet,
                    traction)
from .checks import GEOMETRIES, SERIES, SUITES
from .errors import ConfigError
from .medium import ElasticMedium, ModeTable, make_medium, make_quasi_momentum
from .phaseless import (PhaselessDataset, SourceConfig, cosine_identity,
                        dataset_gap, nonvanishing_probe, synth_phaseless)
from .rayleigh import RayleighCoeffs2, eval_rayleigh_2d, flux_2d


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------
def _need(cfg, field, path, types=None):
    if field not in cfg:
        raise ConfigError(f"{path}{field}", "missing")
    val = cfg[field]
    if types is not None and not isinstance(val, types):
        raise ConfigError(f"{path}{field}", f"expected {types}, got {type(val).__name__}")
    return val


def _number(val, field, depth=0):
    """``val`` as a float, or for ``depth`` > 0 as lists of floats nested that
    deep; ConfigError naming ``field`` when it is not a finite JSON number (or
    list): Python's json reads NaN, Infinity and 1e400, which no field takes."""
    if depth:
        if not isinstance(val, list):
            raise ConfigError(field, f"must be a list, got {val!r}")
        return [_number(v, field, depth - 1) for v in val]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ConfigError(field, f"must be a finite number, got {val!r}")
    return float(val)


def _pair(val, field):
    """``val`` as a tuple of two floats; ConfigError naming ``field`` when it
    is not a list of two JSON numbers."""
    pair = _number(val, field, 1)
    if len(pair) != 2:
        raise ConfigError(field, f"must be two numbers, got {val!r}")
    return tuple(pair)


def _integer(val, field, least=None):
    """``val``, or ConfigError naming ``field`` when it is not a JSON integer
    (>= ``least`` when given)."""
    if isinstance(val, bool) or not isinstance(val, int) or (least is not None and val < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(field, f"must be an integer{bound}, got {val!r}")
    return val


def _section(cfg, field, default=None):
    """The object ``cfg[field]``, or ``default`` ({} if None) when absent;
    ConfigError naming the field when it is not an object."""
    val = cfg.get(field, {} if default is None else default)
    if not isinstance(val, dict):
        raise ConfigError(field, f"must be an object, got {type(val).__name__}")
    return val


def _node_count(N, field):
    """N, or ConfigError naming ``field`` when it is not a power of two >= 32."""
    if isinstance(N, bool) or not isinstance(N, int) or N < 32 or N & (N - 1):
        raise ConfigError(field, f"must be a power of two >= 32, got {N!r}")
    return N


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return cfg


def resolve_config(cfg: dict, geometry_override: str | None = None) -> dict:
    """Validate and fill defaults; returns the fully-resolved config dict."""
    out = {}
    med = {"rho": 1.0, **_need(cfg, "medium", "", dict)}
    out["medium"] = {f: _number(_need(med, f, "medium."), f"medium.{f}")
                     for f in ("lambda", "mu", "rho", "omega")}
    try:
        make_medium(out["medium"]["lambda"], out["medium"]["mu"],
                    out["medium"]["rho"], out["medium"]["omega"])
    except errors.InvalidMedium as exc:
        raise ConfigError("medium", str(exc))

    geometry = geometry_override or cfg.get("geometry", "qp2d")
    if geometry not in GEOMETRIES:
        raise ConfigError("geometry", f"must be one of {GEOMETRIES}")
    out["geometry"] = geometry

    qm = _section(cfg, "quasi_momentum", {"alpha": 0.0})
    alpha = _need(qm, "alpha", "quasi_momentum.")
    if geometry == "biqp3d":
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise ConfigError("quasi_momentum.alpha", "biqp3d needs a pair [a1, a2]")
        out["quasi_momentum"] = {"alpha": _number(alpha, "quasi_momentum.alpha", 1)}
    else:
        if isinstance(alpha, list):
            raise ConfigError("quasi_momentum.alpha", f"{geometry} needs a scalar")
        out["quasi_momentum"] = {"alpha": _number(alpha, "quasi_momentum.alpha")}

    trunc = _section(cfg, "truncation")
    for f in trunc:
        if f != "tol":
            raise ConfigError(f"truncation.{f}", "unknown field; truncation holds only tol "
                              "(the near-source and Wood guards are fixed)")
    tol = _number(trunc.get("tol", 1e-10), "truncation.tol")
    if not 0.0 < tol < 1.0:
        raise ConfigError("truncation.tol", f"must be a number in (0, 1), got {tol!r}")
    out["truncation"] = {"tol": tol}

    prof = _section(cfg, "profile")
    out["profile"] = {
        "height": _number(prof.get("height", 0.0), "profile.height"),
        "cos": _number(prof.get("cos", []), "profile.cos", 1),
        "sin": _number(prof.get("sin", []), "profile.sin", 1),
    }
    out["solver"] = {"N": _node_count(_section(cfg, "solver").get("N", 128), "solver.N")}
    _integer(_section(cfg, "verify").get("trials", 6), "verify.trials", 1)

    for key in ("eval", "incident", "rayleigh", "phaseless", "verify"):
        if key in cfg:
            out[key] = _section(cfg, key)
    return out


def _medium_of(rc) -> ElasticMedium:
    m = rc["medium"]
    return make_medium(m["lambda"], m["mu"], m["rho"], m["omega"])


def _momentum_of(rc, medium):
    kind = rc["geometry"]
    alpha = rc["quasi_momentum"]["alpha"]
    if kind == "biqp3d":
        return make_quasi_momentum(kind, tuple(alpha), medium)
    return make_quasi_momentum(kind, alpha, medium)


def _profile_of(rc) -> ProfileCurve2:
    p = rc["profile"]
    return ProfileCurve2(p["height"], tuple(p["cos"]), tuple(p["sin"]))


def _incident_of(rc, medium):
    inc = _need(rc, "incident", "")
    kind = _need(inc, "kind", "incident.")
    if kind in ("plane_p", "plane_s"):
        return plane_incidence(medium, kind, _number(_need(inc, "theta", "incident."),
                                                     "incident.theta"))
    if kind == "point_source":
        z = _pair(_need(inc, "source", "incident."), "incident.source")
        pol = _pair(_need(inc, "polarization", "incident."), "incident.polarization")
        field = point_source_incidence(z, pol)
        rcq = rc["quasi_momentum"]["alpha"]
        return field, make_quasi_momentum("qp2d", rcq, medium)
    raise ConfigError("incident.kind", f"unknown kind {kind!r}")


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path, rc, cols, row, rows):
    """The ``# config`` line, the header ``cols`` and each of ``rows`` through ``row``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# config: " + json.dumps(rc, sort_keys=True) + "\n")
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(row % tuple(r))


def _write_json(path, obj):
    """``obj`` as indented JSON with sorted keys and a final newline, in one
    write: ``json.dump`` would write each encoder chunk separately."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------
def cmd_eval(rc, out_path):
    medium = _medium_of(rc)
    q = _momentum_of(rc, medium)
    ev = _need(rc, "eval", "")
    pts = _number(_need(ev, "points", "eval."), "eval.points", 2)
    src = _number(_need(ev, "source", "eval."), "eval.source", 1)
    tol = rc["truncation"]["tol"]
    dim = 2 if rc["geometry"] == "qp2d" else 3
    if not pts or any(len(p) != dim for p in pts):
        raise ConfigError("eval.points", f"need shape (n, {dim})")
    if len(src) != dim:
        raise ConfigError("eval.source", f"need length {dim}")
    pts, src = np.asarray(pts), np.asarray(src)

    # one batch call per distinct gap (|x2 - y2| in 2D, the transverse
    # distance for qp3d, |x3 - y3| for biqp3d): a batch sizes its window from
    # its smallest gap, so each point gets the modes and tail bound of a call
    # on that point alone
    geo = rc["geometry"]
    evalf = SERIES[geo]
    d = pts - src
    gap = np.hypot(d[:, 1], d[:, 2]) if geo == "qp3d" else np.abs(d[:, -1])
    values = np.empty((len(pts), dim, dim), dtype=complex)
    tails = np.empty(len(pts))
    modes = np.empty(len(pts), dtype=int)
    for idx in equal_rows(gap[:, None]):
        values[idx], tails[idx], modes[idx] = evalf(medium, q, pts[idx], src, tol)

    cols = [f"x{i+1}" for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            cols += [f"re_G{i+1}{j+1}", f"im_G{i+1}{j+1}"]
    cols += ["modes_used", "tail_bound"]
    # the numbers of a row in column order: x, then (re, im) of G row by row
    nums = np.concatenate([pts, values.view(float).reshape(len(pts), -1)], axis=1)
    row = ",".join(["%.17g"] * nums.shape[1] + ["%d", "%.17g"]) + "\n"
    _write_csv(out_path, rc, cols, row,
               ((*r, n, tb) for r, n, tb in zip(nums.tolist(), modes.tolist(), tails.tolist())))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
def cmd_verify(rc, suite, out_path, seed):
    if suite not in SUITES:
        raise ConfigError("suite", f"must be one of {sorted(SUITES)}")
    trials = rc.get("verify", {}).get("trials", 6)
    rng = np.random.default_rng(seed)
    worst, tol = SUITES[suite](rng, trials)
    ok = bool(worst <= tol)
    report = {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "worst": worst,
        "tolerance": tol,
        "pass": ok,
        "config": rc,
    }
    if out_path:
        _write_json(out_path, report)
    print(f"suite {suite}: worst {worst:.3e} vs tol {tol:.1e} -> "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# solve2d / rayleigh / phaseless
# ---------------------------------------------------------------------------
def cmd_solve2d(rc, out_path):
    medium = _medium_of(rc)
    profile = _profile_of(rc)
    incident, q = _incident_of(rc, medium)
    ray = rc.get("rayleigh", {})
    height = _number(ray.get("height", profile.max_height + 0.5), "rayleigh.height")
    m_modes = _integer(ray.get("m_modes", 5), "rayleigh.m_modes", 0)
    N = rc["solver"]["N"]
    sol = solve_dirichlet(medium, q, profile, incident, N)
    resid = boundary_residual(sol)
    co = sol.rayleigh(m_modes)

    # energy balance through the measurement line
    ngrid = 64
    x1 = np.arange(ngrid) / ngrid
    X = np.stack([x1, np.full(ngrid, height)], axis=-1)
    nu = np.tile([0.0, 1.0], (ngrid, 1))
    ui, di1, di2 = incident.jet(medium, q, X)
    gi = np.stack([di1, di2], axis=-1)
    us, gs = eval_scattered(sol, X, need_gradient=True)
    j_inc = flux_2d(medium, ui, traction(medium, ui, gi, nu))
    j_tot = flux_2d(medium, ui + us, traction(medium, ui + us, gi + gs, nu))

    out = {
        "config": rc,
        "cond_estimate": sol.cond_estimate,
        "boundary_residual": resid,
        "density": [[_fmt(v.real), _fmt(v.imag)] for v in sol.density.reshape(-1)],
        "rayleigh": {
            "height": height,
            "modes": [{"m": m, "u_p": [up.real, up.imag], "u_s": [us.real, us.imag]}
                      for m, up, us in zip(co.modes.m.tolist(), co.u_p, co.u_s)],
        },
        "energy": {"incident_flux": j_inc, "total_flux": j_tot,
                   "balance": abs(j_tot) / abs(j_inc) if j_inc else float("nan")},
    }
    _write_json(out_path, out)
    print(f"solve2d: N={N} residual {resid:.2e} energy balance {out['energy']['balance']:.2e}")
    return 0


def _coeff_entries(coeffs, key):
    """Mode indices and complex amplitudes of the [m, re, im] entries ``coeffs[key]``."""
    field = f"rayleigh.coeffs.{key}"
    entries = coeffs.get(key, [])
    rows = _number(entries, field, 2)
    if any(len(r) != 3 for r in rows):
        raise ConfigError(field, f"entries must be [m, re, im], got {entries!r}")
    return [_integer(e[0], field) for e in entries], np.array([re + 1j * im for _, re, im in rows])


def cmd_rayleigh(rc, action, out_path):
    medium = _medium_of(rc)
    ray = _need(rc, "rayleigh", "")
    if action == "extract":
        incident, q = _incident_of(rc, medium)
        m_modes = _integer(ray.get("m_modes", 8), "rayleigh.m_modes", 0)
        sol = solve_dirichlet(medium, q, _profile_of(rc), incident, rc["solver"]["N"])
        co = sol.rayleigh(m_modes)
        out = {
            "config": rc,
            "mode_index": "entries are [m, re, im] with lattice frequency l = 2*pi*m",
            "p": [[m, c.real, c.imag] for m, c in zip(co.modes.m.tolist(), co.u_p)],
            "s": [[m, c.real, c.imag] for m, c in zip(co.modes.m.tolist(), co.u_s)],
        }
        _write_json(out_path, out)
        print(f"rayleigh extract: {len(co.modes.m)} modes")
        return 0
    if action == "eval":
        q = _momentum_of(rc, medium)
        coeffs = _need(ray, "coeffs", "rayleigh.", dict)
        pts = _number(_need(ray, "points", "rayleigh."), "rayleigh.points", 2)
        if not pts or any(len(p) != 2 for p in pts):
            raise ConfigError("rayleigh.points", "need shape (n, 2)")
        pts = np.asarray(pts)
        m, up = _coeff_entries(coeffs, "p")
        m_s, us = _coeff_entries(coeffs, "s")
        if m_s != m:
            raise ConfigError("rayleigh.coeffs", f"p lists modes {m} but s lists {m_s}")
        co = RayleighCoeffs2(ModeTable.of(medium, q, m), up, us)
        vals = eval_rayleigh_2d(medium, q, co, pts)
        nums = np.concatenate([pts, vals.view(float)], axis=1)
        _write_csv(out_path, rc, ["x1", "x2", "re_u1", "im_u1", "re_u2", "im_u2"],
                   ",".join(["%.17g"] * 6) + "\n", nums.tolist())
        print(f"rayleigh eval: {len(pts)} points")
        return 0
    raise ConfigError("rayleigh", f"unknown action {action!r}")


def _source_config_of(ph) -> SourceConfig:
    def need(f, types=None):
        return _need(ph, f, "phaseless.", types)

    def pair(f, val):
        return _pair(val, f"phaseless.{f}")

    return SourceConfig(
        z_tilde=pair("z_tilde", need("z_tilde")),
        fixed_pol=pair("fixed_pol", need("fixed_pol")),
        movable_pols=tuple(pair("movable_pols", v) for v in need("movable_pols", list)),
        probes=tuple(pair("probes", v) for v in need("probes", list)),
        sigma_center=pair("sigma_center", need("sigma_center")),
        sigma_axes=pair("sigma_axes", need("sigma_axes")),
        sigma_arc=pair("sigma_arc", ph.get("sigma_arc", [0.25 * np.pi, 0.75 * np.pi])),
        n_sources=_integer(ph.get("n_sources", 3), "phaseless.n_sources", 1),
        grid_x1=tuple(_number(ph.get("grid_x1", np.linspace(0.05, 0.95, 10).tolist()),
                              "phaseless.grid_x1", 1)),
        height=_number(need("height"), "phaseless.height"),
    )


def _dataset_to_json(ds: PhaselessDataset) -> dict:
    return {
        "grid_x1": list(ds.grid_x1),
        "height": ds.height,
        "r": ds.r.tolist(),
        "s": ds.s.tolist(),
        "b": ds.b.tolist(),
        "meta": ds.meta,
    }


def _dataset_from_json(obj) -> PhaselessDataset:
    return PhaselessDataset(np.asarray(obj["grid_x1"], float), float(obj["height"]),
                            np.asarray(obj["r"], float), np.asarray(obj["s"], float),
                            np.asarray(obj["b"], float), obj.get("meta", {}))


def cmd_phaseless(rc, action, out_path):
    ph = _need(rc, "phaseless", "")
    N = _node_count(ph.get("solver_n", rc["solver"]["N"]), "phaseless.solver_n")
    cfg = _source_config_of(ph)
    profile = _profile_of(rc)
    try:
        cfg.validate(profile)
    except ConfigError as exc:
        raise ConfigError(f"phaseless.{exc.field}", exc.reason)
    m = rc["medium"]
    freqs = _number(ph.get("frequencies", [m["omega"]]), "phaseless.frequencies", 1)
    if not freqs:
        raise ConfigError("phaseless.frequencies", "must not be empty")
    alpha = rc["quasi_momentum"]["alpha"]

    datasets = {}
    for w in freqs:
        medium = make_medium(m["lambda"], m["mu"], m["rho"], w)
        q = make_quasi_momentum("qp2d", alpha, medium)
        datasets[_fmt(w)] = synth_phaseless(medium, q, profile, cfg, N)

    if action == "synth":
        out = {"config": rc, "datasets": {k: _dataset_to_json(v) for k, v in datasets.items()}}
        _write_json(out_path, out)
        print(f"phaseless synth: {len(datasets)} dataset(s), grid {len(cfg.grid_x1)}")
        return 0
    if action == "check":
        ref_path = ph.get("reference")
        if ref_path is None:
            raise ConfigError("phaseless.reference", "missing (needed for check)")
        with open(ref_path, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        report = {"config": rc, "per_frequency": {}}
        worst = 0.0
        for k, ds in datasets.items():
            if k not in ref["datasets"]:
                raise ConfigError("phaseless.reference", f"missing frequency {k}")
            other = _dataset_from_json(ref["datasets"][k])
            disc = cosine_identity(ds, other)
            gap = dataset_gap(ds, other)
            report["per_frequency"][k] = {
                "cosine_discrepancy": disc,
                "magnitude_gap": gap,
                "zero_tracks": nonvanishing_probe(ds),
            }
            worst = max(worst, disc)
        report["worst_cosine_discrepancy"] = worst
        _write_json(out_path, report)
        print(f"phaseless check: worst cosine discrepancy {worst:.3e}")
        return 0
    raise ConfigError("phaseless", f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for later calls."""
    parser = argparse.ArgumentParser(prog="qpelastic",
                                     description="quasi-periodic elastic scattering toolkit")
    parser.add_argument("command", choices=["eval", "verify", "solve2d", "rayleigh", "phaseless"])
    parser.add_argument("action", nargs="?", default=None,
                        help="subaction for rayleigh (extract|eval) / phaseless (synth|check)")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--suite", default=None)
    parser.add_argument("--geometry", default=None, choices=GEOMETRIES)
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        rc = resolve_config(load_config(args.config), args.geometry)
        if args.command == "eval":
            if not args.out:
                raise ConfigError("--out", "required for eval")
            return cmd_eval(rc, args.out)
        if args.command == "verify":
            if not args.suite:
                raise ConfigError("--suite", "required for verify")
            return cmd_verify(rc, args.suite, args.out, args.seed)
        if args.command == "solve2d":
            if not args.out:
                raise ConfigError("--out", "required for solve2d")
            return cmd_solve2d(rc, args.out)
        if args.command == "rayleigh":
            if args.action not in ("extract", "eval"):
                raise ConfigError("rayleigh", "action must be extract or eval")
            if not args.out:
                raise ConfigError("--out", "required")
            return cmd_rayleigh(rc, args.action, args.out)
        if args.command == "phaseless":
            if args.action not in ("synth", "check"):
                raise ConfigError("phaseless", "action must be synth or check")
            if not args.out:
                raise ConfigError("--out", "required")
            return cmd_phaseless(rc, args.action, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except errors.QPElasticError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
