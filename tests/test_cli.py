import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpelastic import checks, cli
from qpelastic.cli import main
from qpelastic.green2d import green2d_eval
from qpelastic.green3d_biqp import greenbi_eval
from qpelastic.green3d_qp import green3dqp_eval
from qpelastic.medium import ModeTable, make_medium, make_quasi_momentum
from qpelastic.rayleigh import RayleighCoeffs2, eval_rayleigh_2d

BASE_CONFIG = {
    "medium": {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "omega": 5.0},
    "quasi_momentum": {"alpha": 0.3},
    "geometry": "qp2d",
    "eval": {"source": [0.0, 0.0], "points": [[0.25, 1.0], [0.5, 0.8]]},
    "solver": {"N": 64},
    "incident": {"kind": "plane_p", "theta": 0.25},
    "verify": {"trials": 2},
}
PHASELESS = {
    "z_tilde": [0.35, 0.45],
    "fixed_pol": [1.0, 0.0],
    "movable_pols": [[0.0, 1.0]],
    "probes": [[1.0, 0.0], [0.0, 1.0]],
    "sigma_center": [0.5, 0.75],
    "sigma_axes": [0.2, 0.08],
    "n_sources": 2,
    "grid_x1": [0.1, 0.35, 0.6, 0.85],
    "height": 1.1,
    "solver_n": 32,
}
# a valid ``rayleigh eval`` section
RAYLEIGH_EVAL = {"points": [[0.1, 0.8]], "coeffs": {"p": [[0, 1.0, 0.0]], "s": [[0, 0.5, -0.5]]}}
# the command that reads a section's fields
COMMAND_OF = {"verify": ["verify", "--suite", "quasiperiodicity"], "incident": ["solve2d"],
              "rayleigh": ["solve2d"], "phaseless": ["phaseless", "synth"]}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_eval_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["eval", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["eval", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert json.loads(lines[0][len("# config: "):])["truncation"] == {"tol": 1e-10}
    assert lines[1].split(",")[:2] == ["x1", "x2"]
    assert len(lines) == 4


def test_eval_missing_field_exit2(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["medium"] = {"lambda": 2.0, "omega": 1.0}  # mu missing
    p = write_cfg(tmp_path, cfg)
    rc = main(["eval", "--config", p, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "medium.mu" in capsys.readouterr().err


@pytest.mark.parametrize("field,literal", [
    ("truncation.tol", "0"), ("truncation.tol", "-1"), ("truncation.tol", "1e-400"),
    ("truncation.tol", "2"), ("truncation.tol", '"abc"'),
    ("verify.trials", "0"), ("verify.trials", "-3"), ("verify.trials", '"abc"'),
    ("truncation.gap_min", "0"), ("truncation.gap_min", "-1"),
    ("truncation.tol_wood", "0"), ("truncation.tol_wood", "-1e-8"),
    ("truncation.gap_min", '"x"'), ("truncation.tol_wood", '"x"'), ("medium.rho", '"x"'),
    ("truncation.gap_min", "1"), ("truncation.tol_wood", "1e-9"), ("truncation.tol_wod", "1e-8"),
    ("profile.cos", '["a"]'), ("profile.cos", "5"), ("profile.height", '"x"'),
    ("quasi_momentum.alpha", '["a", 1]'), ("eval.points", '[["a", 1]]'),
    ("incident.theta", "true"), ("rayleigh.m_modes", "2.7"), ("rayleigh.m_modes", "-2"),
    ("rayleigh.m_modes", '"x"'), ("rayleigh.height", '"x"'),
    ("phaseless.n_sources", '"3"'), ("phaseless.n_sources", "0"),
    ("phaseless.grid_x1", '"abc"'), ("phaseless.sigma_arc", "[0.1]"),
    ("phaseless.height", "true"), ("phaseless.frequencies", '["x"]'),
    ("eval.points", "[[0.1, NaN]]"), ("medium.omega", "Infinity"), ("medium.omega", "1e400"),
    ("incident.theta", "NaN"), ("profile.height", "NaN"), ("rayleigh.height", "NaN"),
])
def test_out_of_range_number_exit2(tmp_path, capsys, field, literal):
    """A tol outside (0, 1), a count below its least value, any gap_min or
    tol_wood (the near-source and Wood guards are fixed constants, so the
    keys are refused whatever their value), a number that is not finite
    (NaN, Infinity or 1e400, which Python's json reads) or a value that is
    not a number, an integer or a pair of numbers as its field needs is a config error
    naming the field, not a traceback, a one-mode sum, an empty mode list or
    a suite that passes having checked nothing.  Each field is read by the
    command of its section (``eval`` by default)."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["phaseless"] = dict(PHASELESS)
    section, key = field.split(".")
    cfg.setdefault(section, {})[key] = "@"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg).replace('"@"', literal))
    argv = COMMAND_OF.get(section, ["eval"]) + (
        ["--geometry", "biqp3d"] if section == "quasi_momentum" else [])
    assert main(argv + ["--config", str(p), "--out", str(tmp_path / "x.out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("command,section,literal,field", [
    ("eval", "truncation", "5", "truncation"),
    ("eval", "profile", "[0.1]", "profile"),
    ("eval", "verify", '"x"', "verify"),
    ("solve2d", "solver", '{"N": 0}', "solver.N"),
    ("solve2d", "solver", '{"N": 48}', "solver.N"),
    ("solve2d", "solver", '{"N": 64.0}', "solver.N"),
    ("solve2d", "solver", "64", "solver"),
    ("solve2d", "incident", '"plane_p"', "incident"),
    ("solve2d", "incident", '{"kind": "point_source", "source": ["a", 0.5], '
                            '"polarization": [1, 0]}', "incident.source"),
    ("solve2d", "incident", '{"kind": "point_source", "source": [0.3], '
                            '"polarization": [1, 0]}', "incident.source"),
    ("solve2d", "incident", '{"kind": "point_source", "source": [0.4, 0.3], '
                            '"polarization": [1, "b"]}', "incident.polarization"),
    ("rayleigh extract", "rayleigh", '{"m_modes": "x"}', "rayleigh.m_modes"),
    *(pytest.param("rayleigh eval", "rayleigh", json.dumps(dict(RAYLEIGH_EVAL, **change)), field,
                   id=f"rayleigh eval-{name}")
      for name, change, field in [
          ("points-not-numbers", {"points": [["a", 1]]}, "rayleigh.points"),
          ("points-not-pairs", {"points": [[0.1]]}, "rayleigh.points"),
          ("p-index-not-integer", {"coeffs": {"p": [[0.5, 1, 0]], "s": [[0, 0, 0]]}},
           "rayleigh.coeffs.p"),
          ("s-index-not-integer", {"coeffs": {"p": [[0, 1, 0]], "s": [["x", 0, 0]]}},
           "rayleigh.coeffs.s"),
          ("s-amplitude-not-number", {"coeffs": {"p": [[0, 1, 0]], "s": [[0, "x", 0]]}},
           "rayleigh.coeffs.s"),
          ("p-entry-too-long", {"coeffs": {"p": [[0, 1, 0, 5]], "s": [[0, 0, 0]]}},
           "rayleigh.coeffs.p"),
          ("s-other-mode", {"coeffs": {"p": [[0, 1, 0]], "s": [[1, 0, 0]]}}, "rayleigh.coeffs"),
          ("s-fewer-modes", {"coeffs": {"p": [[0, 1, 0]]}}, "rayleigh.coeffs"),
      ]),
    *(pytest.param(f"phaseless {action}", "phaseless", json.dumps(dict(PHASELESS, **change)),
                   field, id=f"phaseless {action}-{name}")
      for action, name, change, field in [
          ("synth", "fixed_pol-not-unit", {"fixed_pol": [1, 1]}, "phaseless.fixed_pol"),
          ("check", "fixed_pol-not-unit", {"fixed_pol": [1, 1]}, "phaseless.fixed_pol"),
          ("synth", "probes-colinear", {"probes": [[1, 0], [-1, 0]]}, "phaseless.probes"),
          ("synth", "z_tilde-below-profile", {"z_tilde": [0.35, -0.5]}, "phaseless.z_tilde"),
          ("synth", "frequencies-empty", {"frequencies": []}, "phaseless.frequencies"),
          ("synth", "grid_x1-empty", {"grid_x1": []}, "phaseless.grid_x1"),
          ("synth", "movable_pols-empty", {"movable_pols": []}, "phaseless.movable_pols"),
          ("synth", "probes-empty", {"probes": []}, "phaseless.probes"),
      ]),
])
def test_malformed_section_exit2(tmp_path, capsys, command, section, literal, field):
    """A section that is not an object, a node count that is not a power of
    two >= 32, a point source that is not two numbers, ``rayleigh eval``
    points that are not (n, 2) numbers, coefficients that are not [integer m,
    re, im] or list different p and s modes, a phaseless layout that
    ``SourceConfig.validate`` refuses and an empty list of phaseless
    frequencies are config errors naming the field, not a traceback, a mode
    index cut to an integer, a sum over the shorter list or a run that
    writes no data."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg[section] = "@"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg).replace('"@"', literal))
    assert main(command.split() + ["--config", str(p), "--out", str(tmp_path / "x.out")]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_phaseless_node_count_exit2(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["phaseless"] = {"solver_n": 48}
    p = write_cfg(tmp_path, cfg)
    assert main(["phaseless", "synth", "--config", p, "--out", str(tmp_path / "x.out")]) == 2
    assert "'phaseless.solver_n'" in capsys.readouterr().err


def test_eval_wood_anomaly_exit3(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["medium"]["omega"] = 1.0
    cfg["quasi_momentum"]["alpha"] = 0.5  # alpha == k_p
    p = write_cfg(tmp_path, cfg)
    assert main(["eval", "--config", p, "--out", str(tmp_path / "x.csv")]) == 3


def test_eval_wood_anomaly_names_mode(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["medium"]["omega"] = 1.0
    cfg["quasi_momentum"]["alpha"] = 0.5 + 4 * np.pi  # mode m = -2 at k_p
    p = write_cfg(tmp_path, cfg)
    assert main(["eval", "--config", p, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "WoodAnomaly" in err and "m=-2 " in err and "k_p^2" in err


@pytest.mark.parametrize("kind,draws", [
    ("qp2d", (-0.4117938542286799, 0.3978260002566869, -1.2520693994727907)),
    ("qp3d", (-0.4117938542286799, 0.3978260002566869, -1.2520693994727907)),
    ("biqp3d", ((-0.3202841088445288, 0.2075309506045041),
                (0.30942022242186756, -0.12977426884893659),
                (-0.9738317551455039, 0.23887497934161436))),
])
def test_rand_alpha_draws_pinned(kind, draws):
    """The verify suites draw the same quasi-momenta from the same seeds."""
    for seed, alpha in enumerate(draws):
        rng = np.random.default_rng(seed)
        med = checks.rand_medium(rng)
        assert checks.rand_alpha(rng, med, kind).alpha == alpha


def test_solve2d_unresolved_table_exit3(tmp_path, table_constants, capsys):
    import qpelastic.green2d as g2

    table_constants.setattr(g2, "_TABLE_TOL", 0.0)
    p = write_cfg(tmp_path, BASE_CONFIG)
    assert main(["solve2d", "--config", p, "--out", str(tmp_path / "r.json")]) == 3
    assert "TableUnresolved" in capsys.readouterr().err


def test_eval_3d_geometries(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["geometry"] = "qp3d"
    cfg["eval"] = {"source": [0, 0, 0], "points": [[0.3, 0.7, 0.6]]}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "g3.csv"
    assert main(["eval", "--config", p, "--out", str(out)]) == 0
    assert "re_G33" in out.read_text().splitlines()[1]

    cfg["geometry"] = "biqp3d"
    cfg["quasi_momentum"] = {"alpha": [0.3, 0.45]}
    cfg["eval"] = {"source": [0, 0, 0], "points": [[0.3, 0.2, 0.9]]}
    p = write_cfg(tmp_path, cfg, "cfg2.json")
    assert main(["eval", "--config", p, "--out", str(tmp_path / "g3b.csv")]) == 0


def _mixed_gap_points(geometry, src, rng):
    """Gaps from 0.02 (0.1 for biqp3d) to 1.5, each transverse position
    repeated at three x1, on both sides of the source."""
    pts = []
    if geometry == "biqp3d":
        for gap in (0.1, 0.35, 1.0, 1.5):
            for t in (gap, -gap):
                x2 = rng.uniform(-1, 1)
                pts += [[x1, x2 + k, src[2] + t] for k, x1 in enumerate(rng.uniform(-1, 2, 3))]
        return pts
    for gap in (0.02, 0.05, 0.25, 1.0, 1.5):
        for sign in (1.0, -1.0):
            if geometry == "qp2d":
                t = [src[1] + sign * gap]
            else:
                phi = rng.uniform(0, np.pi)
                t = [src[1] + gap * np.cos(phi), src[2] + sign * gap * np.sin(phi)]
            pts += [[x1] + t for x1 in rng.uniform(-1, 2, 3)]
    return pts


@pytest.mark.parametrize("geometry", ["qp2d", "qp3d", "biqp3d"])
def test_eval_rows_equal_point_calls(tmp_path, geometry):
    """Each row keeps the window of a call on its point alone, mixed gaps or not."""
    rng = np.random.default_rng(7)
    dim = 2 if geometry == "qp2d" else 3
    src = [0.1, -0.05, 0.02][:dim]
    alpha = [0.3, -0.2] if geometry == "biqp3d" else 0.3
    pts = _mixed_gap_points(geometry, src, rng)
    cfg = {"medium": {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "omega": 2.0},
           "geometry": geometry, "quasi_momentum": {"alpha": alpha},
           "truncation": {"tol": 1e-10}, "eval": {"source": src, "points": pts}}
    p = write_cfg(tmp_path, cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", "--config", p, "--out", str(out1)]) == 0
    assert main(["eval", "--config", p, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum(geometry, alpha, med)
    evalf = {"qp2d": green2d_eval, "qp3d": green3dqp_eval, "biqp3d": greenbi_eval}[geometry]
    rows = [ln.split(",") for ln in out1.read_text().splitlines()[2:]]
    assert len(rows) == len(pts)
    modes = set()
    for x, row in zip(pts, rows):
        # every number field round-trips through %.17g; modes_used is a plain integer
        assert all(v == "%.17g" % float(v) for v in row[:-2] + row[-1:])
        assert row[-2] == str(int(row[-2]))
        g = evalf(med, q, np.array(x), np.array(src), 1e-10)
        vals = np.array([float(v) for v in row[dim:-2]])
        got = (vals[0::2] + 1j * vals[1::2]).reshape(dim, dim)
        assert [float(v) for v in row[:dim]] == x
        assert int(row[-2]) == g.modes_used
        assert float(row[-1]) == g.tail_bound
        assert np.max(np.abs(got - g.value)) <= 1e-12 * np.max(np.abs(g.value))
        modes.add(g.modes_used)
    assert len(modes) >= 4


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_suites_pass(tmp_path, suite):
    p = write_cfg(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.json"
    rc = main(["verify", "--config", p, "--suite", suite, "--out", str(out), "--seed", "3"])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["seed"] == 3
    assert rep["worst"] <= rep["tolerance"]


def test_solve2d_report(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["profile"] = {"height": 0.0, "cos": [], "sin": [0.1]}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "sol.json"
    assert main(["solve2d", "--config", p, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["boundary_residual"] < 1e-5
    assert rep["energy"]["balance"] < 1e-3
    assert len(rep["density"]) == 2 * 64
    assert rep["config"]["profile"]["sin"] == [0.1]
    # one write of json.dumps gives the bytes of json.dump's chunked writes
    chunked = io.StringIO()
    json.dump(rep, chunked, indent=2, sort_keys=True)
    assert out.read_bytes() == (chunked.getvalue() + "\n").encode("utf-8")


def test_solve2d_rayleigh_modes_do_not_depend_on_height(tmp_path):
    """The coefficients come from the density; rayleigh.height only places
    the energy-flux line."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["profile"] = {"height": 0.0, "cos": [], "sin": [0.1]}
    reps = []
    for h in (0.6, 0.9):
        cfg["rayleigh"] = {"height": h, "m_modes": 5}
        out = tmp_path / f"sol{h}.json"
        assert main(["solve2d", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        reps.append(json.loads(out.read_text())["rayleigh"])
    assert [r["height"] for r in reps] == [0.6, 0.9]
    assert reps[0]["modes"] == reps[1]["modes"] and len(reps[0]["modes"]) == 11


def test_rayleigh_roundtrip_via_cli(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["profile"] = {"height": 0.0, "cos": [], "sin": [0.1]}
    cfg["rayleigh"] = {"m_modes": 4}
    p = write_cfg(tmp_path, cfg)
    coef = tmp_path / "coef.json"
    assert main(["rayleigh", "extract", "--config", p, "--out", str(coef)]) == 0
    data = json.loads(coef.read_text())
    assert len(data["p"]) == 9 and "height" not in data

    cfg2 = json.loads(json.dumps(BASE_CONFIG))
    cfg2["rayleigh"] = {
        "coeffs": {"p": data["p"], "s": data["s"]},
        "points": [[0.1, 0.8], [0.4, 0.9]],
    }
    p2 = write_cfg(tmp_path, cfg2, "cfg_eval.json")
    out = tmp_path / "field.csv"
    assert main(["rayleigh", "eval", "--config", p2, "--out", str(out)]) == 0
    # the rows, cell by cell as the writer formatted them before it shared
    # the eval CSV's row template
    rc = cli.resolve_config(cfg2)
    med = cli._medium_of(rc)
    q = cli._momentum_of(rc, med)
    modes = ModeTable.of(med, q, [int(e[0]) for e in data["p"]])
    co = RayleighCoeffs2(modes, np.array([e[1] + 1j * e[2] for e in data["p"]]),
                         np.array([e[1] + 1j * e[2] for e in data["s"]]))
    pts = np.array(cfg2["rayleigh"]["points"])
    lines = ["# config: " + json.dumps(rc, sort_keys=True), "x1,x2,re_u1,im_u1,re_u2,im_u2"]
    lines += [",".join("%.17g" % float(v) for v in (x[0], x[1], u[0].real, u[0].imag,
                                                     u[1].real, u[1].imag))
              for x, u in zip(pts, eval_rayleigh_2d(med, q, co, pts))]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_phaseless_synth_and_check(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["profile"] = {"height": 0.0, "cos": [], "sin": [0.1]}
    cfg["phaseless"] = dict(PHASELESS)
    p = write_cfg(tmp_path, cfg)
    ds_path = tmp_path / "ds.json"
    assert main(["phaseless", "synth", "--config", p, "--out", str(ds_path)]) == 0
    data = json.loads(ds_path.read_text())
    key = next(iter(data["datasets"]))
    assert np.asarray(data["datasets"][key]["r"]).shape == (2, 4)

    cfg["phaseless"]["reference"] = str(ds_path)
    p2 = write_cfg(tmp_path, cfg, "cfg_check.json")
    rep_path = tmp_path / "rep.json"
    assert main(["phaseless", "check", "--config", p2, "--out", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    assert rep["worst_cosine_discrepancy"] == 0.0


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CONFIG)
    out = tmp_path / "c.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qpelastic.cli", "eval", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_solve2d_point_source_past_table_limit_exit3(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["medium"]["omega"] = 160.0
    cfg["solver"]["N"] = 32
    cfg["incident"] = {"kind": "point_source", "source": [0.4, 0.3], "polarization": [1.0, 0.0]}
    p = write_cfg(tmp_path, cfg)
    assert main(["solve2d", "--config", p, "--out", str(tmp_path / "r.json")]) == 3
    assert "TableUnresolved" in capsys.readouterr().err
