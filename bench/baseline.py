"""Regenerate the ROADMAP Baseline rows in one command.

    python3 bench/baseline.py [--out FILE]

Rows, each from one run with BLAS on one thread:

* BEM solve on the 0.1 sinusoid, omega=5, plane_p at theta=0.25, for
  N = 64, 128, 256: ``solve_dirichlet`` wall time, the near-line kernel on
  the N(N-1) off-diagonal node pairs (and its microseconds per pair), LU of
  a 2N x 2N complex matrix, ``boundary_residual`` wall time and value, and
  ``eval_scattered`` at 10 points;
* the plain spectral series at omega=2 over 200 points with gaps drawn in
  [0.5, 1.5] (seed 0), in microseconds per point, for qp2d, qp3d and biqp3d.

Prints one JSON object; ``--out`` also writes it to a file.  Takes about a
minute on a 2-core machine, most of it at N=256.
"""

import argparse
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json            # noqa: E402
import platform        # noqa: E402
import time            # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np     # noqa: E402
import scipy           # noqa: E402
from scipy.linalg import lu_factor  # noqa: E402

from qpelastic import (ProfileCurve2, boundary_residual, eval_scattered,  # noqa: E402
                       green2d_eval, greenbi_eval, green3dqp_eval, make_medium,
                       make_quasi_momentum, plane_incidence, solve_dirichlet)
from qpelastic.green2d import green2d_near_line_batch  # noqa: E402


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bem_rows(ns=(64, 128, 256)):
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    inc, q = plane_incidence(med, "plane_p", 0.25)
    prof = ProfileCurve2(0.0, (), (0.1,))
    rows = []
    for n in ns:
        sol, t_solve = _timed(lambda: solve_dirichlet(med, q, prof, inc, N=n))
        t = np.arange(n) / n
        f = prof.f(t)
        dt = t[:, None] - t[None, :]
        off = ~np.eye(n, dtype=bool)
        tau = (dt - np.round(dt))[off]
        d = (f[:, None] - f[None, :])[off]
        _, t_kernel = _timed(lambda: green2d_near_line_batch(med, q.alpha, tau, d))
        rng = np.random.default_rng(n)
        M = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        _, t_lu = _timed(lambda: lu_factor(M))
        resid, t_resid = _timed(lambda: boundary_residual(sol))
        X = np.stack([np.linspace(0.05, 0.95, 10), np.full(10, 0.6)], axis=-1)
        _, t_eval = _timed(lambda: eval_scattered(sol, X))
        rows.append({"N": n, "solve_s": t_solve, "kernel_s": t_kernel,
                     "kernel_pairs": int(tau.size),
                     "kernel_us_per_pair": 1e6 * t_kernel / tau.size, "lu_s": t_lu,
                     "residual_s": t_resid, "eval_scattered_10pt_s": t_eval,
                     "residual": resid})
    return rows


def series_rows(npts=200):
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    rng = np.random.default_rng(0)
    x1 = rng.uniform(0, 1, npts)
    gap = rng.uniform(0.5, 1.5, npts)
    cases = {
        "qp2d": (green2d_eval, make_quasi_momentum("qp2d", 0.3, med),
                 np.stack([x1, gap], axis=-1), np.zeros(2)),
        "qp3d": (green3dqp_eval, make_quasi_momentum("qp3d", 0.3, med),
                 np.stack([x1, gap * 0.6, gap * 0.8], axis=-1), np.zeros(3)),
        "biqp3d": (greenbi_eval, make_quasi_momentum("biqp3d", (0.3, 0.2), med),
                   np.stack([x1, rng.uniform(0, 1, npts), gap], axis=-1), np.zeros(3)),
    }
    rows = []
    for kind, (fn, q, pts, y) in cases.items():
        _, t = _timed(lambda: [fn(med, q, x, y) for x in pts])
        rows.append({"geometry": kind, "points": npts, "us_per_pt": 1e6 * t / npts})
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description="ROADMAP Baseline rows")
    p.add_argument("--out", default=None, help="also write the JSON to this file")
    args = p.parse_args(argv)
    report = {
        "machine": {"cpus": os.cpu_count(), "blas_threads": 1,
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__},
        "bem": bem_rows(),
        "series": series_rows(),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
