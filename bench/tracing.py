"""Span and count tracing for the benchmark, built from the benchmark's own files.

Nothing inside ``src/`` is instrumented.  Instead, ``Tracer.install`` replaces
module attributes of the imported package by thin wrappers: each wrapper sits
under the name its callers use (``bem2d.green2d_near_line_batch`` is the
binding ``bem2d`` calls, which is a different attribute from the one in
``green2d``).  A wrapper records a span (name, start, end, parent) or only
adds to a count.  Spans and counts stay in memory; ``write`` puts them in a
file at the end.  A binding that no longer exists is reported as absent.

The wrappers pass straight through while ``active`` is false, so the
benchmark's own correctness checks do not add to the layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

PKG = "qpelastic"

# (span name, bindings that get a timing wrapper).  A binding is
# "module.attr" or "module.Class.attr", relative to the package.
SPANS = [
    ("cli.main", ["cli.main"]),
    ("near_line", ["bem2d.green2d_near_line_batch", "phaseless.green2d_near_line_batch",
                   "green2d.green2d_near_line_batch"]),
    ("series2d", ["green2d.green2d_eval_batch", "cli.green2d_eval_batch"]),
    ("series_qp", ["green3d_qp.green3dqp_eval_batch", "cli.green3dqp_eval_batch"]),
    ("series_bi", ["green3d_biqp.greenbi_eval_batch", "cli.greenbi_eval_batch"]),
    ("specfun", ["green3d_qp.u0", "green3d_qp.u1", "rayleigh.hankel1",
                 "rayleigh.hankel1_deriv", "cli.bessel_j", "cli.hankel1",
                 "cli.hankel1_deriv", "cli.mod_k", "cli.mod_k_deriv", "specfun.mod_k"]),
    ("lattice_sum", ["cli.lattice_sum"]),
    ("solve", ["cli.solve_dirichlet", "bem2d.solve_dirichlet_multi",
               "phaseless.solve_dirichlet_multi"]),
    ("lu_factor", ["bem2d.lu_factor"]),
    ("lu_solve", ["bem2d.lu_solve"]),
    ("residual", ["cli.boundary_residual"]),
    ("eval_scattered", ["cli.eval_scattered", "phaseless.eval_scattered"]),
    ("incident", ["bem2d.IncidentField.jet"]),
    ("rayleigh_extract", ["cli.extract_coeffs_2d"]),
    ("rayleigh_flux", ["cli.flux_2d"]),
    ("synth", ["phaseless.synth_phaseless"]),
    ("reciprocity", ["phaseless.check_reciprocity"]),
]

# (count name, bindings that only count calls and array elements)
COUNTS = [
    ("mode_window", ["green2d.mode_window", "green3d_qp.mode_window"]),
    ("branch_sqrt", ["green2d.branch_sqrt"]),
]


def _npoints(X):
    return int(np.atleast_2d(np.asarray(X)).shape[0])


class Tracer:
    """In-memory spans and counts around the package's public functions."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self.absent = []
        self._stack = []         # indices of open spans
        self._open = {}          # span name -> number of open spans of that name
        self._restore = []

    # -- recording ---------------------------------------------------------
    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _inside(self, name):
        return self._open.get(name, 0) > 0

    def _span_wrapper(self, name, fn, is_method):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost = not tracer._inside(name)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
            if outermost:
                tracer._count_work(name, args[1:] if is_method else args, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.add(f"{name}.calls")
                if name == "branch_sqrt":
                    size = int(np.size(args[0]))
                    if tracer._inside("near_line"):
                        tracer.add("branch_sqrt.near_line", size)
                    elif tracer._inside("series2d"):
                        tracer.add("branch_sqrt.series2d", size)
            return fn(*args, **kwargs)

        return wrapper

    def _count_work(self, name, args, out):
        """Work done by the outermost span of a layer: pairs, points, modes."""
        if name == "near_line":
            self.add("near_line.pairs", int(np.size(args[2])))
        elif name == "series2d":
            self.add("series2d.points", _npoints(args[2]))
        elif name in ("series_qp", "series_bi"):
            n = _npoints(args[2])
            self.add(f"{name}.points", n)
            self.add(f"{name}.modes", n * int(out[2]))
        elif name == "eval_scattered":
            self.add("eval_scattered.points", _npoints(args[1]))
        elif name == "incident":
            self.add("incident.points", _npoints(args[2]))
        elif name == "lattice_sum":
            self.add("lattice_sum.copies", int(out.modes_used))
        elif name in ("lu_factor", "lu_solve"):
            self.add(f"{name}.count")

    # -- installation ------------------------------------------------------
    def _resolve(self, binding):
        parts = binding.split(".")
        try:
            owner = importlib.import_module(f"{PKG}.{parts[0]}")
            for p in parts[1:-1]:
                owner = getattr(owner, p)
            fn = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            return None, None, None
        return owner, parts[-1], fn

    def install(self):
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for name, bindings in table:
                for b in bindings:
                    owner, attr, fn = self._resolve(b)
                    if fn is None or not callable(fn):
                        self.absent.append(b)
                        continue
                    is_method = isinstance(owner, type)
                    wrapped = (self._span_wrapper(name, fn, is_method) if kind == "span"
                               else self._count_wrapper(name, fn))
                    setattr(owner, attr, wrapped)
                    self._restore.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------
    def totals(self, scale):
        """Per span name: (total time of outermost spans, summed self time).

        ``scale(t)`` is the speed factor of the operation running at time t.
        """
        durs = [(t1 - t0) * scale(t0) for _, t0, t1, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (name, t0, t1, parent), dur in zip(self.spans, durs):
            if parent >= 0:
                child[parent] += dur
        total, self_t = {}, {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            dur = durs[i]
            self_t[name] = self_t.get(name, 0.0) + dur - child[i]
            nested = False
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                total[name] = total.get(name, 0.0) + dur
        return total, self_t

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent},
                      fh)
            fh.write("\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, scale):
    """Per-layer figures per traced round; rates use the layer's own work count.

    Times are scaled to the reference speed by ``scale(t)``, as end-to-end
    times are.
    """
    total, self_t = tracer.totals(scale)
    c = tracer.counts
    T = lambda n: total.get(n, 0.0)        # noqa: E731
    S = lambda n: self_t.get(n, 0.0)       # noqa: E731
    per = lambda v: v / rounds             # noqa: E731
    pairs = c.get("near_line.pairs", 0)
    factorizations = c.get("lu_factor.count", 0)
    m = {
        "green2d.near_line.us_per_pair": (1e6 * _ratio(T("near_line"), pairs), "us"),
        # two branch roots (p and s) per mode matrix
        "green2d.near_line.mode_matrices_per_pair":
            (_ratio(c.get("branch_sqrt.near_line", 0) / 2, pairs), "count"),
        "green2d.near_line.pairs": (per(pairs), "count"),
        "green2d.near_line.self_s": (per(S("near_line")), "s"),
        "green2d.series.us_per_pt":
            (1e6 * _ratio(T("series2d"), c.get("series2d.points", 0)), "us"),
        "green2d.series.modes_per_pt":
            (_ratio(c.get("branch_sqrt.series2d", 0) / 2, c.get("series2d.points", 0)), "count"),
        "green3d_qp.series.us_per_pt":
            (1e6 * _ratio(T("series_qp"), c.get("series_qp.points", 0)), "us"),
        "green3d_qp.series.modes_per_pt":
            (_ratio(c.get("series_qp.modes", 0), c.get("series_qp.points", 0)), "count"),
        "green3d_biqp.series.us_per_pt":
            (1e6 * _ratio(T("series_bi"), c.get("series_bi.points", 0)), "us"),
        "green3d_biqp.series.modes_per_pt":
            (_ratio(c.get("series_bi.modes", 0), c.get("series_bi.points", 0)), "count"),
        "specfun.self_s": (per(S("specfun")), "s"),
        "green_free.lattice_sum_s": (per(T("lattice_sum")), "s"),
        "green_free.lattice_copies": (per(c.get("lattice_sum.copies", 0)), "count"),
        "medium.mode_window.calls": (per(c.get("mode_window.calls", 0)), "count"),
        "bem2d.assemble_self_s": (per(S("solve")), "s"),
        "bem2d.lu_s": (per(T("lu_factor") + T("lu_solve")), "s"),
        "bem2d.factorizations": (per(factorizations), "count"),
        "bem2d.rhs_per_factorization":
            (_ratio(c.get("lu_solve.count", 0), factorizations), "count"),
        "bem2d.residual_s": (per(T("residual")), "s"),
        "bem2d.eval_scattered.us_per_pt":
            (1e6 * _ratio(T("eval_scattered"), c.get("eval_scattered.points", 0)), "us"),
        "bem2d.incident.us_per_pt":
            (1e6 * _ratio(T("incident"), c.get("incident.points", 0)), "us"),
        "rayleigh.extract_s": (per(T("rayleigh_extract")), "s"),
        "rayleigh.flux_s": (per(T("rayleigh_flux")), "s"),
        "phaseless.synth_self_s": (per(S("synth")), "s"),
        "phaseless.reciprocity_self_s": (per(S("reciprocity")), "s"),
        "cli.self_s": (per(S("cli.main")), "s"),
        "trace.absent_names": (len(tracer.absent), "count"),
    }
    return m

