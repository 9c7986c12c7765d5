"""Benchmark of qpelastic: one process, one caller, closed loop.

    python3 bench/run.py --workload grating|phaseless|series --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy.  The run builds the workload's
inputs from the seed, measures set-up time in fresh processes, then runs
whole rounds of the workload's operations until ``--seconds`` have passed,
checking every round's outputs.  BLAS runs on one thread.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate, the metrics are the per-layer ones, and the spans are written to
``.bench_run/trace-<workload>-s<seed>.json``.
"""

import argparse
import bisect
import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json            # noqa: E402
import platform        # noqa: E402
import resource        # noqa: E402
import shutil          # noqa: E402
import statistics      # noqa: E402
import subprocess      # noqa: E402
import time            # noqa: E402
import traceback       # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("grating", "phaseless", "series")
CALIBRATE_EVERY_S = 0.5


class SpeedProbe:
    """A fixed numpy kernel, timed between operations, that tracks machine speed.

    On a shared machine the speed of one core drifts by tens of percent over
    tens of seconds, for the program and for any other code alike.  The
    kernel resembles the program's hot loops (complex exp/sqrt over a
    (2048, 132) array, then a contraction with a (2048, 132, 2, 2) stack, about
    30 MB in buffers allocated once), and it does not use the package, so a
    change to the program leaves it alone.  An operation's time is scaled by
    ``REF_S`` over the mean of the probe times just before and just after it.
    """

    REF_S = 0.09     # the probe's time on the reference machine (see README)

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        shape = (2048, 132)
        self.b = rng.uniform(0.1, 2.0, shape) + 1j * rng.uniform(0.0, 1.0, shape)
        self.y = np.empty_like(self.b)
        self.t = np.empty_like(self.b)
        self.m = np.empty(shape + (2, 2), dtype=complex)
        self.samples = []    # (start, seconds)
        self.last = -1e300

    def sample(self):
        np, b, y, t, m = self.np, self.b, self.y, self.t, self.m
        t0 = time.perf_counter()
        for _ in range(3):
            np.multiply(b, 1j, out=y)
            np.exp(y, out=y)
            np.multiply(b, b, out=t)
            t += 1.0
            np.sqrt(t, out=t)
            y *= t
            m[..., 0, 0] = y
            np.multiply(b, y, out=m[..., 0, 1])
            np.subtract(y, b, out=m[..., 1, 0])
            np.multiply(y, y, out=m[..., 1, 1])
            np.einsum("pk,pkab->pab", b, m)
        self.last = time.perf_counter()
        self.samples.append((t0, self.last - t0))

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, t0, t1):
        """REF_S over the mean probe time around the interval [t0, t1]."""
        before = [s for start, s in self.samples if start <= t0][-1]
        after = next(s for start, s in self.samples if start >= t1)
        return self.REF_S / (0.5 * (before + after))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _import_package():
    """Import qpelastic from this checkout's src/ or exit with code 2."""
    if not (SRC / "qpelastic" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qpelastic
    if Path(qpelastic.__file__).resolve().parent != (SRC / "qpelastic").resolve():
        print(f"bench: imported qpelastic from {qpelastic.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _setup_sample(args, workdir):
    """Seconds from process start until the workload's configs are resolved."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-child", str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return dt


def _run_round(ops, tracer, traced, probe):
    from workloads import Result
    results = []
    for op in ops:
        probe.maybe_sample()
        if tracer is not None:
            tracer.active = traced
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:  # the program raised: a failed operation, not a crash
            out, err = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if err is None and op.is_cli and out != 0:
            err = f"exit code {out}"
        results.append(Result(op, dt, out, err, t0=t0))
    probe.sample()
    for r in results:
        r.scaled = r.seconds * probe.scale(r.t0, r.t0 + r.seconds)
    return results


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    args = _parse(argv)
    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_child is not None:
        cls(args.seed, args.setup_child).resolve()
        print("ready", flush=True)
        return 0

    run_dir = ROOT / ".bench_run"
    workdir = run_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, cls, workdir, run_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cls, workdir, run_dir):
    import numpy as np
    import scipy
    import tracing

    work = cls(args.seed, str(workdir))
    work.write_inputs()
    probe = SpeedProbe()
    probe.sample()
    setup_raw, setup = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        setup_raw.append(_setup_sample(args, workdir))
        probe.sample()
        setup.append(setup_raw[-1] * probe.scale(t0, t0 + setup_raw[-1]))

    ops = work.ops()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    rounds = []   # (traced, results, extras)
    t_start = time.perf_counter()
    lengths = []
    try:
        while True:
            t_round = time.perf_counter()
            traced = bool(args.trace) and len(rounds) % 2 == 1
            results = _run_round(ops, tracer, traced, probe)
            rounds.append((traced, results, work.check(results)))
            lengths.append(time.perf_counter() - t_round)
            # start no round that would end after the deadline
            end = time.perf_counter() - t_start + statistics.median(lengths)
            if end > args.seconds and (not args.trace or len(rounds) >= 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    all_results = [r for _, res, _ in rounds for r in res]
    reported = set()
    for r in all_results:
        msgs = ([r.error] if r.error and not r.op.known_fault else []) + r.fail_msgs
        for msg in msgs:
            if (r.op.name, msg) not in reported:
                reported.add((r.op.name, msg))
                print(f"bench: {r.op.name}: {msg.strip()}", file=sys.stderr)

    plain = [res for traced, res, _ in rounds if not traced]
    round_s = statistics.median(sum(r.scaled for r in res) for res in plain)
    if args.trace:
        metrics = _per_layer(tracer, rounds, round_s, args, run_dir)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": _metric(statistics.median(setup), "s"),
                   "round_s": _metric(round_s, "s"),
                   "peak_rss_mb": _metric(rss_mb, "MB")}

    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "ops_per_round": len(ops), "cpus": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "setup_wall_s": [round(s, 4) for s in setup_raw],
            "round_wall_s": [round(sum(r.seconds for r in res), 4) for _, res, _ in rounds],
            "probe_median_s": round(statistics.median(s for _, s in probe.samples), 5),
            "op_median_s": {op.name: round(statistics.median(
                r.seconds for r in all_results if r.op is op), 4) for op in ops}}
    print("bench-info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not any(r.fail_msgs for r in all_results),
        "attempted": len(all_results),
        "failed": sum(r.failed for r in all_results),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def _per_layer(tracer, rounds, round_s, args, run_dir):
    import tracing

    traced = [res for t, res, _ in rounds if t]
    plain = [(res, extras) for t, res, extras in rounds if not t]
    traced_s = statistics.median(sum(r.scaled for r in res) for res in traced)
    ops = sorted((r.t0, r.scaled / r.seconds) for res in traced for r in res)
    starts = [t0 for t0, _ in ops]

    def scale(t):
        return ops[bisect.bisect_right(starts, t) - 1][1]

    layers = tracing.layer_metrics(tracer, len(traced), scale)
    m = {k: _metric(v, u) for k, (v, u) in layers.items()}

    def phase_s(phase):
        return statistics.median(sum(r.scaled for r in res if r.op.phase == phase)
                                 for res, _ in plain)

    def extra(key):
        vals = [ex[key] for _, ex in plain if key in ex]
        return statistics.median(vals) if vals else 0.0

    eval_s = phase_s("eval")
    m.update({
        "solve2d_s": _metric(phase_s("solve2d"), "s"),
        "residual_digits": _metric(extra("residual_digits"), "digits"),
        "synth_s": _metric(phase_s("synth"), "s"),
        "reciprocity_s": _metric(phase_s("reciprocity"), "s"),
        "eval_tensors_per_s": _metric(extra("tensors") / eval_s if eval_s else 0.0, "1/s"),
        "verify_s": _metric(phase_s("verify"), "s"),
        "trace.overhead_s": _metric(traced_s - round_s, "s"),
    })
    run_dir.mkdir(exist_ok=True)
    tracer.write(run_dir / f"trace-{args.workload}-s{args.seed}.json")
    return m


if __name__ == "__main__":
    sys.exit(main())
