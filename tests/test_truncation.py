"""The one truncation rule: every series window is the smallest whose own
tail bound is <= tol, and the bounds are actual, sharp bounds.

The gap ladders and the medium are the ``series`` benchmark's (omega = 2);
each case runs at real and at complexified frequency.
"""

import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import mode_blocks_2d
from qpelastic import green2d, green3d_biqp, green3d_qp
from qpelastic.green3d_biqp import c_bi_arrays
from qpelastic.green3d_qp import c_arrays
from qpelastic.medium import ModeTable, make_medium, make_quasi_momentum, mode_window, series_window

GAPS = {"qp2d": (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5),
        "qp3d": (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5),
        "biqp3d": (0.1, 0.2, 0.35, 0.6, 1.0, 1.5)}
ALPHA = {"qp2d": 0.3, "qp3d": 0.3, "biqp3d": (0.3, -0.2)}
EVAL = {"qp2d": green2d.green2d_eval, "qp3d": green3d_qp.green3dqp_eval,
        "biqp3d": green3d_biqp.greenbi_eval}
BOUND = {"qp2d": green2d._tail_bound, "qp3d": green3d_qp._tail_bound,
         "biqp3d": green3d_biqp._tail_bound}


def _medium(eta):
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    return med.complexified(eta) if eta else med


def _bound_without_largest(kind, q, modes, bound, gap):
    """The tail bound of the window without its largest |alpha_l|: beyond the radius
    midway between its two largest |alpha_l| (pair lattice), or from the first
    omitted mode of each side (scalar lattice)."""
    r = np.unique(np.sqrt(modes.alpha_sq))
    if kind == "biqp3d":
        return bound((r[-2] + r[-1]) / 2, gap)
    kept = modes.m[np.sqrt(modes.alpha_sq) < r[-1]]
    return sum(bound(abs(q.alpha + 2 * np.pi * m), gap) for m in (kept.min() - 1, kept.max() + 1))


def _point(kind, gap):
    return {"qp2d": [0.3, -gap], "qp3d": [0.3, 0.6 * gap, -0.8 * gap],
            "biqp3d": [0.3, 0.1, -gap]}[kind]


@pytest.mark.parametrize("eta", [0.0, 0.1])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-13])
@pytest.mark.parametrize("kind", ["qp2d", "qp3d", "biqp3d"])
def test_window_is_the_smallest_whose_tail_is_within_tol(kind, tol, eta):
    """The reported tail is <= tol, and the window without its largest
    |alpha_l| has a bound > tol."""
    med = _medium(eta)
    q = make_quasi_momentum(kind, ALPHA[kind])
    bound = BOUND[kind](med)
    for gap in GAPS[kind]:
        x = np.array(_point(kind, gap))
        got = EVAL[kind](med, q, x, np.zeros(len(x)), tol)
        modes, tail = series_window(med, q, gap, tol, bound)
        assert got.modes_used == len(modes.m)
        assert got.tail_bound == tail(gap) <= tol
        assert _bound_without_largest(kind, q, modes, bound, gap) > tol
        # symmetric under (alpha, m) -> (-alpha, -m)
        neg = series_window(med, q.negated(), gap, tol, bound)[0]
        assert sorted(map(tuple, -np.reshape(neg.m, (len(neg.m), -1)))) == \
            sorted(map(tuple, np.reshape(modes.m, (len(modes.m), -1))))


def _first_midpoint_within_tol(kind, q, modes, bound, gap, tol):
    """Brute force over the widened disk ``modes``: the first midpoint R between
    neighbouring distinct |alpha_l| whose tail bound is <= tol, and that bound;
    the scalar lattice's bound is the sum over the first omitted mode of each side."""
    a = np.sqrt(modes.alpha_sq)
    order = np.argsort(a, kind="stable")
    a_sorted = a[order]
    if kind != "biqp3d":   # the extreme indices inside each radius
        lo = np.minimum.accumulate(modes.m[order])
        hi = np.maximum.accumulate(modes.m[order])
    radii = np.unique(a)
    for R in ((radii[:-1] + radii[1:]) / 2).tolist():
        if kind == "biqp3d":
            b = bound(R, gap)
        else:
            last = np.searchsorted(a_sorted, R, "right") - 1
            b = bound(abs(q.alpha + 2 * np.pi * (lo[last] - 1)), gap) \
                + bound(abs(q.alpha + 2 * np.pi * (hi[last] + 1)), gap)
        if b <= tol:
            return R, b
    raise AssertionError("no midpoint of the disk has a bound <= tol")


# gap 0.01-3 on the scalar lattices; the pair lattice's disk grows like
# 1/gap^2, to about 8e5 modes at gap 0.01 and tol 1e-14, so it starts at 0.05
GAP_RANGE = {"qp2d": (0.01, 3.0), "qp3d": (0.01, 3.0), "biqp3d": (0.05, 3.0)}


@pytest.mark.parametrize("kind", ["qp2d", "qp3d", "biqp3d"])
def test_window_is_the_first_midpoint_within_tol(kind, rng):
    """On random media, momenta, gaps and tolerances, at real and complex
    frequency, the window and its tail are those of the first midpoint of
    the widened disk whose tail bound is <= tol."""
    for case in range(100):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, kind)
        if case % 2:
            med = med.complexified(float(rng.uniform(0.01, 0.3)))
        gap = float(np.exp(rng.uniform(*np.log(GAP_RANGE[kind]))))
        tol = float(10.0 ** rng.uniform(-14, -3))
        bound = BOUND[kind](med)
        modes, tail = series_window(med, q, gap, tol, bound)
        # the modes within 4 pi beyond the window's largest |alpha_l|
        disk = ModeTable.within(med, q, np.sqrt(np.max(modes.alpha_sq)) + 4 * np.pi)
        R, b = _first_midpoint_within_tol(kind, q, disk, bound, gap, tol)
        assert np.array_equal(modes.m, disk.m[np.sqrt(disk.alpha_sq) <= R]), (case, gap, tol)
        assert tail(gap) == b


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-13])
@pytest.mark.parametrize("kind", ["qp2d", "qp3d"])
def test_no_window_grows_past_the_bare_exponential_rule(kind, tol):
    """On the ladder no window holds 5% more modes than the modes with
    e^{-Im(gamma_l) gap} >= tol, which ignores every prefactor."""
    med = _medium(0.0)
    q = make_quasi_momentum(kind, ALPHA[kind])
    for gap in GAPS[kind]:
        n = len(series_window(med, q, gap, tol, BOUND[kind](med))[0].m)
        assert n <= 1.05 * len(mode_window(med, q, gap, tol))


def test_biqp3d_disk_at_the_smallest_gap():
    q = make_quasi_momentum("biqp3d", ALPHA["biqp3d"])
    for eta in (0.0, 0.1):
        med = _medium(eta)
        modes = series_window(med, q, 0.1, 1e-10, BOUND["biqp3d"](med))[0]
        assert len(modes.m) <= 4500


def _omitted_sum(kind, med, q, modes, gap):
    """Sum over the omitted modes of each mode's largest entry at the ``_point``
    of ``gap``: the next 600 modes out on either side of the window (scalar
    lattice), or the pair lattice's annulus beyond the window, ring by ring
    of width 2 pi until a ring adds less than 1e-6 of the sum."""
    if kind == "biqp3d":
        r, total = float(np.sqrt(np.max(modes.alpha_sq))), 0.0
        while True:
            disk = ModeTable.within(med, q, r + 2 * np.pi)
            ring = ModeTable.of(med, q, disk.m[disk.alpha_sq > r * r])
            add = float(np.sum(np.max(np.abs(c_bi_arrays(med, ring, gap)), axis=(-2, -1))))
            total, r = total + add, r + 2 * np.pi
            if add < 1e-6 * total:
                return total
    lo, hi = int(modes.m.min()), int(modes.m.max())
    out = ModeTable.of(med, q, np.r_[lo - 600:lo, hi + 1:hi + 601])
    if kind == "qp2d":
        terms = mode_blocks_2d(med, out, gap, 1.0)
    else:
        x = _point(kind, gap)
        terms = c_arrays(med, out, x[1], x[2])
    return float(np.sum(np.max(np.abs(terms), axis=(-2, -1))))


@pytest.mark.parametrize("eta", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["qp2d", "qp3d", "biqp3d"])
def test_bound_within_ten_times_the_omitted_modes(kind, eta):
    """At tol 1e-10 along the ladder each reported tail lies between the
    summed magnitude of the omitted modes and ten times it.

    One case is held to 30 times instead: biqp3d at gap 1.5, where the bound
    reads 26.5 times the omitted sum.  There one mode lies just beyond the
    window and carries 97% of that sum, while the bound knows the lattice
    only through its disk count, which must allow up to R sqrt2 modes just
    beyond radius R."""
    med = _medium(eta)
    q = make_quasi_momentum(kind, ALPHA[kind])
    for gap in GAPS[kind]:
        modes, tail = series_window(med, q, gap, 1e-10, BOUND[kind](med))
        omitted = _omitted_sum(kind, med, q, modes, gap)
        factor = 30 if (kind, gap) == ("biqp3d", 1.5) else 10
        assert omitted <= tail(gap) <= factor * omitted, gap
