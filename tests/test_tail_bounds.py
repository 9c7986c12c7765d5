"""Property tests: each reported tail bound is <= tol and bounds the actual
truncation error.

For random media, real or complexified (omega (1 + i eta), eta <= 0.1),
quasi-momenta, gaps and tolerances from 1e-3 down to the 1e-13 the benchmark
uses, the reported tail is at most ``tol`` and the series truncated at
``tol`` differs from a much tighter truncation (1e-15) by no more than the
two reported tail bounds, up to rounding:

    |G(tol) - G(1e-15)| <= tail(tol) + tail(1e-15) + 1e-13 |G|   (max-norm).

The last test checks the one premise ``medium.series_window`` takes of a
bound: wherever it is <= tol it does not grow with the radius.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import draw_medium
from qpelastic import green2d, green3d_biqp, green3d_qp
from qpelastic.errors import WoodAnomaly
from qpelastic.green2d import green2d_eval
from qpelastic.green3d_biqp import greenbi_eval
from qpelastic.green3d_qp import green3dqp_eval
from qpelastic.medium import make_medium, make_quasi_momentum

REF_TOL = 1e-15


def _medium(lam, mu, omega, eta):
    med = make_medium(lam, mu, 1.0, omega)
    return med.complexified(eta) if eta else med


media = st.builds(_medium, st.floats(-0.4, 3.0), st.floats(0.5, 2.0), st.floats(0.8, 3.0),
                  st.one_of(st.just(0.0), st.floats(0.0, 0.1)))
fractions = st.floats(-0.9, 0.9)
tols = st.floats(-13.0, -3.0).map(lambda e: 10.0**e)
signs = st.sampled_from([-1.0, 1.0])


def _check(evalf, med, q, x, y, tol):
    try:
        got = evalf(med, q, x, y, tol)
        ref = evalf(med, q, x, y, REF_TOL)
    except WoodAnomaly:
        reject()
    assert got.tail_bound <= tol and ref.tail_bound <= REF_TOL
    err = float(np.max(np.abs(got.value - ref.value)))
    assert err <= got.tail_bound + ref.tail_bound + 1e-13 * float(np.max(np.abs(ref.value)))


@settings(max_examples=100)
@given(media, fractions, st.floats(0.02, 1.5), tols, st.floats(0.0, 1.0), signs)
def test_qp2d_tail_bound_holds(med, frac, gap, tol, x1, sign):
    q = make_quasi_momentum("qp2d", frac * float(np.real(med.k_p)), med)
    _check(green2d_eval, med, q, np.array([x1, sign * gap]), np.zeros(2), tol)


@settings(max_examples=100)
@given(media, fractions, st.floats(0.02, 1.5), tols, st.floats(0.0, 1.0),
       st.floats(0.0, 2 * np.pi))
def test_qp3d_tail_bound_holds(med, frac, gap, tol, x1, phi):
    q = make_quasi_momentum("qp3d", frac * float(np.real(med.k_p)), med)
    x = np.array([x1, gap * np.cos(phi), gap * np.sin(phi)])
    _check(green3dqp_eval, med, q, x, np.zeros(3), tol)


@settings(max_examples=50)
@given(media, fractions, fractions, st.floats(0.1, 1.5), tols, st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), signs)
def test_biqp3d_tail_bound_holds(med, f1, f2, gap, tol, x1, x2, sign):
    kp = float(np.real(med.k_p))
    q = make_quasi_momentum("biqp3d", (0.7 * f1 * kp, 0.7 * f2 * kp), med)
    _check(greenbi_eval, med, q, np.array([x1, x2, sign * gap]), np.zeros(3), tol)


@pytest.mark.parametrize("bound_of", [green2d._tail_bound, green3d_qp._tail_bound,
                                      green3d_biqp._tail_bound], ids=["qp2d", "qp3d", "biqp3d"])
def test_bound_does_not_grow_with_the_radius_where_within_tol(bound_of, rng):
    """On random media, real and complexified up to eta 0.3, and a grid of
    radii 0.05-300 and gaps 0.005-5: wherever a bound is <= 1 (every tol the
    CLI takes), the next radius's bound is no larger.  Bounds below 1e-250
    are left out, where subnormal floats round unevenly."""
    radii = np.linspace(0.05, 300.0, 1501)
    for case in range(10):
        med = draw_medium(rng)
        if case % 2:
            med = med.complexified(float(rng.uniform(0.01, 0.3)))
        bound = bound_of(med)
        for gap in np.geomspace(0.005, 5.0, 16):
            b = np.array([bound(r, gap) for r in radii.tolist()])
            within = (b[:-1] <= 1.0) & (b[:-1] > 1e-250)
            assert np.all(b[1:][within] <= b[:-1][within]), (case, gap)
