import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import (fd_curl, fd_divergence, kupradze2d_jet, lattice_sum_per_copy,
                     lattice_sum_richardson, mp_kupradze2d, mp_kupradze2d_grad)
from qpelastic.errors import CoincidentPoints
from qpelastic.checks import navier_apply_fd
from qpelastic.green_free import _kupradze_value, comb_normalization, kupradze, lattice_sum
from qpelastic.green2d import green2d_eval
from qpelastic.green3d_biqp import greenbi_eval
from qpelastic.green3d_qp import green3dqp_eval
from qpelastic.medium import make_medium, make_quasi_momentum


def test_kupradze_symmetry_and_rotation(rng, medium_fast):
    for dim in (2, 3):
        x = rng.uniform(-1, 1, dim)
        y = x + rng.uniform(0.3, 1.0, dim)
        g = kupradze(medium_fast, dim, x, y).value
        assert np.max(np.abs(g - g.T)) < 1e-14
        # rotation equivariance
        th = rng.uniform(0, 2 * np.pi)
        if dim == 2:
            R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        else:
            c, s = np.cos(th), np.sin(th)
            R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        gr = kupradze(medium_fast, dim, R @ x, R @ y).value
        assert np.max(np.abs(gr - R @ g @ R.T)) < 1e-12


def test_kupradze_small_r_against_extended_precision():
    # the 1/r^2 parts of the Hessian cancel between the k_s and k_p terms;
    # below |k_s| r = 1 the ascending series keeps that cancellation exact
    for med in (make_medium(2.0, 1.0, 1.0, 0.9), make_medium(2.0, 1.0, 1.0, 5.0),
                make_medium(2.0, 1.0, 1.0, 12.0), make_medium(0.5, 1.5, 1.0, 3.0).complexified(0.1)):
        ks = abs(med.k_s)
        for r in (1e-2, 1e-3, 1e-4, 1e-5, 0.99 / ks, 1.01 / ks):
            for th in (0.3, 2.0):
                dx = r * np.array([np.cos(th), np.sin(th)])
                ref = mp_kupradze2d(med, dx)
                got = kupradze(med, 2, dx, (0.0, 0.0)).value
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kupradze_gradient_against_extended_precision():
    # the closed-form gradient on both sides of |k_s| r = 1, where f'/r
    # switches to the ascending series, and down to r = 1e-9
    for med in (make_medium(2.0, 1.0, 1.0, 5.0), make_medium(2.0, 1.0, 1.0, 60.0),
                make_medium(0.5, 1.5, 1.0, 3.0).complexified(0.1)):
        ks = abs(med.k_s)
        for r in (1e-9, 1e-3, 0.99 / ks, 1.01 / ks, 0.4):
            dx = r * np.array([np.cos(2.0), np.sin(2.0)])
            val, *grad = kupradze2d_jet(med, dx[None])
            assert np.array_equal(val, _kupradze_value(med, dx[None]))
            for got, ref in zip(grad, mp_kupradze2d_grad(med, dx)):
                assert np.max(np.abs(got[0] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kupradze_coincident(medium_fast):
    with pytest.raises(CoincidentPoints):
        kupradze(medium_fast, 2, (0.3, 0.4), (0.3, 0.4))


def test_kupradze_satisfies_navier(medium):
    # (Delta* + rho w^2) Phi = 0 away from the source, 4th-order FD residual
    y = np.zeros(2)
    x = np.array([0.6, 0.8])

    def col(P, j=0):
        return np.array([kupradze(medium, 2, p, y).value[:, j] for p in P])

    res = navier_apply_fd(col, medium, x, 1e-2)
    scale = np.max(np.abs(kupradze(medium, 2, x, y).value)) * abs(medium.rho_omega2)
    assert np.max(np.abs(res)) / scale < 1e-6

    y3 = np.zeros(3)
    x3 = np.array([0.5, 0.6, 0.7])

    def col3(P, j=1):
        return np.array([kupradze(medium, 3, p, y3).value[:, j] for p in P])

    res3 = navier_apply_fd(col3, medium, x3, 1e-2)
    scale3 = np.max(np.abs(kupradze(medium, 3, x3, y3).value)) * abs(medium.rho_omega2)
    assert np.max(np.abs(res3)) / scale3 < 1e-6


def test_kupradze_helmholtz_split(medium):
    # div of each column is a k_p-Helmholtz solution, curl a k_s one
    y = np.zeros(2)
    x = np.array([0.4, 0.9])
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    off = np.arange(-2, 3)

    def col(p, j=0):
        return kupradze(medium, 2, p, y).value[:, j]

    def div_at(p, h=1e-3):
        acc = 0.0j
        for k, o in enumerate(off):
            acc += d1[k] * (col(p + [o * h, 0.0])[0] + col(p + [0.0, o * h])[1])
        return acc / h

    def curl_at(p, h=1e-3):
        acc = 0.0j
        for k, o in enumerate(off):
            acc += d1[k] * (col(p + [o * h, 0.0])[1] - col(p + [0.0, o * h])[0])
        return acc / h

    for fn, k2 in ((div_at, np.real(medium.k_p**2)), (curl_at, np.real(medium.k_s**2))):
        h = 2e-2
        lap = 0.0j
        for k, o in enumerate(off):
            lap += d2[k] * (fn(x + np.array([o * h, 0.0])) + fn(x + np.array([0.0, o * h])))
        lap /= h**2
        res = lap + k2 * fn(x)
        assert abs(res) / (abs(fn(x)) * k2) < 1e-4


def test_lattice_sum_single_term(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    ls = lattice_sum(medium_fast, q, (0.3, 0.8), (0, 0), N=0)
    ku = kupradze(medium_fast, 2, (0.3, 0.8), (0, 0))
    assert np.max(np.abs(ls.value - ku.value)) < 1e-15
    assert ls.modes_used == 1


# (alpha, target, small N) per kind; the near target puts one copy within
# |k_s| r < 1, where the 2D radial part takes its ascending series
LATTICES = {
    "qp2d": (0.3, [(0.3, 0.9), (0.3, 0.2)], 20),
    "qp3d": (0.3, [(0.3, 0.7, 0.6), (0.3, 0.15, 0.1)], 20),
    "biqp3d": ((0.3, -0.45), [(0.3, 0.2, 0.9), (0.3, 0.2, 0.15)], 4),
}


@pytest.mark.parametrize("kind", sorted(LATTICES))
def test_lattice_sum_equals_per_copy_reference(kind):
    alpha, targets, N = LATTICES[kind]
    q = make_quasi_momentum(kind, alpha)
    for med in (make_medium(2.0, 1.0, 1.0, 2.0), make_medium(2.0, 1.0, 1.0, 2.0).complexified(0.1)):
        for x in targets:
            y = np.zeros(len(x))
            for damping in (0.0, 0.05):
                got = lattice_sum(med, q, x, y, damping=damping, N=N)
                ref = lattice_sum_per_copy(med, q, x, y, damping=damping, N=N)
                assert got.modes_used == (2 * N + 1) ** (2 if kind == "biqp3d" else 1)
                assert np.max(np.abs(got.value - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind, image", [("qp2d", (3.0, 0.0)), ("qp3d", (-2.0, 0.0, 0.0)),
                                         ("biqp3d", (2.0, -1.0, 0.0))])
def test_lattice_sum_coincident_with_image(medium_fast, kind, image):
    q = make_quasi_momentum(kind, LATTICES[kind][0])
    y = np.array([0.1, 0.2, 0.3])[:len(image)]
    with pytest.raises(CoincidentPoints):
        lattice_sum(medium_fast, q, y + np.array(image), y, N=5)


def test_lattice_sum_rejects_bad_input(medium_fast):
    q = make_quasi_momentum("biqp3d", (0.3, 0.45))
    x, y = (0.3, 0.2, 0.9), np.zeros(3)
    with pytest.raises(ValueError, match="N must be >= 0, got -1"):
        lattice_sum(medium_fast, q, x, y, N=-1)
    # Im k_p = 0.05 would still give a finite "bound" for this divergent sum
    med = make_medium(2.0, 1.0, 1.0, 1.0).complexified(0.1)
    with pytest.raises(ValueError, match="damping must be >= 0"):
        lattice_sum(med, q, x, y, damping=-1e-4, N=110)


@pytest.mark.parametrize("evaluate,dim", [
    pytest.param(lambda med: green2d_eval(med, make_quasi_momentum("qp2d", 0.3, med),
                                          (0.3, 0.5, 0.7), (0, 0)), 2, id="green2d-long-point"),
    pytest.param(lambda med: green2d_eval(med, make_quasi_momentum("qp2d", 0.3, med),
                                          (0.3, 0.5), (0, 0, 0)), 2, id="green2d-long-source"),
    pytest.param(lambda med: green3dqp_eval(med, make_quasi_momentum("qp3d", 0.3, med),
                                            (0.3, 0.5, 0.7, 0.1), (0, 0, 0)), 3, id="green3dqp"),
    pytest.param(lambda med: greenbi_eval(med, make_quasi_momentum("biqp3d", (0.3, 0.2), med),
                                          (0.3, 0.5, 0.7, 0.1), (0, 0, 0)), 3, id="greenbi"),
    pytest.param(lambda med: kupradze(med, 2, (0.3,), (0,)), 2, id="kupradze"),
    pytest.param(lambda med: lattice_sum(med, make_quasi_momentum("qp2d", 0.3, med), (0.3,),
                                         (0, 0), N=5), 2, id="lattice_sum"),
])
def test_point_of_wrong_length_refused(evaluate, dim):
    """A point or source whose length is not the geometry's raises ValueError
    naming the length, not a tensor computed from some of its components."""
    with pytest.raises(ValueError, match=f"length {dim}"):
        evaluate(make_medium(2.0, 1.0, 1.0, 5.0))


@pytest.mark.parametrize("kind", sorted(LATTICES))
def test_lattice_tail_bound_holds(kind):
    alpha, (x, _), _ = LATTICES[kind]
    q = make_quasi_momentum(kind, alpha)
    y = np.zeros(len(x))
    for med in (make_medium(2.0, 1.0, 1.0, 1.0), make_medium(-0.3, 0.6, 1.0, 0.8),
                make_medium(3.0, 2.0, 1.0, 3.0)):
        assert lattice_sum(med, q, x, y, N=20).tail_bound == np.inf
        # complexified frequency: the copies decay like e^{-Im k_p r}
        medc = med.complexified(0.1)
        for N in (20, 40, 80, 110):
            got = lattice_sum(medc, q, x, y, N=N)
            err = np.max(np.abs(got.value - lattice_sum(medc, q, x, y, N=4 * N).value))
            assert err <= got.tail_bound
        # damped at real frequency, up to the rounding of the longer sum
        for N in (20, 40):
            got = lattice_sum(med, q, x, y, damping=0.01, N=N)
            ref = lattice_sum(med, q, x, y, damping=0.01, N=4 * N).value
            err = np.max(np.abs(got.value - ref))
            assert err <= got.tail_bound + 1e-13 * np.max(np.abs(ref))
    # a target far along the lattice, 1.3 from the nearest omitted copy, and
    # one within 1 of it, where no bound is given
    medc = make_medium(2.0, 1.0, 1.0, 8.0).complexified(0.1)
    far = np.array(x, dtype=float)
    far[0] = 19.7
    got = lattice_sum(medc, q, far, y, N=20)
    assert np.max(np.abs(got.value - lattice_sum(medc, q, far, y, N=80).value)) <= got.tail_bound
    far[0] = 20.3
    assert lattice_sum(medc, q, far, y, N=20).tail_bound == np.inf


def test_lattice_sum_alpha_periodicity(medium):
    med = medium.complexified(0.15)
    x, y = np.array([0.3, 0.9]), np.zeros(2)
    q1 = make_quasi_momentum("qp2d", 0.3)
    q2 = make_quasi_momentum("qp2d", 0.3 + 2 * np.pi)
    a = lattice_sum(med, q1, x, y, N=300).value
    b = lattice_sum(med, q2, x, y, N=300).value
    assert np.max(np.abs(a - b)) < 1e-13


FROZEN_ORACLE_2D = np.array([
    [0.05701868049956033 - 0.05650213900686563j, -0.00975010175637216 - 0.00700900450568606j],
    [-0.00975010175637216 - 0.00700900450568606j, 0.01696051347767298 - 0.03229131599311712j],
])


def test_complexified_oracle_agreement_2d(medium):
    med = medium.complexified(0.1)
    q = make_quasi_momentum("qp2d", 0.3)
    x, y = np.array([0.25, 1.0]), np.zeros(2)
    lat = lattice_sum(med, q, x, y, N=800).value * comb_normalization("qp2d")
    assert np.max(np.abs(lat - FROZEN_ORACLE_2D)) < 1e-15
    spec = green2d_eval(med, q, x, y, tol=1e-13).value
    rel = np.max(np.abs(spec - FROZEN_ORACLE_2D)) / np.max(np.abs(spec))
    assert rel < 1e-4


def test_richardson_real_frequency():
    # damped + extrapolated lattice sum against the spectral value at real
    # omega; the damped protocol needs the phases alpha +- k to stay away
    # from the reciprocal lattice, which this configuration does
    med = make_medium(2.0, 1.0, 1.0, 4.0)
    q = make_quasi_momentum("qp2d", 0.8, med)
    x, y = np.array([0.25, 1.0]), np.zeros(2)
    lat = lattice_sum_richardson(med, q, x, y, eps_list=(0.04, 0.02, 0.01), N=600)
    spec = green2d_eval(med, q, x, y, tol=1e-13).value
    rel = np.max(np.abs(comb_normalization("qp2d") * lat - spec)) / np.max(np.abs(spec))
    assert rel < 1e-3


def test_tail_bound_reporting(medium):
    med = medium.complexified(0.1)
    q = make_quasi_momentum("qp2d", 0.3)
    ls = lattice_sum(med, q, (0.25, 1.0), (0, 0), N=200)
    assert np.isfinite(ls.tail_bound)
    q2 = make_quasi_momentum("qp2d", 0.3, medium)
    ls2 = lattice_sum(medium, q2, (0.25, 1.0), (0, 0), N=50)
    assert ls2.tail_bound == np.inf  # undamped at real frequency
