import tracemalloc

import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import biqp3d_per_mode, biqp_mode_tensor_quadrature
from qpelastic.errors import DomainError, NearSourcePlane
from qpelastic.checks import delta_weight_biqp, navier_residual
from qpelastic.green3d_biqp import (_tail_bound, c_bi_arrays, c_l_bi, greenbi_eval,
                                    greenbi_eval_batch)
from qpelastic.green_free import comb_normalization, lattice_sum
from qpelastic.medium import ModeTable, make_medium, make_quasi_momentum, series_window


# the ids name the cases of the paper's mode tables
@pytest.mark.parametrize("a1,a2,klass", [
    pytest.param(0.2, 0.25, "L1", id="0.2-0.25-III"),
    pytest.param(0.6, 0.5, "L2", id="0.6-0.5-II"),
    pytest.param(1.1, 0.9, "L3", id="1.1-0.9-I"),
])
def test_mode_profile_certified_by_quadrature(medium, a1, a2, klass):
    q = make_quasi_momentum("biqp3d", (a1, a2), medium)
    got = c_l_bi(medium, q, (0, 0), 0.8)
    assert ModeTable.of(medium, q, [(0, 0)]).klass[0] == klass
    ref = biqp_mode_tensor_quadrature(medium, a1, a2, 0.8)
    assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


def test_mode_profile_negative_height(medium):
    q = make_quasi_momentum("biqp3d", (0.6, 0.5), medium)
    got = c_l_bi(medium, q, (0, 0), -0.8)
    ref = biqp_mode_tensor_quadrature(medium, 0.6, 0.5, -0.8)
    assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


def test_parity_in_height(medium):
    q = make_quasi_momentum("biqp3d", (0.6, 0.5), medium)
    cp = c_l_bi(medium, q, (1, -1), 0.6)
    cm = c_l_bi(medium, q, (1, -1), -0.6)
    for (i, j) in ((0, 0), (1, 1), (2, 2), (0, 1)):
        assert cp[i, j] == pytest.approx(cm[i, j], rel=1e-14)
    for (i, j) in ((0, 2), (1, 2)):
        assert cp[i, j] == pytest.approx(-cm[i, j], rel=1e-14)


def test_case1_decay(medium):
    q = make_quasi_momentum("biqp3d", (1.1, 0.9), medium)
    mode = ModeTable.of(medium, q, [(0, 0)])
    assert mode.klass[0] == "L3"
    gs = float(np.imag(mode.gamma_l[0]))
    # every entry obeys the slowest evanescent envelope e^{-gamma_s |x3|}
    # (slack 2 covers the two-exponential cancellation transient)
    t0, t1 = 2.0, 6.0
    c0 = np.abs(c_l_bi(medium, q, (0, 0), t0))
    c1 = np.abs(c_l_bi(medium, q, (0, 0), t1))
    assert np.all(c1 <= 2.0 * c0 * np.exp(-gs * (t1 - t0)) + 1e-300)
    # and the dominant entry tracks that rate once transients die out
    c2 = np.abs(c_l_bi(medium, q, (0, 0), 12.0)).max()
    fitted = -np.log(c2 / np.abs(c_l_bi(medium, q, (0, 0), 8.0)).max()) / 4.0
    assert fitted == pytest.approx(gs, rel=0.05)


def test_jump_weights(medium):
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), medium)
    for m in ((0, 0), (1, -1), (-2, 1)):
        w = delta_weight_biqp(medium, q, m)
        assert np.max(np.abs(w - np.eye(3) / (4 * np.pi**2))) < 1e-12


def test_plane_guard_and_zero_height(medium):
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), medium)
    with pytest.raises(DomainError):
        c_l_bi(medium, q, (0, 0), 0.0)
    with pytest.raises(NearSourcePlane):
        greenbi_eval(medium, q, (0.3, 0.2, 5e-3), (0, 0, 0))


def test_series_biperiodicity_and_reciprocity(rng):
    for _ in range(4):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "biqp3d")
        x = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.5, 1.2)])
        y = np.zeros(3)
        g0 = greenbi_eval(med, q, x, y, 1e-9).value
        g1 = greenbi_eval(med, q, x + np.array([1, 0, 0]), y, 1e-9).value
        g2 = greenbi_eval(med, q, x + np.array([0, 1, 0]), y, 1e-9).value
        assert np.max(np.abs(g1 - np.exp(1j * q.alpha[0]) * g0)) / np.max(np.abs(g0)) < 1e-12
        assert np.max(np.abs(g2 - np.exp(1j * q.alpha[1]) * g0)) / np.max(np.abs(g0)) < 1e-12
        z = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), -0.3])
        a = greenbi_eval(med, q, x, z, 1e-9).value
        b = greenbi_eval(med, q.negated(), z, x, 1e-9).value
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-12


def test_series_oracle_agreement():
    med = make_medium(2.0, 1.0, 1.0, 2.0).complexified(0.1)
    q = make_quasi_momentum("biqp3d", (0.3, 0.45))
    x, y = np.array([0.3, 0.2, 0.9]), np.zeros(3)
    spec = greenbi_eval(med, q, x, y, 1e-12).value
    lat = lattice_sum(med, q, x, y, N=140).value
    rel = np.max(np.abs(spec - comb_normalization("biqp3d") * lat)) / np.max(np.abs(spec))
    assert rel < 1e-4


def test_series_pde_residual():
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), med)
    y = np.zeros(3)

    def col(P, j=1):
        return greenbi_eval_batch(med, q, P, y, 1e-10)[0][:, :, j]

    assert navier_residual(col, med, np.array([[0.3, 0.2, 1.1]]), 1e-2) < 1e-6


def test_mode_ode_residual_fd():
    # the height profile solves the 1D mode ODE away from the jump plane
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), med)
    a1, a2 = 0.3, 0.45
    lam, mu = med.lam, med.mu
    rw2 = med.rho_omega2
    h = 1e-2
    x3 = 0.8
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    d2c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    mode = ModeTable.of(med, q, [(0, 0)])
    grid = np.array([c_bi_arrays(med, mode, x3 + o * h)[0] for o in range(-2, 3)])
    c0 = grid[2]
    dz = np.tensordot(d1, grid, axes=(0, 0)) / h
    dzz = np.tensordot(d2c, grid, axes=(0, 0)) / h**2
    res = np.empty((3, 3), dtype=complex)
    res[0] = (-(lam + 2 * mu) * a1**2 - mu * a2**2 + rw2) * c0[0] + mu * dzz[0] \
        - (lam + mu) * a1 * a2 * c0[1] + 1j * (lam + mu) * a1 * dz[2]
    res[1] = (-(lam + 2 * mu) * a2**2 - mu * a1**2 + rw2) * c0[1] + mu * dzz[1] \
        - (lam + mu) * a1 * a2 * c0[0] + 1j * (lam + mu) * a2 * dz[2]
    res[2] = (-mu * (a1**2 + a2**2) + rw2) * c0[2] + (lam + 2 * mu) * dzz[2] \
        + 1j * (lam + mu) * (a1 * dz[0] + a2 * dz[1])
    assert np.max(np.abs(res)) / abs(rw2) < 1e-6


def test_mode_count_scaling(medium):
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), medium)
    counts = []
    for t in (0.5, 0.25, 0.125):
        _, _, n = greenbi_eval_batch(medium, q, np.array([[0.2, 0.3, t]]),
                                     np.zeros(3), tol=1e-8)
        counts.append(n)
    # retained modes grow like ((35 + log(1/tol))/t)^2, i.e. ~4x per halving
    assert 3.0 < counts[1] / counts[0] < 5.0
    assert 3.0 < counts[2] / counts[1] < 5.0


def test_c_bi_arrays_broadcast_equals_point_calls(medium, rng):
    q = make_quasi_momentum("biqp3d", (0.3, -0.2))
    m = np.stack([np.arange(-5, 6), np.arange(5, -6, -1)], axis=-1)
    x3 = rng.uniform(-1, 1, (3, 4))
    assert c_bi_arrays(medium, ModeTable.of(medium, q, m), -0.4).shape == (11, 3, 3)
    for med in (medium, medium.complexified(0.1)):
        modes = ModeTable.of(med, q, m)
        got = c_bi_arrays(med, modes, x3)
        assert got.shape == (3, 4, 11, 3, 3)
        ref = np.reshape([c_bi_arrays(med, modes, t) for t in x3.ravel().tolist()],
                         got.shape)
        assert np.array_equal(got, ref)


def test_batch_equals_point_loop(rng):
    """One lattice disk for the batch; repeated heights, both signs of x3."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("biqp3d", (0.3, -0.2), med)
    y = np.array([0.1, 0.05, -0.02])
    X = np.array([[x1, x2, y[2] + t] for t in (0.3, -0.3, 0.8, 1.4)
                  for x1, x2 in rng.uniform(-1, 2, (3, 2))])
    vals, tails, n = greenbi_eval_batch(med, q, X, y, 1e-8)
    modes, tail = series_window(med, q, 0.3, 1e-8, _tail_bound(med))
    a1, a2 = modes.alpha_l.T
    assert type(n) is int and n == len(a1)
    for x, v, tb in zip(X, vals, tails):
        d = x - y
        ref = np.tensordot(np.exp(1j * (a1 * d[0] + a2 * d[1])),
                           c_bi_arrays(med, modes, d[2]), axes=(0, 0))
        assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert tb == tail(abs(d[2])) <= 1e-8


def test_batch_axis_phases_equal_direct_exp_at_gap_01(rng):
    """Row-wise contraction with per-axis exponentials against one exponential
    per mode, at the smallest gap the benchmark ladder uses (3 877 modes at real
    and at complex frequency): 48 points with d3 of both signs, at real and
    complexified frequency."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("biqp3d", (0.3, -0.2), med)
    y = np.array([0.3, -0.1, 0.05])
    X = np.column_stack([rng.uniform(-1, 2, 48), rng.uniform(-1, 2, 48),
                         y[2] + np.repeat([0.1, -0.1, 0.4], 16) * np.tile([1, -1], 24)])
    for m, count in ((med, 3877), (med.complexified(0.1), 3877)):
        vals, _, n = greenbi_eval_batch(m, q, X, y, 1e-10)
        assert n == count
        ref = biqp3d_per_mode(m, q, X, y, 1e-10)
        # one point alone takes the per-mode phases instead of the rows
        vals = np.concatenate([vals, greenbi_eval_batch(m, q, X[:1], y, 1e-10)[0]])
        ref = np.concatenate([ref, ref[:1]])
        err = np.max(np.abs(vals - ref), axis=(1, 2))
        assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))


def test_batch_peak_memory_at_gap_01():
    """4 000 points at gap 0.1 allocate no more at peak than the (points x
    modes) phase matrices did.  13 640 919 bytes is that figure: the peak
    tracemalloc read for this call when the points went in blocks of 9, each
    with its (points x modes) phase matrix gathered from per-axis
    exponentials (commit fbbb699), whose window held 8 114 modes."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("biqp3d", (0.3, -0.2), med)
    y = np.array([0.1, 0.05, -0.02])
    n = 4000
    X = np.column_stack([np.linspace(-1, 2, n), np.linspace(2, -1, n),
                         y[2] + np.tile([0.1, -0.1], n // 2)])
    tracemalloc.start()
    try:
        _, _, modes = greenbi_eval_batch(med, q, X, y, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert modes == 3877
    assert peak <= 13_640_919
