import tracemalloc

import numpy as np
import pytest

from oracles import (flat_reflection, log_coeff_jv, log_quadrature_weights_at,
                     near_line_abel_plana, phi_finite_part)
from qpelastic.bem2d import (IncidentField, ProfileCurve2, boundary_residual,
                             eval_scattered, log_quadrature_weights_off_node, plane_incidence,
                             point_source_incidence, solve_dirichlet,
                             solve_dirichlet_multi, traction)
from qpelastic.errors import CoincidentPoints, TableUnresolved, TooCloseToBoundary, WoodAnomaly
from qpelastic.checks import navier_apply_fd
from qpelastic.green2d import NEAR_GAP, QPSources
from qpelastic.green_free import _kupradze_value
from qpelastic.medium import make_medium, make_quasi_momentum
from qpelastic.rayleigh import eval_rayleigh_2d, extract_coeffs_2d, flux_2d


@pytest.fixture(scope="module")
def grating_setup():
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    inc, q = plane_incidence(med, "plane_p", 0.25)
    return med, inc, q


@pytest.fixture(scope="module")
def sin_solution(grating_setup):
    med, inc, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    return solve_dirichlet(med, q, prof, inc, N=128)


def test_log_quadrature_exactness():
    N = 64
    w = log_quadrature_weights_off_node(np.zeros(1), N)[0]
    nodes = np.arange(N) / N
    for i in (0, 5):
        for m in (0, 1, 7, 31):
            approx = np.sum(w[(i - np.arange(N)) % N] * np.exp(2j * np.pi * m * nodes))
            exact = 0.0 if m == 0 else -np.exp(2j * np.pi * m * nodes[i]) / abs(m)
            assert abs(approx - exact) < 1e-13
    off = log_quadrature_weights_at(nodes[3], nodes)
    assert np.max(np.abs(off - w[(3 - np.arange(N)) % N])) < 1e-13


def test_off_node_log_weights_match_per_point():
    """The weights match the per-point oracle off the nodes, and on the nodes
    t = i/N they are the circulant of the t = 0 row that the node matrix takes."""
    for N in (32, 64, 128, 256):
        nodes = np.arange(N) / N
        w = log_quadrature_weights_off_node(np.zeros(1), N)[0]
        circulant = w[(np.arange(N)[:, None] - np.arange(N)) % N]
        assert np.max(np.abs(log_quadrature_weights_off_node(nodes, N) - circulant)) <= 1e-15
        if N > 64:
            continue
        for n_check in (2 * N, 3 * N + 1):
            tc = (np.arange(n_check) + 0.37) / n_check
            ref = np.stack([log_quadrature_weights_at(t, nodes) for t in tc])
            assert np.max(np.abs(log_quadrature_weights_off_node(tc, N) - ref)) <= 1e-14


def test_traction_plane_p_wave(grating_setup):
    med, _, q = grating_setup
    kp = float(np.real(med.k_p))
    alpha = q.alpha
    beta = np.sqrt(kp**2 - alpha**2)
    X = np.array([[0.2, 0.4]])
    ph = np.exp(1j * (alpha * X[:, 0] + beta * X[:, 1]))
    pol = np.array([alpha, beta])
    u = pol[None, :] * ph[:, None]
    grad = np.stack([1j * alpha * u, 1j * beta * u], axis=-1)
    nu = np.array([[0.0, 1.0]])
    t = traction(med, u, grad, nu)
    expected = 1j * (2 * med.mu * beta * pol + med.lam * kp**2 * np.array([0, 1.0])) * ph[0]
    assert np.max(np.abs(t[0] - expected)) < 1e-12

    # rigid-motion constant field has zero traction
    t0 = traction(med, np.array([[1.0, 2.0]]), np.zeros((1, 2, 2)), nu)
    assert np.max(np.abs(t0)) == 0.0

    # linearity in the field jet
    t2 = traction(med, 2 * u, 2 * grad, nu)
    assert np.max(np.abs(t2 - 2 * t)) < 1e-14


def test_flat_profile_matches_reflection_oracle(grating_setup):
    med, inc, q = grating_setup
    sol = solve_dirichlet(med, q, ProfileCurve2(), inc, N=128)
    alpha, up, us = flat_reflection(med, 0.25)
    assert q.alpha == pytest.approx(alpha)

    n_grid = 32
    x1 = np.arange(n_grid) / n_grid
    X = np.stack([x1, np.full(n_grid, 0.5)], axis=-1)
    co = extract_coeffs_2d(med, q, eval_scattered(sol, X), 0.5, 5)
    i0 = co.modes.m.tolist().index(0)
    assert abs(co.u_p[i0] - up) < 1e-8
    assert abs(co.u_s[i0] - us) < 1e-8
    leak = max(max(abs(co.u_p[i]), abs(co.u_s[i]))
               for i in range(len(co.modes.m)) if co.modes.m[i] != 0)
    assert leak < 1e-8


@pytest.mark.parametrize("N,bound", [(32, 2e-6), (64, 3e-8), (128, 2e-10), (256, 2e-13)])
def test_solution_rayleigh_matches_reflection_oracle(grating_setup, N, bound):
    """Coefficients from the density: the specular mode converges to the
    closed form with N, and every other mode is zero to rounding (extraction
    at h = 0.5 leaks 3e-10 to 1e-9 into them)."""
    med, inc, q = grating_setup
    _, up, us = flat_reflection(med, 0.25)
    co = solve_dirichlet(med, q, ProfileCurve2(), inc, N=N).rayleigh(5)
    assert co.modes.m.tolist() == list(range(-5, 6))
    assert max(abs(co.u_p[5] - up), abs(co.u_s[5] - us)) < bound
    assert np.max(np.abs(np.delete(np.stack([co.u_p, co.u_s]), 5, axis=1))) <= 1e-14


@pytest.mark.parametrize("N,bound", [(32, 2e-6), (64, 3e-8), (128, 2e-10), (256, 2e-13)])
def test_plane_s_flat_grating_closed_form(N, bound):
    """An s wave on a flat rigid grating: the specular mode converges to the
    2x2 rigid-boundary solution, every other mode is zero to rounding, the
    incident flux is -omega mu k_s cos(theta)/2 and the total flux through
    a line above the grating vanishes."""
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    theta = 0.25
    inc, q = plane_incidence(med, "plane_s", theta)
    alpha, up, us = flat_reflection(med, theta, "plane_s")
    assert q.alpha == pytest.approx(alpha)
    sol = solve_dirichlet(med, q, ProfileCurve2(), inc, N=N)
    co = sol.rayleigh(5)
    assert co.modes.m.tolist() == list(range(-5, 6))
    assert max(abs(co.u_p[5] - up), abs(co.u_s[5] - us)) < bound
    assert np.max(np.abs(np.delete(np.stack([co.u_p, co.u_s]), 5, axis=1))) <= 1e-14

    n = 64
    X = np.stack([np.arange(n) / n, np.full(n, 0.6)], axis=-1)
    nu = np.tile([0.0, 1.0], (n, 1))
    ui, d1, d2 = inc.jet(med, q, X)
    gi = np.stack([d1, d2], axis=-1)
    u_sc, g_sc = eval_scattered(sol, X, need_gradient=True)
    j_inc = flux_2d(med, ui, traction(med, ui, gi, nu))
    j_tot = flux_2d(med, ui + u_sc, traction(med, ui + u_sc, gi + g_sc, nu))
    ks = float(np.real(med.k_s))
    assert j_inc == pytest.approx(-0.5 * med.omega * med.mu * ks * np.cos(theta), rel=1e-13)
    assert abs(j_tot) <= 1e-10 * abs(j_inc)


@pytest.mark.parametrize("kind", ["plane_p", "plane_s"])
def test_non_congruent_plane_wave_refused(grating_setup, kind):
    """A plane wave whose k d1 differs from alpha modulo 2 pi is not
    quasi-periodic with the system's momentum; the solve refuses it before
    assembling anything."""
    med, _, _ = grating_setup
    inc, q = plane_incidence(med, kind, 0.25)
    shifted = make_quasi_momentum("qp2d", q.alpha + 0.1, med)
    with pytest.raises(ValueError, match="not congruent"):
        solve_dirichlet_multi(med, shifted, ProfileCurve2(), [inc], N=32)
    # a shift by a whole lattice frequency is the same momentum
    lattice = make_quasi_momentum("qp2d", q.alpha - 2 * np.pi, med)
    assert solve_dirichlet_multi(med, lattice, ProfileCurve2(), [inc], N=32)[0].N == 32


def test_solution_rayleigh_agrees_with_extraction(sin_solution):
    """Where extraction at h = 0.5 is accurate, |m| <= 1, both paths agree."""
    sol = sin_solution
    n_grid = 32
    X = np.stack([np.arange(n_grid) / n_grid, np.full(n_grid, 0.5)], axis=-1)
    ref = extract_coeffs_2d(sol.medium, sol.q, eval_scattered(sol, X), 0.5, 1)
    co = sol.rayleigh(1)
    assert co.modes.m.tolist() == ref.modes.m.tolist()
    for got, want in ((co.u_p, ref.u_p), (co.u_s, ref.u_s)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_solution_rayleigh_beyond_the_window(sin_solution):
    """Modes outside the window the field above the crest sums build their
    own factors: a larger mode set leaves the common modes as they are, and
    its expansion re-sums the field 0.3 above the crest."""
    sol = sin_solution
    med, q = sol.medium, sol.q
    co30, co5 = sol.rayleigh(30), sol.rayleigh(5)
    assert len(sol.sources.modes.m) < 61   # the window misses some of |m| <= 30
    assert co30.modes.m[25:36].tolist() == co5.modes.m.tolist()
    np.testing.assert_allclose(co30.u_p[25:36], co5.u_p, rtol=1e-14, atol=0)
    np.testing.assert_allclose(co30.u_s[25:36], co5.u_s, rtol=1e-14, atol=0)
    h = np.max(sol.points[:, 1]) + 0.3
    X = np.stack([np.array([-0.7, 0.13, 0.25, 0.9, 1.6]), np.full(5, h)], axis=-1)
    u = eval_scattered(sol, X)
    assert np.max(np.abs(eval_rayleigh_2d(med, q, co30, X) - u)) <= 1e-13 * np.max(np.abs(u))


def test_boundary_residual_and_convergence(grating_setup):
    med, inc, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    res = {}
    for N in (64, 128):
        sol = solve_dirichlet(med, q, prof, inc, N=N)
        res[N] = boundary_residual(sol)
    assert res[128] < 1e-6
    assert res[128] < res[64] / 20  # superalgebraic drop


def test_boundary_residual_peak_memory(grating_setup):
    """At N = 256 the residual holds its (2N x N) quadrature matrix of 2x2
    blocks, 8.4 MB, and one row block's temporaries: at most 16 MiB at peak
    under tracemalloc.  Holding A and B and contracting them with einsum
    took 20.7 MiB."""
    med, inc, q = grating_setup
    sol = solve_dirichlet(med, q, ProfileCurve2(0.0, (), (0.1,)), inc, N=256)
    tracemalloc.start()
    try:
        res = boundary_residual(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < 1e-10
    assert peak <= 16 * 2**20


def test_solve_peak_memory(grating_setup):
    """At N = 256 a solve holds its (2N x 2N) system, 4 MiB, its LU factors
    and one row block's temporaries of the assembly: at most 11.6 MiB at
    peak under tracemalloc, the 10.53 MiB of the per-pair assembly plus 10%.
    A smaller solve builds the kernel table beforehand."""
    med, inc, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    solve_dirichlet(med, q, prof, inc, N=32)
    tracemalloc.start()
    try:
        solve_dirichlet(med, q, prof, inc, N=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.6 * 2**20


def test_zero_incident_zero_density(grating_setup):
    med, inc, q = grating_setup

    class ZeroField(IncidentField):
        def jet(self, medium, qq, X):
            X = np.atleast_2d(X)
            z = np.zeros((X.shape[0], 2), complex)
            return z, z.copy(), z.copy()

    zero = ZeroField("custom_zero")
    sol = solve_dirichlet(med, q, ProfileCurve2(0.0, (), (0.1,)), zero, N=32)
    assert np.max(np.abs(sol.density)) < 1e-14
    X = np.array([[0.3, 0.9]])
    assert np.max(np.abs(eval_scattered(sol, X))) < 1e-14


def test_scattered_field_properties(sin_solution):
    sol = sin_solution
    med, q = sol.medium, sol.q
    X = np.array([[0.23, 0.8]])
    u0 = eval_scattered(sol, X)
    u1 = eval_scattered(sol, X + np.array([1.0, 0.0]))
    assert np.max(np.abs(u1 - np.exp(1j * q.alpha) * u0)) < 1e-10 * np.max(np.abs(u0))

    # two-height consistency through mode propagation
    n_grid = 32
    x1 = np.arange(n_grid) / n_grid
    h1, h2 = 0.5, 0.9
    co = extract_coeffs_2d(med, q, eval_scattered(
        sol, np.stack([x1, np.full(n_grid, h1)], axis=-1)), h1, 5)
    u_pred = np.zeros((n_grid, 2), complex)
    t = co.modes
    for a, b, g, up, us in zip(t.alpha_l, t.beta_l, t.gamma_l, co.u_p, co.u_s):
        u_pred[:, 0] += up * a * np.exp(1j * (a * x1 + b * h2)) \
            + us * g * np.exp(1j * (a * x1 + g * h2))
        u_pred[:, 1] += up * b * np.exp(1j * (a * x1 + b * h2)) \
            - us * a * np.exp(1j * (a * x1 + g * h2))
    u_dir = eval_scattered(sol, np.stack([x1, np.full(n_grid, h2)], axis=-1))
    assert np.max(np.abs(u_dir - u_pred)) < 1e-8 * np.max(np.abs(u_dir))


def test_rayleigh_tail_decay_of_bem_field(sin_solution):
    # evanescent coefficients of the scattered field, weighted by their
    # contribution at the extraction height, fall off at the e^{-Im gamma h}
    # rates of the mode lattice
    sol = sin_solution
    med, q = sol.medium, sol.q
    h = 0.5
    n_grid = 32
    x1 = np.arange(n_grid) / n_grid
    co = extract_coeffs_2d(med, q, eval_scattered(
        sol, np.stack([x1, np.full(n_grid, h)], axis=-1)), h, 5)
    contrib = {}
    t = co.modes
    for m, b, g, up, us in zip(t.m.tolist(), t.beta_l, t.gamma_l, co.u_p, co.u_s):
        amp = max(abs(up * np.exp(1j * b * h)), abs(us * np.exp(1j * g * h)))
        contrib[m] = (amp, float(np.imag(g)))
    for m in (3, 4):
        a_lo, g_lo = contrib[m]
        a_hi, g_hi = contrib[m + 1]
        assert a_hi < a_lo
        # decay between consecutive evanescent orders tracks the rate gap
        # (profile height 0.1 shifts the effective origin of the decay)
        expected = np.exp(-(g_hi - g_lo) * (h - 0.1))
        assert a_hi / a_lo < expected * 3.0


def test_upgoing_diagnostic_on_total_field(grating_setup):
    # total field of a point-source run is upgoing above the source line and
    # must report an upgoing propagating component
    from qpelastic.rayleigh import check_upgoing

    med, _, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    inc = point_source_incidence((0.4, 0.45), (1.0, 0.0))
    sol = solve_dirichlet(med, q, prof, inc, N=64)
    h = 0.8
    n_grid = 32
    x1 = np.arange(n_grid) / n_grid
    X = np.stack([x1, np.full(n_grid, h)], axis=-1)
    u_tot = inc.eval(med, q, X) + eval_scattered(sol, X)
    co = extract_coeffs_2d(med, q, u_tot, h, 5)
    assert check_upgoing(co).holds


def test_scattered_field_solves_navier(sin_solution):
    sol = sin_solution

    def fld(P):
        return eval_scattered(sol, P)

    res = navier_apply_fd(fld, sol.medium, np.array([0.4, 0.8]), 1e-2)
    scale = abs(sol.medium.rho_omega2) * np.max(np.abs(fld(np.array([[0.4, 0.8]]))))
    assert np.max(np.abs(res)) / scale < 1e-6


def test_energy_balance(sin_solution):
    sol = sin_solution
    med, q, inc = sol.medium, sol.q, sol.incident
    n = 64
    x1 = np.arange(n) / n
    X = np.stack([x1, np.full(n, 0.6)], axis=-1)
    nu = np.tile([0.0, 1.0], (n, 1))
    ui, d1, d2 = inc.jet(med, q, X)
    gi = np.stack([d1, d2], axis=-1)
    us, gs = eval_scattered(sol, X, need_gradient=True)
    j_inc = flux_2d(med, ui, traction(med, ui, gi, nu))
    j_tot = flux_2d(med, ui + us, traction(med, ui + us, gi + gs, nu))
    assert j_inc < 0  # downward incidence
    assert abs(j_tot) < 1e-3 * abs(j_inc)


def test_scattered_field_near_boundary(sin_solution):
    # targets whose node pairs straddle NEAR_GAP: values and gradients both
    # read the solution's kernel table, so the value of the jet is the value
    sol = sin_solution
    x1 = np.array([0.3, 0.7, 0.55])
    X = np.stack([x1, sol.profile.f(x1) + np.array([0.1, 0.15, 0.3])], axis=-1)
    u = eval_scattered(sol, X)
    u_jet, _ = eval_scattered(sol, X, need_gradient=True)
    assert np.array_equal(u, u_jet)


def test_scattered_gradient_near_crest(grating_setup):
    # 64 targets 0.3 above the 0.1 sinusoid at N = 64: every target has node
    # pairs within NEAR_GAP, whose values and gradients come from the table
    med, inc, q = grating_setup
    sol = solve_dirichlet(med, q, ProfileCurve2(0.0, (), (0.1,)), inc, N=64)
    x1 = (np.arange(64) + 0.5) / 64
    X = np.stack([x1, sol.profile.f(x1) + 0.3], axis=-1)
    u, grad = eval_scattered(sol, X, need_gradient=True)
    u_ref, g_ref = _scattered_by_pairs(sol, X)
    assert np.max(np.abs(u - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))
    assert np.max(np.abs(grad - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))


def _applied_by_pairs(src, charges, X):
    """sum_n G(x - Y_n) charges_n and its x-derivatives summed pair by pair,
    from the Abel-Plana oracle (the plain series beyond NEAR_GAP)."""
    t1 = X[:, 0][:, None] - src.Y[:, 0][None, :]
    tau = t1 - np.round(t1)
    d = X[:, 1][:, None] - src.Y[:, 1][None, :]
    w = np.exp(1j * src.q.alpha * np.round(t1))
    shape = tau.shape + (2, 2)
    jet = near_line_abel_plana(src.medium, src.q.alpha, tau.ravel(), d.ravel(), want_jet=True)
    return [np.einsum("xn,xnab,nb->xa", w, m.reshape(shape), charges) for m in jet]


def _scattered_by_pairs(sol, X):
    """Scattered field and gradient summed pair by pair from the oracle."""
    charges = sol.density * (sol.jacobian / sol.N)[:, None]
    u, du1, du2 = _applied_by_pairs(sol.sources, charges, X)
    return u, np.stack([du1, du2], axis=-1)


def test_scattered_field_above_crest(sin_solution):
    # targets more than NEAR_GAP above the highest node take the Rayleigh form;
    # it reorders the plain series that every one of their pairs takes
    sol = sin_solution
    h0 = np.max(sol.points[:, 1])
    x1 = np.array([-0.7, 0.13, 0.25, 0.9, 1.6, 3.31])
    for h in (h0 + NEAR_GAP + 1e-3, h0 + 0.5, h0 + 2.0):
        X = np.stack([x1, np.full(len(x1), h)], axis=-1)
        u_ref, g_ref = _scattered_by_pairs(sol, X)
        u, grad = eval_scattered(sol, X, need_gradient=True)
        assert np.max(np.abs(u - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))
        assert np.max(np.abs(grad - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))
        assert np.max(np.abs(eval_scattered(sol, X) - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))


def test_scattered_field_mixed_batch(sin_solution):
    # a batch with targets on both sides of the split equals its parts alone
    sol = sin_solution
    h0 = np.max(sol.points[:, 1])
    x1 = np.array([0.1, 0.35, 0.6, 0.85])
    X = np.stack([x1, h0 + np.array([0.3, 0.2, 0.7, NEAR_GAP])], axis=-1)
    above = X[:, 1] - h0 > NEAR_GAP
    assert 0 < np.sum(above) < len(X)
    u, grad = eval_scattered(sol, X, need_gradient=True)
    v = eval_scattered(sol, X)
    for part in (above, ~above):
        u_p, g_p = eval_scattered(sol, X[part], need_gradient=True)
        assert np.max(np.abs(u[part] - u_p)) <= 1e-13 * np.max(np.abs(u_p))
        assert np.max(np.abs(grad[part] - g_p)) <= 1e-13 * np.max(np.abs(g_p))
        assert np.max(np.abs(v[part] - eval_scattered(sol, X[part]))) \
            <= 1e-13 * np.max(np.abs(u_p))


def test_above_crest_guards(grating_setup):
    med, inc, q = grating_setup
    sol = solve_dirichlet(med, q, ProfileCurve2(0.0, (), (0.1,)), inc, N=32)
    h0 = np.max(sol.points[:, 1])
    # the clearance at N = 32 (about 0.34) exceeds NEAR_GAP: checked before the split
    with pytest.raises(TooCloseToBoundary):
        eval_scattered(sol, np.array([[0.25, h0 + NEAR_GAP + 0.05]]))
    # the Rayleigh form divides by beta_l and gamma_l: refuse a cut-off alpha
    with pytest.raises(WoodAnomaly):
        QPSources(med, make_quasi_momentum("qp2d", float(np.real(med.k_p))), sol.points)


def _check_apply(src, charges, groups):
    """``apply`` on each group of targets, and on all of them in one batch,
    against the pair-by-pair sum: values and jets within 1e-13."""
    X = np.concatenate(groups)
    batch = src.apply(charges, X, want_jet=True)
    values = src.apply(charges, X)
    start = 0
    for part in groups:
        sl = slice(start, start + len(part))
        start += len(part)
        ref = _applied_by_pairs(src, charges, part)
        got = src.apply(charges, part, want_jet=True)
        for r, g, b in zip(ref, got, batch):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
            assert np.max(np.abs(b[sl] - r)) <= 1e-13 * np.max(np.abs(r))
        assert np.max(np.abs(values[sl] - ref[0])) <= 1e-13 * np.max(np.abs(ref[0]))


def test_apply_one_source(grating_setup):
    med, _, q = grating_setup
    z = np.array([0.4, 0.3])
    src = QPSources(med, q, [z])
    x1 = np.array([-0.7, 0.13, 0.45, 0.9, 2.31])

    def row(h):
        return np.stack([x1, np.full(len(x1), h)], axis=-1)

    groups = [row(z[1] + NEAR_GAP + 1e-3), row(z[1] + 1.5),      # Rayleigh form
              row(z[1] + 0.1), row(z[1] + NEAR_GAP), row(z[1]),   # kernel table
              row(z[1] - 0.15), row(z[1] - 0.8)]                  # below the source
    _check_apply(src, np.array([[0.6, 0.8j]]), groups)


def _applied_by_green(src, charges, X):
    """sum_n G(x - Y_n) charges_n and its x-derivatives from ``src.green`` pair
    by pair, for charges (N, 2) or a block (N, 2, k)."""
    tau, phase, d = src.wrap(X)
    G = src.green(tau.ravel(), d.ravel(), want_jet=True)
    return [np.einsum("xn,xnab,nb...->xa...", phase, g.reshape(tau.shape + (2, 2)), charges)
            for g in G]


def _rayleigh_sides(monkeypatch):
    """A list to which every call of ``QPSources._rayleigh`` appends (side, targets)."""
    calls = []
    rayleigh = QPSources._rayleigh
    monkeypatch.setattr(QPSources, "_rayleigh", lambda self, cols, X, jet, side: (
        calls.append((side, len(X))) or rayleigh(self, cols, X, jet, side)))
    return calls


def test_rayleigh_forms_match_pairs(grating_setup, monkeypatch):
    # sources at different heights, trough 0.5 and crest 0.75, so that the
    # targets exactly NEAR_GAP from either (0.25 and 1.0) are exact in binary
    # and stay with the pairs; just beyond, and further out, each side takes
    # its Rayleigh form.  Values and jets, one target row at a time and all
    # rows in one mixed batch, within 1e-14 of the pair-by-pair sum
    med, _, q = grating_setup
    Y = np.array([(0.1, 0.5), (0.45, 0.75), (0.8, 0.625), (1.3, 0.5625)])
    src = QPSources(med, q, Y)
    assert src.trough - NEAR_GAP == 0.25 and src.crest + NEAR_GAP == 1.0
    x1 = np.array([-0.7, 0.13, 0.45, 0.9, 2.31])
    rows = {-1: (0.25 - 1e-3, -0.5, -1.5), 0: (0.25, 0.3, 0.6, 0.9, 1.0), 1: (1.0 + 1e-3, 2.0)}
    charges = np.array([[0.6, 0.8j], [1.0, -0.5], [0.2j, 0.3], [-0.4, 1.0 + 1j]])
    block = np.random.default_rng(3).normal(size=(len(Y), 2, 3)) + 0j
    calls = _rayleigh_sides(monkeypatch)
    batch = []
    for side, heights in rows.items():
        for h in heights:
            X = np.stack([x1, np.full(len(x1), h)], axis=-1)
            batch.append(X)
            for c in (charges, block):
                calls.clear()
                ref = _applied_by_green(src, c, X)
                got = src.apply(c, X, want_jet=True)
                assert calls == ([] if side == 0 else [(float(side), len(x1))])
                for r, g in zip(ref, got):
                    assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))
                assert np.array_equal(src.apply(c, X), got[0])
    X = np.concatenate(batch)
    calls.clear()
    got = src.apply(block, X, want_jet=True)
    assert sorted(calls) == [(-1.0, 3 * len(x1)), (1.0, 2 * len(x1))]
    for r, g in zip(_applied_by_green(src, block, X), got):
        assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))


def test_incident_block_matches_pairs(grating_setup):
    # plane waves and point sources at different heights in one block: each
    # column is that incidence's field, the point sources' within 1e-14 of
    # the pair-by-pair sum from its own source and each plane wave bit for
    # bit its closed form; IncidentField.eval and jet are its one-column case
    from qpelastic.bem2d import _incident_block

    med, plane, q = grating_setup
    points = [point_source_incidence(z, p) for z, p in
              (((0.4, 0.8), (1.0, 0.0)), ((0.9, 0.55), (0.6, 0.8)), ((0.2, 1.05), (0.0, 1.0)))]
    incs = [points[0], plane, points[1], points[2]]
    x1 = np.linspace(-0.3, 1.7, 9)
    X = np.concatenate([np.stack([x1, np.full(len(x1), h)], axis=-1)
                        for h in (-0.4, 0.1, 0.3, 0.7, 1.2, 1.5)])
    got = _incident_block(incs, med, q, X, want_jet=True)
    values = _incident_block(incs, med, q, X)
    assert np.array_equal(values, got[0])
    for c, inc in enumerate(incs):
        if inc.kind == "point_source":
            ref = _applied_by_green(QPSources(med, q, [inc.source]),
                                    np.array([inc.polarization], dtype=complex), X)
            for r, g in zip(ref, got):
                assert np.max(np.abs(g[..., c] - r)) <= 1e-14 * np.max(np.abs(r))
        else:
            for r, g in zip(inc.jet(med, q, X), got):
                assert np.array_equal(g[..., c], r)
    one = points[1]
    assert np.array_equal(one.eval(med, q, X), _incident_block([one], med, q, X)[..., 0])
    for a, b in zip(one.jet(med, q, X), _incident_block([one], med, q, X, True)):
        assert np.array_equal(a, b[..., 0])


@pytest.mark.parametrize("Y,X", [
    pytest.param([(0.0, 0.0, 0.7)], [[0.3, 0.5]], id="source-3"),
    pytest.param([(0.0, 0.0)], [[0.3, 0.5, 0.9]], id="target-3"),
    pytest.param([(0.0, 0.0)], [[0.3]], id="target-1"),
])
def test_sources_refuse_points_of_wrong_length(grating_setup, Y, X):
    """A source or target not of length 2 raises ValueError naming the length,
    not a field computed from some of its components."""
    med, _, q = grating_setup
    with pytest.raises(ValueError, match="length 2"):
        QPSources(med, q, Y).apply([[1.0, 0.0]], X)


def test_eval_scattered_refuses_points_of_wrong_length(sin_solution):
    for X in ([[0.3, 0.9, 0.1]], [[0.3]]):
        with pytest.raises(ValueError, match="length 2"):
            eval_scattered(sin_solution, X)


def test_apply_from_solution_nodes(sin_solution):
    sol = sin_solution
    src = sol.sources
    charges = sol.density * (sol.jacobian / sol.N)[:, None]
    h0, low = np.max(sol.points[:, 1]), np.min(sol.points[:, 1])
    x1 = np.array([-0.7, 0.13, 0.25, 0.9, 3.31])

    def row(h):
        return np.stack([x1, np.full(len(x1), h)], axis=-1)

    groups = [row(h0 + NEAR_GAP + 1e-3), row(h0 + 2.0),          # above the crest
              row(h0 + 0.15), row(h0 + NEAR_GAP),                 # table and series
              row(low - 0.1), row(low - 0.6)]                     # below the sources
    _check_apply(src, charges, groups)


def test_point_source_eval_is_jet_value(grating_setup):
    # targets on both sides of NEAR_GAP below the source and above it, where
    # the values-only path must return the value of the jet bit for bit
    med, _, q = grating_setup
    inc = point_source_incidence((0.4, 0.3), (1.0, 0.0))
    t = np.arange(64) / 64
    X = np.concatenate([np.stack([t, 0.1 * np.sin(2 * np.pi * t)], axis=-1),
                        np.stack([t[::8], np.full(8, 0.3 + NEAR_GAP + 0.2)], axis=-1)])
    d = 0.3 - X[:, 1]
    assert np.any(np.abs(d) <= NEAR_GAP) and np.any(np.abs(d) > NEAR_GAP)
    assert np.array_equal(inc.eval(med, q, X), inc.jet(med, q, X)[0])


def test_too_close_to_boundary(sin_solution):
    with pytest.raises(TooCloseToBoundary):
        eval_scattered(sin_solution, np.array([[0.3, sin_solution.profile.f(0.3) + 1e-4]]))


def test_scattered_reciprocity(grating_setup):
    med, _, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    x = np.array([0.3, 0.9])
    z = np.array([0.7, 0.7])
    p = np.array([1.0, 0.0])
    pq = np.array([0.0, 1.0])
    sol_f = solve_dirichlet(med, q, prof, point_source_incidence(z, pq), N=128)
    sol_b = solve_dirichlet(med, q.negated(), prof, point_source_incidence(x, p), N=128)
    lhs = np.dot(p, eval_scattered(sol_f, x[None, :])[0])
    rhs = np.dot(pq, eval_scattered(sol_b, z[None, :])[0])
    assert abs(lhs - rhs) < 1e-4 * max(abs(lhs), 1.0)


def test_multi_incident_shares_factorization(grating_setup, monkeypatch):
    # plane and point incidences, the point sources at different heights:
    # one factorisation and one lu_solve of the (2N, k) block, each density
    # the one its incidence gets alone
    import qpelastic.bem2d as bem

    med, inc, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    # an s wave at the angle whose momentum k_s sin(theta) is alpha
    theta = np.arcsin(q.alpha / np.real(med.k_s))
    incs = [inc, point_source_incidence((0.4, 0.8), (1.0, 0.0)),
            plane_incidence(med, "plane_s", theta)[0],
            point_source_incidence((0.75, 0.45), (0.6, 0.8))]
    refs = [solve_dirichlet(med, q, prof, i, N=64) for i in incs]
    solves = []
    lu_solve = bem.lu_solve
    monkeypatch.setattr(bem, "lu_solve", lambda lu, b: solves.append(b.shape) or lu_solve(lu, b))
    sols = solve_dirichlet_multi(med, q, prof, incs, N=64)
    assert solves == [(128, 4)]
    # the (128, 4) and (128, 1) solves take different BLAS paths, so a column
    # agrees to rounding times the condition (~115) relative to its own size:
    # the plane waves' densities are ~140, the point sources' ~2
    for sol, ref in zip(sols, refs):
        assert sol.incident is ref.incident
        assert np.max(np.abs(sol.density - ref.density)) < 1e-13 * np.max(np.abs(ref.density))
    assert np.max(np.abs(sols[1].density - refs[1].density)) < 1e-13


def test_resonance_guard(grating_setup, monkeypatch):
    import qpelastic.bem2d as bem

    med, inc, q = grating_setup
    monkeypatch.setattr(bem, "COND_LIMIT", 1.0)
    from qpelastic.errors import ResonanceSuspected

    with pytest.raises(ResonanceSuspected,
                       match=r"condition estimate \S+ exceeds 1 at N=32, omega=5.0$") as err:
        solve_dirichlet(med, q, ProfileCurve2(), inc, N=32)
    assert (err.value.N, err.value.omega, err.value.limit) == (32, 5.0, 1.0)


def test_wood_anomaly_refused(grating_setup):
    med, _, _ = grating_setup
    q = make_quasi_momentum("qp2d", float(np.real(med.k_p)))  # m = 0 at the p cut-off
    inc = point_source_incidence((0.3, 0.6), (1.0, 0.0))
    with pytest.raises(WoodAnomaly):
        solve_dirichlet(med, q, ProfileCurve2(), inc, N=32)


def test_n_validation(grating_setup):
    med, inc, q = grating_setup
    with pytest.raises(ValueError):
        solve_dirichlet(med, q, ProfileCurve2(), inc, N=48)
    with pytest.raises(ValueError):
        solve_dirichlet(med, q, ProfileCurve2(), inc, N=16)


def test_point_source_refuses_coincident_targets(grating_setup):
    # on the source and on its lattice image, where G is singular; the
    # parent code returned NaN and a finite but meaningless value there
    med, _, q = grating_setup
    src = QPSources(med, q, [(0.4, 0.3)])
    for X in ((0.4, 0.3), (1.4, 0.3), (-2.6, 0.3)):
        for jet in (False, True):
            with pytest.raises(CoincidentPoints):
                src.apply([[1.0, 0.0]], [X, (0.7, 0.9)], want_jet=jet)
    with pytest.raises(CoincidentPoints):
        point_source_incidence((0.4, 0.3), (1.0, 0.0)).eval(med, q, [(0.4, 0.3)])
    # 1e-9 away the field is finite and agrees with the oracle
    near = np.array([[0.4 + 1e-9, 0.3], [1.4, 0.3 - 1e-9]])
    got = src.apply([[1.0, 0.0]], near, want_jet=True)
    for r, g in zip(_applied_by_pairs(src, np.array([[1.0, 0.0]]), near), got):
        assert np.all(np.isfinite(g))
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def test_apply_charge_block(sin_solution, monkeypatch):
    # a (N, 2, k) block equals k calls with its columns, bit for bit, in
    # every branch of the evaluator rule
    sol = sin_solution
    rng = np.random.default_rng(5)
    block = rng.normal(size=(sol.N, 2, 3)) + 1j * rng.normal(size=(sol.N, 2, 3))
    h0 = np.max(sol.points[:, 1])
    X = np.array([[0.2, h0 + 0.6], [0.45, h0 + 0.15], [0.8, h0 + NEAR_GAP + 0.1],
                  [0.3, np.min(sol.points[:, 1]) - 0.5]])
    calls = _rayleigh_sides(monkeypatch)
    for jet in (False, True):
        calls.clear()
        got = sol.sources.apply(block, X, want_jet=jet)
        # above the crest and below the trough, each a Rayleigh form
        assert sorted(calls) == [(-1.0, 1), (1.0, 2)]
        cols = [sol.sources.apply(block[..., c], X, want_jet=jet) for c in range(3)]
        for j, g in enumerate(got if jet else (got,)):
            assert g.shape == (len(X), 2, 3)
            ref = np.stack([c[j] if jet else c for c in cols], axis=-1)
            assert np.array_equal(g, ref)


def _r00_by_extrapolation(med, alpha, n=24, half=0.2):
    """R(0, 0) for R = G + Phi/(2 pi), analytic on |tau| < 1: the Chebyshev
    interpolant through Abel-Plana values of R at n points of the line d = 0
    in [-half, half], evaluated at 0."""
    s = half * np.cos(np.pi * (np.arange(n) + 0.5) / n)
    R = near_line_abel_plana(med, alpha, s, np.zeros(n)) \
        + _kupradze_value(med, np.stack([s, np.zeros(n)], axis=-1)) / (2 * np.pi)
    coef = np.polynomial.chebyshev.chebfit(s / half, R.reshape(n, 4).view(float), n - 1)
    return np.polynomial.chebyshev.chebval(0.0, coef).view(complex).reshape(2, 2)


@pytest.mark.parametrize("omega", [5.0, 12.0])
def test_kernel_split_against_abel_plana(omega):
    """The Nystrom matrix M = W o A + B/N, on the nodes (the diagonal
    included) and at the residual's off-node points, against Abel-Plana plus
    the log-split formula: with w = phase * jac and a from scipy's jv,

        A = -chi w a / (4 pi),   B = w [G + chi a ln(4 sin^2(pi tau)) / (4 pi)]

    off the diagonal, and on it B = jac [R(0, 0) - (a(0) ln(jac / 2 pi) +
    Phi_fp(that)) / (2 pi)], with Phi_fp the free-space tensor's finite part;
    W are the log weights formed one row per collocation point (the circulant
    of the t = 0 row on the nodes), against which the matrix's weights, formed
    once per row class and node offset, are checked.  The profile spans 0.3
    in height, so pairs beyond NEAR_GAP are covered.  Within 1e-12 of
    max |M_ref|.  The reference takes G from Abel-Plana, not from the kernel
    table, so this test checks the table's reader independently."""
    from qpelastic.bem2d import _chi, _geometry, _kernel_split
    med = make_medium(2.0, 1.0, 1.0, omega)
    _, q = plane_incidence(med, "plane_p", 0.25)
    prof = ProfileCurve2(0.0, (0.05,), (0.12,))
    N = 32
    t = np.arange(N) / N
    pts, jac, _ = _geometry(prof, t)
    that = np.stack([np.ones(N), prof.df(t)], axis=-1) / jac[:, None]
    src = QPSources(med, q, pts)
    r00 = _r00_by_extrapolation(med, q.alpha)
    t_off = (np.arange(2 * N) + 0.37) / (2 * N)
    off_node = _geometry(prof, t_off)[0]
    on_weights = log_quadrature_weights_off_node(np.zeros(1), N)[0][
        (np.arange(N)[:, None] - np.arange(N)) % N]
    for rows, W, that_rows in ((pts, on_weights, that),
                               (off_node, log_quadrature_weights_off_node(t_off, N), None)):
        M = _kernel_split(src, rows, jac, that_rows)
        M = M.reshape(len(rows), 2, N, 2).transpose(0, 2, 1, 3)
        t1 = rows[:, 0][:, None] - pts[:, 0][None, :]
        tau = t1 - np.round(t1)
        w = np.exp(1j * q.alpha * np.round(t1)) * jac
        d = rows[:, 1][:, None] - pts[:, 1][None, :]
        a = log_coeff_jv(med, tau, d)
        chi = _chi(tau)
        A_ref = (-chi * w / (4 * np.pi))[..., None, None] * a
        B_ref = np.empty_like(A_ref)
        off = np.hypot(tau, d) > 0
        assert np.any(np.abs(d) > NEAR_GAP) and np.any(np.abs(d[off]) < 0.05)
        G = near_line_abel_plana(med, q.alpha, tau[off], d[off])
        log_sin = np.log(4 * np.sin(np.pi * tau[off]) ** 2)
        B_ref[off] = w[off][:, None, None] * (
            G + (chi[off] * log_sin / (4 * np.pi))[:, None, None] * a[off])
        if that_rows is not None:
            ji = jac[:, None, None]
            B_ref[~off] = ji * (r00 - (a[~off] * np.log(ji / (2 * np.pi))
                                       + phi_finite_part(med, that)) / (2 * np.pi))
        M_ref = W[..., None, None] * A_ref + B_ref / N
        assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))


def _kernel_split_per_pair(src, rows, jac, W, that_rows):
    """M of ``_kernel_split`` formed pair by pair, (rows, N, 2, 2): each pair
    wraps its own x1 - y1 = n + tau with tau in (-1/2, 1/2], reads T from
    ``table.remainder`` within NEAR_GAP and G from ``src.green`` beyond, and
    takes the log terms of the split at its own tau, with the log weights W
    formed one row per collocation point; the diagonal of on-node rows is the
    tangent limit of the ``_kernel_split`` docstring.  ``table.remainder``
    reads the table through the same reader as the assembly, so this checks
    the grouping by node offset, the weights and the scatter into M, not the
    reader (``test_kernel_split_against_abel_plana`` does)."""
    from qpelastic.bem2d import _chi
    from qpelastic.green2d import _iso, _kappa, _log_coeff
    med, N = src.medium, len(src.Y)
    t1 = rows[:, 0][:, None] - src.Y[:, 0]
    n = np.ceil(t1 - 0.5)
    tau, d = t1 - n, rows[:, 1][:, None] - src.Y[:, 1]
    r = np.hypot(tau, d)
    off = r > 0
    near, far = off & (np.abs(d) <= NEAR_GAP), np.abs(d) > NEAR_GAP
    K = np.zeros(r.shape + (2, 2), dtype=complex)
    K[near] = src.table.remainder(tau[near], d[near])
    K[far] = src.green(tau[far], d[far])
    tau, d, r, near = tau[off], d[off], r[off], near[off]
    a_i, a_rr = _log_coeff(med, r)
    log_w = (_chi(tau) * (np.log(4 * np.sin(np.pi * tau) ** 2) - N * W[off])
             - np.where(near, np.log(r * r), 0.0)) / (4 * np.pi)
    K[off] += _iso(a_i * log_w, a_rr * log_w - np.where(near, _kappa(med) / (2 * np.pi), 0.0),
                   tau / r, d / r)
    M = K * (np.exp(1j * src.q.alpha * n) * jac / N)[..., None, None]
    if that_rows is not None:
        on = np.arange(len(rows))
        a0 = _log_coeff(med, np.zeros(1))[0][0]
        ji = jac[:, None, None]
        tt = that_rows[:, :, None] * that_rows[:, None, :]
        core = src.table.remainder(0.0, 0.0)[0] - (
            a0 * np.log(ji / (2 * np.pi)) * np.eye(2) + _kappa(med) * tt) / (2 * np.pi)
        M[on, on] = ji * core / N - (a0 / (4 * np.pi)) * ji * W[on, on][:, None, None] * np.eye(2)
    return M


@pytest.mark.parametrize("N", [32, 64])
def test_kernel_split_against_per_pair(grating_setup, N):
    """The per-offset assembly of the Nystrom matrix against the same split
    formed pair by pair, on the nodes (the diagonal and the offset N/2 at
    tau = 1/2 included) and at the residual's two classes of off-node rows,
    on a profile 0.26 high, so that some pairs lie beyond NEAR_GAP; within
    1e-14 of max |M|.  A row on a node's lattice image is refused."""
    from qpelastic.bem2d import _geometry, _kernel_split
    med, _, q = grating_setup
    prof = ProfileCurve2(0.0, (0.05,), (0.12,))
    t = np.arange(N) / N
    pts, jac, that = _geometry(prof, t)
    src = QPSources(med, q, pts)
    t_off = (np.arange(2 * N) + 0.37) / (2 * N)
    on_weights = log_quadrature_weights_off_node(np.zeros(1), N)[0][
        (np.arange(N)[:, None] - np.arange(N)) % N]
    for rows, W, that_rows in ((pts, on_weights, that),
                               (_geometry(prof, t_off)[0],
                                log_quadrature_weights_off_node(t_off, N), None)):
        M = _kernel_split(src, rows, jac, that_rows)
        M = M.reshape(len(rows), 2, N, 2).transpose(0, 2, 1, 3)
        ref = _kernel_split_per_pair(src, rows, jac, W, that_rows)
        assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))
    d = pts[:, 1][:, None] - pts[:, 1]
    half = (np.arange(N)[:, None] - np.arange(N)) % N == N // 2
    assert np.any(np.abs(d[half]) <= NEAR_GAP) and np.any(np.abs(d) > NEAR_GAP)
    image = pts[3:5] + [1.0, 0.0]
    with pytest.raises(CoincidentPoints):
        _kernel_split(src, image, jac, None)


def test_log_weights_formed_once_per_row_class(grating_setup, monkeypatch):
    """The log weights of a pair depend on its row's class and node offset
    alone, so a system takes one weight row, at t = 0, and the residual one
    per class of its off-node rows, two, not one per row."""
    from qpelastic import bem2d

    med, inc, q = grating_setup
    prof = ProfileCurve2(0.0, (), (0.1,))
    sol = solve_dirichlet(med, q, prof, inc, N=64)
    points = []
    weights = bem2d.log_quadrature_weights_off_node

    def counted(t, N):
        points.append(len(t))
        return weights(t, N)

    monkeypatch.setattr(bem2d, "log_quadrature_weights_off_node", counted)
    bem2d._build_system(med, q, prof, 64)
    assert sum(points) <= 1
    points.clear()
    assert boundary_residual(sol) < 1e-6
    assert sum(points) <= 2


def test_split_evaluates_no_hankel_function(grating_setup, monkeypatch):
    """Once the kernel table is built, a solve and its residual evaluate no
    Hankel function and no free-space tensor: every binding of
    ``specfun.hankel01`` and of the free-space tensor raises."""
    import sys

    from qpelastic import green_free, specfun
    from qpelastic.green2d import remainder_table

    med, inc, q = grating_setup
    remainder_table(med, q.alpha)

    def refuse(*args, **kwargs):
        raise AssertionError("a Hankel function or free-space tensor was evaluated")

    package = [m for k, m in sys.modules.items() if k.startswith("qpelastic")]
    for owner, name in ((specfun, "hankel01"), (green_free, "_kupradze_value"),
                        (green_free, "_tensor_coeffs"), (green_free, "_radial2d")):
        target = getattr(owner, name)
        for mod in package:
            if getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, refuse)
    with pytest.raises(AssertionError):
        green_free.kupradze(med, 2, (0.1, 0.2), (0.0, 0.0))
    sol = solve_dirichlet(med, q, ProfileCurve2(0.0, (0.05,), (0.12,)), inc, N=64)
    assert boundary_residual(sol) < 1e-5


def test_sources_build_table_and_rayleigh_factors_on_demand(grating_setup, monkeypatch):
    import qpelastic.green2d as g2

    med, _, q = grating_setup
    g2.remainder_table.cache_clear()
    fits = []
    fit = g2._fit_remainder
    monkeypatch.setattr(g2, "_fit_remainder",
                        lambda *a, **k: fits.append(k.get("derivatives", False)) or fit(*a, **k))
    src = QPSources(med, q, [(0.4, 0.3)])
    src.apply([[1.0, 0.0]], [(0.2, -0.5), (0.9, 0.0)])          # plain series only
    assert fits == [] and "table" not in vars(src) and "_rayleigh_factors" not in vars(src)
    src.apply([[1.0, 0.0]], [(0.2, 0.45)])                      # within NEAR_GAP
    assert fits == [False] and "_rayleigh_factors" not in vars(src)
    src.apply([[1.0, 0.0]], [(0.2, 0.9)])                       # above the crest
    assert "_rayleigh_factors" in vars(src)
    # other sources of the same (medium, alpha) share the table, the system
    # of a point-source incidence included; jets fit their derivative table once
    QPSources(med, q, [(0.1, 0.2)]).apply([[0.0, 1.0]], [(0.3, 0.25)], want_jet=True)
    sol = solve_dirichlet(med, q, ProfileCurve2(0.0, (), (0.1,)),
                          point_source_incidence((0.4, 0.2), (1.0, 0.0)), N=32)
    boundary_residual(sol)
    sol.sources.apply(sol.density, [(0.3, 0.2)], want_jet=True)
    assert fits == [False, True]


def test_point_source_past_table_limit(grating_setup, monkeypatch):
    # omega = 160 is past the largest frequency at which the kernel table
    # resolves: a target within NEAR_GAP of the source is refused, not
    # answered by another evaluator; targets beyond still get the series.
    # The refusal is kept: the second evaluation raises the same error
    # without fitting again, so one growth sequence is fitted, not two,
    # until the cache is cleared
    import qpelastic.green2d as g2

    g2.remainder_table.cache_clear()
    fits = []
    fit = g2._fit_remainder
    monkeypatch.setattr(g2, "_fit_remainder", lambda *a, **k: fits.append(a[2:]) or fit(*a, **k))
    med = make_medium(2.0, 1.0, 1.0, 160.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    inc = point_source_incidence((0.4, 0.3), (1.0, 0.0))
    with pytest.raises(TableUnresolved) as first:
        inc.eval(med, q, [(0.5, 0.45)])
    growth = list(fits)
    assert len(growth) > 1
    with pytest.raises(TableUnresolved) as again:
        inc.jet(med, q, [(0.3, 0.2)])
    assert str(again.value) == str(first.value) and fits == growth
    # clearing the cache forgets the refusal too
    g2.remainder_table.cache_clear()
    with pytest.raises(TableUnresolved):
        inc.eval(med, q, [(0.5, 0.45)])
    assert fits == 2 * growth
    assert np.all(np.isfinite(inc.eval(med, q, [(0.5, 0.9), (0.2, -0.2)])))
