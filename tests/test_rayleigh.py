import numpy as np
import pytest

from oracles import fd_curl, fd_divergence, transversality_defect
from qpelastic.errors import AliasedGrid, DegenerateModeBasis, DomainError
from qpelastic.checks import navier_apply_fd
from qpelastic.medium import ModeTable, make_medium, make_quasi_momentum
from qpelastic.rayleigh import (RayleighCoeffs2, RayleighCoeffs3Bi,
                                RayleighCoeffs3Qp, check_upgoing,
                                eval_rayleigh_2d, eval_rayleigh_3d_bi,
                                eval_rayleigh_3d_qp, extract_coeffs_2d,
                                flux_2d)
from qpelastic.bem2d import plane_incidence, traction


def _coeffs2(medium, q, entries):
    """entries: {m: (u_p, u_s)}"""
    up, us = zip(*entries.values())
    return RayleighCoeffs2(ModeTable.of(medium, q, list(entries)),
                           np.array(up, complex), np.array(us, complex))


def test_single_p_mode_is_curl_free(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    co = _coeffs2(medium_fast, q, {0: (1.0, 0.0)})

    def fld(P):
        return eval_rayleigh_2d(medium_fast, q, co, P)

    x = np.array([0.3, 0.8])
    assert abs(fd_curl(fld, x)) < 1e-8
    assert abs(fd_divergence(fld, x)) > 1e-2  # gradient field, not solenoidal


def test_single_s_mode_is_divergence_free(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    co = _coeffs2(medium_fast, q, {0: (0.0, 1.0)})

    def fld(P):
        return eval_rayleigh_2d(medium_fast, q, co, P)

    assert abs(fd_divergence(fld, np.array([0.3, 0.8]))) < 1e-8


def test_zero_coeffs(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    co = _coeffs2(medium_fast, q, {0: (0.0, 0.0), 1: (0.0, 0.0)})
    vals = eval_rayleigh_2d(medium_fast, q, co, np.array([[0.1, 0.5]]))
    assert np.all(vals == 0)


def test_expansion_solves_navier(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    co = _coeffs2(medium_fast, q, {0: (0.7 + 0.2j, -0.3j), 1: (0.05, 0.02), -1: (0.1j, 0.01)})

    def fld(P):
        return eval_rayleigh_2d(medium_fast, q, co, P)

    res = navier_apply_fd(fld, medium_fast, np.array([0.4, 0.9]), 1e-2)
    scale = abs(medium_fast.rho_omega2) * np.max(np.abs(fld(np.array([[0.4, 0.9]]))))
    assert np.max(np.abs(res)) / scale < 1e-6


def test_roundtrip_extract_eval(rng, medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    entries = {}
    for m in range(-3, 4):
        entries[m] = (complex(rng.normal(), rng.normal()) * 10.0**-abs(m),
                      complex(rng.normal(), rng.normal()) * 10.0**-abs(m))
    co = _coeffs2(medium_fast, q, entries)
    h = 0.5
    n_grid = 16
    x1 = np.arange(n_grid) / n_grid
    samples = eval_rayleigh_2d(medium_fast, q, co, np.stack([x1, np.full(n_grid, h)], axis=-1))
    back = extract_coeffs_2d(medium_fast, q, samples, h, 3)
    err = max(np.max(np.abs(back.u_p - co.u_p)), np.max(np.abs(back.u_s - co.u_s)))
    assert err < 1e-10

    # exact quasi-periodicity of the evaluated expansion
    X = np.array([[0.2, 0.9]])
    u0 = eval_rayleigh_2d(medium_fast, q, co, X)
    u1 = eval_rayleigh_2d(medium_fast, q, co, X + np.array([1.0, 0.0]))
    assert np.max(np.abs(u1 - np.exp(1j * q.alpha) * u0)) < 1e-12 * np.max(np.abs(u0))


def test_extract_guards(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    with pytest.raises(AliasedGrid):
        extract_coeffs_2d(medium_fast, q, np.zeros((5, 2), complex), 0.5, 3)


def test_degenerate_basis_raises():
    # alpha_l^2 + beta_l gamma_l = 0 requires complex tuning; construct via a
    # mode where beta = i b, gamma real and alpha^2 = b*gamma is impossible
    # to hit exactly on the lattice, so probe the guard with a tiny k_s^2 gap
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("qp2d", 0.3)
    # direct check: determinant formula is what the error tests
    mode = ModeTable.of(med, q, [0])
    det = mode.alpha_l[0]**2 + mode.beta_l[0] * mode.gamma_l[0]
    assert abs(det) > 1e-10  # generic mode is safe
    # force the guard by monkeypatching tolerance upward
    import qpelastic.rayleigh as rl
    old = rl.DEGENERACY_REL_TOL
    rl.DEGENERACY_REL_TOL = 1e6
    try:
        with pytest.raises(DegenerateModeBasis):
            extract_coeffs_2d(med, q, np.zeros((8, 2), complex), 0.5, 1)
    finally:
        rl.DEGENERACY_REL_TOL = old


def test_flux_signs_and_evanescent(medium_fast):
    med = medium_fast
    q = make_quasi_momentum("qp2d", 0.3, med)
    n = 32
    x1 = np.arange(n) / n
    X = np.stack([x1, np.full(n, 0.8)], axis=-1)
    nu = np.tile([0.0, 1.0], (n, 1))

    def jet_of(co):
        u = eval_rayleigh_2d(med, q, co, X)
        h = 1e-6
        u1 = eval_rayleigh_2d(med, q, co, X + [h, 0.0])
        u1m = eval_rayleigh_2d(med, q, co, X - [h, 0.0])
        u2 = eval_rayleigh_2d(med, q, co, X + [0.0, h])
        u2m = eval_rayleigh_2d(med, q, co, X - [0.0, h])
        grad = np.stack([(u1 - u1m) / (2 * h), (u2 - u2m) / (2 * h)], axis=-1)
        return u, grad

    co_p = _coeffs2(med, q, {0: (1.0, 0.0)})
    u, g = jet_of(co_p)
    j_up = flux_2d(med, u, traction(med, u, g, nu))
    assert j_up > 0  # upward propagating p mode carries positive flux

    co_ev = _coeffs2(med, q, {4: (1.0, 1.0)})
    u, g = jet_of(co_ev)
    j_ev = flux_2d(med, u, traction(med, u, g, nu))
    assert abs(j_ev) < 1e-12 * abs(j_up)


def test_check_upgoing(medium_fast):
    q = make_quasi_momentum("qp2d", 0.3, medium_fast)
    co = _coeffs2(medium_fast, q, {0: (1.0, 0.0)})
    assert check_upgoing(co).holds
    co_ev = _coeffs2(medium_fast, q, {4: (1.0, 0.5)})
    assert not check_upgoing(co_ev).holds


def _coeffs3bi(medium, q, entries):
    ap, asv = zip(*entries.values())
    return RayleighCoeffs3Bi(ModeTable.of(medium, q, list(entries)),
                             np.array(ap, complex), np.array(asv, complex))


def test_rayleigh_3d_bi(medium_fast):
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), medium_fast)
    co = _coeffs3bi(medium_fast, q, {(0, 0): (1.0, (0, 0, 0))})

    def fld(P):
        return eval_rayleigh_3d_bi(medium_fast, q, co, P)

    x = np.array([0.3, 0.2, 0.8])
    assert np.max(np.abs(fd_curl(fld, x))) < 1e-8

    res = navier_apply_fd(fld, medium_fast, x, 1e-2)
    scale = abs(medium_fast.rho_omega2) * np.max(np.abs(fld(x[None, :])))
    assert np.max(np.abs(res)) / scale < 1e-8

    assert np.all(eval_rayleigh_3d_bi(
        medium_fast, q, _coeffs3bi(medium_fast, q, {(0, 0): (0.0, (0, 0, 0))}),
        x[None, :]) == 0)

    # transversality defect is a diagnostic, not an invariant
    mode = ModeTable.of(medium_fast, q, [(0, 0)])
    kvec = np.array([mode.alpha_l[0, 0], mode.alpha_l[0, 1], mode.gamma_l[0]])
    v = np.array([kvec[1], -kvec[0], 0.0])  # orthogonal by construction
    co_t = _coeffs3bi(medium_fast, q, {(0, 0): (0.0, tuple(v))})
    assert transversality_defect(co_t) < 1e-12


def test_rayleigh_3d_qp(medium_fast):
    q = make_quasi_momentum("qp3d", 0.3, medium_fast)
    M = 3
    rng = np.random.default_rng(7)

    # p-part only: gradient field, curl-free
    A = rng.normal(size=2 * M + 1) * 0.5
    co_p = RayleighCoeffs3Qp({0: (A, None)}, M)

    def fld_p(P):
        return eval_rayleigh_3d_qp(medium_fast, q, co_p, P)

    x = np.array([0.25, 0.7, 0.5])
    assert np.max(np.abs(fd_curl(fld_p, x))) < 1e-6

    # s-part only: divergence-free
    B = rng.normal(size=(2 * M + 1, 3)) * 0.5
    co_s = RayleighCoeffs3Qp({0: (None, B)}, M)

    def fld_s(P):
        return eval_rayleigh_3d_qp(medium_fast, q, co_s, P)

    assert abs(fd_divergence(fld_s, x)) < 1e-6

    # the full expansion solves the Navier equation
    co = RayleighCoeffs3Qp({0: (A, B)}, M)

    def fld(P):
        return eval_rayleigh_3d_qp(medium_fast, q, co, P)

    res = navier_apply_fd(fld, medium_fast, x, 1e-2)
    scale = abs(medium_fast.rho_omega2) * np.max(np.abs(fld(x[None, :])))
    assert np.max(np.abs(res)) / scale < 1e-6

    with pytest.raises(DomainError):
        eval_rayleigh_3d_qp(medium_fast, q, co, np.array([[0.1, 0.0, 0.0]]))


def test_rayleigh_3d_qp_m0_reduction(medium_fast):
    # a single m=0 p-harmonic at theta=0 reduces to the radial Hankel profile
    from qpelastic.specfun import hankel1, hankel1_deriv

    q = make_quasi_momentum("qp3d", 0.3, medium_fast)
    M = 0
    co = RayleighCoeffs3Qp({0: (np.array([1.0 + 0j]), None)}, M)
    r = 0.8
    out = eval_rayleigh_3d_qp(medium_fast, q, co, np.array([[0.0, r, 0.0]]))[0]
    a = q.alpha
    bn = np.sqrt(np.real(medium_fast.k_p**2) - a * a)
    assert out[0] == pytest.approx(1j * a * hankel1(0, bn * r), rel=1e-12)
    assert out[1] == pytest.approx(bn * hankel1_deriv(0, bn * r), rel=1e-12)
    assert abs(out[2]) < 1e-14


def test_rayleigh_3d_qp_rejects_evanescent_part(medium):
    # medium with k_p = 0.5: axial mode n=1 is far beyond the p cut-off
    q = make_quasi_momentum("qp3d", 0.3, medium)
    co = RayleighCoeffs3Qp({1: (np.array([1.0 + 0j]), None)}, 0)
    with pytest.raises(DomainError):
        eval_rayleigh_3d_qp(medium, q, co, np.array([[0.0, 0.5, 0.5]]))


def _field_at(medium, which):
    """``(f(X), length)``: the field evaluator ``which`` on one fixed expansion
    or plane wave, and the length of its points."""
    if which == "rayleigh_2d":
        q = make_quasi_momentum("qp2d", 0.3, medium)
        co = _coeffs2(medium, q, {0: (1.0, 0.5)})
        return (lambda X: eval_rayleigh_2d(medium, q, co, X)), 2
    if which == "rayleigh_3d_bi":
        q = make_quasi_momentum("biqp3d", (0.3, 0.45), medium)
        co = _coeffs3bi(medium, q, {(0, 0): (1.0, (0, 0, 0))})
        return (lambda X: eval_rayleigh_3d_bi(medium, q, co, X)), 3
    if which == "rayleigh_3d_qp":
        q = make_quasi_momentum("qp3d", 0.3, medium)
        co = RayleighCoeffs3Qp({0: (np.ones(3), None)}, 1)
        return (lambda X: eval_rayleigh_3d_qp(medium, q, co, X)), 3
    field, q = plane_incidence(medium, "plane_p", 0.25)
    return (lambda X: field.jet(medium, q, X)), 2


@pytest.mark.parametrize("which", ["rayleigh_2d", "rayleigh_3d_bi", "rayleigh_3d_qp",
                                   "plane_wave_jet"])
def test_evaluators_refuse_points_of_wrong_length(medium_fast, which):
    """A point with a component too many or too few raises ValueError naming
    the length, not a field computed from some of its components or an
    IndexError."""
    f, dim = _field_at(medium_fast, which)
    f(np.full((2, dim), 0.4))
    for bad in (dim - 1, dim + 1):
        with pytest.raises(ValueError, match=f"length {dim}"):
            f(np.full((2, bad), 0.4))
