"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import (fd_curl, fd_divergence, flat_reflection, mp_bessel_j, mp_hankel1,
                     mp_mod_k)
from qpelastic import checks
from qpelastic.bem2d import (ProfileCurve2, boundary_residual, eval_scattered,
                             plane_incidence, point_source_incidence,
                             solve_dirichlet, solve_dirichlet_multi, traction)
from qpelastic.green2d import green2d_eval, green2d_eval_batch
from qpelastic.green3d_biqp import greenbi_eval, greenbi_eval_batch
from qpelastic.green3d_qp import green3dqp_eval, green3dqp_eval_batch
from qpelastic.green_free import comb_normalization, lattice_sum
from qpelastic.medium import make_medium, make_quasi_momentum
from qpelastic.phaseless import (SourceConfig, check_reciprocity,
                                 cosine_identity, dataset_gap, re_products,
                                 synth_phaseless)
from qpelastic.rayleigh import (RayleighCoeffs2, RayleighCoeffs3Qp,
                                eval_rayleigh_2d, eval_rayleigh_3d_qp,
                                extract_coeffs_2d, flux_2d)
from qpelastic.medium import ModeTable
from qpelastic.specfun import bessel_j, hankel1, mod_k

SEED = 20260810


def report(name, worst, tol, t0, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[acceptance] {name}: worst {worst:.3e} vs tol {tol:.1e} "
          f"({time.time() - t0:.1f}s) {extra}-> {status}")
    assert worst <= tol


def _draw_conf(rng, kind, omega_range=(0.8, 3.0)):
    while True:
        med = draw_medium(rng)
        if not omega_range[0] <= med.omega <= omega_range[1]:
            continue
        q = draw_momentum(rng, med, kind)
        return med, q


def test_criterion_1_quasi_periodicity():
    t0 = time.time()
    report("1 quasi-periodicity", *checks.quasiperiodicity(np.random.default_rng(SEED), 100), t0)


def test_criterion_2_point_source_reciprocity():
    t0 = time.time()
    report("2 point-source reciprocity",
           *checks.reciprocity(np.random.default_rng(SEED + 1), 100), t0)


def test_criterion_3_pde_residual():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 2)
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    residuals = {1e-2: 0.0, 2e-2: 0.0}
    n_points = {"qp2d": 8, "qp3d": 6, "biqp3d": 6}
    for kind in checks.GEOMETRIES:
        q = draw_momentum(rng, med, kind)
        for _ in range(n_points[kind]):
            if kind == "qp2d":
                y = np.zeros(2)
                x = np.array([rng.uniform(0, 1), rng.uniform(0.9, 1.4)])

                def fld(P, j=int(rng.integers(0, 2))):
                    return green2d_eval_batch(med, q, P, y, 1e-13)[0][:, :, j]
            elif kind == "qp3d":
                y = np.zeros(3)
                x = np.array([rng.uniform(0, 1), rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7)])

                def fld(P, j=int(rng.integers(0, 3))):
                    return green3dqp_eval_batch(med, q, P, y, 1e-12)[0][:, :, j]
            else:
                y = np.zeros(3)
                x = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.9, 1.4)])

                def fld(P, j=int(rng.integers(0, 3))):
                    return greenbi_eval_batch(med, q, P, y, 1e-10)[0][:, :, j]

            for h in (1e-2, 2e-2):
                residuals[h] = max(residuals[h], checks.navier_residual(fld, med, x[None, :], h))
    ratio = residuals[2e-2] / residuals[1e-2]
    ok_ratio = 12.0 <= ratio <= 20.0
    print(f"[acceptance] 3 pde-residual ratio {ratio:.2f} (target [12, 20]) "
          f"-> {'PASS' if ok_ratio else 'FAIL'}")
    assert ok_ratio
    report("3 pde-residual at h=1e-2", residuals[1e-2], 1e-6, t0)


def test_criterion_4_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    # the direct sums at complex omega with N = 46 / Im k_p, for all three lattices;
    # checks.oracle takes biqp3d by the Ewald split at real omega instead
    for kind in checks.GEOMETRIES:
        for _ in range(10):
            om_range = (1.5, 3.0) if kind == "biqp3d" else (0.8, 3.0)
            med_r, q = _draw_conf(rng, kind, om_range)
            med = med_r.complexified(0.1)
            im_kp = float(np.imag(med.k_p))
            fac = comb_normalization(kind)
            if kind == "qp2d":
                x, y = np.array([rng.uniform(0, 1), rng.uniform(0.8, 1.2)]), np.zeros(2)
                spec = green2d_eval(med, q, x, y, 1e-13).value
                lat = lattice_sum(med, q, x, y, N=int(46 / im_kp)).value
            elif kind == "qp3d":
                x = np.array([rng.uniform(0, 1), rng.uniform(0.7, 1.1), rng.uniform(0.2, 0.6)])
                y = np.zeros(3)
                spec = green3dqp_eval(med, q, x, y, 1e-12).value
                lat = lattice_sum(med, q, x, y, N=int(46 / im_kp)).value
            else:
                x = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.8, 1.2)])
                y = np.zeros(3)
                spec = greenbi_eval(med, q, x, y, 1e-12).value
                lat = lattice_sum(med, q, x, y, N=int(46 / im_kp)).value
            worst = max(worst, float(np.max(np.abs(spec - fac * lat)) / np.max(np.abs(spec))))
    report("4 spectral-vs-lattice oracle", worst, 1e-4, t0)


def test_criterion_5_ode_and_jump():
    t0 = time.time()
    report("5 mode ODE residual + delta weights",
           *checks.ode_jump(np.random.default_rng(SEED + 4), 100), t0)


def test_criterion_6_special_functions():
    t0 = time.time()
    xs = np.logspace(-2, 2, 200)
    worst = 0.0
    for n in (0, 1):
        for x in xs:
            ref = mp_bessel_j(n, x)
            worst = max(worst, abs(bessel_j(n, x) - ref) / max(abs(ref), 1e-300))
            refk = mp_mod_k(n, x)
            if refk > 1e-280:
                worst = max(worst, abs(mod_k(n, x) - refk) / refk)
            refh = mp_hankel1(n, x)
            worst = max(worst, abs(hankel1(n, x) - refh) / abs(refh))
    wron_worst = 0.0
    xs2 = np.logspace(np.log10(0.1), 2, 200)
    for m in (0, 1):
        wron = bessel_j(m + 1, xs2) * np.imag(hankel1(m, xs2)) \
            - bessel_j(m, xs2) * np.imag(hankel1(m + 1, xs2))
        wron_worst = max(wron_worst, float(np.max(np.abs(wron - 2 / (np.pi * xs2)))))
    print(f"[acceptance] 6 wronskian worst {wron_worst:.3e} vs 1e-10 "
          f"-> {'PASS' if wron_worst <= 1e-10 else 'FAIL'}")
    assert wron_worst <= 1e-10
    report("6 special functions vs 40-digit oracle", worst, 1e-12, t0)


def test_criterion_7_bem_flat_and_sinusoid():
    t0 = time.time()
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    inc, q = plane_incidence(med, "plane_p", 0.25)

    # flat profile against the closed-form reflection solution
    sol = solve_dirichlet(med, q, ProfileCurve2(), inc, N=128)
    _, up, us = flat_reflection(med, 0.25)
    co = sol.rayleigh(5)
    i0 = co.modes.m.tolist().index(0)
    leak = max(max(abs(co.u_p[i]), abs(co.u_s[i]))
               for i in range(len(co.modes.m)) if co.modes.m[i] != 0)
    flat_err = max(abs(co.u_p[i0] - up), abs(co.u_s[i0] - us), leak)
    print(f"[acceptance] 7a flat-interface oracle: worst {flat_err:.3e} vs 1e-8 "
          f"-> {'PASS' if flat_err <= 1e-8 else 'FAIL'}")
    assert flat_err <= 1e-8

    # sinusoidal profile at N = 256: boundary residual and energy balance
    prof = ProfileCurve2(0.0, (), (0.1,))
    sol2 = solve_dirichlet(med, q, prof, inc, N=256)
    resid = boundary_residual(sol2)
    n = 64
    x1 = np.arange(n) / n
    Xh = np.stack([x1, np.full(n, 0.6)], axis=-1)
    nu = np.tile([0.0, 1.0], (n, 1))
    ui, d1, d2 = inc.jet(med, q, Xh)
    gi = np.stack([d1, d2], axis=-1)
    usc, gs = eval_scattered(sol2, Xh, need_gradient=True)
    j_inc = flux_2d(med, ui, traction(med, ui, gi, nu))
    j_tot = flux_2d(med, ui + usc, traction(med, ui + usc, gi + gs, nu))
    balance = abs(j_tot) / abs(j_inc)
    print(f"[acceptance] 7b sinusoid N=256: residual {resid:.3e} vs 1e-6, "
          f"energy balance {balance:.3e} vs 1e-3 "
          f"-> {'PASS' if resid <= 1e-6 and balance <= 1e-3 else 'FAIL'}")
    assert resid <= 1e-6 and balance <= 1e-3
    report("7 grating solver", max(flat_err / 1e-8, resid / 1e-6, balance / 1e-3), 1.0, t0,
           extra="(normalized) ")


def test_criterion_8_scattered_total_reciprocity():
    t0 = time.time()
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    prof = ProfileCurve2(0.0, (), (0.1,))
    pairs = [((0.3, 0.9), (0.7, 0.7)), ((0.15, 1.1), (0.6, 0.8))]
    pols = [((1.0, 0.0), (0.0, 1.0)), ((0.6, 0.8), (1.0, 0.0))]
    v_sc = check_reciprocity(med, q, prof, "scattered", pairs, pols, N=128)
    v_tot = check_reciprocity(med, q, prof, "total", pairs, pols, N=128)
    report("8 scattered/total reciprocity", max(v_sc, v_tot), 1e-4, t0)


def test_criterion_9_rayleigh():
    t0 = time.time()
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    rng = np.random.default_rng(SEED + 9)
    up, us = [], []
    for m in range(-3, 4):
        up.append(complex(rng.normal(), rng.normal()) * 10.0**-abs(m))
        us.append(complex(rng.normal(), rng.normal()) * 10.0**-abs(m))
    co = RayleighCoeffs2(ModeTable.of(med, q, range(-3, 4)), np.array(up), np.array(us))
    h = 0.5
    n_grid = 16
    x1 = np.arange(n_grid) / n_grid
    samples = eval_rayleigh_2d(med, q, co, np.stack([x1, np.full(n_grid, h)], axis=-1))
    back = extract_coeffs_2d(med, q, samples, h, 3)
    rt = max(np.max(np.abs(back.u_p - co.u_p)), np.max(np.abs(back.u_s - co.u_s)))
    print(f"[acceptance] 9a rayleigh roundtrip: {rt:.3e} vs 1e-10 "
          f"-> {'PASS' if rt <= 1e-10 else 'FAIL'}")
    assert rt <= 1e-10

    # cylindrical-harmonic expansion: p part curl-free, s part divergence-free
    M = 3
    A = rng.normal(size=2 * M + 1) * 0.5
    B = rng.normal(size=(2 * M + 1, 3)) * 0.5
    co_p = RayleighCoeffs3Qp({0: (A, None)}, M)
    co_s = RayleighCoeffs3Qp({0: (None, B)}, M)
    q3 = make_quasi_momentum("qp3d", 0.3, med)
    x = np.array([0.25, 0.7, 0.5])

    def fld_p(P):
        return eval_rayleigh_3d_qp(med, q3, co_p, P)

    def fld_s(P):
        return eval_rayleigh_3d_qp(med, q3, co_s, P)

    worst = max(float(np.max(np.abs(fd_curl(fld_p, x)))),
                float(abs(fd_divergence(fld_s, x))))
    report("9 rayleigh identities", worst, 1e-6, t0)


def test_criterion_10_phaseless():
    t0 = time.time()
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    sq2 = 1 / np.sqrt(2)
    cfg = SourceConfig(
        z_tilde=(0.35, 0.45),
        fixed_pol=(1.0, 0.0),
        movable_pols=((1.0, 0.0), (0.0, 1.0)),
        probes=((1.0, 0.0), (0.0, 1.0), (sq2, sq2), (sq2, -sq2), (0.6, 0.8)),
        sigma_center=(0.5, 0.75),
        sigma_axes=(0.25, 0.1),
        n_sources=2,
        grid_x1=tuple(np.linspace(0.05, 0.95, 8)),
        height=1.1,
    )
    prof1 = ProfileCurve2(0.0, (), (0.1,))
    prof2 = ProfileCurve2(0.0, (0.05,), (0.08,))
    ds1 = synth_phaseless(med, q, prof1, cfg, N=128)
    ds2 = synth_phaseless(med, q, prof2, cfg, N=128)

    exact_self = cosine_identity(ds1, ds1)
    assert exact_self == 0.0

    # polarization-identity consistency against independently recomputed fields
    X = cfg.grid_points()
    incs = [point_source_incidence(cfg.z_tilde, cfg.fixed_pol)]
    zs = cfg.movable_points()
    for l in range(2):
        for j in range(2):
            incs.append(point_source_incidence(zs[j], cfg.movable_pols[l]))
    sols = solve_dirichlet_multi(med, q, prof1, incs, 128)
    fields = [s.incident.eval(med, q, X) + eval_scattered(s, X) for s in sols]
    probes = np.asarray(cfg.probes)
    worst_pol = 0.0
    rp = re_products(ds1)
    for k in range(5):
        a = fields[0] @ probes[k]
        for l in range(2):
            for j in range(2):
                b = fields[1 + l * 2 + j] @ probes[k]
                direct = np.real(a * np.conj(b))
                worst_pol = max(worst_pol, float(np.max(np.abs(direct - rp[k, l, j]))))
    print(f"[acceptance] 10a polarization identity: {worst_pol:.3e} vs 1e-12 "
          f"-> {'PASS' if worst_pol <= 1e-12 else 'FAIL'}")
    assert worst_pol <= 1e-12

    gap = dataset_gap(ds1, ds2)
    print(f"[acceptance] 10b distinct profiles differ by {gap:.3e} (> 1e-6) "
          f"-> {'PASS' if gap > 1e-6 else 'FAIL'}")
    assert gap > 1e-6
    report("10 phaseless dataset identities", max(exact_self, worst_pol), 1e-12, t0)
