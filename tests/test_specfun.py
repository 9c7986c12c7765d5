import numpy as np
import pytest
from scipy import special as sp

from oracles import mp_bessel_j, mp_hankel1, mp_mod_k, mp_u01
from qpelastic.errors import DomainError
from qpelastic.medium import branch_sqrt, make_medium
from qpelastic.specfun import (bessel_j, hankel01, hankel1, hankel1_deriv, mod_k,
                               mod_k_deriv, u01)

# reference values frozen from the 40-digit oracle
J0_1 = 0.7651976865579665514497175261026632209093
H0_2 = 0.2238907791412356680518274546499486258252 + 0.5103756726497451195966065927271578732681j
H1_2 = 0.5767248077568733872024482422691370869203 - 0.1070324315409375468883707722774766366874j
K0_1 = 0.4210244382407083333914132409090824222621
K1_1 = 0.6019072301972345747375400015356173392616


def test_bessel_j_values():
    assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert bessel_j(0, 1.0) == pytest.approx(J0_1, rel=1e-13)
    assert bessel_j(0, 1.0) == pytest.approx(mp_bessel_j(0, 1.0), rel=1e-13)


def test_hankel1_values():
    assert hankel1(0, 2.0) == pytest.approx(H0_2, rel=1e-13)
    assert hankel1(1, 2.0) == pytest.approx(H1_2, rel=1e-13)
    with pytest.raises(DomainError):
        hankel1(0, 0.0)
    with pytest.raises(DomainError):
        hankel1(0, -1.0)


def test_mod_k_values():
    assert mod_k(0, 1.0) == pytest.approx(K0_1, rel=1e-13)
    assert mod_k(1, 1.0) == pytest.approx(K1_1, rel=1e-13)
    assert 0.0 < mod_k(0, 50.0) < 1e-20
    with pytest.raises(DomainError):
        mod_k(0, -2.0)


def test_mod_k_deriv():
    val = mod_k_deriv(1, 1.0)
    assert val == pytest.approx(-K0_1 - K1_1, rel=1e-13)
    assert val == pytest.approx(-1.022931668437943, rel=1e-12)
    # exponential decay towards zero from below
    assert -1e-8 < mod_k_deriv(1, 25.0) < 0.0
    h = 1e-5
    fd = (mod_k(1, 1.0 + h) - mod_k(1, 1.0 - h)) / (2 * h)
    assert val == pytest.approx(fd, abs=1e-8)


def test_hankel1_deriv():
    assert hankel1_deriv(0, 2.0) == pytest.approx(-hankel1(1, 2.0), rel=1e-14)
    h = 1e-5
    fd = (hankel1(1, 2.0 + h) - hankel1(1, 2.0 - h)) / (2 * h)
    assert hankel1_deriv(1, 2.0) == pytest.approx(fd, abs=1e-8)
    with pytest.raises(DomainError):
        hankel1_deriv(0, 0.0)


@pytest.mark.parametrize("fn,mp_fn,orders", [
    (bessel_j, mp_bessel_j, (0, 1, 2, 5)),
    (mod_k, mp_mod_k, (0, 1)),
])
def test_against_extended_precision_grid(fn, mp_fn, orders):
    xs = np.logspace(-2, 2, 200)
    for n in orders:
        ref = np.array([mp_fn(n, x) for x in xs])
        vals = np.array([fn(n, x) for x in xs])
        denom = np.maximum(np.abs(ref), 1e-300)
        mask = np.abs(ref) > 1e-280  # skip hard-underflow tail of K
        assert np.max(np.abs(vals - ref)[mask] / denom[mask]) < 1e-12


def test_hankel_against_extended_precision_grid():
    xs = np.logspace(-6, 4, 200)
    for m in (0, 1):
        ref = np.array([mp_hankel1(m, x) for x in xs])
        vals = np.array([hankel1(m, x) for x in xs])
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-12


def test_wronskian():
    xs = np.logspace(np.log10(0.1), 2, 300)
    for m in (0, 1, 4):
        jm = bessel_j(m, xs)
        jm1 = bessel_j(m + 1, xs)
        ym = np.imag(hankel1(m, xs))
        ym1 = np.imag(hankel1(m + 1, xs))
        wron = jm1 * ym - jm * ym1
        assert np.max(np.abs(wron - 2 / (np.pi * xs))) < 1e-10


def test_k_monotone_decay():
    xs = np.linspace(0.05, 20.0, 150)
    for nu in (0, 1):
        vals = mod_k(nu, xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


def test_unified_kernels_reduce_to_k():
    # u0(i g, r) = K_0(g r), u1(i g, r) = K_1(g r)
    g, r = 1.3, 0.7
    (u0,), (u1,) = u01(np.array([1j * g]), r)
    assert u0 == pytest.approx(mod_k(0, g * r), rel=1e-12)
    assert u1 == pytest.approx(mod_k(1, g * r), rel=1e-12)
    # and carry the outgoing Hankel wave for real argument
    assert u01(np.array([g]), r)[0][0] == pytest.approx(0.5j * np.pi * hankel1(0, g * r), rel=1e-14)
    # roots of all three kinds in one call give each root's own values
    m = np.array([1j * g, g, g * (1 + 0.1j), 2j * g])
    R = np.array([[0.7], [2.5]])
    single = np.stack([np.array(u01(m[i:i + 1], R))[..., 0] for i in range(4)], axis=-1)
    assert np.array_equal(np.array(u01(m, R)), single)


def _roots(medium, alphas):
    """Branch roots sqrt(k^2 - a^2) (Im >= 0) of both wavenumbers."""
    a = np.asarray(alphas, dtype=float)
    return np.concatenate([branch_sqrt(k**2 - a * a) for k in (medium.k_p, medium.k_s)])


@pytest.mark.parametrize("kind", ["evanescent", "propagating", "complex"])
def test_u01_against_extended_precision_grid(kind):
    """Each branch of u01 (cephes K_0/K_1, cephes J/Y, AMOS) on |m| r in 1e-3..40."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    if kind == "complex":
        # a p root near the real axis and an s root near the imaginary axis
        roots = _roots(med.complexified(0.1), [0.3, 0.3 + 4 * np.pi])[[0, 3]]
        assert np.all(roots.real * roots.imag != 0)
    else:
        roots = _roots(med, [0.3 + 2 * np.pi if kind == "evanescent" else 0.3])
        assert np.all(roots.real == 0) if kind == "evanescent" else np.all(roots.imag == 0)
    x = np.logspace(-3, np.log10(40.0), 25)
    for m in roots:
        r = x / abs(m)
        got = np.array(u01(np.array([m]), r[:, None]))[:, :, 0]
        ref = np.array([mp_u01(m, ri) for ri in r.tolist()]).T
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


def test_hankel01_dispatch():
    x = np.logspace(-3, 2, 50)
    h0, h1 = hankel01(x)
    assert np.array_equal(h0, sp.j0(x) + 1j * sp.y0(x))
    assert np.array_equal(h1, sp.j1(x) + 1j * sp.y1(x))
    z = x * np.exp(0.3j)
    assert np.array_equal(hankel01(z)[1], sp.hankel1(1, z))
    assert np.max(np.abs(h0 - sp.hankel1(0, x)) / np.abs(h0)) <= 1e-14
