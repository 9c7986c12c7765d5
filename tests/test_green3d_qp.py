import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import mp_k01, mp_qp3d_series, qp3d_mode_tensor_quadrature
from qpelastic.errors import DomainError, NearSourceLine
import qpelastic.checks as checks
import qpelastic.green3d_qp as green3d_qp
from qpelastic.checks import delta_weight_qp3d, navier_residual, ode_residual
from qpelastic.green3d_qp import (_tail_bound, c_arrays, c_l, green3dqp_eval,
                                  green3dqp_eval_batch)
from qpelastic.green_free import comb_normalization, lattice_sum
from qpelastic.medium import ModeTable, make_medium, make_quasi_momentum, series_window
from qpelastic.specfun import u01


def _one_mode(medium, a):
    """The table of the one momentum ``a`` (mode 0 of alpha = a)."""
    return ModeTable.of(medium, make_quasi_momentum("qp3d", a), [0])


# the ids name the cases of the paper's mode tables
@pytest.mark.parametrize("a,klass", [
    pytest.param(0.3, "L1", id="0.3-III"),     # both waves propagating
    pytest.param(0.75, "L2", id="0.75-II"),    # s propagating, p evanescent
    pytest.param(1.7, "L3", id="1.7-I"),       # both evanescent
])
def test_mode_tensor_certified_by_quadrature(medium, a, klass):
    """Every entry of the transverse tensor against the symbol-inversion oracle."""
    q = make_quasi_momentum("qp3d", a, medium)
    got = c_l(medium, q, 0, 0.8, 0.55)
    assert ModeTable.of(medium, q, [0]).klass[0] == klass
    ref = qp3d_mode_tensor_quadrature(medium, a, 0.8, 0.55)
    assert np.max(np.abs(got - ref)) < 1e-6 * np.max(np.abs(ref))


def test_mode_tensor_quadrature_second_geometry(medium):
    q = make_quasi_momentum("qp3d", 0.45, medium)
    got = c_l(medium, q, 0, -0.6, 1.1)
    ref = qp3d_mode_tensor_quadrature(medium, 0.45, -0.6, 1.1)
    assert np.max(np.abs(got - ref)) < 1e-6 * np.max(np.abs(ref))


def test_mode_tensor_structure(medium):
    q = make_quasi_momentum("qp3d", 0.3, medium)
    c = c_l(medium, q, 1, 0.4, 0.7)
    assert np.max(np.abs(c - c.T)) == 0.0

    # c_21 carries the explicit alpha_l factor
    q0 = make_quasi_momentum("qp3d", 0.0)
    c0 = c_l(medium, q0, 0, 0.4, 0.7)
    assert abs(c0[0, 1]) == 0.0 and abs(c0[0, 2]) == 0.0

    with pytest.raises(DomainError):
        c_l(medium, q, 0, 0.0, 0.0)


def test_case1_exponential_decay(medium):
    q = make_quasi_momentum("qp3d", 0.3, medium)
    rs = np.array([2.0, 3.0, 4.0])
    vals = []
    for r in rs:
        vals.append(np.max(np.abs(c_l(medium, q, 1, r, 0.0))))
    mode = ModeTable.of(medium, q, [1])
    gp = float(np.imag(mode.beta_l[0]))
    fitted = -np.polyfit(rs, np.log(vals), 1)[0]
    # K-Bessel envelope: e^{-gamma_p r} decay rate up to the sqrt prefactor
    assert fitted == pytest.approx(float(np.imag(mode.gamma_l[0])), abs=0.7)
    assert fitted < gp + 0.5


def test_ode_residual_fourth_order(medium):
    q = make_quasi_momentum("qp3d", 0.3, medium)
    r1 = ode_residual(medium, q, 0, 0.7, 0.6, 1e-2)
    r2 = ode_residual(medium, q, 0, 0.7, 0.6, 5e-3)
    assert r1 / abs(medium.rho_omega2) < 1e-6
    assert 12.0 < r1 / r2 < 20.0
    # near the source the operator sees the delta
    assert ode_residual(medium, q, 0, 0.05, 0.0, 1e-2) > 100 * r1


def test_case_behavior_across_cutoff():
    """Behavior across the s cut-off at equidistant parameters.

    All entries except the transverse diagonal pair approach each other;
    that pair diverges logarithmically on BOTH sides and carries the exact
    outgoing turn-on offset -i pi/2 * a^2 / (4 pi^2 rho w^2): the wave that
    starts propagating does so with a finite amplitude.  (Both sides are
    certified against the quadrature oracle elsewhere.)
    """
    med = make_medium(2.0, 1.0, 1.0, 1.0)  # k_s = 1
    deltas = [0.3, 0.1, 0.03, 0.01]
    gaps, diag_offsets = [], []
    for d in deltas:
        a_lo = np.sqrt(1.0 - d)
        a_hi = np.sqrt(1.0 + d)
        c_lo = c_arrays(med, _one_mode(med, a_lo), 0.8, 0.55)[0]
        c_hi = c_arrays(med, _one_mode(med, a_hi), 0.8, 0.55)[0]
        diff = c_lo - c_hi
        diag_offsets.append(0.5 * (diff[1, 1] + diff[2, 2]))
        diff[1, 1] = diff[2, 2] = 0.0
        gaps.append(np.max(np.abs(diff)))
    assert gaps[3] < gaps[1] < gaps[0]
    assert gaps[3] < 2e-3
    turn_on = -0.5j * np.pi / (4 * np.pi**2 * np.real(med.rho_omega2))
    errs = [abs(o - turn_on) for o in diag_offsets]
    assert errs[3] < errs[0]
    assert errs[3] < 5e-3 * abs(turn_on) * 10


def test_series_quasi_periodicity_and_reciprocity(rng):
    for _ in range(6):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp3d")
        x = np.array([rng.uniform(0, 1), rng.uniform(0.4, 1.0), rng.uniform(0.2, 0.6)])
        y = np.zeros(3)
        g0 = green3dqp_eval(med, q, x, y, 1e-10).value
        g1 = green3dqp_eval(med, q, x + np.array([1, 0, 0]), y, 1e-10).value
        assert np.max(np.abs(g1 - np.exp(1j * q.alpha) * g0)) / np.max(np.abs(g0)) < 1e-12
        z = np.array([rng.uniform(-0.5, 0.5), -0.3, 0.15])
        a = green3dqp_eval(med, q, x, z, 1e-10).value
        b = green3dqp_eval(med, q.negated(), z, x, 1e-10).value
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-12


def test_series_oracle_agreement(medium):
    med = medium.complexified(0.1)
    q = make_quasi_momentum("qp3d", 0.3)
    x, y = np.array([0.3, 0.7, 0.6]), np.zeros(3)
    spec = green3dqp_eval(med, q, x, y, 1e-12).value
    lat = lattice_sum(med, q, x, y, N=400).value
    rel = np.max(np.abs(spec - comb_normalization("qp3d") * lat)) / np.max(np.abs(spec))
    assert rel < 1e-4


def test_series_pde_residual():
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("qp3d", 0.3, med)
    y = np.zeros(3)

    def col(P, j=0):
        return green3dqp_eval_batch(med, q, P, y, 1e-12)[0][:, :, j]

    assert navier_residual(col, med, np.array([[0.3, 0.8, 0.9]]), 1e-2) < 1e-6


def test_delta_weight(medium):
    q = make_quasi_momentum("qp3d", 0.3, medium)
    w = delta_weight_qp3d(medium, q, 0)
    assert np.max(np.abs(w - np.eye(3) / (2 * np.pi))) < 1e-6


def test_gap_guard(medium):
    q = make_quasi_momentum("qp3d", 0.3, medium)
    with pytest.raises(NearSourceLine):
        green3dqp_eval(medium, q, (0.3, 5e-3, 0.0), (0, 0, 0))


def test_hermitian_structure_under_negation(medium):
    # transverse reciprocity: c^{-a}(-x_perp) = c^{a}(x_perp)
    a = 0.77
    c1 = c_arrays(medium, _one_mode(medium, a), 0.5, 0.6)[0]
    c2 = c_arrays(medium, _one_mode(medium, -a), -0.5, -0.6)[0]
    assert np.max(np.abs(c1 - c2)) < 1e-15


def _pointwise(c_fn):
    """c_arrays taken one scalar (x2, x3) at a time and stacked to the broadcast shape."""
    def stacked(medium, modes, x2, x3):
        x2, x3 = np.broadcast_arrays(np.asarray(x2, float), np.asarray(x3, float))
        out = [c_fn(medium, modes, u, v) for u, v in zip(x2.ravel().tolist(), x3.ravel().tolist())]
        return np.reshape(out, x2.shape + (len(modes.m), 3, 3))
    return stacked


def test_c_arrays_broadcast_equals_point_calls(medium, rng):
    q = make_quasi_momentum("qp3d", 0.3)
    # enough points that a last-bit difference in r^3 would show
    x2, x3 = rng.uniform(-1, 1, (20, 10)), rng.uniform(-1, 1, 10)
    assert c_arrays(medium, ModeTable.of(medium, q, np.arange(-6, 7)), 0.5, -0.6).shape \
        == (13, 3, 3)
    for med in (medium, medium.complexified(0.1)):
        modes = ModeTable.of(med, q, np.arange(-6, 7))
        got = c_arrays(med, modes, x2, x3)
        assert got.shape == (20, 10, 13, 3, 3)
        assert np.array_equal(got, _pointwise(c_arrays)(med, modes, x2, x3))


def test_batch_equals_point_loop(rng):
    """One window for the batch; repeated (x2, x3), both signs of x3."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("qp3d", 0.3, med)
    y = np.array([0.1, 0.05, -0.02])
    T = np.array([[0.3, 0.4], [0.3, -0.4], [-0.02, 0.05], [1.1, 0.7]])
    X = np.array([[x1, y[1] + t2, y[2] + t3] for t2, t3 in T for x1 in rng.uniform(-1, 2, 3)])
    vals, tails, n = green3dqp_eval_batch(med, q, X, y)
    modes, tail = series_window(med, q, float(np.hypot(0.02, 0.05)), 1e-10, _tail_bound(med))
    al = modes.alpha_l
    assert type(n) is int and n == len(al)
    for x, v, tb in zip(X, vals, tails):
        d = x - y
        ref = np.tensordot(np.exp(1j * al * d[0]), c_arrays(med, modes, d[1], d[2]), axes=(0, 0))
        assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert tb == tail(np.hypot(d[1], d[2])) <= 1e-10


def test_fd_checks_equal_point_by_point_grids(medium, monkeypatch):
    q = make_quasi_momentum("qp3d", 0.3, medium)
    ode = [ode_residual(medium, q, m, 0.7, 0.6, 1e-2) for m in (0, 1, -2)]
    w = delta_weight_qp3d(medium, q, 0)
    calls = []
    pointwise = _pointwise(c_arrays)

    def counted(*args):
        calls.append(1)
        return pointwise(*args)

    # the binding the checks read, so the grids below are the point-by-point ones
    monkeypatch.setattr(checks, "c_arrays", counted)
    assert [ode_residual(medium, q, m, 0.7, 0.6, 1e-2) for m in (0, 1, -2)] == ode
    assert np.array_equal(delta_weight_qp3d(medium, q, 0), w)
    assert len(calls) == 3 + 6


@pytest.mark.parametrize("omega_im", [0.0, 0.1])
def test_batch_over_key_and_point_blocks(omega_im):
    """370 modes at gap 0.02: 200 distinct (x2 - y2, x3 - y3) of both signs
    span three blocks of tensors, and 1 000 points on one of them span two
    blocks of phases.  The values equal the per-point contraction."""
    rng = np.random.default_rng(13)
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    if omega_im:
        med = med.complexified(omega_im)
    q = make_quasi_momentum("qp3d", 0.3, med)
    y = np.array([0.1, 0.05, -0.02])
    phi = rng.uniform(0, 2 * np.pi, 200)
    T = np.linspace(0.02, 1.0, 200)[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
    T = np.concatenate([T, np.tile([[-0.2, 0.25]], (1000, 1))])
    X = np.column_stack([rng.uniform(-1, 2, len(T)), y[1:] + T])
    vals, _, n = green3dqp_eval_batch(med, q, X, y)
    modes = series_window(med, q, 0.02, 1e-10, _tail_bound(med))[0]
    al = modes.alpha_l
    assert n == len(al) == 370
    c = {}
    for x, v in zip(X, vals):
        d = x - y
        key = (d[1], d[2])
        if key not in c:
            c[key] = c_arrays(med, modes, d[1], d[2])
        ref = np.tensordot(np.exp(1j * al * d[0]), c[key], axes=(0, 0))
        assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mp_k01_against_besselk():
    import mpmath as mp

    with mp.workdps(40):
        for x in (0.05, 1.3, 23.0, 40.0):
            x = mp.mpf(x)
            for k, n in zip(mp_k01(x), (0, 1)):
                assert abs(k / mp.besselk(n, x) - 1) < 1e-30


@pytest.mark.parametrize("gap", [0.02, 0.05])
def test_series_against_40_digit_sum(gap):
    """The batch over its own window against a 40-digit sum over the same
    modes at four (x1, direction) pairs of one r.  The error grows with
    |x1 - y1|, through the phases of the far modes (4.4e-13 at 1.4, gap 0.02)."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("qp3d", 0.3, med)
    y = np.array([0.1, 0.0, 0.0])
    u, v = 0.6 * gap, 0.8 * gap
    X = np.array([[0.1, u, v], [0.45, -v, u], [-1.3, v, -u], [0.3, -u, -v]])
    vals, _, n = green3dqp_eval_batch(med, q, X, y)
    modes = series_window(med, q, float(np.hypot(u, v)), 1e-10, _tail_bound(med))[0]
    assert n == len(modes.m)
    ref = mp_qp3d_series(med, modes, X - y)
    assert np.max(np.abs(vals - ref)) <= 2e-12 * np.max(np.abs(ref))


def test_kernels_once_per_distinct_r(monkeypatch):
    """The batch takes u01 at each distinct transverse distance once, however
    many points and directions share it."""
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("qp3d", 0.3, med)
    radii = []

    def counted(m, r):
        radii.append(np.ravel(r).tolist())
        return u01(m, r)

    monkeypatch.setattr(green3d_qp, "u01", counted)
    X = [[x1, t2, t3] for t2, t3 in ((0.3, 0.4), (-0.4, 0.3), (0.4, -0.3), (-0.3, -0.4))
         for x1 in (0.0, 0.4, 1.0)]
    green3dqp_eval_batch(med, q, X, np.zeros(3))
    assert radii == [[float(np.hypot(0.3, 0.4))]]

    radii.clear()
    rng = np.random.default_rng(4)
    phi = rng.uniform(0, 2 * np.pi, 60)
    r = np.repeat([0.05, 0.3, 0.9], 20)
    X = np.column_stack([rng.uniform(-1, 1, 60), r * np.cos(phi), r * np.sin(phi)])
    green3dqp_eval_batch(med, q, X, np.zeros(3))
    got = sorted(sum(radii, []))
    assert got == np.unique(np.hypot(X[:, 1], X[:, 2])).tolist()
