import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import (_series_sum, mode_term_2d, mp_log_part, mp_mode_block_2d,
                     near_line_abel_plana)
from qpelastic.errors import (CoincidentPoints, DomainError, NearSourceLine,
                              TableUnresolved, WoodAnomaly)
from qpelastic.checks import navier_residual
from qpelastic.green2d import (_PAIR_MODES, NEAR_GAP, QPSources, _mode_weights, _tail_bound,
                               green2d_eval, green2d_eval_batch, green2d_near_line_batch,
                               remainder_table)
from qpelastic.medium import (ModeTable, make_medium, make_quasi_momentum, mode_window,
                              series_window)


def test_literal_equals_unified(rng):
    """Standing regression of the three case matrices against the branch form."""
    for _ in range(30):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp2d")
        m = int(rng.integers(-3, 4))
        try:
            mode = ModeTable.of(med, q, [m])
        except WoodAnomaly:
            continue
        x2, y2 = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        lit = mode_term_2d(med, mode, x2, y2, "literal")
        uni = mode_term_2d(med, mode, x2, y2, "unified")
        scale = max(np.max(np.abs(uni.matrix)), 1e-300)
        assert np.max(np.abs(lit.matrix - uni.matrix)) / scale < 1e-13
        assert lit.case_used == f"literal_{mode.klass[0]}"


def test_mode_blocks_against_extended_precision(rng):
    # high modes put |alpha_l|^2 up to ~1e4 |k_s^2 - k_p^2|, where the
    # diagonal entries are O(|alpha_l|) terms that nearly cancel
    for _ in range(40):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp2d")
        m = int(rng.integers(-12, 13))
        try:
            mode = ModeTable.of(med, q, [m])
        except WoodAnomaly:
            continue
        d = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-4, 0.3))
        ref = mp_mode_block_2d(med, mode.alpha_l[0], d)
        for form in ("unified", "literal"):
            got = mode_term_2d(med, mode, d, 0.0, form).matrix
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mode_term_symmetry_and_structure(medium):
    q = make_quasi_momentum("qp2d", 0.3, medium)
    mode = ModeTable.of(medium, q, [1])
    # sgn-pairing symmetry: term(-alpha_l)(y2, x2) = term(alpha_l)(x2, y2)
    qm = q.negated()
    mode_m = ModeTable.of(medium, qm, [-1])
    t1 = mode_term_2d(medium, mode, 0.7, 0.2).matrix
    t2 = mode_term_2d(medium, mode_m, 0.2, 0.7).matrix
    assert np.max(np.abs(t1 - t2)) < 1e-15

    # off-diagonal entries vanish when alpha_l = 0
    med2 = make_medium(2.0, 1.0, 1.0, 1.0)
    q0 = make_quasi_momentum("qp2d", 0.0)
    mode0 = ModeTable.of(med2, q0, [0])
    t0 = mode_term_2d(med2, mode0, 0.9, 0.1).matrix
    assert abs(t0[0, 1]) == 0.0 and abs(t0[1, 0]) == 0.0


def test_quasi_periodicity_exact(rng):
    for _ in range(10):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp2d")
        x = np.array([rng.uniform(0, 1), rng.uniform(0.4, 1.5)])
        y = np.zeros(2)
        g0 = green2d_eval(med, q, x, y, 1e-12).value
        g1 = green2d_eval(med, q, x + np.array([1.0, 0.0]), y, 1e-12).value
        rel = np.max(np.abs(g1 - np.exp(1j * q.alpha) * g0)) / np.max(np.abs(g0))
        assert rel < 1e-12
        # conjugate quasi-periodicity in the source coordinate
        g2 = green2d_eval(med, q, x, y + np.array([1.0, 0.0]), 1e-12).value
        rel2 = np.max(np.abs(g2 - np.exp(-1j * q.alpha) * g0)) / np.max(np.abs(g0))
        assert rel2 < 1e-12


def test_point_source_reciprocity_exact(rng):
    for _ in range(10):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp2d")
        x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.0)])
        z = np.array([rng.uniform(-0.5, 0.5), -rng.uniform(0.1, 0.6)])
        a = green2d_eval(med, q, x, z, 1e-12).value
        b = green2d_eval(med, q.negated(), z, x, 1e-12).value
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-12


def test_pde_residual(medium):
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    y = np.zeros(2)

    def col(P, j=0):
        return green2d_eval_batch(med, q, P, y, 1e-13)[0][:, :, j]

    pts = np.array([[0.3, 1.0], [0.7, 1.3]])
    assert navier_residual(col, med, pts, 1e-2) < 1e-6


def test_truncation_honesty(medium):
    q = make_quasi_momentum("qp2d", 0.3, medium)
    x, y = np.array([0.3, 0.25]), np.zeros(2)
    g_loose = green2d_eval(medium, q, x, y, tol=1e-6)
    g_tight = green2d_eval(medium, q, x, y, tol=3e-7)
    change = np.max(np.abs(g_loose.value - g_tight.value))
    assert change <= g_loose.tail_bound
    g_ref = green2d_eval(medium, q, x, y, tol=1e-14)
    assert np.max(np.abs(g_loose.value - g_ref.value)) <= g_loose.tail_bound


def test_evanescent_mode_decay_rate(medium):
    q = make_quasi_momentum("qp2d", 0.3, medium)
    mode = ModeTable.of(medium, q, [2])  # deep L3
    gaps = np.array([2.0, 3.0, 4.0])
    vals = np.array([np.max(np.abs(mode_term_2d(medium, mode, g, 0.0).matrix))
                     for g in gaps])
    fitted = np.polyfit(gaps, np.log(vals), 1)[0]
    # e^{-sqrt(alpha_l^2 - k_p^2) gap} envelope up to a slowly varying factor
    assert fitted == pytest.approx(-float(np.imag(mode.beta_l[0])), rel=0.05)


def test_near_source_line_guard(medium):
    q = make_quasi_momentum("qp2d", 0.3, medium)
    with pytest.raises(NearSourceLine):
        green2d_eval(medium, q, (0.3, 5e-4), (0.0, 0.0))


def test_wood_anomaly_propagates():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("qp2d", 0.5)  # alpha = k_p
    with pytest.raises(WoodAnomaly):
        green2d_eval(med, q, (0.3, 1.0), (0.0, 0.0))


def test_near_line_matches_series(rng):
    for _ in range(6):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp2d")
        t1 = float(rng.uniform(-0.5, 0.5))
        d = float(rng.uniform(0.05, 1.0)) * (1 if rng.uniform() < 0.5 else -1)
        series = green2d_eval(med, q, (t1, d), (0.0, 0.0), 1e-14).value
        near = near_line_abel_plana(med, q.alpha, [t1], [d])[0]
        assert np.max(np.abs(series - near)) / np.max(np.abs(series)) < 1e-11


def test_near_line_against_series_grid():
    # both sides of NEAR_GAP (Abel-Plana below, plain series above), out to
    # the cell edge |tau| = 1/2 where the ray quadrature is hardest, and with
    # a wider exactly-summed block; 1e-13 |G| of rounding on top of the
    # series' own tail bound (measured worst 7e-14 |G|)
    taus = np.array([0.0, 0.07, -0.19, 0.33, -0.45, 0.49, 0.5, -0.5])
    ds = np.array([0.02, -0.05, 0.1, -0.2, NEAR_GAP, -0.26, 0.4, -0.8, 1.3, 2.0])
    tau, d = (a.ravel() for a in np.meshgrid(taus, ds, indexing="ij"))
    for omega in (5.0, 12.0, 60.0):
        med = make_medium(2.0, 1.0, 1.0, omega)
        for alpha in (0.3, -1.7):
            q = make_quasi_momentum("qp2d", alpha, med)
            ref = [green2d_eval(med, q, (t, dd), (0.0, 0.0), 1e-16) for t, dd in zip(tau, d)]
            for margin in (3, 6):
                near = near_line_abel_plana(med, alpha, tau, d, margin_modes=margin)
                for g, v in zip(ref, near):
                    allow = g.tail_bound + 1e-13 * np.max(np.abs(g.value))
                    assert np.max(np.abs(v - g.value)) <= allow


def test_near_line_wood_anomaly_on_both_sides():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    for d in (0.1, 0.8):   # table (Abel-Plana) pair, plain-series pair
        for evaluate in (green2d_near_line_batch, near_line_abel_plana):
            with pytest.raises(WoodAnomaly):
                evaluate(med, 0.5, [0.2], [d])  # alpha = k_p


def test_remainder_table_against_abel_plana():
    # the table is fitted to plain-series values, so Abel-Plana is an
    # independent reference
    rng = np.random.default_rng(7)
    for omega in (5.0, 12.0):
        med = make_medium(2.0, 1.0, 1.0, omega)
        for alpha in (0.3, 0.37 * omega):
            table = remainder_table(med, alpha)
            tau = rng.uniform(-0.5, 0.5, 420)
            d = rng.uniform(-NEAR_GAP, NEAR_GAP, 420)
            # a fifth of the points close to the source, down to r = 1e-4
            r = 10.0 ** rng.uniform(-4, -1, 84)
            th = rng.uniform(0, 2 * np.pi, 84)
            tau[:84], d[:84] = r * np.cos(th), r * np.sin(th)
            ref = near_line_abel_plana(med, alpha, tau, d)
            got = table.green(tau, d)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            # T = G + S/(2 pi) is what the table holds
            t0 = table.remainder(tau[:5], d[:5])
            s = np.array([mp_log_part(med, (t, dd))[0] for t, dd in zip(tau[:5], d[:5])])
            assert np.max(np.abs(t0 - (ref[:5] + s / (2 * np.pi)))) \
                <= 1e-12 * np.max(np.abs(ref))
            # parity in d: diagonal even, off-diagonal odd, so T_12(0, 0) = 0
            t00 = table.remainder(0.0, 0.0)[0]
            assert t00[0, 1] == 0.0 and t00[1, 0] == 0.0


def test_remainder_table_at_high_frequency():
    # omega = 60: the tau direction needs 74 nodes, and the Abel-Plana rays
    # near |tau| = 1/2 pass within margin + 1 modes of the k_s branch point
    med = make_medium(2.0, 1.0, 1.0, 60.0)
    table = remainder_table(med, 1.7)
    assert table.coef.shape[0] > 2 * 28
    rng = np.random.default_rng(11)
    tau = np.concatenate([rng.uniform(-0.5, 0.5, 60), [0.5, -0.49, 0.47]])
    d = np.concatenate([rng.uniform(-NEAR_GAP, NEAR_GAP, 60), [0.05, -0.2, 0.01]])
    ref = near_line_abel_plana(med, 1.7, tau, d)
    assert np.max(np.abs(table.green(tau, d) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_remainder_rows_do_not_depend_on_other_pairs():
    """The tau sums are formed once per distinct tau, and gathered to the
    pairs when some pairs share a tau.  On tau with duplicates in shuffled
    order, and on the all-distinct tau of the phaseless demo's measurement
    grid against its sources, each row of the values and jets is bitwise the
    row of that pair in a call with one other tau.  A call on the pair alone
    takes numpy's matrix-vector product, which rounds differently from the
    matrix-matrix one; it agrees to rounding."""
    from qpelastic.phaseless import SourceConfig

    table = remainder_table(make_medium(2.0, 1.0, 1.0, 5.0), 0.3)
    rng = np.random.default_rng(5)
    dup = rng.permutation(np.repeat(np.append(rng.uniform(-0.5, 0.5, 5), [0.0, 0.5]), 6))
    cfg = SourceConfig(z_tilde=(0.35, 0.45), fixed_pol=(1.0, 0.0), movable_pols=((1.0, 0.0),),
                       probes=((1.0, 0.0),), sigma_center=(0.5, 0.75), sigma_axes=(0.25, 0.1),
                       grid_x1=tuple(np.linspace(0.05, 0.95, 12)), height=1.1)
    ys = np.vstack([cfg.z_tilde, cfg.movable_points()])
    distinct = QPSources(table.medium, make_quasi_momentum("qp2d", 0.3, table.medium),
                         ys).wrap(cfg.grid_points())[0].ravel()
    assert len(np.unique(dup)) == 7 and len(np.unique(distinct)) == distinct.size
    anchor_tau, anchor_d = 0.4321, 0.05   # in neither set
    for tau in (dup, distinct):
        d = rng.uniform(-NEAR_GAP, NEAR_GAP, tau.size)
        got = table.remainder(tau, d, want_jet=True)
        for p in range(tau.size):
            pair = table.remainder([tau[p], anchor_tau], [d[p], anchor_d], want_jet=True)
            alone = table.remainder(tau[p], d[p], want_jet=True)
            for g, two, one in zip(got, pair, alone):
                assert np.array_equal(g[p], two[0])
                assert np.max(np.abs(g[p] - one[0])) <= 1e-15 * np.max(np.abs(g))


def test_wrap_forms_the_phase_once_per_lattice_offset():
    """The phase e^{i alpha n} of ``QPSources.wrap``, gathered from its
    distinct n, is bitwise the phase formed per pair."""
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    rng = np.random.default_rng(8)
    src = QPSources(med, make_quasi_momentum("qp2d", 0.37, med), rng.uniform(-1, 2, (40, 2)))
    X = rng.uniform(-3, 4, (50, 2))
    tau, phase, d = src.wrap(X)
    n = np.round(X[:, 0][:, None] - src.Y[:, 0][None, :])
    assert len(np.unique(n)) > 5
    assert np.array_equal(phase, np.exp(1j * 0.37 * n))
    assert np.array_equal(tau, X[:, 0][:, None] - src.Y[:, 0][None, :] - n)


def test_remainder_table_refuses_unresolved(table_constants):
    import qpelastic.green2d as g2

    med = make_medium(2.0, 1.0, 1.0, 5.0)
    fits = []
    fit = g2._fit_remainder
    table_constants.setattr(g2, "_fit_remainder", lambda *a: fits.append(a[2:]) or fit(*a))
    # tolerance below rounding: the tails stop falling after one growth step
    table_constants.setattr(g2, "_TABLE_TOL", 0.0)
    with pytest.raises(TableUnresolved, match="stopped falling"):
        g2.remainder_table(med, 0.3)
    assert fits == [(28, 28), (36, 36)]
    # still falling at the node limit: omega = 60 needs 74 nodes in tau
    table_constants.setattr(g2, "_TABLE_TOL", 1e-14)
    table_constants.setattr(g2, "_TABLE_MAX", 46)
    with pytest.raises(TableUnresolved, match="node limit"):
        g2.remainder_table(make_medium(2.0, 1.0, 1.0, 60.0), 0.3)


def _near_line(medium, alpha, t1, d, margin_modes=3):
    return near_line_abel_plana(medium, alpha, [t1], [d], margin_modes=margin_modes)[0]


def test_near_line_on_the_line(medium_fast):
    # d = 0 is inaccessible to the plain series but regular for the
    # tail-resummed form; check reciprocity and internal consistency there
    alpha = 0.37
    v = _near_line(medium_fast, alpha, 0.07, 0.0)
    w = _near_line(medium_fast, alpha, 0.07, 0.0, margin_modes=6)
    assert np.max(np.abs(v - w)) < 1e-9
    vm = _near_line(medium_fast, -alpha, -0.07, 0.0)
    assert np.max(np.abs(v - vm)) < 1e-12


def test_near_line_jet(medium_fast):
    alpha = 0.37
    val, d1, d2 = near_line_abel_plana(medium_fast, alpha, [0.21], [0.13], want_jet=True)
    h = 1e-5
    fd1 = (_near_line(medium_fast, alpha, 0.21 + h, 0.13)
           - _near_line(medium_fast, alpha, 0.21 - h, 0.13)) / (2 * h)
    fd2 = (_near_line(medium_fast, alpha, 0.21, 0.13 + h)
           - _near_line(medium_fast, alpha, 0.21, 0.13 - h)) / (2 * h)
    assert np.max(np.abs(d1[0] - fd1)) < 1e-8
    assert np.max(np.abs(d2[0] - fd2)) < 1e-8


def test_table_jet_against_abel_plana():
    # the grid of test_near_line_against_series_grid; within NEAR_GAP the
    # table's value and both derivatives each agree with the oracle to 1e-12
    # of that component's largest entry over the grid, and
    # green2d_near_line_batch equals the table's own evaluation beyond
    taus = np.array([0.0, 0.07, -0.19, 0.33, -0.45, 0.49, 0.5, -0.5])
    ds = np.array([0.02, -0.05, 0.1, -0.2, NEAR_GAP, -0.26, 0.4, -0.8, 1.3, 2.0])
    tau, d = (a.ravel() for a in np.meshgrid(taus, ds, indexing="ij"))
    near = np.abs(d) <= NEAR_GAP
    for omega in (5.0, 12.0, 60.0, 70.0):
        med = make_medium(2.0, 1.0, 1.0, omega)
        for alpha in (0.3, -1.7):
            ref = near_line_abel_plana(med, alpha, tau, d, want_jet=True)
            got = green2d_near_line_batch(med, alpha, tau, d, want_jet=True)
            for r, g in zip(ref, got):
                assert np.max(np.abs(g[near] - r[near])) <= 1e-12 * np.max(np.abs(r[near]))
                assert np.max(np.abs(g[~near] - r[~near])) <= 1e-13 * np.max(np.abs(r[~near]))
            # the value of the jet is the value alone, bit for bit
            assert np.array_equal(got[0], green2d_near_line_batch(med, alpha, tau, d))


def test_table_smooth_part_jet_against_abel_plana():
    # the values and both derivatives of T = G + S/(2 pi) that the table and
    # its derivative tables hold, against Abel-Plana plus the 40-digit S
    # jet, each within 1e-12 of that component's largest entry; the pairs
    # of test_table_jet_against_abel_plana within NEAR_GAP, at least 0.02
    # from the source, and eight pairs on the source line
    taus = np.array([0.0, 0.07, -0.19, 0.33, -0.45, 0.49, 0.5, -0.5])
    ds = np.array([0.02, -0.05, 0.1, -0.2, NEAR_GAP])
    tau, d = (a.ravel() for a in np.meshgrid(taus, ds, indexing="ij"))
    tau = np.concatenate([tau, [0.03, -0.03, 0.11, -0.24, 0.37, -0.41, 0.5, -0.5]])
    d = np.concatenate([d, np.zeros(8)])
    for omega in (5.0, 12.0, 60.0):
        med = make_medium(2.0, 1.0, 1.0, omega)
        s = [np.array(c) for c in zip(*(mp_log_part(med, (t, dd)) for t, dd in zip(tau, d)))]
        for alpha in (0.3, -1.7):
            ref = near_line_abel_plana(med, alpha, tau, d, want_jet=True)
            got = remainder_table(med, alpha).remainder(tau, d, want_jet=True)
            for g, r, sk in zip(got, ref, s):
                want = r + sk / (2 * np.pi)
                assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def _mp_series(medium, alpha, m, tau, d):
    """50-digit sum of the phased mode matrices over the mode indices m."""
    import mpmath as mp

    with mp.workdps(50):
        acc = np.zeros((2, 2), dtype=object)
        acc[:] = mp.mpc(0)
        for k in m:
            al = mp.mpf(alpha) + 2 * mp.pi * int(k)
            acc += mp.exp(1j * al * mp.mpf(tau)) * mp_mode_block_2d(medium, al, d).astype(object)
        return acc.astype(complex)


def test_sources_green_beyond_near_gap():
    # beyond NEAR_GAP QPSources.green takes the blocked mode sum; the
    # reference sums the stacked mode matrices pair by pair over the same
    # window.  Value and both derivatives within 1e-13 of each
    # component's largest entry (over 2,000 pairs, worst 7.5e-15 at omega = 120)
    rng = np.random.default_rng(8)
    edge = NEAR_GAP * (1 + 1e-12)
    tau = np.concatenate([[0.5, -0.5, 0.0, 0.31], rng.uniform(-0.5, 0.5, 196)])
    d = np.concatenate([[edge, -edge, 3.0, -3.0], rng.uniform(edge, 3.0, 196)])
    d[4::2] *= -1
    for omega in (1.0, 5.0, 60.0, 120.0):
        med = make_medium(2.0, 1.0, 1.0, omega)
        for alpha in (0.3, -1.7):
            src = QPSources(med, make_quasi_momentum("qp2d", alpha, med), [(0.0, 0.0)])
            got = src.green(tau, d, want_jet=True)
            ref = _series_sum(med, src.modes, tau, d, True)
            for g, r in zip(got, ref):
                assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
            # the value of the jet is the value alone, bit for bit
            assert np.array_equal(got[0], src.green(tau, d))
    # against a 50-digit sum over a window ten modes wider each side, at
    # |d| <= 1; further out, at omega = 60, rounding the phase beta_l |d| of
    # a propagating mode in double (about 180 rad at |d| = 3) alone costs
    # up to 2.4e-14, for the stacked mode matrices too
    tau, d = np.array([0.5, -0.31, 0.07, -0.5]), np.array([edge, -0.4, 0.9, -edge])
    for omega in (1.0, 60.0):
        med = make_medium(2.0, 1.0, 1.0, omega)
        for alpha in (0.3, -1.7):
            q = make_quasi_momentum("qp2d", alpha, med)
            m = mode_window(med, q, NEAR_GAP, 1e-16)
            m = np.arange(m[0] - 10, m[-1] + 11)
            ref = np.array([_mp_series(med, alpha, m, t, dd) for t, dd in zip(tau, d)])
            got = QPSources(med, q, [(0.0, 0.0)]).green(tau, d)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the table itself covers its cell only
    with pytest.raises(DomainError):
        remainder_table(make_medium(2.0, 1.0, 1.0, 5.0), 0.3).green([0.1, 0.2], [0.1, edge])


def test_far_pairs_where_the_expm1_overflows():
    # at omega = 120 (k_p = 60, k_s = 120) and 9 <= |d| <= 12.5, Im beta_l |d|
    # reaches about 1,300 for k_p < |alpha_l| < k_s: Eb underflows and the
    # expm1 of Eg - Eb overflows, so the mode sum forms Eg - Eb directly.
    # Values and jets at both signs of d are finite, raise no RuntimeWarning
    # and lie within 1e-12 of the per-pair sum (worst 3.7e-14).  Rounding the
    # phase beta_l |d| ~ 1e3 rad alone puts the sum 1.6e-12 from a 50-digit
    # one at six of these pairs, so the reference is the per-pair sum.
    rng = np.random.default_rng(23)
    tau = rng.uniform(-0.5, 0.5, 300)
    d = rng.uniform(9.0, 12.5, 300) * rng.choice([-1.0, 1.0], 300)
    med = make_medium(2.0, 1.0, 1.0, 120.0)
    for alpha in (0.3, -1.7):
        src = QPSources(med, make_quasi_momentum("qp2d", alpha, med), [(0.0, 0.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.expm1(1j * np.outer(np.abs(d), _mode_weights(med, src.modes)[0]))
        assert not np.all(np.isfinite(grow))
        got = src.green(tau, d, want_jet=True)   # the suite raises RuntimeWarnings
        ref = _series_sum(med, src.modes, tau, d, True)
        for g, r in zip(got, ref):
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def test_derivative_table_refuses_unresolved(monkeypatch):
    # the derivative coefficients must resolve as the values do: a jet from
    # a table whose derivative fit does not resolve raises, while values
    # still answer
    import qpelastic.green2d as g2

    med = make_medium(2.0, 1.0, 1.0, 5.0)
    table = g2.RemainderTable(med, 0.3, remainder_table(med, 0.3).coef)   # no jet fitted yet
    fits = []
    fit = g2._fit_remainder
    monkeypatch.setattr(g2, "_fit_remainder", lambda *a, **k: fits.append(a[2:]) or fit(*a, **k))
    monkeypatch.setattr(g2, "_TABLE_TOL", 0.0)
    with pytest.raises(TableUnresolved, match="derivative table .* stopped falling") as first:
        table.green([0.1], [0.05], want_jet=True)
    # the refusal is kept: a second jet raises the same error without a fit
    with pytest.raises(TableUnresolved) as again:
        table.green([0.2], [-0.1], want_jet=True)
    assert str(again.value) == str(first.value)
    assert fits == [(28, 28), (36, 36)]
    assert np.all(np.isfinite(table.green([0.1], [0.05])))


def test_table_refuses_coincident_points(medium_fast):
    table = remainder_table(medium_fast, 0.3)
    for tau, d in ((0.0, 0.0), (1e-13, -5e-13)):
        for jet in (False, True):
            with pytest.raises(CoincidentPoints):
                table.green([0.2, tau], [0.1, d], want_jet=jet)
    # 1e-9 away the table still answers, and agrees with the oracle
    got = table.green([1e-9, 0.0], [0.0, -1e-9])
    ref = near_line_abel_plana(medium_fast, 0.3, [1e-9, 0.0], [0.0, -1e-9])
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_series_finite_between_cutoffs_at_high_frequency():
    # for k_p < |alpha_l| < k_s and large |alpha_l| d, e^{i b d} underflows
    # where the expm1 form of Eg - Eb overflows
    med = make_medium(2.0, 1.0, 1.0, 800.0)       # k_p = 400, k_s = 800
    q = make_quasi_momentum("qp2d", 0.3, med)
    g = green2d_eval(med, q, np.array([0.2, 1.5]), np.zeros(2))
    assert np.all(np.isfinite(g.value)) and np.isfinite(g.tail_bound)
    for m in (70, 100, 120, -110):
        mode = ModeTable.of(med, q, [m])
        assert mode.klass[0] == "L2"
        for d in (1.5, -1.5, 0.2):
            got = mode_term_2d(med, mode, d, 0.0, "unified").matrix
            ref = mp_mode_block_2d(med, mode.alpha_l[0], d)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_tail_bound_finite_and_holds_at_high_frequency():
    """At omega = 1200 the first omitted modes lie past k_s = 1200, where the
    bound is finite, with no cap on the window's width: each reported tail is
    <= tol and bounds the change to a tighter truncation."""
    med = make_medium(2.0, 1.0, 1.0, 1200.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    X = np.array([[0.2, 1.5], [0.4, -2.0]])
    val, tails, n = green2d_eval_batch(med, q, X, np.zeros(2), 1e-10)
    ref, ref_tails, _ = green2d_eval_batch(med, q, X, np.zeros(2), 1e-13)
    assert np.all(np.isfinite(val)) and np.all(tails <= 1e-10)
    modes = series_window(med, q, 1.5, 1e-10, _tail_bound(med))[0]
    assert n == len(modes.m) and np.max(np.abs(modes.alpha_l)) + 2 * np.pi > float(med.k_s)
    err = np.max(np.abs(val - ref), axis=(1, 2))
    assert np.all(err <= tails + ref_tails + 1e-13 * np.max(np.abs(ref), axis=(1, 2)))


def test_batch_equals_per_pair_sum(rng):
    """Points grouped by |x2 - y2|, both signs: the values equal the per-pair
    contraction over the same window."""
    med = make_medium(2.0, 1.0, 1.0, 2.3)
    q = make_quasi_momentum("qp2d", 0.37, med)
    y = np.array([0.1, -0.05])
    X = np.array([[x1, y[1] + d] for d in (0.3, -0.3, 0.7, -1.1) for x1 in rng.uniform(-1, 2, 3)])
    val, _, n = green2d_eval_batch(med, q, X, y, 1e-12)
    modes = series_window(med, q, 0.3, 1e-12, _tail_bound(med))[0]
    assert n == len(modes.m)
    ref = _series_sum(med, modes, X[:, 0] - y[0], X[:, 1] - y[1], False)
    assert np.max(np.abs(val - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("omega_im", [0.0, 0.1])
def test_batch_over_key_and_point_blocks(omega_im):
    """296 modes at gap 0.02: 250 distinct |x2 - y2| and 2 500 points on one
    gap, both signs of x2 - y2, span four pair blocks of the mode sum, the
    first mixing distinct gaps with the shared one.  The values equal the
    per-pair contraction."""
    rng = np.random.default_rng(12)
    med = make_medium(2.0, 1.0, 1.0, 2.0)
    if omega_im:
        med = med.complexified(omega_im)
    q = make_quasi_momentum("qp2d", 0.3, med)
    y = np.array([0.1, -0.05])
    d = np.concatenate([np.linspace(0.02, 1.0, 250) * rng.choice([-1.0, 1.0], 250),
                        0.3 * rng.choice([-1.0, 1.0], 2500)])
    X = np.column_stack([rng.uniform(-1, 2, len(d)), y[1] + d])
    val, _, n = green2d_eval_batch(med, q, X, y, 1e-10)
    modes = series_window(med, q, 0.02, 1e-10, _tail_bound(med))[0]
    assert n == len(modes.m) == 296
    assert 250 < _PAIR_MODES // n and 3 * (_PAIR_MODES // n) < len(d)
    ref = _series_sum(med, modes, X[:, 0] - y[0], X[:, 1] - y[1], False)
    err = np.max(np.abs(val - ref), axis=(1, 2))
    assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))
