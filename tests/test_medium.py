import numpy as np
import pytest

from conftest import draw_medium, draw_momentum
from oracles import wood_modes_brute
from qpelastic.errors import InvalidMedium, WoodAnomaly
from qpelastic.green2d import QPSources, green2d_eval, remainder_table
from qpelastic.green3d_biqp import greenbi_eval
from qpelastic.green3d_qp import green3dqp_eval
from qpelastic.medium import (TOL_WOOD_REL, ModeTable, branch_sqrt, classify_mode,
                              lattice_window, list_modes, make_medium,
                              make_quasi_momentum, mode_table)


def test_make_medium_wavenumbers():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    assert med.k_p == pytest.approx(0.5)
    assert med.k_s == pytest.approx(1.0)

    med = make_medium(0.0, 1.0, 1.0, 2.0)
    assert med.k_p == pytest.approx(2.0 / np.sqrt(2.0))
    assert med.k_s == pytest.approx(2.0)
    assert med.k_p < med.k_s


@pytest.mark.parametrize("args", [
    (-2.0, 1.0, 1.0, 1.0),   # lam + mu <= 0
    (2.0, -1.0, 1.0, 1.0),   # mu <= 0
    (2.0, 1.0, -1.0, 1.0),   # rho <= 0
    (2.0, 1.0, 1.0, 0.0),    # omega <= 0
])
def test_make_medium_rejects(args):
    with pytest.raises(InvalidMedium):
        make_medium(*args)


def test_classify_mode_examples():
    med = make_medium(2.0, 1.0, 1.0, 1.0)  # k_p = 0.5, k_s = 1
    q = make_quasi_momentum("qp2d", 0.3, med)
    m0 = classify_mode(med, q, 0)
    assert m0.alpha_l == pytest.approx(0.3)
    assert m0.beta_l == pytest.approx(0.4)
    assert m0.klass == "L1"

    m1 = classify_mode(med, q, 1)
    assert m1.alpha_l == pytest.approx(0.3 + 2 * np.pi)
    assert m1.klass == "L3"
    assert m1.beta_l == pytest.approx(1j * np.sqrt(m1.alpha_l**2 - 0.25))

    q_wood = make_quasi_momentum("qp2d", 0.5, med)  # alpha_0^2 = k_p^2 exactly
    with pytest.raises(WoodAnomaly):
        classify_mode(med, q_wood, 0)


def test_mode_roots_and_classes_random(rng):
    for _ in range(50):
        med = draw_medium(rng)
        q = draw_momentum(rng, med, "qp2d")
        m = int(rng.integers(-4, 5))
        try:
            mode = classify_mode(med, q, m)
        except WoodAnomaly:
            continue
        assert np.imag(mode.beta_l) >= 0 and np.imag(mode.gamma_l) >= 0
        assert mode.beta_l**2 == pytest.approx(med.k_p**2 - mode.alpha_l**2)
        assert mode.gamma_l**2 == pytest.approx(med.k_s**2 - mode.alpha_l**2)
        # negated momentum and index give the mirrored mode
        mode_m = classify_mode(med, q.negated(), -m)
        assert mode_m.alpha_l == pytest.approx(-mode.alpha_l)
        assert mode_m.beta_l == pytest.approx(mode.beta_l)
        assert mode_m.gamma_l == pytest.approx(mode.gamma_l)
        assert mode_m.klass == mode.klass


def test_list_modes_all_propagating():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("qp2d", 0.0 + 0.1, med)
    modes = list_modes(med, q, "all_propagating")
    assert [m.m for m in modes] == [0]

    med = make_medium(2.0, 1.0, 1.0, 14.0)  # k_p = 7, k_s = 14
    q = make_quasi_momentum("qp2d", 0.1, med)
    modes = list_modes(med, q, "all_propagating")
    ms = sorted(m.m for m in modes)
    assert ms == [-2, -1, 0, 1, 2]
    p_modes = sorted(m.m for m in modes if m.propagating_p)
    assert p_modes == [-1, 0, 1]


def test_list_modes_tail_bound_monotone_and_size():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    sizes = []
    prev = set()
    for tol in (1e-4, 1e-8, 1e-12, 1e-16):
        modes = {m.m for m in list_modes(med, q, "tail_bound", gap=1.0, tol=tol)}
        assert prev <= modes
        prev = modes
        sizes.append(len(modes))
    # cardinality grows like O(log(1/tol)): increments roughly constant
    incs = np.diff(sizes)
    assert np.all(incs >= 0) and max(incs) - min(incs) <= 2


def test_list_modes_biqp_window():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    q = make_quasi_momentum("biqp3d", (0.3, 0.45), med)
    modes = list_modes(med, q, "tail_bound", gap=1.0, tol=1e-10)
    assert all(isinstance(m.m, tuple) for m in modes)
    r2 = max(m.alpha_l[0] ** 2 + m.alpha_l[1] ** 2 for m in modes)
    thr = -np.log(1e-10)
    assert r2 <= np.real(med.k_s**2) + thr**2 + 1e-9


def test_branch_sqrt_convention():
    assert branch_sqrt(4.0) == pytest.approx(2.0)
    assert branch_sqrt(-4.0) == pytest.approx(2.0j)
    z = branch_sqrt(1.0 + 1.0j)
    assert z.imag > 0 or (z.imag == 0 and z.real > 0)
    arr = branch_sqrt(np.array([1.0, -1.0, 1j]))
    assert np.all(arr.imag >= 0)


def test_physical_flag():
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    assert make_quasi_momentum("qp2d", 0.3, med).physical is True
    assert make_quasi_momentum("qp2d", 0.9, med).physical is False
    assert make_quasi_momentum("qp2d", 0.9).physical is None


@pytest.mark.parametrize("kind", ["qp2d", "biqp3d"])
def test_mode_table_rows_match_per_mode_formulas(rng, kind):
    """Every row holds alpha + 2 pi m, the scalar branch roots and the class."""
    for med in (draw_medium(rng), draw_medium(rng).complexified(0.1)):
        q = draw_momentum(rng, make_medium(med.lam, med.mu, med.rho, np.real(med.omega)), kind)
        tab = mode_table(med, q, "tail_bound", gap=0.4, tol=1e-8)
        assert len(tab.m) == len(tab.alpha_l) == len(tab.beta_l) == len(tab.klass)
        for i, mode in enumerate(tab.rows()):
            if kind == "biqp3d":
                a1 = q.alpha[0] + 2 * np.pi * mode.m[0]
                a2 = q.alpha[1] + 2 * np.pi * mode.m[1]
                assert mode.alpha_l == (a1, a2)
                A2 = a1 * a1 + a2 * a2
            else:
                assert mode.alpha_l == q.alpha + 2 * np.pi * mode.m
                A2 = mode.alpha_l**2
            assert mode.beta_l == branch_sqrt(med.k_p**2 - A2)
            assert mode.gamma_l == branch_sqrt(med.k_s**2 - A2)
            if not med.is_real():
                klass = "L1"
            else:
                klass = "L1" if A2 < med.k_p**2 else "L2" if A2 < med.k_s**2 else "L3"
            assert mode.klass == klass
            assert mode == classify_mode(med, q, mode.m)


def _wood_outcome(med, q, threshold):
    """(m, which) of the WoodAnomaly the vectorised check raises, or None."""
    try:
        ModeTable.of(med, q, lattice_window(med, q, threshold)[0])
    except WoodAnomaly as exc:
        return exc.m, exc.which
    return None


def _first_hit(hits):
    """The mode the vectorised check names: the first p hit, else the first s hit."""
    for which in ("p", "s"):
        for m, w in hits:
            if w == which:
                return m, w
    return None


@pytest.mark.parametrize("kind", ["qp2d", "qp3d", "biqp3d"])
def test_wood_check_matches_per_mode_predicate_random(rng, kind):
    for _ in range(40):
        med = draw_medium(rng)
        kp = float(med.k_p)
        if kind == "biqp3d":
            q = make_quasi_momentum(kind, tuple(rng.uniform(-kp, kp, 2) * 0.7), med)
        else:
            q = make_quasi_momentum(kind, float(rng.uniform(-kp, kp)) * 0.9, med)
        thr = -np.log(1e-12) / 0.5
        assert _wood_outcome(med, q, thr) == _first_hit(wood_modes_brute(med, q, thr))


@pytest.mark.parametrize("kind", ["qp2d", "biqp3d"])
@pytest.mark.parametrize("cut", ["p", "s"])
@pytest.mark.parametrize("shift", [-2.0, -0.5, 0.5, 2.0])
def test_wood_check_at_constructed_cutoffs(kind, cut, shift):
    """A mode at (1 + shift TOL_WOOD_REL) k^2: the vectorised check and the
    per-mode predicate agree, and fire exactly when the offset is below
    TOL_WOOD_REL k_s^2."""
    for lam, omega in ((2.0, 1.0), (-0.3, 2.7)):
        med = make_medium(lam, 1.0, 1.0, omega)
        k2 = float(med.k_p if cut == "p" else med.k_s) ** 2
        radius = np.sqrt(k2 * (1.0 + shift * TOL_WOOD_REL))
        if kind == "biqp3d":
            m = (1, -2)
            al = radius * np.array([np.cos(0.7), np.sin(0.7)])
            q = make_quasi_momentum(kind, tuple(al - 2 * np.pi * np.array(m)), med)
        else:
            m = -1
            q = make_quasi_momentum(kind, radius - 2 * np.pi * m, med)
        thr = -np.log(1e-12) / 0.5
        got = _wood_outcome(med, q, thr)
        assert got == _first_hit(wood_modes_brute(med, q, thr))
        fires = abs(shift) * TOL_WOOD_REL * k2 < TOL_WOOD_REL * float(med.k_s) ** 2
        assert got == ((m, cut) if fires else None)


def test_wood_anomaly_names_mode_and_cutoff():
    med = make_medium(2.0, 1.0, 1.0, 1.0)  # k_p = 0.5, k_s = 1
    q = make_quasi_momentum("qp2d", 1.0 - 2 * np.pi, med)
    with pytest.raises(WoodAnomaly) as exc:
        list_modes(med, q, "tail_bound", gap=0.5, tol=1e-10)
    assert (exc.value.m, exc.value.which) == (1, "s")
    assert "m=1 " in str(exc.value) and "k_s^2" in str(exc.value)

    qb = make_quasi_momentum("biqp3d", (0.3 - 2 * np.pi, 0.4 + 4 * np.pi), med)
    with pytest.raises(WoodAnomaly) as exc:
        classify_mode(med, qb, (1, -2))
    assert (exc.value.m, exc.value.which) == ((1, -2), "p")
    assert "m=(1, -2)" in str(exc.value) and "k_p^2" in str(exc.value)


# alpha with mode -2 on the p cut-off of make_medium(2, 1, 1, 1), where k_p = 0.5;
# the biperiodic one puts mode (1, -2) there
_WOOD_ALPHA = 0.5 + 4 * np.pi
_WOOD_ALPHA_BI = (0.5 - 2 * np.pi, 4 * np.pi)


@pytest.mark.parametrize("evaluate,m", [
    pytest.param(lambda med, qp: green2d_eval(med, qp("qp2d", _WOOD_ALPHA), (0.3, 0.5), (0, 0)),
                 -2, id="green2d_eval"),
    pytest.param(lambda med, qp: QPSources(med, qp("qp2d", _WOOD_ALPHA), [(0, 0)]),
                 -2, id="QPSources"),
    pytest.param(lambda med, qp: remainder_table(med, _WOOD_ALPHA), -2, id="remainder_table"),
    pytest.param(lambda med, qp: green3dqp_eval(med, qp("qp3d", _WOOD_ALPHA), (0.3, 0.5, 0.2),
                                                (0, 0, 0)),
                 -2, id="green3dqp_eval"),
    pytest.param(lambda med, qp: greenbi_eval(med, qp("biqp3d", _WOOD_ALPHA_BI), (0.3, 0.2, 0.5),
                                              (0, 0, 0)),
                 (1, -2), id="greenbi_eval"),
])
def test_wood_guard_names_mode_on_every_series_path(evaluate, m):
    """Each series path refuses a mode on the p cut-off, naming the mode."""
    med = make_medium(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(WoodAnomaly) as exc:
        evaluate(med, lambda kind, alpha: make_quasi_momentum(kind, alpha, med))
    assert (exc.value.m, exc.value.which) == (m, "p")
