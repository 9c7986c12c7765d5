import numpy as np
import pytest

from qpelastic.bem2d import ProfileCurve2
from qpelastic.errors import GridMismatch
from qpelastic.medium import make_medium, make_quasi_momentum
from qpelastic.phaseless import (PhaselessDataset, SourceConfig,
                                 check_reciprocity, cosine_identity,
                                 dataset_gap, incident_superposition,
                                 nonvanishing_probe, re_products,
                                 synth_phaseless)

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def setup():
    med = make_medium(2.0, 1.0, 1.0, 5.0)
    q = make_quasi_momentum("qp2d", 0.3, med)
    cfg = SourceConfig(
        z_tilde=(0.35, 0.45),
        fixed_pol=(1.0, 0.0),
        movable_pols=((1.0, 0.0), (0.0, 1.0)),
        probes=((1.0, 0.0), (0.0, 1.0), (SQ2, SQ2), (SQ2, -SQ2), (0.6, 0.8)),
        sigma_center=(0.5, 0.75),
        sigma_axes=(0.25, 0.1),
        n_sources=2,
        grid_x1=tuple(np.linspace(0.05, 0.95, 8)),
        height=1.1,
    )
    prof = ProfileCurve2(0.0, (), (0.1,))
    return med, q, cfg, prof


def test_superposition_linearity(setup):
    med, q, cfg, _ = setup
    X = np.array([[0.2, 1.1], [0.7, 1.1]])
    u_f = incident_superposition(med, q, cfg, X, "fixed")
    u_m = incident_superposition(med, q, cfg, X, "movable", j=1, l=0)
    u_b = incident_superposition(med, q, cfg, X, "both", j=1, l=0)
    assert np.max(np.abs(u_b - u_f - u_m)) < 1e-14

    # quasi-periodic in the receiver coordinate
    u_b1 = incident_superposition(med, q, cfg, X + np.array([1.0, 0.0]), "both", j=1, l=0)
    assert np.max(np.abs(u_b1 - np.exp(1j * q.alpha) * u_b)) < 1e-12 * np.max(np.abs(u_b))


def test_swap_symmetry(setup):
    med, q, cfg, _ = setup
    X = np.array([[0.4, 1.2]])
    u1 = incident_superposition(med, q, cfg, X, "fixed") \
        + incident_superposition(med, q, cfg, X, "movable", j=0, l=1)
    # swapping the roles of the two sources leaves the sum unchanged
    cfg_sw = SourceConfig(
        z_tilde=tuple(cfg.movable_points()[0]),
        fixed_pol=cfg.movable_pols[1],
        movable_pols=(cfg.fixed_pol,),
        probes=cfg.probes,
        sigma_center=(cfg.z_tilde[0], cfg.z_tilde[1]),
        sigma_axes=(0.0, 0.0),
        n_sources=1,
        grid_x1=cfg.grid_x1,
        height=cfg.height,
    )
    u2 = incident_superposition(med, q, cfg_sw, X, "fixed") \
        + incident_superposition(med, q, cfg_sw, X, "movable", j=0, l=0)
    assert np.max(np.abs(u1 - u2)) < 1e-13


@pytest.fixture(scope="module")
def dataset(setup):
    med, q, cfg, prof = setup
    return synth_phaseless(med, q, prof, cfg, N=64)


def test_synth_equals_per_incidence_construction(setup, dataset, monkeypatch):
    # the block evaluations of a synth against one solve, one incident field
    # and one scattered field per incidence, within 1e-13 of each array's
    # largest entry.  Once the kernel table and the far-field window of
    # (medium, alpha) are kept, a synth builds at most two mode tables: its
    # point sources share one set of sources, not one each
    from qpelastic.bem2d import eval_scattered, point_source_incidence, solve_dirichlet
    from qpelastic.medium import ModeTable

    med, q, cfg, prof = setup
    X = cfg.grid_points()
    zs = cfg.movable_points()
    incs = [point_source_incidence(cfg.z_tilde, cfg.fixed_pol)]
    incs += [point_source_incidence(zs[j], pol) for pol in cfg.movable_pols
             for j in range(len(zs))]
    fields = []
    for inc in incs:
        sol = solve_dirichlet(med, q, prof, inc, N=64)
        fields.append(inc.eval(med, q, X) + eval_scattered(sol, X))
    P = np.asarray(cfg.probes)
    J = len(zs)
    r = np.abs(fields[0] @ P.T).T
    s = np.stack([np.stack([np.abs(fields[1 + l * J + j] @ P.T).T for j in range(J)], 1)
                  for l in range(len(cfg.movable_pols))], 1)
    b = np.stack([np.stack([np.abs((fields[0] + fields[1 + l * J + j]) @ P.T).T
                            for j in range(J)], 1) for l in range(len(cfg.movable_pols))], 1)
    for got, want in ((dataset.r, r), (dataset.s, s), (dataset.b, b)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    built = []
    of = ModeTable.of.__func__
    monkeypatch.setattr(ModeTable, "of", classmethod(
        lambda cls, *a, **k: built.append(1) or of(cls, *a, **k)))
    again = synth_phaseless(med, q, prof, cfg, N=64)
    assert len(built) <= 2
    for k in "rsb":
        assert np.array_equal(getattr(again, k), getattr(dataset, k))


def test_dataset_identities(dataset):
    ds = dataset
    assert np.all(ds.r >= 0) and np.all(ds.s >= 0) and np.all(ds.b >= 0)
    # triangle inequalities entrywise
    r = ds.r[:, None, None, :]
    assert np.all(ds.b <= r + ds.s + 1e-12)
    assert np.all(ds.b >= np.abs(r - ds.s) - 1e-12)
    assert ds.meta["eigenvalue_condition"] == "assumed"


def test_cosine_identity_self_and_symmetry(dataset):
    assert cosine_identity(dataset, dataset) == 0.0
    flags = nonvanishing_probe(dataset)
    assert flags == []  # generic run has no identically-zero track


def test_polarization_identity_example():
    # |a| = 1, |b| = 1, |a+b| = sqrt 2  ->  Re(a conj b) = 0
    grid = np.array([0.0])
    r = np.ones((1, 1))
    s = np.ones((1, 1, 1, 1))
    b = np.full((1, 1, 1, 1), np.sqrt(2.0))
    ds = PhaselessDataset(grid, 1.0, r, s, b)
    assert abs(re_products(ds)[0, 0, 0, 0]) < 1e-14


def test_grid_mismatch(dataset):
    other = PhaselessDataset(dataset.grid_x1[:-1], dataset.height,
                             dataset.r[:, :-1], dataset.s[:, :, :, :-1],
                             dataset.b[:, :, :, :-1])
    with pytest.raises(GridMismatch):
        cosine_identity(dataset, other)


def test_nonvanishing_probe_detects_zero_track(dataset):
    s = dataset.s.copy()
    s[2, 1, 0, :] = 0.0
    ds2 = PhaselessDataset(dataset.grid_x1, dataset.height, dataset.r, s, dataset.b)
    assert nonvanishing_probe(ds2) == [(2, 1, 0)]


def test_distinct_profiles_differ(setup, dataset):
    med, q, cfg, _ = setup
    prof2 = ProfileCurve2(0.0, (0.05,), (0.08,))
    ds2 = synth_phaseless(med, q, prof2, cfg, N=64)
    assert dataset_gap(dataset, ds2) > 1e-6


def test_same_profile_consistency_across_resolution(setup, dataset):
    med, q, cfg, prof = setup
    ds_fine = synth_phaseless(med, q, prof, cfg, N=128)
    assert cosine_identity(dataset, ds_fine) < 1e-6


def test_reciprocity_point_source(setup):
    med, q, _, prof = setup
    pairs = [((0.3, 0.9), (0.7, 0.6)), ((0.1, 1.2), (0.8, 0.8))]
    viol = check_reciprocity(med, q, prof, "point_source", pairs)
    assert viol < 1e-12


def test_reciprocity_scattered_and_total(setup):
    med, q, _, prof = setup
    pairs = [((0.3, 0.9), (0.7, 0.7))]
    pols = [((1.0, 0.0), (0.0, 1.0))]
    v_sc = check_reciprocity(med, q, prof, "scattered", pairs, pols, N=128)
    assert v_sc < 1e-4
    v_tot = check_reciprocity(med, q, prof, "total", pairs, pols, N=128)
    assert v_tot < v_sc + 1e-12


def test_validation_errors(setup):
    med, q, cfg, prof = setup
    bad = SourceConfig(
        z_tilde=cfg.z_tilde, fixed_pol=(2.0, 0.0), movable_pols=cfg.movable_pols,
        probes=cfg.probes, sigma_center=cfg.sigma_center, sigma_axes=cfg.sigma_axes,
        height=cfg.height)
    with pytest.raises(ValueError):
        bad.validate(prof)
    colinear = SourceConfig(
        z_tilde=cfg.z_tilde, fixed_pol=cfg.fixed_pol, movable_pols=cfg.movable_pols,
        probes=((1.0, 0.0), (-1.0, 0.0)), sigma_center=cfg.sigma_center,
        sigma_axes=cfg.sigma_axes, height=cfg.height)
    with pytest.raises(ValueError):
        colinear.validate(prof)
