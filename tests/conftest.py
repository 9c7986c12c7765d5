import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from qpelastic.errors import WoodAnomaly
from qpelastic.medium import ModeTable, make_medium, make_quasi_momentum, mode_window

# property tests draw the same cases on every run
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def medium():
    return make_medium(2.0, 1.0, 1.0, 1.0)


@pytest.fixture
def medium_fast():
    # k_p = 2.5, k_s = 5: several propagating modes
    return make_medium(2.0, 1.0, 1.0, 5.0)


@pytest.fixture
def table_constants(monkeypatch):
    """``monkeypatch`` for a test that changes the kernel table's constants.

    ``remainder_table`` keeps tables and refusals per (medium, alpha), so its
    cache is cleared before the test, or a table kept from an earlier test
    would answer, and after it, or a refusal made under the changed
    constants would answer later tests.
    """
    import qpelastic.green2d as g2

    g2.remainder_table.cache_clear()
    yield monkeypatch
    g2.remainder_table.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def draw_momentum(rng, medium, kind, frac=0.9):
    """Anomaly-free quasi-momentum within the physical band."""
    kp = float(np.real(medium.k_p))
    for _ in range(200):
        if kind == "biqp3d":
            a = (float(rng.uniform(-kp, kp)) * frac * 0.7,
                 float(rng.uniform(-kp, kp)) * frac * 0.7)
        else:
            a = float(rng.uniform(-kp, kp)) * frac
        q = make_quasi_momentum(kind, a, medium)
        try:
            ModeTable.of(medium, q, mode_window(medium, q, gap=0.3, tol=1e-14))
        except WoodAnomaly:
            continue
        return q
    raise RuntimeError("no anomaly-free draw found")


def draw_medium(rng):
    lam = float(rng.uniform(-0.4, 3.0))
    mu = float(rng.uniform(0.5, 2.0))
    if lam + mu <= 0.1:
        lam = 0.2 - mu
    omega = float(rng.uniform(0.8, 3.0))
    return make_medium(lam, mu, 1.0, omega)
