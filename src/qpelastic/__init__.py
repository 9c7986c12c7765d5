"""Quasi-periodic Green's functions for the Lame system, gratings, phaseless data.

The package provides, on a unit-period lattice:

* spectral quasi-periodic / quasi-biperiodic Green's functions of the
  time-harmonic Navier equation in 2D and 3D (``green2d``, ``green3d_qp``,
  ``green3d_biqp``) plus free-space tensors and lattice-sum oracles
  (``green_free``);
* Rayleigh expansions with coefficient extraction and energy flux
  (``rayleigh``);
* a Nystrom boundary-integral solver for rigid gratings (``bem2d``);
* a phaseless-measurement harness with reciprocity checks (``phaseless``);
* the numerical checks behind ``qpelastic verify`` and the acceptance suite,
  with their finite-difference oracles (``checks``).
"""

from . import errors
from .bem2d import (IncidentField, ProfileCurve2, ScatterSolution,
                    boundary_residual, eval_scattered, plane_incidence,
                    point_source_incidence, solve_dirichlet,
                    solve_dirichlet_multi, traction)
from .checks import ode_residual
from .green2d import green2d_eval
from .green3d_biqp import c_l_bi, greenbi_eval
from .green3d_qp import c_l, green3dqp_eval
from .green_free import GreenEval, comb_normalization, ewald_sum, kupradze, lattice_sum
from .medium import (ElasticMedium, ModeTable, QuasiMomentum, lattice_window, make_medium,
                     make_quasi_momentum)
from .phaseless import (PhaselessDataset, SourceConfig, check_reciprocity,
                        cosine_identity, incident_superposition,
                        nonvanishing_probe, synth_phaseless)
from .rayleigh import (RayleighCoeffs2, RayleighCoeffs3Bi, RayleighCoeffs3Qp,
                       check_upgoing, eval_rayleigh_2d, eval_rayleigh_3d_bi,
                       eval_rayleigh_3d_qp, extract_coeffs_2d, flux_2d)
from .specfun import bessel_j, hankel1, hankel1_deriv, mod_k, mod_k_deriv

__version__ = "0.1.0"
