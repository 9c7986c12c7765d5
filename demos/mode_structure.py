"""Inside the 3D series: mode classes, transverse tensors, source weights.

Walks the lattice-mode classification (propagating p+s / s only / evanescent),
evaluates the per-mode transverse tensors, applies the mode ODE operator by
finite differences to show the residual vanish away from the source, and
extracts the distributional source weights 1/(2 pi) and 1/(4 pi^2) by
quadrature.
"""

import numpy as np

from qpelastic import ModeTable, lattice_window, make_medium, make_quasi_momentum
from qpelastic.checks import delta_weight_biqp, delta_weight_qp3d, ode_residual
from qpelastic.green3d_qp import c_l, green3dqp_eval
from qpelastic.medium import mode_window

med = make_medium(2.0, 1.0, 1.0, 8.0)   # k_p = 4, k_s = 8
q = make_quasi_momentum("qp3d", 0.3, med)

KINDS = {"L1": "p+s propagate", "L2": "s propagates", "L3": "evanescent"}
print("mode classification (k_p = 4, k_s = 8):")
propagating = ModeTable.of(med, q, lattice_window(med, q, 0.0)[0])
for m, al, klass in zip(propagating.m, propagating.alpha_l, propagating.klass):
    print(f"  m={m:+d}: alpha_l={al:+.3f}  {KINDS[klass]}")

# the series keeps the smallest window whose tail bound is <= tol; the bare
# exponential e^{-Im(gamma_l) gap} >= tol, which ignores every prefactor, keeps more
kept = green3dqp_eval(med, q, (0.0, 0.3, 0.4), (0.0, 0.0, 0.0), tol=1e-10)
count = len(mode_window(med, q, gap=0.5, tol=1e-10))
print(f"series window at gap 0.5, tol 1e-10: {kept.modes_used} modes, tail bound "
      f"{kept.tail_bound:.1e}; exp(-Im(gamma_l) gap) >= tol keeps {count}")

# transverse tensor of one mode, all three cases
med1 = make_medium(2.0, 1.0, 1.0, 1.0)
q1 = make_quasi_momentum("qp3d", 0.3, med1)
for a, label in ((0.3, "both propagating"), (0.75, "s only"), (1.7, "evanescent")):
    qa = make_quasi_momentum("qp3d", a, med1)
    klass = ModeTable.of(med1, qa, [0]).klass[0]
    print(f"\nclass {klass} ({label}): c_11 = {c_l(med1, qa, 0, 0.8, 0.55)[0, 0]:.6f}")

# the mode tensor solves its ODE system away from the transverse origin
r1 = ode_residual(med1, q1, 0, 0.7, 0.6, h=1e-2)
r2 = ode_residual(med1, q1, 0, 0.7, 0.6, h=5e-3)
print(f"\nmode ODE residual: {r1:.2e} at h=1e-2, ratio h->h/2 = {r1 / r2:.1f} "
      "(4th-order convergence)")

# distributional source weights recovered by quadrature
w_qp = delta_weight_qp3d(med1, q1, 0)
qb = make_quasi_momentum("biqp3d", (0.3, 0.45), med1)
w_bi = delta_weight_biqp(med1, qb, (0, 0))
print(f"source weight, quasi-periodic lattice: {w_qp[0, 0].real:.8f} "
      f"(1/(2 pi) = {1 / (2 * np.pi):.8f})")
print(f"source weight, biperiodic lattice:     {w_bi[0, 0].real:.8f} "
      f"(1/(4 pi^2) = {1 / (4 * np.pi**2):.8f})")
