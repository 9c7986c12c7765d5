"""Rigid sinusoidal grating under plane p-wave incidence.

Solves the boundary-integral system, reads the Rayleigh orders off the
density, and closes the energy budget: the rigid boundary absorbs nothing,
so the net time-averaged flux through the measurement line vanishes.
"""

import numpy as np

from qpelastic import (ProfileCurve2, boundary_residual, eval_scattered,
                       flux_2d, make_medium, plane_incidence, solve_dirichlet,
                       traction)

med = make_medium(2.0, 1.0, 1.0, 12.0)  # k_p = 6, k_s = 12: several orders
incident, q = plane_incidence(med, "plane_p", theta=0.2)
profile = ProfileCurve2(0.0, (), (0.08,))  # x2 = 0.08 sin(2 pi x1)

sol = solve_dirichlet(med, q, profile, incident, N=128)
print(f"solved N={sol.N}, condition estimate {sol.cond_estimate:.1e}, "
      f"boundary residual {boundary_residual(sol):.2e}")

# Rayleigh orders of the scattered field
coeffs = sol.rayleigh(8)
print("\npropagating Rayleigh orders (|amplitude| > 1e-3):")
for m, klass, up, us in zip(coeffs.modes.m, coeffs.modes.klass, coeffs.u_p, coeffs.u_s):
    tags = []
    if klass == "L1" and abs(up) > 1e-3:
        tags.append(f"p: {abs(up):.4f}")
    if klass != "L3" and abs(us) > 1e-3:
        tags.append(f"s: {abs(us):.4f}")
    if tags:
        print(f"  order {m:+d}: " + ", ".join(tags))

# energy budget through the measurement line
h = 0.6
n_grid = 64
x1 = np.arange(n_grid) / n_grid
X = np.stack([x1, np.full(n_grid, h)], axis=-1)
nu = np.tile([0.0, 1.0], (n_grid, 1))
ui, d1, d2 = incident.jet(med, q, X)
gi = np.stack([d1, d2], axis=-1)
us_, gs = eval_scattered(sol, X, need_gradient=True)
j_inc = flux_2d(med, ui, traction(med, ui, gi, nu))
j_tot = flux_2d(med, ui + us_, traction(med, ui + us_, gi + gs, nu))
print(f"\nincident flux (downward): {j_inc:+.4f}")
print(f"net flux of total field:  {j_tot:+.2e}  "
      f"(balance {abs(j_tot / j_inc):.1e} of incident)")
