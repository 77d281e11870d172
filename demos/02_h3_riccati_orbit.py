"""Flow-line diagnostics on hyperbolic 3-space.

The vertical field X = x3 d/dx3 on the half-space model is geodesic with
shape operator -id. Along its orbits the toolkit transports an orthonormal
frame, integrates two adapted Jacobi fields, and monitors three identities:

  * the Riccati equation      B' + B^2 + M = 0,
  * its trace                 (tr B)' = -(Ric(X) + tr B^2),
  * the Wronskian identity    A(t) = exp(int_0^t tr B).

With tr B = -2 the Wronskian must equal exp(-2t), and the Jacobi field
with J(0) = e1 decays like exp(-t) (the lambda = -1 branch of the
constant-curvature closed form).
"""

import numpy as np

import geocontact as gc

entry = gc.builtin("h3_vertical")
traj = gc.integrate_orbit(entry.manifold, entry.field,
                          np.array([0.0, 0.0, 1.0]), t_end=2.0, step=1e-3)

print(f"orbit: x3(t) = e^t, endpoint x3(2) = {traj.points[-1, 2]:.8f} "
      f"(exact {np.exp(2):.8f})")

wr = gc.wronskian(traj)
print("\n   t      A(t)        exp(int tr B)   exp(-2t)      |J|(t)    e^(-t)")
for k in range(0, len(traj), 400):
    t = traj.t[k]
    print(f" {t:5.2f}  {wr.A[k]:10.7f}  {wr.A_expected[k]:13.7f} "
          f"{np.exp(-2 * t):10.7f}  {np.linalg.norm(traj.J[k]):9.7f} {np.exp(-t):9.7f}")

print(f"\nmax |A - exp(int tr B)|          = {wr.residual:.2e}")
print(f"max Riccati residual             = "
      f"{gc.riccati_residual(traj):.2e}")
print(f"max trace-evolution residual     = "
      f"{gc.trace_evolution_residual(traj):.2e}")
print(f"max adaptedness |J' - beta(J)|   = {traj.adapted_residual:.2e}")

# the shape operator eigenvalues stay constant along this non-contact orbit
drift = gc.flow.noncontact_eigen_drift(traj)
print(f"eigenvalue drift along the orbit = {drift:.2e} (orbit is nowhere contact)")
