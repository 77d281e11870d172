"""Contact volume of the Hopf field and Reeb realisability.

The contact volume integrates the contact defect against the Riemannian
volume. For the unit Hopf field on the round 3-sphere the defect is
identically 2 and the volume is 2 pi^2, so the integral converges to
4 pi^2. A Killing field on a closed manifold is realisable as a Reeb
vector field exactly when this number is nonzero.
"""

import numpy as np

import geocontact as gc

entry = gc.builtin("s3_hopf")
print("midpoint quadrature in Hopf coordinates, unit Hopf field:")
print("  nodes/axis      value     est. error    |value - 4 pi^2|")
for nodes in (8, 16, 32, 64):
    r = gc.volume_integral(entry, nodes)
    print(f"      {nodes:3d}     {r.value:10.5f}   {r.estimated_error:9.2e}"
          f"     {abs(r.value - 4 * np.pi ** 2):9.2e}")
print(f"  target 4 pi^2 = {4 * np.pi ** 2:.5f}")

vol = gc.volume_integral(entry, 32)
killing_max = max(d.killing_defect
                  for d in gc.diagnose(entry.manifold, entry.field, entry.grid.points()[::5]))
print(f"\nKilling defect max ~ {killing_max:.1e}; "
      f"verdict: {gc.reebability_verdict(vol, killing_max)!r}")

# weighted circle actions: the volume scales like 1/(k1 k2)
print("\nweighted actions (metric rescaled so the generator has unit length):")
for k1, k2 in ((1, 2), (2, 3), (3, 4)):
    w = gc.builtin(f"s3_weighted({k1},{k2})")
    r = gc.volume_integral(w, 32)
    print(f"  ({k1},{k2}): value {r.value:9.5f}   vs 4 pi^2/(k1 k2) = "
          f"{4 * np.pi ** 2 / (k1 * k2):9.5f}")
