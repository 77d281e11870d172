"""geocontact: numerical verification of contact structures induced by
geodesic vector fields on Riemannian 3-manifolds.

The library computes the shape operator of a unit field, its contact
defect, curvature data (sectional, Ricci, Jacobi tensor), integrates
orbits with parallel frames and adapted Jacobi fields, and runs
theorem-level verdict suites over a catalog of worked examples.
"""

__version__ = "0.1.0"

from . import errors
from .expr import DualScalar, ExprAst, eval_dual, eval_scalar, parse, to_string
from .geometry import (ChartedManifold, Frame, VolumeParametrization, frame_at,
                       frames_at, inner, manifold_from_exprs, metric_partials)
from .curvature import christoffel, riemann, riemann_tensor, sectional
from .field import (ComplexPair, Diagnosis, PointDiagnosis, RealPair, UnitField, beta_ranks,
                    contact_defect_grid, diagnose, diagnose_point, eigen_columns)
from .flow import (AdaptedJacobi, Trajectory, WronskianResult,
                   adapted_jacobi, arcoth, first_zero_space_form,
                   integrate_orbit, integrate_orbits, jacobi_component_closed_form,
                   max_parallel_jacobi_defect, riccati_residual, rk4_step,
                   trace_comparison, trace_evolution_residual, wronskian)
from .catalog import NAMES, CatalogEntry, GridSpec, OrbitSpec, all_entries, builtin, self_check
from .verify import (TheoremReport, Tolerances, VolumeResult, reebability_verdict,
                     run_theorem, verify_all, verify_parallel_jacobi, verify_ricci,
                     verify_space_form, volume_integral)

__all__ = [name for name in dir() if not name.startswith("_")]
