"""Phase-field solver with thermal memory and adjoint-based optimal control.

Subpackage map:

- ``grid``: cell-centered grid, zero-flux Laplacian, inner products, cosine solve, CG.
- ``nonlinearity``: convex potentials and Lipschitz couplings.
- ``state``: semi-implicit forward solver and its per-step records.
- ``sensitivity``: tangent map, exact transpose, continuous adjoint.
- ``control``: cost, reduced gradient, projection, projected Gauss–Newton–CG.
- ``snapshots``: field snapshot format and trajectory persistence.
- ``config`` / ``cli``: configuration ingestion and experiment drivers.
"""

from . import errors
from .grid import (GridSpec, build_grid, cg_solve, cosine_solve, inner, laplacian_neumann, norm,
                   riesz_v)
from .nonlinearity import Coupling, Potential
from .state import (InitialData, PhysParams, Problem, SolverOptions, StateTrajectory,
                    TimeGrid, march, phi_step, solve_state, thermal_step)
from .sensitivity import (AdjointPair, LinearizedPair, Perturbation, adjoint_solve_continuous,
                          adjoint_solve_discrete, array_seed, tangent_solve, tangent_transpose)
from .control import (AdmissibleSet, ControlPair, CostSpec, GradientPair, OptimizeOptions,
                      OptimizeReport, ReducedProblem, check_vi, clamp_formula_residual,
                      cost_eval, optimize, project_admissible, stationarity_residual,
                      u_inner, u_norm, v0_inner, v0_norm)

__all__ = [name for name in dir() if not name.startswith("_")]
