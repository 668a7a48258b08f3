"""Exact dimension reduction for linear and bilinear rough differential
equations.

The state equation dx = [A x + f(x)] dt + N(x) K^{1/2} dW with output
y = C x is reduced by projecting onto the ranges of the reachability and
observability Gramians of an associated Ito diffusion; along every rough
driver the output of the reduced model then coincides with the full one up
to round-off. The pieces:

- ``system``: the model container, the Lyapunov operator of the second
  moment flow and its adjoint, a matrix-free mean-square stability check,
  and the resolvent-positivity probe.
- ``gramians``: algebraic Gramians by Lyapunov-preconditioned GMRES,
  accepted by their backward error, finite horizon Gramians in closed form
  from one matrix exponential, and a Monte Carlo estimate of the Gramian
  as a cross-check.
- ``reduction``: spectral truncation, the two-stage exact pipeline, the
  lossy rank sweep by one balancing, and the kernel-preservation and
  subspace-containment residuals.
- ``solver``: Crouzeix's two-stage diagonally implicit Runge-Kutta scheme
  driven by path increments, plus error norms and the Gronwall probe along
  a smooth path.
- ``drivers``: the fractional Brownian sampler, smooth drivers, and path
  utilities.
- ``heat``: the paper's rough heat equation on (0, 1) as the reference
  model, with constant coefficients; its one setting is the grid size.
- ``cli``: the ``roughmor`` command wrapping all of the above.

Each probe of a paper claim returns one float, its raw value over its own
scale, which the claim compares with a fixed tolerance.
"""

from .errors import (ArgumentError, ConvergenceError, EmptyBasisError,
                     GuardedScalar, IntegrationOverflowError, NumericalError,
                     PreconditionError, RoughmorError, StabilityError,
                     StepFailureError)
from .system import (BilinearRoughSystem, DriftNonlinearity,
                     LyapunovOperator, StabilityReport,
                     is_mean_square_stable, resolvent_positivity_probe)
from .drivers import (DriverPath, coarsen_path, read_path_csv,
                      sample_fbm_path, smooth_path_from_function,
                      write_path_csv)
from .gramians import (GramianResult, MonteCarloSecondMoment,
                       integrate_gramian_ode, monte_carlo_second_moment,
                       solve_algebraic_gramian, solve_algebraic_gramian_dense,
                       write_spectrum_csv)
from .reduction import (DEFAULT_TOL_P, DEFAULT_TOL_Q, ProjectionBasis,
                        ReducedModel, TwoStageMetadata,
                        balanced_rank_sweep, kernel_preservation_residual,
                        observability_cut, project_system,
                        subspace_containment_residual, truncate_psd_spectrum,
                        two_stage_reduce, write_stage_metadata_csv)
from .solver import (SimulationResult, pointwise_relative_error,
                     relative_L2_error, rough_rk_simulate,
                     smooth_quadratic_form_probe, write_error_csv,
                     write_states_csv, write_trajectory_csv)
from .heat import Heat1dConfig, build_heat1d

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "ConvergenceError", "EmptyBasisError", "GuardedScalar",
    "IntegrationOverflowError", "NumericalError", "PreconditionError",
    "RoughmorError", "StabilityError", "StepFailureError",
    "BilinearRoughSystem", "DriftNonlinearity", "LyapunovOperator",
    "StabilityReport", "is_mean_square_stable", "resolvent_positivity_probe",
    "DriverPath", "coarsen_path", "read_path_csv", "sample_fbm_path",
    "smooth_path_from_function", "write_path_csv",
    "GramianResult", "MonteCarloSecondMoment", "integrate_gramian_ode",
    "monte_carlo_second_moment", "solve_algebraic_gramian",
    "solve_algebraic_gramian_dense", "write_spectrum_csv",
    "DEFAULT_TOL_P", "DEFAULT_TOL_Q", "ProjectionBasis", "ReducedModel",
    "TwoStageMetadata", "balanced_rank_sweep", "kernel_preservation_residual",
    "observability_cut", "project_system", "subspace_containment_residual",
    "truncate_psd_spectrum", "two_stage_reduce", "write_stage_metadata_csv",
    "SimulationResult", "pointwise_relative_error", "relative_L2_error",
    "rough_rk_simulate", "smooth_quadratic_form_probe",
    "write_error_csv", "write_states_csv", "write_trajectory_csv",
    "Heat1dConfig", "build_heat1d",
    "__version__",
]
