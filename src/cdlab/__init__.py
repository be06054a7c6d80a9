"""Coordinate descent orderings on convex quadratics.

A small laboratory for cyclic, randomized, and random-permutation
coordinate descent with exact line search: quadratic models with O(1)
coordinate gradients, the single-epoch matrix and its closed form for
the permutation-invariant family, the 2x2 permutation-expectation
recurrence with brute-force oracles, every standard rate predictor and
bound, Polyak-Lojasiewicz certificates for composed objectives, and a
command-line experiment harness (`cdlab`).
"""

from .engine import (
    OrderingPolicy,
    Trajectory,
    closed_form_C,
    derive_seed,
    epoch_map,
    expected_over_x0,
    run,
)
from .errors import NumericalError
from .pl import ComposedObjective, PLCertificate, check_pl, gradient_check, pl_constant
from .quadratic import (
    DenseQuadratic,
    PermInvariantQuadratic,
    QuadraticConstants,
    SolverState,
    apply_coordinate_step,
    build_log_uniform_spectrum,
    coordinate_gradient,
    init_state,
    objective,
    quadratic_constants,
)
from .rates import (
    GenericBounds,
    ccd_bounds,
    empirical_rate,
    generic_bounds,
    rcd_one_step_example,
    rcd_rates,
    rho_C,
    rho_M,
    rpcd_asymptotic_rate,
    sd_rate,
    spectral_radius,
)
from .recurrence import (
    EpochMatrixScalars,
    RecurrenceMatrix,
    RecurrencePair,
    SymmetrizedForm,
    asymptotic_coeffs,
    brute_force_abar,
    conditional_expected_objective,
    epoch_matrix_scalars,
    evolve,
    expected_objective,
    first_iteration_expectation,
    first_iteration_objective,
    recurrence_coeffs,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "OrderingPolicy",
    "Trajectory",
    "closed_form_C",
    "derive_seed",
    "epoch_map",
    "expected_over_x0",
    "run",
    "NumericalError",
    "ComposedObjective",
    "PLCertificate",
    "check_pl",
    "gradient_check",
    "pl_constant",
    "DenseQuadratic",
    "PermInvariantQuadratic",
    "QuadraticConstants",
    "SolverState",
    "apply_coordinate_step",
    "build_log_uniform_spectrum",
    "coordinate_gradient",
    "init_state",
    "objective",
    "quadratic_constants",
    "GenericBounds",
    "ccd_bounds",
    "empirical_rate",
    "generic_bounds",
    "rcd_one_step_example",
    "rcd_rates",
    "rho_C",
    "rho_M",
    "rpcd_asymptotic_rate",
    "sd_rate",
    "spectral_radius",
    "EpochMatrixScalars",
    "RecurrenceMatrix",
    "RecurrencePair",
    "SymmetrizedForm",
    "asymptotic_coeffs",
    "brute_force_abar",
    "conditional_expected_objective",
    "epoch_matrix_scalars",
    "evolve",
    "expected_objective",
    "first_iteration_expectation",
    "first_iteration_objective",
    "recurrence_coeffs",
    "symmetrize",
]
