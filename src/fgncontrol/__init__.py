"""Discrete-time optimal control driven by fractional Gaussian noise.

The package builds a full q-ary quadrature tree for correlated
Gaussian increments, solves backward stochastic difference equations on
it, and uses those solutions to check and compute optimal controls:

``noise``
    Covariance models for stationary increments and the lower-triangular
    whitening transform between correlated and independent coordinates.
``lattice``
    Gauss-Hermite product lattice, adapted random variables, and exact
    conditional expectations.
``dynamics``
    Controlled scalar state recursions, running/terminal costs, and the
    first-order variation process.
``bsde``
    Backward solver producing the value, slope, and orthogonal-remainder
    processes for affine drivers.
``smp``
    Adjoint-based stationarity residuals, duality and gradient checks,
    and a DDP (Newton-step) optimizer.
``lq``
    Linear-quadratic specializations: one-pass Riccati solver, one-step
    closed form, and sufficiency/uniqueness certificates.
``selftest``
    The acceptance criteria, runnable in bulk with deterministic
    artifact output.
"""

from .bsde import (
    BsdeSolution,
    DriverSpec,
    adjoint_driver,
    residual_orthogonality,
    solve_bsde,
)
from .dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    StateProcess,
    Unconstrained,
    constant_control,
    cost,
    forward,
    perturb,
    random_control,
    sin_drift_model,
    variation,
)
from .errors import (
    ConfigError,
    DepthMismatch,
    DualityMismatch,
    FgnControlError,
    IndexOutOfRange,
    InvalidSpec,
    LatticeTooLarge,
    LevelMismatch,
    NoDescent,
    NonFiniteValue,
    NotConverged,
    NotPositiveDefinite,
    NotSymmetric,
    OutOfControlSet,
    UnsupportedOrder,
    WrongHorizon,
)
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    SamplePaths,
    condexp,
    expectation,
    gauss_hermite,
    lattice_for_hurst,
    noise_conditional_mean,
    noise_value,
    sample_paths,
    white_value,
)
from .lq import (
    LqSolution,
    LqSpec,
    SufficiencyReport,
    UniquenessReport,
    as_model,
    lq_fixed_point,
    one_step_closed_form,
    verify_sufficiency,
    verify_uniqueness,
)
from .noise import (
    CovarianceSpec,
    WhiteningBasis,
    custom_covariance,
    fgn_covariance,
    whiten,
)
from .smp import (
    ArmijoRule,
    OptimizeResult,
    SmpResidual,
    StationarityReport,
    check_stationarity,
    directional_derivative,
    optimize,
    smp_residual,
    solve_adjoint,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedValue",
    "ArmijoRule",
    "Box",
    "BsdeSolution",
    "ConfigError",
    "ControlProcess",
    "CovarianceSpec",
    "DepthMismatch",
    "DriverSpec",
    "DualityMismatch",
    "FgnControlError",
    "IndexOutOfRange",
    "InvalidSpec",
    "LatticeTooLarge",
    "LevelMismatch",
    "LqSolution",
    "LqSpec",
    "ModelSpec",
    "NoDescent",
    "NoiseLattice",
    "NonFiniteValue",
    "NotConverged",
    "NotPositiveDefinite",
    "NotSymmetric",
    "OptimizeResult",
    "OutOfControlSet",
    "SamplePaths",
    "SmpResidual",
    "StateProcess",
    "StationarityReport",
    "SufficiencyReport",
    "UniquenessReport",
    "UnsupportedOrder",
    "WhiteningBasis",
    "WrongHorizon",
    "adjoint_driver",
    "as_model",
    "check_stationarity",
    "condexp",
    "constant_control",
    "cost",
    "custom_covariance",
    "directional_derivative",
    "expectation",
    "fgn_covariance",
    "forward",
    "gauss_hermite",
    "lattice_for_hurst",
    "lq_fixed_point",
    "noise_conditional_mean",
    "noise_value",
    "one_step_closed_form",
    "optimize",
    "perturb",
    "random_control",
    "residual_orthogonality",
    "sample_paths",
    "sin_drift_model",
    "smp_residual",
    "solve_adjoint",
    "solve_bsde",
    "variation",
    "verify_sufficiency",
    "verify_uniqueness",
    "whiten",
]
