"""Closed-form one-dimensional coined quantum walks.

Everything a walk produces (amplitudes, densities, moments) is available
in closed form, built from Chebyshev-derived lattice functions, and every
closed form is cross-checked in the test suite against literal step
iteration.
"""

from .params import (
    AliasingError,
    EffectiveParams,
    InfeasibleParamsError,
    LatticeIndex,
    NormalizationError,
    ResourceLimitError,
    UnderdeterminedError,
    WalkSpec,
    derive_effective,
    max_alpha,
    validate_effective,
)
from .direct import (
    MomentumWavefunction,
    WaveField,
    evolve_direct,
    evolve_momentum_direct,
    step,
)
from .foundation import (
    FoundationTable,
    PolynomialRow,
    chebyshev_u,
    foundation_polynomial,
    foundation_table,
    lattice_rows,
    polynomial_row_recursion,
    polynomial_table,
    u_by_quadrature,
)
from .closedform import (
    EvolutionOperatorSample,
    evolution_operator,
    half_trace,
    momentum_wavefunction,
    position_wavefunction,
    shifted_foundation,
)
from .density import (
    DensityProfile,
    component_densities,
    even_density,
    odd_coefficients,
    odd_components,
    total_density,
)
from .moments import (
    MomentReport,
    first_moment,
    first_moment_exact,
    moment_curves,
    moment_from_density,
    moment_report,
    normalization_identity,
    normalization_identity_exact,
    normalized_second,
    odd_moment,
    second_moment,
    second_moment_exact,
    variance,
)
from .estimate import (
    EmpiricalHistogram,
    FitResult,
    fit_symmetry_params,
    fit_walk,
)
from .errata import RECORDS, ErratumRecord, check_records, emit_errata
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "DensityProfile",
    "EffectiveParams",
    "EmpiricalHistogram",
    "ErratumRecord",
    "EvolutionOperatorSample",
    "FitResult",
    "FoundationTable",
    "InfeasibleParamsError",
    "LatticeIndex",
    "MomentReport",
    "MomentumWavefunction",
    "NormalizationError",
    "PolynomialRow",
    "RECORDS",
    "ResourceLimitError",
    "UnderdeterminedError",
    "WalkSpec",
    "WaveField",
    "chebyshev_u",
    "check_records",
    "component_densities",
    "derive_effective",
    "emit_errata",
    "even_density",
    "evolution_operator",
    "evolve_direct",
    "evolve_momentum_direct",
    "first_moment",
    "first_moment_exact",
    "fit_symmetry_params",
    "fit_walk",
    "foundation_polynomial",
    "foundation_table",
    "half_trace",
    "lattice_rows",
    "max_alpha",
    "moment_curves",
    "moment_from_density",
    "moment_report",
    "momentum_wavefunction",
    "normalization_identity",
    "normalization_identity_exact",
    "normalized_second",
    "odd_coefficients",
    "odd_components",
    "odd_moment",
    "polynomial_row_recursion",
    "polynomial_table",
    "position_wavefunction",
    "run_verification",
    "second_moment",
    "second_moment_exact",
    "shifted_foundation",
    "step",
    "total_density",
    "u_by_quadrature",
    "validate_effective",
    "variance",
]
