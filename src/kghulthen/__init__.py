"""Relativistic bound states of an exponentially screened well with a
position-dependent mass: closed-form spectra via a hypergeometric-type
reduction, a numerical root solver for the quantization condition, Jacobi
wavefunctions, and an independent shooting-method oracle."""

from .errors import (ComplexRegime, ConfigError, GridResolution, InvalidK,
                     InvalidRegime, KGHulthenError, NoAdmissibleBranch,
                     NoBoundState, NonNormalizable, NoRealK)
from .model import EnergyLevel, PhysicalSystem, RadialGrid, default_grid
from .nu_engine import (NUCandidate, NUProblem, NUSolution, all_candidates,
                        closure_functions, eigen_pair, k_candidates,
                        pi_from_k, select_candidate)
from .specfun import (JacobiParams, endpoint_power_integral,
                      gauss_jacobi_rule, jacobi_derivative, jacobi_eval)
from .hulthen_analytic import (CoefficientSet, RadialWavefunction,
                               build_nu_problem, coefficients_at,
                               energy_closed_form, energy_constant_mass_s,
                               energy_root_solve, level_midpoint,
                               origin_exponent_discriminant,
                               quantization_residual, satisfies_quantization,
                               wavefunction)
from .oracle import (ApproxErrorRow, ShootingDiagnostics,
                     approximation_error, find_bound_states, ode_coefficient)
from .checks import ValidationCheck, run_validation
from .cli import RunConfig, execute, main, parse_config, serialize

__version__ = "0.1.0"

__all__ = [
    "ApproxErrorRow", "CoefficientSet", "ComplexRegime", "ConfigError",
    "EnergyLevel", "GridResolution", "InvalidK", "InvalidRegime",
    "JacobiParams", "KGHulthenError", "NUCandidate", "NUProblem",
    "NUSolution", "NoAdmissibleBranch", "NoBoundState", "NoRealK",
    "NonNormalizable", "PhysicalSystem", "RadialGrid", "RadialWavefunction",
    "RunConfig", "ShootingDiagnostics", "ValidationCheck", "all_candidates",
    "approximation_error", "build_nu_problem", "closure_functions",
    "coefficients_at", "default_grid", "eigen_pair", "energy_closed_form",
    "energy_constant_mass_s", "energy_root_solve", "execute",
    "find_bound_states", "endpoint_power_integral", "gauss_jacobi_rule",
    "jacobi_derivative", "jacobi_eval", "k_candidates", "level_midpoint",
    "main", "ode_coefficient", "origin_exponent_discriminant", "parse_config",
    "pi_from_k", "quantization_residual", "run_validation",
    "satisfies_quantization", "select_candidate", "serialize", "wavefunction",
]
