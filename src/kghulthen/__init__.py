"""Relativistic bound states of an exponentially screened well with a
position-dependent mass: closed-form spectra via a hypergeometric-type
reduction, a numerical root solver for the quantization condition, Jacobi
wavefunctions, and an independent shooting-method oracle."""

from .model import PhysicalSystem, RadialGrid, default_grid
from .nu_engine import (NUProblem, all_candidates, closure_functions,
                        eigen_pair, k_candidates, select_candidate)
from .specfun import JacobiParams, jacobi_derivative, jacobi_eval
from .hulthen_analytic import (coefficients_at, energy_closed_form,
                               energy_constant_mass_s, energy_root_solve,
                               level_midpoint, origin_exponent_discriminant,
                               quantization_residual, satisfies_quantization,
                               wavefunction)
from .oracle import find_bound_states
from .cli import main, parse_config

__version__ = "0.1.0"

__all__ = [
    "JacobiParams", "NUProblem", "PhysicalSystem", "RadialGrid",
    "all_candidates", "closure_functions", "coefficients_at", "default_grid",
    "eigen_pair", "energy_closed_form", "energy_constant_mass_s",
    "energy_root_solve", "find_bound_states", "jacobi_derivative",
    "jacobi_eval", "k_candidates", "level_midpoint", "main",
    "origin_exponent_discriminant", "parse_config", "quantization_residual",
    "satisfies_quantization", "select_candidate", "wavefunction",
]
