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


def __getattr__(name):
    # the CLI loads on first use, so `python -m kghulthen.cli` runs a
    # module that the package import has not already put in sys.modules
    if name in ("main", "parse_config"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
