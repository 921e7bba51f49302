"""Closed-form spectrum and wavefunctions of the screened well.

In the coordinate z = 1 - exp(-beta*r) the radial equation (with the
screened centrifugal stand-in) becomes hypergeometric-type with

    sigma_tilde(z) = -(A1*z**2 + A2*z + A3),

where the three coefficients collect the energy, potential strength,
mass-profile parameters and angular momentum (all divided by the
screening energy beta*hbar_c, squared).  The reduction engine
(``nu_engine``) then yields

* a quantization condition lambda(E) = lambda_n(E) whose roots are the
  bound-state energies (``quantization_residual`` / ``energy_root_solve``),
* a quadratic closed form for those energies (``energy_closed_form``),
* and the bound-state wavefunction built from a Jacobi polynomial
  (``wavefunction``).

The condition is evaluated in closed form on the branch whose factor
z**(s + 1/2) * (1 - z)**A decays at both ends, with s = sqrt(1/4 + a3_sq)
and A = sqrt(a1_sq + a2_sq + a3_sq).  There the engine's k, pi and tau
reduce to

    F(E) = 1/4 + a1_sq - (s+A)**2 - (s+A+1/2) - 2n(1+s+A) - n(n-1),

one NumPy expression over any array of trial energies; the tests pin it
against the engine's branch-by-branch derivation.  That one evaluation
(``_condition``) is the only place the solvers take the roots s and A: it
returns F, s and A together, NaN where a root is complex.  s does not
depend on E, so a complex s is a property of the channel: every solver
raises InvalidRegime on it (an over-attractive origin).

The quadratic closed form squares the condition once, which introduces
reflected roots that do not satisfy the original condition.  Use
``satisfies_quantization`` to tell genuine eigenvalues from such
reflections; the root solver never produces them.

Because the energy relation is a quadratic, each (n, l) has a "lower" and
an "upper" branch.  ``branch_labels`` is the one rule that names solver
energies: the root solver's here, and the oracle's in the CLI and the
validation battery.  A pair is labelled by energy order, any other count
by the nearer closed-form branch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ComplexRegime, InvalidRegime, NoBoundState,
                     NonNormalizable)
from .model import (EnergyLevel, PhysicalSystem, RadialGrid, binding_window,
                    default_grid)
# all_candidates, eigen_pair and gauss_jacobi_rule are unused here but stay
# importable from this module: the benchmark's tracer wraps them at these
# names
from .nu_engine import NUProblem, all_candidates, eigen_pair
from .specfun import (JacobiParams, _golub_welsch, endpoint_power_integral,
                      gauss_jacobi_rule, jacobi_eval)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoefficientSet:
    """The three quadratic-form coefficients at a trial energy.

    ``a1_sq`` carries the full energy dependence, ``a2_sq`` is linear in E,
    and ``a3_sq`` is energy-independent.  ``A`` is sqrt(a1_sq+a2_sq+a3_sq)
    when that sum is non-negative (it equals the tail decay rate divided by
    beta) and None otherwise.  ``energy`` records the E the set was built at.
    """

    a1_sq: float
    a2_sq: float
    a3_sq: float
    A: Optional[float]
    energy: float


def _coefficients(system: PhysicalSystem, l: int, E):
    """(a1_sq, a2_sq, a3_sq) at a scalar or array E; a3_sq is E-free."""
    q2 = 1.0 / system.screening_energy**2
    V0, m0, m1 = system.V0, system.m0, system.m1
    ll = l * (l + 1)
    a1 = q2 * (m0 * m0 - (E - V0) ** 2)
    a2 = -q2 * (2.0 * m0 * m1 + 2.0 * E * V0 - 2.0 * V0 * V0) - ll
    a3 = q2 * (m1 * m1 - V0 * V0) + ll
    return a1, a2, a3


def coefficients_at(system: PhysicalSystem, l: int, E: float) -> CoefficientSet:
    """Evaluate the quadratic-form coefficients for one trial energy."""
    if l < 0:
        raise ValueError("angular momentum l must be >= 0")
    a1, a2, a3 = _coefficients(system, l, E)
    total = a1 + a2 + a3
    A = math.sqrt(total) if total >= 0.0 else None
    return CoefficientSet(a1_sq=a1, a2_sq=a2, a3_sq=a3, A=A, energy=E)


def build_nu_problem(coeffs: CoefficientSet) -> NUProblem:
    """Assemble the hypergeometric-type problem for one coefficient set."""
    return NUProblem(
        tau_tilde=(0.0, -1.0),
        sigma_tilde=(-coeffs.a3_sq, -coeffs.a2_sq, -coeffs.a1_sq),
    )


def origin_exponent_discriminant(system: PhysicalSystem, l: int) -> float:
    """1 + 4*a3_sq: positive when the origin exponent is real.

    Negative values mean the effective origin singularity is over-attractive
    (the power-law exponents turn complex) and no real-parameter bound-state
    analysis applies.  a3_sq does not depend on E, so neither does this.
    """
    return 1.0 + 4.0 * coefficients_at(system, l, 0.0).a3_sq


def _condition(system: PhysicalSystem, n: int, l: int, E):
    """(F, s, A) at a scalar or array E: the condition F(E) on the decaying
    branch (see the module docstring) with its origin power s and tail
    power A; NaN where a root is complex.  s is E-free, so it is a scalar
    at any E."""
    a1, a2, a3 = _coefficients(system, l, np.asarray(E, dtype=float))
    with np.errstate(invalid="ignore"):
        s, A = np.sqrt(0.25 + a3), np.sqrt(a1 + a2 + a3)
    t = s + A
    F = 0.25 + a1 - t * t - (t + 0.5) - 2.0 * n * (1.0 + t) - n * (n - 1)
    return F, s, A


def _real_origin(system: PhysicalSystem, l: int, s,
                 error=InvalidRegime) -> float:
    """The origin power s of ``_condition`` as a float; ``error`` when it
    is complex (an over-attractive origin)."""
    if math.isnan(s):
        raise error(
            "origin exponent is complex (over-attractive singularity): "
            f"1 + 4*a3_sq = {origin_exponent_discriminant(system, l)!r}")
    return float(s)


def quantization_residual(system: PhysicalSystem, n: int, l: int, E: float) -> float:
    """Residual F(E) of the bound-state condition; F(E) = 0 at eigenvalues.

    F is the difference between the reduction eigenvalue lambda(E) and the
    degree-n value lambda_n(E), both taken on the branch that decays at
    both ends.  Raises ComplexRegime when the coefficients leave the real
    domain (A absent, or complex origin exponent).
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    F, s, A = _condition(system, n, l, E)
    if math.isnan(A):
        raise ComplexRegime(
            f"tail coefficient is complex at E={E!r} (|E| exceeds the "
            "asymptotic rest energy)")
    _real_origin(system, l, s, ComplexRegime)
    return float(F)


def satisfies_quantization(system: PhysicalSystem, n: int, l: int, E: float,
                           tol: float = 1e-8) -> bool:
    """True when E actually solves the quantization condition.

    The closed-form quadratic also returns reflected roots (artifacts of
    squaring) whose residual is finite; they are reported as not satisfying
    the condition.  Energies at or beyond the binding window, and any E
    where the condition is complex, are rejected.
    """
    if abs(E) >= system.asymptotic_mass:
        return False
    F, s, A = _condition(system, n, l, E)
    return bool(abs(F) <= tol * residual_scale(n, A, s))


def residual_scale(n: int, A: float, s: float) -> float:
    """max(1, |lambda_n|) with lambda_n = 2n(A + s + 1) + n(n - 1): the scale
    that tolerances on the residual F are relative to."""
    return max(1.0, abs(2.0 * n * (A + s + 1.0) + n * (n - 1)))


def level_midpoint(system: PhysicalSystem, n: int, l: int) -> float:
    """Energy-independent midpoint (E_plus + E_minus)/2 of the closed form.

    Both quadratic roots sit symmetrically about
    V0/2 + 2*V0*m1*(m1 - 2*m0) / (se**2 * (N**2 + 4*V0**2/se**2)),
    with se the screening energy — the algebraic statement that the two
    branches are mirror partners.
    """
    s = _real_origin(system, l, _condition(system, n, l, 0.0)[1])
    N = 2.0 * n + 1.0 + 2.0 * s
    q2 = 1.0 / system.screening_energy**2
    V0, m0, m1 = system.V0, system.m0, system.m1
    D = N * N + 4.0 * q2 * V0 * V0
    return V0 / 2.0 + 2.0 * q2 * V0 * m1 * (m1 - 2.0 * m0) / D


def energy_closed_form(system: PhysicalSystem, n: int, l: int):
    """Both closed-form energy branches for quantum numbers (n, l).

    Returns ``(lower, upper)`` EnergyLevels from the quadratic energy
    relation.  Raises InvalidRegime when the origin exponent is complex and
    NoBoundState when the quadratic has no real roots.  Roots at or beyond
    the binding window are returned with ``unbound=True``.

    Squaring the quantization condition means one (occasionally both) of
    the returned roots may be a reflection artifact; check with
    ``satisfies_quantization`` when that distinction matters.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    s = _real_origin(system, l, _condition(system, n, l, 0.0)[1])
    N = 2.0 * n + 1.0 + 2.0 * s
    q2 = 1.0 / system.screening_energy**2
    V0, m0, m1 = system.V0, system.m0, system.m1
    P0 = q2 * (m1 * m1 - 2.0 * m0 * m1 + V0 * V0)
    quarter = N * N / 4.0
    # quadratic a*E^2 + b*E + c = 0 equivalent to the squared condition
    a = q2 * V0 * V0 + quarter
    b = -V0 * (P0 + quarter)
    c = (P0 - quarter) ** 2 / (4.0 * q2) + quarter * (V0 * V0 - m0 * m0)
    rad = b * b - 4.0 * a * c
    if rad < 0.0:
        raise NoBoundState(
            f"closed-form energy is complex for n={n}, l={l} "
            f"(radicand {rad!r})")
    root = math.sqrt(rad)
    return _closed_pair(system, n, l, (-b - root) / (2.0 * a),
                        (-b + root) / (2.0 * a))


def _closed_pair(system, n, l, e_lo, e_hi):
    """(lower, upper) closed-form EnergyLevels, unbound at or beyond the
    binding window."""
    m_inf = system.asymptotic_mass
    return tuple(EnergyLevel(value=E, branch=branch, n=n, l=l,
                             method="closed_form", unbound=abs(E) >= m_inf)
                 for E, branch in ((e_lo, "lower"), (e_hi, "upper")))


def energy_constant_mass_s(system: PhysicalSystem, n: int):
    """Constant-mass s-wave energies from the dedicated reduced formula.

    Only defined for m1 = 0 and l = 0:

        N' = (2n+1) + sqrt(1 - 4*(V0/se)**2)
        E  = V0/2 +- N' * sqrt(m0**2/(4*(V0/se)**2 + N'**2) - se**2/16)

    with se = beta*hbar_c.  This must agree with ``energy_closed_form``
    branch by branch (the general quadratic reduces to it); keeping the
    separate evaluation path makes that reduction testable.
    """
    if system.m1 != 0.0:
        raise ValueError("constant-mass formula requires m1 = 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    se = system.screening_energy
    qv = system.V0 / se                      # dimensionless well strength
    disc = 1.0 - 4.0 * qv * qv
    if disc < 0.0:
        raise InvalidRegime(
            f"s-wave origin exponent is complex (4*(V0/se)**2 = "
            f"{4.0 * qv * qv!r} > 1)")
    Np = (2.0 * n + 1.0) + math.sqrt(disc)
    inner = system.m0**2 / (4.0 * qv * qv + Np * Np) - se * se / 16.0
    if inner < 0.0:
        raise NoBoundState(
            f"constant-mass radicand negative for n={n} ({inner!r})")
    half_split = Np * math.sqrt(inner)
    return _closed_pair(system, n, 0, system.V0 / 2.0 - half_split,
                        system.V0 / 2.0 + half_split)


def energy_root_solve(system: PhysicalSystem, n: int, l: int,
                      window=None):
    """All roots of the quantization condition inside the energy window.

    Scans the window on a uniform 2000-interval lattice, brackets sign
    changes of the residual F and bisects all brackets together to
    |dE| < 1e-12 * m0.  Windows default to the full binding range
    (``binding_window``), and roots are labelled by ``branch_labels``.
    Raises InvalidRegime when the origin exponent is complex.  Inside the
    binding range F is defined wherever the origin is regular; only a
    window end at +-m_inf may round to an undefined (NaN) point, which
    neither brackets nor counts as a zero.
    """
    lo, hi = binding_window(system, window)
    grid = np.linspace(lo, hi, 2001)
    vals, s, _ = _condition(system, n, l, grid)
    _real_origin(system, l, s)
    # bisect every sign-change bracket at once to |dE| <= tol
    j = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    a, b, fa = grid[j], grid[j + 1], vals[j]
    tol = 1e-12 * system.m0
    active = b - a > tol
    while active.any():
        mid = 0.5 * (a + b)
        fm = _condition(system, n, l, mid)[0]
        left = fa * fm <= 0.0
        b = np.where(active & left, mid, b)
        a = np.where(active & ~left, mid, a)
        fa = np.where(active & ~left, fm, fa)
        active &= b - a > tol
    roots = grid[vals == 0.0].tolist() + (0.5 * (a + b)).tolist()
    roots.sort()
    m_inf = system.asymptotic_mass
    return [EnergyLevel(value=E, branch=label, n=n, l=l,
                        method="quantization_root", unbound=abs(E) >= m_inf)
            for E, label in zip(roots, branch_labels(system, n, l, roots))]


def branch_labels(system, n, l, energies: list) -> list:
    """Labels ("lower"/"upper") of one (n, l)'s solver energies, ascending.

    The one labelling rule: a pair follows energy order; any other count
    takes the nearer closed-form branch one by one ("upper" when the closed
    form is not real), and more than two are named in a warning.
    """
    if len(energies) == 2:
        return ["lower", "upper"]
    if len(energies) > 2:
        log.warning("%d energies for n=%d, l=%d, where the energy relation "
                    "has two branches: %s", len(energies), n, l,
                    ", ".join(map(repr, energies)))
    try:
        lower, upper = energy_closed_form(system, n, l)
    except (InvalidRegime, NoBoundState):
        return ["upper"] * len(energies)
    return ["lower" if abs(E - lower.value) < abs(E - upper.value)
            else "upper" for E in energies]


@dataclass(frozen=True, eq=False)
class RadialWavefunction:
    """Normalized bound-state radial function sampled on a grid.

    ``values`` integrate to one in r (measured value in ``norm``);
    ``amplitude`` is the normalization constant that was divided out, so
    ``amplitude * values`` reproduces the bare analytic construction.
    ``exponents`` holds (origin power of z, tail power of 1-z) and
    ``jacobi_params`` the polynomial part.
    """

    grid: RadialGrid
    values: np.ndarray
    node_count: int
    norm: float
    jacobi_params: JacobiParams
    exponents: tuple
    amplitude: float


def wavefunction(system: PhysicalSystem, n: int, l: int, E: float,
                 grid: Optional[RadialGrid] = None) -> RadialWavefunction:
    """Construct the normalized radial wavefunction for eigenvalue E.

    phi(r) = z**(s + 1/2) * (1-z)**A * P_n^(2s, 2A)(1 - 2z), z = 1 - e^(-beta r),
    normalized so the integral of phi**2 over r equals one.  E must satisfy
    the quantization condition (checked to 1e-6 scaled) with a positive
    tail power A, otherwise ValueError or NonNormalizable is raised;
    InvalidRegime means an over-attractive origin.
    """
    F, s, A = map(float, _condition(system, n, l, E))
    if not A > 0.0:
        raise NonNormalizable(
            f"tail exponent A must be positive for a bound state (got {A!r})")
    s = _real_origin(system, l, s)
    if abs(F) > 1e-6 * residual_scale(n, A, s):
        raise ValueError(
            f"E={E!r} does not satisfy the quantization condition for "
            f"n={n}, l={l} (residual {F!r})")
    if grid is None:
        grid = default_grid(system)
    params = JacobiParams(alpha=2.0 * s, beta=2.0 * A, n=n)

    def bare(z):
        return z**(s + 0.5) * (1.0 - z)**A \
            * jacobi_eval(params, 1.0 - 2.0 * z)

    # norm integral: phi^2 dr = z^(2s+1) (1-z)^(2A-1) P^2 dz / beta, which
    # is exactly a Jacobi weight times a polynomial of degree 2n, so a
    # Gauss-Jacobi rule with n+4 points integrates it exactly.  Mapping
    # z = (1+x)/2 sends the weight exponents to (2A-1, 2s+1) on [-1, 1]
    # and the polynomial argument 1-2z to -x.  The rule's weights are its
    # mass 2**(2s+2A+1) * B(2A, 2s+2) times normalized weights; the map's
    # 2**-(2s+2A+1) cancels the power, and B alone stays finite (lgamma)
    p_exp, q_exp = 2.0 * s + 1.0, 2.0 * A - 1.0
    gj_nodes, shares = _golub_welsch(q_exp, p_exp, n + 4)
    poly_sq = jacobi_eval(params, -gj_nodes) ** 2
    beta_fn = math.exp(math.lgamma(q_exp + 1.0) + math.lgamma(p_exp + 1.0)
                       - math.lgamma(p_exp + q_exp + 2.0))
    norm_sq = beta_fn * float(np.sum(shares * poly_sq)) / system.beta
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise NonNormalizable(f"norm integral is {norm_sq!r}")
    amplitude = math.sqrt(norm_sq)
    r = grid.radii()
    z = system.z_at(r)
    vals = bare(z) / amplitude
    if vals[0] < 0.0:
        vals = -vals
    node_count = int(np.sum(vals[1:] * vals[:-1] < 0.0))
    # independent measurement of the same integral with a completely
    # different scheme (double-exponential), so the reported norm is a
    # genuine cross-check rather than the constant just divided out
    measured = endpoint_power_integral(
        p_exp, q_exp,
        lambda zz: jacobi_eval(params, 1.0 - 2.0 * zz) ** 2,
    ) / system.beta / norm_sq
    return RadialWavefunction(grid=grid, values=vals, node_count=node_count,
                              norm=measured, jacobi_params=params,
                              exponents=(s + 0.5, A),
                              amplitude=amplitude)
