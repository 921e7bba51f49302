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

The condition is evaluated on the branch whose factor
z**(s + 1/2) * (1 - z)**A decays at both ends, with s = sqrt(1/4 + a3_sq)
and A = sqrt(a1_sq + a2_sq + a3_sq).  There the engine's k, pi and tau
reduce to

    F(E) = a1_sq - (s + n + 1/2 + A)**2
         = G(E) * (sqrt(a1_sq) + s + n + 1/2 + A),

and the solvers read its first-order factor
G = sqrt(a1_sq) - (s + n + 1/2 + A).  a1_sq and A depend on E alone and s
on l alone, so the condition separates:

    sqrt(a1_sq)(E) - A(E) = s_l + n + 1/2.

One evaluation (``_condition_terms``) gives G from sqrt(a1_sq) and A in
factored form, a1_sq = (m0 - (E - V0))(m0 + (E - V0)) / (beta*hbar_c)**2
and A**2 = (m_inf - E)(m_inf + E) / (beta*hbar_c)**2, on a Python float or
a NumPy array of trial energies with the same bits.  G rounds like
eps*sqrt(a1_sq) where F rounds like eps*a1_sq, so G resolves deep wells
that F cannot; F is only ``quantization_residual``, which the tests pin
against the engine.  Every solver takes s, or the InvalidRegime of a
complex s, from ``model.real_origin_power`` (a3_sq in product form).

The quadratic closed form squares the condition once, which introduces
reflected roots that do not satisfy the original condition: there
sqrt(a1_sq) = |N - A|, N = s + n + 1/2.  Use ``satisfies_quantization`` to
tell genuine eigenvalues from such reflections; the root solver never
produces them.

Because the energy relation is a quadratic, each (n, l) has a "lower" and
an "upper" branch.  A solved state is "upper" when its Klein-Gordon charge
Q = integral of (E - V) phi**2 dr is positive (Feshbach-Villars), and
each solver reads that sign from the bracket it closes: G rises through
every upper root (here), and ``oracle.find_bound_states`` reads it from
its sweeps.  Only the closed form's pair is named by root order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoBoundState, NonNormalizable
from .model import (EnergyLevel, PhysicalSystem, RadialGrid, binding_window,
                    default_grid, origin_power, origin_strength,
                    real_origin_power)
# all_candidates, eigen_pair and gauss_jacobi_rule are unused here but stay
# importable from this module: the benchmark's tracer wraps them at these
# names
from .nu_engine import NUProblem, all_candidates, eigen_pair
from .specfun import (JacobiParams, _golub_welsch, endpoint_power_integral,
                      gauss_jacobi_rule, jacobi_eval)

_QUANTIZATION_TOL = 1e-8    # largest |G| / max(1, sqrt(a1_sq)) of a solution


@dataclass(frozen=True)
class CoefficientSet:
    """The three quadratic-form coefficients at a trial energy.

    ``a1_sq`` carries the full energy dependence, ``a2_sq`` is linear in E,
    and ``a3_sq`` is energy-independent.  ``A`` is sqrt(a1_sq+a2_sq+a3_sq)
    when that sum is non-negative (it equals the tail decay rate divided by
    beta) and None otherwise; see ``_tail_power``.
    """

    a1_sq: float
    a2_sq: float
    a3_sq: float
    A: Optional[float]


def _coefficients(system: PhysicalSystem, l: int, E):
    """(a1_sq, a2_sq, a3_sq) at a float E; a3_sq is ``origin_strength``."""
    q2 = 1.0 / system.screening_energy**2
    V0, m0, m1 = system.V0, system.m0, system.m1
    d = E - V0
    a1 = q2 * (m0 * m0 - d * d)
    a2 = -q2 * (2.0 * m0 * m1 + 2.0 * E * V0 - 2.0 * V0 * V0) - l * (l + 1)
    return a1, a2, origin_strength(system, l)


def _tail_power(system: PhysicalSystem, E: float, a1, a2, a3) -> float:
    """A = sqrt(a1 + a2 + a3), the engine's sum, NaN where complex.  It is
    (m_inf**2 - E**2) / beta**2 > 0 for |E| < m_inf, but within a few ulps
    of m_inf it can round below 0; A is 0 there."""
    total = a1 + a2 + a3
    if total < 0.0:
        return 0.0 if abs(E) < system.asymptotic_mass else math.nan
    return math.sqrt(total)


def _condition_terms(system: PhysicalSystem, N: float, E):
    """(G, sqrt(a1_sq), A) at a float or array E, with N = s + n + 1/2 and
    the terms in factored form (module docstring); a float E gets the bits
    of the array element at E.  A is NaN beyond +-m_inf, and a1_sq < 0
    reads as 0, where G <= -1/2: no root lies there."""
    q2 = 1.0 / system.screening_energy**2
    m0, m_inf, d = system.m0, system.asymptotic_mass, E - system.V0
    a1 = q2 * (m0 - d) * (m0 + d)
    tail = q2 * (m_inf - E) * (m_inf + E)
    if isinstance(E, np.ndarray):
        with np.errstate(invalid="ignore"):
            root, A = np.sqrt(np.maximum(a1, 0.0)), np.sqrt(tail)
    else:
        root = math.sqrt(max(a1, 0.0))
        A = math.sqrt(tail) if tail >= 0.0 else math.nan
    return root - (N + A), root, A


def coefficients_at(system: PhysicalSystem, l: int, E: float) -> CoefficientSet:
    """Evaluate the quadratic-form coefficients for one trial energy."""
    a1, a2, a3 = _coefficients(system, l, E)
    A = _tail_power(system, E, a1, a2, a3)
    return CoefficientSet(a1_sq=a1, a2_sq=a2, a3_sq=a3,
                          A=None if math.isnan(A) else A)


def build_nu_problem(coeffs: CoefficientSet) -> NUProblem:
    """Assemble the hypergeometric-type problem for one coefficient set."""
    return NUProblem(
        sigma_tilde=(-coeffs.a3_sq, -coeffs.a2_sq, -coeffs.a1_sq))


def origin_exponent_discriminant(system: PhysicalSystem, l: int) -> float:
    """1 + 4*a3_sq, E-free (``origin_strength``): s is real where this is >=
    0, or below 0 only within ``origin_power``'s rounding band (s = 0);
    below the band the origin is over-attractive (complex exponents)."""
    return 1.0 + 4.0 * origin_strength(system, l)


def quantization_residual(system: PhysicalSystem, n: int, l: int, E: float) -> float:
    """Residual F(E) of the bound-state condition; F(E) = 0 at eigenvalues.

    F is the difference between the reduction eigenvalue lambda(E) and the
    degree-n value lambda_n(E), both taken on the branch that decays at
    both ends, with A from the sum a1_sq + a2_sq + a3_sq as the engine
    takes it.  Raises ValueError at |E| >= m_inf, where no tail decays, as
    ``binding_window`` does, and InvalidRegime for a complex origin
    exponent, as every solver does.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    a1, a2, a3 = _coefficients(system, l, E)
    A = _tail_power(system, E, a1, a2, a3)
    if math.isnan(A) or abs(E) >= system.asymptotic_mass:
        raise ValueError(
            f"tail coefficient is not a decay rate at E={E!r} (|E| reaches "
            "the asymptotic rest energy)")
    t = real_origin_power(system, l) + A
    return float(0.25 + a1 - t * t - (t + 0.5) - 2.0 * n * (1.0 + t)
                 - n * (n - 1))


def satisfies_quantization(system: PhysicalSystem, n: int, l: int,
                           E: float) -> bool:
    """True when E actually solves the quantization condition: |G| <=
    1e-8 * max(1, sqrt(a1_sq)) (module docstring).  The closed form's
    reflected roots (artifacts of squaring, sqrt(a1_sq) = |N - A|) fail
    it, as do energies at or beyond the binding window and any E where
    the origin power is complex.
    """
    if abs(E) >= system.asymptotic_mass:
        return False
    N = origin_power(origin_strength(system, l)) + n + 0.5  # NaN: False
    G, root, _ = _condition_terms(system, N, E)
    return abs(G) <= _QUANTIZATION_TOL * max(1.0, root)


def level_midpoint(system: PhysicalSystem, n: int, l: int) -> float:
    """Energy-independent midpoint (E_plus + E_minus)/2 of the closed form.

    Both quadratic roots sit symmetrically about
    V0/2 + 2*V0*m1*(m1 - 2*m0) / (se**2 * (N**2 + 4*V0**2/se**2)),
    with se the screening energy — the algebraic statement that the two
    branches are mirror partners.
    """
    N = 2.0 * n + 1.0 + 2.0 * real_origin_power(system, l)
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
    N = 2.0 * n + 1.0 + 2.0 * real_origin_power(system, l)
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
    Np = (2.0 * n + 1.0) + 2.0 * real_origin_power(system, 0)
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
    changes of G (module docstring) and bisects each bracket alone, in
    floats, to |dE| <= 1e-12 * m0: the float G has the array's bits, so the
    roots are those of bisecting all brackets together on arrays.  Windows
    default to the full binding range (``binding_window``).  A root is
    "upper" when G rises through it, else "lower".  Raises InvalidRegime
    when the origin exponent is complex; elsewhere in the range G is
    defined.
    """
    lo, hi = binding_window(system, window)
    N = real_origin_power(system, l) + n + 0.5
    grid = np.linspace(lo, hi, 2001)
    vals = _condition_terms(system, N, grid)[0]
    # (root, G rises through it): a zero lattice point reads its neighbours
    roots = [(grid.item(j), vals.item(max(j - 1, 0)) < 0.0
              or vals.item(min(j + 1, grid.size - 1)) > 0.0)
             for j in np.flatnonzero(vals == 0.0).tolist()]
    tol = 1e-12 * system.m0
    for j in np.flatnonzero(vals[:-1] * vals[1:] < 0.0).tolist():
        a, b, fa = grid.item(j), grid.item(j + 1), vals.item(j)
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = _condition_terms(system, N, mid)[0]
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append((0.5 * (a + b), fa < 0.0))     # fa keeps its sign
    roots.sort()
    m_inf = system.asymptotic_mass
    return [EnergyLevel(value=E, branch="upper" if rise else "lower", n=n,
                        l=l, method="quantization_root",
                        unbound=abs(E) >= m_inf) for E, rise in roots]


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
    the quantization condition, |G| <= 1e-6 * max(1, sqrt(a1_sq)) (module
    docstring), with a positive tail power A, otherwise ValueError or
    NonNormalizable is raised; InvalidRegime means an over-attractive
    origin.
    """
    s = real_origin_power(system, l)
    G, root, A = _condition_terms(system, s + n + 0.5, E)
    if not A > 0.0:
        raise NonNormalizable(
            f"tail exponent A must be positive for a bound state (got {A!r})")
    if abs(G) > 1e-6 * max(1.0, root):
        raise ValueError(
            f"E={E!r} does not satisfy the quantization condition for "
            f"n={n}, l={l} (residual {G!r})")
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
