"""The Coulomb limit, a closed form the paper does not use.

Hold alpha = V0/(beta hbar_c), sigma = m1/(beta hbar_c) and m_inf = m0 - m1
fixed as beta -> 0.  Then y = exp(-beta r)/(1 - exp(-beta r)) = 1/(beta r)
- 1/2 + O(beta r), and the radial equation tends to the Klein-Gordon
equation with a vector potential -alpha hbar_c/r and a scalar one -sigma
hbar_c/r.  With N = n + 1/2 + sqrt(1/4 + sigma**2 - alpha**2 + l(l + 1))
its levels solve E alpha + m_inf sigma = N sqrt(m_inf**2 - E**2):

    E_C = m_inf [-alpha sigma -+ N sqrt(N**2 + alpha**2 - sigma**2)]
          / (N**2 + alpha**2),

the root of each sign kept where E alpha + m_inf sigma > 0 (the lower and
the upper branch; with sigma = 0, E_C = m_inf/sqrt(1 + alpha**2/N**2), W.
Greiner, Relativistic Quantum Mechanics: Wave Equations).  The -1/2 of y
shifts V by V0/2 and m by m1/2, so to first order E = E_C + beta hbar_c
(alpha/2 + sigma E_C/(2 m_inf)), by Hellmann-Feynman with dE/dm = E/m for
the Coulomb levels; the surrogate's centrifugal term differs only at
O(beta**2).
"""

import math

import pytest

from kghulthen import (PhysicalSystem, energy_closed_form, energy_root_solve,
                       find_bound_states, satisfies_quantization)
from kghulthen.errors import InvalidRegime

_BETAS = (0.002, 0.001)
# (alpha, sigma, largest n + l): the two wells of the limit's survey (n,
# l <= 2), and a pair with sigma > alpha, where both branches are bound
_CASES = [(0.3, 0.1, 4), (0.5, 0.0, 4), (0.1, 0.3, 2)]
# the Richardson slope met the first-order one to 2.8e-7 on the survey's
# 18 levels and to 3.5e-7 on the pair's; 1e-6 leaves a margin of 2.9
_SLOPE_TOL = 1e-6


def _system(alpha, sigma, beta):
    """m_inf = 1, V0 = alpha beta and m1 = sigma beta (hbar_c = 1)."""
    return PhysicalSystem(V0=alpha * beta, beta=beta, m0=1.0 + sigma * beta,
                          m1=sigma * beta)


def _coulomb(alpha, sigma, n, l):
    """{branch: E_C} of the (n, l) Klein-Gordon-Coulomb levels, m_inf = 1."""
    N = n + 0.5 + math.sqrt(0.25 + sigma**2 - alpha**2 + l * (l + 1))
    roots = {branch: (-alpha * sigma + sign * N * math.sqrt(
        N * N + alpha**2 - sigma**2)) / (N * N + alpha**2)
        for sign, branch in ((-1.0, "lower"), (1.0, "upper"))}
    return {b: E for b, E in roots.items() if E * alpha + sigma > 0.0}


def _levels(alpha, sigma, top):
    """(n, l) with n, l <= 2 and n + l <= top."""
    return [(n, l) for n in range(3) for l in range(3) if n + l <= top]


@pytest.mark.parametrize("alpha, sigma, top", _CASES)
def test_analytic_levels_meet_the_coulomb_slope(alpha, sigma, top):
    # branch by branch: the root solve and the closed form hold the bound
    # roots of E_C, agree to 1e-9, and their Richardson slope 2 g(beta/2)
    # - g(beta), g = (E - E_C)/beta, meets the first-order one
    pairs = 0
    for n, l in _levels(alpha, sigma, top):
        limit = _coulomb(alpha, sigma, n, l)
        g = {}
        for beta in _BETAS:
            system = _system(alpha, sigma, beta)
            roots = {lv.branch: lv.value
                     for lv in energy_root_solve(system, n, l)}
            closed = {lv.branch: lv.value
                      for lv in energy_closed_form(system, n, l)
                      if not lv.unbound
                      and satisfies_quantization(system, n, l, lv.value)}
            assert set(roots) == set(closed) == set(limit), (n, l, beta)
            for branch, E in roots.items():
                assert abs(closed[branch] - E) <= 1e-9 * abs(E)
                g[beta, branch] = (E - limit[branch]) / beta
        for branch, E_C in limit.items():
            slope = alpha / 2.0 + sigma * E_C / 2.0
            rich = 2.0 * g[_BETAS[1], branch] - g[_BETAS[0], branch]
            assert abs(rich - slope) <= _SLOPE_TOL, (n, l, branch)
        pairs += len(limit) == 2
    assert pairs == (len(_levels(alpha, sigma, top)) if sigma > alpha else 0)


@pytest.mark.parametrize("beta", _BETAS)
@pytest.mark.parametrize("alpha, sigma, top", _CASES)
def test_oracle_meets_the_root_solve(alpha, sigma, top, beta):
    # every root-solved level n <= 2 of each l <= 2 channel meets exactly
    # one full-window oracle state of its node count and branch, to
    # criterion 3's 1e-6 relative; on the uniform grid with its origin
    # ladder every l = 0 solve here raised GridResolution.  The worst gaps
    # are 1.0e-10 at (0.3, 0.1) and (0.1, 0.3), and 1.3e-7 and 5.0e-7 at
    # (0.5, 0), l = 0, where the origin exponents are degenerate (s = 0)
    system = _system(alpha, sigma, beta)
    for l in range(3):
        states = find_bound_states(system, l)
        for n in range(3):
            for level in energy_root_solve(system, n, l):
                (state,) = [d for d in states
                            if (d.node_count, d.branch) == (n, level.branch)]
                assert state.converged
                assert abs(state.energy - level.value) \
                    <= 1e-6 * abs(level.value), (n, l, level.branch)


def test_over_attractive_limit_raises_in_every_solver():
    # sigma**2 - alpha**2 + l(l + 1) < -1/4 at l = 0: the origin exponents
    # are complex and no solver has a bound state to give
    system = _system(0.6, 0.1, 0.002)
    for solve in (lambda: energy_root_solve(system, 0, 0),
                  lambda: energy_closed_form(system, 0, 0),
                  lambda: find_bound_states(system, 0)):
        with pytest.raises(InvalidRegime):
            solve()
