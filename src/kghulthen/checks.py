"""Self-validation battery: the checks behind the `validate` command.

Each check measures one cross-consistency property of the solvers on the
configured system — closed form against the quantization-condition roots,
analytic spectrum against the shooting oracle, wavefunction norms and ODE
residuals, reduction identities — and reports the measured value next to
the tolerance it must stay under.  All checks are deterministic given the
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hulthen_analytic as ha
from . import nu_engine as nu
from . import oracle
from .errors import NonNormalizable, SolverError
from .model import (PhysicalSystem, RadialGrid, binding_window,
                    default_grid, origin_power, real_origin_power)
from .specfun import JacobiParams, jacobi_derivative, jacobi_eval

_N_MAX, _L_MAX = 2, 1      # quantum-number range the battery sweeps


@dataclass(frozen=True)
class ValidationCheck:
    """Outcome of one validation property."""

    name: str
    passed: bool
    value: float
    tolerance: float


def wavefunction_ode_residual(system, n, l, E, points: int = 50) -> float:
    """Largest relative defect of the analytic wavefunction in the ODE.

    Evaluates phi'' - W*phi at interior radii using exact derivatives (the
    Jacobi derivative identity plus the chain rule through
    z = 1 - exp(-beta*r)), normalized by the largest term entering the
    balance at each point.
    """
    return _ode_residual(system, l, E, ha.wavefunction(system, n, l, E),
                         points)


def _ode_residual(system, l, E, wf, points=50):
    """``wavefunction_ode_residual`` of the built wavefunction wf."""
    s_half, A = wf.exponents          # z-power at origin, tail power
    s = s_half - 0.5
    params = wf.jacobi_params
    r_lo, r_hi = wf.grid.r_min, wf.grid.r_max
    # interior points clear of both endpoints, log-spaced over the support
    r = np.exp(np.linspace(math.log(r_lo * 20.0),
                           math.log(r_hi * 0.5), points))
    z = system.z_at(r)
    x = 1.0 - 2.0 * z
    P = jacobi_eval(params, x)
    dP = jacobi_derivative(params, x)
    d2P = (jacobi_derivative(
        JacobiParams(alpha=params.alpha + 1.0, beta=params.beta + 1.0,
                     n=params.n - 1), x)
        * 0.5 * (params.n + params.alpha + params.beta + 1.0)
        if params.n >= 2 else np.zeros_like(x))
    pref = z**s_half * (1.0 - z)**A
    # d/dz of phi = pref * P(1-2z):  logarithmic derivatives of the prefactor
    dlog = s_half / z - A / (1.0 - z)
    d2log = -s_half / z**2 - A / (1.0 - z)**2
    phi = pref * P
    phi_z = pref * (dlog * P - 2.0 * dP)
    phi_zz = pref * ((d2log + dlog * dlog) * P - 4.0 * dlog * dP + 4.0 * d2P)
    b = system.beta
    phi_rr = b * b * (1.0 - z) ** 2 * phi_zz - b * b * (1.0 - z) * phi_z
    W = oracle.ode_coefficient(system, l, E, r, mode="approx")
    resid = phi_rr - W * phi
    scale = np.maximum(np.abs(phi_rr), np.abs(W * phi))
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(resid) / scale))


def run_validation(system: PhysicalSystem,
                   grid: Optional[RadialGrid] = None):
    """Run the full battery; returns a list of ValidationCheck rows."""
    if grid is None:
        grid = default_grid(system)
    checks = []

    def add(name, value, tolerance):
        checks.append(ValidationCheck(name=name, passed=bool(value <= tolerance),
                                      value=float(value), tolerance=tolerance))

    # 1. the E-independent coefficient really is E-independent (bitwise)
    drift = max(abs(ha.coefficients_at(system, l, e1).a3_sq
                    - ha.coefficients_at(system, l, e2).a3_sq)
                for l in range(_L_MAX + 1)
                for e1, e2 in ((0.0, 0.5 * system.asymptotic_mass),
                               (-0.3, 0.7)))
    add("coefficient_energy_independence", drift, 0.0)

    # 2. every reduction constant k squares the radicand (discriminant zero)
    # 3. tau = tau_tilde + 2*pi on the selected branch, coefficientwise
    disc_worst = shape_worst = 0.0
    for l in range(_L_MAX + 1):
        coeffs = ha.coefficients_at(system, l, 0.25 * system.asymptotic_mass)
        if coeffs.A is None or math.isnan(origin_power(coeffs.a3_sq)):
            continue
        problem = ha.build_nu_problem(coeffs)
        for k in nu.k_candidates(problem):
            c0, c1, c2 = nu._radicand_coeffs(problem, k)
            scale = max(1.0, abs(c0), abs(c1), abs(c2)) ** 2
            disc_worst = max(disc_worst, abs(c1 * c1 - 4.0 * c0 * c2) / scale)
        cand = nu.select_candidate(problem, nu.all_candidates(problem))
        for got, t, p in zip(cand.tau, nu.TAU_TILDE, cand.pi):
            shape_worst = max(shape_worst, abs(got - (t + 2.0 * p)))
    add("reduction_discriminant_zero", disc_worst, 1e-10)
    add("branch_shape_consistency", shape_worst, 1e-12)

    # the real closed-form pairs, (n, l) -> (lower, upper), and the levels
    # among them that are bound and satisfy the condition
    pairs = {}
    for l in range(_L_MAX + 1):
        for n in range(_N_MAX + 1):
            try:
                pairs[n, l] = ha.energy_closed_form(system, n, l)
            except SolverError:
                pass
    levels = [level for pair in pairs.values() for level in pair]
    genuine = [level for level in levels if not level.unbound
               and ha.satisfies_quantization(system, level.n, level.l,
                                             level.value)]
    add("bound_states_found", 1.0 if not genuine else 0.0, 0.0)

    # 4. closed-form energies sit on the quantization condition
    #    sqrt(a1_sq) = N + A (or on its reflection |N - A| from the
    #    squaring step), on the scale of sqrt(a1_sq)
    worst = 0.0
    for level in levels:
        if not level.unbound:
            N = real_origin_power(system, level.l) + level.n + 0.5
            G, root, A = ha._condition_terms(system, N, level.value)
            worst = max(worst, min(abs(G),
                                   abs(root - abs(N - A))) / max(1.0, root))
    add("quantization_at_closed_form", worst, 1e-8)

    # 5. closed form vs independent root finding, one solve per (n, l), on
    #    the scale max(|E|, 1e-3*m0), where the root solve's 1e-12*m0 stop
    #    is the tolerance
    roots = {key: ha.energy_root_solve(system, *key)
             for key in dict.fromkeys((lv.n, lv.l) for lv in genuine)}
    worst = 0.0
    for level in genuine:
        best = min((abs(r.value - level.value)
                    for r in roots[level.n, level.l]), default=float("inf"))
        worst = max(worst, best / max(abs(level.value), 1e-3 * system.m0))
    add("closed_vs_root_solve", worst, 1e-9)

    # 6. constant-mass reduction (only defined for m1 = 0), on row 5's
    #    scale max(|E|, 1e-3*m0): two closed forms of a root near E = 0
    #    differ by rounding of the levels' own size, not of |E|
    if system.m1 == 0.0:
        worst = 0.0
        for (n, l), general in pairs.items():
            if l != 0:
                continue
            try:
                special = ha.energy_constant_mass_s(system, n)
            except SolverError:
                continue
            for g, sp in zip(general, special):
                worst = max(worst, abs(g.value - sp.value)
                            / max(abs(sp.value), 1e-3 * system.m0))
        add("constant_mass_reduction", worst, 1e-12)

    # 7. the two branches are mirror partners about the closed form's
    #    E-independent midpoint
    worst = 0.0
    for lower, upper in pairs.values():
        mid = ha.level_midpoint(system, lower.n, lower.l)
        total = lower.value + upper.value
        worst = max(worst, abs(total - 2.0 * mid) / max(1.0, abs(total)))
    add("branch_midpoint_identity", worst, 1e-12)

    # 8-10. shooting oracle: agreement, on row 5's scale max(|E|, 1e-3*m0)
    # (the oracle stops within an absolute 1e-10*m0), and node counts of
    # one l=0 scan (0 with no genuine l=0 level, inf when the scan fails),
    # and the modes' l=0 W at E=0 at 2K - 1 radii evenly spaced over the
    # grid (inf where not finite); a state meets the level of its node
    # count and branch (each solver's own label), so a Klein-Gordon pair
    # sharing n meets both
    targets = sorted((lv for lv in genuine if lv.l == 0),
                     key=lambda lv: lv.value)
    worst = node_bad = 0.0
    if targets:
        pad = 0.01 * system.asymptotic_mass
        lo, hi = binding_window(system)
        window = (max(targets[0].value - pad, lo),
                  min(targets[-1].value + pad, hi))
        try:
            approx = oracle.find_bound_states(system, 0, window=window,
                                              mode="approx", grid=grid,
                                              scan_points=60)
            for level in targets:
                match = [d.energy for d in approx if (d.node_count, d.branch)
                         == (level.n, level.branch)]
                if len(match) != 1:
                    node_bad += 1.0
                    continue
                worst = max(worst, abs(match[0] - level.value)
                            / max(abs(level.value), 1e-3 * system.m0))
        except SolverError:
            worst = node_bad = float("inf")
    add("oracle_agreement_l0", worst, 1e-6)
    add("oracle_node_counts", node_bad, 0.0)
    r = np.linspace(grid.r_min, grid.r_max, 2 * grid.points - 1)
    wa, we = (oracle.ode_coefficient(system, 0, 0.0, r, mode)
              for mode in ("approx", "exact"))
    mode_diff = (np.max(np.abs(wa - we) / np.maximum(np.abs(we), 1e-300))
                 if np.isfinite([wa, we]).all() else float("inf"))
    add("mode_agreement_l0", mode_diff, 1e-9)

    # 11-13. wavefunctions of the genuine states; one that cannot be
    # normalized fails every wavefunction row
    norm_worst = 0.0
    node_bad = 0.0
    resid_worst = 0.0
    for level in genuine:
        try:
            wf = ha.wavefunction(system, level.n, level.l, level.value)
            resid = _ode_residual(system, level.l, level.value, wf)
        except NonNormalizable:
            norm_worst = resid_worst = float("inf")
            node_bad += 1.0
            continue
        norm_worst = max(norm_worst, abs(wf.norm - 1.0))
        if wf.node_count != level.n:
            node_bad += 1.0
        resid_worst = max(resid_worst, resid)
    add("wavefunction_norm", norm_worst, 1e-8)
    add("wavefunction_nodes", node_bad, 0.0)
    add("wavefunction_ode_residual", resid_worst, 1e-6)
    add("norm_quadrature_cross_check", norm_worst, 1e-10)

    # 14. polynomial endpoint anchor (integer-exponent binomial identity)
    worst = 0.0
    for n in range(6):
        got = jacobi_eval(JacobiParams(alpha=2.0, beta=3.0, n=n), 1.0)
        want = math.comb(n + 2, n)
        worst = max(worst, abs(got - want) / want)
    add("jacobi_endpoint_anchor", worst, 1e-12)

    return checks
