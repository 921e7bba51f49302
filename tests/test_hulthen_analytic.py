"""Closed-form spectrum, root solver, and wavefunction construction."""

import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kghulthen import (PhysicalSystem, RadialGrid, all_candidates,
                       coefficients_at, eigen_pair, energy_closed_form,
                       energy_constant_mass_s, energy_root_solve,
                       level_midpoint, origin_exponent_discriminant,
                       quantization_residual, satisfies_quantization,
                       wavefunction)
from kghulthen.checks import wavefunction_ode_residual
from kghulthen.hulthen_analytic import branch_labels, build_nu_problem
from kghulthen.errors import (ComplexRegime, InvalidK, InvalidRegime,
                              NoBoundState, NonNormalizable, NoRealK)

from conftest import (REFERENCE_ALL_SPURIOUS, REFERENCE_PAIRS, REFERENCE_TRUE,
                      SET_A_TRUE, SET_B_TRUE, SET_C_TRUE)


class TestCoefficients:
    def test_hand_checked_values(self, fixture_system):
        co = coefficients_at(fixture_system, 1, 0.5)
        assert co.a1_sq == pytest.approx(3.75, rel=1e-14)
        assert co.a2_sq == pytest.approx(-4.1, rel=1e-14)
        assert co.a3_sq == pytest.approx(1.91, rel=1e-14)
        assert co.A == pytest.approx(math.sqrt(1.56), rel=1e-14)
        assert co.energy == 0.5

    def test_only_a3_is_energy_independent(self, fixture_system):
        sets = [coefficients_at(fixture_system, 1, E)
                for E in (-0.3, 0.1, 0.2, 0.5)]
        assert len({c.a3_sq for c in sets}) == 1          # identical bits
        assert len({c.a1_sq for c in sets}) == 4
        assert len({c.a2_sq for c in sets}) == 4

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(V0=st.floats(0.0, 2.0), beta=st.floats(0.01, 2.0),
           m0=st.floats(0.1, 10.0), m1_share=st.floats(0.0, 0.999),
           hbar_c=st.floats(0.1, 10.0), l=st.integers(0, 8),
           u=st.floats(-1.0, 1.0))
    def test_coefficient_sum_is_energy_gap(self, V0, beta, m0, m1_share,
                                           hbar_c, l, u):
        # a1 + a2 + a3 = ((m0 - m1)**2 - E**2) / (beta*hbar_c)**2, so A is
        # real throughout the binding window and the residual can be
        # undefined there only where s is complex, which is E-free
        system = PhysicalSystem(V0=V0, beta=beta, m0=m0, m1=m1_share * m0,
                                hbar_c=hbar_c)
        E = u * system.asymptotic_mass
        co = coefficients_at(system, l, E)
        se2 = system.screening_energy ** 2
        want = (system.asymptotic_mass ** 2 - E * E) / se2
        scale = (m0 + abs(E) + V0) ** 2 / se2 + l * (l + 1)
        assert abs(co.a1_sq + co.a2_sq + co.a3_sq - want) <= 1e-14 * scale

    def test_tail_coefficient_none_beyond_window(self, reference_system):
        assert coefficients_at(reference_system, 0, 1.5).A is None

    def test_rejects_negative_l(self, reference_system):
        with pytest.raises(ValueError, match="l"):
            coefficients_at(reference_system, -1, 0.5)


class TestOriginExponent:
    def test_reference_values(self, reference_system):
        # V0 = se/2 puts the s-wave exactly at the degenerate-exponent point
        assert origin_exponent_discriminant(reference_system, 0) == 0.0
        assert origin_exponent_discriminant(reference_system, 1) \
            == pytest.approx(8.0, rel=1e-14)

    def test_over_attractive_origin_is_negative(self):
        bad = PhysicalSystem(V0=0.3, beta=0.2, m0=1.0, m1=0.1)
        assert origin_exponent_discriminant(bad, 0) \
            == pytest.approx(-7.0, rel=1e-13)


class TestClosedForm:
    @pytest.mark.parametrize("n,l", sorted(REFERENCE_PAIRS))
    def test_reference_pairs(self, reference_system, n, l):
        lower, upper = energy_closed_form(reference_system, n, l)
        want_lo, want_hi = REFERENCE_PAIRS[(n, l)]
        assert lower.value == pytest.approx(want_lo, abs=5e-14)
        assert upper.value == pytest.approx(want_hi, abs=5e-14)
        assert lower.branch == "lower" and upper.branch == "upper"
        assert lower.method == upper.method == "closed_form"
        assert lower.value < upper.value
        assert (lower.n, lower.l) == (n, l)

    @pytest.mark.parametrize("n,l", sorted(REFERENCE_TRUE))
    def test_reference_genuine_roots(self, reference_system, n, l):
        lower, upper = energy_closed_form(reference_system, n, l)
        genuine = [lv.value for lv in (lower, upper)
                   if satisfies_quantization(reference_system, n, l, lv.value)]
        assert genuine == [pytest.approx(REFERENCE_TRUE[(n, l)], abs=5e-14)]

    @pytest.mark.parametrize("n,l", REFERENCE_ALL_SPURIOUS)
    def test_reference_reflection_only_pairs(self, reference_system, n, l):
        lower, upper = energy_closed_form(reference_system, n, l)
        for lv in (lower, upper):
            assert not satisfies_quantization(reference_system, n, l,
                                              lv.value)

    @pytest.mark.parametrize("table,fixture", [
        (SET_A_TRUE, "set_a"), (SET_B_TRUE, "set_b"), (SET_C_TRUE, "set_c")])
    def test_varying_mass_genuine_roots(self, table, fixture, request):
        system = request.getfixturevalue(fixture)
        for (n, l), want in table.items():
            lower, upper = energy_closed_form(system, n, l)
            genuine = [lv.value for lv in (lower, upper)
                       if satisfies_quantization(system, n, l, lv.value)]
            assert genuine == [pytest.approx(want, abs=5e-14)], (n, l)

    def test_root_at_window_edge_is_flagged_unbound(self):
        system = PhysicalSystem(V0=0.2, beta=0.1, m0=1.0)
        _, upper = energy_closed_form(system, 4, 2)
        assert upper.value == pytest.approx(1.0, rel=1e-12)
        assert upper.unbound is True
        assert not satisfies_quantization(system, 4, 2, upper.value)

    def test_over_attractive_origin_raises(self):
        bad = PhysicalSystem(V0=0.3, beta=0.2, m0=1.0, m1=0.1)
        with pytest.raises(InvalidRegime, match="origin"):
            energy_closed_form(bad, 0, 0)

    def test_complex_energy_raises_no_bound_state(self):
        strong_screen = PhysicalSystem(V0=0.3, beta=3.0, m0=1.0)
        with pytest.raises(NoBoundState):
            energy_closed_form(strong_screen, 0, 0)

    def test_rejects_negative_quantum_numbers(self, reference_system):
        with pytest.raises(ValueError):
            energy_closed_form(reference_system, -1, 0)
        with pytest.raises(ValueError):
            energy_closed_form(reference_system, 0, -1)


class TestConstantMassReduction:
    def test_agrees_with_general_form_branch_by_branch(self):
        # the general quadratic must collapse onto the dedicated
        # constant-mass formula for every well depth below the
        # degenerate-exponent threshold V0 = se/2
        count = 0
        for beta in (0.05, 0.1, 0.2, 0.5):
            for strength in (0.2, 0.5, 0.8, 0.99, 1.0):
                V0 = 0.45 * strength * beta
                system = PhysicalSystem(V0=V0, beta=beta, m0=1.0)
                for n in (0, 1, 2):
                    try:
                        red_lo, red_hi = energy_constant_mass_s(system, n)
                    except NoBoundState:
                        continue
                    gen_lo, gen_hi = energy_closed_form(system, n, 0)
                    assert red_lo.value == pytest.approx(gen_lo.value,
                                                         rel=1e-12)
                    assert red_hi.value == pytest.approx(gen_hi.value,
                                                         rel=1e-12)
                    count += 1
        assert count >= 20

    def test_requires_constant_mass(self, set_a):
        with pytest.raises(ValueError, match="m1"):
            energy_constant_mass_s(set_a, 0)

    def test_degenerate_threshold(self):
        with pytest.raises(InvalidRegime):
            energy_constant_mass_s(PhysicalSystem(V0=0.3, beta=0.2, m0=1.0),
                                   0)
        with pytest.raises(NoBoundState):
            energy_constant_mass_s(PhysicalSystem(V0=0.3, beta=3.0, m0=1.0),
                                   0)
        with pytest.raises(ValueError):
            energy_constant_mass_s(PhysicalSystem(V0=0.1, beta=0.2, m0=1.0),
                                   -1)


class TestQuantizationResidual:
    @pytest.mark.parametrize("n,l", sorted(REFERENCE_TRUE))
    def test_vanishes_at_genuine_roots(self, reference_system, n, l):
        res = quantization_residual(reference_system, n, l,
                                    REFERENCE_TRUE[(n, l)])
        assert abs(res) < 1e-10

    def test_reflection_artifact_signature(self, reference_system):
        # a reflected root of the squared relation has residual exactly
        # -2*A*N with N = 2n + 1 + 2s: the tail sign was flipped once
        for (n, l), pair in REFERENCE_PAIRS.items():
            s = 0.5 * math.sqrt(
                origin_exponent_discriminant(reference_system, l))
            N = 2.0 * n + 1.0 + 2.0 * s
            for E in pair:
                if satisfies_quantization(reference_system, n, l, E):
                    continue
                res = quantization_residual(reference_system, n, l, E)
                A = coefficients_at(reference_system, l, E).A
                assert abs(res + 2.0 * A * N) <= 1e-9 * max(1.0, abs(res))

    def test_known_artifact_residual_value(self, reference_system):
        res = quantization_residual(reference_system, 0, 0,
                                    REFERENCE_PAIRS[(0, 0)][0])
        assert res == pytest.approx(-7.553367989832942, rel=1e-12)

    def test_complex_regime_raises(self):
        bad = PhysicalSystem(V0=0.3, beta=0.2, m0=1.0, m1=0.1)
        with pytest.raises(ComplexRegime, match="origin"):
            quantization_residual(bad, 0, 0, 0.5)
        ref = PhysicalSystem(V0=0.1, beta=0.2, m0=1.0)
        with pytest.raises(ComplexRegime, match="tail"):
            quantization_residual(ref, 0, 0, 1.5)

    def test_satisfies_rejects_window_edge_and_complex(self,
                                                       reference_system):
        m_inf = reference_system.asymptotic_mass
        assert not satisfies_quantization(reference_system, 0, 0, m_inf)
        assert not satisfies_quantization(reference_system, 0, 0, 1.5)


def _engine_pair(system, n, l, E):
    """(lambda, lambda_n) from the reduction engine on the branch whose
    factor exponents are the decaying pair (s + 1/2, A); None where the
    engine cannot build the branches or none matches."""
    coeffs = coefficients_at(system, l, E)
    problem = build_nu_problem(coeffs)
    s = 0.5 * math.sqrt(1.0 + 4.0 * coeffs.a3_sq)
    target = (s + 0.5, coeffs.A)
    try:
        candidates = all_candidates(problem)
    except (InvalidK, NoRealK):
        return None

    def err(cand):
        return max(abs(cand.xi_exponents[0] - target[0]),
                   abs(cand.xi_exponents[1] - target[1]))

    best = min(candidates, key=err)
    if err(best) > 1e-8 * max(1.0, abs(target[0]), abs(target[1])):
        return None
    return eigen_pair(problem, best, n)


def _lattice(system):
    """The default 2001-point scan lattice of energy_root_solve."""
    m_inf, eps = system.asymptotic_mass, 1e-9 * system.m0
    return np.linspace(-m_inf + eps, m_inf - eps, 2001)


def _scalar_roots(system, n, l):
    """Point-by-point scan and bisection over quantization_residual: the
    root solver's rule, one scalar residual call at a time."""
    def f(E):
        try:
            return quantization_residual(system, n, l, E)
        except ComplexRegime:
            return None

    grid = _lattice(system)
    vals = [f(float(E)) for E in grid]
    tol = 1e-12 * system.m0
    roots = []
    for i in range(grid.size - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa is None or fb is None:
            continue
        if fa == 0.0:
            roots.append(float(grid[i]))
            continue
        if fa * fb < 0.0:
            a, b = float(grid[i]), float(grid[i + 1])
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm is None:
                    break
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(roots)


class TestResidualAgainstEngine:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(V0=st.floats(0.0, 0.3), beta=st.floats(0.05, 0.6),
           m1=st.floats(0.0, 0.5), n=st.integers(0, 3), l=st.integers(0, 2),
           u=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_closed_form_residual_matches_engine(self, V0, beta, m1, n, l,
                                                 u):
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        assume(origin_exponent_discriminant(system, l) >= 0.0)
        E = u * system.asymptotic_mass
        pair = _engine_pair(system, n, l, E)
        assume(pair is not None)
        lam, lam_n = pair
        F = quantization_residual(system, n, l, E)
        assert abs(F - (lam - lam_n)) <= 1e-10 * max(1.0, abs(lam_n))

    # at some lattice energy of these systems a non-physical engine branch
    # is degenerate and pi_from_k raises InvalidK; the residual never
    # builds those branches
    @pytest.mark.parametrize("V0,beta,m1,l", [(0.1666, 0.2659, 0.2771, 0),
                                              (0.0795, 0.1591, 0.1464, 2)])
    def test_degenerate_engine_branch_does_not_break_solver(self, V0, beta,
                                                            m1, l):
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        raised = False
        for E in _lattice(system):
            try:
                all_candidates(build_nu_problem(
                    coefficients_at(system, l, float(E))))
            except InvalidK:
                raised = True
                break
        assert raised
        for n in range(4):
            roots = {r.branch: r.value
                     for r in energy_root_solve(system, n, l)}
            closed = {lv.branch: lv.value
                      for lv in energy_closed_form(system, n, l)
                      if not lv.unbound
                      and satisfies_quantization(system, n, l, lv.value)}
            assert roots.keys() == closed.keys()
            for branch, E in closed.items():
                assert abs(roots[branch] - E) <= 1e-9 * abs(E)

    @pytest.mark.parametrize("fixture", ["reference_system", "set_a",
                                         "set_b", "set_c"])
    def test_root_solve_matches_scalar_scan_bitwise(self, fixture, request):
        system = request.getfixturevalue(fixture)
        for n in range(3):
            for l in range(2):
                got = [r.value for r in energy_root_solve(system, n, l)]
                assert got == _scalar_roots(system, n, l), (n, l)


class TestMidpoint:
    def test_constant_mass_midpoint_is_half_strength(self, reference_system):
        for (n, l) in REFERENCE_PAIRS:
            assert level_midpoint(reference_system, n, l) \
                == pytest.approx(0.05, rel=1e-14)

    @pytest.mark.parametrize("fixture", ["reference_system", "set_a",
                                         "set_b", "set_c"])
    def test_midpoint_matches_root_mean(self, fixture, request):
        system = request.getfixturevalue(fixture)
        for n in (0, 1, 2):
            for l in (0, 1):
                lower, upper = energy_closed_form(system, n, l)
                mean = 0.5 * (lower.value + upper.value)
                assert level_midpoint(system, n, l) \
                    == pytest.approx(mean, rel=1e-12)


class TestRootSolve:
    @pytest.mark.parametrize("n,l", sorted(REFERENCE_TRUE))
    def test_reference_roots(self, reference_system, n, l):
        roots = energy_root_solve(reference_system, n, l)
        assert len(roots) == 1
        root = roots[0]
        assert root.value == pytest.approx(REFERENCE_TRUE[(n, l)], abs=1e-9)
        assert root.method == "quantization_root"
        assert root.branch == "upper"
        assert root.unbound is False

    @pytest.mark.parametrize("n,l", REFERENCE_ALL_SPURIOUS)
    def test_reflection_only_pairs_give_no_roots(self, reference_system,
                                                 n, l):
        assert energy_root_solve(reference_system, n, l) == []

    def test_varying_mass_roots(self, set_a, set_b, set_c):
        for system, table in [(set_a, SET_A_TRUE), (set_b, SET_B_TRUE),
                              (set_c, SET_C_TRUE)]:
            for (n, l), want in table.items():
                roots = energy_root_solve(system, n, l)
                assert len(roots) == 1, (n, l)
                assert roots[0].value == pytest.approx(want, abs=1e-9)

    def test_reflected_tail_zone_regression(self, reference_system):
        # n=0, l=1 sits at tail exponent A < 1/2 where a branch-selection
        # tie once pulled the solver onto a spurious crossing
        roots = energy_root_solve(reference_system, 0, 1)
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(REFERENCE_TRUE[(0, 1)],
                                               abs=1e-10)

    def test_window_restriction(self, reference_system):
        E0 = REFERENCE_TRUE[(0, 0)]
        roots = energy_root_solve(reference_system, 0, 0,
                                  window=(E0 - 0.01, E0 + 0.01))
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(E0, abs=1e-9)
        empty = energy_root_solve(reference_system, 0, 0,
                                  window=(-0.5, 0.0))
        assert empty == []

    def test_over_attractive_origin_raises(self):
        bad = PhysicalSystem(V0=0.3, beta=0.2, m0=1.0, m1=0.1)
        with pytest.raises(InvalidRegime, match="origin"):
            energy_root_solve(bad, 0, 0)

    def test_window_at_the_binding_edges(self, reference_system, caplog):
        # the ends at +-m_inf may round to an undefined residual; they
        # neither bracket nor count as zeros, and nothing is logged
        m_inf = reference_system.asymptotic_mass
        (want,) = energy_root_solve(reference_system, 0, 0)
        with caplog.at_level(logging.WARNING,
                             logger="kghulthen.hulthen_analytic"):
            (got,) = energy_root_solve(reference_system, 0, 0,
                                       window=(-m_inf, m_inf))
        assert got.value == pytest.approx(want.value, abs=1e-11)
        assert not caplog.records

    def test_window_validation(self, reference_system):
        with pytest.raises(ValueError, match="window"):
            energy_root_solve(reference_system, 0, 0, window=(-2.0, 2.0))
        with pytest.raises(ValueError, match="window"):
            energy_root_solve(reference_system, 0, 0, window=(0.5, 0.5))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(V0=st.floats(0.0, 0.3), beta=st.floats(0.05, 0.6),
           m1=st.floats(0.0, 0.5), n=st.integers(0, 3), l=st.integers(0, 2))
    def test_regular_origin_logs_nothing(self, caplog, V0, beta, m1, n, l):
        # with a real origin exponent the residual is defined on the whole
        # default window: no lattice point is skipped
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        assume(origin_exponent_discriminant(system, l) >= 0.0)
        caplog.clear()
        with caplog.at_level(logging.WARNING,
                             logger="kghulthen.hulthen_analytic"):
            energy_root_solve(system, n, l)
        assert not caplog.records


class TestBranchLabels:
    def test_pair_is_labelled_by_energy_order(self, reference_system, caplog):
        with caplog.at_level(logging.WARNING,
                             logger="kghulthen.hulthen_analytic"):
            assert branch_labels(reference_system, 0, 0, [-0.9, -0.8]) \
                == ["lower", "upper"]
        assert not caplog.records

    def test_single_energy_takes_nearest_closed_form_branch(
            self, reference_system):
        lower, upper = energy_closed_form(reference_system, 1, 0)
        assert branch_labels(reference_system, 1, 0,
                             [lower.value + 1e-3]) == ["lower"]
        assert branch_labels(reference_system, 1, 0,
                             [upper.value - 1e-3]) == ["upper"]
        assert branch_labels(reference_system, 1, 0, []) == []

    def test_more_than_two_energies_warn_once(self, reference_system,
                                              caplog):
        lower, upper = energy_closed_form(reference_system, 1, 0)
        energies = [lower.value, 0.75 * lower.value + 0.25 * upper.value,
                    upper.value]
        with caplog.at_level(logging.WARNING,
                             logger="kghulthen.hulthen_analytic"):
            labels = branch_labels(reference_system, 1, 0, energies)
        assert labels == ["lower", "lower", "upper"]
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert all(repr(E) in message for E in energies)


def _bare_norm_mp(system, n, l, E, dps=50):
    """High-precision norm integral of the un-normalized construction."""
    co = coefficients_at(system, l, E)
    s = 0.5 * math.sqrt(origin_exponent_discriminant(system, l))
    a, b = mpmath.mpf(2.0 * s), mpmath.mpf(2.0 * co.A)

    def jac(x):
        p_prev, p = mpmath.mpf(1), (a + 1) + (a + b + 2) * (x - 1) / 2
        if n == 0:
            return p_prev
        for k in range(2, n + 1):
            c = 2 * k + a + b
            a1 = 2 * k * (k + a + b) * (c - 2)
            a2 = (c - 1) * (a * a - b * b)
            a3 = (c - 1) * c * (c - 2)
            a4 = 2 * (k + a - 1) * (k + b - 1) * c
            p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
        return p

    with mpmath.workdps(dps):
        integrand = lambda z: z ** (2 * s + 1) * (1 - z) ** (b - 1) \
            * jac(1 - 2 * z) ** 2
        return float(mpmath.quad(integrand, [0, mpmath.mpf(1) / 2, 1])
                     / system.beta)


class TestWavefunction:
    @pytest.mark.parametrize("n,l", sorted(REFERENCE_TRUE))
    def test_reference_states(self, reference_system, n, l):
        E = REFERENCE_TRUE[(n, l)]
        wf = wavefunction(reference_system, n, l, E)
        assert wf.node_count == n
        assert wf.norm == pytest.approx(1.0, abs=1e-12)
        co = coefficients_at(reference_system, l, E)
        s = 0.5 * math.sqrt(
            origin_exponent_discriminant(reference_system, l))
        assert wf.exponents == pytest.approx((s + 0.5, co.A), rel=1e-12)
        assert wf.jacobi_params.alpha == pytest.approx(2.0 * s, rel=1e-12)
        assert wf.jacobi_params.beta == pytest.approx(2.0 * co.A, rel=1e-12)
        assert wf.jacobi_params.n == n
        assert wf.values[0] >= 0.0

    @pytest.mark.parametrize("n,l", sorted(REFERENCE_TRUE))
    def test_amplitude_against_high_precision_integral(self,
                                                       reference_system,
                                                       n, l):
        E = REFERENCE_TRUE[(n, l)]
        wf = wavefunction(reference_system, n, l, E)
        want = _bare_norm_mp(reference_system, n, l, E)
        assert wf.amplitude ** 2 == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n,l", sorted(REFERENCE_TRUE))
    def test_solves_radial_equation(self, reference_system, n, l):
        res = wavefunction_ode_residual(reference_system, n, l,
                                        REFERENCE_TRUE[(n, l)])
        assert res < 1e-6

    def test_varying_mass_state(self, set_b):
        E = SET_B_TRUE[(1, 1)]
        wf = wavefunction(set_b, 1, 1, E)
        assert wf.node_count == 1
        assert wf.norm == pytest.approx(1.0, abs=1e-12)
        assert wavefunction_ode_residual(set_b, 1, 1, E) < 1e-6
        assert wf.amplitude ** 2 == pytest.approx(
            _bare_norm_mp(set_b, 1, 1, E), rel=1e-11)

    @pytest.mark.parametrize("n,l", [(0, 0), (1, 1)])
    def test_norm_beyond_the_weight_mass_overflow(self, n, l):
        # 2A = 1414 for this ground state, where the Gauss-Jacobi weight
        # mass 2**(2s+2A+1) * B(2A, 2s+2) overflows a double; the norm is
        # B(2A, 2s+2) times a sum over the rule's normalized weights
        system = PhysicalSystem(V0=0.0005, beta=0.001, m0=1.0)
        (level,) = energy_root_solve(system, n, l)
        wf = wavefunction(system, n, l, level.value)
        assert wf.node_count == n
        assert wf.norm == pytest.approx(1.0, abs=1e-11)
        assert wf.amplitude ** 2 == pytest.approx(
            _bare_norm_mp(system, n, l, level.value), rel=1e-11)

    def test_amplitude_restores_bare_construction(self, reference_system):
        from kghulthen import JacobiParams, jacobi_eval
        E = REFERENCE_TRUE[(1, 0)]
        wf = wavefunction(reference_system, 1, 0, E)
        r = wf.grid.radii()
        i = len(r) // 3
        z = float(reference_system.z_at(r[i]))
        s_half, A = wf.exponents
        bare = z ** s_half * (1.0 - z) ** A \
            * jacobi_eval(wf.jacobi_params, 1.0 - 2.0 * z)
        assert wf.amplitude * wf.values[i] == pytest.approx(bare, rel=1e-12)

    def test_custom_grid_is_respected(self, reference_system):
        grid = RadialGrid(r_min=0.01, r_max=60.0, points=500)
        wf = wavefunction(reference_system, 0, 0, REFERENCE_TRUE[(0, 0)],
                          grid=grid)
        assert wf.grid is grid
        assert wf.values.shape == (500,)
        assert wf.node_count == 0

    def test_rejects_non_eigenvalue(self, reference_system):
        with pytest.raises(ValueError, match="quantization"):
            wavefunction(reference_system, 0, 0, 0.5)

    def test_rejects_window_edge_and_beyond(self, reference_system):
        m_inf = reference_system.asymptotic_mass
        with pytest.raises(NonNormalizable, match="tail"):
            wavefunction(reference_system, 0, 0, m_inf)
        with pytest.raises(NonNormalizable, match="tail"):
            wavefunction(reference_system, 0, 0, 1.5)
