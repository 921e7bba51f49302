"""Reduction engine: closure constants, branch building, selection rules."""

import math

import numpy as np
import pytest

from kghulthen import (JacobiParams, NUProblem, all_candidates,
                       build_nu_problem, closure_functions, coefficients_at,
                       eigen_pair, jacobi_derivative, jacobi_eval,
                       k_candidates, pi_from_k, select_candidate)
from kghulthen.errors import InvalidK, NoAdmissibleBranch, NoRealK

SQRT2 = math.sqrt(2.0)


class TestProblemValidation:
    def test_sigma_is_pinned(self):
        with pytest.raises(ValueError, match="sigma"):
            NUProblem(sigma=(0.0, 1.0, 1.0))

    def test_coefficient_lengths(self):
        with pytest.raises(ValueError):
            NUProblem(tau_tilde=(0.0, -1.0, 0.0))
        with pytest.raises(ValueError):
            NUProblem(sigma_tilde=(0.0, 0.0))


class TestClosureConstants:
    def test_all_zero_forcing_gives_double_root_at_zero(self):
        ks = k_candidates(NUProblem())
        assert len(ks) == 2
        assert ks[0] == pytest.approx(0.0, abs=1e-15)
        assert ks[1] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_roots(self):
        # sigma_tilde = -z - z^2 makes the closure quadratic k^2 + 2k - 1
        ks = k_candidates(NUProblem(sigma_tilde=(0.0, -1.0, -1.0)))
        assert ks[0] == pytest.approx(-1.0 - SQRT2, rel=1e-14)
        assert ks[1] == pytest.approx(-1.0 + SQRT2, rel=1e-14)

    def test_no_real_closure(self):
        with pytest.raises(NoRealK, match="discriminant"):
            k_candidates(NUProblem(sigma_tilde=(0.0, 0.0, 1.0)))


class TestBranchBuilding:
    def test_all_zero_branches(self):
        prob = NUProblem()
        plus = pi_from_k(prob, 0.0, "plus")
        minus = pi_from_k(prob, 0.0, "minus")
        assert plus.pi == pytest.approx((0.0, 0.0))
        assert minus.pi == pytest.approx((1.0, -1.0))
        assert plus.tau == pytest.approx((0.0, -1.0))
        assert minus.tau == pytest.approx((2.0, -3.0))
        assert plus.weight_exponents == pytest.approx((-1.0, 0.0))
        assert minus.weight_exponents == pytest.approx((1.0, 0.0))
        assert plus.xi_exponents == pytest.approx((0.0, 0.0))
        assert minus.xi_exponents == pytest.approx((1.0, 0.0))

    def test_wrong_k_is_rejected(self):
        prob = NUProblem(sigma_tilde=(0.0, -1.0, -1.0))
        with pytest.raises(InvalidK, match="square"):
            pi_from_k(prob, 0.0, "plus")

    def test_negative_definite_radicand_is_rejected(self):
        # radicand == -(z-1)^2: a perfect square of the wrong sign
        prob = NUProblem(sigma_tilde=(1.25, -2.5, 1.25))
        with pytest.raises(InvalidK, match="negative leading"):
            pi_from_k(prob, 0.0, "minus")

    def test_constant_square_root_branch(self):
        # radicand == 1/4 for k = 0: w is the constant 1/2
        prob = NUProblem(sigma_tilde=(0.0, -0.5, 0.25))
        assert k_candidates(prob) == pytest.approx([-1.0, 0.0])
        plus = pi_from_k(prob, 0.0, "plus")
        minus = pi_from_k(prob, 0.0, "minus")
        assert plus.pi == pytest.approx((1.0, -0.5))
        assert minus.pi == pytest.approx((0.0, -0.5))

    def test_residual_linear_radicand_is_rejected(self):
        # c2 = 0 but c1 != 0 below the discriminant gate: not a square
        prob = NUProblem(sigma_tilde=(0.0, -0.5 - 1e-6, 0.25))
        with pytest.raises(InvalidK, match="linear"):
            pi_from_k(prob, 0.0, "plus")

    def test_sign_argument_validated(self):
        with pytest.raises(ValueError, match="sign"):
            pi_from_k(NUProblem(), 0.0, "both")

    def test_four_candidates_in_order(self):
        cands = all_candidates(NUProblem(sigma_tilde=(0.0, -1.0, -1.0)))
        assert len(cands) == 4
        assert [c.sign for c in cands] == ["plus", "minus", "plus", "minus"]
        assert cands[0].k <= cands[2].k

    @pytest.mark.parametrize("seed", range(25))
    def test_radicand_is_square_at_every_closure_constant(self, seed):
        rng = np.random.default_rng(seed)
        u = tuple(rng.uniform(-4.0, 4.0, size=3))
        prob = NUProblem(sigma_tilde=u)
        try:
            ks = k_candidates(prob)
        except NoRealK:
            return
        d0, d1 = (1.0 - 0.0) / 2.0, (-2.0 + 1.0) / 2.0
        for k in ks:
            c0 = d0 * d0 - u[0]
            c1 = 2.0 * d0 * d1 - u[1] + k
            c2 = d1 * d1 - u[2] - k
            scale = max(1.0, abs(c0), abs(c1), abs(c2))
            assert abs(c1 * c1 - 4.0 * c0 * c2) <= 1e-10 * scale * scale


class TestSelection:
    def test_default_picks_decreasing_integrable_branch(self):
        prob = NUProblem()
        sel = select_candidate(prob, all_candidates(prob))
        assert sel.sign == "minus"
        assert sel.tau == pytest.approx((2.0, -3.0))

    def test_default_rejects_empty_pool(self):
        prob = NUProblem()
        inadmissible = [c for c in all_candidates(prob) if c.sign == "plus"]
        with pytest.raises(NoAdmissibleBranch):
            select_candidate(prob, inadmissible)

    def test_default_tie_break_is_stable_in_reflected_tail_zone(self,
                                                                reference_system):
        # When the tail exponent A drops below 1/2 the branch with a growing
        # (1-z)**(-A) factor also has an integrable weight and an *identical*
        # leading sort key up to rounding noise; selection must still return
        # the decaying branch deterministically.
        coeffs = coefficients_at(reference_system, 1, 0.9982)
        assert coeffs.A is not None and 0.0 < coeffs.A < 0.5
        prob = build_nu_problem(coeffs)
        sel = select_candidate(prob, all_candidates(prob))
        s = 0.5 * math.sqrt(1.0 + 4.0 * coeffs.a3_sq)
        assert sel.xi_exponents[0] == pytest.approx(s + 0.5, rel=1e-12)
        assert sel.xi_exponents[1] == pytest.approx(coeffs.A, rel=1e-12)
        assert sel.tau_slope == pytest.approx(-2.0 * (coeffs.A + s + 1.0),
                                              rel=1e-12)
        # and it must beat the reflected branch even when candidate order
        # is shuffled
        for rolled in range(4):
            cands = all_candidates(prob)
            cands = cands[rolled:] + cands[:rolled]
            again = select_candidate(prob, cands)
            assert again.xi_exponents[1] == pytest.approx(coeffs.A, rel=1e-12)

    def test_unknown_policy(self):
        prob = NUProblem()
        with pytest.raises(ValueError, match="policy"):
            select_candidate(prob, all_candidates(prob), policy="best")


class TestSpectralData:
    def test_eigen_pair_values(self):
        prob = NUProblem()
        minus = pi_from_k(prob, 0.0, "minus")
        for n in range(4):
            lam, lam_n = eigen_pair(prob, minus, n)
            assert lam == pytest.approx(-1.0)               # k + pi'
            assert lam_n == pytest.approx(3 * n + n * (n - 1))
        with pytest.raises(ValueError):
            eigen_pair(prob, minus, -1)

    def test_closure_functions_flags_integrability(self):
        prob = NUProblem()
        plus = closure_functions(prob, pi_from_k(prob, 0.0, "plus"))
        minus = closure_functions(prob, pi_from_k(prob, 0.0, "minus"))
        assert plus.normalizable is False
        assert minus.normalizable is True
        assert (minus.jacobi_alpha, minus.jacobi_beta) == pytest.approx(
            (1.0, 0.0))
        assert minus.lam == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", range(5))
    def test_polynomial_solves_reduced_equation(self, n):
        # y = P_n^(alpha,beta)(1-2z) must satisfy
        #     sigma y'' + tau y' + lam_n y = 0
        # on the selected branch when lam is pinned to the degree-n value.
        prob = NUProblem(sigma_tilde=(0.0, -1.0, -1.0))
        cand = select_candidate(prob, all_candidates(prob))
        sol = closure_functions(prob, cand)
        _, lam_n = eigen_pair(prob, cand, n)
        params = JacobiParams(alpha=sol.jacobi_alpha, beta=sol.jacobi_beta,
                              n=n)
        z = np.linspace(0.05, 0.95, 19)
        x = 1.0 - 2.0 * z
        y = jacobi_eval(params, x)
        dy = -2.0 * jacobi_derivative(params, x)
        if n >= 2:
            raised = JacobiParams(alpha=params.alpha + 1.0,
                                  beta=params.beta + 1.0, n=n - 1)
            d2y = 4.0 * 0.5 * (n + params.alpha + params.beta + 1.0) \
                * jacobi_derivative(raised, x)
        else:
            d2y = np.zeros_like(z)
        sigma = z * (1.0 - z)
        tau = cand.tau[0] + cand.tau[1] * z
        resid = sigma * d2y + tau * dy + lam_n * y
        scale = np.max(np.abs(y)) * max(1.0, abs(lam_n))
        assert np.max(np.abs(resid)) <= 1e-10 * scale
