"""Special functions and quadrature: Jacobi polynomials, two rules."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import sympy

from kghulthen import JacobiParams, jacobi_derivative, jacobi_eval
from kghulthen.specfun import (_golub_welsch, endpoint_power_integral,
                               gauss_jacobi_rule)


def _beta_fn(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _sympy_jacobi(n, a, b, x):
    """Exact rational evaluation, returned as float."""
    expr = sympy.jacobi(n, sympy.Rational(a), sympy.Rational(b),
                        sympy.Rational(x))
    return float(sympy.nsimplify(expr).evalf(40))


class TestJacobiEval:
    def test_degree_zero_and_one_explicit(self):
        a, b = 0.31, 1.7
        x = 0.42
        assert jacobi_eval(JacobiParams(alpha=a, beta=b, n=0), x) == 1.0
        want = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
        got = jacobi_eval(JacobiParams(alpha=a, beta=b, n=1), x)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("x", [Fraction(-4, 5), Fraction(0),
                                   Fraction(2, 5), Fraction(99, 100)])
    def test_matches_exact_rational_reference(self, n, x):
        a, b = Fraction(31, 100), Fraction(17, 10)
        got = jacobi_eval(JacobiParams(alpha=float(a), beta=float(b), n=n),
                          float(x))
        want = _sympy_jacobi(n, a, b, x)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("n", range(6))
    def test_endpoint_anchor_is_binomial(self, n):
        # P_n^{(a,b)}(1) = C(n+a, n)
        got = jacobi_eval(JacobiParams(alpha=2.0, beta=3.0, n=n), 1.0)
        assert got == pytest.approx(math.comb(n + 2, n), rel=1e-14)

    @pytest.mark.parametrize("n", range(6))
    def test_reflection_swaps_exponents(self, n):
        a, b = 0.8, 2.3
        x = np.linspace(-0.9, 0.9, 7)
        lhs = jacobi_eval(JacobiParams(alpha=a, beta=b, n=n), -x)
        rhs = (-1.0) ** n * jacobi_eval(JacobiParams(alpha=b, beta=a, n=n), x)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-14)

    def test_accepts_arrays(self):
        params = JacobiParams(alpha=0.5, beta=0.5, n=3)
        x = np.array([-0.5, 0.0, 0.5])
        vals = jacobi_eval(params, x)
        assert isinstance(vals, np.ndarray) and vals.shape == (3,)
        for xi, vi in zip(x, vals):
            assert jacobi_eval(params, float(xi)) == vi

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            JacobiParams(alpha=0.0, beta=0.0, n=-1)
        with pytest.raises(ValueError):
            JacobiParams(alpha=0.0, beta=0.0, n=1.5)


class TestJacobiDerivative:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_exact_rational_reference(self, n):
        a, b = Fraction(1, 2), Fraction(3, 2)
        xs = sympy.Symbol("xs")
        expr = sympy.diff(sympy.jacobi(n, sympy.Rational(a),
                                       sympy.Rational(b), xs), xs)
        for x in (Fraction(-1, 2), Fraction(1, 4), Fraction(9, 10)):
            want = float(expr.subs(xs, sympy.Rational(x)).evalf(40))
            got = jacobi_derivative(
                JacobiParams(alpha=float(a), beta=float(b), n=n), float(x))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_matches_finite_difference(self):
        params = JacobiParams(alpha=0.37, beta=2.9, n=4)
        x, step = 0.3, 1e-6
        fd = (jacobi_eval(params, x + step)
              - jacobi_eval(params, x - step)) / (2.0 * step)
        assert jacobi_derivative(params, x) == pytest.approx(fd, rel=1e-8)

    def test_degree_zero_derivative_is_zero(self):
        params = JacobiParams(alpha=1.2, beta=0.4, n=0)
        assert jacobi_derivative(params, 0.7) == 0.0
        out = jacobi_derivative(params, np.array([0.1, 0.2]))
        assert np.all(out == 0.0)


class TestGaussJacobiRule:
    def test_matches_scipy_reference(self):
        a, b, m = 0.5, 1.5, 7
        nodes, weights = gauss_jacobi_rule(a, b, m)
        ref_n, ref_w = scipy.special.roots_jacobi(m, a, b)
        order = np.argsort(nodes)
        assert np.allclose(nodes[order], ref_n, rtol=0, atol=1e-12)
        assert np.allclose(weights[order], ref_w, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.4, -0.7), (-0.99, 5.0)])
    def test_total_mass(self, a, b):
        nodes, weights = gauss_jacobi_rule(a, b, 6)
        mass = 2.0 ** (a + b + 1.0) * _beta_fn(a + 1.0, b + 1.0)
        assert float(np.sum(weights)) == pytest.approx(mass, rel=1e-13)

    def test_monomial_moments(self):
        # exact through degree 2m-1 against high-precision reference
        import mpmath
        a, b, m = -0.437, 2.63, 5
        nodes, weights = gauss_jacobi_rule(a, b, m)
        with mpmath.workdps(40):
            for k in range(2 * m):
                want = float(mpmath.quad(
                    lambda x: (1 - x) ** a * (1 + x) ** b * x ** k,
                    [-1, 1]))
                got = float(np.sum(weights * nodes ** k))
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13), k

    def test_orthogonality_of_matching_jacobi_family(self):
        a, b = 1.0, 2.0
        nodes, weights = gauss_jacobi_rule(a, b, 8)
        polys = [jacobi_eval(JacobiParams(alpha=a, beta=b, n=n), nodes)
                 for n in range(5)]
        for i in range(5):
            for j in range(5):
                inner = float(np.sum(weights * polys[i] * polys[j]))
                if i == j:
                    assert inner > 0.0
                else:
                    assert abs(inner) < 1e-13

    def test_normalized_weights_carry_the_rule(self):
        # the rule is its weight mass times the normalized weights, and
        # those stay finite where the mass overflows
        nodes, weights = gauss_jacobi_rule(2.4, 0.3, 6)
        same, shares = _golub_welsch(2.4, 0.3, 6)
        mass = 2.0 ** 3.7 * _beta_fn(3.4, 1.3)
        assert np.array_equal(nodes, same)
        assert np.allclose(weights, mass * shares, rtol=1e-13, atol=0.0)
        with pytest.raises(OverflowError):
            gauss_jacobi_rule(1413.0, 2.0, 4)
        nodes, shares = _golub_welsch(1413.0, 2.0, 4)
        assert float(np.sum(shares)) == pytest.approx(1.0, rel=1e-13)
        assert np.all(np.abs(nodes) < 1.0)

    def test_single_point_rule(self):
        nodes, weights = gauss_jacobi_rule(0.0, 0.0, 1)
        assert nodes.shape == (1,) and weights.shape == (1,)
        assert float(nodes[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(weights[0]) == pytest.approx(2.0, rel=1e-15)

    def test_rejects_out_of_range_exponents(self):
        with pytest.raises(ValueError, match="-1"):
            gauss_jacobi_rule(-1.0, 0.0, 4)
        with pytest.raises(ValueError, match="-1"):
            gauss_jacobi_rule(0.0, -1.2, 4)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0.0, 0.0, 0)


class TestEndpointPowerIntegral:
    @pytest.mark.parametrize("p,q", [(0.0, 0.0), (1.0, 2.0), (-0.5, -0.5),
                                     (-0.9, 3.7), (2.2, -0.95)])
    def test_unit_factor_gives_beta_function(self, p, q):
        got = endpoint_power_integral(p, q, lambda z: np.ones_like(z))
        want = _beta_fn(p + 1.0, q + 1.0)
        assert got == pytest.approx(want, rel=5e-13)

    def test_polynomial_factor(self):
        # z^p (1-z)^q * z  ==  B(p+2, q+1)
        p, q = -0.3, 1.25
        got = endpoint_power_integral(p, q, lambda z: z)
        assert got == pytest.approx(_beta_fn(p + 2.0, q + 1.0), rel=5e-13)

    def test_smooth_factor_against_reference(self):
        import mpmath
        p, q = -0.6, 0.8
        got = endpoint_power_integral(p, q, lambda z: np.cos(3.0 * z))
        with mpmath.workdps(40):
            want = float(mpmath.quad(
                lambda z: z ** p * (1 - z) ** q * mpmath.cos(3 * z), [0, 1]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_out_of_range_exponents(self):
        with pytest.raises(ValueError, match="-1"):
            endpoint_power_integral(-1.0, 0.0, lambda z: z)
        with pytest.raises(ValueError, match="-1"):
            endpoint_power_integral(0.0, -1.5, lambda z: z)

    def test_agrees_with_gauss_jacobi_on_shared_domain(self):
        # same integral two ways: map [-1,1] -> [0,1]
        p, q = 1.37, -0.42
        poly = JacobiParams(alpha=q, beta=p, n=3)
        de = endpoint_power_integral(p, q,
                                     lambda z: jacobi_eval(poly, 1.0 - 2.0 * z) ** 2)
        nodes, weights = gauss_jacobi_rule(q, p, 8)
        gj = 2.0 ** (-(p + q + 1.0)) * float(
            np.sum(weights * jacobi_eval(poly, -nodes) ** 2))
        assert de == pytest.approx(gj, rel=1e-12)
