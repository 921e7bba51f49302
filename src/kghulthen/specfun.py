"""Special functions and quadrature used by the analytic solver.

Jacobi polynomials are evaluated by the standard three-term recurrence,
which is numerically stable for the degrees used here (well beyond n = 100).
Two integration schemes are provided:

* Gauss-Jacobi (``gauss_jacobi_rule``) for integrands that are a Jacobi
  weight times a polynomial — exact up to rounding,
* a double-exponential rule (``endpoint_power_integral``) for integrals
  of z**p * (1-z)**q * f(z) over (0, 1) with any integrable endpoint
  powers p, q > -1, evaluated in log space so near-singular endpoints
  neither overflow nor lose accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DE_STEP = 1.0 / 32.0       # tanh-sinh step in the rule's variable
_DE_HALF_RANGE = 10.0       # the rule's variable runs over [-10, 10]


@dataclass(frozen=True)
class JacobiParams:
    """Degree and exponent pair (alpha, beta) of a Jacobi polynomial."""

    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 0):
            raise ValueError("polynomial degree n must be a non-negative integer")


def jacobi_eval(params: JacobiParams, x):
    """Evaluate the Jacobi polynomial P_n^(alpha,beta) at x (scalar or array).

    Uses the three-term recurrence in the degree.  At x = 1 the value is the
    binomial coefficient C(n + alpha, n), which the tests use as an anchor.
    """
    a, b, n = params.alpha, params.beta, params.n
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return float(p_prev) if p_prev.ndim == 0 else p_prev
    p = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        a1 = 2.0 * k * (k + a + b) * (c - 2.0)
        a2 = (c - 1.0) * (a * a - b * b)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return float(p) if p.ndim == 0 else p


def jacobi_derivative(params: JacobiParams, x):
    """First derivative of P_n^(alpha,beta), via the degree-lowering identity

        d/dx P_n^(a,b)(x) = (n + a + b + 1)/2 * P_{n-1}^(a+1,b+1)(x).
    """
    a, b, n = params.alpha, params.beta, params.n
    if n == 0:
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x)
        return float(z) if z.ndim == 0 else z
    lowered = JacobiParams(alpha=a + 1.0, beta=b + 1.0, n=n - 1)
    return 0.5 * (n + a + b + 1.0) * jacobi_eval(lowered, x)


def gauss_jacobi_rule(alpha: float, beta: float, points: int):
    """Nodes and weights for the weight (1-x)**alpha * (1+x)**beta on [-1, 1].

    Requires alpha, beta > -1.  Built by the Golub-Welsch method: the nodes
    are the eigenvalues of the symmetric tridiagonal recurrence matrix, the
    weights come from the first eigenvector components scaled by the total
    weight mass 2**(alpha+beta+1) * B(alpha+1, beta+1).  A ``points``-node
    rule integrates weight * polynomial exactly through degree
    2 * points - 1.
    """
    nodes, shares = _golub_welsch(alpha, beta, points)
    apb = alpha + beta
    mass = math.exp((apb + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
                    + math.lgamma(beta + 1.0) - math.lgamma(apb + 2.0))
    return nodes, mass * shares


def _golub_welsch(alpha: float, beta: float, points: int):
    """Nodes and normalized weights (summing to one) of the Gauss-Jacobi
    rule: the eigenvalues of the recurrence matrix and the squared first
    components of its eigenvectors.  Free of the weight mass, so it holds
    for exponents whose mass 2**(alpha+beta+1) * B(...) overflows."""
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(
            f"weight exponents must exceed -1, got ({alpha!r}, {beta!r})")
    if points < 1:
        raise ValueError("need at least one quadrature point")
    m = int(points)
    apb = alpha + beta
    diag = np.empty(m)
    diag[0] = (beta - alpha) / (apb + 2.0)
    k = np.arange(1, m, dtype=float)
    c = 2.0 * k + apb
    diag[1:] = (beta * beta - alpha * alpha) / (c * (c + 2.0))
    off2 = 4.0 * k * (k + alpha) * (k + beta) / (c * c * (c + 1.0))
    # times (k + apb)/(c - 1), which is 1 at k = 1, where both vanish if
    # apb = -1
    off2[1:] *= (k[1:] + apb) / (c[1:] - 1.0)
    off = np.sqrt(off2)
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, vecs[0, :] ** 2


def endpoint_power_integral(p: float, q: float, f) -> float:
    """Integral of z**p * (1-z)**q * f(z) over (0, 1) for p, q > -1.

    Double-exponential (tanh-sinh) rule with the endpoint powers folded
    into log-space weights, so integrable singularities at either end are
    handled without overflow; ``f`` must accept a numpy array of z values
    and be bounded on [0, 1].  Accuracy is near machine precision for
    p, q bounded away from -1 and degrades gracefully as q -> -1 (tail
    truncation ~ exp(-4 * (1+q) * sinh(_DE_HALF_RANGE) * pi/4)).
    """
    if not (p > -1.0 and q > -1.0):
        raise ValueError(
            f"endpoint powers must exceed -1, got ({p!r}, {q!r})")
    steps = int(math.ceil(_DE_HALF_RANGE / _DE_STEP))
    kh = _DE_STEP * np.arange(-steps, steps + 1)
    u = 0.5 * math.pi * np.sinh(kh)
    # z = 1/(1 + e^(-2u)), 1-z = 1/(1 + e^(2u)); logs via log1p of e^(-2|u|)
    common = np.log1p(np.exp(-2.0 * np.abs(u)))
    ln_z = np.where(u >= 0.0, -common, 2.0 * u - common)
    ln_omz = np.where(u <= 0.0, -common, -2.0 * u - common)
    # dz/du = sech(u)^2 / 2; log cosh(u) = |u| + log1p(e^(-2|u|)) - log 2
    ln_sech2 = -2.0 * (np.abs(u) + common - math.log(2.0))
    ln_w = math.log(0.25 * math.pi * _DE_STEP) + np.log(np.cosh(kh)) + ln_sech2
    z = np.exp(ln_z)
    expo = np.clip(ln_w + p * ln_z + q * ln_omz, -745.0, 700.0)
    vals = np.asarray(f(z), dtype=float)
    return float(np.sum(np.exp(expo) * vals))
