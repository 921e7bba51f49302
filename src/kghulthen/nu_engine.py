"""Nikiforov-Uvarov reduction engine for hypergeometric-type radial problems.

The engine handles equations of the form

    u''(z) + (tau_tilde(z) / sigma(z)) u'(z) + (sigma_tilde(z) / sigma(z)**2) u(z) = 0

with sigma(z) = z*(1-z) and tau_tilde(z) = -z, both fixed by the chart
z = 1 - exp(-beta*r), and deg(sigma_tilde) <= 2.  A linear substitution
u = xi(z) * y(z) turns this into the self-adjoint hypergeometric equation
sigma*y'' + tau*y' + lambda*y = 0 whose polynomial solutions are Jacobi
polynomials.  The reduction hinges on a constant k chosen so that the
radicand

    ((sigma' - tau_tilde)/2)**2 - sigma_tilde + k*sigma

becomes a perfect square; each real k admits two square-root signs, giving
up to four candidate branches.  Bound states need the branch whose linear
coefficient tau is decreasing and whose weight function is integrable.

Polynomial coefficient lists are ascending: (c0, c1, c2) means
c0 + c1*z + c2*z**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidK, NoAdmissibleBranch, NoRealK

SIGMA = (0.0, 1.0, -1.0)           # z*(1-z)
TAU_TILDE = (0.0, -1.0)            # -z
# (sigma'(z) - tau_tilde(z)) / 2 as (d0, d1)
_HALF_DIFF = ((SIGMA[1] - TAU_TILDE[0]) / 2.0,
              (2.0 * SIGMA[2] - TAU_TILDE[1]) / 2.0)
_TOL = 1e-10


@dataclass(frozen=True)
class NUProblem:
    """Coefficients of one hypergeometric-type equation.

    ``sigma_tilde`` is (u0, u1, u2) for u0 + u1*z + u2*z**2; sigma and
    tau_tilde are fixed by the z chart (``SIGMA``, ``TAU_TILDE``).
    """

    sigma_tilde: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.sigma_tilde) != 3:
            raise ValueError("sigma_tilde must have exactly three coefficients")
        object.__setattr__(self, "sigma_tilde",
                           tuple(float(c) for c in self.sigma_tilde))


@dataclass(frozen=True)
class NUCandidate:
    """One admissible-or-not reduction branch.

    Attributes
    ----------
    k : float
        Closure constant that made the radicand a perfect square.
    sign : str
        "plus" or "minus": the square root's sign in pi = d(z) +/- w(z),
        where w carries a non-negative leading coefficient.
    pi : tuple
        Linear polynomial pi(z) as (p0, p1).
    tau : tuple
        tau(z) = tau_tilde(z) + 2*pi(z), as (t0, t1).
    tau_slope : float
        tau'(z) = t1; bound-state branches need this negative.
    weight_exponents : tuple
        (p, q) with weight rho(z) = z**p * (1-z)**q.
    xi_exponents : tuple
        (e1, e2) with the substitution factor xi(z) = z**e1 * (1-z)**e2.
    """

    k: float
    sign: str
    pi: tuple
    tau: tuple
    tau_slope: float
    weight_exponents: tuple
    xi_exponents: tuple


@dataclass(frozen=True)
class NUSolution:
    """Spectral data of a selected branch: eigenvalue coefficient and the
    Jacobi exponents of the polynomial part."""

    candidate: NUCandidate
    lam: float
    jacobi_alpha: float
    jacobi_beta: float
    normalizable: bool


def _radicand_coeffs(problem: NUProblem, k: float):
    """Quadratic radicand d(z)**2 - sigma_tilde + k*sigma as (c0, c1, c2)."""
    d0, d1 = _HALF_DIFF
    u0, u1, u2 = problem.sigma_tilde
    return (d0 * d0 - u0,
            2.0 * d0 * d1 - u1 + k,
            d1 * d1 - u2 - k)


def k_candidates(problem: NUProblem):
    """Real values of k for which the radicand is a perfect square.

    Setting the radicand's discriminant to zero gives a quadratic in k; its
    real roots are returned in ascending order, a double root appearing
    twice.  Raises NoRealK when both roots are complex.
    """
    d0, d1 = _HALF_DIFF
    u0, u1, u2 = problem.sigma_tilde
    # discriminant of the radicand, expanded as a monic quadratic in k.
    # Its own discriminant b*b - 4c is taken in factored form, which keeps
    # the digits of a near-double root (u0 + u1 + u2 near (d0 + d1)**2);
    # the sum runs from u2, the order in which hulthen_analytic sums A**2
    b = 2.0 * (2.0 * d0 * d1 - u1) + 4.0 * (d0 * d0 - u0)
    c = (2.0 * d0 * d1 - u1) ** 2 - 4.0 * (d0 * d0 - u0) * (d1 * d1 - u2)
    disc = 16.0 * (d0 * d0 - u0) * ((d0 + d1) ** 2 - (u2 + u1 + u0))
    scale = max(1.0, b * b, abs(c))
    if disc < -_TOL * scale:
        raise NoRealK("closure constant has no real solutions "
                      f"(discriminant {disc:.3e})")
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    return [(-b - root) / 2.0, (-b + root) / 2.0]


def pi_from_k(problem: NUProblem, k: float, sign: str) -> NUCandidate:
    """Build the candidate branch for a given closure constant and sign.

    Validates that k really makes the radicand a perfect square (within
    1e-10 relative) of a real polynomial w(z) = w0 + w1*z, taken with
    w1 = sqrt(c2) >= 0 and w0 = sqrt(c0) carrying the sign of c1, so that
    pi = d + w for sign "plus" and pi = d - w for sign "minus".  Both
    roots come from the radicand's own end coefficients, so w stays exact
    when c2 and c1 vanish together.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    c0, c1, c2 = _radicand_coeffs(problem, k)
    scale = max(1.0, abs(c0), abs(c1), abs(c2))
    disc = c1 * c1 - 4.0 * c0 * c2
    if abs(disc) > _TOL * scale * scale:
        raise InvalidK(f"k={k!r} does not square the radicand "
                       f"(discriminant {disc:.3e})")
    if min(c0, c2) < -_TOL * scale:
        raise InvalidK(f"k={k!r} gives a negative leading or constant "
                       "radicand coefficient")
    w1 = math.sqrt(max(c2, 0.0))
    w0 = math.copysign(math.sqrt(max(c0, 0.0)), c1)
    d0, d1 = _HALF_DIFF
    s = 1.0 if sign == "plus" else -1.0
    p0, p1 = d0 + s * w0, d1 + s * w1
    t0, t1 = TAU_TILDE
    tau = (t0 + 2.0 * p0, t1 + 2.0 * p1)
    weight = (tau[0] - 1.0, -(tau[0] + tau[1] + 1.0))
    xi = (p0, -(p0 + p1))
    return NUCandidate(k=k, sign=sign, pi=(p0, p1), tau=tau, tau_slope=tau[1],
                       weight_exponents=weight, xi_exponents=xi)


def all_candidates(problem: NUProblem):
    """All four (k, sign) branches, in (k ascending, plus-then-minus) order."""
    out = []
    for k in k_candidates(problem):
        for sign in ("plus", "minus"):
            out.append(pi_from_k(problem, k, sign))
    return out


def select_candidate(problem: NUProblem, candidates):
    """Pick the branch used for bound states.

    Keep candidates with decreasing tau and integrable weight (both
    exponents > -1); among them prefer the largest tau(0), breaking
    remaining ties by steeper slope.  Sort keys are rounded to 12
    significant digits so that mathematically equal values do not
    tie-break on rounding noise.  Raises NoAdmissibleBranch when nothing
    qualifies.
    """
    keep = [c for c in candidates
            if c.tau_slope < 0.0
            and c.weight_exponents[0] > -1.0
            and c.weight_exponents[1] > -1.0]
    if not keep:
        raise NoAdmissibleBranch(
            "no branch with decreasing tau and integrable weight")

    def _quant(x: float) -> float:
        return float(f"{x:.12e}")

    keep.sort(key=lambda c: (-_quant(c.tau[0]),
                             _quant(c.tau_slope), _quant(c.k), c.sign))
    return keep[0]


def eigen_pair(problem: NUProblem, candidate: NUCandidate, n: int):
    """Eigenvalue coefficient pair (lambda, lambda_n) for degree n.

    lambda = k + pi'(z); lambda_n = -n*tau' - n*(n-1)/2 * sigma''.  A degree-n
    polynomial solution exists exactly when the two coincide.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = candidate.k + candidate.pi[1]
    lam_n = -n * candidate.tau_slope + n * (n - 1)   # sigma'' = -2
    return lam, lam_n


def closure_functions(problem: NUProblem, candidate: NUCandidate) -> NUSolution:
    """Package the spectral data of a branch.

    The weight rho(z) = z**p * (1-z)**q makes the polynomial part a Jacobi
    polynomial with (alpha, beta) = (p, q).  Branches with p <= -1 or
    q <= -1 have a non-integrable weight; they are returned with
    ``normalizable=False`` rather than raising, since inspecting rejected
    branches is legitimate.
    """
    lam = candidate.k + candidate.pi[1]
    p, q = candidate.weight_exponents
    return NUSolution(candidate=candidate, lam=lam, jacobi_alpha=p,
                      jacobi_beta=q, normalizable=(p > -1.0 and q > -1.0))
