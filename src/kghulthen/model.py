"""Physical model: screened-Coulomb well with a position-dependent mass.

The system is a relativistic spinless particle on the half-line r > 0 in the
attractive exponentially screened potential

    V(r) = -V0 * exp(-beta*r) / (1 - exp(-beta*r)),

with a rest energy that itself varies with position,

    m(r)*c^2 = m0*c^2 - m1*c^2 / (1 - exp(-beta*r)).

Masses are specified as rest energies (m*c^2), so with ``hbar_c = 1`` all
inputs and outputs are in the same natural units.  Far from the origin the
rest energy tends to ``m0 - m1``; bound states live strictly inside
``(-(m0 - m1), +(m0 - m1))``.

The combination z = 1 - exp(-beta*r) maps the half-line to the unit
interval and is the working coordinate of the analytic treatment; the
centrifugal barrier l*(l+1)/r**2 is either kept exact or replaced by its
screened stand-in, which is exponentially close to it for beta*r << 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# the domain rule's bounds: within _SCALES the squares of beta, hbar_c, m0
# and beta*hbar_c, and the products of those squares, stay finite and
# nonzero; near _MAX_DEPTH screening energies the rounding of the
# quantization residual, about 2e-16 * (m0/(beta*hbar_c))**2, reaches its
# 1e-8 tolerance
_SCALES = (1e-100, 1e100)
_MAX_DEPTH = 1e4


@dataclass(frozen=True)
class PhysicalSystem:
    """Parameter set defining one well + mass profile.

    Parameters
    ----------
    V0 : float
        Potential strength (> 0 for an attractive well), in energy units.
    beta : float
        Screening rate, in inverse-length units (energy / hbar_c).
    m0 : float
        Rest energy m0*c^2 at large distance when ``m1 = 0``.
    m1 : float, optional
        Strength of the position dependence of the rest energy.  ``m1 = 0``
        recovers a constant mass.  Must satisfy ``m1 < m0``.
    hbar_c : float, optional
        Value of hbar*c in (energy x length) units; defaults to 1.

    One domain rule bounds the magnitudes: beta, hbar_c, m0 and the
    screening energy beta*hbar_c lie in [1e-100, 1e100], and |V0| and m0
    are at most 1e4 * beta*hbar_c.  A ValueError names the bound broken.
    """

    V0: float
    beta: float
    m0: float
    m1: float = 0.0
    hbar_c: float = 1.0

    def __post_init__(self):
        lo, hi = _SCALES
        se = self.beta * self.hbar_c
        for name, value in (("screening rate beta", self.beta),
                            ("hbar_c", self.hbar_c),
                            ("rest energy m0", self.m0),
                            ("screening energy beta*hbar_c", se)):
            if not lo <= value <= hi:
                raise ValueError(
                    f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
        if not max(abs(self.V0), self.m0) <= _MAX_DEPTH * se:
            raise ValueError(
                f"|V0| and m0 must be at most {_MAX_DEPTH:g} * beta*hbar_c "
                f"= {_MAX_DEPTH * se!r}, got V0={self.V0!r}, m0={self.m0!r}")
        if self.m1 < 0.0:
            raise ValueError("mass-variation strength m1 must be >= 0")
        if self.m1 >= self.m0:
            raise ValueError("m1 must be smaller than m0 "
                             "(asymptotic rest energy must stay positive)")

    @property
    def asymptotic_mass(self) -> float:
        """Rest energy m(r)*c^2 in the limit r -> infinity."""
        return self.m0 - self.m1

    @property
    def screening_energy(self) -> float:
        """Energy scale beta*hbar_c of the screening."""
        return self.beta * self.hbar_c

    def z_at(self, r):
        """Map radius to the unit-interval coordinate z = 1 - exp(-beta*r)."""
        return -np.expm1(-self.beta * np.asarray(r, dtype=float))

    def potential_at(self, r):
        """Potential energy V(r); accepts a scalar or array of radii r > 0."""
        r = _check_radius(r)
        e = np.exp(-self.beta * r)
        out = -self.V0 * e / (-np.expm1(-self.beta * r))
        return float(out) if out.ndim == 0 else out

    def mass_at(self, r):
        """Position-dependent rest energy m(r)*c^2 for radii r > 0."""
        r = _check_radius(r)
        out = self.m0 - self.m1 / (-np.expm1(-self.beta * r))
        return float(out) if out.ndim == 0 else out

    def centrifugal_at(self, l: int, r, mode: str = "exact"):
        """Centrifugal term of the radial problem, in 1/length**2.

        ``mode="exact"`` returns l*(l+1)/r**2; ``mode="approx"`` returns the
        screened surrogate beta**2 * l*(l+1) * exp(-beta*r)/(1-exp(-beta*r))**2
        that the closed-form treatment rests on.  The two agree to
        O((beta*r)**2) near the origin.
        """
        if l < 0:
            raise ValueError("angular momentum l must be >= 0")
        r = _check_radius(r)
        if mode == "exact":
            out = l * (l + 1) / r**2
        elif mode == "approx":
            e = np.exp(-self.beta * r)
            z = -np.expm1(-self.beta * r)
            out = self.beta**2 * l * (l + 1) * e / z**2
        else:
            raise ValueError(f"unknown centrifugal mode: {mode!r}")
        return float(out) if out.ndim == 0 else out


def _check_radius(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("radius must be positive")
    return arr


@dataclass(frozen=True)
class EnergyLevel:
    """One solved energy.

    ``branch`` distinguishes the two roots of the quadratic energy relation
    ("lower"/"upper" by value); ``method`` records how the number was
    obtained: "closed_form", "quantization_root", "oracle_approx" or
    "oracle_exact".  ``unbound`` marks values that fall outside the binding
    window (|E| >= asymptotic rest energy) and are therefore not genuine
    bound states even though the algebra produced them.
    """

    value: float
    branch: str
    n: int
    l: int
    method: str
    unbound: bool = False

    _BRANCHES = ("lower", "upper")
    _METHODS = ("closed_form", "quantization_root", "oracle_approx",
                "oracle_exact")

    def __post_init__(self):
        if self.branch not in self._BRANCHES:
            raise ValueError(f"unknown branch label: {self.branch!r}")
        if self.method not in self._METHODS:
            raise ValueError(f"unknown method label: {self.method!r}")
        if not math.isfinite(self.value):
            raise ValueError("energy value must be finite")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [r_min, r_max] with a given number of points."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.points < 100:
            raise ValueError("grid needs at least 100 points")

    def radii(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)


def binding_window(system: PhysicalSystem, window=None):
    """(lo, hi) of a bound-state search: by default the binding range pulled
    in by 1e-9*m0 at each end; a given window must lie inside the range."""
    m_inf = system.asymptotic_mass
    if window is None:
        eps = 1e-9 * system.m0
        return -m_inf + eps, m_inf - eps
    lo, hi = float(window[0]), float(window[1])
    if not (-m_inf <= lo < hi <= m_inf):
        raise ValueError("window must lie inside the binding range "
                         f"(-{m_inf!r}, {m_inf!r})")
    return lo, hi


def default_grid(system: PhysicalSystem) -> RadialGrid:
    """Grid spanning the region where bound states have support.

    Starts close enough to the origin that the power-law behaviour there is
    resolved and ends deep in the exponential tail (beta*r = 40).
    """
    return RadialGrid(1e-6 / system.beta, 40.0 / system.beta, 4000)
