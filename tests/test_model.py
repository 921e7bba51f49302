"""Model layer: parameter validation, coordinate map, profile evaluation,
and the origin rule every solver shares."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kghulthen import (PhysicalSystem, RadialGrid, coefficients_at,
                       default_grid, energy_closed_form, energy_root_solve,
                       level_midpoint, oracle, quantization_residual,
                       satisfies_quantization, wavefunction)
from kghulthen.errors import InvalidRegime, SolverError
from kghulthen.model import _MAX_DEPTH, EnergyLevel, origin_power


class TestPhysicalSystemValidation:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            PhysicalSystem(V0=0.1, beta=0.0, m0=1.0)
        with pytest.raises(ValueError, match="beta"):
            PhysicalSystem(V0=0.1, beta=-0.2, m0=1.0)

    def test_rejects_nonpositive_m0(self):
        with pytest.raises(ValueError, match="m0"):
            PhysicalSystem(V0=0.1, beta=0.2, m0=0.0)

    def test_rejects_negative_m1(self):
        with pytest.raises(ValueError, match="m1"):
            PhysicalSystem(V0=0.1, beta=0.2, m0=1.0, m1=-0.1)

    def test_rejects_m1_at_or_above_m0(self):
        with pytest.raises(ValueError, match="m1"):
            PhysicalSystem(V0=0.1, beta=0.2, m0=1.0, m1=1.0)
        with pytest.raises(ValueError, match="m1"):
            PhysicalSystem(V0=0.1, beta=0.2, m0=1.0, m1=1.5)

    def test_rejects_nonpositive_hbar_c(self):
        with pytest.raises(ValueError, match="hbar_c"):
            PhysicalSystem(V0=0.1, beta=0.2, m0=1.0, hbar_c=0.0)

    def test_zero_potential_strength_is_allowed(self):
        PhysicalSystem(V0=0.0, beta=0.2, m0=1.0)


class TestDerivedQuantities:
    def test_asymptotic_mass(self, set_a):
        assert set_a.asymptotic_mass == pytest.approx(0.8, rel=1e-15)

    def test_screening_energy_uses_hbar_c(self):
        sys_ = PhysicalSystem(V0=10.0, beta=0.05, m0=939.0, hbar_c=197.327)
        assert sys_.screening_energy == pytest.approx(9.86635, rel=1e-12)

    def test_z_map_matches_direct_formula(self, reference_system):
        r = np.array([0.05, 0.3, 5.0, 50.0])
        got = reference_system.z_at(r)
        want = 1.0 - np.exp(-reference_system.beta * r)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert float(reference_system.z_at(0.0)) == 0.0

    def test_z_map_is_accurate_for_tiny_radii(self, reference_system):
        # naive 1 - exp(-x) loses digits near 0; the map must not
        r = 1e-13
        z = float(reference_system.z_at(r))
        assert z == pytest.approx(reference_system.beta * r, rel=1e-12)


class TestProfiles:
    def test_potential_value(self, reference_system):
        r = 2.5
        e = math.exp(-0.2 * r)
        want = -0.1 * e / (1.0 - e)
        assert reference_system.potential_at(r) == pytest.approx(
            want, rel=1e-14)

    def test_potential_is_attractive_and_screened(self, reference_system):
        r = np.linspace(0.1, 60.0, 200)
        v = reference_system.potential_at(r)
        assert np.all(v < 0.0)
        assert np.all(np.diff(v) > 0.0)          # monotone rise to zero
        assert v[-1] == pytest.approx(0.0, abs=1e-6)

    def test_potential_rejects_nonpositive_radius(self, reference_system):
        with pytest.raises(ValueError, match="radius"):
            reference_system.potential_at(0.0)
        with pytest.raises(ValueError, match="radius"):
            reference_system.potential_at(np.array([1.0, -2.0]))

    def test_mass_profile_value_and_limit(self, set_a):
        r = 3.0
        z = 1.0 - math.exp(-set_a.beta * r)
        assert set_a.mass_at(r) == pytest.approx(
            set_a.m0 - set_a.m1 / z, rel=1e-14)
        assert set_a.mass_at(1e4) == pytest.approx(
            set_a.asymptotic_mass, rel=1e-12)

    def test_constant_mass_when_m1_zero(self, reference_system):
        r = np.array([0.01, 1.0, 100.0])
        assert np.all(reference_system.mass_at(r) == reference_system.m0)

    def test_centrifugal_modes_agree_near_origin(self, reference_system):
        r = 1e-4
        exact = reference_system.centrifugal_at(2, r, mode="exact")
        approx = reference_system.centrifugal_at(2, r, mode="approx")
        assert approx == pytest.approx(exact, rel=1e-4)
        assert exact == pytest.approx(6.0 / r**2, rel=1e-14)

    def test_centrifugal_modes_differ_in_tail(self, reference_system):
        # the screened stand-in decays exponentially, the true barrier
        # only algebraically
        r = 100.0
        exact = reference_system.centrifugal_at(1, r, mode="exact")
        approx = reference_system.centrifugal_at(1, r, mode="approx")
        assert approx < 1e-3 * exact

    def test_centrifugal_zero_for_s_states(self, reference_system):
        assert reference_system.centrifugal_at(0, 0.5, mode="exact") == 0.0
        assert reference_system.centrifugal_at(0, 0.5, mode="approx") == 0.0

    def test_centrifugal_validates_inputs(self, reference_system):
        with pytest.raises(ValueError, match="l"):
            reference_system.centrifugal_at(-1, 1.0)
        with pytest.raises(ValueError, match="mode"):
            reference_system.centrifugal_at(1, 1.0, mode="wild")


class TestOriginPower:
    def test_regular_strengths(self):
        assert origin_power(2.0) == 1.5
        assert origin_power(-0.25) == 0.0
        assert origin_power(-0.16) == pytest.approx(0.3, rel=1e-15)

    def test_rounding_band_below_a_quarter(self):
        # 1/4 + c negative by at most 1e-12 * max(1, |c|) is rounding: s = 0
        assert origin_power(-0.25 - 1e-13) == 0.0
        assert origin_power(-0.25 - 0.9e-12) == 0.0
        assert math.isnan(origin_power(-0.25 - 1.1e-12))
        assert math.isnan(origin_power(-7.0))


def _near_critical_wells(seed, count):
    """Seeded deep wells (V0/beta*hbar_c from 10 to 8000, inside the domain
    rule) with m1 just short of V0: the channel l, drawn from 0-2, is put
    within a few 1e-12 of critical coupling, 1/4 + a3_sq = 0, before the
    inputs round to doubles."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        beta = 10.0 ** rng.uniform(-3.0, 3.0)
        hbar_c = 1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-1.0, 1.0)
        se = beta * hbar_c
        V0 = se * 10.0 ** rng.uniform(1.0, math.log10(8000.0))
        l = int(rng.integers(3))
        edge = (l + 0.5) ** 2 + 1e-12 * rng.uniform(-1.0, 3.0)
        yield PhysicalSystem(
            V0=V0, beta=beta, hbar_c=hbar_c,
            m0=min(_MAX_DEPTH * se, V0 * rng.uniform(1.05, 2.0)),
            m1=math.sqrt(V0 * V0 - edge * se * se))


def _exactly_over_attractive(system, l):
    """The origin rule (1/4 + a3_sq below -1e-12*max(1, |a3_sq|)) decided in
    exact arithmetic on the double inputs, or None within 1e-13*max(1,
    |a3_sq|) of the band edge."""
    se = Fraction(system.beta) * Fraction(system.hbar_c)
    a3 = l * (l + 1) + (Fraction(system.m1) ** 2
                        - Fraction(system.V0) ** 2) / (se * se)
    scale = max(1, abs(a3))
    above_edge = Fraction(1, 4) + a3 + Fraction(1, 10**12) * scale
    if abs(above_edge) <= Fraction(1, 10**13) * scale:
        return None
    return above_edge < 0


def _raises_invalid_regime(call, *args):
    try:
        call(*args)
    except InvalidRegime:
        return True
    except (ValueError, SolverError):
        pass
    return False


def _roots_satisfy_the_condition(system, l):
    """satisfies_quantization holds at each n = 0 root of a regular channel
    that the root solve finds again on a lattice 2001 times finer; the roots
    below tail power 2 are skipped, because there the rounding of m_inf + E
    alone can exceed the condition's tolerance.  Returns the roots checked."""
    checked = 0
    for level in energy_root_solve(system, 0, l):
        if coefficients_at(system, l, level.value).A < 2.0:
            continue
        pad = 1e-12 * system.m0
        [fine] = energy_root_solve(system, 0, l,
                                   (level.value - pad, level.value + pad))
        assert satisfies_quantization(system, 0, l, fine.value), fine
        checked += 1
    return checked


class TestOneOriginDecision:
    def test_every_solver_decides_each_channel_alike_and_exactly(self):
        # near critical coupling the rounding of a3_sq decides the regime
        # unless it rounds like a3_sq itself; every path must reach one
        # decision, and off the band edge the exact one
        calls = (
            lambda system, l: oracle._origin_series(system, l),
            lambda system, l: energy_closed_form(system, 0, l),
            lambda system, l: energy_root_solve(system, 0, l),
            lambda system, l: level_midpoint(system, 0, l),
            lambda system, l: quantization_residual(system, 0, l, 0.0),
            lambda system, l: wavefunction(system, 0, l, 0.0))
        decided = wrong = roots = 0
        for system in _near_critical_wells(29, 2000):
            for l in range(3):
                raised = {_raises_invalid_regime(call, system, l)
                          for call in calls}
                assert len(raised) == 1, (system, l)
                [invalid] = raised
                if invalid:
                    assert not satisfies_quantization(system, 0, l, 0.0)
                else:
                    roots += _roots_satisfy_the_condition(system, l)
                exact = _exactly_over_attractive(system, l)
                if exact is not None:
                    decided += 1
                    wrong += invalid != exact
        assert wrong == 0 and decided >= 5000 and roots >= 1000


class TestEnergyLevel:
    def test_valid_labels(self):
        lv = EnergyLevel(value=0.5, branch="upper", n=0, l=0,
                         method="closed_form")
        assert lv.unbound is False

    def test_rejects_bad_branch_method_value(self):
        with pytest.raises(ValueError, match="branch"):
            EnergyLevel(value=0.5, branch="middle", n=0, l=0,
                        method="closed_form")
        with pytest.raises(ValueError, match="method"):
            EnergyLevel(value=0.5, branch="upper", n=0, l=0, method="guess")
        with pytest.raises(ValueError, match="finite"):
            EnergyLevel(value=float("nan"), branch="upper", n=0, l=0,
                        method="closed_form")


class TestRadialGrid:
    def test_radii_and_spacing(self):
        grid = RadialGrid(r_min=0.5, r_max=10.5, points=101)
        r = grid.radii()
        assert r[0] == 0.5 and r[-1] == 10.5 and r.size == 101
        assert np.allclose(np.diff(r), 0.1, rtol=1e-12, atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(r_min=0.0, r_max=1.0, points=200)
        with pytest.raises(ValueError):
            RadialGrid(r_min=2.0, r_max=1.0, points=200)
        with pytest.raises(ValueError, match="100"):
            RadialGrid(r_min=0.1, r_max=1.0, points=99)

    def test_default_grid_scales_with_screening(self, reference_system):
        grid = default_grid(reference_system)
        assert grid.r_min == pytest.approx(5e-6, rel=1e-12)
        assert grid.r_max == pytest.approx(200.0, rel=1e-12)
        assert grid.points == 4000
