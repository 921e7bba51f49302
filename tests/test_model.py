"""Model layer: parameter validation, coordinate map, profile evaluation."""

import math

import numpy as np
import pytest

from kghulthen import EnergyLevel, PhysicalSystem, RadialGrid, default_grid


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
        assert grid.spacing == pytest.approx(0.1, rel=1e-14)

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
