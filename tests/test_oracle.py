"""Shooting oracle: ODE coefficient, bound-state search, error table."""

import functools
import logging
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from kghulthen import (PhysicalSystem, RadialGrid, coefficients_at,
                       energy_closed_form, energy_root_solve,
                       find_bound_states, oracle)
from kghulthen.errors import GridResolution, InvalidRegime, SolverError
from kghulthen.model import binding_window, default_grid
from kghulthen.oracle import (ShootingDiagnostics, approximation_error,
                             ode_coefficient)

from conftest import REFERENCE_TRUE, box_draws, signed_draws


class TestOdeCoefficient:
    def test_hand_checked_values(self, fixture_system):
        got_exact = ode_coefficient(fixture_system, 1, 0.5, 2.0, mode="exact")
        got_approx = ode_coefficient(fixture_system, 1, 0.5, 2.0,
                                     mode="approx")
        assert got_exact == pytest.approx(0.55065259711936843, rel=1e-13)
        assert got_approx == pytest.approx(0.51098939422326461, rel=1e-13)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_hand_checked_away_from_unit_hbar_c(self, mode):
        # W = centrifugal + (m(r)**2 - (E - V(r))**2)/hbar_c**2 with the
        # profiles written out by hand; -E**2/hbar_c**2 is one of W's
        # coefficient rows, so hbar_c != 1 must reach every term
        V0, beta, m0, m1, hbar_c, l, E = 0.25, 0.5, 1.0, 0.2, 0.7, 1, 0.5
        system = PhysicalSystem(V0=V0, beta=beta, m0=m0, m1=m1,
                                hbar_c=hbar_c)
        for r in (0.3, 2.0, 7.0, 30.0):
            e = math.exp(-beta * r)
            z = 1.0 - e
            V, m = -V0 * e / z, m0 - m1 / z
            cf = (l * (l + 1) / r**2 if mode == "exact"
                  else beta**2 * l * (l + 1) * e / z**2)
            want = cf + (m * m - (E - V) ** 2) / hbar_c**2
            got = ode_coefficient(system, l, E, r, mode=mode)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_screened_mode_matches_quadratic_form(self, fixture_system):
        # W_approx(r) must equal beta^2 (a3 + a2 z + a1 z^2)/z^2 with the
        # same coefficients the analytic reduction uses: the two modules
        # describe one equation
        co = coefficients_at(fixture_system, 1, 0.5)
        for r in (0.3, 1.0, 2.0, 7.0):
            z = float(fixture_system.z_at(r))
            want = fixture_system.beta ** 2 \
                * (co.a3_sq + co.a2_sq * z + co.a1_sq * z * z) / z ** 2
            got = ode_coefficient(fixture_system, 1, 0.5, r, mode="approx")
            assert got == pytest.approx(want, rel=1e-13)

    def test_modes_coincide_for_s_states(self, reference_system):
        r = np.linspace(0.01, 50.0, 400)
        a = ode_coefficient(reference_system, 0, 0.6, r, mode="approx")
        b = ode_coefficient(reference_system, 0, 0.6, r, mode="exact")
        assert np.array_equal(a, b)

    def test_only_exact_mode_keeps_algebraic_tail(self, fixture_system):
        # at beta*r = 40 the screened surrogate has fully decayed but the
        # true centrifugal barrier still contributes 2/r^2
        r_far = 40.0 / fixture_system.beta
        E = 0.5
        w_inf = (fixture_system.asymptotic_mass ** 2 - E * E) \
            / fixture_system.hbar_c ** 2
        wex = ode_coefficient(fixture_system, 1, E, r_far, mode="exact")
        wap = ode_coefficient(fixture_system, 1, E, r_far, mode="approx")
        assert (wex - w_inf) / w_inf == pytest.approx(8.0128205e-4, rel=1e-6)
        assert abs(wap - w_inf) / w_inf < 1e-15

    def test_input_validation(self, reference_system):
        with pytest.raises(ValueError, match="radius"):
            ode_coefficient(reference_system, 0, 0.5, 0.0)
        with pytest.raises(ValueError, match="radius"):
            ode_coefficient(reference_system, 0, 0.5,
                            np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="mode"):
            ode_coefficient(reference_system, 0, 0.5, 1.0, mode="fast")
        with pytest.raises(ValueError, match="l"):
            ode_coefficient(reference_system, -1, 0.5, 1.0)


class TestFindBoundStates:
    def test_reference_s_channel(self, reference_system):
        states = find_bound_states(reference_system, 0)
        assert [d.node_count for d in states] == [0, 1]
        assert states[0].energy == pytest.approx(REFERENCE_TRUE[(0, 0)],
                                                 abs=5e-9)
        assert states[1].energy == pytest.approx(REFERENCE_TRUE[(1, 0)],
                                                 abs=5e-9)
        assert all(d.converged for d in states)
        assert all(abs(d.tail_mismatch) <= 1e-3 for d in states)

    def test_reference_l1_screened_channel(self, reference_system):
        states = find_bound_states(reference_system, 1)
        assert [d.node_count for d in states] == [0]
        assert states[0].energy == pytest.approx(REFERENCE_TRUE[(0, 1)],
                                                 abs=5e-9)

    def test_reference_l1_true_barrier_empty(self, reference_system):
        # with the true centrifugal tail the l=1 state is pushed out of
        # the well: the channel holds no bound state at all
        assert find_bound_states(reference_system, 1, mode="exact") == []

    def test_grid_refinement_is_converged(self, reference_system):
        coarse = find_bound_states(reference_system, 0)
        fine_grid = RadialGrid(r_min=1e-6 / 0.2, r_max=40.0 / 0.2,
                               points=8000)
        fine = find_bound_states(reference_system, 0, grid=fine_grid)
        assert len(fine) == len(coarse)
        for c, f in zip(coarse, fine):
            assert abs(c.energy - f.energy) < 1e-8

    def test_five_state_ladder(self, shallow_long_system):
        states = find_bound_states(shallow_long_system, 0)
        assert [d.node_count for d in states] == [0, 1, 2, 3, 4, 5, 6]
        energies = [d.energy for d in states]
        assert energies == sorted(energies)
        for n, d in enumerate(states):
            _, upper = energy_closed_form(shallow_long_system, n, 0)
            tol = 1e-5 if n == 0 else 1e-8
            assert d.energy == pytest.approx(upper.value, abs=tol), n

    def test_window_restriction(self, reference_system):
        states = find_bound_states(reference_system, 0, window=(0.7, 0.8),
                                   scan_points=60)
        assert len(states) == 1
        assert states[0].energy == pytest.approx(REFERENCE_TRUE[(0, 0)],
                                                 abs=5e-9)

    def test_free_system_has_no_states(self):
        free = PhysicalSystem(V0=0.0, beta=0.2, m0=1.0)
        assert find_bound_states(free, 0) == []

    def test_window_validation(self, reference_system):
        with pytest.raises(ValueError, match="window"):
            find_bound_states(reference_system, 0, window=(-2.0, 2.0))

    @pytest.mark.parametrize("scan_points", [-1, 0, 1])
    def test_scan_points_validation(self, reference_system, scan_points):
        # fewer than two scan energies bracket nothing: the reference's
        # two l=0 states would be dropped without a word
        with pytest.raises(ValueError, match="scan_points"):
            find_bound_states(reference_system, 0, scan_points=scan_points)
        assert len(find_bound_states(reference_system, 0, scan_points=2)) == 2

    def test_supercritical_origin_raises(self):
        deep = PhysicalSystem(V0=0.9, beta=0.05, m0=1.0)
        with pytest.raises(InvalidRegime, match="over-attractive"):
            find_bound_states(deep, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_over_attractive_origin_comes_before_non_finite_w(self):
        # at r_min = 1e-300 this system's W also overflows; the origin's
        # own message is the one raised
        system = PhysicalSystem(V0=0.2, beta=0.2, m0=1.0)
        grid = RadialGrid(r_min=1e-300, r_max=200.0, points=4000)
        with pytest.raises(InvalidRegime, match="over-attractive"):
            find_bound_states(system, 0, grid=grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_origin_offset_raises(self, set_a):
        # the mass profile diverges like 1/r at the origin; squaring it at
        # r = 1e-300 overflows on purpose and must surface as InvalidRegime
        grid = RadialGrid(r_min=1e-300, r_max=200.0, points=100)
        with pytest.raises(InvalidRegime, match="finite"):
            find_bound_states(set_a, 0, grid=grid)

    @pytest.mark.parametrize("V0, beta, m1, l, scan_points", [
        # each holds a root that shares a split piece of a scan jump with
        # a further node-count jump, which a one-level split dropped
        (0.0973, 0.2469, 0.024, 0, 240),
        (0.1071, 0.1878, 0.0718, 2, 240),
        (0.1, 0.2, 0.0, 1, 60),
        # below max V(r) the node count need not rise with E, and it falls
        # at each one's lower-branch levels, where the scan once raised
        # GridResolution (the first: -0.73947, 0.63687 and 0.75999)
        (0.0702, 0.2794, 0.2391, 0, 240), (0.1333, 0.1118, 0.2509, 0, 240),
        (0.0768, 0.1557, 0.1422, 0, 240), (0.0559, 0.1818, 0.2334, 0, 240)])
    def test_states_equal_root_solved_levels(self, V0, beta, m1, l,
                                             scan_points):
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        states = find_bound_states(system, l, window=binding_window(system),
                                   scan_points=scan_points)
        levels = sorted((lv.value, lv.n) for n in range(8)
                        for lv in energy_root_solve(system, n, l))
        assert [d.node_count for d in states] == [n for _, n in levels]
        for d, (E, _) in zip(states, levels):
            assert abs(d.energy - E) <= 1e-6

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(V0=st.floats(0.05, 0.20), beta=st.floats(0.10, 0.50),
           m1=st.floats(0.0, 0.30))
    def test_full_window_s_states_equal_root_solved_levels(self, V0, beta,
                                                           m1):
        # over the benchmark's box with a regular origin, the full-window
        # l=0 scan finds the root-solved levels one to one, to criterion
        # 3's 1e-6 relative
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        try:
            states = find_bound_states(system, 0)
        except InvalidRegime:
            reject()
        levels = sorted((lv.value, lv.n) for n in range(8)
                        for lv in energy_root_solve(system, n, 0))
        assert [d.node_count for d in states] == [n for _, n in levels]
        for d, (E, _) in zip(states, levels):
            assert abs(d.energy - E) <= 1e-6 * abs(E)

    def test_jump_at_a_root_is_split_down_to_tolerance(
            self, reference_system, monkeypatch, caplog):
        # node count and mismatch both switch at one energy: the piece
        # holding it is split until narrower than the refinement tolerance,
        # then named in a warning and refined as a bracket, not dropped
        root = 0.3 + math.pi * 1e-4
        monkeypatch.setattr(
            oracle, "_shoot", lambda ch, E, match_idx: (
                np.asarray(E) - root, (np.asarray(E) > root).astype(int),
                np.ones(np.size(E))))
        with caplog.at_level(logging.WARNING, logger="kghulthen.oracle"):
            (state,) = find_bound_states(reference_system, 0,
                                         window=(0.1, 0.9))
        assert len(caplog.records) == 1
        assert "still jumps" in caplog.records[0].getMessage()
        assert abs(state.energy - root) < 1e-10

    @pytest.mark.parametrize("slope, glue, branch", [
        (1.0, 1.0, "lower"), (1.0, -1.0, "upper"), (-1.0, 1.0, "upper"),
        (-1.0, -1.0, "lower"),
        # equal mismatches at the ends of a still-jumping piece
        (0.0, 1.0, "upper")])
    def test_branch_is_minus_slope_times_glue_sign(
            self, reference_system, monkeypatch, slope, glue, branch):
        # sign(Q) = -sign(d mismatch / dE) * sign(out_phi * in_phi): the
        # slope's sign comes from the bracket's scan ends, the glue sign
        # from the state's last sweep.  The count jumps by 2 at the root,
        # so the piece is split down to the tolerance even where the
        # mismatch does not change sign
        root = 0.3 + math.pi * 1e-4
        monkeypatch.setattr(
            oracle, "_shoot", lambda ch, E, match_idx: (
                slope * (np.asarray(E) - root) + (slope == 0.0),
                2 * (np.asarray(E) > root), np.full(np.size(E), glue)))
        (state,) = find_bound_states(reference_system, 0, window=(0.1, 0.9))
        assert state.branch == branch
        assert abs(state.energy - root) < 1e-10

    @pytest.mark.parametrize("draws", [
        lambda: box_draws(7, range(1, 11)) + box_draws(72, range(1, 11)),
        lambda: signed_draws(20, 25, depth=0.6)], ids=["box", "signed"])
    def test_branch_is_the_root_solved_label(self, draws):
        # each full-window state (l <= 1) meets one root-solved level of
        # its node count within 1e-6 and carries that level's label, the
        # sign of its charge; channels the oracle cannot solve are skipped
        labels = []
        for system in draws():
            for l in (0, 1):
                try:
                    states = find_bound_states(system, l)
                except SolverError:
                    continue
                for d in states:
                    (level,) = [lv for lv in energy_root_solve(
                        system, d.node_count, l)
                        if abs(lv.value - d.energy) <= 1e-6 * abs(lv.value)]
                    assert d.branch == level.branch, (system, l, d)
                    labels.append(d.branch)
        assert min(labels.count("lower"), labels.count("upper")) >= 10

    def test_coarse_grid_raises_grid_resolution(self):
        # a deep Coulomb-like well (V0/beta = m1/beta = 150) on 160 points:
        # the first row's node count falls above max V, and the message
        # names the grid's points
        system = PhysicalSystem(V0=0.3, beta=0.002, m0=1.0, m1=0.3)
        grid = RadialGrid(r_min=1e-6 / 0.002, r_max=40.0 / 0.002, points=160)
        with pytest.raises(GridResolution) as exc:
            find_bound_states(system, 0, grid=grid)
        msg = str(exc.value)
        assert "node count drops" in msg
        assert "grid.points" in msg and "160" in msg

    def test_sweep_overflow_raises_grid_resolution(self):
        # m0 at the domain bound: one grid cell multiplies phi by more than
        # the float range holds between rescalings; the scan names that
        # instead of counting nodes of NaN values
        system = PhysicalSystem(V0=3e5, beta=1e3, m0=1e7, m1=5e6)
        with pytest.raises(GridResolution, match="overflowed") as exc:
            find_bound_states(system, 0)
        assert "grid.points (currently 4000)" in str(exc.value)

    def test_grid_resolution_names_a_plain_energy(self):
        # the default mesh cannot resolve this deep Coulomb-like well: a
        # returned state's allowed-region steps turn phi by 2.03 rad; the
        # message names that state's energy as a plain float
        system = PhysicalSystem(V0=0.3, beta=0.002, m0=1.0, m1=0.3)
        with pytest.raises(GridResolution) as exc:
            find_bound_states(system, 0)
        msg = str(exc.value)
        assert re.search(r"near E=0\.69999849\d* turns", msg)
        assert "np.float64" not in msg

    @pytest.mark.parametrize("V0, beta, m1, points, turn, found, tol", [
        # the largest h**2 (-W~) over the returned states' allowed-region
        # mesh steps: above 4 (2 rad of phase per step) the solve raises
        # and names it
        (0.2, 0.05, 0.2, 120, 5.62, None, None),     # set_a, coarse
        (0.3, 0.002, 0.3, 4000, 4.12, None, None),   # deep, default mesh
        # below 4 the states are returned and meet the root-solved levels
        # of their node counts and branches: the shallow fixture on a
        # coarse mesh, two Coulomb-like wells (at beta = 0.001 the scan
        # misses the top 2 of 32 levels, direction 4 of the roadmap) and
        # the benchmark box's worst corner
        (0.0098, 0.02, 0.0, 160, 0.597, 7, 1e-5),
        (0.0005, 0.001, 0.0, 4000, 0.0195, 30, 1e-6),
        (0.0005, 0.002, 0.0, 4000, 0.00485, 15, 1e-6),
        (0.2, 0.1, 0.3, 4000, 0.00126, 8, 1e-6)],
        ids=["set_a-coarse", "deep", "shallow-coarse", "coulomb-0.001",
             "coulomb-0.002", "box-corner"])
    def test_phase_rule_margins(self, V0, beta, m1, points, turn, found,
                                tol):
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        grid = RadialGrid(r_min=1e-6 / beta, r_max=40.0 / beta, points=points)
        if turn > 4.0:
            with pytest.raises(GridResolution) as exc:
                find_bound_states(system, 0, grid=grid)
            msg = str(exc.value)
            phase = float(re.search(r"turns phi by (\S+) rad", msg).group(1))
            assert phase == pytest.approx(math.sqrt(turn), rel=1e-2)
            assert f"grid.points (currently {points})" in msg
            return
        states = find_bound_states(system, 0, grid=grid)
        assert len(states) == found and all(d.converged for d in states)
        for d in states:
            (level,) = [lv for lv in energy_root_solve(system, d.node_count, 0)
                        if lv.branch == d.branch]
            assert abs(d.energy - level.value) <= tol * abs(level.value)
        E = np.array([d.energy for d in states])
        worst = _max_step_turn(system, 0, "approx", E, grid).max()
        assert worst == pytest.approx(turn, rel=2e-2)


def _rk4(phi, p, h, Wa, Wm, Wb):
    k1 = Wa * phi
    phi2, p2 = phi + 0.5 * h * p, p + 0.5 * h * k1
    k2 = Wm * phi2
    phi3, p3 = phi + 0.5 * h * p2, p + 0.5 * h * k2
    k3 = Wm * phi3
    phi4, p4 = phi + h * p3, p + h * k3
    k4 = Wb * phi4
    return (phi + h / 6.0 * (p + 2.0 * p2 + 2.0 * p3 + p4),
            p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


@functools.lru_cache(maxsize=None)
def _map_terms():
    """r' = dr/dx, r''/r' and {r; x} = r'''/r' - 3/2 (r''/r')**2 of the
    map x = ln r + r/L as functions of (r, L), derived by sympy from r' =
    1/(dx/dr) and the chain rule d/dx = r' d/dr."""
    r, L = sympy.symbols("r L", positive=True)
    d1 = 1 / sympy.diff(sympy.log(r) + r / L, r)
    d2 = sympy.diff(d1, r) * d1
    d3 = sympy.diff(d2, r) * d1
    return sympy.lambdify((r, L), (d1, d2 / d1, d3 / d1 - sympy.Rational(
        3, 2) * (d2 / d1)**2), "numpy")


def _mesh_samples(system, grid):
    """The oracle mesh's 2K - 1 samples, uniform in x = ln r + r/L, L =
    _MAP_LENGTH/beta, from x(r_min) to x(r_max), its nodes at the even
    ones: (h, r, r', r''/r', {r; x}), h the node spacing in x, with r from
    the Lambert W function, r = L W0(exp(x)/L), and the rest from
    ``_map_terms``.  The samples are spaced in x - ln L, as the solver's
    are, so that both read one set of radii to rounding."""
    L = oracle._MAP_LENGTH / system.beta
    x0, x1 = (math.log(r / L) + r / L for r in (grid.r_min, grid.r_max))
    x = np.linspace(x0, x1, 2 * grid.points - 1)       # x - ln L
    r = L * scipy.special.lambertw(np.exp(x)).real
    return ((x1 - x0) / (grid.points - 1), r) + tuple(_map_terms()(r, L))


def _mesh_w(system, l, mode, E, grid):
    """W~ = r'**2 W - {r; x}/2 at the mesh samples for the energies E,
    (2K - 1, E.size), and (h, r, r', r''/r', W) with the first four of
    ``_mesh_samples``."""
    h, r, d1, c, schwarz = _mesh_samples(system, grid)
    W = ode_coefficient(system, l, E[None], r[:, None], mode)
    return d1[:, None]**2 * W - 0.5 * schwarz[:, None], (h, r, d1, c, W)


def _stepwise_shoot(system, l, mode, E, grid, match_idx):
    """Reference for oracle._shoot: both sweeps of chi'' = W~ chi
    (``_mesh_w``) one RK4 step at a time over the mesh, outward from r_min
    and back from r_max, counting the sign changes of chi between
    consecutive steps up to each energy's matching node, and the sign of
    out_chi * in_chi at that node.  Each start is the one of phi = sqrt(r')
    chi, (chi, chi') = (phi, r' phi' - r''/(2 r') phi)/sqrt(r'): the
    origin series outward, phi'/phi = -sqrt(W) at r_max inward."""
    K = grid.points
    Wt, (h, r, d1, c, W) = _mesh_w(system, l, mode, E, grid)
    outward = [(h, Wt[2 * i], Wt[2 * i + 1], Wt[2 * i + 2], i + 1)
               for i in range(K - 1)]
    inward = [(-h, Wt[2 * i], Wt[2 * i - 1], Wt[2 * i - 2], i - 1)
              for i in range(K - 1, 0, -1)]

    def run(steps, phi, p, start):
        live = match_idx != start       # still short of the matching node
        nodes = np.zeros(E.size, dtype=int)
        m_phi, m_p = np.where(live, 0.0, phi), np.where(live, 0.0, p)
        for k, (hk, Wa, Wm, Wb, node) in enumerate(steps):
            was = phi
            phi, p = _rk4(phi, p, hk, Wa, Wm, Wb)
            nodes += live & (np.sign(was) * np.sign(phi) < 0)
            if node >= 0:
                at = match_idx == node
                m_phi, m_p = np.where(at, phi, m_phi), np.where(at, p, m_p)
                live &= ~at
            if k % 64 == 63:
                scale = np.maximum(np.abs(phi), np.abs(p))
                phi, p = phi / scale, p / scale
        return nodes, m_phi, m_p

    def chi(i, phi, dphi):
        return (phi / math.sqrt(d1[i]),
                (d1[i] * dphi - 0.5 * c[i] * phi) / math.sqrt(d1[i]))

    cm1c, cm1l, g = oracle._origin_series(system, l)
    c1 = (cm1c + cm1l * E) / (2.0 * g)
    n_out, o_phi, o_p = run(outward, *chi(0, 1.0 + c1 * r[0],
                                          g / r[0] + c1 * (g + 1.0)), 0)
    n_in, i_phi, i_p = run(inward, *chi(-1, np.ones(E.size),
                                        -np.sqrt(np.maximum(W[-1], 0.0))),
                           K - 1)
    nodes = n_out + n_in
    wr = o_p * i_phi - i_p * o_phi
    return (wr / (np.abs(o_p * i_phi) + np.abs(i_p * o_phi) + 1e-300), nodes,
            np.sign(o_phi) * np.sign(i_phi))


def _max_step_turn(system, l, mode, E, grid):
    """Per energy, the largest h**2 (-W~) over the mesh nodes where W~ < 0,
    0 where there are none: an allowed-region step with more than 4 turns
    chi by more than 2 rad and is not resolved."""
    Wt, (h, *_) = _mesh_w(system, l, mode, E, grid)
    return h * h * np.max(-Wt[::2], axis=0, initial=0.0)


def _turning(ch, E):
    """The solver's matching index per energy on the channel ``ch``."""
    return oracle._nearest_crossing(ch.w, np.vander(E, 3, increasing=True).T,
                                    ch.target)


def _steps_to(K, node):
    """The index of the step of each sweep direction that reaches each of
    the nodes ``node`` of a K-node channel, (2, node.size): outward step
    node - 1 and inward step K - 2 - node, -1 at a direction's start."""
    node = np.asarray(node)
    return np.stack([node - 1, K - 2 - node])


def _argmin_crossing(W, target):
    """Reference for oracle._nearest_crossing: the argmin over a distance
    score, which the search replaced."""
    K = W.shape[0]
    S = np.sign(W)
    cross = S[:-1, :] * S[1:, :] <= 0
    idx = np.arange(K - 1)
    score = np.where(cross, np.abs(idx[:, None] - target), 10 * K)
    im = np.argmin(score, axis=0)
    im[~cross.any(axis=0)] = K // 2
    return np.clip(im, 2, K - 2)


def _sweep_samples(system, l, mode, grid):
    """Radii and W's coefficient rows at every sample the sweeps read: the
    mesh's nodes and midpoints in turn (``_mesh_samples``)."""
    r = _mesh_samples(system, grid)[1]
    return r, oracle._w_coefficients(system, l, mode, r)


def _family_column(r, a, beta, k):
    """u''/u of u = z**a exp(-k r) at the radii r, as the band evaluates
    it: k**2 - t k + c0, with t = 2 a y, c0 = y (a (a - 1) y - a beta) and
    y = beta (1 - z)/z."""
    y = beta / np.expm1(beta * r)
    return (y * (a * (a - 1.0) * y - a * beta) + k * k) - (2.0 * a * k) * y


def _band_slices(system, l, r, w):
    """The slices of the channel's band as (lo, hi, k), and the column of
    u''/u at the samples r as a function of k: u = z**a exp(-k r) at the
    two rates of the evenly spaced scan whose slices, scored in one
    stacked ``_no_state_band`` call on every _BAND_STRIDE-th sample, reach
    highest and lowest, then Hardy's u = r**(1/2), k = None."""
    a = oracle._origin_series(system, l)[2] * (1.0 - 1e-9)
    beta = system.beta

    def column(k):
        if k is None:
            return -0.25 / (r * r)
        return _family_column(r, a, beta, k)

    k = np.linspace(0.0, system.asymptotic_mass / system.hbar_c,
                    oracle._BAND_RATES)
    s = slice(None, None, oracle._BAND_STRIDE)
    lo, hi = oracle._no_state_band(w[s], _family_column(r[s], a, beta,
                                                         k[:, None]))
    rates = [k[np.argmax(hi)], k[np.argmin(lo)]]
    return [oracle._no_state_band(w, column(k)) + (k,)
            for k in rates + [None]], column


def _least_difference(w, uu, E):
    """min over the samples of W(r, E) - u''/u, in floats."""
    return np.min((w[:, 0] - uu) + w[:, 1] * E + w[:, 2] * (E * E))


def _band_cases():
    """(system, l, mode, scan_points) of the band property: the reference
    (c2 = -1/4 to rounding) in every channel, systems that raise
    GridResolution and InvalidRegime, then seeded draws from the benchmark
    box and from a wide box with V0 of both signs."""
    ref = PhysicalSystem(V0=0.1, beta=0.2, m0=1.0)
    cases = [(ref, l, mode, scan) for l in range(3)
             for mode in ("approx", "exact") for scan in (240, 60)]
    cases += [(PhysicalSystem(V0=0.0005, beta=0.001, m0=1.0), 1, "exact",
               240),
              (PhysicalSystem(V0=300.0, beta=1.0, m0=1000.0, m1=500.0), 0,
               "approx", 240),
              (PhysicalSystem(V0=0.3, beta=0.2, m0=1.0, m1=0.1), 0,
               "approx", 240)]
    boxes = [((0.05, 0.2), (0.1, 0.5), (0.0, 0.3)),     # V0, beta, m1
             ((-0.3, 0.3), (0.05, 0.6), (0.0, 0.9))]
    rng = np.random.default_rng(23)
    for V0, beta, m1 in [box for box in boxes for _ in range(12)]:
        system = PhysicalSystem(V0=rng.uniform(*V0), beta=rng.uniform(*beta),
                                m0=1.0, m1=rng.uniform(*m1))
        cases.append((system, int(rng.integers(3)),
                      str(rng.choice(["approx", "exact"])),
                      int(rng.choice([240, 60]))))
    return cases


def _band_or_none(system, l, mode):
    """The channel's band, or None where the channel raises."""
    try:
        return oracle._channel(system, l, mode, default_grid(system)).band
    except SolverError:
        return None


class TestNoStateBand:
    @pytest.mark.parametrize("system, l, mode", [
        (PhysicalSystem(V0=0.1, beta=0.2, m0=1.0), 0, "approx"),
        (PhysicalSystem(V0=0.1, beta=0.2, m0=1.0), 1, "approx"),
        (PhysicalSystem(V0=0.1, beta=0.2, m0=1.0), 1, "exact"),
        (PhysicalSystem(V0=0.2, beta=0.05, m0=1.0, m1=0.2), 0, "approx"),
        (PhysicalSystem(V0=0.0098, beta=0.02, m0=1.0), 0, "approx"),
        (PhysicalSystem(V0=-0.1, beta=0.3, m0=1.0, m1=0.5), 2, "exact")])
    def test_band_is_where_every_sample_is_non_negative(self, system, l,
                                                        mode):
        # the premise of the band: at every energy inside it, W - u''/u
        # >= 0 at every sample the sweeps read for the trial function u of
        # a slice that holds the energy, or between the two family slices
        # for the family at the rate interpolated between their facing
        # ends (the difference is jointly concave in (E, k)); and the u of
        # the slice at either end goes negative just beyond it.  These
        # samples' radii agree with the solver's to about 1e-15 relative,
        # not bitwise, so the band's ends agree with theirs to 1e-12
        grid = default_grid(system)
        r, w = _sweep_samples(system, l, mode, grid)
        band = oracle._channel(system, l, mode, grid).band
        slices, column = _band_slices(system, l, r, w)
        lo, hi = min(s[0] for s in slices), max(s[1] for s in slices)
        assert lo < hi
        assert band == pytest.approx((lo, hi), rel=0.0, abs=1e-12)
        (lo1, hi1, k1), (lo2, hi2, k2) = sorted(slices[:2])
        for E in np.linspace(lo, hi, 201):
            rates = [k for s_lo, s_hi, k in slices if s_lo <= E <= s_hi]
            if hi1 < E < lo2:
                rates.append(k1 + (E - hi1) / (lo2 - hi1) * (k2 - k1))
            assert any(_least_difference(w, column(k), E) >= 0.0
                       for k in rates), E
        d = 1e-6 * (hi - lo)
        for E, end in ((lo - d, 0), (hi + d, 1)):
            k = next(s[2] for s in slices if s[end] == (lo, hi)[end])
            assert _least_difference(w, column(k), E) < 0.0

    def test_family_is_the_curvature_of_its_trial_function(self):
        # u''/u = k**2 - (2 a k + a beta) y + a (a - 1) y**2, y = beta (1 -
        # z)/z, for u = z**a exp(-k r): against central differences
        a, beta, k = 1.3, 0.2, 0.6
        r = np.array([0.05, 0.7, 3.0, 20.0])
        h = 1e-4 * r
        z = lambda x: -np.expm1(-beta * x)
        log_u = lambda x: a * np.log(z(x)) - k * x
        d1 = (log_u(r + h) - log_u(r - h)) / (2 * h)
        d2 = (log_u(r + h) - 2 * log_u(r) + log_u(r - h)) / (h * h)
        assert np.allclose(d2 + d1 * d1, _family_column(r, a, beta, k),
                           rtol=1e-6)

    def test_band_is_empty_where_no_energy_suits_every_sample(
            self, reference_system):
        r, w = _sweep_samples(reference_system, 0, "approx",
                              default_grid(reference_system))
        empty = (math.inf, -math.inf)
        hardy = -0.25 / (r * r)
        # one row with a negative discriminant: a = -1, b = 0, c = -1
        assert oracle._no_state_band(
            np.vstack([w, [-1.25, 0.0, -1.0]]), np.append(hardy, -0.25)) \
            == empty
        # root intervals that do not meet: (-1, 1) and (2, 4)
        assert oracle._no_state_band(
            np.array([[0.75, 0.0, -1.0], [-8.25, 6.0, -1.0]]),
            np.array([-0.25, -0.25])) == empty

    @pytest.mark.parametrize("stride", [oracle._BAND_STRIDE, 1])
    def test_stacked_call_is_one_call_per_row(self, reference_system,
                                              stride):
        # a stack of trial functions gives, row by row, the bits of one
        # call per row, on the scan's samples and on all of them; the rates
        # run past the band's, so some rows are empty
        system = reference_system
        r, w = _sweep_samples(system, 0, "approx", default_grid(system))
        s = slice(None, None, stride)
        a = oracle._origin_series(system, 0)[2] * (1.0 - 1e-9)
        k = np.linspace(0.0, 4.0 * system.asymptotic_mass / system.hbar_c,
                        33)
        uu = np.vstack([_family_column(r[s], a, system.beta, k[:, None]),
                        -0.25 / (r[s] * r[s])])
        lo, hi = oracle._no_state_band(w[s], uu)
        rows = [oracle._no_state_band(w[s], row) for row in uu]
        assert lo.shape == hi.shape == (34,)
        assert [(x.tobytes(), y.tobytes()) for x, y in zip(lo, hi)] == \
            [(np.float64(x).tobytes(), np.float64(y).tobytes())
             for x, y in rows]
        empty = (math.inf, -math.inf)
        assert empty in rows and any(row != empty for row in rows)

    @pytest.mark.parametrize("system, l, mode, scan_points", _band_cases())
    def test_band_changes_no_state(self, system, l, mode, scan_points,
                                   monkeypatch):
        # no state lies inside the band, so the scan energies it drops
        # change only the batches' rounding: the same node counts, flags
        # and errors as a scan of every energy, and every state outside
        def solve():
            try:
                return find_bound_states(system, l, mode=mode,
                                         scan_points=scan_points), None
            except SolverError as exc:
                return [], type(exc)

        states, error = solve()
        monkeypatch.setattr(oracle, "_no_state_band",
                            lambda w, uu: (math.inf, -math.inf))
        every, every_error = solve()
        assert error == every_error
        assert [(d.node_count, d.converged) for d in states] == \
            [(d.node_count, d.converged) for d in every]
        for d, e in zip(states, every):
            assert abs(d.energy - e.energy) <= 1e-10 * system.m0
        monkeypatch.undo()
        if states:
            lo, hi = oracle._channel(system, l, mode,
                                     default_grid(system)).band
            assert not any(lo <= d.energy <= hi for d in states)

    def test_band_holds_no_root_solved_level(self):
        # the closed form solves the approx equation: no level of either
        # branch lies inside its band; at l = 0 the exact mode is the same
        # equation.  (At l >= 1 the exact well is shallower, and its band
        # may hold an approx level: the reference's l = 1 one, 0.998413,
        # lies below the exact band's top)
        checked = 0
        for system, l, _, _ in _band_cases():
            for mode in ("approx", "exact") if l == 0 else ("approx",):
                band = _band_or_none(system, l, mode)
                if band is None:
                    continue
                levels = [lv.value for n in range(8)
                          for lv in energy_root_solve(system, n, l)]
                assert not any(band[0] <= E <= band[1] for E in levels)
                checked += bool(levels)
        assert checked >= 30

    @pytest.mark.parametrize("systems", [
        lambda: [PhysicalSystem(V0=0.1, beta=0.2, m0=1.0),
                 PhysicalSystem(V0=0.2, beta=0.05, m0=1.0, m1=0.2)],
        lambda: box_draws(72, range(1, 21)) + box_draws(7, range(1, 21))],
        ids=["fixtures", "box"])
    def test_band_reaches_the_lowest_upper_level(self, systems):
        # the family's band climbs to just below the n = 0 level: its top
        # lies under the lowest upper-branch level by at most one spacing
        # of a full-window first row
        gaps = []
        for system in systems():
            lo, hi = binding_window(system)
            for l in range(3):
                band = _band_or_none(system, l, "approx")
                upper = [] if band is None else [
                    lv.value for n in range(8)
                    for lv in energy_root_solve(system, n, l)
                    if lv.branch == "upper"]
                if upper:
                    gaps.append((min(upper) - band[1]) / ((hi - lo) / 239))
        assert len(gaps) >= 4
        assert 0.0 < min(gaps) and max(gaps) <= 1.0


class TestTurningIndices:
    def test_matches_argmin_rule(self):
        K = 120
        t = K // 3
        cols = []

        def signs(*changes):
            # +1 up to node c of the first change, flipping after each
            col = np.ones(K)
            for c in changes:
                col[c + 1:] *= -1.0
            return col

        cols += [np.ones(K), -np.ones(K), np.zeros(K)]     # none, all cross
        cols += [signs(t - 5, t + 5), signs(t - 6, t + 5),  # tie, nearer up
                 signs(t), signs(t + 1), signs(t - 1),
                 signs(0), signs(K - 2), signs(1, K - 3)]   # clipped ends
        zero_up = np.ones(K)
        zero_up[t + 7] = 0.0                                # a zero at a node
        zero_tie = np.ones(K)
        zero_tie[[t - 4, t + 5]] = 0.0                      # zeros tie
        cols += [zero_up, zero_tie, -zero_up]
        rng = np.random.default_rng(3)
        for _ in range(200):
            col = np.cumprod(np.where(rng.random(K) < 0.03, -1.0, 1.0))
            col *= rng.uniform(0.5, 2.0, K)
            col[rng.random(K) < 0.02] = 0.0
            cols.append(col)
        W = np.column_stack(cols)
        # an identity product of a finite W is exact (a zero may turn
        # into -0, which is neither > 0 nor < 0 either)
        assert np.array_equal(
            oracle._nearest_crossing(W, np.eye(W.shape[1]), t),
            _argmin_crossing(W, t))

    @pytest.mark.parametrize("name, l, mode", [
        ("reference_system", 0, "approx"), ("set_a", 1, "exact")])
    def test_matches_argmin_rule_on_a_channel(self, name, l, mode, request):
        system = request.getfixturevalue(name)
        grid = default_grid(system)
        E = np.linspace(*binding_window(system), 240)
        # W's sign changes at the mesh nodes, the r problem's turning
        # points, nearest the node nearest r_max/3
        _, (_, r, _, _, W) = _mesh_w(system, l, mode, E, grid)
        nodes = r[::2]
        target = int(np.argmin(np.abs(nodes - grid.r_max / 3.0)))
        assert np.array_equal(
            _turning(oracle._channel(system, l, mode, grid), E),
            _argmin_crossing(W[::2], target))

    def test_search_memory(self, reference_system):
        # W at the grid nodes for 240 energies would be 7.7 MB; it is
        # formed in blocks of nodes and only the 1 MB mask of its sign
        # changes is kept whole, so the search peaks at 2.1 MB (the argmin
        # search held (K, B) float and integer scores beside W, 24 MB)
        grid = default_grid(reference_system)
        E = np.linspace(*binding_window(reference_system), 240)
        ch = oracle._channel(reference_system, 0, "approx", grid)
        tracemalloc.start()
        try:
            _turning(ch, E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestMesh:
    @pytest.mark.parametrize("r_min, r_max", [
        (1e-6, 40.0), (1e-300, 1e6), (0.5, 0.6), (1e-3, 1e30)])
    def test_radii_invert_the_map(self, r_min, r_max):
        # six Newton steps put every sample's ln(r/L) + r/L on its even
        # spacing to rounding, from the origin's power-law end to spans
        # far past the tail's; the radii rise from r_min to r_max
        L, K = 3.0, 500
        (r, *_), h = oracle._mesh(r_min, r_max, K, L)
        y0, y1 = (math.log(x / L) + x / L for x in (r_min, r_max))
        y = np.linspace(y0, y1, 2 * K - 1)
        assert h == (y1 - y0) / (K - 1)
        assert np.all(np.abs(np.log(r / L) + r / L - y)
                      <= 1e-14 * np.maximum(1.0, np.abs(y)))
        assert np.all(np.diff(r) > 0.0)
        assert r[0] == pytest.approx(r_min, rel=1e-13)
        assert r[-1] == pytest.approx(r_max, rel=1e-13)


class TestChunkedSweep:
    def test_rk4_map_is_one_rk4_step(self):
        # the outward rows of the step table times the powers of a random E
        # are the images of (1, 0) and (0, 1) under one reference RK4 step,
        # W sampled from the same quadratics, to 1e-14 of each entry's
        # scale, at spacings of either sign and 0.  The 2000 steps span two
        # blocks of the build, and the 48 padding rows of each direction
        # are exactly the identity
        rng = np.random.default_rng(7)
        K = 2001
        c = np.column_stack([rng.uniform(-20.0, 20.0, 2 * K - 1),
                             rng.uniform(-5.0, 5.0, 2 * K - 1),
                             np.full(2 * K - 1, -1.0 / 0.9**2)])
        E = rng.uniform(-1.2, 1.2, K - 1)
        powers = np.vander(E, 5, increasing=True)
        Wa, Wm, Wb = (np.sum(c[i:i + 2 * (K - 1):2] * powers[:, :3], axis=1)
                      for i in range(3))
        one, zero = np.ones(K - 1), np.zeros(K - 1)
        identity = np.zeros((4, 5))
        identity[[0, 3], 0] = 1.0
        for h in (0.5, 0.137, 1e-3, -0.25, -0.5, 0.0):
            table = oracle._map_table(h, c)
            assert table.shape == (2, 2048, 4, 5)
            got = np.einsum("sij,sj->is", table[0, :K - 1], powers)
            (m11, m21), (m12, m22) = (_rk4(one, zero, h, Wa, Wm, Wb),
                                      _rk4(zero, one, h, Wa, Wm, Wb))
            scale = (1.0, abs(h),
                     abs(h) * (np.abs(Wa) + 4.0 * np.abs(Wm) + np.abs(Wb))
                     / 6.0, 1.0)
            for g, want, sc in zip(got, (m11, m12, m21, m22), scale):
                assert np.all(np.abs(g - want) <= 1e-14 * sc)
            assert np.all(table[:, K - 1:] == identity)
        # h = 0 is the identity, exactly, at every step and energy
        assert np.all(table == identity)

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    @pytest.mark.parametrize("points", [120, None])
    def test_inward_steps_are_the_outward_adjugates(self, name, points,
                                                   request, monkeypatch):
        # the inward RK4 step over an interval, built as the outward ones
        # are with h -> -h over the reversed samples, is the adjugate
        # [[m22, -m12], [-m21, m11]] of the outward step over the same
        # interval, to 1e-14 of each entry's scale.  A channel builds one
        # table from the mesh's one spacing and carries the inward steps
        # in psi = (phi, -p), where each is [[m22, m12], [m21, m11]]: its
        # inward rows are the outward rows reversed and permuted, bit for
        # bit
        system = request.getfixturevalue(name)
        grid = default_grid(system)
        if points is not None:
            grid = replace(grid, points=points)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        map_table, calls = oracle._map_table, []

        def spy(h, w):
            calls.append((h, w))
            return map_table(h, w)

        monkeypatch.setattr(oracle, "_map_table", spy)
        ch = oracle._channel(system, l, mode, grid)
        assert len(calls) == 1
        (h, w), = calls
        K = grid.points
        assert np.ndim(h) == 0 and h > 0.0 and len(w) == 2 * K - 1
        back = map_table(-h, w[::-1])[0]
        outward, inward = ch.table
        permuted = outward[K - 2::-1][:, [3, 1, 2, 0]]
        adjugate = permuted * np.array([1.0, -1.0, -1.0, 1.0])[:, None]
        scale = np.maximum(np.abs(back[:K - 1]), np.abs(adjugate)).max(
            axis=-1, keepdims=True)
        assert np.all(np.abs(back[:K - 1] - adjugate) <= 1e-14 * scale)
        assert np.array_equal(inward[:K - 1], permuted)
        # the padding steps are the identity in both directions
        identity = np.zeros((4, 5))
        identity[[0, 3], 0] = 1.0
        assert np.all(ch.table[:, K - 1:] == identity)

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    @pytest.mark.parametrize("points", [100, 120, 4000])
    def test_matches_stepwise_sweep(self, name, points, request):
        system = request.getfixturevalue(name)
        span = default_grid(system)
        grid = RadialGrid(r_min=span.r_min, r_max=span.r_max, points=points)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        K = grid.points
        ch = oracle._channel(system, l, mode, grid)
        outward, inward = ch.table
        # K - 1 inward steps are not a multiple of the chunk length: the
        # last is a padding step, the identity
        assert len(inward) > K - 1
        assert np.array_equal(inward[-1] @ [1.0, 2.0, 4.0, 8.0, 16.0],
                              [1.0, 0.0, 0.0, 1.0])
        # widths that make the chunk-length rule pick each of its lengths on
        # the 4000-point grid; each batch matches at node 2 (the inward
        # sweep, turning the other way, then counts nearly all nodes), at
        # the last node of an outward and of an inward chunk (the chunk's
        # last step, where that reaches a node), and at node K - 2, so it
        # runs both whole tables end to end in chunks of one length
        widths = [240, 60, 34, 17, 1]
        m_inf = system.asymptotic_mass
        E = np.linspace(-m_inf + 1e-6, m_inf - 1e-6, sum(widths))
        batches = np.split(np.random.default_rng(0).permutation(E.size),
                           np.cumsum(widths)[:-1])
        match = np.empty(E.size, dtype=int)
        lengths = set()
        # the grid node each step reaches, or -1
        out_node, in_node = (np.full(len(t), -1) for t in ch.table)
        for nodes, reach in zip((out_node, in_node),
                                _steps_to(K, np.arange(K))):
            nodes[reach[reach >= 0]] = np.flatnonzero(reach >= 0)
        for sel in batches:
            L = oracle._chunk_length(len(outward) + len(inward), sel.size)
            lengths.add(L)
            ends = out_node.reshape(-1, L).max(axis=1)
            match[sel] = np.resize(
                [2, ends[ends >= 0][-2], in_node[L - 1], K - 2], sel.size)
        if points == 4000:
            assert lengths == {16, 32, 64, 128}
        want_m, want_n, want_g = _stepwise_shoot(system, l, mode, E, grid,
                                                 match)
        # node counts agree where no allowed-region mesh step turns chi by
        # more than 2 rad; the coarse set_a meshes reach h**2 (-W~) of
        # 5.6-8.0, and there the chunked count may differ from the
        # stepwise one
        resolved = _max_step_turn(system, l, mode, E, grid) <= 4.0
        if points == 4000:
            assert resolved.all()
        for sel in batches:
            got_m, got_n, got_g = oracle._shoot(ch, E[sel], match[sel])
            assert np.max(np.abs(got_m - want_m[sel])) <= 1e-12
            ok = resolved[sel]
            assert np.array_equal(got_n[ok], want_n[sel][ok])
            assert np.array_equal(got_g, want_g[sel])

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    def test_truncated_sweeps_match_stepwise_sweep(self, name, request,
                                                   monkeypatch):
        # each direction runs the steps up to the one reaching its batch's
        # farthest matching node, rounded up to whole 128-step blocks:
        # batches matching at node 2 or at node K - 2 cut one direction
        # to a block, and a batch matching between two nodes whose steps
        # fall mid-block cuts both inside the grid.  Every step past a
        # direction's cut is NaN in a copy of its table, which a sweep
        # reading it would carry into its result, and the chunk length
        # sees the sum of the two cuts
        system = request.getfixturevalue(name)
        span = default_grid(system)
        grid = RadialGrid(r_min=span.r_min, r_max=span.r_max, points=4000)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        K = grid.points
        ch = oracle._channel(system, l, mode, grid)
        node = np.arange(K)
        reach = _steps_to(K, node)
        hi = node[(reach[0] % 128 == 64) & (node < 2 * K // 3)][-1]
        lo = node[(reach[1] % 128 == 64) & (node > K // 3)][0]
        m_inf = system.asymptotic_mass
        E = np.linspace(-m_inf + 1e-6, m_inf - 1e-6, 3 * 17)
        match = np.concatenate([np.full(17, 2), np.full(17, K - 2),
                                np.linspace(lo, hi, 17).astype(int)])
        want_m, want_n, want_g = _stepwise_shoot(system, l, mode, E, grid,
                                                 match)
        seen = self._chunk_lengths(monkeypatch)
        for sel in np.split(np.arange(E.size), 3):
            cut = [128 * (r[match[sel]].max() // 128 + 1) for r in reach]
            step = np.arange(len(ch.table[0]))[:, None, None]
            cut_off = ch._replace(table=np.stack([
                np.where(step < n, t, np.nan) for t, n in zip(ch.table, cut)]))
            seen.clear()
            got_m, got_n, got_g = oracle._shoot(cut_off, E[sel], match[sel])
            assert np.max(np.abs(got_m - want_m[sel])) <= 1e-12
            assert np.array_equal(got_n, want_n[sel])
            assert np.array_equal(got_g, want_g[sel])
            assert seen == [(sum(cut), 17)]
        # the last batch's farthest steps lie mid-block, well inside the
        # tables
        assert cut == [reach[0, hi] + 64, reach[1, lo] + 64]
        assert all(n < 0.8 * len(t) for n, t in zip(cut, ch.table))

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    def test_segment_edges_match_stepwise_sweep(self, name, request,
                                                monkeypatch):
        # the recursive doubling runs over both directions' chunks at once
        # and must not carry a product across from one into the other.  On
        # the 4000-node mesh (32 blocks a direction), 120 energies matched
        # at node 2 run a one-chunk outward segment beside 32 inward
        # chunks of 128 steps, and matched at node K - 2 the reverse; at
        # node K/2 both directions run 16 blocks, in 16 chunks each for
        # 120 energies and in 128 each for one.  On a 120-node mesh (one
        # block a direction) 1600 energies, half matched at node 2 and
        # half at node K - 2, run one chunk in each direction
        system = request.getfixturevalue(name)
        span = default_grid(system)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        m_inf = system.asymptotic_mass
        seen = self._chunk_lengths(monkeypatch)
        for points, width, nodes, chunks in (
                (4000, 120, [2], (1, 32)), (4000, 120, [-2], (32, 1)),
                (4000, 120, [2000], (16, 16)), (4000, 1, [2000], (128, 128)),
                (120, 1600, [2, -2], (1, 1))):
            grid = RadialGrid(r_min=span.r_min, r_max=span.r_max,
                              points=points)
            ch = oracle._channel(system, l, mode, grid)
            E = np.linspace(-m_inf + 1e-6, m_inf - 1e-6, width)
            match = np.resize(nodes, width) % points
            seen.clear()
            got_m, got_n, got_g = oracle._shoot(ch, E, match)
            (S, B), = seen
            S_o, S_i = (128 * (r.max() // 128 + 1)
                        for r in _steps_to(points, match))
            L = oracle._chunk_length(S, B)
            assert (S, B) == (S_o + S_i, width)
            assert (S_o // L, S_i // L) == chunks
            want_m, want_n, want_g = _stepwise_shoot(system, l, mode, E,
                                                     grid, match)
            assert np.max(np.abs(got_m - want_m)) <= 1e-12
            resolved = _max_step_turn(system, l, mode, E, grid) <= 4.0
            assert resolved.all() or points == 120
            assert np.array_equal(got_n[resolved], want_n[resolved])
            assert np.array_equal(got_g, want_g)

    @staticmethod
    def _chunk_lengths(monkeypatch):
        """Record the (S, B) of each chunk-length choice, the choice left
        as it is."""
        chunk_length, seen = oracle._chunk_length, []

        def spy(S, B):
            seen.append((S, B))
            return chunk_length(S, B)

        monkeypatch.setattr(oracle, "_chunk_length", spy)
        return seen

    def test_shoot_memory(self, reference_system):
        # the node count comes from (chunks, energies) arrays: one
        # 240-energy shoot of the reference peaks at 1.2 MB, where phi at
        # every grid node for every energy took 17.2 MB
        grid = default_grid(reference_system)
        E = np.linspace(*binding_window(reference_system), 240)
        ch = oracle._channel(reference_system, 0, "approx", grid)
        match = _turning(ch, E)
        tracemalloc.start()
        try:
            oracle._shoot(ch, E, match)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_each_solve_builds_one_channel(self, reference_system,
                                           monkeypatch):
        # a solve builds its channel's step tables once and every sweep
        # of it reads them
        channel = oracle._channel
        built = []
        monkeypatch.setattr(oracle, "_channel", lambda *args: (
            built.append(args[1:3]) or channel(*args)))
        for l, mode in ((0, "approx"), (1, "approx"), (1, "exact")):
            find_bound_states(reference_system, l, mode=mode, scan_points=8)
        assert built == [(0, "approx"), (1, "approx"), (1, "exact")]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(V0=st.floats(0.05, 0.20), beta=st.floats(0.10, 0.50),
           m1=st.floats(0.0, 0.30), l=st.integers(0, 2),
           mode=st.sampled_from(["approx", "exact"]),
           width=st.integers(1, 240), seed=st.integers(0, 2**32 - 1))
    def test_matches_stepwise_sweep_over_the_domain(self, V0, beta, m1, l,
                                                    mode, width, seed):
        # the chunk products must not lose the subdominant solution on any
        # system of the benchmark's box; half the batch matches at the
        # turning index the solver would use, half at a random node
        system = PhysicalSystem(V0=V0, beta=beta, m0=1.0, m1=m1)
        span = default_grid(system)
        grid = RadialGrid(r_min=span.r_min, r_max=span.r_max, points=150)
        rng = np.random.default_rng(seed)
        E = rng.uniform(*binding_window(system), width)
        try:
            ch = oracle._channel(system, l, mode, grid)
        except InvalidRegime:
            reject()
        match = np.where(rng.random(width) < 0.5, _turning(ch, E),
                         rng.integers(2, grid.points - 1, width))
        got_m, got_n, got_g = oracle._shoot(ch, E, match)
        want_m, want_n, want_g = _stepwise_shoot(system, l, mode, E, grid,
                                                 match)
        assert np.max(np.abs(got_m - want_m)) <= 1e-12
        assert np.array_equal(got_n, want_n)
        assert np.array_equal(got_g, want_g)

    @pytest.mark.parametrize("window, widths", [
        # the band reaches 0.755, so the scan keeps 29 of its 60 energies;
        # then a false-position and an inverse-quadratic point of its one
        # bracket, and the closing stencil
        ((0.7, 0.8), [29, 1, 1, 3]),
        # the 32 of 240 scan energies that the no-state band leaves; both
        # node-count jumps split 16-fold, 15 new energies each, beside the
        # false-position points of the scan's two brackets; an
        # inverse-quadratic point each, with the midpoint of the upper
        # bracket, which its first point did not halve; the lower
        # bracket's closing stencil beside the upper one's next point,
        # then the upper one's stencil
        (None, [32, 30 + 2, 1 + 2, 3 + 1, 3]),
        # the same from a 60-point scan of (0.7, 0.999), 51 of whose
        # energies the band leaves: both brackets' second points, then
        # both stencils, the upper one with its bracket's midpoint, and
        # the upper one's second stencil
        ((0.7, 0.999), [51, 30 + 2, 1 + 1, 3 + 4, 3])])
    def test_sweep_count(self, reference_system, monkeypatch, window,
                         widths):
        seen = self._counted(monkeypatch)
        scan = 60 if window else 240
        find_bound_states(reference_system, 0, window=window,
                          scan_points=scan)
        assert seen == widths

    def test_sweep_count_of_a_scan_mostly_in_the_band(self, reference_system,
                                                      monkeypatch):
        # at l = 1 the band holds all but the top energy of 240, so the
        # scan keeps it, the band's two end energies and nothing between;
        # the jump below the state is split once, 15 new energies, then a
        # false-position and an inverse-quadratic point, and the closing
        # stencil with the midpoint of a bracket its last point did not
        # halve
        seen = self._counted(monkeypatch)
        find_bound_states(reference_system, 1)
        assert seen == [3, 15, 1, 1, 4]

    @pytest.mark.parametrize("l, window, scan", [
        (0, None, 240), (1, None, 240), (0, (0.7, 0.999), 60)])
    def test_no_energy_is_shot_twice(self, reference_system, monkeypatch, l,
                                     window, scan):
        # a split row takes its ends' mismatches and counts from the row
        # that shot them, and every refinement point lies strictly inside
        # its bracket, whose ends are the nearest energies shot around it
        shoot, shot = oracle._shoot, []

        def spy(ch, E, match_idx):
            shot.extend(np.atleast_1d(E).tolist())
            return shoot(ch, E, match_idx)

        monkeypatch.setattr(oracle, "_shoot", spy)
        assert find_bound_states(reference_system, l, window=window,
                                 scan_points=scan)
        assert len(shot) == len(set(shot))

    @staticmethod
    def _counted(monkeypatch):
        """Count each sweep's width, the sweeps left as they are."""
        shoot = oracle._shoot
        seen = []

        def counted(ch, E, match_idx):
            seen.append(np.size(E))
            return shoot(ch, E, match_idx)

        monkeypatch.setattr(oracle, "_shoot", counted)
        return seen

    @staticmethod
    def _mismatch(monkeypatch, f, record=np.size):
        """Replace _shoot by the mismatch f(E) at a node count of 0 and a
        glue sign of +1, recording each sweep's width (or another record
        of its energies).  f's roots are not the channel's states, so the
        channel's no-state band is emptied too."""
        seen = []

        def shoot(ch, E, match_idx):
            seen.append(record(E))
            return (f(np.asarray(E)), np.zeros(np.size(E), dtype=int),
                    np.ones(np.size(E)))

        monkeypatch.setattr(oracle, "_shoot", shoot)
        monkeypatch.setattr(oracle, "_no_state_band",
                            lambda w, uu: (math.inf, -math.inf))
        return seen

    def test_exact_zero_mismatch_ends_refinement(self, reference_system,
                                                 monkeypatch):
        # false position lands exactly on the root of a linear mismatch;
        # the refined energy must be that root, not a point beside it
        seen = self._mismatch(monkeypatch, lambda E: E - 0.5)
        (state,) = find_bound_states(reference_system, 0, window=(0.0, 1.0),
                                     scan_points=2)
        assert state.energy == 0.5 and state.tail_mismatch == 0.0
        assert state.converged
        assert seen == [2, 1]

    def test_sign_only_mismatch_refines_but_does_not_converge(
            self, reference_system, monkeypatch):
        # the bracket still narrows onto the sign change, but a mismatch
        # of magnitude 1 there is not a matched solution
        root = 0.3 + math.pi * 1e-4
        self._mismatch(monkeypatch, lambda E: np.sign(E - root))
        (state,) = find_bound_states(reference_system, 0, window=(0.1, 0.9))
        assert abs(state.energy - root) < 1e-10
        assert abs(state.tail_mismatch) == 1.0
        assert not state.converged

    def test_estimate_inside_the_tolerance_closes_its_bracket(
            self, reference_system, monkeypatch):
        # false position on a convex mismatch lands on one side of the
        # root; the inverse-quadratic point through the dropped end brings
        # the predicted error below the tolerance, and the closing stencil
        # around the next estimate closes the bracket in its own sweep
        root = 0.3 + math.pi * 1e-4
        seen = self._mismatch(monkeypatch,
                              lambda E: np.expm1(5.0 * (E - root)))
        (state,) = find_bound_states(reference_system, 0, window=(0.1, 0.9),
                                     scan_points=60)
        assert seen == [60, 1, 1, 3]
        assert abs(state.energy - root) <= 1e-10 * reference_system.m0
        assert state.converged

    @pytest.mark.parametrize("f", [
        lambda E, root: np.expm1(5.0 * (E - root)),
        lambda E, root: -np.sin(3.0 * (E - root)),
        lambda E, root: np.tanh(20.0 * (E - root)),
        lambda E, root: (E - root) + 4.0 * (E - root)**3,
        lambda E, root: np.log((1.0 + E) / (1.0 + root))],
        ids=["expm1", "sin", "tanh", "cubic", "log"])
    @pytest.mark.parametrize("scan_points", [60, 240])
    def test_smooth_root_closes_within_three_sweeps(
            self, reference_system, monkeypatch, f, scan_points):
        # wherever the root falls in its scan piece: false position, an
        # inverse-quadratic point and the closing stencil at most
        for root in 0.3 + np.linspace(0.0, 0.02, 12)[1:] + math.pi * 1e-5:
            seen = self._mismatch(monkeypatch, lambda E: f(E, root))
            (state,) = find_bound_states(reference_system, 0,
                                         window=(0.1, 0.9),
                                         scan_points=scan_points)
            assert len(seen) <= 1 + 3, root
            assert abs(state.energy - root) <= 1e-10 * reference_system.m0
            assert state.converged

    @pytest.mark.parametrize("f", [
        lambda E, root: np.where(E < root, -1e-300, 1.0),
        lambda E, root: np.sign(E - root),
        lambda E, root: np.where(E < root, E - root, 0.5 + (E - root)),
        lambda E, root: np.where(E < root, -0.7 + 3.0 * (E - root),
                                 1e-6 + (E - root)**2),
        lambda E, root: np.where(E < root, -1e-9 - (E - root)**2,
                                 1.0 + 100.0 * (E - root))],
        ids=["tiny", "sign", "jump", "jump-curved", "jump-flat"])
    def test_bracket_halves_every_two_sweeps(self, reference_system,
                                             monkeypatch, f):
        # on a discontinuous mismatch interpolation can land beside an end
        # and a closing stencil can miss the root, but the midpoint joins
        # every sweep after one that did not halve the bracket.  Its width
        # after each sweep is the gap between the nearest energies shot
        # below and above the root
        for root in 0.3 + np.linspace(0.0, 0.02, 6)[1:] + math.pi * 1e-5:
            seen = self._mismatch(monkeypatch, lambda E: f(E, root),
                                  record=np.array)
            (state,) = find_bound_states(reference_system, 0,
                                         window=(0.1, 0.9))
            shot, width = np.empty(0), []
            for E in seen:
                shot = np.append(shot, E)
                width.append(shot[shot > root].min()
                             - shot[shot < root].max())
            assert all(w2 <= 0.5 * w0 for w0, w2 in zip(width, width[2:]))
            assert width[-1] < 1e-10 * reference_system.m0
            assert abs(state.energy - root) < 1e-10 * reference_system.m0

    def test_pathological_mismatch_ends_within_the_step_cap(
            self, reference_system, monkeypatch):
        # a mismatch of -1e-300 below the root defeats interpolation: every
        # estimate lands the minimum step above the lower end and every
        # closing stencil misses the root.  The midpoints that join the
        # sweeps after those that did not halve the bracket close it in 44
        # sweeps, well inside the 120-step cap, and it reports its lower
        # end, whose mismatch is -1e-300
        root = 0.3 + math.pi * 1e-4
        seen = self._mismatch(
            monkeypatch, lambda E: np.where(E < root, -1e-300, 1.0))
        (state,) = find_bound_states(reference_system, 0, window=(0.1, 0.9))
        assert len(seen) == 1 + 44 <= 1 + 120
        assert seen[:2] == [240, 1] and set(seen[2:]) == {3, 4}
        assert 0.0 < root - state.energy < 1e-10
        assert state.converged

    def test_refined_energy_does_not_depend_on_the_batch(self):
        # the sweep's rounding depends on the batch width, and false
        # position amplifies it; a root refined from a window that holds
        # only it, and from the full window beside the channel's other
        # states, still meets one root within the tolerance
        system = PhysicalSystem(V0=0.1065, beta=0.185, m0=1.0, m1=0.0703)
        window = (0.8666694905932205, 0.8981847447966104)
        (alone,) = find_bound_states(system, 1, window=window,
                                     scan_points=60)
        (together,) = [d for d in find_bound_states(system, 1)
                       if window[0] < d.energy < window[1]]
        assert abs(alone.energy - together.energy) <= 1e-10 * system.m0
        assert alone.converged and together.converged


class TestIndependentIntegratorAgreement:
    def test_ground_state_against_adaptive_integrator(self,
                                                      reference_system):
        # completely separate numerics: adaptive high-order integration
        # (scipy DOP853) + classic bracketing, no shared sweep code
        system = reference_system
        r_lo, r_match, r_hi = 1e-6, 5.0, 150.0
        q2 = 1.0 / system.screening_energy ** 2
        P0 = q2 * system.V0 ** 2
        g = 0.5 + math.sqrt(max(0.25 + q2 * (-system.V0 ** 2), 0.0))

        def rhs(r, y, E):
            W = ode_coefficient(system, 0, E, float(r))
            return [y[1], W * y[0]]

        def mismatch(E):
            c1 = (system.beta * P0 - system.beta * 2.0 * q2 * system.V0
                  * E) / (2.0 * g)
            y0 = [r_lo ** g * (1.0 + c1 * r_lo),
                  g * r_lo ** (g - 1.0) + (g + 1.0) * c1 * r_lo ** g]
            out = scipy.integrate.solve_ivp(
                rhs, (r_lo, r_match), y0, args=(E,), method="DOP853",
                rtol=1e-11, atol=1e-30)
            W_end = max(ode_coefficient(system, 0, E, r_hi), 0.0)
            y1 = [1.0, -math.sqrt(W_end)]
            inw = scipy.integrate.solve_ivp(
                rhs, (r_hi, r_match), y1, args=(E,), method="DOP853",
                rtol=1e-11, atol=1e-30)
            po, phio = out.y[1, -1], out.y[0, -1]
            pi_, phii = inw.y[1, -1], inw.y[0, -1]
            return (po * phii - pi_ * phio) \
                / (abs(po * phii) + abs(pi_ * phio))

        E_found = scipy.optimize.brentq(mismatch, 0.75, 0.76, xtol=1e-12)
        assert E_found == pytest.approx(REFERENCE_TRUE[(0, 0)], abs=1e-9)
        sweep = find_bound_states(system, 0, window=(0.75, 0.76),
                                  scan_points=40)
        assert len(sweep) == 1
        assert sweep[0].energy == pytest.approx(E_found, abs=5e-9)


class TestApproximationError:
    def test_reference_table(self, reference_system):
        rows = approximation_error(reference_system, 0, 1,
                                   (0.4, 0.2, 0.1, 0.05))
        assert [row.status for row in rows] == [
            "unmatched", "unmatched", "ok", "invalid_regime"]
        assert [row.beta for row in rows] == [0.4, 0.2, 0.1, 0.05]
        for row in rows:
            if row.status != "ok":
                assert row.E_approx is None and row.E_exact is None
                assert row.abs_err is None and row.rel_err is None
        ok = rows[2]
        assert ok.E_approx == pytest.approx(0.89679496494864397, rel=1e-9)
        assert ok.E_exact == pytest.approx(0.8974994916585266, rel=1e-9)
        assert ok.abs_err == pytest.approx(7.0452670988263577e-4, rel=1e-6)
        assert ok.rel_err == pytest.approx(ok.abs_err / ok.E_exact,
                                           rel=1e-12)

    def test_unresolved_beta_reports_grid_resolution(self):
        # halving beta deepens this Coulomb-like well (V0/beta = m1/beta)
        # until the default mesh no longer resolves its node ladder
        system = PhysicalSystem(V0=0.3, beta=0.004, m0=1.0, m1=0.3)
        rows = approximation_error(system, 0, 0, [0.004, 0.002])
        assert [row.status for row in rows] == ["ok", "grid_resolution"]
        assert rows[0].abs_err <= 1e-12
        last = rows[1]
        assert last.beta == 0.002
        assert last.E_approx is None and last.E_exact is None
        assert last.abs_err is None and last.rel_err is None

    def test_small_beta_rows_meet_the_root_solve(self):
        # at V0 = 0.0005 the mesh resolves beta = 0.002 and 0.001 alike:
        # each row's state is the root-solved upper n = 0 level
        system = PhysicalSystem(V0=0.0005, beta=0.002, m0=1.0)
        rows = approximation_error(system, 0, 0, [0.002, 0.001])
        assert [row.status for row in rows] == ["ok", "ok"]
        for row in rows:
            (level,) = [lv for lv in energy_root_solve(
                replace(system, beta=row.beta), 0, 0) if lv.branch == "upper"]
            assert abs(row.E_approx - level.value) <= 1e-6 * level.value

    def test_s_channel_error_is_solver_noise(self, reference_system):
        # at l = 0 the two modes are one equation: one solve fills both
        # columns, so the gap is 0 by construction
        rows = approximation_error(reference_system, 0, 0, [0.2])
        assert rows[0].status == "ok"
        assert rows[0].abs_err == 0.0
        assert rows[0].E_approx == rows[0].E_exact

    @pytest.mark.parametrize("l, modes", [(0, ["approx"]),
                                          (1, ["approx", "exact"])])
    def test_solves_per_beta(self, reference_system, monkeypatch, l, modes):
        calls = []
        monkeypatch.setattr(oracle, "find_bound_states", lambda system, l, *,
                            mode: calls.append((system.beta, mode)) or [])
        rows = approximation_error(reference_system, 0, l, [0.4, 0.2])
        assert calls == [(b, m) for b in (0.4, 0.2) for m in modes]
        assert [row.status for row in rows] == ["unmatched"] * 2

    def test_klein_gordon_pair_compares_the_upper_state(self):
        # at beta = 0.1835 the n = 0 channel holds a lower state (-0.87985)
        # and an upper one (0.60270): each is the only n = 0 state of its
        # branch, so the row is ok and compares the upper one
        system = PhysicalSystem(V0=0.087, beta=0.367, m0=1.0, m1=0.1192)
        (row,) = approximation_error(system, 0, 0, [0.1835])
        assert row.status == "ok"
        assert row.E_approx == row.E_exact == pytest.approx(
            0.60269997194061076, rel=1e-9)

    @pytest.mark.parametrize("approx, exact, status, energy", [
        (["lower", "upper"], ["upper", "lower"], "ok", 2.0),
        (["lower"], ["lower"], "ok", 1.0),
        (["lower", "upper"], ["lower"], "unmatched", None),
        (["upper", "upper"], ["upper"], "unmatched", None)])
    def test_states_are_keyed_by_node_count_and_branch(
            self, reference_system, monkeypatch, approx, exact, status,
            energy):
        # the upper n-node state where either mode has one, else the
        # lower; a state of another node count never counts
        def states(branches):
            return [ShootingDiagnostics(
                energy={"lower": 1.0, "upper": 2.0}[b], node_count=0,
                tail_mismatch=0.0, converged=True, branch=b)
                for b in branches] + [ShootingDiagnostics(
                    energy=3.0, node_count=1, tail_mismatch=0.0,
                    converged=True, branch="upper")]

        by_mode = {"approx": states(approx), "exact": states(exact)}
        monkeypatch.setattr(oracle, "find_bound_states",
                            lambda system, l, *, mode: by_mode[mode])
        (row,) = approximation_error(reference_system, 0, 1, [0.2])
        assert row.status == status
        assert row.E_approx == row.E_exact == energy

    def test_input_validation(self, reference_system):
        with pytest.raises(ValueError):
            approximation_error(reference_system, -1, 0, [0.2])
