"""Shooting oracle: ODE coefficient, bound-state search, error table."""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from kghulthen import (PhysicalSystem, RadialGrid, coefficients_at,
                       energy_closed_form, energy_root_solve,
                       find_bound_states, oracle)
from kghulthen.errors import GridResolution, InvalidRegime
from kghulthen.model import binding_window, default_grid
from kghulthen.oracle import approximation_error, ode_coefficient

from conftest import REFERENCE_TRUE


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
                np.asarray(E) - root, (np.asarray(E) > root).astype(int)))
        with caplog.at_level(logging.WARNING, logger="kghulthen.oracle"):
            (state,) = find_bound_states(reference_system, 0,
                                         window=(0.1, 0.9))
        assert len(caplog.records) == 1
        assert "still jumps" in caplog.records[0].getMessage()
        assert abs(state.energy - root) < 1e-10

    def test_coarse_grid_raises_grid_resolution(self, shallow_long_system):
        grid = RadialGrid(r_min=1e-6 / 0.02, r_max=40.0 / 0.02, points=160)
        with pytest.raises(GridResolution) as exc:
            find_bound_states(shallow_long_system, 0, grid=grid)
        msg = str(exc.value)
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
        # the default grid cannot resolve this small-screening system: its
        # node count drops above max V, where it must not fall; the message
        # names that energy as a plain float
        system = PhysicalSystem(V0=0.0005, beta=0.001, m0=1.0)
        with pytest.raises(GridResolution) as exc:
            find_bound_states(system, 0)
        msg = str(exc.value)
        assert re.search(r"near E=0\.966\d+:", msg)
        assert "np.float64" not in msg


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


def _stepwise_shoot(system, l, mode, E, grid, match_idx):
    """Reference for oracle._shoot: both sweeps one RK4 step at a time over
    the same cells (origin ladder, then the main grid; the main grid back
    from r_max), counting nodes on the recorded grid values."""
    K, h = grid.points, grid.spacing
    cells = min(300, K // 4)
    pts, mark = oracle._ladder(grid.r_min, h, cells)

    def W(r):
        return oracle._w_coefficients(system, l, mode, r) @ [
            np.ones_like(E), E, E * E]

    Wl, Wlm = W(pts), W(0.5 * (pts[:-1] + pts[1:]))
    Wg = W(grid.r_min + 0.5 * h * np.arange(2 * K - 1))
    node_at = dict(zip(mark[1:].tolist(), range(1, cells + 1)))
    outward = [(pts[k + 1] - pts[k], Wl[k], Wlm[k], Wl[k + 1],
                node_at.get(k + 1, -1)) for k in range(len(pts) - 1)]
    outward += [(h, Wg[2 * i], Wg[2 * i + 1], Wg[2 * i + 2], i + 1)
                for i in range(cells, K - 1)]
    inward = [(-h, Wg[2 * i], Wg[2 * i - 1], Wg[2 * i - 2], i - 1)
              for i in range(K - 1, 0, -1)]

    def run(steps, phi, p, start):
        traj = np.empty((K, E.size))
        traj[start] = phi
        at = match_idx == start
        m_phi, m_p = np.where(at, phi, 0.0), np.where(at, p, 0.0)
        for k, (hk, Wa, Wm, Wb, node) in enumerate(steps):
            phi, p = _rk4(phi, p, hk, Wa, Wm, Wb)
            if node >= 0:
                traj[node] = phi
                at = match_idx == node
                m_phi, m_p = np.where(at, phi, m_phi), np.where(at, p, m_p)
            if k % 64 == 63:
                scale = np.maximum(np.abs(phi), np.abs(p))
                phi, p = phi / scale, p / scale
        flips = np.sign(traj[:-1]) * np.sign(traj[1:]) < 0
        return flips, m_phi, m_p

    cm1c, cm1l, g = oracle._origin_series(system, l)
    c1 = (cm1c + cm1l * E) / (2.0 * g)
    f_out, o_phi, o_p = run(outward, 1.0 + c1 * grid.r_min,
                            g / grid.r_min + c1 * (g + 1.0), 0)
    f_in, i_phi, i_p = run(inward, np.ones(E.size),
                           -np.sqrt(np.maximum(Wg[-1], 0.0)), K - 1)
    nodes = np.array([f_out[:m, b].sum() + f_in[m:, b].sum()
                      for b, m in enumerate(match_idx)])
    wr = o_p * i_phi - i_p * o_phi
    return wr / (np.abs(o_p * i_phi) + np.abs(i_p * o_phi) + 1e-300), nodes


def _turning(ch, E):
    """The solver's matching index per energy on the channel ``ch``."""
    return oracle._nearest_crossing(ch.w, np.vander(E, 3, increasing=True).T)


def _argmin_crossing(W):
    """Reference for oracle._nearest_crossing: the argmin over a distance
    score, which the search replaced."""
    K = W.shape[0]
    S = np.sign(W)
    cross = S[:-1, :] * S[1:, :] <= 0
    idx = np.arange(K - 1)
    score = np.where(cross, np.abs(idx[:, None] - K // 3), 10 * K)
    im = np.argmin(score, axis=0)
    im[~cross.any(axis=0)] = K // 2
    return np.clip(im, 2, K - 2)


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
        assert np.array_equal(oracle._nearest_crossing(W, np.eye(W.shape[1])),
                              _argmin_crossing(W))

    @pytest.mark.parametrize("name, l, mode", [
        ("reference_system", 0, "approx"), ("set_a", 1, "exact")])
    def test_matches_argmin_rule_on_a_channel(self, name, l, mode, request):
        system = request.getfixturevalue(name)
        grid = default_grid(system)
        E = np.linspace(*binding_window(system), 240)
        W = ode_coefficient(system, l, E[None], grid.radii()[:, None], mode)
        assert np.array_equal(
            _turning(oracle._channel(system, l, mode, grid), E),
            _argmin_crossing(W))

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


class TestChunkedSweep:
    def test_rk4_map_is_one_rk4_step(self):
        # the step table's coefficients times the powers of a random E are
        # the images of (1, 0) and (0, 1) under one reference RK4 step, W
        # sampled from the same quadratics, to 1e-14 of each entry's scale
        rng = np.random.default_rng(7)
        h = rng.uniform(-0.5, 0.5, 2000)
        h[:20] = 0.0
        c = np.column_stack([rng.uniform(-20.0, 20.0, 2 * h.size + 1),
                             rng.uniform(-5.0, 5.0, 2 * h.size + 1),
                             np.full(2 * h.size + 1, -1.0 / 0.9**2)])
        table = oracle._map_table(h, c)
        assert table.shape == (h.size, 4, 5)
        E = rng.uniform(-1.2, 1.2, h.size)
        powers = np.vander(E, 5, increasing=True)
        got = np.einsum("sij,sj->is", table, powers)
        Wa, Wm, Wb = (np.sum(c[i:i + 2 * h.size:2] * powers[:, :3], axis=1)
                      for i in range(3))
        one, zero = np.ones(h.size), np.zeros(h.size)
        (m11, m21), (m12, m22) = (_rk4(one, zero, h, Wa, Wm, Wb),
                                  _rk4(zero, one, h, Wa, Wm, Wb))
        scale = (1.0, np.abs(h),
                 np.abs(h) * (np.abs(Wa) + 4.0 * np.abs(Wm) + np.abs(Wb))
                 / 6.0, 1.0)
        for g, want, sc in zip(got, (m11, m12, m21, m22), scale):
            assert np.all(np.abs(g - want) <= 1e-14 * sc)
        # h = 0 is the identity, exactly, at every energy
        identity = np.zeros((4, 5))
        identity[[0, 3], 0] = 1.0
        assert np.all(table[:20] == identity)

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    @pytest.mark.parametrize("points", [100, 120, 4000])
    def test_matches_stepwise_sweep(self, name, points, request):
        system = request.getfixturevalue(name)
        span = default_grid(system)
        grid = RadialGrid(r_min=span.r_min, r_max=span.r_max, points=points)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        K = grid.points
        ch = oracle._channel(system, l, mode, grid)
        outward, inward = ch.outward, ch.inward
        # K - 1 inward steps are not a multiple of the chunk length: the
        # last is a padding step, the identity
        assert len(inward.table) > K - 1
        assert np.array_equal(inward.table[-1] @ [1.0, 2.0, 4.0, 8.0, 16.0],
                              [1.0, 0.0, 0.0, 1.0])
        # widths that make the chunk-length rule pick each of its lengths on
        # the 4000-point grid; each batch matches at node 2, at the last node
        # of an outward and of an inward chunk of its own length (the chunk's
        # last step, where that reaches a node), and at node K - 2
        widths = [240, 60, 34, 17, 1]
        m_inf = system.asymptotic_mass
        E = np.linspace(-m_inf + 1e-6, m_inf - 1e-6, sum(widths))
        batches = np.split(np.random.default_rng(0).permutation(E.size),
                           np.cumsum(widths)[:-1])
        match = np.empty(E.size, dtype=int)
        lengths = set()
        for sel in batches:
            L_out = oracle._chunk_length(len(outward.table), sel.size)
            L_in = oracle._chunk_length(len(inward.table), sel.size)
            lengths |= {L_out, L_in}
            ends = outward.node.reshape(-1, L_out).max(axis=1)
            match[sel] = np.resize(
                [2, ends[ends >= 0][-2], inward.node[L_in - 1], K - 2],
                sel.size)
        if points == 4000:
            assert lengths == {16, 32, 64, 128}
        want_m, want_n = _stepwise_shoot(system, l, mode, E, grid, match)
        for sel in batches:
            got_m, got_n = oracle._shoot(ch, E[sel], match[sel])
            assert np.max(np.abs(got_m - want_m[sel])) <= 1e-12
            assert np.array_equal(got_n, want_n[sel])

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    def test_truncated_sweeps_match_stepwise_sweep(self, name, request,
                                                   monkeypatch):
        # a sweep runs the steps up to the one reaching its batch's
        # farthest matching node, rounded up to whole 128-step blocks:
        # batches matching at node 2 or at node K - 2 cut one direction
        # to a block or a few, and a batch matching between two nodes whose
        # steps fall mid-block cuts both inside the grid
        system = request.getfixturevalue(name)
        span = default_grid(system)
        grid = RadialGrid(r_min=span.r_min, r_max=span.r_max, points=4000)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        K = grid.points
        ch = oracle._channel(system, l, mode, grid)
        outward, inward = ch.outward, ch.inward
        node = np.arange(K)
        hi = node[(outward.reach % 128 == 64) & (node < 2 * K // 3)][-1]
        lo = node[(inward.reach % 128 == 64) & (node > K // 3)][0]
        m_inf = system.asymptotic_mass
        E = np.linspace(-m_inf + 1e-6, m_inf - 1e-6, 3 * 17)
        match = np.concatenate([np.full(17, 2), np.full(17, K - 2),
                                np.linspace(lo, hi, 17).astype(int)])
        want_m, want_n = _stepwise_shoot(system, l, mode, E, grid, match)

        chunk_length = oracle._chunk_length
        seen = []

        def spy(S, B):
            seen.append(S)
            return chunk_length(S, B)

        monkeypatch.setattr(oracle, "_chunk_length", spy)
        for sel in np.split(np.arange(E.size), 3):
            seen.clear()
            got_m, got_n = oracle._shoot(ch, E[sel], match[sel])
            assert np.max(np.abs(got_m - want_m[sel])) <= 1e-12
            assert np.array_equal(got_n, want_n[sel])
            farthest = [outward.reach[match[sel]].max(),
                        inward.reach[match[sel]].max()]
            assert seen == [128 * (s // 128 + 1) for s in farthest]
        # the last batch's farthest steps lie mid-block, well inside the
        # tables
        assert seen == [outward.reach[hi] + 64, inward.reach[lo] + 64]
        assert seen[0] < 0.8 * len(outward.table)
        assert seen[1] < 0.8 * len(inward.table)

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
        got_m, got_n = oracle._shoot(ch, E, match)
        want_m, want_n = _stepwise_shoot(system, l, mode, E, grid, match)
        assert np.max(np.abs(got_m - want_m)) <= 1e-12
        assert np.array_equal(got_n, want_n)

    @pytest.mark.parametrize("window, widths", [
        # scan, then 5 Illinois points of its one bracket
        ((0.7, 0.8), [60] + [1] * 5),
        # scan; both node-count jumps split 16-fold beside the first
        # Illinois points of the scan's two brackets; 3 more points each,
        # then 3 more for the bracket still open
        (None, [240, 34 + 2] + [2] * 3 + [1] * 3),
        # the same from a 60-point scan of (0.7, 0.999): 3 more points
        # each, then 1 for the bracket still open
        ((0.7, 0.999), [60, 34 + 2] + [2] * 3 + [1])])
    def test_sweep_count(self, reference_system, monkeypatch, window,
                         widths):
        shoot = oracle._shoot
        seen = []

        def counted(ch, E, match_idx):
            seen.append(np.size(E))
            return shoot(ch, E, match_idx)

        monkeypatch.setattr(oracle, "_shoot", counted)
        scan = 60 if window else 240
        find_bound_states(reference_system, 0, window=window,
                          scan_points=scan)
        assert seen == widths

    @staticmethod
    def _mismatch(monkeypatch, f):
        """Replace _shoot by the mismatch f(E) at a node count of 0,
        recording each sweep's width."""
        seen = []

        def shoot(ch, E, match_idx):
            seen.append(np.size(E))
            return f(np.asarray(E)), np.zeros(np.size(E), dtype=int)

        monkeypatch.setattr(oracle, "_shoot", shoot)
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
        # false position on a convex mismatch creeps up on the root from
        # one side; once its estimate lies within the tolerance, a point
        # tol/2 past the kept end closes the bracket, where a 1% clip of
        # the bracket pushed it past the root and took 8 points
        root = 0.3 + math.pi * 1e-4
        seen = self._mismatch(monkeypatch,
                              lambda E: np.expm1(5.0 * (E - root)))
        (state,) = find_bound_states(reference_system, 0, window=(0.1, 0.9),
                                     scan_points=60)
        assert seen == [60] + [1] * 5
        assert abs(state.energy - root) <= 1e-10 * reference_system.m0
        assert state.converged

    def test_refinement_stops_at_the_step_cap(self, reference_system,
                                              monkeypatch):
        # a mismatch of -1e-300 below the root pins every false-position
        # point to the clip tol/2 above the lower end of a bracket far
        # wider than the tolerance: halving the upper end's mismatch 119
        # times never outweighs it, so the bracket narrows by tol/2 a step
        # and closes unconverged after 120 steps
        root = 0.3 + math.pi * 1e-4
        seen = self._mismatch(
            monkeypatch, lambda E: np.where(E < root, -1e-300, 1.0))
        (state,) = find_bound_states(reference_system, 0, window=(0.1, 0.9))
        assert seen == [240] + [1] * 120
        assert state.energy < root
        assert not state.converged

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
        # halving beta stretches the states until the default grid no
        # longer resolves the node ladder
        system = PhysicalSystem(V0=0.0005, beta=0.002, m0=1.0)
        rows = approximation_error(system, 0, 0, [0.002, 0.001])
        assert [row.status for row in rows] == ["ok", "grid_resolution"]
        assert rows[0].abs_err <= 1e-12
        last = rows[1]
        assert last.beta == 0.001
        assert last.E_approx is None and last.E_exact is None
        assert last.abs_err is None and last.rel_err is None

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

    def test_input_validation(self, reference_system):
        with pytest.raises(ValueError):
            approximation_error(reference_system, -1, 0, [0.2])
