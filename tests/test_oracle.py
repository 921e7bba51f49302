"""Shooting oracle: ODE coefficient, bound-state search, error table."""

import logging
import math
import re
import warnings

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
        assert [d.node_count for d in states] == [0, 1, 2, 3, 4]
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

    def test_supercritical_origin_raises(self):
        deep = PhysicalSystem(V0=0.9, beta=0.05, m0=1.0)
        with pytest.raises(InvalidRegime, match="over-attractive"):
            find_bound_states(deep, 0)

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
        (0.1, 0.2, 0.0, 1, 60)])
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

    def test_jump_at_a_root_is_split_down_to_tolerance(
            self, reference_system, monkeypatch, caplog):
        # node count and mismatch both switch at one energy: the piece
        # holding it is split until narrower than the refinement tolerance,
        # then named in a warning and refined as a bracket, not dropped
        root = 0.3 + math.pi * 1e-4
        monkeypatch.setattr(
            oracle, "_shoot", lambda system, l, mode, E, grid, match_idx: (
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

    def test_grid_resolution_names_a_plain_energy(self):
        # this system's node count drops just below its lowest negative
        # level; the message names that energy as a plain float
        system = PhysicalSystem(V0=0.0702, beta=0.2794, m0=1.0, m1=0.2391)
        with pytest.raises(GridResolution) as exc:
            find_bound_states(system, 0)
        msg = str(exc.value)
        assert re.search(r"near E=-0\.75\d+:", msg)
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
    E2 = (E / system.hbar_c) ** 2

    def W(r):
        w0, w1 = oracle._w_parts(system, l, mode, r)
        return w0[:, None] + w1[:, None] * E - E2

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

    _, cm1c, cm1l, g = oracle._origin_series(system, l)
    c1 = (cm1c + cm1l * E) / (2.0 * g)
    f_out, o_phi, o_p = run(outward, 1.0 + c1 * grid.r_min,
                            g / grid.r_min + c1 * (g + 1.0), 0)
    f_in, i_phi, i_p = run(inward, np.ones(E.size),
                           -np.sqrt(np.maximum(Wg[-1], 0.0)), K - 1)
    nodes = np.array([f_out[:m, b].sum() + f_in[m:, b].sum()
                      for b, m in enumerate(match_idx)])
    wr = o_p * i_phi - i_p * o_phi
    return wr / (np.abs(o_p * i_phi) + np.abs(i_p * o_phi) + 1e-300), nodes


class TestChunkedSweep:
    def test_rk4_map_is_one_rk4_step(self):
        # the four coefficients are the images of (1, 0) and (0, 1) under
        # one reference RK4 step, to 1e-14 of each coefficient's own scale
        rng = np.random.default_rng(7)
        h = rng.uniform(-0.5, 0.5, 2000)
        h[:20] = 0.0
        Wa, Wm, Wb = rng.uniform(-20.0, 20.0, (3, h.size))
        one, zero = np.ones(h.size), np.zeros(h.size)
        (m11, m21), (m12, m22) = (_rk4(one, zero, h, Wa, Wm, Wb),
                                  _rk4(zero, one, h, Wa, Wm, Wb))
        got = oracle._rk4_map(h, Wa, Wm, Wb)
        scale = (1.0, np.abs(h),
                 np.abs(h) * (np.abs(Wa) + 4.0 * np.abs(Wm) + np.abs(Wb))
                 / 6.0, 1.0)
        for g, want, s in zip(got, (m11, m12, m21, m22), scale):
            assert np.all(np.abs(g - want) <= 1e-14 * s)
        # h = 0 is the identity, exactly
        assert np.all(got[0][:20] == 1.0) and np.all(got[3][:20] == 1.0)
        assert np.all(got[1][:20] == 0.0) and np.all(got[2][:20] == 0.0)

    @pytest.mark.parametrize("name", ["reference_system", "set_a"])
    @pytest.mark.parametrize("points", [100, 120, 4000])
    def test_matches_stepwise_sweep(self, name, points, request):
        system = request.getfixturevalue(name)
        span = default_grid(system)
        grid = RadialGrid(r_min=span.r_min, r_max=span.r_max, points=points)
        l, mode = (0, "approx") if name == "reference_system" else (1, "exact")
        outward, inward = oracle._tables(system, l, mode, grid)
        # K - 1 inward steps are not a multiple of the chunk length
        assert inward.h[-1] == 0.0
        # widths that make the chunk-length rule pick each of its lengths on
        # the 4000-point grid; each batch matches at node 2, at the last node
        # of an outward and of an inward chunk of its own length (the chunk's
        # last step, where that reaches a node), and at node K - 2
        widths = [240, 60, 34, 17, 1]
        K = grid.points
        m_inf = system.asymptotic_mass
        E = np.linspace(-m_inf + 1e-6, m_inf - 1e-6, sum(widths))
        batches = np.split(np.random.default_rng(0).permutation(E.size),
                           np.cumsum(widths)[:-1])
        match = np.empty(E.size, dtype=int)
        lengths = set()
        for sel in batches:
            L_out = oracle._chunk_length(outward.h.size, sel.size)
            L_in = oracle._chunk_length(inward.h.size, sel.size)
            lengths |= {L_out, L_in}
            ends = outward.node.reshape(-1, L_out).max(axis=1)
            match[sel] = np.resize(
                [2, ends[ends >= 0][-2], inward.node[L_in - 1], K - 2],
                sel.size)
        if points == 4000:
            assert lengths == {16, 32, 64, 128}
        want_m, want_n = _stepwise_shoot(system, l, mode, E, grid, match)
        for sel in batches:
            got_m, got_n = oracle._shoot(system, l, mode, E[sel], grid,
                                         match[sel])
            assert np.max(np.abs(got_m - want_m[sel])) <= 1e-12
            assert np.array_equal(got_n, want_n[sel])

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
        match = np.where(rng.random(width) < 0.5,
                         oracle._turning_indices(system, l, mode, E, grid),
                         rng.integers(2, grid.points - 1, width))
        try:
            got_m, got_n = oracle._shoot(system, l, mode, E, grid, match)
        except InvalidRegime:
            reject()
        want_m, want_n = _stepwise_shoot(system, l, mode, E, grid, match)
        assert np.max(np.abs(got_m - want_m)) <= 1e-12
        assert np.array_equal(got_n, want_n)

    @pytest.mark.parametrize("window, widths", [
        # scan, both ends of the one bracket, 7 Illinois steps, final
        ((0.7, 0.8), [60, 2] + [1] * 7 + [1]),
        # scan, both node-count jumps subdivided in one sweep, both ends of
        # two brackets, 8 Illinois steps, final
        (None, [240, 34, 4] + [2] * 8 + [2])])
    def test_sweep_count(self, reference_system, monkeypatch, window,
                         widths):
        shoot = oracle._shoot
        seen = []

        def counted(system, l, mode, E, grid, match_idx):
            seen.append(np.size(E))
            return shoot(system, l, mode, E, grid, match_idx)

        monkeypatch.setattr(oracle, "_shoot", counted)
        scan = 60 if window else 240
        find_bound_states(reference_system, 0, window=window,
                          scan_points=scan)
        assert seen == widths

    def test_exact_zero_mismatch_ends_refinement(self, reference_system,
                                                 monkeypatch):
        # false position lands exactly on the root of a linear mismatch;
        # the refined energy must be that root, not a point beside it
        monkeypatch.setattr(
            oracle, "_shoot", lambda system, l, mode, E, grid, match_idx: (
                np.asarray(E) - 0.5, np.zeros(np.size(E), dtype=int)))
        (state,) = oracle._refine_batch(
            reference_system, 0, "approx", [(0.0, 1.0)],
            default_grid(reference_system), 1e-10)
        assert state.energy == 0.5
        assert state.converged

    def test_bracket_without_sign_change_is_named(self, reference_system,
                                                  monkeypatch, caplog):
        monkeypatch.setattr(
            oracle, "_shoot", lambda system, l, mode, E, grid, match_idx: (
                np.asarray(E) + 1.0, np.zeros(np.size(E), dtype=int)))
        with caplog.at_level(logging.WARNING, logger="kghulthen.oracle"):
            assert oracle._refine_batch(
                reference_system, 0, "approx", [(0.0, 1.0)],
                default_grid(reference_system), 1e-10) == []
        assert len(caplog.records) == 1
        assert "(0.0, 1.0)" in caplog.records[0].getMessage()

    def test_dropped_bracket_takes_no_false_position_step(
            self, reference_system, monkeypatch, caplog):
        # the first bracket's mismatch is constant (fa == fb), the second
        # changes sign at 2.5; only the second is refined, and the dropped
        # one must not reach the false-position division
        monkeypatch.setattr(
            oracle, "_shoot", lambda system, l, mode, E, grid, match_idx: (
                np.where(np.asarray(E) < 1.5, 1.0, np.asarray(E) - 2.5),
                np.zeros(np.size(E), dtype=int)))
        with warnings.catch_warnings(), \
                caplog.at_level(logging.WARNING, logger="kghulthen.oracle"):
            warnings.simplefilter("error")
            (state,) = oracle._refine_batch(
                reference_system, 0, "approx", [(0.0, 1.0), (2.0, 3.0)],
                default_grid(reference_system), 1e-10)
        assert state.energy == pytest.approx(2.5, abs=1e-10)
        assert state.converged
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "(0.0, 1.0)" in message and "(2.0, 3.0)" not in message

    def test_refined_energy_does_not_depend_on_the_batch(self):
        # the sweep's rounding depends on the batch width, and false
        # position amplifies it; a bracket refined alone and next to the
        # channel's other bracket still meets one root within the tolerance
        system = PhysicalSystem(V0=0.1065, beta=0.185, m0=1.0, m1=0.0703)
        grid = default_grid(system)
        tol = 1e-10 * system.m0
        bracket = (0.8666694905932205, 0.8981847447966104)
        other = (0.929330679614804, 0.9294537860765361)
        (alone,) = oracle._refine_batch(system, 1, "approx", [bracket], grid,
                                        tol)
        together, _ = oracle._refine_batch(system, 1, "approx",
                                           [bracket, other], grid, tol)
        assert abs(alone.energy - together.energy) <= tol
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
        # halving beta deepens the effective well until the default grid
        # no longer resolves the node ladder (design point 2 of the
        # benchmark's oracle survey)
        system = PhysicalSystem(V0=0.087, beta=0.364, m0=1.0, m1=0.12)
        rows = approximation_error(system, 0, 0, [0.364, 0.182])
        assert [row.status for row in rows] == ["ok", "grid_resolution"]
        assert rows[0].abs_err <= 1e-12
        last = rows[1]
        assert last.beta == 0.182
        assert last.E_approx is None and last.E_exact is None
        assert last.abs_err is None and last.rel_err is None

    def test_s_channel_error_is_solver_noise(self, reference_system):
        rows = approximation_error(reference_system, 0, 0, [0.2])
        assert rows[0].status == "ok"
        assert rows[0].abs_err <= 1e-12

    def test_input_validation(self, reference_system):
        with pytest.raises(ValueError):
            approximation_error(reference_system, -1, 0, [0.2])
