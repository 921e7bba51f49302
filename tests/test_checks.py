"""Validation battery: how oracle states meet the closed-form levels."""

from kghulthen import (PhysicalSystem, energy_root_solve, find_bound_states,
                       main, oracle)
from kghulthen.checks import run_validation
from kghulthen.hulthen_analytic import branch_labels
from kghulthen.model import binding_window


def test_oracle_pair_sharing_n_meets_both_branches():
    # a Klein-Gordon pair with n=0 on both branches, plus an n=1 upper
    # state just below threshold
    system = PhysicalSystem(V0=0.0702, beta=0.2794, m0=1.0, m1=0.2391)
    roots = energy_root_solve(system, 0, 0)
    assert [r.branch for r in roots] == ["lower", "upper"]
    pad = 0.01 * system.asymptotic_mass
    window = (roots[0].value - pad, roots[1].value + pad)
    energies = [d.energy for d in find_bound_states(
        system, 0, window=window, scan_points=60) if d.node_count == 0]
    assert branch_labels(system, 0, 0, energies) == ["lower", "upper"]
    for E, root in zip(energies, roots):
        assert abs(E - root.value) <= 1e-6 * abs(root.value)
    rows = {c.name: c for c in run_validation(system)}
    assert rows["oracle_agreement_l0"].passed
    # the n=1 state beside the threshold is found too: none unmatched
    assert rows["oracle_node_counts"].value == 0.0


def test_state_beside_threshold_jump_is_found():
    # the n=1 upper state sits 0.0008 below threshold, in the last piece of
    # a split scan jump that jumps again; validate's 60-point scan finds
    # all three l=0 levels
    system = PhysicalSystem(V0=0.0675, beta=0.2785, m0=1.0, m1=0.2429)
    levels = sorted((lv.value, lv.n) for n in range(8)
                    for lv in energy_root_solve(system, n, 0))
    assert [n for _, n in levels] == [0, 0, 1]
    pad = 0.01 * system.asymptotic_mass
    lo, hi = binding_window(system)
    window = (max(levels[0][0] - pad, lo), min(levels[-1][0] + pad, hi))
    states = find_bound_states(system, 0, window=window, scan_points=60)
    assert [d.node_count for d in states] == [0, 0, 1]
    for d, (E, _) in zip(states, levels):
        assert abs(d.energy - E) <= 1e-6
    assert main(["validate", "--V0", "0.0675", "--beta", "0.2785",
                 "--m0", "1", "--m1", "0.2429"]) == 0


def test_one_l0_scan_serves_both_modes(reference_system, monkeypatch):
    # at l=0 the two centrifugal modes are one equation: the battery scans
    # once, and mode_agreement_l0 compares the two modes' W at E=0
    modes = []
    real = oracle.find_bound_states
    monkeypatch.setattr(oracle, "find_bound_states", lambda *a, **k: (
        modes.append(k["mode"]) or real(*a, **k)))
    rows = {c.name: c for c in run_validation(reference_system)}
    assert modes == ["approx"]
    assert rows["oracle_agreement_l0"].passed
    assert rows["mode_agreement_l0"].value == 0.0
    assert rows["mode_agreement_l0"].passed


def test_battery_builds_one_channel_of_step_tables(reference_system,
                                                   monkeypatch):
    # the l=0 scan builds its channel's tables once; comparing the modes
    # reads W, not a second channel's tables
    channel = oracle._channel
    built = []
    monkeypatch.setattr(oracle, "_channel", lambda *args: (
        built.append(args[1:3]) or channel(*args)))
    run_validation(reference_system)
    assert built == [(0, "approx")]


def test_mode_agreement_fails_on_a_broken_l0_term(reference_system,
                                                  monkeypatch):
    # a centrifugal term that is not 0 at l=0 in approx mode
    real = PhysicalSystem.centrifugal_at

    def broken(self, l, r, mode="exact"):
        return real(self, l, r, mode) + (1e-3 if mode == "approx" else 0.0)

    monkeypatch.setattr(PhysicalSystem, "centrifugal_at", broken)
    rows = {c.name: c for c in run_validation(reference_system)}
    assert not rows["mode_agreement_l0"].passed
    assert rows["mode_agreement_l0"].value > 1e-9
