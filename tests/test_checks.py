"""Validation battery: how oracle states meet the closed-form levels."""

import dataclasses

import pytest

from kghulthen import (PhysicalSystem, energy_root_solve, find_bound_states,
                       main, oracle)
from kghulthen import hulthen_analytic as ha
from kghulthen.checks import run_validation
from kghulthen.model import binding_window


def test_oracle_pair_sharing_n_meets_both_branches():
    # a Klein-Gordon pair with n=0 on both branches, plus an n=1 upper
    # state just below threshold
    system = PhysicalSystem(V0=0.0702, beta=0.2794, m0=1.0, m1=0.2391)
    roots = energy_root_solve(system, 0, 0)
    assert [r.branch for r in roots] == ["lower", "upper"]
    pad = 0.01 * system.asymptotic_mass
    window = (roots[0].value - pad, roots[1].value + pad)
    states = [d for d in find_bound_states(
        system, 0, window=window, scan_points=60) if d.node_count == 0]
    assert [d.branch for d in states] == ["lower", "upper"]
    for d, root in zip(states, roots):
        assert abs(d.energy - root.value) <= 1e-6 * abs(root.value)
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


def test_root_gap_near_zero_energy_is_read_on_the_solve_scale():
    # a genuine level at E = -3.11 of m0 = 1e4: the root solve stops within
    # an absolute 1e-12*m0, so the row divides the gap by 1e-3*m0, not by
    # |E| (against |E| it read 1.33e-9)
    system = PhysicalSystem(V0=189.9176304301875, beta=1.0, m0=10000.0,
                            m1=7638.992928766975)
    rows = {c.name: c for c in run_validation(system)}
    assert rows["closed_vs_root_solve"].passed


def test_root_gap_of_2e_9_fails(reference_system, monkeypatch):
    # every reference level sits at |E| >= 1e-3*m0, where the row is the
    # gap relative to |E|: roots moved by 2e-9 of their value fail it
    solve = ha.energy_root_solve
    monkeypatch.setattr(ha, "energy_root_solve", lambda *args: [
        dataclasses.replace(lv, value=lv.value * (1.0 + 2e-9))
        for lv in solve(*args)])
    row = {c.name: c for c in run_validation(reference_system)}[
        "closed_vs_root_solve"]
    assert not row.passed
    assert row.value == pytest.approx(2e-9, rel=1e-3)


def test_reduction_gap_near_zero_energy_is_read_on_the_solve_scale(capsys):
    # the n = 2 lower roots of the two closed forms, 1.3e-15 and 8.5e-16,
    # differ by 4.7e-16: against |E| the row read 0.553 and failed, on
    # the scale 1e-3*m0 it reads 4.7e-13
    assert main(["validate", "--V0", "0.24282957427032842", "--beta", "0.69",
                 "--m0", "1"]) == 0
    row, = (r for r in capsys.readouterr().out.splitlines()
            if r.startswith("constant_mass_reduction,"))
    assert row.split(",")[1] == "pass"


def test_reduction_gap_of_2e_12_fails(reference_system, monkeypatch):
    # every reference level sits at |E| >= 1e-3*m0, where the row is the
    # gap relative to |E|: reduced roots moved by 2e-12 of their value fail
    reduced = ha.energy_constant_mass_s
    monkeypatch.setattr(ha, "energy_constant_mass_s", lambda *args: [
        dataclasses.replace(lv, value=lv.value * (1.0 + 2e-12))
        for lv in reduced(*args)])
    row = {c.name: c for c in run_validation(reference_system)}[
        "constant_mass_reduction"]
    assert not row.passed
    assert row.value == pytest.approx(2e-12, rel=1e-2)


def test_oracle_gap_near_zero_energy_is_read_on_the_solve_scale(capsys):
    # the l = 0 upper n = 0 level lies at 8.8e-17 and the oracle meets it to
    # 5.2e-11 absolute, inside its 1e-10*m0 stop: against |E| the row read
    # 5.99e5 and failed, on the scale 1e-3*m0 it passes
    assert main(["validate", "--V0", "0.37161178185849897", "--m1",
                 "0.37161178185849897", "--beta", "0.3", "--m0", "1"]) == 0
    row, = (r for r in capsys.readouterr().out.splitlines()
            if r.startswith("oracle_agreement_l0,"))
    assert row.split(",")[1] == "pass"


def test_oracle_gap_of_2e_6_fails(reference_system, monkeypatch):
    # every reference level sits at |E| >= 1e-3*m0, where the row is the
    # gap relative to |E|: oracle states moved by 2e-6 of their value fail
    solve = oracle.find_bound_states
    monkeypatch.setattr(oracle, "find_bound_states", lambda *a, **k: [
        dataclasses.replace(d, energy=d.energy * (1.0 + 2e-6))
        for d in solve(*a, **k)])
    row = {c.name: c for c in run_validation(reference_system)}[
        "oracle_agreement_l0"]
    assert not row.passed
    assert row.value == pytest.approx(2e-6, rel=1e-3)
