"""Validation battery: how oracle states meet the closed-form levels."""

from kghulthen import PhysicalSystem, energy_root_solve, find_bound_states
from kghulthen.checks import run_validation
from kghulthen.hulthen_analytic import branch_labels


def test_oracle_pair_sharing_n_meets_both_branches():
    # a Klein-Gordon pair with n=0 on both branches, plus an n=1 upper
    # state just below threshold that the 60-point scan misses (the
    # oracle half of ROADMAP direction 1)
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
    # only the n=1 state can be unmatched, not the two n=0 ones
    assert rows["oracle_node_counts"].value <= 1.0
