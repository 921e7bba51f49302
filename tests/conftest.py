"""Shared parameter sets and frozen expected values.

The energy tables were computed independently before the library existed:
closed-form values with 50-digit arithmetic (mpmath) from the quadratic
energy relation, shooting-oracle values with a standalone prototype
integrator.  They are pinned here so the tests detect regressions in
either solver, not merely self-consistency.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kghulthen import PhysicalSystem

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def reference_system():
    """The shipped reference configuration (constant mass)."""
    return PhysicalSystem(V0=0.1, beta=0.2, m0=1.0)


@pytest.fixture(scope="session")
def set_a():
    return PhysicalSystem(V0=0.2, beta=0.05, m0=1.0, m1=0.2)


@pytest.fixture(scope="session")
def set_b():
    return PhysicalSystem(V0=0.11, beta=0.1, m0=1.0, m1=0.1)


@pytest.fixture(scope="session")
def set_c():
    return PhysicalSystem(V0=0.1, beta=0.08, m0=1.0, m1=0.1)


@pytest.fixture(scope="session")
def shallow_long_system():
    """Weak well with slow screening: seven l=0 bound states."""
    return PhysicalSystem(V0=0.0098, beta=0.02, m0=1.0)


@pytest.fixture(scope="session")
def fixture_system():
    """Strong screening with a position-dependent mass; used for hand-checked
    coefficient values (at l=1, E=0.5 the three quadratic-form coefficients
    are exactly 3.75, -4.1, 1.91)."""
    return PhysicalSystem(V0=0.25, beta=0.5, m0=1.0, m1=0.2)


# genuine closed-form energies, 50-digit arithmetic, keyed by (n, l)
REFERENCE_TRUE = {
    (0, 0): 0.75533679898329422384,
    (1, 0): 0.98674969975975973232,
    (0, 1): 0.99841345094195473615,
}
# (n, l) pairs whose quadratic roots are both reflection artifacts
REFERENCE_ALL_SPURIOUS = [(2, 0), (1, 1), (2, 1)]
# every quadratic root of the reference system for n <= 2, l <= 1:
# (n, l) -> (lower, upper)
REFERENCE_PAIRS = {
    (0, 0): (-0.65533679898329421829, 0.75533679898329422384),
    (1, 0): (-0.88674969975975972677, 0.98674969975975973232),
    (2, 0): (-0.89817638735546537879, 0.99817638735546538434),
    (0, 1): (-0.89841345094195473059, 0.99841345094195473615),
    (1, 1): (-0.8915296670417979011, 0.99152966704179790665),
    (2, 1): (-0.86144605108428501116, 0.96144605108428501671),
}

SET_A_TRUE = {
    (0, 0): -0.69446601546397744194,
    (1, 0): -0.44139428900508247434,
    (0, 1): -0.44139428900508247434,
    (1, 1): -0.15514021754043402032,
}
SET_B_TRUE = {
    (0, 0): -0.23319568337808178585,
    (1, 0): 0.48970914851727103829,
    (0, 1): 0.57462961042835535273,
    (1, 1): 0.77935905991539513949,
}
SET_C_TRUE = {
    (0, 0): -0.15937964921528865987,
    (1, 0): 0.46291536816015665038,
    (0, 1): 0.46291536816015665038,
    (1, 1): 0.71132014734517260819,
}

SHALLOW_TRUE_L0 = [
    0.77914983295851672864,
    0.96090631938749086649,
    0.98725023054431475003,
    0.9951071149971751766,
]


def box_draws(seed, indices):
    """The benchmark's draws ``draw_systems(seed, indices)`` from its
    parameter box (``perfbench/workloads.py``), as PhysicalSystems."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module      # its dataclasses look it up there
        spec.loader.exec_module(module)
    return [PhysicalSystem(**d)
            for d in sys.modules[name].draw_systems(seed, indices)]


def signed_draws(count, seed, depth=0.3):
    """Seeded draws, V0 of both signs up to ``depth`` and m1 up to 0.9
    (m0 = 1)."""
    rng = np.random.default_rng(seed)
    return [PhysicalSystem(V0=float(rng.uniform(-depth, depth)),
                           beta=float(rng.uniform(0.05, 0.6)), m0=1.0,
                           m1=float(rng.uniform(0.0, 0.9)))
            for _ in range(count)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria pass/fail lines after the test run."""
    try:
        from test_acceptance import RESULTS
    except Exception:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
