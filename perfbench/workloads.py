"""Seeded request streams for the benchmark workloads.

Every workload draws systems (V0, beta, m0=1, m1) from one fixed parameter
box, always starting with ``configs/reference.json``.  The draws follow a
fixed space-filling design of the box, the Halton sequence in bases 2, 3
and 5, and the seed moves every design point by up to JITTER of the box's
width on each axis.  So each seed gives other inputs, while the mix of
cheap systems (over-attractive origin, early GridResolution) and expensive
ones, which decides what a pass costs, stays the same from seed to seed.
The program only ever sees the generated configs.

A request is what one CLI call carries: the text of a config file and the
parsed command-line flags, handed to ``kghulthen.cli.parse_config``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# The parameter box.  m0 is the unit of energy.  It is not narrowed to
# avoid systems that fail: a failure inside it is a finding.
BOX = {"V0": (0.05, 0.20), "beta": (0.10, 0.50), "m1": (0.0, 0.30)}
M0 = 1.0

JITTER = 0.01     # share of each axis a seed may move a design point

# Design points (Halton indices) of one pass.  spectrum_analytic takes the
# first twenty.  An oracle request costs seconds, so the oracle workloads
# take few points, chosen so that their known failures show: approx-error
# raises GridResolution at point 2, and validate's oracle_node_counts fails
# at point 4.  validate_battery also takes points 1 and 2, so that its
# printed median request is the mean of two similar ones and not whichever
# of three validate calls happens to sit in the middle.  A pass takes 20 to
# 35 s at the commit that introduced the benchmark (2 shared CPUs).
DESIGN = {"spectrum_analytic": tuple(range(1, 21)), "oracle_survey": (2,),
          "validate_battery": (1, 2, 4)}

WORKLOADS = tuple(DESIGN)


@dataclass(frozen=True)
class Request:
    """One CLI-equivalent invocation."""

    label: str            # which system: "reference" or "pointNN"
    system: dict          # the config file's keys
    options: dict = field(default_factory=dict)   # command-line flags

    @property
    def command(self) -> str:
        return self.options["command"]

    def source(self) -> str:
        return json.dumps(self.system, sort_keys=True)

    def describe(self) -> str:
        flags = {k: v for k, v in self.options.items() if k != "command"}
        return (f"{self.label} {self.source()} {self.command} "
                f"{json.dumps(flags, sort_keys=True)}")


def _radical_inverse(index: int, base: int) -> float:
    out, scale = 0.0, 1.0
    while index:
        scale /= base
        out += scale * (index % base)
        index //= base
    return out


def draw_systems(seed: int, indices):
    """The design points ``indices`` of BOX, moved by the seed."""
    rng = random.Random(seed)
    out = []
    for index in indices:
        system = {}
        for base, (key, (lo, hi)) in zip((2, 3, 5), BOX.items()):
            u = _radical_inverse(index, base) + JITTER * rng.uniform(-1, 1)
            system[key] = round(lo + (hi - lo) * min(max(u, 0.0), 1.0), 4)
        out.append({"V0": system["V0"], "beta": system["beta"], "m0": M0,
                    "m1": system["m1"]})
    return out


def systems(root: Path, workload: str, seed: int):
    """(label, config) pairs of one pass: the reference config, then draws."""
    reference = json.loads((root / "configs" / "reference.json").read_text())
    indices = DESIGN[workload]
    draws = draw_systems(seed, indices)
    return [("reference", reference)] + [
        (f"point{index:02d}", system) for index, system in zip(indices, draws)]


def first_requests(workload: str, label: str, system: dict):
    """The requests a client sends for one system, before any follow-up."""
    if workload == "spectrum_analytic":
        return [Request(label, system, {"command": "spectrum", "n_max": 3,
                                        "l_max": 2}),
                Request(label, system, {"command": "spectrum", "n_max": 3,
                                        "l_max": 2,
                                        "method": "closed_form"})]
    if workload == "oracle_survey":
        # the drawn beta and its half: one halving step of the CLI's
        # default screening chain
        beta = float(system["beta"])
        return [Request(label, system, {"command": "spectrum", "n_max": 2,
                                        "l_max": 1, "method": "oracle"}),
                Request(label, system, {"command": "approx_error",
                                        "n_max": 0, "l_max": 0,
                                        "betas": [beta, beta / 2.0]})]
    if workload == "validate_battery":
        return [Request(label, system, {"command": "validate"})]
    raise ValueError(f"unknown workload {workload!r}")


def follow_ups(request: Request, rows):
    """Requests a client sends after seeing ``rows`` from ``request``.

    For every state the default-method spectrum reports ``ok``, fetch its
    wavefunction.
    """
    if (request.command != "spectrum" or "method" in request.options
            or rows is None):
        return []
    return [Request(request.label, request.system,
                    {"command": "wavefunction", "n_max": row["n"],
                     "l_max": row["l"], "branch": row["branch"]})
            for row in rows if row["status"] == "ok"]
