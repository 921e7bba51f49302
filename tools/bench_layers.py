"""Per-layer timings of the reference configuration, written as JSON.

    python3 tools/bench_layers.py --out BENCH.json [--src DIR] [--repeat N]
    python3 tools/bench_layers.py --out BENCH.json --pair DIR [--rounds N]

Run from the root of a source checkout.  ``--src`` imports the package
from another checkout's ``src`` (to time a parent commit with the same
script); it defaults to this checkout's.  Every figure is the minimum of
N timed calls (default 30) after one untimed call, in seconds:

* ``serialize``: the CSV of the reference ``wavefunction`` table (4000 x 4
  floats), whole and split per block of rows into ``_decimal`` (digits and
  exponents), the slot fill (the rest of ``_float_slots``), the transpose
  and the ``translate`` that deletes unused slots, with the address mod
  4096 of each block's slot array (``slot_addr_mod_4096``): the transpose
  slows with 4 KiB aliasing, so a ratio that moves with these addresses
  and no serialize code is heap placement;
* ``solvers``: ``energy_root_solve`` and ``wavefunction`` of n = l = 0,
  ``energy_closed_form`` with ``satisfies_quantization`` on each level of
  n <= 3, l <= 2 (the closed-form spectrum's labels), one l = 0 oracle
  ``_channel`` build, the oracle's ``_shoot`` of 1, 2 and 240 energies
  over the binding window (the middle one, two and all of 240 evenly
  spaced), of 17 over (0.7, 0.8) and of 60 over (0.7, 0.999), each energy
  matched at its turning index, and one full-window l = 0 and l = 1
  ``find_bound_states``;
* ``shots``: the sweeps, the energies and the first-row energies that
  the oracle shoots, and its refinement sweeps (exact counts, not
  timings), counted by wrapping ``_shoot`` and ``find_bound_states``:
  per solve, the first sweep is its first scan row, and a later sweep of
  fewer than 15 energies holds no split row (a split row shoots 15 new
  energies, 17 before its ends were kept), so it only refines brackets.
  ``l0_*`` and ``l1_*`` count those two full-window
  solves; ``oracle_survey_*`` the full-window l <= 1 solves at beta and
  beta/2 of that workload's seed-72 systems (the reference and its
  design points, read with ``perfbench/workloads.draw_systems``), a
  failing solve counted up to its failure; ``validate_battery_*`` the
  narrow l = 0 scans of the validate battery on that workload's seed-72
  systems; ``reference_outward_steps`` and ``reference_inward_steps``
  are the padded step counts of the reference's l = 0 channel.

``--pair DIR`` times this checkout's ``src`` (change) against
``DIR/src`` (parent): each of N rounds (default 5) runs the single-side
form in fresh interpreters in the order change, parent, parent, change.
Per layer it writes both sides' median figure and the median of the
change/parent ratios of the two pairs of each round, with the ratios'
quartiles; ``shots`` holds both sides' counts and ``slot_addr_mod_4096``
each side's addresses, one list per run.

BLAS runs on one thread, as in ``perfbench``; the machine facts and that
pin are written with the timings.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PIN_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def best(repeat, fn, *args):
    """Minimum wall time of ``repeat`` calls, after one untimed call."""
    fn(*args)
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return min(times)


def serialize_layers(cli, table, repeat):
    """The CSV of ``table`` whole and split into its per-block stages."""
    blocks = [table.rows[start:start + cli._BLOCK_ROWS].ravel()
              for start in range(0, len(table.rows), cli._BLOCK_ROWS)]
    decimals = [cli._decimal(x) for x in blocks]
    slots = [cli._float_slots(x) for x in blocks]
    raw = [s.T.tobytes() for s in slots]
    decimal = cli._decimal

    def slot_fill():
        # _float_slots reads the digits computed above
        for x, result in zip(blocks, decimals):
            cli._decimal = lambda _x: result
            cli._float_slots(x)

    try:
        fill = best(repeat, slot_fill)
    finally:
        cli._decimal = decimal
    return {
        "block_rows": cli._BLOCK_ROWS,
        "slot_rows": [s.shape[0] for s in slots],
        "slot_addr_mod_4096": [s.ctypes.data % 4096 for s in slots],
        "total_s": best(repeat, cli.serialize, table, "csv"),
        "decimal_s": best(repeat, lambda: [decimal(x) for x in blocks]),
        "slot_fill_s": fill,
        "transpose_s": best(repeat, lambda: [s.T.tobytes() for s in slots]),
        "translate_s": best(repeat, lambda: [b.translate(None, b"\0")
                                             for b in raw]),
    }


def closed_form_labels(system):
    """The closed-form levels of n <= 3, l <= 2, each labelled."""
    from kghulthen import energy_closed_form, satisfies_quantization
    from kghulthen.errors import SolverError

    for n in range(4):
        for l in range(3):
            try:
                pair = energy_closed_form(system, n, l)
            except SolverError:
                continue
            for level in pair:
                satisfies_quantization(system, n, l, level.value)


def solver_layers(repeat):
    import numpy as np
    from kghulthen import (PhysicalSystem, energy_root_solve,
                           find_bound_states, oracle, wavefunction)
    from kghulthen.model import binding_window, default_grid

    system = PhysicalSystem(V0=0.1, beta=0.2, m0=1.0)
    energy = max(level.value for level in energy_root_solve(system, 0, 0))
    channel = oracle._channel(system, 0, "approx", default_grid(system))
    window = np.linspace(*binding_window(system), 240)

    def shot(E):
        powers = np.vander(E, 3, increasing=True).T
        match = oracle._nearest_crossing(channel.w, powers, channel.target)
        return best(repeat, oracle._shoot, channel, E, match)

    return {
        "energy_root_solve_s": best(repeat, energy_root_solve, system, 0, 0),
        "wavefunction_s": best(repeat, wavefunction, system, 0, 0, energy),
        "closed_form_labels_s": best(repeat, closed_form_labels, system),
        "channel_s": best(repeat, oracle._channel, system, 0, "approx",
                          default_grid(system)),
        "shoot_B1_s": shot(window[120:121]),
        "shoot_B2_s": shot(window[120:122]),
        "shoot_B17_s": shot(np.linspace(0.7, 0.8, 17)),
        "shoot_B60_s": shot(np.linspace(0.7, 0.999, 60)),
        "shoot_B240_s": shot(window),
        "find_bound_states_l0_s": best(max(1, repeat // 10),
                                       find_bound_states, system, 0),
        "find_bound_states_l1_s": best(max(1, repeat // 10),
                                       find_bound_states, system, 1),
    }


def shot_counts():
    """Sweeps, energies, first-row energies and refinement sweeps of the
    oracle solves that the module docstring names under ``shots``."""
    from dataclasses import replace

    from kghulthen import PhysicalSystem, oracle
    from kghulthen.checks import run_validation
    from kghulthen.errors import SolverError
    from kghulthen.model import default_grid

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import DESIGN, draw_systems

    reference = PhysicalSystem(V0=0.1, beta=0.2, m0=1.0)

    def systems(workload):
        return [reference] + [PhysicalSystem(**d) for d in
                              draw_systems(72, DESIGN[workload])]

    def survey():
        for system in systems("oracle_survey"):
            for beta in (system.beta, system.beta / 2.0):
                for l in (0, 1):
                    try:
                        oracle.find_bound_states(replace(system, beta=beta),
                                                 l)
                    except SolverError:
                        pass            # its sweeps up to the failure count

    def battery():
        for system in systems("validate_battery"):
            run_validation(system)

    shoot, solve, widths = oracle._shoot, oracle.find_bound_states, []

    def counted(ch, E, match_idx):
        widths.append(len(E))
        return shoot(ch, E, match_idx)

    def marked(*args, **kwargs):
        widths.append(None)             # the next sweep is a first row
        return solve(*args, **kwargs)

    counts = {}
    oracle._shoot, oracle.find_bound_states = counted, marked
    try:
        for name, run in (
                ("l0", lambda: oracle.find_bound_states(reference, 0)),
                ("l1", lambda: oracle.find_bound_states(reference, 1)),
                ("oracle_survey", survey), ("validate_battery", battery)):
            widths.clear()
            run()
            sweeps = [x for x in widths if x is not None]
            counts[f"{name}_sweeps"] = len(sweeps)
            counts[f"{name}_energies"] = sum(sweeps)
            counts[f"{name}_first_row"] = sum(
                b for a, b in zip(widths, widths[1:])
                if a is None and b is not None)
            counts[f"{name}_refinement_sweeps"] = sum(
                None not in (a, b) and b < 15
                for a, b in zip(widths, widths[1:]))
    finally:
        oracle._shoot, oracle.find_bound_states = shoot, solve
    channel = oracle._channel(reference, 0, "approx", default_grid(reference))
    outward, inward = channel.table
    counts["reference_outward_steps"] = len(outward)
    counts["reference_inward_steps"] = len(inward)
    return counts


def one_side(src, repeat):
    """The single-side result for the package at ``src``, measured in a
    fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "side.json"
        subprocess.run([sys.executable, __file__, "--out", str(out),
                        "--src", str(src), "--repeat", str(repeat)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())


def timings(result):
    """{"group.name": seconds} of one single-side result."""
    return {f"{group}.{name}": value for group in ("serialize", "solvers")
            for name, value in result[group].items() if name.endswith("_s")}


def paired(parent_src, rounds, repeat):
    """This checkout against ``parent_src``, in ABBA rounds (module
    docstring)."""
    srcs = {"change": ROOT / "src", "parent": Path(parent_src)}
    runs, shots = {"change": [], "parent": []}, {}
    addrs = {"change": [], "parent": []}
    for _ in range(rounds):
        for side in ("change", "parent", "parent", "change"):
            result = one_side(srcs[side], repeat)
            runs[side].append(timings(result))
            shots[side] = result["shots"]       # exact: every run agrees
            addrs[side].append(result["serialize"]["slot_addr_mod_4096"])
    layers = {}
    for name in runs["change"][0]:
        change = [run[name] for run in runs["change"]]
        parent = [run[name] for run in runs["parent"]]
        q1, ratio, q3 = statistics.quantiles(
            [c / p for c, p in zip(change, parent)], n=4, method="inclusive")
        layers[name] = {"change_s": statistics.median(change),
                        "parent_s": statistics.median(parent),
                        "ratio": ratio, "ratio_q1": q1, "ratio_q3": q3}
    return {"machine": result["machine"], "repeat": repeat, "rounds": rounds,
            "layers": layers, "shots": shots, "slot_addr_mod_4096": addrs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    side = parser.add_mutually_exclusive_group()
    side.add_argument("--src", default=str(ROOT / "src"),
                      help="the package's source directory")
    side.add_argument("--pair", metavar="DIR",
                      help="a parent checkout to time against this one")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.pair is not None:
        result = paired(Path(args.pair) / "src", args.rounds, args.repeat)
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        for name, layer in result["layers"].items():
            print(f"{name}: {layer['parent_s']:.3g} -> {layer['change_s']:.3g}"
                  f" s, ratio {layer['ratio']:.3f} "
                  f"[{layer['ratio_q1']:.3f}, {layer['ratio_q3']:.3f}]")
        return 0
    os.environ.update(PIN_THREADS)          # before NumPy loads BLAS
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy
    from kghulthen import cli

    source = (ROOT / "configs" / "reference.json").read_text()
    table = cli.execute(cli.parse_config(source, {"command": "wavefunction"}))
    result = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "processor": platform.processor() or platform.machine(),
                    **{var: os.environ.get(var, "") for var in PIN_THREADS}},
        "repeat": args.repeat,
        "serialize": serialize_layers(cli, table, args.repeat),
        "solvers": solver_layers(args.repeat),
        "shots": shot_counts(),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for group in ("serialize", "solvers", "shots"):
        for name, value in result[group].items():
            print(f"{group}.{name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
