"""``tools/bench_layers.py`` runs end to end and writes its JSON layout.

The harness calls private layers (``_shoot``, ``_decimal``,
``_float_slots``) by name, so a change to one of them can break it without
any other test noticing.  One repeat of every timing takes about a second.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the sweeps, energies, first-row energies and refinement sweeps (exact)
# of the reference's full-window solves, of the seed-72 oracle_survey
# systems' full-window l <= 1 solves at beta and beta/2, and of the
# seed-72 validate_battery systems' narrow l = 0 scans; and the padded
# step counts of the reference's l = 0 channel on its 4000-node mesh
_SHOTS = {"l0_sweeps": 5, "l0_energies": 74, "l0_first_row": 32,
          "l0_refinement_sweeps": 3,
          "l1_sweeps": 5, "l1_energies": 24, "l1_first_row": 3,
          "l1_refinement_sweeps": 3,
          "oracle_survey_sweeps": 32, "oracle_survey_energies": 420,
          "oracle_survey_first_row": 112,
          "oracle_survey_refinement_sweeps": 18,
          "validate_battery_sweeps": 18, "validate_battery_energies": 305,
          "validate_battery_first_row": 162,
          "validate_battery_refinement_sweeps": 10,
          "reference_outward_steps": 4096, "reference_inward_steps": 4096}


def test_one_repeat_writes_every_figure(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_layers.py"),
         "--repeat", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"machine", "repeat", "serialize", "solvers",
                           "shots"}
    assert result["repeat"] == 1
    assert {"nproc", "python", "numpy", "processor",
            "OPENBLAS_NUM_THREADS"} <= set(result["machine"])
    assert set(result["serialize"]) == {
        "block_rows", "slot_rows", "slot_addr_mod_4096", "total_s",
        "decimal_s", "slot_fill_s", "transpose_s", "translate_s"}
    # one address per block, as the heap placed it
    addrs = result["serialize"]["slot_addr_mod_4096"]
    assert len(addrs) == len(result["serialize"]["slot_rows"]) == 4
    assert all(isinstance(a, int) and 0 <= a < 4096 for a in addrs)
    assert set(result["solvers"]) == {
        "energy_root_solve_s", "wavefunction_s", "closed_form_labels_s",
        "channel_s", "shoot_B1_s", "shoot_B2_s", "shoot_B17_s", "shoot_B60_s",
        "shoot_B240_s", "find_bound_states_l0_s", "find_bound_states_l1_s"}
    # the shots are exact; the first rows are some of the energies, and
    # the refinement sweeps some of the sweeps
    shots = result["shots"]
    assert shots == _SHOTS
    for name in ("l0", "l1", "oracle_survey", "validate_battery"):
        assert 0 < shots[f"{name}_first_row"] < shots[f"{name}_energies"]
        assert 0 < shots[f"{name}_refinement_sweeps"] < shots[
            f"{name}_sweeps"]
    timings = [v for group in ("serialize", "solvers")
               for k, v in result[group].items() if k.endswith("_s")]
    assert all(isinstance(t, float) and t > 0.0 for t in timings)


def test_pair_with_the_same_checkout(tmp_path):
    # one ABBA round: both sides are this checkout, timed in fresh
    # interpreters, with a ratio per layer and both sides' exact shots
    out = tmp_path / "pair.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_layers.py"),
         "--pair", str(ROOT), "--rounds", "1", "--repeat", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"machine", "repeat", "rounds", "layers", "shots",
                           "slot_addr_mod_4096"}
    assert (result["repeat"], result["rounds"]) == (1, 1)
    assert "solvers.closed_form_labels_s" in result["layers"]
    assert "serialize.total_s" in result["layers"]
    for layer in result["layers"].values():
        assert set(layer) == {"change_s", "parent_s", "ratio", "ratio_q1",
                              "ratio_q3"}
        assert layer["change_s"] > 0.0 and layer["parent_s"] > 0.0
        assert 0.0 < layer["ratio_q1"] <= layer["ratio"] <= layer["ratio_q3"]
    assert result["shots"] == {"change": _SHOTS, "parent": _SHOTS}
    # both runs of each side, each with one address per block
    for side in ("change", "parent"):
        runs = result["slot_addr_mod_4096"][side]
        assert len(runs) == 2 and all(len(run) == 4 for run in runs)
