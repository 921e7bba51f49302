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
        "block_rows", "slot_rows", "total_s", "decimal_s", "slot_fill_s",
        "transpose_s", "translate_s"}
    assert set(result["solvers"]) == {
        "energy_root_solve_s", "wavefunction_s", "channel_s", "shoot_B1_s",
        "shoot_B240_s", "find_bound_states_l0_s", "find_bound_states_l1_s"}
    # the shots are exact: the reference's full-window solves
    assert result["shots"] == {"l0_sweeps": 8, "l0_energies": 77,
                               "l1_sweeps": 7, "l1_energies": 25}
    timings = [v for group in ("serialize", "solvers")
               for k, v in result[group].items() if k.endswith("_s")]
    assert all(isinstance(t, float) and t > 0.0 for t in timings)
