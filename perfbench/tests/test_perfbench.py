"""Self-test of the benchmark: metric names and units, and the checker.

    python3 -m pytest perfbench/tests

Runs are made tiny (the reference config only, workers in-process) so the
test takes seconds.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Reference config only; workers run in this process."""
    monkeypatch.setattr(workloads, "DESIGN",
                        dict.fromkeys(workloads.DESIGN, ()))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def in_process(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert worker.main(args) == 0
        return json.loads(out.getvalue().splitlines()[-1])
    monkeypatch.setattr(run, "_worker", in_process)


def _run(trace, capsys):
    assert run.main(["--workload", "spectrum_analytic", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, trace,
                                                    kind):
    text, result = _run(trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in text), name
    if not trace:
        assert any(line.startswith("fail_frac") for line in text)


def test_checker_counts_corrupted_records(monkeypatch):
    monkeypatch.setattr(workloads, "DESIGN",
                        dict.fromkeys(workloads.DESIGN, ()))
    outcomes = worker.run_pass("spectrum_analytic", 1)
    assert not any(o.failed for o in outcomes)

    def rejudged(corrupt):
        bad = copy.deepcopy(outcomes)
        for out in bad:
            out.problems = []
        corrupt(bad)
        for out in bad:
            if out.request.command != "wavefunction":
                out.problems = verify.check(out)
        verify.cross_check(bad, {})
        return [o for o in bad if o.failed]

    def closed_form(bad):
        return next(o for o in bad
                    if o.request.options.get("method") == "closed_form")

    def perturb_energy(bad):
        row = next(r for r in closed_form(bad).rows if r["status"] == "ok")
        row["energy"] *= 1.0 + 1e-6

    def drop_row(bad):
        del closed_form(bad).rows[-1]

    for corrupt in (perturb_energy, drop_row):
        failed = rejudged(corrupt)
        assert len(failed) == 1 and failed[0].silent, corrupt.__name__


def test_oracle_and_battery_checks_reject_bad_rows():
    closed = [{"n": 0, "l": 0, "branch": "upper", "energy": 0.75,
               "status": "ok"}]
    oracle = [dict(closed[0])]
    assert verify.compare_oracle_and_closed(oracle, closed) == []
    oracle[0]["energy"] *= 1.0 + 2e-6
    assert verify.compare_oracle_and_closed(oracle, closed)

    request = workloads.Request("x", {"m0": 1.0},
                                {"command": "validate"})
    rows = [{"check": f"c{i}", "status": "pass", "value": 0.0,
             "tolerance": 0.0} for i in range(16)]
    assert verify.check(verify.Outcome(request, 0.0, 0, rows=rows)) == []
    rows[3]["status"] = "fail"
    assert verify.check(verify.Outcome(request, 0.0, 1, rows=rows))


def test_draws_are_seeded_and_stay_near_the_design():
    indices = range(1, 6)
    a = workloads.draw_systems(7, indices)
    assert a == workloads.draw_systems(7, indices) != workloads.draw_systems(
        8, indices)
    for index, system in zip(indices, a):
        for base, (key, (lo, hi)) in zip((2, 3, 5), workloads.BOX.items()):
            assert lo <= system[key] <= hi
            design = lo + (hi - lo) * workloads._radical_inverse(index, base)
            assert abs(system[key] - design) <= (
                workloads.JITTER * (hi - lo) + 1e-4)
