"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass of the seed's request
stream runs in a fresh interpreter, so lazy state and caches start cold,
as for a CLI user.  With ``--trace 0`` a run keeps starting passes while
another one fits in S seconds (always at least one), times set-up in fresh
interpreters before and after them, and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"      # span files of traced runs
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 4       # before the passes, and as many again after them
DEADLINE_S = 170        # a run must end within 180 s; workers are killed
PIN_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
P90_MIN_SAMPLES = 100   # ten samples beyond the 90th percentile


class BenchError(RuntimeError):
    pass


_START = perf_counter()


def _worker(args):
    env = dict(os.environ, **PIN_THREADS)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE_S
                                      - (perf_counter() - _START)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure_setup(workload, seed):
    return [_worker(["--workload", workload, "--seed", str(seed),
                     "--setup"])["setup_s"] for _ in range(SETUP_SAMPLES)]


def untraced_passes(workload, seed, seconds):
    """Passes while another is expected to fit in ``seconds``."""
    passes = []
    begin = perf_counter()
    while True:
        start = perf_counter()
        passes.append(_worker(["--workload", workload, "--seed", str(seed)]))
        last = perf_counter() - start
        if perf_counter() - begin + last > seconds:
            return passes


def traced_passes(workload, seed):
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    plain = _worker(["--workload", workload, "--seed", str(seed)])
    traced = _worker(["--workload", workload, "--seed", str(seed),
                      "--trace", str(spans)])
    return plain, traced, spans


def _fmt(value, unit):
    return f"{value:.6g} {unit}"


def _report_failures(passes):
    """Print each failing request once; returns (attempted, failed)."""
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    seen = set()
    for p in passes:
        for f in p["failures"]:
            for problem in f["problems"]:
                line = (f"FAIL{' (silent)' if f['silent'] else ''} "
                        f"{f['request']}: {problem}")
                if line not in seen:
                    seen.add(line)
                    print(line)
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PIN_THREADS)

    missing = [p for p in ("src/kghulthen/cli.py", "configs/reference.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a kghulthen checkout, missing {missing}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            plain, traced, spans = traced_passes(args.workload, args.seed)
            passes = [traced]
        else:
            # set-up samples bracket the passes, so that their median does
            # not hang on a single second of the shared host's speed
            setup = measure_setup(args.workload, args.seed)
            passes = untraced_passes(args.workload, args.seed, args.seconds)
            setup += measure_setup(args.workload, args.seed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"pass(es), {len(passes[0]['latencies'])} requests per pass, "
          f"draws from box {workloads.BOX} with m0={workloads.M0}")
    attempted, failed = _report_failures(passes)
    silent = sum(f["silent"] for p in passes for f in p["failures"])
    print("machine: " + " ".join(f"{k}={v}"
                                 for k, v in passes[0]["facts"].items()))
    print(f"fail_frac      {failed / attempted:.6g}  ({failed} of "
          f"{attempted} requests; {silent} returned a wrong answer with "
          f"exit code 0)")

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        print(f"spans written to {spans}")
        for name, _, _ in LAYER_METRICS:
            print(f"{name:52s} {_fmt(metrics[name], units[name])}")
        result_metrics = {name: {"value": metrics[name], "unit": units[name]}
                          for name, _, _ in LAYER_METRICS}
    else:
        latencies = [s for p in passes for s in p["latencies"]]
        # request_p50_s and request_p90_s are printed but not gated: on a
        # shared host the median request flips between fast and slow
        # phases (see README), so it cannot hold a regression bound
        e2e = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
        print(f"setup_s        {_fmt(*e2e['setup_s'])}  (median of "
              f"{len(setup)} fresh interpreters)")
        print(f"run_s          {_fmt(*e2e['run_s'])}  (median of "
              f"{len(passes)} passes)")
        print(f"request_p50_s  {_fmt(statistics.median(latencies), 's')}  "
              f"(median of {len(latencies)} requests)")
        if len(latencies) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            print(f"request_p90_s  {_fmt(p90, 's')}  (of {len(latencies)} "
                  f"requests)")
        else:
            print(f"request_p90_s  not reported: {len(latencies)} requests, "
                  f"fewer than {P90_MIN_SAMPLES}")
        print(f"peak_rss_mb    {_fmt(*e2e['peak_rss_mb'])}  (largest of "
              f"{len(passes)} pass processes)")
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in e2e.items()}

    print(json.dumps({"correct": silent == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
