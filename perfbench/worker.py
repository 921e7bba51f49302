"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace FILE]
    python3 perfbench/worker.py --workload NAME --seed N --setup

The first form sends the seed's request stream through the public CLI
entry points (parse_config -> execute -> serialize), one request at a
time, checks every answer and prints one JSON line with the timings, the
failures and the peak memory.  With ``--trace`` the layer functions are
wrapped, the spans are written to FILE, and the per-layer metrics are
added.  The second form only times ``import kghulthen`` plus parsing the
workload's first config, which a CLI user pays on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
import verify  # noqa: E402


def time_setup(workload: str, seed: int) -> float:
    label, system = workloads.systems(ROOT, workload, seed)[0]
    request = workloads.first_requests(workload, label, system)[0]
    start = perf_counter()
    from kghulthen import cli
    cli.parse_config(request.source(), request.options)
    return perf_counter() - start


def _run_one(cli, request, tracer):
    """Send one request; the timed part is what a CLI call does."""
    call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    records = text = None
    exit_code, error = 0, None
    start = perf_counter()
    try:
        config = call("cli.parse_config", cli.parse_config,
                      request.source(), request.options)
        records = call("cli.execute", cli.execute, config)
        text = call("cli.serialize", cli.serialize, records,
                    config.output_format)
    except cli.ConfigError:
        exit_code = 2
    except Exception as exc:    # the CLI would die with a traceback
        exit_code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    outcome = verify.Outcome(request=request, seconds=seconds,
                             exit_code=exit_code, error=error)
    if text is not None:
        outcome.stable = cli.serialize(records, config.output_format) == text
        outcome.rows = (verify.column(text, "phi_normalized") if text
                        and request.command == "wavefunction"
                        else verify.parse_csv(text))
        if request.command == "validate" and any(
                row["status"] == "fail" for row in outcome.rows):
            outcome.exit_code = 1
    return outcome


def run_pass(workload: str, seed: int, tracer=None):
    """Every request of one pass, each checked; returns the outcomes."""
    from kghulthen import cli
    queue = deque()
    for label, system in workloads.systems(ROOT, workload, seed):
        queue.extend(workloads.first_requests(workload, label, system))
    if tracer:
        tracer.install()
    outcomes = []
    try:
        # closed loop, one client: the next request goes out after the
        # previous answer, and follow-ups are sent right after their source
        while queue:
            request = queue.popleft()
            if tracer:
                tracer.current_request = len(outcomes)
            outcome = _run_one(cli, request, tracer)
            outcome.problems = verify.check(outcome)
            queue.extendleft(reversed(
                workloads.follow_ups(request, outcome.rows)))
            if request.command == "wavefunction":
                outcome.rows = None         # checked; do not hold samples
            outcomes.append(outcome)
    finally:
        if tracer:
            tracer.uninstall()
    verify.cross_check(outcomes, _closed_reference(cli, outcomes))
    return outcomes


def _closed_reference(cli, outcomes):
    """Closed-form spectra the oracle spectra are compared with (untimed)."""
    out = {}
    for o in outcomes:
        if o.request.options.get("method") == "oracle":
            options = dict(o.request.options, method="closed_form")
            config = cli.parse_config(o.request.source(), options)
            out[o.request.label] = verify.parse_csv(
                cli.serialize(cli.execute(config), config.output_format))
    return out


def machine_facts() -> dict:
    import numpy
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        facts[var] = os.environ.get(var, "")
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    if args.setup:
        print(json.dumps({"setup_s": time_setup(args.workload, args.seed)}))
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    outcomes = run_pass(args.workload, args.seed, tracer)
    result = {
        "run_s": sum(o.seconds for o in outcomes),
        "latencies": [o.seconds for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failures": [{"request": o.request.describe(), "silent": o.silent,
                      "problems": o.problems}
                     for o in outcomes if o.failed],
        "facts": machine_facts(),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.save(args.trace, result["facts"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
