"""Correctness checks on the CLI output, made from outside the package.

Each request's serialized output is parsed back from CSV and checked on its
own (completeness, node counts, battery rows, approximation error), then
related requests are checked against each other (closed form against the
root solver, shooting oracle against the closed form).  A request fails
when it raised, when the CLI would exit non-zero, when its output is wrong
or incomplete, or when serializing it twice gave different bytes.  A
``ConfigError`` (exit code 2) is a documented outcome, not a failure.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

from workloads import Request

SPECTRUM_REL_TOL = 1e-9     # closed form against root solver
ORACLE_REL_TOL = 1e-6       # oracle against closed form (criterion 3)
APPROX_L0_ABS_TOL = 1e-9    # times m0: both modes solve one equation at l=0
BATTERY_ROWS = (12, 16)     # validate emits between 12 and 16 rows


@dataclass
class Outcome:
    """What one request returned, as the client saw it."""

    request: Request
    seconds: float
    exit_code: int                  # what the CLI would exit with
    rows: Optional[list] = None     # parsed output; None if it raised
    # (a wavefunction's rows hold only its phi_normalized samples)
    error: Optional[str] = None     # exception text when it raised
    stable: bool = True             # second serialization, same bytes
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def silent(self) -> bool:
        """Failed although the CLI would have exited 0."""
        return self.failed and self.exit_code == 0


def _cell(text: str):
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_csv(text: str):
    """Rows of the CLI's CSV output, with numbers parsed back."""
    return [{key: _cell(value) for key, value in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def column(text: str, name: str):
    """One numeric column of the CLI's CSV output (fast path for samples)."""
    lines = text.splitlines()
    index = lines[0].split(",").index(name)
    return [float(line.split(",")[index]) for line in lines[1:]]


def sign_changes(values) -> int:
    return sum(1 for a, b in zip(values, values[1:]) if a * b < 0.0)


def check(outcome: Outcome):
    """Problems visible in one request's own output."""
    req = outcome.request
    if outcome.exit_code == 2:
        return []
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    problems = [] if outcome.stable else [
        "serializing the same records twice gave different bytes"]
    rows = outcome.rows
    opts = req.options
    if req.command == "spectrum":
        expected = (opts["n_max"] + 1) * (opts["l_max"] + 1) * 2
        if len(rows) != expected:
            problems.append(f"{len(rows)} spectrum rows, expected {expected}")
    elif req.command == "wavefunction":
        if not rows:
            problems.append("no samples for a state the spectrum reports ok")
        else:
            nodes = sign_changes(rows)
            if nodes != opts["n_max"]:
                problems.append(f"phi_normalized has {nodes} sign changes, "
                                f"expected n={opts['n_max']}")
    elif req.command == "validate":
        lo, hi = BATTERY_ROWS
        if not lo <= len(rows) <= hi:
            problems.append(f"{len(rows)} battery rows, expected {lo}-{hi}")
        for row in rows:
            if row["status"] != "pass":
                problems.append(f"check {row['check']} is {row['status']} "
                                f"(value {row['value']}, tolerance "
                                f"{row['tolerance']})")
    elif req.command == "approx_error":
        if len(rows) != len(opts["betas"]):
            problems.append(f"{len(rows)} approx-error rows, expected "
                            f"{len(opts['betas'])}")
        limit = APPROX_L0_ABS_TOL * float(req.system["m0"])
        for row in rows:
            if (opts["l_max"] == 0 and row["abs_err"] is not None
                    and not row["abs_err"] < limit):
                problems.append(f"l=0 abs_err {row['abs_err']!r} at beta="
                                f"{row['beta']!r} is not below {limit!r}")
    return problems


def _ok_energies(rows):
    """(n, l, branch) -> energy for every row with status ok."""
    return {(r["n"], r["l"], r["branch"]): r["energy"]
            for r in rows if r["status"] == "ok"}


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def compare_closed_and_root(closed_rows, root_rows):
    """Every closed-form ok row has a root-solver ok row, and vice versa."""
    closed, root = _ok_energies(closed_rows), _ok_energies(root_rows)
    problems = []
    for key in sorted(set(closed) | set(root)):
        if key not in root:
            problems.append(f"closed-form ok state {key} has no root-solver "
                            f"ok state")
        elif key not in closed:
            problems.append(f"root-solver ok state {key} has no closed-form "
                            f"ok state")
        elif _relative(closed[key], root[key]) > SPECTRUM_REL_TOL:
            problems.append(f"state {key}: closed form {closed[key]!r} vs "
                            f"root {root[key]!r}")
    return problems


def compare_oracle_and_closed(oracle_rows, closed_rows):
    """Every oracle ok energy matches a closed-form ok energy at its (n, l)."""
    closed = _ok_energies(closed_rows)
    problems = []
    for (n, l, branch), energy in sorted(_ok_energies(oracle_rows).items()):
        wanted = [e for (cn, cl, _), e in closed.items() if (cn, cl) == (n, l)]
        if not any(_relative(energy, e) <= ORACLE_REL_TOL for e in wanted):
            problems.append(f"oracle ok state {(n, l, branch)} at "
                            f"{energy!r} matches no closed-form ok energy "
                            f"{wanted!r}")
    return problems


def cross_check(outcomes, closed_reference):
    """Problems that need two requests; ``closed_reference`` maps a system
    label to the closed-form rows that oracle spectra are compared with."""
    by_label = {}
    for out in outcomes:
        if out.request.command == "spectrum" and out.error is None:
            method = out.request.options.get("method", "quantization_root")
            by_label.setdefault(out.request.label, {})[method] = out
    for label, found in by_label.items():
        closed, root = found.get("closed_form"), found.get("quantization_root")
        if closed is not None and root is not None:
            closed.problems += compare_closed_and_root(closed.rows, root.rows)
        oracle_out = found.get("oracle")
        if oracle_out is not None:
            oracle_out.problems += compare_oracle_and_closed(
                oracle_out.rows, closed_reference[label])
