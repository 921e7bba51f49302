"""Command-line interface: spectrum, wavefunction, validate, approx-error.

A run is described by a RunConfig: the physical system, the command, and
command options.  Options come from an optional JSON config file merged
with command-line flags (flags win).  Results are emitted as CSV or JSON,
byte-deterministically.  CSV types each column once: floats carry 17
significant digits ('.17g'), a missing value is an empty cell, booleans
are true/false, and every row of a table is rendered by one format string.
Line endings are '\\n', and no timestamps or environment details are
written.

Exit status: 0 on success (including an empty result), 1 when `validate`
finds a failing check, 2 on configuration errors and on an output file
that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import checks as checks_mod
from . import hulthen_analytic as ha
from . import oracle
from .errors import (ConfigError, InvalidRegime, NoBoundState,
                     NonNormalizable, SolverError)
from .model import PhysicalSystem, RadialGrid, default_grid

_COMMANDS = ("spectrum", "wavefunction", "validate", "approx_error")
_BRANCHES = ("lower", "upper", "both")
_METHODS = ("closed_form", "quantization_root", "oracle")
_FORMATS = ("csv", "json")
_DEFAULT_BETAS = (0.4, 0.2, 0.1, 0.05)
# an oracle sweep holds (points, energies) arrays: at 240 scan energies
# this many points takes about 80 MB, five times the default grid
_MAX_GRID_POINTS = 20_000
# each (n, l) costs a solve; each beta one oracle scan at l = 0, else two
_MAX_QUANTUM_NUMBER = 100
_MAX_BETAS = 64
# command -> default (n_max, l_max)
_DEFAULT_RANGES = {"spectrum": (2, 1), "wavefunction": (0, 0),
                   "validate": (0, 0), "approx_error": (0, 1)}

# option -> its add_argument keywords.  Each is a flag of every subcommand,
# "--" + option with "_" -> "-"; each is a config-file key too, except the
# grid_* flags, which the file gives as one "grid" object
_OPTIONS = {
    "V0": dict(type=float, help="well depth"),
    "beta": dict(type=float, help="screening parameter"),
    "m0": dict(type=float, help="rest energy at the origin"),
    "m1": dict(type=float, help="mass-profile offset (0 for constant mass)"),
    "hbar_c": dict(type=float, help="unit conversion factor (default 1)"),
    "n_max": dict(type=int, help="largest radial quantum number"),
    "l_max": dict(type=int, help="largest orbital quantum number"),
    "branch": dict(choices=_BRANCHES,
                   help="energy branch selection (default both)"),
    "method": dict(choices=_METHODS,
                   help="solver (default quantization_root)"),
    "format": dict(choices=_FORMATS, help="output format (default csv)"),
    "output": dict(help="output file path (default stdout)"),
    "betas": dict(help="comma-separated screening values (approx-error)"),
    "grid_r_min": dict(type=float, help="inner radius of the evaluation grid"),
    "grid_r_max": dict(type=float, help="outer radius of the evaluation grid"),
    "grid_points": dict(type=int, help="number of radial grid points"),
    "report_in_rest_units": dict(action="store_true", default=None,
                                 help="report energies divided by m0"),
}
_FILE_KEYS = {k for k in _OPTIONS if not k.startswith("grid_")} | {"grid"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one CLI run."""

    system: PhysicalSystem
    command: str
    n_max: int
    l_max: int
    branch: str
    method: str
    grid: Optional[RadialGrid]
    output_format: str
    output_path: Optional[str]
    betas: tuple
    report_in_rest_units: bool


def _require_number(key: str, value, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"config key '{key}': expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"config key '{key}': value must be finite, "
                          f"got {value!r}")
    if positive and out <= 0.0:
        raise ConfigError(f"config key '{key}': value must be positive, "
                          f"got {value!r}")
    return out


def _require_index(key: str, value, most: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(
            f"config key '{key}': expected a non-negative integer, "
            f"got {value!r}")
    if most is not None and value > most:
        raise ConfigError(
            f"config key '{key}': at most {most} is supported, "
            f"got {value!r}")
    return value


def _require_choice(key: str, value, allowed) -> str:
    if value not in allowed:
        raise ConfigError(
            f"config key '{key}': expected one of {', '.join(allowed)}; "
            f"got {value!r}")
    return value


def parse_config(source: str, overrides: dict) -> RunConfig:
    """Build a RunConfig from JSON config text plus override values.

    ``source`` is the raw text of the config file ("" or None for no
    file); ``overrides`` holds values that win over the file (typically
    parsed command-line flags), plus the command name under "command".
    Raises ConfigError for unknown keys, missing required keys,
    non-numeric values, and parameter combinations outside the model's
    domain (for example an effective-mass offset with m1 >= m0, since
    the mass profile requires m0 > m1).  The grid_* overrides are fields
    of the "grid" object.
    """
    if source:
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    else:
        data = {}
    unknown = sorted(set(data) - _FILE_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}'")

    merged = dict(data)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    command = merged.pop("command", "spectrum")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    for key in ("V0", "beta", "m0"):
        if key not in merged:
            raise ConfigError(f"missing required config key '{key}'")

    V0 = _require_number("V0", merged["V0"])
    beta = _require_number("beta", merged["beta"], positive=True)
    m0 = _require_number("m0", merged["m0"], positive=True)
    m1 = _require_number("m1", merged.get("m1", 0.0))
    hbar_c = _require_number("hbar_c", merged.get("hbar_c", 1.0),
                             positive=True)
    try:
        system = PhysicalSystem(V0=V0, beta=beta, m0=m0, m1=m1,
                                hbar_c=hbar_c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    default_n, default_l = _DEFAULT_RANGES[command]
    n_max = _require_index("n_max", merged.get("n_max", default_n),
                           _MAX_QUANTUM_NUMBER)
    l_max = _require_index("l_max", merged.get("l_max", default_l),
                           _MAX_QUANTUM_NUMBER)
    branch = _require_choice("branch", merged.get("branch", "both"),
                             _BRANCHES)
    method = _require_choice("method", merged.get("method",
                                                  "quantization_root"),
                             _METHODS)
    output_format = _require_choice("format", merged.get("format", "csv"),
                                    _FORMATS)
    output_path = merged.get("output")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(
            f"config key 'output': expected a path string, "
            f"got {output_path!r}")

    grid = None
    grid_spec = merged.get("grid")
    flags = {key[5:]: value for key, value in merged.items()
             if key.startswith("grid_")}
    if grid_spec is not None or flags:
        grid_spec = {} if grid_spec is None else grid_spec
        if not isinstance(grid_spec, dict):
            raise ConfigError("config key 'grid': expected an object with "
                              "r_min, r_max, points")
        grid_spec = {**asdict(default_grid(system)), **grid_spec, **flags}
        bad = sorted(set(grid_spec) - {"r_min", "r_max", "points"})
        if bad:
            raise ConfigError(f"unknown config key 'grid.{bad[0]}'")
        r_min = _require_number("grid.r_min", grid_spec["r_min"],
                                positive=True)
        r_max = _require_number("grid.r_max", grid_spec["r_max"],
                                positive=True)
        points = _require_index("grid.points", grid_spec["points"])
        if points > _MAX_GRID_POINTS:
            raise ConfigError(
                f"config key 'grid.points': at most {_MAX_GRID_POINTS} "
                f"points are supported, got {points!r}")
        try:
            grid = RadialGrid(r_min=r_min, r_max=r_max, points=points)
        except ValueError as exc:
            raise ConfigError(f"config key 'grid': {exc}") from exc

    betas_spec = merged.get("betas", list(_DEFAULT_BETAS))
    if isinstance(betas_spec, str):
        try:
            betas_spec = [float(part) for part in betas_spec.split(",")]
        except ValueError as exc:
            raise ConfigError(
                f"config key 'betas': expected comma-separated numbers, "
                f"got {merged['betas']!r}") from exc
    if not isinstance(betas_spec, (list, tuple)) or not betas_spec:
        raise ConfigError("config key 'betas': expected a non-empty list "
                          "of screening parameters")
    if len(betas_spec) > _MAX_BETAS:
        raise ConfigError(
            f"config key 'betas': at most {_MAX_BETAS} screening parameters "
            f"are supported, got {len(betas_spec)}")
    betas = tuple(_require_number(f"betas[{i}]", b, positive=True)
                  for i, b in enumerate(betas_spec))
    for i, b in enumerate(betas if command == "approx_error" else ()):
        try:                            # each system it solves is in domain
            replace(system, beta=b)
        except ValueError as exc:
            raise ConfigError(f"config key 'betas[{i}]': {exc}") from exc

    rest_units = merged.get("report_in_rest_units", False)
    if not isinstance(rest_units, bool):
        raise ConfigError(
            f"config key 'report_in_rest_units': expected true or false, "
            f"got {rest_units!r}")

    return RunConfig(system=system, command=command, n_max=n_max,
                     l_max=l_max, branch=branch, method=method, grid=grid,
                     output_format=output_format, output_path=output_path,
                     betas=betas, report_in_rest_units=rest_units)


def _requested_branches(config: RunConfig):
    return ("lower", "upper") if config.branch == "both" else (config.branch,)


def _energy_out(config: RunConfig, value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    if config.report_in_rest_units:
        return value / config.system.m0
    return value


def _state_rows(config: RunConfig, n: int, l: int, cache: dict):
    """{branch: (energy, status)} of (n, l) under the configured method;
    ``cache`` keeps the oracle's states per l.  A solver error makes both
    rows carry its status token."""
    system = config.system
    rows = dict.fromkeys(("lower", "upper"), (None, NoBoundState.status))
    try:
        if config.method == "closed_form":
            for level in ha.energy_closed_form(system, n, l):
                if level.unbound:
                    status = "unbound"
                elif ha.satisfies_quantization(system, n, l, level.value):
                    status = "ok"
                else:
                    status = "spurious"
                rows[level.branch] = (level.value, status)
        elif config.method == "quantization_root":
            for level in ha.energy_root_solve(system, n, l):
                rows[level.branch] = (level.value, "ok")
        else:
            if l not in cache:
                cache[l] = oracle.find_bound_states(
                    system, l, mode="approx", grid=config.grid)
            energies = [d.energy for d in cache[l] if d.node_count == n]
            for energy, branch in zip(energies, ha.branch_labels(
                    system, n, l, energies)):
                rows[branch] = (energy, "ok")
    except SolverError as exc:
        return dict.fromkeys(rows, (None, exc.status))
    return rows


def _spectrum_records(config: RunConfig):
    method_token = {"closed_form": "closed_form",
                    "quantization_root": "quantization_root",
                    "oracle": "oracle_approx"}[config.method]
    cache: dict = {}
    records = []
    for n in range(config.n_max + 1):
        for l in range(config.l_max + 1):
            rows = _state_rows(config, n, l, cache)
            for branch in _requested_branches(config):
                energy, status = rows[branch]
                records.append({
                    "n": n, "l": l, "branch": branch,
                    "method": method_token,
                    "energy": _energy_out(config, energy),
                    "status": status,
                })
    return records


def _pick_state_energy(config: RunConfig, n: int, l: int):
    """Energy of the requested (n, l) state under the configured method.

    Returns None when no such bound state exists.
    """
    rows = _state_rows(config, n, l, {})
    found = [(rows[b][0], b) for b in _requested_branches(config)
             if rows[b][1] == "ok" and rows[b][0] is not None]
    if not found:
        return None
    # with both branches available prefer the upper one
    found.sort(key=lambda item: item[1] == "upper")
    return found[-1][0]


def _wavefunction_records(config: RunConfig):
    n, l = config.n_max, config.l_max
    energy = _pick_state_energy(config, n, l)
    if energy is None:
        print(f"no bound state for n={n}, l={l} under method "
              f"{config.method}; nothing to sample", file=sys.stderr)
        return []
    try:
        wf = ha.wavefunction(config.system, n, l, energy,
                             grid=config.grid)
    except (NonNormalizable, InvalidRegime, ValueError) as exc:
        print(f"cannot build wavefunction for n={n}, l={l}: {exc}",
              file=sys.stderr)
        return []
    radii = wf.grid.radii()
    table = np.column_stack((radii, config.system.z_at(radii),
                             wf.amplitude * wf.values, wf.values))
    return [{"r": r, "z": z, "phi": phi, "phi_normalized": phi_n}
            for r, z, phi, phi_n in table.tolist()]


def _validate_records(config: RunConfig):
    rows = checks_mod.run_validation(config.system, grid=config.grid)
    return [{"check": c.name, "status": "pass" if c.passed else "fail",
             "value": c.value, "tolerance": c.tolerance} for c in rows]


def _approx_error_records(config: RunConfig):
    return [asdict(row) for row in oracle.approximation_error(
        config.system, config.n_max, config.l_max, config.betas)]


def execute(config: RunConfig):
    """Run the configured command; returns the list of output records.

    Per-state solver problems surface as status tokens inside the records,
    never as exceptions; an empty list is a valid result.
    """
    if config.command == "spectrum":
        return _spectrum_records(config)
    if config.command == "wavefunction":
        return _wavefunction_records(config)
    if config.command == "validate":
        return _validate_records(config)
    return _approx_error_records(config)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize(records, output_format: str) -> str:
    """Render records as CSV or JSON text, byte-deterministically.

    All records must share one schema (same keys, same order).  CSV types
    each column once: a column of plain floats is printed with '%.17g';
    any other column is turned into text cell by cell (empty for None,
    true/false for booleans, 17 significant digits for floats, str()
    otherwise).  One format string per schema then renders every row;
    line endings are '\\n'.  JSON output round-trips: serializing the
    parsed JSON reproduces the bytes.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown output format {output_format!r}")
    records = list(records)
    keys = tuple(records[0]) if records else ()
    cells = []
    for rec in records:
        if tuple(rec) != keys:
            raise ValueError(
                "records with mixed schemas cannot be serialized: "
                f"{tuple(rec)!r} != {keys!r}")
        cells += rec.values()
    if output_format == "json":
        return json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    if not records:
        return ""
    width, formats = len(keys), []
    for j in range(width):
        column = cells[j::width]
        if set(map(type, column)) == {float}:
            formats.append("%.17g")
        else:
            cells[j::width] = map(_csv_cell, column)
            formats.append("%s")
    row = ",".join(formats) + "\n"
    return ",".join(keys) + "\n" + (row * len(records)) % tuple(cells)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kghulthen",
        description="Bound states of the relativistic screened-well model "
                    "with a position-dependent mass profile")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "spectrum": "solve bound-state energies over a quantum-number range",
        "wavefunction": "sample one normalized bound-state wavefunction",
        "validate": "run the cross-consistency check battery",
        "approx-error": "tabulate centrifugal-approximation error vs "
                        "screening",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        for key, kwargs in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key != "config"}
    overrides["command"] = args.command.replace("-", "_")
    source = ""
    try:
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise ConfigError(
                    f"cannot read config file {args.config!r}: {exc}")
        config = parse_config(source, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = execute(config)
    text = serialize(records, config.output_format)
    if config.output_path is not None:
        try:
            with open(config.output_path, "w", encoding="utf-8",
                      newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write output file "
                  f"{config.output_path!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if config.command == "validate":
        if any(rec["status"] == "fail" for rec in records):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
