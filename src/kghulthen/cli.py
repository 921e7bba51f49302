"""Command-line interface: spectrum, wavefunction, validate, approx-error.

A run is described by a RunConfig: the physical system, the command, and
command options.  Options come from an optional JSON config file merged
with command-line flags (flags win).  A command's result is one Table,
emitted as CSV or JSON, byte-deterministically.  CSV types each column
once: floats carry 17 significant digits ('.17g'), a missing value is an
empty cell, booleans are true/false, and every row of a table is rendered
by one format string, or, when the rows are a float matrix, by NumPy to
the same bytes.  JSON writes a non-finite float as its CSV text.
Line endings are '\\n', and no timestamps or environment details are
written.

Exit status: 0 on success (including an empty result), 1 when `validate`
finds a failing check or `wavefunction` has no state to sample (its
stderr line names the status token), 2 on configuration errors and on an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import NamedTuple, Optional, Union

import numpy as np

from . import checks as checks_mod
from . import hulthen_analytic as ha
from . import oracle
from .errors import ConfigError, NoBoundState, SolverError
from .model import PhysicalSystem, RadialGrid, default_grid

log = logging.getLogger(__name__)

_COMMANDS = ("spectrum", "wavefunction", "validate", "approx_error")
_BRANCHES = ("lower", "upper", "both")
_METHODS = ("closed_form", "quantization_root", "oracle")
_FORMATS = ("csv", "json")
_DEFAULT_BETAS = (0.4, 0.2, 0.1, 0.05)
# an oracle solve's step tables and turning search grow with the points:
# at this many, five times the default grid, one full-window l=0 solve of
# the reference takes about 0.24 s and peaks at 16 MB traced (4 MB at 4000)
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


class Table(NamedTuple):
    """One command's output: column names once, then rows in that order.

    ``rows`` is a list of tuples, or a float64 matrix with one column per
    name when every cell is a float (``wavefunction``); ``serialize``
    renders such a matrix with NumPy, to the bytes of '%.17g' per cell.
    """

    columns: tuple
    rows: Union[list, np.ndarray]


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
    if value is None or not config.report_in_rest_units:
        return value
    return value / config.system.m0


def _state_rows(config: RunConfig, n: int, l: int, cache: dict):
    """{branch: (energy, status)} of (n, l) under the configured method;
    ``cache`` keeps the oracle's states per l.  A solver error makes both
    rows carry its status token; a second oracle state on a row replaces
    the first, and a warning names both."""
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
            for d in [d for d in cache[l] if d.node_count == n]:
                if rows[d.branch][1] == "ok":
                    log.warning("two oracle states for n=%d, l=%d, %s: %r "
                                "and %r; the second is reported", n, l,
                                d.branch, rows[d.branch][0], d.energy)
                rows[d.branch] = (d.energy, "ok")
    except SolverError as exc:
        return dict.fromkeys(rows, (None, exc.status))
    return rows


def _spectrum_table(config: RunConfig) -> Table:
    method_token = ("oracle_approx" if config.method == "oracle"
                    else config.method)
    cache: dict = {}
    out = []
    for n in range(config.n_max + 1):
        for l in range(config.l_max + 1):
            rows = _state_rows(config, n, l, cache)
            for branch in _requested_branches(config):
                energy, status = rows[branch]
                out.append((n, l, branch, method_token,
                            _energy_out(config, energy), status))
    return Table(("n", "l", "branch", "method", "energy", "status"), out)


def _pick_state_energy(config: RunConfig, n: int, l: int):
    """(energy, status) of the requested (n, l) state under the configured
    method: the last requested branch whose row is ok, so the upper when
    both are; else (None, the status of the last requested branch)."""
    rows = _state_rows(config, n, l, {})
    branches = _requested_branches(config)
    found = [rows[b] for b in branches if rows[b][1] == "ok"]
    return found[-1] if found else (None, rows[branches[-1]][1])


def _wavefunction_table(config: RunConfig) -> Table:
    """The samples of one state; with nothing to sample, no rows and a
    stderr line that names the status token (``main`` then exits 1)."""
    n, l = config.n_max, config.l_max
    columns = ("r", "z", "phi", "phi_normalized")
    energy, status = _pick_state_energy(config, n, l)
    reason = f"no state under method {config.method}"
    if energy is not None:
        try:
            wf = ha.wavefunction(config.system, n, l, energy,
                                 grid=config.grid)
        except (SolverError, ValueError) as exc:
            # a ValueError: the energy misses the quantization condition
            status, reason = getattr(exc, "status", "spurious"), exc
        else:
            radii = wf.grid.radii()
            return Table(columns, np.column_stack(
                (radii, config.system.z_at(radii), wf.amplitude * wf.values,
                 wf.values)))
    print(f"nothing to sample for n={n}, l={l} ({status}): {reason}",
          file=sys.stderr)
    return Table(columns, [])


def _validate_table(config: RunConfig) -> Table:
    rows = checks_mod.run_validation(config.system, grid=config.grid)
    return Table(("check", "status", "value", "tolerance"),
                 [(c.name, "pass" if c.passed else "fail", c.value,
                   c.tolerance) for c in rows])


def _approx_error_table(config: RunConfig) -> Table:
    rows = oracle.approximation_error(config.system, config.n_max,
                                      config.l_max, config.betas)
    return Table(tuple(f.name for f in fields(oracle.ApproxErrorRow)),
                 list(map(astuple, rows)))


def execute(config: RunConfig) -> Table:
    """Run the configured command; returns its output Table.

    Per-state solver problems surface as status tokens inside the rows,
    never as exceptions; a table without rows is a valid result.
    """
    build = {"spectrum": _spectrum_table, "wavefunction": _wavefunction_table,
             "validate": _validate_table, "approx_error": _approx_error_table}
    return build[config.command](config)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_cell(value):
    # JSON (RFC 8259) has no token for a non-finite number
    if isinstance(value, float) and not math.isfinite(value):
        return _csv_cell(value)
    return value


# '%.17g' from NumPy.  A cell is 29 to 46 byte slots: sign, the "0.000"
# prefix of -4 <= exponent < 0, 17 digits, a point slot after each digit
# up to the block's last point, "e±ddd", and the separator.  A block keeps
# one row per slot, so each write is contiguous; unused slots hold NUL,
# which one translate deletes.  With 4 columns, 1024 rows would start each
# slot row 4096 bytes after the last, and the transpose then costs twice
# as much per byte (4 KiB cache aliasing).
_BLOCK_ROWS = 1000
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_POSITIONS = np.arange(17, dtype=np.uint8)[:, None]
# beyond these magnitudes Dekker's splitting can overflow or underflow
_FAST_RANGE = (1e-280, 1e280)
# a scaled value this close to a tie is left to CPython's exact dtoa; the
# double-double product is accurate to about 1e-15 here
_TIE_MARGIN = 1e-9


def _ten_power(q: int):
    """10**q as hi + lo, each correctly rounded (int true division is)."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(a):
    c = 134217729.0 * a                 # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _two_prod(a, b):
    """Dekker's error-free product: a*b == p + e exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(a, k):
    """a * 10**(16 - k) as p + tail: p the rounded product, tail its
    rounding error plus the lo part's term.  Only the k present are built:
    a presence mask over the block's k range finds them without a sort."""
    low = int(k.min())
    where = k - low
    present = np.zeros(where.max() + 1, bool)
    present[where] = True
    hi, lo = np.zeros((2, present.size))
    for i in np.flatnonzero(present).tolist():
        hi[i], lo[i] = _ten_power(16 - low - i)
    p, error = _two_prod(a, hi.take(where))
    return p, error + a * lo.take(where)


def _decimal(x):
    """(digits, k, slow) of the vector x: |x| rounds to digits * 10**(k-16)
    at 17 significant digits, 10**16 <= digits < 10**17 (digits = k = 0
    for a zero), and ``slow`` marks the cells this cannot prove."""
    a = np.abs(x)
    zero = a == 0.0
    fast = (a > _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    for _ in range(3):
        # near a power of 10, log10 can miss floor(log10 |x|) by one; a
        # cell still off after two corrections is slow.  (p - bound) + tail
        # has the sign of p + tail - bound
        p, tail = _scaled(a, k)
        shift = (((p - 1e17) + tail >= 0).astype(np.int64)
                 - ((p - 1e16) + tail < 0))
        if not shift.any():
            break
        k += shift
    # 10**16 <= p + tail < 10**17, so p >= 2**53 is an integer
    rounded = np.floor(tail + 0.5)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    proven = fast & (shift == 0) & (np.abs(tail - rounded)
                                    < 0.5 - _TIE_MARGIN)
    slow = ~(proven | zero)
    carry = digits == 10 ** 17
    k += carry
    digits[carry] = 10 ** 16
    digits[zero] = k[zero] = 0
    return digits, k, slow


def _float_slots(x):
    """'%.17g' % v of each v in the vector x, as (slots, len(x)) bytes
    with NUL in unused slots and the separator row left 0.  A cell
    _decimal cannot prove is formatted by _csv_cell."""
    digits, k, slow = _decimal(x)
    fixed = (k >= -4) & (k < 17)
    # digits up to `point` are the integer part: kept even when 0
    point = np.where(fixed, np.maximum(k, -1), 0)
    points = int(point.max()) + 1       # point slots the block needs
    slots = np.zeros((29 + points, x.size), np.uint8)
    slots[0] = np.signbit(x) * ord("-")
    slots[1:6] = _PREFIX * (fixed & (np.arange(5)[:, None] < 1 - k)
                            & (k < 0))
    body = np.empty((17, x.size), np.uint8)
    high = digits // 10 ** 9
    low = (digits - high * 10 ** 9).astype(np.int32)
    for first, end, part in ((8, 16, low), (0, 7, high.astype(np.int32))):
        for j in range(end, first, -1):
            quotient = part // 10
            body[j] = part - 10 * quotient
            part = quotient
        body[first] = part
    body += ord("0")
    last = ((body != ord("0")) * _POSITIONS).max(axis=0)
    body *= _POSITIONS <= np.maximum(last, point).astype(np.uint8)
    # digits 0 .. points - 1 each have a point slot after them
    slots[6:6 + 2 * points:2] = body[:points]
    slots[7:7 + 2 * points:2] = (_POSITIONS[:points] == point) * (
        (last > point) * np.uint8(ord(".")))
    slots[6 + 2 * points:-6] = body[points:]
    sci, e = ~fixed, np.abs(k).astype(np.int32)
    tens, hundreds = e // 10, e // 100
    slots[-6] = sci * ord("e")
    slots[-5] = sci * np.where(k < 0, ord("-"), ord("+"))
    slots[-4] = (sci & (e >= 100)) * (hundreds + ord("0"))
    slots[-3] = sci * (tens - 10 * hundreds + ord("0"))
    slots[-2] = sci * (e - 10 * tens + ord("0"))
    for i in np.flatnonzero(slow).tolist():
        text = _csv_cell(float(x[i])).encode()
        slots[:-1, i] = 0
        slots[:len(text), i] = np.frombuffer(text, np.uint8)
    return slots


def _float_csv(columns, matrix) -> str:
    """CSV of a float matrix, each cell byte-equal to '%.17g'."""
    out = [",".join(columns) + "\n"]
    for start in range(0, len(matrix), _BLOCK_ROWS):
        block = matrix[start:start + _BLOCK_ROWS]
        slots = _float_slots(block.ravel())
        separators = slots[-1].reshape(block.shape)
        separators[:] = ord(",")
        separators[:, -1] = ord("\n")
        out.append(slots.T.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(out)


def serialize(table: Table, output_format: str) -> str:
    """Render a Table as CSV or JSON text, byte-deterministically.

    CSV types each column once: a column of plain floats is printed with
    '%.17g'; any other column is turned into text cell by cell (empty for
    None, true/false for booleans, 17 significant digits for floats, str()
    otherwise).  One format string then renders every row; line endings
    are '\\n'.  A table whose rows are a float matrix is rendered by
    NumPy in blocks of 1000 rows, to the same bytes: each value's 17
    digits are the integer nearest |x|*10**(16-k), k = floor(log10 |x|),
    from Dekker's double-double product, with 10**(16-k) built once for
    each k present in the block.  Cells it cannot prove correct go to
    CPython's '%.17g': non-finite values, 0 < |x| <= 1e-280 or
    |x| >= 1e280, and values whose rounding lies within 1e-9 of a tie.
    JSON writes one object per row, a non-finite float as its CSV text
    ("inf", "-inf", "nan"), and round-trips: serializing the parsed values
    as a Table reproduces the bytes.
    """
    if output_format not in _FORMATS:
        raise ValueError(f"unknown output format {output_format!r}")
    columns, rows = table
    if isinstance(rows, np.ndarray):
        if output_format == "csv" and rows.size:
            return _float_csv(columns, rows)
        rows = rows.tolist()
    if output_format == "json":
        return json.dumps([dict(zip(columns, map(_json_cell, row)))
                           for row in rows], indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"
    if not rows:
        return ""
    cells = [value for row in rows for value in row]
    width, formats = len(columns), []
    for j in range(width):
        column = cells[j::width]
        if set(map(type, column)) == {float}:
            formats.append("%.17g")
        else:
            cells[j::width] = map(_csv_cell, column)
            formats.append("%s")
    row = ",".join(formats) + "\n"
    return ",".join(columns) + "\n" + (row * len(rows)) % tuple(cells)


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
    table = execute(config)
    text = serialize(table, config.output_format)
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
        status = table.columns.index("status")
        return int(any(row[status] == "fail" for row in table.rows))
    if config.command == "wavefunction":
        return int(len(table.rows) == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
