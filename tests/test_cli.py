"""Command-line layer: config parsing, record building, serialization."""

import argparse
import contextlib
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghulthen import cli, errors, main, parse_config
from kghulthen.cli import (_FILE_KEYS, _OPTIONS, Table, _build_parser,
                           execute, serialize)
from kghulthen.errors import ConfigError, SolverError
from kghulthen.oracle import ShootingDiagnostics

from conftest import REFERENCE_TRUE

REF_SOURCE = '{"V0": 0.1, "beta": 0.2, "m0": 1.0}'


def _cfg(source=REF_SOURCE, **overrides):
    return parse_config(source, overrides)


def _records(table):
    """A Table's rows as dicts keyed by its columns."""
    return [dict(zip(table.columns, row)) for row in table.rows]


class TestParseConfigDefaults:
    def test_minimal(self):
        cfg = _cfg()
        assert cfg.system.V0 == 0.1 and cfg.system.beta == 0.2
        assert cfg.system.m1 == 0.0 and cfg.system.hbar_c == 1.0
        assert cfg.command == "spectrum"
        assert (cfg.n_max, cfg.l_max) == (2, 1)
        assert cfg.branch == "both"
        assert cfg.method == "quantization_root"
        assert cfg.output_format == "csv"
        assert cfg.output_path is None
        assert cfg.grid is None
        assert cfg.betas == (0.4, 0.2, 0.1, 0.05)
        assert cfg.report_in_rest_units is False

    def test_command_specific_ranges(self):
        assert (_cfg(command="wavefunction").n_max,
                _cfg(command="wavefunction").l_max) == (0, 0)
        assert (_cfg(command="approx_error").n_max,
                _cfg(command="approx_error").l_max) == (0, 1)

    def test_overrides_beat_file_and_none_is_skipped(self):
        cfg = _cfg(V0=0.3, m0=None, n_max=5)
        assert cfg.system.V0 == 0.3
        assert cfg.system.m0 == 1.0
        assert cfg.n_max == 5

    def test_file_options_used_when_no_override(self):
        source = json.dumps({"V0": 0.1, "beta": 0.2, "m0": 1.0,
                             "branch": "upper", "method": "closed_form",
                             "format": "json", "n_max": 3,
                             "report_in_rest_units": True,
                             "betas": [0.3, 0.1]})
        cfg = _cfg(source)
        assert cfg.branch == "upper" and cfg.method == "closed_form"
        assert cfg.output_format == "json" and cfg.n_max == 3
        assert cfg.report_in_rest_units is True
        assert cfg.betas == (0.3, 0.1)

    def test_grid_from_file_and_flags(self):
        source = json.dumps({"V0": 0.1, "beta": 0.2, "m0": 1.0,
                             "grid": {"points": 300}})
        cfg = _cfg(source)
        # unspecified grid fields fall back to the system's default grid
        assert cfg.grid.points == 300
        assert cfg.grid.r_min == pytest.approx(5e-6)
        assert cfg.grid.r_max == pytest.approx(200.0)
        cfg = _cfg(source, grid_points=500, grid_r_max=100.0)
        assert cfg.grid.points == 500
        assert cfg.grid.r_max == 100.0
        cfg = _cfg(grid_points=120)        # flag alone creates a grid
        assert cfg.grid.points == 120
        assert _cfg().grid is None


class TestOptionTable:
    def test_each_option_is_stated_once(self):
        # every subcommand takes --config and one flag per table key
        (subcommands,) = [a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)]
        flags = {"--config"} | {"--" + key.replace("_", "-")
                                for key in _OPTIONS}
        assert set(subcommands.choices) == {"spectrum", "wavefunction",
                                            "validate", "approx-error"}
        for parser in subcommands.choices.values():
            strings = {s for a in parser._actions for s in a.option_strings}
            assert strings - {"-h", "--help"} == flags
        # the config-file keys the README documents
        assert _FILE_KEYS == {"V0", "beta", "m0", "m1", "hbar_c", "n_max",
                              "l_max", "branch", "method", "format",
                              "output", "betas", "grid",
                              "report_in_rest_units"}


class TestParseConfigErrors:
    def _err(self, source=REF_SOURCE, **overrides):
        with pytest.raises(ConfigError) as exc:
            parse_config(source, overrides)
        return str(exc.value)

    def test_bad_json(self):
        assert "not valid JSON" in self._err("{oops")
        assert "JSON object" in self._err("[1, 2]")

    def test_unknown_keys(self):
        assert "unknown config key 'junk'" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "junk": 1}')
        assert "unknown config key 'grid.step'" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "grid": {"step": 2}}')
        assert "unknown command" in self._err(command="solve")

    def test_missing_required(self):
        assert "missing required config key 'V0'" in self._err("")
        assert "missing required config key 'beta'" in self._err(
            '{"V0": 0.1, "m0": 1.0}')

    def test_type_and_domain_checks(self):
        assert "expected a number" in self._err(V0="deep")
        assert "expected a number" in self._err(V0=True)
        assert "must be finite" in self._err(
            '{"V0": NaN, "beta": 0.2, "m0": 1.0}')
        assert "must be positive" in self._err(beta=-0.2)
        assert "m0 > m1" in self._err(m1=1.5)
        assert "non-negative integer" in self._err(n_max=-1)
        assert "non-negative integer" in self._err(n_max=1.5)
        assert "expected one of" in self._err(branch="middle")
        assert "expected one of" in self._err(method="magic")
        assert "expected one of" in self._err(format="yaml")
        assert "expected a path string" in self._err(output=5)

    def test_grid_errors(self):
        assert "expected an object" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "grid": 7}')
        assert "at least 100" in self._err(grid_points=50)
        # rejected while parsing, before any grid-sized array exists
        assert "at most 20000 points" in self._err(grid_points=20_001)
        assert "at most 20000 points" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "grid": {"points": '
            '1000000000000}}')
        assert _cfg(grid_points=20_000).grid.points == 20_000
        assert "must be positive" in self._err(grid_r_min=-1.0)

    def test_range_bounds(self):
        # bounded while parsing, so no request can ask for unbounded work;
        # checked here, never by running a solve
        assert "'n_max': at most 100" in self._err(n_max=101)
        assert "'l_max': at most 100" in self._err(l_max=100_000_000)
        assert "'n_max': at most 100" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "n_max": 1000}')
        cfg = _cfg(n_max=100, l_max=100)
        assert (cfg.n_max, cfg.l_max) == (100, 100)
        assert "at most 64 screening" in self._err(
            betas=",".join(["0.1"] * 65))
        assert "at most 64 screening" in self._err(
            json.dumps({"V0": 0.1, "beta": 0.2, "m0": 1.0,
                        "betas": [0.1] * 1000}))
        assert len(_cfg(betas=[0.1] * 64).betas) == 64

    def test_betas_errors(self):
        assert "comma-separated" in self._err(betas="a,b")
        assert "non-empty" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "betas": []}')
        assert "must be positive" in self._err(betas="0.2,-0.1")
        assert "true or false" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, '
            '"report_in_rest_units": "yes"}')


def _records_or_config_error(V0, beta, m0, m1_share, hbar_c):
    """Every parsed spectrum (closed form and root solve) and wavefunction
    config of this system ends in records; the rest fail to parse."""
    source = json.dumps({"V0": V0, "beta": beta, "m0": m0,
                         "m1": m1_share * m0, "hbar_c": hbar_c})
    for overrides in ({"command": "spectrum", "method": "closed_form"},
                      {"command": "spectrum",
                       "method": "quantization_root"},
                      {"command": "wavefunction"}):
        try:
            cfg = parse_config(source, overrides)
        except ConfigError:
            continue
        assert isinstance(_records(execute(cfg)), list)


_MAGNITUDE = st.floats(1e-300, 1e300)
_EXPONENT = st.floats(-110.0, 110.0)


class TestDomainRule:
    # configs that parsed and then crashed inside execute; the domain rule
    # now rejects them while parsing
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--V0", "0.1", "--beta", "1e-300", "--m0", "1"],
        ["spectrum", "--V0", "0.1", "--beta", "0.2", "--m0", "1",
         "--hbar-c", "1e-170"],
        ["spectrum", "--V0", "1e200", "--beta", "0.2", "--m0", "1"],
        ["spectrum", "--V0", "0.1", "--beta", "0.2", "--m0", "1",
         "--hbar-c", "1e300"],
        ["spectrum", "--V0", "0.1", "--beta", "0.2", "--m0", "1e200",
         "--method", "closed_form"],
        ["approx-error", "--config", "configs/reference.json",
         "--betas", "1e-300"],
        ["approx-error", "--config", "configs/reference.json",
         "--betas", "0.2,1e300"],
    ])
    def test_out_of_domain_is_a_config_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must" in captured.err

    def test_domain_bounds(self):
        # approx-error solves the system at every beta, so each one must
        # meet the rule; the default betas do not bind the other commands
        with pytest.raises(ConfigError, match="betas\\[1\\]"):
            parse_config(REF_SOURCE, {"command": "approx_error",
                                      "betas": "0.2,1e-300"})
        # |V0| and m0 up to 1e4 screening energies
        edge = '{"V0": -1000.0, "beta": 0.1, "m0": 1000.0, "hbar_c": 1.0}'
        assert parse_config(edge, {}).system.m0 == 1000.0
        with pytest.raises(ConfigError, match="at most 10000"):
            parse_config(edge, {"hbar_c": 0.99})
        with pytest.raises(ConfigError, match="betas\\[3\\]"):
            parse_config(edge, {"command": "approx_error"})

    def test_small_screening_wavefunction_returns_samples(self, capsys):
        # 2A exceeds 1000 for this ground state, where the Gauss-Jacobi
        # weight mass 2**(2s+2A+1) * B(...) overflows; the norm does not
        argv = ["--V0", "0.0005", "--beta", "0.001", "--m0", "1"]
        assert main(["wavefunction"] + argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "r,z,phi,phi_normalized" and len(rows) == 4001
        assert main(["validate"] + argv) in (0, 1)
        out = capsys.readouterr().out
        assert "wavefunction_norm,pass" in out
        assert "norm_quadrature_cross_check,pass" in out

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(V0=_MAGNITUDE, beta=_MAGNITUDE, m0=_MAGNITUDE,
           m1_share=st.floats(0.0, 1.0, exclude_max=True),
           hbar_c=_MAGNITUDE)
    def test_parsed_configs_end_in_records(self, V0, beta, m0, m1_share,
                                           hbar_c):
        _records_or_config_error(V0, beta, m0, m1_share, hbar_c)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(beta=_EXPONENT, hbar_c=_EXPONENT, m0=st.floats(-12.0, 5.0),
           V0=st.floats(-12.0, 5.0), sign=st.sampled_from([1.0, -1.0, 0.0]),
           m1_share=st.floats(0.0, 1.0, exclude_max=True))
    def test_parsed_configs_near_the_bounds_end_in_records(
            self, beta, hbar_c, m0, V0, sign, m1_share):
        # scales drawn by exponent, the well relative to beta*hbar_c, so
        # that most draws parse and the bounds are crossed from both sides
        se = 10.0 ** (beta + hbar_c)
        _records_or_config_error(sign * se * 10.0 ** V0, 10.0 ** beta,
                                 se * 10.0 ** m0, m1_share, 10.0 ** hbar_c)


_DEEP_WELL = {"V0": 3e5, "beta": 1e3, "m0": 1e7, "m1": 5e6}
# a deep system (1026 root-solved l = 0 levels) whose oracle sweeps
# overflow on the default mesh
_UNRESOLVED = {"V0": -0.00361685, "beta": 0.00350693, "m0": 9.49202,
               "m1": 0.216751}
_EQUAL_POWERS = {"V0": 0.4394609, "beta": 0.5, "m0": 1.0, "m1": 0.3}
# critical coupling, V0 = sqrt(m1**2 + (beta*hbar_c)**2/4): the s-wave
# origin power is 0
_CRITICAL = {"V0": 0.2529802663774083, "beta": 0.49597989949748744,
             "m0": 1.0, "m1": 0.05}
# deep wells near critical coupling in the l = 1 channel, where m1**2 - V0**2
# rounds like 1e-13 but the origin rule's band is 1e-12 wide: in exact
# arithmetic on these inputs 1/4 + a3_sq is -9.4e-13 (inside the band:
# regular) and -1.27e-12 (beyond it: over-attractive)
_INSIDE_BAND = {"V0": 49.85057255438498, "beta": 1.0, "m0": 81.899,
                "m1": 49.828}
_BEYOND_BAND = {"V0": 52.41146916467808, "beta": 1.0, "m0": 67.144,
                "m1": 52.39}
# the validate battery's rows, in order; all but constant_mass_reduction
# when m1 != 0
_BATTERY = ("coefficient_energy_independence", "reduction_discriminant_zero",
            "branch_shape_consistency", "bound_states_found",
            "quantization_at_closed_form", "closed_vs_root_solve",
            "constant_mass_reduction", "branch_midpoint_identity",
            "oracle_agreement_l0", "oracle_node_counts", "mode_agreement_l0",
            "wavefunction_norm", "wavefunction_nodes",
            "wavefunction_ode_residual", "norm_quadrature_cross_check",
            "jacobi_endpoint_anchor")


# the status tokens each command documents
_STATUS_TOKENS = {
    "spectrum": {"ok", "spurious", "unbound", "no_bound_state",
                 "invalid_regime", "grid_resolution"},
    "validate": {"pass", "fail"},
    "approx-error": {"ok", "unmatched", "invalid_regime", "grid_resolution"},
    # named on stderr when there is nothing to sample
    "wavefunction": {"no_bound_state", "spurious", "unbound",
                     "grid_resolution", "invalid_regime", "non_normalizable"}}


def test_every_solver_error_names_a_documented_token():
    # a failure that a row reports is a SolverError whose status is the
    # token; the wavefunction's unnormalizable state is one of them
    solver_errors = [cls for cls in vars(errors).values()
                     if isinstance(cls, type) and issubclass(cls, SolverError)
                     and cls is not SolverError]
    documented = set().union(*_STATUS_TOKENS.values())
    assert errors.NonNormalizable in solver_errors
    assert errors.NonNormalizable.status == "non_normalizable"
    assert all(cls.status in documented for cls in solver_errors)


class TestOracleCommandsEndInRecords:
    @settings(max_examples=8, deadline=None, derandomize=True,
              database=None)
    @given(beta=st.floats(-2.0, 0.5), V0=st.floats(-1.5, 1.0),
           sign=st.sampled_from([1.0, -1.0]),
           m1=st.floats(0.0, 1.0, exclude_max=True))
    def test_drawn_configs_end_in_records(self, beta, V0, sign, m1):
        # screening drawn by exponent from 0.01 up, the well relative to
        # it, m0 = 1 (the oracle's random-survey domain, widened): every
        # oracle command ends in rows with a documented status token, or
        # in a configuration error with exit code 2 and nothing on stdout;
        # a wavefunction with nothing to sample exits 1 and names its token
        # on stderr
        beta = 10.0 ** beta
        flags = [f"--V0={sign * beta * 10.0 ** V0!r}", f"--beta={beta!r}",
                 "--m0=1", f"--m1={m1!r}"]
        for command, extra in (
                ("spectrum", ["--method=oracle", "--n-max=2", "--l-max=1"]),
                ("validate", []),
                ("approx-error", ["--l-max=0", f"--betas={beta!r},"
                                  f"{beta / 2.0!r}"]),
                ("wavefunction", ["--method=oracle"])):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command] + flags + extra)
            rows = out.getvalue().splitlines()
            if code == 2:
                assert rows == []
                continue
            if command == "wavefunction":
                assert (code == 0 and len(rows) > 1) or (
                    code == 1 and rows == [] and any(
                        token in err.getvalue()
                        for token in _STATUS_TOKENS[command]))
                continue
            assert code in ((0, 1) if command == "validate" else (0,))
            column = rows[0].split(",").index("status")
            assert rows[1:] and {row.split(",")[column] for row in rows[1:]
                                 } <= _STATUS_TOKENS[command]

    # fixed extreme configs besides: m0 at its bound of 1e4 screening
    # energies, |V0| at its bound, an empty well, an over-attractive
    # origin, a mass profile
    # that all but vanishes at infinity and a screening too small for the
    # default grid, and two systems whose tail and origin powers A and s
    # agree to about 1e-5 at the battery's energy.  Whether the oracle
    # scan fails or has no level to look for, validate prints every row
    # of the battery, and the reduction engine squares every radicand
    @pytest.mark.parametrize("system", [
        _DEEP_WELL,
        {"V0": -1000.0, "beta": 0.1, "m0": 1000.0},
        {"V0": 0.0, "beta": 0.2, "m0": 1.0},
        {"V0": 5.0, "beta": 0.2, "m0": 1.0},
        {"V0": 0.1, "beta": 0.2, "m0": 1.0, "m1": 0.999999},
        {"V0": 0.0005, "beta": 0.001, "m0": 1.0},
        _EQUAL_POWERS,
        {"V0": 0.010106729474781596, "beta": 0.017021687720744777,
         "m0": 0.015337664538176738, "m1": 0.008543303515934275},
    ], ids=["deep_well", "V0_bound", "empty_well", "over_attractive",
            "flat_mass", "small_beta", "equal_powers", "equal_powers_small"])
    @pytest.mark.parametrize("command", ["validate", "approx_error"])
    def test_fixed_configs(self, command, system):
        records = _records(execute(_cfg(json.dumps(system), command=command,
                                        l_max=0, betas=[system["beta"]])))
        statuses = {r["status"] for r in records}
        assert records and statuses <= {
            "pass", "fail", "ok", "unmatched", "invalid_regime",
            "grid_resolution"}
        if command == "validate":
            assert [r["check"] for r in records] == [
                name for name in _BATTERY if name != "constant_mass_reduction"
                or system.get("m1", 0.0) == 0.0]
            assert all(r["status"] == "pass" for r in records[1:3])

    def test_equal_powers_validate_passes(self, capsys):
        argv = [f"--{k}={v}" for k, v in _EQUAL_POWERS.items()]
        assert main(["validate"] + argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 15 and all(",pass," in r for r in rows)

    def test_critical_coupling_validate_passes(self, capsys):
        argv = [f"--{k}={v!r}" for k, v in _CRITICAL.items()]
        assert main(["validate"] + argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 15 and all(",pass," in r for r in rows)

    def test_deep_well(self, capsys):
        # its wavefunctions cannot be normalized and its oracle sweeps
        # overflow: failing rows and status tokens, not a traceback
        argv = [f"--{k}={v}" for k, v in _DEEP_WELL.items()]
        assert main(["validate"] + argv) == 1
        out = capsys.readouterr().out
        for row in ("wavefunction_norm,fail,inf", "wavefunction_nodes,fail,",
                    "wavefunction_ode_residual,fail,inf",
                    "norm_quadrature_cross_check,fail,inf",
                    "oracle_agreement_l0,fail,inf"):
            assert row in out
        assert main(["spectrum", "--method", "oracle", "--l-max", "0"]
                    + argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(r.endswith(",grid_resolution") for r in rows)

    def test_unresolved_deep_system_fails_fast(self, capsys):
        # its l=0 scan swept about 83,000 energies on the uniform grid and
        # took 146 s; on the mesh its first sweep overflows, so the command
        # ends in well under 10 s with the same 12 rows
        argv = [f"--{k}={v!r}" for k, v in _UNRESOLVED.items()]
        start = time.perf_counter()
        assert main(["spectrum", "--method", "oracle", "--n-max", "2",
                     "--l-max", "1"] + argv) == 0
        assert time.perf_counter() - start < 10.0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 12
        assert all(r.endswith(",grid_resolution") for r in rows)


class TestSpectrumRecords:
    def test_closed_form_reference_table(self):
        cfg = _cfg(method="closed_form")
        records = _records(execute(cfg))
        assert len(records) == 12            # (n,l,branch) each exactly once
        keys = {(r["n"], r["l"], r["branch"]) for r in records}
        assert len(keys) == 12
        assert all(tuple(r.keys()) == ("n", "l", "branch", "method",
                                       "energy", "status") for r in records)
        assert all(r["method"] == "closed_form" for r in records)
        by_key = {(r["n"], r["l"], r["branch"]): r for r in records}
        ok = by_key[(0, 0, "upper")]
        assert ok["status"] == "ok"
        assert ok["energy"] == pytest.approx(REFERENCE_TRUE[(0, 0)],
                                             abs=1e-13)
        assert by_key[(0, 0, "lower")]["status"] == "spurious"
        assert by_key[(2, 0, "upper")]["status"] == "spurious"
        assert by_key[(2, 0, "lower")]["status"] == "spurious"

    def test_deep_well_closed_form_roots_are_ok(self, capsys):
        # 3748 screening energies deep, where the residual F rounds at
        # about 4e-8 of its scale: both genuine roots are labelled ok, and
        # validate prints all 15 rows (m1 != 0) with row 4 passing
        system = ["--V0", "3225.5912179108122", "--beta", "1", "--m0",
                  "10000", "--m1", "3748.9751114563664"]
        assert main(["spectrum", "--n-max", "0", "--l-max", "0", "--method",
                     "closed_form"] + system) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["ok", "ok"]
        main(["validate"] + system)
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 15
        assert rows[4].startswith("quantization_at_closed_form,pass,")

    def test_root_solver_reference_table(self):
        records = _records(execute(_cfg()))  # default quantization_root
        by_key = {(r["n"], r["l"], r["branch"]): r for r in records}
        assert by_key[(0, 0, "upper")]["status"] == "ok"
        assert by_key[(0, 0, "upper")]["energy"] == pytest.approx(
            REFERENCE_TRUE[(0, 0)], abs=1e-9)
        assert by_key[(0, 0, "lower")]["status"] == "no_bound_state"
        assert by_key[(0, 0, "lower")]["energy"] is None
        assert by_key[(2, 0, "upper")]["status"] == "no_bound_state"
        assert all(r["method"] == "quantization_root" for r in records)

    def test_oracle_method(self):
        cfg = _cfg(method="oracle", n_max=1, l_max=0, branch="upper")
        records = _records(execute(cfg))
        assert [r["method"] for r in records] == ["oracle_approx"] * 2
        assert records[0]["status"] == records[1]["status"] == "ok"
        assert records[0]["energy"] == pytest.approx(REFERENCE_TRUE[(0, 0)],
                                                     abs=5e-9)
        assert records[1]["energy"] == pytest.approx(REFERENCE_TRUE[(1, 0)],
                                                     abs=5e-9)

    def test_oracle_rows_read_no_analytic_solver(self, monkeypatch):
        # the oracle labels its own states: neither the closed form nor the
        # root solve is asked
        def refuse(*args):
            raise AssertionError("an analytic solver was called")

        for name in ("energy_closed_form", "energy_root_solve"):
            monkeypatch.setattr(cli.ha, name, refuse)
        records = _records(execute(_cfg(method="oracle", n_max=1, l_max=0)))
        assert [(r["branch"], r["status"]) for r in records] == [
            ("lower", "no_bound_state"), ("upper", "ok")] * 2

    def test_second_oracle_state_on_a_branch_warns(self, monkeypatch,
                                                   caplog):
        # two "upper" states with n = 0: the row keeps the second, and a
        # warning names both energies
        states = [ShootingDiagnostics(energy=E, node_count=0,
                                      tail_mismatch=0.0, converged=True,
                                      branch="upper") for E in (0.7, 0.8)]
        monkeypatch.setattr(cli.oracle, "find_bound_states",
                            lambda *args, **kwargs: states)
        with caplog.at_level(logging.WARNING, logger="kghulthen.cli"):
            records = _records(execute(_cfg(method="oracle", n_max=0,
                                            l_max=0)))
        assert [(r["branch"], r["energy"], r["status"]) for r in records] \
            == [("lower", None, "no_bound_state"), ("upper", 0.8, "ok")]
        (record,) = caplog.records
        assert "0.7 and 0.8" in record.getMessage()

    def test_empty_well_yields_no_bound_state_rows(self):
        cfg = parse_config('{"V0": 0.0, "beta": 0.2, "m0": 1.0}',
                           {"n_max": 0, "l_max": 0})
        records = _records(execute(cfg))
        assert all(r["status"] == "no_bound_state" for r in records)
        assert all(r["energy"] is None for r in records)

    @pytest.mark.parametrize("method", ["closed_form", "quantization_root",
                                        "oracle"])
    def test_invalid_regime_rows_per_channel(self, method):
        cfg = parse_config(
            '{"V0": 0.3, "beta": 0.2, "m0": 1.0, "m1": 0.1}',
            {"method": method, "n_max": 0, "l_max": 1})
        records = _records(execute(cfg))
        by_key = {(r["n"], r["l"], r["branch"]): r for r in records}
        # the s channel is over-attractive, the l=1 channel is not
        assert by_key[(0, 0, "upper")]["status"] == "invalid_regime"
        assert by_key[(0, 0, "upper")]["energy"] is None
        assert by_key[(0, 1, "upper")]["status"] in ("ok", "spurious")
        assert by_key[(0, 1, "upper")]["energy"] is not None

    def test_critical_coupling_methods_agree(self):
        # 1/4 + a3_sq rounds to -5.6e-17 in the s channel, inside the
        # origin rule's rounding band, so every method solves it with s = 0
        uppers = []
        for method in ("quantization_root", "closed_form", "oracle"):
            records = _records(execute(_cfg(
                json.dumps(_CRITICAL), method=method, n_max=0, l_max=0,
                branch="upper")))
            assert [r["status"] for r in records] == ["ok"]
            uppers.append(records[0]["energy"])
        assert max(uppers) - min(uppers) <= 1e-6

    @pytest.mark.parametrize("method", ["closed_form", "quantization_root",
                                        "oracle"])
    def test_beyond_the_rounding_band_is_invalid_regime(self, method):
        # 1e-6 relative deeper than critical coupling: over-attractive
        deeper = dict(_CRITICAL, V0=0.2529805193576746)
        records = _records(execute(_cfg(json.dumps(deeper), method=method,
                                        n_max=0, l_max=0)))
        assert [r["status"] for r in records] == ["invalid_regime"] * 2

    @staticmethod
    def _by_method(system):
        """Each method's records of n = 0, l <= 1, keyed by (l, branch)."""
        return {method: {(r["l"], r["branch"]): r for r in _records(execute(
                    _cfg(json.dumps(system), method=method, n_max=0,
                         l_max=1)))}
                for method in ("closed_form", "quantization_root", "oracle")}

    def test_inside_the_rounding_band_every_method_solves_l1(self):
        tables = self._by_method(_INSIDE_BAND)
        regimes = {method: {key: r["status"] == "invalid_regime"
                            for key, r in rows.items()}
                   for method, rows in tables.items()}
        for regime in regimes.values():
            assert regime == {(0, "lower"): True, (0, "upper"): True,
                              (1, "lower"): False, (1, "upper"): False}
        root = tables["quantization_root"][1, "upper"]
        shot = tables["oracle"][1, "upper"]
        assert root["status"] == shot["status"] == "ok"
        assert abs(root["energy"] - shot["energy"]) \
            <= 1e-9 * abs(shot["energy"])

    def test_beyond_the_rounding_band_every_method_refuses_l1(self):
        for rows in self._by_method(_BEYOND_BAND).values():
            assert {key: r["status"] for key, r in rows.items()} \
                == dict.fromkeys(rows, "invalid_regime")

    def test_unbound_status(self):
        cfg = parse_config('{"V0": 0.2, "beta": 0.1, "m0": 1.0}',
                           {"method": "closed_form", "n_max": 4, "l_max": 2,
                            "branch": "upper"})
        records = _records(execute(cfg))
        by_key = {(r["n"], r["l"]): r for r in records}
        assert by_key[(4, 2)]["status"] == "unbound"

    def test_rest_unit_reporting(self):
        raw = parse_config('{"V0": 0.2, "beta": 0.4, "m0": 2.0}',
                           {"method": "closed_form", "n_max": 0,
                            "l_max": 0, "branch": "upper"})
        scaled = parse_config('{"V0": 0.2, "beta": 0.4, "m0": 2.0}',
                              {"method": "closed_form", "n_max": 0,
                               "l_max": 0, "branch": "upper",
                               "report_in_rest_units": True})
        e_raw = _records(execute(raw))[0]["energy"]
        e_scaled = _records(execute(scaled))[0]["energy"]
        assert e_scaled == pytest.approx(e_raw / 2.0, rel=1e-15)


def _shallow_wells(seed, count):
    """(V0, beta, m1) of seeded wells with m0 = 1, beta in [0.01, 0.05],
    |V0| up to beta/2 and m1 up to 2*beta."""
    rng = np.random.default_rng(seed)
    wells = []
    for _ in range(count):
        beta = float(rng.uniform(0.01, 0.05))
        wells.append((float(rng.uniform(-0.5, 0.5)) * beta, beta,
                      float(rng.uniform(0.0, 2.0)) * beta))
    return wells


class TestWavefunctionRecords:
    def test_reference_ground_state(self):
        cfg = _cfg(command="wavefunction", grid_points=300)
        records = _records(execute(cfg))
        assert len(records) == 300
        assert tuple(records[0].keys()) == ("r", "z", "phi",
                                            "phi_normalized")
        radii = [r["r"] for r in records]
        assert radii == sorted(radii)
        mid = records[150]
        assert mid["z"] == pytest.approx(1.0 - math.exp(-0.2 * mid["r"]),
                                         rel=1e-12)
        # phi = amplitude * phi_normalized with one shared amplitude
        ratios = {round(r["phi"] / r["phi_normalized"], 9)
                  for r in records if abs(r["phi_normalized"]) > 1e-6}
        assert len(ratios) == 1

    @pytest.mark.parametrize("argv, token", [
        (["--n-max=2"], "no_bound_state"),
        (["--n-max=2", "--method=closed_form"], "spurious"),
        (["--V0=300", "--beta=1", "--m0=1000", "--m1=500"],
         "non_normalizable"),
        (["--V0=300", "--beta=1", "--m0=1000", "--m1=500",
          "--method=oracle"], "grid_resolution"),
        (["--V0=5"], "invalid_regime")])
    def test_nothing_to_sample_exits_1_naming_the_token(self, capsys, argv,
                                                       token):
        # the reference's flags, overridden by argv
        assert main(["wavefunction", "--V0=0.1", "--beta=0.2", "--m0=1"]
                    + argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and token in err

    @pytest.mark.parametrize("flags", [
        ["--V0=0.0133", "--beta=0.036", "--m0=1", "--m1=0.034"]] + [
        [f"--V0={V0!r}", f"--beta={beta!r}", "--m0=1", f"--m1={m1!r}"]
        for V0, beta, m1 in _shallow_wells(28, 6)],
        ids=["n0_pair"] + [f"well_{i}" for i in range(6)])
    def test_every_ok_oracle_state_has_samples(self, capsys, flags):
        # m0 at 20-100 screening energies, where the condition's scale
        # sqrt(a1_sq) reaches 100: every state that the oracle's spectrum
        # prints ok (n <= 1, l = 0) is one that wavefunction samples, on
        # either branch
        assert main(["spectrum", "--method=oracle", "--n-max=1",
                     "--l-max=0"] + flags) == 0
        rows = [row.split(",") for row in
                capsys.readouterr().out.splitlines()[1:]]
        ok = [(n, branch) for n, _, branch, _, _, status in rows
              if status == "ok"]
        assert ok
        for n, branch in ok:
            code = main(["wavefunction", "--method=oracle", f"--n-max={n}",
                         "--l-max=0", f"--branch={branch}"] + flags)
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), (n, branch)
            assert len(out.splitlines()) == 4001

    def test_missing_state_reports_and_returns_empty(self, capsys):
        cfg = _cfg(command="wavefunction", n_max=2, l_max=0)
        records = _records(execute(cfg))
        assert records == []
        err = capsys.readouterr().err
        assert "no_bound_state" in err and "n=2" in err


class TestValidateRecords:
    def test_reference_battery_passes(self):
        records = _records(execute(_cfg(command="validate")))
        assert len(records) == 16
        assert len({r["check"] for r in records}) == 16
        assert all(r["status"] == "pass" for r in records)
        assert all(tuple(r.keys()) == ("check", "status", "value",
                                       "tolerance") for r in records)

    def test_kg_pair_sharing_n_passes(self, capsys):
        # both n=0 levels are genuine and the oracle finds a 0-node state
        # for each: they pair by branch, not as two rivals for one level
        assert main(["validate", "--V0", "0.1632", "--beta", "0.1459",
                     "--m0", "1", "--m1", "0.1806"]) == 0
        assert ",fail," not in capsys.readouterr().out

    def test_unresolved_oracle_grid_is_a_failing_row(self, capsys):
        # the default mesh cannot resolve this deep system's l=0 oracle
        # states (its sweeps overflow, GridResolution): the battery reports
        # the scan's two rows as failing instead of dying with a traceback,
        # and still compares the modes' W
        records = _records(execute(_cfg(json.dumps(_UNRESOLVED),
                                        command="validate")))
        rows = {r["check"]: (r["status"], r["value"]) for r in records}
        assert rows["oracle_agreement_l0"] == ("fail", float("inf"))
        assert rows["oracle_node_counts"] == ("fail", float("inf"))
        assert rows["mode_agreement_l0"] == ("pass", 0.0)
        argv = [f"--{k}={v!r}" for k, v in _UNRESOLVED.items()]
        assert main(["validate"] + argv) == 1
        assert "oracle_agreement_l0,fail,inf" in capsys.readouterr().out

    def test_shallow_fixture_battery_passes(self, capsys):
        # its oracle row read 2.67e-6 against 1e-6 on the uniform grid
        # with its origin ladder; on the mesh it reads 1.8e-10
        assert main(["validate", "--V0", "0.0098", "--beta", "0.02",
                     "--m0", "1"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert all(status == "pass" for status, _ in rows.values())
        assert float(rows["oracle_agreement_l0"][1]) <= 1e-9

    def test_small_screening_oracle_rows_pass(self, capsys):
        # the uniform grid could not resolve this Coulomb-like well's l=0
        # states (GridResolution); on the mesh they meet the closed form
        main(["validate", "--V0", "0.0005", "--beta", "0.001", "--m0", "1"])
        rows = _rows(capsys.readouterr().out)
        assert rows["oracle_agreement_l0"][0] == "pass"
        assert rows["oracle_node_counts"] == ("pass", "0")


def _rows(csv):
    """The validate CSV's rows as {check: (status, value)}."""
    return {check: (status, value) for check, status, value, _ in
            (line.split(",") for line in csv.splitlines()[1:])}


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv(table) -> str:
    """CSV as one call per cell and one join per row: the rule whose bytes
    the column-typed serializer must reproduce."""
    if len(table.rows) == 0:
        return ""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     1e300, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
_CELLS = {
    "float": _FLOATS,
    "np.float64": _FLOATS.map(np.float64),
    "None": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "str": st.text(alphabet=st.sampled_from("ab,%sd 1.-\u00e9"), max_size=8),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=6))
    rows = draw(st.integers(min_value=0, max_value=12))
    return Table(tuple(f"c{j}" for j in range(len(kinds))),
                 [tuple(draw(_CELLS[kind]) for kind in kinds)
                  for _ in range(rows)])


def _table(objects):
    """The Table of parsed JSON objects, which share one key order."""
    return Table(tuple(objects[0]) if objects else (),
                 [tuple(obj.values()) for obj in objects])


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestSerialize:
    def test_csv_cells(self):
        table = Table(("a", "b", "c", "d"), [(1.0, None, True, "x"),
                                             (0.1, 2, False, "")])
        text = serialize(table, "csv")
        assert text == ("a,b,c,d\n"
                        "1,,true,x\n"
                        "0.10000000000000001,2,false,\n")

    def test_empty_records(self):
        assert serialize(Table(("a",), []), "csv") == ""
        assert serialize(Table(("a",), []), "json") == "[]\n"

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_float_matrix_without_cells(self, shape, output_format):
        # a float matrix with no cells renders as its list of rows does
        columns = ("a", "b", "c")[:shape[1]]
        want = serialize(Table(columns, [()] * shape[0]), output_format)
        assert serialize(Table(columns, np.zeros(shape)),
                         output_format) == want
        if shape == (3, 0) and output_format == "csv":
            assert want == "\n\n\n\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            serialize(Table(("a",), []), "tsv")

    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    def test_csv_matches_per_cell_rule(self, table):
        assert serialize(table, "csv") == _reference_csv(table)

    @pytest.mark.parametrize("n", [0, 1])
    def test_reference_wavefunction_matches_per_cell_rule(self, n,
                                                          monkeypatch):
        # NumPy proves every cell: none goes to CPython's format
        with open("configs/reference.json", encoding="utf-8") as handle:
            source = handle.read()
        table = execute(_cfg(source, command="wavefunction", n_max=n,
                             l_max=0))
        assert len(table.rows) == 4000
        seen = []
        decimal = cli._decimal
        monkeypatch.setattr(cli, "_decimal", lambda x: seen.append(
            x.size) or decimal(x))
        monkeypatch.setattr(cli, "_csv_cell", _reject)
        assert serialize(table, "csv") == _reference_csv(table)
        assert sum(seen) == 16000

    def test_wavefunction_memory(self):
        # the samples stay one float matrix, rendered in blocks of 1000
        # rows: building and writing the reference wavefunction peaks at
        # 1.03 MB traced (1.07 MB with 1024-row blocks; 2000 and 4000 rows
        # peak at 1.59 and 2.21 MB), where a list of row lists and one '%'
        # format took 1.58 MB
        config = _cfg(command="wavefunction")
        serialize(execute(config), "csv")
        tracemalloc.start()
        try:
            serialize(execute(config), "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3e6

    def test_json_round_trip(self):
        table = Table(("n", "energy", "status"),
                      [(0, 0.1 + 0.2, "ok"), (1, None, "no_bound_state")])
        text = serialize(table, "json")
        assert text.endswith("\n")
        assert serialize(_table(json.loads(text)), "json") == text
        assert json.loads(text)[0]["energy"] == 0.1 + 0.2

    @settings(max_examples=100, deadline=None)
    @given(table=_tables())
    def test_json_is_strict_and_round_trips(self, table):
        # a non-finite float is written as its CSV cell text, so a strict
        # parser reads every output and the parsed values reproduce it
        text = serialize(table, "json")
        assert serialize(_table(json.loads(text, parse_constant=_reject)),
                         "json") == text

    def test_unresolved_validate_json_is_strict(self, capsys):
        argv = [f"--{k}={v!r}" for k, v in _UNRESOLVED.items()]
        assert main(["validate", "--format", "json"] + argv) == 1
        rows = json.loads(capsys.readouterr().out, parse_constant=_reject)
        values = {r["check"]: r["value"] for r in rows}
        assert values["oracle_agreement_l0"] == "inf"
        assert values["oracle_node_counts"] == "inf"

    def test_every_command_returns_a_full_table(self):
        for command in ("spectrum", "wavefunction", "validate",
                        "approx_error"):
            table = execute(_cfg(command=command))
            assert isinstance(table, Table) and len(table.rows) != 0
            assert all(len(row) == len(table.columns)
                       for row in table.rows)


def _float_column(values) -> Table:
    return Table(("x",), np.array(values, dtype=float).reshape(-1, 1))


def _edge_floats():
    """Values where a fast '%.17g' is likely to slip, and their
    neighbours.  1e-14 and 1e98 lie within 5e-18 below their powers of
    ten, so their 17 digits round up to 10**17."""
    nearby = [5e-324, 2.2250738585072014e-308, 1e-280, 1e280, 1e16, 1e17,
              1e-14, 1e98, *(10.0 ** e for e in range(-5, 23))]
    values = [0.0, -0.0, math.inf, -math.inf, math.nan,
              1000000000000000.25, 1e23, 0.1, 0.5]
    for v in nearby:
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    return values + [-v for v in values]


class TestFloatFormat:
    """The NumPy '%.17g' of float-matrix tables, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                         max_size=40))
    def test_bit_patterns(self, bits):
        table = _float_column(struct.unpack(f"<{len(bits)}d",
                                            struct.pack(f"<{len(bits)}Q",
                                                        *bits)))
        assert serialize(table, "csv") == _reference_csv(table)

    def test_seeded_sweep(self):
        # half raw bit patterns, half with exponents near 1, where the
        # fixed-point forms (1e-5 <= |x| < 1e17) live
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
        near = (bits[100_000:] & np.uint64(0x800FFFFFFFFFFFFF)) | (
            rng.integers(1023 - 60, 1023 + 60, 100_000).astype(np.uint64)
            << np.uint64(52))
        bits[100_000:] = near
        values = bits.view(np.float64).reshape(-1, 4)
        assert serialize(Table(("a", "b", "c", "d"), values), "csv") == (
            "a,b,c,d\n" + "".join(
                "%.17g,%.17g,%.17g,%.17g\n" % tuple(row)
                for row in values.tolist()))

    def test_edge_values(self):
        table = _float_column(_edge_floats())
        assert serialize(table, "csv") == _reference_csv(table)

    def test_edges_planted_in_a_large_table(self):
        rng = np.random.default_rng(4)
        values = (rng.choice([-1.0, 1.0], 16000)
                  * 10.0 ** rng.uniform(-8.0, 20.0, 16000))
        edges = _edge_floats()
        values[rng.choice(16000, len(edges), replace=False)] = edges
        table = Table(("r", "z", "phi", "phi_normalized"),
                      values.reshape(4000, 4))
        assert serialize(table, "csv") == _reference_csv(table)

    @pytest.mark.parametrize("width", [1, 3, 4, 5])
    @pytest.mark.parametrize("rows", [1, 999, 1000, 1001, 1024, 4096])
    def test_block_edges_and_widths(self, rows, width):
        # blocks of rows end at other cells for each width; half the bit
        # patterns have exponents near 1, where the fixed-point forms live
        rng = np.random.default_rng(rows * 10 + width)
        bits = rng.integers(0, 2**64, rows * width, dtype=np.uint64)
        near = rng.random(bits.size) < 0.5
        bits[near] = (bits[near] & np.uint64(0x800FFFFFFFFFFFFF)) | (
            rng.integers(1023 - 60, 1023 + 60, near.sum()).astype(np.uint64)
            << np.uint64(52))
        values = bits.view(np.float64)
        edges = rng.permutation(_edge_floats())[:values.size]
        values[rng.choice(values.size, edges.size, replace=False)] = edges
        table = Table(tuple(f"c{j}" for j in range(width)),
                      values.reshape(rows, width))
        assert serialize(table, "csv") == _reference_csv(table)

    @pytest.mark.parametrize("low, high", [
        (1e-4, 1.0),        # "0.000"-prefixed cells only: no point slot
        (1e-300, 1e-5),     # scientific cells only: a point after digit 0
        (1e16, 1e17),       # a point after digit 16: every point slot
    ])
    def test_point_slots_of_a_block(self, low, high):
        # a block keeps point slots up to its last point; each extreme
        # of that count renders the same bytes
        rng = np.random.default_rng(7)
        values = rng.choice([-1.0, 1.0], 3000) * np.exp(
            rng.uniform(math.log(low), math.log(high), 3000))
        table = Table(("a", "b", "c"), values.reshape(1000, 3))
        assert serialize(table, "csv") == _reference_csv(table)

    @pytest.mark.parametrize("exponents", [range(-279, 280), [3]])
    def test_powers_of_ten_built_once_per_exponent(self, exponents,
                                                   monkeypatch):
        # one block: 10**(16 - k) is built for each k present and no
        # other, whether the block holds hundreds of exponents from -279
        # to 279 or one; mantissas in [1.5, 9) keep log10 off the powers
        # of ten, so no k is corrected and every k is built once
        rng = np.random.default_rng(11)
        k = rng.choice(np.asarray(exponents), 900)
        k[:2] = min(exponents), max(exponents)
        values = (rng.choice([-1.0, 1.0], k.size)
                  * rng.uniform(1.5, 9.0, k.size) * 10.0 ** k.astype(float))
        assert set(np.floor(np.log10(np.abs(values))).astype(int)) == set(
            k.tolist())
        built = []
        ten_power = cli._ten_power
        monkeypatch.setattr(cli, "_ten_power", lambda q: built.append(q)
                            or ten_power(q))
        table = Table(("x", "y", "z"), values.reshape(300, 3))
        assert serialize(table, "csv") == _reference_csv(table)
        assert sorted(built) == sorted(16 - q for q in set(k.tolist()))


GOLDEN_SPECTRUM = ("n,l,branch,method,energy,status\n"
                   "0,0,upper,closed_form,0.75533679898329431,ok\n")


class TestMain:
    ARGS = ["spectrum", "--config", "configs/reference.json", "--n-max", "0",
            "--l-max", "0", "--branch", "upper", "--method", "closed_form"]

    def test_golden_stdout(self, capsys):
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == GOLDEN_SPECTRUM

    def test_output_file_matches_stdout_bytes(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(self.ARGS + ["--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == GOLDEN_SPECTRUM.encode()
        # a second run writes identical bytes
        again = tmp_path / "spec2.csv"
        assert main(self.ARGS + ["--output", str(again)]) == 0
        assert again.read_bytes() == target.read_bytes()

    @pytest.mark.parametrize("target", ["", "missing/out.csv"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, target):
        # a directory, and a file in a directory that does not exist
        path = tmp_path / target
        assert main(self.ARGS + ["--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write output file {str(path)!r}")
        assert "Traceback" not in err

    def test_config_error_exit_codes(self, capsys, tmp_path):
        assert main(["spectrum", "--config", "/no/such/file.json"]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"V0": 0.1, "beta": 0.2, "m0": 1.0, "typo": 1}')
        assert main(["spectrum", "--config", str(bad)]) == 2
        assert "unknown config key 'typo'" in capsys.readouterr().err
        assert main(["spectrum", "--V0", "0.1", "--beta", "0.2",
                     "--m0", "1.0", "--m1", "2.0"]) == 2
        assert "m0 > m1" in capsys.readouterr().err

    def test_validate_exit_codes(self, capsys):
        assert main(["validate", "--config", "configs/reference.json"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 16 and ",fail," not in out
        # a deliberately coarse oracle grid must fail the battery: the
        # sweep cannot hit 1e-6 agreement on 120 points
        assert main(["validate", "--config", "configs/reference.json",
                     "--grid-points", "120"]) == 1
        out = capsys.readouterr().out
        assert "oracle_agreement_l0,fail" in out

    def test_approx_error_single_beta(self, capsys):
        rc = main(["approx-error", "--config", "configs/reference.json",
                   "--betas", "0.1", "--n-max", "0", "--l-max", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "beta,E_approx,E_exact,abs_err,rel_err,status"
        cells = lines[1].split(",")
        assert float(cells[1]) == pytest.approx(0.89679496494864397,
                                                rel=1e-9)
        assert float(cells[2]) == pytest.approx(0.8974994916585266,
                                                rel=1e-9)

    def test_approx_error_status_tokens(self, capsys):
        # at beta=0.4 neither mode binds an n=0, l=1 state; at beta=0.05
        # the l=1 origin is over-attractive
        rc = main(["approx-error", "--config", "configs/reference.json",
                   "--l-max", "1", "--betas", "0.4,0.1,0.05"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[-1] for line in lines] \
            == ["status", "unmatched", "ok", "invalid_regime"]
        assert lines[1].split(",")[1:5] == ["", "", "", ""]
        assert lines[3].split(",")[1:5] == ["", "", "", ""]

    def test_json_format_flag(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["status"] == "ok"
        assert data[0]["energy"] == pytest.approx(REFERENCE_TRUE[(0, 0)],
                                                  abs=1e-13)

    @staticmethod
    def _run(*args):
        """Run ``python -m`` args with src/ first on the module path, as
        pytest's own ``pythonpath`` puts it for the in-process tests."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_console_entry_point(self):
        proc = self._run("kghulthen.cli", *self.ARGS)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_SPECTRUM
        assert proc.stderr == ""

    def test_package_entry_point(self):
        proc = self._run("kghulthen", *self.ARGS)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_SPECTRUM
        assert proc.stderr == ""
        proc = self._run("kghulthen", "spectrum", "--V0", "0.1", "--beta",
                         "0.2", "--m0", "1.0", "--grid-points", "10000000")
        assert proc.returncode == 2
        assert "at most 20000 points" in proc.stderr
