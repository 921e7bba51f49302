"""Command-line layer: config parsing, record building, serialization."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghulthen import main, parse_config
from kghulthen.cli import (_FILE_KEYS, _OPTIONS, _build_parser, execute,
                           serialize)
from kghulthen.errors import ConfigError

from conftest import REFERENCE_TRUE

REF_SOURCE = '{"V0": 0.1, "beta": 0.2, "m0": 1.0}'


def _cfg(source=REF_SOURCE, **overrides):
    return parse_config(source, overrides)


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
        assert isinstance(execute(cfg), list)


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
_EQUAL_POWERS = {"V0": 0.4394609, "beta": 0.5, "m0": 1.0, "m1": 0.3}
# critical coupling, V0 = sqrt(m1**2 + (beta*hbar_c)**2/4): the s-wave
# origin power is 0
_CRITICAL = {"V0": 0.2529802663774083, "beta": 0.49597989949748744,
             "m0": 1.0, "m1": 0.05}
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


class TestOracleCommandsEndInRecords:
    # fixed extreme configs, since an oracle scan is too dear for a
    # property: m0 at its bound of 1e4 screening energies, |V0| at its
    # bound, an empty well, an over-attractive origin, a mass profile
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
        records = execute(_cfg(json.dumps(system), command=command,
                               l_max=0, betas=[system["beta"]]))
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


class TestSpectrumRecords:
    def test_closed_form_reference_table(self):
        cfg = _cfg(method="closed_form")
        records = execute(cfg)
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

    def test_root_solver_reference_table(self):
        records = execute(_cfg())            # default quantization_root
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
        records = execute(cfg)
        assert [r["method"] for r in records] == ["oracle_approx"] * 2
        assert records[0]["status"] == records[1]["status"] == "ok"
        assert records[0]["energy"] == pytest.approx(REFERENCE_TRUE[(0, 0)],
                                                     abs=5e-9)
        assert records[1]["energy"] == pytest.approx(REFERENCE_TRUE[(1, 0)],
                                                     abs=5e-9)

    def test_empty_well_yields_no_bound_state_rows(self):
        cfg = parse_config('{"V0": 0.0, "beta": 0.2, "m0": 1.0}',
                           {"n_max": 0, "l_max": 0})
        records = execute(cfg)
        assert all(r["status"] == "no_bound_state" for r in records)
        assert all(r["energy"] is None for r in records)

    @pytest.mark.parametrize("method", ["closed_form", "quantization_root",
                                        "oracle"])
    def test_invalid_regime_rows_per_channel(self, method):
        cfg = parse_config(
            '{"V0": 0.3, "beta": 0.2, "m0": 1.0, "m1": 0.1}',
            {"method": method, "n_max": 0, "l_max": 1})
        records = execute(cfg)
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
            records = execute(_cfg(json.dumps(_CRITICAL), method=method,
                                   n_max=0, l_max=0, branch="upper"))
            assert [r["status"] for r in records] == ["ok"]
            uppers.append(records[0]["energy"])
        assert max(uppers) - min(uppers) <= 1e-6

    @pytest.mark.parametrize("method", ["closed_form", "quantization_root",
                                        "oracle"])
    def test_beyond_the_rounding_band_is_invalid_regime(self, method):
        # 1e-6 relative deeper than critical coupling: over-attractive
        deeper = dict(_CRITICAL, V0=0.2529805193576746)
        records = execute(_cfg(json.dumps(deeper), method=method, n_max=0,
                               l_max=0))
        assert [r["status"] for r in records] == ["invalid_regime"] * 2

    def test_unbound_status(self):
        cfg = parse_config('{"V0": 0.2, "beta": 0.1, "m0": 1.0}',
                           {"method": "closed_form", "n_max": 4, "l_max": 2,
                            "branch": "upper"})
        records = execute(cfg)
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
        e_raw = execute(raw)[0]["energy"]
        e_scaled = execute(scaled)[0]["energy"]
        assert e_scaled == pytest.approx(e_raw / 2.0, rel=1e-15)


class TestWavefunctionRecords:
    def test_reference_ground_state(self):
        cfg = _cfg(command="wavefunction", grid_points=300)
        records = execute(cfg)
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

    def test_missing_state_reports_and_returns_empty(self, capsys):
        cfg = _cfg(command="wavefunction", n_max=2, l_max=0)
        records = execute(cfg)
        assert records == []
        err = capsys.readouterr().err
        assert "no bound state" in err and "n=2" in err


class TestValidateRecords:
    def test_reference_battery_passes(self):
        records = execute(_cfg(command="validate"))
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
        # the default grid cannot resolve this system's l=0 oracle states
        # (GridResolution): the battery reports the scan's two rows as
        # failing instead of dying with a traceback, and still compares
        # the step tables
        system = ["--V0", "0.0005", "--beta", "0.001", "--m0", "1"]
        records = execute(_cfg("", command="validate", V0=0.0005,
                               beta=0.001, m0=1.0))
        rows = {r["check"]: (r["status"], r["value"]) for r in records}
        assert rows["oracle_agreement_l0"] == ("fail", float("inf"))
        assert rows["oracle_node_counts"] == ("fail", float("inf"))
        assert rows["mode_agreement_l0"] == ("pass", 0.0)
        assert main(["validate"] + system) == 1
        assert "oracle_agreement_l0,fail,inf" in capsys.readouterr().out


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv(records) -> str:
    """CSV as one call per cell and one join per row: the rule whose bytes
    the column-typed serializer must reproduce."""
    if not records:
        return ""
    lines = [",".join(records[0].keys())]
    for rec in records:
        lines.append(",".join(_reference_cell(v) for v in rec.values()))
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
def _one_schema_records(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=6))
    rows = draw(st.integers(min_value=0, max_value=12))
    return [{f"c{j}": draw(_CELLS[kind]) for j, kind in enumerate(kinds)}
            for _ in range(rows)]


class TestSerialize:
    def test_csv_cells(self):
        records = [{"a": 1.0, "b": None, "c": True, "d": "x"},
                   {"a": 0.1, "b": 2, "c": False, "d": ""}]
        text = serialize(records, "csv")
        assert text == ("a,b,c,d\n"
                        "1,,true,x\n"
                        "0.10000000000000001,2,false,\n")

    def test_empty_records(self):
        assert serialize([], "csv") == ""
        assert serialize([], "json") == "[]\n"

    def test_mixed_schema_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            serialize([{"a": 1}, {"b": 2}], "csv")
        with pytest.raises(ValueError, match="format"):
            serialize([], "tsv")

    def test_mixed_schema_needs_key_order_and_every_record(self):
        with pytest.raises(ValueError, match="mixed"):
            serialize([{"a": 1, "b": 2}, {"b": 2, "a": 1}], "csv")
        with pytest.raises(ValueError, match="mixed"):
            serialize([{"a": 1.0}, {"a": 2.0}, {"a": 3.0, "b": None}], "csv")

    @settings(max_examples=300, deadline=None)
    @given(records=_one_schema_records())
    def test_csv_matches_per_cell_rule(self, records):
        assert serialize(records, "csv") == _reference_csv(records)

    @pytest.mark.parametrize("n", [0, 1])
    def test_reference_wavefunction_matches_per_cell_rule(self, n):
        with open("configs/reference.json", encoding="utf-8") as handle:
            source = handle.read()
        records = execute(_cfg(source, command="wavefunction", n_max=n,
                               l_max=0))
        assert len(records) == 4000
        assert serialize(records, "csv") == _reference_csv(records)

    def test_json_round_trip(self):
        records = [{"n": 0, "energy": 0.1 + 0.2, "status": "ok"},
                   {"n": 1, "energy": None, "status": "no_bound_state"}]
        text = serialize(records, "json")
        assert text.endswith("\n")
        assert serialize(json.loads(text), "json") == text
        assert json.loads(text)[0]["energy"] == 0.1 + 0.2


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
