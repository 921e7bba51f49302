"""Command-line layer: config parsing, record building, serialization."""

import json
import subprocess
import sys

import pytest

from kghulthen import ConfigError, execute, main, parse_config, serialize

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
        assert "must be positive" in self._err(grid_r_min=-1.0)

    def test_betas_errors(self):
        assert "comma-separated" in self._err(betas="a,b")
        assert "non-empty" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, "betas": []}')
        assert "must be positive" in self._err(betas="0.2,-0.1")
        assert "true or false" in self._err(
            '{"V0": 0.1, "beta": 0.2, "m0": 1.0, '
            '"report_in_rest_units": "yes"}')


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

    def test_invalid_regime_rows_per_channel(self):
        cfg = parse_config(
            '{"V0": 0.3, "beta": 0.2, "m0": 1.0, "m1": 0.1}',
            {"method": "closed_form", "n_max": 0, "l_max": 1})
        records = execute(cfg)
        by_key = {(r["n"], r["l"], r["branch"]): r for r in records}
        # the s channel is over-attractive, the l=1 channel is not
        assert by_key[(0, 0, "upper")]["status"] == "invalid_regime"
        assert by_key[(0, 0, "upper")]["energy"] is None
        assert by_key[(0, 1, "upper")]["status"] in ("ok", "spurious")
        assert by_key[(0, 1, "upper")]["energy"] is not None

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
        import math
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

    def test_unresolved_oracle_grid_is_a_failing_row(self, capsys):
        # the default grid cannot resolve this system's l=0 oracle states
        # (GridResolution): the battery reports it as one failing row
        # instead of dying with a traceback
        system = ["--V0", "0.1748", "--beta", "0.2458", "--m0", "1",
                  "--m1", "0.2767"]
        records = execute(_cfg("", command="validate", V0=0.1748,
                               beta=0.2458, m0=1.0, m1=0.2767))
        failing = [r for r in records if r["status"] == "fail"]
        assert [(r["check"], r["value"]) for r in failing] \
            == [("oracle_agreement_l0", float("inf"))]
        assert main(["validate"] + system) == 1
        assert "oracle_agreement_l0,fail,inf" in capsys.readouterr().out


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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kghulthen.cli"] + self.ARGS,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_SPECTRUM
