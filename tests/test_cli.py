"""Tests for argument parsing, report emission, self-check mode, and exit codes."""

import csv
import dataclasses
import io
import json
import math

import pytest

from hyperqkd import AttackKind, EKERT_BITS_PER_PAIR, EveBasisStrategy, SimConfig, run_batch
from hyperqkd import cli
from hyperqkd.cli import (
    CHECK_Z,
    CSV_FIELDS,
    build_report,
    evaluate_checks,
    main,
    parse_config,
    render_csv,
    render_json,
    ReportOptions,
)


def _with_bias(result, factor):
    """``result`` with its bits per coincidence multiplied by ``factor``."""
    stats = dataclasses.replace(
        result.stats, bits_per_coincidence=result.stats.bits_per_coincidence * factor
    )
    return dataclasses.replace(result, stats=stats)


class TestParseConfig:
    def test_defaults(self):
        config, options = parse_config([])
        assert config == SimConfig(
            rounds=100_000,
            seed=42,
            efficiency=1.0,
            attack=None,
            verify_fraction=0.1,
            workers=1,
        )
        assert options == ReportOptions(
            format="json", out=None, check=False, deterministic_output=False
        )

    def test_flag_mapping(self):
        config, options = parse_config(
            ["--rounds", "1000", "--attack", "single", "--seed", "7",
             "--efficiency", "0.8", "--verify-fraction", "0.05",
             "--workers", "2", "--format", "csv", "--check",
             "--out", "report.csv", "--deterministic-output"]
        )
        assert config.rounds == 1000
        assert config.seed == 7
        assert config.efficiency == 0.8
        assert config.verify_fraction == 0.05
        assert config.workers == 2
        assert config.attack.kind is AttackKind.SINGLE_INTERCEPT
        assert config.attack.strategy is EveBasisStrategy.RANDOM_PER_ROUND
        assert options == ReportOptions(
            format="csv", out="report.csv", check=True, deterministic_output=True
        )

    def test_eve_bases_mapping(self):
        config, _ = parse_config(["--attack", "double", "--eve-bases", "different"])
        assert config.attack.kind is AttackKind.DOUBLE_INTERCEPT
        assert config.attack.strategy is EveBasisStrategy.FIXED_DIFFERENT

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--efficiency", "1.5"], "--efficiency"),
            (["--efficiency", "0"], "--efficiency"),
            (["--rounds", "0"], "--rounds"),
            (["--verify-fraction", "1.0"], "--verify-fraction"),
            (["--workers", "0"], "--workers"),
            (["--seed", "-3"], "--seed"),
            (["--attack", "sneaky"], "--attack"),
        ],
    )
    def test_out_of_range_names_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_eve_bases_without_attack(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--eve-bases", "random"])
        assert excinfo.value.code == 2
        assert "--eve-bases" in capsys.readouterr().err

    def test_single_with_different_bases(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--attack", "single", "--eve-bases", "different"])
        assert excinfo.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--frobnicate"])
        assert excinfo.value.code == 2


class TestReportDocuments:
    def test_json_round_trip_exact(self, tmp_path):
        config = SimConfig(rounds=3000, seed=5)
        result = run_batch(config)
        options = ReportOptions(deterministic_output=True)
        doc = build_report(result, config, options, None)
        parsed = json.loads(render_json(doc))
        stats = result.stats.to_dict()
        for field, value in stats.items():
            assert parsed["stats"][field] == value
        assert parsed["config"]["rounds"] == 3000
        assert parsed["schema_version"] == "1"
        assert "generated_at" not in parsed

    def test_timestamp_present_by_default(self):
        config = SimConfig(rounds=50, seed=5)
        result = run_batch(config)
        doc = build_report(result, config, ReportOptions(), None)
        assert "generated_at" in doc

    def test_csv_shape_and_round_trip(self):
        config = SimConfig(rounds=3000, seed=6)
        result = run_batch(config)
        options = ReportOptions(format="csv", deterministic_output=True)
        doc = build_report(result, config, options, None)
        text = render_csv(doc)
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0] == CSV_FIELDS
        row = dict(zip(rows[0], rows[1]))
        stats = result.stats
        assert int(row["rounds"]) == 3000
        assert int(row["key_length"]) == stats.key_length
        assert row["eve_information"] == ""  # null projects to empty cell
        assert row["keys_equal"] == "true"
        # every stats-mapped numeric cell parses back to the exact value
        stats_dict = stats.to_dict()
        for column, value in stats_dict.items():
            if column in ("verification", "detection") or column not in row:
                continue
            cell = row[column]
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert int(cell) == value

    def test_csv_with_attack_fields(self):
        from hyperqkd import AttackConfig, AttackKind

        config = SimConfig(
            rounds=3000, seed=8, attack=AttackConfig(AttackKind.DOUBLE_INTERCEPT)
        )
        result = run_batch(config)
        doc = build_report(
            result, config, ReportOptions(format="csv", deterministic_output=True), None
        )
        rows = list(csv.reader(io.StringIO(render_csv(doc))))
        row = dict(zip(rows[0], rows[1]))
        det = result.stats.detection
        assert float(row["detection_same_bases_rate"]) == det.same_bases_rate
        assert float(row["detection_diff_bases_rate"]) == det.diff_bases_rate
        assert float(row["eve_information"]) == result.stats.eve_information
        assert row["attack"] == "double" and row["eve_bases"] == "random"

    def test_main_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--rounds", "2000", "--seed", "3", "--out", str(out)])
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["stats"]["rounds"] == 2000
        assert capsys.readouterr().out == ""

    def test_main_writes_stdout(self, capsys):
        code = main(["--rounds", "500", "--seed", "3"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["stats"]["rounds"] == 500

    def test_byte_identical_reports(self, tmp_path):
        argv = ["--rounds", "2000", "--seed", "11", "--deterministic-output"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCheckMode:
    def test_no_attack_check_passes(self, capsys):
        code = main(["--rounds", "30000", "--seed", "42", "--check"])
        captured = capsys.readouterr()
        assert code == 0
        parsed = json.loads(captured.out)
        assert parsed["checks_passed"] is True
        metrics = {c["metric"] for c in parsed["checks"]}
        assert metrics == {
            "bits_per_coincidence",
            "same_basis_mismatch_rate",
            "key_bit_error_rate",
            "ekert_ratio",
        }

    def test_single_attack_check_passes(self, capsys):
        code = main(
            ["--rounds", "30000", "--seed", "43", "--attack", "single", "--check"]
        )
        parsed = json.loads(capsys.readouterr().out)
        assert code == 0
        metrics = {c["metric"] for c in parsed["checks"]}
        assert "eve_information" in metrics

    def test_double_attack_checks_strata(self, capsys):
        code = main(
            ["--rounds", "30000", "--seed", "44", "--attack", "double",
             "--eve-bases", "different", "--check"]
        )
        parsed = json.loads(capsys.readouterr().out)
        assert code == 0
        metrics = {c["metric"] for c in parsed["checks"]}
        assert "detection.diff_bases_rate" in metrics
        assert "detection.same_bases_rate" not in metrics

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        # a result whose bits per coincidence is planted 10% high
        argv = ["--rounds", "2000", "--seed", "1", "--check"]
        result = _with_bias(run_batch(parse_config(argv)[0]), 1.1)
        monkeypatch.setattr(cli, "run_batch", lambda config: result)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "check failed: bits_per_coincidence" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rounds", "500", "--attack", "single", "--check"],
            ["--rounds", "2000", "--seed", "1", "--attack", "double", "--check"],
        ],
    )
    def test_small_batches_pass(self, argv, capsys):
        # these once failed against tolerances sized for 1e5 rounds
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["checks_passed"] is True

    def test_one_percent_bias_caught_at_1e6_rounds(self, capsys, monkeypatch):
        argv = ["--rounds", "1000000", "--seed", "5", "--check"]
        result = run_batch(parse_config(argv)[0])
        monkeypatch.setattr(cli, "run_batch", lambda config: result)
        assert main(argv) == 0
        monkeypatch.setattr(cli, "run_batch", lambda config: _with_bias(result, 1.01))
        assert main(argv) == 1
        assert "check failed: bits_per_coincidence" in capsys.readouterr().err

    def test_check_verdicts_use_scenario_table(self):
        config = SimConfig(rounds=30_000, seed=45)
        result = run_batch(config)
        checks = evaluate_checks(result, config)
        by_metric = {c["metric"]: c for c in checks}
        assert by_metric["same_basis_mismatch_rate"]["tolerance"] == 0.0
        assert by_metric["same_basis_mismatch_rate"]["passed"]
        assert by_metric["bits_per_coincidence"]["expected"] == 1.5
        assert by_metric["ekert_ratio"]["expected"] == 6.75
        # the band is CHECK_Z standard errors taken at the expected value
        se = math.sqrt(0.25 / result.stats.coincidences)
        assert by_metric["bits_per_coincidence"]["tolerance"] == CHECK_Z * se
        assert by_metric["ekert_ratio"]["tolerance"] == CHECK_Z * se / EKERT_BITS_PER_PAIR


class TestExitCodes:
    def test_usage_error(self):
        assert main(["--efficiency", "5"]) == 2

    def test_io_error(self, capsys):
        code = main(
            ["--rounds", "100", "--out", "/nonexistent-dir/report.json"]
        )
        assert code == 3
        assert "cannot write" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperqkd", "--rounds", "200", "--seed", "4",
         "--out", str(out), "--deterministic-output"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["stats"]["rounds"] == 200
