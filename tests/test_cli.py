"""Tests for argument parsing, report emission, self-check mode, and exit codes."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import pathlib
import sys

import numpy as np
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

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
_REPORT_GRID = _TOOLS / "report_grid.py"


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
        )
        assert options == ReportOptions(
            format="json", out=None, check=False, deterministic_output=False
        )

    def test_flag_mapping(self):
        config, options = parse_config(
            ["--rounds", "1000", "--attack", "single", "--seed", "7",
             "--efficiency", "0.8", "--verify-fraction", "0.05",
             "--format", "csv", "--check",
             "--out", "report.csv", "--deterministic-output"]
        )
        assert config.rounds == 1000
        assert config.seed == 7
        assert config.efficiency == 0.8
        assert config.verify_fraction == 0.05
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
            (["--seed", "-3"], "--seed"),
            (["--attack", "sneaky"], "--attack"),
            # NaN fails every comparison, so a range test written as
            # `x < 0 or x > 1` would let it through.
            (["--efficiency", "nan"], "--efficiency"),
            (["--verify-fraction", "nan"], "--verify-fraction"),
            (["--verify-fraction", "-0.1"], "--verify-fraction"),
            (["--seed", "18446744073709551616"], "--seed"),
            (["--rounds", "-1"], "--rounds"),
            # From 2**64 / 3 rounds on, two draws of a batch share a state.
            (["--rounds", str(2**64 // 3 + 1)], "--rounds"),
            (["--rounds", str(2**64 - 1)], "--rounds"),
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
        assert "--eve-bases" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--frobnicate"], ["--workers", "1"]])
    def test_unknown_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(argv)
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_parser_is_reused_unchanged(self, capsys):
        # parse_config reuses one parser; a failed parse leaves nothing behind
        # for the next call, and build_parser still makes a fresh one.
        with pytest.raises(SystemExit):
            parse_config(["--rounds", "0", "--attack", "double"])
        config, options = parse_config(["--rounds", "5"])
        assert (config.rounds, config.attack, options.check) == (5, None, False)
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser().format_help() == cli._PARSER.format_help()


class TestReportDocuments:
    def test_json_round_trip_exact(self, tmp_path):
        config = SimConfig(rounds=3000, seed=5)
        result = run_batch(config)
        options = ReportOptions(deterministic_output=True)
        stats = result.stats.to_dict()
        doc = build_report(result, config, options, None, stats)
        parsed = json.loads(render_json(doc))
        for field, value in stats.items():
            assert parsed["stats"][field] == value
        assert parsed["config"]["rounds"] == 3000
        assert parsed["schema_version"] == "2"
        assert "generated_at" not in parsed

    def test_key_digests_and_equality(self):
        config = SimConfig(rounds=3000, seed=5)
        result = run_batch(config)
        options = ReportOptions(deterministic_output=True)

        def keys(bob_key):
            return build_report(dataclasses.replace(result, bob_key=bob_key),
                                config, options, None, result.stats.to_dict())["keys"]

        def digest(key):
            return hashlib.sha256(key.as_string().encode()).hexdigest()

        alice = result.alice_key
        assert result.bob_key is alice
        assert keys(alice) == {"length": len(alice), "alice_sha256": digest(alice),
                               "bob_sha256": digest(alice), "equal": True}
        # A second key object with the same bits, and one with another bit.
        bits = np.array(alice.bits, dtype=np.uint8)
        assert keys(alice.with_bits(bits.copy()))["equal"] is True
        bits[-1] ^= 1
        other = alice.with_bits(bits)
        assert keys(other) == {"length": len(alice), "alice_sha256": digest(alice),
                               "bob_sha256": digest(other), "equal": False}

    def test_timestamp_present_by_default(self):
        config = SimConfig(rounds=50, seed=5)
        result = run_batch(config)
        doc = build_report(result, config, ReportOptions(), None, result.stats.to_dict())
        assert "generated_at" in doc

    def test_csv_shape_and_round_trip(self):
        config = SimConfig(rounds=3000, seed=6)
        result = run_batch(config)
        options = ReportOptions(format="csv", deterministic_output=True)
        doc = build_report(result, config, options, None, result.stats.to_dict())
        text = render_csv(doc)
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2
        # Written out: CSV_FIELDS is derived from the dataclass fields, so
        # comparing the header with it could never fail.
        assert rows[0] == CSV_FIELDS == [
            "schema_version", "rounds", "seed", "efficiency", "attack", "eve_bases",
            "verify_fraction", "coincidences", "coincidence_rate",
            "coincidence_rate_se", "same_basis_count", "diff_basis_count",
            "discarded_count", "bits_per_coincidence", "bits_per_coincidence_se",
            "ekert_ratio", "ekert_ratio_se", "same_basis_mismatches",
            "same_basis_mismatch_rate", "same_basis_mismatch_se", "key_length",
            "key_bit_error_rate", "key_bit_error_se", "verify_compared_rounds",
            "verify_mismatches",
            "verify_mismatch_rate", "eve_information", "eve_information_se",
            "eve_guess_accuracy", "detection_same_bases_compared",
            "detection_same_bases_rate", "detection_same_bases_se",
            "detection_diff_bases_compared", "detection_diff_bases_rate",
            "detection_diff_bases_se", "alice_key_sha256", "bob_key_sha256",
            "keys_equal", "checks_passed",
        ]
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
            result, config, ReportOptions(format="csv", deterministic_output=True), None,
            result.stats.to_dict(),
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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_key_eve_estimators_are_null(self, fmt, capsys):
        code = main(["--rounds", "37", "--seed", "1", "--efficiency", "0.05",
                     "--attack", "single", "--format", fmt])
        assert code == 0
        out = capsys.readouterr().out
        if fmt == "json":
            stats = json.loads(out)["stats"]
        else:
            header, row = csv.reader(io.StringIO(out))
            stats = {k: (None if v == "" else v) for k, v in zip(header, row)}
        assert int(stats["key_length"]) == 0
        assert stats["eve_information"] is None
        assert stats["eve_guess_accuracy"] is None


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

    @pytest.mark.parametrize(
        "argv, undefined",
        [
            # one round: no same-basis round, so no mismatch rate
            (["--rounds", "1", "--seed", "1", "--check"], {"same_basis_mismatch_rate"}),
            # no coincidence and an empty key: no band can be formed
            (["--rounds", "37", "--seed", "1", "--efficiency", "0.05",
              "--attack", "single", "--check"],
             {"bits_per_coincidence", "same_basis_mismatch_rate", "eve_information"}),
        ],
    )
    def test_undefined_verdicts_are_null(self, argv, undefined, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        parsed = json.loads(captured.out)
        assert parsed["checks_passed"] is True
        assert {c["metric"] for c in parsed["checks"] if c["passed"] is None} == undefined
        assert all(c["passed"] is True for c in parsed["checks"]
                   if c["metric"] not in undefined)

    def test_report_grid_never_fails_a_correct_run(self, capsys, monkeypatch):
        # Every scenario at 1 to 70 000 rounds, efficiency down to 0.05. The
        # script puts its src/ on sys.path; the copy keeps that to this test.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("report_grid", _REPORT_GRID)
        report_grid = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(report_grid)
        assert report_grid.main([]) == 0
        printed = capsys.readouterr().out
        digests = json.loads(printed)
        assert len(digests) == 576
        assert {name for name, case in digests.items() if case["exit"] != 0} == set()
        # Every one of the 576 reports, pinned: a change that alters any of
        # them on purpose updates this digest with the golden ones.
        assert hashlib.sha256(printed.encode()).hexdigest() == (
            "b96c48eaa4701daafb1f2412c2fdd9bd183dd1e69aa4bc1e91abc8d63ae88f81")

    def test_one_percent_bias_caught_at_1e6_rounds(self, capsys, monkeypatch):
        argv = ["--rounds", "1000000", "--seed", "5", "--check"]
        result = run_batch(parse_config(argv)[0])
        monkeypatch.setattr(cli, "run_batch", lambda config: result)
        assert main(argv) == 0
        monkeypatch.setattr(cli, "run_batch", lambda config: _with_bias(result, 1.01))
        assert main(argv) == 1
        assert "check failed: bits_per_coincidence" in capsys.readouterr().err

    def test_check_builds_one_stats_dict(self, capsys, monkeypatch):
        # The verdicts and the report read the same dict of the stats.
        calls = []
        to_dict = cli.BatchStats.to_dict
        monkeypatch.setattr(cli.BatchStats, "to_dict",
                            lambda stats: calls.append(1) or to_dict(stats))
        assert main(["--rounds", "2000", "--attack", "double", "--check"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        by_metric = {c["metric"]: c["actual"] for c in parsed["checks"]}
        assert by_metric["bits_per_coincidence"] == parsed["stats"]["bits_per_coincidence"]

    def test_check_verdicts_use_scenario_table(self):
        config = SimConfig(rounds=30_000, seed=45)
        result = run_batch(config)
        checks = evaluate_checks(result.stats.to_dict(), config)
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

    def test_batch_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def no_memory(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run_batch", no_memory)
        out = tmp_path / "report.json"
        assert main(["--rounds", "100", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: 100 rounds do not fit in memory\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("rounds", [2**62, 2**64 // 3 - 1])
    def test_batch_larger_than_any_array(self, rounds, tmp_path, capsys):
        # Codes of 2 bytes per round exceed numpy's largest array, so the
        # batch stops before it allocates anything.
        out = tmp_path / "report.json"
        assert main(["--rounds", str(rounds), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {rounds} rounds do not fit in memory\n"
        assert captured.out == "" and not out.exists()

    def test_failed_write_keeps_earlier_report(self, tmp_path, capsys, monkeypatch):
        import os

        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        real_write = os.write

        def full_disk(fd, data):
            # Takes part of the text, then fails as a full disk would.
            real_write(fd, data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "write", full_disk)
        code = main(["--rounds", "100", "--out", str(out)])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err
        assert out.read_text() == "earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_short_writes_still_give_the_whole_report(self, tmp_path, monkeypatch):
        import os

        argv = ["--rounds", "100", "--deterministic-output", "--out"]
        whole = tmp_path / "whole.json"
        assert main(argv + [str(whole)]) == 0
        real_write = os.write
        calls = []

        def one_byte(fd, data):
            calls.append(len(data))
            return real_write(fd, data[:1])

        monkeypatch.setattr(cli.os, "write", one_byte)
        out = tmp_path / "report.json"
        assert main(argv + [str(out)]) == 0
        assert out.read_bytes() == whole.read_bytes()
        assert len(calls) == len(whole.read_bytes())

    def test_symlink_at_a_temporary_name_is_not_followed(self, tmp_path):
        import os
        import stat

        # The temporary name the writer once used, planted as a link to a
        # file the report must not touch.
        out = tmp_path / "report.json"
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me\n")
        planted = tmp_path / f"report.json.{os.getpid()}.tmp"
        planted.symlink_to(victim)
        code = main(["--rounds", "100", "--out", str(out), "--deterministic-output"])
        assert code == 0
        assert victim.read_text() == "keep me\n"
        assert planted.is_symlink() and planted.resolve() == victim
        assert not out.is_symlink()
        assert json.loads(out.read_text())["stats"]["rounds"] == 100
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [out.name, victim.name, planted.name])
        # The report's mode follows the umask, as a plain open would give it.
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_out_through_a_symlink_replaces_its_target(self, tmp_path):
        # The temporary file goes beside the target, and the link stays.
        target = tmp_path / "reports" / "report.json"
        target.parent.mkdir()
        target.write_text("earlier report\n")
        link = tmp_path / "latest.json"
        link.symlink_to(target)
        code = main(["--rounds", "100", "--out", str(link), "--deterministic-output"])
        assert code == 0
        assert link.is_symlink() and link.resolve() == target
        assert json.loads(target.read_text())["stats"]["rounds"] == 100
        assert sorted(p.name for p in tmp_path.iterdir()) == [link.name, "reports"]
        assert [p.name for p in target.parent.iterdir()] == [target.name]

    def test_out_through_a_dangling_symlink_creates_its_target(self, tmp_path):
        target = tmp_path / "reports" / "report.json"
        target.parent.mkdir()
        link = tmp_path / "latest.json"
        link.symlink_to(target)
        code = main(["--rounds", "100", "--out", str(link), "--deterministic-output"])
        assert code == 0
        assert link.is_symlink() and link.resolve() == target
        assert json.loads(target.read_text())["stats"]["rounds"] == 100
        assert [p.name for p in target.parent.iterdir()] == [target.name]

    def test_fifo_written_in_place(self, tmp_path):
        import os
        import stat
        import threading

        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code = main(["--rounds", "100", "--out", str(fifo), "--deterministic-output"])
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(received[0])["stats"]["rounds"] == 100


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


def test_call_cost_tool_prints_its_figures():
    # tools/call_cost.py gives the set-up, fault and CPU figures of
    # CHANGES.md; it runs in a process of its own, as its faults and its
    # import are the process's.
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, str(_TOOLS / "call_cost.py"), "--calls", "2", "--warmup", "0",
         "--src", str(_TOOLS.parent / "src"), "--", "--rounds", "1000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cost = json.loads(proc.stdout)
    assert cost["argv"] == ["--rounds", "1000"]
    assert set(cost["minflt"]) == {"median", "min", "max"}
    assert 0 <= cost["minflt"]["min"] <= cost["minflt"]["median"] <= cost["minflt"]["max"]
    assert cost["cpu_ms"] > 0 and cost["transient_mb"] > 0
    assert cost["setup_s"] > 0


def test_importing_the_entry_point_runs_nothing():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import hyperqkd.__main__; print('after import')"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("after import\n", "")
