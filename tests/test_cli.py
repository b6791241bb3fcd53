import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairsim
from pairsim import cli, keyvalue
from pairsim import source as source_mod
from test_source import make_chain, make_source


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_out(text):
    return keyvalue.parse_keyvalue(text)


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def small_config(tmp_path):
    src = make_source(2e5)
    chain = make_chain(dark1=5e3, dark2=5e3)
    mapping = {**source_mod.source_to_mapping(src),
               **source_mod.chain_to_mapping(chain)}
    path = tmp_path / "config.txt"
    keyvalue.write_keyvalue(path, mapping)
    return path


class TestQpm:
    def test_solve_period(self, capsys):
        code, out, _ = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--signal", "1314e-9", "--temp", "100")
        assert code == 0
        kv = parse_out(out)
        period = keyvalue.get_float(kv, "poling_period_m")
        assert abs(period - 12.1e-6) / 12.1e-6 < 0.15
        assert abs(keyvalue.get_float(kv, "phase_mismatch_rad_per_m")) < 1e-6

    def test_degeneracy_temperature_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--signal", "1314e-9", "--temp", "100")
        period = keyvalue.get_float(parse_out(out), "poling_period_m")
        code, out, _ = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--period", repr(period))
        assert code == 0
        kv = parse_out(out)
        assert abs(keyvalue.get_float(kv, "temperature_c") - 100.0) < 0.05
        assert keyvalue.get_float(kv, "signal_wavelength_m") \
            == pytest.approx(1314e-9, rel=1e-9)

    def test_underdetermined_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "qpm", "--pump", "657e-9")
        assert code == 1 and "--period/--temp/--signal" in err

    def test_overdetermined_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--signal", "1314e-9", "--temp", "100",
                               "--period", "12.1e-6")
        assert code == 1

    def test_unsolvable_period_is_solver_error(self, capsys):
        code, _, err = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--period", "10e-6")
        assert code == 3 and "no degeneracy temperature" in err

    def test_sellmeier_edge_that_rounds_up_through_nm(self, capsys,
                                                       tmp_path):
        from importlib import resources
        text = resources.files("pairsim.data").joinpath(
            "cln_ne_sellmeier.txt").read_text(encoding="utf-8")
        path = tmp_path / "model.txt"
        path.write_text(text.replace("wavelength_max_um = 5.00",
                                     "wavelength_max_um = 1.63"),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "qpm", "--sellmeier", str(path),
                                 "--pump", "657e-9", "--period", "12.4e-6",
                                 "--temp", "140")
        assert code == 0, err
        signal = keyvalue.get_float(parse_out(out), "signal_wavelength_m")
        assert 1314e-9 < signal < 1.63e-6

    def test_tuning_curve_csv(self, capsys):
        code, out, _ = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--signal", "1314e-9", "--temp", "100")
        period = keyvalue.get_float(parse_out(out), "poling_period_m")
        code, out, _ = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--period", repr(period),
                               "--curve", "100:130:7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "temperature_c,signal_wavelength_m,idler_wavelength_m"
        assert len(lines) >= 5
        first = lines[1].split(",")
        assert float(first[1]) >= 2 * 657e-9 - 1e-12

    def test_out_writes_manifest(self, capsys, tmp_path):
        report = tmp_path / "point.txt"
        code, _, _ = run_cli(capsys, "qpm", "--pump", "657e-9",
                             "--signal", "1314e-9", "--temp", "100",
                             "--out", str(report))
        assert code == 0
        manifest = keyvalue.read_keyvalue(str(report) + ".manifest")
        assert manifest["command"] == "qpm"


class TestSimulate:
    def test_run_writes_events_and_manifest(self, capsys, tmp_path,
                                            small_config):
        out_path = tmp_path / "run.events"
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               str(small_config), "--duration", "0.2",
                               "--seed", "7", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        manifest = keyvalue.read_keyvalue(str(out_path) + ".manifest")
        assert manifest["command"] == "simulate"
        assert manifest["output_sha256"] == sha(out_path)
        stdout = parse_out(out)
        assert keyvalue.get_int(stdout, "pairs_emitted") > 0

    def test_identical_reruns_bit_exact(self, capsys, tmp_path, small_config):
        a, b = tmp_path / "a.events", tmp_path / "b.events"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "simulate", "--config",
                                 str(small_config), "--duration", "0.2",
                                 "--seed", "9", "--out", str(path))
            assert code == 0
        assert sha(a) == sha(b)

    def test_from_manifest_reproduces(self, capsys, tmp_path, small_config):
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "11", "--out", str(first))
        second = tmp_path / "second.events"
        code, _, _ = run_cli(capsys, "simulate", "--from-manifest",
                             str(first) + ".manifest", "--out", str(second))
        assert code == 0
        assert sha(first) == sha(second)

    def test_from_manifest_refuses_other_rng_scheme(self, capsys, tmp_path,
                                                    small_config):
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "11", "--out", str(first))
        manifest = keyvalue.read_keyvalue(str(first) + ".manifest")
        assert manifest["rng_scheme"] == source_mod.RNG_SCHEME
        for scheme in (None, "per-pair-0"):
            edited = {k: v for k, v in manifest.items() if k != "rng_scheme"}
            if scheme is not None:
                edited["rng_scheme"] = scheme
            path = tmp_path / "edited.manifest"
            keyvalue.write_keyvalue(path, edited)
            code, _, err = run_cli(capsys, "simulate", "--from-manifest",
                                   str(path), "--out",
                                   str(tmp_path / "second.events"))
            assert code == 1
            assert source_mod.RNG_SCHEME in err
            assert (scheme or "<missing>") in err
        assert not (tmp_path / "second.events").exists()

    def test_jobs_below_one_is_usage_error(self, capsys, tmp_path,
                                           small_config):
        for jobs in ("0", "-2"):
            code, _, err = run_cli(capsys, "simulate", "--config",
                                   str(small_config), "--duration", "0.1",
                                   "--seed", "1", "--out",
                                   str(tmp_path / "x.events"), "--jobs", jobs)
            assert code == 1 and "--jobs" in err

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._worker_count(1) == 1
        assert cli._worker_count(8) == 2
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._worker_count(8) == 1

    def test_jobs_write_one_file_per_seed(self, capsys, tmp_path,
                                          small_config):
        out = tmp_path / "multi.events"
        code, stdout, _ = run_cli(capsys, "simulate", "--config",
                                  str(small_config), "--duration", "0.1",
                                  "--seed", "20", "--out", str(out),
                                  "--jobs", "2")
        assert code == 0
        assert (tmp_path / "multi.events.seed20").exists()
        assert (tmp_path / "multi.events.seed21").exists()

    def test_zero_duration_is_usage_error(self, capsys, tmp_path,
                                          small_config):
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(small_config), "--duration", "0",
                               "--seed", "1", "--out",
                               str(tmp_path / "x.events"))
        assert code == 1

    def test_missing_args_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 1 and "--config" in err


class TestCount:
    @pytest.fixture()
    def event_file(self, capsys, tmp_path, small_config):
        out = tmp_path / "run.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "7", "--out", str(out))
        capsys.readouterr()
        return out

    def test_summary_report(self, capsys, event_file):
        code, out, _ = run_cli(capsys, "count", str(event_file),
                               "--window", "1e-9", "--dark1", "5e3",
                               "--dark2", "5e3")
        assert code == 0
        kv = parse_out(out)
        # net singles expectation 0.02 * 2e5 = 4 kHz; raw = 9 kHz over 0.2 s
        s1_net = keyvalue.get_float(kv, "s1_net_hz")
        sigma = (9000.0 * 0.2) ** 0.5 / 0.2
        assert abs(s1_net - 4000.0) < 4.0 * sigma

    def test_csv_matches_keyvalue(self, capsys, event_file, tmp_path):
        code, kv_out, _ = run_cli(capsys, "count", str(event_file))
        code, csv_out, _ = run_cli(capsys, "count", str(event_file), "--csv")
        kv = parse_out(kv_out)
        header, row = csv_out.strip().splitlines()
        csv_map = dict(zip(header.split(","), row.split(",")))
        assert csv_map["s1_raw_hz"] == kv["s1_raw_hz"]
        assert csv_map["rc_raw_hz"] == kv["rc_raw_hz"]

    def test_report_out_writes_manifest(self, capsys, event_file, tmp_path):
        report = tmp_path / "summary.csv"
        code, _, _ = run_cli(capsys, "count", str(event_file), "--csv",
                             "--out", str(report))
        assert code == 0
        manifest = keyvalue.read_keyvalue(str(report) + ".manifest")
        assert manifest["command"] == "count"

    def test_empty_file_with_duration_gives_zero_summary(self, capsys,
                                                         tmp_path):
        path = tmp_path / "empty.events"
        path.write_text("# pairsim-events v1\n# duration_ps = 1000000000\n",
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "count", str(path))
        assert code == 0
        kv = parse_out(out)
        assert keyvalue.get_float(kv, "s1_raw_hz") == 0.0
        assert keyvalue.get_float(kv, "rc_raw_hz") == 0.0

    def test_corrupt_detector_index_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.events"
        path.write_text("# pairsim-events v1\n# duration_ps = 1000\n"
                        "1\t10\n3\t20\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "count", str(path))
        assert code == 2 and ":4" in err

    def test_unsorted_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.events"
        path.write_text("# pairsim-events v1\n# duration_ps = 1000\n"
                        "1\t50\n2\t10\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "count", str(path))
        assert code == 2 and "non-decreasing" in err

    def test_timestamp_beyond_int64_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.events"
        path.write_text("# pairsim-events v1\n# duration_ps = 1000\n"
                        "1\t10\n2\t99999999999999999999\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "count", str(path))
        assert code == 2 and ":4:" in err

    def test_duration_beyond_int64_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.events"
        path.write_text("# pairsim-events v1\n"
                        "# duration_ps = 99999999999999999999\n1\t10\n",
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "count", str(path))
        assert code == 2 and "duration" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "count", str(tmp_path / "nope.events"))
        assert code == 2


class TestEstimate:
    def test_headline_flags(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--s1", "155e3",
                               "--s2", "155e3", "--rc", "1550",
                               "--splitter", "--power", "1e-6",
                               "--pump", "657e-9")
        assert code == 0
        kv = parse_out(out)
        assert keyvalue.get_float(kv, "pair_rate_hz") == 7.75e6
        eta = keyvalue.get_float(kv, "conversion_efficiency")
        assert 2.0e-6 <= eta <= 2.5e-6

    def test_knbo3_flags(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--s1", "250e3",
                               "--s2", "250e3", "--rc", "5000",
                               "--splitter", "--power", "10e-3",
                               "--pump", "655e-9")
        kv = parse_out(out)
        assert keyvalue.get_float(kv, "conversion_efficiency") \
            == pytest.approx(1.9e-10, rel=0.01)

    def test_zero_rc_is_solver_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--s1", "1e3",
                               "--s2", "1e3", "--rc", "0", "--splitter")
        assert code == 3

    def test_underflowed_pair_rate_is_solver_error(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--s1", "1e-300",
                                 "--s2", "1e-300", "--rc", "1e-300")
        assert code == 3 and out == ""
        assert "positive finite" in err

    def test_duration_below_one_count_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--s1", "155e3",
                                 "--s2", "155e3", "--rc", "1550",
                                 "--splitter", "--duration", "5e-4")
        assert code == 1 and out == ""
        assert "fewer than one net count" in err

    def test_summary_csv_input(self, capsys, tmp_path, small_config):
        events = tmp_path / "run.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.5", "--seed", "3", "--out", str(events))
        report = tmp_path / "summary.csv"
        run_cli(capsys, "count", str(events), "--dark1", "5e3",
                "--dark2", "5e3", "--csv", "--out", str(report))
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "estimate", "--summary", str(report),
                               "--splitter", "--power", "1e-6",
                               "--pump", "657e-9")
        assert code == 0
        kv = parse_out(out)
        n = keyvalue.get_float(kv, "pair_rate_hz")
        sigma = keyvalue.get_float(kv, "pair_rate_sigma_hz")
        assert abs(n - 2e5) < 4.0 * sigma

    def test_missing_rates_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--s1", "1e3")
        assert code == 1

    def test_out_writes_manifest(self, capsys, tmp_path):
        report = tmp_path / "estimate.txt"
        code, _, _ = run_cli(capsys, "estimate", "--s1", "155e3",
                             "--s2", "155e3", "--rc", "1550", "--splitter",
                             "--out", str(report))
        assert code == 0
        manifest = keyvalue.read_keyvalue(str(report) + ".manifest")
        assert manifest["command"] == "estimate"


class TestTable1:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert "PPLN waveguide" in out
        assert out.count("FLAGGED") == 1
        assert "Type II BBO bulk" in out

    def test_loose_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--max-dev", "10")
        assert code == 0 and "FLAGGED" not in out

    def test_csv_numbers_match_text(self, capsys):
        _, text, _ = run_cli(capsys, "table1")
        _, csv, _ = run_cli(capsys, "table1", "--csv")
        for token in ("7258064.5", "2.1944828e-06", "1.55e+09"):
            assert token in text and token in csv

    def test_out_writes_manifest(self, capsys, tmp_path):
        report = tmp_path / "comparison.csv"
        code, _, _ = run_cli(capsys, "table1", "--csv", "--out", str(report))
        assert code == 0
        assert (tmp_path / "comparison.csv.manifest").exists()

    def test_missing_data_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "table1", "--data",
                               str(tmp_path / "absent.txt"))
        assert code == 2


def test_cli_import_leaves_scipy_unloaded():
    src_dir = Path(pairsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairsim.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src_dir)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
