import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairsim
from pairsim import cli, keyvalue
from pairsim import source as source_mod
from test_estimator import TABLE1_CSV_SHA256, TABLE1_TEXT_SHA256, sha256_text
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
    path = tmp_path / "config.txt"
    keyvalue.write_keyvalue(path, source_mod.config_to_mapping(src, chain))
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

    def test_duration_outside_picosecond_range_is_usage_error(
            self, capsys, tmp_path):
        # no photons or darks, so only the duration can stop the run
        config = tmp_path / "zero.txt"
        keyvalue.write_keyvalue(config, source_mod.config_to_mapping(
            make_source(0.0), make_chain(dark1=0.0, dark2=0.0)))
        out = tmp_path / "x.events"
        for duration in ("1e-300", "1e300"):
            code, _, err = run_cli(capsys, "simulate", "--config",
                                   str(config), "--duration", duration,
                                   "--seed", "1", "--out", str(out))
            assert code == 1 and "duration" in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("resolution", [
        "0", "-1", str(10**9 + 1), str(2**63 - 1), str(2**63)])
    def test_resolution_outside_duration_is_usage_error(
            self, capsys, tmp_path, small_config, resolution):
        out = tmp_path / "x.events"
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(small_config), "--duration", "1e-3",
                               "--seed", "1", "--out", str(out),
                               "--resolution-ps", resolution)
        assert code == 1 and "resolution" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_seed_stops_every_job(self, capsys, tmp_path, small_config):
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(small_config), "--duration", "0.1",
                               "--seed", str(2**64 - 1), "--jobs", "2",
                               "--out", str(tmp_path / "x.events"))
        assert code == 1 and "seed" in err
        assert list(tmp_path.glob("x.events*")) == []

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

    @pytest.mark.parametrize("delay", ["0.2", "0.4", "0.200000001",
                                       "0.399999999"])
    def test_delay_aliasing_zero_is_usage_error(self, capsys, event_file,
                                                delay):
        # the 0.2 s run wraps these delays to within one window of zero
        code, out, err = run_cli(capsys, "count", str(event_file),
                                 "--delay", delay)
        assert code == 1 and out == ""
        assert "within 10 windows" in err

    @pytest.mark.parametrize("delay", ["1e-7", "0.200000011", "0.399999989"])
    def test_delay_clear_of_aliasing_passes(self, capsys, event_file, delay):
        code, out, _ = run_cli(capsys, "count", str(event_file),
                               "--delay", delay)
        assert code == 0
        kv = parse_out(out)
        assert keyvalue.get_int(kv, "rc_accidental_count") \
            < keyvalue.get_int(kv, "rc_count")

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

    def test_reports_match_golden_bytes(self, capsys):
        _, text, _ = run_cli(capsys, "table1")
        _, csv, _ = run_cli(capsys, "table1", "--csv")
        assert sha256_text(text) == TABLE1_TEXT_SHA256
        assert sha256_text(csv) == TABLE1_CSV_SHA256

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


_SIMULATE = ["simulate", "--config", "{config}", "--duration", "0.05",
             "--seed", "1", "--out", "{tmp}/sim.events"]


@pytest.mark.parametrize("argv, loaded, unloaded", [
    (None, {"pairsim.cli"}, {"numpy", "concurrent.futures"}),
    (["estimate", "--s1", "1e5", "--s2", "1e5", "--rc", "1e3",
      "--duration", "2"], {"pairsim.estimator"}, {"numpy"}),
    (["table1"], {"pairsim.estimator"}, {"numpy"}),
    (["qpm", "--pump", "657e-9", "--period", "12.4e-6", "--curve",
      "100:130:3"], {"numpy", "pairsim.qpm"},
     {"pairsim.source", "pairsim.events", "pairsim.counting"}),
    (_SIMULATE, {"pairsim.source", "pairsim.events"},
     {"pairsim.qpm", "pairsim.counting", "pairsim.estimator",
      "concurrent.futures"}),
    (_SIMULATE + ["--jobs", "2"], {"concurrent.futures", "pairsim.source"},
     {"pairsim.qpm", "pairsim.counting"}),
    (["count", "{tmp}/tiny.events"], {"pairsim.counting", "pairsim.events"},
     {"pairsim.source", "pairsim.qpm", "pairsim.estimator"}),
], ids=["import", "estimate", "table1", "qpm", "simulate", "simulate-jobs",
        "count"])
def test_command_loads_only_its_layers(tmp_path, small_config, argv, loaded,
                                       unloaded):
    """In a fresh interpreter, main(argv) exits 0 having imported loaded and
    none of unloaded (argv None: only import pairsim.cli)."""
    pairsim.write_event_file(pairsim.EventStream(
        detectors=[1, 2, 1], times_ps=[10, 20, 5000], duration_ps=10**12),
        tmp_path / "tiny.events")
    if argv is not None:
        argv = [a.format(config=small_config, tmp=tmp_path) for a in argv]
    src_dir = Path(pairsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairsim.cli\n"
         f"code = 0 if {argv!r} is None else pairsim.cli.main({argv!r})\n"
         "print(*sys.modules)\n"
         "sys.exit(code)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src_dir)))
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert loaded <= modules and not unloaded & modules
    if argv is not None and "--jobs" in argv:
        assert {p.name for p in tmp_path.glob("sim.events.seed?")} \
            == {"sim.events.seed1", "sim.events.seed2"}


_ESTIMATE = ("estimate --s1=1e5 --s2=1e5 --rc=1e3 --power=1e-3 "
             "--pump=657e-9 --duration=2")
_CURVE = "qpm --pump=657e-9 --period=12.4e-6 --curve=100:130:3"


@pytest.mark.parametrize("template, valid, codes", [
    # {v} takes a valid value (exit 0), then nan, inf, 0 and -1 in turn
    # a zero singles rate is below rc: inconsistent input
    (_ESTIMATE.replace("--s1=1e5", "--s1={v}"), "1e5", (1, 1, 1, 1)),
    (_ESTIMATE.replace("--s2=1e5", "--s2={v}"), "1e5", (1, 1, 1, 1)),
    # rc = 0 or power = 0 leaves nothing to infer: a solver error
    (_ESTIMATE.replace("--rc=1e3", "--rc={v}"), "1e3", (1, 1, 3, 1)),
    (_ESTIMATE.replace("--power=1e-3", "--power={v}"), "1e-3", (1, 1, 3, 1)),
    (_ESTIMATE.replace("--pump=657e-9", "--pump={v}"), "657e-9",
     (1, 1, 1, 1)),
    (_ESTIMATE.replace("--duration=2", "--duration={v}"), "2", (1, 1, 1, 1)),
    # duration_s read from the summary CSV
    ("estimate --summary={summary}", "2", (1, 1, 1, 1)),
    ("table1 --max-dev={v}", "2", (1, 1, 1, 1)),
    # 0 and -1 C lie outside the Sellmeier model's validity range
    (_CURVE.replace("=100:", "={v}:"), "100", (1, 1, 1, 1)),
    (_CURVE.replace(":130:", ":{v}:"), "130", (1, 1, 1, 1)),
    (_CURVE.replace(":3", ":{v}"), "3", (1, 1, 1, 1)),
    # a period or QPM order that is not finite and positive (odd) is a
    # usage error for every solver
    ("qpm --pump=657e-9 --period={v}", "12.4e-6", (1, 1, 1, 1)),
    ("qpm --pump=657e-9 --period={v} --temp=120", "12.4e-6", (1, 1, 1, 1)),
    ("qpm --pump=657e-9 --period={v} --signal=1314e-9", "12.4e-6",
     (1, 1, 1, 1)),
    ("qpm --pump=657e-9 --signal=1314e-9 --temp={v}", "100", (1, 1, 1, 1)),
    ("qpm --pump=657e-9 --signal={v} --temp=100", "1314e-9", (1, 1, 1, 1)),
    ("qpm --pump={v} --signal=1314e-9 --temp=100", "657e-9", (1, 1, 1, 1)),
    ("qpm --pump=657e-9 --period=12.4e-6 --order={v}", "1", (1, 1, 1, 1)),
    ("simulate --config={config} --duration={v} --seed=1 "
     "--out={tmp}/sim.events", "1e-3", (1, 1, 1, 1)),
    ("count {tmp}/tiny.events --window={v}", "1e-9", (1, 1, 1, 1)),
    ("count {tmp}/tiny.events --delay={v}", "1e-7", (1, 1, 1, 1)),
    # a zero assumed dark rate is valid
    ("count {tmp}/tiny.events --dark1={v}", "1e3", (1, 1, 0, 1)),
    ("count {tmp}/tiny.events --dark2={v}", "1e3", (1, 1, 0, 1)),
])
def test_float_option_edge_values_exit_codes(capsys, tmp_path, template,
                                             valid, codes):
    from importlib import resources
    summary = tmp_path / "sum.csv"
    config = resources.files("pairsim.data").joinpath(
        "reference_run_config.txt")
    pairsim.write_event_file(pairsim.EventStream(
        detectors=[1, 2, 1], times_ps=[10, 20, 5000], duration_ps=10**12),
        tmp_path / "tiny.events")
    got = []
    for v in (valid, "nan", "inf", "0", "-1"):
        summary.write_text("s1_net_hz,s2_net_hz,rc_net_hz,duration_s\n"
                           f"1e5,1e5,1e3,{v}\n", encoding="utf-8")
        got.append(run_cli(capsys, *template.format(
            v=v, summary=summary, config=config, tmp=tmp_path).split())[0])
    assert tuple(got) == (0, *codes)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
