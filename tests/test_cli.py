import contextlib
import errno
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pairsim
from pairsim import cli, counting, keyvalue
from pairsim import source as source_mod
from test_estimator import TABLE1_CSV_SHA256, TABLE1_TEXT_SHA256, sha256_text
from test_source import make_chain, make_source, traced_peak


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


class TestSha256File:
    @pytest.fixture(scope="class")
    def event_file(self, tmp_path_factory):
        """A 2 s run of the bundled reference point: 6.4 MB."""
        stream, _ = source_mod.simulate_run(
            source_mod.reference_source(), source_mod.reference_chain(),
            source_mod.RunConfig(2.0, 1))
        path = tmp_path_factory.mktemp("hash") / "run.events"
        pairsim.write_event_file(stream, path)
        return path

    @pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537,
                                      3 * 65_536 + 5])
    def test_equals_hashlib_across_buffer_edges(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "data.bin"
        path.write_bytes(data)
        assert cli._sha256_file(path) == hashlib.sha256(data).hexdigest()

    def test_equals_hashlib_on_event_file(self, event_file):
        assert cli._sha256_file(event_file) == sha(event_file)

    def test_peak_memory_is_one_buffer(self, event_file):
        assert event_file.stat().st_size >= 4_000_000
        tracemalloc.start()
        try:
            cli._sha256_file(event_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 1024


# every command that writes --out; {events} is a simulated event file
MANIFEST_COMMANDS = {
    "qpm": "qpm --pump=657e-9 --signal=1314e-9 --temp=100 --out={out}",
    "qpm --curve": "qpm --pump=657e-9 --period=12.4e-6 --curve=100:130:3 "
                   "--out={out}",
    "simulate": "simulate --config={config} --duration=0.05 --seed=1 "
                "--out={out}",
    "count": "count {events} --csv --out={out}",
    "estimate": "estimate --s1=155e3 --s2=155e3 --rc=1550 --splitter "
                "--out={out}",
    "table1": "table1 --out={out}",
}


@pytest.mark.parametrize("argv", MANIFEST_COMMANDS.values(),
                         ids=MANIFEST_COMMANDS.keys())
def test_manifest_output_sha256_is_the_file_written(capsys, tmp_path,
                                                    small_config, argv):
    events, out = tmp_path / "run.events", tmp_path / "report.out"
    if "{events}" in argv:
        run_cli(capsys, "simulate", f"--config={small_config}",
                "--duration=0.05", "--seed=1", f"--out={events}")
    code, _, _ = run_cli(capsys, *argv.format(
        out=out, config=small_config, events=events).split())
    assert code == 0
    manifest = keyvalue.read_keyvalue(str(out) + ".manifest")
    assert manifest["command"] == argv.split()[0]
    assert manifest["output"] == str(out)
    assert manifest["output_sha256"] == sha(out)


@pytest.mark.parametrize("failing", ["report", "manifest"])
def test_failed_report_write_leaves_the_previous_report(capsys, monkeypatch,
                                                        tmp_path, failing):
    # the report and its manifest go to sibling temporaries that replace
    # them only once both are written
    report = tmp_path / "est.txt"
    manifest = Path(f"{report}.manifest")
    argv = ["estimate", "--s1", "1e5", "--s2", "1e5", "--rc", "1e3",
            "--duration", "2", "--out", str(report)]
    assert run_cli(capsys, *argv)[0] == 0
    before = {p: p.read_bytes() for p in (report, manifest)}

    def part_then_disk_full(path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:20])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    if failing == "report":
        monkeypatch.setattr(Path, "write_text", lambda self, text, **kw:
                            part_then_disk_full(self, text))
    else:
        monkeypatch.setattr(keyvalue, "write_keyvalue",
                            lambda path, mapping, header=():
                            part_then_disk_full(path, keyvalue.format_keyvalue(
                                mapping, header)))
    code, out, err = run_cli(capsys, *argv[:6], "2e3", *argv[7:])
    assert (code, out) == (2, "")
    assert os.strerror(errno.ENOSPC) in err and "Traceback" not in err
    assert {p: p.read_bytes() for p in (report, manifest)} == before
    assert sorted(tmp_path.iterdir()) == sorted([report, manifest])


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
        text = keyvalue._bundled(
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

    @pytest.mark.parametrize("unknown", [[], ["--signal", "1320e-9"]],
                             ids=["degeneracy", "signal"])
    def test_temperature_solve_searches_the_model_window(self, capsys,
                                                         tmp_path, unknown):
        text = keyvalue._bundled(
            "cln_ne_sellmeier.txt").read_text(encoding="utf-8")
        path = tmp_path / "model.txt"
        path.write_text(text.replace("temperature_min_c = 20.0",
                                     "temperature_min_c = 25.0")
                        .replace("temperature_max_c = 250.0",
                                 "temperature_max_c = 180.0"),
                        encoding="utf-8")
        assert "_c = 25.0\ntemperature_max_c = 180.0" in path.read_text(
            encoding="utf-8")
        code, out, err = run_cli(capsys, "qpm", "--sellmeier", str(path),
                                 "--pump", "657e-9", "--period", "12.4e-6",
                                 *unknown)
        assert code == 0, err
        t = keyvalue.get_float(parse_out(out), "temperature_c")
        assert 25.0 <= t <= 180.0

    def test_reference_device_period_solves_above_200_c(self, capsys):
        # the bundled model is valid to 250 C, and the search is its window
        code, out, err = run_cli(capsys, "qpm", "--pump", "657e-9",
                                 "--period", "12.1e-6")
        assert code == 0, err
        t = keyvalue.get_float(parse_out(out), "temperature_c")
        assert 200.0 < t < 205.0

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

    @pytest.mark.parametrize("curve", [
        "100:130:1", "100:100:5", "140:60:41", "-20:-5:7", "-0:35.3:3",
        "60:140:41", "-10.1:10.3:1000"])
    def test_curve_temperatures_are_linspace(self, capsys, monkeypatch,
                                             curve):
        seen = []
        monkeypatch.setattr(pairsim.qpm, "temperature_tuning_curve",
                            lambda pump, period, temps, model, order:
                            seen.append(temps) or [])
        code, _, err = run_cli(capsys, "qpm", "--pump", "657e-9",
                               "--period", "12.4e-6", f"--curve={curve}")
        assert code == 0, err
        t0, t1, n = curve.split(":")
        want = np.linspace(float(t0), float(t1), int(n)).tolist()
        assert [t.hex() for t in seen[0]] == [t.hex() for t in want]

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

    def test_failed_write_leaves_the_previous_run(self, capsys, monkeypatch,
                                                  tmp_path, small_config):
        run = tmp_path / "run.events"
        manifest = Path(str(run) + ".manifest")
        argv = ["simulate", "--config", str(small_config), "--duration",
                "0.1", "--seed", "5", "--out", str(run)]
        assert run_cli(capsys, *argv)[0] == 0
        assert sorted(tmp_path.iterdir()) == sorted(
            [small_config, run, manifest])
        before = {p: p.read_bytes() for p in (run, manifest)}

        def header_then_disk_full(stream, path):
            Path(path).write_bytes(b"# pairsim-events v2\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(cli, "write_event_file", header_then_disk_full)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert os.strerror(errno.ENOSPC) in err and "Traceback" not in err
        assert {p: p.read_bytes() for p in (run, manifest)} == before
        assert sorted(tmp_path.iterdir()) == sorted(
            [small_config, run, manifest])

    def test_from_manifest_reproduces(self, capsys, tmp_path, small_config):
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "11", "--out", str(first))
        second = tmp_path / "second.events"
        code, _, _ = run_cli(capsys, "simulate", "--from-manifest",
                             str(first) + ".manifest", "--out", str(second))
        assert code == 0
        assert sha(first) == sha(second)

    def test_from_manifest_checks_the_hash_it_reproduces(self, capsys,
                                                          tmp_path,
                                                          small_config):
        run = tmp_path / "run.events"
        manifest = Path(str(run) + ".manifest")
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "11", "--out", str(run))
        before = {p: p.read_bytes() for p in (run, manifest)}
        # a re-run in place that reproduces the file leaves both as they were
        code, _, _ = run_cli(capsys, "simulate", "--from-manifest",
                             str(manifest))
        assert code == 0
        assert {p: p.read_bytes() for p in (run, manifest)} == before
        # one hex digit of output_sha256 edited: exit 2, nothing rewritten
        kv = keyvalue.read_keyvalue(manifest)
        good = kv["output_sha256"]
        bad = good[:-1] + ("0" if good[-1] != "0" else "1")
        manifest.write_bytes(before[manifest].replace(good.encode(),
                                                      bad.encode()))
        edited = manifest.read_bytes()
        code, _, err = run_cli(capsys, "simulate", "--from-manifest",
                               str(manifest))
        assert code == 2
        assert good in err and bad in err and "numpy" in err
        assert "Traceback" not in err
        assert run.read_bytes() == before[run]
        assert manifest.read_bytes() == edited
        assert sorted(tmp_path.iterdir()) == sorted(
            [small_config, run, manifest])

    def test_from_manifest_without_output_sha256_is_data_error(
            self, capsys, tmp_path, small_config):
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.1", "--seed", "11", "--out", str(first))
        manifest = keyvalue.read_keyvalue(str(first) + ".manifest")
        del manifest["output_sha256"]
        edited = tmp_path / "edited.manifest"
        keyvalue.write_keyvalue(edited, manifest)
        second = tmp_path / "second.events"
        code, _, err = run_cli(capsys, "simulate", "--from-manifest",
                               str(edited), "--out", str(second))
        assert code == 2 and "'output_sha256'" in err
        assert not second.exists()

    def test_manifest_records_numpy_version(self, capsys, tmp_path,
                                            small_config):
        out = tmp_path / "x.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.1", "--seed", "5", "--out", str(out))
        manifest = keyvalue.read_keyvalue(str(out) + ".manifest")
        assert manifest["numpy"] == np.__version__

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

    def test_from_manifest_refuses_marked_1(self, capsys, tmp_path,
                                            small_config):
        # manifests written before integer-ps simulation name marked-1
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "11", "--out", str(first))
        manifest = keyvalue.read_keyvalue(str(first) + ".manifest")
        path = tmp_path / "old.manifest"
        keyvalue.write_keyvalue(path, {**manifest, "rng_scheme": "marked-1"})
        code, _, err = run_cli(capsys, "simulate", "--from-manifest",
                               str(path), "--out",
                               str(tmp_path / "second.events"))
        assert code == 1
        assert "'marked-1'" in err and repr(source_mod.RNG_SCHEME) in err
        assert not (tmp_path / "second.events").exists()

    def test_from_manifest_refuses_marked_2(self, capsys, tmp_path,
                                            small_config):
        # manifests written before slab simulation name marked-2, whose
        # event files marked-3 does not reproduce
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.2", "--seed", "11", "--out", str(first))
        manifest = keyvalue.read_keyvalue(str(first) + ".manifest")
        path = tmp_path / "old.manifest"
        keyvalue.write_keyvalue(path, {**manifest, "rng_scheme": "marked-2"})
        code, out, err = run_cli(capsys, "simulate", "--from-manifest",
                                 str(path), "--out",
                                 str(tmp_path / "second.events"))
        assert (code, out) == (1, "")
        assert "'marked-2'" in err and "'marked-3'" in err
        assert not (tmp_path / "second.events").exists()

    def test_jobs_below_one_is_usage_error(self, capsys, tmp_path,
                                           small_config):
        for jobs in ("0", "-2"):
            code, _, err = run_cli(capsys, "simulate", "--config",
                                   str(small_config), "--duration", "0.1",
                                   "--seed", "1", "--out",
                                   str(tmp_path / "x.events"), "--jobs", jobs)
            assert code == 1 and "unrecognized arguments: --jobs" in err
            assert not (tmp_path / "x.events").exists()

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

    def test_missing_args_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 1 and "--config" in err

    def test_manifest_records_format(self, capsys, tmp_path, small_config):
        out = tmp_path / "x.events"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(small_config),
                             "--duration", "0.1", "--seed", "5", "--out",
                             str(out))
        assert code == 0
        assert out.read_bytes().startswith(b"# pairsim-events v2\n")
        manifest = keyvalue.read_keyvalue(str(out) + ".manifest")
        assert manifest["format"] == "binary"

    @pytest.mark.parametrize("fmt", [None, "text"])
    def test_manifest_without_binary_format_is_data_error(
            self, capsys, tmp_path, small_config, fmt):
        # only v2 files are written, so a manifest asking for v1 text (or
        # naming no format) cannot be re-run
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.1", "--seed", "11", "--out", str(first))
        manifest = keyvalue.read_keyvalue(str(first) + ".manifest")
        if fmt is None:
            del manifest["format"]
        else:
            manifest["format"] = fmt
        edited = tmp_path / "edited.manifest"
        keyvalue.write_keyvalue(edited, manifest)
        second = tmp_path / "second.events"
        code, _, err = run_cli(capsys, "simulate", "--from-manifest",
                               str(edited), "--out", str(second))
        assert code == 2 and repr(fmt or "<missing>") in err
        assert "Traceback" not in err
        assert not second.exists()
        assert not Path(str(second) + ".manifest").exists()

    def test_write_event_file_writes_v2(self, tmp_path):
        stream = pairsim.EventStream(detectors=[1, 2], times_ps=[10, 20],
                                     duration_ps=100)
        for write in (pairsim.write_event_file, cli.write_event_file):
            path = tmp_path / "default.events"
            write(stream, path)
            assert path.read_bytes().startswith(b"# pairsim-events v2\n")
            assert pairsim.read_event_file(path) == stream

    def test_manifest_with_unknown_format_is_data_error(
            self, capsys, tmp_path, small_config):
        first = tmp_path / "first.events"
        run_cli(capsys, "simulate", "--config", str(small_config),
                "--duration", "0.1", "--seed", "11", "--out", str(first))
        manifest = keyvalue.read_keyvalue(str(first) + ".manifest")
        manifest["format"] = "csv"
        edited = tmp_path / "edited.manifest"
        keyvalue.write_keyvalue(edited, manifest)
        code, _, err = run_cli(capsys, "simulate", "--from-manifest",
                               str(edited), "--out",
                               str(tmp_path / "second.events"))
        assert code == 2 and "'csv'" in err
        assert not (tmp_path / "second.events").exists()


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

    def test_corrupt_detector_index_is_data_error(self, capsys, tmp_path):
        # the detector column starts at byte 78; the second one is 255
        path = tmp_path / "bad.events"
        path.write_bytes(v2_file([10, 20, 30], [1, 255, 2]))
        code, out, err = run_cli(capsys, "count", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: byte 79: ")
        assert "detector index" in err

    def test_unsorted_file_is_data_error(self, capsys, tmp_path):
        # the body starts at byte 54; the third time, 20 < 50, is at 70
        path = tmp_path / "bad.events"
        path.write_bytes(v2_file([10, 50, 20], [1, 2, 1]))
        code, out, err = run_cli(capsys, "count", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: byte 70: ")
        assert "non-decreasing" in err

    def test_duration_beyond_int64_is_data_error(self, capsys, tmp_path):
        # 2**63, one past the int64 maximum; the body starts at byte 69
        path = tmp_path / "bad.events"
        path.write_bytes(v2_file([10], [1], head=b"# pairsim-events v2\n"
                                 b"# duration_ps = %d\n" % 2**63))
        code, out, err = run_cli(capsys, "count", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: byte 69: duration must be")

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "count", str(tmp_path / "nope.events"))
        assert code == 2


def v2_file(times, detectors, events=None,
            head=b"# pairsim-events v2\n# duration_ps = 1000\n"):
    """Bytes of a v2 event file; events overrides the '# events' count."""
    n = len(times) if events is None else events
    return (head + b"# events = %d\n" % n
            + np.array(times, dtype="<i8").tobytes() + bytes(detectors))


# (file bytes, byte offset the error names, message fragment); the header
# of v2_file ends at byte 41 and, with '# events = 2', its body starts at 54.
# A bad header value names the end of the header, where the body starts; a
# header byte that is not UTF-8 is named itself
MALFORMED_V2 = {
    "truncated body": (v2_file([10, 20], [1, 2])[:-1], 71, "needs 18"),
    "events above body": (v2_file([10, 20], [1, 2], events=3), 72,
                          "needs 27"),
    "events below body": (v2_file([10, 20], [1, 2], events=1), 63,
                          "needs 9"),
    "trailing bytes": (v2_file([10, 20], [1, 2]) + b"\0", 72, "needs 18"),
    "detector 0": (v2_file([10, 20], [1, 0]), 71, "detector index"),
    "detector 3": (v2_file([10, 20], [3, 2]), 70, "detector index"),
    "unsorted times": (v2_file([20, 10], [1, 2]), 62, "non-decreasing"),
    "time at duration": (v2_file([10, 1000], [1, 2]), 62, "lie in"),
    "negative time": (v2_file([-5, 10], [1, 2]), 54, "lie in"),
    # the order rule is checked first, so its event is named: the 3
    "negative time then a descent": (v2_file([-5, 10, 3], [1, 2, 1]), 70,
                                     "non-decreasing"),
    "events line missing": (
        v2_file([10, 20], [1, 2]).replace(b"# events = 2\n", b""), 41,
        "# events = <n>"),
    "events negative": (v2_file([10, 20], [1, 2], events=-1), 55,
                        "events must be >= 0"),
    "events not an integer": (
        v2_file([10, 20], [1, 2]).replace(b"= 2\n", b"= 2.0\n"), 56,
        "events is not an integer"),
    "duration_ps missing": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"), 33,
        "missing duration_ps"),
    "duration beyond int64": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"
                b"# duration_ps = 99999999999999999999\n"), 70,
        "duration must be"),
    "resolution 0": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"
                b"# duration_ps = 1000\n# resolution_ps = 0\n"), 74,
        "resolution must be"),
    "header without body": (b"# pairsim-events v2\n# duration_ps = 1000\n",
                            41, "# events = <n>"),
    "header value not UTF-8": (
        v2_file([10], [1], head=b"# pairsim-events v2\n# duration_ps = 1000\n"
                b"# config_digest = ab\xffcd\n"), 61, "not UTF-8 text"),
    "header key not UTF-8": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"
                b"# dur\xffation_ps = 1000\n"), 25, "not UTF-8 text"),
    # header integers are ASCII digits with no sign, as the writer writes
    # them; Python's int() would also take a sign, '_' and other digits
    "seed negative": (
        v2_file([10], [1], head=b"# pairsim-events v2\n# duration_ps = 1000\n"
                b"# seed = -5\n"), 66, "seed is not an integer in ASCII"),
    "duration with underscores": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"
                b"# duration_ps = 1_000_000_000\n"), 63,
        "duration_ps is not an integer in ASCII"),
    "duration with plus sign": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"
                b"# duration_ps = +1000000000\n"), 61,
        "duration_ps is not an integer in ASCII"),
    "duration in Arabic-Indic digits": (
        v2_file([10], [1], head="# pairsim-events v2\n"
                "# duration_ps = \u0661\u0660\u0660\u0660\n".encode()), 58,
        "duration_ps is not an integer in ASCII"),
    # a leading zero would re-write without it; '0' itself reads
    "seed with leading zero": (
        v2_file([10], [1], head=b"# pairsim-events v2\n# duration_ps = 1000\n"
                b"# seed = 007\n"), 67, "seed is not an integer in ASCII"),
    "duration with leading zero": (
        v2_file([10], [1], head=b"# pairsim-events v2\n"
                b"# duration_ps = 01000\n"), 55,
        "duration_ps is not an integer in ASCII"),
    "events with leading zero": (
        v2_file([10, 20], [1, 2]).replace(b"= 2\n", b"= 02\n"), 55,
        "events is not an integer in ASCII"),
    # rates over a run of 0 ps are undefined, so EventStream refuses it
    "duration 0": (
        v2_file([], [], head=b"# pairsim-events v2\n# duration_ps = 0\n"), 51,
        "duration must be a whole number of ps in [1, "),
    # RunConfig's seeds end at 2**64 - 1
    "seed above 2**64 - 1": (
        v2_file([10], [1], head=b"# pairsim-events v2\n# duration_ps = 1000\n"
                b"# seed = 18446744073709551616\n"), 84,
        "seed must be at most 2**64 - 1"),
    # a bad header value names the end of the header even when the body is
    # bad too
    "resolution 0 with times out of order": (
        v2_file([20, 10], [1, 2], head=b"# pairsim-events v2\n"
                b"# duration_ps = 1000\n# resolution_ps = 0\n"), 74,
        "resolution must be"),
    "seed 2**64 with detector 3": (
        v2_file([10], [3], head=b"# pairsim-events v2\n# duration_ps = 1000\n"
                b"# seed = 18446744073709551616\n"), 84,
        "seed must be at most 2**64 - 1"),
}


class TestCountStreamed:
    """count reads the event file block by block and takes the half window
    in whole ps from the exact text of --window."""

    @staticmethod
    def rc_count(tmp_path, window, apart):
        path = tmp_path / "pair.events"
        path.write_bytes(v2_file([1000, 1000 + apart], [1, 2],
                                 head=b"# pairsim-events v2\n"
                                 b"# duration_ps = 1000000000000\n"))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["count", str(path), "--window", window,
                             "--delay", "1e-3"])
        assert code == 0
        return keyvalue.get_int(parse_out(out.getvalue()), "rc_count")

    def test_34_ps_window_counts_a_pair_17_ps_apart(self, tmp_path):
        # 34e-12 * 1e9 * 1e3 / 2 is 16.999999999999996 in floats
        assert self.rc_count(tmp_path, "34e-12", 17) == 1
        assert self.rc_count(tmp_path, "34e-12", 18) == 0

    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(half=st.integers(1, 100_000))
    def test_pair_half_a_whole_ps_window_apart_is_counted(self, tmp_path,
                                                          half):
        window = f"{2 * half}e-12"
        assert self.rc_count(tmp_path, window, half) == 1
        assert self.rc_count(tmp_path, window, half + 1) == 0

    def test_bad_byte_in_a_late_block_writes_nothing(self, capsys,
                                                     monkeypatch, tmp_path):
        # blocks of 2 events: the bad detector is read after three blocks
        # have been counted
        monkeypatch.setattr(counting, "_BLOCK", 2)
        head = b"# pairsim-events v2\n# duration_ps = 1000000000\n"
        path = tmp_path / "late.events"
        path.write_bytes(v2_file([10, 20, 30, 40, 50, 60, 70],
                                 [1, 2, 1, 2, 1, 2, 3], head=head))
        body = len(head) + len(b"# events = 7\n")
        report = tmp_path / "sum.csv"
        code, out, err = run_cli(capsys, "count", str(path), "--csv",
                                 "--out", str(report))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: byte {body + 8 * 7 + 6}: ")
        assert "detector index" in err
        assert sorted(tmp_path.iterdir()) == [path]

    # --delay=2e-8 wraps to 0 in the file's 1000 ps run
    @pytest.mark.parametrize("option", ["--window=nan", "--delay=1e-9",
                                        "--delay=2e-8"])
    def test_bad_body_is_named_before_a_bad_option(self, capsys, tmp_path,
                                                   option):
        # the body is read as it is counted, after the options are checked,
        # yet its error still comes first (exit 2), as when it was read whole
        path = tmp_path / "bad.events"
        path.write_bytes(v2_file([10, 20, 30], [1, 255, 2]))
        code, out, err = run_cli(capsys, "count", str(path), option)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: byte 79: ")

    def test_wrapping_delay_is_refused_before_the_count(self, capsys,
                                                        monkeypatch,
                                                        tmp_path):
        # a 2 s delay wraps to 0 in a 1 s run: refused before any block is
        # counted
        path = tmp_path / "good.events"
        path.write_bytes(v2_file([10, 20, 30], [1, 2, 1],
                                 head=b"# pairsim-events v2\n"
                                 b"# duration_ps = 1000000000000\n"))

        def counted(*args):
            raise RuntimeError("counted before the options were checked")

        monkeypatch.setattr(counting, "_summary", counted)
        code, out, err = run_cli(capsys, "count", str(path), "--delay", "2.0")
        assert (code, out) == (1, "")
        assert err == ("error: --delay 2.0 s wraps to within 10 windows of "
                       "zero in a 1.0 s run\n")

    def test_simulate_writes_the_library_stream(self, capsys, tmp_path):
        # several slabs, with dead time and jitter: the file simulate writes
        # slab by slab is the stream simulate_run returns
        src = make_source(2e6)
        chain = make_chain(mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9, dark1=1e3,
                           dark2=1e3, dead_time_ns=50.0, splitter=False,
                           jitter_ps=300.0)
        config, out = tmp_path / "dense.txt", tmp_path / "dense.events"
        keyvalue.write_keyvalue(config, source_mod.config_to_mapping(src,
                                                                     chain))
        code, text, _ = run_cli(capsys, "simulate", "--config", str(config),
                                "--duration", "0.1", "--seed", "4",
                                "--resolution-ps", "7", "--out", str(out))
        assert code == 0
        src, chain = source_mod.config_from_mapping(
            keyvalue.read_keyvalue(config))
        stream, truth = source_mod.simulate_run(
            src, chain, source_mod.RunConfig(0.1, 4, 7))
        assert pairsim.read_event_file(out) == stream
        report = parse_out(text)
        assert [keyvalue.get_int(report, k) for k in (
            "events_written", "singles_1", "singles_2", "pairs_emitted",
            "darks_emitted_1")] == [stream.n_events, *stream.counts(),
                                    truth.pairs_emitted,
                                    truth.darks_emitted[0]]
        assert sorted(tmp_path.iterdir()) == sorted(
            [config, out, Path(f"{out}.manifest")])

    def test_simulate_and_count_peaks_do_not_grow_with_the_run(
            self, capsys, tmp_path):
        config = keyvalue._bundled("reference_run_config.txt")

        def peaks(duration):
            out = tmp_path / f"{duration}.events"
            got = []
            for argv in (["simulate", f"--config={config}",
                          f"--duration={duration}", "--seed=3",
                          f"--out={out}"],
                         ["count", str(out), "--csv",
                          f"--out={tmp_path / 'sum.csv'}"]):
                code, peak = traced_peak(lambda: cli.main(argv))
                capsys.readouterr()
                assert code == 0
                got.append(peak)
            return got

        peaks(0.01)     # the first calls import what every run uses
        one, three = peaks(1.0), peaks(3.0)
        assert three[0] <= one[0] + 64 * 1024     # simulate
        assert three[1] <= one[1] + 64 * 1024     # count


class TestGoldenCount:
    """count --csv over a fixed file of six blocks (the reference point, 1 s,
    seed 7), pinned byte for byte at delays whose delayed detector 2 wraps
    across many blocks: 100 ns, half the run, 50 ns under it and, at a
    50 ps window, 1 ns under it. The oracles check the walk only on a few
    events, and the reader against EventStream misses a bug both share."""

    @pytest.fixture(scope="class")
    def event_file(self, tmp_path_factory):
        stream, _ = source_mod.simulate_run(
            source_mod.reference_source(), source_mod.reference_chain(),
            source_mod.RunConfig(1.0, 7))
        assert -(-stream.n_events // counting._BLOCK) == 6
        path = tmp_path_factory.mktemp("golden") / "run.events"
        pairsim.write_event_file(stream, path)
        return path

    @pytest.mark.parametrize("window, delay, csv_sha256", [
        ("1e-9", "100e-9", "41977140842fd7b724b9823035f40ff1"
                           "5b548fe991a88dfa5fdb9eb4a877cb54"),
        ("1e-9", "0.5", "2e90c60ee9090205f770cc0527c161e9"
                        "1ff3a2a7fb0b1d4deb796c58ba4bda73"),
        ("1e-9", "0.99999995", "afb018dde7f10a852d26c587f55a6ed5"
                               "3e1a7215673e045f4052524c1186e253"),
        ("5e-11", "0.999999999", "5f7076c56980cb9a765fc2d0cf2aac98"
                                 "209c0001443bd1712dd74cbad6a6f66d"),
    ])
    def test_count_csv_digest(self, capsys, event_file, window, delay,
                              csv_sha256):
        code, out, _ = run_cli(capsys, "count", str(event_file), "--csv",
                               "--window", window, "--delay", delay)
        assert code == 0
        assert sha256_text(out) == csv_sha256


class TestCountBinary:
    @pytest.mark.parametrize("data, offset, fragment", MALFORMED_V2.values(),
                             ids=MALFORMED_V2.keys())
    def test_malformed_file_names_byte_offset(self, capsys, tmp_path,
                                              data, offset, fragment):
        path = tmp_path / "bad.events"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "count", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: byte {offset}: ")
        assert fragment in err

    def test_empty_file_gives_zero_summary(self, capsys, tmp_path):
        path = tmp_path / "empty.events"
        path.write_bytes(v2_file([], [], head=b"# pairsim-events v2\n"
                                 b"# duration_ps = 1000000000\n"))
        code, out, _ = run_cli(capsys, "count", str(path))
        assert code == 0
        kv = parse_out(out)
        assert keyvalue.get_int(kv, "s1_count") == 0
        assert keyvalue.get_float(kv, "rc_raw_hz") == 0.0


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

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "text"])
    @pytest.mark.parametrize("key", [
        "pump_power_w", "pump_wavelength_m", "signal_wavelength_m",
        "singles_hz", "coincidences_hz", "published_eta",
        "published_rc_per_watt"])
    def test_bad_figure_is_data_error(self, capsys, tmp_path, key, value):
        text = keyvalue._bundled(
            "source_comparison.txt").read_text(encoding="utf-8")
        line = next(ln for ln in text.splitlines()
                    if ln.startswith(f"knbo3_bulk.{key} = "))
        data = tmp_path / "table.txt"
        data.write_text(text.replace(line, f"knbo3_bulk.{key} = {value}"),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "table1", "--data", str(data))
        assert code == 2 and out == ""
        assert f"knbo3_bulk.{key}" in err

    @pytest.mark.parametrize("signal", ["655e-9", "600e-9"])
    def test_signal_not_beyond_pump_is_data_error(self, capsys, tmp_path,
                                                  signal):
        text = keyvalue._bundled(
            "source_comparison.txt").read_text(encoding="utf-8")
        data = tmp_path / "table.txt"
        data.write_text(text.replace("knbo3_bulk.signal_wavelength_m = 1310e-9",
                                     f"knbo3_bulk.signal_wavelength_m = "
                                     f"{signal}"), encoding="utf-8")
        code, out, err = run_cli(capsys, "table1", "--data", str(data))
        assert code == 2 and out == ""
        assert "knbo3_bulk.signal_wavelength_m" in err and "pump" in err

    def test_coincidences_above_singles_is_data_error(self, capsys,
                                                      tmp_path):
        # singles_hz is 250e3 in the bundled row
        text = keyvalue._bundled(
            "source_comparison.txt").read_text(encoding="utf-8")
        data = tmp_path / "table.txt"
        data.write_text(text.replace("knbo3_bulk.coincidences_hz = 5000",
                                     "knbo3_bulk.coincidences_hz = 300e3"),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "table1", "--data", str(data))
        assert code == 2 and out == ""
        assert "knbo3_bulk.coincidences_hz" in err and "singles" in err


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
      "--duration", "2"], {"pairsim.estimator"}, {"numpy", "hashlib"}),
    (["table1"], {"pairsim.estimator"}, {"numpy", "hashlib"}),
    (["qpm", "--pump", "657e-9", "--period", "12.4e-6", "--curve",
      "100:130:3"], {"pairsim.qpm"},
     {"numpy", "pairsim.source", "pairsim.events", "pairsim.counting"}),
    (_SIMULATE, {"pairsim.source", "pairsim.events"},
     {"pairsim.qpm", "pairsim.counting", "pairsim.estimator",
      "concurrent.futures"}),
    (["count", "{tmp}/tiny.events"], {"pairsim.counting", "pairsim.events"},
     {"pairsim.source", "pairsim.qpm", "pairsim.estimator"}),
], ids=["import", "estimate", "table1", "qpm", "simulate", "count"])
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


def test_count_of_binary_file_loads_only_its_layers(tmp_path):
    """count of a v2 file, in a fresh interpreter, imports the events and
    counting layers and no other."""
    pairsim.write_event_file(pairsim.EventStream(
        detectors=[1, 2, 1], times_ps=[10, 20, 5000], duration_ps=10**12),
        tmp_path / "tiny.events")
    argv = ["count", str(tmp_path / "tiny.events")]
    src_dir = Path(pairsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairsim.cli\n"
         f"code = pairsim.cli.main({argv!r})\n"
         "print(*sys.modules)\n"
         "sys.exit(code)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src_dir)))
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert {"pairsim.events", "pairsim.counting"} <= modules
    assert not {"pairsim.source", "pairsim.qpm", "pairsim.estimator"} & modules


@pytest.mark.parametrize("argv, file, code", [
    (["simulate", "--from-manifest", "{config}", "--out", "{tmp}/sim.events"],
     "old.manifest", 1),
    (_SIMULATE, "mu1_2.txt", 1),
    (_SIMULATE, "mu1_x.txt", 2),
], ids=["marked-1 manifest", "mu1 = 2", "mu1 = x"])
def test_refused_simulate_loads_no_numpy(tmp_path, argv, file, code):
    """A simulate that fails its manifest or config check, in a fresh
    interpreter, exits with its code before numpy or the event layer
    loads."""
    config = keyvalue._bundled(
        "reference_run_config.txt").read_text(encoding="utf-8")
    files = {"mu1_2.txt": config.replace("mu1 = 0.2\n", "mu1 = 2\n"),
             "mu1_x.txt": config.replace("mu1 = 0.2\n", "mu1 = x\n"),
             "old.manifest": "".join(f"config.{line}" for line
                                     in config.splitlines(keepends=True)
                                     if not line.startswith("#"))
                             + "duration_s = 0.001\nseed = 3\n"
                               "resolution_ps = 1\nformat = binary\n"
                               "rng_scheme = marked-1\n"}
    assert files[file] != config
    (tmp_path / file).write_text(files[file], encoding="utf-8")
    argv = [a.format(config=tmp_path / file, tmp=tmp_path) for a in argv]
    src_dir = Path(pairsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairsim.cli\n"
         f"code = pairsim.cli.main({argv!r})\n"
         "print(*sys.modules)\n"
         "sys.exit(code)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src_dir)))
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ")
    modules = set(proc.stdout.splitlines()[-1].split())
    assert "pairsim.source" in modules
    assert not {"numpy", "pairsim.events"} & modules
    assert not (tmp_path / "sim.events").exists()


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
    summary = tmp_path / "sum.csv"
    config = keyvalue._bundled("reference_run_config.txt")
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


@pytest.mark.parametrize("command", [
    "estimate --summary={bad}",
    "simulate --config={bad} --duration=0.01 --seed=1 --out={tmp}/sim.events",
    "simulate --from-manifest={bad}",
    "qpm --pump=657e-9 --period=12.4e-6 --sellmeier={bad}",
    "table1 --data={bad}",
], ids=["estimate", "simulate-config", "simulate-manifest", "qpm", "table1"])
def test_non_utf8_text_input_is_data_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a = 1\nb = \xff\n")
    code, out, err = run_cli(capsys, *command.format(bad=bad,
                                                     tmp=tmp_path).split())
    assert code == 2 and out == ""
    assert err == f"error: {bad}: byte 10: not UTF-8 text\n"
    assert not (tmp_path / "sim.events").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# bad inputs and the exit code each ends in: (argv, what to patch with
# monkeypatch.setattr, exit code, the error line's text); {tmp} holds the
# files test_bad_input_exit_codes writes
BAD_CLI_INPUTS = {
    "curve without period": ("qpm --pump=657e-9 --curve=60:140:5", None, 1,
                             "--curve requires --period"),
    "simulate without out": (
        "simulate --config={tmp}/ref.txt --duration=0.01 --seed=1", None, 1,
        "simulate needs --out"),
    # simulate runs one seed; parallel seeds are separate invocations
    "simulate with --jobs": (
        "simulate --config={tmp}/ref.txt --duration=0.01 --seed=1 "
        "--out={tmp}/sim.events --jobs=2", None, 1,
        "unrecognized arguments: --jobs=2"),
    "seed above 2**64 - 1": (
        "simulate --config={tmp}/ref.txt --duration=0.01 "
        "--seed=18446744073709551616 --out={tmp}/sim.events", None, 1,
        "seed must be an integer"),
    "negative seed": (
        "simulate --config={tmp}/ref.txt --duration=0.01 --seed=-1 "
        "--out={tmp}/sim.events", None, 1, "seed must be an integer"),
    "negative dead time": (
        "simulate --config={tmp}/dead_time.txt --duration=0.01 --seed=1 "
        "--out={tmp}/sim.events", None, 1, "dead_time_ns must be >= 0"),
    "nan jitter": (
        "simulate --config={tmp}/jitter.txt --duration=0.01 --seed=1 "
        "--out={tmp}/sim.events", None, 1, "jitter_ps must be >= 0, got nan"),
    "zero spectral width": (
        "simulate --config={tmp}/fwhm.txt --duration=0.01 --seed=1 "
        "--out={tmp}/sim.events", None, 1, "spectral_fwhm_nm must be > 0"),
    "out of memory": (
        "simulate --config={tmp}/ref.txt --duration=0.01 --seed=1 "
        "--out={tmp}/sim.events",
        ("pairsim.source._Draw", _out_of_memory), 1, "out of memory"),
    "one-line summary": ("estimate --summary={tmp}/header.csv", None, 2,
                         "expected a CSV header and one row"),
    "ragged summary": ("estimate --summary={tmp}/ragged.csv", None, 2,
                       "header/row column mismatch"),
    "two-row summary": ("estimate --summary={tmp}/two_rows.csv", None, 2,
                        "expected a CSV header and one row, got 3 "
                        "non-blank lines"),
    "repeated summary column": ("estimate --summary={tmp}/repeated.csv",
                                None, 2, "duplicate column 's1_net_hz'"),
    "config empty key": (
        "simulate --config={tmp}/empty_key.txt --duration=0.01 --seed=1 "
        "--out={tmp}/sim.events", None, 2, "empty key"),
    "pump at the model edge": ("qpm --pump=2.6e-6 --period=1e-5 --temp=100",
                               None, 3, "degenerate wavelength sits at the "
                                        "model's validity edge"),
    # an option that another one replaces is refused, not silently ignored
    "from-manifest with --config": (
        "simulate --from-manifest={tmp}/run.manifest --config={tmp}/ref.txt "
        "--out={tmp}/sim.events", None, 1,
        "--from-manifest cannot be given with --config"),
    "from-manifest with --duration": (
        "simulate --from-manifest={tmp}/run.manifest --duration=9 "
        "--out={tmp}/sim.events", None, 1,
        "--from-manifest cannot be given with --duration"),
    "from-manifest with --seed": (
        "simulate --from-manifest={tmp}/run.manifest --seed=7 "
        "--out={tmp}/sim.events", None, 1,
        "--from-manifest cannot be given with --seed"),
    "from-manifest with --resolution-ps": (
        "simulate --from-manifest={tmp}/run.manifest --resolution-ps=2 "
        "--out={tmp}/sim.events", None, 1,
        "--from-manifest cannot be given with --resolution-ps"),
    "from-manifest with --jobs": (
        "simulate --from-manifest={tmp}/run.manifest --jobs=2", None, 1,
        "unrecognized arguments: --jobs=2"),
    "summary with rates": (
        "estimate --summary={tmp}/summary.csv --s1=2e5 --s2=2e5 --rc=2e3",
        None, 1, "--summary cannot be given with --s1, --s2, --rc"),
    "summary with --rc": (
        "estimate --summary={tmp}/summary.csv --rc=2e3", None, 1,
        "--summary cannot be given with --rc"),
    "pump without power": (
        "estimate --s1=10 --s2=10 --rc=1 --pump=657e-9", None, 1,
        "--pump requires --power"),
    "curve with --temp": (
        "qpm --pump=657e-9 --period=1.24e-5 --curve=60:140:5 --temp=100",
        None, 1, "--curve cannot be given with --temp"),
    "curve with --signal": (
        "qpm --pump=657e-9 --period=1.24e-5 --curve=60:140:5 "
        "--signal=1314e-9", None, 1, "--curve cannot be given with --signal"),
}


@pytest.mark.parametrize("argv, patch, code, message",
                         BAD_CLI_INPUTS.values(), ids=BAD_CLI_INPUTS.keys())
def test_bad_input_exit_codes(capsys, monkeypatch, tmp_path, argv, patch,
                              code, message):
    config = keyvalue._bundled(
        "reference_run_config.txt").read_text(encoding="utf-8")

    def with_value(key, value):
        return "".join(line if not line.startswith(f"{key} =")
                       else f"{key} = {value}\n"
                       for line in config.splitlines(keepends=True))

    files = {"ref.txt": config,
             "dead_time.txt": with_value("dead_time_s", "-1e-9"),
             "jitter.txt": with_value("jitter_s", "nan"),
             "fwhm.txt": with_value("spectral_fwhm_m", "0"),
             "empty_key.txt": config + " = 5\n",
             "header.csv": "s1_net_hz,s2_net_hz,rc_net_hz,duration_s\n",
             "ragged.csv": "s1_net_hz,s2_net_hz,rc_net_hz,duration_s\n"
                           "1e5,1e5,1e3\n",
             "two_rows.csv": "s1_net_hz,s2_net_hz,rc_net_hz,duration_s\n"
                             "1e5,1e5,1e3,1\n1e5,1e5,1e3,1\n",
             "repeated.csv": "s1_net_hz,s2_net_hz,rc_net_hz,s1_net_hz\n"
                             "1e5,1e5,1e3,2e5\n",
             "summary.csv": "s1_net_hz,s2_net_hz,rc_net_hz,duration_s\n"
                            "1e5,1e5,1e3,1\n",
             # a simulate manifest of the bundled config, seed 3, 1 ms
             "run.manifest": "".join(f"config.{line}" for line
                                     in config.splitlines(keepends=True)
                                     if not line.startswith("#"))
                             + "duration_s = 0.001\nseed = 3\n"
                               "resolution_ps = 1\nformat = binary\n"
                               f"rng_scheme = {source_mod.RNG_SCHEME}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    if patch:
        monkeypatch.setattr(*patch)
    got, out, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "sim.events").exists()
