"""Command-line entry point: reproducible simulate / count / estimate runs,
QPM design, and the bundled source-comparison report.

Subcommands: qpm, simulate, count, estimate, table1. All numeric inputs are
SI base units (meters, watts, hertz, seconds); temperatures are degrees
Celsius. Whenever a command writes an output file it also writes a
``<output>.manifest`` key-value file carrying the fully resolved
configuration, the seed, and the output digest; ``simulate --from-manifest``
re-runs a manifest and writes the event file only if it reproduces that
digest bit for bit (exit 2 otherwise). ``simulate`` writes binary (v2)
event files, the one format ``count`` reads.

Exit codes: 0 success, 1 usage/config error, 2 data/parse error,
3 inference/solver error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .core import (ConfigError, DataFormatError, OpticalPower, Rate,
                   SolverError, Wavelength)
from . import keyvalue

# Each command imports the layers it uses when it runs, so that qpm,
# estimate and table1 run without numpy, simulate loads it only to draw,
# after its config and manifest checks, and no command loads a layer (or
# hashlib, which only a manifest needs) that it does not call.

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _UsageError(Exception):
    pass


def _given_alone(flag: str, args, *names: str) -> None:
    """Usage error when any option in names is given with flag, whose
    values replace theirs, so that no given option is silently ignored."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None]
    if given:
        raise _UsageError(f"{flag} cannot be given with {', '.join(given)}")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this CLI reserves 2
    for data errors, so usage problems are rethrown and mapped to 1."""

    def error(self, message):
        raise _UsageError(message)


def _sha256_file(path: Path) -> str:
    """sha256 hex digest of a file, read into one reusable 64 KiB buffer,
    so hashing holds 64 KiB whatever the file's size."""
    import hashlib
    h, buf = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _write_whole(out_path: Path, write, command: str,
                 fields: dict[str, object], check=None) -> None:
    """Write an output file and its ``<output>.manifest`` whole or not at
    all: write(tmp) fills a sibling temporary, check(sha256), if given, may
    refuse it, the manifest (fields, then the output's name and sha256)
    goes to a second temporary, and only then do both replace their files.
    A failed or refused write leaves both files as they were. The
    temporaries are named here, not by mkstemp, so they get the umask's
    mode."""
    mpath = Path(f"{out_path}.manifest")
    tmps = [p.with_name(f".{p.name}.{os.getpid()}.tmp")
            for p in (out_path, mpath)]
    try:
        write(tmps[0])
        sha = _sha256_file(tmps[0])
        if check is not None:
            check(sha)
        manifest = {"command": command, "version": __version__, **fields,
                    "output": str(out_path), "output_sha256": sha}
        keyvalue.write_keyvalue(tmps[1], manifest,
                                header=["pairsim run manifest"])
        os.replace(tmps[0], out_path)
        os.replace(tmps[1], mpath)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _emit(text: str, out: str | None, command: str,
          manifest_fields: dict[str, object]) -> None:
    """Print a report, or write it to --out plus a manifest."""
    if out is None:
        sys.stdout.write(text)
        return
    _write_whole(Path(out), lambda tmp: tmp.write_text(text, encoding="utf-8"),
                 command, manifest_fields)


def read_event_file(path):
    """events._open_event_file, imported on first call: the event file with
    its header read and checked, whose body the counter then reads block by
    block. The event-file functions stay attributes of this module so that
    a tracer can wrap the ones the commands call."""
    from .events import _open_event_file
    return _open_event_file(path)


def write_event_file(stream, path) -> None:
    """events.write_event_file, imported on first call."""
    from .events import write_event_file
    write_event_file(stream, path)


def _mapping_report(mapping: dict[str, object], csv: bool) -> str:
    """Key-value or CSV rendering of one flat result mapping; both carry
    identical values (keyvalue.format_value)."""
    if not csv:
        return keyvalue.format_keyvalue(mapping)
    return (",".join(mapping) + "\n"
            + ",".join(map(keyvalue.format_value, mapping.values())) + "\n")


# ---------------------------------------------------------------- qpm ----

def _point_mapping(point, mismatch: float) -> dict[str, object]:
    return {
        "poling_period_m": point.poling_period_um * 1e-6,
        "temperature_c": point.temperature_c,
        "pump_wavelength_m": point.pump.meters,
        "signal_wavelength_m": point.signal.meters,
        "idler_wavelength_m": point.idler.meters,
        "qpm_order": point.qpm_order,
        "phase_mismatch_rad_per_m": mismatch,
    }


def _cmd_qpm(args) -> int:
    from . import qpm
    model = (qpm.load_sellmeier_file(args.sellmeier) if args.sellmeier
             else qpm.default_sellmeier_model())
    pump = Wavelength.from_meters(args.pump)
    order = args.order

    if args.curve is not None:
        _given_alone("--curve", args, "temp", "signal")
        if args.period is None:
            raise _UsageError("--curve requires --period")
        try:
            t0, t1, n = args.curve.split(":")
            t0, t1, n = float(t0), float(t1), int(n)
            if not (math.isfinite(t0) and math.isfinite(t1) and n >= 1):
                raise ValueError
        except ValueError:
            raise _UsageError(
                "--curve expects START:STOP:POINTS with finite temperatures "
                f"and POINTS >= 1, got {args.curve!r}") from None
        temps = qpm._linspace(t0, t1, n)
        points = qpm.temperature_tuning_curve(
            pump, args.period * 1e6, temps, model, order)
        lines = ["temperature_c,signal_wavelength_m,idler_wavelength_m"]
        lines += [f"{p.temperature_c:.8g},{p.signal.meters:.10g},"
                  f"{p.idler.meters:.10g}" for p in points]
        _emit("\n".join(lines) + "\n", args.out, "qpm", {
            "pump_wavelength_m": args.pump,
            "poling_period_m": args.period,
            "qpm_order": order,
            "curve": args.curve,
        })
        return EXIT_OK

    have_signal = args.signal is not None
    have_period = args.period is not None
    have_temp = args.temp is not None

    if have_signal and have_temp and not have_period:
        point = qpm.solve_poling_period(
            pump, Wavelength.from_meters(args.signal), args.temp, model, order)
    elif have_period and have_temp and not have_signal:
        point = qpm.solve_signal_wavelength(
            pump, args.period * 1e6, args.temp, model, order)
    elif have_period and have_signal and not have_temp:
        point = qpm.solve_temperature(
            pump, Wavelength.from_meters(args.signal), args.period * 1e6,
            model, order)
    elif have_period and not have_signal and not have_temp:
        # degenerate operation assumed when only the period is pinned
        t = qpm.solve_degeneracy_temperature(pump, args.period * 1e6, model,
                                             order)
        degenerate = Wavelength(2.0 * pump.nm)
        point = qpm.QpmPoint(poling_period_um=args.period * 1e6,
                             temperature_c=t, pump=pump, signal=degenerate,
                             idler=degenerate, qpm_order=order)
    elif have_signal and have_period and have_temp:
        raise _UsageError("period, temperature, and signal are all given; "
                          "leave exactly one unknown")
    else:
        raise _UsageError("give two of --period/--temp/--signal (or just "
                          "--period for degenerate operation)")

    mapping = _point_mapping(point, qpm.phase_mismatch(point, model))
    _emit(_mapping_report(mapping, args.csv),
          args.out, "qpm", {"pump_wavelength_m": args.pump,
                            "qpm_order": order})
    return EXIT_OK


# ----------------------------------------------------------- simulate ----

def _cmd_simulate(args) -> int:
    from . import source
    if args.from_manifest:
        _given_alone("--from-manifest", args, "config", "duration", "seed",
                     "resolution_ps")
        kv = keyvalue.read_keyvalue(args.from_manifest)
        src_txt = args.from_manifest
        scheme = kv.get("rng_scheme", "<missing>")
        if scheme != source.RNG_SCHEME:
            raise _UsageError(
                f"{src_txt}: manifest rng_scheme {scheme!r} differs from "
                f"this version's {source.RNG_SCHEME!r}; its event file "
                "cannot be reproduced")
        cfg = {k.partition(".")[2]: v for k, v in kv.items()
               if k.startswith("config.")}
        src_cfg, chain_cfg = source.config_from_mapping(cfg, src_txt)
        duration = keyvalue.get_float(kv, "duration_s", src_txt)
        seed = keyvalue.get_int(kv, "seed", src_txt)
        resolution = keyvalue.get_int(kv, "resolution_ps", src_txt)
        out = args.out or keyvalue.get_str(kv, "output", src_txt)
        config_path = kv.get("config_file", "")
        fmt = kv.get("format", "<missing>")
        if fmt != "binary":
            raise DataFormatError(f"{src_txt}: key 'format' is not 'binary': "
                                  f"{fmt!r}")
        expect = (keyvalue.get_str(kv, "output_sha256", src_txt),
                  kv.get("numpy", "<missing>"))
    else:
        if args.config is None or args.duration is None or args.seed is None:
            raise _UsageError("simulate needs --config, --duration, and "
                              "--seed (or --from-manifest)")
        if args.out is None:
            raise _UsageError("simulate needs --out")
        src_cfg, chain_cfg = source.config_from_mapping(
            keyvalue.read_keyvalue(args.config), args.config)
        duration, seed = args.duration, args.seed
        resolution = 1 if args.resolution_ps is None else args.resolution_ps
        out = args.out
        config_path = args.config
        expect = None

    run = source.RunConfig(duration, seed, resolution)
    import numpy
    draw = source._Draw(src_cfg, chain_cfg, run)
    out_path = Path(out)

    def check(sha: str) -> None:
        if expect is not None and sha != expect[0]:
            raise DataFormatError(
                f"{out_path}: re-run sha256 {sha} (numpy "
                f"{numpy.__version__}) differs from the manifest's "
                f"output_sha256 {expect[0]} (numpy {expect[1]}); the file "
                "and its manifest are left as they were")

    fields: dict[str, object] = {
        f"config.{k}": v
        for k, v in source.config_to_mapping(src_cfg, chain_cfg).items()}
    fields["duration_s"] = run.duration_s
    fields["seed"] = run.seed
    fields["resolution_ps"] = run.timestamp_resolution_ps
    fields["rng_scheme"] = source.RNG_SCHEME
    fields["numpy"] = numpy.__version__
    fields["format"] = "binary"
    if config_path:
        fields["config_file"] = config_path
    # the slabs are drawn as the file is written, so the run is never held
    # whole; a failed or refused run leaves the output and its manifest as
    # they were
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_whole(out_path, lambda tmp: write_event_file(draw, tmp),
                 "simulate", fields, check)

    truth = draw.truth
    sys.stdout.write(_mapping_report({
        "output": str(out_path),
        "seed": run.seed,
        "events_written": sum(draw.counts),
        "singles_1": draw.counts[0],
        "singles_2": draw.counts[1],
        "pairs_emitted": truth.pairs_emitted,
        "pairs_detected_coincident": truth.pairs_detected_coincident,
        "darks_emitted_1": truth.darks_emitted[0],
        "darks_emitted_2": truth.darks_emitted[1],
    }, csv=False))
    return EXIT_OK


# -------------------------------------------------------------- count ----

def _cmd_count(args) -> int:
    from fractions import Fraction
    from . import counting
    try:
        window_s = float(args.window)
    except ValueError:
        raise _UsageError(f"argument --window: invalid float value: "
                          f"{args.window!r}") from None
    events = read_event_file(args.events)
    try:
        window = counting.WindowConfig(
            coincidence_window_ns=window_s * 1e9,
            accidental_delay_ns=args.delay * 1e9)
        # the delayed times wrap inside the run: the 10-window rule applies
        # to the delay's distance from the nearest multiple of the duration
        d = events.duration_ps
        if min(window.delay_ps % d, -window.delay_ps % d) \
                <= 10.0 * window.coincidence_window_ns * 1e3:
            raise _UsageError(f"--delay {args.delay} s wraps to within 10 "
                              f"windows of zero in a {d * 1e-12} s run")
    except (ConfigError, _UsageError):
        events._check()     # a bad body is named before a bad option
        raise
    # the half window in whole ps from the exact text, not from its float
    try:
        exact = Fraction(args.window)
    except ValueError:      # a spelling float takes and Fraction does not
        exact = Fraction(window_s)
    summary = counting._summary(events, math.floor(exact * 500_000_000_000),
                                window.delay_ps,
                                (Rate(args.dark1), Rate(args.dark2)))
    _emit(_mapping_report(summary.to_mapping(), args.csv), args.out, "count", {
        "events_file": args.events,
        "window_s": window_s,
        "delay_s": args.delay,
        "dark1_hz": args.dark1,
        "dark2_hz": args.dark2,
    })
    return EXIT_OK


# ----------------------------------------------------------- estimate ----

def _read_summary_csv(path: str) -> dict[str, str]:
    lines = [ln for ln in keyvalue._read_utf8(path).splitlines()
             if ln.strip()]
    if len(lines) != 2:
        raise DataFormatError(f"{path}: expected a CSV header and one row, "
                              f"got {len(lines)} non-blank lines")
    keys = lines[0].split(",")
    values = lines[1].split(",")
    if len(keys) != len(values):
        raise DataFormatError(f"{path}: header/row column mismatch")
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise DataFormatError(f"{path}: duplicate column {key!r}")
    return dict(zip(keys, values))


def _cmd_estimate(args) -> int:
    from . import estimator
    duration = args.duration
    if args.summary:
        _given_alone("--summary", args, "s1", "s2", "rc")
        row = _read_summary_csv(args.summary)
        s1 = keyvalue.get_float(row, "s1_net_hz", args.summary)
        s2 = keyvalue.get_float(row, "s2_net_hz", args.summary)
        rc = keyvalue.get_float(row, "rc_net_hz", args.summary)
        if duration is None and "duration_s" in row:
            duration = keyvalue.get_float(row, "duration_s", args.summary)
    else:
        if args.s1 is None or args.s2 is None or args.rc is None:
            raise _UsageError("estimate needs --s1, --s2, and --rc "
                              "(or --summary)")
        s1, s2, rc = args.s1, args.s2, args.rc
    if args.pump is not None and args.power is None:
        raise _UsageError("--pump requires --power")

    inp = estimator.EstimateInput(
        s1_net=Rate(s1), s2_net=Rate(s2), rc_net=Rate(rc),
        splitter_correction=args.splitter,
        pump_power_guided=OpticalPower(args.power) if args.power is not None else None,
        pump_wavelength=Wavelength.from_meters(args.pump) if args.pump is not None else None,
    )
    result = estimator.estimate(inp, duration_s=duration)
    _emit(_mapping_report(result.to_mapping(), args.csv), args.out,
          "estimate", {
              "s1_net_hz": s1, "s2_net_hz": s2, "rc_net_hz": rc,
              "splitter_correction": args.splitter,
              "pump_power_w": args.power, "pump_wavelength_m": args.pump,
              "duration_s": duration,
          })
    return EXIT_OK


# ------------------------------------------------------------- table1 ----

def _cmd_table1(args) -> int:
    from . import estimator
    records = estimator.load_source_records(args.data)
    rows = estimator.compare_sources(records,
                                     max_deviation_factor=args.max_dev)
    text = (estimator.comparison_csv(rows) if args.csv
            else estimator.comparison_text(rows))
    _emit(text, args.out, "table1", {
        "data_file": args.data or "<bundled>",
        "max_deviation_factor": args.max_dev,
    })
    return EXIT_OK


# ---------------------------------------------------------------- main ----

def _build_parser() -> _Parser:
    parser = _Parser(prog="pairsim",
                     description="Photon-pair source simulation, coincidence "
                                 "counting, rate inversion, and QPM design. "
                                 "Numeric inputs are SI base units; "
                                 "temperatures are degrees Celsius.")
    parser.add_argument("--version", action="version",
                        version=f"pairsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qpm", help="solve a QPM operating point")
    p.add_argument("--pump", type=float, required=True,
                   help="pump wavelength [m]")
    p.add_argument("--signal", type=float, help="signal wavelength [m]")
    p.add_argument("--period", type=float, help="poling period [m]")
    p.add_argument("--temp", type=float, help="temperature [deg C]")
    p.add_argument("--order", type=int, default=1, help="QPM order (odd)")
    p.add_argument("--sellmeier", help="alternative coefficient file")
    p.add_argument("--curve", metavar="T0:T1:N",
                   help="sweep temperature, emit the tuning curve as CSV "
                        "(with or without --csv)")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", help="write the report here (plus manifest)")
    p.set_defaults(func=_cmd_qpm)

    p = sub.add_parser("simulate", help="generate a detection event stream")
    p.add_argument("--config", help="source+chain config file")
    p.add_argument("--duration", type=float, help="run duration [s]")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--resolution-ps", type=int,
                   help="timestamp resolution [ps] (default 1)")
    p.add_argument("--out", help="event file to write")
    p.add_argument("--from-manifest", help="re-run a previous manifest")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("count", help="count singles/coincidences in a stream")
    p.add_argument("events", help="event file from simulate")
    # read as text, so that the half window is taken in exact whole ps
    p.add_argument("--window", default="1e-9",
                   help="coincidence window, full width [s]")
    p.add_argument("--delay", type=float, default=1e-7,
                   help="accidental-estimate delay [s]")
    p.add_argument("--dark1", type=float, default=0.0,
                   help="assumed dark rate, detector 1 [Hz]")
    p.add_argument("--dark2", type=float, default=0.0,
                   help="assumed dark rate, detector 2 [Hz]")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", help="write the report here (plus manifest)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("estimate", help="invert net rates into source figures")
    p.add_argument("--s1", type=float, help="net singles, detector 1 [Hz]")
    p.add_argument("--s2", type=float, help="net singles, detector 2 [Hz]")
    p.add_argument("--rc", type=float, help="net coincidence rate [Hz]")
    p.add_argument("--summary", help="CSV report from 'count --csv'")
    p.add_argument("--splitter", action="store_true",
                   help="apply the 50/50-coupler factor-2 correction")
    p.add_argument("--power", type=float, help="guided pump power [W]")
    p.add_argument("--pump", type=float, help="pump wavelength [m]")
    p.add_argument("--duration", type=float,
                   help="run duration [s] for Poisson uncertainties")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", help="write the report here (plus manifest)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("table1", help="five-source comparison report")
    p.add_argument("--data", help="alternative source data file")
    p.add_argument("--max-dev", type=float, default=2.0,
                   help="deviation factor that flags a row")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", help="write the report here (plus manifest)")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
