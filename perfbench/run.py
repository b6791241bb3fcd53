"""pairsim benchmark: one closed-loop client runs passes of one workload back
to back for --seconds, checks every pass's output, and prints each metric
by name with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: setup_s,
pass_s, peak_rss_mb (fail_ratio is failed / attempted). --trace 1 is a
separate run that records spans around the public pairsim calls of each
layer and prints the per-layer metrics plus the tracing overhead.
Workloads, metrics and the layer each one should move are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from importlib import import_module, metadata
from pathlib import Path

import numpy as np

from tracing import Tracer, no_span, patched
from workloads import (ROOT, SRC, WORKLOADS, check_output, cli_config_file,
                       cli_env, cli_inprocess_pass, cli_output, cli_steps,
                       cli_subprocess_pass, library_configs, library_output,
                       library_pass)

WORKDIR = ROOT / ".bench_work"

# workloads with their reasons, metrics with their units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# timed fresh interpreter starts per run for setup_s
SETUP_STARTS = 7

SETUP_CODE = """\
import time
import {module}
pairsim.reference_source()
pairsim.reference_chain()
pairsim.default_sellmeier_model()
print(repr(time.monotonic()))
"""


class Checks:
    """Counts passes and failed passes. A pass fails when its output check
    finds a problem, when it raises, or when its output differs from the
    first pass of the same kind: every pass of a run uses the same seed, so
    reruns must be bit-exact."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, dict] = {}

    def record(self, kind: str, out: dict, problems: list[str]) -> None:
        self.attempted += 1
        first = self._first.setdefault(kind, out)
        if out != first:
            problems = problems + [f"{kind} output differs from the first "
                                   "pass with the same seed"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED ({kind}): {p}", file=sys.stderr)

    def raised(self, kind: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED ({kind}): pass raised", file=sys.stderr)
        traceback.print_exc()


def import_pairsim():
    sys.path.insert(0, str(SRC))
    import pairsim
    if Path(pairsim.__file__).resolve().parent != SRC / "pairsim":
        raise SystemExit(f"pairsim imported from {pairsim.__file__}, "
                         f"not from {SRC}")
    return pairsim


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.partition(":")[2].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def fresh_setup_s(module: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    module and loaded the bundled reference configs and Sellmeier model
    (CLOCK_MONOTONIC is shared by every process on Linux)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c",
                           SETUP_CODE.format(module=module)],
                          capture_output=True, text=True, env=cli_env(),
                          cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup of {module} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def import_times() -> dict[str, float]:
    """cli.import_* from `python -X importtime -c "import pairsim.cli"`.

    A package's time is the cumulative time of its outermost imports, so a
    module it pulls in first (numpy by scipy, say) counts towards it.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import pairsim.cli"], capture_output=True,
                          text=True, env=cli_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import pairsim.cli failed:\n{proc.stderr}")
    rows = []      # (depth, module, cumulative us), children before parents
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(fields[1])))

    totals = {"pairsim.cli": 0, "numpy": 0, "scipy": 0}
    outer: list[tuple[int, str]] = []      # ancestors of the current row
    for depth, name, cum in reversed(rows):
        while outer and outer[-1][0] >= depth:
            outer.pop()
        for pkg in totals:
            mine = name == pkg or name.startswith(pkg + ".")
            if mine and not any(a == pkg or a.startswith(pkg + ".")
                                for _, a in outer):
                totals[pkg] += cum
        outer.append((depth, name))
    return {"cli.import_s": totals["pairsim.cli"] * 1e-6,
            "cli.import_numpy_s": totals["numpy"] * 1e-6,
            "cli.import_scipy_s": totals["scipy"] * 1e-6}


# ------------------------------------------------------- untraced run ----

def measured_run(wl, seed: int, seconds: float, workdir: Path,
                 checks: Checks) -> dict[str, float]:
    module = "pairsim.cli" if wl.entry == "cli" else "pairsim"
    fresh_setup_s(module)      # untimed: writes the bytecode cache
    setup = [fresh_setup_s(module) for _ in range(SETUP_STARTS)]
    if wl.entry == "library":
        ps = import_pairsim()
        source, chain = library_configs(ps, wl)
    else:
        steps = cli_steps(wl, seed, workdir, cli_config_file(wl, workdir))
    times: list[float] = []
    child_rss = 0.0
    deadline = time.perf_counter() + seconds
    while checks.attempted == 0 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if wl.entry == "library":
            try:
                _, _, summary, result = library_pass(ps, wl, seed, source,
                                                     chain, no_span)
            except Exception:
                checks.raised("library")
                continue
            times.append(time.perf_counter() - t0)
            out = library_output(summary, result)
            checks.record("library", out, check_output(wl, out))
        else:
            _, codes, rss, stdout = cli_subprocess_pass(steps, workdir)
            times.append(time.perf_counter() - t0)
            child_rss = max(child_rss, rss)
            checks.record("cli", *cli_output(wl, workdir, codes, stdout))
    for name, values in (("setup_s", setup), ("pass_s", times)):
        print(f"# {name} of {len(values)} runs: "
              + " ".join(f"{t:.3f}" for t in values))
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if wl.entry == "library" else child_rss)
    return {"setup_s": statistics.median(setup),
            "pass_s": statistics.median(times) if times else 0.0,
            "peak_rss_mb": peak}


# --------------------------------------------------------- traced run ----

def traced_iteration(ps, cli, wl, seed: int, steps, workdir: Path,
                     checks: Checks, tracer: Tracer) -> dict[str, float]:
    """One traced pass of the workload, plus each layer it does not call
    driven with the workload's own inputs, so every layer is measured.

    The workload's own pass (library, or the CLI in-process for
    cli_pipeline) first runs twice untraced, for the tracing overhead: the
    first run after other work pays for memory that the next runs reuse,
    so only the second is compared with the traced one."""
    m: dict[str, float] = {}
    source, chain = library_configs(ps, wl)
    run = ps.RunConfig(wl.duration_s, seed)
    window = ps.WindowConfig(wl.window_ns, wl.delay_ns)

    # library layers: source, events (validation), counting, estimator
    if wl.entry == "library":
        for _ in range(2):
            t0 = time.perf_counter()
            _, _, summary, result = library_pass(ps, wl, seed, source, chain,
                                                 no_span)
            untraced = time.perf_counter() - t0
            out = library_output(summary, result)
            checks.record("library", out, check_output(wl, out))
    with tracer.span("library") as root:
        t0 = time.perf_counter()
        stream, truth, summary, result = library_pass(ps, wl, seed, source,
                                                      chain, tracer.span)
        traced = time.perf_counter() - t0
        out = library_output(summary, result)
        problems = check_output(wl, out)
        with tracer.span("events.validate"):
            ps.EventStream(detectors=stream.detectors,
                           times_ps=stream.times_ps,
                           duration_ps=stream.duration_ps,
                           resolution_ps=stream.resolution_ps,
                           seed=stream.seed,
                           config_digest=stream.config_digest)
        with tracer.span("counting.coincidences"):
            raw = ps.count_coincidences(stream, window)
        with tracer.span("counting.accidentals"):
            acc = ps.estimate_accidentals(stream, window)
        for label, rate, count in (("count_coincidences", raw,
                                    summary.coincidence_count),
                                   ("estimate_accidentals", acc,
                                    summary.accidental_count)):
            if round(rate.hz * summary.duration_s) != count:
                problems.append(f"{label} gives {rate.hz} Hz, net_summary "
                                f"counted {count}")
        checks.record("library", out, problems)
        with tracer.span("source.simulate_nodead"):
            nodead, _ = ps.simulate_run(
                source, dataclasses.replace(chain, dead_time_ns=0.0), run)

    t1 = stream.times_ps[stream.detectors == 1]
    t2 = stream.times_ps[stream.detectors == 2]
    pad = wl.window_ns * 1e3 / 2.0 + 1.0     # the counter's padded window
    has_partner = (np.searchsorted(t2, t1 + pad, side="right")
                   > np.searchsorted(t2, t1 - pad, side="left"))
    simulate_s = tracer.total("source.simulate", root)
    m.update({
        "source.simulate_s": simulate_s,
        "source.ns_per_pair": simulate_s / max(truth.pairs_emitted, 1) * 1e9,
        "source.pairs_emitted": truth.pairs_emitted,
        "source.events_out": stream.n_events,
        "source.detected_share": stream.n_events
        / max(2 * truth.pairs_emitted + sum(truth.darks_emitted), 1),
        "source.deadtime_s": simulate_s
        - tracer.total("source.simulate_nodead", root),
        "source.deadtime_removed": nodead.n_events - stream.n_events,
        "events.validate_s": tracer.total("events.validate", root),
        "counting.net_summary_s": tracer.total("counting.net_summary", root),
        "counting.coincidences_s": tracer.total("counting.coincidences", root),
        "counting.accidentals_s": tracer.total("counting.accidentals", root),
        "counting.matches": summary.coincidence_count,
        "counting.accidental_matches": summary.accidental_count,
        "counting.candidate_share": float(np.count_nonzero(has_partner))
        / max(t1.size, 1),
        "estimator.estimate_s": tracer.total("estimator.estimate", root),
    })
    del stream, nodead, t1, t2, has_partner

    # CLI layers in-process: qpm curve, event file write/read, main itself
    if wl.entry == "cli":
        for _ in range(2):
            t0 = time.perf_counter()
            codes, stdout = cli_inprocess_pass(cli, steps, no_span)
            untraced = time.perf_counter() - t0
            checks.record("cli", *cli_output(wl, workdir, codes, stdout))
    targets = [(mod, attr, tracer.wrap(name, getattr(mod, attr)))
               for mod, attr, name in (
                   (ps.qpm, "temperature_tuning_curve", "qpm.curve"),
                   (ps.source, "simulate_run", "source.simulate"),
                   (cli, "write_event_file", "events.write"),
                   (cli, "read_event_file", "events.read"),
                   (ps.counting, "net_summary", "counting.net_summary"),
                   (ps.estimator, "estimate", "estimator.estimate"))]
    with tracer.span("cli") as root, patched(targets):
        t0 = time.perf_counter()
        codes, stdout = cli_inprocess_pass(cli, steps, tracer.span)
        if wl.entry == "cli":
            traced = time.perf_counter() - t0
    checks.record("cli", *cli_output(wl, workdir, codes, stdout))
    curve = (workdir / "curve.csv").read_text(encoding="utf-8").splitlines()
    file_mb = (workdir / "ev.txt").stat().st_size / 1e6
    write_s = tracer.total("events.write", root)
    read_s = tracer.total("events.read", root)
    m.update({
        "qpm.curve_s": tracer.total("qpm.curve", root),
        "qpm.points": len(curve) - 1,
        "events.write_s": write_s, "events.read_s": read_s,
        "events.file_mb": file_mb,
        "events.write_mb_per_s": file_mb / write_s,
        "events.read_mb_per_s": file_mb / read_s,
        "cli.main_self_s": tracer.self_time("cli.main", root),
    })

    # CLI as a user runs it: one fresh interpreter per command
    walls, codes, _, stdout = cli_subprocess_pass(steps, workdir)
    checks.record("cli", *cli_output(wl, workdir, codes, stdout))
    for step, _ in steps:
        m[f"cli.{step}_s"] = walls.get(step, 0.0)
    m.update(import_times())
    m["trace.overhead_s"] = traced - untraced
    return m


def traced_run(wl, seed: int, seconds: float, workdir: Path, checks: Checks,
               tracer: Tracer) -> dict[str, float]:
    ps = import_pairsim()
    cli = import_module("pairsim.cli")
    steps = cli_steps(wl, seed, workdir, cli_config_file(wl, workdir))
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        with tracer.span("iteration"):
            for k, v in traced_iteration(ps, cli, wl, seed, steps, workdir,
                                         checks, tracer).items():
                samples[k].append(v)
    print(f"# {len(samples['trace.overhead_s'])} traced iterations")
    # counts repeat exactly across iterations and stay whole numbers
    return {k: statistics.median_low(v) if isinstance(v[0], int)
            else statistics.median(v) for k, v in samples.items()}


# --------------------------------------------------------------- main ----

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the simulated duration (smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "pairsim" / "__init__.py").is_file():
        print(f"error: no pairsim source under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload].scaled(args.scale)
    checks = Checks()
    workdir = WORKDIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        if args.trace:
            values = traced_run(wl, args.seed, args.seconds, workdir, checks,
                                tracer)
        else:
            values = measured_run(wl, args.seed, args.seconds, workdir,
                                  checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == wl.name)
    info = machine()
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# workload {wl.name} ({wl.entry}, seed {args.seed}, duration "
          f"{wl.duration_s} s, {'traced' if args.trace else 'untraced'}): "
          f"{why}")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(f"metric fail_ratio = {checks.failed / max(checks.attempted, 1)!r} "
          f"ratio ({checks.failed} of {checks.attempted} passes failed)")
    if args.trace:
        trace_file = WORKDIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "machine": info,
            "metrics": metrics, "spans": tracer.spans}, indent=1),
            encoding="utf-8")
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
