"""The benchmark's workloads: their inputs, one pass of each, and the checks
every pass's output must meet.

A pass is the paper's pipeline at the workload's size: simulate a
two-detector event stream, count coincidences, invert S1*S2/Rc into the pair
rate N. Library workloads call the public pairsim functions in-process; the
CLI workload runs the four `pairsim` commands a user types, each in a fresh
interpreter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED_CONFIG = SRC / "pairsim" / "data" / "reference_run_config.txt"

# the bundled reference point: 7.75 MHz pairs, mu*eta = 0.2*0.1 per arm
REFERENCE_PAIR_RATE_HZ = 7.75e6

# a check on a correct program fails about once in 16 000 draws at 4 sigma
SIGMAS = 4.0

# same as the installed `pairsim` console script
CLI_ENTRY = "import sys; from pairsim.cli import main; sys.exit(main())"

# degenerate 657 -> 1314 nm poling period at 100 C (solve_poling_period)
QPM_PERIOD_M = "1.2405588036904281e-05"


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; BENCHMARK.json records why it was chosen."""

    name: str
    entry: str              # "library" (in-process) or "cli" (subprocesses)
    duration_s: float
    pair_rate_hz: float     # true N; the estimate must recover it
    mu: float               # per-arm collection efficiency, both arms
    eta: float              # per-arm detector efficiency, both arms
    dark_hz: float          # per-detector dark rate, simulated and assumed
    splitter: bool
    dead_time_ns: float
    jitter_ps: float
    window_ns: float
    delay_ns: float
    bundled_config: bool    # the bundled reference config file describes it

    @property
    def closed_form_counts(self) -> bool:
        """Singles and net coincidences follow the closed-form rates only
        without dead time and jitter."""
        return self.dead_time_ns == 0.0 and self.jitter_ps == 0.0

    def scaled(self, scale: float) -> "Workload":
        return dataclasses.replace(self, duration_s=self.duration_s * scale)


_REFERENCE_POINT = dict(pair_rate_hz=REFERENCE_PAIR_RATE_HZ, mu=0.2, eta=0.1,
                        dark_hz=22e3, splitter=True, dead_time_ns=0.0,
                        jitter_ps=0.0, window_ns=1.0, delay_ns=100.0,
                        bundled_config=True)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="reference",
        entry="library", duration_s=10.0, **_REFERENCE_POINT),
    Workload(
        name="dense",
        entry="library", duration_s=0.5, pair_rate_hz=2e6, mu=0.5, eta=0.9,
        dark_hz=1e3, splitter=False, dead_time_ns=50.0, jitter_ps=300.0,
        window_ns=2.0, delay_ns=100.0, bundled_config=False),
    Workload(
        name="cli_pipeline",
        entry="cli", duration_s=2.0, **_REFERENCE_POINT),
)}


# ------------------------------------------------------------ inputs ----

def library_configs(ps, wl: Workload):
    """(SourceConfig, DetectionChainConfig) of a workload."""
    source, chain = ps.reference_source(), ps.reference_chain()
    if wl.bundled_config:
        return source, chain
    source = dataclasses.replace(
        source, conversion_efficiency=source.conversion_efficiency
        * wl.pair_rate_hz / REFERENCE_PAIR_RATE_HZ)
    chain = ps.DetectionChainConfig(
        mu1=ps.Efficiency(wl.mu), mu2=ps.Efficiency(wl.mu),
        eta1=ps.Efficiency(wl.eta), eta2=ps.Efficiency(wl.eta),
        dark1=ps.Rate(wl.dark_hz), dark2=ps.Rate(wl.dark_hz),
        dead_time_ns=wl.dead_time_ns, splitter_present=wl.splitter,
        jitter_ps=wl.jitter_ps)
    return source, chain


def cli_config_file(wl: Workload, workdir: Path) -> Path:
    """The config file `pairsim simulate --config` reads for a workload:
    the bundled one, or the bundled one with the workload's values."""
    if wl.bundled_config:
        return BUNDLED_CONFIG
    ref = parse_keyvalue(BUNDLED_CONFIG.read_text(encoding="utf-8"))
    ref.update({
        "conversion_efficiency": repr(float(ref["conversion_efficiency"])
                                      * wl.pair_rate_hz
                                      / REFERENCE_PAIR_RATE_HZ),
        "mu1": repr(wl.mu), "mu2": repr(wl.mu),
        "eta1": repr(wl.eta), "eta2": repr(wl.eta),
        "dark1_hz": repr(wl.dark_hz), "dark2_hz": repr(wl.dark_hz),
        "dead_time_s": f"{wl.dead_time_ns!r}e-9",
        "splitter_present": "true" if wl.splitter else "false",
        "jitter_s": f"{wl.jitter_ps!r}e-12",
    })
    path = workdir / f"{wl.name}_run_config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in ref.items()),
                    encoding="utf-8")
    return path


def cli_steps(wl: Workload, seed: int, workdir: Path,
              config: Path) -> list[tuple[str, list[str]]]:
    """(step name, pairsim argv) of the four commands of one CLI pass."""
    duration = repr(wl.duration_s)
    estimate = ["estimate", "--summary", str(workdir / "sum.csv"),
                "--power", "1e-6", "--pump", "657e-9", "--duration", duration]
    if wl.splitter:
        estimate.append("--splitter")
    return [
        ("qpm", ["qpm", "--pump", "657e-9", "--period", QPM_PERIOD_M,
                 "--curve", "60:140:41", "--out", str(workdir / "curve.csv")]),
        ("simulate", ["simulate", "--config", str(config),
                      "--duration", duration, "--seed", str(seed),
                      "--out", str(workdir / "ev.txt")]),
        ("count", [
            "count", str(workdir / "ev.txt"),
            "--window", f"{wl.window_ns!r}e-9", "--delay", f"{wl.delay_ns!r}e-9",
            "--dark1", repr(wl.dark_hz), "--dark2", repr(wl.dark_hz),
            "--csv", "--out", str(workdir / "sum.csv")]),
        ("estimate", estimate),
    ]


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ------------------------------------------------------------ passes ----

def library_pass(ps, wl: Workload, seed: int, source, chain, span):
    """simulate -> net_summary -> estimate; span(name) wraps each call."""
    with span("source.simulate"):
        stream, truth = ps.simulate_run(source, chain,
                                        ps.RunConfig(wl.duration_s, seed))
    window = ps.WindowConfig(wl.window_ns, wl.delay_ns)
    with span("counting.net_summary"):
        summary = ps.net_summary(stream, window,
                                 (ps.Rate(wl.dark_hz), ps.Rate(wl.dark_hz)))
    with span("estimator.estimate"):
        result = ps.estimate(ps.EstimateInput(
            summary.net_singles[0], summary.net_singles[1],
            summary.net_coincidences, splitter_correction=wl.splitter),
            duration_s=summary.duration_s)
    return stream, truth, summary, result


def library_output(summary, result) -> dict:
    return {**summary.to_mapping(), **result.to_mapping()}


def run_cli_step(argv: list[str], workdir: Path, step: str):
    """Run one pairsim command in a fresh interpreter.

    Returns (wall seconds, exit code, peak RSS in MB, stdout text).
    """
    out_path = workdir / f"{step}.stdout"
    err_path = workdir / f"{step}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv],
                                stdout=out, stderr=err, env=cli_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"pairsim {step} exited {proc.returncode}:\n"
                         + err_path.read_text(errors="replace")[-2000:])
    return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8"))


def cli_subprocess_pass(steps, workdir: Path):
    """Run the steps in sequence, stopping at the first failure.

    Returns ({step: wall seconds}, [exit codes], largest peak RSS of a
    step in MB, stdout of the last step run).
    """
    walls: dict[str, float] = {}
    codes: list[int] = []
    rss = 0.0
    stdout = ""
    for step, argv in steps:
        walls[step], code, step_rss, stdout = run_cli_step(argv, workdir,
                                                           step)
        codes.append(code)
        rss = max(rss, step_rss)
        if code != 0:
            break
    return walls, codes, rss, stdout


def cli_inprocess_pass(cli, steps, span):
    """Call pairsim.cli.main for each step in this process.

    Returns ([exit codes], stdout of the last step run).
    """
    codes: list[int] = []
    stdout = ""
    for _, argv in steps:
        buf = io.StringIO()
        with redirect_stdout(buf), span("cli.main"):
            codes.append(cli.main(argv))
        stdout = buf.getvalue()
        if codes[-1] != 0:
            break
    return codes, stdout


# ------------------------------------------------------------ checks ----

def parse_keyvalue(text: str) -> dict[str, str]:
    """`name = value` lines; the benchmark's own reader, so a change to the
    library's parser cannot hide a wrong output."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cli_output(wl: Workload, workdir: Path, codes: list[int],
               estimate_stdout: str):
    """(output mapping, problems) of one CLI pass, from the files and the
    estimate report it left behind."""
    if len(codes) != 4 or any(codes):
        return {}, [f"pairsim exit codes {codes}, expected [0, 0, 0, 0]"]
    problems = []
    try:
        manifest = parse_keyvalue(
            (workdir / "ev.txt.manifest").read_text(encoding="utf-8"))
        sha = sha256_file(workdir / "ev.txt")
        header, row = (workdir / "sum.csv").read_text(
            encoding="utf-8").splitlines()[:2]
    except (OSError, ValueError) as exc:
        return {}, [f"CLI output missing or malformed: {exc}"]
    if manifest.get("output_sha256") != sha:
        problems.append("simulate manifest output_sha256 "
                        f"{manifest.get('output_sha256')} != event file "
                        f"sha256 {sha}")
    out = dict(zip(header.split(","), row.split(",")))
    out.update(parse_keyvalue(estimate_stdout))
    out["event_file_sha256"] = sha
    return out, problems + check_output(wl, out)


def check_output(wl: Workload, out: dict) -> list[str]:
    """Problems with one pass's count summary and estimate (empty if none)."""
    try:
        d = float(out["duration_s"])
        n1, n2 = int(out["s1_count"]), int(out["s2_count"])
        rc, acc = int(out["rc_count"]), int(out["rc_accidental_count"])
        rc_net_hz = float(out["rc_net_hz"])
        n_hat = float(out["pair_rate_hz"])
        sigma = float(out["pair_rate_sigma_hz"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"output lacks a field or a number: {exc!r}"]
    problems = []
    if round(rc_net_hz * d) != rc - acc:
        problems.append(f"net coincidences {rc_net_hz * d} != "
                        f"rc_count - accidental_count = {rc - acc}")
    if not abs(n_hat - wl.pair_rate_hz) <= SIGMAS * sigma:
        problems.append(f"N estimate {n_hat} Hz is not within {SIGMAS} sigma "
                        f"({sigma} Hz) of {wl.pair_rate_hz} Hz")
    if wl.closed_form_counts:
        e = wl.mu * wl.eta
        expected = (e * wl.pair_rate_hz + wl.dark_hz) * d
        for i, n in ((1, n1), (2, n2)):
            if not abs(n - expected) <= SIGMAS * math.sqrt(expected):
                problems.append(f"singles {i}: {n} counts, expected "
                                f"{expected} +- {SIGMAS} sigma")
        f = 0.5 if wl.splitter else 1.0
        expected_net = f * e * e * wl.pair_rate_hz * d
        if not abs(rc - acc - expected_net) <= SIGMAS * math.sqrt(rc + acc):
            problems.append(f"net coincidences {rc - acc}, expected "
                            f"{expected_net} +- {SIGMAS} sigma")
    return problems
