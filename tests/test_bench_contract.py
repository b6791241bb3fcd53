"""perfbench's library and CLI passes run against pairsim as it stands, so
a change that breaks the benchmark fails here, in the test suite."""

import ast
import contextlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import pairsim
from pairsim import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["reference", "dense"])
def test_library_pass_meets_the_benchmark_checks(workloads, name, seed):
    wl = workloads.WORKLOADS[name].scaled(0.02)
    source, chain = workloads.library_configs(pairsim, wl)
    stream, _, summary, result = workloads.library_pass(
        pairsim, wl, seed, source, chain, contextlib.nullcontext)
    out = workloads.library_output(summary, result)
    assert workloads.check_output(wl, out) == []
    # the traced run times the two rate helpers and checks them against
    # net_summary's counts
    window = pairsim.WindowConfig(wl.window_ns, wl.delay_ns)
    d = summary.duration_s
    assert round(pairsim.count_coincidences(stream, window).hz * d) \
        == summary.coincidence_count
    assert round(pairsim.estimate_accidentals(stream, window).hz * d) \
        == summary.accidental_count


@pytest.mark.parametrize("name,duration_s,slab_ps", [
    ("reference", 0.5, 2**37), ("reference", 2.0, 2**37),
    ("reference", 10.0, 2**37), ("reference", 40.0, 2**37),
    ("dense", 0.5, 2**35),
])
def test_benchmark_slab_lengths_are_pinned(workloads, name, duration_s,
                                           slab_ps):
    """A stream is fixed by its config, seed and slab length, and the golden
    streams all fit one slab. A rate drift that moved a benchmark point's
    slab length would change its per-seed streams with no other test
    failing and no RNG_SCHEME bump. The reference lengths cover
    cli_pipeline (2 s), which runs the bundled config."""
    source, chain = workloads.library_configs(pairsim,
                                              workloads.WORKLOADS[name])
    run = pairsim.RunConfig(duration_s, seed=1)
    assert pairsim.source._slab_ps(source, chain, run) == slab_ps


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_pass_meets_the_benchmark_checks(workloads, tmp_path, seed):
    """The cli_pipeline workload's four commands, run in this process."""
    wl = workloads.WORKLOADS["cli_pipeline"].scaled(0.02)
    steps = workloads.cli_steps(wl, seed, tmp_path,
                                workloads.cli_config_file(wl, tmp_path))
    codes, stdout = workloads.cli_inprocess_pass(cli, steps,
                                                 contextlib.nullcontext)
    assert workloads.cli_output(wl, tmp_path, codes, stdout)[1] == []


def test_traced_cli_functions_exist(workloads, tmp_path, monkeypatch):
    """The tracer wraps these two by name for its events.write/read layers
    and divides the file size by their time, so the in-process cli_pipeline
    pass must call both."""
    calls = []
    for name in ("read_event_file", "write_event_file"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    wl = workloads.WORKLOADS["cli_pipeline"].scaled(0.02)
    steps = workloads.cli_steps(wl, 1, tmp_path,
                                workloads.cli_config_file(wl, tmp_path))
    codes, _ = workloads.cli_inprocess_pass(cli, steps,
                                            contextlib.nullcontext)
    assert codes == [0, 0, 0, 0]
    assert sorted(set(calls)) == ["read_event_file", "write_event_file"]


@pytest.mark.parametrize("module", ["pairsim", "pairsim.cli"])
def test_setup_code_loads_no_numpy(workloads, module):
    """setup_s times perfbench's SETUP_CODE in a fresh interpreter; the
    calls it makes read configs and the Sellmeier model, which need no
    numpy."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(
        encoding="utf-8"))
    setup_code, = (ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["SETUP_CODE"])
    proc = subprocess.run(
        [sys.executable, "-c", setup_code.format(module=module)
         + "import sys\nprint('numpy' in sys.modules)\n"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=workloads.cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
