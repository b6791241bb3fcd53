"""Smoke check of the benchmark at tiny input sizes.

Runs every workload of BENCHMARK.json once untraced and once traced with the
simulated durations scaled down, and checks that each run exits 0, emits
every declared metric with its declared unit, prints fail_ratio = 0 and
reports no failed pass. Then checks that in a directory holding only
BENCHMARK.json and perfbench/ the benchmark exits non-zero without a result.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {message}")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = bench(ROOT, workload, trace)
            expect(proc.returncode == 0,
                   f"{label} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} "
                   f"passes failed:\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label}: metrics {got} != {want}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label}: a metric value is not a number")
            expect(any(ln.startswith("metric fail_ratio = 0.0 ratio")
                       for ln in lines), f"{label}: fail_ratio is not 0")
            print(f"smoke: {label}: {len(got)} metrics, "
                  f"{result['attempted']} passes, none failed")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the pairsim source the benchmark must fail without a "
           "result")
    print("smoke: without pairsim source: exit", proc.returncode)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
