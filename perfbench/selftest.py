"""Self-test of the procmat benchmark (about five minutes on two cores).

Usage, from the root of a procmat checkout:

    python3 perfbench/selftest.py

Checks that
  1. a forced wrong verdict is counted and raises fail_share;
  2. a tiny run of each workload, untraced and traced, ends with a result
     line naming every metric of BENCHMARK.json with its unit;
  3. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import procmat as pm  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


def forced_wrong_verdict() -> None:
    scan = workloads.NoiseScan(0, 0, ROOT / "perfbench" / "out", 1)
    ocb = pm.ocb_process()
    separable = pm.ProcessMatrix(ocb.layout, 0.6 * ocb.matrix + 0.4 * pm.identity_process().matrix)
    # Labelled with a visibility above the threshold, so a correct
    # separable verdict on this matrix contradicts the expected one.
    scan.items = [scan.items[0], workloads.Item("above", "forced", (0.8, separable))]
    child = worker.measure(worker.PassRunner(scan))
    child.update(setup_s=0.0, peak_rss_kb=0)
    metrics = run.end_to_end("noise-scan", [child])
    check(child["failed"] == 1 and metrics["fail_share"] == 0.5,
          f"forced wrong verdict counted (fail_share {metrics['fail_share']})")
    check(child["program_errors"] == 1, "a certified wrong verdict counts as a program error")


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json names the benchmark's workloads")
    check(expected["0"] == run.END_TO_END, "BENCHMARK.json end-to-end metrics match run.py")
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["attempted"] >= 1
                  and result["correct"] is True, f"{workload} trace={trace} result line")
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            check(units == expected[trace], f"{workload} trace={trace} prints every metric with its unit")
            missing = [name for name in [*run.END_TO_END, "fail_share"] if f"  {name} " not in proc.stdout]
            check(not missing, f"{workload} trace={trace} prints the end-to-end metrics and fail_share")


def bare_directory() -> None:
    bare = ROOT / "perfbench" / "out" / f"bare-{os.getpid()}"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "noise-scan", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without procmat sources the benchmark fails without a result")


if __name__ == "__main__":
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    forced_wrong_verdict()
    bare_directory()
    tiny_runs()
    print("selftest passed")
