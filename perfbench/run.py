"""procmat benchmark: time to a checked verdict on three workloads.

Usage (from the root of a procmat checkout):

    python3 perfbench/run.py --workload dephase-split --seed 1 --seconds 30 --trace 0

Workloads: dephase-split, noise-scan, cli-session (see perfbench/README.md).
The run starts SETUPS fresh workload processes one after another; each sets
up once, with inputs of its own drawn from the seed, and decides each of
them once.  The number of inputs is fixed by --seconds: as many blocks as
take an equal share of it at the first baseline.  A *round* is one pass of
every workload process over its inputs; exact counts and per-layer metrics
are given per round.  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics, with
--trace 1 the per-layer metrics from a traced run.  BLAS and OpenMP run
single-threaded in every process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("dephase-split", "noise-scan", "cli-session")
# Highest percentile with at least 10 verdicts beyond it in a run at the
# parent commit; fixed per workload so runs stay comparable.
TAIL_PERCENTILE = {"dephase-split": 85, "noise-scan": 90, "cli-session": 85}
SETUPS = 3
IMPORT_SAMPLES = 5
RUN_LIMIT_S = 170.0

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "cpu_ms_per_verdict": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metrics, measured in the traced run.
LAYER_CALLS = ("tensor.hermitian_eig", "process.validate_process", "instruments.born_probability",
               "separability.dykstra_separability")
LAYER_SELF = ("tensor.hermitian_eig", "tensor.hs_decompose", "tensor.hs_reconstruct",
              "process.validate_process", "effective.luders_input_dephase",
              "effective.indistinguishability_residual", "instruments.born_probability",
              "instruments.probability_table", "separability.kappa_split", "separability.eigenstructure",
              "separability.constructive_decomposition", "separability.verify_decomposition",
              "separability.dykstra_separability", "games.enumerate_strategies", "io.decode_process",
              "io.encode_process")


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def end_to_end(workload: str, children: list[dict]) -> dict[str, float]:
    """The end-to-end metrics, plus fail_share, pooled over the workload processes."""
    verdict_ms = [ms for child in children for ms in child["verdict_ms"]]
    attempted = sum(child["attempted"] for child in children)
    return {
        "verdicts_per_s": attempted / sum(child["measure_s"] for child in children),
        "verdict_ms_p50": nearest_rank(verdict_ms, 50),
        "verdict_ms_tail": nearest_rank(verdict_ms, TAIL_PERCENTILE[workload]),
        "cpu_ms_per_verdict": 1e3 * sum(child["cpu_s"] for child in children) / attempted,
        "peak_rss_mb": max(child["peak_rss_kb"] for child in children) / 1024.0,
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "fail_share": sum(child["failed"] for child in children) / attempted,
    }


def per_layer(children: list[dict], import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced workload processes, per round.

    ``process.random_process.self_s`` is spent in set-up, once per process.
    """
    def total(name: str, key: str) -> float:
        return sum(child["layers"].get(name, {}).get(key, 0) for child in children)

    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (total(name, "calls"), "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = (total(name, "self_s"), "s")
    metrics["process.random_process.self_s"] = (
        sum(child["setup_layers"].get("process.random_process", {}).get("self_s", 0.0)
            for child in children), "s")
    name = "separability.constructive_decomposition"
    metrics[f"{name}.failed_calls"] = (total(name, "failed_calls"), "count")
    metrics[f"{name}.failed_s"] = (total(name, "failed_s"), "s")
    dykstra = "separability.dykstra_separability"
    sweeps = total(dykstra, "sweeps")
    metrics["separability.dykstra.sweeps"] = (sweeps, "count")
    metrics["separability.dykstra.sweep_us"] = (
        1e6 * total(dykstra, "self_s") / sweeps if sweeps else 0.0, "us")
    metrics["separability.dykstra.uncertified_sweep_share"] = (
        total(dykstra, "uncertified_sweeps") / sweeps if sweeps else 0.0, "share")
    metrics["cli.import_s"] = (import_s, "s")
    traced = sum(child["measure_s"] for child in children)
    untraced = sum(child["untraced"]["measure_s"] for child in children)
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    return metrics


def round_counts(children: list[dict]) -> dict:
    """Verdict tallies per class and Dykstra sweeps, summed over one pass of each process."""
    tallies: dict[str, int] = {}
    for child in children:
        for key, count in child["counts"]["tallies"].items():
            tallies[key] = tallies.get(key, 0) + count
    return {"tallies": dict(sorted(tallies.items())),
            "dykstra_sweeps": sum(child["counts"]["dykstra_sweeps"] for child in children)}


def round_diagnostics(children: list[dict]) -> dict:
    keys = sorted({key for child in children for key in child["diagnostics"]})
    return {key: [min(c["diagnostics"][key][0] for c in children if key in c["diagnostics"]),
                  max(c["diagnostics"][key][1] for c in children if key in c["diagnostics"])]
            for key in keys}


def cli_import_s(env: dict, root: Path) -> float:
    """Median wall time of a fresh interpreter that only imports procmat.cli."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import procmat.cli"], env=env, cwd=root, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "procmat" / "__init__.py").is_file():
        print(f"error: no procmat source under {root / 'src'}; run from a procmat checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(root / "src"))
    (root / "perfbench" / "out").mkdir(exist_ok=True)

    children = []
    for index in range(SETUPS):
        argv = [sys.executable, str(root / "perfbench" / "worker.py"), args.workload, str(args.seed),
                str(index), repr(args.seconds / SETUPS), str(args.trace), str(root)]
        # A session of its own, so a timeout also stops the CLI processes it started.
        with subprocess.Popen(argv, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=max(RUN_LIMIT_S - (time.perf_counter() - started), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                print(f"error: the run exceeded {RUN_LIMIT_S:g} s", file=sys.stderr)
                return 2
        if proc.returncode != 0:
            print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
            return 2
        children.append(json.loads(stdout.splitlines()[-1]))

    summary = end_to_end(args.workload, children)
    counts = round_counts(children)
    counts_repeat = all(child["counts_repeat"] for child in children)
    correct = counts_repeat and not any(child["program_errors"] for child in children)
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)

    print(f"procmat benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; one closed-loop caller, {SETUPS} workload processes in turn")
    print("environment: " + json.dumps(children[0]["env"]))
    print(f"verdicts: {attempted} attempted, {failed} failed")
    if args.trace:
        print("end-to-end figures of a traced run include the tracing overhead")
    units = dict(END_TO_END, fail_share="share")
    for name, value in summary.items():
        note = f"  (p{TAIL_PERCENTILE[args.workload]}, nearest rank)" if name == "verdict_ms_tail" else ""
        print(f"  {name:<20} {value:>14.6g} {units[name]}{note}")
    print("exact counts per round: " + json.dumps(counts) + ("" if counts_repeat else "  (DID NOT REPEAT)"))
    print("diagnostics per round [min, max]: " + json.dumps(round_diagnostics(children)))
    for child in children:
        for failure in child["failures"]:
            print(f"failed verdict: {failure}")

    if args.trace:
        layers = per_layer(children, cli_import_s(env, root))
        for name, (value, unit) in layers.items():
            print(f"  {name:<52} {value:>14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
