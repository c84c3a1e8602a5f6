"""One workload process of the procmat benchmark.

Usage: python perfbench/worker.py WORKLOAD SEED INDEX BUDGET_S TRACE ROOT

Sets up (imports procmat, generates the inputs of process INDEX from the
seed, warms the library with one untimed verdict per input class), then
decides every input once, timing each verdict, and prints one JSON line
with the raw measurements.  The number of input blocks is the number that
takes about BUDGET_S seconds at the first baseline: a count fixed by
BUDGET_S, not measured on the clock, so the work and the counts repeat.
With TRACE=1 it times one untraced pass first and then a traced pass over
the same inputs, for the per-layer metrics and the tracing overhead; the
two passes must give the same exact counts.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '').strip()})"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_text,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class PassRunner:
    """Times verdicts one at a time, as a single closed-loop caller."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.reported: set[str] = set()

    def run_pass(self, items) -> list[tuple]:
        """Decide every item; returns (outcome, wall ms) pairs in item order."""
        from workloads import Outcome

        results = []
        for item in items:
            root = self.tracer.open_span("bench.verdict") if self.tracer else None
            start = time.perf_counter()
            try:
                outcome = self.workload.decide(item)
            except Exception as err:  # a failed verdict, counted, never retried
                outcome = Outcome(item.cls, "error", failure=f"exception:{type(err).__name__}")
                if item.label not in self.reported:
                    self.reported.add(item.label)
                    print(f"verdict {item.cls} {item.label} raised:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if root is not None:
                self.tracer.close_span(root)
            results.append((outcome, elapsed_ms))
        return results


def pass_counts(results) -> dict:
    """Exact counts of one pass: verdict tallies per class and Dykstra sweeps."""
    tallies = Counter()
    for outcome, _ in results:
        key = f"{outcome.cls}:{outcome.verdict}"
        tallies[key + (f":FAIL-{outcome.failure}" if outcome.failure else "")] += 1
    return {"tallies": dict(sorted(tallies.items())),
            "dykstra_sweeps": sum(outcome.sweeps for outcome, _ in results)}


def blocks_for(workload_class, budget_s: float) -> int:
    """Input blocks whose pass takes about ``budget_s`` at the first baseline.

    Fixed by the budget alone, never by the clock, so two runs with the same
    seed and ``--seconds`` decide the same inputs and give the same counts.
    """
    return max(1, round(budget_s / workload_class.block_s))


def measure(runner: PassRunner) -> dict:
    """Decide every input of the workload once."""
    cpu_start = _cpu_s()
    start = time.perf_counter()
    results = runner.run_pass(runner.workload.items)
    measure_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu_start
    return {
        "measure_s": measure_s,
        "cpu_s": cpu_s,
        "verdict_ms": [ms for _, ms in results],
        "attempted": len(results),
        "failed": sum(1 for outcome, _ in results if outcome.failure),
        "program_errors": sum(1 for outcome, _ in results if outcome.failure and not outcome.uncertified),
        "failures": [f"{item.cls} {item.label}: {outcome.failure}"
                     for item, (outcome, _) in zip(runner.workload.items, results) if outcome.failure],
        "counts": pass_counts(results),
        "diagnostics": _diagnostics(results),
    }


def _diagnostics(results) -> dict:
    """Smallest and largest value of each raw residual or game value in one pass."""
    values: dict[str, list[float]] = {}
    for outcome, _ in results:
        for key, value in outcome.diagnostics.items():
            values.setdefault(key, []).append(float(value))
    return {key: [min(v), max(v)] for key, v in sorted(values.items())}


def main(argv: list[str]) -> int:
    name, seed, index, budget_s = argv[0], int(argv[1]), int(argv[2]), float(argv[3])
    trace, root = argv[4] == "1", Path(argv[5])
    import procmat

    source = (root / "src" / "procmat").resolve()
    if Path(procmat.__file__).resolve().parent != source:
        print(f"procmat was imported from {procmat.__file__}, not from {source}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_totals
    from workloads import WORKLOADS

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    workdir = root / "perfbench" / "out" / f"{name}-{seed}-{index}"
    workload_class = WORKLOADS[name]
    workload = workload_class(seed, index, workdir, blocks_for(workload_class, budget_s))
    runner = PassRunner(workload, tracer)
    if workload.warm_up:
        warm = {item.cls: item for item in reversed(workload.items)}
        runner.run_pass(list(warm.values()))
    setup_s = time.perf_counter() - SETUP_START

    report = {"setup_s": setup_s, "env": _environment()}
    try:
        if tracer:
            setup_spans, tracer.spans = tracer.spans, []
            tracer.uninstall()
            report["untraced"] = measure(PassRunner(workload))
            tracer.install()
            workload.tracer = tracer
            report.update(measure(runner))
            report["counts_repeat"] = report["counts"] == report["untraced"]["counts"]
            report["setup_layers"] = layer_totals(setup_spans)
            report["layers"] = layer_totals(tracer.spans)
            with open(workdir.with_name(workdir.name + "-spans.json"), "w", encoding="utf-8") as fh:
                json.dump({"setup": setup_spans, "measure": tracer.spans}, fh)
        else:
            report.update(measure(runner), counts_repeat=True)
    finally:
        workload.close()
    usage = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    report["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
