"""The procmat benchmark workloads.

Each workload process turns the seed, its own index and a number of
*blocks* into a list of inputs.  A block is a fresh draw with a fixed
number of inputs of each class, so every class keeps its exact share of
the verdicts whatever the number of blocks.  ``block_s`` is the wall time
of one block at the first baseline; it fixes the number of blocks a run
decides, so the work, and with it every count, depends only on the seed
and ``--seconds``.

``decide`` brings one input to a verdict and checks it at the acceptance
tolerances.  It returns an :class:`Outcome`; a failed check is recorded in
the outcome, never skipped or retried.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import procmat as pm

TOL = 1e-8  # constructive reconstruction and Dykstra residual tolerance
INDISTINGUISHABILITY_TOL = 1e-9
DYKSTRA_VERIFY_TOL = max(100.0 * TOL, 1e-6)
DYKSTRA_CAP = 1000
INDISTINGUISHABILITY_SAMPLES = 4
OCB_GAME_VALUE = (2.0 + math.sqrt(2.0)) / 4.0
CLASSICAL_BOUND = 0.75
GAME_TOL = 1e-9
PROBABILITY_TOL = 1e-9
THRESHOLD = 1.0 / math.sqrt(2.0)  # white-noise visibility where OCB turns separable

SEPARABLE = "separable"
INCONCLUSIVE = "inconclusive"

QUBIT = pm.SystemLayout(2, 2, 2, 2)
QUTRIT_INPUTS = pm.SystemLayout(3, 2, 3, 2)


def layout_name(layout: pm.SystemLayout) -> str:
    return "x".join(str(d) for d in layout.dims)


@dataclass
class Outcome:
    """One checked verdict.

    ``failure`` is empty when every check passed.  ``uncertified`` marks a
    failure on a verdict that carries no certificate (a capped Dykstra run
    reporting not-separable or inconclusive); every other failure means the
    program raised or returned an output that is wrong.
    """

    cls: str
    verdict: str
    failure: str = ""
    uncertified: bool = False
    sweeps: int = 0
    diagnostics: dict[str, float] = field(default_factory=dict)


@dataclass
class Item:
    cls: str
    label: str
    payload: object


def _seeds(seed: int, key: list[int], n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, *key]).generate_state(n)]


# Seed-stream keys of the three workloads; the process index follows.
DEPHASE_KEY, NOISE_KEY, CLI_KEY = 1, 2, 3


def _check_dykstra(w: pm.ProcessMatrix, report, expect_separable: bool, outcome: Outcome) -> Outcome:
    """Check a Dykstra verdict; a separable one must carry a split that verifies."""
    outcome.verdict = report.status
    outcome.sweeps = int(report.iterations)
    outcome.diagnostics["dykstra_residual"] = float(report.residual)
    if report.status == SEPARABLE:
        check = pm.verify_decomposition(w, report.decomposition, tol=DYKSTRA_VERIFY_TOL,
                                        psd_tol=DYKSTRA_VERIFY_TOL)
        outcome.diagnostics["dykstra_reconstruction"] = check.reconstruction_residual
        if not check.ok:
            outcome.failure = "dykstra-certificate"
        elif not expect_separable:
            outcome.failure = "wrong-verdict"
        return outcome
    if report.plateau_residual is not None:
        outcome.diagnostics["plateau_residual"] = float(report.plateau_residual)
    if report.status == INCONCLUSIVE:
        outcome.failure, outcome.uncertified = "inconclusive", True
    elif expect_separable:
        outcome.failure, outcome.uncertified = "wrong-verdict", True
    return outcome


class DephaseSplit:
    """The theorem path: dephase, split constructively, validate, cross-check.

    A quarter of each block uses the (3,2,3,2) layout and the rest the qubit
    layout, so the median verdict is a qubit process and the tail percentile
    a (3,2,3,2) process.
    """

    name = "dephase-split"
    block_s = 11.1
    warm_up = True
    rss_of_children = False
    LAYOUTS = (QUBIT, QUBIT, QUBIT, QUTRIT_INPUTS) * 6

    def __init__(self, seed: int, index: int, workdir: Path, blocks: int):
        self.items = []
        layouts = self.LAYOUTS * blocks
        for s, layout in zip(_seeds(seed, [DEPHASE_KEY, index], len(layouts)), layouts):
            w = pm.random_process(s, layout)
            basis_a1 = pm.MeasurementBasis.random(layout.d_a1, seed=[s, 1])
            basis_b1 = pm.MeasurementBasis.random(layout.d_b1, seed=[s, 2])
            self.items.append(Item(layout_name(layout), f"seed={s}", (s, w, basis_a1, basis_b1)))

    def decide(self, item: Item) -> Outcome:
        seed, w, basis_a1, basis_b1 = item.payload
        outcome = Outcome(item.cls, "")
        effective = pm.luders_input_dephase(w, basis_a1, basis_b1)
        split = pm.constructive_decomposition(effective.matrix, basis_a1, basis_b1, tol=TOL)
        check = pm.verify_decomposition(effective.matrix, split, tol=TOL)
        residual = pm.indistinguishability_residual(
            w, effective, samples=INDISTINGUISHABILITY_SAMPLES, seed=seed)
        cross = pm.dykstra_separability(effective.matrix, tol=TOL, max_iter=DYKSTRA_CAP)
        outcome.diagnostics["reconstruction"] = check.reconstruction_residual
        outcome.diagnostics["indistinguishability"] = residual
        _check_dykstra(effective.matrix, cross, True, outcome)
        if not check.ok or check.reconstruction_residual > TOL:
            outcome.failure, outcome.uncertified = "constructive-certificate", False
        elif residual >= INDISTINGUISHABILITY_TOL:
            outcome.failure, outcome.uncertified = "indistinguishability", False
        return outcome

    def close(self) -> None:
        pass


class NoiseScan:
    """White-noise robustness scan of OCB: W(q) = q OCB + (1 - q) 1/d.

    A block holds 20 visibilities, stratified so the class counts are exact:
    16 uniform on [0.5, 0.8] (12 below 1/sqrt(2), 4 above) and 4 within
    1e-3 of 1/sqrt(2) (2 on each side).  Below the threshold the expected
    verdict is separable with a verified split, above it not separable.
    """

    name = "noise-scan"
    block_s = 2.5
    warm_up = True
    rss_of_children = False
    STRATA = (  # class, low end, high end, points
        ("below", 0.5, THRESHOLD, 12),
        ("above", THRESHOLD, 0.8, 4),
        ("near-below", THRESHOLD - 1e-3, THRESHOLD, 2),
        ("near-above", THRESHOLD, THRESHOLD + 1e-3, 2),
    )

    def __init__(self, seed: int, index: int, workdir: Path, blocks: int):
        ocb = pm.ocb_process()
        white = pm.identity_process(ocb.layout).matrix
        self.items = []
        for block in range(blocks):
            rng = np.random.default_rng(np.random.SeedSequence([seed, NOISE_KEY, index, block]))
            items = []
            for cls, low, high, count in self.STRATA:
                width = (high - low) / count
                for k in range(count):
                    u = rng.uniform()
                    # Below the threshold draw from [low, high), above from (low, high].
                    q = low + (k + u) * width if high <= THRESHOLD else low + (k + 1.0 - u) * width
                    w = pm.ProcessMatrix(ocb.layout, q * ocb.matrix + (1.0 - q) * white)
                    items.append(Item(cls, f"q={q!r}", (q, w)))
            self.items += [items[i] for i in rng.permutation(len(items))]

    def decide(self, item: Item) -> Outcome:
        q, w = item.payload
        report = pm.dykstra_separability(w, tol=TOL, max_iter=DYKSTRA_CAP)
        return _check_dykstra(w, report, q <= THRESHOLD, Outcome(item.cls, ""))

    def close(self) -> None:
        pass


class CliSession:
    """A fixed sequence of fresh ``python -m procmat.cli`` processes.

    A block runs the same 12 commands on each of two document sets, written
    at setup.  Nothing is warmed, because a command line user pays import,
    lazy tables and JSON costs on every command.  ``check-sep`` runs on the
    undephased documents, where the constructive attempt fails and falls
    back to Dykstra, and on the dephased (3,2,3,2) document, where the
    constructive path succeeds; the three (3,2,3,2) splits make up a quarter
    of the commands, so the p85 tail falls inside that class.
    """

    name = "cli-session"
    block_s = 11.8
    warm_up = False
    rss_of_children = True
    DOCUMENT_SETS = 2  # per block

    def __init__(self, seed: int, index: int, workdir: Path, blocks: int):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        ocb = pm.ocb_process()
        z = pm.MeasurementBasis.computational(2)
        self._write(ocb, "ocb")
        self._write(pm.luders_input_dephase(ocb, z, z).matrix, "ocb-dephased")
        document_sets = self.DOCUMENT_SETS * blocks
        seeds = _seeds(seed, [CLI_KEY, index], 3 * document_sets)
        self.items = []
        for k in range(document_sets):
            self.items += self._commands(k, *seeds[3 * k:3 * k + 3])
        self.tracer = None  # set by the worker while a traced pass runs
        self._bootstrap = str(Path(__file__).resolve().parent / "cli_traced.py")
        self._spans_path = workdir / "cli-spans.json"

    def _write(self, w: pm.ProcessMatrix, name: str) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(pm.encode_process(w, {"name": name}), encoding="utf-8")
        return str(path)

    def _commands(self, k: int, s_qubit: int, s_qutrit: int, s_born: int) -> list[Item]:
        doc = {}
        for name, s, layout in (("qubit", s_qubit, QUBIT), ("qutrit", s_qutrit, QUTRIT_INPUTS)):
            doc[name] = self._write(pm.random_process(s, layout), f"{name}-{k}")
            bases = {key: _basis_payload(pm.MeasurementBasis.random(dim, seed=[s, j]))
                     for key, dim, j in (("a1", layout.d_a1, 1), ("b1", layout.d_b1, 2))}
            doc[name + "-basis"] = str(self.workdir / f"{name}-{k}-basis.json")
            Path(doc[name + "-basis"]).write_text(json.dumps(bases), encoding="utf-8")
            doc[name + "-dephased"] = str(self.workdir / f"{name}-{k}-dephased.json")
        ocb, ocb_dephased = str(self.workdir / "ocb.json"), str(self.workdir / "ocb-dephased.json")

        def command(cls: str, check, *args: str) -> Item:
            return Item(cls, args[0], (list(args), check))

        cap = str(DYKSTRA_CAP)
        fallback = partial(_check_check_sep, "dykstra", DYKSTRA_VERIFY_TOL)
        return [
            command("validate:2x2x2x2", _check_validate, "validate", "--input", doc["qubit"]),
            command("validate:3x2x3x2", _check_validate, "validate", "--input", doc["qutrit"]),
            command("dephase:2x2x2x2", _check_dephase, "dephase", "--input", doc["qubit"],
                    "--basis", doc["qubit-basis"], "--output", doc["qubit-dephased"]),
            command("separate:2x2x2x2", _check_separate, "separate", "--input", doc["qubit-dephased"],
                    "--basis", doc["qubit-basis"]),
            command("dephase:3x2x3x2", _check_dephase, "dephase", "--input", doc["qutrit"],
                    "--basis", doc["qutrit-basis"], "--output", doc["qutrit-dephased"]),
            command("separate:3x2x3x2", _check_separate, "separate", "--input", doc["qutrit-dephased"],
                    "--basis", doc["qutrit-basis"]),
            command("check-sep:3x2x3x2:dephased", partial(_check_check_sep, "constructive", TOL), "check-sep",
                    "--input", doc["qutrit-dephased"], "--basis", doc["qutrit-basis"], "--max-iter", cap),
            command("check-sep:2x2x2x2", fallback, "check-sep", "--input", doc["qubit"], "--max-iter", cap),
            command("check-sep:3x2x3x2", fallback, "check-sep", "--input", doc["qutrit"], "--max-iter", cap),
            command("game:ocb", _check_game_ocb, "game", "--input", ocb),
            command("game:ocb-dephased", _check_game_dephased, "game", "--input", ocb_dephased),
            command("born:2x2x2x2", _check_born, "born", "--input", doc["qubit"], "--seed", str(s_born % 2**31)),
        ]

    def decide(self, item: Item) -> Outcome:
        args, check = item.payload
        env = dict(os.environ)
        if self.tracer is None:
            argv = [sys.executable, "-m", "procmat.cli"]
        else:
            argv = [sys.executable, self._bootstrap]
            env["PERFBENCH_SPANS"] = str(self._spans_path)
        proc = subprocess.run(argv + args + ["--json"], capture_output=True, text=True, env=env, timeout=120)
        if self.tracer is not None:
            with open(self._spans_path, encoding="utf-8") as fh:
                self.tracer.adopt(json.load(fh))
        outcome = Outcome(item.cls, f"exit-{proc.returncode}")
        if proc.returncode != 0:
            outcome.failure = f"exit-{proc.returncode}"
            # check-sep exits 2 on a not-separable or inconclusive Dykstra
            # report, neither of which carries a certificate.
            outcome.uncertified = proc.returncode == 2 and item.label == "check-sep"
            return outcome
        outcome.failure = check(args, json.loads(proc.stdout)["results"], outcome)
        return outcome

    def close(self) -> None:
        for path in self.workdir.glob("*.json"):
            path.unlink()
        self.workdir.rmdir()


def _check_validate(args, results, outcome) -> str:
    return "" if results["valid"] is True else "invalid"


def _check_dephase(args, results, outcome) -> str:
    text = Path(args[args.index("--output") + 1]).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.rstrip("\n").encode("utf-8")).hexdigest()[:16]
    return "" if results["output_digest"] == digest else "output-digest"


def _check_separate(args, results, outcome) -> str:
    residual = results["reconstruction_residual"]
    outcome.diagnostics["reconstruction"] = residual
    return "" if results["verified"] is True and residual <= TOL else "constructive-certificate"


def _check_check_sep(path: str, tol: float, args, results, outcome) -> str:
    outcome.verdict = results["status"]
    outcome.sweeps = int(results.get("iterations", 0))
    residual = results["reconstruction_residual"]
    outcome.diagnostics[f"{path}_reconstruction"] = residual
    if results["path"] != path:
        return "path"
    ok = results["status"] == SEPARABLE and results["verified"] is True
    return "" if ok and residual <= tol else f"{path}-certificate"


def _check_game_ocb(args, results, outcome) -> str:
    outcome.diagnostics["game_value_ocb"] = results["value"]
    return "" if abs(results["value"] - OCB_GAME_VALUE) <= GAME_TOL else "game-value"


def _check_game_dephased(args, results, outcome) -> str:
    outcome.diagnostics["game_value_dephased"] = results["value"]
    return "" if results["value"] <= CLASSICAL_BOUND + GAME_TOL else "game-bound"


def _check_born(args, results, outcome) -> str:
    table = np.asarray(results["table"], dtype=float)
    outcome.diagnostics["born_total"] = results["total"]
    ok = abs(results["total"] - 1.0) <= PROBABILITY_TOL and table.min() >= -PROBABILITY_TOL
    return "" if ok else "probabilities"


def _basis_payload(basis: pm.MeasurementBasis) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in basis.vectors]


WORKLOADS = {cls.name: cls for cls in (DephaseSplit, NoiseScan, CliSession)}
