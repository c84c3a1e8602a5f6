"""Command-line interface wiring the library into reproducible runs.

Each command returns its run report and its archive, the one text that
``--output`` receives: a process document, a split, or the JSON report.
A split is compact JSON whose parts are, byte for byte, the documents whose
``w_ab_digest`` and ``w_ba_digest`` the report records.  :func:`main` alone
writes, prints and sets the exit code.  It writes the archive before printing
anything and prints the report to stdout; a process document without
``--output`` goes to stdout, to be piped on, and its report to stderr.  Exit
codes: 0 success, 1 invalid input, a usage error, an ``--output`` that cannot
be written or a stdout closed by its reader, 2 a check failed (validation,
separability, decomposition).
Only ``validate``, ``separate`` and ``check-sep`` compute at a tolerance, so
only they take ``--tol`` and echo it in their report.

Every command reads or writes a document, so only ``io``, ``process`` and
the ``tensor`` that ``process`` loads are imported here, and ``process``
builds every fixture; each command imports the rest of the library it runs
when it runs, so ``validate`` never loads the separability code and
``fixture ocb`` never loads the game.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

import numpy as np

from .io import ProcessDocumentError, RunReport, _pair_matrix, decode_process, digest_text, encode_process
from .process import (
    FACTOR_NAMES,
    ProcessMatrix,
    SystemLayout,
    channel_process,
    identity_process,
    ocb_process,
    random_process,
    validate_process,
    w0_process,
)
from .tensor import DEFAULT_TOL, MeasurementBasis, as_basis

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_CHECK_FAILED = 2


class CliError(Exception):
    """Invalid input or unusable flags; maps to exit code 1."""


def _read_text(path: str, what: str) -> str:
    """The text of the file at ``path``; ``what`` names the file in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise CliError(f"cannot read {what}{path}: {err}") from err


def _read_input(args) -> tuple[ProcessMatrix, dict, RunReport]:
    """The input process, its metadata, and the command's report holding
    the input digest and the tolerance the command runs at."""
    path = args.input
    if path in (None, "-"):
        text, name = sys.stdin.read(), "<stdin>"
    else:
        text, name = _read_text(path, ""), path
    try:
        process, metadata = decode_process(text)
    except ProcessDocumentError as err:
        raise CliError(f"{name}: {err}") from err
    tolerances = {"tol": args.tol} if "tol" in args else {}
    return process, metadata, RunReport(args.cmd, {"process": digest_text(text)}, tolerances)


def _load_basis_pair(args, layout: SystemLayout) -> tuple[MeasurementBasis, MeasurementBasis]:
    spec = args.basis or "z"
    if spec == "z":
        return (
            MeasurementBasis.computational(layout.d_a1),
            MeasurementBasis.computational(layout.d_b1),
        )
    try:
        payload = json.loads(_read_text(spec, "basis file "))
    except json.JSONDecodeError as err:
        raise CliError(f"basis file {spec}: invalid JSON at offset {err.pos}") from err
    if not isinstance(payload, dict):
        raise CliError(f"basis file {spec} must hold a JSON object with keys 'a1' and 'b1'")
    out = []
    for key, dim in (("a1", layout.d_a1), ("b1", layout.d_b1)):
        if key not in payload:
            raise CliError(f"basis file {spec} is missing key {key!r}")
        mat = _pair_matrix(payload[key], f"basis {key}")
        try:
            out.append(as_basis(mat, dim))
        except ValueError as err:
            raise CliError(f"basis {key}: {err}") from err
    return out[0], out[1]


def _encoded(run: RunReport, name: str, w: ProcessMatrix, metadata: dict | None = None) -> str:
    """W's process document, encoded once, whose digest the report records as ``<name>_digest``."""
    text = encode_process(w, metadata)
    run.results[f"{name}_digest"] = digest_text(text)
    return text


def _hs_summary(w: ProcessMatrix, tol: float) -> list[str]:
    from .tensor import hs_decompose

    dec = hs_decompose(w.matrix, w.layout.dims)
    lines = []
    for idx in np.argwhere(np.abs(dec.coefficients) > tol):
        pattern = ",".join(FACTOR_NAMES[f] for f, t in enumerate(idx) if t != 0) or "identity"
        value = float(dec.coefficients[tuple(idx)])
        lines.append(f"{tuple(int(i) for i in idx)} [{pattern}] {value!r}")
    return lines


def _cmd_validate(args) -> tuple[RunReport, str]:
    w, _, run = _read_input(args)
    report = validate_process(w, tol=args.tol)
    run.results = {
        "is_psd": report.is_psd,
        "min_eigenvalue": report.min_eigenvalue,
        "trace_ok": report.trace_ok,
        "trace": report.trace_value,
        "mask_ok": report.mask_ok,
        "offending_terms": [
            {"pattern": list(p), "magnitude": m} for p, m in report.offending_terms
        ],
        "valid": report.overall,
    }
    run.status = "ok" if report.overall else "check-failed"
    if args.hs:
        run.results["hs_coefficients"] = _hs_summary(w, args.tol)
    return run, run.to_json()


def _canonical_instruments(layout: SystemLayout, seed: int | None):
    if seed is None:
        from .instruments import cq_instrument

        # Measure each z state, reprepare the first z state |0><0|.
        instr_a, instr_b = (cq_instrument(np.eye(d_in), np.eye(d_in), [np.diag(np.eye(d_out)[0])] * d_in)
                            for d_in, d_out in ((layout.d_a1, layout.d_a2), (layout.d_b1, layout.d_b2)))
        return instr_a, instr_b, "z-measure-reprepare"
    from .effective import random_cq_instrument

    rng = np.random.default_rng(seed)
    instr_a = random_cq_instrument(MeasurementBasis.computational(layout.d_a1), layout.d_a2, rng)
    instr_b = random_cq_instrument(MeasurementBasis.computational(layout.d_b1), layout.d_b2, rng)
    return instr_a, instr_b, f"random-cq(seed={seed})"


def _cmd_born(args) -> tuple[RunReport, str]:
    from .instruments import NumericIntegrityError, probability_table

    w, _, run = _read_input(args)
    instr_a, instr_b, label = _canonical_instruments(w.layout, args.seed)
    try:
        table = probability_table(w, instr_a, instr_b)
    except NumericIntegrityError as err:
        raise CliError(str(err)) from err
    run.results = {
        "instruments": label,
        "table": [[float(v) for v in row] for row in table.entries],
        "total": table.total,
    }
    return run, run.to_json()


def _cmd_dephase(args) -> tuple[RunReport, str]:
    from .effective import luders_input_dephase

    w, metadata, run = _read_input(args)
    basis_a1, basis_b1 = _load_basis_pair(args, w.layout)
    effective = luders_input_dephase(w, basis_a1, basis_b1)
    run.results["basis"] = args.basis
    return run, _encoded(run, "output", effective.matrix, {**metadata, "provenance": "dephase"})


def _cmd_effective_classical(args) -> tuple[RunReport, str]:
    from .effective import classical_effective

    w, metadata, run = _read_input(args)
    result = classical_effective(w, *(MeasurementBasis.computational(d) for d in w.layout.dims))
    return run, _encoded(run, "output", result, {**metadata, "provenance": "effective-classical"})


def _record_split(run: RunReport, decomposition) -> str:
    """Add a split's check and part digests to the report and return the split archive: p and each
    present part's document, byte for byte the text whose digest the report records."""
    run.results.update(p=decomposition.p, reconstruction_residual=decomposition.check.reconstruction_residual,
                       verified=decomposition.check.ok)
    parts = "".join(f',"{name}":{_encoded(run, name, part)}' for name, part in
                    (("w_ab", decomposition.w_ab), ("w_ba", decomposition.w_ba)) if part is not None)
    return f'{{"p":{json.dumps(decomposition.p)}{parts}}}'


def _cmd_separate(args) -> tuple[RunReport, str | None]:
    from .separability import DecompositionError, constructive_decomposition

    w, _, run = _read_input(args)
    basis_a1, basis_b1 = _load_basis_pair(args, w.layout)
    try:
        decomposition = constructive_decomposition(w, basis_a1, basis_b1, tol=args.tol)
    except (DecompositionError, ValueError) as err:  # NotInputDiagonalError is a ValueError
        run.status = "check-failed"
        run.results["error"] = str(err)
        return run, None
    return run, _record_split(run, decomposition)


def _cmd_check_sep(args) -> tuple[RunReport, str | None]:
    from .separability import INCONCLUSIVE, SEPARABLE, DecompositionError, check_separability

    if args.max_iter < 1:
        raise CliError(f"--max-iter must be at least 1, got {args.max_iter}")
    w, _, run = _read_input(args)
    basis_a1, basis_b1 = _load_basis_pair(args, w.layout)
    run.results["path"] = "constructive"
    split = None
    try:
        report = check_separability(w, basis_a1, basis_b1, tol=args.tol, max_iter=args.max_iter)
    except DecompositionError as err:  # a failed constructive split, not retried
        run.results.update(status=INCONCLUSIVE, error=str(err))
    except ValueError as err:  # not a valid process matrix: as for ``separate``, no verdict
        run.results["error"] = str(err)
    else:
        run.results["path"] = report.path
        if report.skip_reason is not None:
            run.results["skip_reason"] = report.skip_reason
        run.results["status"] = report.status
        if report.iterations > 0:
            run.results.update(residual=report.residual, iterations=report.iterations)
            if report.plateau_residual is not None:
                run.results["plateau_residual"] = report.plateau_residual
            if report.witness is not None:
                run.results.update(witness_value=report.witness.value, witness_margin=report.witness.margin)
        if report.decomposition is not None:
            split = _record_split(run, report.decomposition)
    run.status = "ok" if run.results.get("status") == SEPARABLE else "check-failed"
    return run, split


def _cmd_game(args) -> tuple[RunReport, str]:
    from .games import enumerate_strategies, ocb_game

    w, _, run = _read_input(args)
    if w.layout.dims != (2, 2, 2, 2):
        raise CliError("game requires the qubit layout (2, 2, 2, 2)")
    game = ocb_game()
    result = enumerate_strategies(w, game)
    run.results = {
        "value": result.value,
        "strategy": result.strategy,
        "classical_bound": game.classical_bound,
        "per_condition": [
            {"inputs": list(cond), "success": val} for cond, val in result.per_condition
        ],
    }
    return run, run.to_json()


def _cmd_gen_random(args) -> tuple[RunReport, str]:
    w = random_process(args.seed, SystemLayout(*args.dims), strength=args.strength)
    run = RunReport("gen-random", results={"seed": args.seed, "strength": args.strength})
    return run, _encoded(run, "output", w, {"name": "random", "seed": args.seed, "strength": args.strength})


def _cmd_fixture(args) -> tuple[RunReport, str]:
    name = args.name  # argparse restricts the choices
    metadata: dict[str, Any] = {"name": name}
    if name == "w0":
        metadata["p"] = args.p
        w = w0_process(args.p)
    else:
        w = {"ocb": ocb_process, "identity": identity_process, "channel": channel_process}[name]()
    run = RunReport(f"fixture {name}")
    return run, _encoded(run, "output", w, metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procmat",
        description="Construct and analyze bipartite process matrices.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True, with_tol: bool = False) -> None:
        if with_input:
            p.add_argument("--input", help="process document path (default: stdin)")
        p.add_argument("--output", help="write the produced document or report here")
        if with_tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance (default 1e-8)")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("validate", help="check positivity, trace and term structure")
    common(p, with_tol=True)
    p.add_argument("--hs", action="store_true", help="list nonzero Hilbert-Schmidt coefficients")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("born", help="probability table for a reference instrument pair")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="use seeded random fixed-basis instruments")
    p.set_defaults(func=_cmd_born)

    p = sub.add_parser("dephase", help="non-selective input measurement update")
    common(p)
    p.add_argument("--basis", default="z", help="'z' or a JSON basis file with keys a1, b1")
    p.set_defaults(func=_cmd_dephase)

    p = sub.add_parser("effective-classical", help="fully diagonal effective matrix (computational bases)")
    common(p)
    p.set_defaults(func=_cmd_effective_classical)

    p = sub.add_parser("separate", help="constructive causal decomposition (input-diagonal matrices)")
    common(p, with_tol=True)
    p.add_argument("--basis", default="z", help="'z' or a JSON basis file with keys a1, b1")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("check-sep", help="causal separability, constructive fast path then the primal-dual solver")
    common(p, with_tol=True)
    p.add_argument("--basis", default="z", help="'z' or a JSON basis file with keys a1, b1")
    p.add_argument("--max-iter", type=int, default=50_000, help="solver iteration cap")
    p.set_defaults(func=_cmd_check_sep)

    p = sub.add_parser("game", help="best causal-game value over the built-in strategy family")
    common(p)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("gen-random", help="seeded random valid process matrix")
    common(p, with_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strength", type=float, default=0.9)
    p.add_argument(
        "--dims", type=int, nargs=4, default=(2, 2, 2, 2), metavar=("A1", "A2", "B1", "B2"),
        help="factor dimensions (default 2 2 2 2)",
    )
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("fixture", help="emit a named fixture process")
    p.add_argument("name", choices=("ocb", "w0", "identity", "channel"))
    common(p, with_input=False)
    p.add_argument("--p", type=float, default=0.5, help="mixing weight for the w0 fixture")
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that writes --output, prints, and turns a run into an exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:  # argparse has printed the help, or the usage error to stderr
        return EXIT_OK if err.code == 0 else EXIT_INVALID_INPUT
    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0.0):
            raise CliError(f"--tol must be a positive finite number, got {args.tol}")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
        run, archive = args.func(args)
        if args.output and archive is not None:  # before any print, so a failed write prints nothing
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(archive + "\n")
        report = run.to_json() if args.json else run.to_text()
        if "output_digest" in run.results and not args.output:  # a process document, piped on
            print(archive)
            print(report, file=sys.stderr)
        else:
            print(report)
        sys.stdout.flush()
        return EXIT_OK if run.status == "ok" else EXIT_CHECK_FAILED
    except BrokenPipeError:  # the reader closed stdout; Python docs, "Note on SIGPIPE"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit cannot fail again
        os.close(devnull)
        return EXIT_INVALID_INPUT
    except (CliError, ProcessDocumentError, ValueError, OSError) as err:  # OSError: --output could not be written
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
