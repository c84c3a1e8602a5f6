"""Command-line interface wiring the library into reproducible runs.

Commands that produce a process document write it to ``--output`` when
given, otherwise to stdout so documents can be piped between commands; the
human-readable run report then goes to stderr.  Analysis commands print
their report to stdout.  Exit codes: 0 success, 1 invalid input or a
stdout closed by its reader, 2 a check failed (validation, separability,
decomposition).

Every command reads or writes a document, so only ``io`` and ``process``
are imported here; each command imports the rest of the library it runs
when it runs, so ``validate`` never loads the separability code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any

import numpy as np

from .io import ProcessDocumentError, RunReport, _pair_matrix, decode_process, digest_text, encode_process
from .process import (
    FACTOR_NAMES,
    ProcessMatrix,
    SystemLayout,
    channel_process,
    identity_process,
    random_process,
    validate_process,
)

if TYPE_CHECKING:
    from .effective import MeasurementBasis

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_CHECK_FAILED = 2


class CliError(Exception):
    """Invalid input or unusable flags; maps to exit code 1."""


def _read_input(args) -> tuple[ProcessMatrix, dict, str]:
    path = getattr(args, "input", None)
    if path in (None, "-"):
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise CliError(f"cannot read {path}: {err}") from err
        name = path
    try:
        process, metadata = decode_process(text)
    except ProcessDocumentError as err:
        raise CliError(f"{name}: {err}") from err
    return process, metadata, digest_text(text)


def _load_basis_pair(args, layout: SystemLayout) -> tuple[MeasurementBasis, MeasurementBasis]:
    from .effective import MeasurementBasis

    spec = getattr(args, "basis", "z") or "z"
    if spec == "z":
        return (
            MeasurementBasis.computational(layout.d_a1),
            MeasurementBasis.computational(layout.d_b1),
        )
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read basis file {spec}: {err}") from err
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
            basis = MeasurementBasis(mat)
        except ValueError as err:
            raise CliError(f"basis {key}: {err}") from err
        if basis.dim != dim:
            raise CliError(f"basis {key} has dimension {basis.dim}, layout expects {dim}")
        out.append(basis)
    return out[0], out[1]


def _emit_document(args, report: RunReport, text: str) -> None:
    """Write a document to --output or stdout; report goes to the other stream."""
    report_text = report.to_json() if args.json else report.to_text()
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(report_text)
    else:
        print(text)
        print(report_text, file=sys.stderr)


def _emit_report(args, report: RunReport, file_output: bool = True) -> None:
    """Report to stdout; for pure-analysis commands --output archives it.

    Commands whose --output carries a document pass ``file_output=False``.
    """
    print(report.to_json() if args.json else report.to_text())
    output = getattr(args, "output", None)
    if output and file_output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")


def _hs_summary(w: ProcessMatrix, tol: float) -> list[str]:
    from .tensor import hs_decompose

    dec = hs_decompose(w.matrix, w.layout.dims)
    lines = []
    for idx in np.argwhere(np.abs(dec.coefficients) > tol):
        pattern = ",".join(FACTOR_NAMES[f] for f, t in enumerate(idx) if t != 0) or "identity"
        value = float(dec.coefficients[tuple(idx)])
        lines.append(f"{tuple(int(i) for i in idx)} [{pattern}] {value!r}")
    return lines


def _cmd_validate(args) -> int:
    w, _, digest = _read_input(args)
    report = validate_process(w, tol=args.tol)
    run = RunReport(
        command="validate",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
        results={
            "is_psd": report.is_psd,
            "min_eigenvalue": report.min_eigenvalue,
            "trace_ok": report.trace_ok,
            "trace": report.trace_value,
            "mask_ok": report.mask_ok,
            "offending_terms": [
                {"pattern": list(p), "magnitude": m} for p, m in report.offending_terms
            ],
            "valid": report.overall,
        },
        status="ok" if report.overall else "check-failed",
    )
    if args.hs:
        run.results["hs_coefficients"] = _hs_summary(w, args.tol)
    _emit_report(args, run)
    return EXIT_OK if report.overall else EXIT_CHECK_FAILED


def _canonical_instruments(layout: SystemLayout, seed: int | None):
    if seed is None:
        from .instruments import Instrument, measure_reprepare

        # Measure each z state, reprepare the first z state.
        instr_a, instr_b = (
            Instrument(tuple(measure_reprepare(v, np.eye(d_out, dtype=complex)[0])
                             for v in np.eye(d_in, dtype=complex)))
            for d_in, d_out in ((layout.d_a1, layout.d_a2), (layout.d_b1, layout.d_b2))
        )
        return instr_a, instr_b, "z-measure-reprepare"
    from .effective import MeasurementBasis, random_cq_instrument

    rng = np.random.default_rng(seed)
    instr_a = random_cq_instrument(MeasurementBasis.computational(layout.d_a1), layout.d_a2, rng)
    instr_b = random_cq_instrument(MeasurementBasis.computational(layout.d_b1), layout.d_b2, rng)
    return instr_a, instr_b, f"random-cq(seed={seed})"


def _cmd_born(args) -> int:
    from .instruments import NumericIntegrityError, probability_table

    w, _, digest = _read_input(args)
    instr_a, instr_b, label = _canonical_instruments(w.layout, args.seed)
    try:
        table = probability_table(w, instr_a, instr_b)
    except NumericIntegrityError as err:
        raise CliError(str(err)) from err
    run = RunReport(
        command="born",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
        results={
            "instruments": label,
            "table": [[float(v) for v in row] for row in table.entries],
            "total": table.total,
        },
    )
    _emit_report(args, run)
    return EXIT_OK


def _cmd_dephase(args) -> int:
    from .effective import luders_input_dephase

    w, metadata, digest = _read_input(args)
    basis_a1, basis_b1 = _load_basis_pair(args, w.layout)
    effective = luders_input_dephase(w, basis_a1, basis_b1)
    metadata = dict(metadata)
    metadata["provenance"] = "dephase"
    text = encode_process(effective.matrix, metadata)
    run = RunReport(
        command="dephase",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
        results={"basis": args.basis, "output_digest": digest_text(text)},
    )
    _emit_document(args, run, text)
    return EXIT_OK


def _cmd_effective_classical(args) -> int:
    from .effective import MeasurementBasis, classical_effective

    w, metadata, digest = _read_input(args)
    layout = w.layout
    if args.basis != "z":
        raise CliError("effective-classical supports only the computational bases")
    bases = [MeasurementBasis.computational(d) for d in layout.dims]
    result = classical_effective(w, *bases)
    metadata = dict(metadata)
    metadata["provenance"] = "effective-classical"
    text = encode_process(result, metadata)
    run = RunReport(
        command="effective-classical",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
        results={"output_digest": digest_text(text)},
    )
    _emit_document(args, run, text)
    return EXIT_OK


def _decomposition_results(decomposition) -> dict[str, Any]:
    results: dict[str, Any] = {
        "p": decomposition.p,
        "reconstruction_residual": decomposition.check.reconstruction_residual,
        "verified": decomposition.check.ok,
    }
    if decomposition.w_ab is not None:
        results["w_ab_digest"] = digest_text(encode_process(decomposition.w_ab))
    if decomposition.w_ba is not None:
        results["w_ba_digest"] = digest_text(encode_process(decomposition.w_ba))
    return results


def _write_decomposition(args, decomposition) -> None:
    output = getattr(args, "output", None)
    if not output:
        return
    payload: dict[str, Any] = {"p": decomposition.p}
    if decomposition.w_ab is not None:
        payload["w_ab"] = json.loads(encode_process(decomposition.w_ab))
    if decomposition.w_ba is not None:
        payload["w_ba"] = json.loads(encode_process(decomposition.w_ba))
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def _cmd_separate(args) -> int:
    from .separability import (
        DecompositionError,
        EigenstructureError,
        NotInputDiagonalError,
        constructive_decomposition,
    )

    w, _, digest = _read_input(args)
    basis_a1, basis_b1 = _load_basis_pair(args, w.layout)
    run = RunReport(
        command="separate",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
    )
    try:
        decomposition = constructive_decomposition(w, basis_a1, basis_b1, tol=args.tol)
    except (NotInputDiagonalError, EigenstructureError, DecompositionError, ValueError) as err:
        run.status = "check-failed"
        run.results["error"] = str(err)
        _emit_report(args, run, file_output=False)
        return EXIT_CHECK_FAILED
    run.results.update(_decomposition_results(decomposition))
    _write_decomposition(args, decomposition)
    _emit_report(args, run, file_output=False)
    return EXIT_OK


def _cmd_check_sep(args) -> int:
    from .separability import (
        INCONCLUSIVE,
        SEPARABLE,
        DecompositionError,
        EigenstructureError,
        NotInputDiagonalError,
        constructive_decomposition,
        dykstra_separability,
    )

    if args.max_iter < 1:
        raise CliError(f"--max-iter must be at least 1, got {args.max_iter}")
    w, _, digest = _read_input(args)
    basis_a1, basis_b1 = _load_basis_pair(args, w.layout)
    run = RunReport(
        command="check-sep",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
    )
    decomposition = None
    run.results["path"] = "constructive"
    try:
        try:
            decomposition = constructive_decomposition(w, basis_a1, basis_b1, tol=args.tol)
            run.results["status"] = SEPARABLE
        except (NotInputDiagonalError, EigenstructureError) as err:
            run.results.update(path="dykstra", skip_reason=str(err))
            report = dykstra_separability(w, tol=args.tol, max_iter=args.max_iter)
            run.results["status"] = report.status
            run.results["residual"] = report.residual
            run.results["iterations"] = report.iterations
            if report.plateau_residual is not None:
                run.results["plateau_residual"] = report.plateau_residual
            if report.witness is not None:
                run.results.update(witness_value=report.witness.value, witness_margin=report.witness.margin)
            decomposition = report.decomposition
    except DecompositionError as err:
        # A failed split is inconclusive on either path.  On an input-diagonal
        # matrix the solver could only pass at a looser tolerance, so
        # a failed constructive split is not retried.
        run.results.update(status=INCONCLUSIVE, error=str(err))
    if decomposition is not None:
        run.results.update(_decomposition_results(decomposition))
        _write_decomposition(args, decomposition)
    separable = run.results["status"] == SEPARABLE
    run.status = "ok" if separable else "check-failed"
    _emit_report(args, run, file_output=False)
    return EXIT_OK if separable else EXIT_CHECK_FAILED


def _cmd_game(args) -> int:
    from .games import enumerate_strategies, ocb_game

    w, _, digest = _read_input(args)
    if w.layout.dims != (2, 2, 2, 2):
        raise CliError("game requires the qubit layout (2, 2, 2, 2)")
    result = enumerate_strategies(w, ocb_game())
    run = RunReport(
        command="game",
        inputs={"process": digest},
        tolerances={"tol": args.tol},
        results={
            "value": result.value,
            "strategy": result.strategy,
            "classical_bound": 0.75,
            "per_condition": [
                {"inputs": list(cond), "success": val} for cond, val in result.per_condition
            ],
        },
    )
    _emit_report(args, run)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    dims = args.dims
    layout = SystemLayout(*dims)
    w = random_process(args.seed, layout, strength=args.strength)
    text = encode_process(w, {"name": "random", "seed": args.seed, "strength": args.strength})
    run = RunReport(
        command="gen-random",
        tolerances={"tol": args.tol},
        results={"seed": args.seed, "strength": args.strength, "output_digest": digest_text(text)},
    )
    _emit_document(args, run, text)
    return EXIT_OK


def _cmd_fixture(args) -> int:
    name = args.name  # argparse restricts the choices
    if name == "ocb":
        from .games import ocb_process

        w = ocb_process()
    elif name == "w0":
        from .separability import w0_process

        w = w0_process(args.p)
    else:
        w = identity_process() if name == "identity" else channel_process()
    metadata: dict[str, Any] = {"name": name}
    if name == "w0":
        metadata["p"] = args.p
    text = encode_process(w, metadata)
    run = RunReport(
        command=f"fixture {name}",
        tolerances={"tol": args.tol},
        results={"output_digest": digest_text(text)},
    )
    _emit_document(args, run, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procmat",
        description="Construct and analyze bipartite process matrices.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--input", help="process document path (default: stdin)")
        p.add_argument("--output", help="write the produced document or report here")
        p.add_argument("--tol", type=float, default=1e-8, help="numeric tolerance (default 1e-8)")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("validate", help="check positivity, trace and term structure")
    common(p)
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

    p = sub.add_parser("effective-classical", help="fully diagonal effective matrix")
    common(p)
    p.add_argument("--basis", default="z", help="only 'z' is supported")
    p.set_defaults(func=_cmd_effective_classical)

    p = sub.add_parser("separate", help="constructive causal decomposition (input-diagonal matrices)")
    common(p)
    p.add_argument("--basis", default="z", help="'z' or a JSON basis file with keys a1, b1")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("check-sep", help="causal separability, constructive fast path then projections")
    common(p)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise CliError(f"--tol must be a positive finite number, got {args.tol}")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, ProcessDocumentError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except BrokenPipeError:  # the reader closed stdout; Python docs, "Note on SIGPIPE"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit cannot fail again
        os.close(devnull)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
