import json
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

from procmat import (
    MeasurementBasis,
    ProcessDocumentError,
    ProcessMatrix,
    SystemLayout,
    channel_process,
    decode_process,
    encode_process,
    identity_process,
    luders_input_dephase,
    random_process,
    w0_process,
)
from procmat import cli, process, separability
from procmat.cli import main
from procmat.io import digest_text
from procmat import ocb_process


class TestProcessDocument:
    def test_identity_round_trip(self):
        w = identity_process()
        decoded, _ = decode_process(encode_process(w))
        assert np.array_equal(decoded.matrix, w.matrix)
        assert decoded.layout == w.layout

    def test_w0_round_trip_exact(self):
        w = w0_process(0.3)
        decoded, _ = decode_process(encode_process(w))
        assert np.array_equal(decoded.matrix, w.matrix)

    def test_metadata_round_trip(self):
        text = encode_process(identity_process(), {"name": "identity", "seed": 3})
        _, metadata = decode_process(text)
        assert metadata == {"name": "identity", "seed": 3}

    @pytest.mark.parametrize("metadata", [[], 0, "", False], ids=["list", "zero", "string", "false"])
    def test_falsy_non_object_metadata_rejected(self, metadata):
        payload = json.loads(encode_process(identity_process()))
        payload["metadata"] = metadata
        with pytest.raises(ProcessDocumentError, match="metadata must be an object"):
            decode_process(json.dumps(payload))

    @pytest.mark.parametrize("null", [False, True], ids=["missing", "null"])
    def test_missing_or_null_metadata_is_empty(self, null):
        payload = json.loads(encode_process(identity_process()))
        assert "metadata" not in payload
        if null:
            payload["metadata"] = None
        assert decode_process(json.dumps(payload))[1] == {}

    def test_truncated_document_names_offset(self):
        text = encode_process(identity_process())
        with pytest.raises(ProcessDocumentError, match="offset"):
            decode_process(text[: len(text) // 2])

    def test_dimension_mismatch_rejected(self):
        payload = json.loads(encode_process(identity_process()))
        payload["layout"]["d_a1"] = 3
        with pytest.raises(ProcessDocumentError, match="does not match"):
            decode_process(json.dumps(payload))

    def test_non_hermitian_payload_rejected(self):
        payload = json.loads(encode_process(identity_process()))
        payload["matrix"][0][1] = [0.5, 0.0]
        with pytest.raises(ProcessDocumentError, match="Hermitian"):
            decode_process(json.dumps(payload))

    @pytest.mark.parametrize("matrix", ['[[["1","0"]]]', "[[[true,false]]]", "[[[1.0,false]]]"],
                             ids=["strings", "booleans", "number-and-boolean"])
    def test_non_number_entries_rejected(self, matrix):
        # numpy would read "1" as 1.0 and false as 0.0.
        document = '{"layout":{"d_a1":1,"d_a2":1,"d_b1":1,"d_b2":1},"matrix":' + matrix + "}"
        with pytest.raises(ProcessDocumentError, match="^matrix entries must be JSON numbers$"):
            decode_process(document)

    def test_one_string_entry_rejected(self):
        payload = json.loads(encode_process(identity_process()))
        payload["matrix"][0][0][0] = "0.25"
        with pytest.raises(ProcessDocumentError, match="^matrix entries must be JSON numbers$"):
            decode_process(json.dumps(payload))

    def test_integer_beyond_float_range_rejected(self):
        # json reads a 400-digit integer exactly; numpy cannot convert it to a float.
        payload = json.loads(encode_process(identity_process()))
        payload["matrix"][0][0][0] = 10 ** 400
        with pytest.raises(ProcessDocumentError, match="^bad matrix payload: int too large to convert to float$"):
            decode_process(json.dumps(payload))

    def test_non_object_document_rejected(self):
        with pytest.raises(ProcessDocumentError, match="^document must be a JSON object$"):
            decode_process("[]")

    def test_pairs_of_three_rejected(self):
        payload = json.loads(encode_process(identity_process()))
        payload["matrix"] = [[pair + [0.0] for pair in row] for row in payload["matrix"]]
        with pytest.raises(ProcessDocumentError,
                           match=r"^matrix must be an \(n, n, 2\) array of \[re, im\] pairs, got shape \(16, 16, 3\)$"):
            decode_process(json.dumps(payload))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_fixture_validate_pipeline(self, tmp_path, capsys):
        doc = tmp_path / "ocb.json"
        code, out, _ = run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        assert code == 0
        assert doc.exists()
        code, out, _ = run_cli(["validate", "--input", str(doc)], capsys)
        assert code == 0
        assert "valid: True" in out

    @pytest.mark.parametrize(
        "layout, dims",
        [({"d_a1": 2, "d_a2": 2, "d_b1": 2, "extra": 2}, (2, 2, 2, 2)),
         ({"d_a1": 2.7, "d_a2": 2, "d_b1": 2, "d_b2": 2}, (2, 2, 2, 2)),
         ({"d_a1": True, "d_a2": 2, "d_b1": 2, "d_b2": 2}, (1, 2, 2, 2))],
        ids=["missing-key", "fraction", "bool"],
    )
    def test_malformed_layout_exits_one(self, tmp_path, capsys, layout, dims):
        # Each layout would otherwise read as ``dims``, which matches the matrix.
        payload = json.loads(encode_process(identity_process(SystemLayout(*dims))))
        payload["layout"] = layout
        doc = tmp_path / "layout.json"
        doc.write_text(json.dumps(payload))
        code, _, err = run_cli(["validate", "--input", str(doc)], capsys)
        assert code == 1
        assert "layout" in err

    def test_invalid_document_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"broken')
        code, _, err = run_cli(["validate", "--input", str(bad)], capsys)
        assert code == 1
        assert "offset" in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_document_exits_one(self, tmp_path, capsys, token):
        # Python's json reads and writes the NaN and Infinity tokens; such a
        # document is invalid input, never a table or a document of NaN.
        payload = json.loads(encode_process(identity_process()))
        payload["matrix"][0][0][0] = float(token)
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps(payload))
        assert token in doc.read_text()
        for command in (["born", "--json"], ["dephase"], ["validate", "--json"]):
            code, out, err = run_cli(command + ["--input", str(doc)], capsys)
            assert code == 1
            assert "non-finite" in err
            assert token not in out and "nan" not in out.lower()

    def test_check_sep_records_skip_reason(self, tmp_path, capsys):
        doc = tmp_path / "w.json"
        run_cli(["gen-random", "--seed", "4", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["check-sep", "--input", str(doc), "--json"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["path"] == "dykstra"
        assert results["skip_reason"].startswith("matrix is not input-diagonal in the given bases")
        dephased = tmp_path / "dephased.json"
        run_cli(["dephase", "--input", str(doc), "--output", str(dephased)], capsys)
        _, out, _ = run_cli(["check-sep", "--input", str(dephased), "--json"], capsys)
        assert "skip_reason" not in json.loads(out)["results"]

    def test_check_failure_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, _ = run_cli(
            ["check-sep", "--input", str(doc), "--max-iter", "600"], capsys
        )
        assert code == 2
        assert "not-separable-up-to-tolerance" in out

    def test_check_sep_reports_witness(self, tmp_path, capsys):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["check-sep", "--input", str(doc), "--max-iter", "1000", "--json"], capsys)
        assert code == 2
        results = json.loads(out)["results"]
        assert results["status"] == "not-separable-up-to-tolerance"
        assert results["witness_value"] < -results["witness_margin"] < 0.0
        assert results["plateau_residual"] > 1e-3

    def test_check_sep_huge_cap_runs_to_witness(self, tmp_path, capsys):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["check-sep", "--input", str(doc), "--max-iter", "1000000000000", "--json"], capsys)
        assert code == 2
        results = json.loads(out)["results"]
        assert results["witness_value"] < -results["witness_margin"] < 0.0

    def test_check_sep_separable_report_has_no_witness(self, tmp_path, capsys):
        doc = tmp_path / "w.json"
        run_cli(["gen-random", "--seed", "0", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["check-sep", "--input", str(doc), "--json"], capsys)
        assert code == 0
        assert list(json.loads(out)["results"]) == [
            "path", "skip_reason", "status", "residual", "iterations", "p", "reconstruction_residual",
            "verified", "w_ab_digest", "w_ba_digest",
        ]

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_check_sep_rejects_cap_below_one(self, tmp_path, capsys, cap):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, err = run_cli(
            ["check-sep", "--input", str(doc), "--max-iter", cap, "--json"], capsys
        )
        assert code == 1
        assert "--max-iter" in err
        assert "Infinity" not in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_rejects_non_positive_or_non_finite_tol(self, tmp_path, capsys, tol):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, err = run_cli(["validate", "--input", str(doc), f"--tol={tol}", "--json"], capsys)
        assert code == 1
        assert "--tol" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["gen-random --seed -1", "born --input {doc} --seed -3"],
                             ids=["gen-random", "born"])
    def test_rejects_negative_seed(self, tmp_path, capsys, command):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, err = run_cli(command.format(doc=doc).split(), capsys)
        assert code == 1
        assert "--seed" in err
        assert out == ""

    def test_check_sep_one_way_fixture_separable(self, tmp_path, capsys):
        doc = tmp_path / "w0.json"
        run_cli(["fixture", "w0", "--p", "0", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["check-sep", "--input", str(doc), "--json"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["path"] == "dykstra"
        assert results["status"] == "separable"
        assert results["verified"] is True

    @pytest.mark.parametrize("command", ["separate", "check-sep"])
    def test_failed_constructive_check_is_reported(self, tmp_path, capsys, command):
        # At tol 1e-17 the split of this input-diagonal matrix is built but
        # fails its own verification (a DecompositionError): its
        # reconstruction residual is a rounding of about 2e-16.
        source = tmp_path / "random.json"
        dephased = tmp_path / "dephased.json"
        run_cli(["gen-random", "--seed", "3", "--output", str(source)], capsys)
        run_cli(["dephase", "--input", str(source), "--output", str(dephased)], capsys)
        code, out, _ = run_cli([command, "--input", str(dephased), "--tol", "1e-17", "--json"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "check-failed"
        assert "failed verification" in report["results"]["error"]
        assert "reconstruction residual" in report["results"]["error"]
        assert "iterations" not in report["results"]  # no projection-search fallback

    @pytest.mark.parametrize("command", ["check-sep --max-iter abc", "validate --bogus", "fixture nope",
                                         "born --tol 1e-6", "effective-classical --basis z"],
                             ids=["bad-integer", "unknown-flag", "bad-fixture", "born-tol", "classical-basis"])
    def test_usage_error_exits_one(self, capsys, command):
        code, out, err = run_cli(command.split(), capsys)
        assert code == 1
        assert "usage: procmat" in err
        assert out == ""

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["check-sep", "--help"], capsys)
        assert code == 0
        assert "--max-iter" in out

    def test_invalid_process_is_a_failed_check(self, tmp_path, capsys):
        # OCB plus a forbidden A2.B2 term: every command that checks at a
        # tolerance reports a failed check, and check-sep claims no verdict.
        w = ocb_process()
        z = np.diag([1.0, -1.0])
        doc = tmp_path / "bad.json"
        doc.write_text(encode_process(ProcessMatrix(w.layout, w.matrix + 0.05 * np.kron(np.kron(np.eye(2), z),
                                                                                        np.kron(np.eye(2), z)))))
        for command in ("validate", "separate", "check-sep"):
            code, out, _ = run_cli([command, "--input", str(doc), "--json"], capsys)
            assert code == 2
            assert json.loads(out)["status"] == "check-failed"
        results = json.loads(out)["results"]
        assert list(results) == ["path", "error"]
        assert results["error"].startswith("kappa_split needs a valid process matrix")
        # Each offending term is named as its pattern and magnitude, as a failed split check names it.
        assert "; offending terms A2,B2 0.05, min eigenvalue" in results["error"]

    def test_tolerance_echoed_only_where_used(self, tmp_path, capsys):
        doc = tmp_path / "ocb.json"
        out_doc = tmp_path / "out.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        used = {"validate": [], "separate": [], "check-sep": ["--max-iter", "10"]}
        unused = {"born": [], "dephase": [], "effective-classical": [], "game": [],
                  "gen-random": None, "fixture": None}
        for command, extra in {**used, **unused}.items():
            if extra is None:  # documents made from nothing
                args = [command] + (["ocb"] if command == "fixture" else [])
            else:
                args = [command, "--input", str(doc)] + extra
            _, out, _ = run_cli(args + ["--json", "--output", str(out_doc)], capsys)
            tolerances = json.loads(out)["tolerances"]
            assert tolerances == ({"tol": 1e-8} if command in used else {}), command

    def test_dephase_then_separate_reports_pure_channel(self, tmp_path, capsys):
        ocb = tmp_path / "ocb.json"
        dephased = tmp_path / "dephased.json"
        run_cli(["fixture", "ocb", "--output", str(ocb)], capsys)
        code, _, _ = run_cli(
            ["dephase", "--input", str(ocb), "--basis", "z", "--output", str(dephased)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["separate", "--input", str(dephased)], capsys)
        assert code == 0
        assert "p: 1.0" in out

    def test_effective_classical_yields_diagonal_process(self, tmp_path, capsys):
        ocb = tmp_path / "ocb.json"
        diagonal = tmp_path / "diagonal.json"
        run_cli(["fixture", "ocb", "--output", str(ocb)], capsys)
        code, _, _ = run_cli(
            ["effective-classical", "--input", str(ocb), "--output", str(diagonal)], capsys
        )
        assert code == 0
        decoded, _ = decode_process(diagonal.read_text())
        off_diagonal = decoded.matrix - np.diag(np.diag(decoded.matrix))
        assert np.max(np.abs(off_diagonal)) < 1e-12
        code, out, _ = run_cli(["validate", "--input", str(diagonal)], capsys)
        assert code == 0 and "valid: True" in out

    def test_check_sep_constructive_fast_path(self, tmp_path, capsys):
        ocb = tmp_path / "ocb.json"
        dephased = tmp_path / "dephased.json"
        run_cli(["fixture", "ocb", "--output", str(ocb)], capsys)
        run_cli(["dephase", "--input", str(ocb), "--output", str(dephased)], capsys)
        code, out, _ = run_cli(["check-sep", "--input", str(dephased)], capsys)
        assert code == 0
        assert "path: constructive" in out

    def test_pipeline_via_stdout_document(self, capsys, monkeypatch):
        import io as stdlib_io
        import sys

        code, out, err = run_cli(["fixture", "w0", "--p", "0.5"], capsys)
        assert code == 0
        assert "output_digest" in err  # report goes to stderr when piping
        monkeypatch.setattr(sys, "stdin", stdlib_io.StringIO(out))
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "valid: True" in out

    def test_gen_random_reproducible(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        run_cli(["gen-random", "--seed", "11", "--output", str(one)], capsys)
        run_cli(["gen-random", "--seed", "11", "--output", str(two)], capsys)
        assert one.read_text() == two.read_text()

    def test_game_reports_violation(self, tmp_path, capsys):
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["game", "--input", str(doc), "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["value"] == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-9)
        # The strategy family is defined on qubits only.
        doc = tmp_path / "qutrit.json"
        doc.write_text(encode_process(random_process(0, SystemLayout(3, 2, 3, 2))))
        code, out, err = run_cli(["game", "--input", str(doc)], capsys)
        assert code == 1
        assert out == "" and "game requires the qubit layout" in err

    def test_born_table_normalizes(self, tmp_path, capsys):
        doc = tmp_path / "identity.json"
        run_cli(["fixture", "identity", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["born", "--input", str(doc), "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["total"] == pytest.approx(1.0)

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 1, 2), (1, 1, 1, 1)],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_default_born_instruments_measure_and_reprepare_z(self, dims):
        # Outcome k on input |l> has probability [k = l] and reprepares |0><0|:
        # table[k, t, l] = [k = l][t = 0] of classical_instrument in z bases.
        from procmat import classical_instrument

        layout = SystemLayout(*dims)
        instr_a, instr_b, label = cli._canonical_instruments(layout, None)
        assert label == "z-measure-reprepare"
        for instr, d_in, d_out in ((instr_a, layout.d_a1, layout.d_a2), (instr_b, layout.d_b1, layout.d_b2)):
            table = np.einsum("kl,t->ktl", np.eye(d_in), np.eye(d_out)[0])
            expected = classical_instrument(table, np.eye(d_in), np.eye(d_out))
            assert len(instr) == len(expected) == d_in
            for got, want in zip(instr.outcomes, expected.outcomes):
                assert (got.input_dim, got.output_dim) == (want.input_dim, want.output_dim)
                np.testing.assert_array_equal(got.cj, want.cj)

    def test_validate_hs_listing(self, tmp_path, capsys):
        doc = tmp_path / "w0.json"
        run_cli(["fixture", "w0", "--p", "0.5", "--output", str(doc)], capsys)
        code, out, _ = run_cli(["validate", "--input", str(doc), "--hs", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["hs_coefficients"] == [
            "(0, 0, 0, 0) [identity] 0.25",
            "(1, 0, 1, 3) [A1,B1,B2] 0.0625",
            "(3, 0, 0, 1) [A1,B2] 0.0625",
            "(3, 3, 1, 0) [A1,A2,B1] -0.125",
        ]

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_basis_file_exits_one(self, tmp_path, capsys, entry):
        basis_file = tmp_path / "basis.json"
        identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        basis_file.write_text(json.dumps({"a1": [[[entry, 0.0]] * 2] * 2, "b1": identity}))
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, _, err = run_cli(["dephase", "--input", str(doc), "--basis", str(basis_file)], capsys)
        assert code == 1
        assert "basis a1: basis has non-finite entries" in err

    def test_basis_file_loading(self, tmp_path, capsys):
        theta = 0.4
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        basis_payload = {
            key: [[[float(v), 0.0] for v in row] for row in rot] for key in ("a1", "b1")
        }
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps(basis_payload))
        doc = tmp_path / "ocb.json"
        out_doc = tmp_path / "dephased.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, _, _ = run_cli(
            [
                "dephase",
                "--input", str(doc),
                "--basis", str(basis_file),
                "--output", str(out_doc),
            ],
            capsys,
        )
        assert code == 0
        decoded, _ = decode_process(out_doc.read_text())
        from procmat import MeasurementBasis, is_input_diagonal

        flag, _ = is_input_diagonal(decoded, MeasurementBasis(rot), MeasurementBasis(rot))
        assert flag

    @pytest.mark.parametrize("payload, message", [
        ("5", "must hold a JSON object"),
        ('{"a1": {}, "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', "basis a1"),
        ('{"a1": [[[1, 0], [0, 0]]', "invalid JSON at offset"),
        ('{"a1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', "is missing key 'b1'"),
        (json.dumps({"a1": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)],
                     "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}), "basis a1: basis has dimension 3, expected 2"),
        (None, "cannot read basis file"),
        (json.dumps({"a1": [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]], "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
         "error: bad basis a1 payload: int too large to convert to float"),
    ], ids=["number", "object-entry", "invalid-json", "missing-b1", "qutrit-on-qubits", "no-such-file", "huge-integer"])
    def test_malformed_basis_file_exits_one(self, tmp_path, capsys, payload, message):
        basis_file = tmp_path / "basis.json"
        if payload is not None:  # otherwise the path does not exist
            basis_file.write_text(payload)
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, _, err = run_cli(["dephase", "--input", str(doc), "--basis", str(basis_file)], capsys)
        assert code == 1
        assert message in err

    def test_string_basis_entry_exits_one(self, tmp_path, capsys):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps({"a1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["1", 0.0]]],
                                          "b1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}))
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        code, out, err = run_cli(["dephase", "--input", str(doc), "--basis", str(basis_file)], capsys)
        assert (code, out, err) == (1, "", "error: basis a1 entries must be JSON numbers\n")

    def test_integer_beyond_float_range_exits_one(self, tmp_path, capsys):
        payload = json.loads(encode_process(ocb_process()))
        payload["matrix"][0][0][0] = 10 ** 400
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps(payload))
        code, out, err = run_cli(["validate", "--input", str(doc)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {doc}: bad matrix payload: int too large to convert to float\n"

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(["validate", "--input", str(missing)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {missing}: ")

    @pytest.mark.parametrize("command", ["fixture ocb", "gen-random --seed 0", "dephase --input {ocb}",
                                         "validate --input {ocb}", "separate --input {dephased}"],
                             ids=["fixture", "gen-random", "dephase", "validate", "separate"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, command):
        # The --output is written before anything is printed, so a failed
        # write leaves stdout empty and ends in one error line.
        ocb, dephased = tmp_path / "ocb.json", tmp_path / "dephased.json"
        run_cli(["fixture", "ocb", "--output", str(ocb)], capsys)
        run_cli(["dephase", "--input", str(ocb), "--output", str(dephased)], capsys)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(command.format(ocb=ocb, dephased=dephased).split() + ["--output", str(target)],
                                 capsys)
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("kind", ["document", "report", "split", "two-part-split", "no-split"])
    def test_output_contract(self, tmp_path, capsys, kind):
        # --output receives one text plus a newline: the process document, the
        # JSON report, or the split; a command that made no split writes nothing.
        ocb, dephased, target = tmp_path / "ocb.json", tmp_path / "dephased.json", tmp_path / "out.json"
        random = tmp_path / "random.json"
        run_cli(["fixture", "ocb", "--output", str(ocb)], capsys)
        run_cli(["dephase", "--input", str(ocb), "--output", str(dephased)], capsys)
        run_cli(["gen-random", "--seed", "0", "--output", str(random)], capsys)
        command = {"document": ["fixture", "ocb"], "report": ["validate", "--input", str(ocb), "--json"],
                   "split": ["separate", "--input", str(dephased), "--json"],
                   "two-part-split": ["check-sep", "--input", str(random), "--json"],
                   "no-split": ["separate", "--input", str(ocb), "--json"]}[kind]
        code, out, err = run_cli(command + ["--output", str(target)], capsys)
        assert code == (2 if kind == "no-split" else 0) and err == ""
        if kind == "no-split":
            assert "not input-diagonal" in json.loads(out)["results"]["error"] and not target.exists()
        elif kind == "document":
            assert target.read_text() == encode_process(ocb_process(), {"name": "ocb"}) + "\n"
            assert out.startswith("command: fixture ocb\nstatus: ok\n")
            # Without --output the document goes to stdout, to be piped on, and the report to stderr.
            assert run_cli(command, capsys) == (0, target.read_text(), out)
        elif kind == "report":
            assert target.read_text() == out
        elif kind == "split":
            # Dephased OCB is all A < B: p = 1 and one part, byte for byte the text whose digest the report records.
            results = json.loads(out)["results"]
            part = encode_process(decode_process(dephased.read_text())[0])
            assert target.read_text() == '{"p":1.0,"w_ab":' + part + "}\n"
            assert results["p"] == 1.0 and digest_text(part) == results["w_ab_digest"]
        else:
            # The seeded random process separates on the search path with p = 0.5 and two parts;
            # each part's compact document stands in the archive as it is.
            results, text = json.loads(out)["results"], target.read_text()
            split = json.loads(text)
            assert split.keys() == {"p", "w_ab", "w_ba"} and split["p"] == results["p"] == 0.5
            for name in ("w_ab", "w_ba"):
                part = json.dumps(split[name], separators=(",", ":"))
                assert part in text and digest_text(part) == results[f"{name}_digest"]

    def test_module_entry_point(self, capsys, monkeypatch):
        # ``python -m procmat.cli``: the module's own main guard hands main's code to sys.exit.
        monkeypatch.delitem(sys.modules, "procmat.cli")  # else runpy warns that it is imported already
        monkeypatch.setattr(sys, "argv", ["procmat", "fixture", "ocb"])
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("procmat.cli", run_name="__main__")
        assert exited.value.code == 0
        decoded, _ = decode_process(capsys.readouterr().out)
        assert np.array_equal(decoded.matrix, ocb_process().matrix)

    def test_separate_writes_decomposition_document(self, tmp_path, capsys):
        ocb = tmp_path / "ocb.json"
        dephased = tmp_path / "dephased.json"
        split = tmp_path / "split.json"
        run_cli(["fixture", "ocb", "--output", str(ocb)], capsys)
        run_cli(["dephase", "--input", str(ocb), "--output", str(dephased)], capsys)
        code, _, _ = run_cli(
            ["separate", "--input", str(dephased), "--output", str(split)], capsys
        )
        assert code == 0
        payload = json.loads(split.read_text())
        assert payload["p"] == 1.0
        part, _ = decode_process(json.dumps(payload["w_ab"]))
        expected, _ = decode_process(dephased.read_text())
        assert np.allclose(part.matrix, expected.matrix, atol=1e-12)

    def test_identical_runs_are_byte_identical(self, tmp_path, capsys):
        doc = tmp_path / "w.json"
        run_cli(["gen-random", "--seed", "5", "--output", str(doc)], capsys)
        _, out1, _ = run_cli(["born", "--input", str(doc), "--seed", "9", "--json"], capsys)
        _, out2, _ = run_cli(["born", "--input", str(doc), "--seed", "9", "--json"], capsys)
        assert out1 == out2

    def test_closed_stdout_exits_quietly(self, tmp_path, capsys):
        # As in ``procmat validate --hs | true``: the reader has gone before
        # the report is written.
        doc = tmp_path / "ocb.json"
        run_cli(["fixture", "ocb", "--output", str(doc)], capsys)
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "procmat.cli", "validate", "--input", str(doc), "--hs"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_closed_stdout_during_a_large_document(self, capsys, monkeypatch):
        # A (3,3,3,3) document is larger than a pipe buffer, so its write
        # meets the closed read end for certain; main sends stdout to the
        # null device and reports invalid input.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            code = main(["gen-random", "--dims", "3", "3", "3", "3"])
            stream.write("later output\n")  # reaches the null device: no second BrokenPipeError
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_complex_born_probability_is_invalid_input(self, tmp_path, capsys):
        # A Hermitian matrix with entries of order 1e12 is no process, but born reads it;
        # its Born sums round to imaginary parts far above IMAG_TOL (1e-10),
        # which the command reports as invalid input, not as a table.
        g = np.random.default_rng(0).standard_normal((2, 16, 16))
        doc = tmp_path / "huge.json"
        doc.write_text(encode_process(ProcessMatrix(SystemLayout(), 1e12 * (g[0] + 1j * g[1] + g[0].T - 1j * g[1].T))))
        code, out, err = run_cli(["born", "--input", str(doc), "--seed", "1", "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: Born probability has imaginary part ") and err.endswith(" beyond 1.0e-10\n")


def _perturbed_document(w):
    """Document of W with +4e-11j at entries (0, 1) and (1, 0), a Hermiticity
    defect of 8e-11, written past ProcessMatrix, which would drop it."""
    payload = json.loads(encode_process(w))
    payload["matrix"][0][1][1] += 4e-11
    payload["matrix"][1][0][1] += 4e-11
    return json.dumps(payload)


class TestDocumentsAtTheTolerances:
    """Documents that ``validate`` accepts, at the edge of its positivity
    floor or with a Hermiticity defect below its tolerance, separate."""

    Z2 = MeasurementBasis.computational(2)

    def test_separate_eigenvalue_within_positivity_floor(self, tmp_path, capsys):
        w = luders_input_dephase(channel_process(), self.Z2, self.Z2).matrix
        delta = 2e-8
        near = ProcessMatrix(w.layout, (1.0 + delta) * w.matrix - delta * np.eye(16) / 4.0)
        doc = tmp_path / "near.json"
        doc.write_text(encode_process(near))
        code, out, _ = run_cli(["validate", "--input", str(doc)], capsys)
        assert code == 0
        code, out, _ = run_cli(["separate", "--input", str(doc), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["verified"] is True

    def test_separate_hermiticity_defect_within_tolerance(self, tmp_path, capsys):
        doc = tmp_path / "perturbed.json"
        doc.write_text(_perturbed_document(luders_input_dephase(random_process(7), self.Z2, self.Z2).matrix))
        code, out, _ = run_cli(["separate", "--input", str(doc), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["verified"] is True

    def test_floor_document_verified_by_both_commands(self, tmp_path, capsys):
        # Min eigenvalue -1.25e-8: below --tol, inside validate's floor of
        # 1e-9 * 16.  Both commands report the library's check of one split.
        w = luders_input_dephase(channel_process(), self.Z2, self.Z2).matrix
        delta = 5e-8
        near = ProcessMatrix(w.layout, (1.0 + delta) * w.matrix - delta * np.eye(16) / 4.0)
        assert np.linalg.eigvalsh(near.matrix)[0] == pytest.approx(-1.25e-8, rel=1e-6)
        doc = tmp_path / "near.json"
        doc.write_text(encode_process(near))
        code, _, _ = run_cli(["validate", "--input", str(doc)], capsys)
        assert code == 0
        results = {}
        for command in ("separate", "check-sep"):
            code, out, _ = run_cli([command, "--input", str(doc), "--json"], capsys)
            assert code == 0
            results[command] = json.loads(out)["results"]
            assert results[command]["verified"] is True
        assert results["check-sep"]["path"] == "constructive"
        keys = ("p", "reconstruction_residual", "w_ab_digest", "w_ba_digest")
        assert [results["separate"].get(k) for k in keys] == [results["check-sep"].get(k) for k in keys]

    def test_check_sep_hermiticity_defect_within_tolerance(self, tmp_path, capsys):
        doc = tmp_path / "perturbed.json"
        doc.write_text(_perturbed_document(w0_process(0.999)))
        code, out, _ = run_cli(["check-sep", "--input", str(doc), "--json"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["path"] == "dykstra"
        assert results["status"] == "separable"
        assert results["verified"] is True


class TestValidationCount:
    """W is validated once, in the library, by ``kappa_split`` on both
    paths: the search that ``check-sep`` falls back to does not validate it
    again.  Each part of the split is validated once too.  Counted as the
    matrices that reach the stacked validity kernel, which
    ``validate_process`` and ``verify_decomposition`` share."""

    Z2 = MeasurementBasis.computational(2)

    @pytest.mark.parametrize("command, dephased, calls",
                             [("separate", True, 3), ("check-sep", True, 3), ("check-sep", False, 3)],
                             ids=["separate-dephased", "check-sep-dephased", "check-sep-undephased"])
    def test_validate_process_calls(self, tmp_path, capsys, monkeypatch, command, dephased, calls):
        w = random_process(0)
        if dephased:
            w = luders_input_dephase(w, self.Z2, self.Z2).matrix
        doc = tmp_path / "w.json"
        doc.write_text(encode_process(w))
        counted = []
        real = process._validate_stack

        def counting(layout, mats, *args, **kwargs):
            counted.extend(mats)
            return real(layout, mats, *args, **kwargs)

        for module in (process, separability):
            monkeypatch.setattr(module, "_validate_stack", counting)
        code, out, _ = run_cli([command, "--input", str(doc), "--json"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["verified"] is True
        assert results["w_ab_digest"] and results["w_ba_digest"]  # both parts present
        assert len(counted) == calls
