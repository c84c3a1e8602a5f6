"""The tolerance table in ``procmat.tensor``: every default reads it, and each
bound that decides a certificate is pinned from both sides by a crafted
input just inside it and one just outside it."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

import procmat
from procmat import (
    CausalWitness,
    MeasurementBasis,
    ProcessMatrix,
    SystemLayout,
    channel_process,
    luders_input_dephase,
    tensor_product,
    validate_process,
    verify_decomposition,
    verify_witness,
    w0_defining_split,
    w0_process,
)
from procmat.cli import build_parser
from procmat.tensor import DEFAULT_TOL, INSTRUMENT_TOL, PPT_TOL, WITNESS_MARGIN, _psd_floor, _search_check_tol

from conftest import EYE2, SIGMA_X, SIGMA_Z

Z2 = MeasurementBasis.computational(2)


class TestDefaultsReadTheTable:
    @pytest.mark.parametrize("name", ["validate_process", "is_input_diagonal", "eigenstructure",
                                      "verify_decomposition", "constructive_decomposition",
                                      "dykstra_separability", "check_separability"])
    def test_default_tol(self, name):
        assert inspect.signature(getattr(procmat, name)).parameters["tol"].default == DEFAULT_TOL

    def test_other_defaults(self):
        assert inspect.signature(procmat.check_instrument).parameters["tol"].default == INSTRUMENT_TOL
        assert inspect.signature(procmat.ppt_check).parameters["tol"].default == PPT_TOL

    @pytest.mark.parametrize("command", ["validate", "separate", "check-sep"])
    def test_cli_tol_default_and_help(self, command, capsys):
        # The help text states the default the parser uses.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        stated = re.search(r"numeric tolerance \(default (\S+)\)", " ".join(capsys.readouterr().out.split()))
        assert float(stated.group(1)) == build_parser().parse_args([command]).tol == DEFAULT_TOL


def _moved_w0_split(residual):
    """w0_process(0.3) and its defining split with p moved by eps, so that the
    reconstruction residual eps |w_ab - w_ba|_F is ``residual`` and every
    other check passes."""
    split = w0_defining_split(0.3)
    eps = residual / np.linalg.norm(split.w_ab.matrix - split.w_ba.matrix)
    return w0_process(0.3), dataclasses.replace(split, p=0.3 + eps)


class TestReconstructionBound:
    """``verify_decomposition`` accepts a reconstruction residual of at most ``tol``."""

    @pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
    def test_both_sides(self, factor, ok):
        w, split = _moved_w0_split(factor * DEFAULT_TOL)
        check = verify_decomposition(w, split, tol=DEFAULT_TOL)
        assert check.reconstruction_residual == pytest.approx(factor * DEFAULT_TOL, rel=1e-6)
        assert check.p_ok and check.report_ab.overall and check.report_ba.overall
        assert check.ok is ok


def _stretched_channel(delta):
    """(1 + delta) W - delta 1 / 4 for the dephased identity channel W: min eigenvalue -delta / 4."""
    w = luders_input_dephase(channel_process(), Z2, Z2).matrix
    return ProcessMatrix(w.layout, (1.0 + delta) * w.matrix - delta * np.eye(16) / 4.0)


class TestPositivityFloor:
    """A process passes the positivity check down to -PSD_FLOOR * side, -1.6e-8 on qubits."""

    @pytest.mark.parametrize("delta, min_eig, ok", [(3.2e-8, -8e-9, True), (1.28e-7, -3.2e-8, False)],
                             ids=["inside", "outside"])
    def test_both_sides(self, delta, min_eig, ok):
        report = validate_process(_stretched_channel(delta))
        assert report.min_eigenvalue == pytest.approx(min_eig, rel=1e-6)
        assert (report.min_eigenvalue >= -_psd_floor(16)) is ok
        assert report.trace_ok and report.mask_ok
        assert report.is_psd is ok and report.overall is ok


class TestSearchCheckRule:
    """The search checks its splits at max(100 tol, SEARCH_CHECK_FLOOR): 1e-6 at
    tol 1e-8, where the floor binds, and 1e-5 at tol 1e-7, where 100 tol does."""

    @pytest.mark.parametrize("tol, residual, ok", [
        (DEFAULT_TOL, 5e-7, True), (DEFAULT_TOL, 2e-6, False), (1e-7, 5e-6, True), (1e-7, 2e-5, False),
    ], ids=["floor-inside", "floor-outside", "scaled-inside", "scaled-outside"])
    def test_both_sides(self, tol, residual, ok):
        check_tol = _search_check_tol(tol)
        w, split = _moved_w0_split(residual)
        check = verify_decomposition(w, split, tol=check_tol, psd_tol=check_tol)
        assert check.p_ok and check.report_ab.overall and check.report_ba.overall
        assert check.ok is ok


T_AB = tensor_product([EYE2, SIGMA_Z, SIGMA_Z, EYE2])
T_BA = tensor_product([SIGMA_Z, EYE2, SIGMA_X, SIGMA_Z])


class TestWitnessMargin:
    """On the plane (1 + a T_AB + b T_BA) / 4 with a, b > 0 and a + b > 1 the
    plane law's integer witness S = 1 - T_AB - T_BA, Q1 = -T_BA, Q2 = -T_AB
    has Tr(S W) = 4 (1 - a - b).  Its margin, WITNESS_MARGIN * side * eps *
    (|S| + |Q1| + |Q2|) * |W|, is about 1.04e-12 at a = b = 1/2, so the
    witness holds at a + b = 1 + 5e-13 and not at 1 + 1e-13."""

    @pytest.mark.parametrize("excess, ok", [(5e-13, True), (1e-13, False)], ids=["inside", "outside"])
    def test_both_sides(self, excess, ok):
        a = (1.0 + excess) / 2.0
        w = ProcessMatrix(SystemLayout.qubit(), (np.eye(16) + a * T_AB + a * T_BA) / 4.0)
        s = np.eye(16) - T_AB - T_BA
        value = float(np.vdot(w.matrix, s).real)
        assert value == pytest.approx(-4.0 * excess, rel=1e-2)
        norms = np.linalg.norm(s) + np.linalg.norm(T_BA) + np.linalg.norm(T_AB)
        margin = WITNESS_MARGIN * 16 * np.finfo(float).eps * norms * np.linalg.norm(w.matrix)
        assert bool(value < -margin) is ok
        assert bool(verify_witness(w, CausalWitness(s, -T_BA, -T_AB, value, margin))) is ok
