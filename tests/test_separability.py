import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmat import effective, separability, tensor
from procmat import (
    FACTOR_NAMES,
    CausalDecomposition,
    CausalWitness,
    DecompositionReport,
    EigenstructureError,
    HSDecomposition,
    Instrument,
    MeasurementBasis,
    NotInputDiagonalError,
    ProcessMatrix,
    SystemLayout,
    ValidityReport,
    channel_process,
    check_instrument,
    check_separability,
    classical_effective,
    commutator_norm,
    constructive_decomposition,
    dykstra_separability,
    eigenstructure,
    identity_process,
    is_input_diagonal,
    kappa_split,
    hermitian_eig,
    hs_decompose,
    hs_reconstruct,
    luders_input_dephase,
    measure_reprepare,
    partial_trace,
    ppt_check,
    random_process,
    tensor_product,
    validate_process,
    verify_decomposition,
    verify_witness,
    w0_defining_split,
    w0_defining_terms,
    w0_process,
)
from procmat import ocb_process
from procmat.process import project_to_valid_span
from procmat.separability import (
    INCONCLUSIVE,
    NOT_SEPARABLE,
    SEPARABLE,
    _failed_checks,
    _span_project,
)

from conftest import EYE2, SIGMA_X, SIGMA_Z, bell_state, mask_projection, random_hermitian

Z2 = MeasurementBasis.computational(2)
# OCB = (1 + (T_AB + T_BA) / sqrt(2)) / 4.
T_AB = tensor_product([EYE2, SIGMA_Z, SIGMA_Z, EYE2])
T_BA = tensor_product([SIGMA_Z, EYE2, SIGMA_X, SIGMA_Z])


def plane_point(a, b):
    """(1 + a T_AB + b T_BA) / 4, a valid process for a^2 + b^2 <= 1."""
    return ProcessMatrix(SystemLayout.qubit(), (np.eye(16) + a * T_AB + b * T_BA) / 4.0)


def dephased_ocb():
    return luders_input_dephase(ocb_process(), Z2, Z2).matrix


class TestKappaSplit:
    def test_identity_process(self):
        split = kappa_split(identity_process())
        assert split.lambda0 == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(split.kappa1)) < 1e-12
        assert np.max(np.abs(split.kappa2)) < 1e-12

    def test_dephased_ocb_closed_form(self):
        split = kappa_split(dephased_ocb())
        assert split.lambda0 == pytest.approx(-1.0 / np.sqrt(2), abs=1e-12)
        expected_k1 = (np.eye(16) + tensor_product([EYE2, SIGMA_Z, SIGMA_Z, EYE2])) / np.sqrt(2)
        assert np.linalg.norm(split.kappa1 - expected_k1) < 1e-10
        assert np.max(np.abs(split.kappa2)) < 1e-12

    def test_reconstruction_identity(self):
        for seed in range(3):
            w = luders_input_dephase(random_process(300 + seed), Z2, Z2).matrix
            split = kappa_split(w)
            rebuilt = (
                (1.0 + split.lambda0) * np.eye(16) + split.kappa1 + split.kappa2
            ) / w.layout.d
            assert np.linalg.norm(rebuilt - w.matrix) < 1e-10

    def test_kappa_sum_positive_with_zero_floor(self):
        w = luders_input_dephase(random_process(310), Z2, Z2).matrix
        split = kappa_split(w)
        evals = np.linalg.eigvalsh(split.kappa1 + split.kappa2)
        assert evals[0] > -1e-9
        assert evals[0] < 1e-9

    def test_invalid_input_rejected(self):
        bad = ProcessMatrix(
            SystemLayout.qubit(),
            (np.eye(16) + tensor_product([EYE2, SIGMA_Z, EYE2, SIGMA_Z])) / 4.0,
        )
        with pytest.raises(ValueError, match="valid process"):
            kappa_split(bad)

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2), (2, 1, 2, 1)], ids=lambda dims: "-".join(map(str, dims))
    )
    def test_matches_hs_mask_split(self, dims):
        """Reference: Hilbert-Schmidt terms nontrivial on B2 go to kappa2, the rest
        to kappa1, which also carries the identity shift -lambda0."""
        w = random_process(11, SystemLayout(*dims))
        split = kappa_split(w)
        g = w.layout.d * w.matrix - np.eye(w.side)
        coeffs = hs_decompose(g, dims).coefficients
        b2_nontrivial = np.zeros(coeffs.shape, dtype=bool)
        b2_nontrivial[..., 1:] = True
        parts = [hs_reconstruct(HSDecomposition(dims, np.where(b2_nontrivial == side, coeffs, 0.0)))
                 for side in (False, True)]
        assert np.max(np.abs(split.kappa1 - (parts[0] - split.lambda0 * np.eye(w.side)))) <= 1e-12
        assert np.max(np.abs(split.kappa2 - parts[1])) <= 1e-12
        assert split.lambda0 == pytest.approx(np.linalg.eigvalsh(g)[0], abs=1e-12)


class TestEigenstructure:
    def test_dephased_ocb_block_eigenvalues(self):
        structure = eigenstructure(dephased_ocb(), Z2, Z2)
        for n in range(2):
            for m in range(2):
                assert sorted(structure.m1[n, :, m]) == pytest.approx(
                    [0.0, np.sqrt(2)], abs=1e-10
                )
        assert np.max(np.abs(structure.m2)) < 1e-10

    def test_identity_process_all_zero(self):
        structure = eigenstructure(identity_process(), Z2, Z2)
        assert np.max(np.abs(structure.m1)) < 1e-12
        assert np.max(np.abs(structure.m2)) < 1e-12

    def test_random_dephased_invariants(self):
        for seed in range(4):
            ba = MeasurementBasis.random(2, 320 + seed)
            bb = MeasurementBasis.random(2, 330 + seed)
            w = luders_input_dephase(random_process(340 + seed), ba, bb).matrix
            structure = eigenstructure(w, ba, bb)
            assert structure.eigen_residual < 1e-8
            assert structure.kappa_commutator < 1e-8
            assert structure.projector_commutator < 1e-8
            # joint eigenvalue positivity of kappa1 + kappa2
            for n in range(2):
                for m in range(2):
                    assert structure.m1[n, :, m].min() + structure.m2[n, m, :].min() > -1e-8

    def test_requires_input_diagonal(self):
        with pytest.raises(NotInputDiagonalError):
            eigenstructure(ocb_process(), Z2, Z2)

    @staticmethod
    def coherent_ocb(site, eps=1e-9):
        """Dephased OCB plus an ``eps`` sigma_x coherence on input A1 (site 0) or B1 (site 2)."""
        w = dephased_ocb()
        return ProcessMatrix(w.layout, w.matrix + eps * tensor_product([SIGMA_X if f == site else EYE2
                                                                          for f in range(4)]))

    def test_input_diagonal_boundary(self):
        # An A1 coherence of 1e-9 on dephased OCB: with tol equal to the
        # off-block norm that is_input_diagonal measures, the input-diagonal
        # check passes and the commutator check catches the coherence; with
        # tol one float below it, the input-diagonal check raises.  Every
        # caller of the one input-diagonality rule agrees on it, for the A1
        # coherence and for the same one on B1.
        for site in (0, 2):
            w = self.coherent_ocb(site)
            diagonal, off_norm = is_input_diagonal(w, Z2, Z2, tol=1e-9)
            assert not diagonal
            below = np.nextafter(off_norm, 0.0)
            # below is a numpy float: the flag is a Python bool all the same.
            assert is_input_diagonal(w, Z2, Z2, tol=off_norm)[0] is True
            assert is_input_diagonal(w, Z2, Z2, tol=below) == (False, off_norm)
            assert is_input_diagonal(w, Z2, Z2, tol=below)[0] is False
            with pytest.raises(EigenstructureError, match="commutation residuals too large"):
                eigenstructure(w, Z2, Z2, tol=off_norm)
            message = (f"matrix is not input-diagonal in the given bases: "
                       f"off-block norm {off_norm:.3e} > {below:.1e}")
            for call in (lambda: eigenstructure(w, Z2, Z2, tol=below),
                         lambda: constructive_decomposition(w, Z2, Z2, tol=below)):
                with pytest.raises(NotInputDiagonalError) as raised:
                    call()
                assert str(raised.value) == message
            under = check_separability(w, Z2, Z2, tol=below, max_iter=1)
            assert (under.path, under.skip_reason) == ("dykstra", message)

    def test_default_rule_shared_with_the_decider(self):
        # A 5e-10 A1 coherence is input-diagonal at the default tol of both
        # is_input_diagonal and check_separability, which takes the constructive path.
        w = self.coherent_ocb(0, 5e-10)
        assert is_input_diagonal(w, Z2, Z2) == (True, 1e-9)
        report = check_separability(w, Z2, Z2)
        assert (report.path, report.status, report.decomposition.p) == ("constructive", SEPARABLE, 1.0)

    @pytest.mark.parametrize("at_off_norm", [False, True], ids=["tol1e-8", "tol-off"])
    @pytest.mark.parametrize("site", [0, 2], ids=["a1", "b1"])
    @pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    def test_constructive_split_at_input_diagonal_boundary(self, eps, site, at_off_norm):
        # At tol 1e-8, or at tol equal to the off-block norm, W is
        # input-diagonal, so the constructive split is built, verifies, and is
        # check_separability's path.  On A1 the split is nearly one-way, with p
        # within a few eps of 1: each part is weighed by its own trace, so
        # neither is divided by the few digits of 1 - p.
        w = self.coherent_ocb(site, eps)
        tol = is_input_diagonal(w, Z2, Z2)[1] if at_off_norm else 1e-8
        assert constructive_decomposition(w, Z2, Z2, tol=tol).check.ok
        report = check_separability(w, Z2, Z2, tol=tol, max_iter=1)
        assert (report.path, report.status, report.skip_reason) == ("constructive", SEPARABLE, None)

    def test_nan_tolerance_rejected(self):
        w = dephased_ocb()
        with pytest.raises(ValueError, match="^tol must be a finite number of at least 0, got nan$"):
            eigenstructure(w, Z2, Z2, tol=float("nan"))

    def test_block_not_of_product_form(self, monkeypatch):
        # A term nontrivial on B2 inside input block (1, 0) of kappa1 breaks
        # its A_(n,m) (x) 1 form there and nowhere else.
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        term = 0.1 * tensor_product([p1, EYE2, p0, SIGMA_Z])

        def broken_split(w):
            split = kappa_split(w)
            return dataclasses.replace(split, kappa1=split.kappa1 + term)

        monkeypatch.setattr(separability, "kappa_split", broken_split)
        with pytest.raises(EigenstructureError, match=r"^block \(1, 0\) is not of product form: residuals "):
            eigenstructure(dephased_ocb(), Z2, Z2)


class TestConstructiveDecomposition:
    def test_dephased_ocb_is_pure_channel(self):
        w = dephased_ocb()
        dec = constructive_decomposition(w, Z2, Z2)
        assert dec.p == 1.0
        assert dec.w_ba is None
        assert np.linalg.norm(dec.w_ab.matrix - w.matrix) < 1e-10

    def test_identity_process_convention(self):
        w = identity_process()
        dec = constructive_decomposition(w, Z2, Z2)
        assert dec.p == 1.0
        assert np.allclose(dec.w_ab.matrix, w.matrix)

    def test_dephased_ocb_splits_at_zero_tolerance(self):
        # Its forbidden coefficients are exact zeros, which tol 0 accepts.
        dec = constructive_decomposition(dephased_ocb(), Z2, Z2, tol=0.0)
        assert dec.check.ok and dec.check.report_ab.offending_terms == ()

    def test_alpha_allocation_invariance(self):
        # kappa1 carries the whole identity shift -lambda0.
        w = luders_input_dephase(random_process(350), Z2, Z2).matrix
        dec = constructive_decomposition(w, Z2, Z2)
        assert verify_decomposition(w, dec, tol=1e-8).ok

    def test_random_bases_round_trip(self):
        for seed in range(3):
            ba = MeasurementBasis.random(2, 360 + seed)
            bb = MeasurementBasis.random(2, 370 + seed)
            w = luders_input_dephase(random_process(380 + seed), ba, bb).matrix
            dec = constructive_decomposition(w, ba, bb)
            check = verify_decomposition(w, dec, tol=1e-8)
            assert check.ok
            assert check.reconstruction_residual < 1e-8

    def test_rejects_non_diagonal(self):
        with pytest.raises(NotInputDiagonalError):
            constructive_decomposition(ocb_process(), Z2, Z2)

    def test_eigenvalue_within_positivity_floor_splits(self):
        # Min eigenvalue -5e-9 passes validate_process's floor of 1.6e-8, and
        # lambda0 = d min eig - 1 lies just below -1.
        w = near_boundary_channel()
        assert validate_process(w).overall
        dec = constructive_decomposition(w, Z2, Z2)
        assert dec.p == 1.0
        assert verify_decomposition(w, dec, tol=1e-8).ok

    def test_hermiticity_defect_within_tolerance_splits(self):
        # d W - 1 would amplify a defect of 8e-11 past the Hermiticity check;
        # ProcessMatrix keeps only the Hermitian part.
        w = hermiticity_perturbed(luders_input_dephase(random_process(7), Z2, Z2).matrix)
        assert validate_process(w).overall
        dec = constructive_decomposition(w, Z2, Z2)
        assert verify_decomposition(w, dec, tol=1e-8).ok


def near_boundary_channel(delta=2e-8):
    """(1 + delta) W - delta 1 / 4 for the dephased identity channel W."""
    w = luders_input_dephase(channel_process(), Z2, Z2).matrix
    return ProcessMatrix(w.layout, (1.0 + delta) * w.matrix - delta * np.eye(16) / 4.0)


def hermiticity_perturbed(w):
    """W with +4e-11j added at entries (0, 1) and (1, 0): a defect of 8e-11."""
    m = np.array(w.matrix)
    m[0, 1] += 4e-11j
    m[1, 0] += 4e-11j
    return ProcessMatrix(w.layout, m)


def reassembled_parts(w, ba, bb):
    """Reference split from the joint product eigenvectors psi: the shifted
    block eigenvalues m1 - s and m2 + s summed as m_bar psi psi^dag over all
    of them at once (``loop_parts`` is the per-block form, too slow for the
    larger layouts here)."""
    structure = eigenstructure(w, ba, bb)
    split, shift = structure.split, structure.m1.min(axis=1)
    side, d = w.side, w.layout.d
    d_a1, d_a2, d_b1, d_b2 = w.layout.dims
    # psi[:, n, a, m, b] = u_n (x) a (x) v_m (x) b, one (n, m) at a time with np.kron.
    psi = np.zeros((side, d_a1, d_a2, d_b1, d_b2), dtype=complex)
    for n in range(d_a1):
        for m in range(d_b1):
            factors = (ba.vector(n)[:, None], structure.a_bases[n, m], bb.vector(m)[:, None], structure.b_bases[n, m])
            psi[:, n, :, m, :] = functools.reduce(np.kron, factors).reshape(side, d_a2, d_b2)
    psi_dag = psi.reshape(side, side).conj().T
    kappa1_bar = (psi * (structure.m1 - shift[:, None, :])[..., None]).reshape(side, side) @ psi_dag
    kappa1_bar += (1.0 + split.lambda0) * np.eye(side)
    kappa2_bar = (psi * (structure.m2 + shift[:, :, None])[:, None]).reshape(side, side) @ psi_dag
    p = float(np.trace(kappa1_bar).real) / side
    return p, kappa1_bar / (p * d), kappa2_bar / ((1.0 - p) * d)


class TestSplitMatchesEigenvectorSum:
    """Moving S = sum s(n, m) P_n (x) 1 (x) P_m (x) 1 between the kappas gives
    the split that summing the shifted eigenvalues over the joint product
    eigenvectors gives."""

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2), (2, 1, 2, 1), (3, 3, 3, 3), (1, 2, 2, 2),
                 (2, 2, 1, 2), (3, 2, 2, 3)],
        ids=lambda dims: "-".join(map(str, dims)),
    )
    def test_same_split(self, dims):
        layout = SystemLayout(*dims)
        for seed in range(25):
            ba = MeasurementBasis.random(dims[0], 800 + seed)
            bb = MeasurementBasis.random(dims[2], 900 + seed)
            w = luders_input_dephase(random_process(1000 + seed, layout), ba, bb).matrix
            dec = constructive_decomposition(w, ba, bb)
            assert verify_decomposition(w, dec, tol=1e-8).ok
            p, w_ab, w_ba = reassembled_parts(w, ba, bb)
            assert abs(dec.p - p) <= 1e-14
            if dec.w_ab is not None:
                assert np.max(np.abs(dec.w_ab.matrix - w_ab)) <= 1e-12
            if dec.w_ba is not None:
                assert np.max(np.abs(dec.w_ba.matrix - w_ba)) <= 1e-12


def audited_split(w, ba, bb):
    """Reference split with s(n, m) read off the audit,
    ``eigenstructure(...).m1.min(axis=1)``, and S, x and the parts formed
    from it as ``constructive_decomposition`` forms them: S = F diag(s) F^dag
    in the input frame F = U_A1 (x) 1 (x) U_B1 (x) 1."""
    lay = w.layout
    structure = eigenstructure(w, ba, bb)
    split, shift = structure.split, structure.m1.min(axis=1)
    frame = tensor_product([ba.vectors, np.eye(lay.d_a2), bb.vectors, np.eye(lay.d_b2)])
    s_op = (frame * np.broadcast_to(shift[:, None, :, None], lay.dims).reshape(-1)) @ frame.conj().T
    x = (split.kappa1 - s_op + (1.0 + split.lambda0) * np.eye(lay.d_total)) / lay.d
    return separability._certified(w, np.stack((x, _span_project(w.matrix - x, lay.dims, "b_before_a"))), 1e-8, 1e-8)


class TestSplitFromBlockMinima:
    """The constructive split takes s(n, m) from the block minima alone; it
    equals, bit for bit, the split built from the audit's eigenvalues, and
    it does not run the audit."""

    LAYOUTS = [(2, 2, 2, 2), (3, 2, 3, 2), (2, 1, 2, 1), (1, 2, 3, 2)]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
    def test_equals_split_from_audit(self, dims, seed):
        ba, bb = MeasurementBasis.random(dims[0], [seed, 1]), MeasurementBasis.random(dims[2], [seed, 2])
        w = luders_input_dephase(random_process(seed, SystemLayout(*dims)), ba, bb).matrix
        dec, ref = constructive_decomposition(w, ba, bb), audited_split(w, ba, bb)
        assert dec.check.ok
        assert dec.p == ref.p
        for got, want in ((dec.w_ab, ref.w_ab), (dec.w_ba, ref.w_ba)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.matrix.tobytes() == want.matrix.tobytes()

    @pytest.mark.parametrize("dims", LAYOUTS, ids=lambda dims: "-".join(map(str, dims)))
    def test_builds_without_the_audit(self, dims, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenstructure ran")

        monkeypatch.setattr(separability, "eigenstructure", refuse)
        ba, bb = MeasurementBasis.random(dims[0], 41), MeasurementBasis.random(dims[2], 42)
        w = luders_input_dephase(random_process(43, SystemLayout(*dims)), ba, bb).matrix
        dec = constructive_decomposition(w, ba, bb)
        assert dec.check.ok and verify_decomposition(w, dec, tol=1e-8).ok


def loop_eigenstructure(split, ba, bb):
    """Per-block reference for ``eigenstructure``: one block, projector and vector at a time."""
    lay = split.layout
    d_a1, d_a2, d_b1, d_b2 = lay.dims
    eye_a2, eye_b2 = np.eye(d_a2), np.eye(d_b2)
    m1 = np.zeros((d_a1, d_a2, d_b1))
    m2 = np.zeros((d_a1, d_b1, d_b2))
    a_bases = np.zeros((d_a1, d_b1, d_a2, d_a2), dtype=complex)
    b_bases = np.zeros((d_a1, d_b1, d_b2, d_b2), dtype=complex)
    product = projector = eigen = 0.0
    for n in range(d_a1):
        for m in range(d_b1):
            iso = np.kron(np.kron(ba.vector(n)[:, None], eye_a2), np.kron(bb.vector(m)[:, None], eye_b2))
            block1 = iso.conj().T @ split.kappa1 @ iso
            block2 = iso.conj().T @ split.kappa2 @ iso
            a_op = partial_trace(block1, (d_a2, d_b2), keep={0}) / d_b2
            b_op = partial_trace(block2, (d_a2, d_b2), keep={1}) / d_a2
            product = max(product, np.linalg.norm(block1 - np.kron(a_op, eye_b2)),
                          np.linalg.norm(block2 - np.kron(eye_a2, b_op)))
            m1[n, :, m], a_bases[n, m] = hermitian_eig(a_op)
            m2[n, m, :], b_bases[n, m] = hermitian_eig(b_op)
            p_nm = tensor_product([ba.projector(n), eye_a2, bb.projector(m), eye_b2])
            projector = max(projector, commutator_norm(split.kappa1, p_nm),
                            commutator_norm(p_nm, split.kappa2))
    for n in range(d_a1):
        for m in range(d_b1):
            for a in range(d_a2):
                for b in range(d_b2):
                    psi = np.kron(np.kron(ba.vector(n), a_bases[n, m][:, a]),
                                  np.kron(bb.vector(m), b_bases[n, m][:, b]))
                    eigen = max(eigen,
                                np.linalg.norm(split.kappa1 @ psi - m1[n, a, m] * psi),
                                np.linalg.norm(split.kappa2 @ psi - m2[n, m, b] * psi))
    residuals = (product, commutator_norm(split.kappa1, split.kappa2), projector, eigen)
    return m1, m2, a_bases, b_bases, residuals


def loop_parts(w, ba, bb):
    """Per-block reference for the parts of ``constructive_decomposition``."""
    lay = w.layout
    split = kappa_split(w)
    m1, m2, a_bases, b_bases, _ = loop_eigenstructure(split, ba, bb)
    shift = m1.min(axis=1)
    m1_bar = m1 - shift[:, None, :]
    m2_bar = m2 + shift[:, :, None]
    kappa1_bar = (1.0 + split.lambda0) * np.eye(lay.d_total, dtype=complex)
    kappa2_bar = np.zeros((lay.d_total, lay.d_total), dtype=complex)
    for n in range(lay.d_a1):
        for m in range(lay.d_b1):
            va, vb = a_bases[n, m], b_bases[n, m]
            kappa1_bar += tensor_product([ba.projector(n), (va * m1_bar[n, :, m]) @ va.conj().T,
                                          bb.projector(m), np.eye(lay.d_b2)])
            kappa2_bar += tensor_product([ba.projector(n), np.eye(lay.d_a2),
                                          bb.projector(m), (vb * m2_bar[n, m, :]) @ vb.conj().T])
    p = float(np.trace(kappa1_bar).real) / lay.d_total
    return p, kappa1_bar / (p * lay.d), kappa2_bar / ((1.0 - p) * lay.d)


class TestBlockwiseAgainstLoopOracle:
    """The blockwise eigenstructure and split against per-block loops, to 1e-12."""

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2), (2, 2, 3, 3), (2, 1, 2, 1), (1, 1, 1, 1)],
        ids=lambda dims: "-".join(map(str, dims)),
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_eigenstructure_and_parts(self, dims, seed):
        lay = SystemLayout(*dims)
        ba = MeasurementBasis.random(dims[0], 500 + seed)
        bb = MeasurementBasis.random(dims[2], 600 + seed)
        w = luders_input_dephase(random_process(700 + seed, lay), ba, bb).matrix
        structure = eigenstructure(w, ba, bb)
        split = kappa_split(w)
        assert structure.split.lambda0 == split.lambda0
        for got, want in ((structure.split.kappa1, split.kappa1), (structure.split.kappa2, split.kappa2)):
            assert got.tobytes() == want.tobytes()
        m1, m2, _, _, residuals = loop_eigenstructure(split, ba, bb)
        assert np.max(np.abs(structure.m1 - m1)) <= 1e-12
        assert np.max(np.abs(structure.m2 - m2)) <= 1e-12
        got = (structure.product_form_residual, structure.kappa_commutator,
               structure.projector_commutator, structure.eigen_residual)
        assert np.max(np.abs(np.subtract(got, residuals))) <= 1e-12

        dec = constructive_decomposition(w, ba, bb)
        p, w_ab, w_ba = loop_parts(w, ba, bb)
        assert abs(dec.p - p) <= 1e-12
        if dims == (1, 1, 1, 1):
            # One input block and no output: the whole weight sits on the
            # identity side, p = 1.
            assert dec.p == 1.0 and dec.w_ba is None
            return
        assert np.max(np.abs(dec.w_ab.matrix - w_ab)) <= 1e-12
        assert np.max(np.abs(dec.w_ba.matrix - w_ba)) <= 1e-12


class TestVerifyDecomposition:
    def test_w0_defining_split_passes(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            w = w0_process(p)
            assert verify_decomposition(w, w0_defining_split(p)).ok

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_exact_split_passes_at_zero_tolerance(self, p):
        assert verify_decomposition(w0_process(p), w0_defining_split(p), tol=0.0).ok

    def test_tampered_weight_fails_with_expected_residual(self):
        w = w0_process(0.5)
        split = w0_defining_split(0.5)
        tampered = CausalDecomposition(0.6, split.w_ab, split.w_ba)
        check = verify_decomposition(w, tampered)
        assert not check.ok
        expected = 0.1 * np.linalg.norm(split.w_ab.matrix - split.w_ba.matrix)
        assert check.reconstruction_residual == pytest.approx(expected, rel=1e-9)

    def test_out_of_range_weight_fails(self):
        w = w0_process(0.5)
        split = w0_defining_split(0.5)
        bad = CausalDecomposition(1.4, split.w_ab, split.w_ba)
        assert not verify_decomposition(w, bad).p_ok

    @pytest.mark.parametrize("dims", [(3, 2, 3, 2), (2, 2, 2, 3)], ids=["other-side", "same-side"])
    def test_part_layout_mismatch_rejected(self, dims):
        # A part on another layout is rejected before any arithmetic: with
        # another side the weighted sum would fail inside numpy, with the
        # same side the part would be checked against W's layout.
        w = ocb_process() if dims[0] == 3 else random_process(1, SystemLayout(2, 2, 3, 2))
        other = random_process(0, SystemLayout(*dims))
        for split in (CausalDecomposition(0.5, other, w), CausalDecomposition(0.5, w, other),
                      CausalDecomposition(1.0, other, None)):
            with pytest.raises(ValueError, match=r"layout \(.*\), W has \("):
                verify_decomposition(w, split)

    def test_each_part_is_checked(self):
        # OCB = (1/4 + (2 OCB - 1/4)) / 2 sums exactly, and 1/4 is a valid A < B part,
        # but 2 OCB - 1/4 is neither positive nor in the B < A span: its report fails the split.
        w = ocb_process()
        eye = np.eye(w.layout.d_total)
        split = CausalDecomposition(0.5, ProcessMatrix(w.layout, eye / 4),
                                    ProcessMatrix(w.layout, 2 * w.matrix - eye / 4))
        check = verify_decomposition(w, split)
        assert not check.ok
        assert check.report_ab.overall and not check.report_ba.overall

    def test_no_parts_fails_without_raising(self):
        check = verify_decomposition(w0_process(0.5), CausalDecomposition(0.5, None, None))
        assert not check.ok and not check.p_ok
        assert check.report_ab is None and check.report_ba is None


def _validity(**changes):
    """A passing qubit ``ValidityReport`` with ``changes`` applied."""
    return dataclasses.replace(ValidityReport(True, 0.0, True, 4.0, True, (), True), **changes)


class TestFailedChecks:
    """Each check a split fails is named with its value and its bound."""

    @pytest.mark.parametrize("check, p, message", [
        (DecompositionReport(1e-3, True, _validity(), _validity(), False), 0.5,
         "reconstruction residual 1.000e-03 above 1e-08"),
        (DecompositionReport(0.0, False, _validity(), _validity(), False), 1.4,
         "weight p = 1.4 outside [0, 1] or on a missing part, within 1e-08"),
        (DecompositionReport(0.0, True, _validity(), _validity(is_psd=False, min_eigenvalue=-2e-3), False), 0.5,
         "w_ba psd: min eigenvalue -2.000e-03 below -1.6e-08"),
        (DecompositionReport(0.0, True, _validity(mask_ok=False, offending_terms=((("B2",), 0.01),
                                                                                  (("A2", "B2"), 0.05))),
                             None, False), 1.0,
         "w_ab mask: forbidden term A2,B2 of magnitude 5.000e-02, above 1e-08"),
    ], ids=["reconstruction", "weight", "psd", "mask"])
    def test_names_the_failed_check(self, check, p, message):
        assert _failed_checks(check, p, SystemLayout.qubit(), 1e-8) == message

    def test_names_a_failed_trace(self):
        # w0's defining split with w_ab scaled by 1 + 1e-6: its trace and the
        # reconstruction both miss by more than 1e-8.
        split = w0_defining_split(0.3)
        split = dataclasses.replace(split, w_ab=ProcessMatrix(split.w_ab.layout, split.w_ab.matrix * (1 + 1e-6)))
        check = verify_decomposition(w0_process(0.3), split, tol=1e-8)
        assert _failed_checks(check, split.p, SystemLayout.qubit(), 1e-8) == (
            "reconstruction residual 4.243e-07 above 1e-08; w_ab trace 4.000004 is 4.000e-06 from 4, above 1e-08")


class TestStoredCheck:
    """Each decider returns the ``verify_decomposition`` report that accepted its split."""

    def test_constructive_split_carries_its_check(self):
        w = luders_input_dephase(random_process(0), Z2, Z2).matrix
        dec = constructive_decomposition(w, Z2, Z2)
        assert dec.check.ok
        assert dec.check == verify_decomposition(w, dec, tol=1e-8)

    def test_constructive_check_uses_validate_floor(self):
        # Min eigenvalue -1.25e-8: below tol, inside the floor 1e-9 * 16.
        w = near_boundary_channel(5e-8)
        dec = constructive_decomposition(w, Z2, Z2)
        assert dec.check.ok
        assert dec.check.report_ab.min_eigenvalue == pytest.approx(-1.25e-8, rel=1e-6)

    def test_search_split_carries_its_check(self):
        w = w0_process(0.3)
        dec = dykstra_separability(w, tol=1e-8).decomposition
        assert dec.check.ok
        assert dec.check == verify_decomposition(w, dec, tol=1e-6, psd_tol=1e-6)

    def test_hand_built_split_has_no_check(self):
        assert w0_defining_split(0.3).check is None


class TestCheckSeparability:
    """The one decider: the constructive split where W is input-diagonal in
    the given bases, the search elsewhere, and no verdict on an invalid W."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(dims=st.sampled_from([(2, 2, 2, 2), (3, 2, 3, 2)]), seed=st.integers(0, 2**32 - 1))
    def test_takes_the_path_of_the_input(self, dims, seed):
        layout = SystemLayout(*dims)
        ba, bb = MeasurementBasis.random(dims[0], [seed, 1]), MeasurementBasis.random(dims[2], [seed, 2])
        w = random_process(seed, layout)
        dephased = luders_input_dephase(w, ba, bb).matrix

        report, ref = check_separability(dephased, ba, bb), constructive_decomposition(dephased, ba, bb)
        assert (report.path, report.status, report.iterations, report.skip_reason) == (
            "constructive", SEPARABLE, 0, None)
        assert report.decomposition.p == ref.p and report.decomposition.check == ref.check
        for got, want in ((report.decomposition.w_ab, ref.w_ab), (report.decomposition.w_ba, ref.w_ba)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.matrix.tobytes() == want.matrix.tobytes()

        report, ref = check_separability(w, ba, bb, max_iter=300), dykstra_separability(w, max_iter=300)
        assert report.path == ref.path == "dykstra"
        assert (report.status, report.iterations, report.residual) == (ref.status, ref.iterations, ref.residual)
        assert report.skip_reason.startswith("matrix is not input-diagonal in the given bases")

        term = tensor_product([np.eye(dims[0]), SIGMA_Z, np.eye(dims[2]), SIGMA_Z])
        for m in (w, dephased):
            with pytest.raises(ValueError, match="^kappa_split needs a valid process matrix"):
                check_separability(ProcessMatrix(layout, m.matrix + 0.05 * term), ba, bb)

    @pytest.mark.parametrize("max_iter", [0, 2.5, True], ids=["zero", "fraction", "true"])
    def test_cap_checked_on_the_constructive_path(self, max_iter):
        # Dephased OCB takes the constructive path, which runs no search.
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            check_separability(dephased_ocb(), Z2, Z2, max_iter=max_iter)


TOLERANCE_CALLS = {
    "validate_process": lambda tol: validate_process(ocb_process(), tol=tol),
    "verify_decomposition": lambda tol: verify_decomposition(w0_process(0.3), w0_defining_split(0.3), tol=tol),
    "constructive_decomposition": lambda tol: constructive_decomposition(dephased_ocb(), Z2, Z2, tol=tol),
    "eigenstructure": lambda tol: eigenstructure(dephased_ocb(), Z2, Z2, tol=tol),
    "dykstra_separability": lambda tol: dykstra_separability(ocb_process(), tol=tol, max_iter=1000),
    "check_separability": lambda tol: check_separability(ocb_process(), Z2, Z2, tol=tol, max_iter=1000),
    # At tol=inf these would call the Bell state PPT, an incomplete instrument complete and OCB input-diagonal.
    "ppt_check": lambda tol: ppt_check(bell_state(), tol=tol),
    "check_instrument": lambda tol: check_instrument(Instrument((measure_reprepare([1, 0], [1, 0]),)), tol=tol),
    "is_input_diagonal": lambda tol: is_input_diagonal(ocb_process(), Z2, Z2, tol=tol),
}


class TestToleranceRange:
    """A NaN, infinite or negative tolerance, a bool or a string, is a
    ValueError naming it, not a verdict: an infinite one would accept any
    split, a NaN one blame the input-diagonality, and True would pass as 1."""

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, True, "1e-8"],
                             ids=["nan", "negative", "inf", "true", "string"])
    @pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
    def test_rejected(self, call, tol):
        with pytest.raises(ValueError, match=f"^tol must be a finite number of at least 0, got {tol!r}$"):
            call(tol)

    @pytest.mark.parametrize("psd_tol", [math.nan, -1.0, math.inf, True, "1e-8"],
                             ids=["nan", "negative", "inf", "true", "string"])
    def test_psd_tol_rejected(self, psd_tol):
        message = f"^psd_tol must be a finite number of at least 0, got {psd_tol!r}$"
        with pytest.raises(ValueError, match=message):
            validate_process(ocb_process(), psd_tol=psd_tol)
        with pytest.raises(ValueError, match=message):
            verify_decomposition(w0_process(0.3), w0_defining_split(0.3), psd_tol=psd_tol)

    def test_numpy_scalars_accepted(self):
        # A numpy float or a 0-d array is a number, as it was before bools were rejected.
        for tol in (np.float64(1e-8), np.array(1e-8)):
            assert validate_process(ocb_process(), tol=tol, psd_tol=tol).overall
            assert is_input_diagonal(dephased_ocb(), Z2, Z2, tol=tol) == (True, 0.0)

    def test_zero_is_the_witness_only_search(self):
        assert dykstra_separability(ocb_process(), tol=0.0, max_iter=1000).status == NOT_SEPARABLE
        assert validate_process(identity_process(), tol=0.0, psd_tol=0.0).is_psd


class TestLibraryBuiltMatrices:
    """Dephased matrices and split parts are built exactly Hermitian, so they
    skip the constructor's checks; each is read-only and equals, bit for bit,
    what ``ProcessMatrix`` stores for the same matrix."""

    @staticmethod
    def assert_as_constructed(w):
        assert not w.matrix.flags.writeable
        assert w.matrix.tobytes() == ProcessMatrix(w.layout, w.matrix).matrix.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.integers(1, 2)),
           seed=st.integers(0, 2**16), random_bases=st.booleans())
    def test_dephased_matrices_and_split_parts(self, dims, seed, random_bases):
        layout = SystemLayout(*dims)
        ba, bb = (MeasurementBasis.random(d, [seed, k]) if random_bases else MeasurementBasis.computational(d)
                  for k, d in ((1, layout.d_a1), (2, layout.d_b1)))
        w = random_process(seed, layout)
        w_eff = luders_input_dephase(w, ba, bb).matrix
        self.assert_as_constructed(w_eff)
        self.assert_as_constructed(classical_effective(w, *(MeasurementBasis.random(d, [seed, 3 + f])
                                                            for f, d in enumerate(dims))))
        search = dykstra_separability(w_eff, tol=1e-8, max_iter=1000)
        assert search.status == SEPARABLE
        for dec in (constructive_decomposition(w_eff, ba, bb), search.decomposition):
            assert dec.check.ok
            for part in (dec.w_ab, dec.w_ba):
                if part is not None:
                    self.assert_as_constructed(part)


class TestTheoremPathCount:
    """One constructive split rotates into the input frame once, for W_eff
    and kappa1 together, diagonalizes the stack of kappa1's block operators
    with one eigensolver call, and runs no Hermiticity pass on a full-size
    matrix: its parts are built exactly Hermitian and are not re-checked."""

    def test_one_rotation_and_no_full_size_hermiticity_pass(self, monkeypatch):
        w = luders_input_dephase(random_process(0), Z2, Z2).matrix
        rotations, checked, solved = [], [], []
        real_frame, real_defect, real_eig = effective._in_frame, tensor.hermiticity_defect, separability.hermitian_eig

        def counting_frame(matrix, bases):
            rotations.append(matrix)
            return real_frame(matrix, bases)

        def counting_defect(matrix):
            checked.append(np.shape(matrix))
            return real_defect(matrix)

        def counting_eig(matrix):
            solved.append(np.shape(matrix))
            return real_eig(matrix)

        monkeypatch.setattr(effective, "_in_frame", counting_frame)
        monkeypatch.setattr(tensor, "hermiticity_defect", counting_defect)
        monkeypatch.setattr(separability, "hermitian_eig", counting_eig)
        dec = constructive_decomposition(w, Z2, Z2)
        assert dec.check.ok and dec.w_ab is not None and dec.w_ba is not None
        assert [np.shape(m) for m in rotations] == [(2,) + w.matrix.shape]
        lay = w.layout
        assert solved == [(lay.d_a1, lay.d_b1, lay.d_a2, lay.d_a2)]
        assert checked and not [shape for shape in checked if shape[-2:] == w.matrix.shape]


class TestW0Fixture:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_valid_for_all_weights(self, p):
        assert validate_process(w0_process(p)).overall

    def test_pure_ab_spectrum(self):
        evals = np.linalg.eigvalsh(w0_process(1.0).matrix)
        assert set(np.round(evals, 12)) == {0.0, 0.5}

    def test_pure_ba_min_eigenvalue_zero(self):
        evals = np.linalg.eigvalsh(w0_process(0.0).matrix)
        assert abs(evals[0]) < 1e-12

    def test_defining_terms_do_not_commute(self):
        term_ab, term_ba = w0_defining_terms()
        assert commutator_norm(term_ab, term_ba) > 0.1

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            w0_process(1.2)


class TestCommutatorNorm:
    def test_equal_arguments(self):
        assert commutator_norm(SIGMA_Z, SIGMA_Z) == 0.0

    def test_kappas_commute_for_dephased_matrices(self):
        w = luders_input_dephase(random_process(390), Z2, Z2).matrix
        split = kappa_split(w)
        assert commutator_norm(split.kappa1, split.kappa2) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(SIGMA_Z, np.eye(4))

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 2, 2)), 1.0, np.ones((2, 3))],
                             ids=["vector", "stack", "scalar", "rectangular"])
    def test_non_square_rejected(self, bad):
        # Two 3-vectors would give 0.0 and two (2, 2, 2) stacks a norm of the batched products.
        shape = re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError, match=rf"^x must be a square matrix, got shape {shape}$"):
            commutator_norm(bad, bad)
        with pytest.raises(ValueError, match=rf"^y must be a square matrix, got shape {shape}$"):
            commutator_norm(SIGMA_Z, bad)


class TestDykstraSeparability:
    def test_agrees_with_constructive_on_dephased_matrices(self):
        for seed in range(3):
            w = luders_input_dephase(random_process(400 + seed), Z2, Z2).matrix
            report = dykstra_separability(w, tol=1e-8)
            assert report.status == SEPARABLE
            assert report.residual < 1e-8
            check = verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6)
            assert check.ok

    def test_dephased_ocb_separable(self):
        report = dykstra_separability(dephased_ocb(), tol=1e-8)
        assert report.status == SEPARABLE

    def test_ocb_rejected(self):
        report = dykstra_separability(ocb_process(), tol=1e-8, max_iter=2000)
        assert report.status == NOT_SEPARABLE
        assert report.plateau_residual > 1e-3
        assert report.decomposition is None

    def test_w0_found_separable(self):
        report = dykstra_separability(w0_process(0.5), tol=1e-8)
        assert report.status == SEPARABLE
        assert 0.0 <= report.decomposition.p <= 1.0

    def test_invalid_input_rejected(self):
        bad = ProcessMatrix(
            SystemLayout.qubit(),
            (np.eye(16) + tensor_product([EYE2, SIGMA_Z, EYE2, SIGMA_Z])) / 4.0,
        )
        with pytest.raises(ValueError):
            dykstra_separability(bad)

    def test_invalid_input_message_matches_kappa_split(self):
        # Both deciders describe an invalid W by its offending terms, min eigenvalue and trace.
        w = ocb_process()
        bad = ProcessMatrix(w.layout, w.matrix + 0.05 * tensor_product([EYE2, SIGMA_Z, EYE2, SIGMA_Z]))
        messages = []
        for call in (dykstra_separability, kappa_split):
            with pytest.raises(ValueError) as err:
                call(bad)
            messages.append(str(err.value))
        assert messages[0].startswith("dykstra_separability needs a valid process matrix; offending terms A2,B2 0.05, ")
        assert messages[0].split("; ", 1)[1] == messages[1].split("; ", 1)[1]

    def test_huge_cap_allocates_per_sweep(self):
        # The residual history grows with the sweeps run, not with the cap.
        w = ocb_process()
        report = dykstra_separability(w, tol=1e-8, max_iter=10**12)
        assert report.status == NOT_SEPARABLE
        assert verify_witness(w, report.witness)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_cap_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            dykstra_separability(identity_process(), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, 1.0, True, False, "3", None],
                             ids=["fraction", "float", "true", "false", "string", "none"])
    def test_cap_must_be_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            dykstra_separability(identity_process(), max_iter=max_iter)

    def test_numpy_integer_cap_accepted(self):
        report = dykstra_separability(identity_process(), max_iter=np.int64(5))
        assert report.status == SEPARABLE

    def test_zero_tol_accepts_no_split(self):
        # White-noise OCB at q = 0.6 and w0 at p = 0.6 are separable: the equal
        # split and the identity split, whose violation is exactly 0 on w0 at
        # 0.6, verify in 1 iteration at tol = 1e-8.  At tol = 0 the search
        # looks for a witness only.
        for w in (TestNoisyFixtureThreshold._noisy(0.6), w0_process(0.6)):
            report = dykstra_separability(w, tol=0.0, max_iter=20)
            assert (report.status, report.iterations, report.decomposition) == (INCONCLUSIVE, 20, None)

    @pytest.mark.parametrize("point, iterations", [(None, 1), (0.45, 3), (0.5, 4)],
                             ids=["ocb", "dephasing-0.45", "dephasing-0.5"])
    def test_zero_tol_witness_matches(self, point, iterations):
        # The iterates do not depend on tol, so a not-separable W gets the
        # same witness after the same iterations at tol = 0 as at 1e-8.
        w = ocb_process() if point is None else TestNoisyFixtureThreshold._dephasing(point)
        reports = [dykstra_separability(w, tol=tol) for tol in (0.0, 1e-8)]
        assert [(r.status, r.iterations) for r in reports] == [(NOT_SEPARABLE, iterations)] * 2
        witness_only, search = ((r.witness.s.tobytes(), r.witness.q1.tobytes(), r.witness.q2.tobytes(),
                                 r.witness.value, r.witness.margin) for r in reports)
        assert witness_only == search

    def test_verified_split_skips_cone_step(self, monkeypatch):
        # The first split candidate does not depend on the cone step, so an
        # iteration whose split verifies never projects onto the cone.
        calls = []
        real = separability._psd_project
        monkeypatch.setattr(separability, "_psd_project", lambda m: calls.append(m) or real(m))
        report = dykstra_separability(TestNoisyFixtureThreshold._noisy(0.6), tol=1e-8)
        assert report.status == SEPARABLE and report.iterations == 1 and report.decomposition.check.ok
        assert calls == []
        report = dykstra_separability(TestNoisyFixtureThreshold._noisy(0.75), tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert len(calls) == report.iterations

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 2, 1)],
                             ids=lambda dims: "-".join(map(str, dims)))
    def test_trivial_output_layouts_separable(self, dims):
        # One-dimensional outputs leave no forbidden span terms at all.
        layout = SystemLayout(*dims)
        tol = 1e-8
        check_tol = max(100.0 * tol, 1e-6)
        for w in (identity_process(layout), random_process(410, layout)):
            report = dykstra_separability(w, tol=tol)
            assert report.status == SEPARABLE
            check = verify_decomposition(w, report.decomposition, tol=check_tol, psd_tol=check_tol)
            assert check.ok

    @pytest.mark.parametrize("p", [0.0, 1e-7, 1e-3, 1.0 - 1e-5, 1.0 - 1e-7, 1.0])
    def test_lopsided_and_one_way_mixtures_split(self, p):
        # The A < B part of a split is x / p, so a weight near 0 amplifies any
        # error of x by 1 / p; a valid input must still never raise.  p = 0
        # and p = 1 are exactly one-way.
        w = w0_process(p)
        report = dykstra_separability(w, tol=1e-8)
        assert report.status == SEPARABLE
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dims=st.tuples(*[st.integers(1, 3)] * 4), seed=st.integers(0, 2**32 - 1),
           strength=st.floats(0.01, 0.99))
    def test_agrees_with_constructive_over_layouts(self, dims, seed, strength):
        layout = SystemLayout(*dims)
        ba = MeasurementBasis.random(dims[0], (seed, 1))
        bb = MeasurementBasis.random(dims[2], (seed, 2))
        w = luders_input_dephase(random_process(seed, layout, strength=strength), ba, bb).matrix
        dec = constructive_decomposition(w, ba, bb)
        assert verify_decomposition(w, dec, tol=1e-8).ok
        report = dykstra_separability(w, tol=1e-8)
        assert report.status == SEPARABLE
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    def test_hermiticity_defect_within_tolerance_splits(self):
        # w_ba = y / q with q near 0.001 would amplify a defect of 8e-11 past
        # the Hermiticity check; ProcessMatrix keeps only the Hermitian part.
        w = hermiticity_perturbed(w0_process(0.999))
        report = dykstra_separability(w, tol=1e-8)
        assert report.status == SEPARABLE
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    def test_one_way_plane_point_splits(self):
        # (1 + T_BA) / 4 is exactly one-way, on the boundary of the cone.
        w = plane_point(0.0, 1.0)
        report = dykstra_separability(w, tol=1e-8)
        assert report.status == SEPARABLE
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok


def _trivial_part(m, dims, factors):
    """HS-mask reference for trace-and-replace: the terms of m trivial on ``factors``."""
    coeffs = hs_decompose(m, dims).coefficients
    trivial = np.ones(coeffs.shape, dtype=bool)
    for factor in factors:
        trivial[(slice(None),) * factor + (slice(1, None),)] = False
    return hs_reconstruct(HSDecomposition(dims, np.where(trivial, coeffs, 0.0)))


class TestTraceReplace:
    """The span projector, a composition of trace-and-replace maps, against
    HS-mask references; the equal split of the shared terms, the solver's
    first split candidate."""

    LAYOUTS = [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2), (2, 1, 2, 1)]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=st.tuples(*[st.integers(1, 3)] * 4), variant=st.sampled_from(["a_before_b", "b_before_a"]),
           seed=st.integers(0, 2**32 - 1))
    def test_projector_matches_project_to_valid_span(self, dims, variant, seed):
        m = random_hermitian(np.random.default_rng(seed), math.prod(dims))
        projected = _span_project(m, dims, variant)
        assert np.max(np.abs(projected - mask_projection(m, dims, variant))) <= 1e-12
        assert np.max(np.abs(_span_project(projected, dims, variant) - projected)) <= 1e-12

    @pytest.mark.parametrize("dims", LAYOUTS, ids=lambda dims: "-".join(map(str, dims)))
    def test_matches_hs_mask(self, dims):
        # On a valid W, the A < B part is the B2-trivial part and the B < A
        # part the A2-trivial one; kappa_split and the split extraction rely
        # on this.
        w = random_process(13, SystemLayout(*dims)).matrix
        assert np.max(np.abs(_span_project(w, dims, "a_before_b") - _trivial_part(w, dims, [3]))) <= 1e-12
        assert np.max(np.abs(_span_project(w, dims, "b_before_a") - _trivial_part(w, dims, [1]))) <= 1e-12

    @pytest.mark.parametrize("dims", LAYOUTS, ids=lambda dims: "-".join(map(str, dims)))
    def test_start_is_span_projection_of_half(self, dims, monkeypatch):
        # The solver's first split candidate keeps W's one-way terms on their
        # own sides and halves the shared ones: its A < B part is
        # (W + R_B2(W) - R_A2(W)) / 2.
        w = random_process(12, SystemLayout(*dims))
        stacks = []
        real = separability._violation
        monkeypatch.setattr(separability, "_violation", lambda parts: stacks.append(parts) or real(parts))
        dykstra_separability(w, tol=1e-8, max_iter=1)
        m = w.matrix
        reference = (m + _trivial_part(m, dims, [3]) - _trivial_part(m, dims, [1])) / 2.0
        assert np.max(np.abs(stacks[0][0] - reference)) <= 1e-12


class TestSpanTables:
    """The span projector against the HS-mask reference projector on fixed
    layouts, several draws each; the class and its test keep the names of
    references they once compared with."""

    @pytest.mark.parametrize("variant", ["a_before_b", "b_before_a"])
    @pytest.mark.parametrize("dims", TestTraceReplace.LAYOUTS, ids=lambda dims: "-".join(map(str, dims)))
    def test_matches_project_to_valid_span(self, dims, variant, rng):
        layout = SystemLayout(*dims)
        for _ in range(3):
            m = random_hermitian(rng, layout.d_total)
            reference = mask_projection(m, dims, variant)
            projected = _span_project(m, dims, variant)
            assert np.max(np.abs(projected - reference)) <= 1e-12
            assert np.max(np.abs(_span_project(projected, dims, variant) - projected)) <= 1e-12
            assert abs(np.linalg.norm(m - projected) - np.linalg.norm(m - reference)) <= 1e-12
            assert np.linalg.norm(_span_project(projected, dims, variant) - projected) <= 1e-12


class TestNoisyFixtureThreshold:
    """Mixing the violating fixture with noise loses separability exactly at
    visibility 1/sqrt(2); points on both sides of it, and mixtures on other
    lines, pin the solver's iteration counts and certificates."""

    @staticmethod
    def _noisy(q):
        ocb = ocb_process()
        blend = q * ocb.matrix + (1.0 - q) * identity_process().matrix
        return ProcessMatrix(ocb.layout, blend)

    def test_boundary_visibility_is_separable(self):
        report = dykstra_separability(self._noisy(1.0 / np.sqrt(2.0)), tol=1e-8)
        assert report.status == SEPARABLE
        assert verify_decomposition(
            self._noisy(1.0 / np.sqrt(2.0)), report.decomposition, tol=1e-6, psd_tol=1e-6
        ).ok

    @staticmethod
    def _dephasing(lam):
        ocb = ocb_process()
        return ProcessMatrix(ocb.layout, (1.0 - lam) * ocb.matrix + lam * dephased_ocb().matrix)

    @staticmethod
    def _mixed(t, p):
        ocb = ocb_process()
        return ProcessMatrix(ocb.layout, t * ocb.matrix + (1.0 - t) * w0_process(p).matrix)

    def test_barely_separable_needs_many_sweeps(self):
        # OCB mixed with a random process, 7e-4 below its threshold, which lies
        # in (0.68625, 0.68635): feasible, but neither the equal split of the
        # shared terms nor the identity split is, so the solver genuinely has
        # to iterate.  The violation one iteration before the stop is 2.4e-4.
        ocb = ocb_process()
        w = ProcessMatrix(ocb.layout, 0.6856 * ocb.matrix + 0.3144 * random_process(1).matrix)
        report = dykstra_separability(w, tol=1e-8)
        assert report.status == SEPARABLE
        assert report.iterations == 60
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    def test_above_threshold_is_rejected(self):
        report = dykstra_separability(self._noisy(0.75), tol=1e-8, max_iter=3000)
        assert report.status == NOT_SEPARABLE
        assert report.plateau_residual > 1e-3

    @pytest.mark.parametrize("q, iterations", [(0.7, 1), (0.7065, 1), (0.707, 1), (0.7071, 1)])
    def test_converged_sweep_counts_pinned(self, q, iterations):
        # Below 1/sqrt(2) the start, each side holding its one-way terms and
        # half of the shared ones, is already feasible: eigenvalues
        # 1/8 +- q / (4 sqrt 2).
        report = dykstra_separability(self._noisy(q), tol=1e-8, max_iter=1000)
        assert report.status == SEPARABLE
        assert report.iterations == iterations

    @pytest.mark.parametrize("family, t, iterations", [("dephasing", 0.6, 1), ("w0", 0.1, 1), ("mixed", 0.656, 1)])
    def test_iterating_sweep_counts_pinned(self, family, t, iterations):
        # Inputs whose equal split is not feasible but whose identity split,
        # checked in the first iteration, is.
        w = {"dephasing": self._dephasing, "w0": w0_process, "mixed": lambda t: self._mixed(t, 0.3)}[family](t)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == SEPARABLE
        assert report.iterations == iterations
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    def test_non_qubit_sweep_count_pinned(self):
        # OCB on qubit subspaces of qutrit inputs, mixed with a random
        # (3, 2, 3, 2) process: the equal split is not feasible (violation
        # 3.0e-5), the second iteration's candidate is.
        layout = SystemLayout(3, 2, 3, 2)
        embed = np.eye(3)[:, :2]
        lift = tensor_product([embed, EYE2, embed, EYE2])
        ocb = lift @ ocb_process().matrix @ lift.T
        w = ProcessMatrix(layout, 0.506 * ocb + 0.494 * random_process(0, layout).matrix)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == SEPARABLE
        assert report.iterations == 2
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    @staticmethod
    def _lifted(t, other):
        ocb = _lifted_ocb((3, 2, 3, 2))
        rest = (identity_process(ocb.layout) if other == "noise" else random_process(0, ocb.layout)).matrix
        return ProcessMatrix(ocb.layout, t * ocb.matrix + (1.0 - t) * rest)

    @pytest.mark.parametrize("point", [
        *[("dephasing", lam) for lam in (0.5, 0.55, 0.57, 0.58, 0.584, 0.585, 0.5855)],
        ("mixed", 0.66), ("mixed", 0.69), ("plane", 0.71),
        *[("lifted-noise", t) for t in (0.52, 0.53, 0.54, 0.55, 0.6, 0.62)],
        *[("lifted-random", t) for t in (0.51, 0.52, 0.53, 0.545)],
    ], ids=lambda point: f"{point[0]}-{point[1]}")
    def test_recorded_blind_spot_certified(self, point):
        # Blind spots recorded for the alternating-projection search this
        # solver replaced: no certificate at the cap it ran with (600 to
        # 5,000 sweeps), or one only after thousands.  Each is not separable.
        family, t = point
        w = {"dephasing": self._dephasing, "mixed": lambda t: self._mixed(t, 0.3),
             "plane": lambda b: plane_point(0.3, b), "lifted-noise": lambda t: self._lifted(t, "noise"),
             "lifted-random": lambda t: self._lifted(t, "random")}[family](t)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert verify_witness(w, report.witness)

    def test_formerly_capped_point_separates_in_one_sweep(self):
        w = self._noisy(1.0 / np.sqrt(2.0) - 3e-5)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == SEPARABLE
        assert report.iterations == 1
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    @pytest.mark.parametrize("q, iterations", [(0.7072, 1), (0.75, 1)])
    def test_witnessed_sweep_counts_pinned(self, q, iterations):
        # Above the threshold the run stops at the first verified witness,
        # read from the duals of the first iteration.
        w = self._noisy(q)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert report.iterations == iterations
        assert verify_witness(w, report.witness)

    def test_capped_plateau_pinned(self):
        # Near the dephasing threshold 2 - sqrt(2) a witness verifies at the
        # fourth iteration; the plateau is that iteration's split violation.
        w = self._dephasing(0.58)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert report.decomposition is None
        assert report.iterations == 4
        assert verify_witness(w, report.witness)
        assert report.plateau_residual == pytest.approx(7.39466094067e-2, rel=1e-6)

    def test_near_above_capped_run_is_witnessed(self):
        w = self._noisy(1.0 / np.sqrt(2.0) + 1e-7)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert verify_witness(w, report.witness)

    def test_cap_below_witness_start_is_inconclusive(self):
        # The dephasing-line point needs 4 iterations to its witness.
        report = dykstra_separability(self._dephasing(0.58), tol=1e-8, max_iter=1)
        assert report.status == INCONCLUSIVE
        assert report.witness is None and report.decomposition is None
        assert report.iterations == 1

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(q=st.floats(0.0, 1.0 / np.sqrt(2.0)))
    def test_below_threshold_separates_in_one_sweep(self, q):
        w = self._noisy(q)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == SEPARABLE
        assert report.iterations == 1
        assert report.decomposition.p == pytest.approx(0.5, abs=1e-12)
        assert verify_decomposition(w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(q=st.floats(0.71, 1.0))
    def test_above_threshold_is_witnessed(self, q):
        w = self._noisy(q)
        report = dykstra_separability(w, tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert verify_witness(w, report.witness)


class TestIdentitySplit:
    """The closed-form identity split X_AB = w_a + alpha 1, alpha = max(0,
    -min eig w_a), or its mirror image, which the search checks once in its
    first iteration: on w0 it is the defining split, and on the plane
    (1 + a T_AB + b T_BA) / 4 with |a| + |b| <= 1 the plane law's split."""

    @pytest.mark.parametrize("p", [round(0.05 * k, 2) for k in range(21)])
    def test_w0_gets_its_defining_split(self, p):
        report = dykstra_separability(w0_process(p), max_iter=1)
        assert (report.status, report.iterations) == (SEPARABLE, 1)
        split, defining = report.decomposition, w0_defining_split(p)
        assert split.check.ok
        assert split.p == pytest.approx(p, abs=1e-12)
        for part, reference, weight in ((split.w_ab, defining.w_ab, p), (split.w_ba, defining.w_ba, 1.0 - p)):
            if part is None:
                assert weight == 0.0
            else:
                assert np.max(np.abs(part.matrix - reference.matrix)) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-1.0 + 1e-3, 1.0 - 1e-3), share=st.floats(-1.0, 1.0))
    def test_plane_separates_in_one_iteration(self, a, share):
        b = share * (1.0 - 1e-3 - abs(a))
        report = dykstra_separability(plane_point(a, b), max_iter=1)
        assert (report.status, report.iterations) == (SEPARABLE, 1)
        assert report.decomposition.check.ok
        # Up to 1.4e-8 past 1/2 the equal split, p = 1/2, is accepted first; a
        # weight within tol of 0 or 1 puts all of W on one side.
        if max(abs(a), abs(b)) > 0.5 + 1e-6:
            p = report.decomposition.p
            assert p == pytest.approx(abs(a), abs=1e-8) or p == pytest.approx(1.0 - abs(b), abs=1e-8)


def _lifted_ocb(dims):
    """OCB on the qubit subspaces of the inputs of a layout with qubit outputs."""
    lift = tensor_product([np.eye(dims[0])[:, :2], EYE2, np.eye(dims[2])[:, :2], EYE2])
    return ProcessMatrix(SystemLayout(*dims), lift @ ocb_process().matrix @ lift.T)


@functools.lru_cache(maxsize=None)
def _verified_split_parts(dims):
    """(part, order) of the constructive splits of dephased random processes on ``dims``; order 0 is A < B."""
    layout = SystemLayout(*dims)
    parts = []
    for seed in range(3):
        ba, bb = MeasurementBasis.random(dims[0], seed=810 + seed), MeasurementBasis.random(dims[2], seed=820 + seed)
        w = luders_input_dephase(random_process(830 + seed, layout), ba, bb).matrix
        split = constructive_decomposition(w, ba, bb, tol=1e-8)
        assert verify_decomposition(w, split, tol=1e-8).ok
        parts += [(part.matrix, order) for order, part in enumerate((split.w_ab, split.w_ba)) if part is not None]
    return parts


def _witness_within(w, steps):
    """The first verified witness candidate within ``steps`` solver iterations, splits ignored, or None:
    at tol = 0 the search accepts no split, and its iterates do not depend on tol."""
    return dykstra_separability(w, tol=0.0, max_iter=steps).witness


class TestCausalWitness:
    @pytest.fixture(scope="class")
    def witnessed(self):
        w = ocb_process()
        witness = dykstra_separability(w, tol=1e-8, max_iter=1000).witness
        assert verify_witness(w, witness)
        assert witness.value < -witness.margin < 0.0
        return w, witness

    def test_sign_flip_rejected(self, witnessed):
        w, witness = witnessed
        flipped = dataclasses.replace(witness, s=-witness.s, value=-witness.value)
        assert not verify_witness(w, flipped)

    def test_allowed_term_in_q1_rejected(self, witnessed, rng):
        w, witness = witnessed
        allowed = project_to_valid_span(random_hermitian(rng, 16), w.layout, "a_before_b")
        assert not verify_witness(w, dataclasses.replace(witness, q1=witness.q1 + 1e-3 * allowed))

    def test_q1_inside_its_span_rejected(self):
        # w0 at p = 1 is causally separable, so no witness holds for it.  S = -(W - L_BA(W)) + 1e-3 1
        # has Tr(S W) = -0.996 and S - Q2 = 1e-3 1 with Q2 off the B < A span, but Q1 = S - 10 1
        # carries the identity, an A < B term: projecting Q1 onto its span complement exposes it.
        w = w0_process(1.0)
        eye = np.eye(w.layout.d_total)
        s = -(w.matrix - project_to_valid_span(w.matrix, w.layout, "b_before_a")) + 1e-3 * eye
        value = float(np.vdot(w.matrix, s).real)
        assert value == pytest.approx(-0.996, abs=1e-12)
        assert not verify_witness(w, CausalWitness(s, s - 10.0 * eye, s - 1e-3 * eye, value, 0.0))

    def test_value_above_minus_margin_rejected(self, witnessed):
        w, witness = witnessed
        shift = (-witness.value - witness.margin / 2.0) / np.trace(w.matrix).real
        pushed = dataclasses.replace(witness, s=witness.s + shift * np.eye(16), value=-witness.margin / 2.0)
        assert not verify_witness(w, pushed)

    def test_misstated_value_rejected(self, witnessed):
        w, witness = witnessed
        assert not verify_witness(w, dataclasses.replace(witness, value=2.0 * witness.value))

    def test_nan_value_rejected(self, witnessed):
        w, witness = witnessed
        assert not verify_witness(w, dataclasses.replace(witness, value=float("nan")))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("part", ["s", "q1", "q2"])
    def test_non_finite_part_rejected(self, witnessed, part, value):
        w, witness = witnessed
        m = getattr(witness, part).copy()
        m[0, 1] = value
        with pytest.raises(ValueError, match=f"^witness part {part} has non-finite entries$"):
            verify_witness(w, dataclasses.replace(witness, **{part: m}))

    def test_shape_mismatch_rejected(self, witnessed):
        w, witness = witnessed
        with pytest.raises(ValueError, match="witness parts"):
            verify_witness(w, dataclasses.replace(witness, q2=np.eye(4)))

    def test_nonnegative_on_separable_splits(self):
        parts = []
        for q in (0.5, 0.7, 1.0 / np.sqrt(2.0) - 1e-4):
            split = dykstra_separability(TestNoisyFixtureThreshold._noisy(q), tol=1e-8).decomposition
            parts += [split.w_ab, split.w_ba]
        split = constructive_decomposition(dephased_ocb(), Z2, Z2)
        parts += [split.w_ab, split.w_ba]
        parts = [part.matrix for part in parts if part is not None]
        assert len(parts) == 7
        for q in (1.0, 0.75, 1.0 / np.sqrt(2.0) + 1e-3):
            w = TestNoisyFixtureThreshold._noisy(q)
            report = dykstra_separability(w, tol=1e-8, max_iter=1000)
            assert verify_witness(w, report.witness)
            assert min(np.vdot(x, report.witness.s).real for x in parts) >= 0.0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dims=st.sampled_from([(2, 2, 2, 2), (3, 2, 3, 2), (2, 2, 3, 2)]),
           line=st.sampled_from(["white-noise", "dephasing"]), t=st.floats(0.0, 1.0))
    def test_witnesses_nonnegative_on_verified_splits(self, dims, line, t):
        # A part X verified at tol = 1e-8 has X >= -1e-9 side (the default
        # positivity floor) and each forbidden Hilbert-Schmidt coefficient
        # below tol on a basis element of norm sqrt(side), so
        # |X - L(X)| <= tol side^1.5 for its order's span projector L.  With
        # S - Q >= 0 and Tr Q = 0 (Q is orthogonal to the identity),
        # Tr(S X) = Tr((S - Q) X) + Tr(Q (X - L(X)))
        #         >= -1e-9 side Tr S - |Q| tol side^1.5 >= -tol side^1.5 (|S| + |Q|).
        ocb = _lifted_ocb(dims)
        if line == "white-noise":
            other = identity_process(ocb.layout).matrix
        else:
            other = luders_input_dephase(ocb, MeasurementBasis.computational(dims[0]),
                                         MeasurementBasis.computational(dims[2])).matrix.matrix
        w = ProcessMatrix(ocb.layout, (1.0 - t) * ocb.matrix + t * other)
        report = dykstra_separability(w, tol=1e-8, max_iter=300)
        if report.status != NOT_SEPARABLE:
            return
        witness = report.witness
        assert verify_witness(w, witness)
        side = ocb.layout.d_total
        for x, order in _verified_split_parts(dims):
            q = (witness.q1, witness.q2)[order]
            bound = 1e-8 * side**1.5 * (np.linalg.norm(witness.s) + np.linalg.norm(q))
            assert np.vdot(x, witness.s).real >= -bound

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2)],
                             ids=lambda dims: "-".join(map(str, dims)))
    @pytest.mark.parametrize("dephased", [False, True], ids=["random", "dephased"])
    def test_search_never_verifies_on_separable(self, dims, dephased):
        layout = SystemLayout(*dims)
        w = random_process(500, layout)
        if dephased:
            w = luders_input_dephase(w, MeasurementBasis.random(dims[0], seed=1),
                                     MeasurementBasis.random(dims[2], seed=2)).matrix
        assert _witness_within(w, 200) is None

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(line=st.sampled_from(["white-noise", "dephasing"]), t=st.floats(0.0, 1.0))
    def test_never_both_certificates(self, line, t):
        ocb = ocb_process()
        if line == "white-noise":
            w = TestNoisyFixtureThreshold._noisy(t)
        else:
            w = ProcessMatrix(ocb.layout, (1.0 - t) * ocb.matrix + t * dephased_ocb().matrix)
        report = dykstra_separability(w, tol=1e-8, max_iter=200)
        if report.status == NOT_SEPARABLE:
            assert verify_witness(w, report.witness)
        split_ok = report.status == SEPARABLE and verify_decomposition(
            w, report.decomposition, tol=1e-6, psd_tol=1e-6).ok
        witness = _witness_within(w, 100)
        assert not (split_ok and witness is not None and verify_witness(w, witness))


def _random_mixture(seed, t):
    """t OCB + (1 - t) random_process(seed) on qubits."""
    ocb = ocb_process()
    return ProcessMatrix(ocb.layout, t * ocb.matrix + (1.0 - t) * random_process(seed).matrix)


# Separability thresholds t*(s) of the qubit random mixtures, from bisection on certified verdicts:
# t*(1) lies in (0.68625, 0.68635), see test_barely_separable_needs_many_sweeps.
MIXTURE_THRESHOLDS = {1: 0.6863, 2: 0.6844}

SEARCH_POINTS = {
    "noise-0.6": lambda: TestNoisyFixtureThreshold._noisy(0.6),
    "noise-0.75": lambda: TestNoisyFixtureThreshold._noisy(0.75),
    "w0-0.3": lambda: w0_process(0.3),
    **{f"mixture-{s}{sign}": functools.partial(_random_mixture, s, t + delta)
       for s, t in MIXTURE_THRESHOLDS.items() for sign, delta in (("-", -1e-2), ("+", 1e-2))},
}


@functools.lru_cache(maxsize=None)
def _search_point(name):
    """The search point ``name`` and its report."""
    w = SEARCH_POINTS[name]()
    return w, dykstra_separability(w, tol=1e-8)


class TestSymmetryOracles:
    """Two exact symmetries of the problem.  A local unitary
    U = U_A1 (x) U_A2 (x) U_B1 (x) U_B2 maps each one-way span and the
    positive cone to itself, and the party swap, (A1, A2) exchanged with
    (B1, B2), maps the A < B span onto the B < A span.  So W and its image
    have the same verdict, and each certificate of W carries over: under U
    every part is conjugated; under the swap a split (p, w_ab, w_ba) becomes
    (1 - p, swap w_ba, swap w_ab) and a witness (S, Q1, Q2) becomes
    (swap S, swap Q2, swap Q1).  Iteration counts are not compared, as the
    search's witness candidate is not swap-symmetric."""

    @staticmethod
    def symmetry(dims, seed, swap):
        """The image layout, the map m -> image of m (U, then the swap if
        ``swap``) and the Haar factor unitaries of U, seeded by ``seed``."""
        factors = [MeasurementBasis.random(d, (seed, k)).vectors for k, d in enumerate(dims)]
        u = tensor_product(factors)

        def apply(m):
            m = u @ m @ u.conj().T
            return m.reshape(dims + dims).transpose(2, 3, 0, 1, 6, 7, 4, 5).reshape(m.shape) if swap else m

        return SystemLayout(*(dims[2:] + dims[:2] if swap else dims)), apply, factors

    @staticmethod
    def carried_split(split, layout, apply, swap):
        w_ab, w_ba = (None if part is None else ProcessMatrix(layout, apply(part.matrix))
                      for part in (split.w_ab, split.w_ba))
        return CausalDecomposition(1.0 - split.p, w_ba, w_ab) if swap else CausalDecomposition(split.p, w_ab, w_ba)

    @staticmethod
    def carried_witness(witness, apply, swap):
        s, q1, q2 = (apply(m) for m in (witness.s, witness.q1, witness.q2))
        return dataclasses.replace(witness, s=s, q1=q2 if swap else q1, q2=q1 if swap else q2)

    @pytest.mark.parametrize("swap", [False, True], ids=["local", "local-swap"])
    @pytest.mark.parametrize("point", sorted(SEARCH_POINTS))
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_search_certificates_carry_over(self, point, swap, seed):
        w, report = _search_point(point)
        layout, apply, _ = self.symmetry(w.layout.dims, seed, swap)
        image = ProcessMatrix(layout, apply(w.matrix))
        image_report = dykstra_separability(image, tol=1e-8)
        assert image_report.status == report.status != INCONCLUSIVE
        if report.status == SEPARABLE:
            carried = self.carried_split(report.decomposition, layout, apply, swap)
            assert verify_decomposition(image, carried, tol=1e-6, psd_tol=1e-6).ok
        else:
            assert verify_witness(image, self.carried_witness(report.witness, apply, swap))

    @pytest.mark.parametrize("swap", [False, True], ids=["local", "local-swap"])
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2), (3, 3, 2, 2)],
                             ids=lambda dims: "-".join(map(str, dims)))
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_constructive_certificates_carry_over(self, dims, swap, seed):
        ba, bb = MeasurementBasis.random(dims[0], (seed, 11)), MeasurementBasis.random(dims[2], (seed, 12))
        w = luders_input_dephase(random_process(seed, SystemLayout(*dims)), ba, bb).matrix
        layout, apply, factors = self.symmetry(dims, seed, swap)
        image = ProcessMatrix(layout, apply(w.matrix))
        rotated = [MeasurementBasis(factors[k] @ basis.vectors) for k, basis in ((0, ba), (2, bb))]
        report = check_separability(w, ba, bb)
        image_report = check_separability(image, *(rotated[::-1] if swap else rotated))
        assert (report.path, report.status) == (image_report.path, image_report.status) == ("constructive", SEPARABLE)
        carried = self.carried_split(report.decomposition, layout, apply, swap)
        assert verify_decomposition(image, carried, tol=1e-8).ok


def _slot_sets(both_inputs):
    """The non-empty sets of slots, as factor indices, that hold both inputs or that omit one."""
    sets = (frozenset(f for f in range(4) if bits >> f & 1) for bits in range(1, 16))
    return [s for s in sets if ({0, 2} <= s) is both_inputs]


class TestClassicalSlotLattice:
    """Dephasing the slots of a set S in fixed bases makes D_S(W) causally
    separable for every W exactly when S holds both inputs.  With both
    inputs the paper's theorem splits D_S(W).  OCB's terms are z-diagonal on
    A1, A2 and B2, and the party-swapped OCB's on A2, B1 and B2, so D_S in
    z leaves one of the two unchanged for every S that omits an input, and
    it stays not separable."""

    @staticmethod
    def dephased(w, slots, bases):
        """D_S(W): the slots in ``slots`` dephased in ``bases``, the others untouched."""
        kept = [bases[f] if f in slots else d for f, d in enumerate(w.layout.dims)]
        return ProcessMatrix(w.layout, effective._dephase(w.matrix, kept))

    @pytest.mark.parametrize("slots", _slot_sets(False), ids=lambda s: "-".join(FACTOR_NAMES[f] for f in sorted(s)))
    def test_one_quantum_input_keeps_ocb(self, slots):
        w = ocb_process()
        if 2 in slots:  # S omits A1: the swapped OCB, built as TestSymmetryOracles builds the swap
            swapped = w.matrix.reshape((2,) * 8).transpose(2, 3, 0, 1, 6, 7, 4, 5).reshape(16, 16)
            w = ProcessMatrix(w.layout, swapped)
        d = self.dephased(w, slots, [Z2] * 4)
        assert np.array_equal(d.matrix, w.matrix)
        report = check_separability(d, Z2, Z2, max_iter=1000)
        assert (report.path, report.status) == ("dykstra", NOT_SEPARABLE)
        assert verify_witness(d, report.witness)

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2)], ids=lambda dims: "-".join(map(str, dims)))
    @pytest.mark.parametrize("slots", _slot_sets(True), ids=lambda s: "-".join(FACTOR_NAMES[f] for f in sorted(s)))
    def test_both_inputs_classical_split(self, slots, dims):
        seed = sum(1 << f for f in slots)
        bases = [MeasurementBasis.random(d, seed=(seed, f)) for f, d in enumerate(dims)]
        d = self.dephased(random_process(seed, SystemLayout(*dims)), slots, bases)
        report = check_separability(d, bases[0], bases[2])
        assert (report.path, report.status) == ("constructive", SEPARABLE)
        assert report.decomposition.check.ok and verify_decomposition(d, report.decomposition).ok
