import numpy as np
import pytest

from procmat import (
    CausalDecomposition,
    HSDecomposition,
    MeasurementBasis,
    NotInputDiagonalError,
    ProcessMatrix,
    SystemLayout,
    commutator_norm,
    constructive_decomposition,
    dykstra_separability,
    eigenstructure,
    identity_process,
    kappa_split,
    hermitian_eig,
    hs_decompose,
    hs_reconstruct,
    luders_input_dephase,
    partial_trace,
    random_process,
    tensor_product,
    validate_process,
    verify_decomposition,
    w0_defining_split,
    w0_defining_terms,
    w0_process,
)
from procmat.games import ocb_process
from procmat.process import project_to_valid_span
from procmat.separability import (
    NOT_SEPARABLE,
    SEPARABLE,
    _span_distance,
    _span_project,
    _span_rows,
)

from conftest import EYE2, SIGMA_Z, random_hermitian

Z2 = MeasurementBasis.computational(2)


def dephased_ocb():
    return luders_input_dephase(ocb_process(), Z2, Z2).matrix


class TestKappaSplit:
    def test_identity_process(self):
        split = kappa_split(identity_process())
        assert split.lambda0 == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(split.kappa1)) < 1e-12
        assert np.max(np.abs(split.kappa2)) < 1e-12

    def test_dephased_ocb_closed_form(self):
        split = kappa_split(dephased_ocb(), alpha=1.0)
        assert split.lambda0 == pytest.approx(-1.0 / np.sqrt(2), abs=1e-12)
        expected_k1 = (np.eye(16) + tensor_product([EYE2, SIGMA_Z, SIGMA_Z, EYE2])) / np.sqrt(2)
        assert np.linalg.norm(split.kappa1 - expected_k1) < 1e-10
        assert np.max(np.abs(split.kappa2)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_reconstruction_identity(self, alpha):
        for seed in range(3):
            w = luders_input_dephase(random_process(300 + seed), Z2, Z2).matrix
            split = kappa_split(w, alpha=alpha)
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
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_matches_hs_mask_split(self, dims, alpha):
        """Reference: Hilbert-Schmidt terms nontrivial on B2 go to kappa2, the rest to kappa1."""
        w = random_process(11, SystemLayout(*dims))
        split = kappa_split(w, alpha=alpha)
        g = w.layout.d * w.matrix - np.eye(w.side)
        coeffs = hs_decompose(g, dims).coefficients
        b2_nontrivial = np.zeros(coeffs.shape, dtype=bool)
        b2_nontrivial[..., 1:] = True
        parts = [hs_reconstruct(HSDecomposition(dims, np.where(b2_nontrivial == side, coeffs, 0.0)))
                 for side in (False, True)]
        assert np.max(np.abs(split.kappa1 - (parts[0] - alpha * split.lambda0 * np.eye(w.side)))) <= 1e-12
        assert np.max(np.abs(split.kappa2 - (parts[1] - (1.0 - alpha) * split.lambda0 * np.eye(w.side)))) <= 1e-12
        assert split.lambda0 == pytest.approx(np.linalg.eigvalsh(g)[0], abs=1e-12)


class TestEigenstructure:
    def test_dephased_ocb_block_eigenvalues(self):
        w = dephased_ocb()
        split = kappa_split(w)
        structure = eigenstructure(split, Z2, Z2, w)
        for n in range(2):
            for m in range(2):
                assert sorted(structure.m1[n, :, m]) == pytest.approx(
                    [0.0, np.sqrt(2)], abs=1e-10
                )
        assert np.max(np.abs(structure.m2)) < 1e-10

    def test_identity_process_all_zero(self):
        w = identity_process()
        split = kappa_split(w)
        structure = eigenstructure(split, Z2, Z2, w)
        assert np.max(np.abs(structure.m1)) < 1e-12
        assert np.max(np.abs(structure.m2)) < 1e-12

    def test_random_dephased_invariants(self):
        for seed in range(4):
            ba = MeasurementBasis.random(2, 320 + seed)
            bb = MeasurementBasis.random(2, 330 + seed)
            w = luders_input_dephase(random_process(340 + seed), ba, bb).matrix
            split = kappa_split(w)
            structure = eigenstructure(split, ba, bb, w)
            assert structure.eigen_residual < 1e-8
            assert structure.kappa_commutator < 1e-8
            assert structure.projector_commutator < 1e-8
            # joint eigenvalue positivity of kappa1 + kappa2
            for n in range(2):
                for m in range(2):
                    assert structure.m1[n, :, m].min() + structure.m2[n, m, :].min() > -1e-8

    def test_requires_input_diagonal(self):
        w = ocb_process()
        split = kappa_split(w)
        with pytest.raises(NotInputDiagonalError):
            eigenstructure(split, Z2, Z2, w)


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

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_alpha_allocation_invariance(self, alpha):
        w = luders_input_dephase(random_process(350), Z2, Z2).matrix
        dec = constructive_decomposition(w, Z2, Z2, alpha=alpha)
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
        structure = eigenstructure(kappa_split(w), ba, bb, w)
        m1, m2, _, _, residuals = loop_eigenstructure(kappa_split(w), ba, bb)
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

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_cap_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            dykstra_separability(identity_process(), max_iter=max_iter)

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


class TestSpanTables:
    """The real-coordinate span table against the HS-mask reference projector."""

    @pytest.mark.parametrize("variant", ["a_before_b", "b_before_a"])
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2), (2, 1, 2, 1)],
                             ids=lambda dims: "-".join(map(str, dims)))
    def test_matches_project_to_valid_span(self, dims, variant, rng):
        layout = SystemLayout(*dims)
        table = _span_rows(dims, variant)
        for _ in range(3):
            m = random_hermitian(rng, layout.d_total)
            reference = project_to_valid_span(m, layout, variant)
            projected = _span_project(m, table)
            assert np.max(np.abs(projected - reference)) <= 1e-12
            assert np.max(np.abs(_span_project(projected, table) - projected)) <= 1e-12
            assert abs(_span_distance(m, table) - np.linalg.norm(m - reference)) <= 1e-12
            assert _span_distance(projected, table) <= 1e-12

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            _span_rows((2, 2, 2, 2), "a_before_b")[0, 0] = 1.0


class TestNoisyFixtureThreshold:
    """Mixing the violating fixture with noise loses separability exactly at
    visibility 1/sqrt(2); the boundary case forces thousands of projection
    sweeps, which exercises the correction terms properly.  Only the two
    PSD steps carry corrections; the span steps are plain projections."""

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

    def test_barely_separable_needs_many_sweeps(self):
        # 0.7071 sits a few 1e-6 below the threshold: feasible, but with so
        # little slack that the search genuinely has to iterate.
        report = dykstra_separability(self._noisy(0.7071), tol=1e-8)
        assert report.status == SEPARABLE
        assert report.iterations > 100

    def test_above_threshold_is_rejected(self):
        report = dykstra_separability(self._noisy(0.75), tol=1e-8, max_iter=3000)
        assert report.status == NOT_SEPARABLE
        assert report.plateau_residual > 1e-3

    @pytest.mark.parametrize("q, iterations", [(0.7, 7), (0.7065, 69), (0.707, 382)])
    def test_converged_sweep_counts_pinned(self, q, iterations):
        # Counts and plateaus of the sweep with corrections on all four
        # steps; dropping the span corrections must not move them.  The
        # residual one sweep before the stop is at least 6.5e-7, far above
        # tol, so the count does not hinge on rounding.
        report = dykstra_separability(self._noisy(q), tol=1e-8, max_iter=1000)
        assert report.status == SEPARABLE
        assert report.iterations == iterations

    @pytest.mark.parametrize("q, plateau", [(0.7072, 6.214769611738228e-05),
                                            (0.75, 0.02896773238725622)])
    def test_capped_plateaus_pinned(self, q, plateau):
        report = dykstra_separability(self._noisy(q), tol=1e-8, max_iter=1000)
        assert report.status == NOT_SEPARABLE
        assert report.iterations == 1000
        assert report.plateau_residual == pytest.approx(plateau, rel=1e-6)
