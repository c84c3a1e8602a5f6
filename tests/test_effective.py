import itertools

import numpy as np
import pytest

from procmat import (
    DegenerateInputError,
    EffectiveProcess,
    MeasurementBasis,
    SystemLayout,
    classical_effective,
    dephase_state,
    identity_process,
    indistinguishability_residual,
    is_input_diagonal,
    luders_input_dephase,
    ppt_check,
    probability_table,
    random_cq_instrument,
    random_process,
    selective_update,
    tensor_product,
    validate_process,
)
from procmat.games import ocb_process

from conftest import EYE2, SIGMA_Z, bell_state

Z2 = MeasurementBasis.computational(2)


ORACLE_LAYOUTS = pytest.mark.parametrize(
    "dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 2)], ids=lambda dims: "-".join(map(str, dims))
)


def ocb_dephased_expected():
    return (np.eye(16) + tensor_product([EYE2, SIGMA_Z, SIGMA_Z, EYE2]) / np.sqrt(2)) / 4.0


def projector_sum(matrix, factors):
    """Reference non-selective update: the sum of P M P over product projectors.

    ``factors`` holds a MeasurementBasis for each measured factor and the
    dimension of each untouched one.
    """
    choices = [
        [f.projector(k) for k in range(f.dim)] if isinstance(f, MeasurementBasis) else [np.eye(f)]
        for f in factors
    ]
    total = np.zeros_like(matrix, dtype=complex)
    for projectors in itertools.product(*choices):
        proj = tensor_product(projectors)
        total += proj @ matrix @ proj
    return total


class TestMeasurementBasis:
    def test_computational(self):
        assert np.array_equal(Z2.vectors, np.eye(2))
        assert np.allclose(Z2.projector(1), np.diag([0.0, 1.0]))

    def test_random_is_orthonormal_and_deterministic(self):
        b1 = MeasurementBasis.random(3, 5)
        b2 = MeasurementBasis.random(3, 5)
        assert np.array_equal(b1.vectors, b2.vectors)
        assert np.allclose(b1.vectors.conj().T @ b1.vectors, np.eye(3), atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestLudersInputDephase:
    def test_idempotent(self):
        eff = luders_input_dephase(ocb_process(), Z2, Z2)
        again = luders_input_dephase(eff.matrix, Z2, Z2)
        assert np.allclose(eff.matrix.matrix, again.matrix.matrix, atol=1e-13)

    def test_ocb_z_dephasing_closed_form(self):
        eff = luders_input_dephase(ocb_process(), Z2, Z2)
        assert np.linalg.norm(eff.matrix.matrix - ocb_dephased_expected()) < 1e-10

    def test_maximally_mixed_unchanged(self):
        w = identity_process()
        eff = luders_input_dephase(w, Z2, Z2)
        assert np.allclose(eff.matrix.matrix, w.matrix)

    @ORACLE_LAYOUTS
    def test_matches_projector_sum_oracle(self, dims):
        layout = SystemLayout(*dims)
        w = random_process(31, layout)
        ba = MeasurementBasis.random(layout.d_a1, 1)
        bb = MeasurementBasis.random(layout.d_b1, 2)
        eff = luders_input_dephase(w, ba, bb)
        total = projector_sum(w.matrix, [ba, layout.d_a2, bb, layout.d_b2])
        assert np.linalg.norm(eff.matrix.matrix - total) < 1e-12

    def test_preserves_trace_positivity_validity(self):
        for seed in range(4):
            w = random_process(40 + seed)
            ba = MeasurementBasis.random(2, 50 + seed)
            bb = MeasurementBasis.random(2, 60 + seed)
            eff = luders_input_dephase(w, ba, bb)
            report = validate_process(eff.matrix)
            assert report.overall
            assert abs(report.trace_value - 4.0) < 1e-10
            assert report.min_eigenvalue > -1e-10


class TestClassicalEffective:
    def test_diagonal_matrix_unchanged(self):
        w = identity_process()
        out = classical_effective(w, Z2, Z2, Z2, Z2)
        assert np.allclose(out.matrix, w.matrix)

    def test_ocb_all_z(self):
        out = classical_effective(ocb_process(), Z2, Z2, Z2, Z2)
        assert np.linalg.norm(out.matrix - ocb_dephased_expected()) < 1e-12

    def test_equals_diagonal_in_product_frame(self):
        w = random_process(33)
        out = classical_effective(w, Z2, Z2, Z2, Z2)
        assert np.allclose(out.matrix, np.diag(np.diag(w.matrix)))

    def test_composition_with_input_dephasing(self):
        for seed in range(3):
            w = random_process(70 + seed)
            direct = classical_effective(w, Z2, Z2, Z2, Z2)
            via_input = classical_effective(
                luders_input_dephase(w, Z2, Z2).matrix, Z2, Z2, Z2, Z2
            )
            assert np.allclose(direct.matrix, via_input.matrix, atol=1e-12)

    @ORACLE_LAYOUTS
    def test_matches_projector_sum_oracle(self, dims):
        layout = SystemLayout(*dims)
        w = random_process(32, layout)
        bases = [MeasurementBasis.random(d, 10 + f) for f, d in enumerate(dims)]
        out = classical_effective(w, *bases)
        assert np.linalg.norm(out.matrix - projector_sum(w.matrix, bases)) < 1e-12


class TestIsInputDiagonal:
    def test_dephased_output_is_diagonal(self):
        eff = luders_input_dephase(ocb_process(), Z2, Z2)
        flag, off = is_input_diagonal(eff.matrix, Z2, Z2)
        assert flag
        assert off < 1e-12

    def test_ocb_is_not_input_diagonal(self):
        flag, off = is_input_diagonal(ocb_process(), Z2, Z2)
        assert not flag
        assert off > 1e-3

    def test_identity_diagonal_in_any_basis(self):
        w = identity_process()
        for seed in range(3):
            basis = MeasurementBasis.random(2, seed)
            flag, _ = is_input_diagonal(w, basis, basis)
            assert flag


class TestSelectiveUpdate:
    def test_identity_process_block_stays_valid(self):
        w = identity_process()
        block, report = selective_update(w, 0, 0, Z2, Z2)
        assert report.overall

    def test_ocb_block_leaves_valid_span(self):
        _, report = selective_update(ocb_process(), 0, 0, Z2, Z2)
        assert not report.mask_ok
        patterns = [p for p, _ in report.offending_terms]
        assert ("A2",) in patterns

    def test_generic_process_block_leaves_valid_span(self):
        for n in range(2):
            for m in range(2):
                _, report = selective_update(random_process(17), n, m, Z2, Z2)
                assert not report.mask_ok

    def test_blocks_resolve_to_dephased_matrix(self):
        w = ocb_process()
        layout = w.layout
        total = np.zeros((16, 16), dtype=complex)
        for n in range(2):
            for m in range(2):
                proj = tensor_product([Z2.projector(n), EYE2, Z2.projector(m), EYE2])
                total += proj @ w.matrix @ proj
        eff = luders_input_dephase(w, Z2, Z2)
        assert np.allclose(total, eff.matrix.matrix, atol=1e-13)

    def test_zero_weight_block_rejected(self):
        layout = SystemLayout.qubit()
        from procmat import ProcessMatrix

        m = np.zeros((16, 16), dtype=complex)
        m[8:, 8:] = np.eye(8) / 2.0  # no support on the (0, *) input blocks
        w = ProcessMatrix(layout, m)
        with pytest.raises(DegenerateInputError):
            selective_update(w, 0, 0, Z2, Z2)


class TestIndistinguishability:
    def test_dephased_matrix_indistinguishable(self):
        for seed in range(3):
            w = random_process(80 + seed)
            eff = luders_input_dephase(w, Z2, Z2)
            assert indistinguishability_residual(w, eff, samples=40, seed=seed) < 1e-9

    def test_random_bases_also_indistinguishable(self):
        w = random_process(91)
        ba = MeasurementBasis.random(2, 7)
        bb = MeasurementBasis.random(2, 8)
        eff = luders_input_dephase(w, ba, bb)
        assert indistinguishability_residual(w, eff, samples=40, seed=5) < 1e-9

    def test_wrong_basis_is_distinguishable(self):
        w = ocb_process()
        eff = luders_input_dephase(w, Z2, Z2)
        rotated = EffectiveProcess(
            w,
            MeasurementBasis.random(2, 11),
            MeasurementBasis.random(2, 12),
            eff.matrix,
        )
        assert indistinguishability_residual(w, rotated, samples=40, seed=3) > 1e-3

    def test_already_diagonal_trivial(self):
        w = identity_process()
        eff = luders_input_dephase(w, Z2, Z2)
        assert indistinguishability_residual(w, eff, samples=20, seed=0) < 1e-12

    def test_deterministic_in_seed(self):
        w = random_process(95)
        eff = luders_input_dephase(w, Z2, Z2)
        r1 = indistinguishability_residual(w, eff, samples=10, seed=4)
        r2 = indistinguishability_residual(w, eff, samples=10, seed=4)
        assert r1 == r2

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_rejected(self, samples):
        w = random_process(95)
        eff = luders_input_dephase(w, Z2, Z2)
        with pytest.raises(ValueError, match="samples"):
            indistinguishability_residual(w, eff, samples=samples)

    @staticmethod
    def per_sample_loop(w, effective, samples, seed):
        """Reference: one public instrument pair and two probability tables per sample."""
        worst = 0.0
        for child in np.random.SeedSequence(seed).spawn(samples):
            rng = np.random.default_rng(child)
            instr_a = random_cq_instrument(effective.basis_a1, w.layout.d_a2, rng)
            instr_b = random_cq_instrument(effective.basis_b1, w.layout.d_b2, rng)
            delta = (probability_table(w, instr_a, instr_b).entries
                     - probability_table(effective.matrix, instr_a, instr_b).entries)
            worst = max(worst, float(np.abs(delta).max()))
        return worst

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 3, 2), (2, 1, 2, 1), (3, 2, 2, 3), (1, 1, 1, 1)],
        ids=lambda dims: "-".join(map(str, dims)),
    )
    def test_stacked_matches_per_sample_loop(self, dims):
        layout = SystemLayout(*dims)
        for seed in range(2):
            w = random_process(seed, layout)
            eff = luders_input_dephase(w, MeasurementBasis.random(dims[0], [seed, 1]),
                                       MeasurementBasis.random(dims[2], [seed, 2]))
            wrong = EffectiveProcess(w, MeasurementBasis.random(dims[0], [seed, 3]),
                                     MeasurementBasis.random(dims[2], [seed, 4]), eff.matrix)
            for effective in (eff, wrong):
                stacked = indistinguishability_residual(w, effective, samples=6, seed=seed)
                assert abs(stacked - self.per_sample_loop(w, effective, 6, seed)) <= 1e-14

    def test_layout_mismatch_rejected(self):
        w = random_process(96)
        other = luders_input_dephase(random_process(96, SystemLayout(2, 3, 2, 2)), Z2, Z2)
        with pytest.raises(ValueError, match="layout expects"):
            indistinguishability_residual(w, other, samples=3)


class TestStateDephasingAnalogy:
    def test_bell_state_ppt_flip(self):
        rho = bell_state()
        before_flag, before_min = ppt_check(rho)
        assert not before_flag
        assert abs(before_min + 0.5) < 1e-10
        dephased = dephase_state(rho, Z2, Z2)
        after_flag, after_min = ppt_check(dephased)
        assert after_flag
        assert after_min > -1e-10

    def test_product_state_unchanged_status(self):
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        rho_b = np.diag([0.2, 0.8]).astype(complex)
        rho = np.kron(rho_a, rho_b)
        flag_before, _ = ppt_check(rho)
        flag_after, _ = ppt_check(dephase_state(rho, Z2, Z2))
        assert flag_before and flag_after

    def test_maximally_mixed_fixed_point(self):
        rho = np.eye(4) / 4.0
        assert np.allclose(dephase_state(rho, Z2, Z2), rho)

    def test_dephased_states_always_ppt(self, rng):
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ba = MeasurementBasis.random(2, rng.integers(1 << 30))
            bb = MeasurementBasis.random(2, rng.integers(1 << 30))
            flag, _ = ppt_check(dephase_state(rho, ba, bb))
            assert flag

    def test_matches_projector_sum_oracle_2x3(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        ba = MeasurementBasis.random(2, 20)
        bb = MeasurementBasis.random(3, 21)
        assert np.linalg.norm(dephase_state(rho, ba, bb) - projector_sum(rho, [ba, bb])) < 1e-12

    def test_large_dims_unsupported(self):
        with pytest.raises(ValueError, match="2x3"):
            ppt_check(np.eye(9) / 9.0, dims=(3, 3))
