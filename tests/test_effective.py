import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procmat import (
    DegenerateInputError,
    EffectiveProcess,
    MeasurementBasis,
    SystemLayout,
    classical_effective,
    classical_instrument,
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
from procmat.effective import _dephase
from procmat import ocb_process

from conftest import EYE2, SIGMA_Z, bell_state, random_hermitian

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

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, entry):
        # A NaN Gram defect compares false with any bound.
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementBasis(np.full((2, 2), entry))
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementBasis(np.array([[entry, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("make, shape", [
        (lambda: MeasurementBasis(np.zeros((0, 0))), (0, 0)),
        (lambda: MeasurementBasis.random(0, seed=1), (0, 0)),
        (lambda: MeasurementBasis([1, 0]), (2,)),
    ], ids=["empty", "random-empty", "vector"])
    def test_not_a_non_empty_square_matrix_rejected(self, make, shape):
        message = f"basis must be a non-empty square matrix of column vectors, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_basis_of_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="^basis has dimension 3, expected 2$"):
            luders_input_dephase(ocb_process(), MeasurementBasis.computational(3), Z2)


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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=st.tuples(*[st.integers(1, 3)] * 4), seed=st.integers(0, 2**16))
    def test_dephase_matches_projector_sum_oracle_over_layouts(self, dims, seed):
        # sum_(n,m) (P_n x 1 x P_m x 1) M (P_n x 1 x P_m x 1) over Haar bases
        # of both inputs, on any Hermitian M, not only on processes.
        m = random_hermitian(np.random.default_rng(seed), math.prod(dims))
        ba = MeasurementBasis.random(dims[0], [seed, 1])
        bb = MeasurementBasis.random(dims[2], [seed, 2])
        factors = [ba, dims[1], bb, dims[3]]
        assert np.linalg.norm(_dephase(m, factors) - projector_sum(m, factors)) < 1e-12

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

    def test_same_output_frame_as_classical_instruments(self, rng):
        # classical_instrument's output block |b_t><b_t| and classical_effective's
        # output dephasing share the frame of b, so W and its classical effective
        # matrix give the same table; the conjugate frame does not.
        worst = worst_conj = 0.0
        for i in range(20):
            w = random_process(i)
            ba, bb = MeasurementBasis.random(2, 100 + i).vectors, MeasurementBasis.random(2, 200 + i).vectors
            eff = classical_effective(w, Z2, ba, Z2, bb)
            eff_conj = classical_effective(w, Z2, ba.conj(), Z2, bb.conj())
            for _ in range(5):
                pa, pb = (raw / raw.sum(axis=(0, 1)) for raw in (rng.uniform(size=(2, 2, 2)),
                                                                  rng.uniform(size=(3, 2, 2))))
                instr_a, instr_b = classical_instrument(pa, EYE2, ba), classical_instrument(pb, EYE2, bb)
                table, same, conj = (probability_table(m, instr_a, instr_b).entries for m in (w, eff, eff_conj))
                worst = max(worst, np.abs(table - same).max())
                worst_conj = max(worst_conj, np.abs(table - conj).max())
        assert worst <= 1e-14
        assert worst_conj > 1e-3


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

    def test_zero_tolerance_is_valid(self):
        assert is_input_diagonal(luders_input_dephase(ocb_process(), Z2, Z2).matrix, Z2, Z2, tol=0.0)[0]
        assert not is_input_diagonal(ocb_process(), Z2, Z2, tol=0.0)[0]


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

    @pytest.mark.parametrize("dims", [(3, 2, 3, 2), (2, 3, 2, 2), (1, 2, 3, 2)],
                             ids=lambda dims: "-".join(map(str, dims)))
    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_in_random_bases(self, dims, seed):
        # Each block is the renormalised P W P of the basis projectors, and the
        # blocks weighted by their traces resolve to the dephased matrix.
        layout = SystemLayout(*dims)
        ba, bb = MeasurementBasis.random(dims[0], (seed, 1)), MeasurementBasis.random(dims[2], (seed, 2))
        w = random_process(300 + seed, layout)
        total = np.zeros_like(w.matrix)
        for n in range(dims[0]):
            for m in range(dims[2]):
                proj = tensor_product([ba.projector(n), np.eye(dims[1]), bb.projector(m), np.eye(dims[3])])
                expected = proj @ w.matrix @ proj
                weight = np.trace(expected).real / layout.target_trace
                block, _ = selective_update(w, n, m, ba, bb)
                assert np.max(np.abs(block.matrix - expected / weight)) <= 1e-13
                total += weight * block.matrix
        assert np.max(np.abs(total - luders_input_dephase(w, ba, bb).matrix.matrix)) <= 1e-13

    @pytest.mark.parametrize("n, m, message", [
        (2, 0, "index n must be an integer of at least 0 and below 2, got 2"),
        (0, -1, "index m must be an integer of at least 0 and below 2, got -1"),
    ], ids=["n", "m"])
    def test_block_index_out_of_range(self, n, m, message):
        with pytest.raises(IndexError, match=f"^{message}$"):
            selective_update(ocb_process(), n, m, Z2, Z2)

    @pytest.mark.parametrize("index", [0.5, 1.0, True], ids=["half", "float-one", "true"])
    @pytest.mark.parametrize("name", ["n", "m"])
    def test_block_index_not_an_integer_rejected(self, name, index):
        # 0.5 would fail inside numpy's indexing and True would select a column mask.
        n, m = (index, 0) if name == "n" else (0, index)
        message = f"index {name} must be an integer of at least 0 and below 2, got {index!r}"
        with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
            selective_update(ocb_process(), n, m, Z2, Z2)

    def test_numpy_integer_block_index_accepted(self):
        block, report = selective_update(ocb_process(), np.int64(1), np.int64(1), Z2, Z2)
        expected, _ = selective_update(ocb_process(), 1, 1, Z2, Z2)
        assert np.array_equal(block.matrix, expected.matrix) and report.trace_ok

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

    @pytest.mark.parametrize("samples", [True, 2.5, 3.0], ids=["true", "fraction", "float"])
    def test_samples_not_an_integer_rejected(self, samples):
        # True would run one sample, 2.5 fail inside numpy's SeedSequence.spawn.
        w = random_process(95)
        eff = luders_input_dephase(w, Z2, Z2)
        with pytest.raises(ValueError, match=f"^samples must be an integer of at least 1, got {samples!r}$"):
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

    def test_state_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^state has shape \(3, 3\), expected \(4, 4\)$"):
            dephase_state(np.eye(3) / 3.0, Z2, Z2)

    def test_non_hermitian_state_rejected(self):
        # dephase_state and ppt_check check their state alike.  The update's
        # final Hermitisation, and the eigensolver of the partial transpose,
        # would otherwise hide the asymmetry.
        for call in (lambda rho: dephase_state(rho, Z2, Z2), ppt_check):
            with pytest.raises(ValueError, match=r"^state is not Hermitian: "):
                call(np.arange(16).reshape(4, 4))

    def test_non_finite_state_rejected(self):
        for call in (lambda rho: dephase_state(rho, Z2, Z2), ppt_check):
            with pytest.raises(ValueError, match="^state has non-finite entries$"):
                call(np.full((4, 4), np.nan))

    def test_ppt_zero_tolerance_is_valid(self):
        assert ppt_check(np.eye(4) / 4.0, tol=0.0) == (True, 0.25)
        assert not ppt_check(bell_state(), tol=0.0)[0]

    def test_large_dims_unsupported(self):
        with pytest.raises(ValueError, match="2x3"):
            ppt_check(np.eye(9) / 9.0, dims=(3, 3))
