import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmat import (
    hermitian_basis,
    hermitian_eig,
    hs_decompose,
    hs_reconstruct,
    partial_trace,
    partial_transpose,
    tensor_product,
    w0_process,
)
from procmat.tensor import HSDecomposition, _eigvalsh, _kron

from conftest import EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell_state, random_hermitian


class TestTensorProduct:
    def test_identity_factors(self):
        assert np.array_equal(tensor_product([EYE2, EYE2]), np.eye(4))

    def test_zz(self):
        assert np.allclose(tensor_product([SIGMA_Z, SIGMA_Z]), np.diag([1, -1, -1, 1]))

    def test_triple_against_index_oracle(self):
        factors = [SIGMA_Z, SIGMA_X, SIGMA_Z]
        got = tensor_product(factors)
        dims = [2, 2, 2]
        expected = np.zeros((8, 8), dtype=complex)
        for i0 in range(2):
            for i1 in range(2):
                for i2 in range(2):
                    for j0 in range(2):
                        for j1 in range(2):
                            for j2 in range(2):
                                row = (i0 * dims[1] + i1) * dims[2] + i2
                                col = (j0 * dims[1] + j1) * dims[2] + j2
                                expected[row, col] = (
                                    factors[0][i0, j0] * factors[1][i1, j1] * factors[2][i2, j2]
                                )
        assert np.allclose(got, expected)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
        left = tensor_product([tensor_product([a, b]), c])
        right = tensor_product([a, tensor_product([b, c])])
        assert np.allclose(left, right)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_product([])

    @pytest.mark.parametrize("factors, position, shape", [([np.ones(2), np.ones(2)], 0, (2,)),
                                                          ([EYE2, np.ones((2, 2, 2))], 1, (2, 2, 2))],
                             ids=["vectors", "3-d"])
    def test_factor_not_2d_rejected(self, factors, position, shape):
        # A vector factor used to end in numpy's "too many indices for array".
        with pytest.raises(ValueError, match=re.escape(f"factor {position} must be a 2-D matrix, got shape {shape}")):
            tensor_product(factors)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kinds=st.lists(st.tuples(st.integers(1, 3), st.sampled_from(["identity", "real", "complex"])),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_kron_helper_matches_numpy_bit_for_bit(self, kinds, seed):
        # The frames, HS tables and CJ products mix float identities with complex factors.
        rng = np.random.default_rng(seed)
        factors = [np.eye(d) if kind == "identity" else rng.standard_normal((d, d)) if kind == "real"
                   else rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d, kind in kinds]
        expected = functools.reduce(np.kron, factors)
        got = _kron(factors)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_kron_helper_of_no_factors_is_one(self):
        assert np.array_equal(_kron([]), np.ones((1, 1)))


class TestPartialTrace:
    def test_identity_factors(self):
        out = partial_trace(np.eye(4), (2, 2), keep={0})
        assert np.allclose(out, 2 * EYE2)

    def test_traceless_factor(self):
        out = partial_trace(tensor_product([SIGMA_Z, SIGMA_Z]), (2, 2), keep={0})
        assert np.allclose(out, 0)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(2)
        dims = (2, 2, 2)
        m = random_hermitian(rng, 8)
        got = partial_trace(m, dims, keep={1})
        t = m.reshape(dims + dims)
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i, j] = sum(t[a, i, c, a, j, c] for a in range(2) for c in range(2))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_product_reduces_to_factor(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        out = partial_trace(tensor_product([a, b]), (2, 3), keep={0})
        assert np.allclose(out, np.trace(b) * a)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4), (2, 2), keep={2})


class TestPartialTranspose:
    def test_empty_subset_is_identity(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 4)
        assert np.array_equal(partial_transpose(m, (2, 2), set()), m)

    def test_full_subset_is_transpose(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 4)
        assert np.allclose(partial_transpose(m, (2, 2), {0, 1}), m.T)

    def test_bell_projector_min_eigenvalue(self):
        pt = partial_transpose(bell_state(), (2, 2), {1})
        evals, _ = hermitian_eig(pt)
        assert abs(evals[0] + 0.5) < 1e-12

    def test_involution_preserves_trace_and_norm(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 8)
        pt = partial_transpose(m, (2, 2, 2), {1})
        assert np.allclose(partial_transpose(pt, (2, 2, 2), {1}), m)
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12
        assert abs(np.linalg.norm(pt) - np.linalg.norm(m)) < 1e-12


class TestHermitianEig:
    def test_sigma_x(self):
        evals, _ = hermitian_eig(SIGMA_X)
        assert np.allclose(evals, [-1.0, 1.0])

    def test_zz(self):
        evals, _ = hermitian_eig(tensor_product([SIGMA_Z, SIGMA_Z]))
        assert np.allclose(evals, [-1.0, -1.0, 1.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 16)
        evals, vecs = hermitian_eig(m)
        assert np.linalg.norm((vecs * evals) @ vecs.conj().T - m) < 1e-10
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(16)) < 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 12)
        evals, _ = hermitian_eig(m)
        assert abs(evals.sum() - np.trace(m).real) < 1e-10

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(9)
        m = random_hermitian(rng, 8)
        _, u = hermitian_eig(random_hermitian(rng, 8))
        evals_orig, _ = hermitian_eig(m)
        evals_conj, _ = hermitian_eig(u @ m @ u.conj().T)
        assert np.max(np.abs(evals_orig - evals_conj)) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_member_calls(self):
        rng = np.random.default_rng(12)
        stack = np.stack([[random_hermitian(rng, 3) for _ in range(4)] for _ in range(2)])
        evals, vecs = hermitian_eig(stack)
        assert evals.shape == (2, 4, 3) and vecs.shape == (2, 4, 3, 3)
        for k in range(2):
            for j in range(4):
                member_evals, member_vecs = hermitian_eig(stack[k, j])
                assert np.max(np.abs(evals[k, j] - member_evals)) <= 1e-14
                assert np.max(np.abs(vecs[k, j] - member_vecs)) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 6), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_member_calls(self, k, n, seed):
        # One solve over a (k, n, n) stack gives exactly the per-member results.
        rng = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(rng, n) for _ in range(k)])
        evals, vecs = hermitian_eig(stack)
        only_evals = _eigvalsh(stack)
        for j in range(k):
            member_evals, member_vecs = hermitian_eig(stack[j])
            assert np.array_equal(evals[j], member_evals)
            assert np.array_equal(vecs[j], member_vecs)
            assert np.array_equal(only_evals[j], _eigvalsh(stack[j]))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_stack_with_one_non_finite_member_rejected(self, value):
        rng = np.random.default_rng(14)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(3)])
        stack[2, 1, 1] = value
        for solver in (hermitian_eig, _eigvalsh):
            with pytest.raises(ValueError, match="non-finite"):
                solver(stack)

    def test_stack_with_one_non_hermitian_member_rejected(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(3)])
        stack[1, 0, 2] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(stack)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.zeros(shape))


class TestHermitianBasis:
    def test_qubit_basis_is_pauli(self):
        basis = hermitian_basis(2)
        assert np.array_equal(basis[0], EYE2)
        assert np.array_equal(basis[1], SIGMA_X)
        assert np.array_equal(basis[2], SIGMA_Y)
        assert np.array_equal(basis[3], SIGMA_Z)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthogonality_normalization(self, dim):
        basis = hermitian_basis(dim)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.allclose(gram, dim * np.eye(dim * dim), atol=1e-12)
        for elem in basis[1:]:
            assert abs(np.trace(elem)) < 1e-12
            assert np.allclose(elem, elem.conj().T)


class TestHSDecomposition:
    def test_scaled_identity(self):
        dec = hs_decompose(np.eye(16) / 4.0, (2, 2, 2, 2))
        expected = np.zeros((4, 4, 4, 4))
        expected[0, 0, 0, 0] = 0.25
        assert np.allclose(dec.coefficients, expected)

    def test_two_term_matrix(self):
        m = (np.eye(16) + tensor_product([SIGMA_Z, SIGMA_Z, EYE2, EYE2])) / 4.0
        dec = hs_decompose(m, (2, 2, 2, 2))
        assert abs(dec.coefficients[0, 0, 0, 0] - 0.25) < 1e-12
        assert abs(dec.coefficients[3, 3, 0, 0] - 0.25) < 1e-12
        rest = dec.coefficients.copy()
        rest[0, 0, 0, 0] = rest[3, 3, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_w0_has_exactly_four_terms(self):
        w = w0_process(0.5)
        dec = hs_decompose(w.matrix, (2, 2, 2, 2))
        nonzero = {tuple(idx) for idx in np.argwhere(np.abs(dec.coefficients) > 1e-12)}
        assert nonzero == {(0, 0, 0, 0), (3, 3, 1, 0), (3, 0, 0, 1), (1, 0, 1, 3)}
        assert abs(dec.coefficients[0, 0, 0, 0] - 0.25) < 1e-12
        assert abs(dec.coefficients[3, 3, 1, 0] + 0.125) < 1e-12
        assert abs(dec.coefficients[3, 0, 0, 1] - 0.0625) < 1e-12
        assert abs(dec.coefficients[1, 0, 1, 3] - 0.0625) < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for dims in [(2, 2, 2, 2), (3, 2, 3, 2)]:
            m = random_hermitian(rng, int(np.prod(dims)))
            dec = hs_decompose(m, dims)
            assert np.linalg.norm(hs_reconstruct(dec) - m) < 1e-10

    def test_identity_coefficient_is_normalized_trace(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 16)
        dec = hs_decompose(m, (2, 2, 2, 2))
        assert abs(dec.coefficients[0, 0, 0, 0] - np.trace(m).real / 16.0) < 1e-12

    def test_reconstruct_empty_and_identity(self):
        zero = HSDecomposition((2, 2), np.zeros((4, 4)))
        assert np.allclose(hs_reconstruct(zero), 0)
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 1.0
        assert np.allclose(hs_reconstruct(HSDecomposition((2, 2), coeffs)), np.eye(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_decompose(np.eye(8), (2, 2, 2, 2))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple), seed=st.integers(0, 2**16))
    def test_round_trip_any_factor_count(self, dims, seed):
        # The expansion splits the factors into two halves; odd counts and
        # factors of dimension 1 leave one half small or empty.
        m = random_hermitian(np.random.default_rng(seed), int(np.prod(dims)))
        assert np.max(np.abs(hs_reconstruct(hs_decompose(m, dims)) - m)) <= 1e-12

    @pytest.mark.parametrize("dims", [(3, 2, 3, 2), (2, 3, 2, 2), (3, 2), (2, 1, 1, 3), (3,), (2, 3, 2)],
                             ids=lambda dims: "-".join(map(str, dims)))
    def test_coefficients_match_trace_oracle(self, dims):
        # c_T = Tr(M B_T) / ||B_T||^2 term by term; a swapped row/column or
        # factor index that decompose and reconstruct share would pass the
        # round trip but not this.
        m = random_hermitian(np.random.default_rng(14), int(np.prod(dims)))
        coeffs = hs_decompose(m, dims).coefficients
        for index in np.ndindex(coeffs.shape):
            b_t = tensor_product([hermitian_basis(d)[t] for d, t in zip(dims, index)])
            expected = np.trace(m @ b_t).real / np.vdot(b_t, b_t).real
            assert abs(coeffs[index] - expected) <= 1e-12


    @pytest.mark.parametrize("dims", [(1,), (3,), (2, 3, 2), (2, 1, 1, 3), (3, 2, 3, 2)],
                             ids=lambda dims: "-".join(map(str, dims)))
    def test_reconstruction_matches_term_sum_oracle(self, dims):
        # M = sum_T c_T (x)_f b_(t_f) term by term: a pairing error that the
        # expansion and the reconstruction shared would pass the round trip.
        coeffs = np.random.default_rng(15).standard_normal(tuple(d * d for d in dims))
        expected = sum(coeffs[index] * tensor_product([hermitian_basis(d)[t] for d, t in zip(dims, index)])
                       for index in np.ndindex(coeffs.shape))
        assert np.max(np.abs(hs_reconstruct(HSDecomposition(dims, coeffs)) - expected)) <= 1e-12


MALFORMED = {
    "trace-not-square": (lambda: partial_trace(np.ones((2, 3)), (2,), [0]), ValueError,
                         "matrix must be a square matrix, got shape (2, 3)"),
    "trace-zero-factor": (lambda: partial_trace(np.ones((1, 1)), (0, 1), [1]), ValueError,
                          "factor dimension must be an integer of at least 1, got 0"),
    "transpose-index": (lambda: partial_transpose(np.eye(4), (2, 2), {2}), IndexError,
                        "subset index must be an integer of at least 0 and below 2, got 2"),
    "basis-zero": (lambda: hermitian_basis(0), ValueError, "dimension must be an integer of at least 1, got 0"),
    "coefficient-shape": (lambda: HSDecomposition((2,), np.zeros(3)), ValueError,
                          "coefficients have shape (3,), expected (4,) for factors (2,)"),
    # No factors at all: one rule for the functions that take a matrix and for the expansion.
    "trace-no-factors": (lambda: partial_trace(np.eye(1), (), []), ValueError,
                         "at least one factor dimension is required"),
    "decompose-no-factors": (lambda: hs_decompose(np.eye(1), ()), ValueError,
                             "at least one factor dimension is required"),
    "decomposition-no-factors": (lambda: HSDecomposition((), np.zeros(())), ValueError,
                                 "at least one factor dimension is required"),
}


@pytest.mark.parametrize("call, error, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
