import numpy as np
import pytest

from procmat import HSDecomposition, Instrument, cj_from_kraus, hs_decompose, hs_reconstruct
from procmat.process import _allowed_coefficient_mask

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def mask_projection(m, dims, variant):
    """HS-mask reference projector: the terms of m on patterns that ``variant`` allows."""
    coeffs = hs_decompose(m, dims).coefficients
    return hs_reconstruct(HSDecomposition(dims, np.where(_allowed_coefficient_mask(dims, variant), coeffs, 0.0)))


def random_cptp_instrument(rng, d_in, d_out, n_outcomes):
    """Random trace-preserving instrument, one Kraus operator per outcome."""
    ops = [rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
           for _ in range(n_outcomes)]
    total = sum(op.conj().T @ op for op in ops)
    evals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return Instrument(tuple(cj_from_kraus([op @ inv_sqrt], d_in, d_out) for op in ops))


def bell_state():
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
