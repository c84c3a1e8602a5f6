"""Dense complex linear algebra on multipartite operators.

All operators are plain complex numpy arrays living on a tensor product of
finite-dimensional factors.  Factor dimensions are passed as a sequence such
as ``(2, 2, 2, 2)``; the factor order is fixed globally and never reordered
implicitly.  Alongside Kronecker products, partial trace/transpose and a
checked Hermitian eigensolver, this module provides decompositions over the
product Hilbert-Schmidt basis (identity plus traceless Hermitian elements
per factor), which downstream code uses to reason about which tensor
factors an operator acts on nontrivially.  ``hs_decompose``,
``hs_reconstruct`` and the stacked validity check in ``process`` share one
expansion plan per layout, ``_hs_plan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def as_square_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, raising on bad shape."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _check_int(value, name: str, low: int, high: int | None = None, error: type = ValueError) -> int:
    """``value`` as an int; raises ``error`` for a bool, a non-integer or a value outside [low, high)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low
            or (high is not None and value >= high)):
        bound = f"at least {low}" + ("" if high is None else f" and below {high}")
        raise error(f"{name} must be an integer of {bound}, got {value!r}")
    return int(value)


def _check_real(values, name: str) -> np.ndarray:
    """``values`` as a new float array; raises ``ValueError`` naming ``name`` for a nonzero imaginary part."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and values.imag.any():
        raise ValueError(f"{name} must be real, got a nonzero imaginary part")
    return np.array(values.real, dtype=float)


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """``dims`` as a tuple of one or more factor dimensions, each an integer of at least 1."""
    dims = tuple(_check_int(d, "factor dimension", 1) for d in dims)
    if not dims:
        raise ValueError("at least one factor dimension is required")
    return dims


def check_factor_dims(matrix: np.ndarray, dims: Sequence[int], name: str = "matrix") -> tuple[int, ...]:
    """Validate that ``matrix`` is square with side equal to the product of ``dims``."""
    dims = _check_dims(dims)
    side = math.prod(dims)
    if matrix.shape != (side, side):
        raise ValueError(
            f"{name} has shape {matrix.shape}, expected {(side, side)} for factor dimensions {dims}"
        )
    return dims


def hermiticity_defect(matrix) -> float:
    """Max-entry distance from ``matrix`` (or any member of a stack) to its conjugate transpose."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to complex and check finiteness and Hermiticity; a ``(..., n, n)`` stack is checked member by member."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {defect:.3e} > {HERMITICITY_TOL:.1e}")
    return m


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of 2-d arrays in list order, [[1.0]] for none: a left fold of
    broadcast outer products, the same products as numpy's kron without its overhead."""
    return reduce(lambda x, y: (x[:, None, :, None] * y[None, :, None, :]).reshape(
        x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]), factors) if factors else np.ones((1, 1))


def tensor_product(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given matrices, in list order."""
    mats = [np.asarray(f, dtype=complex) for f in factors]
    if not mats:
        raise ValueError("tensor_product requires at least one factor")
    for k, m in enumerate(mats):
        if m.ndim != 2:
            raise ValueError(f"factor {k} must be a 2-D matrix, got shape {m.shape}")
    return _kron(mats)


def partial_trace(matrix, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every factor not listed in ``keep``.

    The kept factors preserve their original relative order; the result is a
    square matrix of side ``prod(dims[i] for i in keep)``.  Tracing all
    factors returns a 1x1 matrix holding the trace.
    """
    m = as_square_matrix(matrix)
    dims = check_factor_dims(m, dims)
    n = len(dims)
    keep_set = {_check_int(i, "keep index", 0, n, IndexError) for i in keep}
    kept = sorted(keep_set)

    t = m.reshape(dims + dims)
    row = list(range(n))
    col = [i if i not in keep_set else n + i for i in range(n)]
    out = kept + [n + i for i in kept]
    reduced = np.einsum(t, row + col, out)
    side = math.prod(dims[i] for i in kept) if kept else 1
    return reduced.reshape(side, side)


def partial_transpose(matrix, dims: Sequence[int], subset: Iterable[int]) -> np.ndarray:
    """Transpose the factors in ``subset`` only.  Involutive."""
    m = as_square_matrix(matrix)
    dims = check_factor_dims(m, dims)
    n = len(dims)
    sub = {_check_int(i, "subset index", 0, n, IndexError) for i in subset}
    t = m.reshape(dims + dims)
    axes = [n + i if i in sub else i for i in range(n)] + [i if i in sub else n + i for i in range(n)]
    return t.transpose(axes).reshape(m.shape)


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and
    ascending and eigenvectors as the corresponding orthonormal columns.
    The input must be Hermitian to ``HERMITICITY_TOL``; it is Hermitised
    before the solve so only its exact Hermitian part is diagonalised.  A
    ``(..., n, n)`` stack is checked member by member and solved in one
    call, with results stacked the same way.
    """
    a = require_hermitian(matrix, name="matrix")
    return np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0)


def _eigvalsh(matrix, name: str = "matrix") -> np.ndarray:
    """Ascending eigenvalues only, behind the same check and Hermitisation as :func:`hermitian_eig`."""
    a = require_hermitian(matrix, name=name)
    return np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2.0)


@lru_cache(maxsize=None, typed=True)  # typed: True or 2.0 must not hit a numpy integer's entry
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthogonal Hermitian basis for one factor: identity then traceless elements.

    Normalization is Tr(t_j t_k) = dim * delta_jk for every element including
    the identity.  For dim 2 this is exactly (identity, sigma_x, sigma_y,
    sigma_z); higher dimensions use rescaled generalized Gell-Mann matrices
    in the order symmetric/antisymmetric pair elements followed by the
    diagonal ladder.
    """
    dim = _check_int(dim, "dimension", 1)
    scale = math.sqrt(dim / 2.0)
    elems = [np.eye(dim, dtype=complex)]
    for k in range(1, dim):
        for j in range(k):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            elems.append(scale * sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            elems.append(scale * anti)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -float(level)
        elems.append(scale * math.sqrt(2.0 / (level * (level + 1))) * diag)
    basis = np.stack(elems, axis=0)
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class HSDecomposition:
    """Real coefficients of a Hermitian operator over the product basis.

    ``coefficients[t1, ..., tn]`` multiplies the product of per-factor basis
    elements with those indices; index 0 is the identity on each factor, so
    the all-zero entry equals Tr(M) / total dimension.
    """

    dims: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        shape = tuple(d * d for d in dims)
        coeffs = _check_real(self.coefficients, "coefficients")
        if coeffs.shape != shape:
            raise ValueError(f"coefficients have shape {coeffs.shape}, expected {shape} for factors {dims}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coefficients", coeffs)


@lru_cache(maxsize=None)
def _hs_plan(dims: tuple[int, ...]):
    """Pairing order and tables of the product-basis expansion, cached per ``dims``.

    The factors split into a first half A and a second half B, either of
    which may be empty.  With inv_F[(i, j), t] = b_t[i, j] for the basis
    elements b_t of factor F, R_A = kron(inv_F for F in A), and likewise over
    B, so that paired(M) = R_A C R_B^T.  Every b_t is exactly Hermitian, so
    C = T_A paired(M) T_B^T with T_A = R_A^dag / prod(dims) and
    T_B^T = conj(R_B).  Returns ``(pairs, T_A, T_B^T, R_A, R_B^T)``; axis 0
    of ``pairs`` runs over the members of a stack.
    """
    n, half = len(dims), len(dims) // 2
    pairs = (0,) + tuple(1 + k for f in range(n) for k in (f, n + f))
    inv = [hermitian_basis(d).reshape(d * d, d * d).T for d in dims]
    r_a, r_b = _kron(inv[:half]), _kron(inv[half:])
    return pairs, r_a.conj().T / math.prod(dims), r_b.conj(), r_a, r_b.T


def _hs_coefficients(m: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Flat HS coefficients of each member of a stack, C = T_A paired(M) T_B^T."""
    pairs, t_a, t_b, _, _ = _hs_plan(dims)
    paired = m.reshape((-1,) + dims * 2).transpose(pairs).reshape(len(m), len(t_a), len(t_b))
    return (t_a @ paired @ t_b).real.reshape(len(m), len(t_a) * len(t_b))


def hs_decompose(matrix, dims: Sequence[int]) -> HSDecomposition:
    """Expand a Hermitian matrix over the product Hilbert-Schmidt basis.

    Coefficients are c_T = Tr(M B_T) / ||B_T||_F^2 and are real for Hermitian
    input; ``hs_reconstruct`` inverts the expansion exactly.  One transpose
    pairs each factor's row and column index, and two products with the
    tables of :func:`_hs_plan` take the traces.
    """
    m = require_hermitian(matrix)
    dims = check_factor_dims(m, dims)
    return HSDecomposition(dims, _hs_coefficients(m[None], dims).reshape(tuple(d * d for d in dims)))


def hs_reconstruct(decomposition: HSDecomposition) -> np.ndarray:
    """Rebuild the Hermitian matrix from its product-basis coefficients, paired(M) = R_A C R_B^T."""
    dims = decomposition.dims
    pairs, _, _, r_a, r_b = _hs_plan(dims)
    paired = r_a @ decomposition.coefficients.reshape(r_a.shape[1], r_b.shape[0]) @ r_b
    # Undo the plan's pairing: the inverse permutation of ``pairs``.
    t = paired.reshape([((1,) + dims * 2)[axis] for axis in pairs]).transpose(np.argsort(pairs))
    return np.ascontiguousarray(t.reshape(2 * (math.prod(dims),)))
