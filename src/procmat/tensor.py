"""Dense complex linear algebra on multipartite operators.

All operators are plain complex numpy arrays living on a tensor product of
finite-dimensional factors.  Factor dimensions are passed as a sequence such
as ``(2, 2, 2, 2)``; the factor order is fixed globally and never reordered
implicitly.  Alongside Kronecker products, partial trace/transpose and a
checked Hermitian eigensolver, this module provides decompositions over the
product Hilbert-Schmidt basis (identity plus traceless Hermitian elements
per factor), which downstream code uses to reason about which tensor
factors an operator acts on nontrivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10


def as_square_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, raising on bad shape."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def check_factor_dims(matrix: np.ndarray, dims: Sequence[int], name: str = "matrix") -> tuple[int, ...]:
    """Validate that ``matrix`` is square with side equal to the product of ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d <= 0 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
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


def require_hermitian(matrix, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Coerce to complex and check Hermiticity; a ``(..., n, n)`` stack is checked member by member."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {defect:.3e} > {tol:.1e}")
    return m


def tensor_product(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given matrices, in list order."""
    mats = [np.asarray(f, dtype=complex) for f in factors]
    if not mats:
        raise ValueError("tensor_product requires at least one factor")
    return reduce(np.kron, mats)


def partial_trace(matrix, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every factor not listed in ``keep``.

    The kept factors preserve their original relative order; the result is a
    square matrix of side ``prod(dims[i] for i in keep)``.  Tracing all
    factors returns a 1x1 matrix holding the trace.
    """
    m = as_square_matrix(matrix)
    dims = check_factor_dims(m, dims)
    n = len(dims)
    keep_set = set(int(i) for i in keep)
    for i in keep_set:
        if not 0 <= i < n:
            raise IndexError(f"keep index {i} out of range for {n} factors")
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
    sub = set(int(i) for i in subset)
    for i in sub:
        if not 0 <= i < n:
            raise IndexError(f"subset index {i} out of range for {n} factors")
    t = m.reshape(dims + dims)
    axes = [n + i if i in sub else i for i in range(n)] + [i if i in sub else n + i for i in range(n)]
    return t.transpose(axes).reshape(m.shape)


def frobenius_inner(a, b) -> complex:
    """Hilbert-Schmidt pairing Tr(A^dag B)."""
    am = as_square_matrix(a, "a")
    bm = as_square_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return complex(np.vdot(am, bm))


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


def _eigvalsh(matrix) -> np.ndarray:
    """Ascending eigenvalues only, behind the same check and Hermitisation as :func:`hermitian_eig`."""
    a = require_hermitian(matrix, name="matrix")
    return np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2.0)


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthogonal Hermitian basis for one factor: identity then traceless elements.

    Normalization is Tr(t_j t_k) = dim * delta_jk for every element including
    the identity.  For dim 2 this is exactly (identity, sigma_x, sigma_y,
    sigma_z); higher dimensions use rescaled generalized Gell-Mann matrices
    in the order symmetric/antisymmetric pair elements followed by the
    diagonal ladder.
    """
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")
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
        dims = tuple(int(d) for d in self.dims)
        shape = tuple(d * d for d in dims)
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != shape:
            raise ValueError(f"coefficients have shape {coeffs.shape}, expected {shape} for factors {dims}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


def _factor_transform(t: np.ndarray, dims: tuple[int, ...], tables) -> np.ndarray:
    """Apply one (d^2, d^2) table per factor to a tensor of shape (d_1^2, ..., d_n^2).

    Each step multiplies the leading factor index and rotates it to the
    back, so after n steps the factor order is restored.
    """
    for d, table in zip(dims, tables):
        t = (table @ t.reshape(d * d, -1)).T
    return t.reshape(tuple(d * d for d in dims))


def hs_decompose(matrix, dims: Sequence[int]) -> HSDecomposition:
    """Expand a Hermitian matrix over the product Hilbert-Schmidt basis.

    Coefficients are c_T = Tr(M B_T) / ||B_T||_F^2 and are real for Hermitian
    input; ``hs_reconstruct`` inverts the expansion exactly.  The trace is
    taken one factor at a time, over that factor's (row, column) index pair.
    """
    m = require_hermitian(matrix)
    dims = check_factor_dims(m, dims)
    # Pair each factor's row and column indices: (i_1, j_1, ..., i_n, j_n).
    paired = m.reshape(dims + dims).transpose([k for f in range(len(dims)) for k in (f, len(dims) + f)])
    tables = [hermitian_basis(d).transpose(0, 2, 1).reshape(d * d, d * d) for d in dims]
    coeffs = _factor_transform(paired, dims, tables)
    return HSDecomposition(dims, coeffs.real / math.prod(dims))


def hs_reconstruct(decomposition: HSDecomposition) -> np.ndarray:
    """Rebuild the Hermitian matrix from its product-basis coefficients."""
    dims = decomposition.dims
    n = len(dims)
    tables = [hermitian_basis(d).reshape(d * d, d * d).T for d in dims]
    paired = _factor_transform(decomposition.coefficients, dims, tables)
    # Unpair (i_1, j_1, ..., i_n, j_n) back into rows then columns.
    t = paired.reshape([d for d in dims for _ in range(2)])
    t = t.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    side = math.prod(dims)
    return np.ascontiguousarray(t.reshape(side, side))
