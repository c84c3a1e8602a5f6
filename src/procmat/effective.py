"""Effective process matrices under fixed-basis input measurements.

When both parties measure their inputs in fixed orthonormal bases, the
statistics they can collect only probe the input-diagonal blocks of the
process matrix.  The non-selective update

    W -> sum_{n,m} (P_n (x) 1 (x) P_m (x) 1) W (P_n (x) 1 (x) P_m (x) 1)

produces an operationally indistinguishable effective matrix, in exact
analogy with dephasing an entangled state into a separable one.  This
module implements that update, the fully classical (input and output)
variant, the selective single-block update (which generally leaves the
valid span), and numerical indistinguishability checks against sampled
fixed-basis instruments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .process import ProcessMatrix, _check_tol, validate_process
from .tensor import _check_int, _eigvalsh, _kron, partial_transpose, require_hermitian

# The two functions that sample instruments import ``instruments`` themselves,
# so that dephasing and the separability code do not load it.
if TYPE_CHECKING:
    from .instruments import Instrument

ORTHONORMALITY_TOL = 1e-10


class DegenerateInputError(ValueError):
    """Selective update conditioned on a block of zero weight."""


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis of one factor, stored as the columns of a unitary."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise ValueError(f"basis must be a non-empty square matrix of column vectors, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("basis has non-finite entries")
        gram = v.conj().T @ v
        defect = float(np.max(np.abs(gram - np.eye(v.shape[0]))))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"basis is not orthonormal: max Gram defect {defect:.3e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def vector(self, n: int) -> np.ndarray:
        return self.vectors[:, _check_int(n, "index n", 0, self.dim, IndexError)]

    def projector(self, n: int) -> np.ndarray:
        v = self.vector(n)
        return np.outer(v, v.conj())

    @classmethod
    def computational(cls, dim: int) -> "MeasurementBasis":
        return cls(np.eye(_check_int(dim, "dim", 0), dtype=complex))

    @classmethod
    def random(cls, dim: int, seed) -> "MeasurementBasis":
        """Haar-random basis, deterministic in the seed."""
        dim = _check_int(dim, "dim", 0)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        return cls(q)


def as_basis(basis, dim: int) -> MeasurementBasis:
    """Coerce an array of column vectors (or a MeasurementBasis) to the given dimension."""
    b = basis if isinstance(basis, MeasurementBasis) else MeasurementBasis(basis)
    if b.dim != dim:
        raise ValueError(f"basis has dimension {b.dim}, expected {dim}")
    return b


@dataclass(frozen=True)
class EffectiveProcess:
    """An input-dephased process matrix together with its provenance."""

    source: ProcessMatrix
    basis_a1: MeasurementBasis
    basis_b1: MeasurementBasis
    matrix: ProcessMatrix


def _in_frame(matrix: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """Product frame of ``bases`` and ``matrix`` rotated into it as a 2n-index tensor.

    ``bases`` has one entry per factor: a :class:`MeasurementBasis`, or the
    factor's dimension for a factor kept in its own frame.  A stack of
    matrices keeps its leading axes.  The one place a frame is built from basis vectors.
    """
    factors = [b.vectors if isinstance(b, MeasurementBasis) else np.eye(b) for b in bases]
    frame = _kron(factors)
    return frame, (frame.conj().T @ matrix @ frame).reshape(matrix.shape[:-2] + 2 * tuple(map(len, factors)))


def _dephase(matrix: np.ndarray, bases) -> np.ndarray:
    """Non-selective update sum_k P_k M P_k on every factor given a basis.

    In the product frame this keeps exactly the entries that are diagonal
    on each measured factor; factors given by their dimension are untouched.
    """
    frame, t = _in_frame(matrix, bases)
    n = len(bases)
    for f, b in enumerate(bases):
        if isinstance(b, MeasurementBasis):
            shape = [1] * (2 * n)
            shape[f] = shape[n + f] = b.dim
            t = t * np.eye(b.dim, dtype=bool).reshape(shape)
    out = frame @ t.reshape(frame.shape) @ frame.conj().T
    return (out + out.conj().T) / 2.0


def luders_input_dephase(w: ProcessMatrix, basis_a1, basis_b1) -> EffectiveProcess:
    """Non-selective update of both input factors onto the given bases.

    Idempotent, trace preserving and positivity preserving; a valid process
    stays valid because the update acts factor-locally on the inputs.
    """
    layout = w.layout
    ba1, bb1 = _input_bases(layout, basis_a1, basis_b1)
    dephased = _dephase(w.matrix, (ba1, layout.d_a2, bb1, layout.d_b2))
    return EffectiveProcess(w, ba1, bb1, ProcessMatrix._exact(layout, dephased))


def classical_effective(w: ProcessMatrix, basis_a1, basis_a2, basis_b1, basis_b2) -> ProcessMatrix:
    """Fully diagonal effective matrix for operations classical in all four bases.

    Keeps exactly the diagonal of W in the product of the four bases, which
    equals input dephasing followed by the same update on both outputs.
    """
    layout = w.layout
    bases = [as_basis(b, d) for b, d in zip((basis_a1, basis_a2, basis_b1, basis_b2), layout.dims)]
    return ProcessMatrix._exact(layout, _dephase(w.matrix, bases))


def is_input_diagonal(w: ProcessMatrix, basis_a1, basis_b1, tol: float = 1e-8):
    """Whether all cross-input blocks of W vanish within ``tol`` in the given bases.

    Returns ``(flag, max_off_block_norm)`` where the norm is the largest Frobenius
    norm among blocks <n, m| W |n', m'> with (n, m) != (n', m'), the deciders' rule.
    """
    return _input_frame(w, basis_a1, basis_b1, tol)[4:]


def _input_bases(layout, basis_a1, basis_b1) -> tuple[MeasurementBasis, MeasurementBasis]:
    """Both input bases, coerced and checked against the layout's input dimensions."""
    return as_basis(basis_a1, layout.d_a1), as_basis(basis_b1, layout.d_b1)


def _input_frame(w: ProcessMatrix, basis_a1, basis_b1, tol: float, *companions: np.ndarray):
    """The two input bases, their product frame F = U_A1 (x) 1 (x) U_B1 (x) 1, W and ``companions``
    rotated into F as one stack t (W is t[0]), whether W is input-diagonal within ``tol``
    (a NaN norm is not) and W's largest off-diagonal input-block norm."""
    _check_tol(tol)
    layout = w.layout
    ba1, bb1 = _input_bases(layout, basis_a1, basis_b1)
    frame, t = _in_frame(np.stack((w.matrix, *companions)), (ba1, layout.d_a2, bb1, layout.d_b2))
    max_off = float(np.sqrt(_off_block_norms2(t[0]).max()))
    return ba1, bb1, frame, t, bool(max_off <= tol), max_off


def _off_block_norms2(t: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms [..., n, m, n', m'] of an in-frame tensor's off-diagonal input blocks."""
    norms2 = np.einsum("...arbsctdu->...abcd", (t * t.conj()).real)
    d_a1, d_b1 = norms2.shape[-4:-2]
    on = np.eye(d_a1, dtype=bool)[:, None, :, None] & np.eye(d_b1, dtype=bool)[None, :, None, :]
    return np.where(on, 0.0, norms2)


def selective_update(w: ProcessMatrix, n: int, m: int, basis_a1, basis_b1):
    """Single-block conditioning P_(n,m) W P_(n,m), renormalized to a process trace.

    Unlike the non-selective update this generally leaves the valid span:
    the conditioned block picks up terms that correlate the two output
    spaces or an output with nothing on the partner input.  Returns the
    renormalized block and its validity report.
    """
    layout = w.layout
    ba1, bb1 = _input_bases(layout, basis_a1, basis_b1)
    n = _check_int(n, "index n", 0, layout.d_a1, IndexError)
    m = _check_int(m, "index m", 0, layout.d_b1, IndexError)
    frame, t = _in_frame(w.matrix, (ba1, layout.d_a2, bb1, layout.d_b2))
    # P_(n,m) W P_(n,m) = C (C^dag W C) C^dag for the frame's (n, m) columns C; t holds C^dag W C.
    cols = frame.reshape((-1,) + t.shape[:4])[:, n, :, m].reshape(len(frame), -1)
    inner = t[n, :, m, :, n, :, m].reshape(cols.shape[1], -1)
    block = cols @ inner @ cols.conj().T
    weight = float(np.trace(inner).real)
    if weight <= 1e-12:
        raise DegenerateInputError(f"block ({n}, {m}) has zero weight; cannot renormalize")
    pm = ProcessMatrix(layout, block * (layout.target_trace / weight))
    return pm, validate_process(pm)


def _cq_draws(rngs, d_in: int, output_dim: int):
    """Stacked table and unit-trace Wishart states of one two-outcome cq instrument per generator, in that order."""
    raw = np.stack([rng.uniform(0.1, 1.0, size=(2, d_in)) for rng in rngs])
    gauss = np.stack([rng.standard_normal((2, 2, output_dim, output_dim)) for rng in rngs])
    g = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    wish = g @ g.conj().swapaxes(-1, -2)
    return raw / raw.sum(axis=-2, keepdims=True), wish / np.trace(wish, axis1=-2, axis2=-1).real[..., None, None]


def random_cq_instrument(basis, output_dim: int, rng) -> Instrument:
    """Random two-outcome instrument in ``basis``, columns or a MeasurementBasis: stochastic table, Wishart states."""
    from .instruments import cq_instrument

    basis = basis if isinstance(basis, MeasurementBasis) else MeasurementBasis(basis)
    p, states = _cq_draws([rng], basis.dim, _check_int(output_dim, "output_dim", 1))
    return cq_instrument(basis.vectors, p[0], states[0])


def indistinguishability_residual(w: ProcessMatrix, effective: EffectiveProcess,
                                  samples: int = 100, seed: int = 0) -> float:
    """Largest probability deviation between W and its effective matrix.

    Samples pairs of random fixed-basis instruments in the dephasing bases
    and returns the max over samples and outcome pairs of
    |P_W - P_Weff|.  Vanishes (numerically) whenever the effective matrix
    was produced by input dephasing in the same bases.  Sample k draws
    Alice's and then Bob's instrument from child k of ``SeedSequence(seed)``,
    as ``random_cq_instrument`` would; all tables come from one contraction.
    """
    from .instruments import _cq_born_tables

    samples = _check_int(samples, "samples", 1)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(samples)]
    ba, bb = effective.basis_a1, effective.basis_b1
    tables = _cq_born_tables((w, effective.matrix), (ba.vectors, *_cq_draws(rngs, ba.dim, w.layout.d_a2)),
                             (bb.vectors, *_cq_draws(rngs, bb.dim, w.layout.d_b2)))
    return float(np.abs(tables[0] - tables[1]).max())


def dephase_state(rho, basis_a, basis_b) -> np.ndarray:
    """Non-selective product-basis measurement update of a bipartite state."""
    r = np.asarray(rho, dtype=complex)
    ba = basis_a if isinstance(basis_a, MeasurementBasis) else MeasurementBasis(basis_a)
    bb = basis_b if isinstance(basis_b, MeasurementBasis) else MeasurementBasis(basis_b)
    da, db = ba.dim, bb.dim
    if r.shape != (da * db, da * db):
        raise ValueError(f"state has shape {r.shape}, expected {(da * db, da * db)}")
    return _dephase(require_hermitian(r, name="state"), (ba, bb))


def ppt_check(rho, dims: tuple[int, int] = (2, 2), tol: float = 1e-10):
    """Positive-partial-transpose test, restricted to 2x2 and 2x3 systems.

    In those dimensions PPT decides separability, so the returned flag is a
    separability verdict.  Returns ``(flag, min_pt_eigenvalue)``.
    """
    _check_tol(tol)
    dims = tuple(_check_int(d, "dimension", 1) for d in dims)
    if sorted(dims) not in ([2, 2], [2, 3]):
        raise ValueError(f"PPT is only decisive for 2x2 and 2x3 systems, got {'x'.join(map(str, dims))}")
    # The partial transpose has the state's entries, so its check is the state's.
    min_eig = float(_eigvalsh(partial_transpose(rho, dims, {1}), name="state")[0])
    return min_eig >= -tol, min_eig
