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
from functools import reduce

import numpy as np

from .instruments import Instrument, _cq_born_tables, cq_instrument
from .process import ProcessMatrix, validate_process
from .tensor import _eigvalsh, partial_transpose

ORTHONORMALITY_TOL = 1e-10


class DegenerateInputError(ValueError):
    """Selective update conditioned on a block of zero weight."""


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis of one factor, stored as the columns of a unitary."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"basis must be a square matrix of column vectors, got shape {v.shape}")
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
        return self.vectors[:, n]

    def projector(self, n: int) -> np.ndarray:
        v = self.vectors[:, n]
        return np.outer(v, v.conj())

    @classmethod
    def computational(cls, dim: int) -> "MeasurementBasis":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def random(cls, dim: int, seed) -> "MeasurementBasis":
        """Haar-random basis, deterministic in the seed."""
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
    matrices keeps its leading axes.
    """
    measured = [isinstance(b, MeasurementBasis) for b in bases]
    dims = tuple(b.dim if m else int(b) for b, m in zip(bases, measured))
    frame = reduce(np.kron, [b.vectors if m else np.eye(b) for b, m in zip(bases, measured)])
    return frame, (frame.conj().T @ matrix @ frame).reshape(matrix.shape[:-2] + dims + dims)


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
    side = frame.shape[0]
    out = frame @ t.reshape(side, side) @ frame.conj().T
    return (out + out.conj().T) / 2.0


def luders_input_dephase(w: ProcessMatrix, basis_a1, basis_b1) -> EffectiveProcess:
    """Non-selective update of both input factors onto the given bases.

    Idempotent, trace preserving and positivity preserving; a valid process
    stays valid because the update acts factor-locally on the inputs.
    """
    layout = w.layout
    ba1 = as_basis(basis_a1, layout.d_a1)
    bb1 = as_basis(basis_b1, layout.d_b1)
    dephased = _dephase(w.matrix, (ba1, layout.d_a2, bb1, layout.d_b2))
    return EffectiveProcess(w, ba1, bb1, ProcessMatrix(layout, dephased))


def classical_effective(w: ProcessMatrix, basis_a1, basis_a2, basis_b1, basis_b2) -> ProcessMatrix:
    """Fully diagonal effective matrix for operations classical in all four bases.

    Keeps exactly the diagonal of W in the product of the four bases, which
    equals input dephasing followed by the same update on both outputs.
    """
    layout = w.layout
    bases = [as_basis(b, d) for b, d in zip((basis_a1, basis_a2, basis_b1, basis_b2), layout.dims)]
    return ProcessMatrix(layout, _dephase(w.matrix, bases))


def is_input_diagonal(w: ProcessMatrix, basis_a1, basis_b1, tol: float = 1e-10):
    """Whether all cross-input blocks of W vanish in the given bases.

    Returns ``(flag, max_off_block_norm)`` where the norm is the largest
    Frobenius norm among blocks <n, m| W |n', m'> with (n, m) != (n', m').
    """
    layout = w.layout
    bases = (as_basis(basis_a1, layout.d_a1), layout.d_a2, as_basis(basis_b1, layout.d_b1), layout.d_b2)
    _, t = _in_frame(w.matrix, bases)
    max_off = float(np.sqrt(_off_block_norms2(t).max()))
    return max_off <= tol, max_off


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
    ba1 = as_basis(basis_a1, layout.d_a1)
    bb1 = as_basis(basis_b1, layout.d_b1)
    if not 0 <= n < layout.d_a1:
        raise IndexError(f"index n={n} out of range for dimension {layout.d_a1}")
    if not 0 <= m < layout.d_b1:
        raise IndexError(f"index m={m} out of range for dimension {layout.d_b1}")
    projector = np.kron(
        np.kron(ba1.projector(n), np.eye(layout.d_a2)),
        np.kron(bb1.projector(m), np.eye(layout.d_b2)),
    )
    block = projector @ w.matrix @ projector
    weight = float(np.trace(block).real)
    if weight <= 1e-12:
        raise DegenerateInputError(f"block ({n}, {m}) has zero weight; cannot renormalize")
    renormalized = block * (layout.target_trace / weight)
    pm = ProcessMatrix(layout, (renormalized + renormalized.conj().T) / 2.0)
    return pm, validate_process(pm)


def _cq_draws(rngs, d_in: int, output_dim: int, n_outcomes: int = 2):
    """Stacked table and unit-trace Wishart states of one cq instrument per generator, drawn in that order."""
    raw = np.stack([rng.uniform(0.1, 1.0, size=(n_outcomes, d_in)) for rng in rngs])
    gauss = np.stack([rng.standard_normal((n_outcomes, 2, output_dim, output_dim)) for rng in rngs])
    g = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    wish = g @ g.conj().swapaxes(-1, -2)
    return raw / raw.sum(axis=-2, keepdims=True), wish / np.trace(wish, axis1=-2, axis2=-1).real[..., None, None]


def random_cq_instrument(basis: MeasurementBasis, output_dim: int, rng, n_outcomes: int = 2) -> Instrument:
    """Random fixed-basis instrument: stochastic outcome table, Wishart repreparations."""
    p, states = _cq_draws([rng], basis.dim, output_dim, n_outcomes)
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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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
    return _dephase(r, (ba, bb))


def ppt_check(rho, dims: tuple[int, int] = (2, 2), tol: float = 1e-10):
    """Positive-partial-transpose test, restricted to 2x2 and 2x3 systems.

    In those dimensions PPT decides separability, so the returned flag is a
    separability verdict.  Returns ``(flag, min_pt_eigenvalue)``.
    """
    da, db = int(dims[0]), int(dims[1])
    if sorted((da, db)) not in ([2, 2], [2, 3]):
        raise ValueError(f"PPT is only decisive for 2x2 and 2x3 systems, got {da}x{db}")
    r = np.asarray(rho, dtype=complex)
    pt = partial_transpose(r, (da, db), {1})
    min_eig = float(_eigvalsh(pt)[0])
    return min_eig >= -tol, min_eig
