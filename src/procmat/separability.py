"""Causal separability of bipartite process matrices.

A process matrix is causally separable when it splits as a convex mixture
p * W_ab + (1 - p) * W_ba of two one-way-signaling processes (W_ab trivial
on Bob's output, W_ba trivial on Alice's output).  For matrices that are
diagonal in fixed input bases this module builds such a split explicitly:

  1. write d * W = (1 + lambda0) * 1 + kappa1 + kappa2 with kappa1 trivial
     on B2, kappa2 trivial on A2 and kappa1 + kappa2 >= 0 (``kappa_split``);
  2. per input block (n, m) the kappas act as A_(n,m) (x) 1 and
     1 (x) B_(n,m); diagonalize those blocks (``eigenstructure``);
  3. shift eigenvalue weight between the kappas blockwise until both sides
     are positive, and normalize (``constructive_decomposition``).

The input-diagonal structure makes the kappas commute with each other and
with every input-block projector, and makes their joint eigenvectors
products; both facts are verified numerically rather than assumed.  For
general matrices ``dykstra_separability`` searches for a split directly by
alternating projections, which also serves as an independent cross-check of
the constructive path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .effective import MeasurementBasis, _in_frame, _off_block_norms2, as_basis, is_input_diagonal
from .games import _EYE2, _SIGMA_X, _SIGMA_Z
from .process import (
    ProcessMatrix,
    SystemLayout,
    ValidityReport,
    _allowed_coefficient_mask,
    validate_process,
)
from .tensor import _eigvalsh, hermitian_basis, hermitian_eig, tensor_product

SEPARABLE = "separable"
NOT_SEPARABLE = "not-separable-up-to-tolerance"
INCONCLUSIVE = "inconclusive"


class NotInputDiagonalError(ValueError):
    """The matrix is not input-diagonal in the given bases."""


class EigenstructureError(RuntimeError):
    """A block is not of the required product form or a commutator is too large."""


class DecompositionError(RuntimeError):
    """Internal consistency failure while assembling a causal decomposition."""


def commutator_norm(x, y) -> float:
    """Frobenius norm of XY - YX."""
    xm = np.asarray(x, dtype=complex)
    ym = np.asarray(y, dtype=complex)
    if xm.shape != ym.shape:
        raise ValueError(f"dimension mismatch: {xm.shape} vs {ym.shape}")
    return float(np.linalg.norm(xm @ ym - ym @ xm))


@dataclass(frozen=True)
class KappaSplit:
    """The split d * W = (1 + lambda0) * 1 + kappa1 + kappa2.

    ``lambda0`` is the minimal eigenvalue of d * W - 1; the identity shift
    -lambda0 is allocated between the kappas by ``alpha`` (fraction assigned
    to kappa1), which leaves their sum, and hence W, unchanged.
    """

    layout: SystemLayout
    lambda0: float
    kappa1: np.ndarray
    kappa2: np.ndarray
    alpha: float


def kappa_split(w_eff: ProcessMatrix, alpha: float = 1.0) -> KappaSplit:
    """Split d * W_eff - 1 into a B2-trivial and an A2-trivial part.

    With g = d * W_eff - 1, the B2-trivial part Tr_B2(g) (x) 1 / d_B2
    (input-only terms included) goes to kappa1 and the rest, the
    Hilbert-Schmidt terms nontrivial on B2, to kappa2; the identity is then
    shifted so kappa1 + kappa2 has minimal eigenvalue zero.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    layout = w_eff.layout
    report = validate_process(w_eff)
    if not report.overall:
        raise ValueError(
            f"kappa_split needs a valid process matrix; offending terms {report.offending_terms}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}, trace {report.trace_value:.6f}"
        )
    side = layout.d_total
    g = layout.d * w_eff.matrix - np.eye(side)
    lambda0 = float(_eigvalsh(g)[0])
    if lambda0 < -1.0 - 1e-9:
        raise ValueError(f"minimal eigenvalue {lambda0:.6f} below -1; matrix cannot be a valid process")

    rest = side // layout.d_b2
    reduced = np.einsum("xbyb->xy", g.reshape(rest, layout.d_b2, rest, layout.d_b2)) / layout.d_b2
    b2_trivial = np.kron(reduced, np.eye(layout.d_b2))
    eye = np.eye(side)
    kappa1 = b2_trivial - alpha * lambda0 * eye
    kappa2 = g - b2_trivial - (1.0 - alpha) * lambda0 * eye
    return KappaSplit(layout, lambda0, kappa1, kappa2, alpha)


@dataclass(frozen=True)
class EigenStructure:
    """Blockwise eigendata of a kappa split over the input bases.

    For each input block (n, m), ``block_a[n, m]`` is the operator A_(n,m)
    with kappa1 acting as A_(n,m) (x) 1 on that block, ``m1[n, a, m]`` its
    ascending eigenvalues and ``a_bases[n, m]`` the eigenvector columns;
    ``block_b``/``m2[n, m, b]``/``b_bases`` mirror this for kappa2.  The
    residuals record how well the product form, the commutation relations
    and the joint product eigenvectors hold.
    """

    basis_a1: MeasurementBasis
    basis_b1: MeasurementBasis
    block_a: np.ndarray
    block_b: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    a_bases: np.ndarray
    b_bases: np.ndarray
    product_form_residual: float
    kappa_commutator: float
    projector_commutator: float
    eigen_residual: float


def _product_vectors(basis_a1: MeasurementBasis, a_bases: np.ndarray,
                     basis_b1: MeasurementBasis, b_bases: np.ndarray) -> np.ndarray:
    """Joint eigenvectors psi[:, n, a, m, b] = u_n (x) a (x) v_m (x) b.

    ``a`` runs over the columns of a_bases[n, m] and ``b`` over those of
    b_bases[n, m]; psi[:, n, a, m, b] has eigenvalue m1[n, a, m] under
    kappa1 and m2[n, m, b] under kappa2.
    """
    psi = np.einsum("in,nmra,jm,nmsb->irjsnamb", basis_a1.vectors, a_bases, basis_b1.vectors, b_bases)
    side = math.prod(psi.shape[:4])
    return psi.reshape((side,) + psi.shape[4:])


def eigenstructure(split: KappaSplit, basis_a1, basis_b1, w_eff: ProcessMatrix,
                   tol: float = 1e-8) -> EigenStructure:
    """Extract and diagonalize the per-block operators of a kappa split.

    Requires ``w_eff`` to be input-diagonal in the given bases; raises
    :class:`EigenstructureError` when a block fails the A (x) 1 / 1 (x) B
    product form or a commutation residual exceeds ``tol``.  All blocks are
    handled at once in the input frame: the diagonal input blocks of both
    kappas come from one rotation, and one eigensolver call per kappa
    diagonalizes the whole stack of block operators.
    """
    layout = split.layout
    ba1 = as_basis(basis_a1, layout.d_a1)
    bb1 = as_basis(basis_b1, layout.d_b1)
    diagonal, off_norm = is_input_diagonal(w_eff, ba1, bb1, tol=tol)
    if not diagonal:
        raise NotInputDiagonalError(
            f"matrix is not input-diagonal in the given bases: off-block norm {off_norm:.3e} > {tol:.1e}"
        )

    d_a2, d_b2 = layout.d_a2, layout.d_b2
    # t[k] is kappa_(k+1) in the input frame, indices (A1 A2 B1 B2, A1' A2' B1' B2').
    kappas = np.stack((split.kappa1, split.kappa2))
    _, t = _in_frame(kappas, (ba1, d_a2, bb1, d_b2))
    # blocks[k, n, m] = <n, m| kappa_(k+1) |n, m> with indices (A2 B2, A2' B2').
    blocks = np.einsum("karbsatbu->kabrstu", t)
    block_a = np.einsum("abrsts->abrt", blocks[0]) / d_b2
    block_b = np.einsum("abrsru->absu", blocks[1]) / d_a2
    defects = np.stack((blocks[0] - block_a[:, :, :, None, :, None] * np.eye(d_b2)[:, None, :],
                        blocks[1] - np.eye(d_a2)[:, None, :, None] * block_b[:, :, None, :, None, :]))
    res = np.linalg.norm(defects.reshape(defects.shape[:3] + (-1,)), axis=-1)  # [kappa, n, m]
    bad = np.argwhere((res > tol).any(axis=0))
    if len(bad):
        n, m = bad[0]
        raise EigenstructureError(
            f"block ({n}, {m}) is not of product form: residuals {res[0, n, m]:.3e}, {res[1, n, m]:.3e}"
        )
    evals_a, a_bases = hermitian_eig(block_a)
    m1 = evals_a.transpose(0, 2, 1)  # m1[n, a, m]
    m2, b_bases = hermitian_eig(block_b)

    comm_kappa = commutator_norm(split.kappa1, split.kappa2)
    # ||[K, P]||^2 = ||(1 - P) K P||^2 + ||P K (1 - P)||^2 for the input-block
    # projector P = P_(n,m): the off-diagonal blocks in column and row (n, m).
    # The Frobenius norm is the same in every frame.
    off = _off_block_norms2(t)
    comm_proj = float(np.sqrt(off.sum(axis=(3, 4)) + off.sum(axis=(1, 2))).max())
    if comm_kappa > tol or comm_proj > tol:
        raise EigenstructureError(
            f"commutation residuals too large: [k1, k2] = {comm_kappa:.3e}, "
            f"max [k, P] = {comm_proj:.3e}"
        )

    psi = _product_vectors(ba1, a_bases, bb1, b_bases)
    side = layout.d_total
    images = (kappas @ psi.reshape(side, side)).reshape((2,) + psi.shape)
    defect = images - np.stack((psi * m1[..., None], psi * m2[:, None]))
    eigen_residual = float(np.linalg.norm(defect, axis=1).max())

    return EigenStructure(
        basis_a1=ba1,
        basis_b1=bb1,
        block_a=block_a,
        block_b=block_b,
        m1=m1,
        m2=m2,
        a_bases=a_bases,
        b_bases=b_bases,
        product_form_residual=float(res.max()),
        kappa_commutator=comm_kappa,
        projector_commutator=comm_proj,
        eigen_residual=eigen_residual,
    )


@dataclass(frozen=True)
class CausalDecomposition:
    """Convex split W = p * w_ab + (1 - p) * w_ba witnessing causal separability.

    A side with vanishing weight is reported as ``None`` rather than as a
    fabricated normalized zero matrix.
    """

    p: float
    w_ab: ProcessMatrix | None
    w_ba: ProcessMatrix | None


@dataclass(frozen=True)
class DecompositionReport:
    """Checks of a claimed causal decomposition against a process matrix."""

    reconstruction_residual: float
    p_ok: bool
    report_ab: ValidityReport | None
    report_ba: ValidityReport | None
    ok: bool


def verify_decomposition(w: ProcessMatrix, decomposition: CausalDecomposition,
                         tol: float = 1e-8, psd_tol: float | None = None) -> DecompositionReport:
    """Check reconstruction, weight range and one-way validity of both parts."""
    layout = w.layout
    p = decomposition.p
    p_ok = -tol <= p <= 1.0 + tol

    total = np.zeros_like(w.matrix)
    if decomposition.w_ab is not None:
        total = total + p * decomposition.w_ab.matrix
    elif p > tol:
        p_ok = False
    if decomposition.w_ba is not None:
        total = total + (1.0 - p) * decomposition.w_ba.matrix
    elif 1.0 - p > tol:
        p_ok = False
    residual = float(np.linalg.norm(total - w.matrix))

    report_ab = None
    if decomposition.w_ab is not None:
        report_ab = validate_process(decomposition.w_ab, tol=tol, variant="a_before_b", psd_tol=psd_tol)
    report_ba = None
    if decomposition.w_ba is not None:
        report_ba = validate_process(decomposition.w_ba, tol=tol, variant="b_before_a", psd_tol=psd_tol)

    ok = (
        p_ok
        and residual <= tol
        and (report_ab is None or report_ab.overall)
        and (report_ba is None or report_ba.overall)
    )
    return DecompositionReport(residual, p_ok, report_ab, report_ba, ok)


def constructive_decomposition(w_eff: ProcessMatrix, basis_a1, basis_b1,
                               alpha: float = 1.0, tol: float = 1e-8) -> CausalDecomposition:
    """Build a causal decomposition of an input-diagonal process matrix.

    Per input block the smallest eigenvalue s(n, m) = min_a m1(n, a, m) is
    moved from kappa1 to kappa2 (their sum is untouched), which makes both
    shifted operators positive: m1 - s >= 0 by construction and
    m2 + s >= 0 because kappa1 + kappa2 >= 0 forces m1 + m2 >= 0 on every
    joint eigenvector.  The positive parts, with the identity weight
    (1 + lambda0) kept on the kappa1 side, normalize into the two one-way
    processes of the split.
    """
    layout = w_eff.layout
    split = kappa_split(w_eff, alpha=alpha)
    structure = eigenstructure(split, basis_a1, basis_b1, w_eff, tol=tol)

    shift = structure.m1.min(axis=1)  # s(n, m)
    m1_bar = structure.m1 - shift[:, None, :]
    m2_bar = structure.m2 + shift[:, :, None]
    if m1_bar.min() < -tol or m2_bar.min() < -tol:
        raise DecompositionError(
            f"shifted eigenvalues went negative: min m1_bar {m1_bar.min():.3e}, "
            f"min m2_bar {m2_bar.min():.3e}"
        )

    # Sum_(n,a,m,b) of m_bar psi psi^dag over the joint product eigenvectors,
    # which is sum_(n,m) P_n (x) shifted block (x) P_m (x) 1 (or its mirror).
    side = layout.d_total
    psi = _product_vectors(structure.basis_a1, structure.a_bases, structure.basis_b1, structure.b_bases)
    psi_dag = psi.reshape(side, side).conj().T
    kappa1_bar = (psi * m1_bar[..., None]).reshape(side, side) @ psi_dag
    kappa1_bar += (1.0 + split.lambda0) * np.eye(side)
    kappa2_bar = (psi * m2_bar[:, None]).reshape(side, side) @ psi_dag

    p = float(np.trace(kappa1_bar).real) / layout.d_total
    edge = 1e-12
    if p <= edge:
        decomposition = CausalDecomposition(0.0, None, w_eff)
    elif p >= 1.0 - edge:
        decomposition = CausalDecomposition(1.0, ProcessMatrix(layout, kappa1_bar / layout.d), None)
    else:
        w_ab = ProcessMatrix(layout, kappa1_bar / (p * layout.d))
        w_ba = ProcessMatrix(layout, kappa2_bar / ((1.0 - p) * layout.d))
        decomposition = CausalDecomposition(p, w_ab, w_ba)

    check = verify_decomposition(w_eff, decomposition, tol=tol)
    if not check.ok:
        raise DecompositionError(
            f"constructed decomposition failed verification: residual "
            f"{check.reconstruction_residual:.3e}, p = {p:.6f}"
        )
    return decomposition


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the alternating-projection separability search."""

    status: str
    residual: float
    iterations: int
    decomposition: CausalDecomposition | None
    plateau_residual: float | None = None


def _negative_part_norm(evals: np.ndarray) -> float:
    neg = np.minimum(evals, 0.0)
    return float(np.sqrt(neg @ neg))


def _psd_project(m: np.ndarray) -> np.ndarray:
    """Projection of the Hermitian part of ``m`` onto the positive cone."""
    evals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (vecs * np.maximum(evals, 0.0)) @ vecs.conj().T


@lru_cache(maxsize=None)
def _span_rows(dims: tuple[int, ...], variant: str) -> np.ndarray:
    """Orthonormal real rows spanning the allowed Hilbert-Schmidt terms.

    Row T is vec(B_T) / sqrt(d_total) for one allowed coefficient index T,
    viewed as float64 (real and imaginary parts interleaved).  For Hermitian
    matrices the HS inner product is the real dot product of such views, so
    with v = m.reshape(-1).view(float64) the span projection is
    ``(Q @ v) @ Q`` and the span distance is the norm of v minus that.
    """
    idx = np.argwhere(_allowed_coefficient_mask(dims, variant))
    factors = [hermitian_basis(d)[idx[:, f]] for f, d in enumerate(dims)]
    # Row-wise Kronecker product of the four factor elements.
    rows = np.einsum("nab,ncd,nef,ngh->nacegbdfh", *factors).reshape(len(idx), -1)
    table = rows.view(np.float64) / math.sqrt(math.prod(dims))
    table.setflags(write=False)
    return table


def _span_project(m: np.ndarray, table: np.ndarray) -> np.ndarray:
    v = m.reshape(-1).view(np.float64)
    return ((table @ v) @ table).view(complex).reshape(m.shape)


def _span_distance(m: np.ndarray, table: np.ndarray) -> float:
    v = m.reshape(-1).view(np.float64)
    return float(np.linalg.norm(v - (table @ v) @ table))


def dykstra_separability(w: ProcessMatrix, tol: float = 1e-8, max_iter: int = 50_000) -> FeasibilityReport:
    """Search for a causal split of W by Dykstra alternating projections.

    Looks for X with: X positive, X in the B2-trivial allowed span, W - X
    positive and W - X in the A2-trivial allowed span; any such X equals
    p * w_ab of a causal decomposition.  Starting from X = W / 2, the four
    projections are cycled and the four membership residuals are tracked
    per cycle.  Only the two PSD steps carry Dykstra correction terms; the
    span steps are plain projections, computed on the real Hilbert-Schmidt
    coordinates of the Hermitian iterates.  All residuals below ``tol``
    count as separable and the decomposition is extracted; at the iteration
    cap (``max_iter`` >= 1 sweeps) the run reports not-separable when the
    residual has plateaued above 10 * tol over the last tenth of the run,
    and inconclusive otherwise (alternating projections cannot certify
    infeasibility).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    report = validate_process(w)
    if not report.overall:
        raise ValueError("dykstra_separability needs a valid process matrix")

    dims = w.layout.dims
    rows_ab = _span_rows(dims, "a_before_b")
    rows_ba = _span_rows(dims, "b_before_a")
    target = w.matrix

    x = target / 2.0
    # A Dykstra correction on a linear or affine set lies in its orthogonal
    # complement and never changes the iterate (Boyle & Dykstra 1986), so
    # only the PSD steps keep one.
    correction_x = np.zeros_like(x)
    correction_rest = np.zeros_like(x)
    history = np.empty(max_iter)
    iterations = 0
    converged = False

    for it in range(max_iter):
        # Cycle: PSD(X), span(X), PSD(W - X), span(W - X).
        shifted = x + correction_x
        x = _psd_project(shifted)
        correction_x = shifted - x

        x = _span_project(x, rows_ab)

        shifted = x + correction_rest
        x = target - _psd_project(target - shifted)
        correction_rest = shifted - x

        x = target - _span_project(target - x, rows_ba)

        x = (x + x.conj().T) / 2.0
        remainder = target - x
        spectra = np.linalg.eigvalsh(np.stack((x, remainder)))
        residual = max(
            _negative_part_norm(spectra[0]),
            _span_distance(x, rows_ab),
            _negative_part_norm(spectra[1]),
            _span_distance(remainder, rows_ba),
        )
        history[it] = residual
        iterations = it + 1
        if residual < tol:
            converged = True
            break

    history = history[:iterations]
    best = float(history.min())

    if converged:
        decomposition = _extract_decomposition(w, x, tol)
        check = verify_decomposition(w, decomposition, tol=max(100.0 * tol, 1e-6),
                                     psd_tol=max(100.0 * tol, 1e-6))
        if not check.ok:
            raise DecompositionError(
                f"feasible point failed decomposition checks: residual "
                f"{check.reconstruction_residual:.3e}"
            )
        return FeasibilityReport(SEPARABLE, float(history[-1]), iterations, decomposition)

    window = max(1, iterations // 10)
    plateau = float(history[-window:].min())
    status = NOT_SEPARABLE if plateau > 10.0 * tol else INCONCLUSIVE
    return FeasibilityReport(status, best, iterations, None, plateau_residual=plateau)


def _extract_decomposition(w: ProcessMatrix, x: np.ndarray, tol: float) -> CausalDecomposition:
    layout = w.layout
    p = float(np.trace(x).real) / layout.target_trace
    if p <= tol:
        return CausalDecomposition(0.0, None, w)
    if p >= 1.0 - tol:
        return CausalDecomposition(1.0, w, None)
    w_ab = ProcessMatrix(layout, x / p)
    w_ba = ProcessMatrix(layout, (w.matrix - x) / (1.0 - p))
    return CausalDecomposition(p, w_ab, w_ba)


def w0_process(p: float, layout: SystemLayout | None = None) -> ProcessMatrix:
    """Qubit fixture: a causally separable mixture whose defining terms do not commute.

    Mixes, with weight ``p``, a process trivial on Bob's output against one
    trivial on Alice's output.  No nontrivial shared eigenbasis of the two
    defining terms exists, so the blockwise constructive route does not
    apply, yet the defining split itself witnesses separability.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    layout = layout or SystemLayout.qubit()
    if layout.dims != (2, 2, 2, 2):
        raise ValueError("w0_process is a qubit fixture")
    split = w0_defining_split(p)
    m = p * split.w_ab.matrix + (1.0 - p) * split.w_ba.matrix
    return ProcessMatrix(layout, m)


def w0_defining_split(p: float) -> CausalDecomposition:
    """The defining two-part split of :func:`w0_process`."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    layout = SystemLayout.qubit()
    eye = np.eye(16, dtype=complex)
    term_ab, term_ba = w0_defining_terms()
    return CausalDecomposition(
        float(p),
        ProcessMatrix(layout, (eye + term_ab) / layout.d),
        ProcessMatrix(layout, (eye + term_ba) / layout.d),
    )


def w0_defining_terms() -> tuple[np.ndarray, np.ndarray]:
    """The two nontrivial operators defining :func:`w0_process`, for inspection."""
    term_ab = -tensor_product([_SIGMA_Z, _SIGMA_Z, _SIGMA_X, _EYE2])
    term_ba = 0.5 * tensor_product([_SIGMA_Z, _EYE2, _EYE2, _SIGMA_X]) + 0.5 * tensor_product(
        [_SIGMA_X, _EYE2, _SIGMA_X, _SIGMA_Z]
    )
    return term_ab, term_ba
