"""Causal separability of bipartite process matrices.

A process matrix is causally separable when it splits as a convex mixture
p * W_ab + (1 - p) * W_ba of two one-way-signaling processes (W_ab trivial
on Bob's output, W_ba trivial on Alice's output).  For matrices that are
diagonal in fixed input bases this module builds such a split explicitly:

  1. write d * W = (1 + lambda0) * 1 + kappa1 + kappa2 with kappa1 trivial
     on B2, kappa2 trivial on A2 and kappa1 + kappa2 >= 0 (``kappa_split``);
  2. per input block (n, m), take the least eigenvalue s(n, m) of the
     operator A_(n,m) with kappa1 = A_(n,m) (x) 1 on that block;
  3. move S = sum_(n,m) s(n, m) P_n (x) 1 (x) P_m (x) 1 from kappa1 to
     kappa2 and normalize (``constructive_decomposition``);
     ``verify_decomposition`` is the only acceptance.

The input-diagonal structure makes the kappas commute with each other and
with every input-block projector, and makes their joint eigenvectors
products, so kappa2 + S stays positive; ``eigenstructure`` audits these
facts numerically.  For general matrices ``dykstra_separability`` searches
for a split or a causal witness with one primal-dual iteration, which also
cross-checks the constructive path.  ``check_separability`` decides with the
split where W is input-diagonal in the given bases, with the search elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .effective import _input_frame, _off_block_norms2
from .process import (
    ProcessMatrix,
    SystemLayout,
    ValidityReport,
    _span_project,
    _validate_stack,
    _w0_parts,
    validate_process,
)
from .tensor import (DEFAULT_TOL, WITNESS_MARGIN, MeasurementBasis, _check_int, _check_tol, _eigvalsh, _psd_floor,
                     _search_check_tol, as_square_matrix, hermitian_eig)

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
    xm = as_square_matrix(x, "x")
    ym = as_square_matrix(y, "y")
    if xm.shape != ym.shape:
        raise ValueError(f"dimension mismatch: {xm.shape} vs {ym.shape}")
    return float(np.linalg.norm(xm @ ym - ym @ xm))


@dataclass(frozen=True)
class KappaSplit:
    """The split d * W = (1 + lambda0) * 1 + kappa1 + kappa2.

    ``lambda0`` is the minimal eigenvalue of d * W - 1, read off the minimal
    eigenvalue of W; kappa1 carries the identity shift -lambda0.
    """

    layout: SystemLayout
    lambda0: float
    kappa1: np.ndarray
    kappa2: np.ndarray


def _require_valid(w: ProcessMatrix, caller: str) -> ValidityReport:
    """W's validity report at ``validate_process``'s defaults (``DEFAULT_TOL``,
    floor ``PSD_FLOOR``·side), whatever tolerance the caller runs at; an
    invalid W raises ``ValueError`` naming the offending terms, the min
    eigenvalue and the trace."""
    report = validate_process(w)
    if not report.overall:
        terms = "; ".join(f"{','.join(pattern)} {magnitude:.3g}" for pattern, magnitude in report.offending_terms)
        raise ValueError(f"{caller} needs a valid process matrix; offending terms {terms or 'none'}, "
                         f"min eigenvalue {report.min_eigenvalue:.3e}, trace {report.trace_value:.6f}")
    return report


def kappa_split(w_eff: ProcessMatrix) -> KappaSplit:
    """Split d * W_eff - 1 into a B2-trivial and an A2-trivial part.

    With g = d * W_eff - 1, the A < B part of g, for a valid W_eff its
    B2-trivial part Tr_B2(g) (x) 1 / d_B2, goes to kappa1 and the rest to
    kappa2; kappa1 then takes the identity shift -lambda0 that gives
    kappa1 + kappa2 minimal eigenvalue zero.  lambda0 = d * min eig(W_eff) - 1
    comes from the validity check, which solved for that eigenvalue already.
    """
    layout = w_eff.layout
    report = _require_valid(w_eff, "kappa_split")
    eye = np.eye(layout.d_total)
    g = layout.d * w_eff.matrix - eye
    lambda0 = layout.d * report.min_eigenvalue - 1.0
    b2_trivial = _span_project(g, layout.dims, "a_before_b")
    return KappaSplit(layout, lambda0, b2_trivial - lambda0 * eye, g - b2_trivial)


@dataclass(frozen=True)
class EigenStructure:
    """Blockwise eigendata of W_eff's kappa split over the input bases.

    ``split`` is ``kappa_split(W_eff)``.  For each input block (n, m), with
    kappa1 acting as A_(n,m) (x) 1 on that block, ``m1[n, a, m]`` holds the
    ascending eigenvalues of A_(n,m) and ``a_bases[n, m]`` its eigenvector
    columns; ``m2[n, m, b]``/``b_bases`` mirror this for kappa2.  The
    residuals record how well the product form, the commutation relations
    and the joint product eigenvectors hold.
    """

    basis_a1: MeasurementBasis
    basis_b1: MeasurementBasis
    split: KappaSplit
    m1: np.ndarray
    m2: np.ndarray
    a_bases: np.ndarray
    b_bases: np.ndarray
    product_form_residual: float
    kappa_commutator: float
    projector_commutator: float
    eigen_residual: float


def _product_vectors(frame: np.ndarray, a_bases: np.ndarray, b_bases: np.ndarray) -> np.ndarray:
    """Joint eigenvectors psi[:, n, a, m, b] = u_n (x) a (x) v_m (x) b, from the
    input frame's columns F[:, (n, r, m, s)] = u_n (x) e_r (x) v_m (x) e_s.

    ``a`` runs over the columns of a_bases[n, m] and ``b`` over those of
    b_bases[n, m]; psi[:, n, a, m, b] has eigenvalue m1[n, a, m] under
    kappa1 and m2[n, m, b] under kappa2.
    """
    cols = frame.reshape(len(frame), len(a_bases), a_bases.shape[-1], b_bases.shape[1], b_bases.shape[-1])
    return np.einsum("inrms,nmra,nmsb->inamb", cols, a_bases, b_bases)


def _input_blocks(w_eff: ProcessMatrix, kappas, basis_a1, basis_b1, tol: float):
    """The bases, the input frame F, the kappas rotated with W_eff into it, t[k],
    their diagonal input blocks blocks[k, n, m] = <n, m| kappa_k |n, m> with
    indices (A2 B2, A2' B2'), and kappa1's (kappas[0]) block operators
    A_(n,m); raises :class:`NotInputDiagonalError` when W_eff is not
    input-diagonal within ``tol``.
    """
    ba1, bb1, frame, t, diagonal, off_norm = _input_frame(w_eff, basis_a1, basis_b1, tol, *kappas)
    if not diagonal:
        raise NotInputDiagonalError(f"matrix is not input-diagonal in the given bases: "
                                    f"off-block norm {off_norm:.3e} > {tol:.1e}")
    blocks = np.einsum("karbsatbu->kabrstu", t[1:])
    return ba1, bb1, frame, t[1:], blocks, np.einsum("abrsts->abrt", blocks[0]) / w_eff.layout.d_b2


def eigenstructure(w_eff: ProcessMatrix, basis_a1, basis_b1, tol: float = DEFAULT_TOL) -> EigenStructure:
    """Extract and diagonalize the per-block operators of ``kappa_split(w_eff)``.

    The audit of the proof behind ``constructive_decomposition``, on its
    arguments; the split comes back as ``split``.  Requires ``w_eff`` to be
    input-diagonal in the given bases; raises :class:`EigenstructureError`
    when a block fails the A (x) 1 / 1 (x) B product form or a commutation
    residual exceeds ``tol``.  All blocks are handled at once in the input
    frame: one rotation serves W_eff and both kappas, and one eigensolver
    call per kappa diagonalizes the whole stack of block operators.
    """
    layout = w_eff.layout
    split = kappa_split(w_eff)
    kappas = np.stack((split.kappa1, split.kappa2))
    ba1, bb1, frame, t, blocks, block_a = _input_blocks(w_eff, kappas, basis_a1, basis_b1, tol)
    d_a2, d_b2 = layout.d_a2, layout.d_b2
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

    psi = _product_vectors(frame, a_bases, b_bases)
    images = (kappas @ psi.reshape(frame.shape)).reshape((2,) + psi.shape)
    defect = images - np.stack((psi * m1[..., None], psi * m2[:, None]))
    eigen_residual = float(np.linalg.norm(defect, axis=1).max())

    return EigenStructure(
        basis_a1=ba1,
        basis_b1=bb1,
        split=split,
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
    fabricated normalized zero matrix.  ``check`` is the
    ``verify_decomposition`` report that accepted the split, at the
    tolerances of the path that built it; it is ``None`` only for splits
    built by hand, such as ``w0_defining_split``.
    """

    p: float
    w_ab: ProcessMatrix | None
    w_ba: ProcessMatrix | None
    check: DecompositionReport | None = None


@dataclass(frozen=True)
class DecompositionReport:
    """Checks of a claimed causal decomposition against a process matrix."""

    reconstruction_residual: float
    p_ok: bool
    report_ab: ValidityReport | None
    report_ba: ValidityReport | None
    ok: bool


def verify_decomposition(w: ProcessMatrix, decomposition: CausalDecomposition,
                         tol: float = DEFAULT_TOL, psd_tol: float | None = None) -> DecompositionReport:
    """Check reconstruction, weight range and one-way validity of both parts,
    the parts in one stacked validity check."""
    _check_tol(tol, psd_tol)
    layout, p = w.layout, decomposition.p
    sides = ((decomposition.w_ab, p, "a_before_b"), (decomposition.w_ba, 1.0 - p, "b_before_a"))
    present = [side for side in sides if side[0] is not None]
    for part, _, _ in present:
        if part.layout != layout:
            raise ValueError(f"decomposition part has layout {part.layout.dims}, W has {layout.dims}")
    p_ok = -tol <= p <= 1.0 + tol and all(part is not None or weight <= tol for part, weight, _ in sides)
    total = sum((weight * part.matrix for part, weight, _ in present), np.zeros_like(w.matrix))
    residual = float(np.linalg.norm(total - w.matrix))

    mats = np.array([part.matrix for part, _, _ in present]).reshape((-1,) + w.matrix.shape)
    reports = iter(_validate_stack(layout, mats, tol, [variant for _, _, variant in present], psd_tol))
    report_ab, report_ba = (None if part is None else next(reports) for part, _, _ in sides)
    ok = p_ok and residual <= tol and all(r is None or r.overall for r in (report_ab, report_ba))
    return DecompositionReport(residual, p_ok, report_ab, report_ba, ok)


def constructive_decomposition(w_eff: ProcessMatrix, basis_a1, basis_b1,
                               tol: float = DEFAULT_TOL) -> CausalDecomposition:
    """Build a causal decomposition of an input-diagonal process matrix.

    The least eigenvalue s(n, m) of the block operator A_(n,m), with kappa1
    acting as A_(n,m) (x) 1 on input block (n, m), is moved from kappa1 to
    kappa2 as S = sum_(n,m) s(n, m) P_n (x) 1 (x) P_m (x) 1.  Their sum is
    untouched and kappa1 - S >= 0, so with the identity weight (1 + lambda0)
    on the kappa1 side x = (kappa1 - S + (1 + lambda0) 1) / d is the A < B
    part of W and y = L_BA(W - x) the B < A part.  ``verify_decomposition``
    certifies the split, kappa2 + S >= 0 included, and is its only acceptance.
    W itself is checked at ``validate_process``'s defaults, whatever ``tol``.
    """
    layout = w_eff.layout
    split = kappa_split(w_eff)
    _, _, frame, _, _, block_a = _input_blocks(w_eff, (split.kappa1,), basis_a1, basis_b1, tol)
    shift = hermitian_eig(block_a)[0].min(axis=-1)  # s(n, m)
    # S = sum_(n,m) s(n, m) P_n (x) 1 (x) P_m (x) 1 = F diag(s) F^dag, s(n, m) on F's columns (n, r, m, s).
    s_op = (frame * np.broadcast_to(shift[:, None, :, None], layout.dims).reshape(-1)) @ frame.conj().T
    x = (split.kappa1 - s_op + (1.0 + split.lambda0) * np.eye(layout.d_total)) / layout.d
    parts = np.stack((x, _span_project(w_eff.matrix - x, layout.dims, "b_before_a")))
    decomposition = _certified(w_eff, parts, tol, tol)
    if not decomposition.check.ok:
        failed = _failed_checks(decomposition.check, decomposition.p, layout, tol)
        raise DecompositionError(f"constructed decomposition failed verification: {failed}")
    return decomposition


def _certified(w: ProcessMatrix, parts: np.ndarray, tol: float, check_tol: float,
               psd_tol: float | None = None) -> CausalDecomposition:
    """The split (p, x / p, y / q) of W's parts (x, y) in the A < B and B < A spans,
    each weighed by its own trace, p = Tr x / Tr W and q = Tr y / Tr W, or all of W
    on one side when p or q is at most ``tol``, with its ``verify_decomposition``
    report at ``check_tol`` and ``psd_tol`` as ``check``."""
    # x / p or y / q of a lopsided split amplifies rounding, the anti-Hermitian part too.
    parts = (parts + parts.conj().swapaxes(-1, -2)) / 2.0
    p, q = (np.trace(parts, axis1=1, axis2=2).real / w.layout.target_trace).tolist()
    if p <= tol:
        split = CausalDecomposition(0.0, None, w)
    elif q <= tol:
        split = CausalDecomposition(1.0, w, None)
    else:
        split = CausalDecomposition(p, ProcessMatrix._exact(w.layout, parts[0] / p),
                                    ProcessMatrix._exact(w.layout, parts[1] / q))
    return replace(split, check=verify_decomposition(w, split, tol=check_tol, psd_tol=psd_tol))


def _failed_checks(check: DecompositionReport, p: float, layout: SystemLayout, tol: float) -> str:
    """The checks a split failed at the default positivity floor, each with
    its value and its bound."""
    failed = []
    if check.reconstruction_residual > tol:
        failed.append(f"reconstruction residual {check.reconstruction_residual:.3e} above {tol:g}")
    if not check.p_ok:
        failed.append(f"weight p = {p!r} outside [0, 1] or on a missing part, within {tol:g}")
    for name, report in (("w_ab", check.report_ab), ("w_ba", check.report_ba)):
        if report is None:
            continue
        if not report.is_psd:
            floor = _psd_floor(layout.d_total)
            failed.append(f"{name} psd: min eigenvalue {report.min_eigenvalue:.3e} below -{floor:g}")
        if not report.trace_ok:
            deviation = abs(report.trace_value - layout.target_trace)
            failed.append(f"{name} trace {report.trace_value!r} is {deviation:.3e} from {layout.target_trace}, "
                          f"above {tol:g}")
        if not report.mask_ok:
            pattern, magnitude = max(report.offending_terms, key=lambda term: term[1])
            failed.append(f"{name} mask: forbidden term {','.join(pattern)} of magnitude {magnitude:.3e}, "
                          f"above {tol:g}")
    return "; ".join(failed)


@dataclass(frozen=True)
class CausalWitness:
    """S with S - q1 >= 0, S - q2 >= 0, q1 orthogonal to the span allowed for
    A < B and q2 to the span allowed for B < A, so Tr(S X) >= 0 on every
    causally separable X, while ``value`` = Tr(S W) < -``margin``, a bound
    on rounding (Araujo et al., NJP 17, 102001 (2015))."""

    s: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    value: float
    margin: float


@dataclass(frozen=True)
class FeasibilityReport:
    """A separability verdict and the ``path`` that reached it.

    A separable report carries a ``decomposition``, a not-separable one a
    verified ``witness``, an inconclusive one neither.  On path "dykstra"
    (the search) ``residual`` is the least violation of the one split
    candidate per iteration, that of the verified split when separable, and
    ``plateau_residual`` the least over the last tenth of a run that found no
    split; ``skip_reason`` says why the constructive split did not apply.  On
    path "constructive" no search ran: ``iterations`` and ``residual`` are 0.
    """

    status: str
    residual: float
    iterations: int
    decomposition: CausalDecomposition | None
    plateau_residual: float | None = None
    witness: CausalWitness | None = None
    path: str = "dykstra"
    skip_reason: str | None = None


def _violation(parts: np.ndarray) -> np.ndarray:
    """The negative-part norm of each member of a stack of Hermitian matrices."""
    neg = np.minimum(np.linalg.eigvalsh(parts), 0.0)
    return np.sqrt((neg * neg).sum(axis=-1))


def _psd_project(m: np.ndarray) -> np.ndarray:
    """Projection of the Hermitian part of ``m`` (or of each member of a stack) onto the positive cone."""
    evals, vecs = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    return (vecs * np.maximum(evals, 0.0)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _witness_from(target: np.ndarray, s, q1, q2, dims: tuple[int, ...]) -> CausalWitness:
    """Hermitise (S, Q1, Q2), project each Q_i onto its span complement and
    shift S by delta * 1 to cover the negative eigenvalues of S - Q_i.  The
    margin, WITNESS_MARGIN * side * eps * (|S| + |Q1| + |Q2| + delta
    sqrt(side)) * |W|, bounds the rounding of the solves and the trace."""
    s, q1, q2 = ((m + m.conj().T) / 2.0 for m in (s, q1, q2))
    q1 -= _span_project(q1, dims, "a_before_b")
    q2 -= _span_project(q2, dims, "b_before_a")
    delta = max(0.0, -float(_eigvalsh(np.stack((s - q1, s - q2)))[:, 0].min()))
    side = len(s)
    norms = np.linalg.norm(s) + np.linalg.norm(q1) + np.linalg.norm(q2) + delta * math.sqrt(side)
    margin = WITNESS_MARGIN * side * np.finfo(float).eps * norms * np.linalg.norm(target)
    value = float(np.vdot(target, s).real) + delta * float(np.trace(target).real)
    return CausalWitness(s + delta * np.eye(side), q1, q2, value, float(margin))


def _dual_witness(target: np.ndarray, p: np.ndarray, dims: tuple[int, ...]) -> CausalWitness | None:
    """The witness S = L_AB(P1) + L_BA(P2) - L_c(P2) of positive P_i,
    repaired by ``_witness_from``, when it verifies; None otherwise, and
    without the repair when Tr(S W) >= 0, which no repair can make negative."""
    ba = _span_project(p[1], dims, "b_before_a")
    s = _span_project(p[0] - ba, dims, "a_before_b") + ba
    if np.vdot(target, s).real >= 0.0:
        return None
    witness = _witness_from(target, s, s - p[0], s - p[1], dims)
    return witness if witness.value < -witness.margin else None


def verify_witness(w: ProcessMatrix, witness: CausalWitness) -> bool:
    """Check a causal witness against W, independently of how it was found.

    The witness is repaired as in the search; it holds when the repair moves
    S, Q1, Q2 (times |W|) and the stated value by at most the margin, and
    Tr(S' W) = Tr(S W) + delta Tr W < -margin.
    """
    side, dims = w.layout.d_total, w.layout.dims
    parts = [np.asarray(m, dtype=complex) for m in (witness.s, witness.q1, witness.q2)]
    if any(m.shape != (side, side) for m in parts):
        raise ValueError(f"witness parts must be {side}x{side} for layout {dims}")
    not_finite = [name for name, m in zip(("s", "q1", "q2"), parts) if not np.isfinite(m).all()]
    if not_finite:
        raise ValueError(f"witness part {not_finite[0]} has non-finite entries")
    check = _witness_from(w.matrix, *parts, dims)
    drift = max(np.linalg.norm(a - b) for a, b in zip((check.s, check.q1, check.q2), parts))
    # The stated value is compared on its own, so that a NaN fails.
    return (check.value < -check.margin and drift * np.linalg.norm(w.matrix) <= check.margin
            and abs(check.value - witness.value) <= check.margin)


def _search(w: ProcessMatrix, tol: float, max_iter: int) -> FeasibilityReport:
    """Scaled ADMM (Boyd et al., Found. Trends ML 3(1), 2011) on the
    white-noise robustness problem (Araujo et al., NJP 17, 102001 (2015)) of
    a valid W: minimise r with X1 + X2 = W + r 1, X1 positive in the A < B
    span and X2 in the B < A span.  From Y = (W / 2, W / 2), U = 0, each
    iteration takes the closed-form affine step X nearest Y - U under the
    objective r / rho, Y = PSD(X + U) and U += X - Y.  Its one split
    candidate is (X1 - r/2 1, X2 - r/2 1), at first the equal split of W's
    shared terms; the identity split X_AB = w_a + alpha 1, alpha = max(0,
    -min eig w_a), or its mirror image X_BA = w_b + beta 1, whichever leaves
    the smaller negative-part norm, is checked once, after the first.  No
    split needs Y, so each is checked before the cone step.  The witness
    candidate comes from the positive duals P = -rho U by ``_dual_witness``.
    """
    target, dims = w.matrix, w.layout.dims
    side = len(target)
    eye = np.eye(side)
    check_tol = _search_check_tol(tol)
    w_ab = _span_project(target, dims, "a_before_b")
    w_c = _span_project(w_ab, dims, "b_before_a")
    w_a, w_b = w_ab - w_c, target - w_ab
    y = None  # the start Y = (W / 2, W / 2) is read only through zc = L_c(Y - U)
    u = np.zeros((2, side, side), dtype=complex)
    zc = np.stack((w_c, w_c)) / 2.0
    rho = 1.0
    history = []
    for iterations in range(1, max_iter + 1):
        # Outside the shared span X holds W's own terms (w_a, w_b); its shared
        # parts and r minimise r / rho + |X - (Y - U)|^2 / 2, with zc = L_c(Y - U).
        r = -(np.trace(w_c - zc[0] - zc[1]).real + 2.0 / rho) / side
        c = (zc[0] - zc[1] + w_c + r * eye) / 2.0
        x = np.stack((w_a + c, w_b + w_c + r * eye - c))
        split = x - (r / 2.0) * eye
        violation = float(_violation(split).max())
        if violation < tol:  # checked before the cone step, which it does not need
            decomposition = _certified(w, split, tol, check_tol, check_tol)
            if decomposition.check.ok:
                return FeasibilityReport(SEPARABLE, violation, iterations, decomposition)
        if iterations == 1:  # the identity split needs no iterate, so it is checked once
            alpha, beta = np.maximum(-np.linalg.eigvalsh(np.stack((w_a, w_b)))[:, 0], 0.0)
            rest = np.stack((w_b + w_c - alpha * eye, w_a + w_c - beta * eye))  # W - X_AB, W - X_BA
            norms = _violation(rest)
            if norms.min() < tol:
                pair = (w_a + alpha * eye, rest[0]) if norms[0] <= norms[1] else (rest[1], w_b + beta * eye)
                decomposition = _certified(w, np.stack(pair), tol, check_tol, check_tol)
                if decomposition.check.ok:
                    return FeasibilityReport(SEPARABLE, float(norms.min()), iterations, decomposition)
        y_prev, y = y, _psd_project(x + u)
        u += x - y
        history.append(violation)
        witness = _dual_witness(target, -rho * u, dims)
        if witness is not None:
            break
        if iterations % 10 == 0:  # residual balancing (Boyd et al. sec. 3.4.1); rho U is kept
            primal, dual = np.linalg.norm(x - y), rho * np.linalg.norm(y - y_prev)
            scale = 2.0 if primal > 10.0 * dual else 0.5 if dual > 10.0 * primal else 1.0
            rho *= scale
            u /= scale
        zc = _span_project(_span_project(y - u, dims, "b_before_a"), dims, "a_before_b")

    window = max(1, iterations // 10)
    status = INCONCLUSIVE if witness is None else NOT_SEPARABLE
    return FeasibilityReport(status, min(history), iterations, None,
                             plateau_residual=min(history[-window:]), witness=witness)


def dykstra_separability(w: ProcessMatrix, tol: float = DEFAULT_TOL,
                         max_iter: int = 50_000) -> FeasibilityReport:
    """Decide causal separability of a valid W with the primal-dual search.

    A split candidate, the identity split included, whose violation is below
    ``tol`` ends the run separable once ``verify_decomposition`` passes it at
    max(100 tol, ``SEARCH_CHECK_FLOOR``) (``_search_check_tol``); a witness
    candidate ends it not-separable once it verifies.  At the cap
    (``max_iter`` >= 1 iterations; memory grows with the iterations run) with
    neither certificate the run is inconclusive.  At ``tol`` = 0 no split is
    accepted and the search looks for a witness only; its iterates do not
    depend on ``tol``.  W itself is checked at ``validate_process``'s
    defaults, whatever ``tol``.
    """
    _check_tol(tol)
    _check_int(max_iter, "max_iter", 1)
    _require_valid(w, "dykstra_separability")
    return _search(w, tol, max_iter)


def check_separability(w: ProcessMatrix, basis_a1, basis_b1, tol: float = DEFAULT_TOL,
                       max_iter: int = 50_000) -> FeasibilityReport:
    """Decide causal separability of W, its inputs measured in the given bases:
    by the constructive split where W is input-diagonal in them, else by
    the search of ``dykstra_separability``, each part of a split weighed by
    its own trace.  A split that fails verification raises
    :class:`DecompositionError` and is not retried, as the search could pass
    it only at a looser tolerance; an invalid W (checked at ``validate_process``'s
    defaults, whatever ``tol``) or ``max_iter`` raises ``ValueError``."""
    _check_tol(tol)
    _check_int(max_iter, "max_iter", 1)
    try:
        decomposition = constructive_decomposition(w, basis_a1, basis_b1, tol=tol)
    except NotInputDiagonalError as err:  # raised after kappa_split validated W
        return replace(_search(w, tol, max_iter), skip_reason=str(err))
    return FeasibilityReport(SEPARABLE, 0.0, 0, decomposition, path="constructive")


def w0_defining_split(p: float) -> CausalDecomposition:
    """The defining two-part split of :func:`~procmat.process.w0_process`."""
    w_ab, w_ba = (ProcessMatrix(SystemLayout.qubit(), part) for part in _w0_parts(p))
    return CausalDecomposition(float(p), w_ab, w_ba)
