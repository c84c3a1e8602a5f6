"""Bipartite process-matrix space.

A process matrix links two laboratories, each with an input and an output
system; the factor order is fixed as (A1, A2, B1, B2) = (Alice in, Alice
out, Bob in, Bob out).  Beyond positivity and a fixed trace, a process
matrix is constrained to a linear span described here as a mask over
Hilbert-Schmidt term patterns: the subset of factors on which a product
basis term is traceless ("nontrivial").  Allowed patterns are exactly those
that keep at least one output trivial and tie each nontrivial output to the
other party's input, which rules out causal loops.  One projector,
``_span_project``, built from trace-and-replace maps, serves every span:
the one-way spans directly and the general span through
``project_to_valid_span``.  Validity checks expand matrices with the HS plan
of ``tensor``.  Every named fixture, OCB and ``w0`` included, is built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from typing import Iterable

import numpy as np

from .tensor import (_EYE2, _SIGMA_X, _SIGMA_Z, _check_int, _eigvalsh, _hs_coefficients, _kron,
                     check_factor_dims, require_hermitian)

A1, A2, B1, B2 = 0, 1, 2, 3
FACTOR_NAMES = ("A1", "A2", "B1", "B2")

MASK_VARIANTS = ("general", "a_before_b", "b_before_a")
_ORDERS = {"a_before_b": (A1, A2, B1, B2), "b_before_a": (B1, B2, A1, A2)}  # X < Y as (X1, X2, Y1, Y2)


@dataclass(frozen=True)
class TermMask:
    """Predicate over nontrivial-factor patterns of Hilbert-Schmidt terms."""

    variant: str
    allowed: frozenset[frozenset[int]]

    def allows(self, pattern: Iterable[int]) -> bool:
        return frozenset(pattern) in self.allowed


def _allows(pattern: frozenset[int], order: tuple[int, ...]) -> bool:
    """X < Y, ``order`` (X1, X2, Y1, Y2), allows patterns trivial on Y2 that hold X2 only with Y1."""
    _, x2, y1, y2 = order
    return y2 not in pattern and (x2 not in pattern or y1 in pattern)


@lru_cache(maxsize=None)
def allowed_term_mask(variant: str = "general") -> TermMask:
    """Mask of allowed term patterns: ``general``, ``a_before_b`` or ``b_before_a``.

    ``a_before_b`` allows no signaling from Bob to Alice, ``b_before_a`` is
    the mirror image and ``general`` allows either order.
    """
    if variant not in MASK_VARIANTS:
        raise ValueError(f"unknown mask variant {variant!r}; expected one of {MASK_VARIANTS}")
    patterns = (frozenset(f for f in range(4) if bits >> f & 1) for bits in range(16))
    general = frozenset(p for p in patterns if any(_allows(p, order) for order in _ORDERS.values()))
    if variant == "general":
        return TermMask(variant, general)
    return TermMask(variant, frozenset(p for p in general if _allows(p, _ORDERS[variant])))


@dataclass(frozen=True)
class SystemLayout:
    """Dimensions of the four factors (A1, A2, B1, B2)."""

    d_a1: int = 2
    d_a2: int = 2
    d_b1: int = 2
    d_b2: int = 2

    def __post_init__(self):
        for name, d in zip(FACTOR_NAMES, self.dims):
            _check_int(d, f"dimension {name}", 1)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.d_a1, self.d_a2, self.d_b1, self.d_b2)

    @property
    def d(self) -> int:
        """Normalization dimension: product of the two input dimensions."""
        return self.d_a1 * self.d_b1

    @property
    def d_total(self) -> int:
        return math.prod(self.dims)

    @property
    def target_trace(self) -> int:
        """Trace every valid process matrix must carry."""
        return self.d_a2 * self.d_b2

    @classmethod
    def qubit(cls) -> "SystemLayout":
        return cls(2, 2, 2, 2)


@dataclass(frozen=True)
class ProcessMatrix:
    """A Hermitian operator on (A1, A2, B1, B2) together with its layout.

    Construction checks shape and Hermiticity only and stores the exact
    Hermitian part of the matrix; positivity, trace and term structure are
    the business of :func:`validate_process`.
    """

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix, name="process matrix")
        check_factor_dims(m, self.layout.dims, name="process matrix")
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _exact(cls, layout: SystemLayout, m: np.ndarray) -> "ProcessMatrix":
        """An unchecked process over ``m``, which the library built finite,
        of the layout's shape and exactly Hermitian."""
        m.setflags(write=False)
        w = object.__new__(cls)
        object.__setattr__(w, "layout", layout)
        object.__setattr__(w, "matrix", m)
        return w

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the three process-matrix checks, with diagnostics."""

    is_psd: bool
    min_eigenvalue: float
    trace_ok: bool
    trace_value: float
    mask_ok: bool
    offending_terms: tuple[tuple[tuple[str, ...], float], ...]
    overall: bool


_PSD_FLOOR = 1e-9  # per unit of side: the default positivity floor is -1e-9 * side


@lru_cache(maxsize=None)
def _allowed_coefficient_mask(dims: tuple[int, ...], variant: str) -> np.ndarray:
    """Boolean array over HS coefficient indices: True where the pattern is allowed.

    Index t of a factor is nontrivial when t > 0; the nontrivial factors of
    every index, as bits, look up a table over all 2^n patterns.
    """
    allowed = allowed_term_mask(variant).allowed
    n = len(dims)
    table = np.array([frozenset(f for f in range(n) if bits >> f & 1) in allowed for bits in range(1 << n)])
    grids = np.ix_(*(np.arange(d * d) for d in dims))
    out = table[sum((g > 0).astype(np.intp) << f for f, g in enumerate(grids))]
    out.setflags(write=False)
    return out


def _offending_patterns(coeffs: np.ndarray, dims: tuple[int, ...], variant: str, tol: float):
    """Forbidden patterns carrying a coefficient above ``tol``, with max magnitude."""
    allowed = _allowed_coefficient_mask(dims, variant)
    worst: dict[tuple[str, ...], float] = {}
    bad = np.argwhere(~allowed & (np.abs(coeffs) > tol))
    for idx in bad:
        pattern = tuple(FACTOR_NAMES[f] for f, t in enumerate(idx) if t != 0)
        magnitude = abs(float(coeffs[tuple(idx)]))
        worst[pattern] = max(worst.get(pattern, 0.0), magnitude)
    return tuple(sorted(worst.items()))


@lru_cache(maxsize=None)
def _forbidden_index(dims: tuple[int, ...], variant: str) -> np.ndarray:
    """Flat indices of the HS coefficients on patterns that ``variant`` forbids."""
    return np.flatnonzero(~_allowed_coefficient_mask(dims, variant))


def _check_tol(tol, psd_tol=None) -> None:
    """Reject a bool, a non-number, or a NaN, infinite or negative tolerance; 0 is allowed."""
    for name, value in (("tol", tol), ("psd_tol", psd_tol)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, (Real, np.ndarray))
                                  or not 0.0 <= value < math.inf):
            raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")


def _validate_stack(layout: SystemLayout, mats: np.ndarray, tol: float, variants, psd_tol: float | None):
    """Validity reports of a ``(k, n, n)`` stack, member i checked against ``variants[i]``.

    Every member is the ``matrix`` of a :class:`ProcessMatrix`, which is
    exactly Hermitian: ``ProcessMatrix._exact`` takes only matrices built so,
    and the constructor stores (M + M^dag) / 2, exact in floating point.  So
    the stack goes to ``eigvalsh`` as it is, with the same minimal eigenvalues as
    :func:`~procmat.tensor._eigvalsh`.  One eigensolve and one HS expansion
    serve the whole stack; only a member whose largest forbidden coefficient
    exceeds ``tol`` has its offending patterns collected, from those
    coefficients.  Its callers check ``tol`` and ``psd_tol``.
    """
    dims = layout.dims
    if psd_tol is None:
        psd_tol = _PSD_FLOOR * layout.d_total
    m = np.asarray(mats, dtype=complex)
    min_eigs = np.linalg.eigvalsh(m)[:, 0].tolist()
    shape = tuple(d * d for d in dims)
    reports = []
    for mi, min_eig, c, variant in zip(m, min_eigs, _hs_coefficients(m, dims), variants):
        offending = ()
        if np.abs(c[_forbidden_index(dims, variant)]).max(initial=0.0) > tol:
            offending = _offending_patterns(c.reshape(shape), dims, variant, tol)
        trace_value = float(np.trace(mi).real)
        is_psd = min_eig >= -psd_tol
        trace_ok = abs(trace_value - layout.target_trace) <= tol
        reports.append(ValidityReport(is_psd, min_eig, trace_ok, trace_value, not offending, offending,
                                      is_psd and trace_ok and not offending))
    return reports


def validate_process(
    w: ProcessMatrix,
    tol: float = 1e-8,
    variant: str = "general",
    psd_tol: float | None = None,
) -> ValidityReport:
    """Check positivity, trace and term structure of a process matrix.

    ``tol`` bounds the trace deviation and the magnitude of forbidden
    Hilbert-Schmidt coefficients.  The positivity floor defaults to
    ``1e-9 * side`` to leave headroom for eigensolver accuracy.
    """
    _check_tol(tol, psd_tol)
    return _validate_stack(w.layout, w.matrix[None], tol, (variant,), psd_tol)[0]


@lru_cache(maxsize=None)
def _span_plan(dims: tuple[int, ...], variant: str):
    """Axis orders, shapes and the (X2, Y1) matrix of ``_span_project``.

    Read as one vector index, a factor's (row, column) pair carries R_F as
    the projector vec(1) vec(1)^T / d_F, so 1 - R_Y1 (1 - R_X2) is one real
    matrix of (d_X2 d_Y1)^4 floats.  Axis 0 runs over the members of a stack.
    """
    order = _ORDERS[variant]
    pairs = (0,) + tuple(1 + axis for f in order for axis in (f, f + 4))
    x1, x2, y1, y2 = (dims[f] for f in order)
    e_x2, e_y1 = (np.outer(np.eye(d), np.eye(d)) / d for d in (x2, y1))
    middle = np.eye((x2 * y1) ** 2) - _kron((np.eye(x2 * x2) - e_x2, e_y1))
    unit = np.eye(y2, dtype=complex).reshape(-1) / math.sqrt(y2)
    split = (-1,) + tuple((dims * 2)[axis - 1] for axis in pairs[1:])
    return pairs, tuple(np.argsort(pairs)), (-1, x1 * x1, len(middle), y2 * y2), split, middle, unit


def _span_project(m: np.ndarray, dims: tuple[int, ...], variant: str) -> np.ndarray:
    """Projection of ``m`` (or of each member of a stack) onto the span
    allowed for the causal order X < Y.

    ``a_before_b`` has X = A, Y = B; ``b_before_a`` swaps the parties.  The
    projection is R_Y2 (1 - R_Y1 (1 - R_X2)) with the trace-and-replace maps
    R_F(m) = Tr_F(m) (x) 1_F / d_F (Araujo et al., NJP 17, 102001 (2015)).
    One transpose pairs each factor's row and column index; R_Y2 is the
    contraction with vec(1) / sqrt(d_Y2) and the outer product back.
    """
    pairs, back, shape, split, middle, unit = _span_plan(dims, variant)
    t = m.reshape((-1,) + dims * 2).transpose(pairs).reshape(shape)
    # The real middle matrix acts on the real and imaginary parts alike.
    r = (middle @ (t @ unit).view(np.float64).reshape(t.shape[:3] + (2,))).view(complex)
    return (r * unit).reshape(split).transpose(back).reshape(m.shape)


def project_to_valid_span(matrix, layout: SystemLayout, variant: str = "general") -> np.ndarray:
    """Orthogonal projection onto the span of allowed Hilbert-Schmidt terms; idempotent.

    The one-way variants are :func:`_span_project`.  ``general`` is
    L_AB + L_BA (1 - L_AB): the HS-term spans are coordinate subspaces, so
    the two one-way projectors commute and this projects onto their sum.
    """
    m = require_hermitian(matrix)
    dims = check_factor_dims(m, layout.dims)
    m = (m + m.conj().T) / 2.0  # the span is real: project the Hermitian part only
    allowed_term_mask(variant)  # raises on an unknown variant
    if variant != "general":
        return _span_project(m, dims, variant)
    ab = _span_project(m, dims, "a_before_b")
    return ab + _span_project(m - ab, dims, "b_before_a")


def identity_process(layout: SystemLayout | None = None) -> ProcessMatrix:
    """The maximally noisy process (1/d) * identity."""
    layout = layout or SystemLayout.qubit()
    return ProcessMatrix(layout, np.eye(layout.d_total, dtype=complex) / layout.d)


def channel_process(layout: SystemLayout | None = None) -> ProcessMatrix:
    """Identity channel from Alice's output into Bob's input.

    Alice's input is fed the maximally mixed state and Bob's output is
    discarded; requires matching dimensions d_a2 == d_b1.
    """
    layout = layout or SystemLayout.qubit()
    if layout.d_a2 != layout.d_b1:
        raise ValueError(f"identity channel needs d_a2 == d_b1, got {layout.d_a2} and {layout.d_b1}")
    d = layout.d_a2
    # Unnormalized maximally entangled operator sum_pq |p><q| x |p><q| = |1>><<1|.
    vec = np.eye(d, dtype=complex).reshape(-1)
    link = np.outer(vec, vec)
    m = _kron((np.eye(layout.d_a1, dtype=complex) / layout.d_a1, link, np.eye(layout.d_b2, dtype=complex)))
    return ProcessMatrix(layout, m)


def ocb_process() -> ProcessMatrix:
    """Qubit fixture violating the causal game bound (Oreshkov et al., Nat. Commun. 3, 1092 (2012)).

    One quarter of identity plus two mutually anticommuting correlation
    terms weighted by 1/sqrt(2): a channel-like coupling of Alice's output
    to Bob's input and a back-signaling term coupling Bob's output to
    Alice's input.
    """
    term_channel = _kron([_EYE2, _SIGMA_Z, _SIGMA_Z, _EYE2])
    term_back = _kron([_SIGMA_Z, _EYE2, _SIGMA_X, _SIGMA_Z])
    m = (np.eye(16, dtype=complex) + (term_channel + term_back) / math.sqrt(2.0)) / 4.0
    return ProcessMatrix(SystemLayout.qubit(), m)


def w0_process(p: float) -> ProcessMatrix:
    """Qubit fixture: a causally separable mixture whose defining terms do not commute.

    Mixes, with weight ``p``, a process trivial on Bob's output against one
    trivial on Alice's output.  No nontrivial shared eigenbasis of the two
    defining terms exists, so the blockwise constructive route does not
    apply, yet the defining split itself witnesses separability.
    """
    w_ab, w_ba = _w0_parts(p)
    return ProcessMatrix(SystemLayout.qubit(), p * w_ab + (1.0 - p) * w_ba)


def _w0_parts(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The parts (1 + term) / d of :func:`w0_process`, A < B first, once ``p`` is checked to lie
    in [0, 1]; real and symmetric, so exactly Hermitian as they are."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    eye = np.eye(16, dtype=complex)
    term_ab, term_ba = w0_defining_terms()
    return (eye + term_ab) / 4, (eye + term_ba) / 4


def w0_defining_terms() -> tuple[np.ndarray, np.ndarray]:
    """The two nontrivial operators defining :func:`w0_process`, for inspection."""
    term_ab = -_kron([_SIGMA_Z, _SIGMA_Z, _SIGMA_X, _EYE2])
    term_ba = 0.5 * _kron([_SIGMA_Z, _EYE2, _EYE2, _SIGMA_X]) + 0.5 * _kron([_SIGMA_X, _EYE2, _SIGMA_X, _SIGMA_Z])
    return term_ab, term_ba


def random_process(seed: int, layout: SystemLayout | None = None, strength: float = 0.9) -> ProcessMatrix:
    """Seeded random valid process matrix.

    A Gaussian Hermitian matrix is projected onto the allowed span, its
    traceless part G is rescaled by t = strength / (d * |min eig of G|) and
    the result is (1/d)(identity + t G).  ``strength`` in (0, 1) keeps the
    matrix positive; a degenerate draw (G = 0) falls back to the identity
    process.
    """
    if not 0.0 < strength < 1.0:
        raise ValueError(f"strength must lie in (0, 1), got {strength}")
    layout = layout or SystemLayout.qubit()
    rng = np.random.default_rng(seed)
    side = layout.d_total
    raw = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    herm = (raw + raw.conj().T) / 2.0
    projected = project_to_valid_span(herm, layout)
    traceless = projected - np.trace(projected) / side * np.eye(side)
    min_eig = float(_eigvalsh(traceless)[0])
    if abs(min_eig) < 1e-12:
        return identity_process(layout)
    t = strength / (layout.d * abs(min_eig))
    m = (np.eye(side, dtype=complex) + t * traceless) / layout.d
    return ProcessMatrix(layout, m)
