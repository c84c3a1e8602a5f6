"""Bipartite process-matrix space.

A process matrix links two laboratories, each with an input and an output
system; the factor order is fixed as (A1, A2, B1, B2) = (Alice in, Alice
out, Bob in, Bob out).  Beyond positivity and a fixed trace, a process
matrix is constrained to a linear span described here as a mask over
Hilbert-Schmidt term patterns: the subset of factors on which a product
basis term is traceless ("nontrivial").  Allowed patterns are exactly those
that keep at least one output trivial and tie each nontrivial output to the
other party's input, which rules out causal loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .tensor import (
    _eigvalsh,
    check_factor_dims,
    hermitian_basis,
    hermitian_eig,
    hs_decompose,
    hs_reconstruct,
    require_hermitian,
)

A1, A2, B1, B2 = 0, 1, 2, 3
FACTOR_NAMES = ("A1", "A2", "B1", "B2")

_GENERAL_PATTERNS = frozenset(
    frozenset(p)
    for p in [
        (),
        (A1,),
        (B1,),
        (A1, B1),
        (A2, B1),
        (A1, A2, B1),
        (A1, B2),
        (A1, B1, B2),
    ]
)

MASK_VARIANTS = ("general", "a_before_b", "b_before_a")


@dataclass(frozen=True)
class TermMask:
    """Predicate over nontrivial-factor patterns of Hilbert-Schmidt terms."""

    variant: str
    allowed: frozenset[frozenset[int]]

    def allows(self, pattern: Iterable[int]) -> bool:
        return frozenset(pattern) in self.allowed


def allowed_term_mask(variant: str = "general") -> TermMask:
    """Mask of allowed term patterns: ``general``, ``a_before_b`` or ``b_before_a``.

    ``a_before_b`` keeps only terms trivial on Bob's output (no signaling from
    Bob to Alice); ``b_before_a`` is the mirror image.
    """
    if variant == "general":
        return TermMask(variant, _GENERAL_PATTERNS)
    if variant == "a_before_b":
        return TermMask(variant, frozenset(p for p in _GENERAL_PATTERNS if B2 not in p))
    if variant == "b_before_a":
        return TermMask(variant, frozenset(p for p in _GENERAL_PATTERNS if A2 not in p))
    raise ValueError(f"unknown mask variant {variant!r}; expected one of {MASK_VARIANTS}")


@dataclass(frozen=True)
class SystemLayout:
    """Dimensions of the four factors (A1, A2, B1, B2)."""

    d_a1: int = 2
    d_a2: int = 2
    d_b1: int = 2
    d_b2: int = 2

    def __post_init__(self):
        for name, d in zip(FACTOR_NAMES, self.dims):
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d <= 0:
                raise ValueError(f"dimension {name} must be a positive integer, got {d!r}")

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


@lru_cache(maxsize=None)
def _allowed_coefficient_mask(dims: tuple[int, ...], variant: str) -> np.ndarray:
    """Boolean array over HS coefficient indices: True where the pattern is allowed."""
    mask = allowed_term_mask(variant)
    shape = tuple(d * d for d in dims)
    out = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        out[idx] = mask.allows(f for f, t in enumerate(idx) if t != 0)
    out.setflags(write=False)
    return out


def _offending_patterns(coeffs: np.ndarray, dims: tuple[int, ...], variant: str, tol: float):
    """Forbidden patterns carrying a coefficient above ``tol``, with max magnitude."""
    allowed = _allowed_coefficient_mask(dims, variant)
    worst: dict[tuple[str, ...], float] = {}
    bad = np.argwhere(~allowed & (np.abs(coeffs) >= tol))
    for idx in bad:
        pattern = tuple(FACTOR_NAMES[f] for f, t in enumerate(idx) if t != 0)
        magnitude = abs(float(coeffs[tuple(idx)]))
        worst[pattern] = max(worst.get(pattern, 0.0), magnitude)
    return tuple(sorted(worst.items()))


@lru_cache(maxsize=None)
def _hs_plan(dims: tuple[int, ...]):
    """Pairing order and tables T_A = kron(tab_A1, tab_A2) / prod(dims),
    T_B^T = kron(tab_B1, tab_B2)^T over the tables of ``hs_decompose``.

    Validity checks only: ``hs_decompose``, ``hs_reconstruct`` and
    ``random_process`` keep the one-factor-at-a-time path, since this one
    rounds differently (by about 1e-17) and would change every generated
    process.
    """
    tables = [hermitian_basis(d).transpose(0, 2, 1).reshape(d * d, d * d) for d in dims]
    pairs = (0,) + tuple(1 + k for f in range(len(dims)) for k in (f, len(dims) + f))
    return pairs, np.kron(tables[0], tables[1]) / math.prod(dims), np.kron(tables[2], tables[3]).T


def _hs_coefficients(m: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Flat HS coefficients of each member of a stack, C = T_A paired(M) T_B^T."""
    pairs, t_a, t_b = _hs_plan(dims)
    paired = m.reshape((-1,) + dims * 2).transpose(pairs).reshape(len(m), len(t_a), len(t_b))
    return (t_a @ paired @ t_b).real.reshape(len(m), len(t_a) * len(t_b))


@lru_cache(maxsize=None)
def _forbidden_index(dims: tuple[int, ...], variant: str) -> np.ndarray:
    """Flat indices of the HS coefficients on patterns that ``variant`` forbids."""
    return np.flatnonzero(~_allowed_coefficient_mask(dims, variant))


def _validate_stack(layout: SystemLayout, mats: np.ndarray, tol: float, variants, psd_tol: float | None):
    """Validity reports of a ``(k, n, n)`` stack, member i checked against ``variants[i]``.

    One Hermiticity check, one eigensolve and one HS expansion serve the
    whole stack.  Only a member whose largest forbidden coefficient reaches
    ``tol`` has its offending patterns collected, from ``hs_decompose``, so
    the reported magnitudes are exactly that function's.
    """
    dims = layout.dims
    if psd_tol is None:
        psd_tol = 1e-9 * layout.d_total
    min_eigs = _eigvalsh(mats)[:, 0].tolist()  # the stack's one Hermiticity check
    m = np.asarray(mats, dtype=complex)
    reports = []
    for mi, min_eig, c, variant in zip(m, min_eigs, _hs_coefficients(m, dims), variants):
        offending = ()
        if np.abs(c[_forbidden_index(dims, variant)]).max(initial=0.0) >= tol:
            offending = _offending_patterns(hs_decompose(mi, dims).coefficients, dims, variant, tol)
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
    return _validate_stack(w.layout, w.matrix[None], tol, (variant,), psd_tol)[0]


def project_to_valid_span(
    matrix,
    layout: SystemLayout,
    variant: str = "general",
    normalize: bool = False,
) -> np.ndarray:
    """Orthogonal projection onto the span of allowed Hilbert-Schmidt terms.

    Zeroes every coefficient on a forbidden pattern; idempotent.  With
    ``normalize`` the all-identity coefficient is pinned so the output trace
    equals ``layout.target_trace``.
    """
    m = require_hermitian(matrix)
    dec = hs_decompose(m, layout.dims)
    coeffs = dec.coefficients.copy()
    coeffs[~_allowed_coefficient_mask(layout.dims, variant)] = 0.0
    if normalize:
        coeffs[(0,) * len(layout.dims)] = layout.target_trace / layout.d_total
    return hs_reconstruct(type(dec)(layout.dims, coeffs))


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
    m = np.kron(
        np.kron(np.eye(layout.d_a1, dtype=complex) / layout.d_a1, link),
        np.eye(layout.d_b2, dtype=complex),
    )
    return ProcessMatrix(layout, m)


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
    evals, _ = hermitian_eig(traceless)
    min_eig = float(evals[0])
    if abs(min_eig) < 1e-12:
        return identity_process(layout)
    t = strength / (layout.d * abs(min_eig))
    m = (np.eye(side, dtype=complex) + t * traceless) / layout.d
    return ProcessMatrix(layout, m)
