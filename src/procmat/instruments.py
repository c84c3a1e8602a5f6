"""Local operations as Choi-Jamiolkowski matrices and the generalized Born rule.

A party's operation with outcome k is a completely positive map stored as a
CJ matrix on input (x) output, input factor first.  The convention is

    cj = transpose of (id (x) map)(|1>><<1|),   |1>> = sum_j |jj>,

so measuring |phi1> and repreparing |phi2> gives exactly
|phi1><phi1| (x) transpose(|phi2><phi2|).  Instruments collect one CP map
per outcome; summing the outcomes of a proper instrument yields a
trace-preserving map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .process import ProcessMatrix
from .tensor import (IMAG_TOL, INSTRUMENT_TOL, ORTHONORMALITY_TOL, ZERO_TOL, _check_int, _check_real, _check_tol,
                     _eigvalsh, _kron, as_basis, as_square_matrix, partial_trace)


class NumericIntegrityError(ArithmeticError):
    """A quantity that must be real came out with a significant imaginary part."""


def _require_cp(cj: np.ndarray) -> None:
    """Every CJ matrix of a ``(..., side, side)`` stack must be positive to ``INSTRUMENT_TOL``."""
    worst = float(_eigvalsh(cj)[..., 0].min())
    if worst < -INSTRUMENT_TOL:
        raise ValueError(f"cj is not completely positive: min eigenvalue {worst:.3e}")


@dataclass(frozen=True)
class CPMap:
    """One instrument outcome: a completely positive map in CJ form."""

    input_dim: int
    output_dim: int
    cj: np.ndarray

    def __post_init__(self):
        for name in ("input_dim", "output_dim"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        m = as_square_matrix(self.cj, "cj")
        side = self.input_dim * self.output_dim
        if m.shape != (side, side):
            raise ValueError(f"cj has shape {m.shape}, expected {(side, side)}")
        _require_cp(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "cj", m)


@dataclass(frozen=True)
class Instrument:
    """Ordered CP maps sharing dimensions, one per outcome.

    Completeness (the outcome sum being trace preserving) is reported by
    :func:`check_instrument` rather than enforced here, so that defective
    instruments can be constructed and diagnosed.
    """

    outcomes: tuple[CPMap, ...]

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise ValueError("instrument needs at least one outcome")
        first = outcomes[0]
        for k, m in enumerate(outcomes):
            if (m.input_dim, m.output_dim) != (first.input_dim, first.output_dim):
                raise ValueError(f"outcome {k} has dimensions {(m.input_dim, m.output_dim)}, "
                                 f"expected {(first.input_dim, first.output_dim)}")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def input_dim(self) -> int:
        return self.outcomes[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.outcomes[0].output_dim

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class InstrumentReport:
    """Complete-positivity and completeness diagnostics for an instrument."""

    outcome_min_eigenvalues: tuple[float, ...]
    completeness_residual: float
    cp_ok: bool
    complete: bool
    overall: bool


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint outcome probabilities p(i, j) for one instrument pair."""

    entries: np.ndarray

    def __post_init__(self):
        e = _check_real(self.entries, "entries")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def total(self) -> float:
        return float(self.entries.sum())


def cj_from_kraus(kraus: Sequence[np.ndarray], input_dim: int, output_dim: int) -> CPMap:
    """CJ matrix of the CP map with the given Kraus operators."""
    input_dim, output_dim = _check_int(input_dim, "input_dim", 1), _check_int(output_dim, "output_dim", 1)
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    for k, op in enumerate(ops):
        if op.shape != (output_dim, input_dim):
            raise ValueError(f"Kraus operator {k} has shape {op.shape}, "
                             f"expected {(output_dim, input_dim)}")
    choi = np.zeros((input_dim * output_dim, input_dim * output_dim), dtype=complex)
    for op in ops:
        # (id (x) K) |1>> laid out with the input factor first.
        vec = op.T.reshape(-1)
        choi += np.outer(vec, vec.conj())
    return CPMap(input_dim, output_dim, choi.T)


def measure_reprepare(phi1, phi2) -> CPMap:
    """Projective measurement of |phi1> followed by repreparation of |phi2>."""
    v1 = np.asarray(phi1, dtype=complex).reshape(-1)
    v2 = np.asarray(phi2, dtype=complex).reshape(-1)
    for name, v in (("phi1", v1), ("phi2", v2)):
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"{name} must be a unit vector, got norm {norm:.12f}")
    return cj_from_kraus([np.outer(v2, v1.conj())], v1.size, v2.size)


def classical_instrument(p, basis_in, basis_out) -> Instrument:
    """Instrument diagonal in fixed input and output bases: the cq instrument
    with outcomes (k, t), coarse-grained over t.

    ``p[k, t, l]`` is the probability of outcome k and output block |b_t><b_t|,
    b_t column t of ``basis_out`` (so conj(b_t) is reprepared), given input
    basis state l; each column over l must be a distribution over (k, t).
    Both bases pass :func:`as_basis` at the table's dimensions.
    """
    table = _check_real(p, "p")
    if table.ndim != 3:
        raise ValueError(f"p must have shape (outcomes, outputs, inputs), got {table.shape}")
    n_out, d_out, d_in = table.shape
    bin_m, bout_m = as_basis(basis_in, d_in).vectors, as_basis(basis_out, d_out).vectors
    states = np.einsum("it,jt->tij", bout_m, bout_m.conj())
    maps = _cq_maps(bin_m, table.reshape(-1, d_in), np.tile(states, (n_out, 1, 1)))
    return Instrument(tuple(CPMap(d_in, d_out, cj) for cj in maps.reshape((n_out, d_out) + maps.shape[1:]).sum(1)))


def cq_instrument(basis_in, p, states: Sequence[np.ndarray]) -> Instrument:
    """Instrument measuring the input in a fixed basis with arbitrary repreparations.

    ``p[i, n]`` is the probability of outcome i given input basis state n,
    ``basis_in`` passing :func:`as_basis` at the table's input dimension, and
    ``states[i]`` the density matrix reprepared on that outcome, stored as
    given (callers fix the output transpose when matching the Kraus-level
    convention against complex states).
    """
    table = _check_real(p, "p")
    if table.ndim != 2:
        raise ValueError(f"p must have shape (outcomes, inputs), got {table.shape}")
    n_out, d_in = table.shape
    if len(states) != n_out:
        raise ValueError(f"expected {n_out} states, got {len(states)}")
    basis = as_basis(basis_in, d_in).vectors
    rhos = np.stack([as_square_matrix(rho, f"states[{i}]") for i, rho in enumerate(states)])
    maps = _cq_maps(basis, table, rhos)
    not_psd = np.flatnonzero(_eigvalsh(rhos)[:, 0] < -INSTRUMENT_TOL)
    if not_psd.size:
        raise ValueError(f"states[{not_psd[0]}] is not positive semidefinite")
    return Instrument(tuple(CPMap(d_in, rhos.shape[-1], cj) for cj in maps))


def _cq_maps(basis: np.ndarray, table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """CJ matrices kron(sum_n p[..., i, n] |n><n|, states[..., i]) of checked, stacked cq instruments."""
    if np.any(table < -ZERO_TOL):
        raise ValueError("probabilities must be nonnegative")
    if not (np.abs(table.sum(axis=-2) - 1.0) <= INSTRUMENT_TOL).all():
        raise ValueError("p must be column stochastic: each column must sum to 1 over outcomes")
    traces = np.trace(states, axis1=-2, axis2=-1)
    bad = np.argwhere((np.abs(traces.real - 1.0) > INSTRUMENT_TOL) | (np.abs(traces.imag) > INSTRUMENT_TOL))
    if bad.size:
        raise ValueError(f"states[{bad[0, -1]}] must have unit trace")
    weights = np.einsum("...in,jn,kn->...ijk", table, basis, basis.conj())
    side = basis.shape[0] * states.shape[-1]
    return np.einsum("...ijk,...iab->...ijakb", weights, states).reshape(states.shape[:-2] + (side, side))


def check_instrument(instrument: Instrument, tol: float = INSTRUMENT_TOL) -> InstrumentReport:
    """Report per-outcome positivity and the trace-preservation residual."""
    _check_tol(tol)
    min_eigs = [float(e) for e in _eigvalsh(np.stack([m.cj for m in instrument.outcomes]))[:, 0]]
    total = sum(m.cj for m in instrument.outcomes)
    reduced = partial_trace(total, (instrument.input_dim, instrument.output_dim), keep={0})
    residual = float(np.linalg.norm(reduced - np.eye(instrument.input_dim)))
    cp_ok = all(e >= -tol for e in min_eigs)
    complete = residual <= tol
    return InstrumentReport(
        outcome_min_eigenvalues=tuple(min_eigs),
        completeness_residual=residual,
        cp_ok=cp_ok,
        complete=complete,
        overall=cp_ok and complete,
    )


def _check_layout(w: ProcessMatrix, alice: tuple[int, int], bob: tuple[int, int]) -> None:
    """Alice's and Bob's (input, output) dimensions must fit the process layout."""
    lay = w.layout
    for name, got, expected in (("Alice", alice, (lay.d_a1, lay.d_a2)), ("Bob", bob, (lay.d_b1, lay.d_b2))):
        if got != expected:
            raise ValueError(f"{name} map has dimensions {got}, layout expects {expected}")


def _real_probabilities(values: np.ndarray) -> np.ndarray:
    worst = float(np.max(np.abs(values.imag)))
    if worst > IMAG_TOL:
        raise NumericIntegrityError(f"Born probability has imaginary part {worst:.3e} beyond {IMAG_TOL:.1e}")
    return values.real


def born_probability(w: ProcessMatrix, m_a: CPMap, m_b: CPMap) -> float:
    """Joint probability Tr[W (M_A (x) M_B)] for one outcome pair; reference for ``probability_table``."""
    _check_layout(w, (m_a.input_dim, m_a.output_dim), (m_b.input_dim, m_b.output_dim))
    return float(_real_probabilities(np.einsum("ij,ji->", w.matrix, _kron((m_a.cj, m_b.cj)))))


def _born_tables(w: np.ndarray, cj_a: np.ndarray, cj_b: np.ndarray) -> np.ndarray:
    """Born tables p[..., i, j] of ``(..., side, side)`` matrices for ``(..., outcomes, d, d)`` CJ stacks.

    With alpha = A1 A2 and beta = B1 B2, p(i, j) = sum W[alpha beta, alpha' beta']
    M_A^i[alpha', alpha] M_B^j[beta', beta]: two matrix products over all
    outcome pairs, batched over the broadcast leading axes.
    """
    d_a, d_b = cj_a.shape[-1], cj_b.shape[-1]
    a = cj_a.swapaxes(-1, -2).reshape(cj_a.shape[:-2] + (d_a * d_a,))
    b = np.moveaxis(cj_b.swapaxes(-1, -2), -3, -1).reshape(cj_b.shape[:-3] + (d_b * d_b, cj_b.shape[-3]))
    lead = w.shape[:-2]
    pairs = w.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -2).reshape(lead + (d_a * d_a, d_b * d_b))
    return _real_probabilities(a @ pairs @ b)


def probability_table(w: ProcessMatrix, instr_a: Instrument, instr_b: Instrument) -> ProbabilityTable:
    """All pairwise Born probabilities for two instruments, as one contraction."""
    _check_layout(w, (instr_a.input_dim, instr_a.output_dim), (instr_b.input_dim, instr_b.output_dim))
    cj_a, cj_b = (np.stack([m.cj for m in instr.outcomes]) for instr in (instr_a, instr_b))
    return ProbabilityTable(_born_tables(w.matrix, cj_a, cj_b))


def _cq_born_tables(ws: Sequence[ProcessMatrix], party_a, party_b) -> np.ndarray:
    """Born tables ``(len(ws), samples, n_a, n_b)`` of checked per-party cq stacks ``(basis, tables, states)``."""
    maps = [_cq_maps(*party) for party in (party_a, party_b)]
    for cj in maps:
        _require_cp(cj)
    for w in ws:
        _check_layout(w, *((basis.shape[0], states.shape[-1]) for basis, _, states in (party_a, party_b)))
    return _born_tables(np.stack([w.matrix for w in ws])[:, None], *maps)
