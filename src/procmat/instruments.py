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
from .tensor import as_square_matrix, hermitian_eig, partial_trace

COMPLETENESS_TOL = 1e-9
CP_TOL = 1e-9
IMAG_TOL = 1e-10


class NumericIntegrityError(ArithmeticError):
    """A quantity that must be real came out with a significant imaginary part."""


@dataclass(frozen=True)
class CPMap:
    """One instrument outcome: a completely positive map in CJ form."""

    input_dim: int
    output_dim: int
    cj: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.cj, "cj")
        side = self.input_dim * self.output_dim
        if m.shape != (side, side):
            raise ValueError(f"cj has shape {m.shape}, expected {(side, side)}")
        evals, _ = hermitian_eig(m)
        if evals[0] < -CP_TOL:
            raise ValueError(f"cj is not completely positive: min eigenvalue {evals[0]:.3e}")
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
        e = np.asarray(self.entries, dtype=float).copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def total(self) -> float:
        return float(self.entries.sum())


def cj_from_kraus(kraus: Sequence[np.ndarray], input_dim: int, output_dim: int) -> CPMap:
    """CJ matrix of the CP map with the given Kraus operators."""
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
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"{name} must be a unit vector, got norm {norm:.12f}")
    return cj_from_kraus([np.outer(v2, v1.conj())], v1.size, v2.size)


def classical_instrument(p, basis_in, basis_out) -> Instrument:
    """Instrument diagonal in fixed input and output bases.

    ``p[k, t, l]`` is the probability of outcome k and repreparation of
    basis state t given input basis state l; each column over l must be a
    probability distribution over (k, t).
    """
    table = np.asarray(p, dtype=float)
    if table.ndim != 3:
        raise ValueError(f"p must have shape (outcomes, outputs, inputs), got {table.shape}")
    n_out, d_out, d_in = table.shape
    bin_m = np.asarray(basis_in, dtype=complex)
    bout_m = np.asarray(basis_out, dtype=complex)
    if bin_m.shape != (d_in, d_in) or bout_m.shape != (d_out, d_out):
        raise ValueError("basis shapes do not match the probability table")
    if np.any(table < -1e-12):
        raise ValueError("probabilities must be nonnegative")
    col_sums = table.sum(axis=(0, 1))
    if not np.allclose(col_sums, 1.0, atol=1e-9):
        raise ValueError(f"columns of p must sum to 1, got sums {col_sums}")

    in_proj = np.einsum("il,jl->lij", bin_m, bin_m.conj())
    out_proj = np.einsum("it,jt->tij", bout_m, bout_m.conj())
    maps = []
    for k in range(n_out):
        cj = np.einsum("tl,lij,tmn->imjn", table[k], in_proj, out_proj).reshape(
            d_in * d_out, d_in * d_out
        )
        maps.append(CPMap(d_in, d_out, cj))
    return Instrument(tuple(maps))


def cq_instrument(basis_in, p, states: Sequence[np.ndarray]) -> Instrument:
    """Instrument measuring the input in a fixed basis with arbitrary repreparations.

    ``p[i, n]`` is the probability of outcome i given input basis state n and
    ``states[i]`` the density matrix reprepared on that outcome, stored as
    given (callers fix the output transpose when matching the Kraus-level
    convention against complex states).
    """
    table = np.asarray(p, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"p must have shape (outcomes, inputs), got {table.shape}")
    n_out, d_in = table.shape
    if len(states) != n_out:
        raise ValueError(f"expected {n_out} states, got {len(states)}")
    basis = np.asarray(basis_in, dtype=complex)
    if basis.shape != (d_in, d_in):
        raise ValueError(f"basis has shape {basis.shape}, expected {(d_in, d_in)}")
    if np.any(table < -1e-12):
        raise ValueError("probabilities must be nonnegative")
    if not np.allclose(table.sum(axis=0), 1.0, atol=1e-9):
        raise ValueError("p must be column stochastic: sums over outcomes must be 1")

    rhos = []
    for i, rho in enumerate(states):
        r = as_square_matrix(rho, f"states[{i}]")
        if abs(np.trace(r).real - 1.0) > 1e-9 or abs(np.trace(r).imag) > 1e-9:
            raise ValueError(f"states[{i}] must have unit trace")
        evals, _ = hermitian_eig(r)
        if evals[0] < -1e-9:
            raise ValueError(f"states[{i}] is not positive semidefinite")
        rhos.append(r)
    d_out = rhos[0].shape[0]

    maps = []
    for i in range(n_out):
        weights = np.einsum("n,jn,kn->jk", table[i], basis, basis.conj())
        maps.append(CPMap(d_in, d_out, np.kron(weights, rhos[i])))
    return Instrument(tuple(maps))


def check_instrument(instrument: Instrument, tol: float = COMPLETENESS_TOL) -> InstrumentReport:
    """Report per-outcome positivity and the trace-preservation residual."""
    min_eigs = []
    for m in instrument.outcomes:
        evals, _ = hermitian_eig(m.cj)
        min_eigs.append(float(evals[0]))
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


def _check_layout(w: ProcessMatrix, alice, bob) -> None:
    """Alice's and Bob's maps (or instruments) must fit the process layout."""
    lay = w.layout
    for name, op, expected in (("Alice", alice, (lay.d_a1, lay.d_a2)), ("Bob", bob, (lay.d_b1, lay.d_b2))):
        got = (op.input_dim, op.output_dim)
        if got != expected:
            raise ValueError(f"{name} map has dimensions {got}, layout expects {expected}")


def _real_probabilities(values: np.ndarray) -> np.ndarray:
    worst = float(np.max(np.abs(values.imag)))
    if worst > IMAG_TOL:
        raise NumericIntegrityError(f"Born probability has imaginary part {worst:.3e} beyond {IMAG_TOL:.1e}")
    return values.real


def born_probability(w: ProcessMatrix, m_a: CPMap, m_b: CPMap) -> float:
    """Joint probability Tr[W (M_A (x) M_B)] for one outcome pair; reference for ``probability_table``."""
    _check_layout(w, m_a, m_b)
    return float(_real_probabilities(np.einsum("ij,ji->", w.matrix, np.kron(m_a.cj, m_b.cj))))


def probability_table(w: ProcessMatrix, instr_a: Instrument, instr_b: Instrument) -> ProbabilityTable:
    """All pairwise Born probabilities for two instruments.

    With alpha = A1 A2 and beta = B1 B2, p(i, j) = sum W[alpha beta, alpha' beta']
    M_A^i[alpha', alpha] M_B^j[beta', beta]: two matrix products over all outcome pairs.
    """
    _check_layout(w, instr_a, instr_b)
    d_a = instr_a.input_dim * instr_a.output_dim
    d_b = instr_b.input_dim * instr_b.output_dim
    cj_a = np.stack([m.cj for m in instr_a.outcomes]).transpose(0, 2, 1).reshape(len(instr_a), -1)
    cj_b = np.stack([m.cj for m in instr_b.outcomes]).transpose(2, 1, 0).reshape(-1, len(instr_b))
    w_pairs = w.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
    return ProbabilityTable(_real_probabilities(cj_a @ w_pairs @ cj_b))
