"""A two-party causal game and its evaluation over process matrices.

Alice draws a uniform bit a, Bob draws uniform bits (b, b').  With b' = 0
Bob tries to signal b to Alice (success when Alice's outcome x equals b);
with b' = 1 Alice tries to signal a to Bob (success when Bob's outcome y
equals a).  Any strategy over a process compatible with one fixed causal
order, or a mixture of such, wins with probability at most 3/4, since at
most one signaling direction can work at a time.  The OCB process of
``process`` exceeds that bound, and loses the ability to do so once its
inputs are dephased.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .instruments import Instrument, cq_instrument, probability_table
from .process import ProcessMatrix

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)  # the x basis as columns
_P = tuple(np.diag(e) for e in np.eye(2))  # the z projectors |k><k|


@dataclass(frozen=True)
class CausalGame:
    """Finite game over uniform classical inputs with a success predicate.

    ``success(a, b, b_prime, x, y)`` decides one round; the classical bound
    is a reference value, checked by tests rather than enforced here.
    """

    alice_inputs: tuple[int, ...]
    bob_inputs: tuple[tuple[int, int], ...]
    success: Callable[[int, int, int, int, int], bool]
    classical_bound: float


@dataclass(frozen=True)
class Strategy:
    """Per-party choice of instrument as a function of the classical inputs."""

    name: str
    alice: Callable[[int], Instrument]
    bob: Callable[[int, int], Instrument]


@dataclass(frozen=True)
class GameResult:
    value: float
    per_condition: tuple[tuple[tuple[int, int, int], float], ...]
    strategy: str


def ocb_game() -> CausalGame:
    """The guess-your-neighbour style signaling game with bound 3/4."""
    def success(a: int, b: int, b_prime: int, x: int, y: int) -> bool:
        return x == b if b_prime == 0 else y == a

    return CausalGame(
        alice_inputs=(0, 1),
        bob_inputs=tuple(itertools.product((0, 1), (0, 1))),
        success=success,
        classical_bound=0.75,
    )


def evaluate_game(w: ProcessMatrix, game: CausalGame, strategy: Strategy) -> GameResult:
    """Exact expected success probability of a strategy, no sampling.

    Instruments' outcome indices are read as the parties' announced bits.
    """
    conditions = []
    total = 0.0
    n_conditions = len(game.alice_inputs) * len(game.bob_inputs)
    for a in game.alice_inputs:
        instr_a = strategy.alice(a)
        for b, b_prime in game.bob_inputs:
            instr_b = strategy.bob(b, b_prime)
            table = probability_table(w, instr_a, instr_b).entries
            win = sum(float(table[x, y]) for x, y in np.ndindex(table.shape) if game.success(a, b, b_prime, x, y))
            conditions.append(((a, b, b_prime), win))
            total += win
    value = total / n_conditions
    return GameResult(value, tuple(conditions), strategy.name)


@lru_cache(maxsize=None)
def _alice_relay(a: int, g1: int) -> Instrument:
    """Measure z (outcome x), reprepare the z state encoding a xor g1."""
    return cq_instrument(np.eye(2), np.eye(2), [_P[a ^ g1]] * 2)


@lru_cache(maxsize=None)
def _bob_read(g2: int) -> Instrument:
    """Measure z, report the outcome (relabeled by g2), reprepare mixed."""
    return cq_instrument(np.eye(2), np.eye(2)[[y ^ g2 for y in range(2)]], [np.eye(2) / 2] * 2)


@lru_cache(maxsize=None)
def _bob_send(b: int, g3: int, g4: int) -> Instrument:
    """Measure x (outcome e), reprepare the z state encoding b xor g3*e xor g4."""
    return cq_instrument(_HADAMARD, np.eye(2), [_P[b ^ (g3 * e) ^ g4] for e in range(2)])


def ocb_strategy_family() -> tuple[Strategy, ...]:
    """Sixteen sign variants of the fixed-structure strategy for :func:`ocb_game`.

    Alice always measures z and re-encodes her bit in the z basis; Bob reads
    in z when b' = 1 and signals through an x measurement when b' = 0.  The
    four bits (g1, g2, g3, g4) flip Alice's encoding, Bob's readout and the
    e-dependence and offset of Bob's encoding.
    """
    strategies = []
    for g1, g2, g3, g4 in itertools.product((0, 1), repeat=4):
        def alice(a: int, g1=g1) -> Instrument:
            return _alice_relay(a, g1)

        def bob(b: int, b_prime: int, g2=g2, g3=g3, g4=g4) -> Instrument:
            return _bob_read(g2) if b_prime == 1 else _bob_send(b, g3, g4)

        strategies.append(Strategy(f"g{g1}{g2}{g3}{g4}", alice, bob))
    return tuple(strategies)


def enumerate_strategies(w: ProcessMatrix, game: CausalGame,
                         family: Sequence[Strategy] | None = None) -> GameResult:
    """Best result over a finite strategy family, ties broken by family order."""
    strategies = tuple(family) if family is not None else ocb_strategy_family()
    if not strategies:
        raise ValueError("strategy family is empty")
    # max keeps the first of equal values.
    return max((evaluate_game(w, game, strategy) for strategy in strategies), key=lambda r: r.value)
