import itertools

import numpy as np
import pytest

from procmat import (
    Instrument,
    MeasurementBasis,
    ProcessMatrix,
    Strategy,
    channel_process,
    cj_from_kraus,
    enumerate_strategies,
    evaluate_game,
    identity_process,
    luders_input_dephase,
    measure_reprepare,
    ocb_game,
    ocb_process,
    ocb_strategy_family,
    validate_process,
)
from procmat.games import _alice_relay, _bob_read, _bob_send

E = np.eye(2, dtype=complex)
Z2 = MeasurementBasis.computational(2)
OCB_VALUE = (2.0 + np.sqrt(2.0)) / 4.0


def guess_strategy():
    """Input-independent strategy: measure z, reprepare the ground state."""
    instr = Instrument(tuple(measure_reprepare(E[:, x], E[:, 0]) for x in range(2)))
    return Strategy("guess", lambda a: instr, lambda b, bp: instr)


def _kraus_strategy_instruments():
    """Reference: the 14 strategy instruments from Kraus operators, with their builder and arguments."""
    z, x = E, np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

    def read(direction):  # project onto one z state, output maximally mixed
        return cj_from_kraus([np.outer(z[:, k], z[:, direction]) / np.sqrt(2.0) for k in range(2)], 2, 2)

    cases = [(_alice_relay, (a, g1), [measure_reprepare(z[:, o], z[:, a ^ g1]) for o in range(2)])
             for a, g1 in itertools.product((0, 1), repeat=2)]
    cases += [(_bob_read, (g2,), [read(y ^ g2) for y in range(2)]) for g2 in (0, 1)]
    cases += [(_bob_send, (b, g3, g4), [measure_reprepare(x[:, e], z[:, b ^ (g3 * e) ^ g4]) for e in range(2)])
              for b, g3, g4 in itertools.product((0, 1), repeat=3)]
    return cases


KRAUS_CASES = _kraus_strategy_instruments()


class TestStrategyInstruments:
    """The strategy instruments come from the cq builder and equal their Kraus construction."""

    @pytest.mark.parametrize("build, args, reference", KRAUS_CASES,
                             ids=[build.__name__ + "".join(map(str, args)) for build, args, _ in KRAUS_CASES])
    def test_matches_kraus_construction(self, build, args, reference):
        built = np.stack([m.cj for m in build(*args).outcomes])
        expected = np.stack([m.cj for m in reference])
        assert np.abs(built - expected).max() <= 4 * np.finfo(float).eps


class TestOcbProcess:
    def test_valid_with_zero_min_eigenvalue(self):
        report = validate_process(ocb_process())
        assert report.overall
        assert abs(report.min_eigenvalue) < 1e-9

    def test_dephasing_removes_back_signaling_term(self):
        from procmat import hs_decompose

        eff = luders_input_dephase(ocb_process(), Z2, Z2)
        dec = hs_decompose(eff.matrix.matrix, (2, 2, 2, 2))
        assert abs(dec.coefficients[3, 0, 1, 3]) < 1e-12  # the A1-B1-B2 term is gone
        assert dec.coefficients[0, 3, 3, 0] == pytest.approx(1 / (4 * np.sqrt(2)))


class TestEvaluateGame:
    def test_guessing_on_identity_process(self):
        result = evaluate_game(identity_process(), ocb_game(), guess_strategy())
        assert result.value == pytest.approx(0.5, abs=1e-12)

    def test_input_independent_strategies_never_beat_chance(self):
        result = evaluate_game(ocb_process(), ocb_game(), guess_strategy())
        assert result.value == pytest.approx(0.5, abs=1e-10)

    def test_per_condition_entries_cover_all_inputs(self):
        result = evaluate_game(identity_process(), ocb_game(), guess_strategy())
        assert len(result.per_condition) == 8
        assert all(0.0 <= v <= 1.0 + 1e-12 for _, v in result.per_condition)

    def test_linearity_in_process(self):
        game = ocb_game()
        strategy = ocb_strategy_family()[2]
        w1 = ocb_process()
        w2 = identity_process()
        mix = ProcessMatrix(w1.layout, 0.25 * w1.matrix + 0.75 * w2.matrix)
        v_mix = evaluate_game(mix, game, strategy).value
        v_split = 0.25 * evaluate_game(w1, game, strategy).value + 0.75 * evaluate_game(
            w2, game, strategy
        ).value
        assert abs(v_mix - v_split) < 1e-10


class TestEnumerateStrategies:
    def test_ocb_reaches_quantum_value(self):
        best = enumerate_strategies(ocb_process(), ocb_game())
        assert best.value == pytest.approx(OCB_VALUE, abs=1e-9)

    def test_identity_process_stays_at_chance(self):
        best = enumerate_strategies(identity_process(), ocb_game())
        assert best.value == pytest.approx(0.5, abs=1e-10)

    def test_dephased_ocb_respects_causal_bound(self):
        eff = luders_input_dephase(ocb_process(), Z2, Z2)
        best = enumerate_strategies(eff.matrix, ocb_game())
        assert best.value <= 0.75 + 1e-9

    def test_perfect_channel_reaches_classical_bound(self):
        best = enumerate_strategies(channel_process(), ocb_game())
        assert best.value == pytest.approx(0.75, abs=1e-9)

    def test_perfect_channel_value_exact(self):
        assert abs(enumerate_strategies(channel_process(), ocb_game()).value - 0.75) <= 1e-15

    def test_ocb_tie_goes_to_family_order(self):
        # g0010 and g1110 reach the same value exactly; g0010 comes first in the family.
        w, game = ocb_process(), ocb_game()
        best = enumerate_strategies(w, game)
        family = {s.name: s for s in ocb_strategy_family()}
        assert best.strategy == "g0010"
        assert evaluate_game(w, game, family["g1110"]).value == best.value

    def test_dephasing_monotonicity_on_ocb(self):
        w = ocb_process()
        eff = luders_input_dephase(w, Z2, Z2)
        before = enumerate_strategies(w, ocb_game()).value
        after = enumerate_strategies(eff.matrix, ocb_game()).value
        assert after <= before + 1e-9

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            enumerate_strategies(identity_process(), ocb_game(), family=())

    def test_family_has_sixteen_variants(self):
        family = ocb_strategy_family()
        assert len(family) == 16
        assert len({s.name for s in family}) == 16


def random_cq_strategy(seed):
    """Input-dependent strategy built from random fixed-basis instruments."""
    from procmat import random_cq_instrument

    def build(*tag):
        rng = np.random.default_rng((seed, *tag))
        return random_cq_instrument(Z2, 2, rng)

    alice = {a: build(0, a) for a in (0, 1)}
    bob = {(b, bp): build(1, b, bp) for b in (0, 1) for bp in (0, 1)}
    return Strategy(f"cq-{seed}", lambda a: alice[a], lambda b, bp: bob[(b, bp)])


class TestNoisyFixtureValue:
    """Blending the violating fixture with noise scales the best value as
    (1 + q / sqrt 2) / 2, so the causal bound is crossed exactly at the
    visibility where causal separations stop existing."""

    @pytest.mark.parametrize("q", [0.3, 1.0 / np.sqrt(2.0), 0.8, 1.0])
    def test_value_scales_linearly_with_visibility(self, q):
        ocb = ocb_process()
        blend = ProcessMatrix(
            ocb.layout, q * ocb.matrix + (1.0 - q) * identity_process().matrix
        )
        best = enumerate_strategies(blend, ocb_game())
        assert best.value == pytest.approx(0.5 * (1.0 + q / np.sqrt(2.0)), abs=1e-10)


class TestSeparableProcessesRespectBound:
    """Causally separable matrices never beat 3/4, over the built-in family
    and a spread of random fixed-basis strategies."""

    @pytest.mark.parametrize("source_seed", [None, 13, 29])
    def test_bound_holds(self, source_seed):
        from procmat import dykstra_separability, random_process

        if source_seed is None:
            w = luders_input_dephase(ocb_process(), Z2, Z2).matrix
        else:
            w = luders_input_dephase(random_process(source_seed), Z2, Z2).matrix
        assert dykstra_separability(w, tol=1e-8).status == "separable"
        game = ocb_game()
        best = enumerate_strategies(w, game).value
        for seed in range(100):
            best = max(best, evaluate_game(w, game, random_cq_strategy(seed)).value)
        assert best <= 0.75 + 1e-6
