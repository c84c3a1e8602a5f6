import re
import warnings

import numpy as np
import pytest

from procmat import (
    CPMap,
    Instrument,
    MeasurementBasis,
    ProbabilityTable,
    SystemLayout,
    born_probability,
    channel_process,
    check_instrument,
    cj_from_kraus,
    classical_instrument,
    cq_instrument,
    identity_process,
    measure_reprepare,
    probability_table,
    random_process,
)

from procmat.instruments import _cq_born_tables

from conftest import EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z, random_cptp_instrument

E = np.eye(2, dtype=complex)


class TestCjFromKraus:
    def test_rank_one_measure_reprepare_form(self):
        phi1 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        phi2 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        cj = cj_from_kraus([np.outer(phi2, phi1.conj())], 2, 2).cj
        expected = np.kron(np.outer(phi1, phi1.conj()), np.outer(phi2, phi2.conj()).T)
        assert np.allclose(cj, expected, atol=1e-14)

    def test_identity_channel_is_complete(self):
        instr = Instrument((cj_from_kraus([E], 2, 2),))
        report = check_instrument(instr)
        assert report.overall
        assert report.completeness_residual < 1e-12

    def test_depolarizing_kraus_set(self):
        kraus = [0.5 * EYE2, 0.5 * SIGMA_X, 0.5 * SIGMA_Y, 0.5 * SIGMA_Z]
        cj = cj_from_kraus(kraus, 2, 2).cj
        assert np.allclose(cj, np.eye(4) / 2.0, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cj_from_kraus([np.ones((3, 2))], 2, 2)


class TestMeasureReprepare:
    def test_ground_state_projector(self):
        cj = measure_reprepare(E[:, 0], E[:, 0]).cj
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(cj, expected)

    def test_complex_repreparation_transposed(self):
        phi2 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        cj = measure_reprepare(E[:, 0], phi2).cj
        output_block = cj[:2, :2]
        assert np.allclose(output_block, np.outer(phi2, phi2.conj()).T)

    def test_equals_kraus_route_exactly(self):
        phi1 = np.array([1.0, 2.0j], dtype=complex) / np.sqrt(5)
        phi2 = np.array([2.0, -1.0], dtype=complex) / np.sqrt(5)
        direct = measure_reprepare(phi1, phi2).cj
        via_kraus = cj_from_kraus([np.outer(phi2, phi1.conj())], 2, 2).cj
        assert np.array_equal(direct, via_kraus)

    def test_orthogonal_completion_is_complete(self):
        phi1 = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
        phi1_perp = np.array([-np.sin(0.3), np.cos(0.3)], dtype=complex)
        instr = Instrument((
            measure_reprepare(phi1, E[:, 0]),
            measure_reprepare(phi1_perp, E[:, 1]),
        ))
        assert check_instrument(instr).overall

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            measure_reprepare(np.array([1.0, 1.0]), E[:, 0])


class TestClassicalInstrument:
    def test_identity_relay(self):
        p = np.zeros((1, 2, 2))
        p[0, 0, 0] = p[0, 1, 1] = 1.0
        instr = classical_instrument(p, np.eye(2), np.eye(2))
        relay = np.zeros((4, 4), dtype=complex)
        relay[0, 0] = relay[3, 3] = 1.0
        assert np.allclose(instr.outcomes[0].cj, relay)
        assert check_instrument(instr).overall

    def test_uniform_noise_gives_identity_cj(self):
        n_out, d_out, d_in = 2, 2, 2
        p = np.full((n_out, d_out, d_in), 1.0 / (n_out * d_out))
        instr = classical_instrument(p, np.eye(2), np.eye(2))
        assert len(instr) == n_out
        for outcome in instr.outcomes:
            assert np.allclose(outcome.cj, np.eye(4) / 4.0)
        assert check_instrument(instr).overall

    def test_random_stochastic_table(self, rng):
        raw = rng.uniform(0.05, 1.0, size=(3, 2, 2))
        p = raw / raw.sum(axis=(0, 1))
        instr = classical_instrument(p, np.eye(2), np.eye(2))
        assert check_instrument(instr).overall

    def test_non_stochastic_rejected(self):
        p = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            classical_instrument(p, np.eye(2), np.eye(2))

    @pytest.mark.parametrize("offset, accepted", [(5e-6, False), (5e-10, True)], ids=["5e-6", "5e-10"])
    def test_column_sums_held_to_1e_9(self, offset, accepted):
        p = np.full((2, 2, 2), 0.25)
        p[0, 0, 0] += offset
        if accepted:
            assert check_instrument(classical_instrument(p, np.eye(2), np.eye(2))).overall
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                classical_instrument(p, np.eye(2), np.eye(2))

    def test_output_block_is_the_basis_projector(self):
        # The output block of outcome (k, t) is |b_t><b_t| itself, so under the
        # CJ convention the reprepared state is conj(b_t), not b_t.
        b = MeasurementBasis.random(2, seed=3).vectors
        relay = np.zeros((1, 2, 2))
        relay[0, 0, 0] = relay[0, 1, 1] = 1.0
        cj = classical_instrument(relay, E, b).outcomes[0].cj
        conj_route = sum(measure_reprepare(E[:, t], b[:, t].conj()).cj for t in range(2))
        plain_route = sum(measure_reprepare(E[:, t], b[:, t]).cj for t in range(2))
        assert np.abs(cj - conj_route).max() <= 1e-15
        assert np.abs(cj - plain_route).max() > 0.1

    def test_matches_outcome_sum_over_basis_projectors(self, rng):
        # sum_(t, l) p[k, t, l] |u_l><u_l| (x) |b_t><b_t| in Haar-random bases.
        raw = rng.uniform(0.05, 1.0, size=(3, 2, 3))
        p = raw / raw.sum(axis=(0, 1))
        bases = MeasurementBasis.random(3, seed=1), MeasurementBasis.random(2, seed=2)
        u, b = (basis.vectors for basis in bases)
        instr = classical_instrument(p, u, b)
        for k, outcome in enumerate(instr.outcomes):
            expected = sum(p[k, t, l] * np.kron(np.outer(u[:, l], u[:, l].conj()), np.outer(b[:, t], b[:, t].conj()))
                           for t in range(2) for l in range(3))
            assert np.abs(outcome.cj - expected).max() <= 1e-15
        assert check_instrument(instr).overall
        # A MeasurementBasis is its vectors.
        wrapped = classical_instrument(p, *bases)
        assert all(np.array_equal(x.cj, y.cj) for x, y in zip(wrapped.outcomes, instr.outcomes))


class TestCqInstrument:
    def test_delta_table_matches_classical_relay(self):
        p = np.eye(2)
        states = [np.outer(E[:, i], E[:, i].conj()) for i in range(2)]
        instr = cq_instrument(np.eye(2), p, states)
        table = np.zeros((1, 2, 2))
        table[0, 0, 0] = table[0, 1, 1] = 1.0
        relay = classical_instrument(table, np.eye(2), np.eye(2))
        total_cq = sum(m.cj for m in instr.outcomes)
        total_relay = sum(m.cj for m in relay.outcomes)
        assert np.allclose(total_cq, total_relay)

    def test_single_outcome_tensor_structure(self, rng):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        instr = cq_instrument(np.eye(2), np.ones((1, 2)), [rho])
        assert np.allclose(instr.outcomes[0].cj, np.kron(np.eye(2), rho))
        assert check_instrument(instr).overall
        # A MeasurementBasis is its vectors.
        wrapped = cq_instrument(MeasurementBasis.computational(2), np.ones((1, 2)), [rho])
        assert np.array_equal(wrapped.outcomes[0].cj, instr.outcomes[0].cj)

    def test_random_cq_instrument_valid(self, rng):
        raw = rng.uniform(0.1, 1.0, size=(3, 2))
        p = raw / raw.sum(axis=0)
        states = []
        for _ in range(3):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho).real)
        report = check_instrument(cq_instrument(np.eye(2), p, states))
        assert report.overall

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError, match="unit trace"):
            cq_instrument(np.eye(2), np.ones((1, 2)), [np.eye(2)])

    def test_non_positive_state_rejected(self):
        states = [np.eye(2) / 2.0, np.diag([1.5, -0.5])]
        with pytest.raises(ValueError, match=r"states\[1\] is not positive semidefinite"):
            cq_instrument(np.eye(2), np.full((2, 2), 0.5), states)

    def test_non_stochastic_table_rejected(self):
        with pytest.raises(ValueError, match="column stochastic"):
            cq_instrument(np.eye(2), np.full((2, 2), 0.7), [np.eye(2) / 2.0] * 2)

    @pytest.mark.parametrize("offset, accepted", [(5e-6, False), (5e-10, True)], ids=["5e-6", "5e-10"])
    def test_column_sums_held_to_1e_9(self, offset, accepted):
        # An offset of 5e-6 lies inside np.allclose's default rtol of 1e-5,
        # and check_instrument would then report the instrument incomplete.
        p = np.full((2, 2), 0.5)
        p[0, 0] += offset
        if accepted:
            assert check_instrument(cq_instrument(np.eye(2), p, [np.eye(2) / 2.0] * 2)).overall
        else:
            with pytest.raises(ValueError, match="column stochastic"):
                cq_instrument(np.eye(2), p, [np.eye(2) / 2.0] * 2)


class TestComplexTables:
    """A probability table with a nonzero imaginary part is rejected, not cast
    to its real part; a complex table whose imaginary parts are all 0 is its
    real part, with no warning."""

    BUILDERS = {
        "cq": lambda p: cq_instrument(np.eye(2), p, [np.eye(2) / 2.0] * 2),
        "classical": lambda p: classical_instrument(p.reshape(2, 1, 2), np.eye(2), np.eye(1)),
    }

    @pytest.mark.parametrize("builder", BUILDERS, ids=list(BUILDERS))
    def test_nonzero_imaginary_part_rejected(self, builder):
        with pytest.raises(ValueError, match="^p must be real, got a nonzero imaginary part$"):
            self.BUILDERS[builder]((1.0 + 0.3j) * np.eye(2))

    @pytest.mark.parametrize("builder", BUILDERS, ids=list(BUILDERS))
    def test_zero_imaginary_part_is_the_real_table(self, builder):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.BUILDERS[builder]((1.0 + 0.0j) * np.eye(2))
        want = self.BUILDERS[builder](np.eye(2))
        assert all(np.array_equal(g.cj, w.cj) for g, w in zip(got.outcomes, want.outcomes))

    def test_probability_table_entries(self):
        with pytest.raises(ValueError, match="^entries must be real, got a nonzero imaginary part$"):
            ProbabilityTable(np.array([[0.5 + 0.5j, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = ProbabilityTable(np.array([[0.5 + 0.0j, 0.5]]))
        assert table.entries.dtype == float and np.array_equal(table.entries, [[0.5, 0.5]])


class TestStackedCqTables:
    """The stacked sampler path checks every sample's instruments as ``cq_instrument`` does."""

    def parties(self, rng, samples=3):
        raw = rng.uniform(0.1, 1.0, size=(samples, 2, 2))
        tables = raw / raw.sum(axis=-2, keepdims=True)
        states = np.broadcast_to(np.eye(2) / 2.0, (samples, 2, 2, 2)).astype(complex)
        return [np.eye(2), tables, states.copy()], [np.eye(2), tables.copy(), states.copy()]

    def test_matches_probability_table(self, rng):
        party_a, party_b = self.parties(rng)
        w = random_process(5)
        tables = _cq_born_tables((w,), party_a, party_b)
        for k in range(3):
            instr_a = cq_instrument(party_a[0], party_a[1][k], party_a[2][k])
            instr_b = cq_instrument(party_b[0], party_b[1][k], party_b[2][k])
            assert np.max(np.abs(tables[0, k] - probability_table(w, instr_a, instr_b).entries)) <= 1e-14

    def test_non_positive_map_in_one_sample_rejected(self, rng):
        party_a, party_b = self.parties(rng)
        party_b[2][2, 1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="not completely positive"):
            _cq_born_tables((random_process(5),), party_a, party_b)

    def test_non_unit_trace_state_rejected(self, rng):
        party_a, party_b = self.parties(rng)
        party_a[2][1, 0] = np.eye(2)
        with pytest.raises(ValueError, match=r"states\[0\] must have unit trace"):
            _cq_born_tables((random_process(5),), party_a, party_b)

    def test_non_stochastic_table_rejected(self, rng):
        party_a, party_b = self.parties(rng)
        party_b[1][0] = 0.7
        with pytest.raises(ValueError, match="column stochastic"):
            _cq_born_tables((random_process(5),), party_a, party_b)

    def test_column_sum_off_by_5e_6_rejected(self, rng):
        party_a, party_b = self.parties(rng)
        party_a[1][1, 0, 0] += 5e-6
        with pytest.raises(ValueError, match="column stochastic"):
            _cq_born_tables((random_process(5),), party_a, party_b)


class TestCqKrausConsistency:
    """The fixed-basis form stores repreparations as given, while the Kraus
    route transposes the output block; the two conventions agree on real
    states and match exactly once the transpose is applied."""

    def _kraus_route(self, p, rho):
        evals, vecs = np.linalg.eigh(rho)
        kraus = []
        for n in range(2):
            for k in range(2):
                if evals[k] <= 0:
                    continue
                weight = np.sqrt(p[0, n] * evals[k])
                kraus.append(weight * np.outer(vecs[:, k], E[:, n].conj()))
        return cj_from_kraus(kraus, 2, 2)

    def test_real_state_agrees(self, rng):
        p = np.ones((1, 2))
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        direct = cq_instrument(np.eye(2), p, [rho]).outcomes[0]
        via_kraus = self._kraus_route(p, rho)
        assert np.allclose(direct.cj, via_kraus.cj, atol=1e-12)

    def test_complex_state_needs_transpose(self, rng):
        p = np.ones((1, 2))
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        via_kraus = self._kraus_route(p, rho)
        adjusted = cq_instrument(np.eye(2), p, [rho.T]).outcomes[0]
        assert np.allclose(adjusted.cj, via_kraus.cj, atol=1e-12)
        # and the Born rule then agrees on every process
        w = random_process(77)
        probe = measure_reprepare(E[:, 0], E[:, 0])
        assert born_probability(w, adjusted, probe) == pytest.approx(
            born_probability(w, via_kraus, probe), abs=1e-12
        )


class TestCheckInstrument:
    def test_single_unitary_kraus_complete(self, rng):
        from conftest import random_hermitian

        _, u = np.linalg.eigh(random_hermitian(rng, 2))
        report = check_instrument(Instrument((cj_from_kraus([u], 2, 2),)))
        assert report.completeness_residual < 1e-12

    def test_two_outcome_z_measurement_passes(self):
        instr = Instrument(tuple(measure_reprepare(E[:, x], E[:, 0]) for x in range(2)))
        assert check_instrument(instr).overall

    def test_missing_outcome_reports_residual(self):
        instr = Instrument((measure_reprepare(E[:, 0], E[:, 0]),))
        report = check_instrument(instr)
        assert not report.complete
        assert report.completeness_residual == pytest.approx(1.0)

    def test_random_kraus_instruments_pass(self, rng):
        for _ in range(3):
            instr = random_cptp_instrument(rng, 2, 2, 3)
            assert check_instrument(instr, tol=1e-10).overall

    def test_zero_tolerance_is_valid(self):
        report = check_instrument(Instrument((measure_reprepare(E[:, 0], E[:, 0]),)), tol=0.0)
        assert report.cp_ok and not report.complete


class TestBornProbability:
    def test_maximally_mixed_process(self):
        w = identity_process()
        m_a = measure_reprepare(E[:, 0], E[:, 1])
        m_b = measure_reprepare(E[:, 1], E[:, 0])
        assert born_probability(w, m_a, m_b) == pytest.approx(0.25)

    def test_identity_channel_transmits_basis_states(self):
        w = channel_process()
        for sent in range(2):
            for read in range(2):
                total = sum(
                    born_probability(
                        w,
                        measure_reprepare(E[:, x], E[:, sent]),
                        measure_reprepare(E[:, read], E[:, 0]),
                    )
                    for x in range(2)
                )
                assert total == pytest.approx(1.0 if read == sent else 0.0, abs=1e-12)

    def test_linearity_in_process(self):
        w1 = random_process(1)
        w2 = random_process(2)
        from procmat import ProcessMatrix

        mix = ProcessMatrix(w1.layout, 0.3 * w1.matrix + 0.7 * w2.matrix)
        m_a = measure_reprepare(E[:, 0], E[:, 0])
        m_b = measure_reprepare(E[:, 1], E[:, 1])
        mixed = born_probability(mix, m_a, m_b)
        parts = 0.3 * born_probability(w1, m_a, m_b) + 0.7 * born_probability(w2, m_a, m_b)
        assert abs(mixed - parts) < 1e-10

    def test_dimension_mismatch(self):
        w = identity_process()
        wrong = cj_from_kraus([np.ones((3, 3)) / np.sqrt(3)], 3, 3)
        with pytest.raises(ValueError, match="dimensions"):
            born_probability(w, wrong, measure_reprepare(E[:, 0], E[:, 0]))


class TestProbabilityTable:
    def test_identity_process_uniform(self):
        w = identity_process()
        instr = Instrument(tuple(measure_reprepare(E[:, x], E[:, 0]) for x in range(2)))
        table = probability_table(w, instr, instr)
        assert np.allclose(table.entries, 0.25)
        assert table.total == pytest.approx(1.0)

    def test_normalization_for_valid_processes(self, rng):
        for seed in range(3):
            w = random_process(200 + seed)
            instr_a = random_cptp_instrument(rng, 2, 2, 2)
            instr_b = random_cptp_instrument(rng, 2, 2, 3)
            table = probability_table(w, instr_a, instr_b)
            assert abs(table.total - 1.0) < 1e-9
            assert table.entries.min() > -1e-10

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 1)],
                             ids=lambda dims: "-".join(map(str, dims)))
    def test_matches_per_pair_born_rule(self, dims, rng):
        d_a1, d_a2, d_b1, d_b2 = dims
        w = random_process(210, SystemLayout(*dims))
        instr_a = random_cptp_instrument(rng, d_a1, d_a2, 3)
        instr_b = random_cptp_instrument(rng, d_b1, d_b2, 2)
        table = probability_table(w, instr_a, instr_b)
        assert table.entries.shape == (3, 2)
        for i, m_a in enumerate(instr_a.outcomes):
            for j, m_b in enumerate(instr_b.outcomes):
                assert abs(table.entries[i, j] - born_probability(w, m_a, m_b)) <= 1e-14

    def test_dimension_mismatch(self, rng):
        w = identity_process()
        with pytest.raises(ValueError, match="Bob map has dimensions"):
            probability_table(w, random_cptp_instrument(rng, 2, 2, 2), random_cptp_instrument(rng, 3, 2, 2))


STATE = np.eye(2) / 2.0
# Unit columns (1, 0) and (1, 1)/sqrt(2), not orthogonal: Gram defect 1/sqrt(2).
SKEWED = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, np.sqrt(2.0)])
MALFORMED = {
    "cpmap-shape": (lambda: CPMap(2, 2, np.eye(2)), "cj has shape (2, 2), expected (4, 4)"),
    "no-outcomes": (lambda: Instrument(()), "instrument needs at least one outcome"),
    "mixed-dimensions": (lambda: Instrument((measure_reprepare(E[0], E[0]), measure_reprepare(E[0], np.eye(3)[0]))),
                         "outcome 1 has dimensions (2, 3), expected (2, 2)"),
    "no-kraus": (lambda: cj_from_kraus([], 2, 2), "at least one Kraus operator is required"),
    "classical-2d": (lambda: classical_instrument(np.full((2, 2), 0.5), E, E),
                     "p must have shape (outcomes, outputs, inputs), got (2, 2)"),
    "classical-bases": (lambda: classical_instrument(np.full((2, 2, 2), 0.25), np.eye(3), E),
                        "basis has dimension 3, expected 2"),
    "classical-basis-in-skewed": (lambda: classical_instrument(np.full((1, 2, 2), 0.5), SKEWED, E),
                                  "basis is not orthonormal: max Gram defect 7.071e-01"),
    "classical-basis-out-skewed": (lambda: classical_instrument(np.full((1, 2, 2), 0.5), E, SKEWED),
                                   "basis is not orthonormal: max Gram defect 7.071e-01"),
    "classical-basis-nan": (lambda: classical_instrument(np.full((1, 2, 2), 0.5), np.full((2, 2), np.nan), E),
                            "basis has non-finite entries"),
    "classical-negative": (lambda: classical_instrument(np.array([[[1.25, 0.25]], [[-0.25, 0.75]]]), E, np.eye(1)),
                           "probabilities must be nonnegative"),
    "classical-non-stochastic": (lambda: classical_instrument(np.full((2, 2, 2), 0.5), E, E),
                                 "p must be column stochastic: each column must sum to 1 over outcomes"),
    "classical-basis-out-norm": (lambda: classical_instrument(np.full((1, 2, 2), 0.5), E, np.diag([1.0, 1.5])),
                                 "basis is not orthonormal: max Gram defect 1.250e+00"),
    "cq-1d": (lambda: cq_instrument(E, np.full(2, 0.5), [STATE] * 2), "p must have shape (outcomes, inputs), got (2,)"),
    "cq-states": (lambda: cq_instrument(E, np.full((2, 2), 0.5), [STATE]), "expected 2 states, got 1"),
    "cq-basis": (lambda: cq_instrument(np.eye(3), np.full((2, 2), 0.5), [STATE] * 2),
                 "basis has dimension 3, expected 2"),
    "cq-basis-skewed": (lambda: cq_instrument(SKEWED, np.full((2, 2), 0.5), [STATE] * 2),
                        "basis is not orthonormal: max Gram defect 7.071e-01"),
    "cq-basis-nan": (lambda: cq_instrument(np.full((2, 2), np.nan), np.full((2, 2), 0.5), [STATE] * 2),
                     "basis has non-finite entries"),
    "stacked-negative": (lambda: _cq_born_tables((random_process(5),),
                                                 (E, np.array([[[1.25, 0.5], [-0.25, 0.5]]]), np.stack([[STATE] * 2])),
                                                 (E, np.full((1, 2, 2), 0.5), np.stack([[STATE] * 2]))),
                         "probabilities must be nonnegative"),
}


@pytest.mark.parametrize("call, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_operation_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
