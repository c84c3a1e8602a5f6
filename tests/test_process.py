import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procmat import (
    A1,
    A2,
    B1,
    B2,
    ProcessMatrix,
    SystemLayout,
    allowed_term_mask,
    channel_process,
    identity_process,
    measure_reprepare,
    probability_table,
    project_to_valid_span,
    random_process,
    tensor_product,
    validate_process,
)
from procmat import ocb_process
from procmat.process import (
    MASK_VARIANTS,
    _allowed_coefficient_mask,
    _offending_patterns,
    _validate_stack,
)
from procmat.tensor import _eigvalsh, hs_decompose

from conftest import EYE2, SIGMA_Z, mask_projection, random_cptp_instrument, random_hermitian

QUBIT = SystemLayout.qubit()


class TestLayout:
    def test_derived_dimensions(self):
        lay = SystemLayout(3, 2, 3, 2)
        assert lay.d == 9
        assert lay.d_total == 36
        assert lay.target_trace == 4

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            SystemLayout(2, 0, 2, 2)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "3", None], ids=["fraction", "float", "bool", "string", "none"])
    def test_integer_dims_required(self, dim):
        with pytest.raises(ValueError, match="dimension A1 must be an integer of at least 1"):
            SystemLayout(dim, 2, 2, 2)

    def test_numpy_integer_dims_accepted(self):
        lay = SystemLayout(np.int64(3), 2, np.int32(3), 2)
        assert lay == SystemLayout(3, 2, 3, 2)
        assert lay.d_total == 36


# The allowed patterns written out: the reference for the causal-order rule.
GENERAL_PATTERNS = {frozenset(p) for p in [(), (A1,), (B1,), (A1, B1), (A2, B1), (A1, A2, B1), (A1, B2), (A1, B1, B2)]}


class TestTermMask:
    def test_rule_matches_pattern_table(self):
        assert allowed_term_mask("general").allowed == GENERAL_PATTERNS
        assert allowed_term_mask("a_before_b").allowed == {p for p in GENERAL_PATTERNS if B2 not in p}
        assert allowed_term_mask("b_before_a").allowed == {p for p in GENERAL_PATTERNS if A2 not in p}

    def test_general_allows_channel_pattern(self):
        assert allowed_term_mask("general").allows({A2, B1})

    def test_general_rejects_lone_output(self):
        assert not allowed_term_mask("general").allows({A2})
        assert not allowed_term_mask("general").allows({B2})

    def test_ordered_mask_examples(self):
        assert not allowed_term_mask("a_before_b").allows({A1, B1, B2})
        assert allowed_term_mask("b_before_a").allows({A1, B1, B2})

    def test_union_and_intersection(self):
        general = allowed_term_mask("general").allowed
        ab = allowed_term_mask("a_before_b").allowed
        ba = allowed_term_mask("b_before_a").allowed
        assert ab | ba == general
        assert ab & ba == {
            frozenset(), frozenset({A1}), frozenset({B1}), frozenset({A1, B1})
        }

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            allowed_term_mask("sideways")


def _loop_coefficient_mask(dims, variant):
    """Reference: the term mask asked once per HS coefficient index."""
    mask = allowed_term_mask(variant)
    shape = tuple(d * d for d in dims)
    out = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        out[idx] = mask.allows(f for f, t in enumerate(idx) if t != 0)
    return out


class TestAllowedCoefficientMask:
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2), (1, 2, 3, 2), (2, 1, 1, 3), (3, 3, 3, 3)])
    @pytest.mark.parametrize("variant", MASK_VARIANTS)
    def test_matches_loop(self, dims, variant):
        mask = _allowed_coefficient_mask(dims, variant)
        assert mask.dtype == bool
        assert not mask.flags.writeable
        assert np.array_equal(mask, _loop_coefficient_mask(dims, variant))


class TestLoneOutputTermBreaksNormalization:
    """Probability mass leaks for terms the mask forbids, so the mask is
    exactly the operational normalization requirement."""

    def test_a2_only_term_makes_totals_depend_on_alice(self):
        bad = ProcessMatrix(
            QUBIT,
            (np.eye(16) + tensor_product([EYE2, SIGMA_Z, EYE2, EYE2])) / 4.0,
        )
        e = np.eye(2, dtype=complex)
        from procmat import Instrument

        bob = Instrument(tuple(measure_reprepare(e[:, m], e[:, 0]) for m in range(2)))
        alice_zero = Instrument(tuple(measure_reprepare(e[:, x], e[:, 0]) for x in range(2)))
        alice_one = Instrument(tuple(measure_reprepare(e[:, x], e[:, 1]) for x in range(2)))
        total_zero = probability_table(bad, alice_zero, bob).total
        total_one = probability_table(bad, alice_one, bob).total
        assert abs(total_zero - total_one) > 0.5

    def test_output_output_term_breaks_total(self):
        bad = ProcessMatrix(
            QUBIT,
            (np.eye(16) + tensor_product([EYE2, SIGMA_Z, EYE2, SIGMA_Z])) / 4.0,
        )
        e = np.eye(2, dtype=complex)
        from procmat import Instrument

        reprep_zero = lambda: Instrument(
            tuple(measure_reprepare(e[:, k], e[:, 0]) for k in range(2))
        )
        total = probability_table(bad, reprep_zero(), reprep_zero()).total
        assert abs(total - 1.0) > 0.5


class TestValidateProcess:
    def test_identity_process_valid(self):
        report = validate_process(identity_process())
        assert report.overall
        assert report.trace_value == pytest.approx(4.0)

    def test_ocb_valid_with_zero_min_eigenvalue(self):
        report = validate_process(ocb_process())
        assert report.overall
        assert abs(report.min_eigenvalue) < 1e-9

    def test_forbidden_pattern_reported(self):
        w = ProcessMatrix(
            QUBIT,
            (np.eye(16) + tensor_product([EYE2, SIGMA_Z, EYE2, SIGMA_Z])) / 4.0,
        )
        report = validate_process(w)
        assert not report.mask_ok
        assert not report.overall
        patterns = [p for p, _ in report.offending_terms]
        assert ("A2", "B2") in patterns

    def test_wrong_trace_flagged(self):
        report = validate_process(ProcessMatrix(QUBIT, np.eye(16) / 2.0))
        assert not report.trace_ok
        assert report.is_psd

    @pytest.mark.parametrize("make", [identity_process, ocb_process, channel_process])
    def test_exact_fixture_valid_at_zero_tolerance(self, make):
        # tol bounds the forbidden coefficients, so an exact zero is no forbidden term.
        report = validate_process(make(), tol=0.0)
        assert report.overall and report.offending_terms == ()

    def test_rounding_level_forbidden_terms_fail_at_zero_tolerance(self):
        w = random_process(0)
        report = validate_process(w, tol=0.0)
        assert not report.mask_ok
        assert 0.0 < max(magnitude for _, magnitude in report.offending_terms) < 1e-15
        assert validate_process(w).overall


def _reference_report(w, tol, variant, psd_tol):
    """The one-member checks, each through its own reference function."""
    min_eig = float(_eigvalsh(w.matrix)[0])
    trace = float(np.trace(w.matrix).real)
    offending = _offending_patterns(hs_decompose(w.matrix, w.layout.dims).coefficients, w.layout.dims, variant, tol)
    return min_eig >= -psd_tol, min_eig, abs(trace - w.layout.target_trace) <= tol, trace, offending


def _kernel_input(dims, kind, seed):
    """A valid process, or one broken as ``kind`` says."""
    layout = SystemLayout(*dims)
    w = random_process(seed, layout).matrix
    if kind == "hermitian":
        w = random_hermitian(np.random.default_rng(seed), layout.d_total)
    elif kind == "trace-shifted":
        w = w * (1.0 + 1e-3)
    elif kind == "negative-eigenvalue":
        w = w - (np.linalg.eigvalsh(w)[0] + 1e-3) * np.eye(layout.d_total)  # min eigenvalue -1e-3
    return ProcessMatrix(layout, w)


KERNEL_CASES = dict(
    dims=st.tuples(*[st.integers(1, 3)] * 4),
    kind=st.sampled_from(["valid", "hermitian", "trace-shifted", "negative-eigenvalue"]),
    seed=st.integers(0, 2**16),
)


class TestValidateStack:
    """The stacked validity kernel against the one-member reference checks."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(variant=st.sampled_from(MASK_VARIANTS), **KERNEL_CASES)
    def test_matches_reference(self, dims, kind, seed, variant):
        w = _kernel_input(dims, kind, seed)
        report = validate_process(w, variant=variant)
        is_psd, min_eig, trace_ok, trace, offending = _reference_report(w, 1e-8, variant, 1e-9 * w.side)
        assert report.min_eigenvalue == min_eig  # bit-equal
        assert report.trace_value == trace
        assert (report.is_psd, report.trace_ok, report.mask_ok) == (is_psd, trace_ok, not offending)
        assert report.overall == (is_psd and trace_ok and not offending)
        assert [p for p, _ in report.offending_terms] == [p for p, _ in offending]
        for (_, got), (_, want) in zip(report.offending_terms, offending):
            assert abs(got - want) <= 1e-15
        if kind == "valid" and variant == "general":
            assert report.overall
        elif kind == "trace-shifted":
            assert not report.trace_ok
        elif kind == "negative-eigenvalue":
            assert not report.is_psd

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(dims=KERNEL_CASES["dims"], seed=KERNEL_CASES["seed"])
    def test_stacked_equals_single_calls(self, dims, seed):
        kinds = ["valid", "hermitian", "trace-shifted", "negative-eigenvalue"]
        members = [_kernel_input(dims, kind, seed) for kind in kinds]
        variants = [MASK_VARIANTS[i % 3] for i in range(len(members))]
        stacked = _validate_stack(members[0].layout, np.stack([w.matrix for w in members]), 1e-8, variants, None)
        assert stacked == [validate_process(w, variant=v) for w, v in zip(members, variants)]

    def test_empty_stack(self):
        assert _validate_stack(QUBIT, np.zeros((0, 16, 16)), 1e-8, [], None) == []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=KERNEL_CASES["dims"], seed=KERNEL_CASES["seed"], scale=st.floats(0.0, 1e-11))
    def test_process_matrix_is_exactly_hermitian(self, dims, seed, scale):
        # The stacked kernel hands members to eigvalsh unchecked; this is the
        # invariant it relies on, for input carrying an anti-Hermitian part.
        rng = np.random.default_rng(seed)
        side = int(np.prod(dims))
        noise = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        m = random_hermitian(rng, side) + scale * (noise - noise.conj().T) / 2.0
        a = ProcessMatrix(SystemLayout(*dims), m).matrix
        assert np.array_equal(a, a.conj().T)


class TestProjectToValidSpan:
    def test_idempotent_on_valid(self):
        w = ocb_process()
        assert np.allclose(project_to_valid_span(w.matrix, QUBIT), w.matrix, atol=1e-12)

    def test_forbidden_only_matrix_projects_to_zero(self):
        m = tensor_product([EYE2, SIGMA_Z, EYE2, EYE2])
        assert np.max(np.abs(project_to_valid_span(m, QUBIT))) < 1e-12

    def test_matches_coefficient_zeroing_oracle(self):
        rng = np.random.default_rng(21)
        from procmat import hs_decompose

        mask = allowed_term_mask("general")
        m = random_hermitian(rng, 16)
        projected = project_to_valid_span(m, QUBIT)
        dec_in = hs_decompose(m, QUBIT.dims)
        dec_out = hs_decompose(projected, QUBIT.dims)
        for idx in np.ndindex(dec_in.coefficients.shape):
            pattern = {f for f, t in enumerate(idx) if t != 0}
            expected = dec_in.coefficients[idx] if mask.allows(pattern) else 0.0
            assert abs(dec_out.coefficients[idx] - expected) < 1e-12
        # Orthogonal projection: no other mask-satisfying matrix is closer.
        base = np.linalg.norm(projected - m)
        for probe_seed in range(3):
            probe = project_to_valid_span(
                random_hermitian(np.random.default_rng(probe_seed), 16), QUBIT
            )
            assert np.linalg.norm(probe - m) >= base - 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=KERNEL_CASES["dims"], variant=st.sampled_from(MASK_VARIANTS), seed=KERNEL_CASES["seed"],
           scale=st.floats(0.0, 1e-11))
    def test_matches_mask_oracle_on_layouts(self, dims, variant, seed, scale):
        # An anti-Hermitian part inside the Hermiticity tolerance is dropped,
        # as the oracle's real HS coefficients drop it.
        rng = np.random.default_rng(seed)
        side = int(np.prod(dims))
        noise = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        m = random_hermitian(rng, side) + scale * (noise - noise.conj().T) / 2.0
        projected = project_to_valid_span(m, SystemLayout(*dims), variant)
        assert np.max(np.abs(projected - mask_projection(m, dims, variant))) <= 1e-12

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="unknown mask variant"):
            project_to_valid_span(np.eye(16), QUBIT, "c_before_d")

    def test_idempotence_random(self):
        rng = np.random.default_rng(22)
        m = random_hermitian(rng, 16)
        once = project_to_valid_span(m, QUBIT)
        twice = project_to_valid_span(once, QUBIT)
        assert np.linalg.norm(once - twice) < 1e-12


class TestRandomProcess:
    @pytest.mark.parametrize("seed", range(5))
    def test_always_valid(self, seed):
        assert validate_process(random_process(seed)).overall

    def test_qutrit_inputs_valid(self):
        layout = SystemLayout(3, 2, 3, 2)
        assert validate_process(random_process(7, layout)).overall

    def test_small_strength_is_near_identity(self):
        w = random_process(0, strength=1e-6)
        assert np.linalg.norm(w.matrix - np.eye(16) / 4.0) < 1e-5

    def test_deterministic_in_seed(self):
        assert np.array_equal(random_process(42).matrix, random_process(42).matrix)
        assert not np.array_equal(random_process(42).matrix, random_process(43).matrix)

    def test_strength_range_enforced(self):
        with pytest.raises(ValueError):
            random_process(0, strength=1.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_probability_tables_normalize(self, seed):
        rng = np.random.default_rng(100 + seed)
        w = random_process(seed)
        instr_a = random_cptp_instrument(rng, 2, 2, 3)
        instr_b = random_cptp_instrument(rng, 2, 2, 2)
        table = probability_table(w, instr_a, instr_b)
        assert abs(table.total - 1.0) < 1e-9
        assert table.entries.min() > -1e-10


class TestFixtureProcesses:
    def test_identity_process(self):
        w = identity_process()
        assert np.allclose(w.matrix, np.eye(16) / 4.0)

    def test_channel_process_valid(self):
        assert validate_process(channel_process()).overall

    def test_channel_needs_matching_dims(self):
        with pytest.raises(ValueError):
            channel_process(SystemLayout(2, 3, 2, 2))

    def test_hermiticity_enforced(self):
        m = np.eye(16, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            ProcessMatrix(QUBIT, m)
