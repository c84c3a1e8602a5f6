"""One integer rule behind every count, dimension and index the library takes.

Each entry point below rejects a bool, a non-integer and a value outside
its range with the same message, "<name> must be an integer of at least
<low>[ and below <high>], got <value!r>", and keeps its own exception
type; a numpy integer passes wherever a Python int does.
"""

import re

import numpy as np
import pytest

from procmat import (
    CPMap,
    HSDecomposition,
    MeasurementBasis,
    SystemLayout,
    check_separability,
    cj_from_kraus,
    dykstra_separability,
    hermitian_basis,
    hs_decompose,
    indistinguishability_residual,
    luders_input_dephase,
    ocb_process,
    partial_trace,
    partial_transpose,
    ppt_check,
    random_cq_instrument,
    selective_update,
)

Z2 = MeasurementBasis.computational(2)
OCB = ocb_process()
DEPHASED = luders_input_dephase(OCB, Z2, Z2)
M = np.arange(16.0).reshape(4, 4)  # each factor index gives a different partial trace and transpose

# name: (call on the checked value, exception type, name in the message, low, high or None, a valid value)
GUARDS = {
    "layout": (lambda v: SystemLayout(2, v, 2, 2), ValueError, "dimension A2", 1, None, 3),
    "factor-dims": (lambda v: partial_trace(np.eye(2), (v, 2), [1]), ValueError, "factor dimension", 1, None, 1),
    "hs-decomposition": (lambda v: HSDecomposition((v, 2), np.zeros((1, 4))), ValueError, "factor dimension", 1,
                         None, 1),
    "hs-decompose": (lambda v: hs_decompose(np.eye(2), (v, 2)), ValueError, "factor dimension", 1, None, 1),
    "hermitian-basis": (hermitian_basis, ValueError, "dimension", 1, None, 3),
    "ppt": (lambda v: ppt_check(np.eye(6) / 6, (2, v)), ValueError, "dimension", 1, None, 3),
    "trace-keep": (lambda v: partial_trace(M, (2, 2), [v]), IndexError, "keep index", 0, 2, 1),
    "transpose-subset": (lambda v: partial_transpose(M, (2, 2), [v]), IndexError, "subset index", 0, 2, 1),
    "vector": (Z2.vector, IndexError, "index n", 0, 2, 1),
    "projector": (Z2.projector, IndexError, "index n", 0, 2, 1),
    "computational": (MeasurementBasis.computational, ValueError, "dim", 0, None, 3),
    "random": (lambda v: MeasurementBasis.random(v, seed=1), ValueError, "dim", 0, None, 3),
    "selective-n": (lambda v: selective_update(OCB, v, 0, Z2, Z2), IndexError, "index n", 0, 2, 1),
    "selective-m": (lambda v: selective_update(OCB, 0, v, Z2, Z2), IndexError, "index m", 0, 2, 1),
    "dykstra": (lambda v: dykstra_separability(OCB, max_iter=v), ValueError, "max_iter", 1, None, 2),
    "check-separability": (lambda v: check_separability(DEPHASED.matrix, Z2, Z2, max_iter=v), ValueError,
                           "max_iter", 1, None, 2),
    "samples": (lambda v: indistinguishability_residual(OCB, DEPHASED, samples=v), ValueError, "samples", 1, None, 2),
    "kraus-input": (lambda v: cj_from_kraus([np.ones((1, 1))], v, 1), ValueError, "input_dim", 1, None, 1),
    "kraus-output": (lambda v: cj_from_kraus([np.ones((1, 1))], 1, v), ValueError, "output_dim", 1, None, 1),
    "cpmap-input": (lambda v: CPMap(v, 1, np.ones((1, 1))), ValueError, "input_dim", 1, None, 1),
    "cpmap-output": (lambda v: CPMap(1, v, np.ones((1, 1))), ValueError, "output_dim", 1, None, 1),
    "cq-output": (lambda v: random_cq_instrument(Z2, v, np.random.default_rng(0)), ValueError, "output_dim", 1,
                  None, 2),
}


def rejected_cases():
    for key, (call, error, name, low, high, _) in GUARDS.items():
        values = {"true": True, "half": 0.5, "float-one": 1.0, "below-low": low - 1}
        if high is not None:
            values["at-high"] = high
        for label, value in values.items():
            bound = f"at least {low}" if high is None else f"at least {low} and below {high}"
            yield pytest.param(call, value, error, f"{name} must be an integer of {bound}, got {value!r}",
                               id=f"{key}-{label}")


@pytest.mark.parametrize("call, value, error, message", rejected_cases())
def test_rejected(call, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("call, valid", [(g[0], g[5]) for g in GUARDS.values()], ids=GUARDS.keys())
def test_numpy_integer_accepted(call, valid):
    by_int, by_numpy = call(valid), call(np.int64(valid))
    if isinstance(by_int, np.ndarray):
        assert np.array_equal(by_int, by_numpy)


@pytest.mark.parametrize("index", [[0.7], [True], {2}], ids=["fraction", "true", "out-of-range"])
@pytest.mark.parametrize("function, name", [(partial_trace, "keep"), (partial_transpose, "subset")])
def test_factor_index_not_truncated(function, name, index):
    # int(0.7) would have kept or transposed factor 0, and True factor 1.
    with pytest.raises(IndexError, match=f"^{name} index must be an integer of at least 0 and below 2"):
        function(M, (2, 2), index)


def test_ppt_takes_exactly_two_dimensions():
    with pytest.raises(ValueError, match=r"^PPT is only decisive for 2x2 and 2x3 systems, got 2x2x7$"):
        ppt_check(np.eye(28) / 28, (2, 2, 7))


def test_cached_basis_does_not_answer_for_a_bool_or_float():
    # True == 1 and 2.0 == 2 hash alike, so an untyped cache holding the numpy-integer keys would answer them.
    hermitian_basis(np.int64(1)), hermitian_basis(np.int64(2))
    for dim in (True, 2.0):
        with pytest.raises(ValueError, match="^dimension must be an integer of at least 1"):
            hermitian_basis(dim)


def test_cq_instrument_takes_an_array_basis():
    # The columns of an array are the basis vectors, as for ``dephase_state``.
    by_array, by_basis = (random_cq_instrument(b, 2, np.random.default_rng(3)) for b in (np.eye(2), Z2))
    assert [m.cj.tobytes() for m in by_array.outcomes] == [m.cj.tobytes() for m in by_basis.outcomes]
