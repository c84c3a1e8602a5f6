"""Bipartite process matrices: generalized Born rule, fixed-basis input
dephasing, and causal separability via constructive decomposition or
a primal-dual search.

The namespace is lazy (PEP 562): ``import procmat`` loads no submodule, and
the first access to a public name imports the module that defines it, so a
program pays only for the modules it uses.  ``_EXPORTS`` lists every public
name once, under its defining module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "tensor": (
        "HSDecomposition", "MeasurementBasis", "hermitian_basis", "hermitian_eig", "hs_decompose",
        "hs_reconstruct", "partial_trace", "partial_transpose", "tensor_product",
    ),
    "process": (
        "A1", "A2", "B1", "B2", "FACTOR_NAMES", "ProcessMatrix", "SystemLayout", "TermMask",
        "ValidityReport", "allowed_term_mask", "channel_process", "identity_process", "ocb_process",
        "project_to_valid_span", "random_process", "validate_process", "w0_defining_terms", "w0_process",
    ),
    "instruments": (
        "CPMap", "Instrument", "InstrumentReport", "NumericIntegrityError", "ProbabilityTable",
        "born_probability", "check_instrument", "cj_from_kraus", "classical_instrument", "cq_instrument",
        "measure_reprepare", "probability_table",
    ),
    "effective": (
        "DegenerateInputError", "EffectiveProcess", "classical_effective",
        "dephase_state", "indistinguishability_residual", "is_input_diagonal", "luders_input_dephase",
        "ppt_check", "random_cq_instrument", "selective_update",
    ),
    "separability": (
        "CausalDecomposition", "CausalWitness", "DecompositionError", "DecompositionReport",
        "EigenStructure", "EigenstructureError", "FeasibilityReport", "KappaSplit",
        "NotInputDiagonalError", "check_separability", "commutator_norm", "constructive_decomposition",
        "dykstra_separability", "eigenstructure", "kappa_split", "verify_decomposition", "verify_witness",
        "w0_defining_split",
    ),
    "games": (
        "CausalGame", "GameResult", "Strategy", "enumerate_strategies", "evaluate_game", "ocb_game",
        "ocb_strategy_family",
    ),
    "io": ("ProcessDocumentError", "RunReport", "decode_process", "digest_text", "encode_process"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Also how ``from procmat import separability`` falls through to the submodule import.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
