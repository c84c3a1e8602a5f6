"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
The random-matrix criteria share one session-scoped pool of seeded
instances (50 qubit-layout plus 10 with three-dimensional inputs, each with
its own random measurement bases).
"""

import numpy as np
import pytest

from procmat import (
    MeasurementBasis,
    SystemLayout,
    commutator_norm,
    constructive_decomposition,
    dykstra_separability,
    eigenstructure,
    enumerate_strategies,
    hermitian_eig,
    hs_decompose,
    hs_reconstruct,
    indistinguishability_residual,
    luders_input_dephase,
    ocb_game,
    ocb_process,
    probability_table,
    random_process,
    selective_update,
    tensor_product,
    validate_process,
    verify_decomposition,
    w0_defining_split,
    w0_defining_terms,
    w0_process,
)
from procmat.effective import dephase_state, ppt_check
from procmat.separability import NOT_SEPARABLE, SEPARABLE

from conftest import EYE2, SIGMA_Z, bell_state, random_cptp_instrument, random_hermitian

Z2 = MeasurementBasis.computational(2)
OCB_VALUE = (2.0 + np.sqrt(2.0)) / 4.0


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def theorem_instances():
    """Seeded dephased processes with their splits and decompositions."""
    instances = []
    specs = [("qubit", SystemLayout.qubit(), seed) for seed in range(50)]
    specs += [("qutrit-in", SystemLayout(3, 2, 3, 2), seed) for seed in range(10)]
    for kind, layout, seed in specs:
        w = random_process(seed, layout)
        basis_a = MeasurementBasis.random(layout.d_a1, 10_000 + 7 * seed + (layout.d_a1 == 3))
        basis_b = MeasurementBasis.random(layout.d_b1, 20_000 + 11 * seed + (layout.d_b1 == 3))
        w_eff = luders_input_dephase(w, basis_a, basis_b).matrix
        structure = eigenstructure(w_eff, basis_a, basis_b)
        decomposition = constructive_decomposition(w_eff, basis_a, basis_b)
        instances.append(
            {
                "label": f"{kind}-{seed}",
                "layout": layout,
                "basis_a": basis_a,
                "basis_b": basis_b,
                "w_eff": w_eff,
                "structure": structure,
                "decomposition": decomposition,
            }
        )
    return instances


def test_criterion_1_indistinguishability():
    worst = 0.0
    for seed in range(20):
        w = random_process(seed)
        basis_a = MeasurementBasis.random(2, 500 + seed)
        basis_b = MeasurementBasis.random(2, 600 + seed)
        effective = luders_input_dephase(w, basis_a, basis_b)
        worst = max(
            worst,
            indistinguishability_residual(w, effective, samples=100, seed=seed),
        )
    _criterion(
        1,
        "fixed-basis instruments cannot tell W from its dephased matrix",
        worst < 1e-9,
        f"max |dP| = {worst:.3e} over 20 x 100 sampled pairs",
    )


def test_criterion_2_constructive_theorem(theorem_instances):
    worst_residual = 0.0
    all_ok = True
    for inst in theorem_instances:
        check = verify_decomposition(inst["w_eff"], inst["decomposition"], tol=1e-8)
        worst_residual = max(worst_residual, check.reconstruction_residual)
        all_ok = all_ok and check.ok
    _criterion(
        2,
        "input-dephased matrices decompose causally (50 qubit + 10 qutrit-input)",
        all_ok and worst_residual < 1e-8,
        f"worst reconstruction residual {worst_residual:.3e}",
    )


def test_criterion_3_commutation_and_product_eigenvectors(theorem_instances):
    worst_comm = 0.0
    worst_eig = 0.0
    for inst in theorem_instances:
        s = inst["structure"]
        worst_comm = max(worst_comm, s.kappa_commutator, s.projector_commutator)
        worst_eig = max(worst_eig, s.eigen_residual, s.product_form_residual)
    _criterion(
        3,
        "kappa/projector commutators and product-eigenvector residuals vanish",
        worst_comm < 1e-8 and worst_eig < 1e-8,
        f"max commutator {worst_comm:.3e}, max eigen residual {worst_eig:.3e}",
    )


def test_criterion_4_ocb_pipeline():
    w = ocb_process()
    report = validate_process(w)
    game = ocb_game()
    best = enumerate_strategies(w, game)
    effective = luders_input_dephase(w, Z2, Z2)
    expected_eff = (
        np.eye(16) + tensor_product([EYE2, SIGMA_Z, SIGMA_Z, EYE2]) / np.sqrt(2)
    ) / 4.0
    eff_error = float(np.linalg.norm(effective.matrix.matrix - expected_eff))
    decomposition = constructive_decomposition(effective.matrix, Z2, Z2)
    best_dephased = enumerate_strategies(effective.matrix, game)
    ok = (
        report.overall
        and abs(report.min_eigenvalue) < 1e-9
        and abs(best.value - OCB_VALUE) < 1e-9
        and eff_error < 1e-10
        and decomposition.p == 1.0
        and best_dephased.value <= 0.75 + 1e-9
    )
    _criterion(
        4,
        "game pipeline: violation, dephased closed form, pure channel, restored bound",
        ok,
        f"value {best.value:.9f} -> {best_dephased.value:.9f}, p = {decomposition.p}",
    )


def test_criterion_5_nonseparability_detection(theorem_instances):
    ocb_report = dykstra_separability(ocb_process(), tol=1e-8, max_iter=50_000)
    ocb_ok = (
        ocb_report.status == NOT_SEPARABLE
        and ocb_report.plateau_residual is not None
        and ocb_report.plateau_residual > 1e-3
    )
    worst = 0.0
    separable_ok = True
    for inst in theorem_instances:
        report = dykstra_separability(inst["w_eff"], tol=1e-8)
        separable_ok = separable_ok and report.status == SEPARABLE
        worst = max(worst, report.residual)
    _criterion(
        5,
        "projection search rejects the violating fixture and accepts all dephased ones",
        ocb_ok and separable_ok and worst < 1e-8,
        f"plateau {ocb_report.plateau_residual:.3e}, worst separable residual {worst:.3e}",
    )


def test_criterion_6_w0_fixture():
    term_ab, term_ba = w0_defining_terms()
    comm = commutator_norm(term_ab, term_ba)
    ok = comm > 0.1
    for p in (0.0, 0.3, 0.7, 1.0):
        w = w0_process(p)
        ok = ok and validate_process(w).overall
        ok = ok and verify_decomposition(w, w0_defining_split(p)).ok
    _criterion(
        6,
        "mixture fixture is valid, non-commuting, and split by its defining parts",
        ok,
        f"defining-term commutator norm {comm:.3f}",
    )


def test_criterion_7_selective_update_invalidity():
    _, report = selective_update(ocb_process(), 0, 0, Z2, Z2)
    _criterion(
        7,
        "selective single-block update leaves the valid span",
        not report.mask_ok,
        f"offending patterns {[p for p, _ in report.offending_terms]}",
    )


def test_criterion_8_state_analogy():
    rho = bell_state()
    before_flag, before_min = ppt_check(rho)
    after_flag, _ = ppt_check(dephase_state(rho, Z2, Z2))
    ok = (not before_flag) and abs(before_min + 0.5) < 1e-10 and after_flag
    _criterion(
        8,
        "product-basis dephasing turns the Bell state separable",
        ok,
        f"min transpose eigenvalue {before_min:.12f} before, positive after",
    )


def test_criterion_9_numeric_substrate():
    rng = np.random.default_rng(90_000)
    worst_eig = 0.0
    for _ in range(100):
        m = random_hermitian(rng, 16)
        evals, vecs = hermitian_eig(m)
        worst_eig = max(worst_eig, float(np.linalg.norm((vecs * evals) @ vecs.conj().T - m)))

    worst_hs = 0.0
    for dims in [(2, 2, 2, 2), (3, 2, 3, 2)]:
        for _ in range(10):
            m = random_hermitian(rng, int(np.prod(dims)))
            worst_hs = max(
                worst_hs, float(np.linalg.norm(hs_reconstruct(hs_decompose(m, dims)) - m))
            )

    worst_sum = 0.0
    for seed in range(10):
        w = random_process(3_000 + seed)
        instr_a = random_cptp_instrument(rng, 2, 2, int(rng.integers(2, 4)))
        instr_b = random_cptp_instrument(rng, 2, 2, 2)
        worst_sum = max(worst_sum, abs(probability_table(w, instr_a, instr_b).total - 1.0))

    ok = worst_eig < 1e-10 and worst_hs < 1e-10 and worst_sum < 1e-9
    _criterion(
        9,
        "eigensolver, basis round-trip and probability normalization hold",
        ok,
        f"eig {worst_eig:.3e}, round-trip {worst_hs:.3e}, table sum {worst_sum:.3e}",
    )
