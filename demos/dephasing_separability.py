"""Fixed-basis input measurements make any bipartite process causally separable.

Measuring both inputs in fixed bases replaces W by its non-selectively
updated version, which reproduces every probability those restricted
operations can see.  For two parties that effective matrix always splits
into a convex mixture of one-way-signaling processes; this script builds
the split constructively and cross-checks it with an independent
primal-dual search, which finds either a split or a causal witness.
"""

import numpy as np

from procmat import (
    MeasurementBasis,
    SystemLayout,
    constructive_decomposition,
    dykstra_separability,
    eigenstructure,
    indistinguishability_residual,
    kappa_split,
    luders_input_dephase,
    random_process,
    verify_decomposition,
)

w = random_process(seed=7)
basis_a = MeasurementBasis.random(2, seed=70)
basis_b = MeasurementBasis.random(2, seed=71)
effective = luders_input_dephase(w, basis_a, basis_b)

residual = indistinguishability_residual(w, effective, samples=200, seed=7)
print("operational distinguishability under fixed-basis instruments:", residual)

# The split d W = (1 + lambda0) 1 + kappa1 + kappa2 and the per-block
# eigenstructure that audits the proof behind the construction.
split = kappa_split(effective.matrix)
structure = eigenstructure(split, basis_a, basis_b, effective.matrix)
print("lambda0 =", split.lambda0)
print("[kappa1, kappa2] norm:", structure.kappa_commutator)
print("product-eigenvector residual:", structure.eigen_residual)

decomposition = constructive_decomposition(effective.matrix, basis_a, basis_b)
check = verify_decomposition(effective.matrix, decomposition, tol=1e-8)
print(f"\nconstructive split: p = {decomposition.p:.6f}, "
      f"reconstruction residual = {check.reconstruction_residual:.2e}, ok = {check.ok}")

search = dykstra_separability(effective.matrix, tol=1e-8)
print(f"primal-dual search agrees: {search.status} after {search.iterations} iteration(s) "
      f"(p = {search.decomposition.p:.6f})")

# Larger inputs work the same way.
w3 = random_process(seed=3, layout=SystemLayout(3, 2, 3, 2))
b3a = MeasurementBasis.random(3, seed=30)
b3b = MeasurementBasis.random(3, seed=31)
eff3 = luders_input_dephase(w3, b3a, b3b)
dec3 = constructive_decomposition(eff3.matrix, b3a, b3b)
print(f"\nthree-dimensional inputs: p = {dec3.p:.6f}, "
      f"ok = {verify_decomposition(eff3.matrix, dec3, tol=1e-8).ok}")
