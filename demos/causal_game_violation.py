"""A signaling game that no causally ordered process wins too often.

Alice holds a bit a; Bob holds bits (b, b').  Depending on b' one party
must guess the other's bit, so winning above 3/4 requires signaling in
both directions at once.  The built-in fixture process beats the bound,
but loses the ability the moment both inputs are measured in a fixed
basis.
"""

import numpy as np

from procmat import (
    MeasurementBasis,
    constructive_decomposition,
    enumerate_strategies,
    luders_input_dephase,
    ocb_game,
    ocb_process,
    validate_process,
)

w = ocb_process()
game = ocb_game()
print("fixture process valid:", validate_process(w).overall)

best = enumerate_strategies(w, game)
print(f"best strategy {best.strategy}: value = {best.value:.9f}")
print(f"causal bound 3/4, quantum fixture value (2 + sqrt 2)/4 = {(2 + np.sqrt(2)) / 4:.9f}")
for (a, b, bp), win in best.per_condition:
    print(f"  inputs a={a} b={b} b'={bp}: success {win:.6f}")

# Dephase both inputs in the z basis.  The back-signaling term of the
# process has no z-diagonal component, so it vanishes and a one-way
# channel remains.
z = MeasurementBasis.computational(2)
effective = luders_input_dephase(w, z, z)
after = enumerate_strategies(effective.matrix, game)
print(f"\nafter input dephasing: value = {after.value:.9f} (<= 3/4)")

split = constructive_decomposition(effective.matrix, z, z)
print(f"dephased process decomposes with weight p = {split.p} on the A->B side")

# Blending the fixture with noise shows the two faces of the same
# threshold: the best game value is (1 + q / sqrt 2) / 2, which crosses
# 3/4 exactly at the visibility q = 1/sqrt(2) where the separability search
# stops finding causal splits.
from procmat import ProcessMatrix, dykstra_separability, identity_process

noise = identity_process()
print("\nvisibility scan:")
for q in (0.5, 1 / np.sqrt(2), 0.75, 1.0):
    blend = ProcessMatrix(w.layout, q * w.matrix + (1 - q) * noise.matrix)
    value = enumerate_strategies(blend, game).value
    status = dykstra_separability(blend, tol=1e-8, max_iter=20_000).status
    print(f"  q = {q:.4f}: value = {value:.6f}, {status}")
