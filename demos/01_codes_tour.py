#!/usr/bin/env python3
"""Tour of the binary-code layer: Reed-Muller evaluation codes, the
affine-functions family D_m, weight spectra, duality and puncturing."""

from k3nodal import (
    Gf2Matrix,
    code_d,
    dual,
    is_isotropic,
    reed_muller_generators,
    weight_distribution,
)
from k3nodal.codes import from_generators

print("=== Reed-Muller generators for degree <= 1 on F_2^4 ===")
print("Columns are the binary expansions of 0..15; after the constant row")
print("come the four coordinate functions x_0..x_3.\n")
gens = reed_muller_generators(1, 4)
print(gens)

d5 = from_generators(gens)
print(f"\nThe span is D_5: length {d5.n}, dimension {d5.k}.")
print("Canonical (reduced echelon) generators:")
print(d5.gen)

print("\n=== Weight spectra of the D_m family ===")
print("Nonzero weights are always 2^(m-2) and 2^(m-1):\n")
for m in range(2, 8):
    dist = weight_distribution(code_d(m))
    print(f"D_{m} (n={1 << (m - 1):3d}):  {dist.counts}")

print("\n=== Self-orthogonality ===")
print(f"D_5 isotropic (contained in its dual): {is_isotropic(d5)}")
d5_dual = dual(d5)
print(f"dim D_5 = {d5.k}, dim dual = {d5_dual.k}, sum = {d5.k + d5_dual.k} = length")

print("\n=== Dropping a coordinate breaks the spectrum ===")
# puncture: mask the generators to the first 15 coordinates
p = from_generators(Gf2Matrix.from_ints([g & 0x7FFF for g in d5.gen.rows], 15))
print(f"projection of D_5 to 15 coordinates has nonzero weights "
      f"{sorted(weight_distribution(p).nonzero_weights())}")
print("weight 7 appears: once a weight-8 word loses a supported coordinate,")
print("the code can no longer be a D_m.")
