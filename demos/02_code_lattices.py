#!/usr/bin/env python3
"""From codes to lattices: the half-scaled preimage construction, exact
Gram data, and the two named lattices (Kummer and even-eight)."""

from fractions import Fraction

from k3nodal import (
    Gf2Matrix,
    LinearCode,
    determinant,
    discriminant_group,
    even_eight_lattice,
    from_generators,
    gamma_from_code,
    is_even,
    is_integral,
    is_negative_definite,
    kummer_lattice,
)
from k3nodal.lattice import basis_determinant, format_gram

print("=== A tiny example: the repetition code in F_2^2 ===")
lat = gamma_from_code(LinearCode.repetition(2))
print("basis rows:", lat.basis)
print("true Gram:")
print(format_gram(lat))
print(f"integral: {is_integral(lat)} (the code is isotropic), "
      f"even: {is_even(lat)} (diagonal 1 is odd)")

print("\n=== The Kummer lattice: sixteen disjoint nodal curves ===")
kummer = kummer_lattice()
print(f"rank {kummer.n}, sign {kummer.sign:+d}, "
      f"index in Z^16 = |det basis| = {abs(basis_determinant(kummer))} = 2^11")
print(f"integral:          {is_integral(kummer)}")
print(f"even:              {is_even(kummer)}")
print(f"negative definite: {is_negative_definite(kummer)}")
print(f"determinant:       {determinant(kummer)}")
print(f"discriminant:      {discriminant_group(kummer)}")

print("\nthe sixteen vectors 2e_i are the nodal classes, each of norm -2:")
norms = {kummer.norm_of(tuple(2 if t == i else 0 for t in range(16))) for i in range(16)}
print(f"norms observed: {norms}")

print("\n=== The even-eight lattice ===")
print("(attached to an even set of eight nodal curves; known in the")
print("literature as the Nikulin lattice)")
eight = even_eight_lattice()
print(f"rank {eight.n}, determinant {determinant(eight)}, "
      f"discriminant {discriminant_group(eight)}")

print("\n=== Round trip: overlattice back to its code ===")
halves = [[Fraction(x, 2) for x in v] for v in gamma_from_code(LinearCode.repetition(8)).basis]
# the class of a half vector in (1/2 L)/L = F_2^8: its doubled entries mod 2
classes = [sum(1 << j for j, x in enumerate(v) if 2 * x % 2) for v in halves]
recovered = from_generators(Gf2Matrix.from_ints(classes, 8))
print(f"halving the even-eight basis and reducing mod the unit lattice "
      f"recovers the line code: {recovered == LinearCode.repetition(8)}")
