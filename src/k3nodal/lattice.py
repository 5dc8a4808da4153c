"""Lattices built from binary codes.

``gamma_from_code`` realizes the preimage of a code under reduction
mod 2 inside Z^n carrying the standard form scaled by 1/2 (optionally
negated).  All Gram data is exact and each invariant is computed once per
lattice:

- the doubled Gram matrix, as integers, from the sparse basis rows (a
  2e_j row has one entry, a lifted generator its weight); membership
  back-substitutes over the same sparse rows;
- the determinant and every leading minor from one fraction-free
  (Bareiss) pass on the Gram matrix with each row's content divided out,
  the minors scaled back exactly;
- the discriminant group from a certificate: |det| = 2^(n - r), with r
  the rank of the Gram matrix over GF(2), fixes the Smith diagonal as
  r ones and n - r twos.  Every code lattice meets it; any other
  integral basis falls back to an integer Smith normal form.

The two named lattices of interest are the rank-16 lattice of sixteen
disjoint nodal curves on a desingularized Kummer surface and the rank-8
lattice of an even eight-set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .codes import LinearCode, ResourceLimitError, code_d, from_generators
from .gf2 import Gf2Matrix, _rref_ints

MAX_LATTICE_RANK = 256


@dataclass(frozen=True)
class CodeLattice:
    """Integral-basis lattice with doubled Gram data.

    The true Gram matrix is gram2 / 2; keeping the doubled copy as plain
    integers keeps every computation exact without a fraction type in hot
    paths.  The basis is upper triangular with respect to the leading
    coordinate, which makes membership a back-substitution.  The
    constructor derives gram2 from the basis and the sign, once, so it is
    a field but not an argument.  The sparse rows, the leading minors and
    the Smith diagonal are computed on first use and kept on the instance;
    they are not fields, so equality, hashing and repr are those of the
    four fields.
    """

    n: int
    sign: int
    basis: tuple[tuple[int, ...], ...]
    gram2: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.basis) != self.n or any(len(v) != self.n for v in self.basis):
            raise ValueError("basis must consist of n vectors of length n")
        if any(any(row[:i]) for i, row in enumerate(self.basis)):
            raise ValueError("basis must be triangular by leading coordinate")
        object.__setattr__(self, "gram2", _gram2(self._rows, self.sign))

    @functools.cached_property
    def _rows(self) -> tuple[dict[int, int], ...]:
        """Each basis row's nonzero entries as {coordinate: value}."""
        return tuple(
            {t: x for t, x in enumerate(row[i:], i) if x} for i, row in enumerate(self.basis)
        )

    @functools.cached_property
    def _minors2(self) -> tuple[int, ...]:
        """Leading principal minors of gram2, from one Bareiss pass.

        With c_i the gcd of basis row i (1 for a zero row) and C = diag(c),
        gram2 = C G' C for the integer matrix G'_ij = gram2_ij / (c_i c_j),
        so the t-th leading minor of gram2 is that of G' times
        (c_0 ... c_(t-1))^2.  The pass runs on G', whose entries are shorter.
        """
        contents = [math.gcd(*row.values()) or 1 for row in self._rows]
        scaled = [
            [e // (ci * cj) for e, cj in zip(row, contents)]
            for row, ci in zip(self.gram2, contents)
        ]
        minors = []
        scale = 1
        for d, c in zip(_leading_minors_int(scaled), contents):
            scale *= c * c
            minors.append(d * scale)
        return tuple(minors)

    @functools.cached_property
    def _smith(self) -> tuple[int, ...]:
        """Smith diagonal of gram2 // 2, the true Gram matrix G when the
        lattice is integral.

        Lemma: if G is a nonsingular integer n x n matrix of rank r over
        GF(2) and |det G| = 2^(n-r), its Smith diagonal is r ones followed
        by n - r twos.  Proof: unimodular row and column operations stay
        invertible mod 2, so r is also the rank mod 2 of the Smith diagonal
        s_1 | ... | s_n, that is, the number of odd s_i.  The n - r even
        ones are each at least 2 and their product divides |det G| =
        2^(n-r), so each is exactly 2 and the odd ones multiply to 1.

        A code lattice meets the condition (|det G| = 2^(n-2k) and r = 2k),
        so only other bases reach the general elimination.
        """
        n = self.n
        # bit 1 of a doubled entry is the parity of the true entry
        parity_rows = [sum(1 << j for j, e in enumerate(row) if e & 2) for row in self.gram2]
        odd = len(_rref_ints(parity_rows, n)[1])
        if abs(self._minors2[-1]) >> n == 1 << (n - odd):
            return (1,) * odd + (2,) * (n - odd)
        return tuple(_smith_diagonal([[e // 2 for e in row] for row in self.gram2]))

    def coordinates_of(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of vec in the basis, or None if not a member.

        Back-substitution solves for row i's coordinate from entry i, so a
        nonzero row whose diagonal entry is 0 leaves it undetermined:
        reaching such a row raises a ValueError that names it.
        """
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} does not match rank {self.n}")
        residue = list(vec)
        coeffs = []
        for i, row in enumerate(self._rows):
            d = row.get(i)
            if d is None:
                if row:
                    raise ValueError(
                        f"basis row {i} is nonzero but its diagonal entry is 0; "
                        "membership needs a nonzero diagonal entry in every nonzero row"
                    )
                coeffs.append(0)
                continue
            q, r = divmod(residue[i], d)
            if r:
                return None
            coeffs.append(q)
            if q:
                for t, x in row.items():
                    residue[t] -= q * x
        return tuple(coeffs) if not any(residue) else None

    def contains(self, vec: Sequence[int]) -> bool:
        return self.coordinates_of(vec) is not None

    def norm_of(self, vec: Sequence[int]) -> Fraction:
        """Value of the form on an ambient integer vector."""
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} does not match rank {self.n}")
        return Fraction(self.sign * sum(x * x for x in vec), 2)

    def to_json_dict(self) -> dict:
        """The lattice as a JSON document; ``elementary_divisors`` is None
        when the lattice is not integral or is degenerate (det = 0)."""
        det = determinant(self)
        return {
            "n": self.n,
            "sign": self.sign,
            "gram2": [list(r) for r in self.gram2],
            "det": {"num": det.numerator, "den": det.denominator},
            "elementary_divisors": (
                list(discriminant_group(self).elementary_divisors)
                if det and is_integral(self)
                else None
            ),
        }


def _gram2(rows: Sequence[dict[int, int]], sign: int) -> tuple[tuple[int, ...], ...]:
    """Doubled Gram matrix sign * B B^T from the basis rows' nonzero
    entries: the products on and right of the diagonal, each summed over
    the shorter of the two supports, mirrored below it."""
    items = [tuple(row.items()) for row in rows]
    upper = []
    for i, a in enumerate(rows):
        line = []
        for b, b_items in zip(rows[i:], items[i:]):
            if len(a) <= len(b):
                line.append(sign * sum([x * b.get(t, 0) for t, x in items[i]]))
            else:
                line.append(sign * sum([x * a.get(t, 0) for t, x in b_items]))
        upper.append(line)
    return tuple(
        tuple([upper[j][i - j] for j in range(i)] + row) for i, row in enumerate(upper)
    )


@dataclass(frozen=True)
class DiscriminantGroup:
    """Elementary divisors (> 1) of an integral Gram matrix, in a
    divisibility chain."""

    elementary_divisors: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.elementary_divisors:
            if d <= 1:
                raise ValueError("elementary divisors must exceed 1")
        for a, b in zip(self.elementary_divisors, self.elementary_divisors[1:]):
            if b % a:
                raise ValueError("each divisor must divide the next")

    @property
    def order(self) -> int:
        return math.prod(self.elementary_divisors)

    def __str__(self) -> str:
        if not self.elementary_divisors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.elementary_divisors)


def gamma_from_code(code: LinearCode, sign: int = 1) -> CodeLattice:
    """The lattice of integer vectors reducing mod 2 into the code.

    The basis lifts the reduced generators to 0/1 vectors and adds 2*e_j
    for every non-pivot coordinate j; sorted by leading coordinate it is
    upper triangular with diagonal 1 at pivots and 2 elsewhere, so the
    index in Z^n is visibly 2^(n-k) and det(gram) = sign^n * 2^(n-2k).
    Ranks above MAX_LATTICE_RANK are refused before any basis is built.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = code.n
    if n > MAX_LATTICE_RANK:
        raise ResourceLimitError(
            f"a lattice of rank {n} exceeds the rank budget of {MAX_LATTICE_RANK}"
        )
    by_leading: dict[int, tuple[int, ...]] = {}
    for p, row in zip(code.pivots(), code.gen.rows):
        by_leading[p] = tuple((row >> t) & 1 for t in range(n))
    for j in range(n):
        if j not in by_leading:
            by_leading[j] = tuple(2 if t == j else 0 for t in range(n))
    return CodeLattice(n, sign, tuple(by_leading[j] for j in range(n)))


def kummer_lattice() -> CodeLattice:
    """Rank-16 lattice spanned by sixteen disjoint nodal curves on a
    desingularized Kummer surface: the D_5 code lattice with negated form."""
    return gamma_from_code(code_d(5), -1)


def even_eight_lattice() -> CodeLattice:
    """Rank-8 lattice attached to an even eight-set of nodal curves: the
    lattice of the line code in F_2^8, with negated form."""
    return gamma_from_code(LinearCode.repetition(8), -1)


def is_integral(lat: CodeLattice) -> bool:
    """True when the true Gram matrix is integral, equivalently when the
    source code is isotropic."""
    return all(e % 2 == 0 for row in lat.gram2 for e in row)


def is_even(lat: CodeLattice) -> bool:
    """True when every vector has even integral norm (diagonal divisible
    by 2 after halving).  Requires an integral lattice."""
    if not is_integral(lat):
        raise ValueError("evenness is only defined for integral lattices")
    return all(lat.gram2[i][i] % 4 == 0 for i in range(lat.n))


def _leading_minors_int(gram2: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Leading principal minors of a symmetric doubled Gram matrix, in order.

    One fraction-free (Bareiss) pass without row swaps: the t-th pivot is
    the t-th leading principal minor.  Every step keeps the matrix
    symmetric, so each row is stored from its diagonal onward and entry
    (i, j), j >= i, becomes (a_ij * piv - a_0i * a_0j) // prev.
    ``CodeLattice`` runs this once per lattice and keeps the result, which
    serves the determinant, the minors and the definiteness test.
    """
    n = len(gram2)
    rows = [row[i:] for i, row in enumerate(gram2)]
    minors = []
    prev = 1
    for t in range(n):
        pivot_row = rows[0]
        piv = pivot_row[0]
        minors.append(piv)
        if piv == 0:
            # gram2 = sign * B B^T is semidefinite, so a kernel vector of a
            # leading block, padded with zeros, is one of every larger block.
            minors += [0] * (n - t - 1)
            break
        rows = [
            [(x * piv - a * y) // prev for x, y in zip(row, pivot_row[i:])]
            for i, (row, a) in enumerate(zip(rows[1:], pivot_row[1:]), start=1)
        ]
        prev = piv
    return tuple(minors)


def determinant(lat: CodeLattice) -> Fraction:
    """Exact determinant of the true Gram matrix: det(gram2) / 2^n."""
    return Fraction(lat._minors2[-1], 2**lat.n)


def basis_determinant(lat: CodeLattice) -> int:
    """Determinant of the basis matrix; its absolute value is the index in Z^n.
    The basis is triangular, so this is the product of its diagonal."""
    return math.prod(lat.basis[i][i] for i in range(lat.n))


def leading_principal_minors(lat: CodeLattice) -> tuple[Fraction, ...]:
    """Exact leading principal minors of the true Gram matrix."""
    return tuple(Fraction(d, 2**t) for t, d in enumerate(lat._minors2, start=1))


def is_negative_definite(lat: CodeLattice) -> bool:
    """Sylvester test: leading principal minors alternate in sign starting
    negative; any zero minor disqualifies.  The first minor is gram2[0][0],
    so a lattice failing there is rejected without the elimination."""
    if lat.gram2[0][0] >= 0:
        return False
    return all(d != 0 and (d > 0) == (t % 2 == 0) for t, d in enumerate(lat._minors2, start=1))


def _smith_diagonal(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Exact integer elimination, pivoting on the first entry (row by row) of
    smallest nonzero absolute value; restarts whenever a division leaves a
    remainder (the remainder is strictly smaller, so the process
    terminates).  Returned entries are nonnegative and each divides the
    next.
    """
    a = [list(r) for r in mat]
    nr = len(a)
    nc = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < min(nr, nc):
        best = None
        least = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        pivot_row = a[t]
        p = pivot_row[t]
        restart = False
        for i in range(t + 1, nr):
            row = a[i]
            if row[t]:
                q = row[t] // p
                if q:
                    a[i] = row = [x - q * y for x, y in zip(row, pivot_row)]
                if row[t]:
                    restart = True
        if restart:
            continue
        # column t is now zero outside row t, so a column operation changes
        # row t alone: x - (x // p) * p is x % p
        tail = [x % p for x in pivot_row[t + 1 :]]
        pivot_row[t + 1 :] = tail
        if any(tail):
            continue
        if least != 1:
            offender = next(
                (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 :])), None
            )
            if offender is not None:
                a[t] = [x + y for x, y in zip(pivot_row, a[offender])]
                continue
        diag.append(least)
        t += 1
    return diag


def discriminant_group(lat: CodeLattice) -> DiscriminantGroup:
    """Cokernel of the integral true Gram matrix as a product of cyclic
    groups, from the Smith normal form."""
    if not is_integral(lat):
        raise ValueError("discriminant group requires an integral lattice")
    diag = lat._smith
    if len(diag) < lat.n or any(d == 0 for d in diag):
        raise ValueError("degenerate Gram matrix has no finite discriminant group")
    return DiscriminantGroup(tuple(d for d in diag if d > 1))


def code_from_overlattice(n: int, gens: Iterable[Sequence[Fraction | int]]) -> LinearCode:
    """Image code of a half-integral overlattice in (1/2 L)/L = F_2^n.

    Each generator must have all coordinates in (1/2)Z; its class mod L is
    read off by doubling and reducing mod 2.
    """
    rows = []
    for g in gens:
        g = tuple(g)
        if len(g) != n:
            raise ValueError(f"generator length {len(g)} does not match n={n}")
        bits = 0
        for j, x in enumerate(g):
            doubled = Fraction(x) * 2
            if doubled.denominator != 1:
                raise ValueError(f"coordinate {x} is not half-integral")
            if int(doubled) % 2:
                bits |= 1 << j
        rows.append(bits)
    return from_generators(Gf2Matrix.from_ints(rows, n))


def format_gram(lat: CodeLattice) -> str:
    """True Gram matrix as text: integers when integral, p/2 for odd entries."""
    integral = is_integral(lat)
    cells = []
    for row in lat.gram2:
        line = []
        for e in row:
            if integral or e % 2 == 0:
                line.append(str(e // 2))
            else:
                line.append(f"{e}/2")
        cells.append(line)
    width = max(len(c) for line in cells for c in line)
    return "\n".join(" ".join(c.rjust(width) for c in line) for line in cells)
