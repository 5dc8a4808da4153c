"""Lattices built from binary codes.

``CodeLattice(code, sign)`` is the preimage of a code under reduction mod
2 inside Z^n, carrying the standard form scaled by 1/2 (optionally
negated).  Its basis, sorted by leading coordinate, has one row per
coordinate j: the lifted generator with pivot j, or 2e_j.  Each row is
kept as a (bits, scale) pair, the row being scale times the 0/1 vector of
bits, so every Gram entry is a popcount.  All Gram data is exact and each
invariant is computed once per lattice:

- the doubled Gram matrix, gram2_ij = sign s_i s_j |b_i & b_j|;
  membership back-substitutes over the rows' set bits with divisor s_i;
- the determinant from the triangular basis B alone, as det(gram2) =
  sign^n det(B)^2, so the determinant, the discriminant group and the
  JSON document run no elimination;
- every leading minor from one fraction-free (Bareiss) pass on the matrix
  sign |b_i & b_j|, minor t scaled back by (s_0 ... s_(t-1))^2.  The pass
  packs each row, from its diagonal on, into one int of signed w-bit
  fields and updates it with four big-int operations per step.  The Gram
  matrix is definite, so after the step with pivot p every entry is at
  most |p| * max|G_ii| in absolute value (Cauchy-Schwarz and Fischer's
  inequality; see ``_leading_minors_int``), and w is raised, at least
  doubling, whenever that bound outgrows it;
- the discriminant group from a certificate: |det| = 2^(n - r), with r
  the rank of the Gram matrix over GF(2), fixes the Smith diagonal as
  r ones and n - r twos.  For an isotropic code C the lattice is
  Gamma(C), its dual is Gamma(C-perp) and Gamma*/Gamma is C-perp/C, an
  elementary abelian 2-group, so the certificate always holds.

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

from .codes import LinearCode, ResourceLimitError, code_d, from_generators, is_isotropic
from .gf2 import Gf2Matrix, _rref_ints

MAX_LATTICE_RANK = 256


@dataclass(frozen=True)
class CodeLattice:
    """The lattice of a binary code, with doubled Gram data.

    The true Gram matrix is gram2 / 2; keeping the doubled copy as plain
    integers keeps every computation exact without a fraction type in hot
    paths.  The rank n, the dense basis and gram2 are derived from the
    code and the sign, once, the way ``LinearCode`` derives n and k; they
    are fields but not arguments, and equality, hashing and repr are those
    of (code, sign).  The basis is upper triangular with respect to the
    leading coordinate, with diagonal 1 at pivots and 2 elsewhere, which
    makes membership a back-substitution.  The leading minors and the
    Smith diagonal are computed on first use and kept on the instance.
    A sign other than +1 or -1 and a rank above MAX_LATTICE_RANK are
    refused before any basis row is built.
    """

    code: LinearCode
    sign: int = 1
    n: int = field(init=False, repr=False, compare=False)
    basis: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    gram2: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        n = self.code.n
        if n > MAX_LATTICE_RANK:
            raise ResourceLimitError(
                f"a lattice of rank {n} exceeds the rank budget of {MAX_LATTICE_RANK}"
            )
        if n < 1:
            raise ValueError("rank must be positive")
        rows = self._rows
        basis = tuple(tuple(s * (b >> t & 1) for t in range(n)) for b, s in rows)
        gram2 = tuple(
            tuple(self.sign * si * sj * (bi & bj).bit_count() for bj, sj in rows) for bi, si in rows
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram2", gram2)

    @functools.cached_property
    def _rows(self) -> tuple[tuple[int, int], ...]:
        """The basis rows as (bits, scale) pairs, by leading coordinate j:
        the lifted generator with pivot j (scale 1), or 2e_j (scale 2)."""
        by_leading = dict(zip(self.code.pivots(), self.code.gen.rows))
        return tuple(
            (by_leading[j], 1) if j in by_leading else (1 << j, 2) for j in range(self.code.n)
        )

    @functools.cached_property
    def _supports(self) -> tuple[tuple[int, ...], ...]:
        """The coordinates of each basis row's nonzero entries (j alone for 2e_j)."""
        return tuple(
            (j,) if s == 2 else tuple(t for t, x in enumerate(row) if x)
            for j, ((_, s), row) in enumerate(zip(self._rows, self.basis))
        )

    @functools.cached_property
    def _minors2(self) -> tuple[int, ...]:
        """Leading principal minors of gram2, from one Bareiss pass.

        With S = diag(s) for the row scales, gram2 = S G' S for the integer
        matrix G'_ij = sign |b_i & b_j|, so the t-th leading minor of gram2
        is that of G' times (s_0 ... s_(t-1))^2.  The pass runs on G',
        whose entries are shorter.
        """
        rows = self._rows
        inner = [[self.sign * (bi & bj).bit_count() for bj, _ in rows] for bi, _ in rows]
        minors = []
        scale = 1
        for d, (_, s) in zip(_leading_minors_int(inner), rows):
            scale *= s * s
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

        The lattice of an isotropic code meets the condition: its
        discriminant group is C-perp / C, of order |det G| = 2^(n-2k) and
        exponent 2, so r = 2k.  A failure is a bug and raises
        ``AssertionError``.  |det G| is det(B)^2 / 2^n for the triangular
        basis B, so no Bareiss pass runs.
        """
        n = self.n
        # bit 1 of a doubled entry is the parity of the true entry
        parity_rows = [sum(1 << j for j, e in enumerate(row) if e & 2) for row in self.gram2]
        odd = len(_rref_ints(parity_rows, n)[1])
        if basis_determinant(self) ** 2 >> n != 1 << (n - odd):
            raise AssertionError("the Smith certificate of a code lattice failed")
        return (1,) * odd + (2,) * (n - odd)

    def coordinates_of(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of vec in the basis, or None if not a member.
        Back-substitution solves for row i's coordinate from entry i, with
        the row's scale as divisor, and subtracts the row over its support."""
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} does not match rank {self.n}")
        residue = list(vec)
        coeffs = []
        for i, ((_, s), support) in enumerate(zip(self._rows, self._supports)):
            q, r = divmod(residue[i], s)
            if r:
                return None
            coeffs.append(q)
            if q:
                for t in support:
                    residue[t] -= q * s
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
        when the lattice is not integral."""
        det = determinant(self)
        return {
            "n": self.n,
            "sign": self.sign,
            "gram2": [list(r) for r in self.gram2],
            "det": {"num": det.numerator, "den": det.denominator},
            "elementary_divisors": (
                list(discriminant_group(self).elementary_divisors) if is_integral(self) else None
            ),
        }


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
    return CodeLattice(code, sign)


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
    source code is isotropic: a 2e_j row pairs evenly with every row, and
    two lifted generators pair to half their overlap."""
    return is_isotropic(lat.code)


def is_even(lat: CodeLattice) -> bool:
    """True when every vector has even integral norm (diagonal divisible
    by 2 after halving).  Requires an integral lattice."""
    if not is_integral(lat):
        raise ValueError("evenness is only defined for integral lattices")
    return all(lat.gram2[i][i] % 4 == 0 for i in range(lat.n))


def _leading_minors_int(gram2: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Leading principal minors of a definite integer matrix, in order.

    One fraction-free (Bareiss) pass without row swaps: the t-th pivot is
    the t-th leading principal minor.  Every step keeps the matrix
    symmetric, so row r of the trailing block is stored from its diagonal
    on, packed into one int of signed w-bit fields:
    sum_c x_rc * 2^(w (c - r)).  A step decodes the pivot row once into
    the suffixes S_c = sum_(j >= c) a_j * 2^(w (j - c)) that the decoding
    shifts through and their low fields a_c, and then updates each row
    with four big-int operations, (row * piv - a_r * S_r) // prev.  Field
    by field that is Bareiss' (x_rc * piv - a_r * a_c) // prev; each of
    those numerators is divisible by prev, so the packed one is too, and
    the quotient packs the new entries.  The products may overflow their
    fields, but only the stored rows are ever decoded.

    Width lemma: if the matrix G is semidefinite and D = max |G_ii|, then
    after the step whose pivot is the t-th leading minor p != 0, every
    entry of the trailing block has absolute value at most |p| * D.
    Proof: negating G multiplies each minor of order s by (-1)^s, so let
    G be positive semidefinite.  By Bareiss' theorem, entry (i, j) is then
    the bordered minor M_ij of the leading t x t block A with row i and
    column j.  A is positive definite (semidefinite with det p > 0), and
    M is p times the Schur complement of A, which is positive
    semidefinite, so Cauchy-Schwarz gives |M_ij| <= sqrt(M_ii M_jj).
    Fischer's inequality on the principal submatrix with diagonal blocks
    A and G_ii gives M_ii <= p * G_ii <= p * D.

    A signed w-bit field holds every integer of absolute value below
    2^(w - 1), so before the step with pivot p the width must be at least
    bitlen(|p| * D) + 1.  When it is not, the block is re-encoded once
    with the width at least doubled, so there are logarithmically many
    re-encodings and the widths follow the minors actually met, not an a
    priori bound such as Hadamard's.  Widths are whole bytes, which makes
    a re-encoding a byte spread (``_widen``).  The first width is twice
    the bytes that D^2, the bound of the first step, needs, because the
    minors grow from there.

    Each pivot divides the next step, so every leading minor but the last
    must be nonzero: the matrix must be definite, as the Gram matrix of a
    basis is.  ``CodeLattice`` runs this once per lattice and keeps the
    result.
    """
    n = len(gram2)
    bound = max((abs(gram2[i][i]) for i in range(n)), default=0)
    size = 2 * ((bound * bound).bit_length() // 8 + 1)  # bytes per field
    width = 8 * size
    rows = [_pack(row[i:], width) for i, row in enumerate(gram2)]
    minors = []
    prev = 1
    for t in range(n):
        half = 1 << (width - 1)
        piv = ((rows[0] & (2 * half - 1)) ^ half) - half
        minors.append(piv)
        need = (abs(piv) * bound).bit_length() + 1
        if need > width:
            grown = max(-(-need // 8), 2 * size)
            rows = _widen(rows, n - t, size, grown)
            size, width = grown, 8 * grown
            half = 1 << (width - 1)
        mask = 2 * half - 1
        s = rows[0]
        suffixes = [s := (s + half) >> width for _ in range(n - t - 1)]
        fields = [((s & mask) ^ half) - half for s in suffixes]
        rows = [(r * piv - a * s) // prev for r, a, s in zip(rows[1:], fields, suffixes)]
        prev = piv
    return tuple(minors)


def _pack(fields: Sequence[int], width: int) -> int:
    """sum_c fields[c] * 2^(width * c), the row format of ``_leading_minors_int``."""
    row = 0
    for x in reversed(fields):
        row = (row << width) + x
    return row


def _widen(rows: list[int], count: int, size: int, grown: int) -> list[int]:
    """Packed rows of at most count fields, re-encoded from size to grown
    bytes per field.

    Adding 2^(w - 1) to every field (the bias) makes each one a
    nonnegative w-bit number, so the biased row's bytes are its fields,
    size bytes each.  Spreading them to grown bytes each and removing the
    same bias, now one field per grown bytes, gives the wider row.  A row
    with fewer fields has zeros above them, and zeros survive the round
    trip, so one bias of count fields serves every row.
    """
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    wide_bias = int.from_bytes((bytes(size - 1) + b"\x80" + bytes(grown - size)) * count, "little")
    wide = []
    for r in rows:
        packed = (r + bias).to_bytes(count * size, "little")
        spread = bytearray(count * grown)
        for j in range(size):
            spread[j::grown] = packed[j::size]
        wide.append(int.from_bytes(spread, "little") - wide_bias)
    return wide


def determinant(lat: CodeLattice) -> Fraction:
    """Exact determinant of the true Gram matrix, det(gram2) / 2^n, with
    det(gram2) = det(sign * B B^T) = sign^n * det(B)^2 read off the
    triangular basis B: no elimination."""
    return Fraction(lat.sign**lat.n * basis_determinant(lat) ** 2, 2**lat.n)


def basis_determinant(lat: CodeLattice) -> int:
    """Determinant of the basis matrix; its absolute value is the index in Z^n.
    The basis is triangular, so this is the product of its diagonal, the
    row scales."""
    return math.prod(s for _, s in lat._rows)


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


def discriminant_group(lat: CodeLattice) -> DiscriminantGroup:
    """Cokernel of the integral true Gram matrix as a product of cyclic
    groups, from the Smith normal form."""
    if not is_integral(lat):
        raise ValueError("discriminant group requires an integral lattice")
    return DiscriminantGroup(tuple(d for d in lat._smith if d > 1))


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
