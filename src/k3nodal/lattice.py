"""Lattices built from binary codes.

``CodeLattice(code, sign)`` is the preimage of a code under reduction mod
2 inside Z^n, carrying the standard form scaled by 1/2 (optionally
negated): Construction A (Conway-Sloane, Sphere Packings, Lattices and
Groups, ch. 5).  A lattice holds only its code and sign, because every
invariant the chain reads follows from the code: the lattice is integral
exactly when C is isotropic, even exactly when C is also doubly even,
and of index 2^(n - k) in Z^n.  Its basis, sorted by leading coordinate,
has one row per coordinate j: the lifted generator with pivot j, or
2e_j.  Each row is kept as a (bits, scale) pair, the row being scale
times the 0/1 vector of bits, so every Gram entry is a popcount.  The
dense basis and the doubled Gram matrix gram2_ij = sign s_i s_j
|b_i & b_j| are built on first read, which only the two output formats
(the JSON document and ``format_gram``) do; gram2 takes popcounts only
between generators, since a 2e_j row pairs with a generator through the
generator's bit j.  Every invariant is exact.  Integrality (the isotropy
of the code), the leading minors and the Smith diagonal are each
computed at most once per lattice and kept on it.  The invariants come
from:

- membership from the parity word alone: the lattice is
  {x in Z^n : x mod 2 in C}, so x is a member exactly when the word of
  its odd coordinates is a codeword;
- the determinant from the triangular basis B alone, as det(gram2) =
  sign^n det(B)^2 with det(B) = 2^(n - k), so the determinant and the
  discriminant group run no elimination;
- every leading minor without an n x n elimination.  The basis Q of 0/1
  rows is unit upper triangular, so minor t of sign Q Q^T is
  sign^t det(M_t), M_t = I + A_t A_t^T for the k_t generators with pivot
  < t cut to the coordinates >= t; minor t of gram2 is that times
  (s_0 ... s_(t-1))^2.  One walk over the coordinates keeps det(M_t) and
  the adjugate of M_t, its rows packed into ints of signed fields: a
  unit coordinate is a rank-one downdate, a generator borders M_t, and
  each is an exact fraction-free Sherman-Morrison step of four big-int
  operations per row.  M_t >= I bounds every adjugate entry by det(M_t),
  so the field width follows the determinants.  Minors t > n - k come
  from the same walk on the complementary side, from the last
  coordinate, with the columns of Q at the non-pivots as generators
  (Jacobi's identity), so either walk holds at most min(k, n - k) rows
  and the minors cost O(n min(k, n - k)^2) row operations;
- the discriminant group from a certificate: |det| = 2^(n - r), with r
  the rank of the Gram matrix over GF(2), fixes the Smith diagonal as
  r ones and n - r twos.  For an isotropic code C the lattice is
  Gamma(C), its dual is Gamma(C-perp) and Gamma*/Gamma is C-perp/C, an
  elementary abelian 2-group of order 2^(n - 2k), so r = 2k, and r is
  read off the k x (n - k) block of generator bits at the non-pivots.

The two named lattices of interest are the rank-16 lattice of sixteen
disjoint nodal curves on a desingularized Kummer surface and the rank-8
lattice of an even eight-set.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .codes import LinearCode, ResourceLimitError, code_d, is_isotropic
from .gf2 import _rref_ints, _transpose_ints

MAX_LATTICE_RANK = 256


@dataclass(frozen=True)
class CodeLattice:
    """The lattice of a binary code, with doubled Gram data.

    The fields are the code, the sign and the rank n; n is derived from
    the code the way ``LinearCode`` derives n and k, a field but not an
    argument, and equality, hashing and repr are those of (code, sign).
    The true Gram matrix is gram2 / 2; keeping the doubled copy as plain
    integers keeps every computation exact without a fraction type in hot
    paths.  The dense basis, gram2, integrality, the leading minors and
    the Smith diagonal are computed on first use and kept on the
    instance; no invariant reads the basis or gram2.  The basis is upper
    triangular with respect to the leading coordinate, with diagonal 1 at
    pivots and 2 elsewhere.  A sign other than +1 or -1 and a rank above
    MAX_LATTICE_RANK are refused before any basis row is built.
    """

    code: LinearCode
    sign: int = 1
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "n", self.code.n)
        if self.n > MAX_LATTICE_RANK:
            raise ResourceLimitError(
                f"a lattice of rank {self.n} exceeds the rank budget of {MAX_LATTICE_RANK}"
            )

    @functools.cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The dense basis, one row per ``_rows`` entry."""
        return tuple(tuple(s * (b >> j & 1) for j in range(self.n)) for b, s in self._rows)

    @functools.cached_property
    def gram2(self) -> tuple[tuple[int, ...], ...]:
        """The doubled Gram matrix, gram2_ij = sign s_i s_j |b_i & b_j|.
        Only the k x k block of generator pairs needs popcounts: a 2e_a
        row holds 4 sign on its diagonal, 2 sign against each generator
        with bit a, read from column a of the generators, and 0 elsewhere.
        Each entry is set once and mirrored."""
        n, sign = self.n, self.sign
        gens, pivots = self.code.gen.rows, self.code.pivots()
        gram = [[0] * n for _ in range(n)]
        for i, (p, g) in enumerate(zip(pivots, gens)):
            row = gram[p]
            for q, h in zip(pivots[i:], gens[i:]):
                row[q] = gram[q][p] = sign * (g & h).bit_count()
        cols = _transpose_ints(gens, n)  # bit i of column a is bit a of generator i
        for a in set(range(n)).difference(pivots):
            row, col = gram[a], cols[a]
            row[a] = 4 * sign
            while col:
                low = col & -col
                p = pivots[low.bit_length() - 1]
                row[p] = gram[p][a] = 2 * sign
                col ^= low
        return tuple(map(tuple, gram))

    @functools.cached_property
    def _rows(self) -> tuple[tuple[int, int], ...]:
        """The basis rows as (bits, scale) pairs, by leading coordinate j:
        the lifted generator with pivot j (scale 1), or 2e_j (scale 2)."""
        by_leading = dict(zip(self.code.pivots(), self.code.gen.rows))
        return tuple(
            (by_leading[j], 1) if j in by_leading else (1 << j, 2) for j in range(self.code.n)
        )

    @functools.cached_property
    def _integral(self) -> bool:
        """Whether the true Gram matrix is integral (``is_integral``)."""
        return is_isotropic(self.code)

    @functools.cached_property
    def _minors2(self) -> tuple[int, ...]:
        """Leading principal minors of gram2, from ``_bordered_dets``.

        With Q the 0/1 basis (rows b_i) and S = diag(s) for the row scales,
        gram2 = sign S Q Q^T S, so minor t of gram2 is sign^t det(Q_t Q_t^T)
        (s_0 ... s_(t-1))^2 for the first t rows Q_t.  Subtracting the unit
        rows e_j (j < t) from the generators turns Q_t into [I_t | A] with
        A zero on the unit rows, so det(Q_t Q_t^T) = det(I + A_t A_t^T) for
        the generators with pivot < t cut to the coordinates >= t: the walk
        on the code's own generators.

        The other side: Q = I + H with H^2 = 0, so Q^-1 = I - H, and
        Jacobi's identity on Q Q^T (of determinant 1) gives
        det(Q_t Q_t^T) = det(V V^T) for the last n - t rows V of Q^-T.  Up
        to the signs of rows and columns, which no principal minor sees,
        row x of Q^-T is e_x at a pivot and column x of Q elsewhere.  Those
        rows have the code lattice's shape in reversed coordinates, with
        the n - k non-pivots as pivots, so the walk from the last
        coordinate gives det(Q_t Q_t^T) after its step at coordinate t.

        Before coordinate t the forward walk holds the pivots below t and
        the backward walk the non-pivots from t on; there are no more of
        the first exactly when t <= n - k.  So the minors up to n - k come
        from the forward walk and the rest from the backward one, and
        neither holds more than min(k, n - k) rows.
        """
        rows, n = self._rows, self.n
        split = min(n - self.code.k, n - 1)  # det(M_n) = 1 needs no walk
        cols = _transpose_ints([b for b, _ in rows], n)  # bit i of column j is bit j of row i
        forward = _bordered_dets([(b, s == 1) for b, s in rows[:split]])
        backward = _bordered_dets([(cols[x], rows[x][1] == 2) for x in range(n - 1, split, -1)])
        dets = forward[1:] + backward[::-1]
        minors = []
        scale = 1
        for t, (d, (_, s)) in enumerate(zip(dets, rows), start=1):
            scale *= s * s
            minors.append(self.sign**t * d * scale)
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

        The rank comes from the code's bits.  Let N be the generator bits
        at the non-pivots: k rows of n - k bits.  With the unit rows 2e_j
        first, G mod 2 is [[0, N^T], [N, X]]: two unit rows pair to
        2 delta_ij, a unit row 2e_j pairs with a generator to its bit j,
        and X holds the generator-generator parities.  When rank N = k,
        the unit columns clear X, so r = 2k whatever X holds.  For an
        isotropic code C it holds: a nonzero sum of generators that
        vanished off the pivots would pair oddly with a generator it
        contains.  The determinant needs no test, because it is a property
        of the basis: the triangular basis B has k ones and n - k twos on
        its diagonal, so |det G| = det(B)^2 / 2^n = 4^(n-k) / 2^n =
        2^(n-2k) for every code lattice, and rank N = k gives k <= n - k.
        The rank is the one runtime check; a failure is a bug and raises
        ``AssertionError``.  No n x n elimination runs.
        """
        n, k, mask = self.n, self.code.k, sum(1 << j for j in self.code.pivots())
        if len(_rref_ints([g & ~mask for g in self.code.gen.rows], n)[1]) != k:
            raise AssertionError("the Smith certificate of a code lattice failed: rank N < k")
        return (1,) * (2 * k) + (2,) * (n - 2 * k)

    def contains(self, vec: Sequence[int]) -> bool:
        """True when vec lies in the lattice {x in Z^n : x mod 2 in C}: its
        parity word, bit j the parity of vec[j] (read as the '0'/'1' text
        of the coordinates, last first), is a codeword.  A vector with an
        entry that is not an integer type (a Fraction, a float) is a member
        only when every entry is integral (x % 1 == 0, which is false for
        inf and nan), and then exactly when its int copy is."""
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} does not match rank {self.n}")
        try:
            bits = map(operator.and_, reversed(vec), itertools.repeat(1))
            text = bytes(map(operator.or_, bits, itertools.repeat(48)))
        except TypeError:
            return all(x % 1 == 0 for x in vec) and self.contains([int(x) for x in vec])
        return self.code.contains(int(text, 2))

    def norm_of(self, vec: Sequence[int]) -> Fraction:
        """Value of the form on an ambient integer vector."""
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} does not match rank {self.n}")
        return Fraction(self.sign * sum(map(operator.mul, vec, vec)), 2)

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
    two lifted generators pair to half their overlap.  Read once per
    lattice and kept on it."""
    return lat._integral


def is_even(lat: CodeLattice) -> bool:
    """True when every vector has even integral norm.  Requires an integral
    lattice.  An integral lattice is even exactly when its basis vectors
    are: a 2e_j row has norm sign 2, and a lifted generator g norm
    sign |g|/2, so the lattice is even exactly when the code is doubly
    even, every generator weight divisible by 4."""
    if not is_integral(lat):
        raise ValueError("evenness is only defined for integral lattices")
    return all(g.bit_count() % 4 == 0 for g in lat.code.gen.rows)


def _bordered_dets(walk: Iterable[tuple[int, bool]]) -> list[int]:
    """det(M_t) for M_t = I + A_t A_t^T before a walk over the coordinates
    of a code lattice basis (1) and after each of its steps.

    Step t carries (word, grows).  A generator (grows) has its pivot at t
    and bits only at later coordinates, none at another generator's pivot;
    otherwise word is the bit of coordinate t.  A_t holds the generators
    met so far, cut to the coordinates after t.  A unit coordinate drops
    column c of A (c_i = |g_i & word|): M' = M - c c^T.  A generator g
    borders M with b_i = |g_i & g| and corner delta = |g|.  With D = det M,
    N = adj M and u = N c (b for a border), both are Sherman-Morrison
    steps, exact and fraction-free:

        D' = D delta - c . u   (delta = 1 for a unit coordinate),
        adj M' = (D' N + u u^T) / D, bordered by the row (-u, D).

    The rows of N are packed into ints of signed w-bit fields,
    sum_j N_ij 2^(w j), so U = sum c_j N_j packs u, and a row is updated
    with four big-int operations, (N_i D' + u_i U) // D;
    every field's numerator is divisible by D, so the packed one is too,
    and subtracting D 2^(w k) from U adds the border field -u_i.  A step
    whose c is zero changes nothing and is skipped.

    Width lemma: M_t >= I, so 0 < M_t^-1 <= I and every entry of
    N = D M^-1 has absolute value at most D, and |u_i| <= D ||c||.  A
    signed w-bit field holds every integer of absolute value below
    2^(w - 1).  So the width is checked twice per step: against the bound
    on u before u is formed, and against D' before the new rows are.  A
    check that fails re-encodes the rows once with the width at least
    doubled (``_widen``), so there are logarithmically many re-encodings.
    """
    gens: list[int] = []
    rows: list[int] = []
    det, size = 1, 1  # bytes per field
    dets = [det]
    for word, grows in walk:
        c = list(map(int.bit_count, map(word.__and__, gens)))
        if grows or any(c):
            k = len(rows)
            need = det.bit_length() + (sum(map(operator.mul, c, c)).bit_length() + 1) // 2 + 1
            if need > 8 * size:
                rows, size = _widen(rows, k, size, need)
            # c is the 0/1 column of a unit coordinate
            packed = sum(map(operator.mul, c, rows)) if grows else sum(itertools.compress(rows, c))
            u = _fields(packed, k, size)
            new = det * word.bit_count() - sum(map(operator.mul, c, u))
            if new.bit_length() + 1 > 8 * size:
                rows, size = _widen(rows + [packed], k, size, new.bit_length() + 1)
                packed = rows.pop()
            if grows:
                packed -= det << (8 * size * k)
            rows = [(r * new + a * packed) // det for r, a in zip(rows, u)]
            if grows:
                rows.append(-packed)
                gens.append(word)
            det = new
        dets.append(det)
    return dets


def _fields(packed: int, count: int, size: int) -> Sequence[int]:
    """The count signed fields of size bytes of a packed row, lowest first.

    With the bias added and then flipped off again by an XOR, each field
    holds its value in two's complement.  On a little-endian host, fields
    of 1, 2, 4 or 8 bytes are read by one memoryview cast; any other
    width, and every width on a big-endian host, by one slice per field.
    """
    bias = _bias(count, size)
    twos = (packed + bias) ^ bias
    raw = twos.to_bytes(count * size, "little")
    if sys.byteorder == "little" and size in (1, 2, 4, 8):
        return memoryview(raw).cast("bhiq"[size.bit_length() - 1])
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, count * size, size)]


@functools.cache
def _bias(count: int, size: int) -> int:
    """2^(w - 1) in each of count fields of size bytes: adding it makes
    every signed field a nonnegative w-bit number."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _widen(rows: list[int], count: int, size: int, need: int) -> tuple[list[int], int]:
    """Packed rows of count fields, re-encoded from size bytes per field to
    grown, at least 2 * size and need bits, and grown.  With the bias
    added, a row's bytes are its fields; spreading them to grown bytes
    each and removing the same bias gives the wider row."""
    grown = max(-(-need // 8), 2 * size)
    bias = _bias(count, size)
    wide_bias = int.from_bytes((bytes(size - 1) + b"\x80" + bytes(grown - size)) * count, "little")
    wide = []
    for r in rows:
        packed = (r + bias).to_bytes(count * size, "little")
        spread = bytearray(count * grown)
        for j in range(size):
            spread[j::grown] = packed[j::size]
        wide.append(int.from_bytes(spread, "little") - wide_bias)
    return wide, grown


def determinant(lat: CodeLattice) -> Fraction:
    """Exact determinant of the true Gram matrix, det(gram2) / 2^n, with
    det(gram2) = det(sign * B B^T) = sign^n * det(B)^2 read off the
    triangular basis B: no elimination."""
    return Fraction(lat.sign**lat.n * basis_determinant(lat) ** 2, 2**lat.n)


def basis_determinant(lat: CodeLattice) -> int:
    """Determinant of the basis matrix; its absolute value is the index in Z^n.
    The basis is triangular with k ones and n - k twos on its diagonal, so
    this is 2^(n - k), read from the code's dimension."""
    return 1 << (lat.n - lat.code.k)


def leading_principal_minors(lat: CodeLattice) -> tuple[Fraction, ...]:
    """Exact leading principal minors of the true Gram matrix."""
    return tuple(Fraction(d, 2**t) for t, d in enumerate(lat._minors2, start=1))


def is_negative_definite(lat: CodeLattice) -> bool:
    """Whether the form is negative definite, read from the sign.  Gamma(C)
    contains 2Z^n, so it is a full-rank sublattice of Z^n, and its form is
    sign x.x/2 with x.x > 0 for every nonzero x: positive definite for
    sign +1 and negative definite for sign -1.  No minor is computed;
    ``leading_principal_minors`` gives Sylvester's test on the same data."""
    return lat.sign < 0


def discriminant_group(lat: CodeLattice) -> DiscriminantGroup:
    """Cokernel of the integral true Gram matrix as a product of cyclic
    groups, from the Smith normal form."""
    if not is_integral(lat):
        raise ValueError("discriminant group requires an integral lattice")
    return DiscriminantGroup(tuple(d for d in lat._smith if d > 1))


def format_gram(lat: CodeLattice) -> str:
    """True Gram matrix as text: integers when integral, p/2 for odd entries.
    An integral lattice has no odd entry of gram2, so the parity of each
    entry decides."""
    cells = [[str(e // 2) if e % 2 == 0 else f"{e}/2" for e in row] for row in lat.gram2]
    width = max(len(c) for line in cells for c in line)
    return "\n".join(" ".join(c.rjust(width) for c in line) for line in cells)
