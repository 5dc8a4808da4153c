"""Exact linear algebra over the two-element field on bit-packed data.

A vector packs its coordinates into a single arbitrary-precision integer
(bit j = coordinate j), so vector addition is XOR and the Hamming weight
is ``int.bit_count()``.  Every value is immutable and every operation is
a pure function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BitVector:
    """Element of GF(2)^length with coordinates packed into ``bits``."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("vector length must be positive")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits do not fit the declared length")

    @classmethod
    def zero(cls, length: int) -> BitVector:
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> BitVector:
        return cls(length, (1 << length) - 1)

    @classmethod
    def unit(cls, length: int, i: int) -> BitVector:
        """Standard basis vector e_i."""
        if not 0 <= i < length:
            raise ValueError(f"unit index {i} out of range for length {length}")
        return cls(length, 1 << i)

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> BitVector:
        bits = 0
        for j, c in enumerate(coords):
            if c & 1:
                bits |= 1 << j
        return cls(len(coords), bits)

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        """Parse a row of '0'/'1' characters; the first character is coordinate 0."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a 0/1 row: {text!r}")
        return cls(len(text), int(text[::-1], 2))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.length) if (self.bits >> j) & 1)

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> j) & 1 for j in range(self.length))

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise ValueError(f"xor of lengths {self.length} and {other.length}")
        return BitVector(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]


def dot(a: BitVector, b: BitVector) -> int:
    """Coordinatewise dot product over GF(2), returned as 0 or 1."""
    if a.length != b.length:
        raise ValueError(f"dot of lengths {a.length} and {b.length}")
    return (a.bits & b.bits).bit_count() & 1


@dataclass(frozen=True)
class Gf2Matrix:
    """Matrix over GF(2) stored as a tuple of equal-length rows.

    Zero-row matrices are legal; they carry the column count explicitly
    and represent the generator set of the zero code.
    """

    rows: tuple[BitVector, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 1:
            raise ValueError("column count must be positive")
        for r in self.rows:
            if r.length != self.cols:
                raise ValueError("ragged rows: all rows must have the same length")

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector], cols: int | None = None) -> Gf2Matrix:
        rows = tuple(rows)
        if cols is None:
            if not rows:
                raise ValueError("cols is required for an empty matrix")
            cols = rows[0].length
        return cls(rows, cols)

    @classmethod
    def from_ints(cls, bits: Iterable[int], cols: int) -> Gf2Matrix:
        return cls(tuple(BitVector(cols, b) for b in bits), cols)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(tuple(BitVector.unit(n, i) for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_bits(self) -> tuple[int, ...]:
        return tuple(r.bits for r in self.rows)

    def __str__(self) -> str:
        return format_matrix_text(self)


@dataclass(frozen=True)
class RrefResult:
    matrix: Gf2Matrix
    rank: int
    pivots: tuple[int, ...]


def _rref_ints(rows: Iterable[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows: (rows, pivot columns).

    The row count is preserved and zero rows end up at the bottom.  Each
    pivot row is XORed into every other row holding its pivot bit, and the
    scan stops as soon as every row holds a pivot.
    """
    rows = list(rows)
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == nrows:
            break
        bit = 1 << c
        for i in range(r, nrows):
            if rows[i] & bit:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows = [x ^ prow if x & bit else x for x in rows]
        rows[r] = prow
        pivots.append(c)
    return rows, pivots


def rref(m: Gf2Matrix) -> RrefResult:
    """Reduced row echelon form, preserving the row space and row count.

    Pivot columns come leftmost-first and each contains a single one-bit,
    so equality of reduced matrices is a bitwise comparison.
    """
    rows, pivots = _rref_ints(m.row_bits(), m.cols)
    return RrefResult(Gf2Matrix.from_ints(rows, m.cols), len(pivots), tuple(pivots))


def is_rref(m: Gf2Matrix) -> bool:
    """Check the reduced-echelon shape: strictly increasing pivots, pure
    pivot columns, zero rows only at the bottom."""
    last_lead = 0
    pivot_mask = 0
    seen_zero = False
    bits = m.row_bits()
    for row in bits:
        if row == 0:
            seen_zero = True
            continue
        lead = row & -row
        if seen_zero or lead <= last_lead:
            return False
        last_lead = lead
        pivot_mask |= lead
    # every row meets the pivot columns in its own lead bit only
    return all(row & pivot_mask == row & -row for row in bits)


def kernel(m: Gf2Matrix) -> Gf2Matrix:
    """Basis of the right null space, canonicalized to reduced echelon form.

    The returned matrix has cols - rank(m) independent rows v with
    m . v^T = 0.  The rows of m are reduced with their columns reversed,
    so every reduced row has its pivot as its highest bit; the null-space
    vector of a free column f then has f as its lowest bit, and the
    vectors taken in order of f are already the reduced echelon basis.
    """
    width = f"0{m.cols}b"
    flipped, pivots = _rref_ints([int(format(b, width)[::-1], 2) for b in m.row_bits()], m.cols)
    pivot_rows = [
        (int(format(row, width)[::-1], 2), 1 << (m.cols - 1 - p)) for row, p in zip(flipped, pivots)
    ]
    pivot_set = {m.cols - 1 - p for p in pivots}
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        bit = 1 << f
        v = bit
        for row, pbit in pivot_rows:
            if row & bit:
                v |= pbit
        basis.append(v)
    return Gf2Matrix.from_ints(basis, m.cols)


def transpose(m: Gf2Matrix) -> Gf2Matrix:
    if m.nrows == 0:
        raise ValueError("cannot transpose a matrix with no rows")
    bits = m.row_bits()
    cols = [sum(((b >> j) & 1) << i for i, b in enumerate(bits)) for j in range(m.cols)]
    return Gf2Matrix.from_ints(cols, m.nrows)


def parse_matrix_text(text: str) -> Gf2Matrix:
    """Parse the text matrix format: one '0'/'1' row per line, blank lines ignored."""
    rows = [BitVector.from_string(line.strip()) for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("no matrix rows found")
    lengths = {r.length for r in rows}
    if len(lengths) != 1:
        raise ValueError("ragged rows: all rows must have the same length")
    return Gf2Matrix.from_rows(rows)


def format_matrix_text(m: Gf2Matrix) -> str:
    return "\n".join(str(r) for r in m.rows)
