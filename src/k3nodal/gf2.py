"""Exact linear algebra over the two-element field on bit-packed data.

A row packs its coordinates into a single arbitrary-precision integer
(bit j = coordinate j), so row addition is XOR and the Hamming weight is
``int.bit_count()``.  A ``Gf2Matrix`` holds such plain int rows, from the
'0'/'1' text format to every kernel.  Every value is immutable and every
operation is a pure function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


def _integer(value: object, what: str) -> int:
    """The value as an int: an int or any object with ``__index__``, but
    not a bool."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class Gf2Matrix:
    """Matrix over GF(2) stored as a tuple of int rows, bit j = column j.

    Every row lies in [0, 2^cols); rows given as any iterable are stored
    as a tuple of exact ints.  Zero-row matrices are legal; they carry
    the column count explicitly and represent the generator set of the
    zero code.
    """

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cols", _integer(self.cols, "the column count"))
        if self.cols < 1:
            raise ValueError("column count must be positive")
        rows = tuple(r if type(r) is int else _integer(r, "a row") for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows and (min(rows) < 0 or max(rows) >> self.cols):
            raise ValueError(f"rows must be ints in [0, 2^{self.cols})")

    @classmethod
    def from_ints(cls, bits: Iterable[int], cols: int) -> Gf2Matrix:
        return cls(bits, cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_bits(self) -> tuple[int, ...]:
        return self.rows

    def __str__(self) -> str:
        return format_matrix_text(self)


@dataclass(frozen=True)
class RrefResult:
    matrix: Gf2Matrix
    rank: int
    pivots: tuple[int, ...]


def _rref_ints(rows: Iterable[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows: (rows, pivot columns).

    The row count is preserved and zero rows end up at the bottom, and
    the scan stops as soon as every row holds a pivot.  Under 32 rows each
    pivot row is XORed into every other row holding its pivot bit, one
    column at a time; with more rows a table of row sums costs less than
    the column steps it saves (``_rref_strips``).  The reduced echelon
    form is unique, so both ways give the same rows and pivots.
    """
    rows = list(rows)
    nrows = len(rows)
    if nrows >= 32:
        return _rref_strips(rows, cols)
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


def _rref_strips(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """``_rref_ints`` a strip of s columns at a time (the Method of Four
    Russians), s = floor(log2 rows) up to 8.

    The rows without a pivot yet are zero left of the strip; their pivots
    in it come from a small XOR basis keyed by the lowest bit in the
    strip, and are reduced against each other there.  A table of all 2^s
    sums of these pivot rows, indexed by the strip's bits (a bit without a
    pivot doubles it), clears the strip's pivot columns of every row with
    one XOR.
    """
    nrows = len(rows)
    pivots: list[int] = []
    strip = min(nrows.bit_length() - 1, 8)
    r = c = 0
    while r < nrows and c < cols:
        width = min(strip, cols - c)
        # AND before shift: the window costs its own size, not the row's
        mask = ((1 << width) - 1) << c
        basis: dict[int, int] = {}
        for i in range(r, nrows):
            x = rows[i]
            window = (x & mask) >> c
            while window:
                low = window & -window
                if low not in basis:
                    basis[low] = x
                    # park the source row in the next pivot slot
                    rows[i] = rows[r + len(basis) - 1]
                    rows[r + len(basis) - 1] = x
                    break
                x ^= basis[low]
                window = (x & mask) >> c
            if len(basis) == width:
                break
        if not basis:
            c += width
            continue
        lows = sorted(basis)
        for j in reversed(range(1, len(lows))):
            high = lows[j] << c
            prow = basis[lows[j]]
            for low in lows[:j]:
                if basis[low] & high:
                    basis[low] ^= prow
        table = [0]
        for b in range(width):
            prow = basis.get(1 << b)
            table += [t ^ prow for t in table] if prow else table
        # the parked source rows clear to zero and take the pivot rows
        rows = [x ^ table[(x & mask) >> c] for x in rows]
        rows[r : r + len(lows)] = [basis[low] for low in lows]
        pivots += [c + low.bit_length() - 1 for low in lows]
        r += len(lows)
        c += width
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
    Its other bits are the pivots of the reduced rows holding bit f.  One
    transpose of the reduced rows gives, per column f, those rows as the
    bits of an int; it is read w bits at a time (w about log2 of the free
    column count, at most 8) through tables of the 2^w sums of the pivot
    bits of w consecutive rows.
    """
    cols = m.cols
    width = f"0{cols}b"
    flipped, pivots = _rref_ints([int(format(b, width)[::-1], 2) for b in m.row_bits()], cols)
    # bit i of columns[f] is bit f of the i-th reduced row, unflipped
    columns = _transpose_ints(flipped[: len(pivots)], cols)[::-1]
    pivot_set = {cols - 1 - p for p in pivots}
    free = [f for f in range(cols) if f not in pivot_set]
    w = min(max(len(free).bit_length(), 1), 8)
    tables = []
    for i in range(0, len(pivots), w):
        table = [0]
        for p in pivots[i : i + w]:
            bit = 1 << (cols - 1 - p)
            table += [t | bit for t in table]
        tables.append(table)
    basis = []
    wmask = (1 << w) - 1
    for f in free:
        holders, v = columns[f], 1 << f
        for table in tables:
            v |= table[holders & wmask]
            holders >>= w
        basis.append(v)
    return Gf2Matrix.from_ints(basis, cols)


def _transpose_ints(rows: Sequence[int], cols: int) -> list[int]:
    """Columns of bit-packed rows (bit i of column j is bit j of row i), each
    a stride slice of the rows' fixed-width binary text, last row first."""
    width = f"0{cols}b"
    text = "".join([format(r, width) for r in reversed(rows)])
    return [int(text[p::cols] or "0", 2) for p in range(cols - 1, -1, -1)]


def parse_matrix_text(text: str) -> Gf2Matrix:
    """Parse the text matrix format: one '0'/'1' row per line, blank lines
    ignored; the first character of a row is coordinate 0.  A line ends at a
    line feed, a carriage return or both (the universal newlines) and not
    at the other breaks of ``str.splitlines``, so a row that holds a form
    feed or a line separator is refused."""
    lines = [line.strip() for line in text.replace("\r", "\n").split("\n") if line.strip()]
    if not lines:
        raise ValueError("no matrix rows found")
    for line in lines:
        if set(line) - {"0", "1"}:
            raise ValueError(f"not a 0/1 row: {line!r}")
    if len({len(line) for line in lines}) > 1:
        raise ValueError("ragged rows: all rows must have the same length")
    return Gf2Matrix.from_ints([int(line[::-1], 2) for line in lines], len(lines[0]))


def format_matrix_text(m: Gf2Matrix) -> str:
    """The text matrix format of ``parse_matrix_text``."""
    width = f"0{m.cols}b"
    return "\n".join(format(r, width)[::-1] for r in m.rows)
