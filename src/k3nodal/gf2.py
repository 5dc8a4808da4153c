"""Exact linear algebra over the two-element field on bit-packed data.

A row packs its coordinates into a single arbitrary-precision integer
(bit j = coordinate j), so row addition is XOR and the Hamming weight is
``int.bit_count()``.  A ``Gf2Matrix`` holds such plain int rows, from the
'0'/'1' text format (read by ``parse_matrix_text``, written by ``str``) to
every kernel.  Every value is immutable and every operation is a pure
function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import io
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


def _quote(text: str) -> str:
    """The repr of the first 40 characters of a refused input, and ``...``
    when it is longer, so a message stays short whatever the input."""
    return repr(text[:40]) + "..." * (len(text) > 40)


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
        # a sized input is copied at its size, not grown from a generator
        rows = tuple(self.rows)
        if not all(type(r) is int for r in rows):
            rows = tuple(r if type(r) is int else _integer(r, "a row") for r in rows)
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
        """The text matrix format of ``parse_matrix_text``."""
        return "\n".join(f"{r:0{self.cols}b}"[::-1] for r in self.rows)


@dataclass(frozen=True)
class RrefResult:
    matrix: Gf2Matrix
    rank: int
    pivots: tuple[int, ...]


def _xor_sums(values: Sequence[int]) -> list[int]:
    """The 2^len(values) XOR sums of the values: entry u is the XOR of
    ``values[j]`` over the set bits j of u.  A zero value doubles the table."""
    table = [0]
    for v in values:
        table += [t ^ v for t in table] if v else table
    return table


def _rref_ints(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows: (basis rows, pivot
    columns), one reduced row per pivot in pivot order and no zero row.

    The input is left unchanged.  Under 32 rows each row is reduced
    against a small XOR basis keyed by lowest set bit until its lowest bit
    is new, and joins the basis; a row that reduces to zero is dropped.
    The lowest bits are the pivots, and clearing each pivot, highest
    first, from the rows with lower pivots reduces the basis: the step
    each strip of ``_rref_strips`` runs, here over all columns at once, so
    the cost follows the rank and not the column count.  With more rows a
    table of row sums costs less than the row steps it saves
    (``_rref_strips``).  The reduced echelon form is unique, so both ways
    give the same rows and pivots.
    """
    if len(rows) >= 32:
        return _rref_strips(rows, cols)
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    lows = sorted(basis)
    for j in reversed(range(1, len(lows))):
        prow = basis[lows[j]]
        for low in lows[:j]:
            if basis[low] & lows[j]:
                basis[low] ^= prow
    return [basis[low] for low in lows], [low.bit_length() - 1 for low in lows]


def _independent(rows: Sequence[int]) -> bool:
    """True when the rows are linearly independent over GF(2): the rank
    test of ``_rref_ints`` without the reduction.

    Each row is reduced against a small XOR basis keyed by highest bit
    until its highest bit is new, and joins the basis; a row that reduces
    to zero depends on the rows before it.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
        else:
            return False
    return True


def _rref_strips(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """``_rref_ints`` a strip of s columns at a time (the Method of Four
    Russians), s = floor(log2 rows) up to 8.

    It keeps the pivot rows found so far and the rows that are still
    nonzero and have no pivot yet; these are zero left of the strip.
    Their pivots in the strip come from a small XOR basis keyed by the
    lowest bit in the strip, and are reduced against each other there.  A
    table of all 2^s sums of these pivot rows, indexed by the strip's bits
    (a bit without a pivot doubles it), clears the strip's pivot columns
    of every row with one XOR.  That turns each row in the span of the
    strip's basis, the rows it was built from included, into zero, and
    the zero rows are dropped; the loop ends once no row is left.
    """
    reduced: list[int] = []
    pivots: list[int] = []
    strip = min(len(rows).bit_length() - 1, 8)
    c = 0
    while rows and c < cols:
        width = min(strip, cols - c)
        # AND before shift: the window costs its own size, not the row's
        mask = ((1 << width) - 1) << c
        basis: dict[int, int] = {}
        for x in rows:
            window = (x & mask) >> c
            while window:
                low = window & -window
                if low not in basis:
                    basis[low] = x
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
            prow = basis[lows[j]]
            for low in lows[:j]:
                if basis[low] & (lows[j] << c):
                    basis[low] ^= prow
        table = _xor_sums([basis.get(1 << b, 0) for b in range(width)])
        reduced = [x ^ table[(x & mask) >> c] for x in reduced] + [basis[low] for low in lows]
        # a row in the span of the basis, a source row of it included,
        # clears to zero and is dropped
        rows = [y for x in rows if (y := x ^ table[(x & mask) >> c])]
        pivots += [c + low.bit_length() - 1 for low in lows]
        c += width
    return reduced, pivots


def rref(m: Gf2Matrix) -> RrefResult:
    """Reduced row echelon form, preserving the row space and row count.

    Pivot columns come leftmost-first and each contains a single one-bit,
    so equality of reduced matrices is a bitwise comparison.  The basis
    rows of ``_rref_ints`` come first, padded with zero rows to the row
    count; this is the one place that pads them.
    """
    rows, pivots = _rref_ints(m.row_bits(), m.cols)
    rows += [0] * (m.nrows - len(rows))
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
    m . v^T = 0.  The rows of m are reduced with their columns reversed
    into one row per pivot, so every reduced row has its pivot as its
    highest bit, its pivot place; the null-space vector of a free column
    f then has f as its lowest bit, and the vectors taken in order of f
    are already the reduced echelon basis.  Its other bits are the pivot
    places of the reduced rows holding bit f.  One transpose of the
    reduced rows, in ascending place order, gives per column f those rows
    as the bits of an int, ``holders``.  Each maximal run of consecutive
    pivot places, a single place included, sits at consecutive bits of
    ``holders``, so it is deposited with one shift and mask.
    """
    cols = m.cols
    width = f"0{cols}b"
    flipped, pivots = _rref_ints([int(format(b, width)[::-1], 2) for b in m.row_bits()], cols)
    rank = len(pivots)
    places = [cols - 1 - p for p in reversed(pivots)]
    place_set = set(places)
    free = [f for f in range(cols) if f not in place_set]
    # each run of consecutive places runs from its start to the next one
    starts = [i for i in range(rank) if not i or places[i] - places[i - 1] > 1]
    runs = [(a, (1 << (b - a)) - 1, places[a]) for a, b in zip(starts, starts[1:] + [rank])]
    # the reduced rows in ascending order of their pivot places: bit i of
    # columns[f] is bit f of the row at places[i], unflipped
    columns = _transpose_ints(flipped[::-1], cols)[::-1]
    basis = []
    for f in free:
        holders, v = columns[f], 1 << f
        for i, mask, place in runs:
            v |= (holders >> i & mask) << place
        basis.append(v)
    return Gf2Matrix.from_ints(basis, cols)


def _transpose_ints(rows: Sequence[int], cols: int) -> list[int]:
    """Columns of bit-packed rows (bit i of column j is bit j of row i), each
    a stride slice of the rows' fixed-width binary text, last row first.
    With no rows every column is zero, and none is sliced."""
    if not rows:
        return [0] * cols
    width = f"0{cols}b"
    text = "".join([format(r, width) for r in reversed(rows)])
    return [int(text[p::cols], 2) for p in range(cols - 1, -1, -1)]


def parse_matrix_text(text: str) -> Gf2Matrix:
    """Parse the text matrix format: one '0'/'1' row per line, blank lines
    ignored; the first character of a row is coordinate 0.  A line ends at a
    line feed, a carriage return or both (the universal newlines) and not
    at the other breaks of ``str.splitlines``, so a row that holds a form
    feed or a line separator is refused.

    One pass over the lines of an ``io.StringIO``, read one at a time
    rather than split into a list, strips each line once and refuses a
    row that holds any other character as soon as it reaches it, so that
    row is reported ahead of ragged rows wherever it sits.
    """
    rows, widths = [], set()
    for line in filter(None, map(str.strip, io.StringIO(text, newline=None))):
        if line.strip("01"):
            raise ValueError(f"not a 0/1 row: {_quote(line)}")
        rows.append(int(line[::-1], 2))
        widths.add(len(line))
    if not rows:
        raise ValueError("no matrix rows found")
    if len(widths) > 1:
        raise ValueError("ragged rows: all rows must have the same length")
    return Gf2Matrix.from_ints(rows, widths.pop())
