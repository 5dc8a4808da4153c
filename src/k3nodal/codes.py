"""Binary linear codes: Reed-Muller construction, the affine-functions
family D_m, duality, isotropy, exact weight enumeration, and two
extremal facts:

* ``verify_beauville`` checks that a code whose nonzero weights all reach
  half the length needs n >= 2^(m-1), with equality only for coordinate
  permutations of D_m: over every dimension-m subspace of F_2^n for
  m <= MAX_EXHAUSTIVE_DIM, and over a seeded sample of them above it,
  which can find a counterexample but verify neither claim;
* ``verify_no_extension`` certifies that no code on more than 2^(m-1)
  coordinates has all its 2^(m-1)-coordinate projections equivalent to
  D_m, by exhibiting an off-spectrum generator weight for every way of
  duplicating one column and deleting another.

Codes are immutable and canonicalized: the generator matrix is always a
reduced echelon basis, so code equality is bitwise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .gf2 import (
    Gf2Matrix,
    _independent,
    _integer,
    _rref_ints,
    _transpose_ints,
    _xor_sums,
    is_rref,
    kernel,
)

MAX_ENUM_DIM = 28
MAX_ENUM_BITS = 1 << 34
MAX_GENERATOR_BITS = 1 << 22
MAX_PERM_SEARCH_LEN = 16
MAX_EXHAUSTIVE_DIM = 4
SUBSPACE_BUDGET = 1_000_000
SAMPLES_PER_LENGTH = 500


class ResourceLimitError(RuntimeError):
    """A computation would exceed its enumeration budget."""

    def __init__(self, message: str, partial: object | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code in canonical form, built from its generator
    matrix; the length n and dimension k are read from it, not passed."""

    n: int = field(init=False)
    k: int = field(init=False)
    gen: Gf2Matrix

    def __post_init__(self) -> None:
        if 0 in self.gen.rows or not is_rref(self.gen):
            raise ValueError("generator matrix must be a reduced echelon basis")
        object.__setattr__(self, "n", self.gen.cols)
        object.__setattr__(self, "k", self.gen.nrows)

    @classmethod
    def zero(cls, n: int) -> LinearCode:
        """The code {0} of length n; a length over MAX_GENERATOR_BITS is
        refused, as by ``repetition``."""
        n = _integer(n, "n")
        if n > MAX_GENERATOR_BITS:
            raise ResourceLimitError(f"length {n} exceeds the budget of {MAX_GENERATOR_BITS}")
        return cls(Gf2Matrix((), n))

    @classmethod
    def repetition(cls, n: int) -> LinearCode:
        """The line spanned by the all-ones word; a length over
        MAX_GENERATOR_BITS is refused before the row is built."""
        n = _integer(n, "n")
        if n > MAX_GENERATOR_BITS:
            raise ResourceLimitError(f"{n} generator bits exceed the budget of {MAX_GENERATOR_BITS}")
        return cls(Gf2Matrix(((1 << n) - 1,), n))

    def pivots(self) -> tuple[int, ...]:
        return tuple((r & -r).bit_length() - 1 for r in self.gen.rows)

    def contains(self, word: int) -> bool:
        """True when the bit-packed word lies in the code; a word outside
        [0, 2^n), a bool or a non-integer is refused."""
        word = _integer(word, "the word")
        if word < 0 or word >> self.n:
            raise ValueError(f"word does not fit the code length {self.n}")
        for row in self.gen.rows:
            if word & row & -row:  # the row's pivot bit
                word ^= row
        return word == 0


def from_generators(matrix: Gf2Matrix) -> LinearCode:
    """The code spanned by the rows of the matrix, canonicalized to a reduced basis."""
    reduced, pivots = _rref_ints(matrix.row_bits(), matrix.cols)
    return LinearCode(Gf2Matrix.from_ints(reduced[: len(pivots)], matrix.cols))


def dual(c: LinearCode) -> LinearCode:
    """The orthogonal code under the coordinate dot product; dim = n - k.
    ``kernel`` already returns the reduced echelon basis.  A basis of more
    than MAX_GENERATOR_BITS entries, (n - k) x n, is refused before it is
    computed."""
    if (c.n - c.k) * c.n > MAX_GENERATOR_BITS:
        raise ResourceLimitError(
            f"{c.n - c.k} x {c.n} dual generator bits exceed the budget of {MAX_GENERATOR_BITS}"
        )
    return LinearCode(kernel(c.gen))


def is_isotropic(c: LinearCode) -> bool:
    """True when the code lies inside its dual (all generator pairs orthogonal)."""
    gens = c.gen.row_bits()
    for i, gi in enumerate(gens):
        for gj in gens[i:]:
            if (gi & gj).bit_count() & 1:
                return False
    return True


@dataclass(frozen=True)
class WeightDistribution:
    """Exact count of codewords at each Hamming weight."""

    n: int
    counts: dict[int, int]

    # a dict does not hash, so neither does the record
    __hash__ = None  # type: ignore[assignment]

    def total(self) -> int:
        return sum(self.counts.values())

    def nonzero_weights(self) -> set[int]:
        return {w for w, c in self.counts.items() if w and c}


def _coordinate_pattern(m: int, i: int) -> int:
    """The 2^m-bit int whose bit l is bit i of l."""
    run = 1 << i
    return ((1 << (1 << m)) - 1) // ((1 << (2 * run)) - 1) * (((1 << run) - 1) << run)


# A block is the 2^_BLOCK_BITS messages sharing every bit above the lowest
# _BLOCK_BITS; over a block each coordinate is a 2^_BLOCK_BITS-bit int.
_BLOCK_BITS = 14


# One entry per block size; all of them together hold under 1 MB.
@functools.cache
def _block_characters(low: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The all-ones mask of a block of 2^low messages and two tables whose
    entries ``below[u & (2^(low//2) - 1)] ^ above[u >> low//2]`` give, for
    any u < 2^low, the block pattern whose bit l is the parity of l & u:
    the XOR sums of the low and the high half of the coordinate patterns."""
    patterns = [_coordinate_pattern(low, i) for i in range(low)]
    return (1 << (1 << low)) - 1, tuple(_xor_sums(patterns[: low // 2])), tuple(_xor_sums(patterns[low // 2 :]))


def _add_columns(planes: list[int], columns: Sequence[int]) -> None:
    """Add the columns into counter planes, in place: plane t holds bit t
    of every word's count of set columns, where bit u of a column is
    coordinate j of word u.  The planes must have room for the total.

    The sum is carry-save: at level t, full adders fold the vectors of
    weight 2^t into the plane two at a time, each sending one carry of
    weight 2^(t+1) to the next level.  That is about five word operations
    per column, where a ripple-carry add walks every plane.
    """
    carries = columns
    for t, plane in enumerate(planes):
        pending, carries = carries, []
        for i in range(1, len(pending), 2):
            a, b = pending[i - 1], pending[i]
            half = plane ^ a
            carries.append((plane & a) | (half & b))
            plane = half ^ b
        if len(pending) & 1:
            a = pending[-1]
            carries.append(plane & a)
            plane ^= a
        planes[t] = plane


def _split_by_planes(planes: Sequence[int], full: int) -> list[tuple[int, int]]:
    """Split the word mask ``full`` by the counts the planes hold: (mask,
    count) for every count present, splitting on each plane from the top."""
    parts = [(full, 0)]
    for t in reversed(range(len(planes))):
        plane, bit = planes[t], 1 << t
        split = []
        for part, w in parts:
            ones = part & plane
            if ones:
                split.append((ones, w | bit))
            if ones != part:
                split.append((part ^ ones, w))
        parts = split
    return parts


def _weight_classes(columns: Sequence[int], full: int) -> list[tuple[int, int]]:
    """Split the word mask ``full`` by weight: (mask, weight) for every
    weight present, where bit u of column j is coordinate j of word u."""
    planes = [0] * len(columns).bit_length()
    _add_columns(planes, columns)
    return _split_by_planes(planes, full)


def weight_distribution(c: LinearCode) -> WeightDistribution:
    """Exact weight counts by bit-sliced enumeration.

    Messages are split into their lowest _BLOCK_BITS bits and a high part.
    For a fixed high part, coordinate j over the block of low parts is one
    int: the parity pattern of the column's low message mask, complemented
    when the high part meets the column's high mask in an odd number of
    bits.  The columns are summed into counter planes (``_add_columns``)
    and the block's mask is split by weight (``_split_by_planes``); each
    part is counted with ``int.bit_count``.  Only columns with both masks
    nonzero change from block to block; each holds its pattern and the
    complement as a pair, built once per call, and a block picks one by
    that parity.  Those with no high mask (in reduced form, every pivot
    column of a low row) are summed once, and each block's sum starts
    from a copy of those planes.  Those with no low mask are all zeros or
    all ones over a block, so they shift every weight in it by the number
    of them the high part meets oddly.  All-zero columns are dropped
    before the planes are sized.  The cost grows as n 2^k: more
    than 2^MAX_ENUM_DIM codewords or more than MAX_ENUM_BITS codeword
    bits are refused before any block is built, and a length over
    MAX_GENERATOR_BITS before the columns are transposed.
    """
    if c.k > MAX_ENUM_DIM:
        raise ResourceLimitError(
            f"enumerating 2^{c.k} codewords exceeds the 2^{MAX_ENUM_DIM} budget"
        )
    if c.n > MAX_GENERATOR_BITS:
        raise ResourceLimitError(
            f"enumerating codewords of length {c.n} exceeds the length budget of {MAX_GENERATOR_BITS}"
        )
    if c.n << c.k > MAX_ENUM_BITS:
        raise ResourceLimitError(
            f"enumerating 2^{c.k} codewords of length {c.n} exceeds the budget of "
            f"2^{MAX_ENUM_BITS.bit_length() - 1} codeword bits"
        )
    low = min(c.k, _BLOCK_BITS)
    full, below, above = _block_characters(low)
    # one message mask per column (bit i = entry of generator row i); a
    # zero column adds nothing to any weight, so it is dropped here
    masks = filter(None, _transpose_ints(c.gen.row_bits(), c.n))
    half, low_mask = low // 2, (1 << low) - 1
    half_mask = (1 << half) - 1
    fixed, varying, shifts = [], [], []
    for m in masks:
        base, high = below[m & half_mask] ^ above[(m & low_mask) >> half], m >> low
        if not high:
            fixed.append(base)
        elif not base:
            shifts.append(high)
        else:
            varying.append(((base, base ^ full), high))
    fixed_planes = [0] * (len(fixed) + len(varying)).bit_length()
    _add_columns(fixed_planes, fixed)
    counts: dict[int, int] = {}
    for h in range(1 << (c.k - low)):
        planes = fixed_planes.copy()
        _add_columns(planes, [pair[(h & high).bit_count() & 1] for pair, high in varying])
        shift = sum((h & high).bit_count() & 1 for high in shifts)
        for part, w in _split_by_planes(planes, full):
            counts[w + shift] = counts.get(w + shift, 0) + part.bit_count()
    return WeightDistribution(c.n, dict(sorted(counts.items())))


def reed_muller_generators(max_degree: int, m: int) -> Gf2Matrix:
    """Evaluation rows of every monomial of degree <= max_degree on F_2^m.

    Position j of a row holds the monomial's value on the binary digits of
    j (bit i of j = the i-th coordinate).  Rows are ordered by ascending
    degree and, within a degree, by the monomial's variable set in
    lexicographic order, so for max_degree = 1 the rows are the constant 1
    followed by the coordinate functions x_0, ..., x_{m-1}.  A row is the
    AND of its variables' coordinate patterns.  More than
    MAX_GENERATOR_BITS entries in all are refused before any row is built:
    a row longer than the budget on m alone, before the rows are counted.
    """
    max_degree, m = _integer(max_degree, "max_degree"), _integer(m, "m")
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= max_degree <= m:
        raise ValueError(f"degree {max_degree} out of range for m={m}")
    if m > MAX_GENERATOR_BITS.bit_length() - 1:  # 2^m > MAX_GENERATOR_BITS, 2^m unbuilt
        raise ResourceLimitError(
            f"a row of 2^{m} generator bits exceeds the budget of {MAX_GENERATOR_BITS}"
        )
    nrows = sum(math.comb(m, degree) for degree in range(max_degree + 1))
    if nrows << m > MAX_GENERATOR_BITS:
        raise ResourceLimitError(
            f"{nrows} x 2^{m} generator bits exceed the budget of {MAX_GENERATOR_BITS}"
        )
    npoints = 1 << m
    # degree 0 needs no coordinate pattern
    patterns = [_coordinate_pattern(m, i) for i in range(m)] if max_degree else []
    rows = [
        functools.reduce(operator.and_, variables, (1 << npoints) - 1)
        for degree in range(max_degree + 1)
        for variables in itertools.combinations(patterns, degree)
    ]
    return Gf2Matrix.from_ints(rows, npoints)


def reed_muller(max_degree: int, m: int) -> LinearCode:
    """The Reed-Muller code of order max_degree on F_2^m, length 2^m."""
    return from_generators(reed_muller_generators(max_degree, m))


def code_d(m: int) -> LinearCode:
    """The affine-functions code D_m: length 2^(m-1), dimension m,
    nonzero weights 2^(m-2) and 2^(m-1)."""
    m = _integer(m, "m")
    if m < 2:
        raise ValueError("D_m requires m >= 2")
    return reed_muller(1, m - 1)


def is_isomorphic_to_d(c: LinearCode) -> bool:
    """Extremal characterization: with m = dim C, the length is exactly
    2^(m-1) and every nonzero weight reaches half the length.  Codes
    passing this are coordinate permutations of D_m and have nonzero
    weights exactly {n/2, n}."""
    if c.k < 1 or c.n != 1 << (c.k - 1):
        return False
    return all(2 * w >= c.n for w in weight_distribution(c).nonzero_weights())


def _is_d_code(rows: Sequence[int], n: int) -> bool:
    """True when the span of ``rows``, a reduced echelon basis of length-n
    words, is a coordinate permutation of D_m, m = len(rows) >= 2.  Both
    scans of ``verify_beauville`` pass reduced rows: ``_half_weight_bases``
    builds them so, the sampled scan reduces each draw with ``_rref_ints``,
    and the injected D_m is a canonical generator matrix.

    D_m has length 2^(m-1), contains the all-ones word and has pairwise
    distinct generator columns.  Conversely, column j of the generator
    matrix is a vector v_j of F_2^m and the all-ones word is u.G for some
    message u, so every v_j lies on the affine hyperplane u.v = 1, which
    has 2^(m-1) points; 2^(m-1) distinct columns cover it once each, as
    the columns of D_m do in a suitable basis.  In a reduced basis the
    pivot bit of row i is set in a codeword exactly when row i is in its
    sum; the all-ones word sets every pivot bit, so it is in the span
    exactly when it is the XOR of every row.  O(n m) work.
    """
    m = len(rows)
    if m < 2 or n != 1 << (m - 1):
        return False
    if functools.reduce(operator.xor, rows) != (1 << n) - 1:
        return False
    return len(set(_transpose_ints(rows, n))) == n


def permutation_equivalent(a: LinearCode, b: LinearCode) -> bool:
    """Decide whether some coordinate permutation maps the codeword set of
    a onto that of b.

    Backtracks over the image of each coordinate, pruned only by a
    partition refinement of the two codeword sets: the groups start as the
    weight classes, and at depth t the words grouped by their bits on the
    first t source columns must match groups of the same size on the
    chosen target columns.  So a target whose weight profile (its ones in
    each weight class) differs from the source column's fails at once.
    Before the search, the two multisets of column profiles must agree:
    otherwise some source column has no target, and a search that met it
    last would fail there once for every partial map of the columns
    before it.  Codes of different dimension are never equivalent and
    return False.  Both codeword sets are bit-sliced: column j is one
    2^k-bit int whose bit u is coordinate j of codeword u (message-index
    order), looked up from the column's message mask in the
    ``_block_characters(k)`` tables as ``weight_distribution`` does
    (k <= n/2 <= 8, one block).  So a group of words is one mask, a weight
    class comes from ``_weight_classes``, and a profile or a refinement
    step is an AND and a ``bit_count``.
    A coordinate permutation preserves the dot product, so when k > n - k
    the search compares the duals, whose codeword sets are the smaller.
    ``tests/oracles.py`` keeps the list-based search as a reference.
    """
    if a.n != b.n or a.k != b.k:
        return False
    if a.n > MAX_PERM_SEARCH_LEN:
        raise ResourceLimitError(
            f"permutation search is limited to length {MAX_PERM_SEARCH_LEN}"
        )
    if 2 * a.k > a.n:
        a, b = dual(a), dual(b)
    full, below, above = _block_characters(a.k)
    half = a.k // 2
    cols_a, cols_b = (
        [below[m & ((1 << half) - 1)] ^ above[m >> half] for m in _transpose_ints(c.gen.rows, c.n)]
        for c in (a, b)
    )
    classes_a, classes_b = (sorted((w, m) for m, w in _weight_classes(cols, full)) for cols in (cols_a, cols_b))

    def profiles(classes: list[tuple[int, int]], cols: list[int]) -> tuple[list[int], list[list[int]]]:
        return [w for w, _ in classes], sorted([(m & col).bit_count() for _, m in classes] for col in cols)

    # the ones of a class of N words of weight w add up to w N over the
    # columns, so equal profile multisets make the classes equal in size
    if profiles(classes_a, cols_a) != profiles(classes_b, cols_b):
        return False
    n = a.n
    # a group is (words of a, words of b, their common size)
    groups = [(ga, gb, ga.bit_count()) for (_, ga), (_, gb) in zip(classes_a, classes_b)]
    used = [False] * n

    def extend(col: int, groups: list[tuple[int, int, int]]) -> bool:
        if col == n:
            return True
        col_a = cols_a[col]
        for c in range(n):
            if used[c]:
                continue
            col_b = cols_b[c]
            refined = []
            for ga, gb, size in groups:
                a1, b1 = ga & col_a, gb & col_b
                ones = a1.bit_count()
                if ones != b1.bit_count():
                    break
                if 0 < ones < size:
                    refined.append((ga ^ a1, gb ^ b1, size - ones))
                    refined.append((a1, b1, ones))
                else:
                    refined.append((ga, gb, size))
            else:
                used[c] = True
                if extend(col + 1, refined):
                    return True
                used[c] = False
        return False

    return extend(0, groups)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(2)."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    if num % den:
        raise AssertionError("q-binomial product is not integral")
    return num // den


class ExtensionWitness(NamedTuple):
    """One duplicated/deleted column pair with its off-spectrum row weight."""

    duplicated: int
    deleted: int
    row: int
    weight: int


@dataclass(frozen=True)
class ExtensionCertificate:
    """Witness table showing D_m admits no extra coordinate.

    ``ok`` is the one place that checks the witnesses: each weight must be
    N/2 - 1 or N/2 + 1 with N = 2^(m-1), the one its column pair forces,
    so a table with a wrong weight is built and reads ``ok == False``.
    For m >= 3 these weights lie off the {0, N/2, N} spectrum of D_m,
    which is the contradiction being certified; for m = 2 they collide
    with it and the certificate is marked degenerate.  N and degeneracy
    come from m.  The entries are stored as a tuple, so the table cannot
    change and ``ok`` is computed once, on first read.
    """

    m: int
    block_length: int = field(init=False)
    degenerate: bool = field(init=False)
    entries: tuple[ExtensionWitness, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _integer(self.m, "m"))
        if self.m < 2:
            raise ValueError("an extension certificate needs m >= 2")
        object.__setattr__(self, "block_length", 1 << (self.m - 1))
        object.__setattr__(self, "degenerate", self.m == 2)
        object.__setattr__(self, "entries", tuple(self.entries))

    @functools.cached_property
    def ok(self) -> bool:
        """Non-degenerate, with one correct witness for every ordered column
        pair: the pairs (k, l), k != l, of range(N) each appear once, each
        row is the lowest set bit of k XOR l, and each weight is N/2 plus
        that bit of k less that bit of l."""
        n = self.block_length
        if self.degenerate or len(self.entries) != n * (n - 1):
            return False
        half = n // 2
        pairs = set()
        for e in self.entries:
            k, l, j = e.duplicated, e.deleted, e.row
            diff = k ^ l
            if not (0 <= k < n and 0 <= l < n and diff) or j != (diff & -diff).bit_length() - 1:
                return False
            if e.weight != half + ((k >> j) & 1) - ((l >> j) & 1):
                return False
            pairs.add((k, l))
        return len(pairs) == n * (n - 1)

    def witness_weights(self) -> set[int]:
        return {e.weight for e in self.entries}

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "N": self.block_length,
            "degenerate": self.degenerate,
            "pairs": [
                {"k": e.duplicated, "l": e.deleted, "row": e.row, "weight": e.weight}
                for e in self.entries
            ],
        }


def verify_no_extension(m: int) -> ExtensionCertificate:
    """Mechanically certify that no code on n > 2^(m-1) coordinates has all
    its 2^(m-1)-coordinate projections equivalent to D_m.

    With N = 2^(m-1), build the (m-1) x N matrix M whose columns are the
    binary expansions of 0, ..., N-1.  A hypothetical extra coordinate
    duplicates some column k; deleting any other column l leaves a matrix
    in which some row j (one where columns k and l differ) has weight
    N/2 - 1 or N/2 + 1.  For m >= 3 that weight is impossible inside any
    code with spectrum {0, N/2, N}, so no extension exists.  The full
    table over all ordered pairs (k, l), k != l, is returned; iteration is
    ascending in k then l and the witness row is the first differing one,
    so the certificate is byte-reproducible.  Column k of M is the int k,
    so that row j is the lowest set bit of k XOR l, looked up in a table
    indexed by the XOR.  Row j has weight N/2 and columns k and l differ
    in it, so the weight is N/2 - 1 + 2 * (bit j of k), read from a list
    of m - 1 weights per k; each k's entries are one comprehension.
    """
    m = _integer(m, "m")
    if not 2 <= m <= 8:
        raise ValueError("verify_no_extension supports 2 <= m <= 8")
    nbig = 1 << (m - 1)
    half = nbig // 2
    lowest = [(diff & -diff).bit_length() - 1 for diff in range(nbig)]
    # the NamedTuple's own __new__ is a Python function; tuple.__new__
    # builds the same record without that call
    witness = functools.partial(tuple.__new__, ExtensionWitness)
    entries: list[ExtensionWitness] = []
    for k in range(nbig):
        weights = [half - 1 + 2 * ((k >> j) & 1) for j in range(m - 1)]
        entries += [
            witness((k, l, (j := lowest[k ^ l]), weights[j])) for l in range(nbig) if l != k
        ]
    return ExtensionCertificate(m, tuple(entries))


@dataclass(frozen=True)
class SubspaceCount:
    n: int
    examined: int
    expected: int | None
    qualifying: int


@dataclass(frozen=True)
class BeauvilleReport:
    """Outcome of scanning dimension-m codes for the half-weight bound.  The
    scan mode (exhaustive up to MAX_EXHAUSTIVE_DIM, sampled above) and the
    extremal length 2^(m-1) are read from m, and the extremal count from
    the qualifying codes of ``per_n`` at that length, not passed."""

    m: int
    n_max: int
    mode: str = field(init=False)
    per_n: tuple[SubspaceCount, ...]
    extremal_n: int = field(init=False)
    extremal_count: int = field(init=False)
    counterexamples: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _integer(self.m, "m"))
        object.__setattr__(self, "n_max", _integer(self.n_max, "n_max"))
        object.__setattr__(self, "mode", "exhaustive" if self.m <= MAX_EXHAUSTIVE_DIM else "sampled")
        object.__setattr__(self, "extremal_n", 1 << (self.m - 1))
        object.__setattr__(self, "extremal_count", sum(s.qualifying for s in self.per_n if s.n == self.extremal_n))

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n_max": self.n_max,
            "mode": self.mode,
            "per_n": [
                {"n": s.n, "subspaces": s.examined, "expected": s.expected, "qualifying": s.qualifying}
                for s in self.per_n
            ],
            "extremal": {"n": self.extremal_n, "count": self.extremal_count},
            "counterexamples": list(self.counterexamples),
            "ok": self.ok,
        }


def _half_weight_bases(n: int, m: int, visit: Callable[[list[int]], None]) -> tuple[int, int]:
    """Scan every dimension-m subspace of F_2^n through its reduced basis,
    pass each basis whose span has every nonzero weight >= n/2 to
    ``visit``, and return (subspaces, qualifying bases).

    A reduced basis is fixed by its pivot set (the lowest bit of each row)
    and its free entries, the bits above a row's pivot that are no pivot:
    row i of pivots p_0 < ... < p_(m-1) has n - m + i - p_i of them.  So a
    pivot set holds 2^(free entries) subspaces, counted without visiting
    them.  A row weighs at most 1 + its free entries, and the last row has
    the fewest, n - 1 - p_(m-1); a pivot set whose last pivot exceeds n/2
    has no heavy last row, so it is counted but not searched.  In the
    others, rows are chosen one at a time from candidate lists (pivot bit
    plus free entries, weight >= n/2), and a partial basis is kept only
    while every nonzero word of its span reaches n/2: a light word stays
    in the span of every extension, so no qualifying basis is lost, and
    each one found has all 2^m - 1 nonzero words checked.  Weights are
    read from a table of 2^n flags, built per call.
    """
    full = (1 << n) - 1
    heavy = bytes(2 * w.bit_count() >= n for w in range(1 << n))
    # a pivot set holds 2^(sum of n - m + i - p_i) = 2^(top - sum of pivots)
    top = m * (2 * n - m - 1) // 2
    examined = sum(1 << (top - sum(pivots)) for pivots in itertools.combinations(range(n), m))
    qualifying = 0

    def extend(candidates: list[list[int]], rows: list[int], span: list[int]) -> None:
        nonlocal qualifying
        if len(rows) == m:
            qualifying += 1
            visit(rows)
            return
        for row in candidates[len(rows)]:
            words = [row ^ w for w in span]
            if all(map(heavy.__getitem__, words)):
                extend(candidates, rows + [row], span + [row] + words)

    # the pivot sets whose last pivot is at most n/2, in the order above
    for pivots in itertools.combinations(range(n // 2 + 1), m):
        pivot_mask = sum(1 << p for p in pivots)
        candidates = []
        for p in pivots:
            free = full & ~((2 << p) - 1) & ~pivot_mask
            level = []
            sub = free
            while True:
                row = (1 << p) | sub
                if heavy[row]:
                    level.append(row)
                if not sub:
                    break
                sub = (sub - 1) & free
            candidates.append(level)
        extend(candidates, [], [])
    return examined, qualifying


def _weights_reach_half(rows: list[int], n: int, flips: list[int]) -> bool:
    word = 0
    for f in flips:
        word ^= rows[f]
        if word.bit_count() * 2 < n:
            return False
    return True


def verify_beauville(m: int, n_max: int | None = None, *, seed: int = 0) -> BeauvilleReport:
    """Scan dimension-m codes in F_2^n for all n <= n_max (by default the
    extremal length 2^(m-1)) and check:

    (a) no code on n < 2^(m-1) coordinates has every nonzero weight >= n/2;
    (b) on n = 2^(m-1) coordinates, every such code has nonzero weights
        exactly {n/2, n} and is permutation-equivalent to D_m.

    For m <= 4 the scan is exhaustive over reduced bases
    (``_half_weight_bases``: each pivot set counts its 2^(free entries)
    subspaces, a pivot set with a row that cannot reach n/2 is counted but
    not searched, and only bases whose span reaches n/2 are enumerated;
    the per-n count is cross-checked against the q-binomial).  That count is
    arithmetic, a sum of 2^(free entries), so ``subspaces`` in the report
    is not a count of visits; ``tests/oracles.py`` holds an enumerator
    that visits every reduced basis once, and the test suite checks the
    per-n counts and qualifying bases against it.
    For larger m it samples SAMPLES_PER_LENGTH random dimension-m codes
    per n from a seeded generator, always including D_m itself at the
    extremal length.
    A draw of m rows, m calls of ``getrandbits(n)`` mapped over one list
    of widths, is kept when ``_independent`` finds them independent;
    the half-weight test walks the span of the rows as drawn, and only a
    draw that passes it is reduced, so every basis passed on is reduced.
    (b) is decided at every length on the reduced rows by their columns
    (``_is_d_code``); D_m has nonzero weights exactly {n/2, n}, so that
    covers the spectrum.
    Violations are collected as counterexample strings; ``ok`` means none.
    Both modes are bounded by SUBSPACE_BUDGET: the exhaustive scan by the
    q-binomial count, the sampled scan by its row sums, up to
    SAMPLES_PER_LENGTH * (n_max - m + 1) * (2^m - 1), checked before any
    code is built.
    Before that, the sampled scan is refused on m alone when the rank test
    of a single draw, up to m(m-1)/2 row sums, exceeds the budget, so no
    count with about m bits (the default n_max among them) is built or
    printed for such an m.
    """
    m = _integer(m, "m")
    if n_max is not None:
        n_max = _integer(n_max, "n_max")
    if m < 2:
        raise ValueError("verify_beauville requires m >= 2")
    if n_max is not None and n_max < m:
        raise ValueError("n_max must be at least m")
    exhaustive = m <= MAX_EXHAUSTIVE_DIM
    if not exhaustive and m * (m - 1) // 2 > SUBSPACE_BUDGET:
        raise ResourceLimitError(
            f"sampling subspaces of dimension {m} exceeds the budget of {SUBSPACE_BUDGET}: "
            f"testing the rank of one draw takes up to m(m-1)/2 row sums"
        )
    if n_max is None:
        n_max = 1 << (m - 1)
    lengths = n_max - m + 1
    if not exhaustive and SAMPLES_PER_LENGTH * lengths > SUBSPACE_BUDGET:
        raise ResourceLimitError(
            f"sampling {SAMPLES_PER_LENGTH} subspaces at each of {lengths} lengths exceeds "
            f"the budget of {SUBSPACE_BUDGET}"
        )
    # a qualifying sample sums rows into each of its 2^m - 1 nonzero words
    if not exhaustive and SAMPLES_PER_LENGTH * lengths * ((1 << m) - 1) > SUBSPACE_BUDGET:
        raise ResourceLimitError(
            f"sampling {SAMPLES_PER_LENGTH} subspaces at each of {lengths} lengths, up to "
            f"{(1 << m) - 1} words each, exceeds the budget of {SUBSPACE_BUDGET}"
        )
    extremal_n = 1 << (m - 1)
    per_n: list[SubspaceCount] = []
    counterexamples: list[str] = []

    def handle_qualifying(rows: list[int], n: int) -> None:
        # the rows' text is built only for a counterexample, which prints it
        if n < extremal_n:
            desc = ",".join(format(r, "b") for r in rows)
            counterexamples.append(
                f"n={n} < {extremal_n}: code [{desc}] has all nonzero weights >= n/2"
            )
        elif n == extremal_n and not _is_d_code(rows, n):
            desc = ",".join(format(r, "b") for r in rows)
            counterexamples.append(f"n={n}: extremal code [{desc}] is not equivalent to D_{m}")

    if exhaustive:
        planned = 0
        for n in range(m, n_max + 1):
            expected = gaussian_binomial(n, m)
            planned += expected
            if planned > SUBSPACE_BUDGET:
                partial = BeauvilleReport(m, n_max, tuple(per_n), tuple(counterexamples))
                raise ResourceLimitError(
                    f"scanning {planned} subspaces exceeds the budget of {SUBSPACE_BUDGET}",
                    partial=partial,
                )
            examined, qualifying = _half_weight_bases(n, m, lambda rows: handle_qualifying(rows, n))
            if examined != expected:
                counterexamples.append(
                    f"n={n}: enumerated {examined} subspaces, q-binomial predicts {expected}"
                )
            per_n.append(SubspaceCount(n, examined, expected, qualifying))
    else:
        rng = random.Random(seed)
        flips = [(u & -u).bit_length() - 1 for u in range(1, 1 << m)]
        for n in range(m, n_max + 1):
            bases: list[list[int]] = []
            if n == extremal_n:
                bases.append(list(code_d(m).gen.row_bits()))
            widths = [n] * m
            while len(bases) < SAMPLES_PER_LENGTH:
                rows = list(map(rng.getrandbits, widths))
                if _independent(rows):
                    bases.append(rows)
            qualifying = 0
            for rows in bases:
                if _weights_reach_half(rows, n, flips):
                    qualifying += 1
                    handle_qualifying(_rref_ints(rows, n)[0], n)
            per_n.append(SubspaceCount(n, len(bases), None, qualifying))

    return BeauvilleReport(m, n_max, tuple(per_n), tuple(counterexamples))
