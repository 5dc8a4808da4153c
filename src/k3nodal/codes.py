"""Binary linear codes: Reed-Muller construction, the affine-functions
family D_m, duality, isotropy, exact weight enumeration, coordinate
projections, and two exhaustively verified extremal facts:

* ``verify_beauville`` checks, over every dimension-m subspace of F_2^n,
  that a code whose nonzero weights all reach half the length needs
  n >= 2^(m-1), with equality only for coordinate permutations of D_m;
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
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .gf2 import BitVector, Gf2Matrix, _rref_ints, kernel, rref, is_rref, transpose

MAX_ENUM_DIM = 28
MAX_GENERATOR_BITS = 1 << 22
MAX_PERM_SEARCH_LEN = 16
MAX_EXHAUSTIVE_DIM = 4
SUBSPACE_BUDGET = 1_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed its enumeration budget."""

    def __init__(self, message: str, partial: object | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code of length n and dimension k in canonical form."""

    n: int
    k: int
    gen: Gf2Matrix

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("code length must be positive")
        if not 0 <= self.k <= self.n:
            raise ValueError("dimension must lie between 0 and the length")
        if self.gen.cols != self.n or self.gen.nrows != self.k:
            raise ValueError("generator matrix shape does not match (n, k)")
        if any(r.bits == 0 for r in self.gen.rows) or not is_rref(self.gen):
            raise ValueError("generator matrix must be a reduced echelon basis")

    @classmethod
    def zero(cls, n: int) -> LinearCode:
        return cls(n, 0, Gf2Matrix((), n))

    @classmethod
    def full(cls, n: int) -> LinearCode:
        return cls(n, n, Gf2Matrix.identity(n))

    @classmethod
    def repetition(cls, n: int) -> LinearCode:
        """The line spanned by the all-ones word."""
        return cls(n, 1, Gf2Matrix((BitVector.ones(n),), n))

    def pivots(self) -> tuple[int, ...]:
        return tuple((r.bits & -r.bits).bit_length() - 1 for r in self.gen.rows)

    def codewords(self) -> Iterator[BitVector]:
        """All 2^k codewords in message-index order."""
        gens = self.gen.row_bits()
        for u in range(1 << self.k):
            yield BitVector(self.n, _encode(gens, u))

    def contains(self, word: BitVector) -> bool:
        if word.length != self.n:
            raise ValueError(f"word length {word.length} does not match code length {self.n}")
        bits = word.bits
        for row, p in zip(self.gen.row_bits(), self.pivots()):
            if (bits >> p) & 1:
                bits ^= row
        return bits == 0

    def __contains__(self, word: BitVector) -> bool:
        return self.contains(word)


def _encode(gens: Sequence[int], message: int) -> int:
    """The codeword sum of the generator rows selected by the message bits."""
    word = 0
    while message:
        low = message & -message
        word ^= gens[low.bit_length() - 1]
        message ^= low
    return word


def from_generators(rows: Gf2Matrix | Sequence[BitVector]) -> LinearCode:
    """The code spanned by the given rows, canonicalized to a reduced basis."""
    matrix = rows if isinstance(rows, Gf2Matrix) else Gf2Matrix.from_rows(tuple(rows))
    red = rref(matrix)
    return LinearCode(matrix.cols, red.rank, Gf2Matrix(red.matrix.rows[: red.rank], matrix.cols))


def dual(c: LinearCode) -> LinearCode:
    """The orthogonal code under the coordinate dot product; dim = n - k.
    ``kernel`` already returns the reduced echelon basis."""
    return LinearCode(c.n, c.n - c.k, kernel(c.gen))


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
@functools.lru_cache(maxsize=_BLOCK_BITS + 1)
def _block_characters(low: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The all-ones mask of a block of 2^low messages and two tables whose
    entries ``below[u & (2^(low//2) - 1)] ^ above[u >> low//2]`` give, for
    any u < 2^low, the block pattern whose bit l is the parity of l & u."""
    below, above = [0], [0]
    for i in range(low):
        pattern = _coordinate_pattern(low, i)
        table = above if i >= low // 2 else below
        table += [x ^ pattern for x in table]
    return (1 << (1 << low)) - 1, tuple(below), tuple(above)


def weight_distribution(c: LinearCode) -> WeightDistribution:
    """Exact weight counts by bit-sliced enumeration.

    Messages are split into their lowest _BLOCK_BITS bits and a high part.
    For a fixed high part, coordinate j over the block of low parts is one
    int: the parity pattern of the column's low message mask, complemented
    when the high part meets the column's high mask in an odd number of
    bits.  The n column ints are summed into ripple-carry counter planes
    (plane t holds bit t of every codeword's weight), and the block's
    histogram is read by splitting its mask on each plane from the top and
    counting each part with ``int.bit_count``.
    """
    if c.k > MAX_ENUM_DIM:
        raise ResourceLimitError(
            f"enumerating 2^{c.k} codewords exceeds the 2^{MAX_ENUM_DIM} budget"
        )
    low = min(c.k, _BLOCK_BITS)
    full, below, above = _block_characters(low)
    # one message mask per column (bit i = entry of generator row i); the
    # weight does not depend on the order of the columns
    width = f"0{c.n}b"
    text = "".join([format(g, width) for g in reversed(c.gen.row_bits())])
    masks = [int(text[p :: c.n], 2) for p in range(c.n)] if text else [0] * c.n
    half, low_mask = low // 2, (1 << low) - 1
    half_mask = (1 << half) - 1
    columns = [(below[m & half_mask] ^ above[(m & low_mask) >> half], m >> low) for m in masks]
    nplanes = c.n.bit_length()
    counts: dict[int, int] = {}
    for h in range(1 << (c.k - low)):
        planes = [0] * nplanes
        for base, high in columns:
            carry = base ^ full if (h & high).bit_count() & 1 else base
            t = 0
            while carry:
                plane = planes[t]
                planes[t] = plane ^ carry
                carry &= plane
                t += 1
        parts = [(full, 0)]
        for t in reversed(range(nplanes)):
            plane, bit = planes[t], 1 << t
            split = []
            for part, w in parts:
                ones = part & plane
                if ones:
                    split.append((ones, w | bit))
                if ones != part:
                    split.append((part ^ ones, w))
            parts = split
        for part, w in parts:
            counts[w] = counts.get(w, 0) + part.bit_count()
    return WeightDistribution(c.n, dict(sorted(counts.items())))


def reed_muller_generators(max_degree: int, m: int) -> Gf2Matrix:
    """Evaluation rows of every monomial of degree <= max_degree on F_2^m.

    Position j of a row holds the monomial's value on the binary digits of
    j (bit i of j = the i-th coordinate).  Rows are ordered by ascending
    degree and, within a degree, by the monomial's variable set in
    lexicographic order, so for max_degree = 1 the rows are the constant 1
    followed by the coordinate functions x_0, ..., x_{m-1}.  A row is the
    AND of its variables' coordinate patterns.  More than
    MAX_GENERATOR_BITS entries in all are refused before any row is built.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= max_degree <= m:
        raise ValueError(f"degree {max_degree} out of range for m={m}")
    nrows = sum(math.comb(m, degree) for degree in range(max_degree + 1))
    if nrows << m > MAX_GENERATOR_BITS:
        raise ResourceLimitError(
            f"{nrows} x 2^{m} generator bits exceed the budget of {MAX_GENERATOR_BITS}"
        )
    npoints = 1 << m
    # degree 0 needs no coordinate pattern
    patterns = [_coordinate_pattern(m, i) for i in range(m)] if max_degree else []
    rows = [
        BitVector(npoints, functools.reduce(operator.and_, variables, (1 << npoints) - 1))
        for degree in range(max_degree + 1)
        for variables in itertools.combinations(patterns, degree)
    ]
    return Gf2Matrix(tuple(rows), npoints)


def reed_muller(max_degree: int, m: int) -> LinearCode:
    """The Reed-Muller code of order max_degree on F_2^m, length 2^m."""
    return from_generators(reed_muller_generators(max_degree, m))


def code_d(m: int) -> LinearCode:
    """The affine-functions code D_m: length 2^(m-1), dimension m,
    nonzero weights 2^(m-2) and 2^(m-1)."""
    if m < 2:
        raise ValueError("D_m requires m >= 2")
    return reed_muller(1, m - 1)


def _validate_coords(n: int, coords: Sequence[int]) -> tuple[int, ...]:
    keep = tuple(coords)
    if not keep:
        raise ValueError("coordinate subset must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError("coordinate subset contains duplicates")
    for j in keep:
        if not 0 <= j < n:
            raise ValueError(f"coordinate {j} out of range for length {n}")
    return keep


def _restrict_bits(bits: int, keep: Sequence[int]) -> int:
    out = 0
    for t, j in enumerate(keep):
        if (bits >> j) & 1:
            out |= 1 << t
    return out


def project(c: LinearCode, coords: Sequence[int]) -> LinearCode:
    """Restriction of every codeword to the given coordinates (puncturing)."""
    keep = _validate_coords(c.n, coords)
    rows = [_restrict_bits(g, keep) for g in c.gen.row_bits()]
    return from_generators(Gf2Matrix.from_ints(rows, len(keep)))


def is_isomorphic_to_d(c: LinearCode) -> bool:
    """Extremal characterization: with m = dim C, the length is exactly
    2^(m-1) and every nonzero weight reaches half the length.  Codes
    passing this are coordinate permutations of D_m and have nonzero
    weights exactly {n/2, n}."""
    if c.k < 1 or c.n != 1 << (c.k - 1):
        return False
    return all(2 * w >= c.n for w in weight_distribution(c).nonzero_weights())


def _is_d_code(c: LinearCode) -> bool:
    """True when c is a coordinate permutation of D_m, m = dim C >= 2.

    D_m has length 2^(m-1), contains the all-ones word and has pairwise
    distinct generator columns.  Conversely, column j of the generator
    matrix is a vector v_j of F_2^m and the all-ones word is u.G for some
    message u, so every v_j lies on the affine hyperplane u.v = 1, which
    has 2^(m-1) points; 2^(m-1) distinct columns cover it once each, as
    the columns of D_m do in a suitable basis.  O(n m) work.
    """
    if c.k < 2 or c.n != 1 << (c.k - 1) or BitVector.ones(c.n) not in c:
        return False
    return len(set(transpose(c.gen).row_bits())) == c.n


def permutation_equivalent(a: LinearCode, b: LinearCode) -> bool:
    """Decide whether some coordinate permutation maps the codeword set of
    a onto that of b.

    Backtracks over the image of each coordinate, pruning with per-column
    weight profiles and a partition refinement of the two codeword sets:
    at depth t, words grouped by their bits on the first t source columns
    must match groups of the same size on the chosen target columns.
    Codes of different dimension are never equivalent and return False.
    """
    if a.n != b.n or a.k != b.k:
        return False
    if a.n > MAX_PERM_SEARCH_LEN:
        raise ResourceLimitError(
            f"permutation search is limited to length {MAX_PERM_SEARCH_LEN}"
        )
    words_a = [w.bits for w in a.codewords()]
    words_b = [w.bits for w in b.codewords()]
    if sorted(words_a) == sorted(words_b):
        return True
    bucket_a: dict[int, list[int]] = {}
    bucket_b: dict[int, list[int]] = {}
    for w in words_a:
        bucket_a.setdefault(w.bit_count(), []).append(w)
    for w in words_b:
        bucket_b.setdefault(w.bit_count(), []).append(w)
    if {w: len(v) for w, v in bucket_a.items()} != {w: len(v) for w, v in bucket_b.items()}:
        return False
    n = a.n
    weights = sorted(bucket_a)

    def profile(buckets: dict[int, list[int]], col: int) -> tuple[int, ...]:
        return tuple(sum((w >> col) & 1 for w in buckets[wt]) for wt in weights)

    prof_b = [profile(bucket_b, c) for c in range(n)]
    cands = []
    for j in range(n):
        pj = profile(bucket_a, j)
        matching = tuple(c for c in range(n) if prof_b[c] == pj)
        if not matching:
            return False
        cands.append(matching)
    groups = [(bucket_a[wt], bucket_b[wt]) for wt in weights]
    used = [False] * n

    def extend(col: int, groups: list[tuple[list[int], list[int]]]) -> bool:
        if col == n:
            return True
        for c in cands[col]:
            if used[c]:
                continue
            refined = []
            ok = True
            for ga, gb in groups:
                a1 = [w for w in ga if (w >> col) & 1]
                b1 = [w for w in gb if (w >> c) & 1]
                if len(a1) != len(b1):
                    ok = False
                    break
                if 0 < len(a1) < len(ga):
                    a0 = [w for w in ga if not (w >> col) & 1]
                    b0 = [w for w in gb if not (w >> c) & 1]
                    refined.append((a0, b0))
                    refined.append((a1, b1))
                else:
                    refined.append((ga, gb))
            if ok:
                used[c] = True
                if extend(col + 1, refined):
                    return True
                used[c] = False
        return False

    return extend(0, groups)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(2)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    if num % den:
        raise AssertionError("q-binomial product is not integral")
    return num // den


@dataclass(frozen=True)
class ExtensionWitness:
    """One duplicated/deleted column pair with its off-spectrum row weight."""

    duplicated: int
    deleted: int
    row: int
    weight: int


@dataclass(frozen=True)
class ExtensionCertificate:
    """Witness table showing D_m admits no extra coordinate.

    Every witness weight equals N/2 - 1 or N/2 + 1 with N = 2^(m-1); this
    is the one place that checks it, on construction.  For m >= 3 these
    weights lie off the {0, N/2, N} spectrum of D_m, which is
    the contradiction being certified; for m = 2 they collide with it and
    the certificate is marked degenerate.
    """

    m: int
    block_length: int
    degenerate: bool
    entries: tuple[ExtensionWitness, ...]

    def __post_init__(self) -> None:
        half = self.block_length // 2
        for e in self.entries:
            if e.weight not in (half - 1, half + 1):
                raise ValueError(f"witness weight {e.weight} is not {half} +- 1")

    @property
    def ok(self) -> bool:
        """Non-degenerate, with a witness for every ordered column pair."""
        n = self.block_length
        return not self.degenerate and len(self.entries) == n * (n - 1)

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
    so the certificate is byte-reproducible.
    """
    if not 2 <= m <= 8:
        raise ValueError("verify_no_extension supports 2 <= m <= 8")
    nbig = 1 << (m - 1)
    mat = [_coordinate_pattern(m - 1, i) for i in range(m - 1)]
    entries = []
    for k in range(nbig):
        for l in range(nbig):
            if l == k:
                continue
            j = next(i for i in range(m - 1) if ((mat[i] >> l) ^ (mat[i] >> k)) & 1)
            w = mat[j].bit_count() - ((mat[j] >> l) & 1) + ((mat[j] >> k) & 1)
            entries.append(ExtensionWitness(k, l, j, w))
    return ExtensionCertificate(m, nbig, m == 2, tuple(entries))


@dataclass(frozen=True)
class SubspaceCount:
    n: int
    examined: int
    expected: int | None
    qualifying: int


@dataclass(frozen=True)
class BeauvilleReport:
    """Outcome of scanning dimension-m codes for the half-weight bound."""

    m: int
    n_max: int
    mode: str
    per_n: tuple[SubspaceCount, ...]
    extremal_n: int
    extremal_count: int
    counterexamples: tuple[str, ...]

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
    and its free entries, the bits above a row's pivot that are no pivot,
    so a pivot set holds 2^(free entries) subspaces, counted without
    visiting them.  Rows are chosen one at a time from candidate lists
    (pivot bit plus free entries, weight >= n/2), and a partial basis is
    kept only while every nonzero word of its span reaches n/2: a light
    word stays in the span of every extension, so no qualifying basis is
    lost, and each one found has all 2^m - 1 nonzero words checked.
    """
    full = (1 << n) - 1
    examined = qualifying = 0

    def extend(candidates: list[list[int]], rows: list[int], span: list[int]) -> None:
        nonlocal qualifying
        if len(rows) == m:
            qualifying += 1
            visit(rows)
            return
        for row in candidates[len(rows)]:
            words = [row ^ w for w in span]
            if all(2 * w.bit_count() >= n for w in words):
                extend(candidates, rows + [row], span + [row] + words)

    for pivots in itertools.combinations(range(n), m):
        pivot_mask = sum(1 << p for p in pivots)
        free_entries = 0
        candidates = []
        for p in pivots:
            free = full & ~((2 << p) - 1) & ~pivot_mask
            free_entries += free.bit_count()
            heavy = []
            sub = free
            while True:
                row = (1 << p) | sub
                if 2 * row.bit_count() >= n:
                    heavy.append(row)
                if not sub:
                    break
                sub = (sub - 1) & free
            candidates.append(heavy)
        examined += 1 << free_entries
        extend(candidates, [], [])
    return examined, qualifying


def _weights_reach_half(rows: list[int], n: int, flips: list[int]) -> bool:
    word = 0
    for f in flips:
        word ^= rows[f]
        if word.bit_count() * 2 < n:
            return False
    return True


def verify_beauville(m: int, n_max: int, *, samples: int = 500, seed: int = 0) -> BeauvilleReport:
    """Scan dimension-m codes in F_2^n for all n <= n_max and check:

    (a) no code on n < 2^(m-1) coordinates has every nonzero weight >= n/2;
    (b) on n = 2^(m-1) coordinates, every such code has nonzero weights
        exactly {n/2, n} and is permutation-equivalent to D_m.

    For m <= 4 the scan is exhaustive over reduced bases
    (``_half_weight_bases``: each pivot set counts its 2^(free entries)
    subspaces, and only bases whose span reaches n/2 are enumerated; the
    per-n count is cross-checked against the q-binomial).  That count is
    arithmetic, a sum of 2^(free entries), so ``subspaces`` in the report
    is not a count of visits; ``tests/oracles.py`` holds an enumerator
    that visits every reduced basis once, and the test suite checks the
    per-n counts and qualifying bases against it.
    For larger m it samples ``samples`` random dimension-m codes per n from
    a seeded generator, always including D_m itself at the extremal length.
    (b) is decided at every length by the generator columns (``_is_d_code``);
    D_m has nonzero weights exactly {n/2, n}, so that covers the spectrum.
    Violations are collected as counterexample strings; ``ok`` means none.
    Both modes are bounded by SUBSPACE_BUDGET: the exhaustive scan by the
    q-binomial count, the sampled scan by its row sums, up to
    samples * (n_max - m + 1) * (2^m - 1), checked before any code is built.
    """
    if m < 2:
        raise ValueError("verify_beauville requires m >= 2")
    if n_max < m:
        raise ValueError("n_max must be at least m")
    exhaustive = m <= MAX_EXHAUSTIVE_DIM
    lengths = n_max - m + 1
    if not exhaustive and samples * lengths > SUBSPACE_BUDGET:
        raise ResourceLimitError(
            f"sampling {samples} subspaces at each of {lengths} lengths exceeds "
            f"the budget of {SUBSPACE_BUDGET}"
        )
    # a qualifying sample sums rows into each of its 2^m - 1 nonzero words
    if not exhaustive and samples * lengths * ((1 << m) - 1) > SUBSPACE_BUDGET:
        raise ResourceLimitError(
            f"sampling {samples} subspaces at each of {lengths} lengths, up to "
            f"{(1 << m) - 1} words each, exceeds the budget of {SUBSPACE_BUDGET}"
        )
    extremal_n = 1 << (m - 1)
    per_n: list[SubspaceCount] = []
    counterexamples: list[str] = []
    extremal_count = 0
    mode = "exhaustive" if exhaustive else "sampled"

    def handle_qualifying(rows: list[int], n: int) -> None:
        nonlocal extremal_count
        desc = ",".join(format(r, "b") for r in rows)
        if n < extremal_n:
            counterexamples.append(
                f"n={n} < {extremal_n}: code [{desc}] has all nonzero weights >= n/2"
            )
        elif n == extremal_n:
            extremal_count += 1
            if not _is_d_code(LinearCode(n, m, Gf2Matrix.from_ints(rows, n))):
                counterexamples.append(f"n={n}: extremal code [{desc}] is not equivalent to D_{m}")

    if exhaustive:
        planned = 0
        for n in range(m, n_max + 1):
            expected = gaussian_binomial(n, m)
            planned += expected
            if planned > SUBSPACE_BUDGET:
                partial = BeauvilleReport(
                    m, n_max, mode, tuple(per_n), extremal_n, extremal_count, tuple(counterexamples)
                )
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
            while len(bases) < samples:
                rows, pivots = _rref_ints([rng.getrandbits(n) for _ in range(m)], n)
                if len(pivots) == m:
                    bases.append(rows)
            qualifying = 0
            for rows in bases:
                if _weights_reach_half(rows, n, flips):
                    qualifying += 1
                    handle_qualifying(rows, n)
            per_n.append(SubspaceCount(n, len(bases), None, qualifying))

    return BeauvilleReport(
        m, n_max, mode, tuple(per_n), extremal_n, extremal_count, tuple(counterexamples)
    )
