"""Independent reference computations used to check the library.

Almost everything here works on plain lists of 0/1 ints (or adjacency
lists), deliberately avoiding the bit-packed representations and
algorithms of the package, so agreement between the two routes is
meaningful.  ``gray_weight_distribution``, ``naive_is_rref``,
``gray_order_bases``, ``naive_transpose``, ``column_rref_ints`` and
``column_kernel_ints`` work on bit-packed int rows, but use none of the
package's code: one XOR per codeword in Gray-code order, a pivot-column
count per lead, one free-entry flip per reduced basis, one shift per
matrix entry, one column per elimination step (the package eliminates a
strip of columns at a time), and one null-space word per free column
built bit by bit from the reduced rows.
``subset_xors`` XORs each subset of a list of ints on its own, one
membership test per value (the package doubles one table per value).
``elementwise_leading_minors`` is the package's fraction-free pass on
plain lists of ints, one entry at a time (the package packs each row into
one int).
``naive_code_lattice`` builds a code lattice's basis as dense 0/1 lifts
plus 2e_j rows and its Gram matrix from dense dot products (the package
keeps each row as bits and a scale and counts overlaps).
``popcount_gram2`` is the package's former doubled Gram build: one
popcount per entry on and above the diagonal over (bits, scale) rows,
mirrored (the package takes popcounts only between generators).
``unpruned_half_weight_bases`` is the package's half-weight scan without
its pivot-set skip or word masks: it searches every pivot set and
counts every weight, so it fixes the order in which qualifying bases
must be visited.
``naive_permutation_equivalent`` takes two codes and reads only their
``n``, ``k`` and generator rows; it searches lists of codeword ints
(``span_ints``), not the package's bit-sliced columns.
``Index`` is an integer that is not an int, for the tests of the int
parameters.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb, gcd


class Index:
    """An integer that is not an int: it has only ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def matrix_coords(m) -> list[list[int]]:
    """The 0/1 entries of a ``Gf2Matrix``, row by row (bit j of a row = column j)."""
    return [[(row >> j) & 1 for j in range(m.cols)] for row in m.rows]


def naive_rref(rows: list[list[int]]) -> tuple[list[list[int]], int, list[int]]:
    """Row reduction on unpacked 0/1 lists; returns (matrix, rank, pivots)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                mat[i] = [(x + y) % 2 for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, len(pivots), pivots


def column_rref_ints(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced echelon form of bit-packed rows, one column at a time:
    (rows, pivot columns), zero rows at the bottom.  Each pivot row is
    XORed into every other row holding its pivot bit, and the scan stops
    once every row holds a pivot."""
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


def column_kernel_ints(rows: list[int], cols: int) -> list[int]:
    """Reduced echelon basis of the null space of bit-packed rows: for each
    free column f of ``column_rref_ints``, the word with bit f and the
    pivot bit of every reduced row that holds bit f, reduced again by
    ``column_rref_ints`` (the package reduces with the columns reversed
    and reads each free column's pivots from one transpose)."""
    reduced, pivots = column_rref_ints(rows, cols)
    words = [
        (1 << f) | sum(1 << p for p, row in zip(pivots, reduced) if row >> f & 1)
        for f in range(cols)
        if f not in pivots
    ]
    return column_rref_ints(words, cols)[0]


def naive_rank(rows: list[list[int]]) -> int:
    return naive_rref(rows)[1]


def naive_codewords(gen_rows: list[list[int]], n: int) -> list[list[int]]:
    """All codewords by direct message-by-message combination."""
    k = len(gen_rows)
    words = []
    for msg in itertools.product((0, 1), repeat=k):
        word = [0] * n
        for bit, row in zip(msg, gen_rows):
            if bit:
                word = [(x + y) % 2 for x, y in zip(word, row)]
        words.append(word)
    return words


def span_ints(rows: Iterable[int]) -> list[int]:
    """Every sum of a subset of bit-packed rows, the list doubled once per
    row; the rows need not be independent."""
    words = [0]
    for row in rows:
        words += [w ^ row for w in words]
    return words


def subset_xors(values: list[int]) -> list[int]:
    """Entry u is the XOR of values[j] over the set bits j of u, each
    subset summed from zero."""
    sums = []
    for u in range(1 << len(values)):
        total = 0
        for j, value in enumerate(values):
            if (u >> j) & 1:
                total ^= value
        sums.append(total)
    return sums


def permute_bits(word: int, perm: list[int]) -> int:
    """The word with its coordinates permuted one bit at a time: bit t of
    the result is bit perm[t] of word."""
    return sum(((word >> j) & 1) << t for t, j in enumerate(perm))


def naive_weight_distribution(gen_rows: list[list[int]], n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for word in naive_codewords(gen_rows, n):
        w = sum(word)
        counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def gray_weight_distribution(rows: list[int], n: int) -> dict[int, int]:
    """Weight counts of the span of bit-packed rows, one XOR per codeword
    in Gray-code order; the rows need not be independent."""
    if any(r >> n for r in rows):
        raise ValueError("a row does not fit the length")
    counts = {0: 1}
    word = 0
    for u in range(1, 1 << len(rows)):
        word ^= rows[(u & -u).bit_length() - 1]
        w = word.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def naive_transpose(rows: list[int], cols: int) -> list[int]:
    """Columns of bit-packed rows, one bit at a time: bit i of column j is
    bit j of row i."""
    return [sum(((b >> j) & 1) << i for i, b in enumerate(rows)) for j in range(cols)]


def gray_order_bases(n: int, m: int) -> Iterator[list[int]]:
    """Yield the rows of every dimension-m reduced basis of F_2^n, one at a
    time: per pivot set (the lowest bit of each row), the free entries
    (bits above a row's pivot that are no pivot) run through all their
    patterns in Gray order, one flip per step, so each subspace appears
    exactly once.  The same list is yielded every time and mutated in
    place; callers copy it to keep a basis."""
    for pivots in itertools.combinations(range(n), m):
        free = [
            (i, 1 << j)
            for i in range(m)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        rows = [1 << p for p in pivots]
        yield rows
        for idx in range(1, 1 << len(free)):
            i, bit = free[(idx & -idx).bit_length() - 1]
            rows[i] ^= bit
            yield rows


def gray_half_weight_scan(n: int, m: int) -> tuple[int, set[tuple[int, ...]]]:
    """Visit every reduced basis of ``gray_order_bases``; return how many
    there are and the set of those whose span, walked in Gray order, has
    every nonzero weight >= n/2."""
    visited = 0
    found = set()
    for rows in gray_order_bases(n, m):
        visited += 1
        word = 0
        for u in range(1, 1 << m):
            word ^= rows[(u & -u).bit_length() - 1]
            if 2 * word.bit_count() < n:
                break
        else:
            found.add(tuple(rows))
    return visited, found


def unpruned_half_weight_bases(n: int, m: int, visit) -> tuple[int, int]:
    """The package's half-weight scan without its pivot-set skip or word
    masks: every pivot set lists its candidate rows and runs the search,
    and every weight is a popcount.  Returns (subspaces, qualifying bases)
    and calls ``visit`` with each qualifying basis, in the order the
    package's scan must keep."""
    full = (1 << n) - 1
    examined = qualifying = 0

    def extend(candidates, rows, span):
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


def naive_permutation_equivalent(a, b) -> bool:
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
    words_a = span_ints(a.gen.rows)
    words_b = span_ints(b.gen.rows)
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


def naive_is_rref(rows: list[int]) -> bool:
    """Reduced echelon shape of bit-packed rows: strictly increasing leads,
    zero rows only at the bottom, and each lead column holding exactly one
    one-bit among the nonzero rows."""
    last = -1
    seen_zero = False
    leads = []
    for row in rows:
        if row == 0:
            seen_zero = True
            continue
        if seen_zero:
            return False
        lead = (row & -row).bit_length() - 1
        if lead <= last:
            return False
        last = lead
        leads.append(lead)
    nonzero = [b for b in rows if b]
    return all(sum((b >> lead) & 1 for b in nonzero) == 1 for lead in leads)


def naive_reed_muller_rows(max_degree: int, m: int) -> list[list[int]]:
    """Evaluation rows of the monomials of degree <= max_degree on F_2^m,
    point by point: entry j is the product of the chosen bits of j."""
    return [
        [int(all((j >> v) & 1 for v in variables)) for j in range(1 << m)]
        for degree in range(max_degree + 1)
        for variables in itertools.combinations(range(m), degree)
    ]


def naive_det(mat: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals, swapping in
    the first nonzero pivot of each column."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            det = -det
        det *= a[c][c]
        pivot_tail = a[c][c + 1 :]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i][c + 1 :] = [x - f * y for x, y in zip(a[i][c + 1 :], pivot_tail)]
    return det


def naive_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular matrix by Gauss-Jordan elimination on [A | I]."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        pivot_row = next(i for i in range(c, n) if a[i][c])
        a[c], a[pivot_row] = a[pivot_row], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def naive_leading_minors(mat: list[list[Fraction]]) -> list[Fraction]:
    """Leading principal minors, each from its own elimination of the
    leading t x t block."""
    return [naive_det([row[:t] for row in mat[:t]]) for t in range(1, len(mat) + 1)]


def elementwise_leading_minors(gram2: list[list[int]]) -> tuple[int, ...]:
    """Leading principal minors of a semidefinite integer matrix from a
    symmetric Bareiss pass on plain lists, entry by entry: row i kept from
    its diagonal on, entry (i, j) becoming (a_ij * piv - a_0i * a_0j) // prev."""
    n = len(gram2)
    rows = [list(row[i:]) for i, row in enumerate(gram2)]
    minors: list[int] = []
    prev = 1
    for t in range(n):
        pivot_row = rows[0]
        piv = pivot_row[0]
        minors.append(piv)
        if piv == 0:
            minors += [0] * (n - t - 1)
            break
        rows = [
            [(x * piv - a * y) // prev for x, y in zip(row, pivot_row[i:])]
            for i, (row, a) in enumerate(zip(rows[1:], pivot_row[1:]), start=1)
        ]
        prev = piv
    return tuple(minors)


def naive_code_lattice(code, sign: int) -> tuple[list[list[int]], list[list[int]]]:
    """The basis and doubled Gram matrix of the lattice of integer vectors
    reducing mod 2 into the code, built densely: each reduced generator
    lifted to a 0/1 row, 2e_j for every coordinate j that leads none, the
    rows sorted by leading coordinate, and gram2 = sign * B B^T.  Reads only
    the code's ``n`` and generator rows."""
    n = code.n
    by_leading = {}
    for bits in code.gen.rows:
        row = [(bits >> t) & 1 for t in range(n)]
        by_leading[row.index(1)] = row
    basis = [by_leading.get(j) or [2 * (t == j) for t in range(n)] for j in range(n)]
    gram2 = [[sign * sum(x * y for x, y in zip(a, b)) for b in basis] for a in basis]
    return basis, gram2


def popcount_gram2(code, sign: int) -> tuple[tuple[int, ...], ...]:
    """The doubled Gram matrix of the code's lattice as n(n+1)/2 popcounts,
    gram2_ij = sign s_i s_j |b_i & b_j|, over the basis rows sorted by
    leading coordinate j as (bits, scale) pairs: the generator with lowest
    bit j (scale 1), or 2e_j (scale 2).  Reads only the code's ``n`` and
    generator rows."""
    n = code.n
    by_leading = {(g & -g).bit_length() - 1: g for g in code.gen.rows}
    rows = [(by_leading[j], 1) if j in by_leading else (1 << j, 2) for j in range(n)]
    gram = [[0] * n for _ in range(n)]
    for i, (bi, si) in enumerate(rows):
        for j, (bj, sj) in enumerate(rows[i:], i):
            gram[i][j] = gram[j][i] = sign * si * sj * (bi & bj).bit_count()
    return tuple(map(tuple, gram))


def naive_smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonzero Smith invariants from determinantal divisors: d_k is the gcd
    of all k x k minors and s_k = d_k / d_(k-1), up to the rank.  Every
    minor is computed on its own, so this is for small matrices only."""
    nr = len(mat)
    nc = len(mat[0]) if mat else 0
    out: list[int] = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                d = gcd(d, int(naive_det([[mat[i][j] for j in cols] for i in rows])))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def qbinom_recursive(n: int, k: int, q: int = 2, _memo: dict = {}) -> int:
    """Gaussian binomial via the Pascal-type recurrence
    [n, k] = [n-1, k-1] + q^k [n-1, k]; independent of the product formula."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    key = (n, k, q)
    if key not in _memo:
        _memo[key] = qbinom_recursive(n - 1, k - 1, q) + q**k * qbinom_recursive(n - 1, k, q)
    return _memo[key]


def macwilliams_dual_counts(counts: dict[int, int], n: int, k: int) -> dict[int, int]:
    """Dual weight distribution via the MacWilliams transform with
    Krawtchouk polynomials; exact integer arithmetic."""

    def krawtchouk(j: int, w: int) -> int:
        return sum((-1) ** i * comb(w, i) * comb(n - w, j - i) for i in range(0, j + 1))

    dual_counts = {}
    size = 2**k
    for j in range(n + 1):
        total = sum(a_w * krawtchouk(j, w) for w, a_w in counts.items())
        if total % size:
            raise AssertionError("MacWilliams transform is not integral")
        value = total // size
        if value:
            dual_counts[j] = value
    return dual_counts


def dynkin_adjacency(letter: str, n: int) -> list[list[int]]:
    """Adjacency lists of the ADE Dynkin tree on n vertices."""
    if letter == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        edges = [(i, i + 1) for i in range(n - 1)]
    elif letter == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    elif letter == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    else:
        raise ValueError(f"unknown type {letter}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def tree_mis(adj: list[list[int]]) -> int:
    """Maximum independent set of a tree by the standard include/exclude DP."""

    def dfs(v: int, parent: int) -> tuple[int, int]:
        include, exclude = 1, 0
        for u in adj[v]:
            if u == parent:
                continue
            inc_u, exc_u = dfs(u, v)
            include += exc_u
            exclude += max(inc_u, exc_u)
        return include, exclude

    return max(dfs(0, -1))


def brute_mis(adj: list[list[int]]) -> int:
    """Maximum independent set by subset enumeration; for small graphs only."""
    n = len(adj)
    masks = [0] * n
    for v in range(n):
        for u in adj[v]:
            masks[v] |= 1 << u
    best = 0
    for subset in range(1 << n):
        if any((subset >> v) & 1 and subset & masks[v] for v in range(n)):
            continue
        best = max(best, subset.bit_count())
    return best
