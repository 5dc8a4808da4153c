"""Independent oracles the benchmark checks k3nodal's outputs against.

Nothing here imports k3nodal: each fact is recomputed from first
principles (bit arithmetic on Python integers, Dynkin trees, closed-form
counts), so a wrong fast path in the library cannot also fool its check.
``tests/oracles.py`` has oracles for some of the same facts (Dynkin
maximum independent sets, Gaussian binomials); the benchmark keeps its
own copies on purpose, so that edits to ``tests/`` cannot change what it
checks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Sequence


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- GF(2) linear algebra on bit-packed rows -------------------------------


def echelon(rows: Sequence[int]) -> dict[int, int]:
    """Map leading bit -> row of an echelon basis of the span of ``rows``."""
    basis: dict[int, int] = {}
    for row in rows:
        row = reduce_word(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def reduce_word(word: int, basis: dict[int, int]) -> int:
    while word:
        lead = word.bit_length() - 1
        if lead not in basis:
            break
        word ^= basis[lead]
    return word


def rank(rows: Sequence[int]) -> int:
    return len(echelon(rows))


def in_span(word: int, rows: Sequence[int]) -> bool:
    return reduce_word(word, echelon(rows)) == 0


def orthogonal(a_rows: Sequence[int], b_rows: Sequence[int]) -> bool:
    return all((a & b).bit_count() % 2 == 0 for a in a_rows for b in b_rows)


def columns(rows: Sequence[int], n: int) -> list[int]:
    """Column j of the generator matrix, packed as bit i = row i."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)]


def power_moments(rows: Sequence[int], n: int) -> tuple[int, int]:
    """Sum of wt(c) and of wt(c)^2 over all 2^k codewords, from the columns.

    With independent rows, a nonzero column is 1 on half the codewords;
    two equal nonzero columns agree on all of them, and two distinct
    nonzero columns are both 1 on a quarter.
    """
    k = len(rows)
    mult = Counter(c for c in columns(rows, n) if c)
    nonzero = sum(mult.values())
    equal_pairs = sum(a * a for a in mult.values())
    first = nonzero << k >> 1
    second4 = (equal_pairs << (k + 1)) + ((nonzero * nonzero - equal_pairs) << k)
    return first, second4 // 4


def column_profile(rows: Sequence[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Zero-column count and sorted multiplicities of the nonzero columns:
    invariant under coordinate permutation and change of basis."""
    mult = Counter(columns(rows, n))
    zero = mult.pop(0, 0)
    return zero, tuple(sorted(mult.values()))


def gaussian_binomial2(n: int, k: int) -> int:
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def affine_group_order(m: int) -> int:
    """|AGL(m, 2)|, the automorphism group of RM(1, m)."""
    order = 1 << m
    for i in range(m):
        order *= (1 << m) - (1 << i)
    return order


def d_code_count(m: int) -> int:
    """Number of distinct codes on 2^(m-1) coordinates equivalent to D_m."""
    return factorial(1 << (m - 1)) // affine_group_order(m - 1)


# --- Dynkin diagrams ------------------------------------------------------


def dynkin_edges(letter: str, n: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin tree: a path 0..n-2 plus one branch node."""
    if letter == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if letter == "E":
        return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    raise ValueError(letter)


def max_independent_set(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Largest set of pairwise non-adjacent nodes of a tree (DP from node 0)."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order, parent = [0], {0: -1}
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    take = {v: 1 for v in range(n)}
    skip = {v: 0 for v in range(n)}
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            take[p] += skip[v]
            skip[p] += max(take[v], skip[v])
    return max(take[0], skip[0])


def dynkin_delta(letter: str, n: int) -> int:
    """Disjoint (-2)-curves among the exceptional curves of one singularity."""
    return max_independent_set(n, dynkin_edges(letter, n))


# --- code lattices --------------------------------------------------------


def code_lattice_det(n: int, k: int, sign: int) -> Fraction:
    """det of the code lattice: index 2^(n-k) in Z^n, form scaled by sign/2."""
    return Fraction(sign**n * 4 ** (n - k), 2**n)


def is_isotropic(rows: Sequence[int]) -> bool:
    return orthogonal(rows, rows)
