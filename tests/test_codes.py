import collections.abc
import copy
import dataclasses
import hashlib
import json
import pickle
import random
import re
import time
from collections import Counter

import pytest

from k3nodal import codes, gf2
from k3nodal.cli import run
from k3nodal.codes import (
    MAX_GENERATOR_BITS,
    MAX_PERM_SEARCH_LEN,
    BeauvilleReport,
    ExtensionCertificate,
    ExtensionWitness,
    LinearCode,
    ResourceLimitError,
    _is_d_code,
    code_d,
    dual,
    from_generators,
    gaussian_binomial,
    is_isomorphic_to_d,
    is_isotropic,
    permutation_equivalent,
    reed_muller,
    reed_muller_generators,
    verify_beauville,
    verify_no_extension,
    weight_distribution,
)
from k3nodal.gf2 import Gf2Matrix, _rref_ints, _transpose_ints, kernel, parse_matrix_text
from k3nodal.lattice import CodeLattice
from oracles import (
    Index,
    gray_half_weight_scan,
    gray_weight_distribution,
    macwilliams_dual_counts,
    matrix_coords,
    naive_is_rref,
    naive_permutation_equivalent,
    naive_reed_muller_rows,
    naive_transpose,
    naive_weight_distribution,
    permute_bits,
    qbinom_recursive,
    span_ints,
    unpruned_half_weight_bases,
)

EQ2_ROWS = [
    "0101010101010101",
    "0011001100110011",
    "0000111100001111",
    "0000000011111111",
]


def _full_code(n: int) -> LinearCode:
    return LinearCode(Gf2Matrix.from_ints([1 << i for i in range(n)], n))


# (call with one int parameter left open, a good value for it)
INT_PARAMETERS = {
    "Gf2Matrix cols": (lambda v: Gf2Matrix((), v), 3),
    "Gf2Matrix row": (lambda v: Gf2Matrix((v,), 3), 1),
    "LinearCode.zero": (LinearCode.zero, 3),
    "LinearCode.repetition": (LinearCode.repetition, 3),
    "LinearCode.contains": (code_d(3).contains, 0b1111),
    "reed_muller_generators max_degree": (lambda v: reed_muller_generators(v, 3), 1),
    "reed_muller_generators m": (lambda v: reed_muller_generators(1, v), 3),
    "code_d": (code_d, 3),
    "gaussian_binomial n": (lambda v: gaussian_binomial(v, 2), 4),
    "gaussian_binomial k": (lambda v: gaussian_binomial(4, v), 2),
    "verify_no_extension": (verify_no_extension, 3),
    "verify_beauville m": (verify_beauville, 3),
    "verify_beauville n_max": (lambda v: verify_beauville(3, v), 5),
    "CodeLattice sign": (lambda v: CodeLattice(code_d(3), v), -1),
    "ExtensionCertificate m": (lambda v: ExtensionCertificate(v, ()), 3),
    "BeauvilleReport m": (lambda v: BeauvilleReport(v, 4, (), ()), 3),
    "BeauvilleReport n_max": (lambda v: BeauvilleReport(3, v, (), ()), 4),
}


@pytest.mark.parametrize("name", INT_PARAMETERS)
@pytest.mark.parametrize("bad", [1.0, 3.0, True, False], ids=repr)
def test_int_parameters_refuse_bools_and_non_integers(name, bad):
    call, _ = INT_PARAMETERS[name]
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("name", INT_PARAMETERS)
def test_int_parameters_normalize_index_objects_to_ints(name):
    call, good = INT_PARAMETERS[name]
    result, expected = call(Index(good)), call(good)
    # an Index left in a field would show in the repr and break equality
    assert result == expected
    assert repr(result) == repr(expected)


def _random_code(rng: random.Random, n: int, max_rows: int | None = None) -> LinearCode:
    rows = rng.randint(0, max_rows if max_rows is not None else n)
    return from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(rows)], n))


# ---------------------------------------------------------------- construction


def test_from_generators_examples():
    c = from_generators(parse_matrix_text("11\n11"))
    assert (c.n, c.k) == (2, 1)
    z = from_generators(Gf2Matrix((), 4))
    assert (z.n, z.k) == (4, 0)
    c5 = from_generators(parse_matrix_text("\n".join(EQ2_ROWS + ["1" * 16])))
    assert (c5.n, c5.k) == (16, 5)
    assert c5 == code_d(5)


def test_codes_are_sized_by_their_generators():
    rng = random.Random(19)
    codes = [LinearCode.zero(5), _full_code(5), LinearCode.repetition(5), code_d(4)]
    codes += [_random_code(rng, rng.randint(1, 30)) for _ in range(40)]
    codes += [dual(c) for c in codes]
    for c in codes:
        assert (c.n, c.k) == (c.gen.cols, c.gen.nrows)
    assert [(c.n, c.k) for c in codes[:3]] == [(5, 0), (5, 5), (5, 1)]
    with pytest.raises(TypeError):
        LinearCode(4, 0, Gf2Matrix((), 4))
    with pytest.raises(ValueError):
        LinearCode(Gf2Matrix.from_ints([0b11, 0b01], 2))  # not reduced


def test_linear_code_repr_is_unchanged():
    assert repr(code_d(5)) == (
        "LinearCode(n=16, k=5, gen=Gf2Matrix(rows=(38505, 43690, 52428, 61680, 65280), cols=16))"
    )


def test_from_generators_ragged():
    # a generator row must lie in [0, 2^n)
    for row in (-1, 0b100):
        with pytest.raises(ValueError):
            from_generators(Gf2Matrix.from_ints([0b10, row], 2))


def test_contains_every_codeword_and_refuses_out_of_range_words():
    rng = random.Random(17)
    cases = [code_d(3), LinearCode.zero(4), _full_code(3)]
    cases += [_random_code(rng, rng.randint(1, 9)) for _ in range(40)]
    for c in cases:
        words = set(span_ints(c.gen.rows))
        assert len(words) == 2**c.k
        assert all(c.contains(w) == (w in words) for w in range(1 << c.n))
        for word in (-1, 1 << c.n, -(1 << c.n), 1 << (c.n + 40)):
            with pytest.raises(ValueError, match=f"word does not fit the code length {c.n}"):
                c.contains(word)
    assert not code_d(3).contains(0b0001)
    assert code_d(3).contains(0b1111)


# ---------------------------------------------------------------- duality


def test_dual_examples():
    assert dual(LinearCode.zero(4)) == _full_code(4)
    assert dual(_full_code(4)) == LinearCode.zero(4)
    even = dual(LinearCode.repetition(4))
    assert even.k == 3
    assert str(even.gen).splitlines() == ["1001", "0101", "0011"]


def test_dual_dimension_and_involution():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 20)
        c = _random_code(rng, n)
        d = dual(c)
        assert c.k + d.k == n
        assert dual(d) == c


def test_dual_is_the_reduced_kernel():
    rng = random.Random(29)
    codes = [LinearCode.zero(1), LinearCode.zero(9), _full_code(1), _full_code(9)]
    codes += [_random_code(rng, rng.randint(1, 40)) for _ in range(120)]
    for c in codes:
        d = dual(c)
        assert d == from_generators(kernel(c.gen))
        assert dual(d) == c


def test_dual_budget():
    # the dual basis has (n - k) x n entries, at most MAX_GENERATOR_BITS
    assert 2048 * 2048 == MAX_GENERATOR_BITS
    assert dual(LinearCode.zero(2048)) == _full_code(2048)
    assert dual(reed_muller(1, 11)).k == 2036
    for c in (LinearCode.zero(2049), reed_muller(1, 12), LinearCode.repetition(2049)):
        with pytest.raises(ResourceLimitError, match="dual generator bits exceed the budget"):
            dual(c)
    # a code of large length and dimension still has a small dual
    assert dual(_full_code(2049)) == LinearCode.zero(2049)


def test_dual_of_reed_muller_is_reed_muller():
    # RM(r, m) and RM(m - r - 1, m) are each other's duals
    for m in range(1, 9):
        for r in range(m):
            assert dual(reed_muller(r, m)) == reed_muller(m - r - 1, m), (r, m)


def test_is_isotropic_examples():
    assert is_isotropic(LinearCode.repetition(2))
    assert not is_isotropic(from_generators(parse_matrix_text("10")))
    assert is_isotropic(code_d(5))


def test_isotropic_implies_even_weights():
    rng = random.Random(29)
    found = 0
    for _ in range(200):
        c = _random_code(rng, rng.randint(1, 10))
        if is_isotropic(c):
            found += 1
            assert all(w % 2 == 0 for w in weight_distribution(c).nonzero_weights())
    assert found > 5


# ---------------------------------------------------------------- weights


def test_weight_distribution_examples():
    assert weight_distribution(LinearCode.repetition(8)).counts == {0: 1, 8: 1}
    assert weight_distribution(_full_code(2)).counts == {0: 1, 1: 2, 2: 1}
    assert weight_distribution(code_d(5)).counts == {0: 1, 8: 30, 16: 1}


def test_weight_distribution_is_unhashable():
    # its counts are a dict, so the frozen record must not advertise a hash
    dist = weight_distribution(code_d(3))
    assert not isinstance(dist, collections.abc.Hashable)
    with pytest.raises(TypeError, match="unhashable type: 'WeightDistribution'"):
        hash(dist)
    assert dataclasses.replace(dist) == dist == copy.deepcopy(dist) == pickle.loads(pickle.dumps(dist))


def test_weight_distribution_matches_naive():
    rng = random.Random(31)
    for _ in range(60):
        c = _random_code(rng, rng.randint(1, 10))
        assert weight_distribution(c).counts == naive_weight_distribution(matrix_coords(c.gen), c.n)


@pytest.mark.parametrize("k,n", [(13, 40), (14, 64), (15, 33), (17, 64), (15, 300), (17, 300)])
def test_weight_distribution_matches_gray_across_blocks(k, n):
    # k > 14 spans several blocks of 2^14 messages; n = 300 needs 9 counter
    # planes, and rows of density 7/8 put the weights of single rows above 255
    rng = random.Random(1000 * k + n)
    rows = [rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n) for _ in range(k)]
    c = from_generators(Gf2Matrix.from_ints(rows, n))
    assert c.k == k
    dist = weight_distribution(c)
    assert dist.counts == gray_weight_distribution(list(c.gen.row_bits()), n)
    assert dist.total() == 2**k


@pytest.mark.parametrize("k", [15, 16, 17])
def test_weight_distribution_column_kinds_match_gray(k):
    # [I | A] is reduced, and A holds each kind of column the block loop
    # treats apart: no high message bits (the same in every block), no low
    # bits (all zeros or all ones over a block), zero, repeated and mixed
    rng = random.Random(k)
    low_bits, high_bits = codes._BLOCK_BITS, k - codes._BLOCK_BITS
    no_high = [rng.getrandbits(low_bits) | 1 for _ in range(4)]
    no_low = [(rng.getrandbits(high_bits) | 1) << low_bits for _ in range(4)]
    mixed = [rng.getrandbits(k) | 1 | (1 << (k - 1)) for _ in range(6)]
    extra = no_high + no_low + mixed + [0, 0] + mixed[:2] + no_low[:1] + no_high[:1]
    rng.shuffle(extra)
    columns = [1 << i for i in range(k)] + extra
    rows = naive_transpose(columns, k)
    c = LinearCode(Gf2Matrix.from_ints(rows, len(columns)))
    dist = weight_distribution(c)
    assert dist.counts == gray_weight_distribution(rows, c.n)
    assert dist.total() == 2**k


def test_weight_distribution_special_codes_match_gray():
    for c in (LinearCode.zero(5), _full_code(12), LinearCode.repetition(8),
              LinearCode.repetition(300)):
        dist = weight_distribution(c)
        assert dist.counts == gray_weight_distribution(list(c.gen.row_bits()), c.n)
        assert dist.total() == 2**c.k


def test_weight_distribution_drops_zero_columns():
    # a zero column adds nothing to any weight: the zero code of the
    # longest admitted length is enumerated without summing its columns
    t0 = time.process_time()
    assert weight_distribution(LinearCode.zero(MAX_GENERATOR_BITS)).counts == {0: 1}
    assert time.process_time() - t0 < 0.1
    rng = random.Random(37)
    for k, n in ((1, 9), (5, 40), (15, 60), (16, 70)):
        base = from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) | 1 for _ in range(k)], n))
        # zero columns spread between the code's own, and a zero tail
        columns = naive_transpose(list(base.gen.rows), n)
        padded = []
        for col in columns:
            padded += [col] + [0] * rng.randint(0, 2)
        padded += [0] * 5
        rows = naive_transpose(padded, base.k)
        c = LinearCode(Gf2Matrix.from_ints(rows, len(padded)))
        dist = weight_distribution(c)
        assert dist.counts == gray_weight_distribution(rows, c.n)
        assert dist.counts == weight_distribution(base).counts
        assert dist.n == len(padded) and dist.total() == 2**base.k


def test_weight_distribution_budget():
    with pytest.raises(ResourceLimitError, match="exceeds the 2\\^28 budget"):
        weight_distribution(_full_code(29))
    # the cost grows as n 2^k: [I | A] codes past 2^34 codeword bits are
    # refused before any block is built
    rng = random.Random(23)
    assert codes.MAX_ENUM_BITS == 1 << 34
    for n, k in ((4096, 24), (65, 28), (4097, 22)):
        rows = [(1 << i) | (rng.getrandbits(n - k) << k) for i in range(k)]
        c = LinearCode(Gf2Matrix.from_ints(rows, n))
        with pytest.raises(ResourceLimitError, match="budget of 2\\^34 codeword bits"):
            weight_distribution(c)


def test_weight_distribution_length_budget(monkeypatch):
    # at k = 0 the n 2^k bound admits n up to 2^34, so the length has its
    # own bound, MAX_GENERATOR_BITS, checked before the columns are transposed
    class Transposed(Exception):
        pass

    def transpose(rows, cols):
        raise Transposed(cols)

    monkeypatch.setattr(codes, "_transpose_ints", transpose)
    with pytest.raises(Transposed):
        weight_distribution(LinearCode.zero(MAX_GENERATOR_BITS))
    longer = (MAX_GENERATOR_BITS + 1, 1 << 34)
    codes_over = [LinearCode(Gf2Matrix((), n)) for n in longer]
    codes_over.append(LinearCode(Gf2Matrix((1 << MAX_GENERATOR_BITS,), MAX_GENERATOR_BITS + 1)))
    for c in codes_over:
        with pytest.raises(ResourceLimitError, match=f"length {c.n} exceeds the length budget"):
            weight_distribution(c)


def test_macwilliams_identity():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 14)
        c = _random_code(rng, n)
        primal = weight_distribution(c).counts
        via_transform = macwilliams_dual_counts(primal, n, c.k)
        assert via_transform == weight_distribution(dual(c)).counts


# ---------------------------------------------------------------- Reed-Muller / D_m


def test_reed_muller_row_order():
    gens = reed_muller_generators(1, 4)
    rows = str(gens).splitlines()
    assert rows[0] == "1" * 16
    assert rows[1:] == EQ2_ROWS


def test_reed_muller_degenerate_orders():
    rep = reed_muller(0, 3)
    assert rep == LinearCode.repetition(8)
    assert reed_muller(3, 3) == _full_code(8)
    with pytest.raises(ValueError):
        reed_muller(4, 3)
    with pytest.raises(ValueError):
        reed_muller(-1, 3)
    with pytest.raises(ValueError):
        reed_muller(0, 0)


def test_reed_muller_generators_match_pointwise_oracle():
    for m in range(1, 9):
        for degree in range(m + 1):
            gens = reed_muller_generators(degree, m)
            assert matrix_coords(gens) == naive_reed_muller_rows(degree, m)
            assert gens.cols == 1 << m


def test_reed_muller_generator_budget():
    # RM(1, 17) has 18 rows of 2^17 bits; RM(1, 18) has 19 rows of 2^18
    assert 18 << 17 <= MAX_GENERATOR_BITS < 19 << 18
    gens = reed_muller_generators(1, 17)
    assert gens.rows[0].bit_count() == 1 << 17
    assert all(r.bit_count() == 1 << 16 for r in gens.rows[1:])
    for degree, m in ((1, 18), (1, 21), (1, 26), (3, 14), (0, 23)):
        with pytest.raises(ResourceLimitError):
            reed_muller_generators(degree, m)
    with pytest.raises(ResourceLimitError):
        code_d(22)


def test_code_d_family():
    d5 = code_d(5)
    assert (d5.n, d5.k) == (16, 5)
    assert code_d(2) == _full_code(2)
    assert weight_distribution(code_d(2)).counts == {0: 1, 1: 2, 2: 1}
    assert sorted(weight_distribution(code_d(4)).nonzero_weights()) == [4, 8]
    with pytest.raises(ValueError):
        code_d(1)


@pytest.mark.parametrize("m", range(2, 8))
def test_code_d_weight_spectrum(m):
    c = code_d(m)
    expected = {0: 1, 1 << (m - 2): (1 << m) - 2, 1 << (m - 1): 1}
    assert weight_distribution(c).counts == expected
    assert naive_weight_distribution(matrix_coords(c.gen), c.n) == expected


# ---------------------------------------------------------------- equivalence


def _permuted(c: LinearCode, perm: list[int]) -> LinearCode:
    """The code with coordinate t of each word read from coordinate perm[t]."""
    return from_generators(Gf2Matrix.from_ints([permute_bits(g, perm) for g in c.gen.rows], c.n))


def test_is_isomorphic_to_d_examples():
    assert is_isomorphic_to_d(code_d(5))
    assert not is_isomorphic_to_d(LinearCode.repetition(2))
    even4 = dual(LinearCode.repetition(4))
    assert is_isomorphic_to_d(even4)
    assert permutation_equivalent(even4, code_d(3))
    # the [7, 4] Hamming code with a zero coordinate has the length 2^3 of
    # D_4, but weight 3 is below half of it
    hamming = from_generators(Gf2Matrix.from_ints([0b1101000, 0b0110100, 0b0011010, 0b0001101], 8))
    assert (hamming.n, hamming.k) == (8, 4)
    assert weight_distribution(hamming).nonzero_weights() == {3, 4, 7}
    assert not is_isomorphic_to_d(hamming)
    # D_1 is the full code of length 1
    assert is_isomorphic_to_d(LinearCode.repetition(1))


def test_permutation_equivalent_examples():
    d4 = code_d(4)
    assert permutation_equivalent(d4, d4)
    assert not permutation_equivalent(LinearCode.zero(2), LinearCode.repetition(2))
    reversed_d4 = _permuted(d4, list(reversed(range(8))))
    assert permutation_equivalent(d4, reversed_d4)
    # same parameters and weights can still fail: two [4,1] codes with
    # different weights
    a = from_generators(parse_matrix_text("1100"))
    b = from_generators(parse_matrix_text("1110"))
    assert not permutation_equivalent(a, b)


def test_permutation_equivalent_respects_permuted_copies():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(2, 12)
        c = _random_code(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert permutation_equivalent(c, _permuted(c, perm))


def test_permutation_equivalent_budget():
    with pytest.raises(ResourceLimitError):
        permutation_equivalent(LinearCode.zero(17), LinearCode.zero(17))


def test_characterization_matches_permutation_oracle():
    rng = random.Random(53)
    cases = 0
    for _ in range(150):
        n = rng.randint(1, 16)
        c = _random_code(rng, n, max_rows=min(n, 5))
        fast = is_isomorphic_to_d(c)
        if c.k >= 2 and c.n == 1 << (c.k - 1):
            assert fast == permutation_equivalent(c, code_d(c.k))
            cases += 1
        else:
            assert not fast or c.k == 1
    # permuted copies of D_m must pass both routes
    for m in (2, 3, 4, 5):
        perm = list(range(1 << (m - 1)))
        rng.shuffle(perm)
        shuffled = _permuted(code_d(m), perm)
        assert is_isomorphic_to_d(shuffled)
        assert permutation_equivalent(shuffled, code_d(m))
    assert cases > 0


def _shuffled(c: LinearCode, rng: random.Random) -> LinearCode:
    perm = list(range(c.n))
    rng.shuffle(perm)
    return _permuted(c, perm)


def _column_copied(c: LinearCode, src: int, dst: int) -> LinearCode:
    """c with column dst overwritten by column src (the rank may drop)."""
    rows = [(g & ~(1 << dst)) | (((g >> src) & 1) << dst) for g in c.gen.row_bits()]
    return from_generators(Gf2Matrix.from_ints(rows, c.n))


def test_d_code_test_matches_permutation_oracle():
    rng = random.Random(59)
    agreed = positive = 0
    for m in (2, 3, 4, 5):
        n = 1 << (m - 1)
        d = code_d(m)
        family = [_shuffled(d, rng) for _ in range(15)]
        family += [_column_copied(d, *rng.sample(range(n), 2)) for _ in range(15)]
        while len(family) < 50:
            c = from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(m)], n))
            if c.k == m:
                family.append(c)
        for c in family:
            fast = _is_d_code(c.gen.rows, c.n)
            assert fast == permutation_equivalent(c, d), (m, c.gen.row_bits())
            agreed += 1
            positive += fast
    assert agreed == 200 and 60 <= positive < agreed


def test_d_code_test_beyond_the_permutation_budget():
    rng = random.Random(61)
    for m in (6, 7):
        d = code_d(m)
        shuffled = _shuffled(d, rng)
        assert d.n > MAX_PERM_SEARCH_LEN and _is_d_code(shuffled.gen.rows, shuffled.n)
    copied = _column_copied(code_d(6), 0, 1)
    assert not _is_d_code(copied.gen.rows, copied.n)
    # three distinct odd columns fill 3 of the 4 points of the hyperplane
    assert not _is_d_code([0b001, 0b010, 0b100], 3)


def _random_code_of_dim(rng: random.Random, n: int, k: int) -> LinearCode:
    while True:
        c = from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(k)], n))
        if c.k == k:
            return c


def _spectrum_and_profiles(c: LinearCode) -> tuple[tuple, list[tuple]]:
    """The weight distribution of c and each column's weight profile: how
    many codewords of each weight have a 1 in that column."""

    def weights(words: list[int]) -> tuple:
        return tuple(sorted(Counter(w.bit_count() for w in words).items()))

    words = span_ints(c.gen.rows)
    return weights(words), [weights([w for w in words if w >> j & 1]) for j in range(c.n)]


def _profile_split_pair(rng: random.Random, n: int, k: int) -> tuple[LinearCode, LinearCode]:
    """Two [n, k] codes a, b with one weight distribution, where some column
    of a has a weight profile that no column of b has, so no permutation
    maps a onto b.  Those columns of a are moved to the end, where the
    search meets them last.  a and b are direct sums of two [n0, k0] codes
    with one weight distribution, found by random draws (n0 in 7..8 and k0
    in 3..4, where such pairs are common), and one random code; a direct
    sum's weight enumerator is the product of its summands'."""
    while True:
        n0 = rng.choice([m for m in (7, 8) if m < n])
        k0 = rng.choice([m for m in (3, 4) if m <= k <= m + n - n0])
        seen = {}
        while True:
            a0 = _random_code_of_dim(rng, n0, k0)
            spectrum, profiles = _spectrum_and_profiles(a0)
            b0, profiles_b0 = seen.setdefault(spectrum, (a0, profiles))
            if not set(profiles) <= set(profiles_b0):
                break
        tail = [r << n0 for r in _random_code_of_dim(rng, n - n0, k - k0).gen.rows]
        a, b = (from_generators(Gf2Matrix.from_ints(list(x.gen.rows) + tail, n)) for x in (a0, b0))
        (spectrum_a, profiles_a), (spectrum_b, profiles_b) = map(_spectrum_and_profiles, (a, b))
        assert spectrum_a == spectrum_b
        odd = [j for j in range(n) if profiles_a[j] not in profiles_b]
        if odd:
            rest = [j for j in range(n) if j not in odd]
            rng.shuffle(rest)
            return _permuted(a, rest + odd), _shuffled(b, rng)


def test_permutation_equivalent_matches_list_oracle():
    rng = random.Random(67)
    pairs = []
    # a shuffled copy at every length up to 16, with every dimension 0..n
    # up to length 12; above it dimensions over 11 are left out, where the
    # two searches take 0.1 to 3 s per pair
    for n in range(1, MAX_PERM_SEARCH_LEN + 1):
        for k in range(min(n, 11) + 1):
            c = _random_code_of_dim(rng, n, k)
            pairs.append((c, _shuffled(c, rng)))
    # a column copied over another, against a shuffled original
    for _ in range(120):
        n = rng.randint(2, 12)
        c = _random_code_of_dim(rng, n, rng.randint(1, min(n, 6)))
        pairs.append((_column_copied(c, *rng.sample(range(n), 2)), _shuffled(c, rng)))
    # two independent codes of one shape
    for _ in range(60):
        n = rng.randint(1, 10)
        k = rng.randint(0, n)
        pairs.append((_random_code_of_dim(rng, n, k), _random_code_of_dim(rng, n, k)))
    # one weight distribution, with a column profile of a that b lacks
    for _ in range(40):
        n = rng.randint(8, 12)
        pairs.append(_profile_split_pair(rng, n, rng.randint(3, n - 4)))
    rm24 = reed_muller(2, 4)
    pairs += [(_shuffled(rm24, rng), rm24) for _ in range(2)]
    # one weight distribution, {0: 1, 2: 3, 4: 3, 6: 1}, but a has three
    # pairs of equal columns (every word of F_2^3 doubled) and b a column
    # repeated three times (F_2^3 with its parity appended three times)
    a = from_generators(parse_matrix_text("101000\n010001\n000110"))
    b = from_generators(parse_matrix_text("100111\n010111\n001111"))
    assert weight_distribution(a) == weight_distribution(b)
    assert sorted(Counter(_transpose_ints(a.gen.rows, a.n)).values()) == [2, 2, 2]
    assert sorted(Counter(_transpose_ints(b.gen.rows, b.n)).values()) == [1, 1, 1, 3]
    pairs.append((a, _shuffled(b, rng)))
    # e8+e8 and d16+ share the weight enumerator of doubly-even self-dual
    # codes of length 16, and each has all its columns alike, so the column
    # profiles match as well and only the refinement tells them apart
    e8 = code_d(4).gen.row_bits()
    e8e8 = from_generators(Gf2Matrix.from_ints(list(e8) + [r << 8 for r in e8], 16))
    d16 = [0b1111 << (2 * i) for i in range(7)] + [int("01" * 8, 2)]
    d16p = from_generators(Gf2Matrix.from_ints(d16, 16))
    assert weight_distribution(e8e8) == weight_distribution(d16p)
    pairs += [(e8e8, _shuffled(e8e8, rng)), (_shuffled(d16p, rng), d16p), (e8e8, _shuffled(d16p, rng))]
    assert len(pairs) >= 300
    verdicts = [permutation_equivalent(x, y) for x, y in pairs]
    assert verdicts == [naive_permutation_equivalent(x, y) for x, y in pairs]
    assert verdicts[-6:] == [True, True, False, True, True, False]
    assert 0 < verdicts.count(False) < len(pairs) - 150


def test_permutation_equivalent_rejects_a_column_profile_met_last():
    rng = random.Random(73)
    pairs = [_profile_split_pair(rng, rng.randint(13, 16), rng.randint(4, 8)) for _ in range(60)]
    # [16, 3] codes with 8 or 9 zero columns: a search that met the odd
    # columns last would reach them once for each order of the zero columns
    pairs += [_profile_split_pair(rng, 16, 3) for _ in range(4)]
    for a, b in pairs:
        for x, y, expected in ((a, b, False), (_shuffled(a, rng), a, True)):
            t0 = time.perf_counter()
            assert permutation_equivalent(x, y) is expected
            assert time.perf_counter() - t0 < 0.1, (x.n, x.k)
            assert naive_permutation_equivalent(x, y) is expected


def test_permutation_equivalent_compares_duals_above_half_dimension():
    rng = random.Random(71)
    n = MAX_PERM_SEARCH_LEN
    for k in range(12, n + 1):
        c = _random_code_of_dim(rng, n, k)
        t0 = time.perf_counter()
        assert permutation_equivalent(c, _shuffled(c, rng))
        assert time.perf_counter() - t0 < 1.0, k
    pairs = []
    for _ in range(80):
        n = rng.randint(3, 12)
        c = _random_code_of_dim(rng, n, rng.randint(n // 2 + 1, n - 1))
        copied = _column_copied(c, *rng.sample(range(n), 2))
        if copied.k == c.k:
            pairs += [(copied, _shuffled(c, rng)), (copied, _shuffled(copied, rng))]
    assert len(pairs) >= 60
    verdicts = [permutation_equivalent(x, y) for x, y in pairs]
    assert verdicts == [naive_permutation_equivalent(x, y) for x, y in pairs]
    assert 0 < verdicts.count(False) < verdicts.count(True)


# ---------------------------------------------------------------- q-binomial


def test_gaussian_binomial_values():
    assert gaussian_binomial(8, 4) == 200787
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 0) == 1
    assert gaussian_binomial(3, 5) == 0
    for n in range(0, 10):
        for k in range(0, n + 1):
            assert gaussian_binomial(n, k) == qbinom_recursive(n, k)


# ---------------------------------------------------------------- no-extension


def test_verify_no_extension_m5():
    cert = verify_no_extension(5)
    assert len(cert.entries) == 240
    assert cert.witness_weights() == {7, 9}
    assert not cert.degenerate
    # recompute every witness from scratch on unpacked lists
    nbig = 16
    mat = [[(j >> i) & 1 for j in range(nbig)] for i in range(4)]
    for e in cert.entries:
        assert mat[e.row][e.deleted] != mat[e.row][e.duplicated]
        modified = [x for j, x in enumerate(mat[e.row]) if j != e.deleted]
        modified.append(mat[e.row][e.duplicated])
        assert sum(modified) == e.weight
        assert e.weight not in (0, 8, 16)


def test_verify_no_extension_m4():
    cert = verify_no_extension(4)
    assert len(cert.entries) == 56
    assert cert.witness_weights() == {3, 5}


def test_verify_no_extension_m2_degenerate():
    cert = verify_no_extension(2)
    assert cert.degenerate
    assert cert.witness_weights() <= {0, 2}


def test_extension_certificate_ok():
    for m in (3, 4, 5, 6):
        assert verify_no_extension(m).ok
    assert not verify_no_extension(2).ok  # degenerate
    cert = verify_no_extension(4)
    short = ExtensionCertificate(cert.m, cert.entries[:-1])
    assert not short.ok
    # N and the degeneracy come from m: a caller can no longer pass N = 2,
    # under which two witnesses made a complete table
    two = verify_no_extension(5).entries[:2]
    loose = ExtensionCertificate(5, two)
    assert (loose.block_length, loose.degenerate, loose.ok) == (16, False, False)
    assert ExtensionCertificate(cert.m, cert.entries) == cert
    for m in (-1, 0, 1):
        with pytest.raises(ValueError):
            ExtensionCertificate(m, ())


def test_extension_certificate_checks_every_witness():
    entries = list(verify_no_extension(4).entries)
    # 56 copies of one genuine witness: the right count, one pair
    assert not ExtensionCertificate(4, (entries[0],) * 56).ok
    # row 1 where columns k and l differ in rows 0 and 1, with the weight
    # row 1 gives: a differing row, but not the lowest
    i, e = next(
        (i, e) for i, e in enumerate(entries) if e.row == 0 and (e.duplicated ^ e.deleted) & 2
    )
    swapped = e._replace(row=1, weight=4 + ((e.duplicated >> 1) & 1) - ((e.deleted >> 1) & 1))
    assert not ExtensionCertificate(4, tuple(entries[:i] + [swapped] + entries[i + 1 :])).ok
    # the other off-spectrum weight, still N/2 +- 1
    flipped = e._replace(weight=8 - e.weight)
    assert not ExtensionCertificate(4, tuple(entries[:i] + [flipped] + entries[i + 1 :])).ok
    # a pair dropped, another duplicated to keep the count
    assert not ExtensionCertificate(4, tuple(entries[1:] + entries[-1:])).ok
    # pairs outside range(N) or with k == l
    far = ExtensionWitness(8, 0, 3, 5)
    assert not ExtensionCertificate(4, tuple(entries[:-1] + [far])).ok
    # a correctly weighted witness that duplicates or deletes column N = 4
    for forged in (ExtensionWitness(4, 2, 1, 1), ExtensionWitness(2, 4, 1, 3)):
        assert not ExtensionCertificate(3, verify_no_extension(3).entries[:-1] + (forged,)).ok


def test_extension_certificate_refuses_half_weight():
    cert = verify_no_extension(4)
    bad = ExtensionWitness(0, 1, 0, cert.block_length // 2)
    assert not ExtensionCertificate(cert.m, cert.entries[:-1] + (bad,)).ok


def _witness_table_oracle(m: int) -> list[tuple[int, int, int, int]]:
    """Every (k, l, row, weight) from the explicit (m-1) x 2^(m-1) matrix:
    the row is the first one in which columns k and l differ, and the
    weight is that row's weight once column l is deleted and column k is
    duplicated."""
    nbig = 1 << (m - 1)
    mat = [[(col >> i) & 1 for col in range(nbig)] for i in range(m - 1)]
    table = []
    for k in range(nbig):
        for l in range(nbig):
            if l != k:
                j = next(i for i in range(m - 1) if mat[i][k] != mat[i][l])
                modified = [x for col, x in enumerate(mat[j]) if col != l] + [mat[j][k]]
                table.append((k, l, j, sum(modified)))
    return table


def test_verify_no_extension_matches_row_scan_oracle():
    for m in range(2, 9):
        cert = verify_no_extension(m)
        table = _witness_table_oracle(m)
        assert [tuple(e) for e in cert.entries] == table
        assert all(type(e) is ExtensionWitness for e in cert.entries)
        assert cert.ok == (m >= 3)
        expected = {
            "m": m,
            "N": 1 << (m - 1),
            "degenerate": m == 2,
            "pairs": [{"k": k, "l": l, "row": j, "weight": w} for k, l, j, w in table],
        }
        assert json.dumps(cert.to_json_dict()) == json.dumps(expected)


def test_extension_witness_record():
    e = ExtensionWitness(3, 1, 2, 7)
    assert (e.duplicated, e.deleted, e.row, e.weight) == (3, 1, 2, 7)
    assert e == ExtensionWitness(duplicated=3, deleted=1, row=2, weight=7)
    assert e != ExtensionWitness(3, 1, 2, 9)
    assert hash(e) == hash(ExtensionWitness(3, 1, 2, 7))
    assert len({e, ExtensionWitness(3, 1, 2, 7), ExtensionWitness(1, 3, 0, 7)}) == 2
    with pytest.raises(AttributeError):
        e.weight = 8


def test_verify_no_extension_range():
    with pytest.raises(ValueError):
        verify_no_extension(1)
    with pytest.raises(ValueError):
        verify_no_extension(9)


def test_verify_no_extension_deterministic():
    a = json.dumps(verify_no_extension(5).to_json_dict(), sort_keys=True)
    b = json.dumps(verify_no_extension(5).to_json_dict(), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------- beauville


def test_verify_beauville_m2():
    rep = verify_beauville(2, 4)
    assert rep.ok
    assert (rep.mode, rep.extremal_n) == ("exhaustive", 2)
    assert [(s.n, s.examined) for s in rep.per_n] == [(2, 1), (3, 7), (4, 35)]
    assert rep.extremal_count == 1


def test_verify_beauville_m3():
    rep = verify_beauville(3, 6)
    assert rep.ok
    assert (rep.mode, rep.extremal_n) == ("exhaustive", 4)
    assert [(s.n, s.examined) for s in rep.per_n] == [(3, 1), (4, 15), (5, 155), (6, 1395)]
    assert all(s.examined == s.expected for s in rep.per_n)
    assert rep.extremal_count == 1
    # below the extremal length nothing qualifies
    assert [s.qualifying for s in rep.per_n if s.n < 4] == [0]


def test_verify_beauville_counts_match_recursive_qbinomial():
    rep = verify_beauville(3, 6)
    for s in rep.per_n:
        assert s.examined == qbinom_recursive(s.n, 3)


def test_verify_beauville_refutes_a_wrong_qbinomial_count(monkeypatch, capsys):
    # the scan counts its subspaces against the q-binomial prediction; one
    # predicted subspace too many at n = 6 is a counterexample
    real = codes.gaussian_binomial
    monkeypatch.setattr(codes, "gaussian_binomial", lambda n, k: real(n, k) + (n == 6))
    rep = verify_beauville(3, 6)
    assert "n=6: enumerated 1395 subspaces, q-binomial predicts 1396" in rep.counterexamples
    assert not rep.ok
    capsys.readouterr()
    assert run(["verify", "beauville", "--m", "3", "--nmax", "6"]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "REFUTED"


def test_half_weight_scan_matches_gray_order_oracle():
    # the pruned scan against one visit per reduced basis in Gray order;
    # (3, 8) reaches past the extremal length, where 2445 bases at n = 8
    # qualify and a scan that checks only sums of two rows keeps more
    for m, n_max in ((2, 4), (3, 6), (3, 8), (4, 8)):
        rep = verify_beauville(m, n_max)
        for s in rep.per_n:
            visited, qualifying = gray_half_weight_scan(s.n, m)
            assert (s.examined, s.qualifying) == (visited, len(qualifying)), (m, s.n)
            bases = []
            assert codes._half_weight_bases(s.n, m, bases.append) == (visited, len(qualifying))
            assert {tuple(rows) for rows in bases} == qualifying
            for rows in bases:
                weights = gray_weight_distribution(rows, s.n)
                assert sum(weights.values()) == 1 << m
                assert all(2 * w >= s.n for w in weights if w), (m, s.n, rows)


def test_half_weight_skip_changes_no_visit():
    # every length up to the budget edge, (4, 4) and (4, 5) among them,
    # where no pivot set is searched: same counts, same bases, same order
    for m, n_max in ((2, 11), (3, 9), (4, 8)):
        for n in range(m, n_max + 1):
            expected, bases = [], []
            counts = unpruned_half_weight_bases(n, m, lambda rows: expected.append(list(rows)))
            assert codes._half_weight_bases(n, m, lambda rows: bases.append(list(rows))) == counts
            assert bases == expected, (m, n)


def test_verify_beauville_sampled():
    rep = verify_beauville(5, 16, seed=3)
    assert (rep.mode, rep.extremal_n) == ("sampled", 16)
    assert rep.ok
    assert rep.extremal_count >= 1  # the injected D_5 itself
    assert [s.examined for s in rep.per_n] == [codes.SAMPLES_PER_LENGTH] * 12
    again = verify_beauville(5, 16, seed=3)
    assert rep.to_json_dict() == again.to_json_dict()


def test_verify_beauville_sampled_beyond_permutation_budget():
    # at m = 6 the extremal length 32 exceeds the permutation-search budget;
    # the injected D_6 must still be recognised by its generator columns
    rep = verify_beauville(6, 32, seed=5)
    assert rep.ok
    assert rep.extremal_count >= 1
    assert (rep.mode, rep.extremal_n) == ("sampled", 32)


def test_verify_beauville_reports_an_extremal_code_that_is_not_d(monkeypatch):
    monkeypatch.setattr(codes, "_is_d_code", lambda rows, n: False)
    rep = verify_beauville(6, 32, seed=5)
    assert not rep.ok and rep.extremal_count >= 1
    assert len(rep.counterexamples) == rep.extremal_count
    for line in rep.counterexamples:
        assert re.fullmatch(r"n=32: extremal code \[[01,]+\] is not equivalent to D_6", line)


def test_extremal_bases_are_tested_without_building_a_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LinearCode was built")

    monkeypatch.setattr(codes, "LinearCode", refuse)
    rep = verify_beauville(4, 8)
    assert rep.ok and rep.extremal_count == 30


def test_verify_beauville_sampled_digests():
    # pins the order in which the sampled scan draws from its generator and
    # the reduced bases it keeps, at SAMPLES_PER_LENGTH draws per length
    expected = {
        (5, 16, 0): "751aa0095e58f5debed0f400bcb7b850c7cb65d44ce2d182bfc89224c6e28e71",
        (6, 32, 5): "50c8f4d2cf0e5ad1160801d90907eedafd9cc7dcf26354fb1d5a46af12705d74",
    }
    for (m, n_max, seed), digest in expected.items():
        report = verify_beauville(m, n_max, seed=seed)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_independence_test_matches_rref_rank():
    rng = random.Random(71)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 12)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 7))]
        cases.append((rows, n))
    for _ in range(60):
        n = rng.randint(2, 12)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(2, 5))]
        i, j = rng.sample(range(len(rows)), 2)
        cases.append((rows + [rows[i]], n))  # a duplicated row
        cases.append((rows + [0], n))  # a zero row
        cases.append((rows + [rows[i] ^ rows[j]], n))  # a dependent triple
        cases.append((rows + [rng.getrandbits(n) for _ in range(n + 1 - len(rows))], n))  # m > n
    # the sampled scan reads the test through codes, the Smith certificate
    # of a code lattice through gf2
    for independent_test in (codes._independent, gf2._independent):
        independent = 0
        for rows, n in cases:
            fast = independent_test(rows)
            assert fast == (len(_rref_ints(rows, n)[1]) == len(rows)), (rows, n)
            independent += fast
        assert 50 < independent < len(cases) - 200


def test_sampled_scan_hands_on_reduced_bases(monkeypatch):
    # every draw made to qualify: below the extremal length each one is a
    # counterexample that prints the basis handed on, which is reduced
    monkeypatch.setattr(codes, "_weights_reach_half", lambda rows, n, flips: True)
    rep = verify_beauville(5, 15, seed=1)
    assert len(rep.counterexamples) == codes.SAMPLES_PER_LENGTH * 11
    for line in rep.counterexamples:
        rows = [int(r, 2) for r in re.search(r"\[([01,]+)\]", line).group(1).split(",")]
        assert naive_is_rref(rows), line


def test_sampled_scan_pins_the_kept_bases(monkeypatch):
    # every kept basis made to qualify prints as a counterexample below the
    # extremal length, and at it unless it spans D_m, so the digest of the
    # lines pins which draws of the seeded generator are kept, and in what
    # order; the report's digest holds only counts
    monkeypatch.setattr(codes, "_weights_reach_half", lambda rows, n, flips: True)
    expected = {
        (5, 16, 0): (5999, "82ae8bad72290f8310f3746a098a68d1bd41093d681e9bfb268ac4ff35b2ea8d"),
        (6, 10, 5): (2500, "65df344a6a72cfd08fe98aae43b0276b0532ec83df9d8a2e9551de11ab51bf2e"),
    }
    for (m, n_max, seed), (lines, digest) in expected.items():
        rep = verify_beauville(m, n_max, seed=seed)
        assert len(rep.counterexamples) == lines
        assert hashlib.sha256("\n".join(rep.counterexamples).encode()).hexdigest() == digest


def test_verify_beauville_default_length_and_dimension_bound():
    # n_max defaults to the extremal length 2^(m-1)
    assert verify_beauville(3).to_json_dict() == verify_beauville(3, 4).to_json_dict()
    # the mode and the extremal length are read from m, whatever was scanned
    for m in range(2, 7):
        rep = verify_beauville(m, m)
        assert rep.mode == ("exhaustive" if m <= codes.MAX_EXHAUSTIVE_DIM else "sampled")
        assert rep.extremal_n == 1 << (m - 1)
        assert dataclasses.replace(rep, m=m + 1).extremal_n == 1 << m
        with pytest.raises(TypeError):
            codes.BeauvilleReport(m, m, rep.per_n, (), mode=rep.mode)
        with pytest.raises(TypeError):
            codes.BeauvilleReport(m, m, rep.per_n, (), extremal_n=rep.extremal_n)
        with pytest.raises(TypeError):
            codes.BeauvilleReport(m, m, rep.per_n, (), extremal_count=rep.extremal_count)
        with pytest.raises(TypeError):
            codes.BeauvilleReport(m, m, rep.per_n, rep.extremal_count, ())
    # one draw's rank test, m(m-1)/2 row sums, is checked on m alone,
    # before the 2^(m-1)-sized default or any count of that size is built
    for m in (1415, 20000, 10**9, 10**100):
        with pytest.raises(ResourceLimitError, match="testing the rank of one draw") as info:
            verify_beauville(m)
        assert info.value.partial is None
    with pytest.raises(ResourceLimitError, match="lengths exceeds the budget"):
        verify_beauville(1414)


def test_verify_beauville_sampled_budget():
    # the default length bound for m = 40 is 2^39; refused before D_40 is built
    with pytest.raises(ResourceLimitError) as info:
        verify_beauville(40, 1 << 39)
    assert info.value.partial is None
    # 500 samples at each of 2001 lengths exceed the budget; at 2000
    # lengths the samples fit it exactly, but their row sums do not
    with pytest.raises(ResourceLimitError, match="at each of 2001 lengths exceeds"):
        verify_beauville(5, 2005)
    with pytest.raises(ResourceLimitError, match="at each of 2000 lengths, up to 31 words"):
        verify_beauville(5, 2004)
    # within the sample budget, but up to 31 row sums per sample exceed it
    with pytest.raises(ResourceLimitError, match="up to 31 words"):
        verify_beauville(5, 69)
    verify_beauville(5, 68)  # 500 * 64 * 31 = 992,000 row sums fit


def test_verify_beauville_budget():
    with pytest.raises(ResourceLimitError) as info:
        verify_beauville(4, 9)
    partial = info.value.partial
    assert partial is not None
    assert [s.n for s in partial.per_n] == [4, 5, 6, 7, 8]
    assert (partial.mode, partial.extremal_n, partial.n_max) == ("exhaustive", 8, 9)


def test_extremal_count_is_the_qualifying_count_at_the_extremal_length(monkeypatch):
    # the scan tests each extremal basis once; the report counts them from per_n
    tested = []
    is_d = codes._is_d_code
    monkeypatch.setattr(codes, "_is_d_code", lambda rows, n: tested.append(n) or is_d(rows, n))

    def at_extremal(rep):
        return [s.qualifying for s in rep.per_n if s.n == rep.extremal_n]

    # the three exhaustive scans of verify_all and one sampled scan
    for (m, n_max), count in (((2, 4), 1), ((3, 6), 1), ((4, 8), 30), ((5, 16), 1)):
        tested.clear()
        rep = verify_beauville(m, n_max)
        assert rep.extremal_count == count == len(tested)
        assert at_extremal(rep) == [count]
    # a partial report holds the lengths it finished, the extremal one among them
    tested.clear()
    with pytest.raises(ResourceLimitError) as info:
        verify_beauville(4, 9)
    partial = info.value.partial
    assert partial.extremal_count == 30 == len(tested)
    assert at_extremal(partial) == [30]
    # codes qualify beyond the extremal length too, but only it is counted
    tested.clear()
    rep = verify_beauville(3, 8)
    assert [s.qualifying for s in rep.per_n] == [0, 1, 0, 30, 30, 2445]
    assert rep.extremal_count == 1 == len(tested)
    # below the extremal length no code is counted
    assert verify_beauville(4, 7).extremal_count == 0
    rep = verify_beauville(3, 4)
    assert BeauvilleReport(3, 4, rep.per_n, ()).extremal_count == 1
    assert dataclasses.replace(rep, per_n=rep.per_n[:-1]).extremal_count == 0


def test_verify_beauville_validation():
    with pytest.raises(ValueError):
        verify_beauville(1, 4)
    with pytest.raises(ValueError):
        verify_beauville(3, 2)
    # the sample count is the constant SAMPLES_PER_LENGTH, not an argument
    for samples in (0, 1, 500):
        with pytest.raises(TypeError):
            verify_beauville(5, samples=samples)


def test_block_characters_match_the_per_pattern_loop():
    # a reference build: one doubling per coordinate pattern, into below
    # or above by its index
    for low in range(codes._BLOCK_BITS + 1):
        below, above = [0], [0]
        for i in range(low):
            pattern = codes._coordinate_pattern(low, i)
            table = above if i >= low // 2 else below
            table += [x ^ pattern for x in table]
        expected = ((1 << (1 << low)) - 1, tuple(below), tuple(above))
        assert codes._block_characters(low) == expected, low


def test_repetition_budget():
    # the one generator row has n bits, at most MAX_GENERATOR_BITS
    rep = LinearCode.repetition(MAX_GENERATOR_BITS)
    assert (rep.n, rep.k, rep.gen.rows) == (MAX_GENERATOR_BITS, 1, ((1 << MAX_GENERATOR_BITS) - 1,))
    for n in (MAX_GENERATOR_BITS + 1, 10**9, 1 << 80):
        with pytest.raises(ResourceLimitError, match="generator bits exceed the budget"):
            LinearCode.repetition(n)


def test_zero_code_budget():
    # the zero code has no generator bits, but its length is bounded as
    # the repetition code's is
    zero = LinearCode.zero(MAX_GENERATOR_BITS)
    assert (zero.n, zero.k, zero.gen.rows) == (MAX_GENERATOR_BITS, 0, ())
    for n in (MAX_GENERATOR_BITS + 1, 10**9, 1 << 80):
        with pytest.raises(ResourceLimitError, match=f"length {n} exceeds the budget"):
            LinearCode.zero(n)
    assert LinearCode.zero(Index(3)) == LinearCode.zero(3)
    for n in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            LinearCode.zero(n)
