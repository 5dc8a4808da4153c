import random

import pytest

from k3nodal.gf2 import (
    BitVector,
    Gf2Matrix,
    dot,
    format_matrix_text,
    is_rref,
    kernel,
    parse_matrix_text,
    rref,
    transpose,
)
from oracles import naive_is_rref, naive_rank, naive_rref

EQ2_ROWS = [
    "0101010101010101",
    "0011001100110011",
    "0000111100001111",
    "0000000011111111",
]


def _random_matrix(rng, nrows, ncols):
    return Gf2Matrix.from_ints([rng.getrandbits(ncols) for _ in range(nrows)], ncols)


def _assert_rref_matches_naive(m):
    res = rref(m)
    naive_mat, naive_r, naive_piv = naive_rref([list(r.coords()) for r in m.rows])
    assert res.rank == naive_r
    assert list(res.pivots) == naive_piv
    assert [list(r.coords()) for r in res.matrix.rows] == naive_mat
    assert res.matrix.nrows == m.nrows
    assert is_rref(res.matrix)


def test_dot_examples():
    assert dot(BitVector.from_string("11"), BitVector.from_string("11")) == 0
    assert dot(BitVector.from_string("10"), BitVector.from_string("11")) == 1
    assert dot(BitVector.zero(4), BitVector.from_string("1011")) == 0


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot(BitVector.zero(3), BitVector.zero(4))


def test_dot_symmetric_and_bilinear():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 20)
        a = BitVector(n, rng.getrandbits(n))
        b = BitVector(n, rng.getrandbits(n))
        c = BitVector(n, rng.getrandbits(n))
        assert dot(a, b) == dot(b, a)
        assert dot(a ^ b, c) == (dot(a, c) + dot(b, c)) % 2


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(0, 0)
    with pytest.raises(ValueError):
        BitVector(3, 8)
    with pytest.raises(ValueError):
        BitVector.from_string("01x")
    v = BitVector.from_string("0110")
    assert v.weight == 2
    assert v.support() == (1, 2)
    assert v.coords() == (0, 1, 1, 0)
    assert [v[j] for j in range(4)] == [0, 1, 1, 0]
    assert str(v) == "0110"


def test_bitvector_text_roundtrip():
    rng = random.Random(11)
    for n in (1, 2, 7, 64, 65, 1000, 1 << 14):
        v = BitVector(n, rng.getrandbits(n))
        text = str(v)
        assert text == "".join(str(v[j]) for j in range(n))
        assert BitVector.from_string(text) == v
    assert str(BitVector(5, 0)) == "00000"
    assert BitVector.from_string("00001") == BitVector.unit(5, 4)


def test_rref_identity():
    eye = Gf2Matrix.identity(3)
    res = rref(eye)
    assert res.matrix == eye
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)


def test_rref_duplicate_rows():
    m = Gf2Matrix.from_rows([BitVector.from_string("110"), BitVector.from_string("110")])
    res = rref(m)
    assert res.rank == 1
    nonzero = [r for r in res.matrix.rows if r.bits]
    assert len(nonzero) == 1
    assert str(nonzero[0]) == "110"


def test_rref_coordinate_function_matrix():
    # the four coordinate-function rows on F_2^4 are independent: columns
    # 1, 2, 4, 8 form an identity block
    m = Gf2Matrix.from_rows([BitVector.from_string(s) for s in EQ2_ROWS])
    res = rref(m)
    assert res.rank == 4
    assert naive_rank([list(BitVector.from_string(s).coords()) for s in EQ2_ROWS]) == 4


def test_rref_idempotent_and_matches_naive():
    rng = random.Random(11)
    for _ in range(150):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 12)
        m = _random_matrix(rng, nrows, ncols)
        res = rref(m)
        again = rref(res.matrix)
        assert again.matrix == res.matrix
        _assert_rref_matches_naive(m)


def test_rank_nullity_random():
    rng = random.Random(13)
    for _ in range(60):
        nrows = rng.randint(1, 32)
        ncols = rng.randint(1, 32)
        m = _random_matrix(rng, nrows, ncols)
        res = rref(m)
        ker = kernel(m)
        assert res.rank + ker.nrows == ncols
        # every kernel row is orthogonal to every matrix row
        for v in ker.row_bits():
            for row in m.row_bits():
                assert (v & row).bit_count() % 2 == 0
        assert rref(ker).rank == ker.nrows
        assert is_rref(ker)


@pytest.mark.parametrize("nrows,ncols", [(64, 512), (3, 200), (100, 40), (40, 40)])
def test_kernel_reduced_basis_of_null_space(nrows, ncols):
    rng = random.Random(nrows * 1000 + ncols)
    m = _random_matrix(rng, nrows, ncols)
    ker = kernel(m)
    assert ker.nrows == ncols - naive_rank([list(r.coords()) for r in m.rows])
    assert is_rref(ker) and rref(ker).rank == ker.nrows
    for v in ker.row_bits():
        assert all((v & row).bit_count() % 2 == 0 for row in m.row_bits())


def test_kernel_examples():
    assert kernel(Gf2Matrix.identity(4)).nrows == 0
    k = kernel(Gf2Matrix.from_rows([BitVector.from_string("11")]))
    assert [str(r) for r in k.rows] == ["11"]
    z = kernel(Gf2Matrix.from_ints([0, 0], 3))
    assert z.nrows == 3


def test_transpose():
    m = parse_matrix_text("110\n011")
    t = transpose(m)
    assert t.nrows == 3 and t.cols == 2
    for i in range(2):
        for j in range(3):
            assert m.rows[i][j] == t.rows[j][i]


def test_matrix_text_roundtrip():
    text = "0101\n\n1100\n"
    m = parse_matrix_text(text)
    assert m.nrows == 2 and m.cols == 4
    assert format_matrix_text(m) == "0101\n1100"
    assert parse_matrix_text(format_matrix_text(m)) == m


def test_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("01\n011")
    with pytest.raises(ValueError):
        parse_matrix_text("0a1")


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        Gf2Matrix((BitVector.zero(2), BitVector.zero(3)), 2)


def test_is_rref_rejects_unreduced():
    assert not is_rref(parse_matrix_text("11\n01"))
    assert is_rref(parse_matrix_text("10\n01"))
    # zero row above a nonzero row
    assert not is_rref(Gf2Matrix.from_ints([0, 1], 2))


def test_rref_tall_matrices_match_naive():
    rng = random.Random(17)
    for _ in range(40):
        ncols = rng.randint(1, 10)
        _assert_rref_matches_naive(_random_matrix(rng, ncols + rng.randint(1, 12), ncols))


def test_rref_wide_matrices_match_naive():
    rng = random.Random(19)
    for _ in range(2):
        _assert_rref_matches_naive(_random_matrix(rng, 48, 1024))


def test_rref_duplicate_and_zero_rows_match_naive():
    rng = random.Random(23)
    for _ in range(60):
        ncols = rng.randint(1, 16)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(1, 6))]
        rows += [rng.choice(rows) for _ in range(rng.randint(1, 4))] + [0] * rng.randint(1, 3)
        rng.shuffle(rows)
        _assert_rref_matches_naive(Gf2Matrix.from_ints(rows, ncols))


def test_is_rref_matches_naive_on_bit_flips():
    rng = random.Random(29)
    reduced = [Gf2Matrix.identity(4), Gf2Matrix.from_ints([0b0110, 0], 4)]
    for nrows, ncols in ((3, 7), (5, 9), (6, 6), (4, 12)):
        reduced.append(rref(_random_matrix(rng, nrows, ncols)).matrix)
    for m in reduced:
        rows = list(m.row_bits())
        assert is_rref(m) and naive_is_rref(rows)
        for i in range(len(rows)):
            for j in range(m.cols):
                flipped = rows[:i] + [rows[i] ^ (1 << j)] + rows[i + 1 :]
                assert is_rref(Gf2Matrix.from_ints(flipped, m.cols)) == naive_is_rref(flipped)
