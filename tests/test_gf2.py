import random
import re
import time
import tracemalloc

import pytest

from k3nodal.codes import from_generators, reed_muller_generators
from k3nodal.gf2 import (
    Gf2Matrix,
    _rref_ints,
    _transpose_ints,
    _xor_sums,
    is_rref,
    kernel,
    parse_matrix_text,
    rref,
)
from oracles import (
    column_kernel_ints,
    column_rref_ints,
    matrix_coords,
    naive_is_rref,
    naive_rank,
    naive_rref,
    naive_transpose,
    subset_xors,
)

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
    naive_mat, naive_r, naive_piv = naive_rref(matrix_coords(m))
    assert res.rank == naive_r
    assert list(res.pivots) == naive_piv
    assert matrix_coords(res.matrix) == naive_mat
    assert res.matrix.nrows == m.nrows
    assert is_rref(res.matrix)


def _identity(n):
    return Gf2Matrix.from_ints([1 << i for i in range(n)], n)


def test_rref_identity():
    eye = _identity(3)
    res = rref(eye)
    assert res.matrix == eye
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)


def test_rref_duplicate_rows():
    m = parse_matrix_text("110\n110")
    res = rref(m)
    assert res.rank == 1
    assert str(res.matrix).splitlines() == ["110", "000"]


def test_rref_coordinate_function_matrix():
    # the four coordinate-function rows on F_2^4 are independent: columns
    # 1, 2, 4, 8 form an identity block
    m = parse_matrix_text("\n".join(EQ2_ROWS))
    res = rref(m)
    assert res.rank == 4
    assert naive_rank(matrix_coords(m)) == 4


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
    assert ker.nrows == ncols - naive_rank(matrix_coords(m))
    assert is_rref(ker) and rref(ker).rank == ker.nrows
    for v in ker.row_bits():
        assert all((v & row).bit_count() % 2 == 0 for row in m.row_bits())


def test_kernel_examples():
    assert kernel(_identity(4)).nrows == 0
    k = kernel(parse_matrix_text("11"))
    assert str(k).splitlines() == ["11"]
    z = kernel(Gf2Matrix.from_ints([0, 0], 3))
    assert z.nrows == 3


def test_matrix_refuses_no_columns_and_rows_that_do_not_fit():
    for cols in (0, -1):
        with pytest.raises(ValueError, match="column count must be positive"):
            Gf2Matrix((), cols)
    for rows in ((-1,), (0b100,)):
        with pytest.raises(ValueError, match="rows must be ints"):
            Gf2Matrix(rows, 2)


def test_matrix_stores_any_iterable_of_rows_as_a_tuple():
    m = Gf2Matrix((1, 2), 3)
    for rows in ([1, 2], iter([1, 2]), (r for r in (1, 2))):
        got = Gf2Matrix(rows, 3)
        assert got == m and hash(got) == hash(m) and type(got.rows) is tuple
    assert from_generators(Gf2Matrix([1, 2], 3)) == from_generators(m)


def test_transpose():
    m = parse_matrix_text("110\n011")
    t = Gf2Matrix.from_ints(_transpose_ints(m.row_bits(), m.cols), m.nrows)
    assert t.nrows == 3 and t.cols == 2
    entries, transposed = matrix_coords(m), matrix_coords(t)
    for i in range(2):
        for j in range(3):
            assert entries[i][j] == transposed[j][i]


def test_transpose_matches_naive_oracle():
    rng = random.Random(11)
    shapes = [(1, 1), (1, 9), (9, 1), (64, 1000), (1000, 64)]
    shapes += [(rng.randint(1, 70), rng.randint(1, 70)) for _ in range(60)]
    for nrows, cols in shapes:
        rows = [rng.getrandbits(cols) for _ in range(nrows)]
        t = _transpose_ints(rows, cols)
        assert t == naive_transpose(rows, cols)
        assert _transpose_ints(t, nrows) == rows
    # no rows: every column is the empty, zero, int
    assert _transpose_ints([], 3) == naive_transpose([], 3) == [0, 0, 0]


def test_matrix_text_roundtrip():
    text = "0101\n\n1100\n"
    m = parse_matrix_text(text)
    assert m.nrows == 2 and m.cols == 4
    assert str(m) == "0101\n1100"
    assert parse_matrix_text(str(m)) == m


def test_bitvector_text_roundtrip():
    # a bit vector is an int row; its first character is coordinate 0, at every length
    rng = random.Random(11)
    for n in (1, 2, 7, 64, 65, 1000, 1 << 14):
        rows = [rng.getrandbits(n) for _ in range(3)] + [0, 1 << (n - 1)]
        m = Gf2Matrix.from_ints(rows, n)
        text = str(m)
        assert text.splitlines() == [
            "".join(str(c) for c in row) for row in matrix_coords(m)
        ]
        assert parse_matrix_text(text) == m
    assert str(Gf2Matrix.from_ints([0, 1 << 4], 5)) == "00000\n00001"
    assert parse_matrix_text("00001").rows == (1 << 4,)


_ROW_NOISE = ["2", "a", " ", "\t", "\r", "\x0b", "\u0661", "\u2028"]


def random_matrix_text(rng):
    """A small random text, about half of which parse as matrices: 0/1 rows
    of mostly one width, blank lines, the three universal newlines and an
    occasional character that is not 0 or 1."""
    width = rng.randrange(1, 9)
    lines = []
    for _ in range(rng.randrange(5)):
        row = "".join(rng.choice("01") for _ in range(width + (rng.random() < 0.1)))
        if rng.random() < 0.1:
            at = rng.randrange(len(row) + 1)
            row = row[:at] + rng.choice(_ROW_NOISE) + row[at:]
        lines.append(rng.choice(["", " ", "\t"]) + row + rng.choice(["", " "]))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "  "]))
    return "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"]) for line in lines)


def test_matrix_text_fuzzed_texts_return_or_raise_value_error():
    rng = random.Random(29)
    parsed = 0
    for _ in range(2000):
        text = random_matrix_text(rng)
        try:
            m = parse_matrix_text(text)
        except ValueError:
            continue
        parsed += 1
        # the text format drops blank lines and surrounding whitespace only,
        # and a line ends at a universal newline alone
        rows = [line.strip() for line in re.split(r"\r\n|\r|\n", text) if line.strip()]
        assert str(m) == "\n".join(rows), repr(text)
        assert parse_matrix_text(str(m)) == m
    assert 500 < parsed < 1500


# the breaks of str.splitlines that are not universal newlines
NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_matrix_text_refuses_a_row_that_holds_another_line_break(char):
    with pytest.raises(ValueError, match="not a 0/1 row"):
        parse_matrix_text(f"01{char}10")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_matrix_text_rows_end_at_universal_newlines(newline):
    assert parse_matrix_text(f"01{newline}10{newline}").rows == (0b10, 0b01)


def test_matrix_text_errors():
    with pytest.raises(ValueError, match="no matrix rows found"):
        parse_matrix_text("\n \n")
    with pytest.raises(ValueError, match="ragged rows"):
        parse_matrix_text("01\n011")
    # a non-0/1 row is refused before the lengths are compared, also when
    # ragged rows come before it
    for text in ("01\n0a1\n1", "01\n011\n0a1"):
        with pytest.raises(ValueError, match="not a 0/1 row: '0a1'"):
            parse_matrix_text(text)


def test_matrix_text_holds_each_row_once():
    # one-character lines are cached strings, so the peak counts the lists
    # of rows held at once, 8 bytes a row each: the split lines and the ints
    rows = 2**16
    text = "0\n1\n" * (rows // 2)
    tracemalloc.start()
    try:
        m = parse_matrix_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nrows == rows and m.rows[:2] == (0, 1)
    assert peak <= 20 * rows, peak / rows


def test_from_generators_holds_only_the_basis_of_a_tall_matrix():
    # row reduction keeps the pivot rows and the rows still without one,
    # never a copy of the input: 2^16 one-bit rows reduce to one row
    rows = 2**16
    m = Gf2Matrix((0, 1) * (rows // 2), 1)
    tracemalloc.start()
    try:
        code = from_generators(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.gen.rows == (1,)
    assert peak < rows, peak / rows


def test_ragged_matrix_rejected():
    # an int row fits the column count when it lies in [0, 2^cols)
    for row in (-1, 0b100, 0b111):
        with pytest.raises(ValueError):
            Gf2Matrix((0b01, row), 2)
    assert Gf2Matrix((0b11, 0), 2).rows == (3, 0)
    with pytest.raises(ValueError):
        parse_matrix_text("01\n011")


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
    # 32 to 48 rows take the strip path, which returns no zero row: ``rref``
    # pads them back to the row count
    for nrows in range(32, 49):
        ncols = rng.randint(1, 40)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(1, 10))]
        rows += [rng.choice(rows) for _ in range(nrows - len(rows) - 3)] + [0] * 3
        rng.shuffle(rows)
        _assert_rref_matches_naive(Gf2Matrix.from_ints(rows, ncols))


@pytest.mark.parametrize("nrows", [5, 31, 32, 300])
def test_rref_ints_leaves_its_input_unchanged(nrows):
    rng = random.Random(nrows)
    # duplicate and zero rows, so some source rows reduce to zero
    rows = [rng.getrandbits(40) for _ in range(nrows // 2)] + [0]
    rows += rows[: nrows - len(rows)]
    rng.shuffle(rows)
    before = rows[:]
    reduced, pivots = _rref_ints(rows, 40)
    assert rows == before
    assert len(reduced) == len(pivots) and all(reduced)


def test_rref_of_a_few_long_rows_costs_its_rank_not_its_length():
    # under 32 rows each row jumps to its lowest set bit: two rows of
    # length 2^20, with bits 0 and 2^19, reduce without a step per column
    cols = 1 << 20
    rows = [1, 1 << (cols // 2)]
    start = time.process_time()
    assert _rref_ints(rows, cols) == (rows, [0, cols // 2])
    assert time.process_time() - start < 0.5


def test_is_rref_matches_naive_on_bit_flips():
    rng = random.Random(29)
    reduced = [_identity(4), Gf2Matrix.from_ints([0b0110, 0], 4)]
    for nrows, ncols in ((3, 7), (5, 9), (6, 6), (4, 12)):
        reduced.append(rref(_random_matrix(rng, nrows, ncols)).matrix)
    for m in reduced:
        rows = list(m.row_bits())
        assert is_rref(m) and naive_is_rref(rows)
        for i in range(len(rows)):
            for j in range(m.cols):
                flipped = rows[:i] + [rows[i] ^ (1 << j)] + rows[i + 1 :]
                assert is_rref(Gf2Matrix.from_ints(flipped, m.cols)) == naive_is_rref(flipped)


# ------------------------------------------- strip elimination and kernel basis

# Row counts on both sides of the switch to strip elimination (32 rows) and
# of each strip width (s = log2 rows, up to 8); column counts that are not a
# multiple of the width.
_ROW_COUNTS = (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257)
_COL_COUNTS = (1, 5, 13, 37, 70)


def _low_rank(rng, nrows, cols, rank):
    """Rows of a random (nrows x rank) times (rank x cols) product."""
    basis = [rng.getrandbits(cols) for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = 0
        for b in basis:
            if rng.getrandbits(1):
                row ^= b
        rows.append(row)
    return rows


def _shaped_matrices(rng):
    """(rows, cols) over the row and column counts above, full rank and
    rank-deficient, plus tall, wide and Reed-Muller cases."""
    for nrows in _ROW_COUNTS:
        for cols in _COL_COUNTS:
            yield [rng.getrandbits(cols) for _ in range(nrows)], cols
            yield _low_rank(rng, nrows, cols, rng.randint(1, 6)), cols
            # duplicated and zero rows
            base = [rng.getrandbits(cols) for _ in range(nrows // 3 + 1)]
            rows = [rng.choice(base) for _ in range(nrows - nrows // 4)] + [0] * (nrows // 4)
            rng.shuffle(rows)
            yield rows, cols
            # a band of columns no row has: whole strips without a pivot
            band = ((1 << (cols // 2)) - 1) << (cols // 4)
            yield [rng.getrandbits(cols) & ~band for _ in range(nrows)], cols
            # the band only in the first rows: strip bits above the pivots
            yield [rng.getrandbits(cols) & (~band if i >= 3 else -1) for i in range(nrows)], cols
    yield [rng.getrandbits(1024) for _ in range(48)], 1024
    yield [rng.getrandbits(40) for _ in range(300)], 40
    yield _low_rank(rng, 300, 40, 12), 40
    for degree, m in ((1, 8), (2, 6), (3, 7), (4, 8)):
        gen = reed_muller_generators(degree, m)
        rows = list(gen.row_bits())
        # the generators, and their sums of pairs (rank-deficient, tall)
        yield rows, gen.cols
        yield rows + [rng.choice(rows) ^ rng.choice(rows) for _ in range(len(rows))], gen.cols


def test_strip_rref_matches_column_oracle():
    rng = random.Random(31)
    count = 0
    for rows, cols in _shaped_matrices(rng):
        # the basis rows only: ``rref`` pads the zero rows, which
        # test_rref_duplicate_and_zero_rows_match_naive checks on both paths
        reduced, pivots = column_rref_ints(rows, cols)
        assert _rref_ints(rows, cols) == (reduced[: len(pivots)], pivots)
        count += 1
    assert count == len(_ROW_COUNTS) * len(_COL_COUNTS) * 5 + 3 + 8


def test_strip_rref_matches_naive_up_to_40x40():
    rng = random.Random(37)
    for nrows in (1, 8, 31, 32, 33, 40):
        for cols in (1, 9, 17, 33, 40):
            _assert_rref_matches_naive(_random_matrix(rng, nrows, cols))
            rows = _low_rank(rng, nrows, cols, 4)
            _assert_rref_matches_naive(Gf2Matrix.from_ints(rows, cols))


def test_kernel_on_strip_shapes():
    rng = random.Random(41)
    for rows, cols in _shaped_matrices(rng):
        ker = list(kernel(Gf2Matrix.from_ints(rows, cols)).row_bits())
        # reduced echelon, orthogonal to every row, cols - rank rows: the
        # reduced basis of the null space, which is unique
        assert naive_is_rref(ker) and all(ker)
        assert all((v & row).bit_count() % 2 == 0 for v in ker for row in rows)
        assert len(ker) == cols - len(column_rref_ints(rows, cols)[1])


def _runs(*spans):
    """The pivot places of half-open spans [a, b), ascending."""
    return sorted(q for a, b in spans for q in range(a, b))


# (cols, pivot places) by the runs of consecutive places that ``kernel``
# deposits each with one shift, single places included.  The names measure
# run lengths against w = min(bit length of the free column count, 8): 5 at
# 40 columns with 16 to 31 free, 8 at 300 columns
_PIVOT_LAYOUTS = {
    "runs shorter than w": (40, _runs((0, 4), (6, 10), (12, 16), (20, 24))),
    "runs of exactly w": (40, _runs((2, 7), (10, 15), (30, 35))),
    "runs longer than w": (40, _runs((5, 11), (20, 29))),
    "isolated pivots": (40, _runs(*((q, q + 1) for q in range(1, 30, 2)))),
    "runs at both ends": (40, _runs((0, 6), (17, 18), (19, 20), (34, 40))),
    "mixed runs": (40, _runs((0, 1), (2, 8), (9, 10), (11, 15), (16, 21), (39, 40))),
    "w = 8, runs of 7, 8 and 9": (300, _runs((0, 7), (50, 51), (52, 53), (100, 108), (200, 201), (291, 300))),
    "one run": (40, _runs((10, 25))),
    "every column a pivot": (12, _runs((0, 12))),
    "rank 0": (40, []),
}


def _rows_with_pivot_places(rng, cols, places):
    """Rows whose row space has exactly the given pivot places (the highest
    bits of a basis with distinct highest bits): one row per place with
    random bits below it, each plus a row of a lower place, then sums of
    pairs and zero rows, shuffled."""
    rows = []
    for q in places:
        row = (1 << q) | rng.getrandbits(q)
        rows.append(row ^ rng.choice(rows) if rows and rng.getrandbits(1) else row)
    rows += [rng.choice(rows) ^ rng.choice(rows) for _ in range(len(rows) // 3)]
    rows += [0] * rng.randint(0, 2)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("layout", [*_PIVOT_LAYOUTS, "RM(1..5, 8)"])
def test_kernel_pivot_runs_match_oracle(layout):
    if layout in _PIVOT_LAYOUTS:
        cols, places = _PIVOT_LAYOUTS[layout]
        rng = random.Random(47)
        matrices = []
        for _ in range(6):
            rows = _rows_with_pivot_places(rng, cols, places)
            flipped = [int(format(r, f"0{cols}b")[::-1], 2) for r in rows]
            # the pivot places are the pivots of the reversed columns, reversed
            assert sorted(cols - 1 - p for p in column_rref_ints(flipped, cols)[1]) == places
            matrices.append(Gf2Matrix.from_ints(rows, cols))
    else:
        # wide structured codes: 7 to 35 runs of pivot places each
        matrices = [reed_muller_generators(degree, 8) for degree in range(1, 6)]
    for m in matrices:
        assert list(kernel(m).rows) == column_kernel_ints(list(m.rows), m.cols), layout


def test_xor_sums_match_subset_oracle():
    rng = random.Random(43)
    for count in range(9):
        for _ in range(6):
            # zeros and repeated values among random ones of mixed widths
            pool = [0, rng.getrandbits(5), rng.getrandbits(70)]
            values = [rng.choice(pool + [rng.getrandbits(rng.randrange(1, 90))]) for _ in range(count)]
            assert _xor_sums(values) == subset_xors(values), values
    assert _xor_sums([]) == [0]
    assert _xor_sums([0, 0]) == [0, 0, 0, 0]
    assert _xor_sums([5, 5]) == [0, 5, 5, 0]
    assert _xor_sums([1, 0, 4]) == [0, 1, 0, 1, 4, 5, 4, 5]
