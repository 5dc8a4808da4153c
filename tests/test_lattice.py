import random
from fractions import Fraction

import pytest

from k3nodal.codes import LinearCode, code_d, from_generators, is_isotropic
from k3nodal.gf2 import Gf2Matrix, parse_matrix_text
from k3nodal.lattice import (
    CodeLattice,
    basis_determinant,
    code_from_overlattice,
    determinant,
    discriminant_group,
    even_eight_lattice,
    format_gram,
    gamma_from_code,
    is_even,
    is_integral,
    is_negative_definite,
    kummer_lattice,
    leading_principal_minors,
    _smith_diagonal,
)
from oracles import naive_det, naive_leading_minors, naive_smith_diagonal


def _random_code(rng, n):
    rows = rng.randint(0, n)
    return from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(rows)], n))


def _random_isotropic_code(rng):
    # any subcode of an isotropic code is isotropic
    base = code_d(rng.choice([4, 5]))
    keep = [r for r in base.gen.rows if rng.random() < 0.6]
    return from_generators(Gf2Matrix.from_rows(tuple(keep), base.n))


def test_gamma_zero_code():
    lat = gamma_from_code(LinearCode.zero(3))
    assert lat.basis == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert [[lat.gram_entry(i, j) for j in range(3)] for i in range(3)] == [
        [2, 0, 0],
        [0, 2, 0],
        [0, 0, 2],
    ]
    assert is_integral(lat) and is_even(lat)
    assert determinant(lat) == 8


def test_gamma_kummer():
    lat = kummer_lattice()
    assert lat.n == 16 and lat.sign == -1
    assert basis_determinant(lat) == 2 ** (16 - 5)
    assert is_integral(lat)
    assert is_even(lat)
    assert is_negative_definite(lat)
    assert determinant(lat) == 64
    assert discriminant_group(lat).elementary_divisors == (2,) * 6


def test_gamma_even_eight():
    lat = even_eight_lattice()
    assert lat.n == 8 and lat.sign == -1
    assert is_integral(lat) and is_even(lat) and is_negative_definite(lat)
    assert determinant(lat) == 2 ** (8 - 2)
    assert discriminant_group(lat).elementary_divisors == (2,) * 6


def test_kummer_contains_doubled_units_of_norm_minus_two():
    lat = kummer_lattice()
    for i in range(16):
        v = tuple(2 if t == i else 0 for t in range(16))
        assert lat.contains(v)
        assert lat.norm_of(v) == -2
    # a single unit vector is not in the lattice (its class is not a codeword)
    assert not lat.contains(tuple(1 if t == 0 else 0 for t in range(16)))


def test_is_integral_examples():
    assert is_integral(gamma_from_code(LinearCode.zero(2)))
    assert not is_integral(gamma_from_code(from_generators(parse_matrix_text("100"))))
    assert is_integral(gamma_from_code(code_d(5)))


def test_integral_iff_isotropic():
    rng = random.Random(61)
    agree = 0
    for _ in range(120):
        c = _random_code(rng, rng.randint(1, 12))
        assert is_integral(gamma_from_code(c)) == is_isotropic(c)
        agree += 1
    assert agree == 120


def test_is_even_examples():
    assert is_even(gamma_from_code(LinearCode.zero(3)))
    assert is_even(kummer_lattice())
    pair = gamma_from_code(from_generators(parse_matrix_text("11")))
    assert [pair.gram_entry(i, i) for i in range(2)] == [1, 2]
    assert not is_even(pair)
    with pytest.raises(ValueError):
        is_even(gamma_from_code(from_generators(parse_matrix_text("100"))))


def test_determinant_examples():
    assert determinant(gamma_from_code(LinearCode.zero(2))) == 4
    assert determinant(kummer_lattice()) == 64
    for n in (1, 2, 3):
        assert determinant(gamma_from_code(LinearCode.full(n))) == Fraction(1, 2**n)


def test_determinant_formula_random():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 12)
        c = _random_code(rng, n)
        assert determinant(gamma_from_code(c, 1)) == Fraction(2 ** (n - 2 * c.k))
        assert determinant(gamma_from_code(c, -1)) == (-1) ** n * Fraction(2 ** (n - 2 * c.k))
        lat = gamma_from_code(c, 1)
        assert basis_determinant(lat) == naive_det(lat.basis) == 2 ** (n - c.k)


def test_gram_negation():
    rng = random.Random(71)
    for _ in range(20):
        c = _random_code(rng, rng.randint(1, 8))
        plus = gamma_from_code(c, 1)
        minus = gamma_from_code(c, -1)
        assert all(
            minus.gram2[i][j] == -plus.gram2[i][j] for i in range(c.n) for j in range(c.n)
        )


def test_discriminant_group_examples():
    assert discriminant_group(gamma_from_code(LinearCode.zero(3))).elementary_divisors == (2, 2, 2)
    assert str(discriminant_group(kummer_lattice())) == "Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2"
    with pytest.raises(ValueError):
        discriminant_group(gamma_from_code(LinearCode.full(2)))


def test_discriminant_order_equals_determinant():
    rng = random.Random(73)
    checked = 0
    for _ in range(60):
        c = _random_isotropic_code(rng)
        lat = gamma_from_code(c, rng.choice([1, -1]))
        det = determinant(lat)
        assert det.denominator == 1
        assert discriminant_group(lat).order == abs(det.numerator)
        checked += 1
    assert checked == 60


def test_negative_definite():
    assert is_negative_definite(kummer_lattice())
    assert not is_negative_definite(gamma_from_code(code_d(5), 1))
    degenerate = CodeLattice(1, 1, ((0,),), ((0,),))
    assert not is_negative_definite(degenerate)


def test_leading_minors_alternate():
    minors = leading_principal_minors(kummer_lattice())
    assert len(minors) == 16
    for t, value in enumerate(minors, start=1):
        assert value != 0
        assert (value > 0) == (t % 2 == 0)
    assert minors[-1] == 64


def _true_gram(lat):
    return [[Fraction(e, 2) for e in row] for row in lat.gram2]


def _alternates_from_negative(minors):
    return all(m != 0 and (m > 0) == (t % 2 == 0) for t, m in enumerate(minors, start=1))


def _check_against_oracle(lat):
    minors = leading_principal_minors(lat)
    expected = tuple(naive_leading_minors(_true_gram(lat)))
    assert minors == expected
    assert minors[-1] == determinant(lat)
    assert is_negative_definite(lat) == _alternates_from_negative(expected)
    return minors


def test_leading_minors_match_oracle_random():
    rng = random.Random(97)
    for _ in range(24):
        n = rng.randint(1, 24)
        c = _random_code(rng, n)
        for sign in (1, -1):
            minors = _check_against_oracle(gamma_from_code(c, sign))
            assert all(minors)
            assert _alternates_from_negative(minors) == (sign == -1)


def test_leading_minors_match_oracle_rank_64():
    # re-eliminating all 64 blocks in Fractions takes seconds; check a spread
    rng = random.Random(101)
    c = from_generators(Gf2Matrix.from_ints([rng.getrandbits(64) for _ in range(12)], 64))
    for sign in (1, -1):
        lat = gamma_from_code(c, sign)
        minors = leading_principal_minors(lat)
        gram = _true_gram(lat)
        for t in (1, 2, 3, 17, 33, 64):
            assert minors[t - 1] == naive_det([row[:t] for row in gram[:t]])
        assert minors[-1] == determinant(lat) == 2 ** (64 - 2 * c.k)
        assert is_negative_definite(lat) == _alternates_from_negative(minors) == (sign == -1)


def test_leading_minors_of_singular_lattices():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(1, 10)
        basis = []
        for i in range(n):
            row = [0] * i + [rng.randint(-2, 2) for _ in range(n - i)]
            if rng.random() < 0.3:
                row = [0] * n
            basis.append(tuple(row))
        if all(any(row) for row in basis):
            basis[rng.randrange(n)] = (0,) * n
        sign = rng.choice([1, -1])
        gram2 = tuple(
            tuple(sign * sum(x * y for x, y in zip(bi, bj)) for bj in basis) for bi in basis
        )
        lat = CodeLattice(n, sign, tuple(basis), gram2)
        assert basis_determinant(lat) == naive_det(lat.basis)
        minors = _check_against_oracle(lat)
        assert not any(minors[minors.index(0) :])
        assert not is_negative_definite(lat)


def _small_isotropic_code(rng, n):
    # random even-weight words orthogonal to every word already taken
    rows = []
    for _ in range(rng.randint(0, n)):
        w = rng.getrandbits(n)
        if w.bit_count() % 2 == 0 and all((w & r).bit_count() % 2 == 0 for r in rows):
            rows.append(w)
    return from_generators(Gf2Matrix.from_ints(rows, n))


def test_smith_diagonal_matches_determinantal_divisors():
    rng = random.Random(107)
    assert _smith_diagonal([]) == naive_smith_diagonal([]) == []
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([1, 2, 6, 40])
        density = rng.random()
        mat = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        if rng.random() < 0.3:
            mat[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            j = rng.randrange(nc)
            for row in mat:
                row[j] = 0
        assert _smith_diagonal(mat) == naive_smith_diagonal(mat)


def test_smith_diagonal_of_isotropic_code_grams():
    rng = random.Random(109)
    for _ in range(40):
        c = _small_isotropic_code(rng, rng.randint(1, 6))
        lat = gamma_from_code(c, rng.choice([1, -1]))
        gram = [[e // 2 for e in row] for row in lat.gram2]
        diag = _smith_diagonal(gram)
        assert diag == naive_smith_diagonal(gram)
        assert tuple(d for d in diag if d > 1) == discriminant_group(lat).elementary_divisors


_INVARIANTS = {
    "determinant": determinant,
    "minors": leading_principal_minors,
    "negative_definite": is_negative_definite,
    "discriminant_group": discriminant_group,
    "json": CodeLattice.to_json_dict,
}


def _invariants_in_order(lat, order):
    out = {}
    for name in order:
        try:
            out[name] = _INVARIANTS[name](lat)
        except ValueError as exc:
            out[name] = ("ValueError", str(exc))
    return out


def test_invariants_do_not_depend_on_call_order():
    rng = random.Random(113)
    degenerate = (CodeLattice, (2, 1, ((1, 1), (0, 0)), ((2, 0), (0, 0))))
    lattices = [degenerate]
    for _ in range(40):
        n = rng.randint(1, 16)
        c = _small_isotropic_code(rng, n) if rng.random() < 0.5 else _random_code(rng, n)
        lattices.append((gamma_from_code, (c, rng.choice([1, -1]))))
    for build, args in lattices:
        first, second = build(*args), build(*args)
        order = list(_INVARIANTS)  # the determinant first, the JSON document last
        a = _invariants_in_order(first, order)
        b = _invariants_in_order(second, order[::-1])
        assert a == b
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) == repr(build(*args))
        if (build, args) == degenerate:
            error = ("ValueError", "degenerate Gram matrix has no finite discriminant group")
            assert a["discriminant_group"] == error


def test_positive_lattice_fails_definiteness_without_elimination():
    rng = random.Random(127)
    for _ in range(20):
        lat = gamma_from_code(_random_code(rng, rng.randint(1, 12)), 1)
        assert not is_negative_definite(lat)
        assert "_minors2" not in vars(lat)
    kummer = kummer_lattice()
    assert is_negative_definite(kummer)
    assert "_minors2" in vars(kummer)


def test_code_from_overlattice_examples():
    d5 = code_d(5)
    lat = gamma_from_code(d5, 1)
    halves = [[Fraction(x, 2) for x in v] for v in lat.basis]
    assert code_from_overlattice(16, halves) == d5
    units = [[1 if t == i else 0 for t in range(4)] for i in range(4)]
    assert code_from_overlattice(4, units) == LinearCode.zero(4)
    assert code_from_overlattice(8, [[Fraction(1, 2)] * 8]) == LinearCode.repetition(8)
    with pytest.raises(ValueError):
        code_from_overlattice(2, [[Fraction(1, 3), 0]])
    with pytest.raises(ValueError):
        code_from_overlattice(3, [[Fraction(1, 2), 0]])


def test_overlattice_roundtrip_random():
    rng = random.Random(79)
    for _ in range(60):
        n = rng.randint(1, 12)
        c = _random_code(rng, n)
        lat = gamma_from_code(c, 1)
        halves = [[Fraction(x, 2) for x in v] for v in lat.basis]
        assert code_from_overlattice(n, halves) == c


def test_coordinates_of_solves_triangular_system():
    lat = kummer_lattice()
    rng = random.Random(83)
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(16)]
        vec = [sum(c * lat.basis[i][t] for i, c in enumerate(coeffs)) for t in range(16)]
        assert lat.coordinates_of(vec) == tuple(coeffs)


def test_format_gram():
    text = format_gram(gamma_from_code(LinearCode.zero(2)))
    assert text.splitlines() == ["2 0", "0 2"]
    half = format_gram(gamma_from_code(from_generators(parse_matrix_text("100"))))
    assert "1/2" in half


def test_json_dict():
    payload = kummer_lattice().to_json_dict()
    assert payload["n"] == 16
    assert payload["sign"] == -1
    assert payload["det"] == {"num": 64, "den": 1}
    assert payload["elementary_divisors"] == [2, 2, 2, 2, 2, 2]
    assert len(payload["gram2"]) == 16
    non_integral = gamma_from_code(LinearCode.full(2)).to_json_dict()
    assert non_integral["elementary_divisors"] is None
    assert non_integral["det"] == {"num": 1, "den": 4}
