import random
from fractions import Fraction

import pytest

from k3nodal import lattice
from k3nodal.codes import LinearCode, code_d, from_generators, is_isotropic, reed_muller
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
from oracles import (
    elementwise_leading_minors,
    naive_det,
    naive_leading_minors,
    naive_smith_diagonal,
)


def _random_code(rng, n):
    rows = rng.randint(0, n)
    return from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(rows)], n))


def _random_isotropic_code(rng):
    # any subcode of an isotropic code is isotropic
    base = code_d(rng.choice([4, 5]))
    keep = [r for r in base.gen.rows if rng.random() < 0.6]
    return from_generators(Gf2Matrix.from_ints(keep, base.n))


def test_gamma_zero_code():
    lat = gamma_from_code(LinearCode.zero(3))
    assert lat.basis == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert _true_gram(lat) == [
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
    assert [_true_gram(pair)[i][i] for i in range(2)] == [1, 2]
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
    degenerate = CodeLattice(1, 1, ((0,),))
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
        lat = CodeLattice(n, sign, tuple(basis))
        assert lat.gram2 == gram2
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


def _scaled_triangular_basis(rng, n):
    # triangular rows with negative entries, some scaled by 2, 3 or 4, some zero
    basis = []
    for i in range(n):
        row = [0] * i + [rng.randint(-3, 3) for _ in range(n - i)]
        if rng.random() < 0.5:
            row = [rng.choice([2, 3, 4]) * x for x in row]
        if rng.random() < 0.15:
            row = [0] * n
        basis.append(tuple(row))
    return tuple(basis)


def test_content_scaled_invariants_match_oracles():
    rng = random.Random(131)
    integral = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        lat = CodeLattice(n, rng.choice([1, -1]), _scaled_triangular_basis(rng, n))
        gram = _true_gram(lat)
        assert leading_principal_minors(lat) == tuple(naive_leading_minors(gram))
        assert determinant(lat) == naive_det(gram)
        if is_integral(lat):
            integral += 1
            smith = naive_smith_diagonal([[e // 2 for e in row] for row in lat.gram2])
            if len(smith) == n:
                group = discriminant_group(lat).elementary_divisors
                assert group == tuple(d for d in smith if d > 1)
            else:
                with pytest.raises(ValueError):
                    discriminant_group(lat)
    assert integral >= 30


def _no_general_smith(mat):
    raise AssertionError("the general Smith elimination ran")


def test_code_lattices_take_the_smith_certificate(monkeypatch):
    monkeypatch.setattr(lattice, "_smith_diagonal", _no_general_smith)
    rng = random.Random(139)
    for _ in range(200):
        c = _small_isotropic_code(rng, rng.randint(1, 12))
        lat = gamma_from_code(c, rng.choice([1, -1]))
        assert discriminant_group(lat).elementary_divisors == (2,) * (c.n - 2 * c.k)
    assert discriminant_group(kummer_lattice()).elementary_divisors == (2,) * 6
    assert discriminant_group(even_eight_lattice()).elementary_divisors == (2,) * 6


def test_general_basis_falls_back_to_smith_elimination(monkeypatch):
    calls = []
    general = lattice._smith_diagonal

    def counted(mat):
        calls.append(mat)
        return general(mat)

    monkeypatch.setattr(lattice, "_smith_diagonal", counted)
    assert discriminant_group(CodeLattice(2, 1, ((2, 0), (0, 4)))).elementary_divisors == (2, 8)
    assert calls == [[[2, 0], [0, 8]]]
    with pytest.raises(ValueError, match="degenerate"):
        discriminant_group(CodeLattice(2, 1, ((1, 1), (0, 0))))
    assert len(calls) == 2


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
    degenerate = (CodeLattice, (2, 1, ((1, 1), (0, 0))))
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


def test_gamma_builds_its_gram_matrix_once(monkeypatch):
    calls = []
    gram2 = lattice._gram2

    def counted(basis, sign):
        calls.append(sign)
        return gram2(basis, sign)

    monkeypatch.setattr(lattice, "_gram2", counted)
    lat = gamma_from_code(code_d(5), -1)
    assert calls == [-1]
    assert lat == kummer_lattice() and is_negative_definite(lat)


def test_positive_lattice_fails_definiteness_without_elimination():
    rng = random.Random(127)
    for _ in range(20):
        lat = gamma_from_code(_random_code(rng, rng.randint(1, 12)), 1)
        assert not is_negative_definite(lat)
        assert "_minors2" not in vars(lat)
    kummer = kummer_lattice()
    assert is_negative_definite(kummer)
    assert "_minors2" in vars(kummer)


def test_determinant_and_json_run_no_elimination():
    rng = random.Random(151)
    for _ in range(20):
        n = rng.randint(1, 16)
        c = _small_isotropic_code(rng, n) if rng.random() < 0.5 else _random_code(rng, n)
        for sign in (1, -1):
            lat = gamma_from_code(c, sign)
            doc = lat.to_json_dict()
            assert "_minors2" not in vars(lat)
            assert Fraction(doc["det"]["num"], doc["det"]["den"]) == Fraction(sign**n * 2**n, 4**c.k)
            assert leading_principal_minors(lat)[-1] == determinant(lat)
    kummer = kummer_lattice()
    assert determinant(kummer) == 64 and discriminant_group(kummer).order == 64
    assert "_minors2" not in vars(kummer)


def _kernel_inputs(monkeypatch, lattices):
    """The matrices that ``CodeLattice._minors2`` hands to the Bareiss kernel."""
    seen = []
    kernel = lattice._leading_minors_int
    monkeypatch.setattr(lattice, "_leading_minors_int", lambda g: seen.append(g) or kernel(g))
    for lat in lattices:
        lat._minors2
    monkeypatch.undo()
    return seen


def _random_subcode(rng, code, k):
    gens = code.gen.rows
    while True:
        rows = []
        for _ in range(k):
            word = 0
            for g in gens:
                if rng.getrandbits(1):
                    word ^= g
            rows.append(word)
        sub = from_generators(Gf2Matrix.from_ints(rows, code.n))
        if sub.k == k:
            return sub


def _non_isotropic_code(rng, n, k):
    while True:
        c = from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(k)], n))
        if c.k == k and not is_isotropic(c):
            return c


def test_packed_minors_match_elementwise_on_workload_shapes(monkeypatch):
    rng = random.Random(157)
    rm15, rm25, rm26 = reed_muller(1, 5), reed_muller(2, 5), reed_muller(2, 6)
    lattices = [
        gamma_from_code(rm15, 1),
        gamma_from_code(rm15, -1),
        gamma_from_code(rm26, -1),
        gamma_from_code(code_d(7), 1),
    ]
    for sign in (1, -1):
        lattices += [
            gamma_from_code(_random_subcode(rng, rm25, 8), sign),
            gamma_from_code(_random_subcode(rng, rm26, 14), sign),
            gamma_from_code(_non_isotropic_code(rng, 32, 10), sign),
            gamma_from_code(_non_isotropic_code(rng, 64, 20), sign),
        ]
    for lat in lattices:
        assert lattice._leading_minors_int(lat.gram2) == elementwise_leading_minors(lat.gram2)
    for gram in _kernel_inputs(monkeypatch, lattices):
        assert lattice._leading_minors_int(gram) == elementwise_leading_minors(gram)


@pytest.mark.parametrize("r, m", [(3, 7), (1, 8)])
def test_packed_minors_match_elementwise_at_rank_128_and_256(monkeypatch, r, m):
    code = reed_muller(r, m)
    lat = gamma_from_code(code, 1)
    (gram,) = _kernel_inputs(monkeypatch, [lat])
    assert lattice._leading_minors_int(gram) == elementwise_leading_minors(gram)
    assert lat._minors2[-1] == determinant(lat) * 2**lat.n == 4 ** (lat.n - code.k)


def _triangular_gram(basis, sign):
    return [[sign * sum(x * y for x, y in zip(bi, bj)) for bj in basis] for bi in basis]


def test_packed_minors_widen_on_large_entries(monkeypatch):
    calls = []
    widen = lattice._widen
    monkeypatch.setattr(lattice, "_widen", lambda *a: calls.append(a) or widen(*a))
    # entries up to 10^6 make the t-th minor about 40 t bits long
    rng = random.Random(163)
    for n in (24, 30, 36):
        for sign in (1, -1):
            basis = [[0] * i + [rng.randint(-(10**6), 10**6) for _ in range(n - i)] for i in range(n)]
            gram = _triangular_gram(basis, sign)
            calls.clear()
            minors = lattice._leading_minors_int(gram)
            assert len(calls) >= 3
            assert minors == elementwise_leading_minors(gram)
            assert minors[-1] == sign**n * naive_det(basis) ** 2
    # a diagonal basis meets the width bound with equality
    calls.clear()
    minors = lattice._leading_minors_int(_triangular_gram([[3 * (i == j) for j in range(40)] for i in range(40)], 1))
    assert len(calls) >= 3
    assert minors == tuple(9**t for t in range(1, 41))


def test_packed_minors_hold_the_width_bound_exactly():
    # on D * I, with the first and last rows coupled, the entry (i, i) for
    # 0 < i < 39 after the step with pivot p is p * D, the bound itself, so
    # every width boundary is crossed by a tight entry
    for d in list(range(1, 20)) + [2**a for a in range(5, 40)] + [2**a - 1 for a in range(5, 40)]:
        gram = [[d if i == j else 0 for j in range(40)] for i in range(40)]
        gram[0][39] = gram[39][0] = 1
        expected = tuple(d**t for t in range(1, 40)) + (d**38 * (d * d - 1),)
        assert lattice._leading_minors_int(gram) == expected


def test_packed_minors_of_singular_and_small_matrices():
    rng = random.Random(167)
    for _ in range(300):
        n = rng.randint(1, 7)
        basis = []
        for i in range(n):
            bound = 10 ** rng.randint(0, 6)
            row = [0] * i + [rng.randint(-bound, bound) for _ in range(n - i)]
            roll = rng.random()
            if roll < 0.15:
                row = [0] * n
            elif roll < 0.3 and i:
                # a multiple of an earlier row that is zero up to i: a singular prefix
                earlier = [r for r in basis if not any(r[:i])]
                if earlier:
                    row = [rng.choice([-2, 1, 3]) * x for x in rng.choice(earlier)]
            elif roll < 0.45:
                row[i] = 0
            basis.append(row)
        gram = _triangular_gram(basis, rng.choice([1, -1]))
        minors = lattice._leading_minors_int(gram)
        assert minors == elementwise_leading_minors(gram)
        assert minors == tuple(naive_leading_minors([[Fraction(e) for e in row] for row in gram]))
    assert lattice._leading_minors_int([[0] * 3] * 3) == (0, 0, 0)
    # diagonal bases meet the width bound with equality
    for b in range(1, 30):
        gram = _triangular_gram([[b * (i == j) for j in range(7)] for i in range(7)], 1)
        assert lattice._leading_minors_int(gram) == tuple(b ** (2 * t) for t in range(1, 8))


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
    # the Kummer lattice and rank-32 code lattices; a unit vector is no
    # codeword of these codes, so adding one leaves the lattice
    rng = random.Random(83)
    for c in (code_d(5), reed_muller(1, 5), reed_muller(2, 5), code_d(6)):
        n = c.n
        for sign in (1, -1):
            lat = gamma_from_code(c, sign)
            for _ in range(10):
                coeffs = [rng.randint(-3, 3) for _ in range(n)]
                vec = [sum(a * lat.basis[i][t] for i, a in enumerate(coeffs)) for t in range(n)]
                assert lat.coordinates_of(vec) == tuple(coeffs)
                vec[rng.randrange(n)] += 1
                assert lat.coordinates_of(vec) is None
                assert not lat.contains(vec)


def test_coordinates_of_refuses_nonzero_row_with_zero_diagonal():
    # (0, 1) is the first basis row, but back-substitution cannot see it
    lat = CodeLattice(2, 1, ((0, 1), (0, 2)))
    for method in (lat.coordinates_of, lat.contains):
        with pytest.raises(ValueError, match="basis row 0 is nonzero"):
            method((0, 1))


def test_coordinates_of_with_zero_basis_rows():
    # zero rows are the only rows with a zero diagonal entry: members
    # round-trip with coordinate 0 on them, and a vector moved along the
    # coordinate of a zero row keeps the pivot entries, so it leaves the
    # lattice
    rng = random.Random(89)
    for _ in range(200):
        n = rng.randint(1, 9)
        basis = []
        for i in range(n):
            diagonal = rng.choice([-3, -2, -1, 1, 2, 3])
            row = [0] * i + [diagonal] + [rng.randint(-2, 2) for _ in range(n - i - 1)]
            basis.append(tuple(row) if rng.random() < 0.7 else (0,) * n)
        zero = rng.randrange(n)
        basis[zero] = (0,) * n
        lat = CodeLattice(n, rng.choice([1, -1]), tuple(basis))
        coeffs = [rng.randint(-3, 3) if any(row) else 0 for row in basis]
        vec = [sum(a * row[t] for a, row in zip(coeffs, basis)) for t in range(n)]
        assert lat.coordinates_of(vec) == tuple(coeffs)
        assert lat.contains(vec)
        vec[zero] += rng.choice([-1, 1])
        assert lat.coordinates_of(vec) is None
        assert not lat.contains(vec)


def test_vector_length_must_match_rank():
    lat = kummer_lattice()
    for method in (lat.coordinates_of, lat.norm_of, lat.contains):
        with pytest.raises(ValueError, match="does not match rank 16"):
            method((1,))


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
    degenerate = CodeLattice(2, 1, ((1, 1), (0, 0)))
    assert is_integral(degenerate)
    assert degenerate.to_json_dict() == {
        "n": 2,
        "sign": 1,
        "gram2": [[2, 0], [0, 0]],
        "det": {"num": 0, "den": 1},
        "elementary_divisors": None,
    }
