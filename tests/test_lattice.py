import math
import random
import types
from fractions import Fraction

import pytest

from k3nodal import duval, lattice
from k3nodal.codes import LinearCode, code_d, from_generators, is_isotropic, reed_muller
from k3nodal.gf2 import Gf2Matrix, parse_matrix_text
from k3nodal.lattice import (
    CodeLattice,
    basis_determinant,
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
)
from oracles import (
    elementwise_leading_minors,
    naive_code_lattice,
    naive_det,
    naive_inverse,
    naive_leading_minors,
    naive_rank,
    naive_smith_diagonal,
    popcount_gram2,
)


def _full_code(n):
    return LinearCode(Gf2Matrix.from_ints([1 << i for i in range(n)], n))


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
    # the definition: every diagonal entry of the true Gram matrix is even
    rng = random.Random(71)
    pairs = from_generators(Gf2Matrix.from_ints([3 << (2 * i) for i in range(32)], 64))
    codes = [_small_isotropic_code(rng, rng.randint(1, 12)) for _ in range(60)]
    seen = set()
    for c in codes + [pairs, reed_muller(2, 6)]:
        for sign in (1, -1):
            _, gram2 = naive_code_lattice(c, sign)
            expected = all(gram2[i][i] % 4 == 0 for i in range(c.n))
            assert is_even(gamma_from_code(c, sign)) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_determinant_examples():
    assert determinant(gamma_from_code(LinearCode.zero(2))) == 4
    assert determinant(kummer_lattice()) == 64
    for n in (1, 2, 3):
        assert determinant(gamma_from_code(_full_code(n))) == Fraction(1, 2**n)


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
        discriminant_group(gamma_from_code(_full_code(2)))


def test_discriminant_group_refusals_and_trivial_text():
    for divisors in ((1,), (2, 1), (0,), (-2,)):
        with pytest.raises(ValueError, match="must exceed 1"):
            lattice.DiscriminantGroup(divisors)
    for divisors in ((4, 2), (2, 4, 6)):
        with pytest.raises(ValueError, match="divide the next"):
            lattice.DiscriminantGroup(divisors)
    assert str(lattice.DiscriminantGroup((2, 4, 8))) == "Z/2 x Z/4 x Z/8"
    assert lattice.DiscriminantGroup(()).order == 1
    # RM(1,3) is self-dual and doubly even: its lattice is E_8, unimodular
    e8 = gamma_from_code(reed_muller(1, 3))
    assert is_integral(e8) and is_even(e8) and determinant(e8) == 1
    assert str(discriminant_group(e8)) == "trivial"


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


def _small_isotropic_code(rng, n):
    # random even-weight words orthogonal to every word already taken
    rows = []
    for _ in range(rng.randint(0, n)):
        w = rng.getrandbits(n)
        if w.bit_count() % 2 == 0 and all((w & r).bit_count() % 2 == 0 for r in rows):
            rows.append(w)
    return from_generators(Gf2Matrix.from_ints(rows, n))


def test_smith_diagonal_of_isotropic_code_grams():
    rng = random.Random(109)
    for _ in range(40):
        c = _small_isotropic_code(rng, rng.randint(1, 6))
        lat = gamma_from_code(c, rng.choice([1, -1]))
        gram = [[e // 2 for e in row] for row in lat.gram2]
        diag = naive_smith_diagonal(gram)
        assert tuple(d for d in diag if d > 1) == discriminant_group(lat).elementary_divisors


def test_code_lattices_take_the_smith_certificate():
    # naive_smith_diagonal takes factorial time beyond n = 6, so the Smith
    # diagonal is pinned by two other oracles: the cokernel of the true
    # Gram matrix G has order |det G| and exponent the lcm of the
    # denominators of G^-1, and an exponent of at most 2 leaves only
    # ones and twos
    rng = random.Random(139)
    for _ in range(200):
        c = _small_isotropic_code(rng, rng.randint(1, 12))
        lat = gamma_from_code(c, rng.choice([1, -1]))
        gram = [[Fraction(e // 2) for e in row] for row in lat.gram2]
        order = abs(naive_det(gram))
        exponent = math.lcm(*(x.denominator for row in naive_inverse(gram) for x in row))
        assert order == 2 ** (c.n - 2 * c.k) and exponent <= 2
        assert discriminant_group(lat).elementary_divisors == (2,) * (c.n - 2 * c.k)
    assert discriminant_group(kummer_lattice()).elementary_divisors == (2,) * 6
    assert discriminant_group(even_eight_lattice()).elementary_divisors == (2,) * 6


def test_code_lattice_is_its_code_and_sign():
    rng = random.Random(141)
    for _ in range(40):
        c = _random_code(rng, rng.randint(1, 16))
        for sign in (1, -1):
            lat = CodeLattice(c, sign)
            assert lat == gamma_from_code(c, sign) and hash(lat) == hash(gamma_from_code(c, sign))
            assert lat != CodeLattice(c, -sign)
            assert repr(lat) == f"CodeLattice(code={c!r}, sign={sign})"
    assert CodeLattice(code_d(5)) == gamma_from_code(code_d(5), 1)
    with pytest.raises(ValueError, match="sign"):
        CodeLattice(code_d(5), 2)


def test_code_lattice_matches_naive_construction():
    rng = random.Random(143)
    for n in range(1, 65):
        c = _random_code(rng, n)
        gens = [[(row >> t) & 1 for t in range(n)] for row in c.gen.rows]
        for sign in (1, -1):
            lat = gamma_from_code(c, sign)
            basis, gram2 = naive_code_lattice(c, sign)
            assert lat.basis == tuple(map(tuple, basis))
            assert lat.gram2 == tuple(map(tuple, gram2))
            minors = elementwise_leading_minors(gram2)
            assert leading_principal_minors(lat) == tuple(
                Fraction(d, 2**t) for t, d in enumerate(minors, start=1)
            )
            for _ in range(4):
                coeffs = [rng.randint(-3, 3) for _ in range(n)]
                vec = [sum(a * row[t] for a, row in zip(coeffs, basis)) for t in range(n)]
                assert lat.contains(vec)
                vec[rng.randrange(n)] += rng.choice([-1, 1])
                member = naive_rank(gens + [[x % 2 for x in vec]]) == c.k
                assert lat.contains(vec) == member


def test_gram2_matches_the_popcount_double_loop():
    rng = random.Random(151)
    cases = [reed_muller(r, m) for m in range(1, 9) for r in range(m + 1)]
    cases += [code_d(m) for m in range(2, 8)]
    cases += [LinearCode.zero(9), LinearCode.repetition(9)]
    cases += [_random_code(rng, rng.randint(1, 96)) for _ in range(40)]
    for c in cases:
        for sign in (1, -1):
            assert gamma_from_code(c, sign).gram2 == popcount_gram2(c, sign), (c.n, c.k, sign)


@pytest.mark.parametrize("r, m", [(2, 7), (3, 8)])
def test_membership_matches_oracle_at_large_rank(r, m):
    # lifted codewords shifted by even vectors, so odd entries run down
    # to -5, then one coordinate bumped, and vectors of random entries
    rng = random.Random(167 + m)
    c = reed_muller(r, m)
    n = c.n
    gens = [[(row >> t) & 1 for t in range(n)] for row in c.gen.rows]
    for sign in (1, -1):
        lat = gamma_from_code(c, sign)
        vecs = []
        for _ in range(6):
            word = 0
            for g in c.gen.rows:
                word ^= g * rng.getrandbits(1)
            vec = [(word >> t & 1) + 2 * rng.randint(-3, 3) for t in range(n)]
            vecs.append(list(vec))
            vec[rng.randrange(n)] += rng.choice([-1, 1])
            vecs.append(vec)
            vecs.append([rng.randint(-5, 5) for _ in range(n)])
        assert any(x < 0 and x % 2 for vec in vecs for x in vec)
        members = [naive_rank(gens + [[x % 2 for x in vec]]) == c.k for vec in vecs]
        assert [lat.contains(vec) for vec in vecs] == members
        assert members.count(True) >= 6


def test_smith_certificate_at_large_rank():
    rng = random.Random(173)
    rm37 = reed_muller(3, 7)
    codes = [reed_muller(2, 6), reed_muller(3, 8), rm37]
    codes += [_random_subcode(rng, rm37, k) for k in (1, 20, 47, 63)]
    for c in codes:
        assert is_isotropic(c) and 64 <= c.n <= 256
        for sign in (1, -1):
            lat = gamma_from_code(c, sign)
            assert discriminant_group(lat).elementary_divisors == (2,) * (c.n - 2 * c.k)


def test_contains_entries_of_other_number_types():
    # entries with no parity (Fractions, floats): integral ones answer as
    # the ints do, and a half-integral, infinite or nan entry is never a
    # member
    c = code_d(5)
    lat = gamma_from_code(c, -1)
    word = c.gen.rows[1]
    vec = [(word >> t & 1) - 2 * (t % 3) for t in range(c.n)]
    assert lat.contains(vec)
    for kind in (Fraction, float):
        same = list(map(kind, vec))
        assert lat.contains(same)
        same[3] += 1
        assert not lat.contains(same)
    half = list(map(Fraction, vec))
    half[0] += Fraction(1, 2)
    assert not lat.contains(half)
    assert not lat.contains([x + 0.5 for x in vec])
    for odd in (math.inf, -math.inf, math.nan):
        assert not lat.contains([odd] + list(map(float, vec[1:])))
        assert not lat.contains(vec[:-1] + [odd])


def test_gram_mod_2_has_the_certificate_structure():
    # the structure the Smith certificate reads: with G = gram2 // 2, the
    # unit x unit block of G mod 2 is zero, the unit x generator block is
    # the generator bits N at the non-pivots, and G mod 2 has rank 2k.
    # RM(2,6) has generators overlapping in 2 mod 4 coordinates, and the
    # subcodes of the singly even code of 32 disjoint pairs have words of
    # weight 2 mod 4, so the generator x generator block is not zero
    rng = random.Random(191)
    rm37 = reed_muller(3, 7)
    pairs = from_generators(Gf2Matrix.from_ints([3 << (2 * i) for i in range(32)], 64))
    codes = [reed_muller(2, 6), reed_muller(3, 8), pairs]
    codes += [_random_subcode(rng, rm37, k) for k in (1, 20, 47, 63)]
    codes += [_random_subcode(rng, pairs, k) for k in (5, 17, 31)]
    odd_pairs = 0
    for c in codes:
        assert is_isotropic(c)
        pivots = c.pivots()
        units = [j for j in range(c.n) if j not in pivots]
        block = [[g >> j & 1 for j in units] for g in c.gen.rows]
        for sign in (1, -1):
            g2 = [[e // 2 % 2 for e in row] for row in gamma_from_code(c, sign).gram2]
            assert all(g2[i][j] == 0 for i in units for j in units)
            assert [[g2[p][j] for j in units] for p in pivots] == block
            assert [[g2[j][p] for j in units] for p in pivots] == block
            odd_pairs += sum(g2[p][q] for p in pivots for q in pivots)
            assert naive_rank(g2) == 2 * c.k
    assert odd_pairs > 0


def test_smith_certificate_fails_when_the_non_pivot_block_is_rank_deficient():
    # non-isotropic codes whose generator bits at the non-pivots have rank
    # below k: the full code of length 2 (no non-pivots) and the span of
    # 100 (its generator is its pivot alone); reading the whole generator
    # instead of its non-pivot bits would pass the span of 100
    for c in (_full_code(2), from_generators(parse_matrix_text("100"))):
        assert not is_isotropic(c)
        for sign in (1, -1):
            with pytest.raises(AssertionError, match="Smith certificate"):
                CodeLattice(c, sign)._smith


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
    for _ in range(40):
        n = rng.randint(1, 16)
        c = _small_isotropic_code(rng, n) if rng.random() < 0.5 else _random_code(rng, n)
        sign = rng.choice([1, -1])
        first, second = gamma_from_code(c, sign), gamma_from_code(c, sign)
        order = list(_INVARIANTS)  # the determinant first, the JSON document last
        a = _invariants_in_order(first, order)
        b = _invariants_in_order(second, order[::-1])
        assert a == b
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) == repr(gamma_from_code(c, sign))


def test_positive_lattice_fails_definiteness_without_elimination():
    # definiteness is the sign: neither sign computes a leading minor
    rng = random.Random(127)
    for _ in range(20):
        c = _random_code(rng, rng.randint(1, 12))
        for sign in (1, -1):
            lat = gamma_from_code(c, sign)
            assert is_negative_definite(lat) == (sign == -1)
            assert "_minors2" not in vars(lat)
    kummer = kummer_lattice()
    assert is_negative_definite(kummer)
    assert "_minors2" not in vars(kummer)


def _read_invariants(lat):
    is_integral(lat)
    is_negative_definite(lat)
    determinant(lat)
    basis_determinant(lat)
    lat.contains([2] * lat.n)
    lat.norm_of([1] * lat.n)
    if is_integral(lat):
        is_even(lat)
        discriminant_group(lat)


def test_determinant_and_json_run_no_elimination(monkeypatch):
    rng = random.Random(151)
    for _ in range(20):
        n = rng.randint(1, 16)
        c = _small_isotropic_code(rng, n) if rng.random() < 0.5 else _random_code(rng, n)
        for sign in (1, -1):
            lat = gamma_from_code(c, sign)
            _read_invariants(lat)
            # no invariant builds the dense Gram data
            assert "gram2" not in vars(lat) and "basis" not in vars(lat)
            doc = lat.to_json_dict()
            assert "gram2" in vars(lat) and "basis" not in vars(lat)
            assert "_minors2" not in vars(lat)
            assert Fraction(doc["det"]["num"], doc["det"]["den"]) == Fraction(sign**n * 2**n, 4**c.k)
            assert leading_principal_minors(lat)[-1] == determinant(lat)
    for lat in (kummer_lattice(), even_eight_lattice()):
        _read_invariants(lat)
        assert determinant(lat) == 64 and discriminant_group(lat).order == 64
        assert not {"_minors2", "gram2", "basis"} & vars(lat).keys()
        lat.to_json_dict()
        assert "gram2" in vars(lat) and "basis" not in vars(lat)
    # the verification suite reads neither on its two lattices
    def unbuilt(lat):
        raise AssertionError("dense Gram data was built")

    monkeypatch.setattr(CodeLattice, "gram2", property(unbuilt))
    monkeypatch.setattr(CodeLattice, "basis", property(unbuilt))
    assert duval.verify_all().ok


def _expected_minors2(code, sign):
    """Leading minors of gram2 from the elementwise Bareiss oracle on
    sign |b_i & b_j| for the 0/1 rows b_i of the naive basis, minor t
    scaled back by the squared product of the first t row scales."""
    basis, _ = naive_code_lattice(code, sign)
    bits = [sum(x // row[i] << t for t, x in enumerate(row)) for i, row in enumerate(basis)]
    inner = [[sign * (a & b).bit_count() for b in bits] for a in bits]
    minors, scale = [], 1
    for row, d in zip(basis, elementwise_leading_minors(inner)):
        scale *= row[len(minors)] ** 2
        minors.append(d * scale)
    return tuple(minors)


def _check_minors(code, sign):
    lat = gamma_from_code(code, sign)
    assert lat._minors2 == _expected_minors2(code, sign)
    assert lat._minors2[-1] == determinant(lat) * 2**lat.n == sign**lat.n * 4 ** (lat.n - code.k)


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


def _code_of_dimension(rng, n, k):
    while True:
        c = from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(k)], n))
        if c.k == k:
            return c


def _non_isotropic_code(rng, n, k):
    while True:
        c = _code_of_dimension(rng, n, k)
        if not is_isotropic(c):
            return c


def test_code_minors_match_elementwise_on_workload_shapes():
    rng = random.Random(157)
    rm25, rm26 = reed_muller(2, 5), reed_muller(2, 6)
    codes = [
        reed_muller(1, 5),
        _random_subcode(rng, rm25, 8),
        _non_isotropic_code(rng, 32, 10),
        rm26,
        code_d(7),
        _random_subcode(rng, rm26, 14),
        _non_isotropic_code(rng, 64, 20),
    ]
    for code in codes:
        for sign in (1, -1):
            _check_minors(code, sign)


def test_code_minors_match_elementwise_for_every_dimension():
    # k <= n/2 walks mostly forward over the generators, k > n/2 mostly
    # backward over the columns at the non-pivots
    rng = random.Random(163)
    for n in list(range(1, 13)) + [24, 40]:
        for k in range(n + 1):
            _check_minors(_code_of_dimension(rng, n, k), rng.choice([1, -1]))


@pytest.mark.parametrize("r, m", [(3, 7), (1, 8)])
def test_code_minors_match_elementwise_on_reed_muller(r, m):
    _check_minors(reed_muller(r, m), 1)


def test_code_minors_widen_at_both_checkpoints(monkeypatch):
    # the checkpoint on u re-encodes the k adjugate rows; the one on the
    # new determinant re-encodes them together with the packed u
    fired = []
    widen = lattice._widen
    monkeypatch.setattr(
        lattice, "_widen", lambda rows, count, *a: fired.append(len(rows) - count) or widen(rows, count, *a)
    )
    # generators with disjoint supports make u = 0 while they are bordered
    # on, so only the determinant, 9^t, outgrows a width there
    disjoint = [1 << i | 255 << (5 + 8 * i) for i in range(5)]
    _check_minors(from_generators(Gf2Matrix.from_ints(disjoint, 45)), -1)
    assert 1 in fired
    fired.clear()
    # a determinant of 243 takes 9 bits, one more than the first width:
    # a check one bit short leaves it in a signed 8-bit field
    sparse = [0x1021, 0x4102, 0xC0204, 0x80008, 0x81040, 0x108080, 0x1400]
    _check_minors(from_generators(Gf2Matrix.from_ints(sparse, 21)), 1)
    assert fired == [1]
    fired.clear()
    _check_minors(reed_muller(2, 6), -1)
    assert 0 in fired


def test_code_minors_decode_every_field_width(monkeypatch):
    # on a little-endian host the decode reads 1-, 2-, 4- and 8-byte
    # fields by a cast and wider ones by slices; a random [96, 48] code
    # takes its determinants past 128 bits, and the workload codes stop
    # at 16 bytes
    widths = {1}
    widen = lattice._widen

    def spy(rows, count, size, need):
        rows, grown = widen(rows, count, size, need)
        widths.add(grown)
        return rows, grown

    monkeypatch.setattr(lattice, "_widen", spy)
    rng = random.Random(179)
    for n, k in ((64, 22), (80, 40), (96, 48)):
        _check_minors(_code_of_dimension(rng, n, k), rng.choice([1, -1]))
    assert {1, 2, 4, 8, 16} <= widths and max(widths) > 16


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_fields_decode_matches_from_bytes(monkeypatch, byteorder):
    # a big-endian host reads every width by slices
    monkeypatch.setattr(lattice, "sys", types.SimpleNamespace(byteorder=byteorder))
    rng = random.Random(181)
    for size in (1, 2, 3, 4, 5, 8, 12, 16, 17, 32):
        half = 1 << (8 * size - 1)
        for count in (0, 1, 2, 7):
            values = [rng.randrange(-half, half) for _ in range(count)]
            values[:2] = [-half, half - 1][:count]
            packed = sum(v << (8 * size * j) for j, v in enumerate(values))
            raw = (packed + lattice._bias(count, size)).to_bytes(count * size, "little")
            expected = [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]
            assert expected == values
            assert list(lattice._fields(packed, count, size)) == expected


def test_contains_lattice_vectors_and_not_a_unit_step_off():
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
                assert lat.contains(vec)
                vec[rng.randrange(n)] += 1
                assert not lat.contains(vec)


def test_vector_length_must_match_rank():
    lat = kummer_lattice()
    for method in (lat.norm_of, lat.contains):
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
    non_integral = gamma_from_code(_full_code(2)).to_json_dict()
    assert non_integral["elementary_divisors"] is None
    assert non_integral["det"] == {"num": 1, "den": 4}
