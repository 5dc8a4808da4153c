import hashlib
import json
import random
import re

import pytest

from k3nodal import codes
from k3nodal.codes import (
    MAX_GENERATOR_BITS,
    MAX_PERM_SEARCH_LEN,
    SUBSPACE_BUDGET,
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
    project,
    reed_muller,
    reed_muller_generators,
    verify_beauville,
    verify_no_extension,
    weight_distribution,
)
from k3nodal.gf2 import BitVector, Gf2Matrix, kernel, parse_matrix_text
from oracles import (
    gray_half_weight_scan,
    gray_weight_distribution,
    macwilliams_dual_counts,
    naive_reed_muller_rows,
    naive_weight_distribution,
    qbinom_recursive,
)

EQ2_ROWS = [
    "0101010101010101",
    "0011001100110011",
    "0000111100001111",
    "0000000011111111",
]


def _random_code(rng: random.Random, n: int, max_rows: int | None = None) -> LinearCode:
    rows = rng.randint(0, max_rows if max_rows is not None else n)
    return from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(rows)], n))


def _coords(code: LinearCode) -> list[list[int]]:
    return [list(r.coords()) for r in code.gen.rows]


# ---------------------------------------------------------------- construction


def test_from_generators_examples():
    c = from_generators(parse_matrix_text("11\n11"))
    assert (c.n, c.k) == (2, 1)
    z = from_generators(Gf2Matrix((), 4))
    assert (z.n, z.k) == (4, 0)
    rows = [BitVector.from_string(s) for s in EQ2_ROWS] + [BitVector.ones(16)]
    c5 = from_generators(Gf2Matrix.from_rows(rows))
    assert (c5.n, c5.k) == (16, 5)
    assert c5 == code_d(5)


def test_from_generators_ragged():
    with pytest.raises(ValueError):
        from_generators([BitVector.zero(2), BitVector.zero(3)])


def test_codewords_message_order_and_contains():
    c = code_d(3)
    words = list(c.codewords())
    assert len(words) == 8
    assert words[0].bits == 0
    assert words[1] == c.gen.rows[0]
    assert len({w.bits for w in words}) == 8
    for w in words:
        assert w in c
    assert BitVector.from_string("1000") not in c


# ---------------------------------------------------------------- duality


def test_dual_examples():
    assert dual(LinearCode.zero(4)) == LinearCode.full(4)
    assert dual(LinearCode.full(4)) == LinearCode.zero(4)
    even = dual(LinearCode.repetition(4))
    assert even.k == 3
    assert [str(r) for r in even.gen.rows] == ["1001", "0101", "0011"]


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
    codes = [LinearCode.zero(1), LinearCode.zero(9), LinearCode.full(1), LinearCode.full(9)]
    codes += [_random_code(rng, rng.randint(1, 40)) for _ in range(120)]
    for c in codes:
        d = dual(c)
        assert d == from_generators(kernel(c.gen))
        assert dual(d) == c


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
    assert weight_distribution(LinearCode.full(2)).counts == {0: 1, 1: 2, 2: 1}
    assert weight_distribution(code_d(5)).counts == {0: 1, 8: 30, 16: 1}


def test_weight_distribution_matches_naive():
    rng = random.Random(31)
    for _ in range(60):
        c = _random_code(rng, rng.randint(1, 10))
        assert weight_distribution(c).counts == naive_weight_distribution(_coords(c), c.n)


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


def test_weight_distribution_special_codes_match_gray():
    for c in (LinearCode.zero(5), LinearCode.full(12), LinearCode.repetition(8),
              LinearCode.repetition(300)):
        dist = weight_distribution(c)
        assert dist.counts == gray_weight_distribution(list(c.gen.row_bits()), c.n)
        assert dist.total() == 2**c.k


def test_weight_distribution_budget():
    with pytest.raises(ResourceLimitError):
        weight_distribution(LinearCode.full(29))


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
    assert str(gens.rows[0]) == "1" * 16
    assert [str(r) for r in gens.rows[1:]] == EQ2_ROWS


def test_reed_muller_degenerate_orders():
    rep = reed_muller(0, 3)
    assert rep == LinearCode.repetition(8)
    assert reed_muller(3, 3) == LinearCode.full(8)
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
            assert [list(r.coords()) for r in gens.rows] == naive_reed_muller_rows(degree, m)
            assert gens.cols == 1 << m


def test_reed_muller_generator_budget():
    # RM(1, 17) has 18 rows of 2^17 bits; RM(1, 18) has 19 rows of 2^18
    assert 18 << 17 <= MAX_GENERATOR_BITS < 19 << 18
    gens = reed_muller_generators(1, 17)
    assert gens.rows[0].weight == 1 << 17
    assert all(r.weight == 1 << 16 for r in gens.rows[1:])
    for degree, m in ((1, 18), (1, 21), (1, 26), (3, 14), (0, 23)):
        with pytest.raises(ResourceLimitError):
            reed_muller_generators(degree, m)
    with pytest.raises(ResourceLimitError):
        code_d(22)


def test_code_d_family():
    d5 = code_d(5)
    assert (d5.n, d5.k) == (16, 5)
    assert code_d(2) == LinearCode.full(2)
    assert weight_distribution(code_d(2)).counts == {0: 1, 1: 2, 2: 1}
    assert sorted(weight_distribution(code_d(4)).nonzero_weights()) == [4, 8]
    with pytest.raises(ValueError):
        code_d(1)


@pytest.mark.parametrize("m", range(2, 8))
def test_code_d_weight_spectrum(m):
    c = code_d(m)
    expected = {0: 1, 1 << (m - 2): (1 << m) - 2, 1 << (m - 1): 1}
    assert weight_distribution(c).counts == expected
    assert naive_weight_distribution(_coords(c), c.n) == expected


# ---------------------------------------------------------------- projections


def test_project_examples():
    d5 = code_d(5)
    assert project(d5, range(16)) == d5
    p15 = project(d5, range(15))
    assert 7 in weight_distribution(p15).nonzero_weights()
    assert project(LinearCode.repetition(8), [0, 1]) == LinearCode.repetition(2)


@pytest.mark.parametrize("m", range(2, 7))
def test_project_identity_all_coordinates(m):
    c = code_d(m)
    assert project(c, range(c.n)) == c


def test_project_validation():
    c = code_d(3)
    with pytest.raises(ValueError):
        project(c, [])
    with pytest.raises(ValueError):
        project(c, [0, 0])
    with pytest.raises(ValueError):
        project(c, [4])


def test_project_matches_bruteforce():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 10)
        c = _random_code(rng, n)
        size = rng.randint(1, n)
        keep = rng.sample(range(n), size)
        expected = from_generators(
            Gf2Matrix.from_ints(
                [sum(w[j] << t for t, j in enumerate(keep)) for w in c.codewords()], size
            )
        )
        assert project(c, keep) == expected


# ---------------------------------------------------------------- equivalence


def test_is_isomorphic_to_d_examples():
    assert is_isomorphic_to_d(code_d(5))
    assert not is_isomorphic_to_d(LinearCode.repetition(2))
    even4 = dual(LinearCode.repetition(4))
    assert is_isomorphic_to_d(even4)
    assert permutation_equivalent(even4, code_d(3))


def test_permutation_equivalent_examples():
    d4 = code_d(4)
    assert permutation_equivalent(d4, d4)
    assert not permutation_equivalent(LinearCode.zero(2), LinearCode.repetition(2))
    reversed_d4 = project(d4, list(reversed(range(8))))
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
        assert permutation_equivalent(c, project(c, perm))


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
        shuffled = project(code_d(m), perm)
        assert is_isomorphic_to_d(shuffled)
        assert permutation_equivalent(shuffled, code_d(m))
    assert cases > 0


def _shuffled(c: LinearCode, rng: random.Random) -> LinearCode:
    perm = list(range(c.n))
    rng.shuffle(perm)
    return project(c, perm)


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
            fast = _is_d_code(c)
            assert fast == permutation_equivalent(c, d), (m, c.gen.row_bits())
            agreed += 1
            positive += fast
    assert agreed == 200 and 60 <= positive < agreed


def test_d_code_test_beyond_the_permutation_budget():
    rng = random.Random(61)
    for m in (6, 7):
        d = code_d(m)
        assert d.n > MAX_PERM_SEARCH_LEN and _is_d_code(_shuffled(d, rng))
    assert not _is_d_code(_column_copied(code_d(6), 0, 1))


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
    for m in (3, 4, 5):
        assert verify_no_extension(m).ok
    assert not verify_no_extension(2).ok  # degenerate
    cert = verify_no_extension(4)
    short = ExtensionCertificate(cert.m, cert.block_length, cert.degenerate, cert.entries[:-1])
    assert not short.ok


def test_extension_certificate_refuses_half_weight():
    cert = verify_no_extension(4)
    bad = ExtensionWitness(0, 1, 0, cert.block_length // 2)
    with pytest.raises(ValueError):
        ExtensionCertificate(cert.m, cert.block_length, False, cert.entries[:-1] + (bad,))


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
    assert [(s.n, s.examined) for s in rep.per_n] == [(2, 1), (3, 7), (4, 35)]
    assert rep.extremal_count == 1


def test_verify_beauville_m3():
    rep = verify_beauville(3, 6)
    assert rep.ok
    assert [(s.n, s.examined) for s in rep.per_n] == [(3, 1), (4, 15), (5, 155), (6, 1395)]
    assert all(s.examined == s.expected for s in rep.per_n)
    assert rep.extremal_count == 1
    # below the extremal length nothing qualifies
    assert [s.qualifying for s in rep.per_n if s.n < 4] == [0]


def test_verify_beauville_counts_match_recursive_qbinomial():
    rep = verify_beauville(3, 6)
    for s in rep.per_n:
        assert s.examined == qbinom_recursive(s.n, 3)


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


def test_verify_beauville_sampled():
    rep = verify_beauville(5, 16, samples=100, seed=3)
    assert rep.mode == "sampled"
    assert rep.ok
    assert rep.extremal_count >= 1  # the injected D_5 itself
    again = verify_beauville(5, 16, samples=100, seed=3)
    assert rep.to_json_dict() == again.to_json_dict()


def test_verify_beauville_sampled_beyond_permutation_budget():
    # at m = 6 the extremal length 32 exceeds the permutation-search budget;
    # the injected D_6 must still be recognised by its generator columns
    rep = verify_beauville(6, 32, samples=30, seed=5)
    assert rep.ok
    assert rep.extremal_count >= 1


def test_verify_beauville_reports_an_extremal_code_that_is_not_d(monkeypatch):
    monkeypatch.setattr(codes, "_is_d_code", lambda c: False)
    rep = verify_beauville(6, 32, samples=30, seed=5)
    assert not rep.ok and rep.extremal_count >= 1
    assert len(rep.counterexamples) == rep.extremal_count
    for line in rep.counterexamples:
        assert re.fullmatch(r"n=32: extremal code \[[01,]+\] is not equivalent to D_6", line)


def test_verify_beauville_sampled_digests():
    # pins the order in which the sampled scan draws from its generator and
    # the reduced bases it keeps
    expected = {
        (5, 16, 500, 0): "751aa0095e58f5debed0f400bcb7b850c7cb65d44ce2d182bfc89224c6e28e71",
        (6, 32, 30, 5): "ed764bbb2ec5f1e485b69849ff77383ed68affeb37b8cd81e5c8347f0b279072",
    }
    for (m, n_max, samples, seed), digest in expected.items():
        report = verify_beauville(m, n_max, samples=samples, seed=seed)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_beauville_sampled_budget():
    # the default length bound for m = 40 is 2^39; refused before D_40 is built
    with pytest.raises(ResourceLimitError) as info:
        verify_beauville(40, 1 << 39)
    assert info.value.partial is None
    # one length over the budget by a single sample
    with pytest.raises(ResourceLimitError):
        verify_beauville(5, 5, samples=SUBSPACE_BUDGET + 1)
    with pytest.raises(ResourceLimitError):
        verify_beauville(5, 16, samples=SUBSPACE_BUDGET // 12 + 1)
    # within the sample budget, but up to 31 row sums per sample exceed it
    with pytest.raises(ResourceLimitError):
        verify_beauville(5, 69)


def test_verify_beauville_budget():
    with pytest.raises(ResourceLimitError) as info:
        verify_beauville(4, 9)
    partial = info.value.partial
    assert partial is not None
    assert [s.n for s in partial.per_n] == [4, 5, 6, 7, 8]


def test_verify_beauville_validation():
    with pytest.raises(ValueError):
        verify_beauville(1, 4)
    with pytest.raises(ValueError):
        verify_beauville(3, 2)
