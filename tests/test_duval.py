import dataclasses
import json
import random
from fractions import Fraction

import pytest

from k3nodal import duval
from k3nodal.codes import ExtensionCertificate, code_d
from k3nodal.duval import (
    CoverVerdict,
    DuValConfig,
    SuiteReport,
    admissible,
    classify_even_set,
    code_dim_lower_bound,
    delta,
    milnor,
    nodal_code_constraints,
    verify_all,
    verify_max_sixteen,
)
from k3nodal.codes import LinearCode
from oracles import brute_mis, dynkin_adjacency, tree_mis


def test_classify_examples():
    assert classify_even_set(8).verdict is CoverVerdict.K3_COVER
    assert classify_even_set(8).euler_of_cover == 24
    assert classify_even_set(16).verdict is CoverVerdict.TORUS_COVER
    assert classify_even_set(16).euler_of_cover == 0
    assert classify_even_set(4).verdict is CoverVerdict.IMPOSSIBLE
    assert classify_even_set(0).verdict is CoverVerdict.EMPTY
    with pytest.raises(ValueError):
        classify_even_set(-1)


def test_classify_sweep():
    for k in range(1, 101):
        verdict = classify_even_set(k).verdict
        if k == 8:
            assert verdict is CoverVerdict.K3_COVER
        elif k == 16:
            assert verdict is CoverVerdict.TORUS_COVER
        else:
            assert verdict is CoverVerdict.IMPOSSIBLE


def test_code_dim_lower_bound():
    assert code_dim_lower_bound(16, 22) == 5
    assert code_dim_lower_bound(17, 22) == 6
    assert code_dim_lower_bound(8, 22) == 0
    assert code_dim_lower_bound(10) == 0  # default b2 = 22
    with pytest.raises(ValueError):
        code_dim_lower_bound(4, 21)


def test_nodal_code_constraints():
    c16 = nodal_code_constraints(16)
    assert c16.allowed_nonzero_weights == (8, 16)
    assert c16.dim_lower_bound == 5
    assert c16.forced_code_name == "D5"
    assert c16.forced_code == code_d(5)
    # eight curves have the zero code or the all-ones line: neither is forced
    c8 = nodal_code_constraints(8)
    assert c8.allowed_nonzero_weights == (8,)
    assert c8.forced_code is None and c8.forced_code_name is None
    for n in range(1, 8):
        c = nodal_code_constraints(n)
        assert c.allowed_nonzero_weights == ()
        assert c.forced_code == LinearCode.zero(n) and c.forced_code_name == "zero"
    c12 = nodal_code_constraints(12)
    assert c12.allowed_nonzero_weights == (8,)
    assert c12.forced_code is None
    with pytest.raises(ValueError):
        nodal_code_constraints(0)


def test_parse_grammar():
    cfg = DuValConfig.parse("a2, D4x2 ,e7")
    assert cfg.a == {2: 1}
    assert cfg.d == {4: 2}
    assert cfg.e == {7: 1}
    assert cfg.canonical() == "A2,D4x2,E7"
    assert DuValConfig.parse("A1,A1,A1").a == {1: 3}
    assert DuValConfig().canonical() == "(empty)"


@pytest.mark.parametrize(
    "bad", ["D3", "E5", "A0", "F4", "A", "x4", "A1x", "A1,,A2", "A1x0", "A2,D4x00"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        DuValConfig.parse(bad)


def test_parse_bounds_the_digits_of_each_number():
    widest = "9" * duval.MAX_TERM_DIGITS
    report = admissible(DuValConfig.parse(f"A{widest}x{widest},A{widest}x{widest}"))
    # every accepted configuration prints within CPython's int-to-str limit
    assert len(str(report.mu)) == 2 * duval.MAX_TERM_DIGITS + 1
    json.dumps(report.to_json_dict())
    for bad in (f"A{widest}9", f"A1x{widest}9"):
        with pytest.raises(ValueError, match="more than 2000 digits"):
            DuValConfig.parse(bad)


def test_delta_examples():
    assert delta(DuValConfig.parse("A1x16")) == 16
    assert delta(DuValConfig()) == 0
    assert delta(DuValConfig.parse("E8")) == 4
    assert delta(DuValConfig.parse("D6")) == 4
    assert delta(DuValConfig.parse("D7")) == 4
    assert delta(DuValConfig.parse("E7")) == 4
    assert delta(DuValConfig.parse("A16")) == 8


def test_milnor_examples():
    assert milnor(DuValConfig.parse("A1x16")) == 16
    assert milnor(DuValConfig.parse("E8")) == 8
    assert milnor(DuValConfig.parse("A2,D4")) == 6


def test_delta_and_milnor_additive():
    rng = random.Random(89)
    letters = ["A", "D", "E"]
    for _ in range(40):
        def random_cfg():
            terms = []
            for _ in range(rng.randint(0, 4)):
                letter = rng.choice(letters)
                n = {"A": rng.randint(1, 20), "D": rng.randint(4, 20), "E": rng.choice([6, 7, 8])}[letter]
                terms.append(f"{letter}{n}x{rng.randint(1, 3)}")
            return DuValConfig.parse(",".join(terms)) if terms else DuValConfig()

        c1, c2 = random_cfg(), random_cfg()
        merged = DuValConfig(
            {n: c1.a.get(n, 0) + c2.a.get(n, 0) for n in set(c1.a) | set(c2.a)},
            {n: c1.d.get(n, 0) + c2.d.get(n, 0) for n in set(c1.d) | set(c2.d)},
            {n: c1.e.get(n, 0) + c2.e.get(n, 0) for n in set(c1.e) | set(c2.e)},
        )
        assert delta(merged) == delta(c1) + delta(c2)
        assert milnor(merged) == milnor(c1) + milnor(c2)


def test_delta_agrees_with_dynkin_tree_oracle():
    for n in range(1, 21):
        assert delta(DuValConfig(a={n: 1})) == tree_mis(dynkin_adjacency("A", n))
    for n in range(4, 21):
        assert delta(DuValConfig(d={n: 1})) == tree_mis(dynkin_adjacency("D", n))
    for n in (6, 7, 8):
        assert delta(DuValConfig(e={n: 1})) == tree_mis(dynkin_adjacency("E", n))


def test_tree_dp_matches_bruteforce():
    for letter, rng_n in (("A", range(1, 13)), ("D", range(4, 13)), ("E", (6, 7, 8))):
        for n in rng_n:
            adj = dynkin_adjacency(letter, n)
            assert tree_mis(adj) == brute_mis(adj)


def test_single_type_inequalities():
    for n in range(1, 51):
        assert delta(DuValConfig(a={n: 1})) <= n
        assert 2 * delta(DuValConfig(a={n: 1})) >= n
    for n in range(4, 51):
        assert delta(DuValConfig(d={n: 1})) <= n
    for n in (6, 7, 8):
        assert delta(DuValConfig(e={n: 1})) <= n


def test_admissible_examples():
    seventeen = admissible(DuValConfig.parse("A1x17"))
    assert not seventeen.admissible
    assert seventeen.delta == 17
    assert seventeen.reasons
    four_e8 = admissible(DuValConfig.parse("E8x4"))
    assert four_e8.admissible
    assert (four_e8.delta, four_e8.mu) == (16, 32)
    assert four_e8.ratio == Fraction(1, 2)
    sixteen_a2 = admissible(DuValConfig.parse("A2x16"))
    assert sixteen_a2.admissible
    assert (sixteen_a2.delta, sixteen_a2.mu) == (16, 32)
    empty = admissible(DuValConfig())
    assert empty.admissible and empty.ratio is None


def test_admissible_iff_delta_at_most_16():
    rng = random.Random(97)
    for _ in range(60):
        counts = {n: rng.randint(0, 3) for n in rng.sample(range(1, 12), 3)}
        cfg = DuValConfig(a=counts)
        assert admissible(cfg).admissible == (delta(cfg) <= 16)


def test_admissible_json_schema():
    payload = admissible(DuValConfig.parse("A1x16")).to_json_dict()
    assert payload["config"] == "A1x16"
    assert payload["delta"] == 16
    assert payload["mu"] == 16
    assert payload["ratio"] == {"num": 1, "den": 1}
    assert payload["admissible"] is True
    assert payload["reasons"] == []
    assert payload["per_type"] == [
        {"type": "A1", "count": 16, "delta_each": 1, "delta_total": 16, "milnor_total": 16}
    ]


def test_four_a16_is_inadmissible():
    # A16 contributes 8 disjoint curves under the floor formula, so four of
    # them total 32 and exceed the bound (unlike four D6/D7/E7/E8)
    report = admissible(DuValConfig.parse("A16x4"))
    assert report.delta == 32
    assert not report.admissible


def test_verify_max_sixteen():
    cert = verify_max_sixteen()
    assert cert.ok
    assert len(cert.seventeen_step.entries) == 240
    assert cert.sixteen_step["forced_code"] == "D5"
    assert cert.sixteen_step["dim_lower_bound"] == 5


def test_verify_max_sixteen_deterministic():
    a = json.dumps(verify_max_sixteen().to_json_dict(), sort_keys=True, indent=2)
    b = json.dumps(verify_max_sixteen().to_json_dict(), sort_keys=True, indent=2)
    assert a.encode() == b.encode()


def test_verify_all_checks_in_order():
    suite = verify_all()
    assert [name for name, _, _ in suite.checks] == [
        "beauville m=2 n_max=4",
        "beauville m=3 n_max=6",
        "beauville m=4 n_max=8",
        "no-extension m=3",
        "no-extension m=4",
        "kummer lattice",
        "even-eight lattice",
        "even-set sizes 0..100",
        "sixteen-curve theorem",
    ]
    assert suite.ok and suite.theorem.ok
    assert all(good for _, good, _ in suite.checks)
    assert suite.checks[3][2] == {"m": 3, "pairs": 12, "weights": [1, 3]}
    assert suite.checks[-1][2] == {"statement": suite.theorem.statement}
    with pytest.raises(dataclasses.FrozenInstanceError):
        suite.checks = ()


def test_suite_report_ok_needs_every_check():
    suite = verify_all()
    broken = SuiteReport(suite.checks + (("extra", False, {}),), suite.theorem)
    assert not broken.ok
    assert broken.to_json_dict()["ok"] is False
    assert broken.to_json_dict()["theorem_certificate"]["ok"] is True


def test_theorem_refuted_by_an_incomplete_witness_table(monkeypatch):
    full = duval.verify_no_extension

    def short(m):
        cert = full(m)
        return ExtensionCertificate(cert.m, cert.entries[:-1])

    monkeypatch.setattr(duval, "verify_no_extension", short)
    assert not verify_max_sixteen().ok
