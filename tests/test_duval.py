import collections.abc
import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest

from k3nodal import duval
from k3nodal.codes import ExtensionCertificate, code_d, verify_no_extension
from k3nodal.duval import (
    AdmissibilityReport,
    CoverVerdict,
    DuValConfig,
    EvenSetClass,
    NodalCodeConstraints,
    SuiteReport,
    TheoremCertificate,
    classify_even_set,
    code_dim_lower_bound,
    verify_all,
    verify_max_sixteen,
)
from k3nodal.cli import run
from k3nodal.codes import LinearCode
from oracles import Index, brute_mis, dynkin_adjacency, tree_mis


def delta(cfg: DuValConfig) -> int:
    return AdmissibilityReport(cfg).delta


def milnor(cfg: DuValConfig) -> int:
    return AdmissibilityReport(cfg).mu


def test_classify_examples():
    assert classify_even_set(8).verdict is CoverVerdict.K3_COVER
    assert classify_even_set(8).euler_of_cover == 24
    assert classify_even_set(16).verdict is CoverVerdict.TORUS_COVER
    assert classify_even_set(16).euler_of_cover == 0
    assert classify_even_set(4).verdict is CoverVerdict.IMPOSSIBLE
    assert classify_even_set(0).verdict is CoverVerdict.EMPTY
    assert classify_even_set(0) == EvenSetClass(0, CoverVerdict.EMPTY, 48)
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
    # n - 22/2, clamped at 0
    assert code_dim_lower_bound(16) == 5
    assert code_dim_lower_bound(17) == 6
    assert code_dim_lower_bound(8) == 0
    assert code_dim_lower_bound(11) == 0
    assert code_dim_lower_bound(0) == 0
    with pytest.raises(ValueError):
        code_dim_lower_bound(-1)


def test_nodal_code_constraints():
    c16 = NodalCodeConstraints(16)
    assert c16.allowed_nonzero_weights == (8, 16)
    assert c16.dim_lower_bound == 5
    assert c16.forced_code_name == "D5"
    assert c16.forced_code == code_d(5)
    # eight curves have the zero code or the all-ones line: neither is forced
    c8 = NodalCodeConstraints(8)
    assert c8.allowed_nonzero_weights == (8,)
    assert c8.forced_code is None and c8.forced_code_name is None
    for n in range(1, 8):
        c = NodalCodeConstraints(n)
        assert c.allowed_nonzero_weights == ()
        assert c.forced_code == LinearCode.zero(n) and c.forced_code_name == "zero"
    c12 = NodalCodeConstraints(12)
    assert c12.allowed_nonzero_weights == (8,)
    assert c12.forced_code is None
    with pytest.raises(ValueError):
        NodalCodeConstraints(0)
    # the weights and the dimension bound are read from n alone
    for n in range(1, 65):
        c = NodalCodeConstraints(n)
        assert c.allowed_nonzero_weights == tuple(w for w in (8, 16) if w <= n)
        assert c.dim_lower_bound == max(0, n - 11) == code_dim_lower_bound(n)
        assert c == NodalCodeConstraints(n)
        moved, there = dataclasses.replace(c, n=n + 1), NodalCodeConstraints(n + 1)
        assert moved.allowed_nonzero_weights == there.allowed_nonzero_weights
        assert moved.dim_lower_bound == there.dim_lower_bound
    with pytest.raises(TypeError):
        NodalCodeConstraints(16, (8, 16), 5, code_d(5), "D5")
    with pytest.raises(TypeError):
        NodalCodeConstraints(16, code_d(5), "D5")
    with pytest.raises(TypeError):
        NodalCodeConstraints(16, forced_code=code_d(5))
    with pytest.raises(TypeError):
        NodalCodeConstraints(16, forced_code_name="D5")


def test_nodal_code_constraints_are_read_from_n_alone():
    for n in range(1, 65):
        c = NodalCodeConstraints(n)
        if n == 16:
            assert (c.forced_code, c.forced_code_name) == (code_d(5), "D5")
        elif n < 8:
            assert (c.forced_code, c.forced_code_name) == (LinearCode.zero(n), "zero")
        else:
            assert (c.forced_code, c.forced_code_name) == (None, None)
        # every derived field follows n, the forced code included
        assert dataclasses.replace(c, n=n + 1) == NodalCodeConstraints(n + 1)
    # no size above 48 / 3 = 16 is a cover, so the sizes tried stop there
    big = NodalCodeConstraints(10**9)
    assert big.allowed_nonzero_weights == (8, 16)
    assert big.forced_code is None and big.dim_lower_bound == 10**9 - 11


def test_nodal_code_weights_are_the_cover_sizes(monkeypatch):
    tried = []

    def every_size_a_torus(k):
        tried.append(k)
        return duval.EvenSetClass(k, CoverVerdict.TORUS_COVER, 0)

    monkeypatch.setattr(duval, "classify_even_set", every_size_a_torus)
    assert NodalCodeConstraints(12).allowed_nonzero_weights == tuple(range(1, 13))
    tried.clear()
    assert NodalCodeConstraints(40).allowed_nonzero_weights == tuple(range(1, 17))
    assert tried == list(range(1, 17))


@pytest.mark.parametrize(
    "function",
    [
        classify_even_set,
        code_dim_lower_bound,
        pytest.param(NodalCodeConstraints, id="nodal_code_constraints"),
    ],
)
@pytest.mark.parametrize("bad", [8.0, 16.5, True, False, "8", None, Fraction(8)])
def test_curve_counts_refuse_bools_and_non_integers(function, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        function(bad)


def test_curve_counts_normalize_index_objects_to_ints():
    assert classify_even_set(Index(8)) == classify_even_set(8)
    assert type(classify_even_set(Index(8)).euler_of_cover) is int
    assert code_dim_lower_bound(Index(16)) == 5
    c16 = NodalCodeConstraints(Index(16))
    assert c16 == NodalCodeConstraints(16)
    assert type(c16.n) is int
    assert NodalCodeConstraints(Index(3)).forced_code == LinearCode.zero(3)
    built = NodalCodeConstraints(Index(16))
    assert built == c16 and type(built.n) is int
    for bad in (16.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            NodalCodeConstraints(bad)


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
    report = AdmissibilityReport(DuValConfig.parse(f"A{widest}x{widest},A{widest}x{widest}"))
    # every accepted configuration prints within CPython's int-to-str limit
    assert len(str(report.mu)) == 2 * duval.MAX_TERM_DIGITS + 1
    json.dumps(report.to_json_dict())
    for bad in (f"A{widest}9", f"A1x{widest}9"):
        with pytest.raises(ValueError, match="more than 2000 digits"):
            DuValConfig.parse(bad)


# pieces of configuration texts: the grammar's own tokens, and characters
# near it (other letters and separators, signs, non-ASCII digits)
_CONFIG_PIECES = [*"ADEadexX,, F-+_0123456789", "\t", "\u0661", "\uff11"]


def random_config_text(rng):
    """A short random text; about one in five parses as a configuration."""
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.7:
            term = rng.choice("ADEade") + str(rng.choice([0, 1, 2, 4, 6, 7, 8, 12, 16, 3, 5]))
            if rng.random() < 0.5:
                term += rng.choice("xX") + rng.choice(["0", "1", "2", "3", "16", "017"])
            pieces.append(term)
        else:
            pieces.append("".join(rng.choice(_CONFIG_PIECES) for _ in range(rng.randrange(4))))
        pieces.append(rng.choice([",", ",", ", ", ",,", " "]))
    return "".join(pieces[:-1])


def test_parse_fuzzed_texts_return_or_raise_value_error():
    rng = random.Random(29)
    parsed = 0
    for _ in range(2000):
        text = random_config_text(rng)
        try:
            cfg = DuValConfig.parse(text)
        except ValueError:
            continue
        parsed += 1
        # what parse returns prints a canonical text that parses back to it
        assert cfg.canonical() != "(empty)", text
        assert DuValConfig.parse(cfg.canonical()) == cfg, text
        assert DuValConfig.parse(cfg.canonical()).canonical() == cfg.canonical()
    assert 300 < parsed < 1000


def test_config_refuses_non_integer_indices_and_counts():
    for kwargs in (
        {"a": {True: 1}},
        {"a": {2.5: 1}},
        {"d": {"4": 1}},
        {"e": {None: 1}},
        {"a": {1: True}},
        {"a": {1: 1.0}},
        {"e": {8: Fraction(1)}},
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            DuValConfig(**kwargs)
    # the full refusal texts, which are formatted only for a refused value
    for kwargs, text in (
        ({"d": {"4": 1}}, "the index of D must be an integer, got '4'"),
        ({"a": {1: 2.5}}, "the count of A1 must be an integer, got 2.5"),
        ({"e": {None: 1}}, "the index of E must be an integer, got None"),
        ({"a": {1: True}}, "the count of A1 must be an integer, got True"),
    ):
        with pytest.raises(ValueError) as refused:
            DuValConfig(**kwargs)
        assert str(refused.value) == text
    with pytest.raises(ValueError, match="negative count for A1"):
        DuValConfig(a={1: -1})


def test_config_normalizes_index_objects_to_ints():
    cfg = DuValConfig(a={Index(2): Index(3)}, e={Index(8): 1})
    assert cfg == DuValConfig(a={2: 3}, e={8: 1})
    assert cfg.canonical() == "A2x3,E8"
    assert all(type(x) is int for x in (*cfg.a, *cfg.a.values(), *cfg.e))
    assert delta(cfg) == 3 + 4
    # two keys that normalize to one index add their counts, as parse does
    merged = DuValConfig(a={1: 2, Index(1): 3}, d={Index(4): 1, 4: 0})
    assert merged.a == {1: 5} and merged.d == {4: 1}
    assert merged == DuValConfig.parse("A1x2,A1x3,D4")
    assert delta(merged) == 5 + 3
    # unsorted maps are stored in ascending index order, which terms(),
    # canonical() and the JSON breakdown all follow
    mixed = DuValConfig(a={12: 1, Index(2): 1, 7: 3}, e={8: 1, 6: 2})
    assert list(mixed.a.items()) == [(2, 1), (7, 3), (12, 1)]
    assert list(mixed.e.items()) == [(6, 2), (8, 1)]
    assert list(mixed.terms()) == [("A", 2, 1), ("A", 7, 3), ("A", 12, 1), ("E", 6, 2), ("E", 8, 1)]
    assert mixed.canonical() == "A2,A7x3,A12,E6x2,E8"
    per_type = AdmissibilityReport(mixed).to_json_dict()["per_type"]
    assert [t["type"] for t in per_type] == ["A2", "A7", "A12", "E6", "E8"]


def test_config_maps_are_read_only():
    cfg = DuValConfig(a={2: 1})
    for counts in (cfg.a, cfg.d, cfg.e):
        with pytest.raises(TypeError):
            counts[1] = 1
    assert not hasattr(cfg.a, "pop") and not hasattr(cfg.a, "update")
    # the refused writes left the configuration as it was
    assert cfg.a == {2: 1} and cfg.d == {} and cfg.e == {}
    assert cfg.canonical() == "A2" and cfg == DuValConfig.parse("A2")
    assert cfg != DuValConfig.parse("A2,A1")
    # replace builds a new configuration, validated like any other
    assert dataclasses.replace(cfg, d={4: 2}) == DuValConfig.parse("A2,D4x2")
    assert dataclasses.replace(cfg).a == {2: 1}
    with pytest.raises(ValueError, match="A0 is not a du Val singularity type"):
        dataclasses.replace(cfg, a={0: 3})


def test_config_survives_copy_and_pickle():
    cfg = DuValConfig.parse("A2,D4x2,E7")
    report = AdmissibilityReport(cfg)
    for copied in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert copied == cfg and copied.canonical() == "A2,D4x2,E7"
        with pytest.raises(TypeError):
            copied.e[8] = 1
    assert copy.deepcopy(report) == report == pickle.loads(pickle.dumps(report))


def test_config_hashes_as_it_compares():
    parsed, built = DuValConfig.parse("A1,A1"), DuValConfig(a={1: 2})
    assert parsed == built and hash(parsed) == hash(built)
    assert {parsed, built, DuValConfig.parse("A1x2,D4"), DuValConfig(a={1: 2}, d={4: 1})} == {
        built, DuValConfig.parse("D4,A1x2")}
    table = {parsed: "two nodes"}
    assert table[built] == "two nodes"
    assert DuValConfig.parse("A1") not in table and DuValConfig.parse("A1x2,E6") not in table
    # copies and replacements hash like their originals; a zero count is no term
    for copied in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed)),
                   dataclasses.replace(built), dataclasses.replace(DuValConfig(), a={1: 2})):
        assert copied in table and hash(copied) == hash(parsed)
    assert {DuValConfig(), DuValConfig(a={1: 0}, e={7: 0})} == {DuValConfig()}
    assert repr(parsed) == repr(built) == "DuValConfig(a=mappingproxy({1: 2}), d=mappingproxy({}), e=mappingproxy({}))"


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
    seventeen = AdmissibilityReport(DuValConfig.parse("A1x17"))
    assert not seventeen.admissible
    assert seventeen.delta == 17
    assert seventeen.reasons
    four_e8 = AdmissibilityReport(DuValConfig.parse("E8x4"))
    assert four_e8.admissible
    assert (four_e8.delta, four_e8.mu) == (16, 32)
    assert four_e8.ratio == Fraction(1, 2)
    sixteen_a2 = AdmissibilityReport(DuValConfig.parse("A2x16"))
    assert sixteen_a2.admissible
    assert (sixteen_a2.delta, sixteen_a2.mu) == (16, 32)
    empty = AdmissibilityReport(DuValConfig())
    assert empty.admissible and empty.ratio is None


def test_admissible_iff_delta_at_most_16():
    rng = random.Random(97)
    for _ in range(60):
        counts = {n: rng.randint(0, 3) for n in rng.sample(range(1, 12), 3)}
        cfg = DuValConfig(a=counts)
        assert AdmissibilityReport(cfg).admissible == (delta(cfg) <= 16)


def test_admissibility_report_is_computed_from_its_config():
    rng = random.Random(151)
    for _ in range(200):
        cfg = DuValConfig(
            a={n: rng.randint(0, 4) for n in rng.sample(range(1, 30), rng.randint(0, 4))},
            d={n: rng.randint(0, 3) for n in rng.sample(range(4, 30), rng.randint(0, 3))},
            e={n: rng.randint(0, 3) for n in rng.sample((6, 7, 8), rng.randint(0, 3))},
        )
        report = AdmissibilityReport(cfg)
        assert report == AdmissibilityReport(cfg)
        # the sums checked against the Dynkin-tree oracle and the indices
        terms = list(cfg.terms())
        assert report.delta == sum(c * tree_mis(dynkin_adjacency(letter, n)) for letter, n, c in terms)
        assert report.mu == sum(n * c for _, n, c in terms)
        assert report.admissible == (report.delta <= 16) == (not report.reasons)
    seventeen = AdmissibilityReport(DuValConfig.parse("A1x17"))
    assert dataclasses.replace(seventeen, config=DuValConfig.parse("A1x16")).admissible
    for derived in ("delta", "mu", "ratio", "nodal_count_per_type", "admissible", "reasons"):
        with pytest.raises(TypeError):
            AdmissibilityReport(seventeen.config, **{derived: getattr(seventeen, derived)})


def test_admissible_json_schema():
    payload = AdmissibilityReport(DuValConfig.parse("A1x16")).to_json_dict()
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
    report = AdmissibilityReport(DuValConfig.parse("A16x4"))
    assert report.delta == 32
    assert not report.admissible


def test_verify_max_sixteen():
    cert = verify_max_sixteen()
    assert cert.ok
    assert len(cert.seventeen_step.entries) == 240
    assert cert.sixteen_step["forced_code"] == "D5"
    assert cert.sixteen_step["dim_lower_bound"] == 5


def test_theorem_verdict_follows_its_steps():
    cert = verify_max_sixteen()
    s = cert.sixteen_step
    assert dataclasses.replace(cert).ok
    wrong = dataclasses.replace(cert, sixteen_step={**s, "forced_code_weight_counts": {"0": 1, "8": 31}})
    assert not wrong.ok and wrong.to_json_dict()["ok"] is False
    for key, value in (
        ("dim_lower_bound", 4),
        ("allowed_nonzero_weights", [8]),
        ("length_is_extremal", False),
        ("forced_code_passes_characterization", False),
    ):
        assert not dataclasses.replace(cert, sixteen_step={**s, key: value}).ok, key
    full = cert.seventeen_step
    short = TheoremCertificate(
        cert.statement, s, ExtensionCertificate(full.m, full.entries[:-1]), cert.monotonicity
    )
    assert not short.ok
    with pytest.raises(TypeError):
        TheoremCertificate(cert.statement, s, full, cert.monotonicity, True)
    with pytest.raises(TypeError):
        TheoremCertificate(cert.statement, s, full, cert.monotonicity, ok=True)


def test_theorem_document_is_a_copy():
    cert = verify_max_sixteen()
    before = json.dumps(cert.to_json_dict(), sort_keys=True)
    doc = cert.to_json_dict()
    doc["sixteen_curve_step"]["dim_lower_bound"] = 4
    doc["sixteen_curve_step"]["forced_code_weight_counts"]["8"] = 31
    doc["sixteen_curve_step"]["allowed_nonzero_weights"].append(12)
    assert cert.sixteen_step["dim_lower_bound"] == 5
    assert cert.sixteen_step["forced_code_weight_counts"] == {"0": 1, "8": 30, "16": 1}
    assert cert.sixteen_step["allowed_nonzero_weights"] == [8, 16]
    assert json.dumps(cert.to_json_dict(), sort_keys=True) == before
    assert cert.ok and dataclasses.replace(cert).ok


def test_theorem_verdict_follows_an_edited_step(monkeypatch, capsys):
    # the step is a plain dict a caller can edit; the verdict, the document
    # and the CLI's text and exit status all read the edited data
    cert = verify_max_sixteen()
    assert cert.ok
    cert.sixteen_step["dim_lower_bound"] = 4
    assert not cert.ok and cert.to_json_dict()["ok"] is False
    monkeypatch.setattr(duval, "verify_max_sixteen", lambda: cert)
    capsys.readouterr()
    assert run(["verify", "no-seventeen"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sixteen curves: code dimension >= 4,")
    assert lines[-1] == f"THEOREM REFUTED: {cert.statement}"
    cert.sixteen_step["dim_lower_bound"] = 5
    assert cert.ok
    assert run(["verify", "no-seventeen"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"THEOREM VERIFIED: {cert.statement}"


def test_extension_certificate_keeps_its_table():
    # the witness table is stored as a tuple, so the verdict computed on
    # first read cannot go stale
    entries = list(verify_no_extension(4).entries)
    cert = ExtensionCertificate(4, entries)
    assert cert.ok and isinstance(cert.entries, tuple)
    entries.pop()
    assert len(cert.entries) == 56 and cert.ok


def test_verify_max_sixteen_deterministic():
    a = json.dumps(verify_max_sixteen().to_json_dict(), sort_keys=True, indent=2)
    b = json.dumps(verify_max_sixteen().to_json_dict(), sort_keys=True, indent=2)
    assert a.encode() == b.encode()


def test_theorem_certificate_is_unhashable():
    # its sixteen-curve step is an editable dict
    cert = verify_max_sixteen()
    assert not isinstance(cert, collections.abc.Hashable)
    with pytest.raises(TypeError, match="unhashable type: 'TheoremCertificate'"):
        hash(cert)
    assert dataclasses.replace(cert) == cert == copy.deepcopy(cert) == pickle.loads(pickle.dumps(cert))


def test_suite_report_is_unhashable():
    # its check details are dicts
    suite = verify_all()
    assert not isinstance(suite, collections.abc.Hashable)
    with pytest.raises(TypeError, match="unhashable type: 'SuiteReport'"):
        hash(suite)
    assert dataclasses.replace(suite) == suite == copy.deepcopy(suite) == pickle.loads(pickle.dumps(suite))


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


def test_suite_report_ok_needs_the_theorem():
    suite = verify_all()
    theorem = suite.theorem
    full = theorem.seventeen_step
    short = ExtensionCertificate(full.m, full.entries[:-1])
    assert len(short.entries) == 239
    refuted = TheoremCertificate(theorem.statement, theorem.sixteen_step, short, theorem.monotonicity)
    assert not refuted.ok
    # every check passes, but the verdict cannot contradict the certificate
    report = SuiteReport(suite.checks, refuted)
    assert all(good for _, good, _ in report.checks)
    assert not report.ok
    assert report.to_json_dict()["ok"] is False
    assert report.to_json_dict()["theorem_certificate"]["ok"] is False


def test_suite_document_is_a_copy():
    suite = verify_all()
    before = json.dumps(suite.to_json_dict(), sort_keys=True)
    doc = suite.to_json_dict()
    doc["checks"][0]["detail"]["ok"] = "edited"
    doc["checks"][0]["detail"]["per_n"][0]["qualifying"] = 2
    doc["checks"][3]["detail"]["weights"].append(5)
    assert suite.checks[0][2]["ok"] is True
    assert suite.checks[0][2]["per_n"][0]["qualifying"] == 1
    assert suite.checks[3][2] == {"m": 3, "pairs": 12, "weights": [1, 3]}
    assert json.dumps(suite.to_json_dict(), sort_keys=True) == before


def test_theorem_refuted_by_an_incomplete_witness_table(monkeypatch):
    full = duval.verify_no_extension

    def short(m):
        cert = full(m)
        return ExtensionCertificate(cert.m, cert.entries[:-1])

    monkeypatch.setattr(duval, "verify_no_extension", short)
    assert not verify_max_sixteen().ok


def test_theorem_refuted_by_a_wrong_witness_weight(monkeypatch, capsys):
    full = duval.verify_no_extension

    def wrong(m):
        cert = full(m)
        bad = cert.entries[0]._replace(weight=cert.block_length // 2)
        return ExtensionCertificate(cert.m, (bad,) + cert.entries[1:])

    monkeypatch.setattr(duval, "verify_no_extension", wrong)
    cert = verify_max_sixteen()
    assert not cert.seventeen_step.ok and not cert.ok
    capsys.readouterr()
    assert run(["verify", "no-seventeen"]) == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith("THEOREM REFUTED: ")
