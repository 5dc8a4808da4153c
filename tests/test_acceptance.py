"""Acceptance suite: one test per criterion, each printing a pass line.

All results are exact integers, so assertions are exact equality; the
stated runtime budgets are enforced with perf_counter around the
operation under test.
"""

import json
import random
import time

from k3nodal.cli import run
from k3nodal.codes import (
    code_d,
    from_generators,
    gaussian_binomial,
    is_isotropic,
    reed_muller_generators,
    verify_beauville,
    verify_no_extension,
    weight_distribution,
)
from k3nodal.duval import AdmissibilityReport, CoverVerdict, DuValConfig, classify_even_set
from k3nodal.gf2 import Gf2Matrix
from k3nodal.lattice import (
    determinant,
    discriminant_group,
    gamma_from_code,
    is_even,
    is_integral,
    is_negative_definite,
    kummer_lattice,
    leading_principal_minors,
)
from oracles import dynkin_adjacency, tree_mis

EQ2_ROWS = [
    "0101010101010101",
    "0011001100110011",
    "0000111100001111",
    "0000000011111111",
]


def _report(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def delta(cfg: DuValConfig) -> int:
    return AdmissibilityReport(cfg).delta


def test_criterion_1_reed_muller_fidelity(capsys):
    reed_muller_generators(1, 4)  # warm any lazy setup before timing
    t0 = time.perf_counter()
    gens = reed_muller_generators(1, 4)
    elapsed = time.perf_counter() - t0
    rows = str(gens).splitlines()
    assert rows[0] == "1" * 16
    assert rows[1:] == EQ2_ROWS
    assert elapsed < 0.001
    rc = run(["code", "rm", "--degree", "1", "--m", "4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "1" * 16 and out[1:] == EQ2_ROWS
    with capsys.disabled():
        _report(1, f"coordinate-function rows reproduced in {elapsed * 1e6:.0f}us")


def test_criterion_2_d_code_weight_spectra(capsys):
    t0 = time.perf_counter()
    for m in range(3, 8):
        counts = weight_distribution(code_d(m)).counts
        assert counts == {0: 1, 1 << (m - 2): (1 << m) - 2, 1 << (m - 1): 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    with capsys.disabled():
        _report(2, f"spectra for m=3..7 enumerated in {elapsed * 1e3:.1f}ms")


def test_criterion_3_beauville_exhaustive(capsys):
    t0 = time.perf_counter()
    report = verify_beauville(4, 8)
    elapsed = time.perf_counter() - t0
    assert report.ok
    at_8 = next(s for s in report.per_n if s.n == 8)
    assert at_8.examined == 200787
    assert at_8.examined == gaussian_binomial(8, 4)
    assert all(s.qualifying == 0 for s in report.per_n if s.n < 8)
    assert report.extremal_count == at_8.qualifying > 0
    assert elapsed < 30
    with capsys.disabled():
        _report(
            3,
            f"200787 subspaces of F_2^8 scanned in {elapsed:.2f}s, "
            f"{report.extremal_count} extremal codes all equivalent to D_4",
        )


def test_criterion_4_no_seventeen_certificate(capsys):
    verify_no_extension(5)  # warm-up
    t0 = time.perf_counter()
    cert = verify_no_extension(5)
    elapsed = time.perf_counter() - t0
    assert len(cert.entries) == 240
    assert cert.witness_weights() == {7, 9}
    first = json.dumps(cert.to_json_dict(), sort_keys=True, indent=2).encode()
    second = json.dumps(verify_no_extension(5).to_json_dict(), sort_keys=True, indent=2).encode()
    assert first == second
    assert elapsed < 0.01
    with capsys.disabled():
        _report(4, f"240 witnesses with weights {{7,9}} in {elapsed * 1e3:.2f}ms, byte-identical")


def test_criterion_5_kummer_lattice(capsys):
    t0 = time.perf_counter()
    lat = kummer_lattice()
    assert is_integral(lat)
    assert is_even(lat)
    minors = leading_principal_minors(lat)
    assert len(minors) == 16
    assert all(m != 0 and (m > 0) == (t % 2 == 0) for t, m in enumerate(minors, start=1))
    assert is_negative_definite(lat)
    assert determinant(lat) == 64
    assert discriminant_group(lat).elementary_divisors == (2,) * 6
    for i in range(16):
        doubled_unit = tuple(2 if t == i else 0 for t in range(16))
        assert lat.contains(doubled_unit)
        assert lat.norm_of(doubled_unit) == -2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    with capsys.disabled():
        _report(5, f"integral even negative-definite, det 64, (Z/2)^6, 16 norm -2 vectors in {elapsed * 1e3:.0f}ms")


def test_criterion_6_integral_iff_isotropic(capsys):
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 12)
        rows = rng.randint(0, n)
        code = from_generators(Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(rows)], n))
        assert is_integral(gamma_from_code(code)) == is_isotropic(code)
        checked += 1
    with capsys.disabled():
        _report(6, f"integrality equals isotropy on {checked} random codes")


def test_criterion_7_even_set_classification(capsys):
    for k in range(0, 101):
        result = classify_even_set(k)
        euler = 48 - 3 * k
        if k == 0:
            assert result.verdict is CoverVerdict.EMPTY
        elif euler == 24:
            assert k == 8 and result.verdict is CoverVerdict.K3_COVER
        elif euler == 0:
            assert k == 16 and result.verdict is CoverVerdict.TORUS_COVER
        else:
            assert result.verdict is CoverVerdict.IMPOSSIBLE
            assert euler % 12 != 0 or (2 - euler // 12) not in (0, 2)
    with capsys.disabled():
        _report(7, "K3 cover exactly at k=8 and torus cover exactly at k=16 over k<=100")


def test_criterion_8_delta_mu_calculator(capsys):
    assert AdmissibilityReport(DuValConfig.parse("A1x16")).admissible
    assert delta(DuValConfig.parse("A1x16")) == 16
    seventeen = AdmissibilityReport(DuValConfig.parse("A1x17"))
    assert seventeen.delta == 17 and not seventeen.admissible
    for term in ("E8x4", "E7x4", "D6x4", "D7x4"):
        report = AdmissibilityReport(DuValConfig.parse(term))
        assert report.delta == 16 and report.admissible
    for letter, indices in (("A", range(1, 21)), ("D", range(4, 21)), ("E", (6, 7, 8))):
        for n in indices:
            cfg = DuValConfig(**{letter.lower(): {n: 1}})
            assert delta(cfg) == tree_mis(dynkin_adjacency(letter, n))
    with capsys.disabled():
        _report(8, "delta/mu verdicts and Dynkin-tree oracle agreement for all single types n<=20")


def test_criterion_9_verify_all_end_to_end(capsys):
    t0 = time.perf_counter()
    rc = run(["verify", "all", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    cert = payload["theorem_certificate"]
    assert cert["ok"] is True
    assert cert["statement"] == "a complex K3 surface carries at most 16 disjoint nodal curves"
    assert len(cert["seventeen_curve_step"]["pairs"]) == 240
    assert elapsed < 60
    with capsys.disabled():
        _report(9, f"verify all composed the theorem certificate in {elapsed:.2f}s")
