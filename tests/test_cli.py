import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from k3nodal import cli, codes, duval, lattice
from k3nodal.cli import run

EQ2_ROWS = [
    "0101010101010101",
    "0011001100110011",
    "0000111100001111",
    "0000000011111111",
]


def _capture(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_code_rm_prints_generator_rows(capsys):
    rc, out, _ = _capture(capsys, ["code", "rm", "--degree", "1", "--m", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "1" * 16
    assert lines[1:] == EQ2_ROWS


def test_code_rm_json(capsys):
    rc, out, _ = _capture(capsys, ["code", "rm", "--degree", "0", "--m", "3", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"n": 8, "k": 1, "rows": ["1" * 8]}


def test_code_d_weights_pipeline(tmp_path, capsys):
    rc, out, _ = _capture(capsys, ["code", "d", "--m", "5"])
    assert rc == 0
    path = tmp_path / "d5.txt"
    path.write_text(out)
    rc, out, _ = _capture(capsys, ["code", "weights", "--in", str(path)])
    assert rc == 0
    assert out.splitlines() == ["n=16 k=5", "weight 0: 1", "weight 8: 30", "weight 16: 1"]


def test_code_weights_json(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    path.write_text("1111\n")
    rc, out, _ = _capture(capsys, ["code", "weights", "--in", str(path), "--json"])
    assert rc == 0
    assert json.loads(out) == {"n": 4, "k": 1, "counts": {"0": 1, "4": 1}}


def test_code_dual_roundtrip(tmp_path, capsys):
    path = tmp_path / "rep4.txt"
    path.write_text("1111\n")
    rc, out, _ = _capture(capsys, ["code", "dual", "--in", str(path)])
    assert rc == 0
    assert out.splitlines() == ["1001", "0101", "0011"]
    # dual of the full space prints a parseable zero row
    full = tmp_path / "full2.txt"
    full.write_text("10\n01\n")
    rc, out, _ = _capture(capsys, ["code", "dual", "--in", full.as_posix()])
    assert rc == 0
    assert out.strip() == "00"


def test_lattice_gamma(tmp_path, capsys):
    path = tmp_path / "d5.txt"
    run(["code", "d", "--m", "5"])
    path.write_text(capsys.readouterr().out)
    rc, out, _ = _capture(capsys, ["lattice", "gamma", "--in", str(path), "--neg"])
    assert rc == 0
    assert "rank 16" in out
    assert "integral true" in out
    assert "even true" in out
    assert "negative_definite true" in out
    assert "determinant 64" in out
    assert "elementary_divisors 2 2 2 2 2 2" in out


def test_lattice_gamma_non_integral(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("100\n")
    rc, out, _ = _capture(capsys, ["lattice", "gamma", "--in", str(path)])
    assert rc == 0
    assert "integral false" in out
    assert "even n/a" in out
    assert "1/2" in out


def test_lattice_kummer_json(capsys):
    rc, out, _ = _capture(capsys, ["lattice", "kummer", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 16
    assert payload["sign"] == -1
    assert payload["det"] == {"num": 64, "den": 1}
    assert payload["elementary_divisors"] == [2] * 6
    assert len(payload["gram2"]) == 16 and len(payload["gram2"][0]) == 16


def test_verify_beauville(capsys):
    rc, out, _ = _capture(capsys, ["verify", "beauville", "--m", "3", "--nmax", "6"])
    assert rc == 0
    assert "n=6 subspaces=1395 expected=1395" in out
    assert "VERIFIED" in out


def test_verify_beauville_json(capsys):
    rc, out, _ = _capture(capsys, ["verify", "beauville", "--m", "2", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["per_n"][0] == {"n": 2, "subspaces": 1, "expected": 1, "qualifying": 1}


def test_verify_beauville_refuted_does_not_claim_equivalence(capsys, monkeypatch):
    monkeypatch.setattr(codes, "_is_d_code", lambda c: False)
    rc, out, _ = _capture(capsys, ["verify", "beauville", "--m", "4", "--nmax", "8"])
    assert rc == 2
    lines = out.splitlines()
    assert "extremal length 8: 30 codes" in lines
    assert sum(line.startswith("COUNTEREXAMPLE n=8: extremal code [") for line in lines) == 30
    assert lines[-1] == "REFUTED"
    assert "all equivalent" not in out


def test_verify_no_seventeen(capsys):
    rc, out, _ = _capture(capsys, ["verify", "no-seventeen"])
    assert rc == 0
    assert "240" in out
    assert "THEOREM VERIFIED" in out


def test_verify_no_seventeen_json_deterministic(capsys):
    rc, first, _ = _capture(capsys, ["verify", "no-seventeen", "--json"])
    assert rc == 0
    rc, second, _ = _capture(capsys, ["verify", "no-seventeen", "--json"])
    assert rc == 0
    assert first.encode() == second.encode()
    payload = json.loads(first)
    assert payload["ok"] is True
    assert len(payload["seventeen_curve_step"]["pairs"]) == 240


def test_duval_check_admissible(capsys):
    rc, out, _ = _capture(capsys, ["duval", "check", "A1x16"])
    assert rc == 0
    assert "delta 16" in out
    assert "admissible" in out


def test_duval_check_inadmissible(capsys):
    rc, out, _ = _capture(capsys, ["duval", "check", "A1x17"])
    assert rc == 2
    assert "delta 17" in out
    assert "inadmissible" in out


def test_duval_check_json(capsys):
    rc, out, _ = _capture(capsys, ["duval", "check", "e8X4", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["config"] == "E8x4"
    assert payload["delta"] == 16
    assert payload["mu"] == 32
    assert payload["ratio"] == {"num": 1, "den": 2}
    assert payload["admissible"] is True


def test_duval_classify(capsys):
    rc, out, _ = _capture(capsys, ["duval", "classify-even-set", "--k", "8"])
    assert rc == 0
    assert "K3Cover" in out
    rc, out, _ = _capture(capsys, ["duval", "classify-even-set", "--k", "5", "--json"])
    assert rc == 2
    assert json.loads(out) == {"k": 5, "verdict": "Impossible", "euler_of_cover": None}


@pytest.mark.parametrize(
    "argv",
    [
        ["nonsense"],
        ["code", "rm", "--degree", "1"],
        ["code", "rm", "--degree", "1", "--m", "4", "--bogus"],
        ["duval", "check", "Z9"],
        ["code", "weights", "--in", "/nonexistent/file.txt"],
        ["verify", "beauville", "--m", "4", "--nmax", "9"],
        ["code", "d", "--m", "1"],
        ["duval", "check", "A1x0"],
        ["verify", "beauville", "--m", "40"],
        ["code", "d", "--m", "22"],
        ["code", "d", "--m", "30"],
        ["code", "rm", "--degree", "1", "--m", "26"],
        # 498,000 samples fit the budget, but each may sum 31 words
        ["verify", "beauville", "--m", "5", "--nmax", "1000"],
        # a count, or a delta and mu, too long for CPython's int-to-str limit
        ["duval", "check", "A1x" + "9" * 5000],
        ["duval", "check", "A" + "9" * 3000 + "x" + "9" * 3000],
    ],
)
def test_errors_exit_one(argv, capsys):
    t0 = time.perf_counter()
    rc, out, err = _capture(capsys, argv)
    assert time.perf_counter() - t0 < 1
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("m", ["20000", "1000000000"])
def test_verify_beauville_huge_dimension_is_refused(m, capsys):
    # the default n_max = 2^(m-1) has m - 1 bits; it is neither built nor
    # printed in decimal, which Python refuses beyond 4300 digits
    t0 = time.perf_counter()
    rc, out, err = _capture(capsys, ["verify", "beauville", "--m", m])
    assert time.perf_counter() - t0 < 1
    assert rc == 1
    assert out == ""
    assert err == (
        f"error: sampling subspaces of dimension {m} exceeds the budget of 1000000: "
        "testing the rank of one draw takes up to m(m-1)/2 row sums\n"
    )
    assert "integer string conversion" not in err


@pytest.mark.parametrize("m", [9, 10])
def test_lattice_gamma_rank_budget(m, capsys, tmp_path):
    # RM(1, m) has length 2^m > MAX_LATTICE_RANK
    assert run(["code", "rm", "--degree", "1", "--m", str(m)]) == 0
    path = tmp_path / f"rm1_{m}.txt"
    path.write_text(capsys.readouterr().out)
    t0 = time.perf_counter()
    rc, out, err = _capture(capsys, ["lattice", "gamma", "--in", str(path), "--json"])
    assert time.perf_counter() - t0 < 1
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "rank budget" in err


def test_verify_all_json_is_the_library_report(capsys):
    rc, out, _ = _capture(capsys, ["verify", "all", "--json"])
    assert rc == 0
    assert json.loads(out) == duval.verify_all().to_json_dict()


def test_verify_all_reports_a_failed_check(capsys, monkeypatch):
    def wrong(k):
        return duval.EvenSetClass(k, duval.CoverVerdict.K3_COVER, 48 - 3 * k)

    monkeypatch.setattr(duval, "classify_even_set", wrong)
    rc, out, _ = _capture(capsys, ["verify", "all"])
    assert rc == 2
    lines = out.splitlines()
    assert "FAILED even-set sizes 0..100" in lines
    assert "9 checks, FAILURES PRESENT" in lines
    assert lines[-1].startswith("THEOREM VERIFIED")  # the theorem does not use the sweep
    rc, out, _ = _capture(capsys, ["verify", "all", "--json"])
    assert rc == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["even-set sizes 0..100"]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["code", "--help"]) == 0
    capsys.readouterr()


def test_only_the_printed_rendering_is_built(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("a rendering that is not printed was built")

    monkeypatch.setattr(lattice, "format_gram", unused)
    assert _capture(capsys, ["lattice", "kummer", "--json"])[0] == 0
    monkeypatch.setattr(duval.SuiteReport, "to_json_dict", unused)
    assert _capture(capsys, ["verify", "all"])[0] == 0


def _fresh_run(argv):
    """(exit status, stdout, stderr) of ``python -m k3nodal.cli`` in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "k3nodal.cli", *argv], capture_output=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_prints_what_run_prints(capsys):
    # ``python -m k3nodal.cli`` goes through ``main``, which no in-process test calls
    fresh = _fresh_run(["verify", "no-seventeen"])
    rc, out, err = _capture(capsys, ["verify", "no-seventeen"])
    assert rc == 0
    assert fresh == (rc, out.encode(), err.encode())


def test_code_dual_budget(tmp_path, capsys):
    # the dual of RM(1, m) has 2^m - m - 1 rows of 2^m bits: 2036 x 2048 fits
    # MAX_GENERATOR_BITS at m = 11, 4083 x 4096 does not at m = 12
    for m in (11, 12):
        (tmp_path / f"rm1_{m}.txt").write_text(str(codes.reed_muller_generators(1, m)))
    rc, out, _ = _capture(capsys, ["code", "dual", "--in", str(tmp_path / "rm1_11.txt")])
    assert rc == 0
    assert len(out.splitlines()) == 2036
    t0 = time.perf_counter()
    rc, out, err = _capture(capsys, ["code", "dual", "--in", str(tmp_path / "rm1_12.txt")])
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (1, "")
    assert err == (
        f"error: 4083 x 4096 dual generator bits exceed the budget of {codes.MAX_GENERATOR_BITS}\n"
    )


def test_run_keeps_no_state_between_calls(tmp_path, capsys):
    # a good command, a usage error, a budget refusal and the good command
    # again, in one process, each print and exit as in a new interpreter
    good, refused = tmp_path / "d5.txt", tmp_path / "rm1_12.txt"
    good.write_text(str(codes.reed_muller_generators(1, 4)))
    refused.write_text(str(codes.reed_muller_generators(1, 12)))
    calls = [
        ["code", "dual", "--in", str(good), "--json"],
        ["code", "rm", "--m", "4"],
        ["code", "dual", "--in", str(refused)],
        ["code", "dual", "--in", str(good), "--json"],
    ]
    results = []
    for argv in calls:
        rc, out, err = _capture(capsys, argv)
        results.append((rc, out.encode(), err.encode()))
    assert [rc for rc, _, _ in results] == [0, 1, 1, 0]
    assert results[0] == results[3]
    assert results == [_fresh_run(argv) for argv in calls]


def test_byte_identical_reruns(capsys):
    for argv in (
        ["lattice", "kummer"],
        ["duval", "check", "A2,D4x2,E7", "--json"],
        ["verify", "beauville", "--m", "3", "--nmax", "5", "--json"],
    ):
        rc, first, _ = _capture(capsys, argv)
        rc2, second, _ = _capture(capsys, argv)
        assert (rc, first) == (rc2, second)
        assert first.encode() == second.encode()
