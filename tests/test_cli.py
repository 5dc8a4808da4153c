import argparse
import contextlib
import enum
import io
import itertools
import json
import os
import random
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import k3nodal
from k3nodal import cli, codes, duval, lattice
from k3nodal.cli import run
from test_duval import random_config_text
from test_gf2 import NOT_NEWLINES, random_matrix_text
from test_golden import GOLDEN_CLI, code_files  # noqa: F401 (code_files is a fixture)

# stands for a file of a random [4096, 24] code, written by the test: 2^24
# codewords fit the dimension budget, 4096 x 2^24 codeword bits do not
WIDE_CODE = "<random [4096, 24] code>"
# stands for a code file one character longer than MAX_GENERATOR_BITS
LONG_FILE = "<code file past the budget>"

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
    # padded with blank lines to exactly the read budget, it is still D_5
    padded = tmp_path / "d5_padded.txt"
    padded.write_text(path.read_text().ljust(codes.MAX_GENERATOR_BITS, "\n"))
    assert _capture(capsys, ["code", "weights", "--in", str(padded)]) == (rc, out, "")


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


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_code_file_row_that_holds_another_line_break_is_refused(char, tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_bytes(f"01{char}10\n".encode())
    rc, out, err = _capture(capsys, ["code", "weights", "--in", str(path)])
    assert (rc, out) == (1, "") and err.startswith("error: not a 0/1 row: '01")


def test_code_files_with_crlf_or_cr_line_ends_parse(tmp_path, capsys):
    results = []
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "code.txt"
        path.write_bytes("".join(row + newline for row in EQ2_ROWS).encode())
        results.append(_capture(capsys, ["code", "weights", "--in", str(path)]))
    assert results[0][:2] == (0, "n=16 k=4\nweight 0: 1\nweight 8: 15\n")
    assert results == [results[0]] * 3


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


@pytest.mark.parametrize("m, n_max, mode", [(4, 5, "exhaustive"), (5, 6, "sampled")])
def test_verify_beauville_below_the_extremal_length_claims_only_its_scan(m, n_max, mode, capsys):
    # no length from n_max + 1 to 2^(m-1) was scanned, so the text claims
    # neither the minimal length nor the equality case
    argv = ["verify", "beauville", "--m", str(m), "--nmax", str(n_max)]
    rc, out, _ = _capture(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == f"beauville m={m} n_max={n_max} mode={mode}"
    verdict = {
        "exhaustive": f"VERIFIED: no qualifying code up to n_max={n_max}",
        "sampled": f"SAMPLED: no counterexample among the sampled codes up to n_max={n_max}",
    }
    assert lines[-2:] == [f"extremal length {2 ** (m - 1)}: not reached (n_max={n_max})", verdict[mode]]
    assert "equivalent" not in out and "2^(m-1)" not in out
    # the JSON document and the exit status are those of the report
    rc, out, _ = _capture(capsys, argv + ["--json"])
    assert rc == 0
    assert json.loads(out) == codes.verify_beauville(m, n_max).to_json_dict()
    assert json.loads(out)["extremal"] == {"n": 2 ** (m - 1), "count": 0}


def test_sampled_scan_verifies_nothing(capsys):
    # m >= 5 is sampled: the scan reaches the extremal length and finds D_5
    # there, but a sample cannot verify either claim
    rc, out, _ = _capture(capsys, ["verify", "beauville", "--m", "5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "beauville m=5 n_max=16 mode=sampled"
    assert lines[-1] == "SAMPLED: no counterexample among the sampled codes up to n_max=16"
    assert "VERIFIED" not in out


def test_verify_beauville_refuted_does_not_claim_equivalence(capsys, monkeypatch):
    monkeypatch.setattr(codes, "_is_d_code", lambda rows, n: False)
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
        # int() reads these as 5 and 8; the int options read ASCII digits only
        ["code", "d", "--m", "\u0665"],
        ["duval", "classify-even-set", "--k", "0_8"],
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
        # Arabic-Indic and fullwidth digits are not ASCII digits
        ["duval", "check", "A\u0661\u0666"],
        ["duval", "check", "A1x\uff11\uff16"],
        # refused on m alone, before the binomials are summed
        ["code", "rm", "--degree", "8000", "--m", "16000"],
        ["code", "weights", "--in", WIDE_CODE],
        ["code", "weights", "--in", LONG_FILE],
        ["code", "dual", "--in", LONG_FILE],
        ["lattice", "gamma", "--in", LONG_FILE],
    ],
)
def test_errors_exit_one(argv, capsys, tmp_path):
    wide, long = WIDE_CODE in argv, LONG_FILE in argv
    if wide:
        rng = random.Random(4096)
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(format(rng.getrandbits(4096), "04096b") for _ in range(24)))
        argv = [str(path) if a == WIDE_CODE else a for a in argv]
    if long:
        # D_5's rows, padded with blank lines to one character past the budget
        path = tmp_path / "long.txt"
        path.write_text(str(codes.code_d(5).gen).ljust(codes.MAX_GENERATOR_BITS + 1, "\n"))
        argv = [str(path) if a == LONG_FILE else a for a in argv]
    t0 = time.perf_counter()
    rc, out, err = _capture(capsys, argv)
    assert time.perf_counter() - t0 < 1
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "set_int_max_str_digits" not in err
    if argv[:2] == ["duval", "check"] and not argv[2].isascii():
        assert err.startswith("error: cannot parse term")
    if argv[3:] in (["\u0665"], ["0_8"]):
        assert err == f"error: argument {argv[2]}: invalid int value: {argv[3]!r}\n"
    if argv[:2] == ["code", "rm"] and "16000" in argv:
        assert f"budget of {codes.MAX_GENERATOR_BITS}" in err
    if wide:
        assert err == (
            "error: enumerating 2^24 codewords of length 4096 exceeds the budget of "
            "2^34 codeword bits\n"
        )
    if long:
        assert err == (
            f"error: a code file of over {codes.MAX_GENERATOR_BITS} characters exceeds the budget\n"
        )


@pytest.mark.parametrize(
    "value, read",
    [("5", "5"), (" 5", "5"), ("+5", "5"), ("05", "5"), ("\u0665", None), ("\uff15", None),
     ("0_5", None), ("5\u2003", None), ("x", None), ("5.0", None), ("", None)],
)
def test_int_options_read_ascii_digits_only(value, read, capsys):
    # spelled out and with "=", so both parse routes read the value
    for argv in (["code", "d", "--m", value], ["code", "d", f"--m={value}"]):
        if read is None:
            assert _capture(capsys, argv) == (1, "", f"error: argument --m: invalid int value: {value!r}\n")
        else:
            assert _capture(capsys, argv) == _capture(capsys, ["code", "d", "--m", read])


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
    # the sixteen-curve step reads its weights from the classifier
    assert lines[-1].startswith("THEOREM REFUTED")
    rc, out, _ = _capture(capsys, ["verify", "all", "--json"])
    assert rc == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    failed = [c["name"] for c in payload["checks"] if not c["ok"]]
    assert failed == ["even-set sizes 0..100", "sixteen-curve theorem"]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["code", "--help"]) == 0
    capsys.readouterr()


_GROUPS = list(cli._COMMANDS)
_LEAVES = [[group, leaf[0]] for group, (_, leaves) in cli._COMMANDS.items() for leaf in leaves]
_HELP = [["-h"], *([group, "-h"] for group in _GROUPS), *([*leaf, "-h"] for leaf in _LEAVES)]

# the golden commands, help at every level, and argv that reach argparse's
# error paths or hold another command's name as an argument
PRUNING_CORPUS = [
    *(command.split() for command in sorted(GOLDEN_CLI)),
    [],
    *([group] for group in _GROUPS),
    *_HELP,
    ["nope"],
    ["cod"],
    ["verify", "no"],
    ["--bogus"],
    ["duval", "check", "A1x16", "--bogus"],
    ["--", "duval", "check", "A1x16"],
    ["duval", "check", "--", "A1x16"],
    ["duval", "check", "code"],
    ["duval", "check", "d"],
    ["duval", "check", "duval"],
    ["code", "d", "--m", "check"],
    ["code", "dual", "--in", "all"],
    ["verify", "all", "duval"],
    ["duval", "duval"],
    ["duval", "--json", "check", "A1x16"],
    ["duval", "check"],
    ["verify", "all", "--", "x"],
    ["code", "rm", "--degree", "1", "--m", "3", "extra"],
]


def _parse_from_the_root(monkeypatch):
    """Make ``run`` parse every argv with the argparse tree, as it does
    any argv that the plain route refuses."""
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._root().parse_args(argv))


@pytest.mark.parametrize("argv", PRUNING_CORPUS, ids=lambda argv: " ".join(argv) or "<empty>")
def test_pruned_parser_prints_what_the_full_parser_prints(argv, code_files, capsys, monkeypatch):
    argv = [str(code_files.get(arg, arg)) for arg in argv]
    pruned = _capture(capsys, argv)
    _parse_from_the_root(monkeypatch)
    assert _capture(capsys, argv) == pruned


@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_every_named_parser_has_help(argv, capsys):
    rc, out, err = _capture(capsys, argv)
    assert (rc, err) == (0, "")
    assert out.startswith(" ".join(["usage: k3nodal", *argv[:-1]]) + " ")


def test_run_builds_only_the_parsers_argv_names(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._root.cache_clear()
    # a spelled-out command builds no parser
    spelled = [["duval", "check", "A1x16"], ["duval", "check", "A1x17", "--json"],
               ["code", "d", "--m", "4"], ["lattice", "kummer", "--json"], ["verify", "beauville", "--m", "3"]]
    assert [_capture(capsys, argv)[0] for argv in spelled] == [0, 2, 0, 0, 0]
    assert built == []
    # the first other argv builds the whole tree, one parser per node
    assert _capture(capsys, ["duval", "check", "-h"])[0] == 0
    assert len(built) == len(set(built)) == 1 + len(_GROUPS) + len(_LEAVES) == 16
    assert built[0] == "k3nodal" and "k3nodal duval check" in built
    built.clear()
    # and it is reused for the rest of the process
    later = [["-h"], ["duval", "-h"], ["nonsense"], ["duval", "bogus"], ["duval", "check", "A1x16", "--bogus"],
             ["code", "d", "--m=4"], *spelled]
    assert [_capture(capsys, argv)[0] for argv in later] == [0, 0, 1, 1, 1, 0, 0, 2, 0, 0, 0]
    assert built == []


def _sub_parsers(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _tree_leaves():
    """(group, leaf) -> the parser of that leaf in the argparse tree."""
    return {
        (group, name): leaf
        for group, sub in _sub_parsers(cli._root()).items()
        for name, leaf in _sub_parsers(sub).items()
    }


def test_leaf_table_matches_the_full_tree():
    tree = _tree_leaves()
    handlers = {(group, name): handler for group, (_, leaves) in cli._COMMANDS.items()
                for name, _, handler, _ in leaves}
    assert list(cli._PLAIN) == list(tree) == list(handlers) and len(tree) == 11
    for leaf, sub in tree.items():
        assert sub.prog == "k3nodal " + " ".join(leaf)
        options, required, start = cli._PLAIN[leaf]
        # every action but help: -h and --help are left to argparse
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        expected = {}
        for action in actions:
            flag = type(action) is argparse._StoreTrueAction
            assert flag or type(action) is argparse._StoreAction, (leaf, action)
            assert (action.nargs, action.const) == ((0, True) if flag else (None, None)), (leaf, action)
            for option in action.option_strings or [None]:
                expected[option] = (action.dest, action.type, flag)
        assert options == expected, leaf
        assert sum(not a.option_strings for a in actions) == (None in options) <= 1, leaf
        assert required == {a.dest for a in actions if a.required}, leaf
        assert start == {"func": handlers[leaf], **{a.dest: a.default for a in actions}}, leaf
        assert sub._defaults == {"func": handlers[leaf]}, leaf


def _cold_capture(capsys, argv):
    """``_capture`` with the argparse tree built anew."""
    cli._root.cache_clear()
    return _capture(capsys, argv)


# each leaf's calls: an option given and then left out, --json and text,
# help and usage errors between good calls
_INTERLEAVED = {
    ("code", "rm"): [["--degree", "1", "--m", "3", "--json"], ["--degree", "0", "--m", "3"], ["-h"],
                     ["--m", "3"], ["--degree", "1", "--m", "3"]],
    ("code", "d"): [["--m", "4", "--json"], ["--m", "3"], ["--bogus"], ["--m", "1"], ["--m", "4"]],
    ("code", "weights"): [["--in", "D5", "--json"], ["--in", "RM13"], ["-h"], ["--in", "missing"],
                          ["--in", "D5"]],
    ("code", "dual"): [["--in", "RM13", "--json"], ["--in", "D5"], [], ["--in", "RM13"]],
    ("lattice", "gamma"): [["--in", "D5", "--neg"], ["--in", "D5"], ["--in", "D5", "--neg", "--json"],
                           ["--neg"], ["--in", "D5", "--json"]],
    ("lattice", "kummer"): [["--json"], [], ["x"], ["-h"], ["--json"]],
    ("verify", "beauville"): [["--m", "3", "--nmax", "5"], ["--m", "3"],
                              ["--m", "3", "--nmax", "5", "--json"], ["--nmax", "5"], ["--m", "3", "--json"]],
    ("verify", "no-seventeen"): [["--json"], [], ["--bogus"], ["--json"]],
    ("verify", "all"): [["--json"], ["-h"], [], ["--json", "x"], ["--json"]],
    ("duval", "check"): [["A1x16", "--json"], ["A1x17"], ["-h"], [], ["A2,D4x2,E7"], ["A1x16", "--json"]],
    ("duval", "classify-even-set"): [["--k", "8", "--json"], ["--k", "5"], ["--k"], ["--k", "16"]],
}


def test_reused_leaf_parsers_keep_no_options_between_calls(code_files, capsys):
    assert list(_INTERLEAVED) == list(cli._PLAIN)
    per_leaf = [[[*leaf, *(str(code_files.get(a, a)) for a in args)] for args in calls]
                for leaf, calls in _INTERLEAVED.items()]
    # each leaf's calls in turn, then one call of each leaf in turn
    calls = [argv for runs in per_leaf for argv in runs]
    calls += [argv for runs in itertools.zip_longest(*per_leaf) for argv in runs if argv]
    warm = [_capture(capsys, argv) for argv in calls]
    assert warm == [_cold_capture(capsys, argv) for argv in calls]
    assert {rc for rc, _, _ in warm} == {0, 1, 2}


# tokens that the fuzz inserts: names, options, values and junk
_FUZZ_TOKENS = [
    *_GROUPS, *(name for _, name in _LEAVES), "-h", "--help", "--", "-", "", "--json", "--js",
    "--m", "--degree", "--k", "--nmax", "--in", "--neg", "--m=3", "--k=8", "--bogus", "-x",
    "0", "1", "2", "3", "4", "-1", "99", "x", "A1x16", "A1x17", "D3", "A1 x2", "D5", "missing",
]
# the golden commands that run in a few milliseconds
_FUZZ_COMMANDS = [c.split() for c in sorted(GOLDEN_CLI) if "RM18" not in c and "RM26" not in c]


def _fuzz_argv(rng):
    """A golden command, or nothing, with up to three tokens inserted,
    deleted or replaced."""
    argv = list(rng.choice(_FUZZ_COMMANDS)) if rng.random() < 0.8 else []
    for _ in range(rng.randrange(4)):
        i, edit = rng.randrange(len(argv) + 1), rng.randrange(3)
        if edit == 0 or i == len(argv):
            argv.insert(i, rng.choice(_FUZZ_TOKENS))
        elif edit == 1:
            del argv[i]
        else:
            argv[i] = rng.choice(_FUZZ_TOKENS)
    return argv


def test_leaf_dispatch_prints_what_the_full_tree_prints_on_fuzzed_argv(code_files, capsys, monkeypatch):
    rng = random.Random(26)
    corpus = [[str(code_files.get(arg, arg)) for arg in _fuzz_argv(rng)] for _ in range(300)]
    # both parsing routes are taken often
    plain = sum(cli._parse_plain(argv) is not None for argv in corpus)
    assert plain >= 50 and len(corpus) - plain >= 50
    leaf = [_capture(capsys, argv) for argv in corpus]
    assert [_capture(capsys, argv) for argv in corpus] == leaf
    # one tree, with one parser per node, whatever the argv
    assert cli._root.cache_info().currsize == 1
    assert len(_sub_parsers(cli._root())) + len(_tree_leaves()) == len(_GROUPS) + len(_LEAVES)
    # a reused parser prints what a new one prints
    assert [_cold_capture(capsys, argv) for argv in corpus] == leaf
    _parse_from_the_root(monkeypatch)
    full = [_capture(capsys, argv) for argv in corpus]
    for argv, result, expected in zip(corpus, leaf, full):
        assert result == expected, argv
        rc, out, err = result
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
    assert {rc for rc, _, _ in leaf} == {0, 1, 2}


# what the parity corpus inserts as often as a fuzz token: an option with
# "=", twice, or with a value that begins with "-", or that int reads with a
# space or in another script's digits; "-" as a file; an empty token; "--"
_PLAIN_EDGES = [
    ["--m=3"], ["--json", "--json"], ["--m", "3", "--m", "4"], ["--m", "-1"], ["--m", " 4"],
    ["--m", "\u0663"], ["--in", "-"], [""], ["--"],
]


def _typed_vars(ns):
    """Each attribute of a namespace with its value's type, so that 1 and
    True, or a str subclass and its value, are told apart."""
    return {name: (type(value), value) for name, value in vars(ns).items()}


def _parse_args_vars(parser, tail):
    """``_typed_vars`` of what ``parse_args(tail)`` returns, or None when
    it refuses the tail or prints help."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return _typed_vars(parser.parse_args(tail))
        except (ValueError, SystemExit):
            return None


def test_plain_route_returns_what_parse_args_returns():
    rng = random.Random(37)
    taken = refused = 0
    for leaf, parser in _tree_leaves().items():
        golden = [c.split()[2:] for c in sorted(GOLDEN_CLI) if tuple(c.split()[:2]) == leaf]
        for _ in range(600):
            tail = list(rng.choice(golden))
            for _ in range(rng.randrange(4)):
                i, edit = rng.randrange(len(tail) + 1), rng.randrange(3)
                if edit == 0 or i == len(tail):
                    tail[i:i] = rng.choice(_PLAIN_EDGES) if rng.random() < 0.5 else [rng.choice(_FUZZ_TOKENS)]
                elif edit == 1:
                    del tail[i]
                else:
                    tail[i] = rng.choice(_FUZZ_TOKENS)
            plain = cli._parse_plain([*leaf, *tail])
            if plain is None:
                refused += 1
            else:
                taken += 1
                assert _typed_vars(plain) == _parse_args_vars(parser, tail), (leaf, tail)
    # both outcomes are common
    assert taken > 1000 and refused > 1000


def test_both_routes_return_a_simple_namespace():
    spelled, other = ["code", "rm", "--degree", "1", "--m", "4"], ["code", "rm", "--degree=1", "--m=4"]
    assert cli._parse_plain(spelled) is not None and cli._parse_plain(other) is None
    plain, tree = cli._parse(spelled), cli._parse(other)
    assert type(plain) is type(tree) is SimpleNamespace
    # the root also stores the group and leaf names
    assert vars(tree) == {**vars(plain), "group": "code", "cmd": "rm"}


def test_plain_route_models_every_argument_option():
    # a key outside the model would make the plain route read an argument
    # differently from argparse
    for group, (_, leaves) in cli._COMMANDS.items():
        for name, _, _, arguments in leaves:
            leaf = (group, name)
            assert sum(not flag.startswith("-") for flag, _ in arguments) <= 1, leaf
            for flag, options in arguments:
                assert set(options) <= {"type", "required", "dest", "help", "action"}, (leaf, flag)
                assert options.get("action", "store_true") == "store_true", (leaf, flag)


def test_golden_commands_and_chain_ops_take_the_plain_route(monkeypatch):
    # a table that sent every argv to argparse would keep every byte and
    # lose the speed, so each command that argparse accepts must take it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    chain = {op.key for seed in (1, 7) for op in workloads.build(k3nodal, "chain", seed)}
    assert len(chain) > 100
    tree, refused = _tree_leaves(), set()
    for command in sorted(GOLDEN_CLI) + sorted(chain):
        argv = command.split()
        plain = cli._parse_plain(argv)
        if plain is None:
            refused.add(command)
        else:
            assert _typed_vars(plain) == _parse_args_vars(tree[tuple(argv[:2])], argv[2:]), command
    # the golden usage errors, which argparse reports
    assert refused == {"nonsense", "code rm --degree 1", "code rm --degree 1 --m 4 --bogus"}


def test_fuzzed_configurations_and_matrix_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(29)
    corpus = []
    for i in range(150):
        corpus.append(["duval", "check", random_config_text(rng), *rng.choice([[], ["--json"]])])
        path = tmp_path / f"matrix{i}.txt"
        path.write_text(random_matrix_text(rng), encoding="utf-8")
        corpus.append(["code", "weights", "--in", str(path), *rng.choice([[], ["--json"]])])
    first = [_capture(capsys, argv) for argv in corpus]
    assert [_capture(capsys, argv) for argv in corpus] == first
    for argv, (rc, out, err) in zip(corpus, first):
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
    assert {rc for rc, _, _ in first} == {0, 1, 2}


_JSON_TEXT = string.printable + '"\\\x00\x1f\x7f\u00e9\u2603\U0001f600'


def _random_text(rng):
    return "".join(rng.choice(_JSON_TEXT) for _ in range(rng.randrange(6)))


def _random_document(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([None, True, False])
    if kind == 2:
        return rng.randint(-3, 3)
    if kind == 3:
        return rng.randint(-(2**70), 2**70)
    items = [_random_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {_random_text(rng): item for item in items}


def test_json_writer_matches_stdlib_json():
    rng = random.Random(25)
    for _ in range(2000):
        document = _random_document(rng)
        assert cli._json(document) == json.dumps(document, indent=2, sort_keys=True)


def _containers(value):
    if isinstance(value, dict):
        return 1 + sum(map(_containers, value.values()))
    if isinstance(value, (list, tuple)):
        return 1 + sum(map(_containers, value))
    return 0


@pytest.mark.parametrize("command", sorted(c for c in GOLDEN_CLI if "--json" in c))
def test_json_writer_matches_stdlib_json_on_every_golden_document(command, code_files, capsys, monkeypatch):
    documents = []
    write = cli._json

    def recorded(value, pad="\n"):
        if pad == "\n":
            documents.append(value)
        return write(value, pad)

    monkeypatch.setattr(cli, "_json", recorded)
    out = _capture(capsys, [str(code_files.get(arg, arg)) for arg in command.split()])[1]
    assert len(documents) == 1
    assert out == json.dumps(documents[0], indent=2, sort_keys=True) + "\n"


def test_json_writer_is_entered_once_per_container(code_files, capsys, monkeypatch):
    # scalar items are written inside their container's comprehension
    write = cli._json
    calls = []

    def recorded(value, pad="\n"):
        calls.append(value)
        return write(value, pad)

    monkeypatch.setattr(cli, "_json", recorded)
    for command in sorted(c for c in GOLDEN_CLI if "--json" in c):
        calls.clear()
        _capture(capsys, [str(code_files.get(arg, arg)) for arg in command.split()])
        assert len(calls) == _containers(calls[0]), command
        if command == "lattice kummer --json":
            assert len(calls) == 20


class _Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "value",
    [
        Fraction(1, 2),
        0.5,
        duval.CoverVerdict.IMPOSSIBLE,
        {"a": [1, {"b": Fraction(1, 2)}]},
        [duval.CoverVerdict.IMPOSSIBLE],
        {"v": duval.CoverVerdict.EMPTY},
        [1, _Small.ONE],
        [0.5],
    ],
    ids=[
        "Fraction",
        "float",
        "str enum",
        "nested Fraction",
        "str enum in a list",
        "str enum in a dict",
        "int enum in a list",
        "float in a list",
    ],
)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_only_the_printed_rendering_is_built(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("a rendering that is not printed was built")

    monkeypatch.setattr(lattice, "format_gram", unused)
    assert _capture(capsys, ["lattice", "kummer", "--json"])[0] == 0
    monkeypatch.setattr(duval.SuiteReport, "to_json_dict", unused)
    assert _capture(capsys, ["verify", "all"])[0] == 0


def test_integrality_is_read_once_per_lattice(code_files, capsys, monkeypatch):
    calls = []
    isotropic = lattice.is_isotropic
    monkeypatch.setattr(lattice, "is_isotropic", lambda code: calls.append(code) or isotropic(code))
    # D_5 is isotropic, so the text reads integrality, evenness and the discriminant group
    assert _capture(capsys, ["lattice", "gamma", "--in", str(code_files["D5"])])[0] == 0
    assert len(calls) == 1
    calls.clear()
    lattice.gamma_from_code(codes.code_d(5)).to_json_dict()
    assert len(calls) == 1


def _fresh_env():
    """The environment of a new interpreter that imports this k3nodal."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_run(argv):
    """(exit status, stdout, stderr) of ``python -m k3nodal.cli`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "k3nodal.cli", *argv], capture_output=True, env=_fresh_env(), timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def _argparse_loaded(*commands):
    """The exit status of ``cli.run`` of each command, run in turn in a
    new interpreter, and then whether ``argparse`` is in ``sys.modules``."""
    script = (
        "import sys\n"
        "from k3nodal import cli\n"
        "print(*[cli.run(command.split()) for command in sys.argv[1:]], 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *commands], capture_output=True, text=True, env=_fresh_env(), timeout=60
    )
    return proc.stdout.splitlines()[-1]


def test_only_the_argparse_tree_imports_argparse():
    # a spelled-out command is parsed without argparse; help and usage
    # errors build the tree, which imports it
    assert _argparse_loaded("duval check A1x16", "lattice kummer --json") == "0 0 False"
    assert _argparse_loaded("duval check -h") == "0 True"
    assert _argparse_loaded("code rm --degree=x --m 4") == "1 True"


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


def test_run_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # a good command, a usage error, a budget refusal and the good command
    # again, in one process, each print and exit as in a new interpreter;
    # then help, an unknown option and an option left out on the reused
    # parsers of duval check and verify beauville
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the same width in both
    good, refused = tmp_path / "d5.txt", tmp_path / "rm1_12.txt"
    good.write_text(str(codes.reed_muller_generators(1, 4)))
    refused.write_text(str(codes.reed_muller_generators(1, 12)))
    calls = [
        ["code", "dual", "--in", str(good), "--json"],
        ["code", "rm", "--m", "4"],
        ["code", "dual", "--in", str(refused)],
        ["code", "dual", "--in", str(good), "--json"],
        ["duval", "check", "A1x16,E8", "--json"],
        ["duval", "check", "A1x17"],
        ["duval", "check", "-h"],
        ["duval", "check", "--bogus"],
        ["duval", "check", "A1x16,E8", "--json"],
        ["verify", "beauville", "--m", "3", "--nmax", "5", "--json"],
        ["verify", "beauville", "--m", "3"],
    ]
    results = []
    for argv in calls:
        rc, out, err = _capture(capsys, argv)
        results.append((rc, out.encode(), err.encode()))
    assert [rc for rc, _, _ in results] == [0, 1, 1, 0, 2, 2, 0, 1, 2, 0, 0]
    assert results[0] == results[3] and results[4] == results[8]
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
