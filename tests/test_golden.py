"""Golden digests of the CLI and demo output.

Each CLI entry is the sha256 of the exit code, stdout and stderr of one
command run in-process through ``cli.run``; each demo entry is the sha256
of the demo's stdout.  Each digest was recorded before the change it
guards (the rank-64 ``lattice gamma`` runs before the lattice invariants
were cached, the rank-256 ones before the minors were packed, the sampled
``verify beauville --m 5 --json`` and the non-integral ``RM23`` one before
the JSON writer wrote scalar items inside their container), and pins
every byte of the output that refactors of the CLI or the library must
keep.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import runpy
from pathlib import Path

import pytest

from k3nodal.cli import _root, run

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# the unreduced generator rows that ``code d --m 5`` prints
D5_TEXT = "\n".join(
    [
        "1" * 16,
        "0101010101010101",
        "0011001100110011",
        "0000111100001111",
        "0000000011111111",
    ]
) + "\n"

# "D5" in an argv stands for the path of a file holding D5_TEXT, "RM26"
# for the path of a file holding what ``code rm --degree 2 --m 6`` prints
# (an integral code lattice of rank 64), "RM18" for the path of a file
# holding what ``code rm --degree 1 --m 8`` prints (a lattice of rank 256),
# "RM13" for the path of a file holding what ``code rm --degree 1 --m 3``
# prints (RM(1,3) is self-dual and doubly even, so its lattice is E_8, with
# determinant 1 and a trivial discriminant group), and "RM23" for the path
# of a file holding what ``code rm --degree 2 --m 3`` prints (RM(2,3) is not
# self-orthogonal, so its lattice is not integral and has no elementary
# divisors)
GOLDEN_CLI = {
    "verify all": "61250777e1f3bea3dd60de2c8487eb4e2725d3fea450afa760f32fcb4a219485",
    "verify all --json": "ebcb6bfc5e79358fb8674689fcc36922c45a69ffafc1a0e6719cf6cd9371328b",
    "verify no-seventeen": "6e8e5dfb3ef94dcd0b935740075e5ac1c9823926b8d24970a27c73023d290480",
    "verify no-seventeen --json": "1bb57250629a648e98d27a8783edd5809fe60b39039f90927e16ba4975b4a5c8",
    "verify beauville --m 4 --nmax 8": "d9943502cab1fe5df87a7385899a4518ff686e3e2f20235d3bb7d3ddb954ec7c",
    "verify beauville --m 4 --nmax 8 --json": "b12acefc8b52b90d57bc8acdf0e928bf969b62b3dd7ef3304947cc746714da5c",
    "code rm --degree 1 --m 4": "bbcd9366a60e23a0d58fb604e7625c202c9ae8dc32c4f7773476e6b3810934c2",
    "code rm --degree 1 --m 4 --json": "fd39a4d879b018d45700ead71d372d4926b956d6ae2a6b98a708467629747f40",
    "code d --m 5": "bbcd9366a60e23a0d58fb604e7625c202c9ae8dc32c4f7773476e6b3810934c2",
    "code d --m 5 --json": "fd39a4d879b018d45700ead71d372d4926b956d6ae2a6b98a708467629747f40",
    "code dual --in D5": "d7ba776c6cdf5afb0385feee1ffc55c5f212ec1282a0bc90727455e58a17f603",
    "code dual --in D5 --json": "9bc02a4191386cc2c0bc0c745c2db1386a0f919675a9ccac228d209d1c6345e0",
    "code weights --in D5": "2ba017d30946f487eb31b639e514b16b8532d522ee5181eea19230fe8040b837",
    "code weights --in D5 --json": "ab401aa6092306c9c2328cdfe90bd6982f8c1636dfebaa2ea1ca94875e53589d",
    "lattice gamma --in D5": "4aa2c7817895de3b0026705e0de588275941737ea51936d8cf5f4f185d42f9cb",
    "lattice gamma --in D5 --json": "b9bfa44f02e67898834d526944defc378a42a4320af26ca8a819c04d62b14540",
    "lattice gamma --in D5 --neg": "b2e4d0d23b394783c582164c9e3b2c0705a7df687f1f3eeb06aa62e0c1e47835",
    "lattice gamma --in D5 --neg --json": "96b8816e695afb79ef1a7ce15f3a2c6d0291a6d3f263c46669fb1a76573508e3",
    "lattice kummer": "b2e4d0d23b394783c582164c9e3b2c0705a7df687f1f3eeb06aa62e0c1e47835",
    "lattice kummer --json": "96b8816e695afb79ef1a7ce15f3a2c6d0291a6d3f263c46669fb1a76573508e3",
    "duval check A2,D4x2,E7": "c63fadeefe8d0d7f85aaa89b4aaada8298b1e04fc66472d8dcbf5a03347d0bec",
    "duval check A2,D4x2,E7 --json": "214aa657bead576b39785565d25b3d363a1db0e042a74f5bf1213df0f11b7aa7",
    "duval classify-even-set --k 8": "63fa90ecaefac1a49bd22ce21c911c493b1303989eb8d264c10d2c3b9b3a24c4",
    "duval classify-even-set --k 8 --json": "0c7d6e7cf122516ed3094a443d64ba6f005c88cc9157cba5d9902994d783e415",
    "duval classify-even-set --k 5": "915b912890906fa8594d2d768f529177d28ce53cb0150afc740599744c2fdfc5",
    "duval classify-even-set --k 5 --json": "0ac38a302fbbc6036c043b5e1cbf14effac037c56d321c010e0127531c58d1d8",
    "nonsense": "f0fb88422249d06e0b596b1134f545b9a3abfe3db4cf2f185ae1f7525a3b3785",
    "code rm --degree 1": "5bc3ad63e2f8ca60e88cb481e52a44412d032778cd115a405566eb650c3065d2",
    "code rm --degree 1 --m 4 --bogus": "ea304234a66dd566619849a962a44a232634a5bdf97b5acda2327929a3319456",
    "duval check Z9": "3ff493db996c8ec83e9fdcdac1b90974621e8344bfcb94547ffc7167d68adfca",
    "code weights --in /nonexistent/file.txt": "f24fe2a6bda253d749b093aacbe5de2b8396be8b7b9fd2b71efe10725888bd60",
    "verify beauville --m 4 --nmax 9": "f14009d793b4cc31b4e61ad3df1248acdc9658037eb27ae52a6f53e8e0c903a3",
    "code d --m 1": "0397fc9b4c482a7415b6858e121c36e49b601e1fe12da1a1595beb27f7b8b8b5",
    "duval check A1x0": "4b5ae2f448124ec9d31797a12fca9340b5b2f69bc453b779600c9ecdfbf4c85b",
    "verify beauville --m 40": "8961a9375a314d960d6bd1470ebe9ec0ca5e1a8fd06f73862f28af37d366c799",
    "lattice gamma --in RM26": "a3870570388b8a2626d7b6435b308cd915dd19e88c85e6112ff33cf2be621ff2",
    "lattice gamma --in RM26 --neg --json": "0146a3e7ba13f96ecd6c8ea61f6ba606c19e2ecd3d62881d0a81b168ae019b05",
    "lattice gamma --in RM18": "d761af3d7dea558bde48397b56c370e06cc5d098d2c24fef777425f941054b7b",
    "lattice gamma --in RM18 --json": "1bfcece02efc2375911f25084bcd67dde6ebc3f653ce28e7060bc32a31022fd0",
    "lattice gamma --in RM13": "d008498a3fba32fe22c80656434f92b7afbadc02ef2d9fa73353f9d5062cf9ce",
    "lattice gamma --in RM13 --json": "b5c5aff7762d006c4ccef97c380f238220c724213fe83807b63bbd180aaa8441",
    "lattice gamma --in RM23 --json": "7dadd666afc411adac2463376535c2c21b405cfdd3bb86de315101736faf5da3",
    "verify beauville --m 5 --json": "468349f938f63c21458446878cc6a6c53117f218c867c1df70643be28b1e34ac",
}

GOLDEN_DEMOS = {
    "01_codes_tour.py": "00af684091849c84ad51c6e7b778b4c89d1f425c130d58e9f6b798cbd092aeb4",
    "02_code_lattices.py": "f2a9d9b7e974ee86074fd90e56f8b54bd7638d22a328fab52995a1d9f8784863",
    "03_at_most_sixteen.py": "d5218b568f561c9dfa68f02b1472835100bd7fd0a579deae82566d066f578ebc",
    "04_du_val_configurations.py": "dd72f119804774da30188893c3d0f24e1186730a0e43197a9d2ab6bc61e73d96",
}

# demo 03 prints the wall time of its exhaustive scan
_ELAPSED = re.compile(r"\(\d+\.\d\ds, ")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(command: str, code_files: dict[str, Path], capsys) -> str:
    argv = [str(code_files.get(arg, arg)) for arg in command.split()]
    capsys.readouterr()
    rc = run(argv)
    captured = capsys.readouterr()
    return _sha256(f"{rc}\n{captured.out}\0{captured.err}")


def demo_digest(name: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return _sha256(_ELAPSED.sub("(<elapsed>s, ", buffer.getvalue()))


@pytest.fixture
def code_files(tmp_path, capsys):
    d5 = tmp_path / "d5.txt"
    d5.write_text(D5_TEXT)
    assert run(["code", "rm", "--degree", "2", "--m", "6"]) == 0
    rm26 = tmp_path / "rm26.txt"
    rm26.write_text(capsys.readouterr().out)
    assert run(["code", "rm", "--degree", "1", "--m", "8"]) == 0
    rm18 = tmp_path / "rm18.txt"
    rm18.write_text(capsys.readouterr().out)
    assert run(["code", "rm", "--degree", "1", "--m", "3"]) == 0
    rm13 = tmp_path / "rm13.txt"
    rm13.write_text(capsys.readouterr().out)
    assert run(["code", "rm", "--degree", "2", "--m", "3"]) == 0
    rm23 = tmp_path / "rm23.txt"
    rm23.write_text(capsys.readouterr().out)
    return {"D5": d5, "RM26": rm26, "RM18": rm18, "RM13": rm13, "RM23": rm23}


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI))
def test_cli_output_matches_golden(command, code_files, capsys):
    assert cli_digest(command, code_files, capsys) == GOLDEN_CLI[command]


@pytest.mark.parametrize("name", sorted(GOLDEN_DEMOS))
def test_demo_output_matches_golden(name):
    assert demo_digest(name) == GOLDEN_DEMOS[name]


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(GOLDEN_DEMOS)


def _leaf_commands(parser: argparse.ArgumentParser) -> list[list[str]]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [[name, *rest] for name, sub in action.choices.items() for rest in _leaf_commands(sub)]
    return [[]]


def test_every_command_is_pinned():
    leaves = _leaf_commands(_root())
    assert len(leaves) == 11
    for leaf in leaves:
        pinned = [c.split() for c in GOLDEN_CLI if c.split()[: len(leaf)] == leaf]
        assert any("--json" in argv for argv in pinned), leaf
        assert any("--json" not in argv for argv in pinned), leaf
