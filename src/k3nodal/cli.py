"""Command-line front door: build codes and lattices, run the verification
suite, and check du Val singularity configurations.  This module only
parses arguments and renders results; every check lives in the library.

Exit status: 0 on success / admissible / verified, 2 on inadmissible or
refuted, 1 on usage or I/O errors.  All output is deterministic; pass
``--json`` for the machine-readable schemas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from . import codes, duval, lattice
from .gf2 import Gf2Matrix, parse_matrix_text

# what a command handler returns: its JSON document and its text, each built
# only when ``run`` renders it, and the exit status
_Result = tuple[Callable[[], dict], Callable[[], str], int]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_code(path: str) -> codes.LinearCode:
    text = Path(path).read_text()
    return codes.from_generators(parse_matrix_text(text))


def _generators(gens: Gf2Matrix) -> _Result:
    """Independent generator rows as the {n, k, rows} schema or as text."""
    return (
        lambda: {"n": gens.cols, "k": gens.nrows, "rows": str(gens).splitlines()},
        # the zero code has no generators; a single zero row keeps the
        # text format round-trippable
        lambda: str(gens) if gens.nrows else "0" * gens.cols,
        0,
    )


def _cmd_code_rm(ns: argparse.Namespace) -> _Result:
    # the monomial rows are independent, so k is their count
    return _generators(codes.reed_muller_generators(ns.degree, ns.m))


def _cmd_code_d(ns: argparse.Namespace) -> _Result:
    if ns.m < 2:
        raise _UsageError("code d requires --m >= 2")
    return _generators(codes.reed_muller_generators(1, ns.m - 1))


def _cmd_code_weights(ns: argparse.Namespace) -> _Result:
    code = _read_code(ns.infile)
    counts = codes.weight_distribution(code).counts
    return (
        lambda: {"n": code.n, "k": code.k, "counts": {str(w): c for w, c in counts.items()}},
        lambda: "\n".join([f"n={code.n} k={code.k}"]
                          + [f"weight {w}: {c}" for w, c in sorted(counts.items())]),
        0,
    )


def _cmd_code_dual(ns: argparse.Namespace) -> _Result:
    return _generators(codes.dual(_read_code(ns.infile)).gen)


def _format_lattice(lat: lattice.CodeLattice) -> str:
    integral = lattice.is_integral(lat)
    lines = [
        f"rank {lat.n}",
        f"sign {lat.sign:+d}",
        f"integral {str(integral).lower()}",
        f"even {str(lattice.is_even(lat)).lower() if integral else 'n/a'}",
        f"negative_definite {str(lattice.is_negative_definite(lat)).lower()}",
        f"determinant {lattice.determinant(lat)}",
    ]
    if integral:
        group = lattice.discriminant_group(lat)
        divisors = " ".join(str(d) for d in group.elementary_divisors) or "none"
        lines += [f"elementary_divisors {divisors}", f"discriminant_group {group}"]
    else:
        lines += ["elementary_divisors n/a", "discriminant_group n/a"]
    return "\n".join([*lines, "gram:", lattice.format_gram(lat)])


def _cmd_lattice_gamma(ns: argparse.Namespace) -> _Result:
    lat = lattice.gamma_from_code(_read_code(ns.infile), -1 if ns.neg else 1)
    return lat.to_json_dict, lambda: _format_lattice(lat), 0


def _cmd_lattice_kummer(ns: argparse.Namespace) -> _Result:
    lat = lattice.kummer_lattice()
    return lat.to_json_dict, lambda: _format_lattice(lat), 0


def _format_beauville(report: codes.BeauvilleReport) -> str:
    lines = [f"beauville m={report.m} n_max={report.n_max} mode={report.mode}"]
    for s in report.per_n:
        expected = "-" if s.expected is None else str(s.expected)
        lines.append(
            f"n={s.n} subspaces={s.examined} expected={expected} qualifying={s.qualifying}"
        )
    # an n_max below 2^(m-1) leaves the extremal length unscanned
    reached = report.n_max >= report.extremal_n
    extremal = f"extremal length {report.extremal_n}: {report.extremal_count} codes"
    if not reached:
        lines.append(f"extremal length {report.extremal_n}: not reached (n_max={report.n_max})")
    else:
        lines.append(extremal if report.counterexamples else f"{extremal}, all equivalent to D_{report.m}")
    if report.counterexamples:
        lines.extend(f"COUNTEREXAMPLE {c}" for c in report.counterexamples)
        lines.append("REFUTED")
    elif report.mode == "sampled":
        # a sample cannot verify either claim
        lines.append(f"SAMPLED: no counterexample among the sampled codes up to n_max={report.n_max}")
    elif reached:
        lines.append("VERIFIED: minimal length is 2^(m-1), equality forces D_m")
    else:
        lines.append(f"VERIFIED: no qualifying code up to n_max={report.n_max}")
    return "\n".join(lines)


def _cmd_verify_beauville(ns: argparse.Namespace) -> _Result:
    report = codes.verify_beauville(ns.m, ns.nmax)
    return report.to_json_dict, lambda: _format_beauville(report), 0 if report.ok else 2


def _format_theorem(cert: duval.TheoremCertificate) -> str:
    step = cert.sixteen_step
    weights = ",".join(sorted(str(w) for w in cert.seventeen_step.witness_weights()))
    lines = [
        f"sixteen curves: code dimension >= {step['dim_lower_bound']}, "
        f"nonzero weights in {step['allowed_nonzero_weights']}, forced code {step['forced_code']}",
        f"no seventeenth curve: {len(cert.seventeen_step.entries)} duplicated/deleted column "
        f"witnesses, off-spectrum weights {{{weights}}}",
        f"monotonicity: {cert.monotonicity}",
    ]
    lines.append(f"THEOREM {'VERIFIED' if cert.ok else 'REFUTED'}: {cert.statement}")
    return "\n".join(lines)


def _cmd_verify_no_seventeen(ns: argparse.Namespace) -> _Result:
    cert = duval.verify_max_sixteen()
    return cert.to_json_dict, lambda: _format_theorem(cert), 0 if cert.ok else 2


def _format_suite(suite: duval.SuiteReport) -> str:
    lines = [f"{'ok' if good else 'FAILED'} {name}" for name, good, _ in suite.checks]
    lines.append(f"{len(suite.checks)} checks, {'all passed' if suite.ok else 'FAILURES PRESENT'}")
    return "\n".join([*lines, _format_theorem(suite.theorem)])


def _cmd_verify_all(ns: argparse.Namespace) -> _Result:
    suite = duval.verify_all()
    return suite.to_json_dict, lambda: _format_suite(suite), 0 if suite.ok else 2


def _format_admissibility(report: duval.AdmissibilityReport) -> str:
    lines = [f"config {report.config.canonical()}"]
    lines += [
        f"{t.label} x{t.count}: delta_each={t.delta_each} delta={t.delta_total} mu={t.milnor_total}"
        for t in report.nodal_count_per_type
    ]
    lines += [
        f"delta {report.delta}",
        f"mu {report.mu}",
        f"ratio {report.ratio if report.ratio is not None else 'n/a'}",
    ]
    if report.admissible:
        lines.append("admissible: delta <= 16")
    else:
        lines.extend(f"inadmissible: {reason}" for reason in report.reasons)
    return "\n".join(lines)


def _cmd_duval_check(ns: argparse.Namespace) -> _Result:
    report = duval.admissible(duval.DuValConfig.parse(ns.config))
    return report.to_json_dict, lambda: _format_admissibility(report), 0 if report.admissible else 2


def _cmd_duval_classify(ns: argparse.Namespace) -> _Result:
    result = duval.classify_even_set(ns.k)
    euler = result.euler_of_cover
    return (
        lambda: {"k": result.k, "verdict": result.verdict.value, "euler_of_cover": euler},
        lambda: f"k {result.k}\nverdict {result.verdict.value}\n"
        f"euler_of_cover {euler if euler is not None else 'n/a'}",
        2 if result.verdict is duval.CoverVerdict.IMPOSSIBLE else 0,
    )


_REQUIRED_INT = {"type": int, "required": True}
_INFILE = {"dest": "infile", "required": True}

# group -> (help, leaf commands); a leaf is (name, help, handler, arguments)
_COMMANDS = {
    "code": ("construct and inspect binary codes", (
        ("rm", "Reed-Muller generator matrix", _cmd_code_rm,
         (("--degree", _REQUIRED_INT), ("--m", _REQUIRED_INT))),
        ("d", "the affine-functions code D_m", _cmd_code_d, (("--m", _REQUIRED_INT),)),
        ("weights", "weight distribution of a code file", _cmd_code_weights, (("--in", _INFILE),)),
        ("dual", "dual code of a code file", _cmd_code_dual, (("--in", _INFILE),)),
    )),
    "lattice": ("code lattices and their invariants", (
        ("gamma", "lattice of a code file", _cmd_lattice_gamma,
         (("--in", _INFILE), ("--neg", {"action": "store_true", "help": "negate the form"}))),
        ("kummer", "the built-in sixteen nodal curve lattice", _cmd_lattice_kummer, ()),
    )),
    "verify": ("run the verification suite", (
        ("beauville", "half-weight extremal characterization", _cmd_verify_beauville,
         (("--m", _REQUIRED_INT), ("--nmax", {"type": int}))),
        ("no-seventeen", "certificate that 17 nodal curves are impossible", _cmd_verify_no_seventeen, ()),
        ("all", "full verification suite", _cmd_verify_all, ()),
    )),
    "duval": ("du Val singularity configurations", (
        ("check", "delta/mu and admissibility of a configuration", _cmd_duval_check,
         (("config", {"help": "e.g. A1x16 or A2,D4x2,E7"}),)),
        ("classify-even-set", "double cover of an even set of k curves", _cmd_duval_classify,
         (("--k", _REQUIRED_INT),)),
    )),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every group and leaf command is registered
    with its help, but only the ones whose name is a token of argv are
    filled in: a group gets its leaf commands, and a leaf its arguments,
    ``--json`` and handler.  The others are bare, without ``-h``.

    This keeps every output byte.  argparse hands the rest of argv only to
    the sub-parser whose exact name it read there, so a bare parser is
    never run.  The choice lists, ``-h`` output and "invalid choice" errors
    read only names and help, which every parser has.
    """
    named = set(argv)
    parser = _Parser(prog="k3nodal", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, leaves) in _COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help, add_help=group in named)
        if group not in named:
            continue
        sub = group_parser.add_subparsers(dest="cmd", required=True)
        for name, leaf_help, handler, arguments in leaves:
            leaf = sub.add_parser(name, help=leaf_help, add_help=name in named)
            if name not in named:
                continue
            for flag, options in arguments:
                leaf.add_argument(flag, **options)
            leaf.add_argument("--json", action="store_true", help="emit the JSON schema instead of text")
            leaf.set_defaults(func=handler)
    return parser


def run(argv: list[str]) -> int:
    try:
        ns = build_parser(argv).parse_args(argv)
        document, text, status = ns.func(ns)
        print(json.dumps(document(), indent=2, sort_keys=True) if ns.json else text())
        return status
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code in (0, None) else 1
    except (_UsageError, codes.ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
