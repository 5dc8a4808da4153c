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

from . import codes, duval, lattice
from .gf2 import Gf2Matrix, parse_matrix_text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_code(path: str) -> codes.LinearCode:
    text = Path(path).read_text()
    return codes.from_generators(parse_matrix_text(text))


def _print_generators(gens: Gf2Matrix, json_mode: bool) -> int:
    """Independent generator rows as text or as the {n, k, rows} schema."""
    if json_mode:
        _emit_json({"n": gens.cols, "k": gens.nrows, "rows": [str(r) for r in gens.rows]})
    elif gens.nrows:
        print(gens)
    else:
        # the zero code has no generators; a single zero row keeps the
        # text format round-trippable
        print("0" * gens.cols)
    return 0


def _cmd_code_rm(ns: argparse.Namespace) -> int:
    # the monomial rows are independent, so k is their count
    return _print_generators(codes.reed_muller_generators(ns.degree, ns.m), ns.json)


def _cmd_code_d(ns: argparse.Namespace) -> int:
    if ns.m < 2:
        raise _UsageError("code d requires --m >= 2")
    return _print_generators(codes.reed_muller_generators(1, ns.m - 1), ns.json)


def _cmd_code_weights(ns: argparse.Namespace) -> int:
    code = _read_code(ns.infile)
    dist = codes.weight_distribution(code)
    if ns.json:
        _emit_json({"n": code.n, "k": code.k, "counts": {str(w): c for w, c in dist.counts.items()}})
    else:
        print(f"n={code.n} k={code.k}")
        for w, c in sorted(dist.counts.items()):
            print(f"weight {w}: {c}")
    return 0


def _cmd_code_dual(ns: argparse.Namespace) -> int:
    return _print_generators(codes.dual(_read_code(ns.infile)).gen, ns.json)


def _print_lattice(lat: lattice.CodeLattice, json_mode: bool) -> None:
    if json_mode:
        _emit_json(lat.to_json_dict())
        return
    integral = lattice.is_integral(lat)
    det = lattice.determinant(lat)
    print(f"rank {lat.n}")
    print(f"sign {lat.sign:+d}")
    print(f"integral {str(integral).lower()}")
    print(f"even {str(lattice.is_even(lat)).lower() if integral else 'n/a'}")
    print(f"negative_definite {str(lattice.is_negative_definite(lat)).lower()}")
    print(f"determinant {det}")
    if integral:
        group = lattice.discriminant_group(lat)
        divisors = " ".join(str(d) for d in group.elementary_divisors) or "none"
        print(f"elementary_divisors {divisors}")
        print(f"discriminant_group {group}")
    else:
        print("elementary_divisors n/a")
        print("discriminant_group n/a")
    print("gram:")
    print(lattice.format_gram(lat))


def _cmd_lattice_gamma(ns: argparse.Namespace) -> int:
    code = _read_code(ns.infile)
    lat = lattice.gamma_from_code(code, -1 if ns.neg else 1)
    _print_lattice(lat, ns.json)
    return 0


def _cmd_lattice_kummer(ns: argparse.Namespace) -> int:
    _print_lattice(lattice.kummer_lattice(), ns.json)
    return 0


def _format_beauville(report: codes.BeauvilleReport) -> str:
    lines = [f"beauville m={report.m} n_max={report.n_max} mode={report.mode}"]
    for s in report.per_n:
        expected = "-" if s.expected is None else str(s.expected)
        lines.append(
            f"n={s.n} subspaces={s.examined} expected={expected} qualifying={s.qualifying}"
        )
    extremal = f"extremal length {report.extremal_n}: {report.extremal_count} codes"
    lines.append(extremal if report.counterexamples else f"{extremal}, all equivalent to D_{report.m}")
    if report.counterexamples:
        lines.extend(f"COUNTEREXAMPLE {c}" for c in report.counterexamples)
        lines.append("REFUTED")
    else:
        lines.append("VERIFIED: minimal length is 2^(m-1), equality forces D_m")
    return "\n".join(lines)


def _cmd_verify_beauville(ns: argparse.Namespace) -> int:
    n_max = ns.nmax if ns.nmax is not None else 1 << (ns.m - 1)
    report = codes.verify_beauville(ns.m, n_max)
    if ns.json:
        _emit_json(report.to_json_dict())
    else:
        print(_format_beauville(report))
    return 0 if report.ok else 2


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


def _cmd_verify_no_seventeen(ns: argparse.Namespace) -> int:
    cert = duval.verify_max_sixteen()
    if ns.json:
        _emit_json(cert.to_json_dict())
    else:
        print(_format_theorem(cert))
    return 0 if cert.ok else 2


def _cmd_verify_all(ns: argparse.Namespace) -> int:
    suite = duval.verify_all()
    if ns.json:
        _emit_json(suite.to_json_dict())
    else:
        for name, good, _ in suite.checks:
            print(f"{'ok' if good else 'FAILED'} {name}")
        print(f"{len(suite.checks)} checks, {'all passed' if suite.ok else 'FAILURES PRESENT'}")
        print(_format_theorem(suite.theorem))
    return 0 if suite.ok else 2


def _cmd_duval_check(ns: argparse.Namespace) -> int:
    cfg = duval.DuValConfig.parse(ns.config)
    report = duval.admissible(cfg)
    if ns.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"config {report.config.canonical()}")
        for t in report.nodal_count_per_type:
            print(f"{t.label} x{t.count}: delta_each={t.delta_each} delta={t.delta_total} mu={t.milnor_total}")
        print(f"delta {report.delta}")
        print(f"mu {report.mu}")
        print(f"ratio {report.ratio if report.ratio is not None else 'n/a'}")
        if report.admissible:
            print("admissible: delta <= 16")
        else:
            for reason in report.reasons:
                print(f"inadmissible: {reason}")
    return 0 if report.admissible else 2


def _cmd_duval_classify(ns: argparse.Namespace) -> int:
    result = duval.classify_even_set(ns.k)
    if ns.json:
        _emit_json(
            {
                "k": result.k,
                "verdict": result.verdict.value,
                "euler_of_cover": result.euler_of_cover,
            }
        )
    else:
        print(f"k {result.k}")
        print(f"verdict {result.verdict.value}")
        print(f"euler_of_cover {result.euler_of_cover if result.euler_of_cover is not None else 'n/a'}")
    return 2 if result.verdict is duval.CoverVerdict.IMPOSSIBLE else 0


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit the JSON schema instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="k3nodal", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)

    code_p = groups.add_parser("code", help="construct and inspect binary codes")
    code_sub = code_p.add_subparsers(dest="cmd", required=True)

    rm = code_sub.add_parser("rm", help="Reed-Muller generator matrix")
    rm.add_argument("--degree", type=int, required=True)
    rm.add_argument("--m", type=int, required=True)
    _add_json_flag(rm)
    rm.set_defaults(func=_cmd_code_rm)

    d = code_sub.add_parser("d", help="the affine-functions code D_m")
    d.add_argument("--m", type=int, required=True)
    _add_json_flag(d)
    d.set_defaults(func=_cmd_code_d)

    weights = code_sub.add_parser("weights", help="weight distribution of a code file")
    weights.add_argument("--in", dest="infile", required=True)
    _add_json_flag(weights)
    weights.set_defaults(func=_cmd_code_weights)

    dual_p = code_sub.add_parser("dual", help="dual code of a code file")
    dual_p.add_argument("--in", dest="infile", required=True)
    _add_json_flag(dual_p)
    dual_p.set_defaults(func=_cmd_code_dual)

    lat_p = groups.add_parser("lattice", help="code lattices and their invariants")
    lat_sub = lat_p.add_subparsers(dest="cmd", required=True)

    gamma = lat_sub.add_parser("gamma", help="lattice of a code file")
    gamma.add_argument("--in", dest="infile", required=True)
    gamma.add_argument("--neg", action="store_true", help="negate the form")
    _add_json_flag(gamma)
    gamma.set_defaults(func=_cmd_lattice_gamma)

    kummer = lat_sub.add_parser("kummer", help="the built-in sixteen nodal curve lattice")
    _add_json_flag(kummer)
    kummer.set_defaults(func=_cmd_lattice_kummer)

    verify_p = groups.add_parser("verify", help="run the verification suite")
    verify_sub = verify_p.add_subparsers(dest="cmd", required=True)

    beau = verify_sub.add_parser("beauville", help="half-weight extremal characterization")
    beau.add_argument("--m", type=int, required=True)
    beau.add_argument("--nmax", type=int, default=None)
    _add_json_flag(beau)
    beau.set_defaults(func=_cmd_verify_beauville)

    no17 = verify_sub.add_parser("no-seventeen", help="certificate that 17 nodal curves are impossible")
    _add_json_flag(no17)
    no17.set_defaults(func=_cmd_verify_no_seventeen)

    allp = verify_sub.add_parser("all", help="full verification suite")
    _add_json_flag(allp)
    allp.set_defaults(func=_cmd_verify_all)

    duval_p = groups.add_parser("duval", help="du Val singularity configurations")
    duval_sub = duval_p.add_subparsers(dest="cmd", required=True)

    check = duval_sub.add_parser("check", help="delta/mu and admissibility of a configuration")
    check.add_argument("config", help="e.g. A1x16 or A2,D4x2,E7")
    _add_json_flag(check)
    check.set_defaults(func=_cmd_duval_check)

    classify = duval_sub.add_parser("classify-even-set", help="double cover of an even set of k curves")
    classify.add_argument("--k", type=int, required=True)
    _add_json_flag(classify)
    classify.set_defaults(func=_cmd_duval_classify)

    return parser


def run(argv: list[str]) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code in (0, None) else 1
    except (_UsageError, codes.ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
