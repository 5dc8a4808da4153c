"""Command-line front door: build codes and lattices, run the verification
suite, and check du Val singularity configurations.  This module only
parses arguments and renders results; every check lives in the library.

Exit status: 0 on success / admissible / verified, 2 on inadmissible or
refuted, 1 on usage or I/O errors.  All output is deterministic; pass
``--json`` for the machine-readable schemas.
"""

from __future__ import annotations

import functools
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable

from . import codes, duval, lattice
from .gf2 import Gf2Matrix, parse_matrix_text

# what a command handler returns: its JSON document and its text, each built
# only when ``run`` renders it, and the exit status
_Result = tuple[Callable[[], dict], Callable[[], str], int]


def _read_code(path: str) -> codes.LinearCode:
    # the read is bounded by the budget of every generator matrix: one
    # character past it is refused before the rest is read or a row reduced
    with open(path) as f:
        text = f.read(codes.MAX_GENERATOR_BITS + 1)
    if len(text) > codes.MAX_GENERATOR_BITS:
        raise codes.ResourceLimitError(
            f"a code file of over {codes.MAX_GENERATOR_BITS} characters exceeds the budget"
        )
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


def _cmd_code_rm(ns: SimpleNamespace) -> _Result:
    # the monomial rows are independent, so k is their count
    return _generators(codes.reed_muller_generators(ns.degree, ns.m))


def _cmd_code_d(ns: SimpleNamespace) -> _Result:
    if ns.m < 2:
        raise ValueError("code d requires --m >= 2")
    return _generators(codes.reed_muller_generators(1, ns.m - 1))


def _cmd_code_weights(ns: SimpleNamespace) -> _Result:
    code = _read_code(ns.infile)
    counts = codes.weight_distribution(code).counts
    return (
        lambda: {"n": code.n, "k": code.k, "counts": {str(w): c for w, c in counts.items()}},
        lambda: "\n".join([f"n={code.n} k={code.k}"]
                          + [f"weight {w}: {c}" for w, c in sorted(counts.items())]),
        0,
    )


def _cmd_code_dual(ns: SimpleNamespace) -> _Result:
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


def _cmd_lattice_gamma(ns: SimpleNamespace) -> _Result:
    lat = lattice.gamma_from_code(_read_code(ns.infile), -1 if ns.neg else 1)
    return lat.to_json_dict, lambda: _format_lattice(lat), 0


def _cmd_lattice_kummer(ns: SimpleNamespace) -> _Result:
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


def _cmd_verify_beauville(ns: SimpleNamespace) -> _Result:
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


def _cmd_verify_no_seventeen(ns: SimpleNamespace) -> _Result:
    cert = duval.verify_max_sixteen()
    return cert.to_json_dict, lambda: _format_theorem(cert), 0 if cert.ok else 2


def _format_suite(suite: duval.SuiteReport) -> str:
    lines = [f"{'ok' if good else 'FAILED'} {name}" for name, good, _ in suite.checks]
    lines.append(f"{len(suite.checks)} checks, {'all passed' if suite.ok else 'FAILURES PRESENT'}")
    return "\n".join([*lines, _format_theorem(suite.theorem)])


def _cmd_verify_all(ns: SimpleNamespace) -> _Result:
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
        lines.append(f"admissible: delta <= {duval.MAX_NODAL_CURVES}")
    else:
        lines.extend(f"inadmissible: {reason}" for reason in report.reasons)
    return "\n".join(lines)


def _cmd_duval_check(ns: SimpleNamespace) -> _Result:
    report = duval.AdmissibilityReport(duval.DuValConfig.parse(ns.config))
    return report.to_json_dict, lambda: _format_admissibility(report), 0 if report.admissible else 2


def _cmd_duval_classify(ns: SimpleNamespace) -> _Result:
    result = duval.classify_even_set(ns.k)
    euler = result.euler_of_cover
    return (
        lambda: {"k": result.k, "verdict": result.verdict.value, "euler_of_cover": euler},
        lambda: f"k {result.k}\nverdict {result.verdict.value}\n"
        f"euler_of_cover {euler if euler is not None else 'n/a'}",
        2 if result.verdict is duval.CoverVerdict.IMPOSSIBLE else 0,
    )


def _int(text: str) -> int:
    """An int option's value: ``int(text)`` for ASCII text without ``_``.
    ``int`` also reads other scripts' digits and ``_`` separators, which
    the configuration grammar of ``duval check`` refuses."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


# argparse names the type in its message: "invalid int value: 'x'"
_int.__name__ = "int"

_REQUIRED_INT = {"type": _int, "required": True}
_INFILE = {"dest": "infile", "required": True}
_JSON = ("--json", {"action": "store_true", "help": "emit the JSON schema instead of text"})

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
         (("--m", _REQUIRED_INT), ("--nmax", {"type": _int}))),
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


def _plain_table(handler: Callable, arguments: tuple) -> tuple[dict, set, dict]:
    """A leaf's plain route, read from the arguments that its parser in
    the tree gets: the (dest, type, flag) of each option string, and of
    the one positional under the key None; the dests that argv must give;
    and the namespace that ``parse_args`` starts from.  It models only
    the keys that ``_COMMANDS`` uses: ``type``, ``required``, ``dest``,
    ``help`` and ``action="store_true"``."""
    options, required, start = {}, set(), {"func": handler}
    for name, spec in (*arguments, _JSON):
        positional, flag = name[:1] != "-", spec.get("action") == "store_true"
        dest = name if positional else spec.get("dest", name.lstrip("-").replace("-", "_"))
        options[None if positional else name] = (dest, spec.get("type"), flag)
        if positional or spec.get("required"):
            required.add(dest)
        start[dest] = False if flag else None
    return options, required, start


# (group, leaf) -> that leaf's plain route, for every leaf in _COMMANDS
_PLAIN = {(group, name): _plain_table(handler, arguments)
          for group, (_, leaves) in _COMMANDS.items() for name, _, handler, arguments in leaves}


@functools.cache
def _root():
    """The whole argparse tree, which reads every argv that the plain
    route refuses and so prints every help, usage and error text.  It is
    built once per process, on first use, and only then is argparse
    imported.  Each parser reports a usage error as ``ValueError``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise ValueError(message)

    root = Parser(prog="k3nodal", description=__doc__)
    groups = root.add_subparsers(dest="group", required=True)
    for group, (group_help, leaves) in _COMMANDS.items():
        names = groups.add_parser(group, help=group_help).add_subparsers(dest="cmd", required=True)
        for name, leaf_help, handler, arguments in leaves:
            leaf = names.add_parser(name, help=leaf_help)
            for flag, options in (*arguments, _JSON):
                leaf.add_argument(flag, **options)
            leaf.set_defaults(func=handler)
    return root


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that the tree's leaf parser returns for ``argv[2:]``,
    read from the table of the leaf that ``argv[:2]`` names, when the tail
    is spelled out: each option is one of the leaf's own option strings,
    in full and at most once, a valued option takes the next token, which
    does not begin with ``-`` and which the option's type converts, every
    other token fills the next positional, and every required argument is
    given.  Any other argv (no leaf named, ``=``, an abbreviation, ``--``,
    ``-h``, a repeated option, a negative number, a missing value or
    argument, an extra positional) gets None."""
    if (table := _PLAIN.get(tuple(argv[:2]))) is None:
        return None
    options, required, start = table
    values, tokens, given = dict(start), iter(argv[2:]), set()
    for token in tokens:
        positional = token[:1] != "-"
        if (option := options.get(None if positional else token)) is None or option[0] in given:
            return None
        dest, kind, flag = option
        given.add(dest)
        if flag:
            values[dest] = True
            continue
        if not positional and (token := next(tokens, "-"))[:1] == "-":
            return None
        try:
            values[dest] = kind(token) if kind else token
        except (TypeError, ValueError):
            return None
    return SimpleNamespace(**values) if required <= given else None


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv read by the plain route, which imports no argparse, or else by
    the root of the argparse tree (help, usage errors, ``--m=3``, ``--js``,
    ``--``, a bare group), which prints every message.  Both routes give
    a spelled-out command the same ``SimpleNamespace``."""
    return _parse_plain(argv) or _root().parse_args(argv, SimpleNamespace())


# the writer of each JSON scalar, keyed by its exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value: object, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, without the
    pure-Python encoder that ``json`` runs whenever ``indent`` is set.
    A scalar is written by the one entry of ``_SCALAR_TEXT`` that its
    exact type keys, so a str or int subclass (an enum member), a float
    or a ``Fraction`` raises ``TypeError`` like any other type instead of
    being written as its base.  A list, tuple or dict writes its scalar
    items in its own comprehension, so ``_json`` is entered once per
    container, and once for each value of any other type, to refuse it."""
    kind, scalar = type(value), _SCALAR_TEXT.get
    if text := scalar(kind):
        return text(value)
    inner = pad + "  "
    if kind is list or kind is tuple:
        brackets = "[]"
        items = [text(v) if (text := scalar(type(v))) else _json(v, inner) for v in value]
    elif kind is dict:
        brackets = "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {text(v) if (text := scalar(type(v))) else _json(v, inner)}"
            for k, v in sorted(value.items())
        ]
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{pad}{brackets[1]}"


def run(argv: list[str]) -> int:
    try:
        ns = _parse(argv)
        document, text, status = ns.func(ns)
        print(_json(document()) if ns.json else text())
        return status
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code in (0, None) else 1
    except (codes.ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
