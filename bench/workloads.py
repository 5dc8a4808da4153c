"""Seeded workloads: each builds a fixed list of operations from a seed.

An operation is one call into k3nodal's public API (or one in-process
``k3nodal`` command) together with a check of its output against
``invariants``.  The seed only shapes the inputs; the library sees
nothing but those inputs.  Operations look their target up on the
``k3nodal`` package at call time, so a tracer that rebinds the public
names sees every call.

Why each workload exists:

* ``chain`` drives the theorem chain the way a user does, through the
  CLI.  ``codes`` works here as millions of tiny subspace checks and
  about 30 ``permutation_equivalent`` calls at n=8; most commands are
  small, so ``cli`` (argument parsing, rendering) and ``duval`` carry
  their per-call overhead here.
* ``enumerate`` makes few, large code computations: weight
  enumeration over 2^16..2^20 codewords, wide GF(2) eliminations,
  permutation equivalence, the no-extension table and a sampled
  Beauville scan.  It uses ``codes`` the opposite way from ``chain``,
  so a change that trades one for the other shows.
* ``lattice`` computes exact invariants of rank-32 and rank-64 code
  lattices with both signs: build, determinant, leading minors,
  definiteness, Smith form, membership and the JSON record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import invariants as inv
from invariants import expect

WORKLOADS = ("chain", "enumerate", "lattice")


@dataclass
class Op:
    """One timed call.  ``name`` is unique in its workload and the same for
    every seed; ``key`` describes the seeded input; ``seeded`` is False when
    the output cannot depend on the seed, so its golden digest holds for
    every seed."""

    name: str
    key: str
    fn: Callable[[], Any]
    check: Callable[[Any], None]
    render: Callable[[Any], str]
    seeded: bool = True
    out_bytes: Callable[[Any], int] | None = None

    @property
    def kind(self) -> str:
        return self.name.split("#")[0]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def build(k3, name: str, seed: int) -> list[Op]:
    """The op list of workload ``name`` for ``seed``; k3 is the imported
    k3nodal package."""
    builders = {"chain": _chain, "enumerate": _enumerate, "lattice": _lattice}
    return builders[name](k3, random.Random(f"{name}:{seed}"))


def _numbered(ops: list[Op]) -> list[Op]:
    seen: dict[str, int] = {}
    for op in ops:
        seen[op.name] = seen.get(op.name, 0) + 1
        op.name = f"{op.name}#{seen[op.name]:02d}"
    return ops


def _bits(v: int) -> str:
    return format(v, "x")


# --- chain: the CLI in-process ---------------------------------------------


def _cli(k3, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = k3.cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _render_cli(result: tuple[int, str, str]) -> str:
    rc, out, err = result
    return f"exit {rc}\n{out}\nstderr\n{err}"


def _cli_op(k3, name: str, argv: list[str], check: Callable, seeded: bool) -> Op:
    def run_checked(result: tuple[int, str, str]) -> None:
        rc, out, err = result
        expect(not err, f"unexpected stderr {err!r}")
        check(rc, out)

    return Op(name, " ".join(argv), lambda: _cli(k3, argv), run_checked, _render_cli, seeded,
              lambda result: len(result[1].encode()) + len(result[2].encode()))


def _text_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        head, _, rest = line.partition(" ")
        fields.setdefault(head, rest)
    return fields


def _check_beauville_json(report: dict, m: int, n_max: int) -> None:
    expect(report["ok"] and not report["counterexamples"], "beauville scan not ok")
    expect(report["mode"] == "exhaustive", "beauville scan not exhaustive")
    expect([s["n"] for s in report["per_n"]] == list(range(m, n_max + 1)), "per-n rows")
    for s in report["per_n"]:
        expect(s["subspaces"] == inv.gaussian_binomial2(s["n"], m), f"subspace count n={s['n']}")
        if s["n"] < 1 << (m - 1):
            expect(s["qualifying"] == 0, f"qualifying code below the bound at n={s['n']}")
    if n_max >= 1 << (m - 1):
        expect(report["extremal"]["count"] == inv.d_code_count(m), "extremal count")


def _check_no_seventeen_json(cert: dict) -> None:
    expect(cert["ok"], "theorem certificate not ok")
    step = cert["seventeen_curve_step"]
    expect(step["N"] == 16 and not step["degenerate"], "seventeen step shape")
    expect(len(step["pairs"]) == 16 * 15, "witness pair count")
    expect(all(p["weight"] in (7, 9) for p in step["pairs"]), "witness weight off 8 +- 1")
    six = cert["sixteen_curve_step"]
    expect(six["forced_code"] == "D5", "forced code")
    expect(six["forced_code_weight_counts"] == {"0": 1, "8": 30, "16": 1}, "D5 weights")


def _check_verify_all_text(rc: int, out: str) -> None:
    lines = out.splitlines()
    results = [ln for ln in lines if ln.startswith(("ok ", "FAILED "))]
    expect(rc == 0, f"exit {rc}")
    expect(results and all(ln.startswith("ok ") for ln in results), "a suite check failed")
    expect(f"{len(results)} checks, all passed" in lines, "summary line")
    expect(lines[-1].startswith("THEOREM VERIFIED"), "theorem line")


def _check_verify_all_json(rc: int, out: str) -> None:
    payload = json.loads(out)
    expect(rc == 0 and payload["ok"], "suite not ok")
    expect(all(c["ok"] for c in payload["checks"]), "a suite check failed")
    for c in payload["checks"]:
        if c["name"].startswith("beauville"):
            _check_beauville_json(c["detail"], c["detail"]["m"], c["detail"]["n_max"])
    _check_no_seventeen_json(payload["theorem_certificate"])


def _check_beauville_text(rc: int, out: str) -> None:
    expect(rc == 0, f"exit {rc}")
    lines = out.splitlines()
    rows = [dict(f.split("=") for f in ln.split()) for ln in lines if ln.startswith("n=")]
    expect([int(r["n"]) for r in rows] == list(range(4, 9)), "per-n rows")
    for r in rows:
        n = int(r["n"])
        expect(int(r["subspaces"]) == inv.gaussian_binomial2(n, 4), f"subspace count n={n}")
        expect(n == 8 or r["qualifying"] == "0", f"qualifying code below the bound at n={n}")
    expect(f"extremal length 8: {inv.d_code_count(4)} codes" in out, "extremal count")
    expect(lines[-1].startswith("VERIFIED"), "verdict line")


def _check_beauville_json_cli(rc: int, out: str) -> None:
    expect(rc == 0, f"exit {rc}")
    _check_beauville_json(json.loads(out), 4, 8)


def _check_no_seventeen_text(rc: int, out: str) -> None:
    expect(rc == 0, f"exit {rc}")
    expect("forced code D5" in out, "forced code")
    expect("240 duplicated/deleted column witnesses, off-spectrum weights {7,9}" in out, "witnesses")
    expect(out.splitlines()[-1].startswith("THEOREM VERIFIED"), "theorem line")


def _check_no_seventeen_json_cli(rc: int, out: str) -> None:
    expect(rc == 0, f"exit {rc}")
    _check_no_seventeen_json(json.loads(out))


_KUMMER_DET = inv.code_lattice_det(16, 5, -1)


def _check_kummer_text(rc: int, out: str) -> None:
    f = _text_fields(out)
    expect(rc == 0, f"exit {rc}")
    expect(f["rank"] == "16" and f["sign"] == "-1", "rank/sign")
    expect(f["integral"] == "true" and f["even"] == "true", "integral/even")
    expect(f["negative_definite"] == "true", "definiteness")
    expect(Fraction(f["determinant"]) == _KUMMER_DET, "determinant")
    expect(f["elementary_divisors"] == " ".join(["2"] * 6), "elementary divisors")


def _check_kummer_json(rc: int, out: str) -> None:
    d = json.loads(out)
    expect(rc == 0, f"exit {rc}")
    expect(d["n"] == 16 and d["sign"] == -1, "rank/sign")
    expect(Fraction(d["det"]["num"], d["det"]["den"]) == _KUMMER_DET, "determinant")
    expect(d["elementary_divisors"] == [2] * 6, "elementary divisors")
    gram = d["gram2"]
    expect(all(gram[i][j] == gram[j][i] for i in range(16) for j in range(i)), "gram symmetry")
    expect(all(gram[i][i] < 0 and gram[i][i] % 4 == 0 for i in range(16)), "even negative norms")


def _random_config(rng: random.Random) -> tuple[str, list[tuple[str, int, int]]]:
    terms = []
    for _ in range(rng.randint(1, 4)):
        letter = rng.choice("AAADDE")
        n = {"A": rng.randint(1, 12), "D": rng.randint(4, 12), "E": rng.randint(6, 8)}[letter]
        terms.append((letter, n, rng.choice((1, 1, 2, 3, 4, 8, 16))))
    text = ",".join(
        (letter if rng.random() < 0.7 else letter.lower())
        + str(n)
        + (f"x{c}" if c > 1 or rng.random() < 0.2 else "")
        for letter, n, c in terms
    )
    return text, terms


def _duval_expected(terms: list[tuple[str, int, int]]) -> tuple[str, int, int]:
    merged: dict[tuple[str, int], int] = {}
    for letter, n, c in terms:
        merged[letter, n] = merged.get((letter, n), 0) + c
    canonical = ",".join(f"{l}{n}" + (f"x{c}" if c > 1 else "") for (l, n), c in sorted(merged.items()))
    delta = sum(c * inv.dynkin_delta(l, n) for (l, n), c in merged.items())
    mu = sum(c * n for (_, n), c in merged.items())
    return canonical, delta, mu


def _duval_check_op(k3, rng: random.Random, as_json: bool) -> Op:
    text, terms = _random_config(rng)
    canonical, delta, mu = _duval_expected(terms)
    code = 0 if delta <= 16 else 2

    def check(rc: int, out: str) -> None:
        if as_json:
            d = json.loads(out)
            got = (d["config"], d["delta"], d["mu"], d["admissible"])
        else:
            f = _text_fields(out)
            got = (f["config"], int(f["delta"]), int(f["mu"]), "admissible:" in f)
        expect(got == (canonical, delta, mu, code == 0), f"{text}: {got}")
        expect(rc == code, f"{text}: exit {rc}")

    argv = ["duval", "check", text] + (["--json"] if as_json else [])
    return _cli_op(k3, "cli-duval-check" + ("-json" if as_json else ""), argv, check, True)


def _classify_op(k3, rng: random.Random, as_json: bool) -> Op:
    k = rng.choice((0, 8, 16)) if rng.random() < 0.3 else rng.randint(0, 100)
    verdict, euler = {0: ("Empty", 48), 8: ("K3Cover", 24), 16: ("TorusCover", 0)}.get(k, ("Impossible", None))

    def check(rc: int, out: str) -> None:
        if as_json:
            d = json.loads(out)
            got = (d["k"], d["verdict"], d["euler_of_cover"])
        else:
            f = _text_fields(out)
            e = f["euler_of_cover"]
            got = (int(f["k"]), f["verdict"], None if e == "n/a" else int(e))
        expect(got == (k, verdict, euler), f"k={k}: {got}")
        expect(rc == (2 if verdict == "Impossible" else 0), f"k={k}: exit {rc}")

    argv = ["duval", "classify-even-set", "--k", str(k)] + (["--json"] if as_json else [])
    return _cli_op(k3, "cli-classify" + ("-json" if as_json else ""), argv, check, True)


def _chain(k3, rng: random.Random) -> list[Op]:
    # The mix puts the median inside the block of small duval commands and
    # the 90th percentile inside the block of `lattice kummer --json`, away
    # from the edges between command classes.
    fixed = [
        (1, "cli-verify-all", ["verify", "all"], _check_verify_all_text),
        (1, "cli-verify-all-json", ["verify", "all", "--json"], _check_verify_all_json),
        (1, "cli-beauville", ["verify", "beauville", "--m", "4", "--nmax", "8"], _check_beauville_text),
        (1, "cli-beauville-json", ["verify", "beauville", "--m", "4", "--nmax", "8", "--json"],
         _check_beauville_json_cli),
        (2, "cli-no-seventeen", ["verify", "no-seventeen"], _check_no_seventeen_text),
        (1, "cli-no-seventeen-json", ["verify", "no-seventeen", "--json"], _check_no_seventeen_json_cli),
        (1, "cli-kummer", ["lattice", "kummer"], _check_kummer_text),
        (12, "cli-kummer-json", ["lattice", "kummer", "--json"], _check_kummer_json),
    ]
    ops = [_cli_op(k3, name, argv, check, False) for count, name, argv, check in fixed for _ in range(count)]
    ops += [_duval_check_op(k3, rng, i % 2 == 1) for i in range(60)]
    ops += [_classify_op(k3, rng, i % 2 == 1) for i in range(20)]
    _numbered(ops)
    rng.shuffle(ops)
    return ops


# --- enumerate: large code computations -----------------------------------


def _random_code(k3, rng: random.Random, n: int, k: int):
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        if inv.rank(rows) == k:
            return k3.from_generators(k3.Gf2Matrix.from_ints(rows, n))


def _shuffled(k3, code, rng: random.Random):
    perm = list(range(code.n))
    rng.shuffle(perm)
    rows = [sum(((b >> perm[j]) & 1) << j for j in range(code.n)) for b in code.gen.row_bits()]
    return k3.from_generators(k3.Gf2Matrix.from_ints(rows, code.n))


def _code_key(code) -> str:
    return f"[{code.n},{code.k}] " + ",".join(_bits(b) for b in code.gen.row_bits())


def _wd_op(k3, rng: random.Random, k: int) -> Op:
    code = _random_code(k3, rng, 64, k)
    rows = code.gen.row_bits()

    def check(dist) -> None:
        expect(dist.n == 64 and dist.total() == 1 << k, "codeword total")
        first = sum(w * c for w, c in dist.counts.items())
        second = sum(w * w * c for w, c in dist.counts.items())
        expect((first, second) == inv.power_moments(rows, 64), "power moments")

    return Op(f"weight-distribution-k{k}", _code_key(code), lambda: k3.weight_distribution(code),
              check, lambda d: json.dumps(d.counts))


def _rref_op(k3, rng: random.Random, r: int, c: int) -> Op:
    m = k3.Gf2Matrix.from_ints([rng.getrandbits(c) for _ in range(r)], c)
    rows = m.row_bits()

    def check(res) -> None:
        got = res.matrix.row_bits()
        expect(res.rank == inv.rank(rows) == len(res.pivots), "rank")
        expect(all(b == 0 for b in got[res.rank:]), "zero rows at the bottom")
        for i, p in enumerate(res.pivots):
            expect(sum((b >> p) & 1 for b in got) == 1 and (got[i] & -got[i]) == 1 << p, "pivot column")
        expect(all(inv.in_span(b, got) for b in rows), "row space")

    return Op(f"rref-{r}x{c}", ",".join(map(_bits, rows)), lambda: k3.rref(m), check,
              lambda res: f"{res.rank} {res.pivots} " + ",".join(map(_bits, res.matrix.row_bits())))


def _kernel_op(k3, rng: random.Random, r: int, c: int) -> Op:
    m = k3.Gf2Matrix.from_ints([rng.getrandbits(c) for _ in range(r)], c)
    rows = m.row_bits()

    def check(ker) -> None:
        got = ker.row_bits()
        expect(len(got) == c - inv.rank(rows) == inv.rank(got), "nullity")
        expect(inv.orthogonal(rows, got), "kernel vector not annihilated")

    return Op(f"kernel-{r}x{c}", ",".join(map(_bits, rows)), lambda: k3.kernel(m), check,
              lambda ker: ",".join(map(_bits, ker.row_bits())))


def _dual_op(k3, rng: random.Random, n: int, k: int) -> Op:
    code = _random_code(k3, rng, n, k)
    rows = code.gen.row_bits()

    def check(d) -> None:
        got = d.gen.row_bits()
        expect(d.n == n and d.k == n - k == inv.rank(got), "dual dimension")
        expect(inv.orthogonal(rows, got), "dual word not orthogonal")

    return Op(f"dual-{n}-{k}", _code_key(code), lambda: k3.dual(code), check, _code_key)


def _perm_op(k3, name: str, a, b, expected: bool) -> Op:
    def check(result) -> None:
        expect(result is expected, f"permutation_equivalent returned {result}")

    return Op(name, _code_key(a) + " ~ " + _code_key(b), lambda: k3.permutation_equivalent(a, b),
              check, repr)


# Two [14,5] codes with one weight distribution whose column multiplicity
# profiles differ, so no coordinate permutation maps one onto the other.
_NONEQUIV_A = (0x17A1, 0x1882, 0x24E4, 0x1C68, 0x3430)
_NONEQUIV_B = (0x1F89, 0x2E12, 0x3B84, 0x15A0, 0x25C0)


def _enumerate(k3, rng: random.Random) -> list[Op]:
    # The mix puts the median inside the block of D_5 equivalence tests and
    # the 90th percentile inside the block of k=18 enumerations, away from
    # the edges between op classes.
    ops = [_wd_op(k3, rng, k) for k in (16, 16, 17, 18, 18, 18, 18, 18, 18, 19, 20)]
    ops += [_rref_op(k3, rng, 48, 1024) for _ in range(20)]
    ops += [_rref_op(k3, rng, 256, 256) for _ in range(2)]
    ops += [_kernel_op(k3, rng, 64, 512), _kernel_op(k3, rng, 128, 256), _kernel_op(k3, rng, 128, 256)]
    ops += [_dual_op(k3, rng, 512, 64), _dual_op(k3, rng, 256, 128), _dual_op(k3, rng, 256, 128)]

    d5, rm24 = k3.code_d(5), k3.reed_muller(2, 4)
    ops += [_perm_op(k3, "perm-equiv-d5", _shuffled(k3, d5, rng), d5, True) for _ in range(24)]
    ops += [_perm_op(k3, "perm-equiv-rm24", _shuffled(k3, rm24, rng), rm24, True) for _ in range(2)]
    a = k3.from_generators(k3.Gf2Matrix.from_ints(list(_NONEQUIV_A), 14))
    b = _shuffled(k3, k3.from_generators(k3.Gf2Matrix.from_ints(list(_NONEQUIV_B), 14)), rng)
    if inv.column_profile(a.gen.row_bits(), 14) == inv.column_profile(b.gen.row_bits(), 14):
        raise AssertionError("the non-equivalent pair lost its distinguishing invariant")
    ops.append(_perm_op(k3, "perm-equiv-distinct", a, b, False))

    def check_no_extension(cert) -> None:
        big = 1 << 7
        expect(cert.m == 8 and cert.block_length == big and not cert.degenerate, "certificate shape")
        expect(len(cert.entries) == big * (big - 1), "pair count")
        expect(cert.witness_weights() <= {big // 2 - 1, big // 2 + 1}, "witness weights")

    ops.append(Op("no-extension-m8", "m=8", lambda: k3.verify_no_extension(8), check_no_extension,
                  lambda c: json.dumps(c.to_json_dict()), seeded=False))

    scan_seed = rng.getrandbits(32)

    def check_beauville(report) -> None:
        expect(report.ok and report.mode == "sampled", "sampled scan not ok")
        expect([s.n for s in report.per_n] == list(range(5, 17)), "per-n rows")
        expect(all(s.examined == 500 for s in report.per_n), "sample count")
        expect(all(s.qualifying == 0 for s in report.per_n if s.n < 16), "qualifying code below the bound")
        expect(report.extremal_count >= 1, "D_5 itself must qualify")

    ops.append(Op("beauville-sampled-m5", f"seed={scan_seed}",
                  lambda: k3.verify_beauville(5, 16, seed=scan_seed), check_beauville,
                  lambda r: json.dumps(r.to_json_dict())))
    _numbered(ops)
    rng.shuffle(ops)
    return ops


# --- lattice: exact invariants of code lattices ---------------------------


def _random_subcode(k3, rng: random.Random, code, k: int):
    gens = code.gen.row_bits()
    while True:
        rows = []
        for _ in range(k):
            word = 0
            for g in gens:
                if rng.getrandbits(1):
                    word ^= g
            rows.append(word)
        if inv.rank(rows) == k:
            return k3.from_generators(k3.Gf2Matrix.from_ints(rows, code.n))


def _non_isotropic(k3, rng: random.Random, n: int, k: int):
    while True:
        code = _random_code(k3, rng, n, k)
        if not inv.is_isotropic(code.gen.row_bits()):
            return code


def _test_vectors(rng: random.Random, code, count: int = 8) -> list[tuple[int, ...]]:
    """Lifts of codewords plus even shifts (members), and the same with one
    coordinate bumped by one (members only if the bumped word is in the code)."""
    gens, n = code.gen.row_bits(), code.n
    vecs = []
    for _ in range(count):
        word = 0
        for g in gens:
            if rng.getrandbits(1):
                word ^= g
        vec = [((word >> j) & 1) + 2 * rng.randint(-2, 2) for j in range(n)]
        vecs.append(tuple(vec))
        vec[rng.randrange(n)] += 1
        vecs.append(tuple(vec))
    return vecs


def _lattice_ops(k3, rng: random.Random, label: str, code, sign: int, with_json: bool) -> list[Op]:
    n, k = code.n, code.k
    rows = code.gen.row_bits()
    integral = inv.is_isotropic(rows)
    det = inv.code_lattice_det(n, k, sign)
    vecs = _test_vectors(rng, code)
    key = f"{sign:+d} {_code_key(code)}"
    built: dict[str, Any] = {}
    tag = f"{label}{'+' if sign > 0 else '-'}"

    def build() -> Any:
        built["lat"] = k3.gamma_from_code(code, sign)
        return built["lat"]

    def lat() -> Any:
        return built["lat"]

    def check_build(lt) -> None:
        expect(lt.n == n and lt.sign == sign, "rank/sign")
        diag = 1
        for i in range(n):
            diag *= lt.basis[i][i]
            expect(lt.gram2[i][i] == sign * sum(x * x for x in lt.basis[i]), "gram diagonal")
        expect(diag == 1 << (n - k), "index in Z^n")

    def check_minors(minors) -> None:
        expect(len(minors) == n and minors[-1] == det, "last minor is the determinant")
        expect(all(m > 0 if sign > 0 else (m > 0) == (t % 2 == 0)
                   for t, m in enumerate(minors, 1)), "minor signs")

    def check_smith(group) -> None:
        expect(group.order == abs(det), "discriminant order")

    def check_members(result) -> None:
        for v, (member, norm) in zip(vecs, result):
            expect(member == inv.in_span(sum((x & 1) << j for j, x in enumerate(v)), rows), "membership")
            expect(norm == Fraction(sign * sum(x * x for x in v), 2), "norm")

    def check_json(d) -> None:
        expect(d["n"] == n and d["sign"] == sign, "rank/sign")
        expect(Fraction(d["det"]["num"], d["det"]["den"]) == det, "determinant")
        divisors = d["elementary_divisors"]
        expect((divisors is None) == (not integral), "integrality")
        if divisors is not None:
            prod = 1
            for e in divisors:
                prod *= e
            expect(prod == abs(det), "discriminant order")

    def check_det(d) -> None:
        expect(d == det, f"determinant {d} != {det}")

    def check_negdef(result) -> None:
        expect(result is (sign < 0), "definiteness")

    ops = [
        Op(f"{tag}build", key, build, check_build, lambda lt: json.dumps([lt.basis, lt.gram2])),
        Op(f"{tag}det", key, lambda: k3.determinant(lat()), check_det, str),
        Op(f"{tag}minors", key, lambda: k3.leading_principal_minors(lat()), check_minors,
           lambda ms: ",".join(map(str, ms))),
        Op(f"{tag}negdef", key, lambda: k3.is_negative_definite(lat()), check_negdef, repr),
        Op(f"{tag}members", key + " " + repr(vecs),
           lambda: [(lat().contains(v), lat().norm_of(v)) for v in vecs], check_members, repr),
    ]
    if integral:
        ops.append(Op(f"{tag}smith", key, lambda: k3.discriminant_group(lat()), check_smith,
                      lambda g: repr(g.elementary_divisors)))
    if with_json:
        ops.append(Op(f"{tag}json", key, lambda: lat().to_json_dict(), check_json,
                      lambda d: json.dumps(d, sort_keys=True)))
    if not label.startswith(("iso", "non")):
        for op in ops:
            op.seeded = op.kind.endswith("members")
    return ops


def _lattice(k3, rng: random.Random) -> list[Op]:
    # Ops of one lattice run in order (the build feeds the rest); the
    # lattices themselves come in seeded order.  The mix puts the median
    # inside the block of rank-32 minors and the 90th percentile inside
    # the block of rank-64 minors and definiteness tests.
    rm15, rm25, rm26, d7 = k3.reed_muller(1, 5), k3.reed_muller(2, 5), k3.reed_muller(2, 6), k3.code_d(7)
    specs = [
        ("rm15", rm15, 1, False),
        ("rm15", rm15, -1, False),
        ("iso32", _random_subcode(k3, rng, rm25, 8), 1, False),
        ("non32", _non_isotropic(k3, rng, 32, 10), 1, False),
        ("rm26", rm26, -1, True),
        ("d7", d7, 1, True),
        ("iso64", _random_subcode(k3, rng, rm26, 14), -1, True),
        ("non64", _non_isotropic(k3, rng, 64, 20), -1, True),
    ]
    groups = [_lattice_ops(k3, rng, label, code, sign, with_json) for label, code, sign, with_json in specs]
    rng.shuffle(groups)
    return _numbered([op for group in groups for op in group])
