"""K3-specific arithmetic for nodal curves and du Val singularities.

Covers the even-set size classification through Euler numbers, the code
dimension bound from the second Betti number, the constraints forced on
the code of a set of disjoint nodal curves, the assembled certificate
that no K3 surface carries 17 of them, the whole verification suite
(``verify_all``), and the delta/mu calculator with admissibility verdicts
for ADE singularity configurations.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .codes import (
    ExtensionCertificate,
    LinearCode,
    code_d,
    is_isomorphic_to_d,
    verify_beauville,
    verify_no_extension,
    weight_distribution,
)
from .gf2 import _integer
from .lattice import (
    determinant,
    discriminant_group,
    even_eight_lattice,
    is_even,
    is_integral,
    is_negative_definite,
    kummer_lattice,
)

K3_EULER = 24
K3_B2 = 22
# the most disjoint nodal curves a K3 surface carries: the bound that
# verify_max_sixteen proves and the du Val verdict applies to delta
MAX_NODAL_CURVES = 16


class CoverVerdict(str, Enum):
    EMPTY = "Empty"
    K3_COVER = "K3Cover"
    TORUS_COVER = "TorusCover"
    IMPOSSIBLE = "Impossible"


@dataclass(frozen=True)
class EvenSetClass:
    k: int
    verdict: CoverVerdict
    euler_of_cover: int | None


def classify_even_set(k: int) -> EvenSetClass:
    """Classify the double cover branched over an even set of k disjoint
    nodal curves on a K3 surface.

    The cover's Euler number is e = 48 - 3k.  Noether's formula forces
    e/12 = 2 - q with q = 0 (a K3 cover) or q = 2 (a complex torus); any
    other k is impossible.  The verdicts are derived from this arithmetic,
    never from a hard-coded list of sizes.  A bool or a non-integer k is
    refused.
    """
    k = _integer(k, "the set size")
    if k < 0:
        raise ValueError("set size must be nonnegative")
    if k == 0:
        return EvenSetClass(0, CoverVerdict.EMPTY, 2 * K3_EULER)
    euler = 2 * K3_EULER - 3 * k
    if euler % 12 == 0:
        irregularity = 2 - euler // 12
        if irregularity == 0:
            return EvenSetClass(k, CoverVerdict.K3_COVER, euler)
        if irregularity == 2:
            return EvenSetClass(k, CoverVerdict.TORUS_COVER, euler)
    return EvenSetClass(k, CoverVerdict.IMPOSSIBLE, None)


def code_dim_lower_bound(n: int) -> int:
    """Lower bound n - b2/2 (clamped at 0), b2 = 22, for the dimension of
    the code of n disjoint nodal curves on a K3 surface.  A bool or a
    non-integer n is refused."""
    n = _integer(n, "the curve count")
    if n < 0:
        raise ValueError("curve count must be nonnegative")
    return max(0, n - K3_B2 // 2)


@dataclass(frozen=True)
class NodalCodeConstraints:
    """What the K3 arithmetic forces on the code of n disjoint nodal curves.
    Every field but n is read from n, not passed, and n is normalized to a
    positive int; a bool or a non-integer is refused.

    The allowed nonzero weights are the even-set sizes k <= n that
    ``classify_even_set`` calls a K3 or torus cover; a cover's Euler number
    48 - 3k is never negative, so no k above 2 * K3_EULER // 3 is tried.
    The code they force is D_5 at n = 16, and the zero code when no weight
    is allowed (n < 8).  Otherwise none is forced: at n = 8, eight disjoint
    nodal curves have the code {0} or the all-ones line, the line exactly
    when they form an even set.
    """

    n: int
    allowed_nonzero_weights: tuple[int, ...] = field(init=False)
    dim_lower_bound: int = field(init=False)
    forced_code: LinearCode | None = field(init=False)
    forced_code_name: str | None = field(init=False)

    def __post_init__(self) -> None:
        n = _integer(self.n, "the curve count")
        if n < 1:
            raise ValueError("curve count must be positive")
        covers = (CoverVerdict.K3_COVER, CoverVerdict.TORUS_COVER)
        weights = tuple(
            k for k in range(1, min(n, 2 * K3_EULER // 3) + 1) if classify_even_set(k).verdict in covers
        )
        code, name = (code_d(5), "D5") if n == 16 else (LinearCode.zero(n), "zero") if n < 8 else (None, None)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "allowed_nonzero_weights", weights)
        object.__setattr__(self, "dim_lower_bound", code_dim_lower_bound(n))
        object.__setattr__(self, "forced_code", code)
        object.__setattr__(self, "forced_code_name", name)


@dataclass(frozen=True)
class TheoremCertificate:
    """Machine-checkable composition proving the 16-curve bound.

    ``ok`` is read from the two steps on every read, not passed: the
    sixteen-curve step must state the dimension bound 5, the allowed
    weights {8, 16}, an extremal length, a forced code that passes the
    characterization and the weight counts {0: 1, 8: 30, 16: 1} of D_5,
    and the seventeen-curve witness table must be ``ok``.  The step is a
    plain dict that a caller can edit, so the verdict follows its data.
    """

    statement: str
    sixteen_step: dict
    seventeen_step: ExtensionCertificate
    monotonicity: str

    # the editable step does not hash, so neither does the certificate
    __hash__ = None  # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        s = self.sixteen_step
        sixteen_ok = (
            s["dim_lower_bound"] == 5
            and s["allowed_nonzero_weights"] == [8, 16]
            and s["length_is_extremal"]
            and s["forced_code_passes_characterization"]
            and s["forced_code_weight_counts"] == {"0": 1, "8": 30, "16": 1}
        )
        return sixteen_ok and self.seventeen_step.ok

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "sixteen_curve_step": copy.deepcopy(self.sixteen_step),
            "seventeen_curve_step": self.seventeen_step.to_json_dict(),
            "monotonicity": self.monotonicity,
            "ok": self.ok,
        }


def verify_max_sixteen() -> TheoremCertificate:
    """Assemble the chain showing a complex K3 surface carries at most 16
    disjoint nodal curves; the certificate checks it.

    Step one: for 16 curves the code has dimension >= 16 - 22/2 = 5 and
    nonzero weights in {8, 16}, so all nonzero weights reach half of
    16 = 2^4; the extremal characterization then forces the code to be
    D_5.  Step two: the no-extension certificate rules out a seventeenth
    coordinate.  Larger sets reduce to seventeen by deleting surplus
    coordinates first, recorded as the monotonicity note.
    """
    cons = NodalCodeConstraints(16)
    d5 = cons.forced_code
    sixteen = {
        "n": cons.n,
        "dim_lower_bound": cons.dim_lower_bound,
        "allowed_nonzero_weights": list(cons.allowed_nonzero_weights),
        "length_is_extremal": cons.n == 1 << (cons.dim_lower_bound - 1),
        "forced_code": cons.forced_code_name,
        "forced_code_parameters": {"n": d5.n, "k": d5.k},
        "forced_code_weight_counts": {str(w): c for w, c in weight_distribution(d5).counts.items()},
        "forced_code_passes_characterization": is_isomorphic_to_d(d5),
    }
    return TheoremCertificate(
        statement="a complex K3 surface carries at most 16 disjoint nodal curves",
        sixteen_step=sixteen,
        seventeen_step=verify_no_extension(5),
        monotonicity=(
            "any set of more than 16 disjoint nodal curves contains 17; every "
            "16-curve subset forces the code D_5 on those coordinates, and the "
            "witness table shows a 17th coordinate is impossible, so ruling out "
            "17 rules out every larger count"
        ),
    )


@dataclass(frozen=True)
class SuiteReport:
    """Named (name, ok, detail) checks of the whole suite and the theorem
    certificate they end with.  ``ok`` holds only when every check and the
    certificate pass, so the verdict never contradicts the certificate."""

    checks: tuple[tuple[str, bool, dict], ...]
    theorem: TheoremCertificate

    # the details and the certificate do not hash, so neither does the report
    __hash__ = None  # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        return self.theorem.ok and all(good for _, good, _ in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {"name": name, "ok": good, "detail": copy.deepcopy(detail)} for name, good, detail in self.checks
            ],
            "theorem_certificate": self.theorem.to_json_dict(),
            "ok": self.ok,
        }


def verify_all() -> SuiteReport:
    """Run the verification suite, each fact of the chain once: the
    exhaustive half-weight scans for m = 2, 3, 4, the no-extension tables
    for m = 3, 4, the invariants of the Kummer and even-eight lattices, the
    even-set sizes 0..100, and the sixteen-curve theorem."""
    checks: list[tuple[str, bool, dict]] = []
    for m, n_max in ((2, 4), (3, 6), (4, 8)):
        report = verify_beauville(m, n_max)
        checks.append((f"beauville m={m} n_max={n_max}", report.ok, report.to_json_dict()))

    for m in (3, 4):
        cert = verify_no_extension(m)
        detail = {"m": m, "pairs": len(cert.entries), "weights": sorted(cert.witness_weights())}
        checks.append((f"no-extension m={m}", cert.ok, detail))

    for name, lat in (("kummer", kummer_lattice()), ("even-eight", even_eight_lattice())):
        facts = {
            "integral": is_integral(lat),
            "even": is_even(lat),
            "negative_definite": is_negative_definite(lat),
            "determinant_64": determinant(lat) == 64,
            "discriminant_two_elementary": discriminant_group(lat).elementary_divisors == (2,) * 6,
        }
        if name == "kummer":
            doubled_units = (tuple(2 if t == i else 0 for t in range(lat.n)) for i in range(lat.n))
            facts["sixteen_norm_minus_two_vectors"] = all(
                lat.contains(v) and lat.norm_of(v) == -2 for v in doubled_units
            )
        checks.append((f"{name} lattice", all(facts.values()), facts))

    expected = {0: CoverVerdict.EMPTY, 8: CoverVerdict.K3_COVER, 16: CoverVerdict.TORUS_COVER}
    sweep = {k: classify_even_set(k).verdict for k in range(101)}
    sweep_ok = all(v is expected.get(k, CoverVerdict.IMPOSSIBLE) for k, v in sweep.items())
    name = f"even-set sizes {min(sweep)}..{max(sweep)}"
    checks.append((name, sweep_ok, {"allowed": sorted(expected)}))

    theorem = verify_max_sixteen()
    checks.append(("sixteen-curve theorem", theorem.ok, {"statement": theorem.statement}))
    return SuiteReport(tuple(checks), theorem)


# ASCII digits only: \d would also match other Unicode decimal digits
_TERM_RE = re.compile(r"^([ADE])([0-9]+)(?:X([0-9]+))?$")
# The most digits an index or a count may have.  delta and mu are sums of
# products of two such numbers, so every accepted configuration prints
# within CPython's 4300-digit limit on int-to-str conversion.
MAX_TERM_DIGITS = 2000
# (type, field, least index, greatest index) of the du Val types, in field order
_INDEX_RANGES = (("A", "a", 1, float("inf")), ("D", "d", 4, float("inf")), ("E", "e", 6, 8))


@dataclass(frozen=True)
class DuValConfig:
    """Multiset of ADE singularity types: counts of A_n (n >= 1),
    D_n (n >= 4) and E_n (n in {6, 7, 8}).  Every index and count is
    normalized to an int; a bool or a non-integer is refused.  Keys that
    normalize to one index add their counts, as repeated terms do in
    ``parse``.  Each map is stored read-only, in ascending index order."""

    a: Mapping[int, int] = field(default_factory=dict)
    d: Mapping[int, int] = field(default_factory=dict)
    e: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (label, name, low, high), counts in zip(_INDEX_RANGES, (self.a, self.d, self.e)):
            cleaned = {}
            if counts:
                # _integer's refusal text is formatted only for a value it refuses
                terms = sorted([
                    (n if type(n) is int else _integer(n, f"the index of {label}"),
                     count if type(count) is int else _integer(count, f"the count of {label}{n}"))
                    for n, count in counts.items()
                ])
                for n, count in terms:
                    if not low <= n <= high:
                        raise ValueError(f"{label}{n} is not a du Val singularity type")
                    if count < 0:
                        raise ValueError(f"negative count for {label}{n}")
                    if count:
                        cleaned[n] = cleaned.get(n, 0) + count
            object.__setattr__(self, name, MappingProxyType(cleaned))

    def __hash__(self) -> int:
        # a read-only map does not hash; equal configurations have equal terms
        return hash(tuple(self.terms()))

    def __reduce__(self):
        # a read-only map cannot be pickled or deep-copied; the copy is
        # built, and validated, from plain dicts
        return type(self), (dict(self.a), dict(self.d), dict(self.e))

    @classmethod
    def parse(cls, text: str) -> DuValConfig:
        """Parse the configuration grammar: comma-separated ``<T><n>[x<count>]``
        terms with a positive count, case-insensitive, e.g. ``A1x16`` or
        ``A2,D4x2,E7``.  Indices and counts have at most MAX_TERM_DIGITS
        digits."""
        maps: dict[str, dict[int, int]] = {"A": {}, "D": {}, "E": {}}
        for raw in text.split(","):
            term = raw.strip().upper()
            if not term:
                raise ValueError(f"empty term in configuration {text!r}")
            match = _TERM_RE.match(term)
            if not match:
                raise ValueError(f"cannot parse term {raw.strip()!r}")
            letter, index, times = match.groups()
            if len(index) > MAX_TERM_DIGITS or times is not None and len(times) > MAX_TERM_DIGITS:
                raise ValueError(
                    f"term {raw.strip()[:12]}... has a number of more than {MAX_TERM_DIGITS} digits"
                )
            n, count = int(index), int(times) if times else 1
            if count == 0:
                raise ValueError(f"zero count in term {raw.strip()!r}")
            target = maps[letter]
            target[n] = target.get(n, 0) + count
        return cls(*maps.values())

    def terms(self) -> Iterator[tuple[str, int, int]]:
        """(letter, index, count) triples, A before D before E and each type
        in ascending index order, the order ``__post_init__`` stores."""
        for letter, counts in (("A", self.a), ("D", self.d), ("E", self.e)):
            for n, count in counts.items():
                yield letter, n, count

    def canonical(self) -> str:
        parts = [
            f"{letter}{n}" + (f"x{count}" if count > 1 else "")
            for letter, n, count in self.terms()
        ]
        return ",".join(parts) if parts else "(empty)"


class TypeBreakdown(NamedTuple):
    label: str
    count: int
    delta_each: int
    delta_total: int
    milnor_total: int


@dataclass(frozen=True)
class AdmissibilityReport:
    """Admissibility of a configuration on a K3 surface: the resolved nodal
    curves must not exceed 16.  Every field but the configuration is
    computed from it: the per-type breakdown, delta and mu as its sums,
    their exact ratio (None when mu = 0), the verdict and its reasons.
    delta counts the disjoint nodal curves of the resolution, the sum of
    (a_n + e_n) floor((n+1)/2) + d_n floor((n+2)/2); mu is the total
    Milnor number, the sum of n over all singularities.  This is the one
    place either is computed."""

    config: DuValConfig
    delta: int = field(init=False)
    mu: int = field(init=False)
    ratio: Fraction | None = field(init=False)
    nodal_count_per_type: tuple[TypeBreakdown, ...] = field(init=False)
    admissible: bool = field(init=False)
    reasons: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        breakdown = []
        delta = mu = 0
        for letter, n, count in self.config.terms():
            # disjoint nodal curves extracted from one singularity of the type
            each = (n + 2) // 2 if letter == "D" else (n + 1) // 2
            delta_total, milnor_total = each * count, n * count
            breakdown.append(TypeBreakdown(f"{letter}{n}", count, each, delta_total, milnor_total))
            delta += delta_total
            mu += milnor_total
        object.__setattr__(self, "nodal_count_per_type", tuple(breakdown))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "ratio", Fraction(delta, mu) if mu else None)
        object.__setattr__(self, "admissible", delta <= MAX_NODAL_CURVES)
        reasons = () if self.admissible else (
            f"delta {delta} exceeds the bound of {MAX_NODAL_CURVES} disjoint nodal curves",
        )
        object.__setattr__(self, "reasons", reasons)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.canonical(),
            "delta": self.delta,
            "mu": self.mu,
            "ratio": (
                {"num": self.ratio.numerator, "den": self.ratio.denominator}
                if self.ratio is not None
                else None
            ),
            "per_type": [
                {
                    "type": t.label,
                    "count": t.count,
                    "delta_each": t.delta_each,
                    "delta_total": t.delta_total,
                    "milnor_total": t.milnor_total,
                }
                for t in self.nodal_count_per_type
            ],
            "admissible": self.admissible,
            "reasons": list(self.reasons),
        }
