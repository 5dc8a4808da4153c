"""Spans around every public k3nodal function, installed from outside.

``Tracer.install`` wraps each public function and public method defined in
a k3nodal module, and rebinds the wrapper in every k3nodal namespace that
holds the original: ``duval`` and ``lattice`` import names with
``from .codes import ...``, so rebinding ``codes`` alone would miss their
calls.  Generator functions are left alone, because a span cannot follow
a suspended generator; their work lands in the caller's self time.

A span is ``(name, start_ns, end_ns, parent_index)`` in thread CPU time,
kept in memory.  Calls made while ``active`` is False (the benchmark's own
output checks) are not recorded.  A layer is the k3nodal module that
defines the function, and a layer's self time is its spans' durations
minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = ("gf2", "codes", "lattice", "duval", "cli")


def _count_subspaces(counters: Counter, args: tuple, kwargs: dict, report: Any) -> None:
    counters["codes.subspaces"] += sum(s.examined for s in report.per_n)
    counters["codes.qualifying"] += sum(s.qualifying for s in report.per_n)


def _count_codewords(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    code = args[0] if args else kwargs["c"]
    counters["codes.codewords"] += 1 << code.k


# Counters read from arguments or results where the work happens.
_HOOKS: dict[str, Callable[[Counter, tuple, dict, Any], None]] = {
    "codes.verify_beauville": _count_subspaces,
    "codes.weight_distribution": _count_codewords,
}


class Tracer:
    def __init__(self, package: Any) -> None:
        self.package = package
        self.spans: list[Any] = []
        self.counters: Counter = Counter()
        self.active = True
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def modules(self) -> list[Any]:
        prefix = self.package.__name__ + "."
        return [self.package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]

    def _is_own(self, obj: Any) -> bool:
        return getattr(obj, "__module__", "").startswith(self.package.__name__ + ".")

    def _span_name(self, fn: Any) -> str:
        return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"

    def _wrap(self, fn: Callable) -> Callable:
        name = self._span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.thread_time_ns
        hook = _HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        modules = self.modules()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not self._is_own(obj):
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj)
                    self._set(module, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(obj)

    def _install_methods(self, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    self._set(cls, attr, type(raw)(self._wrap(fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._set(cls, attr, self._wrap(raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[Any], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans: list[Any]) -> list[int]:
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def inclusive_time(spans: list[Any], name: str) -> int:
    """Total duration of ``name`` spans, not counting one nested in another."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer(spans: list[Any], counters: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass (seconds, counts, rates)."""
    own = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for span, t in zip(spans, own):
        layer = layer_of(span[0])
        self_ns[layer] += t
        calls[layer] += 1

    def incl(*names: str) -> float:
        return sum(inclusive_time(spans, n) for n in names) / 1e9

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out[f"{layer}.calls"] = calls[layer]
    perm_calls = sum(1 for s in spans if s[0] == "codes.permutation_equivalent")
    out.update(
        {
            "gf2.rref_s": incl("gf2.rref"),
            "gf2.kernel_s": incl("gf2.kernel"),
            "codes.beauville_s": incl("codes.verify_beauville"),
            "codes.subspaces": counters["codes.subspaces"],
            "codes.weight_distribution_s": incl("codes.weight_distribution"),
            "codes.codewords": counters["codes.codewords"],
            "codes.perm_equiv_s": incl("codes.permutation_equivalent"),
            "codes.perm_equiv_calls": perm_calls,
            "codes.no_extension_s": incl("codes.verify_no_extension"),
            "lattice.build_s": incl("lattice.gamma_from_code"),
            "lattice.det_s": incl("lattice.determinant"),
            "lattice.minors_s": incl("lattice.leading_principal_minors", "lattice.is_negative_definite"),
            "lattice.smith_s": incl("lattice.discriminant_group"),
            "cli.bytes_out": counters["cli.bytes_out"],
        }
    )
    out["codes.subspaces_per_s"] = _rate(out["codes.subspaces"], out["codes.beauville_s"])
    out["codes.qualifying_ratio"] = _rate(counters["codes.qualifying"], out["codes.subspaces"])
    out["codes.codewords_per_s"] = _rate(out["codes.codewords"], out["codes.weight_distribution_s"])
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0
