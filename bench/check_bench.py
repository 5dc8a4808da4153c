"""Tests of the benchmark harness itself (inputs, checks, tracer, hygiene).

The file name keeps it out of the repository's default test collection;
run it by name from the root of a checkout:

    python3 -m pytest bench/check_bench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from start import load_package  # noqa: E402
from worker import Runner  # noqa: E402

k3 = load_package(ROOT)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_across_seeds(name):
    first = workloads.build(k3, name, 5)
    again = workloads.build(k3, name, 5)
    other = workloads.build(k3, name, 6)
    assert [(op.name, op.key) for op in first] == [(op.name, op.key) for op in again]
    assert sorted(op.name for op in first) == sorted(op.name for op in other)
    seeded = {op.name: op.key for op in first if op.seeded}
    assert seeded and seeded != {op.name: op.key for op in other if op.seeded}


def _op(name: str, kind: str) -> workloads.Op:
    return next(op for op in workloads.build(k3, name, 1) if op.kind == kind)


def _failures(op: workloads.Op, golden: dict[str, str] | None = None) -> list[str]:
    runner = Runner([op], golden or {}, golden_all=True)
    runner.run_pass()
    return runner.failures


def test_correct_outputs_pass():
    for name, kind in (("enumerate", "weight-distribution-k16"), ("chain", "cli-kummer-json")):
        assert _failures(_op(name, kind)) == []


def test_corrupted_weight_distribution_is_a_failure():
    op = _op("enumerate", "weight-distribution-k16")
    original = op.fn

    def shifted():
        dist = original()
        counts = dict(dist.counts)
        w = max(counts)
        counts[w] -= 1
        counts[w - 1] = counts.get(w - 1, 0) + 1  # same total, wrong moments
        return replace(dist, counts=counts)

    failures = _failures(replace(op, fn=shifted))
    assert len(failures) == 1 and "power moments" in failures[0]


def test_corrupted_cli_output_is_a_failure():
    op = _op("chain", "cli-duval-check")
    original = op.fn

    def wrong_delta():
        rc, out, err = original()
        lines = [f"delta {int(ln.split()[1]) + 1}" if ln.startswith("delta ") else ln
                 for ln in out.splitlines()]
        return rc, "\n".join(lines) + "\n", err

    assert len(_failures(replace(op, fn=wrong_delta))) == 1


def test_output_differing_from_the_golden_digest_is_a_failure():
    op = _op("chain", "cli-kummer-json")
    original = op.fn

    def reformatted():
        rc, out, err = original()
        return rc, json.dumps(json.loads(out)) + "\n", err  # same data, other bytes

    golden = {op.name: workloads.digest(op.render(original()))}
    assert _failures(op, golden) == []
    assert len(_failures(replace(op, fn=reformatted), golden)) == 1


def test_raising_op_is_a_failure():
    op = _op("lattice", "rm15+det")  # runs before its lattice is built
    assert len(_failures(op)) == 1


def _bindings():
    return {
        (module.__name__, attr): value
        for module in tracing.Tracer(k3).modules()
        for attr, value in vars(module).items()
    }


def test_tracer_attributes_weight_distribution_to_codes_inside_duval():
    before = _bindings()
    tracer = tracing.Tracer(k3)
    tracer.install()
    try:
        cert = k3.duval.verify_max_sixteen()
    finally:
        tracer.uninstall()
    assert cert.ok
    spans, counters = tracer.take()
    names = [s[0] for s in spans]
    wd = [s for s in spans if s[0] == "codes.weight_distribution"]
    # one call goes through duval's own binding, one through codes'
    assert sorted(names[s[3]] for s in wd) == ["codes.is_isomorphic_to_d", "duval.verify_max_sixteen"]
    layers = tracing.per_layer(spans, counters)
    assert layers["codes.codewords"] == 2 * 32  # D_5 enumerated twice
    assert layers["codes.weight_distribution_s"] > 0 and layers["duval.calls"] >= 2
    top = spans[names.index("duval.verify_max_sixteen")]
    own = tracing.self_times(spans)
    duration = top[2] - top[1]
    assert layers["duval.self_s"] * 1e9 < duration - tracing.inclusive_time(spans, "codes.weight_distribution")
    assert sum(own) == sum(s[2] - s[1] for s in spans if s[3] < 0)
    assert _bindings() == before  # every namespace restored, no constant switched


def test_self_times_and_inclusive_time():
    spans = [("codes.f", 0, 100, -1), ("gf2.g", 10, 40, 0), ("gf2.g", 15, 25, 1), ("codes.h", 50, 60, 0)]
    assert tracing.self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10]
    assert tracing.inclusive_time(spans, "gf2.g") == 30
    layers = tracing.per_layer(spans, Counter())
    assert (layers["codes.calls"], layers["gf2.calls"]) == (2, 2)
    assert (layers["codes.self_s"], layers["gf2.self_s"]) == (70e-9, 30e-9)


def _snapshot(tree: Path) -> dict[str, str]:
    return {
        str(p.relative_to(tree)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tree.rglob("*")) if p.is_file()
    }


def test_harness_leaves_src_untouched(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    before = _snapshot(tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "7", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "pass_cal", "op_p50_cal", "op_p90_cal", "peak_rss_mb"}
    assert _snapshot(tmp_path / "src") == before  # no bytecode or other writes under src/
    library = "".join(p.read_text() for p in (ROOT / "src" / "k3nodal").glob("*.py"))
    assert "environ" not in library and "getenv" not in library  # nothing the harness sets can switch it


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == "" and "src/k3nodal" in proc.stderr
