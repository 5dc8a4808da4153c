"""One workload in one fresh interpreter, as a closed loop.

Started by ``run.py`` from the root of a checkout.  It imports k3nodal from
``src/``, builds the seeded op list, runs one untimed warm-up pass and then
timed passes (each op only after the previous one returned) until the time
budget is spent and at least ``MIN_SAMPLES`` latencies are in.  Every op's
output is checked after its timers stop.  The last stdout line is a JSON
record for ``run.py``.

Each op is timed by the CPU time of this (only) thread and, alongside, by
the wall clock.  The host this runs on changes speed by up to 2x within
seconds, so CPU time alone repeats poorly.  A fixed reference loop
(``start.calibrate``) therefore runs before each pass and after each block
of ops that together take ~100 ms.  Every op of a block is divided by the
mean time of the loops just before and just after that block: a unit
(``cal``) that follows the machine's speed at the block's time.

With ``--trace`` the budget is split: the first half runs untraced, the
second half under the tracer, which yields per-pass layer metrics and the
tracing overhead.  The spans go to
``.bench_out/<workload>-seed<seed>-trace1-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from invariants import expect  # noqa: E402
from start import calibrate, load_package  # noqa: E402

MIN_SAMPLES = 100
SETUP_SAMPLES_IN_RUN = 8
CHUNK_NS = 100_000_000
GOLDEN = Path(__file__).resolve().parent / "golden.json"


class Runner:
    """Runs passes over one op list and keeps the tallies.

    Per pass it keeps each op's cost in ``cal`` (the return value of
    ``run_pass``), its CPU ns (``cpu``) and its wall-clock ns (``wall``).
    """

    def __init__(self, ops: list[workloads.Op], golden: dict[str, str], golden_all: bool) -> None:
        self.ops = ops
        self.golden = golden
        self.golden_all = golden_all
        self.attempted = 0
        self.failures: list[str] = []
        self.cpu: list[list[int]] = []
        self.wall: list[list[int]] = []
        self.tracer: tracing.Tracer | None = None

    def run_pass(self) -> list[float]:
        costs: list[float] = []
        cpu: list[int] = []
        wall: list[int] = []
        cpu_clock, wall_clock = time.thread_time_ns, time.perf_counter_ns
        unit_before, chunk_start = calibrate(), 0
        for index, op in enumerate(self.ops):
            self.attempted += 1
            wall_start, start = wall_clock(), cpu_clock()
            try:
                result = op.fn()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            cpu.append(cpu_clock() - start)
            wall.append(wall_clock() - wall_start)
            if error is not None:
                self.failures.append(f"{op.name}: {type(error).__name__}: {error}")
            else:
                self.check(op, result)
            if sum(cpu[chunk_start:]) >= CHUNK_NS or index == len(self.ops) - 1:
                unit_after = calibrate()
                unit = (unit_before + unit_after) / 2
                costs.extend(t / unit for t in cpu[chunk_start:])
                unit_before, chunk_start = unit_after, len(cpu)
        self.cpu.append(cpu)
        self.wall.append(wall)
        return costs

    def check(self, op: workloads.Op, result: Any) -> None:
        """Check one output, untraced; a wrong or malformed one is a failure."""
        if self.tracer is not None:
            self.tracer.active = False
            if op.out_bytes is not None:
                self.tracer.counters["cli.bytes_out"] += op.out_bytes(result)
        try:
            op.check(result)
            if op.name in self.golden and (self.golden_all or not op.seeded):
                got = workloads.digest(op.render(result))
                expect(got == self.golden[op.name], f"digest {got} differs from the golden record")
        except Exception as exc:
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def loop(self, seconds: float, min_samples: int = 0, after_pass=None) -> list[list[float]]:
        passes: list[list[float]] = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline or len(passes) * len(self.ops) < min_samples:
            gc.collect()
            passes.append(self.run_pass())
            if after_pass is not None:
                after_pass()
        return passes


class SetupSampler:
    """Times fresh set-up processes (``start.py``) between passes, about
    evenly over the run.

    Set-up time swings with the host's load over tens of seconds, so
    samples taken only before and after the run share one or two host
    states; spread over the run they see as many as there are samples.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        prefix = ["-X", f"pycache_prefix={sys.pycache_prefix}"] if sys.pycache_prefix else []
        self.cmd = [sys.executable, *prefix, str(Path(__file__).resolve().parent / "start.py"),
                    "--workload", workload, "--seed", str(seed)]
        self.every = seconds / SETUP_SAMPLES_IN_RUN
        self.next_due = time.perf_counter()
        self.samples: list[dict[str, float]] = []

    def __call__(self) -> None:
        if time.perf_counter() < self.next_due:
            return
        out = subprocess.run(self.cmd, check=True, capture_output=True, text=True).stdout
        self.samples.append(json.loads(out.splitlines()[-1]))
        self.next_due = time.perf_counter() + self.every


def load_golden(workload: str, seed: int) -> tuple[dict[str, str], bool]:
    """Golden digests of the workload and whether the seeded ones apply."""
    record = json.loads(GOLDEN.read_text())[workload]
    return record["ops"], record["seed"] == seed


def write_spans(path: Path, traced: list[list[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for index, spans in enumerate(traced):
            fh.write(json.dumps({"pass": index, "fields": ["name", "start_ns", "end_ns", "parent"],
                                 "spans": spans}, separators=(",", ":")) + "\n")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    k3 = load_package(Path.cwd())
    ops = workloads.build(k3, args.workload, args.seed)

    golden, golden_all = load_golden(args.workload, args.seed)
    runner = Runner(ops, golden, golden_all)
    runner.run_pass()  # warm-up: checked, not timed
    record: dict[str, Any] = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops)}
    if not args.trace:
        sampler = SetupSampler(args.workload, args.seed, args.seconds)
        record["passes"] = runner.loop(args.seconds, MIN_SAMPLES, after_pass=sampler)
        record["setup"] = sampler.samples
    else:
        record["passes"] = runner.loop(args.seconds / 2)
        tracer = tracing.Tracer(k3)
        layers, all_spans = [], []

        def collect() -> None:
            spans, counters = tracer.take()
            layers.append(tracing.per_layer(spans, counters))
            all_spans.append(spans)

        runner.tracer = tracer
        tracer.install()
        try:
            record["traced_passes"] = runner.loop(args.seconds / 2, after_pass=collect)
        finally:
            tracer.uninstall()
            runner.tracer = None
        record["layers"] = layers
        write_spans(Path.cwd() / ".bench_out" / f"{args.workload}-seed{args.seed}-trace1-spans.jsonl", all_spans)
    record["cpu_passes"] = runner.cpu[1:]  # without the warm-up pass
    record["wall_passes"] = runner.wall[1:]
    record["attempted"] = runner.attempted
    record["failures"] = runner.failures
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["op_names"] = [op.name for op in ops]
    print(json.dumps(record, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
