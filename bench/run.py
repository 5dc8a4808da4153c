"""k3nodal benchmark: one seeded workload, measured end to end or traced.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

The metric names, units and ``run_seconds`` come from ``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics, all taken without tracing:

* ``setup_s``: CPU seconds of a fresh interpreter through
  ``import k3nodal`` and the seeded input build, with bytecode cached,
  rescaled by the reference loop run around it (``start.py``); median of
  starts before, during (between passes) and after the run;
* ``pass_cal``: summed op costs of one pass over the op list, median
  over the timed passes;
* ``op_p50_cal`` / ``op_p90_cal``: per-op cost percentiles over every
  timed op (the sample count is printed);
* ``peak_rss_mb``: the workload process's maximum resident set.

An op's cost is its thread CPU time divided by the CPU time of a fixed
reference loop (``start.calibrate``) run just before and just after the
~100 ms block of ops it belongs to, so the unit ``cal`` follows the
host's speed.  The library is
single-threaded, CPU-bound and does no I/O.  Raw CPU and wall-clock pass
times are printed and recorded too.

``--trace 1`` prints the per-layer metrics: self time (thread CPU
seconds) and call count of each k3nodal module, named stage times and
work counters, all per pass (median over traced passes), plus
``k3nodal.import_s`` and ``trace.overhead_frac``.

Each workload runs in its own fresh, single-threaded interpreter
(``worker.py``) as a closed loop: one caller, each op started only after
the previous one returned.  Every output is checked; a failed or wrong op
counts in ``failed``.  The last stdout line is the JSON result; a record
with the environment goes to ``.bench_out/``.  Bytecode is cached under
``.bench_cache/`` so that ``src/`` is never written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from record_golden import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 6
IMPORT_RUNS = 10
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def python_cmd(root: Path) -> list[str]:
    return [sys.executable, "-X", f"pycache_prefix={root / '.bench_cache' / 'pycache'}"]


def child_env() -> dict[str, str]:
    """The caller's environment, but with bytecode writing allowed, so that
    timed starts load cached bytecode (written under the pycache prefix)
    the way an installed package does.  k3nodal reads no variables."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child(cmd: list[str], root: Path) -> str:
    proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[3:])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def import_s(root: Path) -> float:
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
        "import k3nodal, k3nodal.cli; print(time.process_time() - t)"
    )
    return float(child(python_cmd(root) + ["-c", code], root))


def percentile(samples: list[float], q: int) -> tuple[float, int]:
    """The q-th percentile and how many samples lie above it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return value, sum(1 for s in samples if s > value)


def median_pass(passes: list[list[float]]) -> float:
    return statistics.median(sum(p) for p in passes)


def start(cmd: list[str], root: Path) -> dict[str, float]:
    return json.loads(child(cmd, root).splitlines()[-1])


def end_to_end(root: Path, worker: list[str], setup_cmd: list[str], seconds: int) -> tuple[dict, dict, dict]:
    # set-up starts before and after the timed run, plus the worker's own
    # starts between passes, so the median spans the whole run
    setup = [start(setup_cmd, root) for _ in range(SETUP_RUNS // 2)]
    record = json.loads(child(worker + ["--seconds", str(seconds)], root).splitlines()[-1])
    setup += [start(setup_cmd, root) for _ in range(SETUP_RUNS // 2)]
    setup += record["setup"]
    samples = [t for p in record["passes"] for t in p]
    p50, _ = percentile(samples, 50)
    p90, above = percentile(samples, 90)
    if len(samples) < 100 or above < 10:
        raise BenchError(f"op_p90_cal needs 100 samples with 10 above it, got {len(samples)}/{above}")
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "pass_cal": median_pass(record["passes"]),
        "op_p50_cal": p50,
        "op_p90_cal": p90,
        "peak_rss_mb": record["maxrss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; "
                   f"{statistics.median(s['cpu_s'] for s in setup):.4g} s CPU",
        "pass_cal": f"median of {len(record['passes'])} passes of {record['ops_per_pass']} ops; "
                    f"{median_pass(record['cpu_passes']) / 1e9:.4g} s CPU, "
                    f"{median_pass(record['wall_passes']) / 1e9:.4g} s wall",
        "op_p50_cal": f"{len(samples)} samples",
        "op_p90_cal": f"{len(samples)} samples, {above} above",
    }
    return record, values, notes


def traced(root: Path, worker: list[str], seconds: int) -> tuple[dict, dict, dict]:
    imports = [import_s(root) for _ in range(IMPORT_RUNS)]
    record = json.loads(child(worker + ["--seconds", str(seconds), "--trace"], root).splitlines()[-1])
    layers = record["layers"]
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    untraced = median_pass(record["passes"])
    values["k3nodal.import_s"] = statistics.median(imports)
    values["trace.overhead_frac"] = (median_pass(record["traced_passes"]) - untraced) / untraced
    notes = {
        "k3nodal.import_s": f"median of {IMPORT_RUNS} fresh interpreters, CPU",
        "trace.overhead_frac": f"{len(record['traced_passes'])} traced vs {len(record['passes'])} untraced passes",
    }
    return record, values, notes


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((root / "src" / "k3nodal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run still stops and waits for its worker (subprocess.run
    # kills the child when an exception unwinds through it)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "k3nodal" / "__init__.py").is_file():
        print("error: run from the root of a k3nodal checkout (src/k3nodal is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = ["--workload", args.workload, "--seed", str(args.seed)]
    worker = python_cmd(root) + [str(HERE / "worker.py"), *inputs]
    setup_cmd = python_cmd(root) + [str(HERE / "start.py"), *inputs]
    try:
        child(setup_cmd, root)  # fills the bytecode cache
        if args.trace:
            record, values, notes = traced(root, worker, args.seconds)
        else:
            record, values, notes = end_to_end(root, worker, setup_cmd, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = record["attempted"], len(record["failures"])
    env = environment(root, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, {record['ops_per_pass']} ops per pass")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'fail_rate':28s} {failed / attempted:14.6g} {'ratio':6s} {failed}/{attempted} ops failed")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env, sort_keys=True))
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "attempted": attempted, "failures": record["failures"], "metrics": metrics,
         "notes": notes, "op_names": record["op_names"], "passes": record["passes"],
         "cpu_passes": record["cpu_passes"], "wall_passes": record["wall_passes"],
         "traced_passes": record.get("traced_passes")}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
