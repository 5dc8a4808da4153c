"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 bench/steadiness.py --out bench/steadiness.json

Each workload runs ten times, each with its own seed, for the
``run_seconds`` that ``BENCHMARK.json`` fixes.  For every end-to-end
metric it reports the median and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound, so the bound can be checked against three times the spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        rows = {}
        for name, (bound, unit) in bounds.items():
            values = [r[name] for r in runs]
            rows[name] = {"median": statistics.median(values), "unit": unit, "spread": spread(values),
                          "bound": bound, "values": values}
            print(f"{workload:10s} {name:12s} median {rows[name]['median']:12.6g} {unit:4s} "
                  f"spread {rows[name]['spread']:.4f} bound {bound}", flush=True)
        report["workloads"][workload] = {"seeds": seeds, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
