"""Set-up of one workload in a fresh interpreter, timed from inside.

Started by ``run.py`` and ``worker.py`` from the root of a checkout:

    python3 bench/start.py --workload chain --seed 1

It imports k3nodal from ``src/`` and builds the workload's seeded op list,
as ``worker.py`` does, but loads no other part of the harness (no tracer,
no subprocess), so what it pays is what a user of k3nodal pays plus the
input build.  It prints one JSON line:

* ``cpu_s``: CPU seconds of this process through the input build,
  interpreter start included, the reference loops left out;
* ``cal_ns``: mean CPU ns of the reference loop (``calibrate``) run just
  before the import and just after the build;
* ``setup_s``: ``cpu_s`` rescaled to a host on which the reference loop
  takes ``REF_CAL_NS``.  The host changes speed by up to 2x within
  seconds, and the rescaled figure follows the program, not the host.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

import workloads

REF_CAL_NS = 3_000_000


def calibrate() -> int:
    """CPU ns of a fixed loop of small-integer XOR, multiply, popcount and
    compare bytecodes, the inner-loop mix of most of k3nodal."""
    start = time.thread_time_ns()
    word = hits = 0
    for i in range(1, 20000):
        word ^= (i * 2654435761) & 0xFFFF
        if word.bit_count() * 2 < 8:
            hits += 1
    return time.thread_time_ns() - start


def load_package(root: Path) -> Any:
    sys.path.insert(0, str(root / "src"))
    import k3nodal
    import k3nodal.cli  # noqa: F401  (the chain workload drives it)

    return k3nodal


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    before = calibrate()
    k3 = load_package(Path.cwd())
    workloads.build(k3, args.workload, args.seed)
    cpu_ns = time.process_time_ns() - before
    cal_ns = (before + calibrate()) / 2
    print(json.dumps({"setup_s": cpu_ns / cal_ns * REF_CAL_NS / 1e9, "cpu_s": cpu_ns / 1e9, "cal_ns": cal_ns}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
