"""Write ``golden.json``: the digest of every op's output for the default seed.

Run from the root of a checkout whose outputs are the reference:

    python3 bench/record_golden.py

Ops whose output does not depend on the seed are checked against their
digest on every seed; the rest only on the default seed.  An op must pass
its own check before its digest is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from start import load_package  # noqa: E402
from worker import GOLDEN  # noqa: E402

DEFAULT_SEED = 1


def main() -> int:
    k3 = load_package(Path.cwd())
    record = {}
    for name in workloads.WORKLOADS:
        digests = {}
        for op in workloads.build(k3, name, DEFAULT_SEED):
            result = op.fn()
            op.check(result)
            digests[op.name] = workloads.digest(op.render(result))
        record[name] = {"seed": DEFAULT_SEED, "ops": dict(sorted(digests.items()))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
