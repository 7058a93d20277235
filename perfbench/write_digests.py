"""Rewrite ``digests.json``: the per-point result digests of the committed seed.

Run only after an intentional change of simulated results::

    python3 perfbench/write_digests.py

Each workload is set up and replayed once at ``SEED``; the digests of its
points are what later runs on that seed must reproduce bit for bit.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 1


def main() -> int:
    run.load_program()
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        report = run.run_benchmark(name, SEED, 0, False)
        if not report["correct"]:
            print(f"{name}: failed points; digests not written", file=sys.stderr)
            return 1
        table[name] = report["digests"]
    run.COMMITTED_DIGESTS.write_text(
        json.dumps({"seed": SEED, "workloads": table}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
