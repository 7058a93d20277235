"""Size-aware caching gate: sizes-off byte-identity, sizes-on determinism.

The size-aware refactor threads per-object sizes from the workload
generator through every scheme's insert path, so it must be a *pure*
generalisation: with ``object_sizes="off"`` (the default) every scheme,
directory variant and fault rate must still produce ``SchemeResult``s
byte-identical to the pre-refactor goldens — this gate re-runs the
overlay gate's full Pastry equivalence suite against the same
``GOLDEN_overlay.json``.  The sized path has no golden history, so it is
held to determinism (two independent runs of every scheme under the
heavy-tailed size model must serialize identically) plus byte-accounting
invariants: per-tier byte counters sum to ``bytes_total``, the byte hit
rate lands in [0, 1], and ``byte_latency_gain`` computes against NC.

Usage::

    python benchmarks/sizes_gate.py              # the full gate
    python benchmarks/sizes_gate.py --skip-off   # sized-path checks only (CI job)

CI runs ``--skip-off``: the sizes-off half is the same 15-case golden
suite the overlay-smoke job runs through ``overlay_gate.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ["REPRO_SCALE"] = "smoke"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

FRACTION = 0.3
SEED = 0

SCHEMES = ["nc", "sc", "fc", "nc-ec", "sc-ec", "fc-ec", "hier-gd", "squirrel"]


def run_sized_case(scheme, traces_cache):
    """One serialized SchemeResult under the heavy-tailed size model."""
    from repro.core.run import generate_workloads, run_scheme
    from repro.experiments.runner import base_config, base_workload
    from repro.experiments.store import serialize_result

    cfg = base_config(
        proxy_cache_fraction=FRACTION,
        workload=base_workload(object_sizes="heavy-tailed"),
    )
    tkey = (cfg.workload, cfg.n_proxies)
    if tkey not in traces_cache:
        traces_cache[tkey] = generate_workloads(cfg, seed=SEED)
    res = run_scheme(scheme, cfg, traces_cache[tkey], seed=SEED)
    return res, serialize_result(res)


def check_sizes_off_identity() -> int:
    """Sizes-off runs must still match the pre-sizes overlay goldens."""
    import overlay_gate

    return overlay_gate.check_pastry_goldens(write=False)


def check_sized_determinism_and_accounting() -> int:
    from repro.core.metrics import byte_hit_rate, byte_latency_gain
    from repro.netmodel import ALL_TIERS

    failures = 0
    first_cache: dict = {}
    second_cache: dict = {}
    results = {}
    for scheme in SCHEMES:
        res, first = run_sized_case(scheme, first_cache)
        _, second = run_sized_case(scheme, second_cache)
        if first != second:
            print(f"FAIL {scheme}|sizes=heavy-tailed: two identical runs diverged")
            failures += 1
            continue
        results[scheme] = res
        extras = res.extras
        total = extras.get("bytes_total", 0.0)
        if total <= 0:
            print(f"FAIL {scheme}: sized run reported bytes_total={total}")
            failures += 1
            continue
        tier_sum = sum(extras.get(f"bytes_{t}", 0.0) for t in ALL_TIERS)
        if tier_sum != total:
            print(
                f"FAIL {scheme}: per-tier bytes sum {tier_sum} != "
                f"bytes_total {total}"
            )
            failures += 1
            continue
        bhr = byte_hit_rate(res)
        if not 0.0 <= bhr <= 1.0:
            print(f"FAIL {scheme}: byte_hit_rate {bhr} outside [0, 1]")
            failures += 1
            continue
        print(f"  ok {scheme}|sizes=heavy-tailed deterministic (bhr={bhr:.3f})")
    if "nc" in results:
        for scheme, res in results.items():
            if scheme == "nc":
                continue
            gain = byte_latency_gain(res, results["nc"])
            print(f"  ok {scheme}: byte_latency_gain vs nc = {100 * gain:+.1f}%")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-off", action="store_true",
                        help="skip the sizes-off golden-identity suite")
    args = parser.parse_args(argv)

    failures = 0
    if not args.skip_off:
        print("[sizes gate] sizes-off byte-identity vs overlay goldens")
        failures += check_sizes_off_identity()
    print("[sizes gate] sized-path determinism + byte accounting")
    failures += check_sized_determinism_and_accounting()
    if failures:
        print(f"[sizes gate] FAILED ({failures} case(s))")
        return 1
    print("[sizes gate] PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
