"""Regenerate ``expected.json``: the exact miss counts every run is checked against.

The counts come from the pure-Python trace reference (the Mattson stack
distance profiler over the enumerated trace), never from the symbolic model
or the NumPy trace path the benchmark measures.  Run from the repository
root::

    PYTHONPATH=src python3 perfbench/gen_expected.py [KERNEL ...]

With kernel ids, only those entries are recomputed; the rest are kept.
"""

from __future__ import annotations

import json
import os
import sys
import time

import kernels

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def reference_counts(kernel: str) -> dict:
    from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions

    machine = MachineModel(
        line_size=kernels.LINE_SIZE,
        levels=tuple(CacheLevelSpec(size, f"L{i + 1}") for i, size in enumerate(kernels.LEVELS)),
    )
    result = CacheModel(machine, ModelOptions(backend="python")).analyze_by_trace(
        kernels.build_scop(kernel)
    )
    curve = result.miss_curve
    return {
        "accesses": curve.accesses,
        "compulsory": curve.compulsory,
        "levels": [curve.misses_at_bytes(size) for size in kernels.LEVELS],
        "sweep": [curve.misses_at_bytes(size) for size in kernels.sweep_capacities()],
    }


def main(argv) -> int:
    selected = argv or kernels.all_kernels()
    unknown = sorted(set(selected) - set(kernels.all_kernels()))
    if unknown:
        print(f"unknown kernel ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    expected = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
    expected["sweep_bytes"] = kernels.sweep_capacities()
    expected["levels_bytes"] = list(kernels.LEVELS)
    counts = expected.setdefault("kernels", {})
    for kernel in selected:
        start = time.perf_counter()
        counts[kernel] = reference_counts(kernel)
        print(f"{kernel}: {counts[kernel]['accesses']} accesses in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    expected["kernels"] = {kernel: counts[kernel] for kernel in kernels.all_kernels() if kernel in counts}
    with open(EXPECTED_PATH + ".tmp", "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(EXPECTED_PATH + ".tmp", EXPECTED_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
