"""Deterministic counts of the symbolic pipeline, pinned to a golden file.

The polyhedral core may change how it computes, never what it computes:
every feasibility answer decides which pieces exist and how many work units
an analysis charges.  For the six PolyBench kernels of the benchmark at
``mini`` under a small budget (they trip it in the previous-access map) and
for two small scaled kernels that complete symbolically, this test records
work units, ``feasible_rational`` memo hits and misses (from an empty memo),
the cut-off counters, previous-access regions, distance pieces, pieces
counted and misses, and compares them with ``golden_counts.json``.

Regenerate the file (only for a deliberate change of answers) with::

    PYTHONPATH=src python tests/test_counts_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.core import distance, prevmap
from repro.isl import constraints
from repro.scop import ScopBuilder

GOLDEN = Path(__file__).resolve().parent / "golden_counts.json"
#: A small L1 so that the scaled kernels have capacity misses.
LEVELS = (8 * 64, 32 * 1024)
POLYBENCH = ("gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d")
#: Low enough that all six trip in the previous-access map within a second.
POLYBENCH_BUDGET = 300


def _copy_lines(n=16):
    # 8-byte elements: the line indices are ``floor`` divisions.
    b = ScopBuilder("copy-lines", context={"N": n}, element_size=8)
    A, B = b.array("A", (n,)), b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])
    return b.build()


def _matvec(n=8):
    b = ScopBuilder("matvec", context={"N": n}, element_size=64)
    A, x, y = b.array("A", (n, n)), b.array("x", (n,)), b.array("y", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, n):
            b.stmt(reads=[A[b.v("i"), b.v("j")], y[b.v("j")], x[b.v("i")]], writes=[x[b.v("i")]])
    return b.build()


#: case name -> (scop factory, budget); ``None`` is unlimited.
CASES = {
    **{f"{name}@mini": (lambda name=name: f"{name}@mini", POLYBENCH_BUDGET) for name in POLYBENCH},
    "copy-lines-16": (_copy_lines, None),
    "matvec-8": (_matvec, None),
}


def measure(case: str, monkeypatch) -> dict:
    """The deterministic counts of one cold analysis from an empty memo."""
    factory, budget = CASES[case]
    monkeypatch.setattr(constraints, "_FEASIBILITY_MEMO", constraints._FeasibilityMemo(200_000))
    counts = {"prevmap_regions": 0, "distance_pieces": 0}
    compute, distances_for = prevmap.PrevMapBuilder._compute, distance.StackDistanceAnalysis._distances_for

    def counting_compute(self, target):
        regions = compute(self, target)
        counts["prevmap_regions"] += len(regions)
        return regions

    def counting_distances_for(self, target, prev_maps):
        result = distances_for(self, target, prev_maps)
        counts["distance_pieces"] += len(result.pieces)
        return result

    monkeypatch.setattr(prevmap.PrevMapBuilder, "_compute", counting_compute)
    monkeypatch.setattr(distance.StackDistanceAnalysis, "_distances_for", counting_distances_for)
    session = Session().machine(LEVELS).budget(budget or 0).no_store()
    target = factory()
    result = session.analyze(*target.split("@")) if isinstance(target, str) else session.analyze(target)
    memo = constraints.feasibility_cache_info()
    monkeypatch.undo()
    return dict(
        counts,
        used_fallback=result.used_fallback,
        work_units=result.timing.work_units_charged,
        feasible_hits=memo["hits"],
        feasible_misses=memo["misses"],
        vars_cutoffs=memo["vars_cutoffs"],
        rows_cutoffs=memo["rows_cutoffs"],
        pieces_counted=result.piece_count,
        misses=[[level.compulsory, level.capacity] for level in result.level_results],
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_counts_match_golden(case, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[case]
    assert measure(case, monkeypatch) == expected


def _write() -> None:
    patch = pytest.MonkeyPatch()
    golden = {case: measure(case, patch) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
