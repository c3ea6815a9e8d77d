"""Metric definitions and the arithmetic that turns child reports into metrics.

``END_TO_END`` are what a user of ``repro-haystack model`` (cold) or of a
sweep-serving process (warm) sees; their times are reference seconds
(``speed.py``), wall seconds at a fixed machine speed.  ``PER_LAYER`` come from the traced run;
each names the end-to-end metric it should move and the workloads it shows
on, so a change to one layer can state its prediction against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from spans import Span, outermost, self_times


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: what is measured.  Per-layer: the end-to-end metric the
    #: layer metric should move.
    moves: str
    #: Per-layer: the workloads it shows on.
    on: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", "child spawn to scop ready, summed over kernels"),
    Metric("cold_s", "s", "lower", "first Session.analyze in a process, summed over kernels"),
    Metric("warm_sweep_s", "s", "lower", "second analyze with a 64-point sweep, summed"),
    Metric("peak_rss_mb", "MB", "lower", "highest peak RSS of the workload's children"),
)

#: Printed with the end-to-end table but kept out of the result line: they
#: are 0 on some workloads today, and ``failed_frac`` is ``failed/attempted``.
EXACT_FRACTIONS = (
    Metric("symbolic_frac", "1", "higher", "analyses with used_fallback == False / attempted"),
    Metric("failed_frac", "1", "lower", "analyses that raised, timed out or miscounted / attempted"),
)

PB = "pb-mini, pb-medium"
ALL = "all three"
SCALED = "scaled-symbolic"

PER_LAYER = (
    Metric("prevmap.s", "s", "lower", "cold_s", "pb-mini (~100%), pb-medium (~65%)"),
    Metric("prevmap.lexmax.s", "s", "lower", "cold_s", "pb-mini, pb-medium"),
    Metric("prevmap.lexmax.calls", "count", "lower", "cold_s", "pb-mini, pb-medium"),
    Metric("isl.feasible.s", "s", "lower", "cold_s", ALL),
    Metric("isl.feasible.calls", "count", "lower", "cold_s", ALL),
    Metric("isl.feasible.warm_s", "s", "lower", "warm_sweep_s", ALL + "; warm shows memo hits"),
    Metric("isl.work_units", "count", "lower", "symbolic_frac", PB + " (exact)"),
    Metric("isl.s_per_kunit", "s", "lower", "symbolic_frac", PB),
    Metric("distance.self_s", "s", "lower", "cold_s", SCALED),
    Metric("distance.count_points.s", "s", "lower", "cold_s", SCALED),
    Metric("distance.count_points.calls", "count", "lower", "cold_s", SCALED),
    Metric("distance.pieces", "count", "lower", "cold_s", SCALED + " (exact)"),
    Metric("capacity.s", "s", "lower", "warm_sweep_s", SCALED + "; zero on pb-*"),
    Metric("capacity.warm_s", "s", "lower", "warm_sweep_s", SCALED),
    Metric("capacity.pieces_counted", "count", "lower", "warm_sweep_s", SCALED + " (exact)"),
    Metric("capacity.enumerated_points", "count", "lower", "warm_sweep_s", SCALED + " (exact)"),
    Metric("cardinality.warm_hit_ratio", "1", "higher", "warm_sweep_s", SCALED),
    Metric("simulator.trace.s", "s", "lower", "cold_s, warm_sweep_s, peak_rss_mb", "pb-medium; ~0.2% on pb-mini"),
    Metric("simulator.trace.accesses", "count", "lower", "cold_s, warm_sweep_s", "pb-* (exact)"),
    Metric("model.self_s", "s", "lower", "cold_s", PB),
    Metric("model.wasted_symbolic_s", "s", "lower", "cold_s", PB),
    Metric("setup.import_s", "s", "lower", "setup_s", ALL),
    Metric("setup.scop_s", "s", "lower", "setup_s", ALL),
    Metric("symbolic_frac", "1", "higher", "symbolic_frac", SCALED + " (exact)"),
    Metric("tracing.overhead_frac", "1", "lower", "none", ALL),
    Metric("tracing.coverage", "1", "higher", "none", ALL + "; must stay >= 0.9"),
)

#: Counts the program computes deterministically: any two runs of the same
#: code must report them identically, per kernel.
DETERMINISTIC = (
    "used_fallback",
    "work_units",
    "pieces_counted",
    "enumerated_points",
    "distance.pieces",
    "simulator.trace.accesses",
)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def check_counts(report: dict, expected: dict) -> List[str]:
    """Mismatches of one analysis report against the kernel's expected counts."""
    problems = []
    for key in ("accesses", "compulsory", "levels", "sweep"):
        if key in report and report[key] != expected[key]:
            problems.append(f"{key}: got {report[key]}, expected {expected[key]}")
    return problems


def deterministic_counts(child: dict) -> Dict[str, object]:
    """The deterministic figures of one child's cold analysis."""
    cold = child["cold"]
    counts = {key: cold[key] for key in DETERMINISTIC if key in cold}
    if "used_fallback" in cold and "simulator.trace.accesses" not in counts:
        # Untraced: a fallback result's access count is the trace length.
        counts["simulator.trace.accesses"] = cold["accesses"] if cold["used_fallback"] else 0
    return counts


def layer_metrics(plain: Sequence[dict], traced: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``plain`` and ``traced`` hold, per kernel, the report of the untraced and
    of the traced child.  Seconds are summed over kernels; every time figure
    is taken inside the cold analysis unless its name says ``warm``.
    """
    totals: Dict[str, float] = {m.name: 0 if m.unit == "count" else 0.0 for m in PER_LAYER}
    covered = rooted = 0.0
    analyses = symbolic = 0
    for report in traced:
        spans = [Span(**data) for data in report["spans"]]
        own = self_times(spans)
        by_phase = _descendants_by_root(spans)
        cold_spans = by_phase.get("cold", [])
        warm_spans = by_phase.get("warm", [])

        def inclusive(name, subset):
            return sum(span.duration for span in outermost(subset, name))

        totals["prevmap.s"] += inclusive("prevmap", cold_spans)
        totals["prevmap.lexmax.s"] += inclusive("prevmap.lexmax", cold_spans)
        totals["prevmap.lexmax.calls"] += _calls("prevmap.lexmax", cold_spans)
        totals["isl.feasible.s"] += inclusive("isl.feasible", cold_spans)
        totals["isl.feasible.calls"] += _calls("isl.feasible", cold_spans)
        totals["isl.feasible.warm_s"] += inclusive("isl.feasible", warm_spans)
        totals["distance.self_s"] += sum(own[s.id] for s in cold_spans if s.name == "distance")
        totals["distance.count_points.s"] += inclusive("distance.count_points", cold_spans)
        totals["distance.count_points.calls"] += _calls("distance.count_points", cold_spans)
        totals["capacity.s"] += inclusive("capacity", cold_spans)
        totals["capacity.warm_s"] += inclusive("capacity", warm_spans)
        totals["simulator.trace.s"] += inclusive("simulator.trace", cold_spans)

        cold_root = [span for span in spans if span.parent is None and span.name == "cold"]
        for root in cold_root:
            totals["model.self_s"] += own[root.id]
            covered += root.duration - own[root.id]
            rooted += root.duration
        cold = report["cold"]
        if cold.get("used_fallback"):
            totals["model.wasted_symbolic_s"] += sum(r.duration for r in cold_root) - inclusive(
                "simulator.trace", cold_spans
            )
        totals["isl.work_units"] += cold.get("work_units", 0)
        totals["distance.pieces"] += cold.get("distance.pieces", 0)
        totals["capacity.pieces_counted"] += cold.get("pieces_counted", 0)
        totals["capacity.enumerated_points"] += cold.get("enumerated_points", 0)
        totals["simulator.trace.accesses"] += cold.get("simulator.trace.accesses", 0)
        for phase in ("cold", "warm"):
            if "used_fallback" in report[phase]:
                analyses += 1
                symbolic += not report[phase]["used_fallback"]

    warm = [report["warm"] for report in traced]
    warm_hits = sum(result.get("cache_hits", 0) for result in warm)
    warm_lookups = warm_hits + sum(result.get("cache_misses", 0) for result in warm)
    plain_cold = sum(report["cold"].get("seconds", 0.0) for report in plain)
    traced_cold = sum(report["cold"].get("seconds", 0.0) for report in traced)
    totals["cardinality.warm_hit_ratio"] = warm_hits / warm_lookups if warm_lookups else 0.0
    totals["isl.s_per_kunit"] = (
        plain_cold / (totals["isl.work_units"] / 1000) if totals["isl.work_units"] else 0.0
    )
    totals["setup.import_s"] = sum(report["import_s"] for report in plain)
    totals["setup.scop_s"] = sum(report["scop_s"] for report in plain)
    totals["symbolic_frac"] = symbolic / analyses if analyses else 0.0
    totals["tracing.overhead_frac"] = (traced_cold - plain_cold) / plain_cold if plain_cold else 0.0
    totals["tracing.coverage"] = covered / rooted if rooted else 0.0
    return totals


def _calls(name: str, spans: Sequence[Span]) -> int:
    return sum(1 for span in spans if span.name == name)


def _descendants_by_root(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Root span name -> every span below a root of that name."""
    root_of: Dict[int, Span] = {}
    grouped: Dict[str, List[Span]] = {}
    for span in spans:  # parents are recorded before their children
        root = span if span.parent is None else root_of[span.parent]
        root_of[span.id] = root
        if span is not root:
            grouped.setdefault(root.name, []).append(span)
    return grouped
