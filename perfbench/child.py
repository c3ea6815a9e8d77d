"""One kernel in one fresh process: a cold analysis, then a warm sweep.

The parent (``run.py``) spawns this script once per kernel with
``PYTHONPATH`` set to the checkout's ``src``.  It prints one JSON object as
the last line of its standard output:

* ``started``: the monotonic clock when this script began to import the
  program (the parent adds the interpreter start-up before it, from its own
  spawn timestamp, to set-up time),
* ``import_s`` / ``scop_s``: the two parts of set-up done in this process,
  in wall seconds,
* ``setup_ref_s``: in ``timed`` and ``setup`` mode, the same two parts in
  reference seconds (:mod:`speed`), and ``startup_scale``, the reference
  seconds per wall second measured then, which the parent applies to the
  interpreter start-up,
* ``cold`` / ``warm``: the two analyses (see :func:`summarize`); in
  ``timed`` mode their ``seconds`` are reference seconds,
* ``peak_rss_kb``: the peak resident set size of this process,
* ``spans``: in ``traced`` mode, every recorded span; the two analyses are
  the root spans, named ``cold`` and ``warm``,
* ``unwrapped``: in ``traced`` mode, the layer boundaries not found.

Usage: ``python3 perfbench/child.py KERNEL BUDGET MODE``, where ``MODE`` is
``timed`` (speed-sampled, for the end-to-end metrics), ``plain`` (wall
time, the untraced baseline of the traced run), ``traced``, or ``setup``
(timed, and stop once the scop is built).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict

#: Layer boundaries: the callables the pipeline resolves at call time, and
#: the span name recorded around each.  ``feasible_rational`` is wrapped at
#: every module that imports it (and at its home module, for the calls
#: inside :mod:`repro.isl.constraints` itself).
WRAPPED = (
    ("repro.core.prevmap:PrevMapBuilder.all_prev_regions", "prevmap"),
    ("repro.core.prevmap:lexmax", "prevmap.lexmax"),
    ("repro.core.distance:StackDistanceAnalysis.analyze", "distance"),
    ("repro.core.distance:count_points", "distance.count_points"),
    ("repro.core.capacity:CapacityCounter.count_curve", "capacity"),
    ("repro.engine.cache:CardinalityCache.cardinality", "cardinality"),
    ("repro.isl.constraints:feasible_rational", "isl.feasible"),
    ("repro.isl.lexopt:feasible_rational", "isl.feasible"),
    ("repro.isl.counting:feasible_rational", "isl.feasible"),
    ("repro.core.regions:feasible_rational", "isl.feasible"),
    ("repro.verify.checks:feasible_rational", "isl.feasible"),
    ("repro.simulator.vectorized:trace_model_curve", "simulator.trace"),
)

def summarize(result, seconds: float) -> dict:
    """The checked counts and deterministic work figures of one result."""
    levels = result.level_results
    timing = result.timing
    return {
        "seconds": seconds,
        "used_fallback": result.used_fallback,
        "accesses": levels[0].accesses,
        "compulsory": levels[0].compulsory,
        "levels": [level.capacity for level in levels],
        "work_units": timing.work_units_charged,
        "pieces_counted": result.piece_count,
        "enumerated_points": result.enumerated_points,
        "cache_hits": timing.cardinality_cache_hits,
        "cache_misses": timing.cardinality_cache_misses,
    }


def main(argv) -> dict:
    kernel, budget, mode = argv[0], int(argv[1]), argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    clock = None
    if mode in ("timed", "setup"):
        from speed import SpeedClock

        clock = SpeedClock()
        clock.start()

    started = time.monotonic()
    setup_start = start = time.perf_counter()
    import repro.api
    from repro.api import Session

    import kernels

    import_s = time.perf_counter() - start
    source = os.path.join(os.path.dirname(here), "src", "repro", "api", "__init__.py")
    if os.path.abspath(repro.api.__file__) != source:
        raise SystemExit(f"repro imported from {repro.api.__file__}, not from {source}")

    start = time.perf_counter()
    scop = kernels.build_scop(kernel)
    ready = time.perf_counter()
    scop_s = ready - start
    report = {"kernel": kernel, "import_s": import_s, "scop_s": scop_s, "started": started}
    if clock is not None:
        report["setup_ref_s"] = clock.seconds(setup_start, ready)
        report["startup_scale"] = clock.scale(setup_start, ready)
    if mode == "setup":
        clock.stop()
        return report

    tracer = None
    counts = {phase: {"distance.pieces": 0, "simulator.trace.accesses": 0} for phase in kernels.PHASES}
    phase = kernels.PHASES[0]
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer(kernel)
        for target, name in WRAPPED:
            try:
                tracer.wrap(target, name)
            except (ImportError, AttributeError):
                # A layer boundary the program no longer has: its metrics
                # read 0 and tracing.coverage shows the unattributed time.
                report.setdefault("unwrapped", []).append(target)

        def add(key, value):
            counts[phase][key] += value

        tracer.on_return["distance"] = lambda result: add(
            "distance.pieces", sum(len(entry.pieces) for entry in result)
        )
        tracer.on_return["simulator.trace"] = lambda histogram: add(
            "simulator.trace.accesses", sum(histogram.values())
        )

    session = Session().machine(kernels.LEVELS).budget(budget).no_store()
    for phase in kernels.PHASES:
        if phase == "warm":
            session.capacities(*kernels.sweep_capacities())
        start = time.perf_counter()
        try:
            if tracer is None:
                result = session.analyze(scop)
            else:
                result = tracer.call(phase, session.analyze, scop)
        except Exception:  # noqa: BLE001 - a failed analysis is a counted result
            report[phase] = {"error": traceback.format_exc()}
            continue
        end = time.perf_counter()
        seconds = end - start if clock is None else clock.seconds(start, end)
        report[phase] = summarize(result, seconds)
        if phase == "warm":
            report[phase]["sweep"] = [
                result.miss_curve.misses_at_bytes(size) for size in kernels.sweep_capacities()
            ]
        if tracer is not None:
            report[phase].update(counts[phase])
    if clock is not None:
        clock.stop()
    if tracer is not None:
        tracer.restore()
        report["spans"] = [asdict(span) for span in tracer.spans]
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
