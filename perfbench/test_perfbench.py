"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the root."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

import kernels
import metrics
import run
import speed
from spans import Span, Tracer, outermost, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_times_subtract_child_coverage():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5) and
    # [8, 9]; the first child has a grandchild [2, 3].
    spans = [
        Span(0, "root", 0.0, 10.0, None, "k"),
        Span(1, "a", 1.0, 4.0, 0, "k"),
        Span(2, "b", 3.0, 6.0, 0, "k"),
        Span(3, "a", 8.0, 9.0, 0, "k"),
        Span(4, "a", 2.0, 3.0, 1, "k"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
    assert [span.id for span in outermost(spans, "a")] == [1, 3]
    assert [span.id for span in outermost(spans[1:], "a")] == [1, 3]


def test_tracer_nests_spans_and_restores_callables():
    ticks = iter(range(100))
    tracer = Tracer("k", clock=lambda: float(next(ticks)))
    original = metrics.median
    tracer.wrap("metrics:median", "median")
    try:
        assert tracer.call("outer", lambda: metrics.median([3, 1, 2])) == 2
    finally:
        tracer.restore()
    assert metrics.median is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "median", 0)
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)


def test_speed_clock_subtracts_samples_and_scales_by_their_speed():
    clock = speed.SpeedClock()
    ref = speed.REFERENCE_S
    # Samples every 0.1 s; those from t = 1 on ran at half the reference speed.
    clock.samples = [(t / 10, ref if t < 10 else 2 * ref) for t in range(20)]
    # [1.0, 1.8) holds the 8 slow samples: 0.8 s minus their time, at half speed.
    assert clock.seconds(1.0, 1.8) == pytest.approx((0.8 - 16 * ref) / 2)
    # [0.6, 1.4) holds 4 samples of each speed.
    assert clock.scale(0.6, 1.4) == pytest.approx(0.75)
    # [0.35, 0.45) holds one sample; it is widened on both sides to the 9
    # from 0.0 to 0.8, all fast.  [0.55, 0.65) widens to take one slow one.
    assert clock.scale(0.35, 0.45) == pytest.approx(1.0)
    assert clock.seconds(0.35, 0.45) == pytest.approx(0.1 - ref)
    assert clock.scale(0.55, 0.65) == pytest.approx((8 + 0.5) / 9)


def test_speed_clock_samples_while_the_process_works():
    clock = speed.SpeedClock()
    clock.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    finally:
        clock.stop()
    assert len(clock.samples) >= 10
    assert 0 < clock.seconds(start, end) < 10 * (end - start)


def _report(kernel, expected):
    counts = expected["kernels"][kernel]
    result = {
        "seconds": 0.1,
        "used_fallback": False,
        "accesses": counts["accesses"],
        "compulsory": counts["compulsory"],
        "levels": list(counts["levels"]),
        "work_units": 381,
        "pieces_counted": 7,
        "enumerated_points": 0,
    }
    warm = dict(result, levels=list(counts["levels"]), sweep=list(counts["sweep"]))
    return {"cold": result, "warm": warm, "started": 0.0, "setup_s": 0.1}


@pytest.fixture
def expected():
    with open(run.EXPECTED_PATH) as handle:
        return json.load(handle)


def test_expected_check_fires_on_off_by_one(monkeypatch, expected):
    kernel = "stencil-1d-256"
    workload = kernels.WORKLOADS["scaled-symbolic"]
    good = _report(kernel, expected)
    monkeypatch.setattr(run, "spawn", lambda *args: copy.deepcopy(good))
    checked = run.Run(workload, expected)
    checked.analyse(kernel, "plain")
    assert (checked.attempted, checked.failed) == (2, 0)

    for phase, key, index in (("cold", "levels", 0), ("warm", "sweep", 17)):
        bad = copy.deepcopy(good)
        bad[phase][key][index] += 1
        monkeypatch.setattr(run, "spawn", lambda *args, bad=bad: bad)
        checked = run.Run(workload, expected)
        checked.analyse(kernel, "plain")
        assert (checked.attempted, checked.failed) == (2, 1)
        assert f"{phase}: {key}" in checked.problems[0]


def test_determinism_check_fires_on_changed_count(monkeypatch, expected):
    kernel = "stencil-1d-256"
    first = _report(kernel, expected)
    second = copy.deepcopy(first)
    second["cold"]["work_units"] += 1
    reports = iter([first, second])
    monkeypatch.setattr(run, "spawn", lambda *args: next(reports))
    checked = run.Run(kernels.WORKLOADS["scaled-symbolic"], expected)
    checked.analyse(kernel, "plain")
    checked.analyse(kernel, "plain")
    assert checked.failed == 1 and "work_units" in checked.problems[0]


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in kernels.WORKLOADS.values()
    ]
    for declared, defined in ((spec["end_to_end"], metrics.END_TO_END),
                              (spec["per_layer"], metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in declared] == [
            (m.name, m.unit, m.better) for m in defined
        ]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_selection_runs_cold_warm_and_traced(trace):
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scaled-symbolic",
         "--seed", "3", "--seconds", "1", "--trace", trace, "--kernels", "stencil-1d-256"],
        capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace == "1":
        assert values["symbolic_frac"] == 1
        assert values["distance.pieces"] > 0 and values["capacity.pieces_counted"] > 0
        assert values["tracing.coverage"] >= 0.9
    else:
        assert all(value > 0 for value in values.values())
