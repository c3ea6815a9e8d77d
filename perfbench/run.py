"""The repository benchmark: cold and warm analysis time on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload pb-mini --seed 1 --seconds 10 --trace 0

Every kernel of the workload runs in its own fresh child process
(``child.py``), one child at a time, in an order permuted by ``--seed``.  The
child makes a *cold* ``Session.analyze`` (the first analysis in the process,
what a ``repro-haystack model`` user pays) and then a *warm* one of the same
scop with a 64-point capacity sweep (what a long-lived worker pays once the
process-global feasibility memo is full).  Every level and sweep count is
checked against ``expected.json``, written by ``gen_expected.py`` from the
pure-Python trace reference.

With ``--trace 0`` the kernels are run in passes until ``--seconds`` have
elapsed (at least one pass), and the median pass gives the end-to-end
metrics.  Their times are reference seconds (``speed.py``): each child
samples the speed of its own core while it works and scales its wall-clock
intervals to a fixed speed, so that a host whose speed drifts with other
work does not move them.  With ``--trace 1`` each kernel runs once untraced and once traced
(``spans.py``), and the per-layer metrics come from the spans; the spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
analysis failed, raised, miscounted, or reported a deterministic count that
differs from another run of the same code, and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

import kernels
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Set-up time is the median of this many spawns per kernel and pass (the
#: measured child plus set-up-only children).
SETUP_SAMPLES = 3
#: A child that runs longer than this is killed and its analyses fail.
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def spawn(kernel: str, budget: int, mode: str) -> dict:
    """Run one child; its report gains ``setup_s`` (spawn to scop ready).

    When the child is timed, the whole figure is in reference seconds: the
    child's own part as it measured it, and the interpreter start-up before
    it scaled by the speed the child measured next.
    """
    env = dict(os.environ, PYTHONPATH=SOURCE)
    spawned = time.monotonic()
    try:
        process = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), kernel, str(budget), mode],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{kernel}: timed out after {CHILD_TIMEOUT_S} s") from None
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(f"{kernel}: exit {process.returncode}\n{process.stderr.strip()}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise ChildFailed(f"{kernel}: no report in its output\n{process.stdout[-2000:]}") from None
    startup = (report["started"] - spawned) * report.get("startup_scale", 1.0)
    report["setup_s"] = startup + report.get("setup_ref_s", report["import_s"] + report["scop_s"])
    return report


class Run:
    """Accumulates attempts, failures and reports of one benchmark run."""

    def __init__(self, workload: kernels.Workload, expected: dict) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.symbolic = 0
        self.problems: List[str] = []
        #: kernel -> deterministic counts first seen in this run.
        self.counts: Dict[str, dict] = {}

    def fail(self, message: str, analyses: int = 1) -> None:
        self.failed += analyses
        self.problems.append(message)

    def analyse(self, kernel: str, mode: str) -> Optional[dict]:
        """One checked child run; ``None`` when the child itself failed."""
        self.attempted += len(kernels.PHASES)
        try:
            report = spawn(kernel, self.workload.budget, mode)
        except ChildFailed as exc:
            self.fail(str(exc), len(kernels.PHASES))
            return None
        for phase in kernels.PHASES:
            result = report[phase]
            if "error" in result:
                self.fail(f"{kernel} {phase}: raised\n{result['error']}")
                continue
            self.symbolic += not result["used_fallback"]
            problems = metrics.check_counts(result, self.expected["kernels"][kernel])
            if problems:
                self.fail(f"{kernel} {phase}: " + "; ".join(problems))
        self.check_determinism(kernel, metrics.deterministic_counts(report))
        return report

    def check_determinism(self, kernel: str, counts: dict) -> None:
        seen = self.counts.setdefault(kernel, {})
        for key, value in counts.items():
            if seen.setdefault(key, value) != value:
                self.fail(f"{kernel}: {key} was {seen[key]}, now {value} (not deterministic)")

    def setup_samples(self, kernel: str, count: int) -> List[float]:
        """Spawn-to-ready times of ``count`` set-up-only children of one kernel."""
        samples = []
        for _ in range(count):
            try:
                samples.append(spawn(kernel, self.workload.budget, "setup")["setup_s"])
            except ChildFailed as exc:
                self.attempted += 1
                self.fail(str(exc))
        return samples


def source_digest() -> str:
    """Digest of every file under ``src/``: runs of the same code share it."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(SOURCE):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SOURCE).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def compare_with_earlier_runs(run: Run) -> None:
    """Fail on any deterministic count that differs from an earlier run of the
    same source tree, and record this run's counts for later runs."""
    path = os.path.join(OUT, f"counts-{source_digest()}.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
    for kernel, counts in run.counts.items():
        for key, value in counts.items():
            earlier = recorded.get(kernel, {}).get(key, value)
            if earlier != value:
                run.fail(f"{kernel}: {key} was {earlier} in an earlier run, now {value} "
                         "(not deterministic)")
        merged = recorded.setdefault(kernel, {})
        for key, value in counts.items():
            merged.setdefault(key, value)
    os.makedirs(OUT, exist_ok=True)
    with open(path + ".tmp", "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def measure(run: Run, order: List[str], seconds: float) -> Dict[str, float]:
    """End-to-end metrics: the median over passes of each per-pass figure."""
    started = time.monotonic()
    passes = []
    while not passes or time.monotonic() - started < seconds:
        figures = {"setup_s": 0.0, "cold_s": 0.0, "warm_sweep_s": 0.0, "peak_rss_mb": 0.0}
        for kernel in order:
            report = run.analyse(kernel, "timed")
            if report is None:
                continue
            setups = [report["setup_s"]] + run.setup_samples(kernel, SETUP_SAMPLES - 1)
            figures["setup_s"] += metrics.median(setups)
            figures["cold_s"] += report["cold"].get("seconds", 0.0)
            figures["warm_sweep_s"] += report["warm"].get("seconds", 0.0)
            figures["peak_rss_mb"] = max(figures["peak_rss_mb"], report["peak_rss_kb"] / 1024)
        passes.append(figures)
    return {name: metrics.median([figures[name] for figures in passes]) for name in passes[0]}


def trace(run: Run, order: List[str], seed: int) -> Dict[str, float]:
    """Per-layer metrics of one untraced and one traced child per kernel."""
    plain, traced = [], []
    for kernel in order:
        untraced_report = run.analyse(kernel, "plain")
        traced_report = run.analyse(kernel, "traced")
        for target in (traced_report or {}).get("unwrapped", ()):
            print(f"note: {kernel}: no {target} to trace", file=sys.stderr)
        if untraced_report is not None and traced_report is not None:
            plain.append(untraced_report)
            traced.append(traced_report)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{run.workload.name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump([span for report in traced for span in report["spans"]], handle)
    return metrics.layer_metrics(plain, traced)


def print_table(title: str, rows, values: Dict[str, float]) -> None:
    print(f"\n{title}")
    for metric in rows:
        value = values.get(metric.name)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {metric.name:28} {shown:>12} {metric.unit:6} {metric.moves:36} {metric.on}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(kernels.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--kernels", help="comma-separated subset of the workload's kernels")
    args = parser.parse_args(argv)

    workload = kernels.WORKLOADS[args.workload]
    selected = list(workload.kernels)
    if args.kernels:
        selected = args.kernels.split(",")
        unknown = sorted(set(selected) - set(workload.kernels))
        if unknown:
            parser.error(f"not in {workload.name}: {', '.join(unknown)}")
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program source at {SOURCE}; run from a repository checkout", file=sys.stderr)
        return 2
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    missing = [kernel for kernel in selected if kernel not in expected["kernels"]]
    if missing:
        print(f"expected.json lacks {', '.join(missing)}; run gen_expected.py", file=sys.stderr)
        return 2

    order = sorted(selected)
    random.Random(args.seed).shuffle(order)
    run = Run(workload, expected)
    print(f"{workload.name} (seed {args.seed}): {', '.join(order)}")
    if args.trace:
        values = trace(run, order, args.seed)
        shown = metrics.PER_LAYER
    else:
        values = measure(run, order, args.seconds)
        shown = metrics.END_TO_END
    compare_with_earlier_runs(run)

    fractions = {
        "symbolic_frac": run.symbolic / run.attempted,
        "failed_frac": run.failed / run.attempted,
    }
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.trace:
        print_table("per-layer: metric, value, unit, end-to-end metric it moves, workloads",
                    shown, values)
    else:
        print_table("end-to-end: metric, value, unit, what it measures",
                    metrics.END_TO_END + metrics.EXACT_FRACTIONS,
                    {**values, **fractions})
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in shown},
    }))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
