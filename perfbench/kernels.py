"""The benchmark's workloads: which kernels each one analyses, and why.

A kernel is named by a string id.  PolyBench kernels resolve through the
repro kernel registry (``"gemm@mini"``); the scaled kernels are built here
with the public :class:`~repro.scop.ScopBuilder`, so the benchmark fixes
their shape even if the repository's own benchmark helpers change.

Every analysis runs on the same machine: a (32 KiB, 256 KiB) hierarchy with
64-byte lines, with the analysis store off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

LEVELS = (32 * 1024, 256 * 1024)
LINE_SIZE = 64
#: Every kernel is analysed twice in one process: first cold, then warm.
PHASES = ("cold", "warm")
#: The warm analysis resolves this many log-spaced capacities ...
SWEEP_POINTS = 64
#: ... from one line to 256 KiB, in bytes.
SWEEP_RANGE = (64, 256 * 1024)


@dataclass(frozen=True)
class Workload:
    name: str
    budget: int
    kernels: Tuple[str, ...]
    why: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "pb-mini",
            2_000,
            ("gemm@mini", "atax@mini", "bicg@mini", "mvt@mini", "trisolv@mini", "jacobi-1d@mini"),
            "Real PolyBench kernels at mini with 8-byte elements (floor divs): all six trip the "
            "budget in prevmap and fall back, so the time is polyhedral-core work; trace is bypassed.",
        ),
        Workload(
            "pb-medium",
            2_000,
            ("gemm@medium", "2mm@medium", "3mm@medium"),
            "The paper's problem-size axis on real kernels near the ~3M-access crossover: the "
            "symbolic attempt costs as at mini, the NumPy trace fallback takes 35-55% and sets RSS.",
        ),
        Workload(
            "scaled-symbolic",
            10_000,
            ("trisum-48", "stencil-1d-256", "matvec-32", "copy-lines-16"),
            "Scaled kernels that complete symbolically under the CLI default budget: the only "
            "workload where stack distance and capacity counting run; no trace.",
        ),
    )
}


def _trisum(b, n):
    A = b.array("A", (n, n))
    s = b.array("s", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i"), upper_inclusive=True):
            b.stmt(reads=[A[b.v("i"), b.v("j")], s[b.v("i")]], writes=[s[b.v("i")]])


def _stencil_1d(b, n):
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 1, n - 1):
        b.stmt(reads=[A[b.v("i") - 1], A[b.v("i")], A[b.v("i") + 1]], writes=[B[b.v("i")]])


def _matvec(b, n):
    # The shape of the repository's ``bench-curve-matvec`` curve workload.
    A = b.array("A", (n, n))
    x = b.array("x", (n,))
    y = b.array("y", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, n):
            b.stmt(reads=[A[b.v("i"), b.v("j")], y[b.v("j")], x[b.v("i")]], writes=[x[b.v("i")]])


def _copy(b, n):
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])


#: Scaled kernel id -> (scop name, N, element size in bytes, body).  An
#: element size equal to the line size keeps the index expressions free of
#: ``floor`` divisions; copy-lines keeps 8-byte elements to exercise them.
SCALED: Dict[str, Tuple[str, int, int, Callable]] = {
    "trisum-48": ("trisum", 48, LINE_SIZE, _trisum),
    "stencil-1d-256": ("stencil-1d", 256, LINE_SIZE, _stencil_1d),
    "matvec-32": ("bench-curve-matvec", 32, LINE_SIZE, _matvec),
    "copy-lines-16": ("copy-lines", 16, 8, _copy),
}


def all_kernels():
    """Every kernel id of every workload, in workload order."""
    return [kernel for workload in WORKLOADS.values() for kernel in workload.kernels]


def build_scop(kernel: str):
    """The :class:`~repro.scop.Scop` of one kernel id."""
    if kernel in SCALED:
        from repro.scop import ScopBuilder

        name, n, element_size, body = SCALED[kernel]
        builder = ScopBuilder(name, context={"N": n}, element_size=element_size)
        body(builder, n)
        return builder.build()
    name, _, dataset = kernel.partition("@")
    if not dataset:
        raise ValueError(f"unknown kernel id {kernel!r}")
    from repro.api import Session

    return Session().build_scop(name, dataset)


def sweep_capacities():
    """The warm analysis's capacity sweep, in bytes."""
    from repro.sweep import log_spaced

    return log_spaced(SWEEP_RANGE[0], SWEEP_RANGE[1], SWEEP_POINTS)
