"""Deterministic intra-analysis parallelism for the capacity-counting phase.

The per-access capacity counts of a single analysis are independent of each
other: every access has its own distance pieces, its own first-touch
domains, and its own :class:`~repro.core.capacity.CapacityCounter`.  This
module fans those per-access units out over a worker pool (the same
``multiprocessing`` machinery the batch engine uses across *jobs*) while
keeping the result — including the deterministic work accounting — byte
identical for every worker count.

Determinism is achieved by making each task **hermetic**:

* every task runs with a *fresh in-memory*
  :class:`~repro.engine.cache.CardinalityCache` (no shared warmth, no
  persistent store tier), so the number of symbolic operations a task
  performs depends only on its own access — never on what another worker
  computed first;
* every task gets its own :class:`~repro.isl.work.WorkBudget` sized to
  the units remaining in the analysis budget, and reports how much it used;
* the parent merges outcomes in access order and **replays** each task's
  charge against the real analysis budget, so cumulative exhaustion trips at
  the same access index regardless of scheduling, and
  ``ModelResult.timing.work_units_charged`` is a pure function of the
  program and the options.

Compared to the sequential path (``piece_workers=None``) the hermetic
accounting can charge *more* units (per-access caches cannot share across
accesses), so the two modes are distinct configurations; within the parallel
mode, ``piece_workers`` 1, 2 and 4 produce identical
:meth:`~repro.core.results.ModelResult.to_dict` payloads up to wall-clock
fields.  ``piece_workers=1`` runs the same hermetic merge inline — no pool —
which is also what a daemonic batch worker degrades to (nested pools are
impossible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..engine.cache import CardinalityCache
from ..isl.counting import CountingError
from ..isl.work import BudgetExhausted, WorkBudget, active_budget
from .capacity import CapacityCounter, CounterOptions
from .distance import DistancePiece
from .prevmap import ModelFallbackRequired

__all__ = ["AccessOutcome", "AccessTask", "run_access_tasks"]


@dataclass(frozen=True)
class AccessTask:
    """Everything one worker needs to count one access, picklable."""

    index: int
    loop_vars: Tuple[str, ...]
    first_touch_domains: Tuple
    pieces: Tuple[DistancePiece, ...]
    grid: Tuple[int, ...]
    options: CounterOptions
    #: Work units this task may spend (the analysis budget's remainder at
    #: dispatch time); ``None`` = unlimited.
    budget_limit: Optional[int]
    backend: str


@dataclass
class AccessOutcome:
    """What one task produced: a curve, a failure, or a budget trip."""

    index: int
    status: str  # "ok" | "budget" | "fallback"
    units: int
    message: str = ""
    compulsory: int = 0
    curve: Tuple[int, ...] = ()
    pieces_counted: int = 0
    nonaffine_pieces: int = 0
    nonaffine_affine_dims: Tuple[int, ...] = ()
    enumerated_points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _run_access_task(task: AccessTask) -> AccessOutcome:
    """Count one access hermetically (fresh cache, private budget)."""
    budget = WorkBudget(task.budget_limit)
    cache = CardinalityCache()
    try:
        with active_budget(budget):
            compulsory = 0
            for domain in task.first_touch_domains:
                count_vars = [v for v in task.loop_vars if domain.involves(v)]
                try:
                    compulsory += cache.cardinality(domain, count_vars)
                except CountingError as exc:
                    raise ModelFallbackRequired(
                        f"cardinality of first-touch domain failed: {exc}"
                    ) from exc
            counter = CapacityCounter(
                list(task.loop_vars),
                task.options,
                cardinality_cache=cache,
                budget=budget,
                backend=task.backend,
            )
            curve = counter.count_curve(list(task.pieces), list(task.grid))
    except BudgetExhausted as exc:
        return AccessOutcome(index=task.index, status="budget", units=budget.used, message=str(exc))
    except ModelFallbackRequired as exc:
        return AccessOutcome(index=task.index, status="fallback", units=budget.used, message=str(exc))
    return AccessOutcome(
        index=task.index,
        status="ok",
        units=budget.used,
        compulsory=compulsory,
        curve=tuple(curve),
        pieces_counted=counter.stats.pieces_counted,
        nonaffine_pieces=counter.stats.nonaffine_pieces,
        nonaffine_affine_dims=tuple(counter.stats.nonaffine_affine_dims),
        enumerated_points=counter.stats.enumerated_points,
        cache_hits=cache.stats.hits,
        cache_misses=cache.stats.misses,
    )


def run_access_tasks(tasks: Sequence[AccessTask], workers: int) -> List[AccessOutcome]:
    """Run the tasks on ``workers`` processes; outcomes in task order.

    The outcome list is index-aligned with ``tasks`` whatever the scheduling;
    ``workers=1`` (or a single task, or a daemonic caller that cannot spawn a
    pool) degrades to an inline loop over the *same* hermetic task function,
    so the merged result does not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"piece_workers must be >= 1, got {workers}")
    from ..engine.batch import pool_map_ordered

    return pool_map_ordered(_run_access_task, list(tasks), workers)
