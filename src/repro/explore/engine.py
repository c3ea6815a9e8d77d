"""Design-space exploration: walk a grid, rank it, take its Pareto front.

The walk does only :meth:`DesignSpace.analysis_count` symbolic analyses —
one per (tile, line size) — and serves the full
tile × capacity × line-size × associativity grid from their
:class:`~repro.core.MissCurve` results:

* each analysis runs through :meth:`repro.api.Session.analyze` against a
  single-level machine sized to the largest explored capacity, with the
  whole capacity axis as parametric curve breakpoints, so the session's
  store makes repeat grids (and overlapping grids) nearly free;
* every capacity is answered by ``MissCurve.misses_at`` — no re-analysis;
* associativity never changes the predicted misses (the model is fully
  associative; the paper attributes its residual error to associativity
  and replacement policy), so the axis only moves the cost proxy.

Every configuration gets a **cost** — ``capacity_bytes + line_size * ways``,
with fully associative caches charged ``ways = capacity_lines`` — a crude
monotone proxy for the tag/comparator hardware a design spends: bigger
caches cost more, and at a fixed capacity, higher associativity and the
fully associative extreme cost more.  The Pareto front minimizes
(total misses, cost); ranking and serialization are deterministic so the
bench gate can hold the table byte-identical across backends.

The server's ``/v1/explore`` endpoint reuses :func:`build_result` over
curves it obtained through the coalescing analyze path, so online and
offline tables cannot diverge.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..core import CacheLevelSpec, MachineModel
from ..core.curve import MissCurve
from ..scop import Scop
from ..scop.schedule import tile_scop
from .pareto import pareto_front
from .space import DesignSpace, DesignSpaceError

__all__ = [
    "EXPLORE_SCHEMA_VERSION",
    "ExploreConfig",
    "ExploreResult",
    "build_result",
    "config_cost",
    "run_explore",
]

#: Bump when the explore payload layout changes (see docs/EXPLORE.md).
EXPLORE_SCHEMA_VERSION = 1


def config_cost(capacity_bytes: int, capacity_lines: int, line_size: int, ways: Optional[int]) -> int:
    """Hardware-cost proxy of one configuration (smaller is cheaper).

    ``capacity_bytes`` dominates; the ``line_size * ways`` term charges the
    per-set comparator/tag width, with fully associative (``ways=None``)
    charged as ``ways = capacity_lines`` — every line needs a comparator.
    """
    effective_ways = capacity_lines if ways is None else min(ways, capacity_lines)
    return capacity_bytes + line_size * effective_ways


@dataclass(frozen=True)
class ExploreConfig:
    """One explored configuration with its predicted behaviour."""

    tile: int
    capacity_bytes: int
    capacity_lines: int
    line_size: int
    associativity: Optional[int]  #: ``None`` = fully associative
    cost: int
    misses: int  #: total misses (compulsory + capacity) at this capacity
    compulsory: int
    capacity_misses: int
    accesses: int
    miss_ratio: float
    pareto: bool = False

    def objectives(self) -> Tuple[int, int]:
        """The minimized objective vector: (total misses, hardware cost)."""
        return (self.misses, self.cost)

    def to_dict(self) -> Dict:
        return {
            "tile": self.tile,
            "capacity_bytes": self.capacity_bytes,
            "capacity_lines": self.capacity_lines,
            "line_size": self.line_size,
            "associativity": self.associativity,
            "cost": self.cost,
            "misses": self.misses,
            "compulsory": self.compulsory,
            "capacity_misses": self.capacity_misses,
            "accesses": self.accesses,
            "miss_ratio": self.miss_ratio,
            "pareto": self.pareto,
        }


@dataclass
class ExploreResult:
    """A ranked design grid and its Pareto front.

    ``configs`` is sorted best-first by ``(misses, cost, tile, line_size,
    ways)`` — a total order, so the ranking is reproducible; ``pareto``
    flags survive on each row and :meth:`front` extracts them.
    """

    kernel: str
    dataset: Optional[str]
    space: DesignSpace
    configs: List[ExploreConfig]
    analyses: int
    elapsed_seconds: float = 0.0

    def front(self) -> List[ExploreConfig]:
        return [config for config in self.configs if config.pareto]

    def best(self) -> Optional[ExploreConfig]:
        return self.configs[0] if self.configs else None

    def to_dict(self) -> Dict:
        """Deterministic payload: everything except wall time is exact."""
        return {
            "schema_version": EXPLORE_SCHEMA_VERSION,
            "kernel": self.kernel,
            "dataset": self.dataset,
            "space": self.space.to_dict(),
            "grid_size": len(self.configs),
            "analyses": self.analyses,
            "configs": [config.to_dict() for config in self.configs],
            "pareto": [config.to_dict() for config in self.front()],
            "elapsed_seconds": self.elapsed_seconds,
        }

    def table_digest(self) -> str:
        """SHA-256 over the deterministic table; the bench byte-identity gate."""
        payload = self.to_dict()
        payload.pop("elapsed_seconds", None)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("ascii")
        ).hexdigest()


#: Produces the miss curve (and nothing else) for one (tile, line_size).
CurveSource = Callable[[int, int], MissCurve]


def build_result(
    space: DesignSpace,
    curve_for: CurveSource,
    *,
    kernel: str,
    dataset: Optional[str] = None,
) -> ExploreResult:
    """Assemble the ranked grid from per-(tile, line size) miss curves.

    Shared by the offline walk (:func:`run_explore`) and the server's
    ``/v1/explore`` assembly, so both produce the identical table for the
    same curves.
    """
    space.validate()
    if not space.capacities:
        raise DesignSpaceError("the capacity axis is empty; resolve the space first")
    line_sizes = space.line_sizes or (64,)
    configs: List[ExploreConfig] = []
    analyses = 0
    for line_size in line_sizes:
        for tile in space.tiles:
            curve = curve_for(tile, line_size)
            analyses += 1
            for capacity in space.capacities:
                lines = max(1, capacity // line_size)
                capacity_misses = curve.misses_at(lines)
                misses = curve.total_misses_at(lines)
                for ways in space.associativities:
                    configs.append(
                        ExploreConfig(
                            tile=tile,
                            capacity_bytes=capacity,
                            capacity_lines=lines,
                            line_size=line_size,
                            associativity=ways,
                            cost=config_cost(capacity, lines, line_size, ways),
                            misses=misses,
                            compulsory=curve.compulsory,
                            capacity_misses=capacity_misses,
                            accesses=curve.accesses,
                            miss_ratio=curve.miss_ratio_at(lines),
                            pareto=False,
                        )
                    )
    front = {id(config) for config in pareto_front(configs, key=ExploreConfig.objectives)}
    flagged = [replace(config, pareto=id(config) in front) for config in configs]
    flagged.sort(key=_rank_key)
    return ExploreResult(
        kernel=kernel,
        dataset=dataset,
        space=space,
        configs=flagged,
        analyses=analyses,
    )


def _rank_key(config: ExploreConfig) -> Tuple:
    ways = config.capacity_lines if config.associativity is None else config.associativity
    return (config.misses, config.cost, config.tile, config.line_size, ways)


def run_explore(
    session,
    scop: Scop,
    space: DesignSpace,
    *,
    kernel: Optional[str] = None,
    dataset: Optional[str] = None,
) -> ExploreResult:
    """Walk a design space for one scop through a configured session.

    One :meth:`~repro.api.Session.analyze` per (tile, line size): the tiled
    schedule comes from :func:`repro.scop.schedule.tile_scop`, the machine is
    a single level sized to the largest explored capacity, and the whole
    capacity axis rides along as parametric curve breakpoints.  The session's
    store, budget, and backend knobs all apply, and every analysis is
    content-addressed by the tiled scop's structural fingerprint — a repeat
    grid is served entirely from the store.
    """
    import time

    space = space.resolved(session.machine_model)
    started = time.perf_counter()
    variants: Dict[int, Scop] = {}

    def curve_for(tile: int, line_size: int) -> MissCurve:
        if tile not in variants:
            variants[tile] = tile_scop(scop, tile) if tile > 1 else scop
        machine = MachineModel(
            line_size=line_size,
            levels=(CacheLevelSpec(max(space.capacities), "L1"),),
        )
        sub = session.derive(machine=machine, capacities=space.capacities)
        result = sub.analyze(variants[tile])
        if result.miss_curve is None:
            raise DesignSpaceError(
                f"analysis of tile={tile} line_size={line_size} returned no miss curve"
            )
        return result.miss_curve

    result = build_result(
        space,
        curve_for,
        kernel=kernel or scop.name,
        dataset=dataset,
    )
    result.elapsed_seconds = time.perf_counter() - started
    return result
