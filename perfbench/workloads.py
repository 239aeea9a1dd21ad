"""The benchmark's workloads: closed-loop fleets on the serial runtime.

Every workload is a closed loop: each managed database issues its next
statement only after the previous one completes, capped at
``statements_per_step`` per 2-hour control step, so the statement count
of a run is fixed by the seed.  ``--seed`` feeds the fleet seeds of
:func:`repro.parallel.build_fleet_service` (see :func:`fleet_seed`) and
nothing else.

A run advances several sub-fleets one after another, each built from its
own seed.  One database's loop cost varies by a factor of ~4 across
archetypes and data sizes, so a 6-database fleet spreads by ~25% from
seed to seed; a run must cover ~50 databases to keep the headline's
spread across seeds well inside its bound.  Building each sub-fleet once
also gives the several set-up samples ``setup_s`` needs without extra
builds.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

#: Hours per control step (``ServiceSettings.step_hours``, the
#: ``repro run`` default).
STEP_HOURS = 2.0


def fleets_for(workload: "Workload", seconds: float) -> int:
    """Sub-fleets a run advances: one per ``workload.seconds_per_fleet``
    of ``--seconds``, at least two (``setup_s`` is their median)."""
    return max(2, round(seconds / workload.seconds_per_fleet))


def fleet_seed(seed: int, index: int) -> int:
    """The fleet seed of sub-fleet ``index`` of a run with ``--seed``."""
    return seed * 1009 + index


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fleet shape plus how much of it a run measures."""

    name: str
    tier: str
    databases: int
    statements_per_step: int
    analysis_hours: float
    ticks: int
    #: ``--seconds`` per sub-fleet; sizes the run.
    seconds_per_fleet: float
    why: str
    #: Layers (``perfbench.ledger.LOOP_LAYERS``) this workload should load.
    loads: Tuple[str, ...]

    @property
    def db_hours(self) -> float:
        """Simulated database-hours one loop advances."""
        return self.databases * self.ticks * STEP_HOURS

    def smoke(self) -> "Workload":
        """A seconds-long variant for the benchmark's own tests."""
        return dataclasses.replace(self, databases=2, ticks=3, analysis_hours=2.0)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tuning_premium",
            tier="premium",
            databases=12,
            statements_per_step=80,
            analysis_hours=2.0,
            ticks=2,
            seconds_per_fleet=5.0,
            why="premium-tier analytics, 4 x 12 databases: DTA sessions and "
            "batched what-if pricing every tick, busy hash joins; "
            "read-mostly, so columns stay warm (the bypass case for columns)",
            loads=(
                "engine.optimizer",
                "engine.exec",
                "recommender",
                "recommender.whatif",
            ),
        ),
        Workload(
            name="fleet_wide",
            tier="basic",
            databases=32,
            statements_per_step=10,
            analysis_hours=8.0,
            ticks=12,
            seconds_per_fleet=10.0,
            why="basic-tier OLTP, 2 x 32 databases with writes: DML drops "
            "column projections; MI tuning builds many indexes; per-database "
            "control-plane, validation, merge and telemetry costs",
            loads=(
                "engine.exec",
                "engine.exec.columns",
                "engine.table",
                "engine.ddl",
                "validation",
                "controlplane",
                "parallel",
                "observability",
            ),
        ),
    )
}
