"""A SaaS vendor's fleet under the fully automated service.

Models the pattern from the paper's introduction: a software vendor with
many similar (but not identical) databases enables auto-implementation for
the whole fleet and lets the closed loop run for a simulated week — index
recommendations are generated, implemented online, validated against
Query Store statistics, and reverted when they regress.  At the end the
operational report prints the Section 8.1-style statistics.

Run:  python examples/saas_fleet.py
"""

from __future__ import annotations

from repro.api import ManagementApi
from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.parallel import build_fleet_service
from repro.reporting import operational_report
from repro.service import ServiceSettings

DECIDED = (
    RecommendationState.SUCCESS.value,
    RecommendationState.REVERTED.value,
)


def archetype(worker) -> str:
    """Runs on the database's shard: which application it models."""
    return worker.profile.archetype


def main() -> None:
    service = build_fleet_service(
        n_databases=5,
        tier="standard",
        seed=23,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=8 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=80),
        default_config=AutoIndexingConfig(
            create_mode=AutoMode.AUTO,
            drop_mode=AutoMode.RECOMMEND_ONLY,
        ),
    )
    with service:
        run_week(service)


def run_week(service) -> None:
    names = service.database_names
    archetypes = {service.on_database(name, archetype) for name in names}
    print(f"managing {len(names)} databases ({', '.join(sorted(archetypes))})")
    for day in range(7):
        service.run(hours=24)
        counts = service.store.count_by_state()
        summary = ", ".join(
            f"{state.value}={count}" for state, count in sorted(
                counts.items(), key=lambda item: item[0].value
            )
        )
        print(f"day {day + 1}: {summary or 'no recommendations yet'}")

    print("\n== recommendation history (transparency view) ==")
    api = ManagementApi(service)
    for name in names:
        history = api.history(name)
        if not history:
            continue
        print(f"{name}:")
        for entry in history:
            if entry.state in DECIDED:
                print(f"  #{entry.rec_id} {entry.description}")
                print(f"      -> {entry.state}  {entry.validation_summary}")

    print("\n== operational report (Section 8.1 style) ==")
    for line in operational_report(service, window_hours=24).lines():
        print(line)


if __name__ == "__main__":
    main()
