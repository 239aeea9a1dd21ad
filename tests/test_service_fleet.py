"""Fleet, region service, and operational reporting tests."""

from __future__ import annotations

import pytest

from repro.clock import HOURS
from repro.controlplane import AutoIndexingConfig, AutoMode, ControlPlaneSettings
from repro.fleet import Fleet, FleetSpec
from repro.parallel import build_fleet_service
from repro.reporting import operational_report
from repro.service import ServiceSettings


@pytest.fixture(scope="module")
def small_service():
    service = build_fleet_service(
        n_databases=3,
        tier="standard",
        seed=17,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=70),
        default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
    )
    service.run(hours=48)
    yield service
    service.close()


class TestFleet:
    def test_fleet_builds_diverse_databases(self):
        fleet = Fleet(FleetSpec(n_databases=4, tier="premium", seed=2))
        assert len(fleet) == 4
        archetypes = {p.archetype for p in fleet}
        assert archetypes  # at least one archetype drawn from the tier mix
        names = fleet.names()
        assert len(set(names)) == 4

    def test_fleet_deterministic(self):
        f1 = Fleet(FleetSpec(n_databases=2, tier="standard", seed=3))
        f2 = Fleet(FleetSpec(n_databases=2, tier="standard", seed=3))
        for name in f1.names():
            t1 = {t.name: t.row_count for t in f1.get(name).schema_spec.tables}
            t2 = {t.name: t.row_count for t in f2.get(name).schema_spec.tables}
            assert t1 == t2

    def test_run_workloads_advances_all_clocks(self):
        fleet = Fleet(FleetSpec(n_databases=3, tier="standard", seed=4))
        fleet.run_workloads(hours=2, max_statements_per_db=30)
        assert fleet.clock.now == pytest.approx(120.0)
        for profile in fleet:
            assert profile.engine.clock.now >= 120.0


class TestService:
    def test_every_database_gets_recommendations(self, small_service):
        store = small_service.store
        databases_with_recs = {r.database for r in store.all_records()}
        assert databases_with_recs  # recommendations were generated

    def test_closed_loop_reaches_terminal_states(self, small_service):
        from repro.controlplane import RecommendationState

        records = small_service.store.all_records()
        assert records
        terminal = [
            r for r in records
            if r.state in (RecommendationState.SUCCESS, RecommendationState.REVERTED)
        ]
        assert terminal

    def test_config_change_disables_automation(self):
        with build_fleet_service(n_databases=1, tier="standard", seed=31) as service:
            name = service.database_names[0]
            service.set_config(
                name, AutoIndexingConfig(create_mode=AutoMode.OFF)
            )
            service.run(hours=24)
        from repro.controlplane import RecommendationState

        implemented = [
            r for r in service.store.all_records()
            if r.state not in (RecommendationState.ACTIVE, RecommendationState.EXPIRED)
        ]
        assert not implemented


class TestReporting:
    def test_operational_report_counts(self, small_service):
        report = operational_report(small_service, window_hours=12)
        assert report.create_recommendations >= report.implemented >= 0
        decided = report.validated_success + report.reverted
        if decided:
            assert report.revert_rate == pytest.approx(
                report.reverted / decided
            )
        assert report.databases_observed <= len(small_service.database_names)

    def test_report_lines_render(self, small_service):
        report = operational_report(small_service)
        lines = report.lines()
        assert any("reverted" in line for line in lines)
        assert any("create recommendations" in line for line in lines)
