"""The command path: portal calls and shard commands across backends.

``ShardedFleetService.on_database`` runs a command on the shard that owns
a database; whatever the command emits drains with the next tick and
merges in the usual ``(tick, shard, db)`` order.  So a run that mixes
portal calls (server assignment, overrides, user-initiated applies) with
ticks must stay byte-identical across backends and worker counts, just
like a plain run.
"""

from __future__ import annotations

import functools
import hashlib
import os
import signal

import pytest

from repro.api import ManagementApi
from repro.clock import HOURS
from repro.controlplane import (
    AutoIndexingConfig,
    AutoMode,
    ControlPlaneSettings,
    RecommendationState,
)
from repro.errors import PermanentError, ShardCrashError
from repro.parallel import build_fleet_service
from repro.reporting import operational_report
from repro.service import ServiceSettings

from tests.parallel.test_fleet_parallel import BATCH_TICKS, POOL_CASES


def build(backend: str, workers: int, n_databases: int = 3):
    return build_fleet_service(
        n_databases,
        workers=workers,
        backend=backend,
        batch_ticks=1 if workers <= 1 else BATCH_TICKS,
        seed=11,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=8 * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(max_statements_per_step=60),
        default_config=AutoIndexingConfig(
            create_mode=AutoMode.RECOMMEND_ONLY
        ),
    )


def first_active(api: ManagementApi) -> int:
    for name in api.service.database_names:
        views = api.current_recommendations(name)
        if views:
            return views[0].rec_id
    raise AssertionError("no active recommendation to apply")


@functools.lru_cache(maxsize=None)
def portal_run(backend: str, workers: int) -> dict:
    """Assign a server, override one database, apply one recommendation
    and run on; return every view the portal and the report expose."""
    service = build(backend, workers)
    try:
        api = ManagementApi(service)
        api.register_server(
            "server-1", AutoIndexingConfig(create_mode=AutoMode.RECOMMEND_ONLY)
        )
        names = service.database_names
        for name in names:
            api.assign_database(name, "server-1")
        service.run(12.0)
        api.set_database_config(
            names[-1], AutoIndexingConfig(create_mode=AutoMode.AUTO)
        )
        rec_id = first_active(api)
        details = api.recommendation_details(rec_id)
        api.apply_recommendation(rec_id)
        service.run(18.0)
        return {
            "audit_sha256": hashlib.sha256(
                service.audit.to_jsonl().encode("utf-8")
            ).hexdigest(),
            "history": {name: api.history(name) for name in names},
            "details": details,
            "applied": rec_id,
            "report": operational_report(service),
        }
    finally:
        service.close()


class TestCommandPathDeterminism:
    @POOL_CASES
    def test_portal_run_identical_across_backends(self, backend, workers):
        reference = portal_run("serial", 1)
        run = portal_run(backend, workers)
        assert run["audit_sha256"] == reference["audit_sha256"]
        assert run["history"] == reference["history"]
        assert run["details"] == reference["details"]
        assert run["report"] == reference["report"]

    def test_apply_and_override_took_effect(self):
        run = portal_run("serial", 1)
        database = run["details"]["database"]
        entry = next(
            h for h in run["history"][database] if h.rec_id == run["applied"]
        )
        assert any("implementing" in line for line in entry.timeline)
        # The AUTO override implements on its own; RECOMMEND_ONLY
        # databases only implement what the user applied.
        overridden = list(run["history"])[-1]
        implemented = {
            name: [
                h.rec_id
                for h in views
                if any("implementing" in line for line in h.timeline)
            ]
            for name, views in run["history"].items()
        }
        assert implemented[overridden]
        for name, rec_ids in implemented.items():
            if name not in (overridden, database):
                assert rec_ids == []


def _raise_value_error(worker):
    raise ValueError(f"refused by {worker.spec.name}")


def _database_name(worker) -> str:
    return worker.spec.name


class TestOnDatabase:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_apply_twice_is_permanent_and_shard_keeps_ticking(self, backend):
        service = build(backend, 2, n_databases=2)
        try:
            api = ManagementApi(service)
            service.run(12.0)
            rec_id = first_active(api)
            api.apply_recommendation(rec_id)
            with pytest.raises(PermanentError):
                api.apply_recommendation(rec_id)
            with pytest.raises(PermanentError):
                api.apply_recommendation(10_000_000)
            ticks = service.ticks_completed
            service.run(4.0)
            assert service.ticks_completed == ticks + 2
            assert service.store.get(rec_id).state is not (
                RecommendationState.ACTIVE
            )
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_raised_exception_keeps_its_type(self, backend):
        service = build(backend, 2, n_databases=2)
        try:
            name = service.database_names[1]
            with pytest.raises(ValueError, match=f"refused by {name}"):
                service.on_database(name, _raise_value_error)
            assert service.on_database(name, _database_name) == name
            service.run(2.0)
            with pytest.raises(KeyError):
                service.on_database("no-such-db", _database_name)
        finally:
            service.close()

    def test_dead_shard_raises_shard_crash(self):
        service = build("process", 2, n_databases=2)
        try:
            victim = service.pool._processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(ShardCrashError) as excinfo:
                service.on_database(service.database_names[1], _database_name)
            assert excinfo.value.shard_index == 1
            assert excinfo.value.last_command == "call"
        finally:
            service.close()
