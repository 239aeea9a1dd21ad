"""Pipelined multi-tick dispatch: determinism, crash paths, accounting.

The contract under test: with ``batch_ticks > 1`` on any backend, a
fleet run's merged output — audit JSONL (hashed), store journal,
recovered records, spans — is **byte-identical** to the serial
``batch_ticks=1`` run for the same seed, even though workers stream
results in completion order and the parent merges early ticks while
later ones still compute.  Alongside it, the fleet-pool correctness
fixes: shard-crash detection, leak-free partial construction, busy
attribution keyed by shard index, the capped tick-wall window, and
out-of-order merge determinism.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import HOURS
from repro.errors import ShardCrashError, TelemetryError
from repro.parallel import CompletionBuffer, build_fleet_service
from repro.parallel.service import TICK_WALL_WINDOW, ShardedFleetService
from repro.parallel.spec import DatabaseSpec, ShardPayload, SharedSettings
from repro.parallel.worker import ShardResult
from repro.service import ServiceSettings

from tests.parallel.test_fleet_parallel import POOL_CASES, WORKERS, run_fleet


class TestBatchDeterminism:
    """Tentpole gate: batched == serial, byte for byte, every backend."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_fleet("serial", 1, hours=24.0, batch_ticks=1)

    @POOL_CASES
    def test_batched_matches_one_tick_serial(self, backend, workers, serial):
        batched = run_fleet(backend, workers, hours=24.0, batch_ticks=3)
        assert batched["jsonl"] == serial["jsonl"]
        assert batched["journal"] == serial["journal"]
        assert batched["recovered"] == serial["recovered"]
        assert batched["spans"] == serial["spans"]
        assert batched["history"] == serial["history"]
        assert batched["bus"] == serial["bus"]
        assert batched["hot_paths"] == serial["hot_paths"]

    def test_audit_sha256_equal_across_batch_sizes(self, serial):
        digest = hashlib.sha256(serial["jsonl"].encode()).hexdigest()
        for batch_ticks in (2, 5):
            batched = run_fleet(
                "serial", WORKERS, hours=24.0, batch_ticks=batch_ticks
            )
            assert (
                hashlib.sha256(batched["jsonl"].encode()).hexdigest()
                == digest
            )


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    batch_ticks=st.integers(min_value=2, max_value=5),
)
def test_property_batched_identical_to_serial(seed, batch_ticks):
    """For any fleet seed and batch size: audit JSONL and recovered
    store state match the one-tick serial run exactly."""
    serial = run_fleet(
        "serial", 1, n_databases=2, hours=12.0, seed=seed, batch_ticks=1
    )
    batched = run_fleet(
        "serial",
        WORKERS,
        n_databases=2,
        hours=12.0,
        seed=seed,
        batch_ticks=batch_ticks,
    )
    assert batched["jsonl"] == serial["jsonl"]
    assert batched["recovered"] == serial["recovered"]


class TestRetrainFlush:
    """A retrain boundary flushes the batch: broadcast state still lands
    at the same virtual time it would under one-tick dispatch."""

    def _service(self, batch_ticks: int, retrain_hours: float):
        return build_fleet_service(
            2,
            workers=1,
            backend="serial",
            batch_ticks=batch_ticks,
            seed=1,
            service_settings=ServiceSettings(
                max_statements_per_step=40,
                classifier_retrain_hours=retrain_hours,
            ),
        )

    def test_plan_batch_cuts_at_retrain_boundary(self):
        service = self._service(batch_ticks=8, retrain_hours=6.0)
        try:
            # step_hours=2 -> the retrain check fires every 3rd tick, so
            # every planned batch must end exactly on a multiple of 6h.
            ends = [i * 2.0 * HOURS for i in range(1, 13)]
            cursor = 0
            batches = []
            while cursor < len(ends):
                batch = service._plan_batch(ends[cursor:])
                batches.append(len(batch))
                service._last_retrain = batch[-1]
                cursor += len(batch)
            assert batches == [3, 3, 3, 3]
        finally:
            service.close()

    def test_plan_batch_caps_at_batch_ticks(self):
        service = self._service(batch_ticks=4, retrain_hours=10_000.0)
        try:
            ends = [i * 2.0 * HOURS for i in range(1, 10)]
            assert service._plan_batch(ends) == ends[:4]
            assert service._plan_batch(ends[8:]) == ends[8:]
        finally:
            service.close()

    def test_frequent_retrains_stay_byte_identical(self):
        def audit(batch_ticks: int) -> str:
            service = build_fleet_service(
                2,
                workers=2,
                backend="serial",
                batch_ticks=batch_ticks,
                seed=9,
                service_settings=ServiceSettings(
                    max_statements_per_step=40,
                    classifier_retrain_hours=4.0,
                ),
            )
            try:
                service.run(24.0)
                return service.telemetry.audit.to_jsonl()
            finally:
                service.close()

        assert audit(4) == audit(1)


class TestShardCrash:
    """A killed shard surfaces as ShardCrashError, not a raw EOFError,
    and the surviving pool is reaped before the error propagates."""

    def _crash_run(self, batch_ticks: int):
        service = build_fleet_service(
            2,
            workers=2,
            backend="process",
            batch_ticks=batch_ticks,
            seed=3,
            service_settings=ServiceSettings(max_statements_per_step=40),
        )
        try:
            victim = service.pool._processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(ShardCrashError) as excinfo:
                service.run(12.0)
            assert excinfo.value.shard_index == 1
            assert excinfo.value.last_command == "tick_batch"
            assert "shard 1" in str(excinfo.value)
            assert service.pool._processes == []
            assert service.pool._connections == []
        finally:
            service.close()  # idempotent after the crash cleanup

    def test_kill_mid_run_single_tick(self):
        self._crash_run(batch_ticks=1)

    def test_kill_mid_run_batched(self):
        self._crash_run(batch_ticks=4)


class TestConstructionSafety:
    """Construction failures after process spawn must reap the workers."""

    def test_service_init_failure_reaps_pool(self, monkeypatch):
        import repro.parallel.service as service_module

        pools = []
        real_make_pool = service_module.make_pool

        def recording_make_pool(*args, **kwargs):
            pool = real_make_pool(*args, **kwargs)
            pools.append(pool)
            return pool

        monkeypatch.setattr(service_module, "make_pool", recording_make_pool)

        class Exploding(ShardedFleetService):
            def _finish_init(self):
                raise RuntimeError("post-pool construction failure")

        from repro.parallel.settings import ParallelSettings

        with pytest.raises(RuntimeError, match="post-pool"):
            Exploding(
                2,
                parallel=ParallelSettings(workers=2, backend="process"),
                seed=3,
            )
        assert len(pools) == 1
        assert pools[0]._processes == []
        assert pools[0]._connections == []

    def test_worker_startup_failure_reaps_spawned_processes(self):
        import multiprocessing

        from repro.parallel.pool import ProcessPool

        shared = SharedSettings()
        payloads = [
            ShardPayload(
                shard_index=0,
                databases=[
                    DatabaseSpec(
                        name="db-ok-0", profile_seed=1, tier="standard",
                        fault_seed=1,
                    )
                ],
                shared=shared,
            ),
            ShardPayload(
                shard_index=1,
                databases=[
                    DatabaseSpec(
                        name="db-bad-0", profile_seed=1, tier="no-such-tier",
                        fault_seed=1,
                    )
                ],
                shared=shared,
            ),
        ]
        with pytest.raises((RuntimeError, ShardCrashError)):
            ProcessPool(payloads)
        for child in multiprocessing.active_children():
            assert "repro" not in (child.name or ""), (
                f"leaked shard process {child!r}"
            )


class TestBusyAttribution:
    """fleet_shard_busy is keyed by each result's own shard index."""

    def test_out_of_order_results_attribute_correctly(self):
        service = build_fleet_service(
            3,
            workers=3,
            backend="serial",
            seed=5,
            service_settings=ServiceSettings(max_statements_per_step=40),
        )
        try:
            shuffled = [
                ShardResult(deltas=[], busy_seconds=4.0, shard_index=2),
                ShardResult(deltas=[], busy_seconds=1.0, shard_index=0),
                ShardResult(deltas=[], busy_seconds=2.0, shard_index=1),
            ]
            service._account_busy(shuffled)
            registry = service.telemetry.registry
            for index, expected in ((0, 1.0), (1, 2.0), (2, 4.0)):
                gauge = registry.gauge("fleet_shard_busy", shard=str(index))
                assert gauge.value == pytest.approx(expected)
                assert service._shard_busy[index] == pytest.approx(expected)
            assert registry.gauge(
                "fleet_tick_skew_seconds"
            ).value == pytest.approx(3.0)
        finally:
            service.close()


class TestTickWallWindow:
    """tick_wall_seconds is a capped window; totals keep whole-run truth."""

    def test_window_capped_and_totals_unbounded(self):
        service = build_fleet_service(1, workers=1, backend="serial", seed=0)
        try:
            n = TICK_WALL_WINDOW + 500
            for _ in range(n):
                service._observe_tick_wall(0.001)
            assert len(service.tick_wall_seconds) == TICK_WALL_WINDOW
            assert service.ticks_completed == n
            assert service.tick_wall_total == pytest.approx(n * 0.001)
            histogram = service.telemetry.registry.histogram(
                "fleet_tick_wall_seconds"
            )
            assert histogram.count == n
            # The bench's p95 derivation keeps working on the window.
            assert sorted(service.tick_wall_seconds)[-1] == 0.001
        finally:
            service.close()


class TestCompletionBuffer:
    """Completion-order arrivals, stable (tick, shard) release order."""

    @staticmethod
    def result(tick: int, shard: int) -> ShardResult:
        return ShardResult(
            deltas=[], busy_seconds=0.0, shard_index=shard, tick_index=tick
        )

    def test_out_of_order_arrival_releases_in_shard_order(self):
        buffer = CompletionBuffer([0, 1, 2], n_ticks=2)
        for tick, shard in [(1, 2), (0, 1), (1, 0), (0, 2), (0, 0), (1, 1)]:
            buffer.add(self.result(tick, shard), anchor=float(shard))
        for tick in (0, 1):
            assert buffer.complete(tick)
            released = buffer.release(tick)
            assert [r.shard_index for r, _anchor in released] == [0, 1, 2]
            assert [anchor for _r, anchor in released] == [0.0, 1.0, 2.0]
        assert buffer.buffered == 0

    def test_incomplete_tick_is_not_releasable(self):
        buffer = CompletionBuffer([0, 1], n_ticks=1)
        buffer.add(self.result(0, 1))
        assert not buffer.complete(0)
        with pytest.raises(TelemetryError, match=r"shards \[0\]"):
            buffer.release(0)

    def test_duplicate_unknown_and_out_of_range_rejected(self):
        buffer = CompletionBuffer([0, 1], n_ticks=1)
        buffer.add(self.result(0, 0))
        with pytest.raises(TelemetryError, match="duplicate"):
            buffer.add(self.result(0, 0))
        with pytest.raises(TelemetryError, match="not part"):
            buffer.add(self.result(0, 7))
        with pytest.raises(TelemetryError, match="outside batch"):
            buffer.add(self.result(3, 1))


class TestOutOfOrderMergeDeterminism:
    """Shuffled delta order entering the merge changes nothing merged."""

    @POOL_CASES
    def test_shuffled_deltas_byte_identical(self, backend, workers):
        reference = run_fleet(backend, workers, hours=12.0, batch_ticks=2)

        rng = random.Random(0xC0FFEE)

        def shuffling(service):
            merger = service.merger
            original = merger.merge

            def merge(deltas):
                shuffled = list(deltas)
                rng.shuffle(shuffled)
                return original(shuffled)

            merger.merge = merge

        shuffled = run_fleet(
            backend, workers, hours=12.0, batch_ticks=2, prepare=shuffling
        )
        assert (
            hashlib.sha256(shuffled["jsonl"].encode()).hexdigest()
            == hashlib.sha256(reference["jsonl"].encode()).hexdigest()
        )
        assert shuffled["recovered"] == reference["recovered"]
        assert shuffled["journal"] == reference["journal"]
        assert shuffled["spans"] == reference["spans"]
