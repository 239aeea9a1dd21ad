"""Worker pools: serial and process execution of shard ticks.

Both backends expose the same surface — ``tick_batch(ends,
max_statements, classifier_state) -> Iterator[ShardResult]``,
``call(database, fn, args)`` and ``close()`` — and both produce
identical deltas for the same seed; only wall-clock behaviour differs.
The serial backend is the in-process reference; the process backend
keeps one long-lived OS process per shard: shard state is built inside
the child from the picklable payload at startup, and only commands /
per-tick deltas cross the pipe afterwards.

``tick_batch`` is the pipelined protocol: the parent pushes a batch of
K tick commands in one round-trip, workers run all K ticks back-to-back
while staying hot, and on the process backend results stream back
**in completion order** — shard 2 may deliver its tick 3 before shard 1
delivers its tick 0.  The service buffers the stream and releases it to the merger in stable
``(tick_index, shard_index)`` order, so arrival order never reaches
merged output.

Every backend brackets its ``dispatch`` (pushing the tick commands out)
and ``wait`` (blocking on shard results) segments on the service's
shared :class:`~repro.parallel.timing.TickPhaseTimer`, so ``repro
profile`` attributes IPC cost per backend without the backends having
to know anything else about profiling.  Under pipelining each blocking
receive is bracketed individually, so ``wait`` accrues to whichever
tick the parent is currently assembling.

``call`` runs a picklable module-level ``fn(worker, *args)`` against
one database's :class:`~repro.parallel.worker.DatabaseWorker` between
batches and returns ``fn``'s result; an exception ``fn`` raises is
re-raised in the parent and the shard keeps serving.

A shard process that dies mid-protocol (killed, OOMed, segfaulted —
anything that skips its own ``("error", ...)`` report) surfaces as a
:class:`~repro.errors.ShardCrashError` naming the shard and the last
command it was sent; the pool closes its surviving workers before
raising.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import connection as mp_connection
from typing import Iterator, List, Optional, Sequence

from repro.errors import ShardCrashError
from repro.parallel.spec import ShardPayload
from repro.parallel.timing import TickPhaseTimer
from repro.parallel.worker import ShardResult, ShardRunner, shard_worker_main


class SerialPool:
    """Shards executed inline, one after another (the baseline).

    Inline execution has no dispatch/wait split: the whole loop counts
    as ``wait`` (the parent is "blocked on shard work" for all of it),
    keeping phase semantics comparable across backends.  ``tick_batch``
    runs tick-major — every shard finishes tick T before any starts
    T+1 — mirroring the synchronous baseline; batching buys nothing
    inline, but the protocol (and its determinism) is still exercised.
    """

    backend = "serial"

    def __init__(
        self,
        payloads: List[ShardPayload],
        timer: Optional[TickPhaseTimer] = None,
    ) -> None:
        self.timer = timer if timer is not None else TickPhaseTimer(enabled=False)
        self.runners = [ShardRunner(payload) for payload in payloads]
        self._runner_of = {
            spec.name: runner
            for runner, payload in zip(self.runners, payloads)
            for spec in payload.databases
        }

    def tick_batch(
        self,
        ends: Sequence[float],
        max_statements: Optional[int],
        classifier_state: Optional[dict],
    ) -> Iterator[ShardResult]:
        with self.timer.phase("dispatch"):
            pass

        def stream() -> Iterator[ShardResult]:
            for index, end in enumerate(ends):
                state = classifier_state if index == 0 else None
                for runner in self.runners:
                    with self.timer.phase("wait"):
                        result = runner.tick(
                            end, max_statements, state, tick_index=index
                        )
                    yield result

        return stream()

    def call(self, database: str, fn, args: tuple):
        return self._runner_of[database].call(database, fn, args)

    def close(self) -> None:
        pass


class ProcessPool:
    """One long-lived process per shard, command/response over a pipe."""

    backend = "process"

    def __init__(
        self,
        payloads: List[ShardPayload],
        timer: Optional[TickPhaseTimer] = None,
    ) -> None:
        self.timer = timer if timer is not None else TickPhaseTimer(enabled=False)
        # ``fork`` where available (cheap on Linux), else ``spawn``.
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
        self._connections = []
        self._processes = []
        self._shard_indices = [payload.shard_index for payload in payloads]
        #: Database name -> position of its shard in the lists above.
        self._position_of = {
            spec.name: position
            for position, payload in enumerate(payloads)
            for spec in payload.databases
        }
        self._last_command = "start"
        # Construction is all-or-nothing: a failure after some children
        # have already been spawned must not leak them.
        try:
            for payload in payloads:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=shard_worker_main,
                    args=(child_conn, payload),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            for shard_index, conn in zip(self._shard_indices, self._connections):
                try:
                    reply = conn.recv()
                except (EOFError, ConnectionError, OSError):
                    raise ShardCrashError(shard_index, self._last_command)
                if reply[0] != "ready":
                    raise RuntimeError(
                        f"shard worker failed to start: {reply[1]}"
                    )
        except BaseException:
            self._reap()
            raise

    def tick_batch(
        self,
        ends: Sequence[float],
        max_statements: Optional[int],
        classifier_state: Optional[dict],
    ) -> Iterator[ShardResult]:
        command = ("tick_batch", list(ends), max_statements, classifier_state)
        self._last_command = "tick_batch"
        with self.timer.phase("dispatch"):
            for shard_index, conn in zip(self._shard_indices, self._connections):
                try:
                    conn.send(command)
                except (BrokenPipeError, ConnectionError, OSError):
                    crash = ShardCrashError(shard_index, self._last_command)
                    self.close()
                    raise crash
        return self._stream_results(len(ends))

    def _stream_results(self, n_ticks: int) -> Iterator[ShardResult]:
        """Yield ShardResults in completion order across all shards.

        ``multiprocessing.connection.wait`` multiplexes the pipes, so a
        fast shard's later ticks are drained while a slow shard still
        computes its first — the parent never head-of-line blocks on one
        pipe, and pipe buffers stay drained (workers block on ``send``
        only when the parent is genuinely busier than every shard).
        """
        shard_of = dict(zip(self._connections, self._shard_indices))
        pending = {conn: n_ticks for conn in self._connections}
        ready: List = []
        while pending:
            if not ready:
                with self.timer.phase("wait"):
                    ready = list(mp_connection.wait(list(pending)))
            conn = ready.pop()
            with self.timer.phase("wait"):
                try:
                    reply = conn.recv()
                except (EOFError, ConnectionError, OSError):
                    crash = ShardCrashError(shard_of[conn], self._last_command)
                    self.close()
                    raise crash
            if reply[0] != "ok":
                self.close()
                raise RuntimeError(f"shard worker failed:\n{reply[1]}")
            pending[conn] -= 1
            if pending[conn] == 0:
                del pending[conn]
            yield reply[1]

    def call(self, database: str, fn, args: tuple):
        position = self._position_of[database]
        shard_index = self._shard_indices[position]
        conn = self._connections[position]
        self._last_command = "call"
        try:
            conn.send(("call", database, fn, args))
            reply = conn.recv()
        except (EOFError, ConnectionError, OSError):
            crash = ShardCrashError(shard_index, self._last_command)
            self.close()
            raise crash
        if reply[0] == "raised":
            raise reply[1]
        if reply[0] != "ok":
            self.close()
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        return reply[1]

    def _reap(self) -> None:
        """Terminate and join every spawned child, then drop the pipes."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._connections = []
        self._processes = []

    def close(self) -> None:
        self._last_command = "stop"
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, ConnectionError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._connections:
            conn.close()
        self._connections = []
        self._processes = []


def make_pool(
    backend: str,
    payloads: List[ShardPayload],
    timer: Optional[TickPhaseTimer] = None,
):
    """Build the pool for an *effective* (already auto-resolved) backend."""
    if backend == "serial":
        return SerialPool(payloads, timer=timer)
    if backend == "process":
        return ProcessPool(payloads, timer=timer)
    raise ValueError(f"unknown backend {backend!r}")
