"""Per-layer ledger: time each layer of the program from outside.

The traced run patches the public entry points of every layer with a
timing wrapper, from this file only; nothing under ``src/`` changes and
:func:`install` restores every patched attribute on exit.  One layer per
repo module, named after it (``engine.exec.columns`` is
``repro.engine.exec.columns``).

Each wrapped call in the tick loop is a span (name, start, end, parent,
database) kept in memory; fleet construction keeps self times only.
A layer's *self time* is its spans' durations minus the time of the
wrapped calls nested inside them, so self times add up to the time the
wrapped calls explain, without double counting.  The loop's own code
between them (``ShardedFleetService.run``) is not wrapped: the share of
the loop the layers explain is measured, not assumed.  The spans are
written out at the end as the Chrome trace-event JSON that
``repro profile --trace-out`` emits, so one viewer opens both.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Ledger phases: fleet construction, then the tick loop.
SETUP, LOOP = "setup", "loop"


@dataclasses.dataclass(frozen=True)
class Target:
    """One patched attribute and the layer its calls are charged to."""

    module: str
    owner: str
    attribute: str
    layer: str
    #: Layer charged while the fleet is being built; None = pass through.
    setup_layer: Optional[str] = None
    #: ``args[0].spec.name`` names the database for nested spans.
    scopes_database: bool = False

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attribute}"


def _targets(module: str, owner: str, layer: str, *attributes: str, **kw):
    return [Target(module, owner, a, layer, **kw) for a in attributes]


#: The layer taxonomy: every wrapped entry point and its layer.
TARGETS: Tuple[Target, ...] = tuple(
    _targets("repro.workload.generator", "Workload", "workload",
             "run", "sample_template")
    + _targets("repro.workload.templates", "QueryTemplate", "workload",
               "sample")
    + _targets("repro.engine.engine", "SqlEngine", "engine", "execute")
    + _targets("repro.engine.engine", "SqlEngine", "engine",
               "build_all_statistics", setup_layer="setup.statistics")
    + _targets("repro.engine.optimizer", "Optimizer", "engine.optimizer",
               "optimize")
    + _targets("repro.engine.exec.dispatch", "Executor", "engine.exec",
               "execute")
    + _targets("repro.engine.exec.columns", "ColumnarCache",
               "engine.exec.columns", "projection")
    + _targets("repro.engine.exec.columns", "Projection",
               "engine.exec.columns", "vector")
    + _targets("repro.engine.table", "Table", "engine.table",
               "insert", setup_layer="setup.populate")
    + _targets("repro.engine.table", "Table", "engine.table",
               "update_row", "delete_row", "insert_rows", "update_rows",
               "delete_rows")
    + _targets("repro.engine.table", "Table", "engine.ddl", "create_index")
    + _targets("repro.engine.btree", "BPlusTree", "engine.ddl", "bulk_load")
    + _targets("repro.recommender.mi_recommender", "MiRecommender",
               "recommender", "recommend")
    + _targets("repro.controlplane.services.dta_service",
               "DtaSessionManager", "recommender", "run")
    + _targets("repro.recommender.dta.whatif", "WhatIfSession",
               "recommender.whatif", "cost", "cost_many")
    + _targets("repro.validation.validator", "Validator", "validation",
               "validate")
    + _targets("repro.controlplane.control_plane", "ControlPlane",
               "controlplane", "process")
    + _targets("repro.controlplane.services.recommend_service",
               "RecommendationService", "controlplane",
               "snapshot", "analyze", "analyze_drops")
    + _targets("repro.controlplane.services.implement_service",
               "ImplementationService", "controlplane",
               "begin", "drive", "begin_rebuild", "drive_revert")
    + _targets("repro.controlplane.services.validate_service",
               "ValidationService", "controlplane", "drive")
    + _targets("repro.parallel.worker", "ShardRunner", "parallel", "tick")
    + _targets("repro.parallel.worker", "DatabaseWorker", "parallel", "tick",
               scopes_database=True)
    + _targets("repro.parallel.merge", "DeterministicMerger", "parallel",
               "merge")
    + _targets("repro.observability.timeseries", "TelemetryHistory",
               "observability", "observe_tick")
    + _targets("repro.observability.alerts", "AlertWatchdog",
               "observability", "evaluate")
)

#: Every layer, in report order.  Setup layers are timed before the
#: first tick only and are not part of the loop's coverage.
LOOP_LAYERS: Tuple[str, ...] = (
    "workload",
    "engine",
    "engine.optimizer",
    "engine.exec",
    "engine.exec.columns",
    "engine.table",
    "engine.ddl",
    "recommender",
    "recommender.whatif",
    "validation",
    "controlplane",
    "parallel",
    "observability",
)
SETUP_LAYERS: Tuple[str, ...] = ("setup.populate", "setup.statistics")

#: Layers whose calls are tuning work.  Any wrapped call made inside one
#: of them (the optimizer pricing a what-if configuration, the table
#: filled by an index build) is tuning work too, whatever its layer.
TUNING_LAYERS: Tuple[str, ...] = (
    "controlplane",
    "recommender",
    "recommender.whatif",
    "validation",
    "engine.ddl",
)

#: Spans kept in memory for the trace file; self times stay exact past
#: the cap, only the export is truncated.
MAX_SPANS = 300_000


class Ledger:
    """Call stack, self times, outermost call counts and spans."""

    def __init__(self) -> None:
        self.phase = SETUP
        self.self_s: Dict[str, float] = {
            layer: 0.0 for layer in LOOP_LAYERS + SETUP_LAYERS
        }
        #: The part of ``self_s`` spent inside a tuning layer's call
        #: (the tuning layers' own self time included).
        self.tuning_self_s: Dict[str, float] = dict.fromkeys(self.self_s, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(self.self_s, 0)
        #: ``(name, layer, start, parent_index, database)``; immutable so
        #: the garbage collector stops scanning them, ends kept apart.
        self.spans: List[tuple] = []
        self.ends: List[float] = []
        self.dropped_spans = 0
        self.database: Optional[str] = None
        # Frames: [layer, start, nested_seconds, span_index, in_tuning].
        self._stack: List[list] = []

    def enter(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[0] != layer:
            self.calls[layer] += 1
        index = -1
        start = time.perf_counter()
        if self.phase == LOOP:  # setup keeps self times only, no row spans
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(
                    (name, layer, start,
                     parent[3] if parent is not None else -1, self.database)
                )
                self.ends.append(start)
            else:
                self.dropped_spans += 1
        in_tuning = layer in TUNING_LAYERS or (
            parent is not None and parent[4]
        )
        frame = [layer, start, 0.0, index, in_tuning]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrapper misuse
            raise RuntimeError("ledger stack out of order")
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if frame[4]:
            self.tuning_self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.ends[frame[3]] = end

    def loop_self_total(self) -> float:
        return sum(self.self_s[layer] for layer in LOOP_LAYERS)

    def trace_document(self, metadata: Dict[str, object]) -> dict:
        """The spans as a Chrome/Perfetto trace-event document."""
        from repro.observability.trace_export import (
            TraceEvent,
            trace_event_json,
        )

        epoch = self.spans[0][2] if self.spans else 0.0
        events = [
            TraceEvent(
                track=0,
                name=name,
                ts=start - epoch,
                dur=end - start,
                category=layer,
                args={"span": index, "parent": parent, "database": database},
            )
            for index, ((name, layer, start, parent, database), end)
            in enumerate(zip(self.spans, self.ends))
        ]
        metadata = dict(metadata, dropped_spans=self.dropped_spans)
        return trace_event_json(
            events, track_names={0: "serial fleet (traced)"}, metadata=metadata
        )


def _wrap(ledger: Ledger, target: Target, function):
    name = target.name
    layer, setup_layer = target.layer, target.setup_layer

    @functools.wraps(function)
    def traced(*args, **kwargs):
        charged = layer if ledger.phase == LOOP else setup_layer
        if charged is None:
            return function(*args, **kwargs)
        saved_database = ledger.database
        if target.scopes_database:
            ledger.database = args[0].spec.name
        frame = ledger.enter(name, charged)
        try:
            return function(*args, **kwargs)
        finally:
            ledger.exit(frame)
            ledger.database = saved_database

    return traced


def _resolve(target: Target):
    owner = getattr(importlib.import_module(target.module), target.owner)
    if target.attribute not in vars(owner):
        raise AttributeError(
            f"{target.name} is not defined on {target.module}.{target.owner}"
        )
    return owner, vars(owner)[target.attribute]


@contextlib.contextmanager
def install(
    ledger: Ledger, targets: Sequence[Target] = TARGETS
) -> Iterator[List[Tuple[type, str, object]]]:
    """Patch every target for the duration of the block.

    Yields the ``(owner, attribute, original)`` triples; on exit each
    original descriptor is put back, whatever the block raised.
    """
    patched: List[Tuple[type, str, object]] = []
    try:
        for target in targets:
            owner, original = _resolve(target)
            if isinstance(original, classmethod):  # BPlusTree.bulk_load
                replacement = classmethod(
                    _wrap(ledger, target, original.__func__)
                )
            else:
                replacement = _wrap(ledger, target, original)
            setattr(owner, target.attribute, replacement)
            patched.append((owner, target.attribute, original))
        yield patched
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
