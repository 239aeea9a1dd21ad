"""Build a workload's fleet and advance it: the measured program.

The fleet comes from the public :func:`repro.parallel.build_fleet_service`
on the serial backend with the control settings ``repro run`` uses
(snapshot 2 h, analysis 8 h unless the workload says otherwise,
validation window 6 h, ``create_mode=AUTO``, instrumentation and
telemetry history on).  Nothing here reads a clock inside the program;
the timings bracket public calls, and each timed interval carries the
host speed sampled around it (:mod:`perfbench.hostspeed`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
from typing import Dict

from perfbench.hostspeed import HostSpeed
from perfbench.workloads import STEP_HOURS, Workload

#: Environment knobs that change which code path the program takes, with
#: the value the benchmark pins (empty = unset).
PINNED_ENVIRONMENT = {"REPRO_EXECUTOR": ("", "auto"), "REPRO_WHATIF": ("", "batch")}


def environment_problems(environ=os.environ) -> list:
    """Settings that would make a run measure a non-default program."""
    problems = [
        f"{name}={environ[name]!r} (allowed: unset or {allowed[-1]!r})"
        for name, allowed in PINNED_ENVIRONMENT.items()
        if environ.get(name, "") not in allowed
    ]
    problems += [
        f"{name} is set" for name in sorted(environ) if name.startswith("REPRO_TEST_")
    ]
    return problems


def build_service(workload: Workload, seed: int):
    """The workload's fleet, configured as ``repro run`` configures it."""
    from repro.clock import HOURS
    from repro.controlplane import AutoIndexingConfig, ControlPlaneSettings
    from repro.controlplane.control_plane import AutoMode
    from repro.parallel import build_fleet_service
    from repro.service import ServiceSettings

    return build_fleet_service(
        n_databases=workload.databases,
        workers=0,
        backend="serial",
        tier=workload.tier,
        seed=seed,
        control_settings=ControlPlaneSettings(
            snapshot_period=2 * HOURS,
            analysis_period=workload.analysis_hours * HOURS,
            validation_window=6 * HOURS,
        ),
        service_settings=ServiceSettings(
            step_hours=STEP_HOURS,
            max_statements_per_step=workload.statements_per_step,
        ),
        default_config=AutoIndexingConfig(create_mode=AutoMode.AUTO),
    )


def measure(workload: Workload, seed: int, on_start=None):
    """Build one fleet, advance it, and release it before returning.

    Returns ``(setup, loop)``: the :class:`HostSpeed` that timed the build
    (construction to ready-for-first-tick) and the :class:`LoopResult`.
    The service is unreachable once this returns, so the next build never
    overlaps it in memory.
    """
    import repro.parallel  # noqa: F401  (module loading is not set-up)

    with HostSpeed() as setup:
        service = build_service(workload, seed)
    try:
        loop = run_loop(service, workload, on_start)
    finally:
        service.close()
        del service
        gc.collect()
    return setup, loop


def _total(registry, name: str, **labels) -> int:
    return int(round(registry.total(name, **labels)))


def registry_counts(registry) -> Dict[str, int]:
    """The merged counts the benchmark reads.  They are functions of the
    seed alone, so any difference between two runs of one seed is a
    failure, never noise."""
    from repro.engine.exec.dispatch import FALLBACK_REASONS

    counts = {
        "statements_vector": _total(
            registry, "executor_vector_dispatch_total", path="vector"
        ),
        "statements_interp": _total(
            registry, "executor_vector_dispatch_total", path="interp"
        ),
        "column_cache_hits": _total(registry, "executor_column_cache_hits"),
        "column_cache_misses": _total(registry, "executor_column_cache_misses"),
        "column_cache_invalidations": _total(
            registry, "executor_column_cache_invalidations"
        ),
        "plan_cache_hits": _total(registry, "plan_cache_hits"),
        "plan_cache_misses": _total(registry, "plan_cache_misses"),
        "whatif_configurations": _total(registry, "whatif_batch_configurations"),
        "whatif_substrate_hits": _total(registry, "whatif_batch_substrate_hits"),
        "whatif_substrate_misses": _total(
            registry, "whatif_batch_substrate_misses"
        ),
        "implementations": _total(registry, "implementations_completed_total"),
        "reverts": _total(registry, "validation_reverts_total"),
        "analysis_runs": _total(registry, "analysis_runs_total"),
        "analysis_failed": _total(registry, "analysis_runs_total", outcome="failed")
        + _total(registry, "analysis_runs_total", outcome="deferred"),
        "state_transitions": _total(registry, "state_transitions_total"),
        "transitions_failed": _total(
            registry, "state_transitions_total", to_state="retry"
        )
        + _total(registry, "state_transitions_total", to_state="error"),
        "ticks": _total(registry, "fleet_ticks_total"),
    }
    for reason in FALLBACK_REASONS:
        counts[f"fallback_{reason}"] = _total(
            registry, f"executor_fallback_{reason}_total"
        )
    return counts


@dataclasses.dataclass
class LoopResult:
    """One fleet advanced through the workload's planned ticks."""

    #: Wall seconds of the tick loop.
    loop_s: float
    #: The same interval at reference host speed.
    loop_ref_s: float
    #: Wall seconds of the loop with the host-speed samples left in
    #: (what a trace of the loop sees).
    elapsed_s: float
    #: Calibration-kernel time over its reference during the loop.
    host_slowdown: float
    digest: str
    counts: Dict[str, int]
    reverted: int
    succeeded: int

    @property
    def statements(self) -> int:
        return self.counts["statements_vector"] + self.counts["statements_interp"]

    @property
    def attempted(self) -> int:
        """Statements executed + analysis runs + state transitions."""
        c = self.counts
        return self.statements + c["analysis_runs"] + c["state_transitions"]

    @property
    def failed(self) -> int:
        """Failed or deferred analyses + retry/error transitions.  A
        statement that raises aborts the tick, so it fails the run."""
        return self.counts["analysis_failed"] + self.counts["transitions_failed"]

    @property
    def revert_ratio(self) -> float:
        judged = self.reverted + self.succeeded
        return self.reverted / judged if judged else 0.0

    @property
    def ops_failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_loop(service, workload: Workload, on_start=None) -> LoopResult:
    """Advance ``service`` through the planned ticks and read its output.

    ``on_start`` runs right before the first tick (the traced run flips
    its ledger to the loop phase there).
    """
    from repro.controlplane.states import RecommendationState

    if on_start is not None:
        on_start()
    with HostSpeed() as speed:
        service.run(hours=workload.ticks * STEP_HOURS)
    if service.ticks_completed != workload.ticks:
        raise RuntimeError(
            f"{service.ticks_completed} of {workload.ticks} planned ticks ran"
        )
    states = service.store.count_by_state()
    digest = hashlib.sha256(
        service.telemetry.audit.to_jsonl().encode()
    ).hexdigest()
    return LoopResult(
        loop_s=speed.wall_s,
        loop_ref_s=speed.reference_seconds(),
        elapsed_s=speed.elapsed_s,
        host_slowdown=speed.slowdown(),
        digest=digest,
        counts=registry_counts(service.telemetry.registry),
        reverted=states.get(RecommendationState.REVERTED, 0),
        succeeded=states.get(RecommendationState.SUCCESS, 0),
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_fingerprint(root: str, workload: Workload) -> str:
    """Digest of the program's sources (and the workload shape): runs
    with equal fingerprints must produce equal output."""
    h = hashlib.sha256(repr(workload).encode())
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fp:
                    h.update(fp.read())
    return h.hexdigest()
