"""Fleet benchmark: simulated database-hours per second, end to end and by layer.

    python3 perfbench/run.py --workload tuning_premium --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload fleet_wide --smoke

``--trace 0`` measures the program as ``repro run`` configures it.  It
builds and advances ``fleets_for(workload, --seconds)`` sub-fleets
(seeds derived from ``--seed``) and prints the end-to-end metrics: ``db_hours_per_s``
(simulated database-hours / reference seconds of the tick loops, see
:mod:`perfbench.hostspeed`), ``setup_s`` (median reference seconds from
service construction to the first tick) and ``peak_rss_mb``.
``--trace 1`` runs sub-fleet 0 untraced and then traced, prints the
per-layer ledger (see :mod:`perfbench.ledger`) and writes its spans as
Chrome trace-event JSON under ``--out-dir`` (``.perfbench/`` by default).

Every run checks its output: all planned ticks complete, and the audit
stream's sha256 and the registry counts of each sub-fleet agree between
every loop of it in the run and with every earlier run on the same
sources (kept under ``<out-dir>/runs``).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from types import SimpleNamespace
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    fleet_seed,
    fleets_for,
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Output checks


def differences(reference, loop, where: str) -> List[str]:
    """How ``loop``'s output differs from ``reference`` (both have a
    ``digest`` and ``counts``); empty when identical."""
    problems = []
    if loop.digest != reference.digest:
        problems.append(
            f"audit sha256 {loop.digest} differs from {where} {reference.digest}"
        )
    for name in sorted(set(reference.counts) | set(loop.counts)):
        if reference.counts.get(name) != loop.counts.get(name):
            problems.append(
                f"count {name}={loop.counts.get(name)} differs from {where} "
                f"{reference.counts.get(name)}"
            )
    return problems


def check_against_earlier_runs(out_dir: str, key: str, loop) -> List[str]:
    """Compare with the first recorded run under ``key`` (sub-fleet seed
    and source fingerprint), or record this one as that reference."""
    path = os.path.join(out_dir, "runs", key + ".json")
    if os.path.exists(path):
        with open(path) as fp:
            earlier = SimpleNamespace(**json.load(fp))
        return differences(earlier, loop, "the earlier run's")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    scratch = path + f".{os.getpid()}.tmp"
    with open(scratch, "w") as fp:
        json.dump({"digest": loop.digest, "counts": loop.counts}, fp,
                  sort_keys=True)
    os.replace(scratch, path)
    return []


# ----------------------------------------------------------------------
# Runs


def untraced(workload: Workload, seed: int, fleets: int):
    """Build and advance each sub-fleet once: ``(setup timings, loops)``."""
    from perfbench.fleet import measure

    setups = []
    loops = []
    for index in range(fleets):
        setup, loop = measure(workload, fleet_seed(seed, index))
        setups.append(setup)
        loops.append(loop)
    return setups, loops


def traced(workload: Workload, seed: int):
    """Sub-fleet 0 untraced (the overhead baseline), then traced."""
    from perfbench import ledger as ledger_mod
    from perfbench.fleet import measure

    seed0 = fleet_seed(seed, 0)
    _setup, baseline = measure(workload, seed0)
    ledger = ledger_mod.Ledger()

    def start_loop():
        ledger.phase = ledger_mod.LOOP

    with ledger_mod.install(ledger):
        setup, loop = measure(workload, seed0, on_start=start_loop)
    return baseline, loop, ledger, setup.reference_seconds() / setup.elapsed_s


def layer_metrics(baseline, loop, ledger, setup_scale) -> Dict[str, tuple]:
    """The per-layer ledger: ``name -> (value, unit)``.

    Self times are in reference seconds, scaled by the host speed of the
    interval they were measured in (the loop, or the traced build for
    ``setup.*``), so they add up like the end-to-end figures.  Host-speed
    samples land inside whichever span they interrupt, so the scale
    divides by the loop's elapsed time, samples included.
    """
    from perfbench import ledger as ledger_mod

    loop_scale = loop.loop_ref_s / loop.elapsed_s
    s = {
        layer: seconds * (setup_scale if layer.startswith("setup.") else loop_scale)
        for layer, seconds in ledger.self_s.items()
    }
    calls, c = ledger.calls, loop.counts
    # Tuning work is charged by caller: an engine call made for a tuning
    # layer (what-if optimization, an index build's inserts) is tuning.
    workload_layers = (
        "workload",
        "engine",
        "engine.optimizer",
        "engine.exec",
        "engine.exec.columns",
        "engine.table",
    )
    tuning = sum(
        ledger.tuning_self_s[layer] * loop_scale
        for layer in workload_layers + ledger_mod.TUNING_LAYERS
    )
    workload_time = sum(
        s[layer] - ledger.tuning_self_s[layer] * loop_scale
        for layer in workload_layers
    )
    fallbacks = sum(v for k, v in c.items() if k.startswith("fallback_"))
    metrics = {
        "workload.self_s": (s["workload"], "s"),
        "workload.statements": (loop.statements, "count"),
        "engine.self_s": (s["engine"], "s"),
        "engine.optimizer.self_s": (s["engine.optimizer"], "s"),
        "engine.optimizer.calls": (calls["engine.optimizer"], "count"),
        "engine.optimizer.plan_cache_hit_ratio": (
            _ratio(c["plan_cache_hits"], c["plan_cache_hits"] + c["plan_cache_misses"]),
            "ratio",
        ),
        "engine.exec.self_s": (s["engine.exec"], "s"),
        "engine.exec.interp_ratio": (_ratio(fallbacks, loop.statements), "ratio"),
        "engine.exec.columns.self_s": (s["engine.exec.columns"], "s"),
        "engine.exec.columns.hit_ratio": (
            _ratio(
                c["column_cache_hits"],
                c["column_cache_hits"] + c["column_cache_misses"],
            ),
            "ratio",
        ),
        "engine.exec.columns.invalidations": (
            c["column_cache_invalidations"],
            "count",
        ),
        "engine.table.self_s": (s["engine.table"], "s"),
        "engine.table.calls": (calls["engine.table"], "count"),
        "engine.ddl.self_s": (s["engine.ddl"], "s"),
        "engine.ddl.builds": (calls["engine.ddl"], "count"),
        "recommender.self_s": (s["recommender"], "s"),
        "recommender.whatif.share": (
            _ratio(ledger.self_s["recommender.whatif"], loop.elapsed_s),
            "ratio",
        ),
        "recommender.whatif.configs": (c["whatif_configurations"], "count"),
        "recommender.whatif.substrate_hit_ratio": (
            _ratio(
                c["whatif_substrate_hits"],
                c["whatif_substrate_hits"] + c["whatif_substrate_misses"],
            ),
            "ratio",
        ),
        "validation.share": (
            _ratio(ledger.self_s["validation"], loop.elapsed_s),
            "ratio",
        ),
        "controlplane.self_s": (s["controlplane"], "s"),
        "controlplane.implementations": (c["implementations"], "count"),
        "parallel.self_s": (s["parallel"], "s"),
        "observability.self_s": (s["observability"], "s"),
        "setup.populate_s": (s["setup.populate"], "s"),
        "setup.statistics_s": (s["setup.statistics"], "s"),
        "trace.coverage": (
            _ratio(ledger.loop_self_total(), loop.elapsed_s),
            "ratio",
        ),
        "trace.overhead_ratio": (
            _ratio(loop.loop_ref_s, baseline.loop_ref_s) - 1.0,
            "ratio",
        ),
        "controlplane.overhead_ratio": (_ratio(tuning, workload_time), "ratio"),
        "outcome.revert_ratio": (loop.revert_ratio, "ratio"),
        "outcome.ops_failed_ratio": (loop.ops_failed_ratio, "ratio"),
    }
    return metrics


def environment_facts() -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(max(1, attempted)),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool, out_dir: str) -> int:
    from perfbench.fleet import peak_rss_mb, source_fingerprint

    facts = environment_facts()
    fleets = 1 if smoke else fleets_for(workload, seconds)
    print(
        f"workload {workload.name}: {fleets if not trace else 1} x "
        f"{workload.databases} {workload.tier} dbs, "
        f"{workload.statements_per_step} statements/db/step, "
        f"analysis {workload.analysis_hours:g} h, {workload.ticks} ticks, "
        f"seed {seed}{' [smoke]' if smoke else ''}; "
        f"loads {', '.join(workload.loads)}"
    )
    print("environment " + " ".join(f"{k}={v}" for k, v in facts.items()))
    # Loops per sub-fleet index; every loop of one index must agree.
    by_fleet: Dict[int, list] = {}
    if trace or smoke:
        baseline, loop, ledger, setup_scale = traced(workload, seed)
        by_fleet[0] = [baseline, loop]
    if not trace or smoke:
        setups, untraced_loops = untraced(workload, seed, fleets)
        for index, result in enumerate(untraced_loops):
            by_fleet.setdefault(index, []).append(result)
        for index, setup in enumerate(setups):
            print(
                f"fleet {index}: setup {setup.wall_s:.3f}s (ref "
                f"{setup.reference_seconds():.3f}s, kernel "
                f"x{setup.slowdown():.3f})"
            )
    fingerprint = source_fingerprint(ROOT, workload)[:16]
    problems: List[str] = []
    for index, loops in sorted(by_fleet.items()):
        first = loops[0]
        for other in loops[1:]:
            problems += differences(first, other, "another loop's")
        key = f"{workload.name}-fleet{fleet_seed(seed, index)}-{fingerprint}"
        problems += check_against_earlier_runs(out_dir, key, first)
        print(f"fleet {index}: audit sha256 {first.digest}")
        print(
            f"fleet {index}: loops "
            + " ".join(
                f"{loop.loop_s:.3f}s (ref {loop.loop_ref_s:.3f}s, kernel "
                f"x{loop.host_slowdown:.3f})"
                for loop in loops
            )
        )
        print(
            f"fleet {index}: counts "
            + " ".join(f"{name}={value}" for name, value in first.counts.items())
        )
        print(
            f"fleet {index}: revert_ratio={first.revert_ratio:.4f} "
            f"(reverted {first.reverted}, success {first.succeeded}) "
            f"ops_failed_ratio={first.ops_failed_ratio:.6f} "
            f"(failed {first.failed} of {first.attempted} attempted)"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json")
        with open(path, "w") as fp:
            json.dump(
                ledger.trace_document(
                    dict(facts, workload=workload.name, seed=seed,
                         digest=loop.digest)
                ),
                fp,
            )
        print(f"wrote {len(ledger.spans)} spans to {path}")
        metrics = layer_metrics(baseline, loop, ledger, setup_scale)
        attempted, failed = loop.attempted, loop.failed
    else:
        metrics = {
            "db_hours_per_s": (
                workload.db_hours * len(untraced_loops)
                / sum(loop.loop_ref_s for loop in untraced_loops),
                "dbh/s",
            ),
            "setup_s": (
                statistics.median(setup.reference_seconds() for setup in setups),
                "s",
            ),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        attempted = sum(loop.attempted for loop in untraced_loops)
        failed = sum(loop.failed for loop in untraced_loops)
    _emit(not problems, attempted, failed, metrics)
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process; a summary line per workload."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", args.out_dir,
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
    print()
    for name, result in results.items():
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name:<16} {verdict}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": entry
                    for name, result in results.items()
                    for metric, entry in result["metrics"].items()
                },
            }
        )
    )
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="reference seconds of tick loop a run measures: one "
        "sub-fleet per the workload's seconds_per_fleet, at least two",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a seconds-long fleet, traced and untraced, with the digest check",
    )
    parser.add_argument(
        "--out-dir", default=os.path.join(ROOT, ".perfbench"),
        help="where traces and the cross-run output records go",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 3
    from perfbench.fleet import environment_problems

    problems = environment_problems()
    if problems:
        print("refusing to run a non-default program: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    try:
        return run_one(workload, args.seed, args.seconds, bool(args.trace),
                       args.smoke, args.out_dir)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
