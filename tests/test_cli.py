"""CLI tests (direct invocation of the argparse entry points)."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "data"

#: The fixed invocation behind the telemetry golden snapshot.  Small on
#: purpose: one database, one simulated day, pinned seed.
TELEMETRY_GOLDEN_ARGS = [
    "telemetry", "--dbs", "1", "--days", "1", "--seed", "3",
    "--format", "json",
]


#: Metrics whose values are host-clock readings the sharded runtime
#: publishes (shard busy time, tick skew and wall time, phase timings,
#: attribution coverage).  Their series and counts are deterministic;
#: their values are not.
WALL_METRICS = frozenset(
    {
        "fleet_shard_busy",
        "fleet_tick_skew_seconds",
        "fleet_tick_wall_seconds",
        "fleet_phase_seconds",
        "fleet_tick_attribution_ratio",
    }
)
WALL_VALUE_FIELDS = ("value", "sum", "bucket_counts", "overflow", "p50",
                     "p95", "p99")


def telemetry_payload(capsys, monkeypatch) -> dict:
    """Run ``repro telemetry --format json`` and parse its payload."""
    # Pin the executor: the vectorized path profiles different hot-path
    # names, and the golden pins the interpreter's.
    monkeypatch.setenv("REPRO_EXECUTOR", "interp")
    assert main(TELEMETRY_GOLDEN_ARGS) == 0
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def normalize_telemetry(payload: dict) -> dict:
    """Strip the host-clock values, and nothing else: hot-path wall
    time, the values of :data:`WALL_METRICS`, and the values of history
    series flagged ``wall`` (their tick spans and counts stay)."""
    for row in payload.get("hot_paths", []):
        row.pop("real_ms", None)
    for metric in payload["metrics"]:
        if metric["name"] in WALL_METRICS:
            for field in WALL_VALUE_FIELDS:
                metric.pop(field, None)
    for series in payload["history"]["series"]:
        if series["wall"]:
            series.pop("latest")
            for tier in series["tiers"]:
                tier["buckets"] = [
                    [start, end, count]
                    for start, end, _min, _max, _sum, count, _last
                    in tier["buckets"]
                ]
    return payload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig6_args(self):
        args = build_parser().parse_args(
            ["fig6", "--tier", "premium", "--dbs", "2", "--seed", "7"]
        )
        assert args.tier == "premium"
        assert args.dbs == 2
        assert args.seed == 7

    def test_ops_defaults(self):
        args = build_parser().parse_args(["ops"])
        assert args.days == 4
        assert args.tier == "standard"

    def test_telemetry_args(self):
        args = build_parser().parse_args(
            ["telemetry", "--days", "2", "--top", "3", "--format", "prom"]
        )
        assert args.days == 2
        assert args.top == 3
        assert args.format == "prom"
        assert build_parser().parse_args(["telemetry"]).format == "dashboard"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "--format", "xml"])

    def test_slo_args(self):
        args = build_parser().parse_args(
            ["slo", "--days", "2", "--format", "json", "--fail-on-alert"]
        )
        assert args.days == 2
        assert args.format == "json"
        assert args.fail_on_alert
        assert build_parser().parse_args(["slo"]).format == "report"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["slo", "--format", "xml"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--batch-ticks", "0"],
            ["run", "--workers", "-2"],
            ["run", "--dbs", "0"],
            ["run", "--days", "0"],
            ["run", "--backend", "thread"],
            ["profile", "--ticks", "0"],
            ["profile", "--batch-ticks", "-1"],
            ["slo", "--workers", "two"],
            ["ops", "--days", "-1"],
            ["run", "--max-statements", "-5"],
            ["profile", "--max-statements", "0"],
            ["profile", "--top", "-1"],
            ["telemetry", "--top", "-3"],
            ["explain", "db-standard-0", "x"],
            ["explain", "db-standard-0", "0"],
        ],
    )
    def test_bad_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        # The offending option, or explain's positional rec_id.
        argument = next((t for t in argv if t.startswith("--")), "rec_id")
        assert f"argument {argument}" in capsys.readouterr().err

    def test_count_bounds_are_inclusive(self):
        args = build_parser().parse_args(
            ["run", "--workers", "0", "--batch-ticks", "1", "--dbs", "1",
             "--days", "1"]
        )
        assert (args.workers, args.batch_ticks, args.dbs, args.days) == (
            0, 1, 1, 1
        )

    def test_explain_rec_id_is_int_or_latest(self):
        parse = build_parser().parse_args
        assert parse(["explain", "db-standard-0", "7"]).rec_id == 7
        assert parse(["explain", "db-standard-0", "latest"]).rec_id == "latest"
        assert parse(["explain", "db-standard-0"]).rec_id is None


class TestCommands:
    def test_ops_runs(self, capsys):
        assert main(["ops", "--dbs", "1", "--days", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "running the closed loop" in out
        assert "create recommendations" in out

    def test_telemetry_dashboard_runs(self, capsys):
        assert main(
            ["telemetry", "--dbs", "1", "--days", "1", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet telemetry" in out
        assert "engine hot paths" in out

    def test_telemetry_json_runs(self, capsys):
        import json

        assert main(
            ["telemetry", "--dbs", "1", "--days", "1", "--seed", "3",
             "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["schema"] == "repro-telemetry-v1"
        assert payload["metrics"]
        assert "spans" in payload and "hot_paths" in payload

    def test_explain_live_run(self, capsys):
        # The live path runs the closed loop, then reconstructs one
        # decision from the merged audit stream, spans and journal.
        assert main(
            ["explain", "--dbs", "1", "--days", "1", "--seed", "3",
             "db-standard-0", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "running the closed loop" in out
        assert "decision provenance: db-standard-0 / recommendation 1" in out
        assert "[journal] -> implementing" in out
        assert "[span] implement" in out
        assert "validation_completed" in out

    @pytest.mark.slow
    def test_fig6_runs(self, capsys):
        assert main(["fig6", "--dbs", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "winner=" in out


class TestTelemetryGolden:
    """``repro telemetry --format json`` is byte-stable under a pinned
    seed: same simulator, same history, same payload.

    The golden pins everything except host-clock values (see
    :func:`normalize_telemetry`).  When a simulator change legitimately
    shifts the payload, regenerate with ``PYTHONPATH=src python
    tests/test_cli.py`` and review the diff like any other golden update.
    """

    GOLDEN = GOLDEN_DIR / "telemetry_golden.json"

    def test_matches_golden_snapshot(self, capsys, monkeypatch):
        payload = normalize_telemetry(telemetry_payload(capsys, monkeypatch))
        golden = json.loads(self.GOLDEN.read_text())
        assert payload["schema"] == golden["schema"]
        assert payload == golden

    def test_history_section_is_wall_free(self, capsys, monkeypatch):
        # Wall values appear only in series SAMPLE_CATALOG flags
        # wall=True: two runs of one seed agree on every other series,
        # and each exported flag is the catalog's.
        from repro.observability.timeseries import SAMPLE_CATALOG

        first = telemetry_payload(capsys, monkeypatch)["history"]
        second = telemetry_payload(capsys, monkeypatch)["history"]
        assert first["schema"] == "repro-history-v1"
        assert first["last_tick"] >= 0
        assert [s["name"] for s in first["series"]] == [
            s["name"] for s in second["series"]
        ]
        for series, again in zip(first["series"], second["series"]):
            assert series["wall"] == SAMPLE_CATALOG[series["name"]].wall
            if not series["wall"]:
                assert series == again


class TestSloCommand:
    def test_replay_reports_from_dumped_history(self, capsys, tmp_path):
        from repro.observability.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        for tick in range(300):
            store.observe("revert_rate", tick, 0.9)
            store.observe("validation_failure_rate", tick, 0.1)
            store.observe("plan_cache_hit_rate", tick, 0.5)
            store.observe("time_to_implement_minutes", tick, 10.0)
        history = tmp_path / "history.jsonl"
        store.dump(str(history))

        # Alerting alone does not change the exit code without
        # --fail-on-alert; the report is informational.
        assert main(["slo", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "slo_revert_rate" in out
        assert "ALERTING" in out
        assert "burn-rate alerts: slo_revert_rate" in out

    def test_fail_on_alert_exits_nonzero(self, capsys, tmp_path):
        from repro.observability.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        for tick in range(300):
            store.observe("revert_rate", tick, 0.9)
        history = tmp_path / "history.jsonl"
        store.dump(str(history))
        assert main(
            ["slo", "--history", str(history), "--fail-on-alert"]
        ) == 1
        assert "ALERTING" in capsys.readouterr().out

    def test_json_format_and_status_dump(self, capsys, tmp_path):
        from repro.observability.slo import SLO_CATALOG, replay_statuses
        from repro.observability.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        for tick in range(64):
            store.observe("revert_rate", tick, 0.0)
        history = tmp_path / "history.jsonl"
        store.dump(str(history))
        slo_out = tmp_path / "slo.jsonl"
        assert main(
            ["slo", "--history", str(history), "--format", "json",
             "--slo-out", str(slo_out)]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):out.rindex("]") + 1])
        assert {row["name"] for row in payload} == set(SLO_CATALOG)
        statuses = replay_statuses(slo_out.read_text())
        assert [s.name for s in statuses] == sorted(SLO_CATALOG)


def _regenerate_golden() -> None:  # pragma: no cover - manual tool
    """Regenerate the telemetry golden (run from the repo root)."""
    import io
    import os
    from contextlib import redirect_stdout

    os.environ["REPRO_EXECUTOR"] = "interp"
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(TELEMETRY_GOLDEN_ARGS) == 0
    out = buffer.getvalue()
    payload = normalize_telemetry(json.loads(out[out.index("{"):]))
    GOLDEN_DIR.mkdir(exist_ok=True)
    target = GOLDEN_DIR / "telemetry_golden.json"
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate_golden()
