"""The benchmark's own tests: wrappers, checks and a smoke pass.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import ledger as ledger_mod  # noqa: E402
from perfbench.fleet import environment_problems  # noqa: E402
from perfbench.run import check_against_earlier_runs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


class Toy:
    """Nested calls with known durations for the self-time arithmetic."""

    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.03)

    def fails(self):
        raise ValueError("boom")

    def tune(self):
        self.inner()

    @classmethod
    def build(cls):
        return cls()


TOY_TARGETS = (
    ledger_mod.Target(__name__, "Toy", "outer", "workload"),
    ledger_mod.Target(__name__, "Toy", "inner", "engine"),
    ledger_mod.Target(__name__, "Toy", "fails", "engine"),
    ledger_mod.Target(__name__, "Toy", "build", "engine.ddl"),
)


def _originals(targets):
    return {
        (t.module, t.owner, t.attribute): ledger_mod._resolve(t)[1]
        for t in targets
    }


def test_install_restores_every_patched_attribute():
    before = _originals(ledger_mod.TARGETS)
    with ledger_mod.install(ledger_mod.Ledger()) as patched:
        assert len(patched) == len(ledger_mod.TARGETS)
        during = _originals(ledger_mod.TARGETS)
        assert all(during[key] is not before[key] for key in before)
    assert _originals(ledger_mod.TARGETS) == before
    assert all(_originals(ledger_mod.TARGETS)[k] is v for k, v in before.items())


def test_install_restores_after_an_error():
    before = _originals(TOY_TARGETS)
    with pytest.raises(RuntimeError):
        with ledger_mod.install(ledger_mod.Ledger(), TOY_TARGETS):
            raise RuntimeError("interrupted")
    assert all(_originals(TOY_TARGETS)[k] is v for k, v in before.items())


def test_self_time_excludes_nested_wrapped_calls():
    ledger = ledger_mod.Ledger()
    ledger.phase = ledger_mod.LOOP
    with ledger_mod.install(ledger, TOY_TARGETS):
        Toy().outer()
        with pytest.raises(ValueError):
            Toy().fails()
        assert isinstance(Toy.build(), Toy)
    assert ledger.self_s["workload"] == pytest.approx(0.02, abs=0.015)
    assert ledger.self_s["engine"] == pytest.approx(0.06, abs=0.02)
    assert ledger.calls["engine"] == 3  # two inner calls + the failing one
    assert ledger.calls["engine.ddl"] == 1
    (_n, _l, outer_start, outer_parent, _d) = ledger.spans[0]
    (_n, _l, inner_start, inner_parent, _d) = ledger.spans[1]
    assert (outer_parent, inner_parent) == (-1, 0)
    assert outer_start <= inner_start <= ledger.ends[1] <= ledger.ends[0]
    assert not ledger._stack


def test_calls_made_for_tuning_are_charged_to_tuning():
    targets = TOY_TARGETS + (
        ledger_mod.Target(__name__, "Toy", "tune", "recommender"),
    )
    ledger = ledger_mod.Ledger()
    ledger.phase = ledger_mod.LOOP
    with ledger_mod.install(ledger, targets):
        Toy().inner()
        Toy().tune()
    assert ledger.self_s["engine"] == pytest.approx(0.06, abs=0.02)
    assert ledger.tuning_self_s["engine"] == pytest.approx(0.03, abs=0.015)
    assert ledger.tuning_self_s["recommender"] == ledger.self_s["recommender"]
    assert ledger.tuning_self_s["workload"] == 0.0


def test_setup_phase_charges_only_setup_layers():
    targets = (
        ledger_mod.Target(__name__, "Toy", "inner", "engine.table",
                          setup_layer="setup.populate"),
        ledger_mod.Target(__name__, "Toy", "outer", "workload"),
    )
    ledger = ledger_mod.Ledger()
    with ledger_mod.install(ledger, targets):
        Toy().outer()
    assert ledger.self_s["workload"] == 0.0
    assert ledger.self_s["engine.table"] == 0.0
    assert ledger.self_s["setup.populate"] == pytest.approx(0.06, abs=0.02)


def test_environment_pins():
    assert environment_problems({}) == []
    assert environment_problems(
        {"REPRO_EXECUTOR": "auto", "REPRO_WHATIF": "batch"}
    ) == []
    assert environment_problems({"REPRO_EXECUTOR": "interp"})
    assert environment_problems({"REPRO_WHATIF": "scalar"})
    assert environment_problems({"REPRO_TEST_WORKERS": "2"})


def test_earlier_run_mismatch_is_a_failure(tmp_path):
    first = SimpleNamespace(digest="aa", counts={"ticks": 3, "statements_vector": 10})
    changed = SimpleNamespace(digest="bb", counts=dict(first.counts, ticks=4))
    assert check_against_earlier_runs(str(tmp_path), "k", first) == []
    assert check_against_earlier_runs(str(tmp_path), "k", first) == []
    assert len(check_against_earlier_runs(str(tmp_path), "k", changed)) == 2


def _run(args, cwd=ROOT, env=None):
    completed = subprocess.run(
        [sys.executable, RUN] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    return completed


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _digest(stdout):
    return next(
        line.split()[-1] for line in stdout.splitlines()
        if line.startswith("fleet 0: audit sha256 ")
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_and_untraced_agree(name, tmp_path):
    out = str(tmp_path)
    untraced = _run(["--workload", name, "--smoke", "--trace", "0",
                     "--out-dir", out])
    traced = _run(["--workload", name, "--smoke", "--trace", "1",
                   "--out-dir", out])
    first, second = _result(untraced), _result(traced)
    assert first["correct"] and second["correct"]
    assert _digest(untraced.stdout) == _digest(traced.stdout)
    assert set(first["metrics"]) == {"db_hours_per_s", "setup_s", "peak_rss_mb"}
    assert second["metrics"]["trace.coverage"]["value"] >= 0.95
    with open(os.path.join(out, f"trace-{name}-seed0.json")) as fp:
        document = json.load(fp)
    stamps = [e["ts"] for e in document["traceEvents"] if e["ph"] == "X"]
    assert stamps and stamps == sorted(stamps)


def test_refuses_a_non_default_program(tmp_path):
    env = dict(os.environ, REPRO_EXECUTOR="interp")
    completed = _run(["--workload", "fleet_wide", "--smoke",
                      "--out-dir", str(tmp_path)], env=env)
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_wide",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
