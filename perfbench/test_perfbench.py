"""Tests of the benchmark itself, on tiny inputs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from crowdcast import cli, core, engine, environments
from perfbench import run, workloads
from perfbench.tracer import Tracer

# Every metric the benchmark documents, by the run kind that reports it.
END_TO_END = {"setup_s", "wall_s", "peak_rss_mb", "fail_fraction"}
END_TO_END_BY_WORKLOAD = {
    "bayes_search": {"stages_per_s", "runs_per_s"},
    "empirical_crowd": {"stages_per_s"},
    "cli_point": {"stages_per_s"},
    "oracle_report": {"profiles_per_s"},
}
PER_LAYER = {
    "engine.self_us_per_stage", "engine.sf_check_ms_per_run", "engine.policy_summary_s",
    "engine.run_dynamic_calls", "policies.us_per_stage", "policies.calls_per_stage",
    "environments.us_per_stage", "environments.responses_per_stage",
    "environments.best_response_calls", "core.us_per_stage", "core.dists_built_per_stage",
    "analysis.us_per_stage", "analysis.candidate_set_s", "analysis.report_s",
    "cli.csv_rows_per_s", "cli.self_s", "bench.trace_overhead_frac",
}


def _reported(lines: list[str]) -> dict[str, tuple[str, str]]:
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            out[name] = (value, unit)
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    result, lines = run.run_benchmark(
        workload, seed=3, seconds=0.0, trace=trace, size="tiny", setup_samples=2
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    reported = _reported(lines)
    expected = PER_LAYER if trace else END_TO_END | END_TO_END_BY_WORKLOAD[workload]
    assert set(reported) == expected
    assert all(unit for _, unit in reported.values())
    declared = run.declared_metrics(trace)
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name] == reported[name][1]
        assert isinstance(entry["value"], float)
    info = json.loads(lines[0].removeprefix("manifest "))
    for key in ("git_sha", "python", "numpy", "nproc", "cpu_model", "seed", "samples"):
        assert key in info
    assert json.loads(lines[1].removeprefix("digests "))


def test_traced_counts_match_the_code():
    _, lines = run.run_benchmark("cli_point", seed=1, seconds=0.0, trace=True, size="tiny")
    reported = _reported(lines)
    # simulate runs the loop a second time in policy_summary
    assert float(reported["policies.calls_per_stage"][0]) == pytest.approx(2.0, abs=0.02)
    assert float(reported["engine.run_dynamic_calls"][0]) == 2.0
    _, lines = run.run_benchmark("empirical_crowd", seed=1, seconds=0.0, trace=True, size="tiny")
    reported = _reported(lines)
    assert float(reported["environments.responses_per_stage"][0]) == pytest.approx(4 / 3, abs=0.02)


def test_corrupted_csv_is_counted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.build("cli_point", 2, tmp_path, "tiny")
    outputs = wl.run_pass()
    checks = workloads.Checks()
    wl.check(outputs, checks)
    assert checks.attempted > 0 and checks.failed == 0
    csv = tmp_path / "kalman.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    wl.check(outputs, checks)
    assert checks.failed >= 1


def test_corrupted_loss_is_counted(tmp_path):
    wl = workloads.build("empirical_crowd", 2, tmp_path, "tiny")
    traj = wl.run_pass()
    traj.records[0].losses["pred"] += 0.5
    checks = workloads.Checks()
    wl.check(traj, checks)
    assert checks.failed == 1
    assert "pred" in checks.messages[0]


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    def always_wrong(self, outputs, checks):
        checks.expect(False, "corrupted on purpose")
        return {}

    monkeypatch.setattr(workloads.CliPoint, "check", always_wrong)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    argv = ["--workload", "cli_point", "--seed", "1", "--seconds", "0", "--size", "tiny"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_untraced_run_after_traced_run_sees_originals(tmp_path, monkeypatch):
    originals = {
        (engine, "run_dynamic"): engine.run_dynamic,
        (engine, "play_profile"): engine.play_profile,
        (environments, "play_profile"): environments.play_profile,
        (cli, "main"): cli.main,
        (core.DiscreteDistribution, "__post_init__"): vars(core.DiscreteDistribution)["__post_init__"],
    }
    run.run_benchmark("empirical_crowd", seed=1, seconds=0.0, trace=True, size="tiny")
    for (ns, attr), fn in originals.items():
        assert vars(ns)[attr] is fn, attr

    monkeypatch.chdir(tmp_path)
    wl = workloads.build("cli_point", 1, tmp_path, "tiny")
    tracer = Tracer()
    tracer.install()
    assert engine.run_dynamic is not originals[(engine, "run_dynamic")]
    assert tracer.uninstall() == []
    wl.run_pass()
    assert tracer.summarize().n_spans == 0


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.delattr(engine, "policy_summary")
    monkeypatch.delattr(cli, "policy_summary")
    result, lines = run.run_benchmark("bayes_search", seed=1, seconds=0.0, trace=True, size="tiny")
    assert result["correct"]
    assert "metric engine.policy_summary_s absent s" in lines
    assert result["metrics"]["engine.policy_summary_s"]["value"] == 0.0
    info = json.loads(lines[0].removeprefix("manifest "))
    assert info["absent_metrics"] == ["engine.policy_summary_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
