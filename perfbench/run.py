"""Benchmark of the crowdcast forecast/response loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bayes_search --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run times untraced passes and reports the end-to-end
metrics. With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. Every pass's outputs are checked; the last line
of standard output is one JSON object, and the exit code is 1 when a check
failed. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import calibrate
from perfbench.tracer import DIST_BUILD, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR_PARENT = ROOT / ".bench_build" / "perfbench"

WORKLOAD_NAMES = ("bayes_search", "empirical_crowd", "cli_point", "oracle_report")
MIN_PASSES = 3  # timed untraced passes per run, and traced passes per traced run
SETUP_SAMPLES = 9  # set-ups timed per untraced run: this process plus fresh ones
# Time outside every span, as a share of a traced pass, above which the trace
# is counted as failing to account for the pass.
TRACE_COVERAGE_TOL = 0.05

# Per-layer metrics derived from hooked functions; when none of a metric's
# functions exists any more, the metric is reported as absent (value 0).
METRIC_HOOKS = {
    "engine.sf_check_ms_per_run": ("engine.exact_response",),
    "engine.policy_summary_s": ("engine.policy_summary",),
    "engine.run_dynamic_calls": ("engine.run_dynamic", "engine.policy_summary"),
    "environments.responses_per_stage": (
        "environments.play_profile",
        "environments.bayes_play_profile",
    ),
    "environments.best_response_calls": (
        "environments.best_response",
        "environments.bayes_best_response",
    ),
    "core.dists_built_per_stage": (DIST_BUILD,),
    "analysis.us_per_stage": ("analysis.is_nash", "analysis.is_bne"),
    "analysis.candidate_set_s": ("analysis.candidate_set",),
    "analysis.report_s": ("analysis.prediction_equilibrium_report",),
    "cli.csv_rows_per_s": ("cli.trajectory_csv", "cli.plot_data_csv"),
}


class SetupError(Exception):
    """No result can be produced: the program or a declared metric is missing."""


def import_program():
    """Load crowdcast from this checkout's src/ (never an installed copy)."""
    if not (SRC / "crowdcast" / "__init__.py").is_file():
        raise SetupError(f"no crowdcast sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crowdcast
    from perfbench import workloads

    if Path(crowdcast.__file__).resolve().parent != (SRC / "crowdcast").resolve():
        raise SetupError(f"crowdcast imported from {crowdcast.__file__}, not from {SRC}")
    return workloads


def set_up(workload: str, seed: int, size: str):
    """Import the program, build the inputs and their files.

    Returns them with the time taken and the reference loop time measured
    right after.
    """
    start = perf_counter()
    workloads = import_program()
    WORKDIR_PARENT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR_PARENT))
    try:
        wl = workloads.build(workload, seed, workdir, size)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    elapsed = perf_counter() - start
    return workloads, wl, workdir, (elapsed, calibrate.loop_time())


def probe_setup(workload: str, seed: int, size: str) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter, with the reference loop time after it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--size", size],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    elapsed, loop = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(loop)


# --- manifest ---------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = sha256()
    for path in sorted((SRC / "crowdcast").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(workload: str, seed: int, seconds: float, trace: bool, samples: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "samples": samples,
    }


# --- measurement --------------------------------------------------------------


class Recorder:
    """Checks one pass's outputs and requires its digests to match the first pass's."""

    def __init__(self, wl, checks) -> None:
        self.wl = wl
        self.checks = checks
        self.digests: dict[str, str] | None = None

    def check(self, result, label: str) -> None:
        digests = self.wl.check(result, self.checks)
        if self.digests is None:
            self.digests = digests
        else:
            self.checks.expect(
                digests == self.digests, f"{label}: output digests differ from the first pass"
            )


def timed(run) -> tuple[float, float, object]:
    """Run once; return its wall time, that time at reference speed, and the result.

    The reference loop is timed right before and right after the run.
    """
    gc.collect()
    before = calibrate.loop_time()
    start = perf_counter()
    result = run()
    raw = perf_counter() - start
    after = calibrate.loop_time()
    return raw, calibrate.at_reference(raw, (before + after) / 2), result


def measure(wl, seconds: float, trace: bool, checks) -> dict:
    """Warm up, then time passes until ``seconds`` of measured time have passed.

    ``untraced`` and ``traced`` hold pass times at reference speed; ``raw``
    holds the untraced pass wall times as measured.
    """
    recorder = Recorder(wl, checks)
    _, _, result = timed(wl.run_pass)
    recorder.check(result, "warm-up pass")
    result = None

    tracer = None
    if trace:
        tracer = Tracer()
        before = tracer.snapshot()
    raw: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    summaries = []
    measured = 0.0
    while True:
        dt, scaled, result = timed(wl.run_pass)
        raw.append(dt)
        untraced.append(scaled)
        measured += dt
        recorder.check(result, f"pass {len(untraced)}")
        result = None
        if tracer is not None:
            tracer.install()
            try:
                dt, scaled, result = timed(wl.run_pass)
            finally:
                stuck = tracer.uninstall()
            checks.expect(not stuck, f"tracer left patched attributes: {stuck}")
            summary = tracer.summarize()
            own = sum(summary.layer_self.values())
            checks.expect(
                abs(dt - own) <= TRACE_COVERAGE_TOL * dt,
                f"traced pass: layer self times sum to {own:.6f}s of {dt:.6f}s",
            )
            traced.append(scaled)
            summaries.append(summary)
            measured += dt
            recorder.check(result, f"traced pass {len(traced)}")
            result = None
        if measured >= seconds and len(untraced) >= MIN_PASSES and (
            tracer is None or len(traced) >= MIN_PASSES
        ):
            break
    if tracer is not None:
        after = tracer.snapshot()
        changed = sorted(f"{ns}.{attr}" for ns, attr in before.keys() | after.keys()
                         if before.get((ns, attr)) is not after.get((ns, attr)))
        checks.expect(not changed, f"attributes differ after tracing: {changed[:5]}")
    return {
        "raw": raw,
        "untraced": untraced,
        "traced": traced,
        "summaries": summaries,
        "hooked": tracer.hooked if tracer is not None else frozenset(),
        "digests": recorder.digests or {},
    }


# --- metrics --------------------------------------------------------------------


def _per(x: float, base: float) -> float:
    return x / base if base else 0.0


def end_to_end_metrics(wl, m: dict, setup_samples: list[tuple[float, float]], checks) -> dict:
    wall = statistics.median(m["untraced"])
    out = {
        "setup_s": (statistics.median(calibrate.at_reference(*s) for s in setup_samples), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_fraction": (_per(checks.failed, checks.attempted), "ratio"),
    }
    if wl.stages:
        out["stages_per_s"] = (wl.stages / wall, "1/s")
    if wl.runs:
        out["runs_per_s"] = (wl.runs / wall, "1/s")
    if wl.profiles:
        out["profiles_per_s"] = (wl.profiles / wall, "1/s")
    return out


def per_layer_metrics(wl, m: dict) -> tuple[dict, list[str]]:
    summaries = m["summaries"]
    P = len(summaries)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    entries: dict[str, int] = {}
    by_parent: dict[tuple[str, str], float] = {}
    for s in summaries:
        for src, dst in ((s.calls, calls), (s.incl, incl), (s.layer_self, layer_self),
                         (s.entries, entries), (s.incl_by_parent_layer, by_parent)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
    stages, runs, sims = wl.stages * P, wl.runs * P, wl.simulations * P
    serialize = incl.get("cli.trajectory_csv", 0.0) + incl.get("cli.plot_data_csv", 0.0)
    out = {
        "engine.self_us_per_stage": (_per(layer_self.get("engine", 0.0), stages) * 1e6, "us"),
        "engine.sf_check_ms_per_run": (_per(incl.get("engine.exact_response", 0.0), runs) * 1e3, "ms"),
        "engine.policy_summary_s": (_per(incl.get("engine.policy_summary", 0.0), P), "s"),
        "engine.run_dynamic_calls": (
            _per(calls.get("engine.run_dynamic", 0) + calls.get("engine.policy_summary", 0), sims),
            "count",
        ),
        "policies.us_per_stage": (_per(layer_self.get("policies", 0.0), stages) * 1e6, "us"),
        "policies.calls_per_stage": (_per(entries.get("policies", 0), stages), "count"),
        "environments.us_per_stage": (_per(layer_self.get("environments", 0.0), stages) * 1e6, "us"),
        "environments.responses_per_stage": (
            _per(calls.get("environments.play_profile", 0)
                 + calls.get("environments.bayes_play_profile", 0), stages),
            "count",
        ),
        "environments.best_response_calls": (
            _per(calls.get("environments.best_response", 0)
                 + calls.get("environments.bayes_best_response", 0), P),
            "count",
        ),
        "core.us_per_stage": (_per(layer_self.get("core", 0.0), stages) * 1e6, "us"),
        "core.dists_built_per_stage": (
            _per(calls.get(DIST_BUILD, 0), stages), "count"
        ),
        "analysis.us_per_stage": (
            _per(by_parent.get(("analysis.is_nash", "engine"), 0.0)
                 + by_parent.get(("analysis.is_bne", "engine"), 0.0), stages) * 1e6,
            "us",
        ),
        "analysis.candidate_set_s": (_per(incl.get("analysis.candidate_set", 0.0), P), "s"),
        "analysis.report_s": (_per(incl.get("analysis.prediction_equilibrium_report", 0.0), P), "s"),
        "cli.csv_rows_per_s": (_per(wl.csv_rows * P, serialize), "1/s"),
        "cli.self_s": (_per(layer_self.get("cli", 0.0), P), "s"),
        "bench.trace_overhead_frac": (
            statistics.median(m["traced"]) / statistics.median(m["untraced"]) - 1.0, "ratio"
        ),
    }
    absent = sorted(
        name for name, hooks in METRIC_HOOKS.items() if not any(h in m["hooked"] for h in hooks)
    )
    return out, absent


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units the JSON result line carries, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# --- entry point ------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", setup_samples: int | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines before it."""
    workloads, wl, workdir, setup_time = set_up(workload, seed, size)
    cwd = os.getcwd()
    try:
        setup = [setup_time]
        if not trace:
            n = SETUP_SAMPLES if setup_samples is None else setup_samples
            setup += [probe_setup(workload, seed, size) for _ in range(n - 1)]
        checks = workloads.Checks()
        os.chdir(workdir)
        try:
            m = measure(wl, seconds, trace, checks)
        finally:
            os.chdir(cwd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR_PARENT.rmdir()
            WORKDIR_PARENT.parent.rmdir()
        except OSError:
            pass

    absent: list[str] = []
    if trace:
        metrics, absent = per_layer_metrics(wl, m)
    else:
        metrics = end_to_end_metrics(wl, m, setup, checks)
    samples = {"setup_s_and_loop_s": setup, "pass_s": m["untraced"], "raw_pass_s": m["raw"],
               "traced_pass_s": m["traced"]}
    info = manifest(workload, seed, seconds, trace, samples)
    info["absent_metrics"] = absent
    lines = ["manifest " + json.dumps(info, sort_keys=True),
             "digests " + json.dumps(m["digests"], sort_keys=True)]
    for name, (value, unit) in metrics.items():
        shown = "absent" if name in absent else repr(value)
        lines.append(f"metric {name} {shown} {unit}")
    lines += [f"failed check: {msg}" for msg in checks.messages]

    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SetupError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()},
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", choices=("full", "tiny"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            _, _, workdir, (elapsed, loop) = set_up(args.workload, args.seed, args.size)
            shutil.rmtree(workdir, ignore_errors=True)
            print(repr(elapsed), repr(loop))
            return 0
        result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and its reference loops, so both see the same neighbours.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
