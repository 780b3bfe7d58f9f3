"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the seed alone, runs one pass through
the public entry points (``engine.monte_carlo``, ``engine.run_dynamic``,
``cli.main``), and checks that pass's outputs against oracles written here or
taken from ``crowdcast.analysis``. Calls go through module attributes, so a
tracer that rebinds those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np

from crowdcast import analysis, cli, engine, environments
from crowdcast.core import JointProfile

SIZES = ("full", "tiny")


class Checks:
    """Tally of output checks; keeps the first few failure messages."""

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(message)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _capture_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --- input recipes (the corpora of tests/conftest.py) ---------------------------


def make_bayes_game(game_seed: int) -> environments.BayesianCongestionGame | None:
    """2 players x 2 equiprobable types x 2 slots; None when no strict BNE exists."""
    rng = np.random.default_rng((88_000, game_seed))
    values = rng.choice(np.arange(-100, 100), size=16, replace=False)
    blocks = values.reshape(2, 2, 2, 2)
    utility = tuple(
        tuple(
            tuple(
                tuple(float(v) / 4.0 for v in sorted(blocks[i][theta][k], reverse=True))
                for k in range(2)
            )
            for theta in range(2)
        )
        for i in range(2)
    )
    game = environments.BayesianCongestionGame(
        d=2, type_probs=((0.5, 0.5), (0.5, 0.5)), utility=utility
    )
    if not analysis.enumerate_bne(game, strict=True):
        return None
    return game


def make_congestion_game(game_seed: int, n: int, d: int) -> environments.FiniteCongestionGame:
    """Distinct dyadic utilities falling in the occupant count, so no two cells tie."""
    rng = np.random.default_rng((77_000, game_seed))
    values = rng.choice(np.arange(-160, 160), size=n * d, replace=False)
    rows = []
    for k in range(d):
        chunk = sorted(values[k * n : (k + 1) * n], reverse=True)
        rows.append(tuple(float(v) / 8.0 for v in chunk))
    return environments.FiniteCongestionGame(n=n, d=d, utility=tuple(rows))


def game_ini(game: environments.FiniteCongestionGame) -> str:
    lines = ["[game]", f"players = {game.n}", f"slots = {game.d}"]
    lines += [f"slot_{k} = " + " ".join(repr(v) for v in game.utility[k]) for k in range(game.d)]
    return "\n".join(lines) + "\n"


def balanced_profile_count(n: int, d: int) -> int:
    """Profiles whose slot counts differ by at most one: the crowding game's equilibria."""
    q, r = divmod(n, d)
    return math.comb(d, r) * math.factorial(n) // (
        math.factorial(q + 1) ** r * math.factorial(q) ** (d - r)
    )


def is_balanced(actions: tuple[int, ...], d: int) -> bool:
    counts = Counter(actions)
    sizes = [counts.get(k, 0) for k in range(d)]
    return max(sizes) - min(sizes) <= 1


def potential_maximizer(game: environments.FiniteCongestionGame) -> tuple[int, ...]:
    """A profile of greatest cumulative-utility potential, found over slot-count vectors."""
    best_counts, best = None, -math.inf
    for counts in product(range(game.n + 1), repeat=game.d):
        if sum(counts) != game.n:
            continue
        pot = math.fsum(game.utility[k][m] for k in range(game.d) for m in range(counts[k]))
        if pot > best:
            best_counts, best = counts, pot
    return tuple(k for k in range(game.d) for _ in range(best_counts[k]))


# --- workloads -----------------------------------------------------------------


class Workload:
    """Work done by one pass, the bases of the throughput and per-layer metrics."""

    runs = 0  # Monte-Carlo replications
    stages = 0  # simulated stages asked for
    profiles = 0  # joint profiles judged by analyze
    simulations = 0  # simulation loops asked for
    csv_rows = 0  # CSV rows written, known after the first check


class BayesSearch(Workload):
    """Monte-Carlo replications of the candidate search on Bayesian games."""

    name = "bayes_search"
    GAMES_AND_RUNS = {"full": (4, 4), "tiny": (1, 2)}

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        n_games, self.reps = self.GAMES_AND_RUNS[size]
        self.games = []
        game_seed = seed * 1000
        while len(self.games) < n_games:
            game = make_bayes_game(game_seed)
            if game is not None:
                self.games.append(game)
            game_seed += 1
        self.configs = [
            engine.SimConfig(
                setting="finite-game",
                policy="partpred",
                policy_params={"r": 200, "update": "general"},
                env_params={"game": game},
                stages=(len(analysis.candidate_set(game)) + 1) * 200 + 10,
                seed=seed,
                log_losses=(),
            )
            for game in self.games
        ]
        self.runs = n_games * self.reps
        self.stages = sum(cfg.stages for cfg in self.configs) * self.reps
        self.simulations = self.runs
        self._truths = None

    def run_pass(self):
        return [engine.monte_carlo(cfg, n_runs=self.reps) for cfg in self.configs]

    def check(self, summaries, checks: Checks) -> dict[str, str]:
        if self._truths is None:
            self._truths = [analysis.bayes_self_fulfilling_candidates(g) for g in self.games]
        payload = []
        for g, (summary, truths) in enumerate(zip(summaries, self._truths)):
            checks.expect(len(summary.final_forecasts) == self.reps, f"game {g}: wrong run count")
            hits = 0
            for k, final in enumerate(summary.final_forecasts):
                ok = any(final.close_to(truth) for truth in truths)
                hits += ok
                checks.expect(ok, f"game {g} run {k}: final forecast is not self-fulfilling")
            checks.expect(
                summary.self_fulfilling_fraction == hits / self.reps,
                f"game {g}: self_fulfilling_fraction {summary.self_fulfilling_fraction} "
                f"disagrees with the oracle's {hits / self.reps}",
            )
            payload.append(
                {
                    "loss_means": summary.loss_means,
                    "loss_vars": summary.loss_vars,
                    "self_fulfilling_fraction": summary.self_fulfilling_fraction,
                    "finals": [
                        [[c.actions for c in f.support], list(f.probs)]
                        for f in summary.final_forecasts
                    ],
                }
            )
        return {"monte_carlo_summaries": sha256(json.dumps(payload, sort_keys=True))}


class EmpiricalCrowd(Workload):
    """One long run of the empirical-distribution policy on the crowding game.

    The game and the all-zero opening profile are fixed, so the trajectory is
    the same for every seed; the seed reaches the run seed and the sampled
    stages that are checked.
    """

    name = "empirical_crowd"
    STAGES = {"full": 5_000, "tiny": 300}
    SAMPLED_STAGES = 64
    INITIAL = (0, 0, 0, 0)

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        self.game = environments.crowding_game(4, 3)
        self.config = engine.SimConfig(
            setting="finite-game",
            policy="empirical",
            policy_params={"initial_profile": self.INITIAL},
            env_params={"game": self.game},
            stages=self.STAGES[size],
            seed=seed,
        )
        T = self.config.stages
        rng = np.random.default_rng((seed, 1))
        picks = rng.choice(T, size=min(self.SAMPLED_STAGES, T), replace=False)
        self.sampled = {0, T - 1} | {int(t) for t in picks}
        self.stages = T
        self.simulations = 1

    def run_pass(self):
        return engine.run_dynamic(self.config)

    def check(self, traj, checks: Checks) -> dict[str, str]:
        records = traj.records
        checks.expect(len(records) == self.stages, f"trajectory has {len(records)} stages")
        counts: Counter = Counter()
        for t, rec in enumerate(records):
            if t in self.sampled:
                if t == 0:
                    expected = {JointProfile(self.INITIAL): 1.0}
                else:
                    expected = {c: n / t for c, n in counts.items()}
                announced = dict(rec.a.items())
                checks.expect(
                    announced.keys() == expected.keys()
                    and all(abs(announced[c] - p) <= 1e-12 for c, p in expected.items()),
                    f"stage {t}: forecast is not the recount of the earlier outcomes",
                )
                pred = 1.0 - announced.get(rec.y, 0.0)
                checks.expect(
                    abs(rec.losses["pred"] - pred) <= 1e-12,
                    f"stage {t}: pred {rec.losses['pred']!r} is not the TV distance {pred!r}",
                )
                nash = 0.0 if is_balanced(rec.y.actions, self.game.d) else 1.0
                checks.expect(rec.losses["nash"] == nash, f"stage {t}: nash loss is not {nash}")
            counts[rec.y] += 1
        return {"trajectory.csv": sha256(cli.trajectory_csv(traj, self.config.losses()))}


class CliPoint(Workload):
    """``simulate`` on a noisy linear/Kalman config and a nonatomic/expodamp config."""

    name = "cli_point"
    STAGES = {"full": 7_500, "tiny": 200}
    NONATOMIC = {"phi": -0.8, "chi": -0.1, "delta": 0.2, "x": 0.5}

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        S = self.STAGES[size]
        rng = np.random.default_rng((seed, 2))
        initial = float(rng.uniform(0.0, 1.0))
        env = "\n".join(f"{k} = {v!r}" for k, v in self.NONATOMIC.items())
        self.files = {
            "kalman": (
                f"[run]\nsetting = linear\nstages = {S}\nseed = {seed}\n"
                "[policy]\nname = kalman\nbeta = 0.4\ngamma = 0.8\nvar_ex = 0.3\n"
                "var_ey = 0.5\nx0_mean = 0.6\nx0_var = 0.4\n"
                "[environment]\nbeta = 0.4\ngamma = 0.8\nx0_mean = 0.6\nx0_var = 0.4\n"
                "var_ex = 0.3\nvar_ey = 0.5\n"
            ),
            "expodamp": (
                f"[run]\nsetting = nonatomic\nstages = {S}\nseed = {seed}\n"
                f"[policy]\nname = expodamp\nalpha = 0.3\ninitial = {initial!r}\n"
                f"[environment]\n{env}\n"
            ),
        }
        self.workdir = workdir
        for label, text in self.files.items():
            (workdir / f"{label}.ini").write_text(text, encoding="utf-8")
        self.stages = S * len(self.files)
        self.simulations = len(self.files)
        self._fixed_point = None

    def _paths(self, label: str) -> tuple[Path, Path, Path]:
        w = self.workdir
        return w / f"{label}.ini", w / f"{label}.csv", w / f"{label}.plot.csv"

    def run_pass(self):
        out = {}
        for label in self.files:
            ini, csv, plot = self._paths(label)
            out[label] = _capture_main(
                ["simulate", "--config", ini.name, "--out", csv.name, "--emit-plot-data", plot.name]
            )
        return out

    def check(self, outputs, checks: Checks) -> dict[str, str]:
        if self._fixed_point is None:
            pop = environments.NonatomicPopulation(**self.NONATOMIC)
            self._fixed_point = analysis.fixed_point_solve(
                lambda a: environments.nonatomic_response_closed(pop, a), 0.0, 1.0
            )
        digests = {}
        rows = 0
        stages = self.stages // len(self.files)
        for label, (code, stdout) in outputs.items():
            _, csv, plot = self._paths(label)
            checks.expect(code == 0, f"{label}: simulate exited {code}")
            traj = csv.read_bytes() if csv.exists() else b""
            plot_data = plot.read_bytes() if plot.exists() else b""
            lines = traj.decode("utf-8").splitlines()
            checks.expect(len(lines) == stages + 1, f"{label}: {len(lines)} CSV lines, expected {stages + 1}")
            rows += max(len(lines) - 1, 0) + max(plot_data.count(b"\n") - 1, 0)
            final = lines[-1].split(",")[1] if len(lines) > 1 else "nan"
            checks.expect(
                f"final_forecast={final}\n" in stdout,
                f"{label}: printed final forecast disagrees with the CSV's last row",
            )
            if label == "expodamp":
                checks.expect(
                    abs(float(final) - self._fixed_point) <= 1e-9,
                    f"expodamp: final forecast {final} is not the fixed point {self._fixed_point!r}",
                )
            digests[csv.name] = sha256(traj)
            digests[plot.name] = sha256(plot_data)
            digests[f"{label}.stdout"] = sha256(stdout)
        self.csv_rows = rows
        return digests


_NASH_LINE = re.compile(r"^nash equilibria \((\d+)\): (.*)$", re.MULTILINE)
_PROFILE = re.compile(r"\(([0-9, ]+)\)")


class OracleReport(Workload):
    """``analyze`` on the crowding game and a random congestion game of equal size."""

    name = "oracle_report"
    PLAYERS = {"full": 8, "tiny": 5}
    SLOTS = 3

    def __init__(self, seed: int, workdir: Path, size: str) -> None:
        n = self.PLAYERS[size]
        self.games = {
            "crowd": environments.crowding_game(n, self.SLOTS),
            "random": make_congestion_game(seed, n, self.SLOTS),
        }
        for label, game in self.games.items():
            (workdir / f"{label}.ini").write_text(game_ini(game), encoding="utf-8")
        self.profiles = len(self.games) * self.SLOTS**n
        self._maximizer = None

    def run_pass(self):
        return {label: _capture_main(["analyze", "--config", f"{label}.ini"]) for label in self.games}

    def check(self, outputs, checks: Checks) -> dict[str, str]:
        if self._maximizer is None:
            self._maximizer = potential_maximizer(self.games["random"])
        digests = {}
        for label, (code, stdout) in outputs.items():
            game = self.games[label]
            checks.expect(code == 0, f"{label}: analyze exited {code}")
            checks.expect("correspondence: OK" in stdout, f"{label}: correspondence not OK")
            match = _NASH_LINE.search(stdout)
            listed = set()
            if match:
                listed = {tuple(int(v) for v in p.split(",")) for p in _PROFILE.findall(match.group(2))}
            checks.expect(
                match is not None and int(match.group(1)) == len(listed),
                f"{label}: equilibrium count does not match the listed profiles",
            )
            if label == "crowd":
                expected = balanced_profile_count(game.n, game.d)
                checks.expect(
                    len(listed) == expected and all(is_balanced(p, game.d) for p in listed),
                    f"crowd: {len(listed)} equilibria listed, expected {expected} balanced profiles",
                )
            else:
                checks.expect(
                    self._maximizer in listed,
                    f"random: potential maximizer {self._maximizer} is not a listed equilibrium",
                )
            digests[f"{label}.stdout"] = sha256(stdout)
        return digests


WORKLOADS = {cls.name: cls for cls in (BayesSearch, EmpiricalCrowd, CliPoint, OracleReport)}


def build(name: str, seed: int, workdir: Path, size: str = "full"):
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[name](seed, workdir, size)
