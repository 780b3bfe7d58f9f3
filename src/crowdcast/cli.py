"""Command-line harness: simulate, evaluate, analyze, monte-carlo.

Config files are flat key-value INI sections (documented in the README); an
unknown key is an error, never silently ignored. All files are UTF-8 with
'\\n' line endings. Set CROWDCAST_LOG=DEBUG (or INFO/WARNING) for diagnostics.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import logging
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from . import analysis
from .core import (
    CrowdcastError,
    DiscreteDistribution,
    EmptyInputError,
    InvalidConfigError,
    ParseError,
    _reject_unknown_keys,
    as_int,
    read_params,
    trajectory_mse,
)
from .engine import (
    SimConfig,
    Trajectory,
    _RecordedEnv,
    build_game,
    monte_carlo,
    policy_keys,
    policy_summary,
    replay,
    run_dynamic,
    setting_env,
)

logger = logging.getLogger("crowdcast")

_RUN_KEYS = {"setting", "stages", "seed", "covariate", "losses"}


# --- day-matrix CSV ------------------------------------------------------------


@dataclass(frozen=True)
class DayMatrix:
    """Rectangular day x sample-time table of nonnegative occupancy values."""

    slot_labels: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    @property
    def n_days(self) -> int:
        return len(self.rows)


def parse_day_csv(path: str) -> DayMatrix:
    """Read a day matrix: header of slot labels, one day per row, no gaps."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyInputError(f"{path}: empty file")
    labels = tuple(cell.strip() for cell in lines[0].split(","))
    if any(label == "" for label in labels):
        raise ParseError(f"{path}:1: empty column label")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(labels):
            raise ParseError(
                f"{path}:{lineno}: row has {len(cells)} cells, header has {len(labels)}"
            )
        values = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: cell {col + 1} is not a number: {cell!r}")
            if not math.isfinite(value):
                raise ParseError(f"{path}:{lineno}: cell {col + 1} is not finite: {cell!r}")
            if value < 0.0:
                raise ParseError(f"{path}:{lineno}: cell {col + 1} is negative: {cell!r}")
            values.append(value)
        rows.append(tuple(values))
    if not rows:
        raise EmptyInputError(f"{path}: header but no day rows")
    return DayMatrix(slot_labels=labels, rows=tuple(rows))


def serialize_day_csv(matrix: DayMatrix) -> str:
    """Canonical form: comma-separated, shortest round-trip floats, \\n endings."""
    lines = [",".join(matrix.slot_labels)]
    for row in matrix.rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# --- INI config parsing ---------------------------------------------------------


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise InvalidConfigError(f"{path}: {exc}")
    return parser


@contextlib.contextmanager
def _in_file(path: str) -> Iterator[None]:
    """Raise each CrowdcastError of the block again with path in front."""
    try:
        yield
    except CrowdcastError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_section(
    parser: configparser.ConfigParser, section: str, spec: Mapping, extra: Sequence[str] = ()
) -> dict[str, object]:
    """Convert the keys of [section] that spec names; a key outside spec and extra is an error."""
    _reject_unknown_keys(section, parser[section], {*spec, *extra})
    return read_params(parser[section], spec, section)


def load_sim_config(path: str, seed_override: int | None = None) -> SimConfig:
    """Parse a [run]/[policy]/[environment] simulation config file."""
    if seed_override is not None and seed_override < 0:
        raise InvalidConfigError(f"--seed: expected a nonnegative integer, got {seed_override}")
    parser = _read_ini(path)
    with _in_file(path):
        for section in ("run", "policy", "environment"):
            if not parser.has_section(section):
                raise InvalidConfigError(f"missing [{section}] section")
        run = parser["run"]
        _reject_unknown_keys("run", run, _RUN_KEYS)
        setting, name = run.get("setting"), parser["policy"].get("name")
        env_cls = setting_env(setting)
        keys = policy_keys(env_cls, name, "policy.name", f"setting {setting!r}")
        counts = read_params(run, {"stages": as_int, "seed": as_int}, "run", ("stages", "seed"))
        policy_params = _read_section(parser, "policy", keys, extra=("name",))
        if setting == "finite-game":
            env_params: dict[str, object] = {"game": build_game(parser["environment"])}
        else:
            env_params = _read_section(parser, "environment", env_cls.PARAMS)
    losses = None
    if run.get("losses") is not None:
        losses = tuple(run.get("losses").replace(",", " ").split())

    return SimConfig(
        setting=setting,
        policy=name,
        policy_params=policy_params,
        env_params=env_params,
        stages=counts["stages"],
        seed=counts["seed"] if seed_override is None else seed_override,
        covariate=run.get("covariate", "w0"),
        log_losses=losses,
    )


# --- trajectory serialization ---------------------------------------------------


def _entry_cells(col: Sequence[object]) -> list[Iterator[str]]:
    """One lazy stream of cells per entry of a forecast or outcome column.

    Point values (tuples of floats) are written verbatim; profiles, and the
    mode of each distribution, as slots.
    """
    if isinstance(col[0], tuple):
        return [map(repr, map(itemgetter(i), col)) for i in range(len(col[0]))]
    slots = [(x.mode() if isinstance(x, DiscreteDistribution) else x).actions for x in col]
    return [map(str, map(itemgetter(i), slots)) for i in range(len(slots[0]))]


def _columns(traj: Trajectory, loss_names: Sequence[str]) -> tuple[list[str], list[Iterator[str]]]:
    """The series names a_0.., y_0.., losses and one lazy cell stream for each."""
    a, y = _entry_cells(traj.a), _entry_cells(traj.y)
    names = [f"a_{i}" for i in range(len(a))] + [f"y_{i}" for i in range(len(y))]
    return names + list(loss_names), a + y + [map(repr, traj.losses[n]) for n in loss_names]


def trajectory_csv(traj: Trajectory, loss_names: Sequence[str]) -> str:
    """Columns: t, a_0.., y_0.., loss columns, with the cells of ``_entry_cells``."""
    names, cells = _columns(traj, loss_names)
    lines = [",".join(["t", *names])]
    lines += map(",".join, zip(map(str, range(len(traj))), *cells))
    return "\n".join(lines) + "\n"


def plot_data_csv(traj: Trajectory, loss_names: Sequence[str]) -> str:
    """Tidy long format (t, series, value) for external plotting."""
    names, cells = _columns(traj, loss_names)
    # one lazy stream of lines per series, interleaved stage by stage
    series = [map(f"{{}},{name},{{}}".format, range(len(traj)), c) for name, c in zip(names, cells)]
    return "\n".join(["t,series,value", *chain.from_iterable(zip(*series))]) + "\n"


# --- subcommands -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_sim_config(args.config, seed_override=args.seed)
    with _in_file(args.config):
        traj = run_dynamic(config)
    loss_names = config.losses()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(trajectory_csv(traj, loss_names))
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", encoding="utf-8", newline="") as fh:
            fh.write(plot_data_csv(traj, loss_names))
    final = traj.final
    print(f"setting={config.setting} policy={config.policy} stages={config.stages} seed={config.seed}")
    print(f"config_hash={traj.config_hash}")
    print("final_forecast=" + " ".join(map(next, _entry_cells(traj.a[-1:]))))
    print(
        "final_losses="
        + " ".join(f"{name}={final.losses[name]:.9g}" for name in loss_names)
    )
    for key, value in policy_summary(config).items():
        print(f"policy.{key}={value}")
    if args.out:
        print(f"wrote {args.out}")
    if args.emit_plot_data:
        print(f"wrote {args.emit_plot_data}")
    return 0


def _evaluate_specs(path: str | None) -> list[tuple[str, dict[str, object]]]:
    if path is None:
        return [("expodamp", {"alpha": 0.3}), ("average", {})]
    parser = _read_ini(path)
    specs = []
    with _in_file(path):
        if not parser.has_section("evaluate"):
            raise InvalidConfigError("missing [evaluate] section")
        _reject_unknown_keys("evaluate", parser["evaluate"], {"policies"})
        names = parser["evaluate"].get("policies", "").replace(",", " ").split()
        if not names:
            raise InvalidConfigError("evaluate.policies: expected at least one policy name")
        for name in names:
            keys = policy_keys(_RecordedEnv, name, "evaluate.policies", "replay")
            specs.append((name, _read_section(parser, name, keys) if parser.has_section(name) else {}))
    return specs


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Replay recorded day data through point policies and compare MSE.

    Replay mode: the recorded observations are not influenced by the
    forecasts, so this measures forecasting accuracy only, not coordination.
    A replay error names the config file, or the data file when there is none.
    """
    matrix = parse_day_csv(args.data)
    specs = _evaluate_specs(args.config)
    results = []
    for name, params in specs:
        with _in_file(args.config or args.data):
            traj = replay(name, params, matrix.rows)
        results.append((name, trajectory_mse(traj.records)))
    width = max(len(name) for name, _ in results)
    print("replay mode: forecasts do not influence the recorded data")
    print(f"days={matrix.n_days} slots={len(matrix.slot_labels)}")
    print(f"{'method'.ljust(width)}  mean_squared_error")
    for name, mse in results:
        print(f"{name.ljust(width)}  {mse:.6f}")
    if args.out:
        lines = ["method,mean_squared_error"]
        lines += [f"{name},{repr(mse)}" for name, mse in results]
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    parser = _read_ini(args.config)
    section = "game" if parser.has_section("game") else "environment"
    with _in_file(args.config):
        if not parser.has_section(section):
            raise InvalidConfigError(f"missing [{section}] section")
        game = build_game(parser[section], section)
        report = analysis.prediction_equilibrium_report(game)
    print(f"game: {game.n} players, {game.d} slots")
    strict = set(report.strict_nash)
    ne_cells = [
        f"{c.actions}{' [strict]' if c in strict else ''}" for c in report.nash
    ]
    print(f"nash equilibria ({len(ne_cells)}): " + (", ".join(ne_cells) or "none"))
    # one Dirac candidate per profile, and the report has one finding per profile
    print(f"candidate set size: {len(report.findings)}")
    sf_cells = [str(c.actions) for c in report.self_fulfilling]
    print(f"self-fulfilling candidates ({len(sf_cells)}): " + (", ".join(sf_cells) or "none"))
    if report.ok:
        print("correspondence: OK (0 violations)")
    else:
        print(
            f"correspondence: VIOLATED (self-fulfilling but not NE: {report.sf_not_ne}; "
            f"strict NE not self-fulfilling: {report.strict_ne_not_sf})"
        )
    if not strict:
        print("note: no strict equilibrium, so the strict-NE direction is vacuous here")
    return 0


def cmd_monte_carlo(args: argparse.Namespace) -> int:
    config = load_sim_config(args.config, seed_override=args.seed)
    if args.runs < 1:
        raise InvalidConfigError(f"--runs: need at least one run, got {args.runs}")
    with _in_file(args.config):
        summary = monte_carlo(config, n_runs=args.runs)
    print(f"runs={summary.n_runs}")
    for name in sorted(summary.loss_means):
        print(
            f"loss.{name}: mean={summary.loss_means[name]:.9g} "
            f"var={summary.loss_vars[name]:.9g}"
        )
    if summary.self_fulfilling_fraction is not None:
        print(f"self_fulfilling_fraction={summary.self_fulfilling_fraction:.4f}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdcast",
        description="Simulate and analyze forecast-driven coordination assistants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one seeded trajectory")
    sim.add_argument("--config", required=True, help="simulation config (INI)")
    sim.add_argument("--out", help="trajectory CSV output path")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--emit-plot-data", help="tidy long-format CSV output path")
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("evaluate", help="replay recorded day data through policies")
    ev.add_argument("--data", required=True, help="day matrix CSV")
    ev.add_argument("--config", help="evaluation config (INI); defaults to expodamp+average")
    ev.add_argument("--out", help="comparison table CSV output path")
    ev.set_defaults(func=cmd_evaluate)

    an = sub.add_parser("analyze", help="equilibrium / candidate analysis of a game file")
    an.add_argument("--config", required=True, help="game definition (INI)")
    an.set_defaults(func=cmd_analyze)

    mc = sub.add_parser("monte-carlo", help="independent seeded replications")
    mc.add_argument("--config", required=True, help="simulation config (INI)")
    mc.add_argument("--runs", type=int, required=True, help="number of replications")
    mc.add_argument("--seed", type=int, help="override the config seed")
    mc.set_defaults(func=cmd_monte_carlo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("CROWDCAST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrowdcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
