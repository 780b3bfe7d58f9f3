"""The repeated forecast/response loop: wire one policy to one environment.

A run is fully determined by its SimConfig: all randomness flows from
generators derived from (seed, run_index), the policy sees only the history
through the previous stage, and losses are computed against the
environment's exact conditional outcome, which every simulated setting can
provide analytically.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import analysis, policies
from .core import (
    DIST_EQ_TOL,
    DegenerateGainError,
    DiscreteDistribution,
    Forecast,
    InvalidConfigError,
    InvalidParameterError,
    JointProfile,
    PointForecast,
    StageRecord,
    _reject_unknown_keys,
    as_float,
    as_floats,
    as_int,
    point_pred_loss,
    read_params,
    tv_distance,
)
from .environments import (
    LINEAR_PARAMS,
    BayesianCongestionGame,
    FiniteCongestionGame,
    LinearAggregateEnv,
    NonatomicPopulation,
    best_response,
    bayes_play_profile,
    bayes_response_distribution,
    linear_step,
    nonatomic_response_closed,
    play_profile,
)

@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one run bit-exactly."""

    setting: str
    policy: str
    policy_params: Mapping[str, object]
    env_params: Mapping[str, object]
    stages: int
    seed: int
    covariate: str = "w0"
    log_losses: tuple[str, ...] | None = None

    def losses(self) -> tuple[str, ...]:
        if self.log_losses is not None:
            return self.log_losses
        return setting_env(self.setting).LOSSES


@dataclass(frozen=True)
class Trajectory:
    """A run kept as columns: stage t announced a[t], observed y[t] and scored losses[name][t].

    A point run keeps bare value tuples, which records wrap as ``PointForecast``s.
    ``records`` are built on first use and kept, so a change through one stays visible.
    """

    a: list[object]
    y: list[object]
    losses: dict[str, list[float]]
    config_hash: str
    w: str = "w0"

    def _record(self, t: int) -> StageRecord:
        losses = {name: col[t] for name, col in self.losses.items()}
        a, y = self.a[t], self.y[t]
        if isinstance(a, tuple):
            a, y = PointForecast(a), PointForecast(y)
        return StageRecord(t=t, w=self.w, a=a, y=y, losses=losses)

    @functools.cached_property
    def records(self) -> tuple[StageRecord, ...]:
        return tuple(self._record(t) for t in range(len(self.a)))

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.a)

    @property
    def final(self) -> StageRecord:
        return self._record(len(self.a) - 1)


def config_hash(config: SimConfig) -> str:
    payload = json.dumps(vars(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def closed_form_trajectory(
    gamma: float, alpha: float, a0: float, x: float, T: int
) -> list[float]:
    """Deterministic outcome sequence x + (1 - gamma) * (a0 - x) * (1 - alpha*gamma)^t.

    Valid for the noise-free linear environment with beta = 1 - gamma under
    the damped policy; the contraction holds iff 0 < alpha * gamma < 2.
    """
    rate = 1.0 - alpha * gamma
    return [x + (1.0 - gamma) * (a0 - x) * rate**t for t in range(T)]


# --- environment adapters ------------------------------------------------------
# Each adapter describes its setting: the policies it runs (POLICIES), the environment
# keys it reads (PARAMS, where they are not a game table), the number of entries of its
# point outcomes (width), whether those outcomes are recorded data (recorded) and its
# LOSSES, each a method that run_dynamic calls with the forecast after respond. Its kind
# picks the keys of each policy's PARAMS it takes.


def _scalar(a: tuple[float, ...]) -> tuple[float]:
    """A scalar forecast or outcome, checked to be finite; _opening_point checks its width."""
    if not math.isfinite(a[0]):
        raise InvalidParameterError("point forecast entries must be finite")
    return a


class _ScalarEnv:
    """A setting whose forecasts and outcomes are one real number, kept as a bare 1-tuple."""

    kind = "point"
    width = 1
    recorded = False
    LOSSES = ("point_pred",)

    def point_pred(self, a: tuple[float, ...]) -> float:
        """Squared error against the exact mean outcome, scored as point_pred_loss does."""
        try:
            return (a[0] - self.last_mean) ** 2
        except OverflowError:  # a squared error beyond the float range
            return math.inf


class _LinearEnv(_ScalarEnv):
    POLICIES = ("expodamp", "average", "naive", "kalman")
    PARAMS = LINEAR_PARAMS

    def __init__(self, params: Mapping[str, object], rng: np.random.Generator):
        p = read_params(params, self.PARAMS, "environment", ("beta", "gamma", "x0_mean"))
        self.env = LinearAggregateEnv.create(rng=rng, **p)

    @property
    def last_mean(self) -> float:
        return self.env.last_mean

    def respond(self, a: tuple[float, ...]) -> tuple[float]:
        return _scalar((linear_step(self.env, _scalar(a)[0]),))


class _NonatomicEnv(_ScalarEnv):
    POLICIES = ("expodamp", "average", "naive")
    PARAMS = {"phi": as_float, "chi": as_float, "delta": as_float, "x": as_float}

    def __init__(self, params: Mapping[str, object], rng: np.random.Generator):
        p = read_params(params, self.PARAMS, "environment", ("phi", "chi", "delta", "x"))
        self.pop = NonatomicPopulation(**p)
        self.last_mean = math.nan

    def respond(self, a: tuple[float, ...]) -> tuple[float]:
        self.last_mean = nonatomic_response_closed(self.pop, _scalar(a)[0])
        return (self.last_mean,)


def build_game(
    params: Mapping[str, object], section: str = "environment"
) -> FiniteCongestionGame | BayesianCongestionGame:
    """The "game" object alone, else the players/slots/slot_k table; section prefixes errors."""
    if "game" in params:
        _reject_unknown_keys(section, params, ("game",))
        game = params["game"]
        if not isinstance(game, (FiniteCongestionGame, BayesianCongestionGame)):
            raise InvalidConfigError(f"{section}.game: not a congestion game object")
        return game
    size = read_params(params, {"players": as_int, "slots": as_int}, section, ("players", "slots"))
    n, d = size["players"], size["slots"]
    rows = []
    for k in range(d):
        key = f"slot_{k}"
        row = read_params(params, {key: as_floats}, section, (key,))[key]
        if len(row) != n:
            raise InvalidConfigError(f"{section}.{key}: expected {n} utilities, got {len(row)}")
        rows.append(row)
    # after the rows, so the allowed keys are never more than the table holds
    _reject_unknown_keys(section, params, {"players", "slots", *(f"slot_{k}" for k in range(d))})
    try:
        return FiniteCongestionGame(n=n, d=d, utility=tuple(rows))
    except InvalidParameterError as exc:
        raise InvalidConfigError(f"{section}: {exc}") from None


# Bayesian type samples are drawn for this many stages at a time.
BLOCK = 256


class _FiniteGameEnv:
    kind = "profile"
    POLICIES = ("naive", "empirical", "partpred")
    LOSSES = ("pred", "nash")

    def __init__(self, params: Mapping[str, object], rng: np.random.Generator):
        self.game = build_game(params)
        self.bayesian = isinstance(self.game, BayesianCongestionGame)
        self.rng = rng
        self._response_cache: dict[DiscreteDistribution, DiscreteDistribution] = {}
        self._play_cache: dict[DiscreteDistribution, list[JointProfile]] = {}
        self._nash_cache: dict[DiscreteDistribution, float] = {}
        if self.bayesian:
            self._profiles: dict[JointProfile, JointProfile] = {}
            self._combo_ids: Iterator[int] = iter(())
            # Per player: cumulative prior, the last type of positive probability
            # (a draw at or above the rounded-down top of the cdf maps to it) and
            # the weight of its type in a combination id, which numbers the joint
            # types in type_combos() order.
            sizes = [len(probs) for probs in self.game.type_probs]
            self._type_draws = []
            for i, probs in enumerate(self.game.type_probs):
                last = max(k for k, p in enumerate(probs) if p > 0.0)
                self._type_draws.append((np.cumsum(probs), last, math.prod(sizes[i + 1 :])))

    def exact_response(self, a: DiscreteDistribution) -> DiscreteDistribution:
        dist = self._response_cache.get(a)
        if dist is None:
            if self.bayesian:
                dist = bayes_response_distribution(self.game, a)
            else:
                dist = DiscreteDistribution.dirac(play_profile(self.game, a))
            self._response_cache[a] = dist
        return dist

    def _plays(self, a: DiscreteDistribution) -> list[JointProfile]:
        """The joint outcome of every type combination, indexed by combination id.

        Equal profiles are one object across forecasts, so the policy's tallies
        find them by identity.
        """
        plays = self._play_cache.get(a)
        if plays is None:
            intern = self._profiles.setdefault
            plays = []
            for types, _ in self.game.type_combos():
                c = bayes_play_profile(self.game, a, types)
                plays.append(intern(c, c))
            self._play_cache[a] = plays
        return plays

    def _draw_combo_ids(self) -> list[int]:
        """Combination ids of the next BLOCK stages' types.

        One (BLOCK, n) draw reads the generator's stream exactly as BLOCK
        draws of n uniforms, one per stage, would.
        """
        draws = self.rng.random((BLOCK, self.game.n))
        ids = np.zeros(BLOCK, dtype=np.int64)
        for i, (cum, last, weight) in enumerate(self._type_draws):
            types = np.searchsorted(cum, draws[:, i], side="right")
            ids += np.minimum(types, last) * weight
        return ids.tolist()

    def respond(self, a: DiscreteDistribution) -> JointProfile:
        return self.respond_many(a, 1)[0]

    def respond_many(self, a: DiscreteDistribution, h: int) -> list[JointProfile]:
        """The outcomes of h stages that all announce a: h calls of respond in one."""
        if not self.bayesian:
            return [self.exact_response(a).support[0]] * h
        plays = self._plays(a)
        ids = list(islice(self._combo_ids, h))
        while len(ids) < h:
            self._combo_ids = iter(self._draw_combo_ids())
            ids += islice(self._combo_ids, h - len(ids))
        return [plays[combo_id] for combo_id in ids]

    def pred(self, a: DiscreteDistribution) -> float:
        return tv_distance(a, self.exact_response(a))

    def nash(self, a: DiscreteDistribution) -> float:
        loss = self._nash_cache.get(a)
        if loss is None:
            if self.bayesian:
                strategy = tuple(
                    tuple(
                        best_response(i, self.game, a, theta)
                        for theta in range(len(self.game.type_probs[i]))
                    )
                    for i in range(self.game.n)
                )
                loss = 0.0 if analysis.is_bne(self.game, strategy) else 1.0
            else:
                loss = 0.0 if analysis.is_nash(self.game, play_profile(self.game, a)) else 1.0
            self._nash_cache[a] = loss
        return loss


ENVS = {
    "linear": _LinearEnv,
    "nonatomic": _NonatomicEnv,
    "finite-game": _FiniteGameEnv,
}

SETTINGS = tuple(ENVS)


def setting_env(setting: str) -> type:
    """The adapter of setting; an unknown setting is an error naming run.setting."""
    if setting not in SETTINGS:
        raise InvalidConfigError(f"run.setting: {setting!r} is not one of {', '.join(SETTINGS)}")
    return ENVS[setting]


def policy_keys(env_cls: type, policy: str, field: str, where: str) -> Mapping[str, Callable]:
    """The keys policy reads against the adapter env_cls, with their converters."""
    if policy not in env_cls.POLICIES:
        valid = ", ".join(env_cls.POLICIES)
        raise InvalidConfigError(f"{field}: {policy!r} is not valid for {where}; valid names: {valid}")
    return policies.POLICIES[policy].PARAMS[env_cls.kind]


def _start(config: SimConfig, run_index: int):
    """The environment and policy of one run, each with its own generator.

    Building them is the whole config check: every config error is raised here,
    and a constructor's range error is raised again naming its section.
    """
    env_cls = setting_env(config.setting)
    keys = policy_keys(env_cls, config.policy, "policy.name", f"setting {config.setting!r}")
    names = config.losses()
    for k, name in enumerate(names):
        if name not in env_cls.LOSSES:
            raise InvalidConfigError(
                f"run.losses: {name!r} not available in the {config.setting} setting"
            )
        if name in names[:k]:
            raise InvalidConfigError(f"run.losses: {name!r} is listed twice")
    _reject_unknown_keys("policy", config.policy_params, keys)
    if env_cls.kind == "point":  # build_game checks a game's keys as it reads them
        _reject_unknown_keys("environment", config.env_params, env_cls.PARAMS)
    if config.stages < 1:
        raise InvalidConfigError("run.stages: need at least one stage")
    if config.seed < 0:
        raise InvalidConfigError(f"run.seed: expected a nonnegative integer, got {config.seed}")
    seq = np.random.SeedSequence(entropy=(config.seed, run_index))
    env_rng, policy_rng = map(np.random.default_rng, seq.spawn(2))
    try:
        env = env_cls(config.env_params, env_rng)
    except InvalidParameterError as exc:
        raise InvalidConfigError(f"environment: {exc}") from None
    policy_cls = policies.POLICIES[config.policy]
    try:
        return env, policy_cls.from_params(config.policy_params, policy_rng, env, "policy")
    except InvalidParameterError as exc:
        raise InvalidConfigError(f"policy: {exc}") from None


def _holds(stages: int, env, policy) -> Iterator[tuple[object, list]]:
    """Run the stages, yielding (a, ys) per hold: the outcomes ys of stages that all announce a.

    The policy is asked for its forecast strictly before the environment
    responds, and only ever sees observations from earlier stages. It is not
    asked on the stages it holds (see ``policies``); the environment answers a
    hold in one call, reading its random stream as it would stage by stage.
    An InvalidParameterError, such as a non-finite forecast or outcome, or a
    DegenerateGainError is raised again naming the stage it came from.
    """
    t = 0
    y_prev: object = None
    try:
        while t < stages:
            a = policy.forecast(y_prev)
            h = policy.hold()
            if h == 1:
                ys = [env.respond(a)]
            else:
                ys = env.respond_many(a, min(h, stages - t))
                policy.observe_held(ys[:-1])
            yield a, ys
            y_prev = ys[-1]
            t += len(ys)
    except (InvalidParameterError, DegenerateGainError) as exc:
        raise type(exc)(f"stage {t}: {exc}") from None


def _trajectory(w: str, stages: int, env, policy, names: Sequence[str], digest: str) -> Trajectory:
    """Run the stages and keep them as columns, with each loss an env method of the forecast.

    Each loss is scored once per hold: only finite-game policies hold for more
    than one stage, and the finite-game losses depend on the forecast alone.
    """
    loss_fns = [(getattr(env, name), []) for name in names]
    a_col: list[object] = []
    y_col: list[object] = []
    for a, ys in _holds(stages, env, policy):
        h = len(ys)
        a_col += [a] * h
        y_col += ys
        for loss_fn, col in loss_fns:
            col += [loss_fn(a)] * h
    losses = {name: col for name, (_, col) in zip(names, loss_fns)}
    return Trajectory(a_col, y_col, losses, digest, w)


def run_dynamic(config: SimConfig, run_index: int = 0) -> Trajectory:
    """Run the repeated system for config.stages stages."""
    env, policy = _start(config, run_index)
    return _trajectory(
        config.covariate, config.stages, env, policy, config.losses(), config_hash(config)
    )


def policy_summary(config: SimConfig, run_index: int = 0) -> dict[str, object]:
    """Re-run the whole simulation and report the policy's final internal flags."""
    env, policy = _start(config, run_index)
    for _ in _holds(config.stages, env, policy):
        pass
    return policy.summary(config.covariate)


def exact_response(config: SimConfig, forecast: DiscreteDistribution) -> DiscreteDistribution:
    """The environment's exact conditional outcome distribution for a forecast."""
    if config.setting != "finite-game":
        raise InvalidConfigError("exact_response is defined for the finite-game setting")
    env = _FiniteGameEnv(config.env_params, np.random.default_rng(0))
    return env.exact_response(forecast)


@dataclass(frozen=True)
class MonteCarloSummary:
    n_runs: int
    loss_means: Mapping[str, float]
    loss_vars: Mapping[str, float]
    self_fulfilling_fraction: float | None
    final_forecasts: tuple[Forecast, ...]


def monte_carlo(config: SimConfig, n_runs: int) -> MonteCarloSummary:
    """Independent seeded replications with per-loss statistics.

    Replication k draws its generators from (seed, k); results are merged in
    run order, so the summary is deterministic.
    """
    if n_runs < 1:
        raise InvalidConfigError("monte_carlo.n_runs: need at least one run")
    loss_names = config.losses()
    per_run: dict[str, list[float]] = {name: [] for name in loss_names}
    finals: list[Forecast] = []
    sf_hits = 0
    for k in range(n_runs):
        traj = run_dynamic(config, run_index=k)
        for name in loss_names:
            per_run[name].append(math.fsum(traj.losses[name]) / len(traj))
        final = traj.final.a
        finals.append(final)
        if config.setting == "finite-game" and isinstance(final, DiscreteDistribution):
            if tv_distance(exact_response(config, final), final) <= DIST_EQ_TOL:
                sf_hits += 1
    means = {name: math.fsum(vals) / n_runs for name, vals in per_run.items()}
    variances = {}
    for name, vals in per_run.items():
        if all(v == vals[0] for v in vals):
            variances[name] = 0.0  # identical replications, exactly zero spread
        else:
            try:
                variances[name] = math.fsum((v - means[name]) ** 2 for v in vals) / n_runs
            except OverflowError:  # a spread beyond the float range
                variances[name] = math.inf
    sf_fraction = sf_hits / n_runs if config.setting == "finite-game" else None
    return MonteCarloSummary(
        n_runs=n_runs,
        loss_means=means,
        loss_vars=variances,
        self_fulfilling_fraction=sf_fraction,
        final_forecasts=tuple(finals),
    )


class _RecordedEnv:
    """Recorded rows as a setting: stage t's outcome is row t, whatever was announced."""

    kind = "point"
    recorded = True
    POLICIES = ("expodamp", "average", "naive")

    def __init__(self, rows: Sequence[Sequence[float]]):
        self.rows = enumerate(rows)
        self.width = len(rows[0])
        if not self.width:
            raise InvalidConfigError("replay: row 0 has 0 cells")

    def respond(self, a: tuple[float, ...]) -> tuple[float, ...]:
        if not all(map(math.isfinite, a)):  # as _scalar checks the simulated forecasts
            raise InvalidParameterError("point forecast entries must be finite")
        t, row = next(self.rows)
        if len(row) != self.width:
            raise InvalidConfigError(f"replay: row {t} has {len(row)} cells, expected {self.width}")
        self.row = PointForecast(row).values
        return self.row

    def point_pred(self, a: tuple[float, ...]) -> float:
        return point_pred_loss(a, self.row)


def replay(
    policy_name: str,
    policy_params: Mapping[str, object],
    observations: Sequence[Sequence[float]],
    covariate: str = "w0",
) -> Trajectory:
    """Run a point-forecast policy against a recorded observation stream.

    The data is not influenced by the forecasts, so this evaluates forecasting
    accuracy only; squared errors against the recorded rows are logged as
    point_pred. Errors name the policy: a key as policy_name.key, a stage that
    diverged as "policy_name: stage t: ...". A missing opening forecast is zeros
    of the row width (policies._opening_point).
    """
    if len(observations) == 0:
        raise InvalidConfigError("replay: empty observation stream")
    keys = policy_keys(_RecordedEnv, policy_name, "policy_name", "replay")
    _reject_unknown_keys(policy_name, policy_params, keys)
    env = _RecordedEnv(observations)
    policy_cls = policies.POLICIES[policy_name]
    policy = policy_cls.from_params(policy_params, np.random.default_rng(0), env, policy_name)
    try:
        return _trajectory(covariate, len(observations), env, policy, ("point_pred",), "replay")
    except InvalidParameterError as exc:
        raise type(exc)(f"{policy_name}: {exc}") from None
