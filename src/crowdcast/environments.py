"""Simulated user populations that turn an announced forecast into an outcome.

Three settings are covered: a linear aggregate population with latent drift,
a nonatomic continuum of user types reacting to an aggregate forecast, and
finite congestion games (complete-information and Bayesian) whose players
best-respond to the forecast individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .core import (
    DiscreteDistribution,
    InvalidParameterError,
    JointProfile,
    PointForecast,
    ShapeError,
    as_float,
)


@dataclass
class LinearAggregateEnv:
    """Aggregate outcome y = beta * a + gamma * x + noise over a latent random walk x.

    The latent level advances by an independent Gaussian increment on every
    stage after the first; the first stage responds with the initial level.
    Noise draws come from the environment's own generator in a fixed order,
    so a seed pins the whole trajectory.
    """

    beta: float
    gamma: float
    var_ex: float
    var_ey: float
    x: float
    rng: np.random.Generator
    last_mean: float = field(default=math.nan, init=False)
    _started: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.var_ex < 0.0 or self.var_ey < 0.0:
            raise InvalidParameterError("noise variances must be nonnegative")

    @classmethod
    def create(
        cls,
        beta: float,
        gamma: float,
        x0_mean: float,
        x0_var: float = 0.0,
        var_ex: float = 0.0,
        var_ey: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> "LinearAggregateEnv":
        rng = rng if rng is not None else np.random.default_rng()
        if x0_var < 0.0:
            raise InvalidParameterError("x0_var must be nonnegative")
        x0 = x0_mean + math.sqrt(x0_var) * rng.standard_normal()
        return cls(beta=beta, gamma=gamma, var_ex=var_ex, var_ey=var_ey, x=x0, rng=rng)


# The config keys of the linear model, read by the environment and by the Kalman policy.
LINEAR_PARAMS = {key: as_float for key in ("beta", "gamma", "var_ex", "var_ey", "x0_mean", "x0_var")}


def linear_step(env: LinearAggregateEnv, a: float) -> float:
    """Advance the latent level (after the first stage) and emit the outcome."""
    if env._started:
        env.x = env.x + math.sqrt(env.var_ex) * env.rng.standard_normal()
    else:
        env._started = True
    env.last_mean = env.beta * a + env.gamma * env.x
    return env.last_mean + math.sqrt(env.var_ey) * env.rng.standard_normal()


@dataclass(frozen=True)
class NonatomicPopulation:
    """Continuum of user types on [0, 1] reacting to the mean of the forecast.

    Types are spread uniformly over the band [x - delta, x + delta]. A type i
    prefers slot 1 over slot 0 by the margin i + phi * E[Y'] + chi, where the
    expectation is taken under the announced forecast; ties go to slot 0. The
    outcome is the fraction of the band choosing slot 1.
    """

    phi: float
    chi: float
    delta: float
    x: float
    grid_n: int = 401

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 0.5):
            raise InvalidParameterError("delta must lie in (0, 0.5)")
        if not (self.delta <= self.x <= 1.0 - self.delta):
            raise InvalidParameterError("band center x must keep the band inside [0, 1]")
        if self.grid_n < 100:
            raise InvalidParameterError("grid_n must be at least 100")


def forecast_mean(a: object) -> float:
    """Mean outcome value announced by a forecast (scalar point or numeric distribution)."""
    if isinstance(a, PointForecast):
        return a.scalar
    if isinstance(a, DiscreteDistribution):
        return a.mean()
    if isinstance(a, (int, float)):
        return float(a)
    raise ShapeError(f"cannot take a scalar mean of forecast {a!r}")


def nonatomic_response_numeric(pop: NonatomicPopulation, a: object) -> float:
    """Midpoint-rule integral of the slot-1 indicator over the type band.

    This is the reference oracle: the closed form below must agree with it to
    within the grid resolution.
    """
    m = forecast_mean(a)
    offsets = (np.arange(pop.grid_n) + 0.5) / pop.grid_n
    midpoints = (pop.x - pop.delta) + 2.0 * pop.delta * offsets
    frac = float(np.mean(midpoints + pop.phi * m + pop.chi >= 0.0))
    return min(1.0, max(0.0, frac))


def nonatomic_response_closed(pop: NonatomicPopulation, mean_a: float) -> float:
    """Piecewise-linear fraction of the band with i + phi * mean_a + chi >= 0.

    Coefficients come from integrating the band density 1/(2 delta) directly;
    the numeric integral above is the ground truth this is validated against.
    """
    threshold = -pop.phi * mean_a - pop.chi
    lo = pop.x - pop.delta
    hi = pop.x + pop.delta
    if threshold <= lo:
        return 1.0
    if threshold >= hi:
        return 0.0
    return (hi - threshold) / (2.0 * pop.delta)


@dataclass(frozen=True)
class FiniteCongestionGame:
    """Complete-information congestion game: utility depends on own slot and its count.

    utility[k][m - 1] is the payoff of a player sitting at slot k occupied by
    m players in total (m from 1 to n).
    """

    n: int
    d: int
    utility: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 2:
            raise InvalidParameterError("need n >= 1 players and d >= 2 slots")
        if len(self.utility) != self.d or any(len(row) != self.n for row in self.utility):
            raise ShapeError("utility table must have d rows of n entries")
        rows = tuple(tuple(float(v) for v in row) for row in self.utility)
        if any(not math.isfinite(v) for row in rows for v in row):
            raise InvalidParameterError("utilities must be finite")
        object.__setattr__(self, "utility", rows)

    def u(self, slot: int, count: int) -> float:
        return self.utility[slot][count - 1]

    def profiles(self):
        """All joint profiles in lexicographic order."""
        for actions in product(range(self.d), repeat=self.n):
            yield JointProfile(actions)


def crowding_game(n: int = 2, d: int = 2) -> FiniteCongestionGame:
    """Symmetric game where a slot with m occupants pays -m to each of them."""
    row = tuple(float(-m) for m in range(1, n + 1))
    return FiniteCongestionGame(n=n, d=d, utility=tuple(row for _ in range(d)))


_SlotView = tuple[tuple[int, ...], list[int], float]  # actions, slot counts, probability


def _slot_views(belief: DiscreteDistribution, n: int, d: int) -> list[_SlotView]:
    """Each believed profile with its slot occupancy, counted once for all players."""
    views = []
    for c, p in belief.items():
        actions = c.actions
        if len(actions) != n or max(actions) >= d:
            raise ShapeError(
                f"believed profile {actions} must give one slot in 0..{d - 1} to each of {n} players"
            )
        counts = [0] * d
        for k in actions:
            counts[k] += 1
        views.append((actions, counts, p))
    return views


def _best_slot(i: int, rows: tuple[tuple[float, ...], ...], views: list[_SlotView]) -> int:
    """Slot maximizing player i's expected utility; ties break to the lowest slot.

    Joining slot k, player i expects the others there plus itself, so it
    reads row[others]: the count at k, less one if i's believed entry is k.
    """
    best_slot = 0
    best_eu = -math.inf
    for k, row in enumerate(rows):
        eu = math.fsum(p * row[counts[k] - (actions[i] == k)] for actions, counts, p in views)
        if eu > best_eu:
            best_slot, best_eu = k, eu
    return best_slot


def play_profile(game: FiniteCongestionGame, forecast: DiscreteDistribution) -> JointProfile:
    """Joint outcome when every player simultaneously best-responds to the forecast."""
    views = _slot_views(forecast, game.n, game.d)
    return JointProfile(tuple(_best_slot(i, game.utility, views) for i in range(game.n)))


@dataclass(frozen=True)
class BayesianCongestionGame:
    """Finite congestion game with independent private types drawn fresh each stage.

    type_probs[i] is player i's prior over its types. utility[i][theta][k][m - 1]
    is the payoff of player i with type theta at slot k occupied by m players.
    """

    d: int
    type_probs: tuple[tuple[float, ...], ...]
    utility: tuple[tuple[tuple[tuple[float, ...], ...], ...], ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise InvalidParameterError("need d >= 2 slots")
        if len(self.type_probs) != len(self.utility):
            raise ShapeError("type_probs and utility disagree on the number of players")
        for i, probs in enumerate(self.type_probs):
            weights_ok = all(p >= 0.0 and math.isfinite(p) for p in probs)
            if not weights_ok or abs(math.fsum(probs) - 1.0) > 1e-12:
                raise InvalidParameterError(f"type prior of player {i} is not a distribution")
            if len(self.utility[i]) != len(probs):
                raise ShapeError(f"player {i}: one utility block per type required")
            for block in self.utility[i]:
                if len(block) != self.d or any(len(row) != self.n for row in block):
                    raise ShapeError(f"player {i}: utility block must be d x n")
                if any(not math.isfinite(v) for row in block for v in row):
                    raise InvalidParameterError(f"player {i}: utilities must be finite")
        # tuples all the way down, so a game given as lists hashes like an equal tuple game
        utility = tuple(tuple(tuple(map(tuple, block)) for block in blocks) for blocks in self.utility)
        object.__setattr__(self, "type_probs", tuple(map(tuple, self.type_probs)))
        object.__setattr__(self, "utility", utility)

    @property
    def n(self) -> int:
        return len(self.type_probs)

    def u(self, i: int, theta: int, slot: int, count: int) -> float:
        return self.utility[i][theta][slot][count - 1]

    def type_combos(self):
        """All joint type realizations with their prior probabilities."""
        for combo in product(*(range(len(p)) for p in self.type_probs)):
            prob = 1.0
            for i, theta in enumerate(combo):
                prob *= self.type_probs[i][theta]
            yield combo, prob


def best_response(
    i: int,
    game: FiniteCongestionGame | BayesianCongestionGame,
    belief: DiscreteDistribution,
    theta: int = 0,
) -> int:
    """Slot maximizing expected utility under the announced profile distribution.

    In a Bayesian game the utilities are those of player i with type theta.
    Player i's own entry in each believed profile is ignored; ties break to
    the lowest slot index.
    """
    rows = game.utility[i][theta] if isinstance(game, BayesianCongestionGame) else game.utility
    return _best_slot(i, rows, _slot_views(belief, game.n, game.d))


def bayes_play_profile(
    game: BayesianCongestionGame, forecast: DiscreteDistribution, types: tuple[int, ...]
) -> JointProfile:
    """Joint outcome for a given type realization, everyone trusting the forecast."""
    views = _slot_views(forecast, game.n, game.d)
    return JointProfile(
        tuple(_best_slot(i, game.utility[i][types[i]], views) for i in range(game.n))
    )


def bayes_response_distribution(
    game: BayesianCongestionGame, forecast: DiscreteDistribution
) -> DiscreteDistribution:
    """Exact conditional outcome distribution under the type prior."""
    weights: dict[JointProfile, float] = {}
    for combo, prob in game.type_combos():
        if prob == 0.0:
            continue
        c = bayes_play_profile(game, forecast, combo)
        weights[c] = weights.get(c, 0.0) + prob
    return DiscreteDistribution.from_mapping(weights)
