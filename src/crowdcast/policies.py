"""Assistant policies: forecast update rules and the candidate-search policy.

Each policy is one mutable state class with one interface:

- ``PARAMS`` maps each setting kind the policy runs in, ``"point"`` or
  ``"profile"``, to the config keys it reads there and their converters; only
  ``naive`` runs in both, on ``initial`` and on ``initial_profile``;
- ``OPENING``, on the point policies that announce a configured forecast
  before any observation, names its key (``initial`` or ``prior``); the
  forecast must hold ``env.width`` values and, if missing, is zeros, except
  for ``naive`` in a simulated setting, where it is required;
- ``from_params(params, rng, env, section)`` builds the state for one run from
  those keys, the run's policy generator and the environment adapter, naming
  a bad key as ``section.key``;
- ``forecast(y_prev)`` announces the forecast, given the previous stage's
  outcome (None on the first stage); point policies take and announce bare
  value tuples, the ``values`` of a ``PointForecast``;
- ``hold()``, asked right after ``forecast``, is the number of coming stages,
  the one just announced included, over which the policy will announce that
  same forecast whatever it observes; the loop skips ``forecast`` on the
  held stages and, where ``hold()`` exceeds 1, hands their outcomes over in
  one ``observe_held(ys)`` call;
- ``summary(w)`` reports the final internal flags; partpred labels its
  convergence flag with the run's covariate w.

``POLICIES`` maps each policy name to its class. ``forecast`` calls the
per-stage rule (``expodamp_update``, ``average_update``, ``naive_update`` on
bare tuples, ``kalman_step``, ...), which validates nothing: the engine checks
each point forecast where its environment takes it. ``expodamp_step``,
``average_step`` and ``naive_step`` check the outcome and return the rule's
forecast as a ``PointForecast``, for callers outside a run. ``partpred``
searches the tuple that ``analysis.candidate_set`` returns, by index, and
never changes it. A state instance belongs to a single run; distinct
instances are independent.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import analysis
from .core import (
    DIST_EQ_TOL,
    DegenerateGainError,
    DiscreteDistribution,
    Forecast,
    InvalidConfigError,
    InvalidParameterError,
    JointProfile,
    NeedsInitialForecastError,
    PointForecast,
    ShapeError,
    as_float,
    as_floats,
    as_int,
    as_slots,
    euclidean_distance,
    observation_values,
    read_params,
)
from .environments import LINEAR_PARAMS


class _EveryStage:
    """Base of the policies that may change their forecast on every stage."""

    def hold(self) -> int:
        return 1

    def summary(self, w: str) -> dict[str, object]:
        return {}


class ExpodampState(_EveryStage):
    """Damped forecast update on bare ``values``: move them a fraction alpha toward the outcome."""

    PARAMS = {"point": {"alpha": as_float, "initial": as_floats}}
    OPENING = "initial"

    def __init__(self, a: PointForecast, alpha: float) -> None:
        if not math.isfinite(alpha):
            raise InvalidParameterError("alpha must be finite")
        self.values, self.alpha = a.values, alpha

    @property
    def a(self) -> PointForecast:
        """The current forecast, validated."""
        return PointForecast(self.values)

    @classmethod
    def from_params(cls, params, rng, env, section) -> "ExpodampState":
        p = read_params(params, cls.PARAMS["point"], section, ("alpha",))
        return cls(a=PointForecast(_opening_point(cls, p, env, section)), alpha=p["alpha"])

    def forecast(self, y_prev: tuple[float, ...] | None) -> tuple[float, ...]:
        if y_prev is not None:
            self.values = expodamp_update(self.values, self.alpha, y_prev)
        return self.values


def expodamp_update(a: tuple[float, ...], alpha: float, y: tuple[float, ...]) -> tuple[float, ...]:
    """a <- a + alpha * (y - a), componentwise: expodamp's per-stage rule."""
    return tuple(av + alpha * (yv - av) for av, yv in zip(a, y))


def expodamp_step(state: ExpodampState, y_prev: Sequence[float]) -> PointForecast:
    """expodamp_update on state, for an outcome of the forecast's width, validated on the way out."""
    y = tuple(float(v) for v in y_prev)
    if len(y) != len(state.values):
        raise ShapeError(f"forecast has {len(state.values)} entries, observation has {len(y)}")
    new = PointForecast(expodamp_update(state.values, state.alpha, y))
    state.values = new.values
    return new


def naive_update(y: tuple[float, ...] | JointProfile) -> tuple[float, ...] | DiscreteDistribution:
    """Naive's per-stage rule: yesterday's outcome as today's forecast, a Dirac for a profile."""
    return DiscreteDistribution.dirac(y) if isinstance(y, JointProfile) else y


def naive_step(y_prev: object) -> Forecast:
    """naive_update of an outcome, a real vector as a ``PointForecast``."""
    if y_prev is None:
        raise NeedsInitialForecastError("no observation yet; configure an initial forecast")
    if isinstance(y_prev, JointProfile):
        return naive_update(y_prev)
    return PointForecast(observation_values(y_prev))


def _opening_point(cls, p: Mapping[str, object], env, section: str) -> tuple[float, ...]:
    """The read value of cls.OPENING, which must hold env.width values.

    The one place where a missing opening forecast defaults, to zeros.
    """
    values = p.get(cls.OPENING, (0.0,) * env.width)
    if len(values) != env.width:
        raise InvalidConfigError(
            f"{section}.{cls.OPENING}: expected {env.width} value(s), got {len(values)}"
        )
    return values


# The keys of a finite-game policy that opens on a configured profile.
_PROFILE_OPENING = {"initial_profile": as_slots}


def _opening_profile(params: Mapping[str, object], env, section: str) -> DiscreteDistribution:
    """Dirac on initial_profile, which must name one of the game's slots for each player."""
    slots = read_params(params, _PROFILE_OPENING, section, ("initial_profile",))["initial_profile"]
    game = env.game
    if len(slots) == game.n and min(slots) >= 0:
        profile = JointProfile(slots)
        if profile.within_slots(game.d):
            return DiscreteDistribution.dirac(profile)
    raise InvalidConfigError(
        f"{section}.initial_profile: expected one slot in 0..{game.d - 1} "
        f"for each of the {game.n} players, got {' '.join(map(str, slots))!r}"
    )


@dataclass
class NaiveState(_EveryStage):
    """Yesterday's outcome as today's forecast, after a configured opening forecast."""

    initial: tuple[float, ...] | DiscreteDistribution

    PARAMS = {"point": {"initial": as_floats}, "profile": _PROFILE_OPENING}
    OPENING = "initial"

    @classmethod
    def from_params(cls, params, rng, env, section) -> "NaiveState":
        if env.kind == "profile":
            return cls(_opening_profile(params, env, section))
        # only recorded data lets naive's opening default to zeros
        p = read_params(params, cls.PARAMS["point"], section, () if env.recorded else ("initial",))
        return cls(_opening_point(cls, p, env, section))

    def forecast(self, y_prev: object) -> tuple[float, ...] | DiscreteDistribution:
        return self.initial if y_prev is None else naive_update(y_prev)


@dataclass
class AverageState(_EveryStage):
    """Running-mean forecast; a configured prior is used before two observations exist."""

    prior: PointForecast
    sum: tuple[float, ...] = ()
    count: int = 0

    PARAMS = {"point": {"prior": as_floats}}
    OPENING = "prior"

    @classmethod
    def from_params(cls, params, rng, env, section) -> "AverageState":
        p = read_params(params, cls.PARAMS["point"], section)
        return cls(prior=PointForecast(_opening_point(cls, p, env, section)))

    def forecast(self, y_prev: tuple[float, ...] | None) -> tuple[float, ...]:
        if y_prev is not None:
            self.sum = average_update(self.sum or (0.0,) * len(y_prev), y_prev)
            self.count += 1
        return self.prior.values if self.count < 2 else tuple(s / self.count for s in self.sum)


def average_update(sums: tuple[float, ...], y: tuple[float, ...]) -> tuple[float, ...]:
    """The running sums after outcome y: average's per-stage rule, whose mean is the forecast."""
    return tuple(s + v for s, v in zip(sums, y))


def average_step(state: AverageState, y_prev: Sequence[float]) -> PointForecast:
    """The forecast after y_prev, whose width must not change mid-run, as a ``PointForecast``."""
    y = tuple(float(v) for v in y_prev)
    if state.sum and len(y) != len(state.sum):
        raise ShapeError("observation length changed mid-run")
    return PointForecast(state.forecast(y))


@dataclass
class EmpiricalDistributionState(_EveryStage):
    """I.i.d.-style baseline: forecast the empirical distribution of past outcomes."""

    prior: DiscreteDistribution
    counts: Counter = field(default_factory=Counter)

    PARAMS = {"profile": _PROFILE_OPENING}

    @classmethod
    def from_params(cls, params, rng, env, section) -> "EmpiricalDistributionState":
        return cls(prior=_opening_profile(params, env, section))

    def forecast(self, y_prev: object) -> Forecast:
        if y_prev is None:
            return self.prior
        return empirical_step(self, y_prev)


def empirical_step(state: EmpiricalDistributionState, c_prev: JointProfile) -> DiscreteDistribution:
    state.counts[c_prev] += 1
    return DiscreteDistribution.from_mapping(state.counts)


@dataclass
class KalmanPolicyState(_EveryStage):
    """Scalar filter over the latent level of the linear aggregate model.

    Tracks the one-step-ahead mean and variance of the latent level given all
    announced forecasts and observed outcomes so far.
    """

    beta: float
    gamma: float
    var_ex: float
    var_ey: float
    x_mean: float
    x_var: float
    a_prev: float = math.nan  # the forecast announced last

    PARAMS = {"point": LINEAR_PARAMS}

    def __post_init__(self) -> None:
        if self.beta == 1.0:
            raise InvalidParameterError("beta = 1 leaves no fixed point to target")
        if self.gamma == 0.0:
            raise InvalidParameterError("gamma must be nonzero")
        if self.var_ex < 0.0 or self.var_ey < 0.0 or self.x_var < 0.0:
            raise InvalidParameterError("variances must be nonnegative")

    @classmethod
    def from_params(cls, params, rng, env, section) -> "KalmanPolicyState":
        p = read_params(params, cls.PARAMS["point"], section, ("beta", "gamma", "x0_mean"))
        state, a0 = kalman_init(**{"var_ex": 0.0, "var_ey": 0.0, "x0_var": 0.0, **p})
        state.a_prev = a0
        return state

    def forecast(self, y_prev: tuple[float] | None) -> tuple[float]:
        if y_prev is not None:
            self.a_prev = kalman_step(self, self.a_prev, y_prev[0])
        return (self.a_prev,)

    def summary(self, w: str) -> dict[str, object]:
        return {"x_mean": self.x_mean, "x_var": self.x_var}


def kalman_init(
    beta: float,
    gamma: float,
    var_ex: float,
    var_ey: float,
    x0_mean: float,
    x0_var: float,
) -> tuple[KalmanPolicyState, float]:
    """State plus the opening forecast gamma * (1 - beta)^-1 * E(x0)."""
    state = KalmanPolicyState(
        beta=beta, gamma=gamma, var_ex=var_ex, var_ey=var_ey, x_mean=x0_mean, x_var=x0_var
    )
    return state, (gamma / (1.0 - beta)) * x0_mean


def kalman_step(state: KalmanPolicyState, a_prev: float, y_prev: float) -> float:
    """Filter the latest outcome and emit the variance-optimal next forecast."""
    g2s = state.gamma * state.gamma * state.x_var
    denom = g2s + state.var_ey
    if denom == 0.0:
        raise DegenerateGainError("gamma^2 * x_var + var_ey is zero")
    gain = state.gamma * state.x_var / denom
    # g2s / denom is exactly 1.0 when var_ey == 0, so the forecast update then
    # collapses bitwise to plain damping with alpha = (1 - beta)^-1.
    coef = (g2s / denom) / (1.0 - state.beta)
    a_next = a_prev + coef * (y_prev - a_prev)
    state.x_mean = state.x_mean + gain * (y_prev - state.gamma * state.x_mean - state.beta * a_prev)
    state.x_var = max(0.0, (1.0 - gain * state.gamma) * state.x_var) + state.var_ex
    return a_next


UpdateFn = Callable[[DiscreteDistribution, DiscreteDistribution], DiscreteDistribution]


def update_congestion(a: JointProfile, a_prime: JointProfile) -> JointProfile:
    """Take over a maximal collision-free subset of the changed responses.

    Players are visited in ascending index order. A player whose response
    actually changed is admitted only if its current slot differs from every
    admitted current slot and its new slot differs from every admitted new
    slot; stationary players keep their slot without occupying either set.
    """
    if len(a) != len(a_prime):
        raise ShapeError("profiles have different player counts")
    result = list(a.actions)
    sources: set[int] = set()
    targets: set[int] = set()
    for i in range(len(a)):
        if a_prime[i] == a[i]:
            continue
        if a[i] in sources or a_prime[i] in targets:
            continue
        sources.add(a[i])
        targets.add(a_prime[i])
        result[i] = a_prime[i]
    return JointProfile(tuple(result))


def _player_count(dist: DiscreteDistribution) -> int:
    profiles = [c for c in dist.support if isinstance(c, JointProfile)]
    if len(profiles) != len(dist.support):
        raise ShapeError("expected a distribution over joint profiles")
    n = len(profiles[0])
    if any(len(c) != n for c in profiles):
        raise ShapeError("profiles in one distribution must share the player count")
    return n


def _marginal(dist: DiscreteDistribution, i: int) -> dict[int, float]:
    out: dict[int, float] = {}
    for c, p in dist.items():
        out[c[i]] = out.get(c[i], 0.0) + p
    return out


def _marginals_differ(m1: Mapping[int, float], m2: Mapping[int, float]) -> bool:
    keys = set(m1) | set(m2)
    return any(abs(m1.get(k, 0.0) - m2.get(k, 0.0)) > DIST_EQ_TOL for k in keys)


def update_general(a: DiscreteDistribution, a_prime: DiscreteDistribution) -> DiscreteDistribution:
    """Swap in the first differing per-player marginal from a_prime.

    The new joint is the product of the swapped marginal with a's distribution
    over the remaining players; if no marginal differs beyond DIST_EQ_TOL, a is
    returned unchanged.
    """
    n = _player_count(a)
    if n != _player_count(a_prime):
        raise ShapeError("distributions are over different player sets")
    for i in range(n):
        new_marginal = _marginal(a_prime, i)
        if not _marginals_differ(_marginal(a, i), new_marginal):
            continue
        rest: dict[tuple[int, ...], float] = {}
        for c, p in a.items():
            key = c.actions[:i] + c.actions[i + 1 :]
            rest[key] = rest.get(key, 0.0) + p
        weights: dict[JointProfile, float] = {}
        for action, pa in new_marginal.items():
            for key, pr in rest.items():
                c = JointProfile(key[:i] + (action,) + key[i:])
                weights[c] = weights.get(c, 0.0) + pa * pr
        return DiscreteDistribution.from_mapping(weights)
    return a


def congestion_update_fn(
    a: DiscreteDistribution, a_prime: DiscreteDistribution
) -> DiscreteDistribution:
    """Apply the profile-level collision-free update to Dirac candidates."""
    if len(a.support) != 1 or len(a_prime.support) != 1:
        raise InvalidConfigError("the congestion update needs deterministic candidates")
    return DiscreteDistribution.dirac(update_congestion(a.support[0], a_prime.support[0]))


UPDATE_FNS: dict[str, UpdateFn] = {
    "congestion": congestion_update_fn,
    "general": update_general,
}


def _as_update(value: object, path: str) -> str:
    if value not in UPDATE_FNS:
        raise InvalidConfigError(f"{path}: {value!r} is not one of {sorted(UPDATE_FNS)}")
    return value  # type: ignore[return-value]


@dataclass
class PartpredState:
    """Group-wise trial of candidate forecasts until a fixed point is confirmed.

    Each candidate is announced for r consecutive stages; the empirical
    outcome distribution of that group then drives the next candidate via the
    configured update function. Once convergence is flagged the output never
    changes again.
    """

    candidates: Sequence[DiscreteDistribution]
    r: int
    update_fn: UpdateFn
    rng: np.random.Generator
    initial_index: int | None = None
    current: int = field(init=False)
    announce_counts: list[int] = field(init=False)
    tallies: list[Counter] = field(init=False)
    converged: bool = field(init=False, default=False)
    exploration_used: bool = field(init=False, default=False)
    update_log: list[int] = field(init=False)

    PARAMS = {"profile": {"r": as_int, "update": _as_update, "initial_index": as_int}}

    def __post_init__(self) -> None:
        if self.r < 1:
            raise InvalidConfigError("policy.r: group length must be at least 1")
        n = len(self.candidates)
        if not n:
            raise InvalidConfigError("partpred.candidates: empty candidate set")
        start = self.initial_index
        if start is None:
            start = int(self.rng.integers(n))
        elif not -n <= start < n:
            raise InvalidConfigError(f"policy.initial_index: {start} is outside the {n} candidates")
        self.current = start % n  # a negative index counts from the end
        self.announce_counts = [0] * n
        self.tallies = [Counter() for _ in range(n)]
        self.update_log = [self.current]

    @classmethod
    def from_params(cls, params, rng, env, section) -> "PartpredState":
        p = read_params(params, cls.PARAMS["profile"], section, ("r",))
        update = p.get("update", "congestion")
        if update == "congestion" and env.bayesian:
            raise InvalidConfigError(
                f"{section}.update: the congestion update needs a complete-information game"
            )
        return cls(
            candidates=analysis.candidate_set(env.game),
            r=p["r"],
            update_fn=UPDATE_FNS[update],
            rng=rng,
            initial_index=p.get("initial_index"),
        )

    def forecast(self, y_prev: object) -> Forecast:
        return partpred_step(self, y_prev)

    def hold(self) -> int:
        """The rest of the current group, or of the run once the search has converged."""
        if self.converged:
            return sys.maxsize
        return self.r - self.announce_counts[self.current] + 1

    def observe_held(self, ys: Sequence[JointProfile]) -> None:
        """Take the outcomes of held stages, as the skipped partpred_step calls would."""
        self.tallies[self.current].update(ys)
        if not self.converged:
            self.announce_counts[self.current] += len(ys)

    def summary(self, w: str) -> dict[str, object]:
        return {"converged": {str(w): self.converged}, "exploration_used": self.exploration_used}


def _argmin(dists: Mapping[int, float]) -> int:
    """Index of the smallest distance; ties go to the lowest index."""
    return min(dists, key=dists.__getitem__)


def _candidate_index(
    candidates: Sequence[DiscreteDistribution], dist: DiscreteDistribution
) -> int:
    for idx, cand in enumerate(candidates):
        if cand.close_to(dist):
            return idx
    raise InvalidConfigError("update produced a forecast outside the candidate set")


def partpred_step(state: PartpredState, c_observed: JointProfile | None) -> DiscreteDistribution:
    """Record the previous outcome, then announce this stage's candidate."""
    if c_observed is not None:
        state.tallies[state.current][c_observed] += 1
    candidates = state.candidates

    if state.converged:
        return candidates[state.current]

    if state.announce_counts[state.current] < state.r:
        state.announce_counts[state.current] += 1
        return candidates[state.current]

    # A full group of r outcomes has been observed under the current candidate.
    empirical = DiscreteDistribution.from_mapping(state.tallies[state.current])
    nearest = candidates[_argmin({
        idx: euclidean_distance(cand, empirical) for idx, cand in enumerate(candidates)
    })]
    updated = state.update_fn(candidates[state.current], nearest)
    new_idx = _candidate_index(candidates, updated)

    if new_idx == state.current:
        state.converged = True
    elif all(c >= state.r for c in state.announce_counts):
        state.current = _argmin({
            idx: euclidean_distance(cand, DiscreteDistribution.from_mapping(tally))
            for idx, (cand, tally) in enumerate(zip(candidates, state.tallies))
            if tally
        })
        state.converged = True
    elif state.announce_counts[new_idx] >= state.r:
        unused = [idx for idx, c in enumerate(state.announce_counts) if c == 0]
        state.exploration_used = True
        state.current = unused[int(state.rng.integers(len(unused)))]
        state.announce_counts[state.current] += 1
    else:
        state.current = new_idx
        state.announce_counts[state.current] += 1

    state.update_log.append(state.current)
    return candidates[state.current]


POLICIES = {
    "expodamp": ExpodampState,
    "average": AverageState,
    "naive": NaiveState,
    "kalman": KalmanPolicyState,
    "empirical": EmpiricalDistributionState,
    "partpred": PartpredState,
}
