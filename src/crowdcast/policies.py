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
- ``forecast(w, y_prev)`` announces the forecast for covariate w, given the
  previous stage's outcome (None on the first stage); point policies take and
  announce bare value tuples, the ``values`` of a ``PointForecast``;
- ``hold()``, asked right after ``forecast``, is the number of coming stages,
  the one just announced included, over which the policy will announce that
  same forecast whatever it observes; the loop skips ``forecast`` on the
  held stages and, where ``hold()`` exceeds 1, hands their outcomes over in
  one ``observe_held(ys)`` call;
- ``summary()`` reports the final internal flags.

``POLICIES`` maps each policy name to its class. The update rules themselves
are step functions (``expodamp_step``, ``kalman_step``, ...) that ``forecast``
calls. A state instance belongs to a single run; distinct instances are
independent.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import analysis
from .core import (
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

    def summary(self) -> dict[str, object]:
        return {}


@dataclass
class ExpodampState(_EveryStage):
    """Damped forecast update: move the forecast a fraction alpha toward the outcome."""

    a: PointForecast
    alpha: float

    PARAMS = {"point": {"alpha": as_float, "initial": as_floats}}
    OPENING = "initial"

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise InvalidParameterError("alpha must be finite")

    @classmethod
    def from_params(cls, params, rng, env, section) -> "ExpodampState":
        p = read_params(params, cls.PARAMS["point"], section, ("alpha",))
        return cls(a=PointForecast(_opening_point(cls, p, env, section)), alpha=p["alpha"])

    def forecast(self, w: str, y_prev: tuple[float, ...] | None) -> tuple[float, ...]:
        if y_prev is None:
            return self.a.values
        return expodamp_step(self, y_prev).values


def expodamp_step(state: ExpodampState, y_prev: Sequence[float]) -> PointForecast:
    """a <- a + alpha * (y_prev - a), componentwise."""
    y = tuple(float(v) for v in y_prev)
    if len(y) != len(state.a):
        raise ShapeError(f"forecast has {len(state.a)} entries, observation has {len(y)}")
    new = PointForecast(
        tuple(av + state.alpha * (yv - av) for av, yv in zip(state.a.values, y))
    )
    state.a = new
    return new


def naive_step(y_prev: object) -> Forecast:
    """Yesterday's outcome as today's forecast (Dirac for joint-action outcomes)."""
    if y_prev is None:
        raise NeedsInitialForecastError("no observation yet; configure an initial forecast")
    if isinstance(y_prev, JointProfile):
        return DiscreteDistribution.dirac(y_prev)
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

    def forecast(self, w: str, y_prev: object) -> tuple[float, ...] | DiscreteDistribution:
        if y_prev is None:
            return self.initial
        a = naive_step(y_prev)
        return a.values if isinstance(a, PointForecast) else a


@dataclass
class AverageState(_EveryStage):
    """Running-mean forecast; a configured prior is used before two observations exist."""

    prior: PointForecast
    sum: list[float] = field(default_factory=list)
    count: int = 0

    PARAMS = {"point": {"prior": as_floats}}
    OPENING = "prior"

    @classmethod
    def from_params(cls, params, rng, env, section) -> "AverageState":
        p = read_params(params, cls.PARAMS["point"], section)
        return cls(prior=PointForecast(_opening_point(cls, p, env, section)))

    def forecast(self, w: str, y_prev: tuple[float, ...] | None) -> tuple[float, ...]:
        if y_prev is None:
            return self.prior.values
        return average_step(self, y_prev).values


def average_step(state: AverageState, y_prev: Sequence[float]) -> PointForecast:
    y = tuple(float(v) for v in y_prev)
    if not state.sum:
        state.sum = [0.0] * len(y)
    if len(y) != len(state.sum):
        raise ShapeError("observation length changed mid-run")
    for idx, v in enumerate(y):
        state.sum[idx] += v
    state.count += 1
    if state.count < 2:
        return state.prior
    return PointForecast(tuple(s / state.count for s in state.sum))


@dataclass
class EmpiricalDistributionState(_EveryStage):
    """I.i.d.-style baseline: forecast the empirical distribution of past outcomes."""

    prior: DiscreteDistribution
    counts: Counter = field(default_factory=Counter)

    PARAMS = {"profile": _PROFILE_OPENING}

    @classmethod
    def from_params(cls, params, rng, env, section) -> "EmpiricalDistributionState":
        return cls(prior=_opening_profile(params, env, section))

    def forecast(self, w: str, y_prev: object) -> Forecast:
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

    def forecast(self, w: str, y_prev: tuple[float] | None) -> tuple[float]:
        if y_prev is not None:
            self.a_prev = kalman_step(self, self.a_prev, y_prev[0])
        return (self.a_prev,)

    def summary(self) -> dict[str, object]:
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


def _marginals_differ(m1: Mapping[int, float], m2: Mapping[int, float], tol: float) -> bool:
    keys = set(m1) | set(m2)
    return any(abs(m1.get(k, 0.0) - m2.get(k, 0.0)) > tol for k in keys)


def update_general(
    a: DiscreteDistribution, a_prime: DiscreteDistribution, tol: float = 1e-9
) -> DiscreteDistribution:
    """Swap in the first differing per-player marginal from a_prime.

    The new joint is the product of the swapped marginal with a's distribution
    over the remaining players; if no marginal differs beyond tol, a is
    returned unchanged.
    """
    n = _player_count(a)
    if n != _player_count(a_prime):
        raise ShapeError("distributions are over different player sets")
    for i in range(n):
        new_marginal = _marginal(a_prime, i)
        if not _marginals_differ(_marginal(a, i), new_marginal, tol):
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
class _CovariateSearch:
    """Per-covariate bookkeeping of the candidate search."""

    candidates: list[DiscreteDistribution]
    current: int
    announce_counts: list[int]
    tallies: list[Counter]
    converged: bool = False
    exploration_used: bool = False
    update_log: list[int] = field(default_factory=list)


@dataclass
class PartpredState:
    """Group-wise trial of candidate forecasts until a fixed point is confirmed.

    Each candidate is announced for r consecutive stages of its covariate;
    the empirical outcome distribution of that group then drives the next
    candidate via the configured update function. Once convergence is
    flagged for a covariate its output never changes again.
    """

    candidates: Sequence[DiscreteDistribution]
    r: int
    update_fn: UpdateFn
    rng: np.random.Generator
    initial_index: int | None = None
    per_w: dict[Hashable, _CovariateSearch] = field(default_factory=dict)
    last_w: Hashable | None = None

    PARAMS = {"profile": {"r": as_int, "update": _as_update, "initial_index": as_int}}

    def __post_init__(self) -> None:
        if self.r < 1:
            raise InvalidConfigError("policy.r: group length must be at least 1")
        n = len(self.candidates)
        if not n:
            raise InvalidConfigError("partpred.candidates: empty candidate set")
        if self.initial_index is not None and not -n <= self.initial_index < n:
            raise InvalidConfigError(
                f"policy.initial_index: {self.initial_index} is outside the {n} candidates"
            )

    @classmethod
    def from_params(cls, params, rng, env, section) -> "PartpredState":
        p = read_params(params, cls.PARAMS["profile"], section, ("r",))
        update = p.get("update", "congestion")
        if update == "congestion" and env.bayesian:
            raise InvalidConfigError(
                f"{section}.update: the congestion update needs a complete-information game"
            )
        return cls(
            candidates=list(analysis.candidate_set(env.game)),
            r=p["r"],
            update_fn=UPDATE_FNS[update],
            rng=rng,
            initial_index=p.get("initial_index"),
        )

    def forecast(self, w: str, y_prev: object) -> Forecast:
        return partpred_step(self, w, y_prev)

    def hold(self) -> int:
        """The rest of the current group, or of the run once the search has converged."""
        search = self.per_w[self.last_w]
        if search.converged:
            return sys.maxsize
        return self.r - search.announce_counts[search.current] + 1

    def observe_held(self, ys: Sequence[JointProfile]) -> None:
        """Take the outcomes of held stages, as the skipped partpred_step calls would."""
        search = self.per_w[self.last_w]
        search.tallies[search.current].update(ys)
        if not search.converged:
            search.announce_counts[search.current] += len(ys)

    def summary(self) -> dict[str, object]:
        return {
            "converged": {str(w): s.converged for w, s in self.per_w.items()},
            "exploration_used": self.exploration_used_anywhere(),
        }

    def _search_for(self, w: Hashable) -> _CovariateSearch:
        search = self.per_w.get(w)
        if search is None:
            cands = list(self.candidates)
            start = self.initial_index
            if start is None:
                start = int(self.rng.integers(len(cands)))
            search = _CovariateSearch(
                candidates=cands,
                current=start,
                announce_counts=[0] * len(cands),
                tallies=[Counter() for _ in cands],
            )
            search.update_log.append(start)
            self.per_w[w] = search
        return search

    def exploration_used_anywhere(self) -> bool:
        return any(s.exploration_used for s in self.per_w.values())


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


def partpred_step(
    state: PartpredState, w: Hashable, c_observed: JointProfile | None
) -> DiscreteDistribution:
    """Record the previous outcome, then announce this stage's candidate for w."""
    if c_observed is not None and state.last_w is not None:
        prev = state.per_w[state.last_w]
        prev.tallies[prev.current][c_observed] += 1
    search = state._search_for(w)
    state.last_w = w

    if search.converged:
        return search.candidates[search.current]

    if search.announce_counts[search.current] < state.r:
        search.announce_counts[search.current] += 1
        return search.candidates[search.current]

    # A full group of r outcomes has been observed under the current candidate.
    empirical = DiscreteDistribution.from_mapping(search.tallies[search.current])
    nearest = search.candidates[_argmin({
        idx: euclidean_distance(cand, empirical) for idx, cand in enumerate(search.candidates)
    })]
    updated = state.update_fn(search.candidates[search.current], nearest)
    new_idx = _candidate_index(search.candidates, updated)

    if new_idx == search.current:
        search.converged = True
    elif all(c >= state.r for c in search.announce_counts):
        search.current = _argmin({
            idx: euclidean_distance(cand, DiscreteDistribution.from_mapping(tally))
            for idx, (cand, tally) in enumerate(zip(search.candidates, search.tallies))
            if tally
        })
        search.converged = True
    elif search.announce_counts[new_idx] >= state.r:
        unused = [idx for idx, c in enumerate(search.announce_counts) if c == 0]
        search.exploration_used = True
        search.current = unused[int(state.rng.integers(len(unused)))]
        search.announce_counts[search.current] += 1
    else:
        search.current = new_idx
        search.announce_counts[search.current] += 1

    search.update_log.append(search.current)
    return search.candidates[search.current]


POLICIES = {
    "expodamp": ExpodampState,
    "average": AverageState,
    "naive": NaiveState,
    "kalman": KalmanPolicyState,
    "empirical": EmpiricalDistributionState,
    "partpred": PartpredState,
}
