"""Independent oracles and predicates for the game-theoretic claims.

Nash checks are brute force over all joint profiles, the potential is the
per-slot cumulative utility sum, and the fixed-point solver is a sign-scan
plus bisection. They call nothing in the policies or the engine, but code is
shared the other way: partpred walks the tuple of distributions that
``candidate_set`` returns, and the engine's ``nash`` loss calls ``is_nash`` or
``is_bne``. ``candidate_set`` builds that tuple once per game value and keeps
it for as long as the game object lives, so every run, config check and
re-run on one game shares it. ``prediction_equilibrium_report`` returns plain
tuples of profiles, one per property, filled in one pass over the game's
profiles.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from .core import (
    DiscreteDistribution,
    JointProfile,
    NoFixedPointError,
    TooLargeError,
    tv_distance,
)
from .environments import (
    BayesianCongestionGame,
    FiniteCongestionGame,
    bayes_response_distribution,
    play_profile,
)

ENUMERATION_GUARD = 10**6


def _slot_counts(game: FiniteCongestionGame, profile: JointProfile) -> list[int]:
    counts = [0] * game.d
    for c in profile.actions:
        counts[c] += 1
    return counts


def is_nash(game: FiniteCongestionGame, profile: JointProfile, strict: bool = False) -> bool:
    """No player has a strictly improving unilateral deviation.

    With strict=True every player's current slot must additionally be the
    unique best reply.
    """
    counts = _slot_counts(game, profile)
    for i, slot in enumerate(profile.actions):
        current = game.u(slot, counts[slot])
        for k in range(game.d):
            if k == slot:
                continue
            alternative = game.u(k, counts[k] + 1)
            if alternative > current:
                return False
            if strict and alternative >= current:
                return False
    return True


def _guard_size(game: FiniteCongestionGame) -> None:
    if game.d**game.n > ENUMERATION_GUARD:
        raise TooLargeError(f"{game.d}^{game.n} profiles exceed the enumeration guard")


def enumerate_nash(game: FiniteCongestionGame, strict: bool = False) -> list[JointProfile]:
    """All (pure) Nash profiles in lexicographic order, by exhaustive search."""
    _guard_size(game)
    return [c for c in game.profiles() if is_nash(game, c, strict=strict)]


def potential(game: FiniteCongestionGame, profile: JointProfile) -> float:
    """Cumulative-utility potential: sum over slots of u(k, 1) + ... + u(k, count)."""
    counts = _slot_counts(game, profile)
    return math.fsum(
        game.u(k, m) for k in range(game.d) for m in range(1, counts[k] + 1)
    )


def collision_free_check(
    players: Iterable[int], a: JointProfile, c: JointProfile
) -> bool:
    """True iff the players' source slots in a and target slots in c are each pairwise distinct."""
    members = list(players)
    sources = [a[i] for i in members]
    targets = [c[i] for i in members]
    return len(set(sources)) == len(sources) and len(set(targets)) == len(targets)


def is_self_fulfilling(
    env_response: Callable[[DiscreteDistribution], DiscreteDistribution],
    a: DiscreteDistribution,
    tol: float = 0.0,
) -> bool:
    """Forecast reproduces itself: tv(response(a), a) <= tol."""
    return tv_distance(env_response(a), a) <= tol


def fixed_point_solve(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iter: int = 200,
    scan_intervals: int = 1024,
) -> float:
    """Point a in [lo, hi] with |f(a) - a| <= tol.

    A uniform sign scan locates brackets of g(a) = f(a) - a; each bracket is
    bisected. A scan point already within tol is returned as-is, so the
    identity map yields lo. Maps whose only diagonal crossing is a jump
    raise NoFixedPointError.
    """
    if tol <= 0.0:
        raise NoFixedPointError("tol must be positive")
    points = [lo + (hi - lo) * k / scan_intervals for k in range(scan_intervals + 1)]
    residuals = [f(p) - p for p in points]
    for k in range(scan_intervals + 1):
        if abs(residuals[k]) <= tol:
            return points[k]
        if k < scan_intervals and residuals[k] * residuals[k + 1] < 0.0:
            a, b = points[k], points[k + 1]
            ga = residuals[k]
            for _ in range(max_iter):
                mid = 0.5 * (a + b)
                gm = f(mid) - mid
                if abs(gm) <= tol:
                    return mid
                if ga * gm < 0.0:
                    b = mid
                else:
                    a, ga = mid, gm
            # the bracket pinched down without the residual vanishing: a jump
    raise NoFixedPointError(f"no point with residual <= {tol} on [{lo}, {hi}]")


# Games are frozen dataclasses: equal games share an entry, which lives as long as its key.
_CANDIDATES = weakref.WeakKeyDictionary()


def candidate_set(
    game: FiniteCongestionGame | BayesianCongestionGame,
) -> tuple[DiscreteDistribution, ...]:
    """All candidate forecasts the search policy may announce.

    Complete information: the Dirac on every joint profile, lexicographic.
    Bayesian: the outcome distribution of every deterministic strategy
    profile under the type prior, deduplicated within 1e-9.

    The tuple is built once per game value and memoised for the lifetime of
    the game object that first asked for it; every caller with an equal game
    shares it, so no caller may change it. A game over the enumeration guard
    raises TooLargeError on every call and stores nothing.
    """
    candidates = _CANDIDATES.get(game)
    if candidates is None:
        candidates = _CANDIDATES[game] = _build_candidate_set(game)
    return candidates


def _build_candidate_set(
    game: FiniteCongestionGame | BayesianCongestionGame,
) -> tuple[DiscreteDistribution, ...]:
    if isinstance(game, FiniteCongestionGame):
        _guard_size(game)
        return tuple(DiscreteDistribution.dirac(c) for c in game.profiles())
    candidates: list[DiscreteDistribution] = []
    for strategy in strategy_profiles(game):
        dist = strategy_outcome_distribution(game, strategy)
        if not any(dist.close_to(seen) for seen in candidates):
            candidates.append(dist)
    return tuple(candidates)


# --- Bayesian-game machinery -------------------------------------------------

StrategyProfile = tuple[tuple[int, ...], ...]  # per player: slot chosen for each type


def strategy_profiles(game: BayesianCongestionGame) -> Iterable[StrategyProfile]:
    """All deterministic type -> slot strategy profiles, enumeration order fixed."""
    per_player = []
    total = 1
    for probs in game.type_probs:
        strategies = list(product(range(game.d), repeat=len(probs)))
        total *= len(strategies)
        if total > ENUMERATION_GUARD:
            raise TooLargeError("strategy profile space exceeds the enumeration guard")
        per_player.append(strategies)
    return product(*per_player)


def strategy_outcome_distribution(
    game: BayesianCongestionGame, strategy: StrategyProfile
) -> DiscreteDistribution:
    """Distribution of the joint action when everyone plays the given strategy."""
    weights: dict[JointProfile, float] = {}
    for combo, prob in game.type_combos():
        if prob == 0.0:
            continue
        c = JointProfile(tuple(strategy[i][combo[i]] for i in range(game.n)))
        weights[c] = weights.get(c, 0.0) + prob
    return DiscreteDistribution.from_mapping(weights)


def is_bne(
    game: BayesianCongestionGame, strategy: StrategyProfile, strict: bool = False
) -> bool:
    """Bayesian Nash check: no type of any player gains by a unilateral deviation."""
    for i in range(game.n):
        others = [j for j in range(game.n) if j != i]
        other_combos = list(product(*(range(len(game.type_probs[j])) for j in others)))
        for theta in range(len(game.type_probs[i])):
            eus = []
            for k in range(game.d):
                eu = 0.0
                for combo in other_combos:
                    prob = 1.0
                    count = 1  # player i itself
                    for j, theta_j in zip(others, combo):
                        prob *= game.type_probs[j][theta_j]
                        if strategy[j][theta_j] == k:
                            count += 1
                    if prob > 0.0:
                        eu += prob * game.u(i, theta, k, count)
                eus.append(eu)
            chosen = strategy[i][theta]
            if any(eus[k] > eus[chosen] for k in range(game.d) if k != chosen):
                return False
            if strict and any(
                eus[k] >= eus[chosen] for k in range(game.d) if k != chosen
            ):
                return False
    return True


def enumerate_bne(
    game: BayesianCongestionGame, strict: bool = False
) -> list[StrategyProfile]:
    return [s for s in strategy_profiles(game) if is_bne(game, s, strict=strict)]


def bayes_self_fulfilling_candidates(
    game: BayesianCongestionGame, tol: float = 1e-12
) -> list[DiscreteDistribution]:
    """Candidates whose induced outcome distribution equals the candidate itself."""
    out = []
    for cand in candidate_set(game):
        if tv_distance(bayes_response_distribution(game, cand), cand) <= tol:
            out.append(cand)
    return out


# --- Correspondence report ----------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    """Self-fulfilling forecasts versus Nash profiles over the whole candidate set.

    Each field lists profiles in lexicographic order. A sound game must show
    every self-fulfilling Dirac sitting on a Nash profile and every strict
    Nash profile being self-fulfilling. Non-strict equilibria may
    legitimately fail to be self-fulfilling under the deterministic
    tie-break, so they are counted separately rather than flagged.
    """

    nash: tuple[JointProfile, ...]
    strict_nash: tuple[JointProfile, ...]
    self_fulfilling: tuple[JointProfile, ...]
    sf_not_ne: tuple[JointProfile, ...]
    strict_ne_not_sf: tuple[JointProfile, ...]

    @property
    def ok(self) -> bool:
        return not self.sf_not_ne and not self.strict_ne_not_sf


def prediction_equilibrium_report(game: FiniteCongestionGame) -> CorrespondenceReport:
    """Verify the forecast/equilibrium correspondence on one game by brute force."""
    _guard_size(game)
    found = [], [], [], [], []  # the report's fields, in order
    for c in game.profiles():
        sf = play_profile(game, DiscreteDistribution.dirac(c)) == c
        ne = is_nash(game, c)
        strict = ne and is_nash(game, c, strict=True)
        for holds, profiles in zip((ne, strict, sf, sf and not ne, strict and not sf), found):
            if holds:
                profiles.append(c)
    return CorrespondenceReport(*map(tuple, found))
