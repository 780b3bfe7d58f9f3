"""Shared seeded test corpora.

Corpus utilities are distinct dyadic rationals (integers over 8), so
potential sums are exact in float64 and no two utility cells ever tie;
every equilibrium in these games is therefore strict.
"""

from __future__ import annotations

import numpy as np
import pytest

from crowdcast import analysis
from crowdcast.analysis import enumerate_bne
from crowdcast.environments import BayesianCongestionGame, FiniteCongestionGame

CORPUS_SIZE = 200


def make_congestion_game(seed: int, n: int | None = None, d: int | None = None) -> FiniteCongestionGame:
    rng = np.random.default_rng((77_000, seed))
    n = n if n is not None else int(rng.integers(2, 5))
    d = d if d is not None else int(rng.integers(2, 4))
    values = rng.choice(np.arange(-160, 160), size=n * d, replace=False)
    rows = []
    for k in range(d):
        chunk = sorted(values[k * n : (k + 1) * n], reverse=True)
        rows.append(tuple(float(v) / 8.0 for v in chunk))
    return FiniteCongestionGame(n=n, d=d, utility=tuple(rows))


@pytest.fixture(scope="session")
def game_corpus() -> list[FiniteCongestionGame]:
    return [make_congestion_game(seed) for seed in range(CORPUS_SIZE)]


def make_bayes_game(seed: int) -> BayesianCongestionGame | None:
    """2 players x 2 equiprobable types x 2 slots; None when no strict BNE exists."""
    rng = np.random.default_rng((88_000, seed))
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
    game = BayesianCongestionGame(
        d=2, type_probs=((0.5, 0.5), (0.5, 0.5)), utility=utility
    )
    if not enumerate_bne(game, strict=True):
        return None
    return game


@pytest.fixture(scope="session")
def bayes_corpus() -> list[BayesianCongestionGame]:
    games = []
    seed = 0
    while len(games) < 20:
        game = make_bayes_game(seed)
        if game is not None:
            games.append(game)
        seed += 1
        if seed > 500:
            raise RuntimeError("could not assemble the Bayesian game corpus")
    return games


@pytest.fixture
def candidate_builds(monkeypatch) -> list:
    """The games whose candidate set is built, not found in the memo, one entry per build."""
    builds = []
    build = analysis._build_candidate_set

    def counted(game):
        builds.append(game)
        return build(game)

    monkeypatch.setattr(analysis, "_build_candidate_set", counted)
    return builds
