import math
import re
from itertools import product

import numpy as np
import pytest

from crowdcast.analysis import enumerate_nash, is_nash
from crowdcast.core import DiscreteDistribution, InvalidParameterError, JointProfile, ShapeError
from crowdcast.environments import (
    BayesianCongestionGame,
    FiniteCongestionGame,
    LinearAggregateEnv,
    NonatomicPopulation,
    bayes_play_profile,
    bayes_response_distribution,
    best_response,
    crowding_game,
    forecast_mean,
    linear_step,
    nonatomic_response_closed,
    nonatomic_response_numeric,
    play_profile,
)
from crowdcast.policies import naive_step

D = DiscreteDistribution
J = JointProfile


def make_env(beta, gamma, x0, var_ex=0.0, var_ey=0.0, seed=0, x0_var=0.0):
    return LinearAggregateEnv.create(
        beta=beta, gamma=gamma, x0_mean=x0, x0_var=x0_var,
        var_ex=var_ex, var_ey=var_ey, rng=np.random.default_rng(seed),
    )


class TestLinearAggregateEnv:
    def test_self_fulfilling_point(self):
        env = make_env(beta=0.5, gamma=0.5, x0=0.4)
        assert linear_step(env, 0.4) == pytest.approx(0.4)

    def test_zero_forecast_exposes_latent_level(self):
        env = make_env(beta=0.5, gamma=0.5, x0=0.4)
        assert linear_step(env, 0.0) == pytest.approx(0.2)

    def test_no_feedback_is_classical_series(self):
        env = make_env(beta=0.0, gamma=1.0, x0=0.7)
        assert linear_step(env, 123.0) == pytest.approx(0.7)

    def test_affine_when_noise_free(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            beta, gamma = rng.normal(), rng.normal()
            x0, a = rng.normal(), rng.normal()
            env = make_env(beta=beta, gamma=gamma, x0=x0)
            assert linear_step(env, a) == beta * a + gamma * x0

    def test_first_stage_does_not_advance_the_latent_level(self):
        env = make_env(beta=0.5, gamma=1.0, x0=2.0, var_ex=100.0, seed=1)
        assert linear_step(env, 0.0) == pytest.approx(2.0)
        assert linear_step(env, 0.0) != pytest.approx(2.0)

    def test_seed_reproducibility(self):
        draws = []
        for _ in range(2):
            env = make_env(beta=0.2, gamma=0.8, x0=1.0, var_ex=0.5, var_ey=0.5, seed=12)
            draws.append([linear_step(env, 0.3) for _ in range(10)])
        assert draws[0] == draws[1]

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_env(beta=0.5, gamma=0.5, x0=0.0, var_ex=-1.0)


class TestNonatomicResponse:
    def test_half_band_above_threshold(self):
        pop = NonatomicPopulation(phi=0.0, chi=-0.5, delta=0.25, x=0.5)
        assert nonatomic_response_numeric(pop, 0.3) == pytest.approx(0.5, abs=2.5e-3)
        assert nonatomic_response_closed(pop, 0.3) == pytest.approx(0.5)

    def test_saturation(self):
        pop = NonatomicPopulation(phi=0.0, chi=100.0, delta=0.25, x=0.5)
        assert nonatomic_response_numeric(pop, 0.0) == 1.0
        assert nonatomic_response_closed(pop, 0.0) == 1.0
        pop = NonatomicPopulation(phi=0.0, chi=-100.0, delta=0.25, x=0.5)
        assert nonatomic_response_numeric(pop, 0.0) == 0.0
        assert nonatomic_response_closed(pop, 0.0) == 0.0

    def test_closed_matches_numeric_oracle(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(200):
            delta = float(rng.uniform(0.05, 0.45))
            pop = NonatomicPopulation(
                phi=float(rng.uniform(-2, 2)),
                chi=float(rng.uniform(-2, 2)),
                delta=delta,
                x=float(rng.uniform(delta, 1 - delta)),
            )
            mean_a = float(rng.uniform(0, 1))
            diff = abs(
                nonatomic_response_closed(pop, mean_a)
                - nonatomic_response_numeric(pop, mean_a)
            )
            worst = max(worst, diff)
        assert worst <= 2.5e-3

    def test_monotone_in_forecast_mean(self):
        pop_up = NonatomicPopulation(phi=1.5, chi=-1.0, delta=0.3, x=0.5)
        ys = [nonatomic_response_closed(pop_up, m) for m in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        pop_down = NonatomicPopulation(phi=-1.5, chi=0.5, delta=0.3, x=0.5)
        ys = [nonatomic_response_closed(pop_down, m) for m in np.linspace(0, 1, 50)]
        assert all(b <= a for a, b in zip(ys, ys[1:]))

    def test_distribution_forecast_uses_its_mean(self):
        pop = NonatomicPopulation(phi=1.0, chi=-0.6, delta=0.25, x=0.5)
        dist = D((0.2, 0.6), (0.5, 0.5))
        assert forecast_mean(dist) == pytest.approx(0.4)
        assert nonatomic_response_numeric(pop, dist) == nonatomic_response_numeric(pop, 0.4)

    def test_band_parameters_validated(self):
        with pytest.raises(InvalidParameterError):
            NonatomicPopulation(phi=0.0, chi=0.0, delta=0.6, x=0.5)
        with pytest.raises(InvalidParameterError):
            NonatomicPopulation(phi=0.0, chi=0.0, delta=0.3, x=0.1)


class TestBestResponse:
    def test_avoids_the_crowd(self):
        game = crowding_game(2, 2)
        assert best_response(0, game, D.dirac(J((0, 0)))) == 1
        assert best_response(0, game, D.dirac(J((1, 1)))) == 0

    def test_tie_breaks_to_lowest_slot(self):
        flat = FiniteCongestionGame(n=2, d=2, utility=((1.0, 1.0), (1.0, 1.0)))
        assert best_response(0, flat, D.dirac(J((1, 1)))) == 0

    def test_own_entry_in_belief_ignored(self):
        game = crowding_game(2, 2)
        # both beliefs say the other player sits at slot 0
        assert best_response(0, game, D.dirac(J((0, 0)))) == best_response(
            0, game, D.dirac(J((1, 0)))
        )


def own_view_count(profile, i, slot):
    """Occupants player i expects at a slot if joining it: the others there plus itself."""
    return sum(1 for j, c in enumerate(profile.actions) if j != i and c == slot) + 1


def reference_best_response(i, game, belief, theta=0):
    """Per-entry recount of every (slot, believed profile) pair; ties to the lowest slot."""
    rows = game.utility[i][theta] if isinstance(game, BayesianCongestionGame) else game.utility
    best_slot, best_eu = 0, -math.inf
    for k, row in enumerate(rows):
        eu = math.fsum(p * row[own_view_count(c, i, k) - 1] for c, p in belief.items())
        if eu > best_eu:
            best_slot, best_eu = k, eu
    return best_slot


def random_beliefs(game, rng, count):
    """Beliefs over 1-5 distinct profiles; every other one uniform, so expected counts can tie."""
    profiles = list(product(range(game.d), repeat=game.n))
    beliefs = []
    for b in range(count):
        size = int(rng.integers(1, min(5, len(profiles)) + 1))
        picks = rng.choice(len(profiles), size=size, replace=False)
        weights = np.ones(size) if b % 2 else rng.random(size) + 0.05
        probs = [float(w) for w in weights / weights.sum()]
        beliefs.append(D(tuple(J(profiles[k]) for k in picks), tuple(probs)))
    return beliefs


class TestMixedBeliefsMatchReference:
    FLAT = FiniteCongestionGame(n=2, d=2, utility=((1.0, 1.0), (1.0, 1.0)))

    def test_complete_information_games(self, game_corpus):
        rng = np.random.default_rng(4401)
        for game in [*game_corpus, crowding_game(5, 3), self.FLAT]:
            for belief in random_beliefs(game, rng, 8):
                expected = tuple(reference_best_response(i, game, belief) for i in range(game.n))
                assert tuple(best_response(i, game, belief) for i in range(game.n)) == expected
                assert play_profile(game, belief) == J(expected)

    def test_bayesian_games(self, bayes_corpus):
        rng = np.random.default_rng(4402)
        for game in bayes_corpus:
            for belief in random_beliefs(game, rng, 8):
                for i in range(game.n):
                    for theta in range(len(game.type_probs[i])):
                        assert best_response(i, game, belief, theta) == reference_best_response(
                            i, game, belief, theta
                        )
                for combo, _ in game.type_combos():
                    expected = tuple(
                        reference_best_response(i, game, belief, combo[i]) for i in range(game.n)
                    )
                    assert bayes_play_profile(game, belief, combo) == J(expected)


class TestPlayProfile:
    @pytest.mark.parametrize("actions", [(0, 5), (0,), (0, 1, 1)])
    def test_belief_that_does_not_fit_the_game_is_rejected(self, actions):
        with pytest.raises(ShapeError, match=re.escape(f"believed profile {actions}")):
            play_profile(crowding_game(2, 2), D.dirac(J(actions)))

    def test_overshoot_from_empty_forecast(self):
        game = crowding_game(2, 2)
        assert play_profile(game, D.dirac(J((0, 0)))) == J((1, 1))
        assert play_profile(game, D.dirac(J((1, 1)))) == J((0, 0))

    def test_strict_equilibrium_is_fixed_point(self):
        game = crowding_game(2, 2)
        for c in enumerate_nash(game, strict=True):
            assert play_profile(game, D.dirac(c)) == c

    def test_fixed_point_iff_tie_stable_equilibrium(self, game_corpus):
        for game in game_corpus[:40]:
            for c in game.profiles():
                fixed = play_profile(game, D.dirac(c)) == c
                strict = is_nash(game, c, strict=True)
                if strict:
                    assert fixed
                if fixed:
                    assert is_nash(game, c)

    def test_flapping_for_100_stages(self):
        game = crowding_game(2, 2)
        forecast = D.dirac(J((0, 0)))
        seen = []
        for _ in range(100):
            c = play_profile(game, forecast)
            seen.append(c)
            forecast = naive_step(c)
        assert all(c == J((1, 1)) for c in seen[0::2])
        assert all(c == J((0, 0)) for c in seen[1::2])


class TestBayesianGame:
    @staticmethod
    def coordination_game():
        # both types of both players prefer an empty slot, type shifts the scale
        def block(scale):
            return ((2.0 * scale, -1.0), (1.0 * scale, -2.0))

        return BayesianCongestionGame(
            d=2,
            type_probs=((0.5, 0.5), (0.5, 0.5)),
            utility=(
                (block(1.0), block(2.0)),
                (block(1.0), block(2.0)),
            ),
        )

    def test_play_profile_depends_on_types(self):
        game = self.coordination_game()
        belief = D.dirac(J((0, 1)))
        c = bayes_play_profile(game, belief, (0, 0))
        assert len(c) == 2

    def test_response_distribution_is_exact(self):
        game = self.coordination_game()
        belief = D.dirac(J((0, 1)))
        dist = bayes_response_distribution(game, belief)
        # equals the type-weighted mixture of per-type plays
        weights = {}
        for combo, prob in game.type_combos():
            c = bayes_play_profile(game, belief, combo)
            weights[c] = weights.get(c, 0.0) + prob
        for c, p in dist.items():
            assert p == pytest.approx(weights[c])

    def test_shape_validation(self):
        with pytest.raises(Exception):
            BayesianCongestionGame(d=2, type_probs=((0.5, 0.5),), utility=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_type_probability_rejected(self, bad):
        game = self.coordination_game()
        with pytest.raises(InvalidParameterError, match="type prior of player 0"):
            BayesianCongestionGame(d=2, type_probs=((bad, 0.5), (0.5, 0.5)), utility=game.utility)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_utility_rejected(self, bad):
        game = self.coordination_game()
        utility = (game.utility[0], (((bad, -1.0), (1.0, -2.0)), game.utility[1][1]))
        with pytest.raises(InvalidParameterError, match="player 1: utilities must be finite"):
            BayesianCongestionGame(d=2, type_probs=game.type_probs, utility=utility)
