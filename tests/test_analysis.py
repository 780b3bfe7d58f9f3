import dataclasses
import gc
from itertools import product

import numpy as np
import pytest

from crowdcast import analysis
from crowdcast.analysis import (
    NoFixedPointError,
    bayes_self_fulfilling_candidates,
    candidate_set,
    collision_free_check,
    enumerate_bne,
    enumerate_nash,
    fixed_point_solve,
    is_bne,
    is_nash,
    is_self_fulfilling,
    potential,
    prediction_equilibrium_report,
    strategy_outcome_distribution,
    strategy_profiles,
)
from crowdcast.core import DiscreteDistribution, JointProfile, TooLargeError
from crowdcast.environments import (
    BayesianCongestionGame,
    FiniteCongestionGame,
    NonatomicPopulation,
    crowding_game,
    nonatomic_response_closed,
    play_profile,
)

D = DiscreteDistribution
J = JointProfile


def constant_game(n=2, d=2, value=1.0):
    row = tuple(value for _ in range(n))
    return FiniteCongestionGame(n=n, d=d, utility=tuple(row for _ in range(d)))


class TestIsNash:
    def test_spread_profile_is_strict(self):
        game = crowding_game(2, 2)
        assert is_nash(game, J((0, 1)))
        assert is_nash(game, J((0, 1)), strict=True)

    def test_clustered_profile_is_not(self):
        game = crowding_game(2, 2)
        assert not is_nash(game, J((0, 0)))

    def test_single_player_picks_best_slot(self):
        game = FiniteCongestionGame(n=1, d=3, utility=((1.0,), (5.0,), (3.0,)))
        assert enumerate_nash(game) == [J((1,))]
        assert enumerate_nash(game, strict=True) == [J((1,))]


class TestEnumerateNash:
    def test_two_player_crowding(self):
        assert [c.actions for c in enumerate_nash(crowding_game(2, 2))] == [(0, 1), (1, 0)]

    def test_constant_utilities_all_profiles_weakly_stable(self):
        game = constant_game()
        assert len(enumerate_nash(game)) == 4
        assert enumerate_nash(game, strict=True) == []

    def test_three_player_spread(self):
        game = crowding_game(3, 3)
        nes = enumerate_nash(game)
        expected = sorted(J(p) for p in product(range(3), repeat=3) if len(set(p)) == 3)
        assert nes == expected

    def test_size_guard(self):
        big = crowding_game(30, 2)
        with pytest.raises(TooLargeError):
            enumerate_nash(big)


class TestPotential:
    def test_shared_slot_sums_counts(self):
        game = crowding_game(2, 2)
        assert potential(game, J((1, 1))) == -3.0
        assert potential(game, J((1, 0))) == -2.0

    def test_empty_slots_contribute_zero(self):
        game = crowding_game(2, 3)
        assert potential(game, J((0, 0))) == potential(crowding_game(2, 2), J((0, 0)))

    def test_deviation_identity_on_small_corpus(self, game_corpus):
        for game in game_corpus[:30]:
            pots = {c: potential(game, c) for c in game.profiles()}
            for c in game.profiles():
                for i in range(game.n):
                    counts = [0] * game.d
                    for slot in c.actions:
                        counts[slot] += 1
                    for k in range(game.d):
                        if k == c[i]:
                            continue
                        c2 = J(c.actions[:i] + (k,) + c.actions[i + 1 :])
                        du = game.u(k, counts[k] + 1) - game.u(c[i], counts[c[i]])
                        assert pots[c2] - pots[c] == du


class TestCollisionFree:
    def test_singleton_always_free(self):
        assert collision_free_check([0], J((0, 0)), J((1, 1)))

    def test_shared_source_blocked(self):
        assert not collision_free_check([0, 1], J((0, 0)), J((1, 0)))

    def test_disjoint_moves_free(self):
        assert collision_free_check([0, 1], J((0, 1)), J((1, 0)))


class TestSelfFulfilling:
    def test_strict_equilibrium_dirac(self):
        game = crowding_game(2, 2)
        response = lambda a: D.dirac(play_profile(game, a))
        assert is_self_fulfilling(response, D.dirac(J((0, 1))), tol=0.0)
        assert not is_self_fulfilling(response, D.dirac(J((0, 0))), tol=0.0)

    def test_constant_environment(self):
        a = D((J((0, 0)), J((1, 1))), (0.5, 0.5))
        assert is_self_fulfilling(lambda _: a, a, tol=0.0)


class TestFixedPointSolve:
    def test_affine_map(self):
        root = fixed_point_solve(lambda a: 0.5 * a + 0.2, 0.0, 1.0, tol=1e-10)
        assert root == pytest.approx(0.4, abs=1e-9)

    def test_identity_returns_lo(self):
        assert fixed_point_solve(lambda a: a, 0.25, 1.0, tol=1e-9) == 0.25

    def test_nonatomic_response_interior_fixed_point(self):
        pop = NonatomicPopulation(phi=-0.5, chi=-0.2, delta=0.3, x=0.5)
        root = fixed_point_solve(lambda a: nonatomic_response_closed(pop, a), 0.0, 1.0, tol=1e-9)
        # interior branch: y = (x + delta + phi*y + chi)/(2*delta)
        analytic = (pop.x + pop.delta + pop.chi) / (2 * pop.delta - pop.phi)
        assert root == pytest.approx(analytic, abs=1e-7)
        assert abs(nonatomic_response_closed(pop, root) - root) <= 1e-9

    def test_jump_through_diagonal_reports_not_found(self):
        def jump(a):
            return 0.8 if a < 0.5 else 0.2

        with pytest.raises(NoFixedPointError):
            fixed_point_solve(jump, 0.0, 1.0, tol=1e-9)

    def test_residual_bound_on_random_affine_maps(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            slope = float(rng.uniform(-0.9, 0.9))
            inter = float(rng.uniform(0, 1 - max(0.0, slope)))
            f = lambda a, s=slope, b=inter: s * a + b
            root = fixed_point_solve(f, 0.0, 1.0, tol=1e-9)
            assert abs(f(root) - root) <= 1e-9


class TestCandidateSet:
    def test_complete_information_all_diracs(self):
        cs = candidate_set(crowding_game(2, 2))
        assert isinstance(cs, tuple)
        assert len(cs) == 4
        assert all(len(c.support) == 1 for c in cs)

    def test_bayes_tiny_game_bounded(self, bayes_corpus):
        game = bayes_corpus[0]
        cs = candidate_set(game)
        assert 1 <= len(cs) <= 16
        assert all(len(c.support) <= 4 for c in cs)

    def test_bayes_dedup_on_zero_probability_type(self):
        # the second type never occurs, so strategies differing only there collapse
        block = ((2.0, -1.0), (1.0, -2.0))
        game = BayesianCongestionGame(
            d=2,
            type_probs=((1.0, 0.0), (1.0, 0.0)),
            utility=((block, block), (block, block)),
        )
        assert len(list(strategy_profiles(game))) == 16
        assert len(candidate_set(game)) == 4

    def test_one_tuple_per_game_value(self, candidate_builds):
        game = constant_game(value=0.375)
        twin = dataclasses.replace(game)
        assert twin is not game and twin == game
        assert candidate_set(game) is candidate_set(game)
        assert candidate_set(twin) is candidate_set(game)
        assert candidate_builds == [game]

    def test_entry_lives_as_long_as_the_game(self):
        game = constant_game(value=0.625)
        candidate_set(game)
        assert game in analysis._CANDIDATES
        del game
        gc.collect()
        assert constant_game(value=0.625) not in analysis._CANDIDATES

    def test_enumeration_guard_raises_on_every_call_and_stores_nothing(self, candidate_builds):
        game = constant_game(n=13, d=3)
        for _ in range(2):
            with pytest.raises(TooLargeError, match="3\\^13 profiles"):
                candidate_set(game)
        assert len(candidate_builds) == 2
        assert game not in analysis._CANDIDATES

    def test_bayes_game_given_as_lists_shares_the_tuple_games_entry(self):
        block = ((2.0, -1.0), (1.0, -3.0))
        game = BayesianCongestionGame(
            d=2, type_probs=((0.5, 0.5), (0.5, 0.5)), utility=((block, block), (block, block))
        )
        rows = [list(row) for row in block]
        listed = BayesianCongestionGame(
            d=2, type_probs=[[0.5, 0.5], [0.5, 0.5]], utility=[[rows, rows], [rows, rows]]
        )
        assert listed == game
        assert candidate_set(listed) is candidate_set(game)

    def test_outcome_distribution_matches_strategy(self):
        block = ((2.0, -1.0), (1.0, -2.0))
        game = BayesianCongestionGame(
            d=2,
            type_probs=((0.5, 0.5), (0.5, 0.5)),
            utility=((block, block), (block, block)),
        )
        dist = strategy_outcome_distribution(game, ((0, 1), (0, 0)))
        assert dist.prob(J((0, 0))) == pytest.approx(0.5)
        assert dist.prob(J((1, 0))) == pytest.approx(0.5)


class TestBayesianNash:
    def test_one_type_reduces_to_complete_information(self):
        game = crowding_game(2, 2)
        bayes = BayesianCongestionGame(
            d=2,
            type_probs=((1.0,), (1.0,)),
            utility=(
                (tuple(game.utility),),
                (tuple(game.utility),),
            ),
        )
        bnes = enumerate_bne(bayes)
        actions = sorted(tuple(s[i][0] for i in range(2)) for s in bnes)
        assert actions == [(0, 1), (1, 0)]

    def test_strict_bne_candidates_are_self_fulfilling(self, bayes_corpus):
        for game in bayes_corpus[:5]:
            strict = enumerate_bne(game, strict=True)
            assert strict
            sf = bayes_self_fulfilling_candidates(game)
            for s in strict:
                dist = strategy_outcome_distribution(game, s)
                assert any(dist.close_to(c) for c in sf)

    def test_is_bne_rejects_profitable_deviation(self, bayes_corpus):
        game = bayes_corpus[0]
        strict = enumerate_bne(game, strict=True)[0]
        # perturb one type's action away from the equilibrium
        perturbed = list(list(s) for s in strict)
        perturbed[0][0] = 1 - perturbed[0][0]
        candidate = tuple(tuple(s) for s in perturbed)
        if candidate != strict:
            assert is_bne(game, strict)
            assert not is_bne(game, candidate) or candidate in enumerate_bne(game)


class TestCorrespondenceReport:
    def test_crowding_game(self):
        report = prediction_equilibrium_report(crowding_game(2, 2))
        assert report.ok
        assert set(report.self_fulfilling) == {J((0, 1)), J((1, 0))}
        assert set(report.strict_nash) == {J((0, 1)), J((1, 0))}

    def test_constant_game_vacuous_strict_direction(self):
        report = prediction_equilibrium_report(constant_game())
        assert report.ok
        assert report.strict_nash == ()
        # everyone ties, the break sends all players to slot 0
        assert report.self_fulfilling == (J((0, 0)),)

    def test_unique_equilibrium_single_fixed_point(self):
        # distinct utilities with one dominant slot
        game = FiniteCongestionGame(
            n=2, d=2, utility=((10.0, 5.0), (1.0, 0.5))
        )
        report = prediction_equilibrium_report(game)
        assert report.ok
        assert report.self_fulfilling == (J((0, 0)),)
        assert report.strict_nash == (J((0, 0)),)

    def test_zero_violations_on_corpus_sample(self, game_corpus):
        for game in game_corpus[:25]:
            report = prediction_equilibrium_report(game)
            assert report.ok
            assert report.nash == tuple(enumerate_nash(game))
            assert report.strict_nash == tuple(enumerate_nash(game, strict=True))
            assert report.self_fulfilling == tuple(
                c for c in game.profiles() if play_profile(game, D.dirac(c)) == c
            )
