import numpy as np
import pytest

from crowdcast.analysis import collision_free_check, is_nash
from crowdcast.core import (
    DegenerateGainError,
    DiscreteDistribution,
    InvalidConfigError,
    InvalidParameterError,
    JointProfile,
    NeedsInitialForecastError,
    PointForecast,
    ShapeError,
)
from crowdcast.environments import crowding_game, play_profile
from crowdcast.policies import (
    AverageState,
    EmpiricalDistributionState,
    ExpodampState,
    PartpredState,
    average_step,
    congestion_update_fn,
    empirical_step,
    expodamp_step,
    kalman_init,
    kalman_step,
    naive_step,
    partpred_step,
    update_congestion,
    update_general,
)

D = DiscreteDistribution
J = JointProfile


class TestExpodamp:
    def test_half_step(self):
        state = ExpodampState(a=PointForecast((0.5,)), alpha=0.5)
        assert expodamp_step(state, (1.0,)).values == (0.75,)

    def test_zero_damping_keeps_forecast(self):
        state = ExpodampState(a=PointForecast((0.2, 0.9)), alpha=0.0)
        assert expodamp_step(state, (1.0, 0.0)).values == (0.2, 0.9)

    def test_full_step_recovers_naive(self):
        state = ExpodampState(a=PointForecast((0.2,)), alpha=1.0)
        assert expodamp_step(state, (0.7,)).values == (0.7,)

    def test_shape_mismatch(self):
        state = ExpodampState(a=PointForecast((0.2,)), alpha=0.5)
        with pytest.raises(ShapeError):
            expodamp_step(state, (0.1, 0.2))

    def test_unit_box_stability(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            k = int(rng.integers(1, 5))
            state = ExpodampState(
                a=PointForecast(tuple(rng.uniform(0, 1, size=k))),
                alpha=float(rng.uniform(0, 1)),
            )
            out = expodamp_step(state, tuple(rng.uniform(0, 1, size=k)))
            assert all(0.0 <= v <= 1.0 for v in out.values)


class TestNaive:
    def test_profile_becomes_dirac(self):
        out = naive_step(J((1, 1)))
        assert out == D.dirac(J((1, 1)))

    def test_point_passthrough(self):
        assert naive_step((0.3,)).values == (0.3,)

    def test_requires_history(self):
        with pytest.raises(NeedsInitialForecastError):
            naive_step(None)

    def test_flapping_cycle(self):
        game = crowding_game(2, 2)
        forecast = D.dirac(J((0, 0)))
        outcomes = []
        for _ in range(6):
            c = play_profile(game, forecast)
            outcomes.append(c.actions)
            forecast = naive_step(c)
        assert outcomes == [(1, 1), (0, 0), (1, 1), (0, 0), (1, 1), (0, 0)]


class TestAverage:
    def test_mean_after_two(self):
        state = AverageState(prior=PointForecast((0.0,)))
        average_step(state, (2.0,))
        assert average_step(state, (4.0,)).values == (3.0,)

    def test_prior_before_two(self):
        state = AverageState(prior=PointForecast((0.0,)))
        assert average_step(state, (7.0,)).values == (0.0,)

    def test_constant_sequence(self):
        state = AverageState(prior=PointForecast((9.0,)))
        for _ in range(3):
            out = average_step(state, (1.0,))
        assert out.values == (1.0,)


class TestKalman:
    def test_init_formula(self):
        _, a0 = kalman_init(beta=0.5, gamma=0.5, var_ex=0.0, var_ey=0.0, x0_mean=0.4, x0_var=1.0)
        assert a0 == pytest.approx(0.4)
        _, a0 = kalman_init(beta=0.5, gamma=1.0, var_ex=0.0, var_ey=0.0, x0_mean=1.0, x0_var=1.0)
        assert a0 == pytest.approx(2.0)
        _, a0 = kalman_init(beta=0.5, gamma=1.0, var_ex=0.0, var_ey=0.0, x0_mean=0.0, x0_var=1.0)
        assert a0 == 0.0

    def test_beta_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            kalman_init(beta=1.0, gamma=0.5, var_ex=0.0, var_ey=0.0, x0_mean=0.0, x0_var=1.0)

    def test_hand_traced_step(self):
        state, _ = kalman_init(beta=0.5, gamma=1.0, var_ex=0.0, var_ey=1.0, x0_mean=0.0, x0_var=1.0)
        assert kalman_step(state, a_prev=0.0, y_prev=1.0) == pytest.approx(1.0)
        # gain was 0.5, so the filtered level moved halfway toward the innovation
        assert state.x_mean == pytest.approx(0.5)
        assert state.x_var == pytest.approx(0.5)

    def test_no_observation_noise_reduces_to_damping_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            beta = float(rng.uniform(-2.0, 0.9))
            gamma = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
            var_ex = float(rng.uniform(0.1, 2.0))
            x0 = float(rng.normal())
            kstate, a = kalman_init(beta, gamma, var_ex, 0.0, x0, x0_var=float(rng.uniform(0.1, 2.0)))
            estate = ExpodampState(a=PointForecast((a,)), alpha=1.0 / (1.0 - beta))
            for _ in range(5):
                y = float(rng.normal())
                a_k = kalman_step(kstate, a, y)
                a_e = expodamp_step(estate, (y,)).scalar
                assert a_k == a_e  # exact, not approximate
                a = a_k

    def test_huge_observation_noise_freezes_forecast(self):
        state, _ = kalman_init(beta=0.5, gamma=1.0, var_ex=0.0, var_ey=1e300, x0_mean=0.0, x0_var=1.0)
        assert kalman_step(state, a_prev=0.3, y_prev=5.0) == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_gain(self):
        state, _ = kalman_init(beta=0.5, gamma=1.0, var_ex=0.0, var_ey=0.0, x0_mean=0.0, x0_var=0.0)
        with pytest.raises(DegenerateGainError):
            kalman_step(state, a_prev=0.0, y_prev=1.0)


class TestUpdateCongestion:
    def test_equal_profiles_unchanged(self):
        assert update_congestion(J((0, 0)), J((0, 0))) == J((0, 0))

    def test_shared_source_blocks_second_mover(self):
        assert update_congestion(J((0, 0)), J((1, 1))) == J((1, 0))

    def test_disjoint_moves_both_taken(self):
        assert update_congestion(J((0, 1)), J((1, 0))) == J((1, 0))

    def test_changed_set_is_collision_free(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(2, 5))
            a = J(tuple(int(v) for v in rng.integers(0, d, size=n)))
            target = J(tuple(int(v) for v in rng.integers(0, d, size=n)))
            out = update_congestion(a, target)
            changed = [i for i in range(n) if out[i] != a[i]]
            assert collision_free_check(changed, a, out)
            assert all(out[i] == target[i] for i in changed)


class TestUpdateGeneral:
    def test_identity(self):
        a = D.dirac(J((0, 0)))
        assert update_general(a, a) is a

    def test_dirac_swap_first_marginal(self):
        out = update_general(D.dirac(J((0, 0))), D.dirac(J((1, 1))))
        assert out == D.dirac(J((1, 0)))

    def test_differs_only_in_second_marginal(self):
        a = D((J((0, 0)), J((0, 1))), (0.5, 0.5))
        b = D((J((0, 0)), J((0, 1))), (0.25, 0.75))
        out = update_general(a, b)
        # player 0 marginal untouched, player 1 marginal replaced
        assert out.prob(J((0, 0))) == pytest.approx(0.25)
        assert out.prob(J((0, 1))) == pytest.approx(0.75)

    def test_changes_at_most_one_marginal(self):
        rng = np.random.default_rng(19)
        profiles = tuple(J((i, j)) for i in range(2) for j in range(2))

        def rand_dist():
            w = rng.dirichlet(np.ones(4))
            return D(profiles, tuple(w / w.sum()))

        def marginal(dist, i):
            out = {}
            for c, p in dist.items():
                out[c[i]] = out.get(c[i], 0.0) + p
            return out

        for _ in range(300):
            a, b = rand_dist(), rand_dist()
            out = update_general(a, b)
            changed = 0
            for i in range(2):
                ma, mo = marginal(a, i), marginal(out, i)
                if any(abs(ma.get(k, 0.0) - mo.get(k, 0.0)) > 1e-9 for k in set(ma) | set(mo)):
                    changed += 1
            assert changed <= 1


class TestEmpirical:
    def test_tally(self):
        state = EmpiricalDistributionState(prior=D.dirac(J((0, 0))))
        empirical_step(state, J((1, 1)))
        out = empirical_step(state, J((0, 0)))
        assert out.prob(J((1, 1))) == pytest.approx(0.5)
        assert out.prob(J((0, 0))) == pytest.approx(0.5)


def partpred_state(candidates, r, update_fn, seed=0, initial_index=None):
    return PartpredState(
        candidates=list(candidates),
        r=r,
        update_fn=update_fn,
        rng=np.random.default_rng(seed),
        initial_index=initial_index,
    )


class TestPartpred:
    def test_initial_index_outside_the_candidates_rejected_at_construction(self):
        cands = [D.dirac(c) for c in crowding_game(2, 2).profiles()]
        with pytest.raises(InvalidConfigError, match="policy.initial_index: 99 is outside the 4 candidates"):
            partpred_state(cands, r=1, update_fn=congestion_update_fn, initial_index=99)

    def test_self_fulfilling_candidate_detected_immediately(self):
        game = crowding_game(2, 2)
        cands = [D.dirac(c) for c in game.profiles()]
        start = cands.index(D.dirac(J((0, 1))))
        state = partpred_state(cands, r=1, update_fn=congestion_update_fn, initial_index=start)
        a0 = partpred_step(state, None)
        assert a0 == D.dirac(J((0, 1)))
        a1 = partpred_step(state, play_profile(game, a0))
        assert a1 == a0
        assert state.converged

    def test_congestion_walk_reaches_strict_equilibrium(self):
        game = crowding_game(2, 2)
        cands = [D.dirac(c) for c in game.profiles()]
        start = cands.index(D.dirac(J((0, 0))))
        state = partpred_state(cands, r=1, update_fn=congestion_update_fn, initial_index=start)
        announced = []
        c_prev = None
        for _ in range(8):
            a = partpred_step(state, c_prev)
            announced.append(a)
            c_prev = play_profile(game, a)
        # one collision-free step from the best responses, then confirmation
        assert announced[0] == D.dirac(J((0, 0)))
        assert announced[1] == D.dirac(J((1, 0)))
        assert state.converged
        final = announced[-1].support[0]
        assert final == J((1, 0))
        assert is_nash(game, final, strict=True)
        assert not state.exploration_used

    def test_exploration_branch_and_forced_convergence(self):
        cands = [D.dirac(J((k,))) for k in range(3)]
        state = partpred_state(cands, r=1, update_fn=update_general, initial_index=0)
        assert partpred_step(state, None) == cands[0]
        # outcome (1,) pulls the update to candidate 1, untried so far
        assert partpred_step(state, J((1,))) == cands[1]
        # outcome (0,) pulls back to candidate 0, already tried: random unused pick
        out = partpred_step(state, J((0,)))
        assert out == cands[2]
        assert state.exploration_used
        # outcome (0,) again: update points at tried candidate 0, but now all are
        # tried, so convergence is forced at the best-fitting candidate
        final = partpred_step(state, J((0,)))
        assert state.converged
        assert final == cands[0]

    def test_negative_initial_index_names_the_same_candidate(self):
        cands = [D.dirac(J((k,))) for k in range(3)]
        for start in (2, -1):
            state = partpred_state(cands, r=1, update_fn=update_general, initial_index=start)
            # every outcome is (2,), so the starting candidate is the fixed point
            outs = [partpred_step(state, c) for c in (None, J((2,)), J((2,)))]
            assert outs == [cands[2]] * 3
            assert state.converged and not state.exploration_used
            assert state.update_log == [2, 2]

    def test_single_candidate_converges_after_first_group(self):
        cands = [D.dirac(J((0,)))]
        state = partpred_state(cands, r=2, update_fn=update_general, initial_index=0)
        partpred_step(state, None)
        partpred_step(state, J((0,)))
        assert not state.converged
        partpred_step(state, J((0,)))
        assert state.converged

    def test_converged_output_never_changes(self):
        game = crowding_game(2, 2)
        cands = [D.dirac(c) for c in game.profiles()]
        state = partpred_state(cands, r=1, update_fn=congestion_update_fn, initial_index=1)
        c_prev = None
        outputs = []
        for _ in range(20):
            a = partpred_step(state, c_prev)
            outputs.append(a)
            c_prev = play_profile(game, a)
        assert state.converged
        settled = outputs[-1]
        assert all(a == settled for a in outputs[-10:])

    def test_deterministic_given_seed_and_stream(self):
        game = crowding_game(2, 2)
        cands = [D.dirac(c) for c in game.profiles()]

        def run(seed):
            state = partpred_state(cands, r=2, update_fn=congestion_update_fn, seed=seed)
            outs = []
            c_prev = None
            for _ in range(15):
                a = partpred_step(state, c_prev)
                outs.append(a)
                c_prev = play_profile(game, a)
            return outs

        assert run(9) == run(9)

    def test_group_counting_respects_r(self):
        game = crowding_game(2, 2)
        cands = [D.dirac(c) for c in game.profiles()]
        start = cands.index(D.dirac(J((0, 0))))
        state = partpred_state(cands, r=3, update_fn=congestion_update_fn, initial_index=start)
        c_prev = None
        announced = []
        for _ in range(4):
            a = partpred_step(state, c_prev)
            announced.append(a.support[0])
            c_prev = play_profile(game, a)
        # three announcements of the starting candidate, then the update fires
        assert announced == [J((0, 0))] * 3 + [J((1, 0))]
