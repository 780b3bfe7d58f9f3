import dataclasses
from itertools import product

import numpy as np
import pytest

from crowdcast.analysis import is_nash
from crowdcast.core import (
    DiscreteDistribution,
    InvalidConfigError,
    JointProfile,
    PointForecast,
    StageRecord,
    point_pred_loss,
    trajectory_mse,
)
from crowdcast.engine import (
    BLOCK,
    MonteCarloSummary,
    SimConfig,
    closed_form_trajectory,
    exact_response,
    monte_carlo,
    policy_summary,
    replay,
    run_dynamic,
    _FiniteGameEnv,
    _holds,
    _start,
)
from crowdcast.environments import (
    BayesianCongestionGame,
    LinearAggregateEnv,
    NonatomicPopulation,
    bayes_play_profile,
    crowding_game,
    linear_step,
    nonatomic_response_closed,
)
from crowdcast.policies import (
    AverageState,
    ExpodampState,
    average_step,
    expodamp_step,
    kalman_init,
    kalman_step,
    naive_step,
)

D = DiscreteDistribution
J = JointProfile


def linear_config(gamma, alpha, a0, x, stages=50, seed=1, **env):
    return SimConfig(
        setting="linear",
        policy="expodamp",
        policy_params={"alpha": alpha, "initial": (a0,)},
        env_params={"beta": 1.0 - gamma, "gamma": gamma, "x0_mean": x, **env},
        stages=stages,
        seed=seed,
    )


class TestClosedForm:
    def test_one_shot_damping(self):
        ys = closed_form_trajectory(gamma=0.5, alpha=2.0, a0=0.0, x=0.4, T=4)
        assert ys[0] == pytest.approx(0.2)
        assert ys[1:] == [pytest.approx(0.4)] * 3

    def test_fixed_point_start_stays_constant(self):
        ys = closed_form_trajectory(gamma=0.3, alpha=1.0, a0=0.7, x=0.7, T=10)
        assert ys == [pytest.approx(0.7)] * 10

    def test_boundary_rate_oscillates_without_decay(self):
        ys = closed_form_trajectory(gamma=0.5, alpha=4.0, a0=0.2, x=0.6, T=20)
        deviations = [abs(y - 0.6) for y in ys]
        assert all(d == pytest.approx(deviations[0]) for d in deviations)

    def test_iterated_recursion_oracle(self):
        # independent recomputation straight from the two update equations
        gamma, alpha, a0, x, T = 0.4, 1.5, 0.15, 0.55, 30
        beta = 1.0 - gamma
        a, ys = a0, []
        for t in range(T):
            if t > 0:
                a = a + alpha * (ys[-1] - a)
            ys.append(beta * a + gamma * x)
        ref = closed_form_trajectory(gamma, alpha, a0, x, T)
        assert ys == pytest.approx(ref, rel=1e-12)


class TestRunDynamic:
    def test_matches_closed_form(self):
        cfg = linear_config(gamma=0.5, alpha=1.2, a0=0.1, x=0.4)
        traj = run_dynamic(cfg)
        ref = closed_form_trajectory(0.5, 1.2, 0.1, 0.4, 50)
        for rec, expected in zip(traj, ref):
            assert rec.y.scalar == pytest.approx(expected, rel=1e-12)

    def test_exponential_convergence_rate(self):
        for gamma, alpha in [(0.5, 0.5), (0.8, 2.0), (0.3, 3.0)]:
            cfg = linear_config(gamma=gamma, alpha=alpha, a0=0.9, x=0.4, stages=30)
            ys = [rec.y.scalar for rec in run_dynamic(cfg)]
            rate = abs(1.0 - alpha * gamma)
            base = abs(ys[0] - 0.4)
            for t, y in enumerate(ys):
                assert abs(y - 0.4) == pytest.approx(base * rate**t, rel=1e-9, abs=1e-12)

    def test_bit_identical_replay_of_stochastic_run(self):
        cfg = linear_config(gamma=0.5, alpha=0.4, a0=0.0, x=0.4, var_ex=0.3, var_ey=0.2, seed=9)
        t1, t2 = run_dynamic(cfg), run_dynamic(cfg)
        assert t1.config_hash == t2.config_hash
        for r1, r2 in zip(t1, t2):
            assert r1.a.values == r2.a.values
            assert r1.y.values == r2.y.values
            assert r1.losses == r2.losses

    def test_run_index_varies_draws(self):
        cfg = linear_config(gamma=0.5, alpha=0.4, a0=0.0, x=0.4, var_ey=0.5, seed=9)
        y0 = run_dynamic(cfg, run_index=0).final.y.scalar
        y1 = run_dynamic(cfg, run_index=1).final.y.scalar
        assert y0 != y1

    def test_point_pred_loss_measured_against_conditional_mean(self):
        cfg = linear_config(gamma=0.5, alpha=0.4, a0=0.0, x=0.4, var_ey=1.0, seed=4, stages=5)
        for rec in run_dynamic(cfg):
            a = rec.a.scalar
            # noise-free part of the outcome is beta*a + gamma*x with x pinned at 0.4
            assert rec.losses["point_pred"] == pytest.approx((a - (0.5 * a + 0.5 * 0.4)) ** 2)

    def test_flapping_and_unit_pred_loss(self):
        cfg = SimConfig(
            setting="finite-game",
            policy="naive",
            policy_params={"initial_profile": (0, 0)},
            env_params={"game": crowding_game(2, 2)},
            stages=8,
            seed=0,
        )
        traj = run_dynamic(cfg)
        assert [rec.y.actions for rec in traj] == [(1, 1), (0, 0)] * 4
        assert all(rec.losses["pred"] == 1.0 for rec in traj)
        assert all(rec.losses["nash"] == 1.0 for rec in traj)

    def test_partpred_converges_to_equilibrium(self):
        game = crowding_game(2, 2)
        cfg = SimConfig(
            setting="finite-game",
            policy="partpred",
            policy_params={"r": 2, "update": "congestion"},
            env_params={"game": game},
            stages=20,
            seed=3,
        )
        traj = run_dynamic(cfg)
        final = traj.final
        assert final.losses["pred"] == 0.0
        assert final.losses["nash"] == 0.0
        assert is_nash(game, final.a.support[0], strict=True)
        summary = policy_summary(cfg)
        assert summary["converged"] == {"w0": True}
        assert summary["exploration_used"] is False

    def test_empirical_baseline_has_positive_loss_on_oscillation(self):
        cfg = SimConfig(
            setting="finite-game",
            policy="empirical",
            policy_params={"initial_profile": (0, 0)},
            env_params={"game": crowding_game(2, 2)},
            stages=40,
            seed=0,
        )
        traj = run_dynamic(cfg)
        tail = traj.records[10:]
        assert all(rec.losses["pred"] > 0.3 for rec in tail)

    def test_nonatomic_setting_converges_with_damping(self):
        cfg = SimConfig(
            setting="nonatomic",
            policy="expodamp",
            policy_params={"alpha": 0.5, "initial": (0.2,)},
            env_params={"phi": -0.5, "chi": -0.2, "delta": 0.3, "x": 0.5},
            stages=60,
            seed=0,
        )
        traj = run_dynamic(cfg)
        assert traj.final.losses["point_pred"] < 1e-12

    def test_causality_policy_cannot_see_current_outcome(self):
        # with alpha=0 the forecast never reacts at all; the environment still moves
        cfg = linear_config(gamma=0.5, alpha=0.0, a0=0.25, x=0.4, stages=5)
        traj = run_dynamic(cfg)
        assert all(rec.a.scalar == 0.25 for rec in traj)


class TestConfigValidation:
    def test_unknown_policy_lists_valid_names(self):
        cfg = SimConfig(
            setting="linear",
            policy="oracle",
            policy_params={},
            env_params={"beta": 0.5, "gamma": 0.5, "x0_mean": 0.4},
            stages=5,
            seed=0,
        )
        with pytest.raises(InvalidConfigError, match="valid names"):
            run_dynamic(cfg)

    def test_unknown_setting_names_run_setting(self):
        for setting in ("bogus", "replay"):
            cfg = SimConfig(setting, "expodamp", {"alpha": 0.5}, {}, 3, 0)
            for run in (run_dynamic, lambda c: monte_carlo(c, 2)):
                with pytest.raises(InvalidConfigError, match=f"run.setting: '{setting}' is not one of"):
                    run(cfg)

    def test_policy_setting_mismatch(self):
        cfg = SimConfig(
            setting="finite-game",
            policy="kalman",
            policy_params={},
            env_params={"game": crowding_game(2, 2)},
            stages=5,
            seed=0,
        )
        with pytest.raises(InvalidConfigError, match="not valid for setting"):
            run_dynamic(cfg)

    def test_missing_parameter_names_field(self):
        cfg = SimConfig(
            setting="linear",
            policy="expodamp",
            policy_params={},
            env_params={"beta": 0.5, "gamma": 0.5, "x0_mean": 0.4},
            stages=5,
            seed=0,
        )
        with pytest.raises(InvalidConfigError, match="policy.alpha"):
            run_dynamic(cfg)

    def test_congestion_update_needs_complete_information(self, bayes_corpus):
        cfg = SimConfig(
            setting="finite-game",
            policy="partpred",
            policy_params={"r": 2, "update": "congestion"},
            env_params={"game": bayes_corpus[0]},
            stages=5,
            seed=0,
        )
        with pytest.raises(InvalidConfigError, match="complete-information"):
            run_dynamic(cfg)

    TABLE = {"players": 2, "slots": 2, "slot_0": (-1.0, -2.0), "slot_1": (-1.0, -2.0)}

    @pytest.mark.parametrize(
        "setting, policy, policy_params, env_params, message",
        [
            ("linear", "expodamp", {"alpha": 0.5, "alpah": 9},
             {"beta": 0.5, "gamma": 0.5, "x0_mean": 0.4},
             "policy.alpah: unknown parameter; allowed: alpha, initial"),
            ("linear", "expodamp", {"alpha": 0.5},
             {"beta": 0.5, "gamma": 0.5, "x0_mean": 0.4, "x0var": 5.0},
             "environment.x0var: unknown parameter; allowed: beta, gamma"),
            ("nonatomic", "naive", {"initial": (0.2,)},
             {"phi": -0.5, "chi": -0.2, "delta": 0.3, "x": 0.5, "grid_n": 401},
             "environment.grid_n: unknown parameter; allowed: chi, delta, phi, x"),
            ("finite-game", "empirical", {"initial_profile": (0, 0), "r": 2},
             {"game": crowding_game(2, 2)},
             "policy.r: unknown parameter; allowed: initial_profile"),
            ("finite-game", "naive", {"initial_profile": (0, 0)},
             {"game": crowding_game(2, 2), "players": 2},
             "environment.players: unknown parameter; allowed: game$"),
            ("finite-game", "naive", {"initial_profile": (0, 0)},
             {**TABLE, "slot_2": (-1.0, -2.0)},
             "environment.slot_2: unknown parameter; allowed: players, slot_0, slot_1, slots$"),
            ("linear", "naive", {"initial": (0.5,), "initial_profile": (0, 0)},
             {"beta": 0.5, "gamma": 0.5, "x0_mean": 0.4},
             "policy.initial_profile: unknown parameter; allowed: initial$"),
            ("finite-game", "naive", {"initial_profile": (0, 0), "initial": (5.0, 6.0)},
             {"game": crowding_game(2, 2)},
             "policy.initial: unknown parameter; allowed: initial_profile$"),
        ],
        ids=["policy-key", "linear-env-key", "nonatomic-env-key", "finite-game-policy-key",
             "key-beside-game", "slot-beyond-slots", "profile-key-on-linear",
             "point-key-on-finite-game"],
    )
    def test_unknown_key_rejected(self, setting, policy, policy_params, env_params, message):
        cfg = SimConfig(
            setting=setting, policy=policy, policy_params=policy_params,
            env_params=env_params, stages=3, seed=0,
        )
        with pytest.raises(InvalidConfigError, match=message):
            run_dynamic(cfg)

    def test_game_table_runs(self):
        cfg = SimConfig(
            setting="finite-game", policy="naive", policy_params={"initial_profile": (0, 0)},
            env_params=self.TABLE, stages=3, seed=0,
        )
        assert [rec.y for rec in run_dynamic(cfg)] == [J((1, 1)), J((0, 0)), J((1, 1))]

    def test_unknown_loss_rejected_before_any_stage(self):
        cfg = linear_config(gamma=0.5, alpha=1.0, a0=0.1, x=0.4, stages=5)
        cfg = dataclasses.replace(cfg, log_losses=("point_pred", "nash"))
        # policy_summary runs the stages but computes no loss
        with pytest.raises(InvalidConfigError, match="run.losses: 'nash' not available in the linear"):
            policy_summary(cfg)


def typed_game(*priors, d=3):
    """Bayesian game where type theta of any player takes slot theta % d, whatever the crowd.

    With no more types than slots the play reveals the types, so a stage that
    reads the wrong type combination shows.
    """
    n = len(priors)

    def block(theta):
        return tuple(tuple(1.0 if k == theta % d else 0.0 for _ in range(n)) for k in range(d))

    utility = tuple(tuple(block(theta) for theta in range(len(probs))) for probs in priors)
    return BayesianCongestionGame(d=d, type_probs=priors, utility=utility)


def per_stage_reference(game, forecasts, seed):
    """Each stage's play from its own draw of n uniforms, mapped player by player."""
    rng = np.random.default_rng(seed)
    cums = [np.cumsum(probs) for probs in game.type_probs]
    plays = []
    for a in forecasts:
        draws = rng.random(game.n)
        types = tuple(int(np.searchsorted(cum, u, side="right")) for cum, u in zip(cums, draws))
        plays.append(bayes_play_profile(game, a, types))
    return plays


def forecast_schedule(game, stages, seed):
    """Runs of one forecast object, as partpred announces them, some equal but new objects."""
    rng = np.random.default_rng((seed, stages))
    pool = [D.dirac(J(c)) for c in product(range(game.d), repeat=game.n)]
    pool.append(D.from_mapping({pool[0].support[0]: 1.0, pool[-1].support[0]: 3.0}))
    forecasts = []
    while len(forecasts) < stages:
        a = pool[int(rng.integers(len(pool)))]
        if rng.random() < 0.3:
            a = D(a.support, a.probs)
        forecasts.extend([a] * int(rng.integers(1, 6)))
    return forecasts[:stages]


class TestBayesianTypeDraws:
    @pytest.mark.parametrize("stages", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_block_draws_match_per_stage_draws(self, bayes_corpus, stages):
        unequal = typed_game((0.7, 0.2, 0.1), (0.25, 0.75))
        for game in [*bayes_corpus, unequal]:
            for seed in (0, 1, 2):
                forecasts = forecast_schedule(game, stages, seed)
                env = _FiniteGameEnv({"game": game}, np.random.default_rng(seed))
                plays = [env.respond(a) for a in forecasts]
                assert plays == per_stage_reference(game, forecasts, seed)

    @pytest.mark.parametrize(
        "prior", [(0.7, 0.2, 0.1), (0.7, 0.2, 0.1, 0.0)], ids=["last-type", "zero-tail"]
    )
    def test_draw_at_top_of_rounded_prior_takes_last_possible_type(self, prior):
        class TopOfUnitInterval:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        assert np.cumsum(prior)[-1] == np.nextafter(1.0, 0.0)
        env = _FiniteGameEnv({"game": typed_game(prior, (0.25, 0.75))}, TopOfUnitInterval())
        assert env.respond(D.dirac(J((0, 0)))) == J((2, 1))


def stage_by_stage(config):
    """Records of a run that asks the policy and the environment on every stage, and its policy."""
    env, policy = _start(config, 0)
    records = []
    y_prev = None
    for t in range(config.stages):
        a = policy.forecast(config.covariate, y_prev)
        y = env.respond(a)
        losses = {name: getattr(env, name)(a) for name in config.losses()}
        records.append(StageRecord(t=t, w=config.covariate, a=a, y=y, losses=losses))
        y_prev = y
    return records, policy


def partpred_config(game, r, stages, seed, update="congestion"):
    return SimConfig(
        setting="finite-game",
        policy="partpred",
        policy_params={"r": r, "update": update},
        env_params={"game": game},
        stages=stages,
        seed=seed,
    )


class TestHoldLoop:
    """Holds skip the policy on held stages; the run must equal the stage-by-stage one."""

    def assert_same_run(self, cfg):
        records, reference = stage_by_stage(cfg)
        assert run_dynamic(cfg).records == tuple(records)
        assert policy_summary(cfg) == reference.summary()
        env, policy = _start(cfg, 0)
        assert sum(len(ys) for _, ys in _holds(cfg.covariate, cfg.stages, env, policy)) == cfg.stages
        assert policy.per_w == reference.per_w  # tallies, group counts and candidate walk

    # With r = 2 or r = 200 these stage counts end inside a group.
    @pytest.mark.parametrize("stages", [1, 7, 450, 1203])
    @pytest.mark.parametrize("r", [1, 2, 200])
    def test_bayes_corpus(self, bayes_corpus, r, stages):
        for k, game in enumerate(bayes_corpus):
            self.assert_same_run(partpred_config(game, r, stages, seed=k, update="general"))

    @pytest.mark.parametrize("stages", [3, 251])
    @pytest.mark.parametrize("r", [1, 2, 200])
    def test_game_corpus(self, game_corpus, r, stages):
        for k, game in enumerate(game_corpus):
            self.assert_same_run(partpred_config(game, r, stages, seed=k))

    def test_final_is_the_last_record_and_records_are_built_once(self, bayes_corpus):
        traj = run_dynamic(partpred_config(bayes_corpus[0], 2, 9, seed=0, update="general"))
        assert traj.final == traj.records[-1]
        assert traj.records is traj.records
        traj.records[0].losses["pred"] += 0.5
        assert traj.records[0].losses["pred"] == traj.losses["pred"][0] + 0.5


def point_forecast_reference(config):
    """Records of a point run that builds a PointForecast for every forecast and outcome.

    The policy is driven through its step function and the environment
    through linear_step or nonatomic_response_closed; point_pred is
    point_pred_loss against the exact mean outcome.
    """
    env_seed, _ = np.random.SeedSequence(entropy=(config.seed, 0)).spawn(2)
    p = config.policy_params
    if config.setting == "linear":
        env = LinearAggregateEnv.create(rng=np.random.default_rng(env_seed), **config.env_params)

        def respond(a):
            y = linear_step(env, a.scalar)
            return PointForecast((y,)), env.last_mean
    else:
        pop = NonatomicPopulation(**config.env_params)

        def respond(a):
            mean = nonatomic_response_closed(pop, a.scalar)
            return PointForecast((mean,)), mean

    if config.policy == "expodamp":
        state = ExpodampState(a=PointForecast(p["initial"]), alpha=p["alpha"])
        a, step = state.a, lambda a, y: expodamp_step(state, y.values)
    elif config.policy == "average":
        state = AverageState(prior=PointForecast(p["prior"]))
        a, step = state.prior, lambda a, y: average_step(state, y.values)
    elif config.policy == "naive":
        a, step = PointForecast(p["initial"]), lambda a, y: naive_step(y)
    else:
        state, a0 = kalman_init(**p)
        a = PointForecast((a0,))
        step = lambda a, y: PointForecast((kalman_step(state, a.scalar, y.scalar),))
    records = []
    for t in range(config.stages):
        if t:
            a = step(a, y)
        y, mean = respond(a)
        losses = {"point_pred": point_pred_loss(a, (mean,))}
        records.append(StageRecord(t=t, w=config.covariate, a=a, y=y, losses=losses))
    return records


LINEAR_ENV = {"beta": 0.4, "gamma": 0.8, "var_ex": 0.3, "var_ey": 0.5, "x0_mean": 0.6, "x0_var": 0.4}
NONATOMIC_ENV = {"phi": -0.8, "chi": -0.1, "delta": 0.2, "x": 0.5}
POINT_POLICIES = {
    "expodamp": {"alpha": 0.3, "initial": (0.25,)},
    "average": {"prior": (0.7,)},
    "naive": {"initial": (0.1,)},
    "kalman": LINEAR_ENV,
}


class TestPointLoop:
    """Point runs pass bare value tuples through the loop; records must be the PointForecast run's."""

    @pytest.mark.parametrize(
        "setting, policy",
        [*(("linear", name) for name in POINT_POLICIES),
         *(("nonatomic", name) for name in ("expodamp", "average", "naive"))],
    )
    def test_records_equal_the_point_forecast_loop(self, setting, policy):
        env_params = LINEAR_ENV if setting == "linear" else NONATOMIC_ENV
        for seed, stages in [(0, 1), (1, 2), (2, 301)]:
            cfg = SimConfig(
                setting=setting, policy=policy, policy_params=POINT_POLICIES[policy],
                env_params=env_params, stages=stages, seed=seed,
            )
            traj = run_dynamic(cfg)
            assert traj.records == tuple(point_forecast_reference(cfg))
            assert isinstance(traj.final.a, PointForecast)
            assert all(
                isinstance(rec.a, PointForecast) and isinstance(rec.y, PointForecast)
                for rec in traj.records
            )
            finals = monte_carlo(cfg, n_runs=3).final_forecasts
            assert all(isinstance(a, PointForecast) for a in finals)
            assert finals == tuple(run_dynamic(cfg, run_index=k).final.a for k in range(3))


class TestMonteCarlo:
    def test_deterministic_config_zero_variance(self):
        cfg = linear_config(gamma=0.5, alpha=1.0, a0=0.1, x=0.4, stages=10)
        summary = monte_carlo(cfg, n_runs=5)
        assert isinstance(summary, MonteCarloSummary)
        assert summary.loss_vars["point_pred"] == 0.0

    def test_partpred_self_fulfilling_fraction(self):
        cfg = SimConfig(
            setting="finite-game",
            policy="partpred",
            policy_params={"r": 1, "update": "congestion"},
            env_params={"game": crowding_game(2, 2)},
            stages=15,
            seed=5,
        )
        summary = monte_carlo(cfg, n_runs=10)
        assert summary.self_fulfilling_fraction == 1.0
        for final in summary.final_forecasts:
            response = exact_response(cfg, final)
            assert response == final

    def test_damped_beats_average_on_drifting_series(self):
        base = dict(
            env_params={
                "beta": 0.0, "gamma": 1.0, "x0_mean": 5.0,
                "var_ex": 0.5, "var_ey": 0.1,
            },
            stages=40,
            seed=77,
        )
        damped = SimConfig(
            setting="linear", policy="expodamp",
            policy_params={"alpha": 0.8, "initial": (5.0,)}, **base,
        )
        averaged = SimConfig(
            setting="linear", policy="average",
            policy_params={"prior": (5.0,)}, **base,
        )
        mse_damped = monte_carlo(damped, n_runs=20).loss_means["point_pred"]
        mse_avg = monte_carlo(averaged, n_runs=20).loss_means["point_pred"]
        assert mse_damped < mse_avg


class TestReplay:
    def test_constant_data_both_policies_converge(self):
        rows = [(3.0, 3.0)] * 30
        avg = replay("average", {}, rows)
        damp = replay("expodamp", {"alpha": 0.5}, rows)
        assert avg.records[-1].losses["point_pred"] < 1e-12
        assert damp.records[-1].losses["point_pred"] < 1e-6

    def test_mse_matches_core_loss(self):
        rng = np.random.default_rng(2)
        rows = [tuple(rng.uniform(0, 10, size=3)) for _ in range(12)]
        traj = replay("expodamp", {"alpha": 0.4}, rows)
        direct = sum(rec.losses["point_pred"] for rec in traj) / len(traj)
        assert trajectory_mse(traj.records) == pytest.approx(direct, rel=1e-12)

    def test_unknown_policy_key_rejected(self):
        with pytest.raises(InvalidConfigError, match="expodamp.alpah: unknown parameter"):
            replay("expodamp", {"alpha": 0.5, "alpah": 9}, [(1.0,), (2.0,)])
        # a key of the profile settings
        with pytest.raises(InvalidConfigError, match="naive.initial_profile: unknown parameter"):
            replay("naive", {"initial_profile": (0, 1)}, [(1.0, 2.0), (2.0, 3.0)])

    def test_unknown_replay_policy(self):
        with pytest.raises(InvalidConfigError, match="valid names"):
            replay("partpred", {}, [(1.0,)])
