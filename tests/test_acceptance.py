"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from crowdcast.analysis import (
    bayes_self_fulfilling_candidates,
    candidate_set,
    enumerate_nash,
    fixed_point_solve,
    potential,
    prediction_equilibrium_report,
)
from crowdcast.cli import load_sim_config, trajectory_csv
from crowdcast.core import (
    DiscreteDistribution,
    JointProfile,
    PointForecast,
    trajectory_mse,
    tv_distance,
)
from crowdcast.engine import (
    SimConfig,
    closed_form_trajectory,
    monte_carlo,
    replay,
    run_dynamic,
)
from crowdcast.environments import (
    NonatomicPopulation,
    crowding_game,
    nonatomic_response_closed,
    nonatomic_response_numeric,
    play_profile,
)
from crowdcast.policies import (
    ExpodampState,
    PartpredState,
    congestion_update_fn,
    expodamp_step,
    kalman_init,
    kalman_step,
    partpred_step,
)

D = DiscreteDistribution
J = JointProfile


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "closed-form convergence of the damped policy")
def test_criterion_1_closed_form_convergence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 0.9))
        alpha = float(rng.uniform(0.05, 1.95)) / gamma
        x = float(rng.uniform(0.55, 0.9))
        a0 = x + float(rng.uniform(-0.4, 0.4))
        cfg = SimConfig(
            setting="linear",
            policy="expodamp",
            policy_params={"alpha": alpha, "initial": (a0,)},
            env_params={"beta": 1.0 - gamma, "gamma": gamma, "x0_mean": x},
            stages=50,
            seed=1,
        )
        ys = [rec.y.scalar for rec in run_dynamic(cfg)]
        ref = closed_form_trajectory(gamma, alpha, a0, x, 50)
        for y_sim, y_ref in zip(ys, ref):
            assert abs(y_sim - y_ref) <= 1e-12 * abs(y_ref)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


@criterion(2, "filter policy: damping reduction and per-stage argmin")
def test_criterion_2_kalman_reduction_and_argmin():
    start = time.perf_counter()
    rng = np.random.default_rng(202)

    # (a) no observation noise: outputs equal the damped policy exactly
    for _ in range(100):
        beta = float(rng.uniform(-2.0, 0.9))
        gamma = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        var_ex = float(rng.uniform(0.1, 1.5))
        x0_mean = float(rng.normal())
        x0_var = float(rng.uniform(0.1, 2.0))
        kstate, a = kalman_init(beta, gamma, var_ex, 0.0, x0_mean, x0_var)
        estate = ExpodampState(a=PointForecast((a,)), alpha=1.0 / (1.0 - beta))
        for _ in range(8):
            y = float(rng.normal())
            a_filter = kalman_step(kstate, a, y)
            a_damped = expodamp_step(estate, (y,)).scalar
            assert a_filter == a_damped
            a = a_filter

    # (b) observation noise: the forecast minimizes the expected one-step
    # squared error against a 21-point perturbation grid at every stage
    beta, gamma = 0.4, 0.8
    var_ex, var_ey = 0.3, 0.5
    x0_mean, x0_var = 0.6, 0.4
    for seed in range(5):
        cfg = SimConfig(
            setting="linear",
            policy="kalman",
            policy_params={
                "beta": beta, "gamma": gamma, "var_ex": var_ex, "var_ey": var_ey,
                "x0_mean": x0_mean, "x0_var": x0_var,
            },
            env_params={
                "beta": beta, "gamma": gamma, "x0_mean": x0_mean, "x0_var": x0_var,
                "var_ex": var_ex, "var_ey": var_ey,
            },
            stages=60,
            seed=seed,
        )
        traj = run_dynamic(cfg)
        # independent posterior recursion over the logged forecasts and outcomes
        mean, var = x0_mean, x0_var
        for rec in traj:
            a_t = rec.a.scalar

            def expected_sq_err(a_prime: float) -> float:
                return ((1.0 - beta) * a_prime - gamma * mean) ** 2 + gamma**2 * var + var_ey

            best_alternative = min(
                expected_sq_err(a_prime)
                for a_prime in np.linspace(a_t - 0.5, a_t + 0.5, 21)
            )
            assert expected_sq_err(a_t) <= best_alternative + 1e-9
            y_t = rec.y.scalar
            gain = gamma * var / (gamma**2 * var + var_ey)
            mean = mean + gain * (y_t - gamma * mean - beta * a_t)
            var = (1.0 - gain * gamma) * var + var_ex
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"


@criterion(3, "self-fulfilling/equilibrium correspondence on the game corpus")
def test_criterion_3_correspondence_zero_violations(game_corpus):
    start = time.perf_counter()
    assert len(game_corpus) >= 200
    for game in game_corpus:
        for row in game.utility:
            assert all(a > b for a, b in zip(row, row[1:])), "utilities must fall with the count"
        report = prediction_equilibrium_report(game)
        assert report.ok, f"violations in game {game}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"


@criterion(4, "potential identity and collision-free monotonicity")
def test_criterion_4_potential_machinery(game_corpus):
    for game in game_corpus:
        pots = {c: potential(game, c) for c in game.profiles()}

        # (a) unilateral deviations move the potential by the deviator's gain, exactly
        for c in game.profiles():
            counts = [0] * game.d
            for slot in c.actions:
                counts[slot] += 1
            for i in range(game.n):
                for k in range(game.d):
                    if k == c[i]:
                        continue
                    c2 = J(c.actions[:i] + (k,) + c.actions[i + 1 :])
                    assert pots[c2] - pots[c] == game.u(k, counts[k] + 1) - game.u(c[i], counts[c[i]])

        # (b) nested collision-free sets of improving moves never lower the potential
        n = game.n
        for a in game.profiles():
            c = play_profile(game, D.dirac(a))
            subset_pot = []
            collision_free = []
            for mask in range(1 << n):
                members = [i for i in range(n) if mask >> i & 1]
                merged = J(
                    tuple(c[i] if mask >> i & 1 else a[i] for i in range(n))
                ) if members else a
                subset_pot.append(pots[merged])
                sources = [a[i] for i in members]
                targets = [c[i] for i in members]
                collision_free.append(
                    len(set(sources)) == len(sources) and len(set(targets)) == len(targets)
                )
            for mask in range(1 << n):
                if not collision_free[mask]:
                    continue
                sub = mask
                while True:  # enumerate submasks of mask
                    assert subset_pot[mask] >= subset_pot[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask


@criterion(5, "directed candidate search on congestion games")
def test_criterion_5_partpred_congestion_directed(game_corpus):
    for idx, game in enumerate(game_corpus):
        assert enumerate_nash(game, strict=True), "corpus game lost its strict equilibrium"
        candidates = list(candidate_set(game))
        state = PartpredState(
            candidates=candidates,
            r=1,
            update_fn=congestion_update_fn,
            rng=np.random.default_rng((505, idx)),
        )
        c_prev = None
        for _ in range(2 * len(candidates) + 10):
            a = partpred_step(state, c_prev)
            c_prev = play_profile(game, a)
        assert state.converged, f"game {idx} never converged"
        assert not state.exploration_used, f"game {idx} needed undirected search"
        final = candidates[state.current]
        response = play_profile(game, final)
        assert tv_distance(D.dirac(response), final) == 0.0, f"game {idx} not self-fulfilling"
        # potential strictly increases at every update until the convergence repeat
        walk = [candidates[i].support[0] for i in state.update_log]
        for prev, nxt in zip(walk, walk[1:]):
            if prev == nxt:
                assert potential(game, nxt) == potential(game, prev)
            else:
                assert potential(game, nxt) > potential(game, prev)


@criterion(6, "stochastic candidate search on Bayesian games")
def test_criterion_6_partpred_bayes_stochastic(bayes_corpus):
    start = time.perf_counter()
    tv_threshold = 0.05  # harness parameter: how close to a true fixed point counts
    assert len(bayes_corpus) == 20
    for game in bayes_corpus:
        truths = bayes_self_fulfilling_candidates(game)
        assert truths, "corpus game lost its self-fulfilling candidate"
        n_candidates = len(candidate_set(game))
        cfg = SimConfig(
            setting="finite-game",
            policy="partpred",
            policy_params={"r": 200, "update": "general"},
            env_params={"game": game},
            stages=(n_candidates + 1) * 200 + 10,
            seed=606,
            log_losses=(),
        )
        summary = monte_carlo(cfg, n_runs=100)
        hits = sum(
            1
            for final in summary.final_forecasts
            if min(tv_distance(final, truth) for truth in truths) <= tv_threshold
        )
        assert hits >= 95, f"only {hits}/100 runs reached a fixed point"
        assert summary.self_fulfilling_fraction >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.2f}s"


@criterion(7, "nonatomic closed form, fixed point, and deviation audit")
def test_criterion_7_nonatomic_consistency():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        delta = float(rng.uniform(0.05, 0.45))
        pop = NonatomicPopulation(
            phi=float(rng.uniform(-2.0, 2.0)),
            chi=float(rng.uniform(-2.0, 2.0)),
            delta=delta,
            x=float(rng.uniform(delta, 1.0 - delta)),
            grid_n=401,
        )
        mean_a = float(rng.uniform(0.0, 1.0))
        closed = nonatomic_response_closed(pop, mean_a)
        numeric = nonatomic_response_numeric(pop, mean_a)
        assert abs(closed - numeric) <= 2.5e-3

    for _ in range(100):
        delta = float(rng.uniform(0.05, 0.45))
        pop = NonatomicPopulation(
            phi=float(rng.uniform(-2.0, 2.0)),
            chi=float(rng.uniform(-2.0, 2.0)),
            delta=delta,
            x=float(rng.uniform(delta, 1.0 - delta)),
            grid_n=401,
        )
        y_star = fixed_point_solve(
            lambda a: nonatomic_response_closed(pop, a), 0.0, 1.0, tol=1e-6
        )
        assert abs(nonatomic_response_closed(pop, y_star) - y_star) <= 1e-6
        # no type on the audit grid has a strictly improving deviation
        offsets = (np.arange(401) + 0.5) / 401
        types = (pop.x - pop.delta) + 2.0 * pop.delta * offsets
        margins = types + pop.phi * y_star + pop.chi
        chooses_one = margins >= 0.0
        deviation_gain = np.where(chooses_one, -margins, margins)
        assert float(deviation_gain.max()) <= 1e-6


@criterion(8, "flapping under the naive policy, damping under the others")
def test_criterion_8_flapping_vs_damping():
    game = crowding_game(2, 2)
    naive_cfg = SimConfig(
        setting="finite-game",
        policy="naive",
        policy_params={"initial_profile": (0, 0)},
        env_params={"game": game},
        stages=100,
        seed=0,
    )
    naive_traj = run_dynamic(naive_cfg)
    outcomes = [rec.y for rec in naive_traj]
    assert all(c == J((1, 1)) for c in outcomes[0::2])
    assert all(c == J((0, 0)) for c in outcomes[1::2])
    assert all(rec.losses["pred"] == 1.0 for rec in naive_traj)

    search_cfg = SimConfig(
        setting="finite-game",
        policy="partpred",
        policy_params={"r": 1, "update": "congestion"},
        env_params={"game": game},
        stages=20,
        seed=8,
    )
    assert run_dynamic(search_cfg).final.losses["pred"] == 0.0

    gamma, x = 2.5, 0.4
    beta = 1.0 - gamma
    base_env = {"beta": beta, "gamma": gamma, "x0_mean": x}
    damped_cfg = SimConfig(
        setting="linear",
        policy="expodamp",
        policy_params={"alpha": 1.0 / (1.0 - beta), "initial": (0.7,)},
        env_params=base_env,
        stages=40,
        seed=0,
    )
    damped_devs = [abs(rec.y.scalar - x) for rec in run_dynamic(damped_cfg)]
    assert min(damped_devs) < 1e-9
    naive_lin_cfg = SimConfig(
        setting="linear",
        policy="naive",
        policy_params={"initial": (0.7,)},
        env_params=base_env,
        stages=100,
        seed=0,
    )
    naive_devs = [abs(rec.y.scalar - x) for rec in run_dynamic(naive_lin_cfg)]
    assert min(naive_devs) >= 1e-9


def synthetic_drift_days(seed: int, days: int = 35, slots: int = 36) -> list[tuple[float, ...]]:
    """Day matrix from the drifting linear model: latent random walk plus noise."""
    rng = np.random.default_rng((909, seed))
    level = 20.0 + rng.normal(0.0, 2.0, size=slots)
    rows = []
    for _ in range(days):
        level = level + rng.normal(0.0, 1.0, size=slots)  # var_ex = 1 > 0: drift
        y = np.maximum(level + rng.normal(0.0, 0.5, size=slots), 0.0)
        rows.append(tuple(float(v) for v in y))
    return rows


@criterion(9, "damped policy beats the average baseline on drifting day data")
def test_criterion_9_synthetic_day_replays():
    prior = tuple(20.0 for _ in range(36))
    wins = 0
    for seed in range(100):
        rows = synthetic_drift_days(seed)
        mse_damped = trajectory_mse(
            replay("expodamp", {"alpha": 0.8, "initial": prior}, rows).records
        )
        mse_average = trajectory_mse(replay("average", {"prior": prior}, rows).records)
        wins += mse_damped < mse_average
    assert wins >= 95, f"damped policy won only {wins}/100 replays"


@criterion(10, "byte-identical trajectory CSVs under a fixed seed")
def test_criterion_10_determinism(tmp_path, bayes_corpus):
    noisy = tmp_path / "noisy.ini"
    noisy.write_text(
        "[run]\nsetting = linear\nstages = 40\nseed = 11\n"
        "[policy]\nname = kalman\nbeta = 0.4\ngamma = 0.8\nvar_ex = 0.3\n"
        "var_ey = 0.5\nx0_mean = 0.6\nx0_var = 0.4\n"
        "[environment]\nbeta = 0.4\ngamma = 0.8\nx0_mean = 0.6\nx0_var = 0.4\n"
        "var_ex = 0.3\nvar_ey = 0.5\n",
        encoding="utf-8",
    )
    search = tmp_path / "search.ini"
    search.write_text(
        "[run]\nsetting = finite-game\nstages = 25\nseed = 4\n"
        "[policy]\nname = partpred\nr = 2\nupdate = congestion\n"
        "[environment]\nplayers = 3\nslots = 3\n"
        "slot_0 = -1 -2 -3\nslot_1 = -1 -2 -3\nslot_2 = -1 -2 -3\n",
        encoding="utf-8",
    )
    for path in (noisy, search):
        config = load_sim_config(str(path))
        first = trajectory_csv(run_dynamic(config), config.losses())
        second = trajectory_csv(run_dynamic(config), config.losses())
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")

    bayes_cfg = SimConfig(
        setting="finite-game",
        policy="partpred",
        policy_params={"r": 20, "update": "general"},
        env_params={"game": bayes_corpus[0]},
        stages=150,
        seed=13,
    )
    first = trajectory_csv(run_dynamic(bayes_cfg), bayes_cfg.losses())
    second = trajectory_csv(run_dynamic(bayes_cfg), bayes_cfg.losses())
    assert first.encode("utf-8") == second.encode("utf-8")
