import hashlib
from pathlib import Path

import numpy as np
import pytest

from crowdcast.cli import (
    DayMatrix,
    main,
    parse_day_csv,
    serialize_day_csv,
)
from crowdcast.core import EmptyInputError, ParseError
from crowdcast.engine import closed_form_trajectory

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDayCsv:
    def test_well_formed_matrix(self, tmp_path):
        header = ",".join(f"s{i}" for i in range(36))
        rows = [",".join("1.5" for _ in range(36)) for _ in range(2)]
        path = write(tmp_path / "days.csv", header + "\n" + "\n".join(rows) + "\n")
        matrix = parse_day_csv(path)
        assert matrix.n_days == 2
        assert len(matrix.slot_labels) == 36

    def test_two_day_series_truth_against_itself(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [tuple(float(v) for v in rng.uniform(0, 42, size=36)) for _ in range(2)]
        matrix = DayMatrix(slot_labels=tuple(f"s{i}" for i in range(36)), rows=tuple(rows))
        path = write(tmp_path / "two_days.csv", serialize_day_csv(matrix))
        parsed = parse_day_csv(path)
        from crowdcast.core import PointForecast, StageRecord, trajectory_mse

        records = [
            StageRecord(t=t, w="w0", a=PointForecast(row), y=PointForecast(row))
            for t, row in enumerate(parsed.rows)
        ]
        assert trajectory_mse(records) == 0.0

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path / "bad.csv", "a,b,c\n1,2,3\n1,2\n")
        with pytest.raises(ParseError, match=":3:"):
            parse_day_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path / "bad.csv", "a,b\n1,x\n")
        with pytest.raises(ParseError, match="not a number"):
            parse_day_csv(path)

    def test_negative_cell_rejected(self, tmp_path):
        path = write(tmp_path / "bad.csv", "a,b\n1,-2\n")
        with pytest.raises(ParseError, match="negative"):
            parse_day_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_exits_2_naming_line_and_cell(self, tmp_path, capsys, cell):
        path = write(tmp_path / "bad.csv", f"a,b\n1,{cell}\n2,3\n")
        assert main(["evaluate", "--data", path]) == 2
        assert f"error: {path}:2: cell 2 is not finite" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "empty.csv", "")
        with pytest.raises(EmptyInputError):
            parse_day_csv(path)

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = DayMatrix(
            slot_labels=tuple(f"s{i}" for i in range(5)),
            rows=tuple(tuple(rng.uniform(0, 40, size=5)) for _ in range(3)),
        )
        canonical = serialize_day_csv(matrix)
        path = write(tmp_path / "canon.csv", canonical)
        assert serialize_day_csv(parse_day_csv(path)) == canonical


class TestSimulateCommand:
    def test_deterministic_run_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(CONFIG_DIR / "linear_damped.ini"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,a_0,y_0,point_pred"
        ys = [float(line.split(",")[2]) for line in lines[1:]]
        ref = closed_form_trajectory(gamma=0.5, alpha=2.0, a0=0.0, x=0.4, T=50)
        assert ys == pytest.approx(ref, rel=1e-12)
        assert "final_losses=point_pred=0" in capsys.readouterr().out

    def test_flapping_profile_column(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(CONFIG_DIR / "flapping_naive.ini"), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,a_0,a_1,y_0,y_1,pred,nash"
        y_cols = [tuple(line.split(",")[3:5]) for line in lines[1:]]
        assert y_cols[:4] == [("1", "1"), ("0", "0"), ("1", "1"), ("0", "0")]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        config = str(CONFIG_DIR / "partpred_search.ini")
        assert main(["simulate", "--config", config, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_stochastic_output(self, tmp_path):
        config = write(
            tmp_path / "noisy.ini",
            "[run]\nsetting = linear\nstages = 10\nseed = 1\n"
            "[policy]\nname = expodamp\nalpha = 0.5\ninitial = 0.0\n"
            "[environment]\nbeta = 0.5\ngamma = 0.5\nx0_mean = 0.4\nvar_ey = 0.5\n",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", config, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out2), "--seed", "99"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_unknown_policy_exits_2_and_lists_names(self, tmp_path, capsys):
        config = write(
            tmp_path / "bad.ini",
            "[run]\nsetting = linear\nstages = 5\nseed = 1\n"
            "[policy]\nname = oracle\n"
            "[environment]\nbeta = 0.5\ngamma = 0.5\nx0_mean = 0.4\n",
        )
        assert main(["simulate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "valid names" in err and "expodamp" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        run = "[run]\nsetting = linear\nstages = 5\nseed = 1\n"
        policy = "[policy]\nname = expodamp\nalpha = 0.5\n"
        env = "[environment]\nbeta = 0.5\ngamma = 0.5\nx0_mean = 0.4\n"
        evaluate = "[evaluate]\npolicies = expodamp\n"
        expodamp = "[expodamp]\nalpha = 0.5\n"
        cases = [
            ("simulate", run + "bogus = 1\n" + policy + env,
             "run.bogus: unknown parameter; allowed: covariate, losses, seed, setting, stages"),
            ("simulate", run + policy + "bogus = 1\n" + env,
             "policy.bogus: unknown parameter; allowed: alpha, initial, name"),
            ("simulate", run + policy + env + "bogus = 1\n",
             "environment.bogus: unknown parameter; allowed: beta, gamma, var_ex, var_ey, "
             "x0_mean, x0_var"),
            ("evaluate", evaluate + "bogus = 1\n" + expodamp,
             "evaluate.bogus: unknown parameter; allowed: policies"),
            ("evaluate", evaluate + expodamp + "bogus = 1\n",
             "expodamp.bogus: unknown parameter; allowed: alpha, initial"),
        ]
        data = write(tmp_path / "days.csv", "a,b\n1,2\n3,4\n")
        for command, text, message in cases:
            config = write(tmp_path / "bad.ini", text)
            argv = [command, "--config", config] + (["--data", data] if command == "evaluate" else [])
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {config}: {message}\n"

    def test_mse_recomputable_from_emitted_csv(self, tmp_path):
        config = write(
            tmp_path / "noisy.ini",
            "[run]\nsetting = linear\nstages = 35\nseed = 21\n"
            "[policy]\nname = expodamp\nalpha = 0.6\ninitial = 0.0\n"
            "[environment]\nbeta = 0.3\ngamma = 0.7\nx0_mean = 1.0\n"
            "var_ex = 0.2\nvar_ey = 0.1\n",
        )
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[:3] == ["t", "a_0", "y_0"]
        cells = [line.split(",") for line in lines[1:]]
        assert len(cells) == 35
        csv_mse = sum((float(a) - float(y)) ** 2 for _, a, y, *_ in cells) / len(cells)

        from crowdcast.core import trajectory_mse
        from crowdcast.engine import run_dynamic
        from crowdcast.cli import load_sim_config

        traj = run_dynamic(load_sim_config(config))
        assert trajectory_mse(traj.records) == pytest.approx(csv_mse, rel=1e-12)

    def test_emit_plot_data(self, tmp_path):
        plot = tmp_path / "plot.csv"
        assert main([
            "simulate", "--config", str(CONFIG_DIR / "linear_damped.ini"),
            "--emit-plot-data", str(plot),
        ]) == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "t,series,value"
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {"a_0", "y_0", "point_pred"}


class TestEvaluateCommand:
    def test_constant_data_table(self, tmp_path, capsys):
        rows = [",".join("4.0" for _ in range(3)) for _ in range(20)]
        data = write(tmp_path / "days.csv", "a,b,c\n" + "\n".join(rows) + "\n")
        assert main(["evaluate", "--data", data]) == 0
        out = capsys.readouterr().out
        assert "replay mode" in out
        assert "mean_squared_error" in out
        assert "expodamp" in out and "average" in out

    def test_policy_config_and_output_file(self, tmp_path):
        rng = np.random.default_rng(0)
        level = rng.uniform(5, 15, size=4)
        lines = ["a,b,c,d"]
        for _ in range(25):
            level = level + rng.normal(0, 1.0, size=4)
            level = np.maximum(level, 0.0)
            lines.append(",".join(repr(float(v)) for v in level))
        data = write(tmp_path / "days.csv", "\n".join(lines) + "\n")
        config = write(
            tmp_path / "eval.ini",
            "[evaluate]\npolicies = expodamp average\n[expodamp]\nalpha = 0.8\n",
        )
        table = tmp_path / "table.csv"
        assert main(["evaluate", "--data", data, "--config", config, "--out", str(table)]) == 0
        rows = table.read_text().strip().split("\n")
        assert rows[0] == "method,mean_squared_error"
        mse = {row.split(",")[0]: float(row.split(",")[1]) for row in rows[1:]}
        assert mse["expodamp"] < mse["average"]


class TestAnalyzeCommand:
    def test_crowding_game_report(self, capsys):
        assert main(["analyze", "--config", str(CONFIG_DIR / "crowding_game.ini")]) == 0
        out = capsys.readouterr().out
        assert "nash equilibria (2): (0, 1) [strict], (1, 0) [strict]" in out
        assert "candidate set size: 4" in out
        assert "self-fulfilling candidates (2): (0, 1), (1, 0)" in out
        assert "correspondence: OK" in out

    def test_constant_game_notes_vacuous_direction(self, tmp_path, capsys):
        config = write(
            tmp_path / "flat.ini",
            "[game]\nplayers = 2\nslots = 2\nslot_0 = 1 1\nslot_1 = 1 1\n",
        )
        assert main(["analyze", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "vacuous" in out

    def test_mid_sized_game_fast(self, tmp_path, capsys):
        import time

        rng = np.random.default_rng(8)
        rows = []
        for _ in range(3):
            vals = sorted(rng.uniform(-10, 10, size=4), reverse=True)
            rows.append("slot_utilities = " + " ".join(str(v) for v in vals))
        config = write(
            tmp_path / "g.ini",
            "[game]\nplayers = 4\nslots = 3\n"
            + "\n".join(
                f"slot_{k} = " + " ".join(repr(float(v)) for v in sorted(rng.uniform(-10, 10, size=4), reverse=True))
                for k in range(3)
            )
            + "\n",
        )
        start = time.perf_counter()
        assert main(["analyze", "--config", config]) == 0
        assert time.perf_counter() - start < 1.0
        capsys.readouterr()


class TestMonteCarloCommand:
    def test_summary_lines(self, capsys):
        assert main([
            "monte-carlo", "--config", str(CONFIG_DIR / "partpred_search.ini"), "--runs", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "runs=5" in out
        assert "self_fulfilling_fraction=1.0000" in out

    def test_log_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CROWDCAST_LOG", "DEBUG")
        assert main([
            "monte-carlo", "--config", str(CONFIG_DIR / "linear_damped.ini"), "--runs", "2",
        ]) == 0
        capsys.readouterr()


LINEAR_RUN = "[run]\nsetting = linear\nstages = 5\nseed = 1\n"
LINEAR_ENV = "[environment]\nbeta = 0.5\ngamma = 0.5\nx0_mean = 0.4\n"
GAME_RUN = "[run]\nsetting = finite-game\nstages = 5\nseed = 1\n[policy]\nname = partpred\nr = 2\n"


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("simulate", LINEAR_RUN + "[policy]\nname = expodamp\nalpha = abc\n" + LINEAR_ENV,
         "policy.alpha"),
        ("simulate", LINEAR_RUN + "[policy]\nname = expodamp\nalpha = 0.5\ninitial = 0.0 zz\n"
         + LINEAR_ENV, "policy.initial"),
        ("simulate", GAME_RUN.replace("r = 2", "r = 2.5")
         + "[environment]\nplayers = 2\nslots = 2\nslot_0 = -1 -2\nslot_1 = -1 -2\n", "policy.r"),
        ("simulate", GAME_RUN + "[environment]\nplayers = 2\nslots = 2\nslot_0 = 1 x\nslot_1 = -1 -2\n",
         "environment.slot_0"),
        ("analyze", "[game]\nplayers = 2\nslots = 2\nslot_0 = 1 x\nslot_1 = -1 -2\n", "game.slot_0"),
        ("evaluate", "[evaluate]\npolicies = expodamp\n[expodamp]\nalpha = abc\n", "expodamp.alpha"),
        ("simulate", LINEAR_RUN + "[policy]\nname = expodamp\nalpha = 0.5\n"
         + LINEAR_ENV.replace("beta = 0.5", "beta = nan"), "environment.beta"),
        ("simulate", LINEAR_RUN.replace("linear", "nonatomic") + "[policy]\nname = expodamp\nalpha = 0.5\n"
         "[environment]\nphi = inf\nchi = 0.1\ndelta = 0.2\nx = 0.5\n", "environment.phi"),
        ("simulate", LINEAR_RUN + "[policy]\nname = kalman\nbeta = 0.5\ngamma = 0.5\nx0_mean = -inf\n"
         + LINEAR_ENV, "policy.x0_mean"),
    ],
    ids=[
        "alpha-abc", "initial-zz", "r-fraction", "simulate-slot-x", "analyze-slot-x",
        "evaluate-alpha-abc", "beta-nan", "phi-inf", "x0_mean-minus-inf",
    ],
)
def test_malformed_value_exits_2_naming_file_and_field(tmp_path, capsys, command, text, field):
    config = write(tmp_path / "bad.ini", text)
    argv = [command, "--config", config]
    if command == "evaluate":
        argv += ["--data", write(tmp_path / "days.csv", "a,b\n1,2\n3,4\n")]
    assert main(argv) == 2
    assert f"{config}: {field}: expected" in capsys.readouterr().err


GAME_ENV = "[environment]\nplayers = 2\nslots = 2\nslot_0 = -1 -2\nslot_1 = -1 -2\n"
NONATOMIC_RUN = LINEAR_RUN.replace("linear", "nonatomic")
NONATOMIC_ENV = "[environment]\nphi = -0.8\nchi = -0.1\ndelta = 0.2\nx = 0.5\n"


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("simulate", GAME_RUN + "initial_index = 99\n" + GAME_ENV, "policy.initial_index"),
        ("simulate", GAME_RUN.replace("r = 2", "r = 0") + GAME_ENV, "policy.r"),
        ("simulate", GAME_RUN.replace("partpred\nr = 2", "empirical\ninitial_profile = 0 1 0")
         + GAME_ENV, "policy.initial_profile"),
        ("simulate", GAME_RUN.replace("partpred\nr = 2", "empirical\ninitial_profile = 0")
         + GAME_ENV, "policy.initial_profile"),
        ("simulate", GAME_RUN.replace("partpred\nr = 2", "naive\ninitial_profile = 0 5")
         + GAME_ENV, "policy.initial_profile"),
        ("simulate", LINEAR_RUN.replace("seed = 1", "seed = -1")
         + "[policy]\nname = expodamp\nalpha = 0.5\n" + LINEAR_ENV, "run.seed"),
        ("evaluate", "[evaluate]\npolicies =\n", "evaluate.policies"),
        # a vector opening forecast in a scalar setting
        ("simulate", LINEAR_RUN + "[policy]\nname = expodamp\nalpha = 0.5\ninitial = 0.1 0.2\n"
         + LINEAR_ENV, "policy.initial"),
        ("monte-carlo", NONATOMIC_RUN + "[policy]\nname = naive\ninitial = 0.1 0.2\n" + NONATOMIC_ENV,
         "policy.initial"),
        ("simulate", NONATOMIC_RUN + "[policy]\nname = average\nprior = 0.1 0.2\n" + NONATOMIC_ENV,
         "policy.prior"),
        ("monte-carlo", LINEAR_RUN + "[policy]\nname = average\nprior = 0.1 0.2\n" + LINEAR_ENV,
         "policy.prior"),
        # an opening forecast narrower or wider than the two-column day matrix
        ("evaluate", "[evaluate]\npolicies = naive\n[naive]\ninitial = 1 2 3\n", "naive.initial"),
        ("evaluate", "[evaluate]\npolicies = average\n[average]\nprior = 1\n", "average.prior"),
        # a key of the other setting kind
        ("simulate", LINEAR_RUN + "[policy]\nname = naive\ninitial = 0.1\ninitial_profile = 0 0\n"
         + LINEAR_ENV, "policy.initial_profile: unknown parameter; allowed: initial, name"),
        ("simulate", GAME_RUN.replace("partpred\nr = 2", "naive\ninitial_profile = 0 0\ninitial = 5 6")
         + GAME_ENV, "policy.initial: unknown parameter; allowed: initial_profile, name"),
        ("evaluate", "[evaluate]\npolicies = naive\n[naive]\ninitial_profile = 0 1\n",
         "naive.initial_profile: unknown parameter; allowed: initial"),
        # "replay" is not a setting, and replay does not run kalman
        ("simulate", LINEAR_RUN.replace("linear", "replay") + "[policy]\nname = expodamp\nalpha = 0.5\n"
         + LINEAR_ENV, "run.setting: 'replay' is not one of linear, nonatomic, finite-game"),
        ("evaluate", "[evaluate]\npolicies = kalman\n",
         "evaluate.policies: 'kalman' is not valid for replay; valid names: expodamp, average, naive"),
        # naive has no default opening forecast in a simulated setting
        ("simulate", LINEAR_RUN + "[policy]\nname = naive\n" + LINEAR_ENV,
         "policy.initial: required parameter missing"),
    ],
    ids=[
        "initial-index-out-of-range", "group-length-zero", "profile-longer-than-players", "profile-shorter-than-players",
        "profile-slot-out-of-range", "negative-seed", "no-policies", "vector-initial-linear",
        "vector-initial-nonatomic", "vector-prior-nonatomic", "vector-prior-linear",
        "wide-initial-evaluate", "narrow-prior-evaluate", "profile-key-on-linear",
        "point-key-on-finite-game", "profile-key-in-evaluate", "replay-as-setting",
        "kalman-in-evaluate", "naive-without-initial",
    ],
)
def test_inputs_that_used_to_crash_exit_2_naming_the_field(tmp_path, capsys, command, text, field):
    config = write(tmp_path / "bad.ini", text)
    argv = [command, "--config", config]
    if command == "evaluate":
        argv += ["--data", write(tmp_path / "days.csv", "a,b\n1,2\n3,4\n")]
    if command == "monte-carlo":
        argv += ["--runs", "2"]
    assert main(argv) == 2
    assert f"{config}: {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        LINEAR_RUN + "losses = nash\n[policy]\nname = expodamp\nalpha = 0.5\n" + LINEAR_ENV,
        GAME_RUN.replace("[policy]", "losses = point_pred\n[policy]") + GAME_ENV,
    ],
    ids=["nash-on-linear", "point_pred-on-finite-game"],
)
def test_unknown_loss_exits_2_naming_run_losses(tmp_path, capsys, text):
    config = write(tmp_path / "bad.ini", text)
    assert main(["simulate", "--config", config]) == 2
    assert f"{config}: run.losses" in capsys.readouterr().err
    assert main(["monte-carlo", "--config", config, "--runs", "2"]) == 2
    assert f"{config}: run.losses" in capsys.readouterr().err


def test_runs_below_one_exits_2_naming_the_flag(tmp_path, capsys):
    config = write(
        tmp_path / "ok.ini", LINEAR_RUN + "[policy]\nname = expodamp\nalpha = 0.5\n" + LINEAR_ENV
    )
    assert main(["monte-carlo", "--config", config, "--runs", "0"]) == 2
    assert "error: --runs: need at least one run" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["monte-carlo", "--runs", "2"]], ids=["simulate", "monte-carlo"]
)
def test_negative_seed_flag_exits_2_naming_the_flag(tmp_path, capsys, argv):
    config = write(
        tmp_path / "ok.ini", LINEAR_RUN + "[policy]\nname = expodamp\nalpha = 0.5\n" + LINEAR_ENV
    )
    assert main(argv + ["--config", config, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error: --seed: expected a nonnegative integer, got -1" in err
    assert config not in err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["monte-carlo", "--runs", "2"]], ids=["simulate", "monte-carlo"]
)
def test_diverging_point_run_exits_2_naming_file_and_stage(tmp_path, capsys, argv):
    # with alpha = 1 each forecast is the last outcome, which beta = 3 triples until it overflows
    config = write(
        tmp_path / "diverge.ini",
        "[run]\nsetting = linear\nstages = 2000\nseed = 1\n"
        "[policy]\nname = expodamp\nalpha = 1.0\ninitial = 0.5\n"
        "[environment]\nbeta = 3.0\ngamma = 0.5\nx0_mean = 0.4\n",
    )
    assert main(argv + ["--config", config]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: stage 646: point forecast entries must be finite" in err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["monte-carlo", "--runs", "2"]], ids=["simulate", "monte-carlo"]
)
def test_diverging_kalman_run_exits_2_naming_file_and_stage(tmp_path, capsys, argv):
    # the filter assumes beta = 0.4 while outcomes follow beta = -3, so each forecast
    # overshoots further; at stage 993 the forecast itself is no longer finite
    config = write(
        tmp_path / "diverge.ini",
        "[run]\nsetting = linear\nstages = 2000\nseed = 1\n"
        "[policy]\nname = kalman\nbeta = 0.4\ngamma = 0.8\nvar_ex = 0.3\nvar_ey = 0.5\n"
        "x0_mean = 0.6\nx0_var = 0.4\n"
        "[environment]\nbeta = -3.0\ngamma = 0.8\nx0_mean = 0.6\n",
    )
    assert main(argv + ["--config", config]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: stage 993: point forecast entries must be finite" in err


def test_evaluate_errors_name_the_file_and_the_policy_section(tmp_path, capsys):
    data = write(tmp_path / "days.csv", "a,b\n1,2\n3,4\n")
    config = write(tmp_path / "e.ini", "[evaluate]\npolicies = expodamp\n")
    assert main(["evaluate", "--data", data, "--config", config]) == 2
    assert f"error: {config}: expodamp.alpha: required parameter missing" in capsys.readouterr().err
    # stage 1 forecasts 1e308 times the first row, whose 2 takes it beyond the float range
    config = write(
        tmp_path / "e.ini", "[evaluate]\npolicies = average expodamp\n[expodamp]\nalpha = 1e308\n"
    )
    assert main(["evaluate", "--data", data, "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: expodamp: stage 1: point forecast entries must be finite" in err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["monte-carlo", "--runs", "2"]], ids=["simulate", "monte-carlo"]
)
def test_enumeration_guard_exits_2_naming_the_file(tmp_path, capsys, argv):
    slots = "".join(f"slot_{k} = {' '.join(['-1'] * 13)}\n" for k in range(3))
    config = write(
        tmp_path / "big.ini", GAME_RUN + "[environment]\nplayers = 13\nslots = 3\n" + slots
    )
    assert main(argv + ["--config", config]) == 2
    assert f"error: {config}: 3^13 profiles exceed the enumeration guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, section",
    [(["simulate"], "environment"), (["analyze"], "game")],
    ids=["simulate", "analyze"],
)
def test_slot_beyond_the_game_exits_2_naming_file_and_key(tmp_path, capsys, argv, section):
    table = GAME_ENV.replace("[environment]", f"[{section}]") + "slot_2 = -1 -2\n"
    config = write(tmp_path / "game.ini", (GAME_RUN if section == "environment" else "") + table)
    assert main(argv + ["--config", config]) == 2
    assert f"{config}: {section}.slot_2: unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["monte-carlo", "--runs", "2"]], ids=["simulate", "monte-carlo"]
)
def test_degenerate_kalman_gain_exits_2_naming_file_and_stage(tmp_path, capsys, argv):
    # no prior spread and no outcome noise leave the first update without a gain
    config = write(
        tmp_path / "degenerate.ini",
        LINEAR_RUN + "[policy]\nname = kalman\nbeta = 0.5\ngamma = 0.5\nx0_mean = 0.4\n"
        "var_ey = 0\nx0_var = 0\n" + LINEAR_ENV,
    )
    assert main(argv + ["--config", config]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: stage 1: gamma^2 * x_var + var_ey is zero" in err


def test_spread_beyond_float_range_reads_inf(tmp_path, capsys):
    config = write(
        tmp_path / "wide.ini",
        LINEAR_RUN + "[policy]\nname = expodamp\nalpha = 0.5\n"
        "[environment]\nbeta = 0.5\ngamma = 0.5\nx0_mean = 0.0\nx0_var = 1e300\n",
    )
    assert main(["monte-carlo", "--config", config, "--runs", "3"]) == 0
    assert "var=inf" in capsys.readouterr().out


# --- golden outputs ---------------------------------------------------------------

# The two configs of acceptance criterion 10.
NOISY_KALMAN_INI = (
    "[run]\nsetting = linear\nstages = 40\nseed = 11\n"
    "[policy]\nname = kalman\nbeta = 0.4\ngamma = 0.8\nvar_ex = 0.3\n"
    "var_ey = 0.5\nx0_mean = 0.6\nx0_var = 0.4\n"
    "[environment]\nbeta = 0.4\ngamma = 0.8\nx0_mean = 0.6\nx0_var = 0.4\n"
    "var_ex = 0.3\nvar_ey = 0.5\n"
)
SEARCH_INI = (
    "[run]\nsetting = finite-game\nstages = 25\nseed = 4\n"
    "[policy]\nname = partpred\nr = 2\nupdate = congestion\n"
    "[environment]\nplayers = 3\nslots = 3\n"
    "slot_0 = -1 -2 -3\nslot_1 = -1 -2 -3\nslot_2 = -1 -2 -3\n"
)
EVALUATE_INI = (
    "[evaluate]\npolicies = expodamp, average naive\n"
    "[expodamp]\nalpha = 0.35\ninitial = 5 5 5\n"
    "[average]\nprior = 1 2 3\n"
    "[naive]\ninitial = 4 4 4\n"
)


def synthetic_days(n_days: int = 30, seed: int = 5) -> str:
    """A random-walk day matrix over three slots, in canonical CSV form."""
    rng = np.random.default_rng(seed)
    level = rng.uniform(5, 15, size=3)
    rows = []
    for _ in range(n_days):
        level = np.maximum(level + rng.normal(0, 1.0, size=3), 0.0)
        rows.append(tuple(float(v) for v in level))
    return serialize_day_csv(DayMatrix(slot_labels=("s0", "s1", "s2"), rows=tuple(rows)))


# sha256 of each output, recorded before the policy, parameter and game
# parsing code was consolidated; temp paths in stdout read as "<tmp>".
GOLDEN = {
    "simulate linear_damped csv": "f24ada6ece4cb35158f93e6e6f56b567339c25933704b9754c71bcbf427de93c",
    "simulate linear_damped plot": "e922e39472dbff9d4a0c44fd84c8dc9a8d078164a94bed19e259ca4e74b3f6de",
    "simulate linear_damped stdout": "fee13c6a2dc1cfd1c978da5e5d13dcc30daeb9f623f201ac8ecc8b87d2304b72",
    "simulate flapping_naive csv": "ca09b992c5117f45bf6648ee5481da7fc475aeb81087c964b942115b7574719f",
    "simulate flapping_naive plot": "865c7d9abba15befa36b04b3e3e81a59ce13f25829710d0bd84d889c0282c94c",
    "simulate flapping_naive stdout": "421a17b03d3990b06daa6eda23a15e26decbf3c6550eff5c0ed21866cdb0e66f",
    "simulate partpred_search csv": "31b420771d63dca5b2f7dae5771c4fa9dff87272a9aee573d5c8b1ae659a7aff",
    "simulate partpred_search plot": "decdfd9c2209fc1232361a7c02dd06342ac909d663d7001aa7f1688fdd559d4a",
    "simulate partpred_search stdout": "2b4922181f65556718a25390d437e375febb37152016e0cf66b8f685c658dd18",
    "simulate noisy_kalman csv": "7eddf6e9129b140029c21101084080d7c407f2dae458322a2e72c68b017ce1fe",
    "simulate noisy_kalman plot": "cf04f24ffc0d4d1ac24f296632d7ca625cbc9848c8a66128d732a66c872d0a52",
    "simulate noisy_kalman stdout": "80fe7a92b1ccbfeae338eb09be3b0db73401a9d5294be4a3145cb5f4a8102afb",
    "simulate search csv": "b8b5bff38bb299dbd5a4948293c23d9482eecb1815cd829d8de318e717f7af86",
    "simulate search plot": "ec90cd81cd14ab2095caee9da54ab38fff9cabf5efa076e6f35c8ad668d4a48c",
    "simulate search stdout": "a7bb3dbbd9a6c1fc59395a4d989dd7827f76255f8b30cdb7cfa8429a51d1fde1",
    "analyze crowding_game stdout": "1ab9498dbd78857d4d4336cd3b7481fdde4620306a412565b992831f1dfc61cd",
    "monte-carlo partpred_search stdout": "5f82a2eb7d49cf2f6313849ae9400ebd51ff41f2d6cc2490e0594da765f496fb",
    # recorded before the settings were described on their environment classes
    "evaluate synthetic csv": "e9258a29b3513bf122dcd19f68ecc2f2d40281a5b02a10bd714e4545ec3fd179",
    "evaluate synthetic stdout": "191389b9e68210d1d5e33b3455b503b95845d4e60b644c4dd599841e0665c099",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(tmp_path: Path, capsys) -> dict[str, str]:
    """Run every pinned command and digest its files and normalised stdout."""
    sims = {
        "linear_damped": str(CONFIG_DIR / "linear_damped.ini"),
        "flapping_naive": str(CONFIG_DIR / "flapping_naive.ini"),
        "partpred_search": str(CONFIG_DIR / "partpred_search.ini"),
        "noisy_kalman": write(tmp_path / "noisy.ini", NOISY_KALMAN_INI),
        "search": write(tmp_path / "search.ini", SEARCH_INI),
    }
    commands = {
        "analyze crowding_game": ["analyze", "--config", str(CONFIG_DIR / "crowding_game.ini")],
        "monte-carlo partpred_search": [
            "monte-carlo", "--config", sims["partpred_search"], "--runs", "3",
        ],
    }
    digests = {}
    capsys.readouterr()
    for name, config in sims.items():
        out, plot = tmp_path / f"{name}.csv", tmp_path / f"{name}.plot.csv"
        argv = ["simulate", "--config", config, "--out", str(out), "--emit-plot-data", str(plot)]
        assert main(argv) == 0, name
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        digests[f"simulate {name} csv"] = _sha(out.read_bytes())
        digests[f"simulate {name} plot"] = _sha(plot.read_bytes())
        digests[f"simulate {name} stdout"] = _sha(stdout.encode("utf-8"))
    for name, argv in commands.items():
        assert main(argv) == 0, name
        digests[f"{name} stdout"] = _sha(capsys.readouterr().out.encode("utf-8"))
    table = tmp_path / "evaluate.csv"
    argv = [
        "evaluate", "--data", write(tmp_path / "days.csv", synthetic_days()),
        "--config", write(tmp_path / "eval.ini", EVALUATE_INI), "--out", str(table),
    ]
    assert main(argv) == 0, "evaluate"
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digests["evaluate synthetic csv"] = _sha(table.read_bytes())
    digests["evaluate synthetic stdout"] = _sha(stdout.encode("utf-8"))
    return digests


def test_outputs_match_golden_digests(tmp_path, capsys):
    assert golden_digests(tmp_path, capsys) == GOLDEN
