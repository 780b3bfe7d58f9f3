"""Property test: whatever an INI config holds, the CLI exits 0 or 2 and never raises.

Configs are drawn from a grammar of valid keys and values per setting and
policy, then corrupted by a few random edits: a value swapped for a
malformed, non-finite or extreme token, a key dropped, an unknown key or a
garbage line added, a section removed. Example generation is derandomized so
that the suite gives the same verdict on every run.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcast.cli import main
from crowdcast.engine import ENVS, SETTINGS
from crowdcast.policies import POLICIES

BAD_TOKENS = (
    "abc", "", "nan", "inf", "-inf", "1e999", "1 x", "2.5", "-1", "0", "99",
    "1e300", "-1e300", "1e-320", "0x10", "1,,2", "True", "congestion",
)

REAL = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)
NONNEG = st.floats(0.0, 2.0).map(repr)


def reals(n: int) -> st.SearchStrategy[str]:
    return st.lists(REAL, min_size=n, max_size=n).map(" ".join)


def profile(n: int) -> st.SearchStrategy[str]:
    return st.lists(st.integers(0, 2).map(str), min_size=n, max_size=n).map(" ".join)


@st.composite
def sim_config(draw) -> dict[str, dict[str, str]]:
    setting = draw(st.sampled_from(SETTINGS))
    name = draw(st.sampled_from(ENVS[setting].POLICIES))
    run = {
        "setting": setting,
        "stages": str(draw(st.integers(1, 12))),
        "seed": str(draw(st.integers(0, 2**32))),
    }
    if draw(st.booleans()):
        run["covariate"] = draw(st.sampled_from(["w0", "morning"]))
    if draw(st.booleans()):
        run["losses"] = draw(st.sampled_from(["point_pred", "pred", "nash", "pred nash", ""]))

    if setting == "finite-game":
        n, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        env = {"players": str(n), "slots": str(d)}
        env.update({f"slot_{k}": draw(reals(n)) for k in range(d)})
    elif setting == "linear":
        env = {"beta": draw(REAL), "gamma": draw(REAL), "x0_mean": draw(REAL)}
        for key in ("x0_var", "var_ex", "var_ey"):
            if draw(st.booleans()):
                env[key] = draw(NONNEG)
    else:
        env = {
            "phi": draw(REAL),
            "chi": draw(REAL),
            "delta": repr(draw(st.floats(0.01, 0.49))),
            "x": repr(draw(st.floats(0.0, 1.0))),
        }

    width = draw(st.integers(1, 2))
    candidates = {
        "alpha": REAL,
        "initial": reals(width),
        "prior": reals(width),
        "initial_profile": profile(int(env.get("players", "2"))),
        "beta": REAL,
        "gamma": REAL,
        "x0_mean": REAL,
        "var_ex": NONNEG,
        "var_ey": NONNEG,
        "x0_var": NONNEG,
        "r": st.integers(1, 3).map(str),
        "update": st.sampled_from(["congestion", "general"]),
        "initial_index": st.integers(-30, 30).map(str),
    }
    policy = {"name": name}
    for key in POLICIES[name].PARAMS[ENVS[setting].kind]:
        if draw(st.integers(0, 4)) > 0:
            policy[key] = draw(candidates[key])
    return {"run": run, "policy": policy, "environment": env}


@st.composite
def corrupted(draw, sections: dict[str, dict[str, str]]) -> str:
    sections = {name: dict(keys) for name, keys in sections.items()}
    extra_lines = []
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["value", "value", "drop", "unknown", "garbage", "section"]))
        name = draw(st.sampled_from(sorted(sections)))
        keys = sections[name]
        if edit == "value" and keys:
            keys[draw(st.sampled_from(sorted(keys)))] = draw(st.sampled_from(BAD_TOKENS))
        elif edit == "drop" and keys:
            del keys[draw(st.sampled_from(sorted(keys)))]
        elif edit == "unknown":
            keys["bogus"] = "1"
        elif edit == "garbage":
            extra_lines.append("??? not a key")
        elif edit == "section" and len(sections) > 1:
            del sections[name]
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines + extra_lines) + "\n"


EVALUATE = st.fixed_dictionaries(
    {
        "evaluate": st.fixed_dictionaries(
            {"policies": st.sampled_from(["expodamp", "average naive", "expodamp, naive"])}
        ),
        "expodamp": st.fixed_dictionaries({"alpha": REAL, "initial": reals(2)}),
        "naive": st.fixed_dictionaries({"initial": reals(2)}),
        "average": st.fixed_dictionaries({"prior": reals(2)}),
    }
)


def _run_quietly(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    text=sim_config().flatmap(corrupted),
    command=st.sampled_from(["simulate", "monte-carlo", "analyze"]),
)
def test_simulation_configs_exit_0_or_2(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(text, encoding="utf-8")
        argv = [command, "--config", str(config)]
        if command == "monte-carlo":
            argv += ["--runs", "2"]
        assert _run_quietly(argv) in (0, 2)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=EVALUATE.flatmap(corrupted))
def test_evaluate_configs_exit_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "eval.ini"
        config.write_text(text, encoding="utf-8")
        data = Path(tmp) / "days.csv"
        data.write_text("a,b\n1,2\n3,4\n2,2\n", encoding="utf-8")
        assert _run_quietly(["evaluate", "--data", str(data), "--config", str(config)]) in (0, 2)
