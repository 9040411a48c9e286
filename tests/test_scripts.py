"""Argument checks of the runnable scripts."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_campaign_script_takes_only_a_finite_positive_scale(scale, monkeypatch, capsys):
    script = load_script("random_state_campaign")
    monkeypatch.setattr(script, "run_suite", lambda *args, **kwargs: pytest.fail("a suite ran"))
    monkeypatch.setattr(sys, "argv", ["random_state_campaign.py", "--scale", scale])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert "--scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, argv",
    [("random_state_campaign", ["--seed", "-1"]), ("werner_sweep", ["--check", "--seed", "-1"])],
)
def test_scripts_take_only_a_nonnegative_seed(name, argv, monkeypatch, capsys):
    # numpy's generators take no negative seed; the parser turns it away first
    script = load_script(name)
    work = "discoh_main" if name == "werner_sweep" else "run_suite"
    monkeypatch.setattr(script, work, lambda *args, **kwargs: pytest.fail("work started"))
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--seed" in err and "at least 0" in err and out == ""


@pytest.mark.parametrize(
    "name, steps",
    [("phase_damping_decay", "1"), ("phase_damping_decay", "0"), ("werner_sweep", "1")],
)
def test_scripts_take_at_least_two_steps(name, steps, monkeypatch, capsys):
    # a grid of one point has no spacing; the parser turns it away before any work
    script = load_script(name)
    work = "discoh_main" if name == "werner_sweep" else "apply_channel"
    monkeypatch.setattr(script, work, lambda *args, **kwargs: pytest.fail("work started"))
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--steps", steps])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--steps" in err and "at least 2" in err and out == ""


def test_werner_script_prints_the_sweep_command_csv(monkeypatch, capsys):
    from discoh.cli import main

    assert main(["sweep", "--steps", "51"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["werner_sweep.py", "--steps", "51"])
    assert load_script("werner_sweep").main() == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert want.count("\n") == 52 and "# onset between" in captured.err
