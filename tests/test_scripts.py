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


def test_werner_script_prints_the_sweep_command_csv(monkeypatch, capsys):
    from discoh.cli import main

    assert main(["sweep", "--steps", "51"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["werner_sweep.py", "--steps", "51"])
    assert load_script("werner_sweep").main() == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert want.count("\n") == 52 and "# onset between" in captured.err
