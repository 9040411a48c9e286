"""The benchmark's tracer (bench/tracing.py) run against the program.

The tracer wraps program functions by name, so a renamed or removed entry
point breaks a traced benchmark run.  These tests install it, run a
campaign and an analyze call, and check that every per-layer metric is
read and that tracing changes no output.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from discoh import cli, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import tracing

    return tracing


def run_both(werner, capsys):
    # looked up through the modules, so a traced run calls the wrapped functions
    campaign = verify.class3_extrema_campaign(trials=2, seed=0)
    code = cli.main(["analyze", str(werner), "--method", "both", "--format", "json"])
    return replace(campaign, seconds=0.0), code, capsys.readouterr().out


def test_traced_run_reads_every_metric_and_changes_nothing(tracing, tmp_path, capsys):
    werner = tmp_path / "werner.json"
    assert cli.main(["generate", "werner", "--p", "0.7", "-o", str(werner)]) == 0
    plain = run_both(werner, capsys)
    tracer = tracing.Tracer().install()
    try:
        traced = run_both(werner, capsys)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.PER_LAYER)
    assert traced == plain
    assert plain[1] == 0
    assert metrics["verify.campaign_s.theorem5"] > 0
    assert metrics["coherence.unitaries_rows"] > 0  # the searches' starts
    assert metrics["simplex.runs"] == 0  # two-qubit searches never reach the simplex


def test_traced_qudit_class3_search_changes_nothing(tracing, tmp_path, capsys):
    # class3 off two qubits runs line sweeps, so no search reaches the simplex
    pure = tmp_path / "pure23.json"
    argv = ["generate", "random-pure", "--dims", "2x3", "--seed", "9", "-o", str(pure)]
    assert cli.main(argv) == 0
    argv = ["analyze", str(pure), "--measures", "v,v_tilde", "--method", "numeric", "--format", "json"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = tracing.Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == plain
    assert tracer.metrics()["simplex.runs"] == 0


def test_uninstall_restores_the_program(tracing):
    from discoh import coherence, states

    names = (coherence.minimize_batch, coherence.unitaries_from_params, verify._run, cli.main)
    init = states.DensityMatrix.__init__
    tracing.Tracer().install().uninstall()
    assert (coherence.minimize_batch, coherence.unitaries_from_params, verify._run, cli.main) == names
    assert states.DensityMatrix.__init__ is init
