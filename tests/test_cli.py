"""CLI contract tests: exit codes, formats, determinism, round trips."""

import json
import subprocess
import sys

import numpy as np
import pytest

from discoh import cli, measures, verify
from discoh.cli import main
from discoh.coherence import OptimizerConfig, maximize_over_bases, minimize_over_bases
from discoh.discord import discord_ab_analytic
from discoh.states import load_state, make_werner


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        code, _, err = run_cli("analyze", "--bogus", capsys=capsys)
        assert code == 1

    def test_usage_error_no_command(self, capsys):
        code, _, _ = run_cli(capsys=capsys)
        assert code == 1

    def test_usage_error_bad_measure(self, capsys):
        code, _, _ = run_cli("analyze", "x.json", "--measures", "entropy", capsys=capsys)
        assert code == 1

    def test_usage_error_bad_dims(self, capsys):
        code, _, _ = run_cli("generate", "random-pure", "--dims", "2by3", "-o", "x", capsys=capsys)
        assert code == 1

    def test_validation_error_bad_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {"dims": [2, 2], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
            )
        )
        code, _, err = run_cli("analyze", str(path), capsys=capsys)
        assert code == 2
        assert "trace" in err

    def test_validation_error_werner_needs_p(self, tmp_path, capsys):
        code, _, _ = run_cli("generate", "werner", "-o", str(tmp_path / "w.json"), capsys=capsys)
        assert code == 2

    def test_validation_error_analytic_d_tilde(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        assert run_cli("generate", "werner", "--p", "0.5", "-o", str(state), capsys=capsys)[0] == 0
        code, _, err = run_cli(
            "analyze", str(state), "--measures", "d_tilde", "--method", "analytic", capsys=capsys
        )
        assert code == 2
        assert "d_tilde" in err

    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run_cli("verify", "eq64", "--trials", "10", capsys=capsys)
        assert code == 0
        assert "PASS" in out

    def test_verify_failure_is_three(self, capsys):
        code, out, _ = run_cli("verify", "eq64", "--trials", "5", "--tol", "0", capsys=capsys)
        assert code == 3
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ("--trials", "0"),
            ("--trials", "-3"),
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--tol", "-1"),
        ],
    )
    def test_verify_that_checks_nothing_is_usage_error(self, flags, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        code, out, err = run_cli("verify", "eq64", *flags, capsys=capsys)
        assert code == 1
        assert "PASS" not in out
        assert flags[0] in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "generate"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        # numpy's generators take no negative seed; the parser turns it away
        path = tmp_path / "w.json"
        run_cli("generate", "werner", "--p", "0.8", "-o", str(path), capsys=capsys)
        monkeypatch.setattr(measures, "search_bases", lambda *a: pytest.fail("searched"))
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        written = tmp_path / "x.json"
        argv = {
            "analyze": ("analyze", str(path), "--method", "numeric", "--measures", "v"),
            "verify": ("verify", "eq64", "--trials", "2"),
            "generate": ("generate", "random-pure", "--dims", "2x3", "-o", str(written)),
        }[command]
        code, out, err = run_cli(*argv, "--seed", "-1", capsys=capsys)
        assert code == 1
        assert "--seed" in err and "at least 0" in err and out == ""
        assert not written.exists()

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_objective_tolerance_is_usage_error(
        self, tolerance, tmp_path, capsys, monkeypatch
    ):
        # an infinite tolerance counts every restart converged before it moves
        path = tmp_path / "w.json"
        run_cli("generate", "werner", "--p", "0.8", "-o", str(path), capsys=capsys)
        monkeypatch.setattr(measures, "search_bases", lambda *a: pytest.fail("searched"))
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        flags = ("--objective-tolerance", tolerance)
        for argv in (
            ("analyze", str(path), "--measures", "d_ab,d_tilde", "--method", "both", *flags),
            ("verify", "theorem5", "--trials", "2", *flags),
        ):
            code, out, err = run_cli(*argv, capsys=capsys)
            assert code == 1
            assert "--objective-tolerance" in err and out == ""

    @pytest.mark.parametrize(
        "flags, commands",
        [
            (("--restarts", "0"), ("analyze", "verify")),
            (("--max-iterations", "0"), ("analyze", "verify")),
            (("--objective-tolerance", "0"), ("analyze", "verify")),
            (("--objective-tolerance", "-1"), ("analyze", "verify")),
            (("--samples", "0"), ("verify",)),
            (("--steps", "1"), ("sweep",)),
            (("--rank", "0"), ("generate",)),
        ],
    )
    def test_out_of_range_number_is_usage_error(
        self, flags, commands, tmp_path, capsys, monkeypatch
    ):
        # each flag is range-checked as it is parsed, before any work starts
        path = tmp_path / "w.json"
        run_cli("generate", "werner", "--p", "0.8", "-o", str(path), capsys=capsys)
        monkeypatch.setattr(measures, "search_bases", lambda *a: pytest.fail("searched"))
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        monkeypatch.setattr(cli, "werner_sweep", lambda *args: pytest.fail("swept"))
        written = tmp_path / "x.json"
        for command in commands:
            argv = {
                "analyze": ("analyze", str(path), "--method", "numeric", "--measures", "v"),
                "verify": ("verify", "corollary1" if flags[0] == "--samples" else "theorem5"),
                "sweep": ("sweep",),
                "generate": ("generate", "random-mixed", "--dims", "2x3", "-o", str(written)),
            }[command]
            code, out, err = run_cli(*argv, *flags, capsys=capsys)
            assert code == 1, command
            assert flags[0] in err and out == "", command
        assert not written.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("eq64", "--dims", "3x3"),
            ("eq64", "--samples", "5"),
            ("theorem5", "--dims", "2x2"),
            ("corollary1", "--dims", "2x2"),
            ("monogamy", "--samples", "5"),
        ],
    )
    def test_verify_option_the_suite_ignores_is_usage_error(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        code, _, err = run_cli("verify", *argv, capsys=capsys)
        assert code == 1
        assert f"takes no {argv[1]}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eq64", "--restarts", "3"),
            ("eq64", "--max-iterations", "5"),
            ("monogamy", "--max-iterations", "1"),
            ("classical-zero", "--objective-tolerance", "1e-3"),
            ("corollary1", "--restarts", "4"),
        ],
    )
    def test_verify_search_flag_on_suite_without_search_is_usage_error(
        self, argv, capsys, monkeypatch
    ):
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        code, _, err = run_cli("verify", *argv, capsys=capsys)
        assert code == 1
        assert f"takes no {argv[1]}" in err

    def test_verify_seed_is_valid_on_every_suite(self, capsys):
        code, out, _ = run_cli("verify", "eq64", "--trials", "2", "--seed", "4", capsys=capsys)
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "flags, restarts, max_iterations, tolerance",
        [
            ((), 32, 2000, 1e-9),
            (("--restarts", "8"), 8, 2000, 1e-9),
            (("--restarts", "3", "--objective-tolerance", "1e-9"), 3, 2000, 1e-9),
            (("--max-iterations", "50", "--objective-tolerance", "1e-6"), 32, 50, 1e-6),
        ],
    )
    def test_verify_search_flags_reach_the_config(
        self, flags, restarts, max_iterations, tolerance, capsys, monkeypatch
    ):
        seen = {}

        def fake_run_suite(name, trials, tol, seed, workers, **options):
            seen.update(options)
            return verify.CampaignResult(name, 1, 0, 0.0, 1e-6, 0.0, 0)

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        code, _, _ = run_cli("verify", "theorem5", "--seed", "6", *flags, capsys=capsys)
        assert code == 0
        assert seen == {"config": OptimizerConfig(restarts, max_iterations, tolerance, seed=6)}

    def test_sweep_has_no_seed(self, capsys):
        assert run_cli("sweep", "--seed", "3", capsys=capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help", capsys=capsys)[0] == 0


class TestGenerate:
    def test_bell_round_trip(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        assert run_cli("generate", "bell", "--which", "phi+", "-o", str(path), capsys=capsys)[0] == 0
        rho = load_state(path)
        assert discord_ab_analytic(rho)[0] == pytest.approx(0.5, abs=1e-12)

    def test_werner_validates(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        run_cli("generate", "werner", "--p", "0.5", "-o", str(path), capsys=capsys)
        rho = load_state(path)
        assert np.allclose(rho.mat, make_werner(0.5).mat)

    def test_random_pure_reproducible_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("generate", "random-pure", "--dims", "2x3", "--seed", "9", "-o", str(a), capsys=capsys)
        run_cli("generate", "random-pure", "--dims", "2x3", "--seed", "9", "-o", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_random_mixed_rank(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        run_cli(
            "generate", "random-mixed", "--dims", "2x2", "--rank", "2", "--seed", "3",
            "-o", str(path), capsys=capsys,
        )
        w = np.linalg.eigvalsh(load_state(path).mat)
        assert np.sum(w > 1e-10) == 2

    def test_product_state_has_zero_discord(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run_cli("generate", "product", "--dims", "2x2", "--seed", "4", "-o", str(path), capsys=capsys)
        assert discord_ab_analytic(load_state(path))[0] == pytest.approx(0.0, abs=1e-10)


class TestAnalyze:
    @pytest.fixture()
    def bell_path(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run_cli("generate", "bell", "--which", "phi+", "-o", str(path), capsys=capsys)
        return str(path)

    def test_d_sym_analytic(self, bell_path, capsys):
        code, out, _ = run_cli(
            "analyze", bell_path, "--measures", "d_sym", "--method", "analytic",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        rec = payload["records"][0]
        assert rec["measure"] == "d_sym"
        assert rec["value"] == pytest.approx(1.0, abs=1e-12)

    def test_all_measures_on_bell(self, bell_path, capsys):
        code, out, _ = run_cli("analyze", bell_path, "--format", "json", "--restarts", "8", capsys=capsys)
        assert code == 0
        values = {r["measure"]: r for r in json.loads(out)["records"]}
        assert values["v"]["value"] == pytest.approx(0.25, abs=1e-12)
        assert values["v_tilde"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert values["chsh"]["detail"]["violated"] is True
        assert values["concurrence"]["value"] == pytest.approx(1.0, abs=1e-10)
        assert values["monogamy"]["value"] == pytest.approx(0.0, abs=1e-10)
        assert values["d_tilde"]["method"] == "numeric"

    def test_maximally_mixed_all_zero(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        run_cli("generate", "werner", "--p", "0", "-o", str(path), capsys=capsys)
        code, out, _ = run_cli("analyze", str(path), "--format", "json", "--restarts", "8", capsys=capsys)
        assert code == 0
        for rec in json.loads(out)["records"]:
            if rec["measure"] == "chsh":
                assert rec["detail"]["violated"] is False
            else:
                assert rec["value"] == pytest.approx(0.0, abs=1e-8)

    def test_json_matches_in_process_values_exactly(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        run_cli("generate", "random-mixed", "--dims", "2x2", "--seed", "8", "-o", str(path), capsys=capsys)
        code, out, _ = run_cli(
            "analyze", str(path), "--measures", "d_ab,d_tilde", "--method", "numeric",
            "--format", "json", "--seed", "5", "--restarts", "8", capsys=capsys,
        )
        assert code == 0
        values = {r["measure"]: r["value"] for r in json.loads(out)["records"]}
        rho = load_state(path)
        cfg = OptimizerConfig(restarts=8, seed=5)
        assert values["d_ab"] == minimize_over_bases(rho, "class1", cfg).value
        assert values["d_tilde"] == minimize_over_bases(rho, "tilde_total", cfg).value

    def test_numeric_sums_and_class3_match_direct_searches_exactly(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        run_cli("generate", "random-mixed", "--dims", "2x2", "--seed", "8", "-o", str(path), capsys=capsys)
        code, out, _ = run_cli(
            "analyze", str(path), "--measures", "d_sym,v,v_tilde", "--method", "numeric",
            "--format", "json", "--seed", "5", "--restarts", "8", capsys=capsys,
        )
        assert code == 0
        records = {r["measure"]: r for r in json.loads(out)["records"]}
        rho = load_state(path)
        cfg = OptimizerConfig(restarts=8, seed=5)
        class1 = minimize_over_bases(rho, "class1", cfg)
        class2 = minimize_over_bases(rho, "class2", cfg)
        low = minimize_over_bases(rho, "class3", cfg)
        high = maximize_over_bases(rho, "class3", cfg)
        assert records["d_sym"]["value"] == class1.value + class2.value
        assert records["d_sym"]["converged"] == (class1.converged and class2.converged)
        assert records["v"]["value"] == low.value
        assert records["v_tilde"]["value"] == high.value

    def test_both_runs_each_search_once(self, bell_path, capsys, monkeypatch):
        calls = []
        search = measures.search_bases

        def counted(jobs, config):
            calls.append([(objective, sense) for _, objective, sense in jobs])
            return search(jobs, config)

        monkeypatch.setattr(measures, "search_bases", counted)
        code, out, _ = run_cli(
            "analyze", bell_path, "--method", "both", "--format", "json", "--restarts", "8", capsys=capsys
        )
        assert code == 0
        assert calls == [
            [("class1", "min"), ("class2", "min"), ("tilde_total", "min"),
             ("class3", "min"), ("class3", "max")],
        ]  # fmt: skip
        numeric = [r["measure"] for r in json.loads(out)["records"] if r["method"] == "numeric"]
        assert numeric == ["d_ab", "d_ba", "d_sym", "d_tilde", "v", "v_tilde"]

    def test_default_on_qudit_pure_state(self, tmp_path, capsys):
        path = tmp_path / "psi.json"
        run_cli("generate", "random-pure", "--dims", "2x3", "--seed", "9", "-o", str(path), capsys=capsys)
        code, out, _ = run_cli("analyze", str(path), "--format", "json", "--restarts", "8", capsys=capsys)
        assert code == 0
        records = json.loads(out)["records"]
        names = [r["measure"] for r in records]
        assert names == [
            "d_ab", "d_ba", "d_sym", "d_tilde", "v", "v_tilde", "concurrence", "monogamy",
        ]  # fmt: skip
        assert all(r["detail"] == {"note": "exploratory"} for r in records[:6])

    def test_default_analytic_drops_d_tilde(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        run_cli("generate", "werner", "--p", "0.5", "-o", str(path), capsys=capsys)
        code, out, _ = run_cli("analyze", str(path), "--method", "analytic", "--format", "json", capsys=capsys)
        assert code == 0
        names = [r["measure"] for r in json.loads(out)["records"]]
        assert names == ["d_ab", "d_ba", "d_sym", "v", "v_tilde", "chsh", "concurrence"]

    def test_analytic_beyond_two_qubits_fails_before_searching(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "psi.json"
        run_cli("generate", "random-pure", "--dims", "2x3", "--seed", "9", "-o", str(path), capsys=capsys)
        monkeypatch.setattr(measures, "search_bases", lambda *a: pytest.fail("searched"))
        code, _, err = run_cli(
            "analyze", str(path), "--measures", "concurrence,d_tilde", "--method", "both", capsys=capsys
        )
        assert code == 2
        assert "analytic method needs dims (2, 2) for d_tilde; this state is 2x3" in err
        code, _, err = run_cli("analyze", str(path), "--measures", "d_ab,chsh", capsys=capsys)
        assert code == 2
        assert "chsh needs dims (2, 2)" in err

    def test_named_measures_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        # main reuses one parser, so its --measures default must come back unchanged
        path = tmp_path / "w.json"
        run_cli("generate", "werner", "--p", "0.5", "-o", str(path), capsys=capsys)
        args = ("analyze", str(path), "--method", "analytic", "--format", "json")
        _, before, _ = run_cli(*args, capsys=capsys)
        _, named, _ = run_cli(*args, "--measures", "d_ab", capsys=capsys)
        _, after, _ = run_cli(*args, capsys=capsys)
        assert [r["measure"] for r in json.loads(named)["records"]] == ["d_ab"]
        assert after == before
        assert len(json.loads(after)["records"]) == 7

    def test_byte_deterministic_output(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        run_cli("generate", "random-mixed", "--dims", "2x2", "--seed", "2", "-o", str(path), capsys=capsys)
        args = ("analyze", str(path), "--method", "both", "--format", "csv", "--restarts", "8")
        _, out1, _ = run_cli(*args, capsys=capsys)
        _, out2, _ = run_cli(*args, capsys=capsys)
        assert out1 == out2

    def test_table_format(self, bell_path, capsys):
        code, out, _ = run_cli("analyze", bell_path, "--measures", "v,chsh", capsys=capsys)
        assert code == 0
        assert "measure" in out
        assert "violated=true" in out

    def test_output_file(self, bell_path, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            "analyze", bell_path, "--measures", "v", "--format", "json", "-o", str(target),
            capsys=capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["records"][0]["measure"] == "v"


class TestSweep:
    def test_header_and_formats(self, capsys):
        code, out, _ = run_cli("sweep", "--steps", "5", capsys=capsys)
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "p,d_ab,d_ba,d_sym,v,v_tilde,horodecki_m,chsh_violated"
        assert lines[-1] == ""  # trailing newline
        assert lines[5] == "1,0.5,0.5,1,0.25,0.5,2,true"
        assert lines[1].endswith("false")

    def test_threshold_rows_at_101_steps(self, capsys):
        _, out, _ = run_cli("sweep", "--steps", "101", capsys=capsys)
        rows = {line.split(",")[0]: line for line in out.strip().split("\n")[1:]}
        assert rows["0.7"].endswith("false")
        assert rows["0.71"].endswith("true")

    def test_file_output_newlines(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        run_cli("sweep", "--steps", "3", "-o", str(path), capsys=capsys)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 4

    def test_byte_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("sweep", "--steps", "51", "-o", str(a), capsys=capsys)
        run_cli("sweep", "--steps", "51", "-o", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "werner_sweep", lambda *a: pytest.fail("swept"))
        code, out, err = run_cli("sweep", "--family", "ghz", capsys=capsys)
        assert code == 1 and out == ""
        assert "invalid choice: 'ghz'" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli("sweep", "--lo", "0.9", "--hi", "0.1", capsys=capsys)
        assert code == 2

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli("sweep", "--lo", "0", "--hi", "1", "--steps", "3", capsys=capsys)
        row = out.strip().split("\n")[2]  # p = 1/2 row
        assert row.split(",")[1] == "0.125"
        third = out.strip().split("\n")[1]
        # p = 1/3-like values carry 12 significant digits
        assert len(third.split(",")[0].replace("0.", "")) <= 12


class TestVerifyCommand:
    def test_monogamy_with_dims(self, capsys):
        code, out, _ = run_cli(
            "verify", "monogamy", "--trials", "30", "--dims", "3x3", "--seed", "7", capsys=capsys
        )
        assert code == 0
        assert "suite=monogamy" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_cli("verify", "nonsense", capsys=capsys)[0] == 1

    @pytest.mark.parametrize("suite", tuple(verify.SUITES))
    def test_every_suite_runs(self, suite, capsys):
        searches = "config" in verify.SUITES[suite].options
        search_flags = ("--restarts", "8", "--max-iterations", "400") if searches else ()
        code, out, _ = run_cli("verify", suite, "--trials", "2", *search_flags, capsys=capsys)
        assert code == 0
        assert f"suite={suite} trials=2 failures=0" in out

    def test_fast_flag(self, capsys, monkeypatch):
        # there is no --fast (--restarts 8 says the same): a usage error before any trial
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        code, out, err = run_cli(
            "verify", "analytic-vs-numeric", "--trials", "3", "--fast", capsys=capsys
        )
        assert code == 1 and out == ""
        assert "--fast" in err


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        codes = [run_cli("sweep", "--steps", "2", "-o", str(tmp_path / "s.csv")) for _ in range(2)]
    finally:
        cli.build_parser.cache_clear()  # the next call builds a parser of the real class
    assert codes == [(0, "", "")] * 2
    assert built.count("discoh") == 1


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "discoh", "sweep", "--steps", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,d_ab")
