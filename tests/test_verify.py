"""Campaign plumbing tests at reduced trial counts (full scale lives in the
acceptance suite)."""

import concurrent.futures.process
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import discoh
from discoh import verify
from discoh.coherence import OptimizerConfig
from discoh.errors import DiscohError
from discoh.verify import (
    MONOGAMY_DIMS,
    class3_sum_rule_campaign,
    classical_zero_campaign,
    discord_closed_form_campaign,
    monogamy_campaign,
    pure_state_discord_campaign,
    run_suite,
    two_side_sandwich_campaign,
    werner_sweep,
)

FAST = OptimizerConfig(restarts=8, seed=0)


def test_monogamy_small():
    result = monogamy_campaign(trials=20, seed=0)
    assert result.passed
    assert result.trials == 20
    assert result.max_deviation <= result.tol


def test_monogamy_reports_failures_against_absurd_tolerance():
    result = monogamy_campaign(trials=5, seed=0, tol=0.0)
    assert not result.passed
    assert result.failures > 0
    assert "FAIL" in result.summary()


def test_closed_form_small():
    result = discord_closed_form_campaign(trials=5, seed=0, config=FAST)
    assert result.passed
    assert "PASS" in result.summary()


def test_pure_discord_on_larger_qudits():
    # default search settings, on dims beyond the suite's default cycle
    result = pure_state_discord_campaign(trials=12, dims=((3, 2), (4, 4)), seed=11, tol=1e-9)
    assert result.failures == 0, result.summary()


def test_classical_zero_small():
    assert classical_zero_campaign(trials=10, seed=0).passed


def test_workers_agree_with_serial():
    serial = monogamy_campaign(trials=12, seed=3, workers=1)
    parallel = monogamy_campaign(trials=12, seed=3, workers=2)
    assert serial.max_deviation == parallel.max_deviation
    assert serial.failures == parallel.failures


def test_pooled_search_campaign_agrees_with_serial():
    # each worker batches the searches of its own block of trials
    config = OptimizerConfig(restarts=4, seed=0)
    serial = two_side_sandwich_campaign(trials=4, seed=2, config=config, workers=1)
    pooled = two_side_sandwich_campaign(trials=4, seed=2, config=config, workers=2)
    for field in ("failures", "max_deviation", "worst_trial", "worst_seed"):
        assert getattr(pooled, field) == getattr(serial, field)


class FakePool:
    """Stands in for the process pool: records its size, runs blocks in process."""

    def __init__(self):
        self.sizes = []

    def __call__(self, size, mp_context=None):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *columns):
        return [fn(*block) for block in zip(*columns)]


UNGUARDED = """from discoh.verify import run_suite

run_suite("eq64", 4, None, 0, 2)
"""


def live_members(group: int) -> list[int]:
    """Processes of a process group that have not exited (zombies do not count)."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return []
        return [group]
    live = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError, UnicodeDecodeError):
            continue  # not a process, or it exited while being read
        if int(fields[2]) == group and fields[0] != "Z":
            live.append(int(entry))
    return live


class TestWorkers:
    @pytest.mark.parametrize("workers, trials, size", [(8, 3, 3), (2, 5, 2), (3, 9, 3)])
    def test_pool_never_outnumbers_the_blocks(self, workers, trials, size, monkeypatch):
        pool = FakePool()
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", pool)
        pooled = class3_sum_rule_campaign(trials=trials, seed=6, workers=workers)
        assert pool.sizes == [size]
        serial = class3_sum_rule_campaign(trials=trials, seed=6)
        assert pooled.max_deviation == serial.max_deviation
        assert pooled.worst_trial == serial.worst_trial

    def test_one_worker_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(verify, "get_context", lambda m: pytest.fail("a pool started"))
        assert class3_sum_rule_campaign(trials=3, workers=1).passed

    def test_unguarded_script_fails_fast(self, tmp_path):
        # every spawned worker imports the script again and dies starting a
        # pool of its own; the call must say so instead of replacing them forever
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED, encoding="ascii")
        src = str(Path(discoh.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # the script and its workers share one process group
        )
        try:
            _, err = proc.communicate(timeout=60)
            deadline = time.monotonic() + 10
            while live_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)  # workers the pool stops may take a moment to exit
            assert live_members(proc.pid) == [], "a worker outlived the script"
        finally:
            if live_members(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode != 0
        assert "DiscohError" in err
        assert 'if __name__ == "__main__":' in err

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker(self, workers, monkeypatch):
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(DiscohError, match="workers"):
            run_suite("monogamy", 3, workers=workers)


class TestWorstTrial:
    def test_rerun_of_worst_trial_reproduces_max_deviation(self):
        result = class3_sum_rule_campaign(trials=20, seed=4)
        assert result.worst_seed == 4 + result.worst_trial
        assert result.worst_dims is None
        assert f"worst_trial={result.worst_trial} worst_seed={result.worst_seed} " in result.summary()
        rerun = class3_sum_rule_campaign(trials=1, seed=result.worst_seed)
        assert rerun.max_deviation == result.max_deviation

    def test_cycled_dims_are_reported(self):
        result = monogamy_campaign(trials=12, seed=3)
        assert result.worst_dims == MONOGAMY_DIMS[result.worst_trial % len(MONOGAMY_DIMS)]
        assert "worst_dims=%dx%d" % result.worst_dims in result.summary()
        rerun = monogamy_campaign(trials=1, seed=result.worst_seed, dims=(result.worst_dims,))
        assert rerun.max_deviation == result.max_deviation

    def test_search_suite_rerun(self):
        dims = ((2, 2), (2, 3))
        result = pure_state_discord_campaign(trials=4, dims=dims, seed=1, config=FAST)
        assert result.worst_dims == dims[result.worst_trial % 2]
        rerun = pure_state_discord_campaign(
            trials=1, dims=(result.worst_dims,), seed=result.worst_seed, config=FAST
        )
        assert rerun.max_deviation == result.max_deviation


class TestRunSuite:
    def test_defaults_come_from_the_table(self):
        result = run_suite("classical-zero", trials=3)
        assert (result.trials, result.tol) == (3, 1e-9)

    @pytest.mark.parametrize(
        "trials, tol", [(0, None), (-1, None), (3, float("nan")), (3, float("inf")), (3, -1.0)]
    )
    def test_rejects_a_campaign_that_checks_nothing(self, trials, tol):
        with pytest.raises(DiscohError):
            run_suite("eq64", trials, tol)

    def test_rejects_a_negative_seed(self):
        # trial i draws from seed + i, and numpy's generators take no negative seed
        with pytest.raises(DiscohError, match="seed"):
            run_suite("eq64", 2, seed=-1)

    def test_rejects_options_the_suite_does_not_take(self):
        with pytest.raises(DiscohError, match="takes no dims"):
            run_suite("eq64", 3, dims=((2, 2),))

    def test_unknown_suite(self):
        with pytest.raises(DiscohError):
            run_suite("nonsense")


class TestWernerSweep:
    def test_row_count_and_endpoints(self):
        rows = werner_sweep(0.0, 1.0, 11)
        assert len(rows) == 11
        assert rows[0]["p"] == 0.0
        assert rows[-1]["p"] == 1.0

    def test_bell_limit_row(self):
        rows = werner_sweep(0.0, 1.0, 11)
        assert rows[-1]["d_sym"] == pytest.approx(1.0, abs=1e-12)
        assert rows[-1]["v_tilde"] == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["v_tilde"] == pytest.approx(0.0, abs=1e-12)

    def test_threshold_rows(self):
        rows = werner_sweep(0.0, 1.0, 101)
        by_p = {round(r["p"], 2): r for r in rows}
        assert by_p[0.70]["chsh_violated"] is False
        assert by_p[0.71]["chsh_violated"] is True

    def test_bad_ranges(self):
        with pytest.raises(DiscohError):
            werner_sweep(0.5, 0.4, 10)
        with pytest.raises(DiscohError):
            werner_sweep(0.0, 1.0, 1)
