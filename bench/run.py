"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload qubit-search --seed 1 --seconds 36 --trace 0

A run builds the workload's inputs from the seed, runs one untimed warm-up
operation, then runs rounds of the workload's operations.  Every round
runs the same operations on the same inputs; rounds repeat while another
one fits in --seconds, and at least one runs.  The machine is shared and
its speed drifts, so a fixed probe (probe.py) samples it every 0.1 s while
the rounds run, and each operation's time is scaled to the probe's
reference speed; an operation run in several rounds counts its mean
scaled time.  Every
output is checked against bench/reference.py.  With --trace 0 the result
carries the end-to-end metrics; with --trace 1 a single traced round gives
the per-layer metrics, and the spans go to bench/results/.
"""

import os
import sys

# Pinned before numpy loads, so every workload runs on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 10  # probes run right after set-up, to scale it


def process_age():
    """Seconds since this process started, from the kernel's record of its start."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_program():
    """Import discoh from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import discoh
    except ImportError as exc:
        sys.exit(f"bench: cannot import discoh from {SRC}: {exc}")
    if Path(discoh.__file__).resolve().parent != SRC / "discoh":
        sys.exit(f"bench: discoh came from {discoh.__file__}, not from {SRC}")


def peak_rss_mb():
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(ops, errors, program_error):
    """Run every op once; returns each op's (start, end) and how many failed."""
    from checks import CheckFailed
    from workloads import OpFailed

    spans, failed = [], 0
    for op in ops:
        start = time.perf_counter()
        try:
            output = op.call()
        except (OpFailed, program_error) as exc:
            output, error = None, f"{op.name}: failed: {exc}"
        else:
            error = None
        spans.append((start, time.perf_counter()))
        if output is None:
            failed += 1
            errors.setdefault(error, True)
            continue
        try:
            op.check(output)
        except CheckFailed as exc:
            errors[f"{op.name}: WRONG OUTPUT: {exc}"] = False
    return spans, failed


def op_seconds(rounds, sampler):
    """Each op's seconds without the probes run inside it, and scaled.

    Returns (unscaled, scaled), each a list of rounds of per-op seconds.
    """
    unscaled, scaled = [], []
    for spans in rounds:
        plain, fitted = [], []
        for start, end in spans:
            inside, scale = sampler.span(start, end)
            plain.append(end - start - inside)
            fitted.append(plain[-1] * scale)
        unscaled.append(plain)
        scaled.append(fitted)
    return unscaled, scaled


def summarize(ops, rounds, setup_s):
    """The timed end-to-end metrics; each op counts its mean over the rounds."""
    seconds = [statistics.fmean(r[i] for r in rounds) for i in range(len(ops))]
    campaigns = [i for i, op in enumerate(ops) if op.kind == "campaign"]
    return {
        "setup_s": setup_s,
        "wall_s": sum(seconds),
        "trials_per_s": sum(ops[i].trials for i in campaigns) / sum(seconds[i] for i in campaigns),
        "analyze_s": statistics.median(seconds[i] for i, op in enumerate(ops) if op.kind == "analyze"),
    }


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np

    from discoh.errors import DiscohError
    from probe import REFERENCE_S, Probe, Sampler
    from tracing import PER_LAYER, Tracer

    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops, warmup = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        warmup()
        probe = Probe()
        probe()
        tracer = Tracer().install() if args.trace else None
        setup_s = process_age()
        setup_scale = REFERENCE_S / statistics.median(probe() for _ in range(SETUP_PROBES))
        # the traced run reports no times that need scaling
        sampler = Sampler(probe)
        rounds, errors, failed = [], {}, 0
        with contextlib.nullcontext() if args.trace else sampler:
            begin = time.perf_counter()
            while True:
                spans, fails = run_round(ops, errors, DiscohError)
                rounds.append(spans)
                failed += fails
                spent = time.perf_counter() - begin
                if args.trace or spent + spent / len(rounds) > args.seconds:
                    break
        if tracer is not None:
            tracer.uninstall()
            layer = tracer.metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for message in errors:
        print(message, file=sys.stderr)
    if tracer is None:
        unscaled, scaled = op_seconds(rounds, sampler)
        values = summarize(ops, scaled, setup_s * setup_scale)
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    result = {
        "correct": all(errors.values()),
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result)
    if tracer is None:
        record["unscaled"] = summarize(ops, unscaled, setup_s)
        record["op_spans"] = rounds
        record["samples"] = [sampler.starts, sampler.seconds]
    (RESULTS / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        trace = tracer.dump()
        trace["round_wall_s"] = sum(end - start for start, end in rounds[0])
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(trace) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
