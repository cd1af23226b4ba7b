"""Spoiler-audit benchmark: runs one workload and prints one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload ic-paper --seed 20220505 --seconds 30 --trace 0

``--trace 0`` times passes over the workload's commands untraced and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
runs of the same commands and reports the per-layer metrics.  Both check
every output.  The last line of standard output is the result; lines before
it start with ``#`` and describe the inputs and timings.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without those sources the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

WORKDIR = ".perfbench-work"  # generated inputs and span files, under the repository root
SETUP_SAMPLES = 7  # set-ups per run: this process plus fresh interpreters
# Times are reported in units of a machine on which calibrate() takes this long.
CALIBRATION_S = 0.02

END_TO_END = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "audit_ok_ratio": "ratio",
}

METHOD_IDS = (
    "stv", "srcv", "sntv", "bloc", "borda_om", "borda_pm",
    "cc_om", "cc_pm", "greedy_om", "greedy_pm", "mcc", "topk_irv",
)  # fmt: skip

PER_LAYER = {
    "cultures.sample_s": "s",
    "cultures.sample_calls": "count",
    "cultures.sample_us_per_call": "us",
    "cultures.ballot_types_mean": "count",
    "core.remove_candidate_s": "s",
    "core.remove_candidate_calls": "count",
    "core.remove_candidate_distinct_ratio": "ratio",
    "core.profile_build_s": "s",
    "core.profile_build_calls": "count",
    "core.scores_s": "s",
    "core.scores_calls": "count",
    **{f"methods.{mid}_{kind}": unit for mid in METHOD_IDS for kind, unit in (("s", "s"), ("calls", "count"))},
    "methods.stv_rounds_mean": "count",
    "spoilers.analyze_self_s": "s",
    "spoilers.base_run_s": "s",
    "spoilers.rerun_s": "s",
    "spoilers.reruns_per_audit": "count",
    "spoilers.weakness_s": "s",
    "spoilers.stability_s": "s",
    "spoilers.clone_s": "s",
    "blt_io.parse_s": "s",
    "blt_io.parse_mb_per_s": "MB/s",
    "blt_io.emit_csv_s": "s",
    "harness.self_s": "s",
    "harness.item_ms_p50": "ms",
    "harness.item_ms_p99": "ms",
    "harness.used_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unexplained_ratio": "ratio",
}

LAYERS = ("cultures", "blt_io", "core", "methods", "spoilers", "harness")


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def info(line: str) -> None:
    print(f"# {line}", flush=True)


def run_command(cli, chunk, tracer=None):
    """Run one command in-process; returns (seconds, output bytes or None, error or None)."""
    for path in chunk.outputs:
        path.unlink(missing_ok=True)
    argv = list(chunk.argv)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), (tracer or contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # the program failed; the run goes on and counts it
            elapsed = time.perf_counter() - start
            return elapsed, None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit status {code}: {stderr.getvalue()}"
    return elapsed, [path.read_bytes() for path in chunk.outputs], None


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def calibrate() -> float:
    """Seconds a fixed pure-Python task takes now: merge and sort 6,000 small tuples.

    It uses no mwspoilers code, so it measures only how fast the machine runs
    at the moment.  On shared cores that speed drifts by up to a factor of two
    within minutes, and it slows this task and the program alike.
    """
    rng = random.Random(7)
    start = time.perf_counter()
    merged: dict[tuple[int, ...], int] = {}
    for _ in range(6000):
        row = tuple(rng.randrange(10) for _ in range(rng.randrange(1, 6)))
        merged[row] = merged.get(row, 0) + 1
    sorted(merged.items())
    return time.perf_counter() - start


def measure(cli, plan, ledger, seconds: float, between_passes) -> dict[str, float]:
    """Untraced passes until the time is up.

    Each chunk run is timed right after a calibration run, and its time is
    scaled by ``CALIBRATION_S`` over the calibration time, which takes the
    machine's drifting speed out; the rate is items over the sum of each
    chunk's median scaled time.  The unscaled median rate is printed too.
    ``between_passes`` runs after each pass, outside the measured time.
    """
    times: list[list[float]] = [[] for _ in plan.chunks]
    scaled: list[list[float]] = [[] for _ in plan.chunks]
    calibrations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        for i, chunk in enumerate(plan.chunks):
            calibration = calibrate()
            elapsed, outputs, error = run_command(cli, chunk)
            ledger.record(i, outputs, error)
            times[i].append(elapsed)
            scaled[i].append(elapsed * CALIBRATION_S / calibration)
            calibrations.append(calibration)
        paused = time.perf_counter()
        between_passes()
        deadline += time.perf_counter() - paused
        if time.perf_counter() >= deadline:
            break
    items = sum(c.items for c in plan.chunks)
    flat = sorted(t for ts in times for t in ts)
    info(
        f"chunk seconds: median {statistics.median(flat):.4f}, p90 {percentile(flat, 0.9):.4f}, "
        f"min {flat[0]:.4f}, max {flat[-1]:.4f}; {len(flat)} runs of {len(plan.chunks)} chunks"
    )
    info(
        f"calibration seconds: median {statistics.median(calibrations):.4f}, "
        f"min {min(calibrations):.4f}, max {max(calibrations):.4f}"
    )
    raw_rate = items / sum(statistics.median(ts) for ts in times)
    info(f"items/s unscaled, from each chunk's median run: {raw_rate:.4f}")
    return {"items_per_s": items / sum(statistics.median(ts) for ts in scaled)}


def check_spans(totals, expected: dict[str, int | None]) -> None:
    """Fail when a wrapper saw other than the expected number of calls."""
    for name, count in expected.items():
        seen = totals.get(name, (0, 0, 0))[0]
        if (count is None and seen == 0) or (count is not None and seen != count):
            want = "at least 1" if count is None else str(count)
            raise BenchError(f"traced {seen} calls of {name}, expected {want}")


def layer_metrics(tracer, traced_s: float, plain_s: float, used: int, requested: int):
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0, 0))[0]

    def own(name: str) -> float:
        return totals.get(name, (0, 0, 0))[2] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "cultures.sample_s": own("cultures.sample"),
        "cultures.sample_calls": calls("cultures.sample"),
        "cultures.sample_us_per_call": ratio(own("cultures.sample") * 1e6, calls("cultures.sample")),
        "cultures.ballot_types_mean": ratio(tracer.counts["ballot_types"], calls("cultures.sample")),
        "core.remove_candidate_s": own("core.remove_candidate"),
        "core.remove_candidate_calls": calls("core.remove_candidate"),
        "core.remove_candidate_distinct_ratio": ratio(
            tracer.distinct_removals(), calls("core.remove_candidate")
        ),
        "core.profile_build_s": own("core.profile_build"),
        "core.profile_build_calls": calls("core.profile_build"),
        "core.scores_s": own("core.scores"),
        "core.scores_calls": calls("core.scores"),
        "methods.stv_rounds_mean": ratio(tracer.counts["stv_rounds"], tracer.counts["stv_counts"]),
        "spoilers.analyze_self_s": own("spoilers.analyze"),
        "spoilers.base_run_s": tracer.role_ns["base"] / 1e9,
        "spoilers.rerun_s": tracer.role_ns["rerun"] / 1e9,
        "spoilers.reruns_per_audit": ratio(
            sum(calls(f"methods.{mid}") for mid in METHOD_IDS) - calls("spoilers.analyze"),
            calls("spoilers.analyze"),
        ),
        "spoilers.weakness_s": own("spoilers.weakness"),
        "spoilers.stability_s": own("spoilers.stability"),
        "spoilers.clone_s": own("spoilers.clone"),
        "blt_io.parse_s": own("blt_io.parse"),
        "blt_io.parse_mb_per_s": ratio(
            tracer.counts["parse_bytes"] / 1e6, totals.get("blt_io.parse", (0, 0, 0))[1] / 1e9
        ),
        "blt_io.emit_csv_s": own("blt_io.emit_csv"),
        "harness.self_s": own("harness") + own("harness.item"),
        "harness.used_ratio": ratio(used, requested),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    for mid in METHOD_IDS:
        m[f"methods.{mid}_s"] = own(f"methods.{mid}")
        m[f"methods.{mid}_calls"] = calls(f"methods.{mid}")
    items_ms = [ns / 1e6 for ns in tracer.durations("harness.item")]
    m["harness.item_ms_p50"] = statistics.median(items_ms)
    m["harness.item_ms_p99"] = percentile(items_ms, 0.99)
    shares = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_ns) in totals.items():
        layer = name.split(".")[0]
        if layer in shares:
            shares[layer] += self_ns / 1e9 / traced_s
    m["trace.unexplained_ratio"] = 1.0 - sum(shares.values())
    shares["removal with its Profile.build"] = totals.get("core.remove_candidate", (0, 0, 0))[1] / 1e9 / traced_s
    return m, shares


def trace_passes(cli, workload, plan, ledger, seconds: float, spans_path: Path):
    """Passes that run each chunk untraced and traced, in alternating order."""
    from tracer import Tracer

    passes = []
    walls = []
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        tracer = Tracer()
        traced_s = plain_s = 0.0
        used = requested = 0
        for i, chunk in enumerate(plan.chunks):
            for traced in (False, True) if (pass_no + i) % 2 == 0 else (True, False):
                elapsed, outputs, error = run_command(cli, chunk, tracer if traced else None)
                tally = ledger.record(i, outputs, error)
                if not traced:
                    plain_s += elapsed
                    continue
                traced_s += elapsed
                if tally is not None:
                    used += tally.used
                    requested += tally.requested
        check_spans(tracer.totals(), workload.expected_spans(plan))
        passes.append(layer_metrics(tracer, traced_s, plain_s, used, requested))
        walls.append(traced_s)
        if pass_no == 0:
            tracer.write(spans_path)
        pass_no += 1
        if time.perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(p[0][name] for p in passes) for name in PER_LAYER}
    shares = {key: statistics.median(p[1][key] for p in passes) for key in passes[0][1]}
    info(
        "share of traced wall time: "
        + ", ".join(f"{key} {share:.1%}" for key, share in shares.items())
        + f", unexplained {metrics['trace.unexplained_ratio']:.1%}"
        + f" (median of {len(passes)} passes, {statistics.median(walls):.3f} s traced each)"
    )
    info(f"spans of the first traced pass: {spans_path.name} in {WORKDIR}")
    return metrics


def probe_setup(args, seed: int) -> float:
    """Set up once in a fresh interpreter and return its set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd, cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True, timeout=150
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(args, src: Path, workdir: Path) -> int:
    start = time.perf_counter()
    import mwspoilers
    import mwspoilers.cli as cli

    import workloads

    if not Path(mwspoilers.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"mwspoilers was imported from {mwspoilers.__file__}, not from {src}")
    if set(METHOD_IDS) != set(mwspoilers.METHODS):
        raise BenchError(f"per-layer metrics cover {METHOD_IDS}, the package has {tuple(mwspoilers.METHODS)}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    seed = workload.default_seed if args.seed is None else args.seed
    plan = workload.prepare(seed, args.smoke, workdir)
    _, _, error = run_command(cli, plan.warmup)
    if error is not None:
        raise BenchError(f"warm-up failed: {error}")
    setup_s = time.perf_counter() - start
    calibrate()  # the first run in a fresh interpreter is slower
    setup_s *= CALIBRATION_S / calibrate()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for line in plan.shape:
        info(f"{args.workload} seed {seed}: {line}")
    ledger = workloads.Ledger(workload, plan, seed, args.smoke)
    if args.trace:
        spans_path = workdir.parent / f"spans-{workload.name}-seed{seed}.tsv"
        metrics = trace_passes(cli, workload, plan, ledger, args.seconds, spans_path)
        units = PER_LAYER
    else:
        samples = [setup_s]

        def probe() -> None:
            # Set-ups spread over the run, so one burst of contention cannot cover them all.
            if len(samples) < SETUP_SAMPLES:
                samples.append(probe_setup(args, seed))

        metrics = measure(cli, plan, ledger, args.seconds, probe)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(samples) < SETUP_SAMPLES:
            probe()
        info("set-up seconds, scaled: " + ", ".join(f"{s:.4f}" for s in samples))
        metrics["setup_s"] = statistics.median(samples)
        metrics["audit_ok_ratio"] = 1.0 - ledger.failed / ledger.attempted
        units = END_TO_END
    info(f"chunk digests of the first pass: {' '.join(ledger.reference)}")
    info(f"audits attempted {ledger.attempted}, failed {ledger.failed}")
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "mwspoilers" / "__init__.py").is_file():
        print(f"error: package sources not found under {src}", file=sys.stderr)
        return 2
    # One core per workload: numerical libraries must not start worker threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    (root / WORKDIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORKDIR))
    try:
        return run(args, src, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
