"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-abilene-bookahead --seed 1 \\
        --seconds 55 --trace 0

The run measures set-up in fresh interpreters (``setup_probe.py``),
then repeats the workload's seeded input, one fresh driver per
repetition, as long as the next repetition is expected to end within
``--seconds`` (at least once).  Outputs are checked after every
repetition, outside the timed region, and must be identical across
repetitions.  Human-readable lines come first; the last line of
standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` reports the per-layer metrics instead: it alternates
untraced repetitions with traced ones, which have every layer boundary
wrapped (``tracing.py``) and the program's own ``Telemetry`` on, and
writes the spans to ``perfbench/out/``.  Per-layer seconds and counts
are per repetition.

Exit status: 0 when every check passed, 1 on a correctness failure,
2 when the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters started per run for ``setup_s`` (median taken).
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def measure_setup(workload: str, workdir: Path) -> list[dict]:
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_once(workload, network, inputs, workdir, index, tracer=None,
             telemetry=None):
    """One repetition with a fresh driver, checked, its files removed."""
    driver = workload.driver(network, inputs, workdir, index, telemetry)
    rep = workload.run(driver, inputs, tracer)
    if index == 0 and hasattr(workload, "check_resume"):
        workload.check_resume(driver, rep)
    for leftover in workdir.iterdir():
        leftover.unlink()
    return rep


def repeat(seconds: float, once) -> list:
    """Call ``once(index)`` while another call is expected to end within
    ``seconds`` of the first one's start; always at least once."""
    reps = []
    began = time.perf_counter()
    while True:
        reps.append(once(len(reps)))
        elapsed = time.perf_counter() - began
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def verdict(reps) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) of the seed's operations.

    Every repetition replays the same operations and must reproduce the
    first one's output digest, so the counts are those of one
    repetition (the most failures any repetition had): they depend on
    the seed only, not on how many repetitions fitted in the run.
    """
    problems = [p for rep in reps for p in rep.problems]
    for i, rep in enumerate(reps[1:], 1):
        if rep.digest != reps[0].digest:
            problems.append(f"repetition {i} output digest differs from repetition 0")
    failed = max(rep.failed for rep in reps)
    return not problems, reps[0].attempted, failed, problems


def end_to_end(reps, setup) -> dict:
    """Percentiles and rates over the epochs and responses of all
    repetitions pooled, so each is a median over the whole run."""
    epochs = [t for rep in reps for t in rep.epoch_s]
    responses = [t for rep in reps for t in rep.response_s]
    wall = sum(rep.wall_s for rep in reps)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(s["import_s"] + s["construct_s"] for s in setup), "s"),
        "epoch_p50_s": (percentile(epochs, 50), "s"),
        "epoch_p90_s": (percentile(epochs, 90), "s"),
        "epochs_per_s": (len(epochs) / wall, "1/s"),
        "response_p50_s": (percentile(responses, 50), "s"),
        "response_p90_s": (percentile(responses, 90), "s"),
        "decided_per_s": (len(responses) / wall, "1/s"),
        "deadline_rate": (reps[0].deadline_rate, "fraction"),
        "delivered_frac": (reps[0].delivered_frac, "fraction"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(reps, untraced, tracer, telemetry, setup) -> dict:
    from tracing import COUNTS, SPANS, TELEMETRY_COUNTERS
    from workloads import OUTCOMES

    n = len(reps)
    wall = sum(rep.wall_s for rep in reps)
    self_times = tracer.self_times()
    out = {}
    for span, (seconds_key, share_key, calls_key) in SPANS.items():
        seconds, calls = self_times.get(span, (0.0, 0))
        out[seconds_key] = (seconds / n, "s")
        out[share_key] = (seconds / wall, "fraction")
        out[calls_key] = (calls / n, "count")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / n, "count")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lp_self = sum(self_times.get(s, (0.0, 0))[0] for s in ("lp.wrapper", "lp.highs_run"))
    out["lp.total_share"] = (lp_self / wall, "fraction")
    out["core.stage2_per_schedule"] = (
        ratio(out["core.stage2_calls"][0], out["core.schedule_calls"][0]), "ratio")
    out["engine.memo_hit_ratio"] = (
        ratio(out["engine.memo_hits"][0], out["engine.cached_solve_calls"][0]), "ratio")
    out["engine.structure_reuse_ratio"] = (
        ratio(out["engine.structure_hits"][0] + out["engine.structure_patches"][0],
              out["engine.structure_calls"][0]), "ratio")
    for name in TELEMETRY_COUNTERS:
        out[f"tel.{name}"] = (telemetry.counters.get(name, 0) / n, "count")
    for outcome in OUTCOMES:
        times = [t for rep in reps for t in rep.outcome_s[outcome]]
        out[f"service.{outcome}"] = (len(times) / n, "count")
        out[f"service.{outcome}_p50_s"] = (percentile(times, 50) if times else 0.0, "s")
        out[f"service.{outcome}_p90_s"] = (percentile(times, 90) if times else 0.0, "s")
    out["service.queue_depth_max"] = (max(rep.queue_depth_max for rep in reps), "count")
    out["recovery.journal_bytes"] = (reps[0].journal_bytes, "bytes")
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    out["setup.construct_s"] = (statistics.median(s["construct_s"] for s in setup), "s")
    # Each traced epoch is paired with the same epoch untraced; the
    # median ratio is far less exposed to machine noise than the totals.
    ratios = [t / u for a, b in zip(reps, untraced)
              for t, u in zip(a.epoch_s, b.epoch_s)]
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "fraction")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(workload.name, workdir)
        network = workload.network()
        inputs = workload.inputs(network, args.seed)
        if args.trace:
            reps, metrics, problems = traced_run(
                workload, network, inputs, workdir, args, setup)
        else:
            reps = repeat(args.seconds, lambda i: run_once(
                workload, network, inputs, workdir, i))
            metrics, problems = end_to_end(reps, setup), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, failures = verdict(reps)
    problems = failures + problems
    lines = [
        f"workload {workload.name} ({workload.loop} loop), seed {args.seed}, "
        f"{len(reps)} repetitions of {len(reps[0].epoch_s)} epochs and "
        f"{len(reps[0].response_s)} decisions",
        "repetition wall s: " + " ".join(f"{r.wall_s:.3f}" for r in reps),
        f"output digest {reps[0].digest}",
        f"error_rate {failed / attempted:.6g} ({failed} of the {attempted} operations"
        f" of each repetition failed; {reps[0].lost} of them accepted"
        " reservations lost)",
    ]
    for outcome, times in reps[0].outcome_s.items():
        if times:
            lines.append(f"  {outcome:10s} n={len(times):5d} "
                         f"p50={percentile(times, 50):.6f}s "
                         f"p90={percentile(times, 90):.6f}s")
    lines.extend(f"problem: {p}" for p in problems[:20])
    lines.extend(f"{name:34s} {value:>16.6g} {unit}"
                 for name, (value, unit) in metrics.items())
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and not problems else 1


def traced_run(workload, network, inputs, workdir, args, setup):
    """Untraced and traced repetitions, interleaved in pairs.

    Returns every repetition (the traced ones must reproduce the
    untraced output digest), the per-layer metrics and any layer that
    should have run but recorded no calls.
    """
    from repro.obs import Telemetry
    from tracing import Tracer, install

    tracer = Tracer()
    telemetry = Telemetry()
    untraced, traced = [], []

    def pair(index):
        untraced.append(run_once(workload, network, inputs, workdir, 2 * index))
        install(tracer)
        try:
            traced.append(run_once(workload, network, inputs, workdir,
                                   2 * index + 1, tracer, telemetry))
        finally:
            tracer.restore()

    repeat(args.seconds, pair)
    tracer.dump(HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json")
    metrics = per_layer(traced, untraced, tracer, telemetry, setup)
    self_times = tracer.self_times()
    problems = [f"layer span {span} recorded zero calls"
                for span in workload.required if span not in self_times]
    return untraced + traced, metrics, problems


if __name__ == "__main__":
    sys.exit(main())
