"""PAR — fleet fan-out: speedup with proof of equality.

The parallel layer (``docs/parallel.md``) promises a process-pool
**fleet** that makes seeded sweeps faster on multi-core machines
without changing their output.  Speed without equality would be
worthless here — a faster sweep that silently changes reports is a
bug, not a win — so the benchmark gates correctness unconditionally
and speed only where the hardware can deliver it:

* **Fleet fuzz sweep** — ``FUZZ_COUNT`` seeded scenarios through
  ``run_fuzz`` with ``--jobs 1`` and with ``--jobs FLEET_JOBS``.  The
  rendered per-scenario reports must be byte-identical (seed-stride
  determinism), every scenario must pass its oracles, and — when the
  runner exposes at least ``MIN_GATE_CORES`` cores — the fleet pass
  must be at least ``TARGET_SPEEDUP``× faster.  On smaller machines
  the measured speedup is still recorded (with ``effective_cores`` so
  a reader can interpret it) but not hard-gated: a single-core box
  physically cannot show a parallel win, and pretending otherwise
  would just teach people to ignore the gate.

Results go to ``BENCH_parallel.json`` at the repo root; CI diffs the
document against the committed baseline (``check_regression.py``) and
uploads it as an artifact.  Runs under pytest (the CI gate) or as a
plain script::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis import Table
from repro.verify.fuzz import run_fuzz

from _support import bench_versions, time_best_of, write_bench_document

SEED = 1009
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: ISSUE 8 acceptance target: the 4-worker fleet fuzz sweep must beat
#: the sequential sweep by this factor — enforced as a hard gate only
#: when the runner actually has ``MIN_GATE_CORES`` cores to spend.
TARGET_SPEEDUP = 1.8
MIN_GATE_CORES = 4
FLEET_JOBS = 4
FUZZ_COUNT = 24

#: Timing repeats (best-of); the fuzz sweep is deterministic, so
#: repeats only tighten the wall-clock estimate.
REPEATS = 2

#: Document-level regression tolerance.  Speedup ratios here depend on
#: the runner's core count (a 1-core baseline vs a 4-core fresh run and
#: vice versa), so the band is much looser than the engine bench's
#: same-process ratios.
TOLERANCE = 0.5


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _case_fleet_fuzz() -> dict:
    """Sequential vs 4-worker fuzz sweep; reports must be identical."""
    serial_s, serial = time_best_of(
        lambda: run_fuzz(FUZZ_COUNT, seed=SEED, jobs=1), repeats=REPEATS
    )
    fleet_s, fleet = time_best_of(
        lambda: run_fuzz(FUZZ_COUNT, seed=SEED, jobs=FLEET_JOBS), repeats=REPEATS
    )
    cores = _effective_cores()
    return {
        "speedup": round(serial_s / fleet_s, 3),
        "serial_seconds": round(serial_s, 4),
        "fleet_seconds": round(fleet_s, 4),
        "metrics": {
            "count": FUZZ_COUNT,
            "jobs": FLEET_JOBS,
            "effective_cores": cores,
            "gated": cores >= MIN_GATE_CORES,
            "target_speedup": TARGET_SPEEDUP,
            "serial_ok": serial.ok,
            "fleet_ok": fleet.ok,
            "reports_identical": serial.render() == fleet.render(),
        },
    }


def run_parallel_bench() -> dict:
    """Run all cases and return the ``BENCH_parallel.json`` document."""
    return {
        "schema": 1,
        "suite": "parallel-speedup",
        "tolerance": TOLERANCE,
        "target_fleet_speedup": TARGET_SPEEDUP,
        "min_gate_cores": MIN_GATE_CORES,
        "effective_cores": _effective_cores(),
        "versions": bench_versions(),
        "cases": {
            "fleet_fuzz_sweep_4workers": _case_fleet_fuzz(),
        },
    }


def _as_table(document: dict) -> Table:
    table = Table(
        ["case", "speedup", "equal", "cores"],
        title="PAR — fleet fan-out",
    )
    fleet = document["cases"]["fleet_fuzz_sweep_4workers"]
    table.add_row(
        [
            "fleet_fuzz_sweep_4workers",
            f"{fleet['speedup']}x",
            fleet["metrics"]["reports_identical"],
            fleet["metrics"]["effective_cores"],
        ]
    )
    return table


def _assert_document(document: dict) -> None:
    fleet = document["cases"]["fleet_fuzz_sweep_4workers"]
    assert fleet["metrics"]["serial_ok"], "sequential fuzz sweep failed"
    assert fleet["metrics"]["fleet_ok"], "fleet fuzz sweep failed"
    assert fleet["metrics"]["reports_identical"], (
        "fleet fuzz report differs from the sequential report — "
        "seed-stride determinism is broken"
    )
    if fleet["metrics"]["gated"]:
        assert fleet["speedup"] >= TARGET_SPEEDUP, (
            f"fleet fuzz speedup {fleet['speedup']}x is below the "
            f"{TARGET_SPEEDUP}x floor on a "
            f"{fleet['metrics']['effective_cores']}-core runner"
        )


def test_parallel_speedup(report):
    document = run_parallel_bench()
    write_bench_document(BENCH_PATH, document)
    report(_as_table(document))
    _assert_document(document)


if __name__ == "__main__":
    doc = run_parallel_bench()
    write_bench_document(BENCH_PATH, doc)
    print(_as_table(doc).render())
    print(f"\nwrote {BENCH_PATH}")
    _assert_document(doc)
