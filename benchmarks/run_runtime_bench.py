#!/usr/bin/env python
"""Benchmark the parallel runtime: executor scaling and cache effectiveness.

Two measurements, written to one JSON report (``BENCH_PR2.json``):

1. **fig5 executor sweep** — the eight FO1..FO8 fanout benches (independent
   circuit topologies, so the lockstep batcher cannot merge them) run once
   per executor: serial, thread pool, process pool.  Results must be
   identical across executors; per-executor wall-clock and the speedup vs
   serial are recorded.  On a single-CPU container the pools cannot beat the
   serial loop — ``cpu_count`` is recorded so the numbers read honestly.

2. **full-set cache sweep** — every paper figure runs twice against a shared
   content-addressed cache with a *fresh* context per scenario (matching
   ``run_bench.py``).  The cold pass characterizes and simulates everything;
   the warm pass must satisfy every characterization job from the cache
   (``executed == 0``) and reproduce identical figure results.

Usage::

    PYTHONPATH=src python benchmarks/run_runtime_bench.py --output BENCH_PR2.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.characterization import CharacterizationConfig  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentContext,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.runtime import (  # noqa: E402
    PackedStore,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

SCENARIOS = {
    "fig3": lambda ctx: run_fig3(ctx),
    "fig4": lambda ctx: run_fig4(ctx),
    "fig5": lambda ctx: run_fig5(ctx),
    "fig9": lambda ctx: run_fig9(ctx, fanout=1),
    "fig10": lambda ctx: run_fig10(ctx),
    "fig11": lambda ctx: run_fig11(ctx),
    "fig12": lambda ctx: run_fig12(ctx),
}

#: Numeric signature per figure, used to assert cold == warm == serial.
SIGNATURES = {
    "fig3": lambda r: sorted(r.precharge_voltages.items()),
    "fig4": lambda r: sorted(r.delays.items()),
    "fig5": lambda r: [(row.fanout, row.delay_fast, row.delay_slow) for row in r.rows],
    "fig9": lambda r: [
        (c.label, c.reference_delay, c.mcsm_delay, c.baseline_delay, c.mcsm_rmse)
        for c in r.cases
    ],
    "fig10": lambda r: (
        r.reference_peak,
        r.mcsm_peak,
        r.rmse_fraction_of_vdd,
        r.peak_error_volts,
    ),
    "fig11": lambda r: (
        r.reference_delay,
        r.mcsm_delay,
        r.sis_delay,
        r.mcsm_rmse,
        r.sis_rmse,
    ),
    "fig12": lambda r: [
        (p.injection_time, p.reference_delay, p.mcsm_delay, p.rmse_fraction_of_vdd)
        for p in r.points
    ],
}


def quick_context(executor=None, cache=None) -> ExperimentContext:
    """Quick-settings context, matching ``benchmarks/conftest.py``."""
    return ExperimentContext(
        characterization=CharacterizationConfig(io_grid_points=5),
        reference_time_step=4e-12,
        model_time_step=2e-12,
        executor=executor,
        cache=cache,
    )


def bench_fig5_executors(workers: int) -> dict:
    """Run the Fig. 5 fanout sweep once per executor flavour."""
    executors = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(max_workers=workers),
        "process": ProcessExecutor(max_workers=workers),
    }
    timings: dict = {}
    signatures = {}
    for name, executor in executors.items():
        context = quick_context(executor=executor)
        start = time.perf_counter()
        result = run_fig5(context)
        timings[name] = round(time.perf_counter() - start, 4)
        signatures[name] = SIGNATURES["fig5"](result)
        print(f"fig5[{name:>7}]: {timings[name]:8.3f} s", flush=True)
    for name, signature in signatures.items():
        if signature != signatures["serial"]:
            raise AssertionError(f"fig5 results differ between serial and {name}")
    return {
        "workers": workers,
        "timings": timings,
        "speedup_vs_serial": {
            name: round(timings["serial"] / wall, 2)
            for name, wall in timings.items()
            if name != "serial" and wall > 0
        },
        "results_identical": True,
    }


def _run_full_set(cache: PackedStore):
    """One pass over every figure, fresh context per scenario, shared cache."""
    timings = {}
    signatures = {}
    for name, runner in SCENARIOS.items():
        context = quick_context(cache=cache)
        start = time.perf_counter()
        result = runner(context)
        timings[name] = round(time.perf_counter() - start, 4)
        signatures[name] = SIGNATURES[name](result)
    return timings, signatures


def bench_cache(cache_dir: Path) -> dict:
    """Cold vs warm pass over the full figure set against one shared cache."""
    cache = PackedStore(cache_dir)
    cold_timings, cold_signatures = _run_full_set(cache)
    cold_stats = cache.stats.as_dict()
    print(f"cold pass: {sum(cold_timings.values()):8.3f} s  ({cache.stats})", flush=True)

    warm_cache = PackedStore(cache_dir)
    warm_timings, warm_signatures = _run_full_set(warm_cache)
    warm_stats = warm_cache.stats.as_dict()
    print(f"warm pass: {sum(warm_timings.values()):8.3f} s  ({warm_cache.stats})", flush=True)

    if warm_signatures != cold_signatures:
        differing = [k for k in cold_signatures if cold_signatures[k] != warm_signatures[k]]
        raise AssertionError(f"cached results differ from uncached for {differing}")
    if warm_stats["misses"] != 0 or warm_stats["stores"] != 0:
        raise AssertionError(
            f"warm pass was expected to be all cache hits, got {warm_stats}"
        )

    cold_total = round(sum(cold_timings.values()), 4)
    warm_total = round(sum(warm_timings.values()), 4)
    return {
        "cold": {"timings": cold_timings, "total": cold_total, "cache": cold_stats},
        "warm": {"timings": warm_timings, "total": warm_total, "cache": warm_stats},
        "speedup_warm_vs_cold": round(cold_total / warm_total, 2) if warm_total else None,
        "results_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PR2.json",
        help="where to write the report (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 1, 2),
        help="pool width for the executor sweep (default: cpu_count, min 2)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory for the cold/warm sweep (default: fresh temp dir)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    machine = {"cpus": cpus}
    if cpus < 4:
        machine["warning"] = (
            f"only {cpus} CPU(s) visible: executor-sweep timings measure "
            "scheduling overhead, not parallel speedup — re-measure on a "
            "machine with >= 4 cores"
        )
        print(f"WARNING: {machine['warning']}", file=sys.stderr)
    report = {
        "settings": "quick",
        "cpu_count": cpus,
        "machine": machine,
        "fig5_executors": bench_fig5_executors(args.workers),
    }

    if args.cache_dir is not None:
        args.cache_dir.mkdir(parents=True, exist_ok=True)
        report["full_set_cache"] = bench_cache(args.cache_dir)
    else:
        scratch = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
        try:
            report["full_set_cache"] = bench_cache(scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    from _mem import peak_rss_bytes

    report["machine"]["peak_rss_bytes"] = peak_rss_bytes()
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
