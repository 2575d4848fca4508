#!/usr/bin/env python
"""Wall-clock benchmark for the levelized batched STA engine.

Runs the batched and sequential waveform engines over a sweep of seeded
synthetic netlists (100..1000 gates: chains, fanout trees, random layered
DAGs), asserts their waveforms agree to 1e-9 V, and records wall-clock plus
speedup per design.  By default it also re-times the paper-figure scenarios
(``benchmarks/run_bench.py``) against a previous ``BENCH_PR<n>.json`` so one
command refreshes the whole performance trajectory.

Usage::

    PYTHONPATH=src python benchmarks/run_sta_bench.py --output BENCH_PR3.json \
        --figures-baseline BENCH_PR2.json
    PYTHONPATH=src python benchmarks/run_sta_bench.py --skip-figures \
        --specs dag:w64:d4:s11 chain:inv:100

JSON schema::

    {"settings": "quick", "machine": {"cpus": N},
     "sta": {"characterization_seconds": ..., "designs": {spec: {...}}},
     "figures": {...run_bench report...}}   # unless --skip-figures
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments import run_sta_scale  # noqa: E402
from run_bench import SCENARIOS, quick_context, time_scenario  # noqa: E402

#: Default design sweep: 100 to ~1000 gates across the three generator shapes.
DEFAULT_SPECS = [
    "chain:inv:100",
    "tree:7:2",          # 127 gates, pure-SIS geometric widths
    "dag:w32:d8:s11",    # 256 gates, narrow and deep
    "dag:w64:d4:s11",    # 256 gates, wide and shallow
    "dag:w128:d2:s11",   # 256 gates, widest levels (best batching case)
    "dag:w128:d4:s11",   # 512 gates
    "dag:w128:d8:s11",   # 1024 gates
    "dag:w256:d2:s11",   # 512 gates, 256-wide levels (tensor-path target)
    "dag:w256:d4:s11",   # 1024 gates, 256-wide levels (tensor-path target)
]


def machine_block() -> dict:
    """CPU inventory for the report; warns loudly below 4 CPUs so executor
    numbers measured in small containers are never mistaken for speedups."""
    cpus = os.cpu_count() or 1
    block = {"cpus": cpus}
    if cpus < 4:
        block["warning"] = (
            f"only {cpus} CPU(s) visible: executor-sweep timings measure "
            "scheduling overhead, not parallel speedup — re-measure on a "
            "machine with >= 4 cores"
        )
        print(f"WARNING: {block['warning']}", file=sys.stderr)
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PR3.json",
        help="where to write the benchmark JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--specs", nargs="*", default=None,
        help="generator specs to benchmark (default: the 100..1000 gate sweep)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="stimulus seed (default: 0)"
    )
    parser.add_argument(
        "--skip-figures", action="store_true",
        help="skip re-timing the paper-figure scenarios",
    )
    parser.add_argument(
        "--figures-baseline", type=Path, default=None,
        help="previous BENCH json; figure speedups are computed against it",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="previous BENCH json; per-design sta timings are compared against "
        "its 'sta' section when present (older reports without one are "
        "tolerated and only noted)",
    )
    args = parser.parse_args(argv)

    machine = machine_block()
    machine["note"] = (
        "batched-vs-sequential speedups are single-core algorithmic gains; "
        "executor sweeps need a multi-core machine"
    )
    report = {"settings": "quick", "machine": machine}

    context = quick_context()
    specs = args.specs or DEFAULT_SPECS
    print(f"STA engine sweep ({len(specs)} designs, quick settings, cold cache)")
    start = time.perf_counter()
    result = run_sta_scale(context, specs=specs, seed=args.seed)
    sweep_seconds = time.perf_counter() - start
    print(result.summary())
    if result.max_deviation() > 1e-9:
        print("ERROR: batched/sequential waveforms deviate by more than 1e-9 V")
        return 1

    report["sta"] = {
        "characterization_seconds": round(result.characterization_seconds, 4),
        "sweep_seconds": round(sweep_seconds, 4),
        "designs": {
            p.spec: {
                "gates": p.gates,
                "levels": p.levels,
                "mis_instances": p.mis_instances,
                "sequential_seconds": round(p.sequential_seconds, 4),
                "batched_seconds": round(p.batched_seconds, 4),
                "speedup": round(p.speedup, 3),
                "max_abs_delta_v": p.max_abs_delta_v,
            }
            for p in result.points
        },
    }

    if args.baseline is not None:
        try:
            baseline_report = json.loads(args.baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        base_designs = baseline_report.get("sta", {}).get("designs", {})
        comparison = {"path": str(args.baseline)}
        if base_designs:
            comparison["batched_speedup_vs_baseline"] = {
                spec: round(
                    base_designs[spec]["batched_seconds"] / entry["batched_seconds"], 2
                )
                for spec, entry in report["sta"]["designs"].items()
                if spec in base_designs and entry["batched_seconds"] > 0
            }
            for spec, factor in comparison["batched_speedup_vs_baseline"].items():
                print(f"{spec:>18}: {factor:5.2f}x vs {args.baseline.name}")
        else:
            comparison["note"] = (
                f"{args.baseline.name} has no 'sta' design timings (older report "
                "format); nothing to compare against"
            )
            print(comparison["note"])
        report["sta"]["baseline"] = comparison

    if not args.skip_figures:
        baseline = None
        if args.figures_baseline is not None:
            try:
                baseline = json.loads(args.figures_baseline.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                parser.error(f"cannot read figures baseline {args.figures_baseline}: {exc}")
            # Accept both benchmark formats: run_bench.py reports carry a
            # top-level "timings"; run_runtime_bench.py reports (BENCH_PR2)
            # nest the comparable cold-cache timings one level down.
            if "timings" not in baseline and "full_set_cache" in baseline:
                baseline = baseline["full_set_cache"]["cold"]
        print("\npaper-figure scenarios (fresh quick context each):")
        timings = {}
        for name in SCENARIOS:
            wall = time_scenario(name)
            timings[name] = round(wall, 4)
            print(f"{name:>6}: {wall:8.3f} s", flush=True)
        figures = {"timings": timings}
        if baseline is not None:
            base_timings = baseline.get("timings", baseline)
            figures["baseline"] = base_timings
            figures["speedup"] = {
                name: round(base_timings[name] / timings[name], 2)
                for name in timings
                if name in base_timings and timings[name] > 0
            }
            for name, factor in figures["speedup"].items():
                print(f"{name:>6}: {factor:5.2f}x vs baseline")
        report["figures"] = figures

    from _mem import peak_rss_bytes

    report["machine"]["peak_rss_bytes"] = peak_rss_bytes()
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
