#!/usr/bin/env python
"""Wall-clock benchmark runner for the paper-figure scenarios.

Times every ``test_bench_fig*.py`` scenario end-to-end (characterization +
reference transients + model simulations, each against a *fresh* quick-settings
context so the numbers are independent of execution order) and writes the
results to a JSON file.  This seeds the repo's performance trajectory: each PR
that touches the hot path records a ``BENCH_PR<n>.json`` with the timings it
measured, plus the speedup against the baseline it started from.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --output BENCH_PR1.json
    PYTHONPATH=src python benchmarks/run_bench.py --baseline /tmp/pre.json \
        --output BENCH_PR1.json          # include per-scenario speedups
    PYTHONPATH=src python benchmarks/run_bench.py --scenario fig9 fig11

The JSON schema is ``{"settings", "timings": {scenario: seconds},
"baseline": {...}, "speedup": {...}}``; ``baseline``/``speedup`` are present
only when ``--baseline`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

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
from repro.runtime import PackedStore  # noqa: E402

#: Scenario name -> callable(context).  Mirrors benchmarks/test_bench_fig*.py.
SCENARIOS = {
    "fig3": lambda ctx: run_fig3(ctx),
    "fig4": lambda ctx: run_fig4(ctx),
    "fig5": lambda ctx: run_fig5(ctx),
    "fig9": lambda ctx: run_fig9(ctx, fanout=1),
    "fig10": lambda ctx: run_fig10(ctx),
    "fig11": lambda ctx: run_fig11(ctx),
    "fig12": lambda ctx: run_fig12(ctx),
}


def quick_context(cache: Optional[PackedStore] = None) -> ExperimentContext:
    """The quick-settings context, matching ``benchmarks/conftest.py``."""
    return ExperimentContext(
        characterization=CharacterizationConfig(io_grid_points=5),
        reference_time_step=4e-12,
        model_time_step=2e-12,
        cache=cache,
    )


def time_scenario(name: str) -> float:
    """Run one scenario against a fresh context and return wall seconds."""
    runner = SCENARIOS[name]
    context = quick_context()
    start = time.perf_counter()
    runner(context)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PR1.json",
        help="where to write the timing JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="a previous run's JSON; its timings are embedded and per-scenario speedups computed",
    )
    parser.add_argument(
        "--scenario", nargs="*", choices=sorted(SCENARIOS), default=None,
        help="subset of scenarios to run (default: all)",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline is not None:
        # Validate up front: a typo'd path should not cost a benchmark run.
        try:
            baseline = json.loads(args.baseline.read_text())
        except OSError as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"baseline {args.baseline} is not valid JSON: {exc}")

    names = args.scenario or list(SCENARIOS)
    timings = {}
    for name in names:
        wall = time_scenario(name)
        timings[name] = round(wall, 4)
        print(f"{name:>6}: {wall:8.3f} s", flush=True)

    cpus = os.cpu_count() or 1
    machine = {"cpus": cpus}
    if cpus < 4:
        machine["warning"] = (
            f"only {cpus} CPU(s) visible: executor-sweep timings measure "
            "scheduling overhead, not parallel speedup — re-measure on a "
            "machine with >= 4 cores"
        )
        print(f"WARNING: {machine['warning']}", file=sys.stderr)
    from _mem import peak_rss_bytes

    machine["peak_rss_bytes"] = peak_rss_bytes()
    report = {"settings": "quick", "machine": machine, "timings": timings}
    if baseline is not None:
        base_timings = baseline.get("timings", baseline)
        report["baseline"] = base_timings
        report["speedup"] = {
            name: round(base_timings[name] / timings[name], 2)
            for name in timings
            if name in base_timings and timings[name] > 0
        }
        for name, factor in report["speedup"].items():
            print(f"{name:>6}: {factor:5.2f}x vs baseline")

    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
