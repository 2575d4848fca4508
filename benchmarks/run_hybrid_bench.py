#!/usr/bin/env python
"""Speed-vs-exactness curve for the criticality-adaptive hybrid engine.

Times one generated design through a full CSM run (the exactness reference)
and through :class:`HybridEngine` at several ``top_k`` operating points —
``0`` (pure NLDM, the speed floor), intermediate knees, and ``all`` (full
refinement, which must be **bitwise** the reference).  Every engine gets its
own fresh private packed store: memoization is integral to the hybrid's
iterative refinement (later iterations re-serve earlier cones from it), so
the honest comparison charges each engine its full keying/storage overhead
on equal terms.  Per point the report records the wall-clock, the fraction
of instances CSM-refined, the iteration count and the max endpoint-arrival
error against the reference over endpoints both runs propagate.

The default ``--max-iterations 1`` measures the classic one-shot
criticality refinement (survey once, refine the top-k cones once); higher
values exercise the re-ranking loop, which buys a bigger refined set at the
cost of extra restricted passes.

Fails (exit 1) when ``top_k=all`` is not bitwise the reference (values and
arrivals both), when any point's CSM-exact nets deviate from the reference
values by more than the engine's 1e-9 V budget (partial refinement
re-batches the levels, so exact nets agree only to the integrator's
cross-batch rounding — bitwise is the *full-cover* guarantee), or when no
intermediate point beats the full CSM wall-clock.

Usage::

    PYTHONPATH=src python benchmarks/run_hybrid_bench.py \
        --output BENCH_PR10.json --baseline BENCH_PR9.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.runtime import PackedStore  # noqa: E402
from repro.sta import CSMEngine, HybridEngine, generate_netlist  # noqa: E402
from repro.sta.generate import default_time_window, primary_input_waveforms  # noqa: E402
from repro.sta.hybrid import events_from_waveforms  # noqa: E402
from run_bench import quick_context  # noqa: E402

#: Arrival agreement budget at full refinement (same as the engine tests).
EXACT_TOL = 1e-9

#: Per-point value budget for CSM-exact nets vs the reference (volts) — the
#: engine's cross-batch rounding tolerance for restricted cones.
EXACT_VALUE_TOL_V = 1e-9

DEFAULT_SPEC = "dag:w256:d4"
DEFAULT_POINTS = "0,8,32,all"


def machine_block() -> dict:
    """CPU inventory for the report; warns loudly below 4 CPUs so numbers
    measured in small containers are never mistaken for parallel speedups."""
    cpus = os.cpu_count() or 1
    block = {"cpus": cpus}
    if cpus < 4:
        block["warning"] = (
            f"only {cpus} CPU(s) visible: timings measure single-core "
            "algorithmic behaviour under time-slicing — re-measure on a "
            "machine with >= 4 cores before quoting concurrency numbers"
        )
        print(f"WARNING: {block['warning']}", file=sys.stderr)
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PR10.json",
        help="where to write the benchmark JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--spec", default=DEFAULT_SPEC,
        help="generator spec of the benchmark design (default: %(default)s)",
    )
    parser.add_argument(
        "--top-k", default=DEFAULT_POINTS,
        help="comma-separated top-k operating points, integers or 'all' "
        "(default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="stimulus seed")
    parser.add_argument(
        "--max-iterations", type=int, default=1,
        help="hybrid refinement iteration cap per point (default: %(default)s "
        "— the one-shot survey/refine knee)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="previous BENCH json; recorded for provenance when present",
    )
    args = parser.parse_args(argv)

    points = []
    for token in args.top_k.split(","):
        token = token.strip()
        if not token:
            continue
        points.append("all" if token == "all" else int(token))
    if "all" not in points:
        parser.error("--top-k must include 'all' (the bitwise exactness check)")

    report = {
        "settings": "quick",
        "machine": machine_block(),
        "spec": args.spec,
        "seed": args.seed,
        "max_iterations": args.max_iterations,
        "top_k_points": [str(point) for point in points],
    }

    failed = False
    with tempfile.TemporaryDirectory(prefix="hybrid-bench-") as tmp:
        # One shared characterization store; every propagation engine gets
        # its own fresh private packed store below, so each pays its full
        # keying/storage overhead and none reads another's results.
        context = quick_context(cache=PackedStore(Path(tmp) / "characterization"))
        models = context.models
        options = context.model_options()

        netlist = generate_netlist(context.library, args.spec)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=args.seed)
        endpoints = list(netlist.primary_outputs)

        start = time.perf_counter()
        models.prewarm_for_netlist(netlist, kinds=("sis", "mis"), include_nldm=True)
        characterization = time.perf_counter() - start
        print(
            f"hybrid sweep — {args.spec}: {len(netlist.instances)} gates, "
            f"{len(endpoints)} endpoints (characterization {characterization:.3f} s)"
        )

        reference_engine = CSMEngine(
            netlist, models, options=options,
            cache=PackedStore(Path(tmp) / "reference"),
        )
        start = time.perf_counter()
        reference = reference_engine.run(waveforms, t_stop=t_stop)
        full_seconds = time.perf_counter() - start
        print(f"full CSM reference: {full_seconds:.3f} s")
        reference_arrivals = {
            net: event.arrival
            for net, event in events_from_waveforms(
                reference.waveforms, reference_engine.vdd
            ).items()
            if net in set(endpoints)
        }

        curve = []
        for index, point in enumerate(points):
            hybrid = HybridEngine(
                netlist, models, options=options,
                cache=PackedStore(Path(tmp) / f"hybrid-{index}"),
                top_k=point,
                max_iterations=args.max_iterations,
            )
            start = time.perf_counter()
            result = hybrid.run(waveforms, t_stop=t_stop)
            seconds = time.perf_counter() - start
            # Arrival error over endpoints both runs propagate; endpoints
            # where only one side sees a transition are NLDM-vs-CSM modeling
            # disagreements, counted separately (they can only be wrong on
            # non-refined endpoints, so top-k=all must report zero).
            max_error = 0.0
            presence_mismatches = 0
            for net in endpoints:
                full_arrival = reference_arrivals.get(net)
                hybrid_arrival = result.endpoint_arrivals.get(net)
                if full_arrival is None or hybrid_arrival is None:
                    if (full_arrival is None) != (hybrid_arrival is None):
                        presence_mismatches += 1
                    continue
                max_error = max(max_error, abs(hybrid_arrival - full_arrival))
            bitwise = all(
                np.array_equal(
                    result.waveforms[net].values, reference.waveforms[net].values
                )
                for net in result.exact_nets
            )
            max_exact_dv = max(
                (
                    float(
                        np.abs(
                            result.waveforms[net].values
                            - reference.waveforms[net].values
                        ).max()
                    )
                    for net in result.exact_nets
                ),
                default=0.0,
            )
            entry = {
                "top_k": str(point),
                "seconds": round(seconds, 4),
                "speedup_vs_full_csm": round(full_seconds / max(seconds, 1e-12), 3),
                "csm_fraction": round(result.csm_fraction, 6),
                "iterations": len(result.iterations),
                "refined_instances": len(result.refined_instances),
                "exact_nets": len(result.exact_nets),
                "max_arrival_error_s": max_error,
                "arrival_presence_mismatches": presence_mismatches,
                "max_exact_value_error_v": max_exact_dv,
                "exact_nets_bitwise_vs_full": bitwise,
            }
            curve.append(entry)
            print(
                f"top-k {str(point):>4}: {seconds:8.3f} s "
                f"({entry['speedup_vs_full_csm']:6.2f}x), csm fraction "
                f"{result.csm_fraction:.3f}, {len(result.iterations)} iteration(s), "
                f"max arrival error {max_error:.2e} s "
                f"({presence_mismatches} presence mismatch(es))"
            )
            if max_exact_dv > EXACT_VALUE_TOL_V:
                print(
                    f"ERROR: top-k {point}: refined waveforms deviate from the "
                    f"reference by {max_exact_dv:.3e} V "
                    f"(budget {EXACT_VALUE_TOL_V:.0e} V)",
                    file=sys.stderr,
                )
                failed = True
            if point == "all" and (
                not bitwise or max_error > EXACT_TOL or presence_mismatches
            ):
                print(
                    f"ERROR: top-k all is not exactly full CSM: bitwise={bitwise}, "
                    f"max arrival error {max_error:.3e} s / "
                    f"{presence_mismatches} presence mismatch(es) "
                    f"(budget {EXACT_TOL:.0e}, 0)",
                    file=sys.stderr,
                )
                failed = True

    intermediate = [
        entry for entry in curve if entry["top_k"] not in ("0", "all")
    ]
    if intermediate and not any(
        entry["seconds"] < full_seconds for entry in intermediate
    ):
        print(
            "ERROR: no intermediate top-k point beat the full CSM wall-clock "
            f"({full_seconds:.3f} s) — the knee of the curve is missing",
            file=sys.stderr,
        )
        failed = True

    report["hybrid"] = {
        "gates": len(netlist.instances),
        "endpoints": len(endpoints),
        "characterization_seconds": round(characterization, 4),
        "full_csm_seconds": round(full_seconds, 4),
        "exactness_tolerance_s": EXACT_TOL,
        "points": curve,
    }

    if args.baseline is not None:
        try:
            baseline_report = json.loads(args.baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        report["hybrid"]["baseline"] = {
            "path": str(args.baseline),
            "note": "first hybrid-engine report; prior BENCH files have no "
            "hybrid section to compare against",
        }
        if "hybrid" in baseline_report:
            base_full = baseline_report["hybrid"].get("full_csm_seconds")
            if base_full:
                report["hybrid"]["baseline"] = {
                    "path": str(args.baseline),
                    "full_csm_speedup_vs_baseline": round(
                        base_full / max(full_seconds, 1e-12), 2
                    ),
                }

    from _mem import peak_rss_bytes

    report["machine"]["peak_rss_bytes"] = peak_rss_bytes()
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
