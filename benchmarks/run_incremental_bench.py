#!/usr/bin/env python
"""Benchmark the incremental timing graph, the packed store and the DC settle.

Five measurements, written to one JSON report (``BENCH_PR5.json``):

1. **Incremental STA** on ``dag:w64:d4:s7`` (256 gates): cold run against an
   empty packed store, warm repeat with a fresh engine (must integrate
   *zero* waveforms — asserted), and one ECO cell swap (must re-integrate
   only the affected region while matching a cold full rebuild to 1e-9 V —
   asserted).
2. **NLDM re-timing**: cold/repeat/ECO event propagation through the
   keyless NLDM engine, which re-evaluates the whole design on every run
   (the repeat and the edited run must equal fresh engines — asserted).
3. **DC settle accuracy**: the NOR2/NAND2 MCSM settle states for every
   two-input logic state, DC solve vs the legacy 2 ns pre-roll vs a
   converged 100 ns integration (the DC-vs-converged deviation must stay
   below 1e-9 V — asserted).
4. **DC settle cost**: full-design engine runs (cache disabled) with
   ``settle_mode="dc"`` vs ``settle_mode="integrate"``.
5. **fig5 executor sweep** (standing ROADMAP item): serial vs thread vs
   process pools, with the CPU count recorded so single-core numbers read
   honestly.

Usage::

    PYTHONPATH=src python benchmarks/run_incremental_bench.py --output BENCH_PR5.json
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

from repro.cells import default_library  # noqa: E402
from repro.characterization import (  # noqa: E402
    CharacterizationConfig,
    characterize_mcsm,
)
from repro.csm.base import SimulationOptions  # noqa: E402
from repro.csm.loads import CapacitiveLoad  # noqa: E402
from repro.runtime import PackedStore  # noqa: E402
from repro.sta import (  # noqa: E402
    CSMEngine,
    NLDMEngine,
    TimingModelLibrary,
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
    waveform_deviation,
)
from repro.sta.netlist import eco_swap_candidate  # noqa: E402
from repro.technology import default_technology  # noqa: E402
from run_runtime_bench import bench_fig5_executors  # noqa: E402

QUICK_CONFIG = CharacterizationConfig(io_grid_points=5)
QUICK_OPTIONS = SimulationOptions(time_step=2e-12)


def bench_incremental(spec: str = "dag:w64:d4:s7") -> dict:
    """Cold / warm / edited runs of one design against a fresh disk store."""
    library = default_library(default_technology())
    cache = PackedStore(tempfile.mkdtemp(prefix="bench-pr4-"))
    models = TimingModelLibrary(library=library, config=QUICK_CONFIG, cache=cache)
    netlist = generate_netlist(library, spec)
    waveforms = primary_input_waveforms(netlist, seed=0)
    instances = len(netlist.instances)

    start = time.perf_counter()
    characterized = models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
    characterization_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cold = CSMEngine(netlist, models, options=QUICK_OPTIONS).run(waveforms)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = CSMEngine(netlist, models, options=QUICK_OPTIONS).run(waveforms)
    warm_seconds = time.perf_counter() - start
    assert warm.stats["integrations"] == 0, warm.stats
    assert waveform_deviation(warm, cold) == 0.0

    region_size, target, partner = eco_swap_candidate(netlist)
    netlist.swap_cell(target, partner)
    start = time.perf_counter()
    edited = CSMEngine(netlist, models, options=QUICK_OPTIONS).run(waveforms)
    edit_seconds = time.perf_counter() - start
    start = time.perf_counter()
    rebuilt = CSMEngine(netlist, models, options=QUICK_OPTIONS, use_cache=False).run(waveforms)
    rebuild_seconds = time.perf_counter() - start
    deviation = waveform_deviation(edited, rebuilt)
    assert edited.stats["integrations"] <= region_size, (edited.stats, region_size)
    assert deviation <= 1e-9, deviation

    return {
        "spec": spec,
        "gates": instances,
        "characterization_seconds": round(characterization_seconds, 4),
        "models_characterized": characterized,
        "cold_seconds": round(cold_seconds, 4),
        "cold_stats": cold.stats,
        "warm_seconds": round(warm_seconds, 4),
        "warm_stats": warm.stats,
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "edit": {
            "target": target,
            "partner": partner,
            "affected_region": region_size,
            "seconds": round(edit_seconds, 4),
            "stats": edited.stats,
            "full_rebuild_seconds": round(rebuild_seconds, 4),
            "speedup_vs_rebuild": round(rebuild_seconds / max(edit_seconds, 1e-9), 2),
            "max_abs_delta_v": deviation,
        },
        "cache": cache.stats.as_dict(),
    }


def bench_nldm_incremental(spec: str = "dag:w64:d4:s7") -> dict:
    """NLDM event propagation: the engine keeps no cache, so a repeat and
    an edited run cost a full evaluation each."""
    library = default_library(default_technology())
    store = PackedStore(tempfile.mkdtemp(prefix="bench-pr5-nldm-"))
    models = TimingModelLibrary(library=library, config=QUICK_CONFIG, cache=store)
    netlist = generate_netlist(library, spec)
    events = primary_input_events(netlist, seed=0)

    start = time.perf_counter()
    cold = NLDMEngine(netlist, models).run(events)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = NLDMEngine(netlist, models).run(events)
    warm_seconds = time.perf_counter() - start
    assert warm.events == cold.events

    region_size, target, partner = eco_swap_candidate(netlist)
    netlist.swap_cell(target, partner)
    start = time.perf_counter()
    edited = NLDMEngine(netlist, models).run(events)
    edit_seconds = time.perf_counter() - start
    reference = NLDMEngine(netlist.copy(), models).run(events)
    assert edited.stats["integrations"] == len(netlist.instances), edited.stats
    assert edited.events == reference.events

    return {
        "spec": spec,
        "gates": len(netlist.instances),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "edit_seconds": round(edit_seconds, 4),
        "edit_stats": edited.stats,
        "affected_region": region_size,
        # The characterizations only: the NLDM engine stores nothing.
        "file_sizes": store.file_sizes(),
    }


def bench_settle_accuracy() -> dict:
    """DC settle vs legacy 2 ns pre-roll vs converged integration, per state."""
    library = default_library(default_technology())
    load = CapacitiveLoad(5e-15)
    dc_options = SimulationOptions(time_step=1e-12)
    legacy_options = SimulationOptions(time_step=1e-12, settle_mode="integrate")
    converged_options = SimulationOptions(
        time_step=1e-12, settle_time=100e-9, settle_mode="integrate"
    )
    report = {}
    for cell_name in ("NOR2_X1", "NAND2_X1"):
        model = characterize_mcsm(library[cell_name], "A", "B", QUICK_CONFIG)
        vdd = model.vdd
        states = {}
        for state_a, state_b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            values = {"A": state_a * vdd, "B": state_b * vdd}
            start = time.perf_counter()
            vo_dc, vn_dc = model.settle_state(values, load, dc_options)
            dc_seconds = time.perf_counter() - start
            start = time.perf_counter()
            vo_legacy, vn_legacy = model.settle_state(values, load, legacy_options)
            legacy_seconds = time.perf_counter() - start
            vo_ref, vn_ref = model.settle_state(values, load, converged_options)
            dc_error = max(abs(vo_dc - vo_ref), abs(vn_dc - vn_ref))
            assert dc_error <= 1e-9, (cell_name, state_a, state_b, dc_error)
            states[f"{state_a}{state_b}"] = {
                "dc": {"v_out": vo_dc, "v_int": vn_dc, "seconds": round(dc_seconds, 5)},
                "legacy_2ns": {
                    "v_out": vo_legacy,
                    "v_int": vn_legacy,
                    "seconds": round(legacy_seconds, 5),
                },
                "converged_100ns": {"v_out": vo_ref, "v_int": vn_ref},
                "dc_vs_converged_max_delta_v": dc_error,
                "legacy_vs_converged_max_delta_v": max(
                    abs(vo_legacy - vo_ref), abs(vn_legacy - vn_ref)
                ),
                "settle_speedup": round(legacy_seconds / max(dc_seconds, 1e-9), 1),
            }
        report[cell_name] = states
    return report


def bench_settle_cost(spec: str = "dag:w64:d4:s7") -> dict:
    """Whole-design propagation with DC settle vs the integration pre-roll.

    Measured at both the quick (2 ps) and the paper (1 ps) step: the DC
    solve's pre-roll+polish trades against the lockstep settle's early-exit,
    so the wall win grows with the step count of the legacy window.
    """
    library = default_library(default_technology())
    models = TimingModelLibrary(library=library, config=QUICK_CONFIG)
    netlist = generate_netlist(library, spec)
    waveforms = primary_input_waveforms(netlist, seed=0)
    models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))

    report = {"spec": spec, "gates": len(netlist.instances)}
    for label, time_step in (("dt_2ps", 2e-12), ("dt_1ps", 1e-12)):
        timings = {}
        results = {}
        for mode in ("dc", "integrate"):
            options = SimulationOptions(time_step=time_step, settle_mode=mode)
            engine = CSMEngine(netlist, models, options=options, use_cache=False)
            start = time.perf_counter()
            results[mode] = engine.run(waveforms)
            timings[mode] = time.perf_counter() - start
        report[label] = {
            "dc_seconds": round(timings["dc"], 4),
            "integrate_seconds": round(timings["integrate"], 4),
            "speedup": round(timings["integrate"] / max(timings["dc"], 1e-9), 2),
            # The deviation between the two modes is NOT noise: it is the
            # initial-state correction for slow stack-leakage modes the 2 ns
            # pre-roll never settles.
            "max_abs_delta_v_dc_vs_integrate": waveform_deviation(
                results["dc"], results["integrate"]
            ),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PR5.json",
        help="where to write the benchmark JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(2, os.cpu_count() or 1),
        help="pool width for the executor sweeps (default: cpu_count, min 2)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    machine = {"cpus": cpus}
    if cpus < 4:
        machine["warning"] = (
            f"only {cpus} CPU(s) visible: pool timings measure scheduling "
            "overhead, not parallel speedup — re-measure on a machine with "
            ">= 4 cores"
        )
        print(f"WARNING: {machine['warning']}", file=sys.stderr)
    report = {"settings": "quick", "machine": machine}
    print(f"machine: {cpus} cpu(s)")

    print("1/5 incremental STA (cold / warm / ECO edit) ...")
    report["incremental"] = bench_incremental()
    print(json.dumps(report["incremental"], indent=2)[:400])

    print("2/5 NLDM incremental event propagation ...")
    report["nldm_incremental"] = bench_nldm_incremental()
    print(json.dumps(report["nldm_incremental"], indent=2))

    print("3/5 DC settle accuracy per input state ...")
    report["settle_accuracy"] = bench_settle_accuracy()

    print("4/5 DC settle cost on a full design ...")
    report["settle_cost"] = bench_settle_cost()
    print(json.dumps(report["settle_cost"], indent=2))

    print("5/5 fig5 executor sweep ...")
    report["fig5_executors"] = bench_fig5_executors(args.workers)

    from _mem import peak_rss_bytes

    report["machine"]["peak_rss_bytes"] = peak_rss_bytes()
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
