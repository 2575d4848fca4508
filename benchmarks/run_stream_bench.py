#!/usr/bin/env python
"""Peak-RSS benchmark: streaming vs resident STA across design sizes.

Measures the memory tentpole of the streaming engine: peak resident-set size
as a function of gate count for ``memory_mode="resident"`` and
``memory_mode="stream"`` (fixed hot-level budget), plus a runtime and
bitwise-equality check on the 256-gate reference design.

Peak RSS is monotone over a process lifetime, so every measurement point runs
in a **fresh subprocess** (the script re-execs itself with ``--point``); the
child reports its own ``peak_rss_bytes`` and a SHA-256 digest over every
propagated waveform, which is how the parent asserts streaming results are
bitwise-equal to resident without shipping arrays across the pipe.

Model characterization is shared through one warm on-disk cache so the sweep
pays for it once; each point gets a fresh propagation store so engine timings
are cold-cache.

Usage::

    PYTHONPATH=src python benchmarks/run_stream_bench.py --output BENCH_PR9.json
    PYTHONPATH=src python benchmarks/run_stream_bench.py --quick   # skip 100k

JSON schema::

    {"settings": "quick", "machine": {"cpus": N, "peak_rss_bytes": ...},
     "budget_bytes": B,
     "reference": {"spec": ..., "resident": {...}, "stream": {...},
                   "runtime_ratio": r, "bitwise_equal": true},
     "sizes": {"1k": {"gates": ..., "resident": {...}, "stream": {...}}, ...},
     "rss_growth": {"stream_100k_over_1k": ..., "gates_100k_over_1k": ...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: 256-gate reference design used for the runtime + bitwise-equality check.
REFERENCE_SPEC = "dag:w32:d8:s11"

#: Size sweep: label -> (spec, stream-only).  The 100k tier is stream-only:
#: the point of the streaming mode is that resident cannot (or should not)
#: hold that working set, and a resident 100k run would dominate the sweep's
#: wall-clock anyway.
SIZE_SPECS = [
    ("1k", "dag:w128:d8:s11", False),
    ("10k", "dag:w512:d20:s1", False),
    ("100k", "dag:w4096:d25:s1", True),
]

#: Default hot-level LRU budget for streaming points (bytes).
DEFAULT_BUDGET = 32 * 1024 * 1024


def machine_block() -> dict:
    """CPU inventory for the report; warns below 4 CPUs, where the run
    measures single-core behaviour under time-slicing."""
    cpus = os.cpu_count() or 1
    block = {"cpus": cpus}
    if cpus < 4:
        block["warning"] = (
            f"only {cpus} CPU(s) visible: timings measure single-core "
            "behaviour under time-slicing, not parallel speedup"
        )
        print(f"WARNING: {block['warning']}", file=sys.stderr)
    return block


def run_point(spec: str, mode: str, budget: int, models_cache: str, store_dir: str) -> dict:
    """Child-process body: one engine run, reported as JSON on stdout."""
    from repro.experiments import settings_context
    from repro.runtime.store import PackedStore
    from repro.sta.engine import CSMEngine
    from repro.sta.generate import generate_netlist, primary_input_waveforms

    from _mem import peak_rss_bytes

    context = settings_context("quick", cache=PackedStore(models_cache))

    build_start = time.perf_counter()
    netlist = generate_netlist(context.library, spec)
    build_seconds = time.perf_counter() - build_start

    models = context.models
    char_start = time.perf_counter()
    models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
    char_seconds = time.perf_counter() - char_start

    store = PackedStore(store_dir)
    engine = CSMEngine(
        netlist,
        models,
        options=context.model_options(),
        cache=store,
        memory_mode=mode,
        memory_budget_bytes=budget if mode == "stream" else None,
    )
    waveforms = primary_input_waveforms(netlist, seed=0)

    run_start = time.perf_counter()
    result = engine.run(waveforms)
    run_seconds = time.perf_counter() - run_start

    digest = hashlib.sha256()
    import numpy as np

    for net in sorted(result.waveforms):
        waveform = result.waveforms[net]
        digest.update(net.encode())
        digest.update(np.ascontiguousarray(waveform.times).tobytes())
        digest.update(np.ascontiguousarray(waveform.values).tobytes())
    digest.update(json.dumps(result.model_used, sort_keys=True).encode())

    stats = engine.last_stats.as_dict() if engine.last_stats else {}
    store.close()
    return {
        "spec": spec,
        "mode": mode,
        "gates": len(netlist.instances),
        "build_seconds": round(build_seconds, 3),
        "characterization_seconds": round(char_seconds, 3),
        "run_seconds": round(run_seconds, 3),
        "digest": digest.hexdigest(),
        "spills": stats.get("spills", 0),
        "faults": stats.get("faults", 0),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def spawn_point(spec: str, mode: str, budget: int, models_cache: Path, workdir: Path) -> dict:
    """Run one measurement point in a fresh subprocess and parse its JSON."""
    store_dir = workdir / f"store-{mode}-{spec.replace(':', '_')}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--point",
        json.dumps(
            {
                "spec": spec,
                "mode": mode,
                "budget": budget,
                "models_cache": str(models_cache),
                "store_dir": str(store_dir),
            }
        ),
    ]
    print(f"  {mode:>8} {spec} ...", flush=True)
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"point {mode}/{spec} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    point = json.loads(proc.stdout.splitlines()[-1])
    shutil.rmtree(store_dir, ignore_errors=True)
    print(
        f"  {mode:>8} {spec}: {point['run_seconds']:.2f} s run, "
        f"{point['peak_rss_bytes'] / 1e6:.0f} MB peak, "
        f"{point['spills']} spills / {point['faults']} faults",
        flush=True,
    )
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_PR9.json"))
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="streaming hot-level budget in bytes (default 32 MiB)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the 100k-gate tier (the sweep then finishes in ~2 minutes)",
    )
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.point:
        spec = json.loads(args.point)
        print(
            json.dumps(
                run_point(
                    spec["spec"],
                    spec["mode"],
                    spec["budget"],
                    spec["models_cache"],
                    spec["store_dir"],
                )
            )
        )
        return 0

    from _mem import peak_rss_bytes

    workdir = Path(tempfile.mkdtemp(prefix="repro-stream-bench-"))
    models_cache = workdir / "models-cache"
    try:
        report: dict = {
            "settings": "quick",
            "machine": machine_block(),
            "budget_bytes": args.budget,
        }

        print(f"reference design {REFERENCE_SPEC} (256 gates):", flush=True)
        ref_resident = spawn_point(REFERENCE_SPEC, "resident", args.budget, models_cache, workdir)
        ref_stream = spawn_point(REFERENCE_SPEC, "stream", args.budget, models_cache, workdir)
        ratio = ref_stream["run_seconds"] / max(ref_resident["run_seconds"], 1e-9)
        report["reference"] = {
            "spec": REFERENCE_SPEC,
            "resident": ref_resident,
            "stream": ref_stream,
            "runtime_ratio": round(ratio, 2),
            "bitwise_equal": ref_stream["digest"] == ref_resident["digest"],
        }
        if not report["reference"]["bitwise_equal"]:
            raise AssertionError(
                f"streaming diverged from resident on {REFERENCE_SPEC}: "
                f"{ref_stream['digest']} != {ref_resident['digest']}"
            )
        print(
            f"  runtime ratio stream/resident: {ratio:.2f}x "
            f"(bitwise equal: {report['reference']['bitwise_equal']})",
            flush=True,
        )

        report["sizes"] = {}
        for label, spec, stream_only in SIZE_SPECS:
            if stream_only and args.quick:
                print(f"size {label}: skipped (--quick)", flush=True)
                continue
            print(f"size {label} ({spec}):", flush=True)
            entry: dict = {"spec": spec}
            if not stream_only:
                entry["resident"] = spawn_point(spec, "resident", args.budget, models_cache, workdir)
            entry["stream"] = spawn_point(spec, "stream", args.budget, models_cache, workdir)
            entry["gates"] = entry["stream"]["gates"]
            if "resident" in entry:
                equal = entry["resident"]["digest"] == entry["stream"]["digest"]
                entry["bitwise_equal"] = equal
                if not equal:
                    raise AssertionError(f"streaming diverged from resident on {spec}")
            report["sizes"][label] = entry

        sizes = report["sizes"]
        if "1k" in sizes and "100k" in sizes:
            small, large = sizes["1k"], sizes["100k"]
            report["rss_growth"] = {
                "gates_100k_over_1k": round(large["gates"] / small["gates"], 1),
                "stream_100k_over_1k": round(
                    large["stream"]["peak_rss_bytes"]
                    / max(small["stream"]["peak_rss_bytes"], 1),
                    2,
                ),
            }
            growth = report["rss_growth"]
            sublinear = growth["stream_100k_over_1k"] < growth["gates_100k_over_1k"]
            report["rss_growth"]["sublinear"] = sublinear
            print(
                f"stream peak RSS grew {growth['stream_100k_over_1k']}x over a "
                f"{growth['gates_100k_over_1k']}x gate-count increase "
                f"(sublinear: {sublinear})",
                flush=True,
            )

        report["machine"]["peak_rss_bytes"] = peak_rss_bytes()
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
