#!/usr/bin/env python3
"""The timing stack's benchmark: three seeded workloads, one command.

Usage (from anywhere; the script works in the repository root)::

    python3 perfbench/run.py --workload csm_cold_deep --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

Workloads (see ``workloads.py`` and ``perfbench/README.md``):

* ``csm_cold_deep`` — cold streaming CSM on ``dag:w128:d16:s<seed>``;
* ``eco_server`` — closed-loop ECO edit + timing request pairs against an
  in-process timing server on ``dag:w128:d4:s<seed>``;
* ``hybrid_wide`` — hybrid NLDM survey + top-8 CSM refinement on
  ``dag:w1024:d4:s<seed>``.

A run sets the workload up several times from an empty cache (``setup_s``
is the fastest), then runs ops until ``--seconds`` have passed and the
workload's minimum op count is reached, checks every op's output outside the
timed region and prints a human-readable report.  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  Metric names and units are read from ``BENCHMARK.json``.  A traced
run alternates untraced and traced ops; layer figures are means over the
traced ops and ``trace.overhead_ratio`` is the traced over the untraced mean
op wall.  The full report (provenance, per-op records,
layer table and, when traced, Chrome trace events) is written to
``.perfbench/<workload>-s<seed>-trace<0|1>.json``.

``--workload all`` runs each workload in a fresh subprocess, so peak RSS and
in-memory memos never carry over between workloads.  The exit status is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")

#: Workloads and metrics (name -> unit) as ``BENCHMARK.json`` declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def peak_rss_bytes() -> int:
    """The process's resident-set high-water mark (``VmHWM``), in bytes."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_peak_rss() -> bool:
    """Lower ``VmHWM`` to the current RSS; ``False`` where the kernel does
    not allow it (then the high-water mark also covers set-up)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (the store's fsync cost)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def _git_commit() -> str:
    """HEAD commit read from ``.git`` without running git; ``unknown`` when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workdir: Path) -> Dict[str, Any]:
    import numpy

    cpus = os.cpu_count() or 1
    block = {
        "nproc": cpus,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "store_filesystem": _filesystem(workdir),
    }
    if cpus < 4:
        block["warning"] = (
            f"only {cpus} CPU(s) visible: timings measure single-core "
            "algorithmic behaviour under time-slicing; quote no thread- or "
            "process-parallel speedup from them"
        )
        print(f"WARNING: {block['warning']}", file=sys.stderr)
    return block


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(records, setup_times, identical_ops: bool) -> Dict[str, float]:
    """Fastest set-up; op throughput, latency and the largest per-op
    ``VmHWM`` (reset before the op, read before its check) over untraced ops.

    When every op repeats the same computation, the best op is the latency
    and both percentiles report it; otherwise the percentiles are taken
    over the ops and throughput is the median over ops.
    """
    walls = [record["seconds"] for record in records]
    gates = records[0]["gates"]
    if identical_ops:
        p50 = p90 = min(walls)
        throughput = gates / p50
    else:
        p50, p90 = _percentile(walls, 0.5), _percentile(walls, 0.9)
        throughput = statistics.median(gates / wall for wall in walls)
    return {
        "setup_s": min(setup_times),
        "gates_per_s": throughput,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": max(record["peak_rss"] for record in records) / 1e6,
    }


def _reused(stats: Dict[str, Any]) -> int:
    """Instances served without integration; a whole-run hit reuses all."""
    if stats.get("full_run_hit"):
        return stats["instances"]
    return stats["memo_hits"] + stats["cache_hits"] + stats["duplicates"]


def per_layer(tracer, traced, untraced, setups: int, extra: Dict[str, float]):
    """The per-layer metrics of a traced run (means over traced ops) and
    the per-span table they are read from."""
    from tracing import layer_table

    table = layer_table([tracer.op_layers(f"op{record['index']}") for record in traced])
    zero = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "count": 0.0}

    def row(name):
        return table.get(name, zero)

    def mean(key):
        return sum(key(record) for record in traced) / len(traced)

    wall = mean(lambda record: record["seconds"])
    lookups = row("runtime.store.lookup")
    handler = row("runtime.server.handler")
    instances = sum(record["stats"]["instances"] for record in traced)
    prewarm = [
        tracer.op_layers(f"setup{index}").get("characterization.prewarm", zero)["busy_s"]
        for index in range(setups)
    ]
    return {
        "lut.table.contract_s": row("lut.table.contract")["busy_s"],
        "lut.table.contract_rows": row("lut.table.contract")["count"],
        "csm.simulate.integrate_self_s": row("csm.simulate.integrate")["self_s"],
        "csm.simulate.integrate_rows": row("csm.simulate.integrate")["count"],
        "csm.dc.settle_s": row("csm.dc.settle")["busy_s"],
        "csm.dc.settle_units": row("csm.dc.settle")["count"],
        "runtime.jobs.hash_s": row("runtime.jobs.hash")["busy_s"],
        "runtime.jobs.hash_calls": row("runtime.jobs.hash")["calls"],
        "runtime.store.lookup_s": lookups["busy_s"],
        "runtime.store.lookups": lookups["calls"],
        "runtime.store.hit_ratio": lookups["count"] / lookups["calls"] if lookups["calls"] else 0.0,
        "runtime.store.write_s": row("runtime.store.write")["busy_s"],
        "runtime.store.bytes_written": mean(lambda record: record["bytes_written"]),
        "runtime.store.page_release_s": row("runtime.store.page_release")["busy_s"],
        "sta.engine.self_s": sum(
            values["self_s"] for name, values in table.items() if name.startswith("sta.engine.run[")
        ),
        "sta.engine.spills": mean(lambda record: record["stats"]["spills"]),
        "sta.engine.faults": mean(lambda record: record["stats"]["faults"]),
        "sta.engine.integrations": mean(lambda record: record["stats"]["integrations"]),
        "sta.engine.reuse_ratio": sum(_reused(record["stats"]) for record in traced) / instances,
        "sta.netlist.edit_s": row("sta.netlist.edit")["busy_s"],
        "runtime.server.handler_s": handler["busy_s"],
        "runtime.server.transport_ms": (wall - handler["busy_s"]) * 1e3 if handler["calls"] else 0.0,
        "sta.hybrid.survey_s": row("sta.engine.run[NLDMEngine]")["busy_s"],
        "sta.hybrid.refine_s": row("sta.engine.run[CSMEngine,only]")["busy_s"],
        "sta.hybrid.csm_fraction": mean(lambda record: record.get("csm_fraction", 0.0)),
        "sta.hybrid.arrival_err_ps": extra.get("arrival_err_ps", 0.0),
        "characterization.prewarm_s": statistics.median(prewarm),
        "other_s": wall - sum(values["self_s"] for values in table.values()),
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / statistics.mean(record["seconds"] for record in untraced),
    }, table


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    """Set up, run the timed ops, check; everything a report needs."""
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer() if trace else None
    setup_times: List[float] = []
    records: List[Dict[str, Any]] = []
    try:
        for index in range(workload.setups):
            if index:
                workload.teardown()
            if tracer:
                tracer.op = f"setup{index}"
                tracer.install()
            start = time.perf_counter()
            workload.setup(index)
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()

        started = time.perf_counter()
        while (
            len(records) < workload.min_ops
            or time.perf_counter() - started < seconds
            or (trace and len(records) % 2 == 1)
        ):
            index = len(records)
            traced = bool(tracer) and index % 2 == 1
            payload = workload.prepare(index)
            before = workload.store_bytes()
            if traced:
                tracer.op = f"op{index}"
                tracer.install()
            rss_reset = reset_peak_rss()
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                record = workload.op(index, payload)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                record, error = {"index": index, "gates": workload.gates}, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            record["cpu_seconds"] = time.process_time() - cpu_start
            record["peak_rss"] = peak_rss_bytes()
            if traced:
                tracer.uninstall()
            record.update(seconds=elapsed, traced=traced, bytes_written=workload.store_bytes() - before)
            records.append(record)
            record["failures"] = [error] if error else workload.check(record)

        finish_start = time.perf_counter()
        failures, extra = workload.finish(records)
        finish_seconds = time.perf_counter() - finish_start
        for record in records:
            record["failures"] += failures.get(record["index"], [])
    finally:
        workload.teardown()

    untraced = [record for record in records if not record["traced"]]
    report = {
        "workload": name,
        "design": workload.design,
        "gates": workload.gates,
        "seed": seed,
        "seconds": seconds,
        "setup_times_s": setup_times,
        "finish_seconds": finish_seconds,
        "peak_rss_scope": "per op" if rss_reset else "process (VmHWM reset refused)",
        "ops": len(records),
        "failed": sum(1 for record in records if record["failures"]),
        "failures": {record["index"]: record["failures"] for record in records if record["failures"]},
        "end_to_end": end_to_end(untraced, setup_times, workload.identical_ops),
        "extra": extra,
        "records": [
            {
                key: record[key]
                for key in ("index", "seconds", "cpu_seconds", "peak_rss", "traced", "bytes_written", "kind", "stats")
                if key in record
            }
            for record in records
        ],
    }
    report["end_to_end"]["error_rate"] = report["failed"] / len(records)
    if tracer:
        traced = [record for record in records if record["traced"] and "stats" in record]
        report["per_layer"], report["layer_table"] = per_layer(tracer, traced, untraced, workload.setups, extra)
        report["traceEvents"] = tracer.chrome_events()
    return report


def print_report(report: Dict[str, Any], trace: bool) -> None:
    print(
        f"{report['workload']}: {report['design']} ({report['gates']} gates), "
        f"{report['ops']} ops, {report['failed']} failed, {len(report['setup_times_s'])} set-ups"
    )
    for index, problems in report["failures"].items():
        print(f"  FAILED op {index}: {'; '.join(problems)}")
    units = {**END_TO_END, "error_rate": "ratio"}
    for name, value in report["end_to_end"].items():
        print(f"  {name:<16} {value:>14.6g} {units[name]}")
    for name, value in report["extra"].items():
        unit = "ps" if name.endswith("_ps") else "V"
        print(f"  {name:<16} {value:>14.6g} {unit}")
    if not trace:
        return
    wall = report["per_layer"]["trace.wall_s"]
    print(f"  layers (mean per traced op; traced wall {wall:.4f} s):")
    print(f"    {'span':<34} {'calls':>9} {'busy s':>10} {'self s':>10} {'self %':>7} {'count':>12}")
    for name, row in sorted(report["layer_table"].items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"    {name:<34} {row['calls']:>9.1f} {row['busy_s']:>10.4f} {row['self_s']:>10.4f} "
            f"{100 * row['self_s'] / wall:>6.1f}% {row['count']:>12.0f}"
        )
    for name, value in report["per_layer"].items():
        print(f"  {name:<34} {value:>14.6g}")


def run_one(args) -> int:
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        block = provenance(workdir)
        print(f"provenance: {json.dumps(block, sort_keys=True)}")
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["provenance"] = block
    path = OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(report, bool(args.trace))
    metrics = report["per_layer"] if args.trace else {
        name: report["end_to_end"][name] for name in END_TO_END
    }
    units = PER_LAYER if args.trace else END_TO_END
    correct = report["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["ops"],
                "failed": report["failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh subprocess; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401  (the program under test, built from source)
    except ImportError as exc:
        print(f"perfbench: cannot import the timing stack from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
