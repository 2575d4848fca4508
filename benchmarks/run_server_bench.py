"""Timing-server benchmark: soak and store eviction.

Three parts, one report (``BENCH_PR7.json``):

* **soak** — a real daemon (unix socket, worker pool, one packed store)
  serves 120+ concurrent requests from 8 sessions sharing one 256-gate
  design: warm repeats, a synchronized cold burst (cross-session
  single-flight dedupe), ECO swap/swap-back cycles, and a final
  ``return_waveforms`` response checked against a local no-cache rebuild
  (≤ 1e-9 V).  Reports p50/p99 latency and the warm hit-rate.
* **eviction** — an LRU/age-budgeted store overfilled on purpose: evictions
  fire, the live size returns under budget, and every evicted key misses
  (never corrupts).
* **fig5_executors** — the PR 2 executor sweep re-run on this machine so the
  numbers in one report are from one box, with ``cpu_count`` recorded next
  to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.cells import default_library  # noqa: E402
from repro.characterization import CharacterizationConfig  # noqa: E402
from repro.csm.base import SimulationOptions  # noqa: E402
from repro.runtime.client import TimingClient  # noqa: E402
from repro.runtime.server import ServerConfig, TimingServer, build_service  # noqa: E402
from repro.runtime.store import PackedStore  # noqa: E402
from repro.sta.engine import CSMEngine  # noqa: E402
from repro.sta.generate import (  # noqa: E402
    default_time_window,
    generate_netlist,
    primary_input_waveforms,
)
from repro.sta.models import TimingModelLibrary  # noqa: E402
from repro.technology import default_technology  # noqa: E402

from run_runtime_bench import bench_fig5_executors  # noqa: E402

DESIGN = "dag:w64:d4:s7"  # 256 gates
SESSIONS = 8
WARM_SEEDS = (0, 1, 2, 3)
BURST_SEED = 7
ROUNDS_PER_SESSION = 15  # 8 * 15 = 120 requests in the soak


def _start_server(tmp: Path, workers: int = 4):
    """A live daemon on a fresh socket; returns (server, thread, client)."""
    config = ServerConfig(
        socket_path=tmp / "bench.sock",
        cache_dir=tmp / "cache",
        workers=workers,
        settings="quick",
    )
    server = TimingServer(build_service(config), config)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: __import__("asyncio").run(
            server.serve(ready=lambda _s: ready.set())
        ),
        daemon=True,
    )
    thread.start()
    if not ready.wait(30):
        raise RuntimeError("timing server did not come up")
    return server, thread, TimingClient(socket_path=config.socket_path)


def bench_soak() -> dict:
    """Concurrent multi-session soak against a live daemon."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-server-bench-"))
    try:
        server, thread, client = _start_server(tmp)

        sessions = []
        for _ in range(SESSIONS):
            sessions.append(client.open_session({"generate": DESIGN})["session"])
        gates = client.status()["designs"].popitem()[1]["gates"]

        # Warm the shared store: every session hits the same content keys.
        warm_start = time.perf_counter()
        for seed in WARM_SEEDS:
            client.timing(sessions[0], engine="csm", seed=seed)
        warmup_seconds = time.perf_counter() - warm_start

        barrier = threading.Barrier(SESSIONS)
        lock = threading.Lock()
        latencies: list = []
        outcomes = {"warm": 0, "coalesced": 0, "recompute": 0, "errors": 0}

        def record(response, elapsed):
            stats = response.get("stats") or {}
            with lock:
                latencies.append(elapsed)
                if response.get("coalesced"):
                    outcomes["coalesced"] += 1
                elif stats.get("integrations") == 0:
                    outcomes["warm"] += 1
                else:
                    outcomes["recompute"] += 1

        def worker(index: int, session: str):
            rng = np.random.default_rng(index)
            for round_no in range(ROUNDS_PER_SESSION):
                try:
                    if round_no == 5:
                        # All sessions ask the same cold question at once:
                        # one leader computes, the rest coalesce.
                        barrier.wait(timeout=120)
                        start = time.perf_counter()
                        response = client.timing(
                            session, engine="csm", seed=BURST_SEED
                        )
                        record(response, time.perf_counter() - start)
                    elif round_no == 9 and index < 2:
                        # ECO cycle on two sessions: swap, re-time the dirty
                        # region, swap back (returning to the cached state).
                        eco = client.eco(session, [{"kind": "auto_swap"}])
                        applied = eco["applied"][0]
                        start = time.perf_counter()
                        response = client.timing(session, engine="csm", seed=0)
                        record(response, time.perf_counter() - start)
                        client.eco(
                            session,
                            [{
                                "kind": "swap_cell",
                                "instance": applied["instance"],
                                "cell": applied["swapped_from"],
                            }],
                        )
                    else:
                        seed = int(rng.choice(WARM_SEEDS))
                        start = time.perf_counter()
                        response = client.timing(session, engine="csm", seed=seed)
                        record(response, time.perf_counter() - start)
                except Exception:
                    with lock:
                        outcomes["errors"] += 1
                    raise

        soak_start = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(i, session))
            for i, session in enumerate(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        soak_seconds = time.perf_counter() - soak_start

        status = client.status()

        # Correctness spot-check: server waveforms vs a local no-cache rebuild.
        response = client.timing(
            sessions[-1], engine="csm", seed=0, return_waveforms=True
        )
        library = default_library(default_technology())
        models = TimingModelLibrary(
            library=library, config=CharacterizationConfig(io_grid_points=5)
        )
        netlist = generate_netlist(library, DESIGN)
        window = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=window, seed=0)
        reference = CSMEngine(
            netlist, models, options=SimulationOptions(time_step=2e-12),
            use_cache=False,
        ).run(waveforms, t_stop=window)
        deviation = 0.0
        for net, (times, values) in TimingClient.waveforms_of(response).items():
            ref = reference.waveforms[net]
            assert len(ref.values) == len(values)
            deviation = max(deviation, float(np.abs(ref.values - values).max()))

        client.shutdown()
        thread.join(timeout=30)

        total = len(latencies)
        served_warm = outcomes["warm"] + outcomes["coalesced"]
        latencies_ms = np.sort(np.asarray(latencies)) * 1e3
        summary = {
            "design": DESIGN,
            "gates": gates,
            "sessions": SESSIONS,
            "requests": total,
            "warmup_seconds": round(warmup_seconds, 4),
            "soak_seconds": round(soak_seconds, 4),
            "throughput_rps": round(total / soak_seconds, 2),
            "outcomes": outcomes,
            "warm_hit_rate": round(served_warm / total, 4),
            "latency_ms": {
                "p50": round(float(np.percentile(latencies_ms, 50)), 2),
                "p90": round(float(np.percentile(latencies_ms, 90)), 2),
                "p99": round(float(np.percentile(latencies_ms, 99)), 2),
                "max": round(float(latencies_ms[-1]), 2),
            },
            "single_flight": status["single_flight"],
            "store_dedupe": status["store_dedupe"],
            "max_abs_delta_v_vs_rebuild": deviation,
        }
        # The acceptance gates, asserted here so the bench itself fails loudly.
        assert total >= 100, f"soak ran only {total} requests"
        assert outcomes["errors"] == 0, f"soak saw errors: {outcomes}"
        assert summary["warm_hit_rate"] > 0.90, summary
        assert status["single_flight"]["coalesced"] >= 1, status["single_flight"]
        assert deviation <= 1e-9, f"rebuild deviation {deviation:.3e} V"
        print(
            f"soak: {total} requests / {SESSIONS} sessions in "
            f"{soak_seconds:.2f} s ({summary['throughput_rps']} rps), "
            f"warm hit-rate {summary['warm_hit_rate']:.1%}, "
            f"coalesced {outcomes['coalesced']}, "
            f"p50 {summary['latency_ms']['p50']} ms, "
            f"p99 {summary['latency_ms']['p99']} ms, "
            f"max |dV| {deviation:.2e} V",
            flush=True,
        )
        return summary
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_eviction() -> dict:
    """Overfill a budgeted store: evictions fire, misses stay miss-only."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-evict-bench-"))
    try:
        payload = np.random.default_rng(1).random(8192)  # ~64 KiB per entry
        budget = 512 * 1024
        store = PackedStore(tmp / "store", max_bytes=budget)
        keys = [f"{i:08d}" + "cd" * 4 for i in range(32)]
        for key in keys:
            store.store(key, {"data": payload})
        store.enforce_policy()
        live = store.live_bytes()
        surviving = [k for k in keys if k in store]
        evicted = [k for k in keys if k not in store]
        misses_are_clean = all(store.lookup(k) == (False, None) for k in evicted)
        survivors_read = all(store.lookup(k)[0] for k in surviving)
        report = {
            "budget_bytes": budget,
            "entries_written": len(keys),
            "entries_surviving": len(surviving),
            "entries_evicted": len(evicted),
            "live_bytes_after": live,
            "under_budget": live <= budget,
            "evicted_keys_miss_only": misses_are_clean,
            "survivors_readable": survivors_read,
            "policy": dict(store.policy_stats),
        }
        store.close()
        assert report["entries_evicted"] > 0
        assert report["under_budget"] and misses_are_clean and survivors_read
        print(
            f"eviction: {len(evicted)}/{len(keys)} evicted, live "
            f"{live} <= {budget} bytes, misses clean",
            flush=True,
        )
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PR7.json",
        help="where to write the report (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(os.cpu_count() or 1, 2),
        help="pool width for the executor sweeps (default: cpu_count, min 2)",
    )
    parser.add_argument(
        "--skip-figures", action="store_true",
        help="skip the fig5 executor re-run (server parts only)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    machine = {"cpus": cpus}
    if cpus < 4:
        machine["warning"] = (
            f"only {cpus} CPU(s) visible: every concurrency number in this "
            "report measures overhead under time-slicing, not parallel "
            "speedup — re-measure on a machine with >= 4 cores"
        )
        print(f"WARNING: {machine['warning']}", file=sys.stderr)

    report = {
        "settings": "quick",
        "cpu_count": cpus,
        "machine": machine,
        "soak": bench_soak(),
        "eviction": bench_eviction(),
    }
    if not args.skip_figures:
        report["fig5_executors"] = bench_fig5_executors(args.workers)

    from _mem import peak_rss_bytes

    report["machine"]["peak_rss_bytes"] = peak_rss_bytes()
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
