"""Command-line entry point: paper figures and STA runs on the parallel runtime.

Usage::

    python -m repro.runtime.cli --figures fig5 fig9 --workers 4 --cache ~/.repro-cache
    python -m repro.runtime.cli --figures fig3 --settings paper --json report.json
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --workers 2 --cache DIR
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --engine hybrid --top-k 2
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --corners TT,FF,SS --cache DIR
    python -m repro.runtime.cli --sta dag:w16:d4:s3 --incremental --cache DIR

Figure mode builds one :class:`~repro.experiments.ExperimentContext` wired to
the chosen executor and disk cache, pre-characterizes every model the
requested figures need (as one bundle of its model library), then runs the figures and
reports per-figure wall-clock plus cache statistics.  A second invocation
with the same ``--cache`` directory skips all characterization jobs.

``--sta SPEC…`` is a front over an in-process
:class:`~repro.runtime.server.TimingService` (no socket) holding the
context's executor-backed model library, the ``--settings`` simulation
options and the ``--cache`` store.  Each spec (``chain:inv:64``,
``tree:4:2``, ``dag:w16:d8:s42`` — see :mod:`repro.sta.generate`) opens a
session, and the flags become one ``timing`` request: ``--engine
csm|nldm|hybrid``, ``--seed``, ``--corners``, ``--memory-mode`` /
``--memory-budget`` and ``--required`` / ``--top-k``.  ``--incremental``
sends timing, a warm repeat, ``eco [{"kind": "auto_swap"}]`` and timing
again.  Every reply prints one line; ``--json`` writes the requests and
replies.  The service alone decides which flag combinations it accepts: an
error reply prints on one line and exits 2 (``bad-request``, ``not-found``)
or 1.  The engine contracts are tier-1 tests, not CLI self-checks: every
CSM flag combination vs the per-instance oracle
(``tests/test_csm_flag_matrix.py``), stream vs resident
(``tests/test_sta_streaming.py``), warm repeats and ECO re-timing
(``tests/test_incremental.py``, ``tests/test_mmmc.py``) and hybrid top-k
``all`` vs full CSM (``tests/test_hybrid.py``).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .executor import default_executor
from .store import PackedStore

__all__ = ["main", "FIGURES", "MODEL_KINDS", "add_timing_arguments", "timing_params"]

#: Figure name -> callable(context) -> result object with ``summary()``.
FIGURES: Dict[str, object] = {}

#: Figure name -> model kinds it characterizes (prewarmed as one bundle).
MODEL_KINDS: Dict[str, tuple] = {
    "fig3": (),
    "fig4": (),
    "fig5": (),
    "fig9": ("mcsm", "mis"),
    "fig10": ("mcsm",),
    "fig11": ("mcsm", "sis"),
    "fig12": ("mcsm",),
    "sta": (),
    "corners": (),
}


def _load_figures() -> None:
    """Populate FIGURES lazily so ``--help`` stays fast."""
    if FIGURES:
        return
    from ..experiments import (
        run_corner_sweep,
        run_fig3,
        run_fig4,
        run_fig5,
        run_fig9,
        run_fig10,
        run_fig11,
        run_fig12,
        run_sta_scale,
    )

    FIGURES.update(
        {
            "fig3": lambda ctx: run_fig3(ctx),
            "fig4": lambda ctx: run_fig4(ctx),
            "fig5": lambda ctx: run_fig5(ctx),
            "fig9": lambda ctx: run_fig9(ctx, fanout=1),
            "fig10": lambda ctx: run_fig10(ctx),
            "fig11": lambda ctx: run_fig11(ctx),
            "fig12": lambda ctx: run_fig12(ctx),
            "sta": lambda ctx: run_sta_scale(ctx),
            "corners": lambda ctx: run_corner_sweep(ctx),
        }
    )


def build_context(settings: str, executor=None, cache: Optional[PackedStore] = None):
    """An :class:`ExperimentContext` for ``settings`` ('quick' or 'paper')."""
    from ..experiments import settings_context

    return settings_context(settings, executor=executor, cache=cache)


def add_timing_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``timing`` flags ``--sta`` shares with the server's ``submit`` verb
    (:func:`timing_params` reads them back)."""
    parser.add_argument("--seed", type=int, default=0,
                        help="stimulus seed (default: 0)")
    parser.add_argument("--corners", default=None, metavar="TT,FF,SS",
                        help="MMMC: propagate every named corner in one run; "
                        "the reply carries per-corner arrivals plus the "
                        "cross-corner worst merge")
    parser.add_argument("--memory-mode", default="resident",
                        choices=["resident", "stream"],
                        help="'stream' propagates with the bounded-memory "
                        "CSM engine: retired levels spill to the result store "
                        "and fault back in as memmap views on demand; the "
                        "NLDM engine keeps no cache and serves both modes "
                        "alike (zero spills)")
    parser.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES",
                        help="streaming hot-level LRU budget in bytes "
                        "(default: unbounded frontier)")


def timing_params(args: argparse.Namespace) -> Dict[str, Any]:
    """The ``timing`` request params of the :func:`add_timing_arguments`
    flags; the service validates them."""
    params: Dict[str, Any] = {"seed": args.seed}
    if args.corners is not None:
        params["corners"] = [
            name.strip() for name in args.corners.split(",") if name.strip()
        ]
    if args.memory_mode != "resident":
        params["memory_mode"] = args.memory_mode
    if args.memory_budget is not None:
        params["memory_budget_bytes"] = args.memory_budget
    return params


def _top_k(text: str):
    """``--top-k``: an integer, else the text as given (the service checks it)."""
    try:
        return int(text)
    except ValueError:
        return text


def _summary(reply: Dict[str, object]) -> str:
    """One line for one ``timing`` or ``eco`` reply."""
    if "applied" in reply:
        return "eco " + ", ".join(
            f"{edit['instance']} {edit['swapped_from']} -> {edit['cell']} "
            f"(affected {edit['affected']})"
            for edit in reply["applied"]
        )
    corners = reply.get("corners")
    runs = [reply["stats"][name] for name in corners] if corners else [reply["stats"]]
    arrivals = (
        [entry[1] for entry in reply["worst_arrivals"].values() if entry is not None]
        if corners
        else [value for value in reply["arrivals"].values() if value is not None]
    )
    line = (
        f"{reply['engine']}{'@' + ','.join(corners) if corners else ''}: "
        f"{sum(run.get('integrations', 0) for run in runs)} integrations, "
        f"latest arrival {max(arrivals, default=0.0) * 1e12:.2f} ps"
    )
    if "csm_fraction" in reply:
        line += f", csm fraction {reply['csm_fraction']:.3f}"
    return line + f", {reply['latency_ms']:.1f} ms"


def _finish(args, report: Dict[str, object], cache: Optional[PackedStore]) -> int:
    """Print the cache line and write ``--json``."""
    if cache is not None:
        print(f"cache: {cache.stats} ({args.cache})")
        report["cache"] = cache.stats.as_dict()
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


def _run_sta(args) -> int:
    """``--sta``: every spec through an in-process :class:`TimingService`."""
    from .server import TimingService

    executor = default_executor(args.workers, args.executor)
    cache = PackedStore(args.cache) if args.cache is not None else None
    context = build_context(args.settings, executor=executor, cache=cache)
    service = TimingService(models=context.models, options=context.model_options(), store=cache)
    timing: Dict[str, object] = {"op": "timing", "engine": args.engine, **timing_params(args)}
    if args.required is not None:
        timing["required"] = args.required
    if args.top_k is not None:
        timing["top_k"] = args.top_k
    requests = [timing]
    if args.incremental:
        requests = [timing, timing, {"op": "eco", "edits": [{"kind": "auto_swap"}]}, timing]
    report: Dict[str, object] = {
        "settings": args.settings,
        "workers": args.workers,
        "executor": executor.describe(),
        "designs": {},
    }
    total_start = time.perf_counter()
    for spec in args.sta:
        exchanges: List[Dict[str, object]] = []
        for request in [{"op": "open_session", "design": {"generate": spec}}, *requests]:
            if exchanges:
                request = {**request, "session": exchanges[0]["reply"]["session"]}
            reply = service.handle(request)
            if not reply["ok"]:
                print(f"{spec}: {reply['code']}: {reply['error']}")
                return 2 if reply["code"] in ("bad-request", "not-found") else 1
            if exchanges:
                print(f"{spec} ({exchanges[0]['reply']['gates']} gates) {_summary(reply)}")
            exchanges.append({"request": request, "reply": reply})
        report["designs"][spec] = exchanges
    report["total_seconds"] = round(time.perf_counter() - total_start, 4)
    return _finish(args, report, cache)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.cli",
        description="Run paper-figure sets or STA runs on the parallel runtime.",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=["all"],
        help="figure names (fig3 fig4 fig5 fig9 fig10 fig11 fig12, plus the "
        "'sta' engine-scale sweep) — 'all' runs the paper figures only",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker count; 1 means serial execution (default)",
    )
    parser.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="pool flavour when --workers > 1 (default: process)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (created if missing)",
    )
    parser.add_argument(
        "--settings",
        choices=("quick", "paper"),
        default="quick",
        help="characterization/time-step resolution (default: quick)",
    )
    parser.add_argument(
        "--serve",
        type=Path,
        default=None,
        metavar="SOCKET",
        help="start the timing server on SOCKET instead of running figures "
        "(shorthand for 'python -m repro.runtime.server start --socket "
        "SOCKET', honouring --cache/--workers/--settings)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write a machine-readable timing/cache report",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-figure result summaries"
    )
    parser.add_argument(
        "--sta",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="timing-engine mode: synthetic netlist specs "
        "(chain:inv:64, tree:4:2, dag:w16:d8:s42) instead of figures",
    )
    parser.add_argument(
        "--engine",
        choices=("csm", "nldm", "hybrid"),
        default="csm",
        help="--sta mode: the timing engine; 'hybrid' is the "
        "criticality-adaptive NLDM+CSM engine (see --required/--top-k) "
        "(default: csm)",
    )
    parser.add_argument(
        "--required",
        type=float,
        default=None,
        metavar="T",
        help="--engine hybrid: required time (seconds) for the slack ranking; "
        "omitted means rank endpoints by latest arrival",
    )
    parser.add_argument(
        "--top-k",
        type=_top_k,
        default=None,
        metavar="K",
        help="--engine hybrid: number of critical endpoints to refine with CSM "
        "per iteration — an integer, 0 (pure NLDM) or 'all' (full CSM) "
        "(default: the engine's, 1)",
    )
    add_timing_arguments(parser)
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="--sta mode: time, repeat warm, apply one ECO cell swap "
        "(eco auto_swap) and time again",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

    if args.serve is not None:
        from .server.__main__ import main as server_main

        server_argv = ["start", "--socket", str(args.serve),
                       "--workers", str(max(args.workers, 1)),
                       "--settings", args.settings]
        if args.cache is not None:
            server_argv += ["--cache", str(args.cache)]
        return server_main(server_argv)

    if args.sta is not None:
        return _run_sta(args)

    _load_figures()
    # 'all' means the paper-figure set; the STA scale sweep and the corner
    # sweep are opt-in (slow, and both have their own --sta modes).
    all_names = [name for name in FIGURES if name not in ("sta", "corners")]
    names = all_names if args.figures == ["all"] else args.figures
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figures {unknown}; available: {sorted(FIGURES)}")

    executor = default_executor(args.workers, args.executor)
    cache = PackedStore(args.cache) if args.cache is not None else None
    context = build_context(args.settings, executor=executor, cache=cache)

    kinds = tuple(dict.fromkeys(k for name in names for k in MODEL_KINDS[name]))
    report: Dict[str, object] = {
        "settings": args.settings,
        "workers": args.workers,
        "executor": executor.describe(),
        "figures": {},
    }

    total_start = time.perf_counter()
    if kinds:
        start = time.perf_counter()
        executed = context.prewarm_characterizations(kinds)
        elapsed = time.perf_counter() - start
        print(
            f"characterization: {len(kinds)} model(s) ready in {elapsed:.3f} s "
            f"({executed} executed, {len(kinds) - executed} from cache)"
        )
        report["characterization"] = {
            "kinds": list(kinds),
            "seconds": round(elapsed, 4),
            "executed": executed,
        }

    for name in names:
        start = time.perf_counter()
        result = FIGURES[name](context)
        elapsed = time.perf_counter() - start
        report["figures"][name] = round(elapsed, 4)
        print(f"{name}: {elapsed:.3f} s")
        if not args.quiet and hasattr(result, "summary"):
            print(result.summary())
    report["total_seconds"] = round(time.perf_counter() - total_start, 4)
    return _finish(args, report, cache)


if __name__ == "__main__":
    sys.exit(main())
