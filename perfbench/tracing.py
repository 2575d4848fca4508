"""Span tracing installed from outside the timing stack.

The benchmark times calls into each layer's public entry points by
rebinding those names to thin wrappers while a traced op runs, and restoring
the originals afterwards.  Nothing in ``src/`` knows about it.  A name that a
module brings in with ``from ... import`` is looked up in the importing
module at call time, so it is wrapped there (``repro.sta.engine.
integrate_model_many``), not only where it is defined.

Spans are kept in memory as tuples and written out once, at the end, as
Chrome trace events (Perfetto opens them offline).  Each span records its
layer name, start, end, the span that caused it (same thread), the op it
belongs to and an optional work count (rows, units, ...).  A layer's self
time is its duration minus the time its child spans cover; ``other_s`` is an
op's wall time minus the self time of every span in it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LAYERS", "layer_table"]

#: (span name, module path, attribute path, work counter or None).  The
#: counter maps the call's (args, kwargs, result) to a number of work items.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable[..., float]]], ...] = (
    (
        "lut.table.contract",
        "repro.csm.simulate",
        "contract_leading_spans",
        lambda args, kwargs, result: len(args[1]),
    ),
    (
        "lut.table.contract",
        "repro.csm.simulate",
        "contract_leading_shared",
        lambda args, kwargs, result: len(args[1]),
    ),
    (
        "csm.simulate.integrate",
        "repro.sta.engine",
        "integrate_model_many",
        lambda args, kwargs, result: len(args[0]),
    ),
    (
        "csm.dc.settle",
        "repro.sta.engine",
        "settle_units",
        lambda args, kwargs, result: len(args[0]),
    ),
    ("runtime.jobs.hash", "repro.sta.engine", "content_hash", None),
    ("runtime.jobs.hash", "repro.runtime.server.registry", "content_hash", None),
    (
        "runtime.store.lookup",
        "repro.runtime.store",
        "PackedStore.lookup",
        lambda args, kwargs, result: 1.0 if result[0] else 0.0,
    ),
    ("runtime.store.write", "repro.runtime.store", "PackedStore.store", None),
    ("runtime.store.write", "repro.runtime.store", "PackedStore.store_many", None),
    (
        "runtime.store.page_release",
        "repro.runtime.store",
        "PackedStore.release_record_pages",
        None,
    ),
    ("sta.netlist.edit", "repro.sta.netlist", "GateNetlist.swap_cell", None),
    ("sta.netlist.edit", "repro.sta.netlist", "GateNetlist.rewire_pin", None),
    ("sta.netlist.edit", "repro.sta.netlist", "GateNetlist.affected_region", None),
    # ``TimingService`` binds its verbs (``timing``, ``eco``) into a dispatch
    # table at construction, so a class-level rebind of the verbs would miss
    # a running server; ``handle`` is the same boundary one call further out.
    ("runtime.server.handler", "repro.runtime.server.registry", "TimingService.handle", None),
    ("sta.engine.run", "repro.sta.engine", "TimingEngine.run", None),
    (
        "characterization.prewarm",
        "repro.sta.models",
        "TimingModelLibrary.prewarm_for_netlist",
        None,
    ),
)


def _resolve(module_path: str, attr_path: str) -> Tuple[Any, str]:
    """The object owning the attribute and the attribute's final name."""
    owner: Any = importlib.import_module(module_path)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _engine_label(args, kwargs) -> str:
    """``sta.engine.run`` spans carry the engine class and restriction."""
    engine = args[0]
    restricted = kwargs.get("only") is not None
    return f"sta.engine.run[{type(engine).__name__}{',only' if restricted else ''}]"


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers.

    ``op`` names the op that spans are attributed to; the benchmark sets it
    before each op.  Server worker threads read it too, which is sound
    because the benchmark's client is a closed loop: one request in flight.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple] = []  # (id, parent, name, t0, t1, child_ns, op, tid, count)
        self.op = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------
    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        tracer = self
        labelled = name == "sta.engine.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]  # [id, child ns]
            stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                count = counter(args, kwargs, result) if counter and result is not None else None
                tracer.spans.append(
                    (
                        span_id,
                        parent,
                        _engine_label(args, kwargs) if labelled else name,
                        start,
                        end,
                        frame[1],
                        tracer.op,
                        threading.get_ident(),
                        count,
                    )
                )

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for name, module_path, attr_path, counter in LAYERS:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------
    def op_layers(self, op: str) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy s, self s and summed work count."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0.0}
        )
        for _, _, name, start, end, child_ns, span_op, _, count in self.spans:
            if span_op != op:
                continue
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns) * 1e-9
            if count is not None:
                row["count"] += count
        return dict(table)

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Spans as Chrome trace-event ``X`` records (microseconds)."""
        if not self.spans:
            return []
        origin = min(span[3] for span in self.spans)
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "op": op, "count": count},
            }
            for span_id, parent, name, start, end, _, op, tid, count in self.spans
        ]


def layer_table(per_op: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Mean over traced ops of each span name's calls/busy/self/count."""
    names = sorted({name for layers in per_op for name in layers})
    table = {}
    for name in names:
        rows = [layers.get(name) for layers in per_op]
        table[name] = {
            key: sum(row[key] for row in rows if row) / len(per_op)
            for key in ("calls", "busy_s", "self_s", "count")
        }
    return table
