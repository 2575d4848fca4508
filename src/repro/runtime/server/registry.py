"""Design/session registry and the transport-free timing service core.

:class:`TimingService` is the whole server minus I/O: it owns the model
library, the shared packed result store, the design registry and
the sessions, and exposes one synchronous ``handle(request) -> response``
dispatch that the asyncio daemon calls from its worker pool.  Keeping the
core synchronous and transport-free is what makes it directly testable —
the concurrent-session integration tests drive it with plain threads.

Session model
-------------
Designs are registered once per content fingerprint
(:func:`repro.sta.netlist.netlist_fingerprint`); each session gets a
*private* :class:`~repro.sta.netlist.GateNetlist` copy plus lazily created
per-session engines.  ECO edits mutate only the session's copy — two
sessions editing "the same" design never conflict structurally, while the
content-addressed propagation keys still share every identical sub-cone
between them through the common store.  A per-session lock serializes that
session's requests; different sessions run concurrently, bounded by the
daemon's worker pool.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...csm.base import SimulationOptions
from ...exceptions import TimingError
from ...experiments.common import settings_context
from ...sta.engine import CornerSet, CSMEngine, NLDMEngine, TimingEngine
from ...sta.events import TimingEvent
from ...sta.hybrid import HybridEngine
from ...sta.generate import (
    default_time_window,
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
)
from ...sta.models import TimingModelLibrary
from ...sta.netlist import NETLIST_DIGEST_SALT, GateNetlist, eco_swap_candidate
from ...waveform import Waveform
from ..jobs import content_hash
from .protocol import PROTOCOL_VERSION, ServerError, encode_waveform, error_response, ok_response
from .scheduler import SingleFlight, SingleFlightStore

__all__ = ["DesignRecord", "Session", "TimingService"]


def _arrivals(
    result: Any, nets: List[str], memo: Optional[Dict[str, Optional[float]]] = None
) -> Dict[str, Optional[float]]:
    """Each net's arrival as a float, or ``None`` where ``result`` has none
    (the net is stable, unpropagated or never crosses 50 % of Vdd).

    With a ``memo`` (content key -> arrival) and a result that names its
    nets' keys, a net whose key the memo holds is not scanned for
    crossings, and every scanned net's arrival joins the memo: equal keys
    name bitwise-equal waveforms, so the memoized arrival is the scan's.
    """
    keys = result.keys if memo is not None else None
    arrivals: Dict[str, Optional[float]] = {}
    for net in nets:
        key = keys.get(net) if keys else None
        if key is not None and key in memo:
            arrivals[net] = memo[key]
            continue
        arrivals[net] = _float_or_none(result.arrival, net)
        if key is not None:
            memo[key] = arrivals[net]
    return arrivals


def _float_or_none(read, net: str) -> Optional[float]:
    """``read(net)`` as a float, ``None`` where it raises a TimingError."""
    try:
        return float(read(net))
    except TimingError:
        return None


@dataclass
class DesignRecord:
    """One registered design revision, addressed by content fingerprint."""

    design_id: str
    name: str
    gates: int
    payload: Dict[str, Any]  # canonical GateNetlist.to_dict()
    registered_at: float
    sessions_opened: int = 0


@dataclass
class Session:
    """One client's private view of a design: mutable netlist + engines."""

    session_id: str
    design_id: str
    netlist: GateNetlist
    created_at: float
    lock: threading.RLock = field(default_factory=threading.RLock)
    engines: Dict[str, TimingEngine] = field(default_factory=dict)
    requests: int = 0
    eco_edits: int = 0
    #: Last time a request addressed this session (the idle-reaper clock;
    #: same ``time.time()`` timeline the store's age policies ride).
    last_used: float = 0.0
    #: ``((primary inputs, seed, window), stimuli)`` of the latest timing
    #: request: frozen waveforms built once and passed as the very same
    #: objects, so the engines reuse their carried stimulus keys.
    stimuli: Optional[Tuple[Tuple[Any, ...], Dict[str, Waveform]]] = None
    #: Content key -> arrival of every endpoint waveform a single-corner CSM
    #: reply of this session reported (see :func:`_arrivals`): one float
    #: per distinct endpoint waveform, where the session's engines memoize
    #: one waveform per distinct instance output.
    arrivals: Dict[str, Optional[float]] = field(default_factory=dict)


class TimingService:
    """The synchronous server core: registry + scheduling + engines.

    Parameters
    ----------
    models:
        The :class:`TimingModelLibrary` every session's engines take their
        models from; :func:`~repro.runtime.server.daemon.build_service`
        passes its ``--settings`` profile's
        (:func:`repro.experiments.settings_context`).  Defaults to the
        ``quick`` profile's, the profile ``options`` defaults to as well.
        A library without a store is given ``store``.
    store:
        The shared result store, a :class:`~repro.runtime.store.PackedStore`
        whose one handle serves every worker thread.  Wrapped in a
        :class:`SingleFlightStore` so overlapping in-flight keys dedupe
        across sessions.  ``None`` runs uncached.
    options:
        CSM simulation options; defaults to the model step of the ``quick``
        settings profile (:func:`repro.experiments.settings_context`), the
        CLI's and the server's default ``--settings``.
    session_ttl_s:
        Idle-session time-to-live in seconds.  Sessions untouched for longer
        than this are reaped at the next request dispatch (``status`` reports
        the count); ``None`` (the default) keeps sessions forever.
    """

    def __init__(
        self,
        models: Optional[TimingModelLibrary] = None,
        options: Optional[SimulationOptions] = None,
        store=None,
        dedupe_wait_timeout: float = 60.0,
        session_ttl_s: Optional[float] = None,
    ):
        quick = settings_context("quick") if models is None or options is None else None
        self.models = models if models is not None else quick.models
        self.library = self.models.library
        self.store = (
            SingleFlightStore(store, wait_timeout=dedupe_wait_timeout)
            if store is not None
            else None
        )
        if self.models.cache is None and self.store is not None:
            self.models.cache = self.store
        self.options = options or quick.model_options()
        self.session_ttl_s = session_ttl_s
        self.flight = SingleFlight()
        self.started_at = time.time()
        self._lock = threading.RLock()
        self._designs: Dict[str, DesignRecord] = {}
        self._sessions: Dict[str, Session] = {}
        self._session_counter = itertools.count(1)
        self._corner_sets: Dict[Tuple[str, ...], CornerSet] = {}
        self.requests_total = 0
        self.timing_requests = 0
        self.eco_requests = 0
        self.errors = 0
        self.sessions_reaped = 0
        self._ops = {
            "ping": self.ping,
            "status": self.status,
            "open_session": self.open_session,
            "close_session": self.close_session,
            "timing": self.timing,
            "eco": self.eco,
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """One request in, one response out; failures become error frames."""
        self._reap_idle()
        op = request.get("op")
        handler = self._ops.get(op)
        with self._lock:
            self.requests_total += 1
        if handler is None:
            with self._lock:
                self.errors += 1
            return error_response(f"unknown op {op!r}", "bad-request")
        params = {key: value for key, value in request.items() if key != "op"}
        try:
            response = ok_response(**handler(**params))
            # Touch the session again on completion so a request that
            # computes longer than the TTL does not leave its own session
            # instantly reapable.
            self._touch(request.get("session"))
            return response
        except ServerError as exc:
            with self._lock:
                self.errors += 1
            return error_response(str(exc), exc.code)
        except (TimingError, KeyError, TypeError, ValueError) as exc:
            with self._lock:
                self.errors += 1
            return error_response(f"{type(exc).__name__}: {exc}", "bad-request")
        except Exception as exc:  # pragma: no cover - defensive
            with self._lock:
                self.errors += 1
            return error_response(f"{type(exc).__name__}: {exc}", "internal")

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return {"pong": True, "pid": os.getpid(), "protocol": PROTOCOL_VERSION}

    def open_session(
        self, design: Mapping[str, Any], session_name: Optional[str] = None
    ) -> Dict[str, Any]:
        record = self._resolve_design(design)
        with self._lock:
            number = next(self._session_counter)
            session_id = session_name or f"s{number:04d}"
            if session_id in self._sessions:
                raise ServerError(
                    f"session {session_id!r} already open", "conflict"
                )
            netlist = GateNetlist.from_dict(self.library, record.payload)
            now = time.time()
            session = Session(
                session_id=session_id,
                design_id=record.design_id,
                netlist=netlist,
                created_at=now,
                last_used=now,
            )
            self._sessions[session_id] = session
            record.sessions_opened += 1
        return {
            "session": session_id,
            "design": record.design_id,
            "gates": record.gates,
            "name": record.name,
        }

    def close_session(self, session: str) -> Dict[str, Any]:
        with self._lock:
            record = self._sessions.pop(session, None)
        if record is None:
            raise ServerError(f"no such session {session!r}", "not-found")
        return {"closed": session, "requests": record.requests}

    def timing(
        self,
        session: str,
        engine: str = "csm",
        seed: int = 0,
        t_stop: Optional[float] = None,
        events: Optional[Mapping[str, Any]] = None,
        nets: Optional[List[str]] = None,
        return_waveforms: bool = False,
        corners: Optional[List[str]] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
        required: Optional[Any] = None,
        top_k: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """One timing run, single-flighted across sessions by content key.

        Every reply carries ``engine``, ``t_stop`` (the CSM window; ``None``
        for NLDM), ``arrivals`` of ``nets`` (default: the primary outputs;
        ``None`` where a net never switches) and ``stats``.  With
        ``corners`` each named corner runs as its own single-corner run:
        ``arrivals`` and ``stats`` become per-corner maps, next to
        ``corners`` and ``worst_arrivals`` (per net ``[corner, arrival]`` of
        the latest corner, ``None`` if it never switches).  Then
        each engine adds its own fields: NLDM ``slews``; ``engine="hybrid"``
        (NLDM+CSM, ranked by ``required`` and ``top_k``) ``exact``,
        ``slacks``, ``csm_fraction`` and ``iterations``; a single-corner CSM
        or hybrid run ``waveforms`` when ``return_waveforms`` asks.
        ``memory_mode="stream"`` spills retired levels to the server's store
        (spill/fault counts in the stats and ``status``); NLDM serves both
        memory modes with one engine, bitwise alike.
        """
        if memory_mode not in ("resident", "stream"):
            raise ServerError(
                f"unknown memory_mode {memory_mode!r} (use 'resident' or 'stream')",
                "bad-request",
            )
        if corners is not None and not corners:
            raise ServerError("'corners' names no corner", "bad-request")
        if (required is not None or top_k is not None) and engine != "hybrid":
            raise ServerError(
                "'required'/'top_k' only apply to engine='hybrid'",
                "bad-request",
            )
        if engine == "hybrid":
            if corners:
                raise ServerError(
                    "engine='hybrid' is single-corner; submit corners one at "
                    "a time",
                    "bad-request",
                )
            if memory_mode == "stream":
                raise ServerError(
                    "engine='hybrid' does not support memory_mode='stream'",
                    "bad-request",
                )
        if memory_mode == "stream" and engine != "nldm" and self.store is None:
            raise ServerError(
                "memory_mode='stream' needs a result store (--cache DIR): "
                "retired levels spill there",
                "bad-request",
            )
        record = self._session(session)
        start = time.perf_counter()
        corner_names = (
            tuple(str(name).strip().upper() for name in corners) if corners else None
        )
        with self._lock:
            self.timing_requests += 1
        with record.lock:
            record.requests += 1
        settings = self._settings_token()
        while True:
            # The key names the revision it was read from; ``compute`` times
            # under a second acquisition of the session lock, so an ECO that
            # lands in between makes the key stale.  The leader then times
            # nothing and every caller on the stale key (followers included)
            # re-keys against the edited netlist.
            with record.lock:
                design_digest = record.netlist.content_digest(NETLIST_DIGEST_SALT)
                revision = record.netlist.revision
            request_key = content_hash(
                "server-timing",
                engine,
                design_digest,
                seed,
                t_stop,
                sorted(events.items()) if events else None,
                sorted(nets) if nets else None,
                bool(return_waveforms),
                list(corner_names) if corner_names else None,
                settings,
                memory_mode,
                memory_budget_bytes,
                sorted(required.items()) if isinstance(required, Mapping) else required,
                top_k,
            )

            def compute() -> Optional[Dict[str, Any]]:
                with record.lock:
                    if record.netlist.revision != revision:
                        return None
                    return self._timing_locked(
                        record,
                        engine,
                        seed,
                        t_stop,
                        events,
                        nets,
                        return_waveforms,
                        corner_names,
                        memory_mode,
                        memory_budget_bytes,
                        required,
                        top_k,
                    )

            payload, coalesced = self.flight.execute(request_key, compute)
            if payload is not None:
                break
        response = dict(payload)
        response["coalesced"] = coalesced
        response["revision"] = revision
        response["design_fingerprint"] = design_digest
        response["latency_ms"] = (time.perf_counter() - start) * 1e3
        return response

    def eco(self, session: str, edits: List[Mapping[str, Any]]) -> Dict[str, Any]:
        """Apply ECO edits to the session's private netlist copy.

        A request is atomic: when an edit is rejected (an unknown instance
        or cell, a rewire that would leave a pin undriven or close a loop,
        no swap candidate) the request's earlier edits are undone through
        the same edit methods before the error is returned, so the session
        keeps timing the design it had.  The edit methods accept the
        inverse of every edit they applied; should an undo fail anyway,
        the other undos still run and the rejected edit's error is the one
        returned.
        """
        record = self._session(session)
        with self._lock:
            self.eco_requests += 1
        applied: List[Dict[str, Any]] = []
        with record.lock:
            record.requests += 1
            netlist = record.netlist
            undo: List[Tuple[Any, ...]] = []
            try:
                for edit in edits:
                    applied.append(self._apply_edit(netlist, edit, undo))
            except BaseException:
                for method, *args in reversed(undo):
                    try:
                        method(*args)
                    except Exception:
                        pass
                raise
            record.eco_edits += len(applied)
            return {
                "applied": applied,
                "revision": netlist.revision,
                "design_fingerprint": netlist.content_digest(NETLIST_DIGEST_SALT),
            }

    @staticmethod
    def _apply_edit(
        netlist: GateNetlist, edit: Mapping[str, Any], undo: List[Tuple[Any, ...]]
    ) -> Dict[str, Any]:
        """Apply one edit, append its inverse to ``undo`` and describe it.

        Every edit kind reports the same ``affected``: the size of the union
        of the pre- and post-edit affected regions (what an incremental
        re-timing may re-integrate).
        """
        kind = edit.get("kind")
        if kind in ("swap_cell", "auto_swap"):
            if kind == "auto_swap":
                candidate = eco_swap_candidate(netlist)
                if candidate is None:
                    raise ServerError(
                        "no pin-compatible swap candidate in design", "not-found"
                    )
                _, instance_name, cell = candidate
            else:
                instance_name, cell = edit["instance"], edit["cell"]
            before = netlist.affected_region(instance_name)
            previous = netlist.instances[instance_name].cell_name
            netlist.swap_cell(instance_name, cell)
            undo.append((netlist.swap_cell, instance_name, previous))
            after = netlist.affected_region(instance_name)
            return {
                "kind": "swap_cell",
                "instance": instance_name,
                "cell": cell,
                "swapped_from": previous,
                "affected": len(set(before) | set(after)),
            }
        if kind == "rewire_pin":
            instance_name, pin = edit["instance"], edit["pin"]
            before = netlist.affected_region(instance_name)
            previous = netlist.instances[instance_name].connections.get(pin)
            netlist.rewire_pin(instance_name, pin, edit["net"])
            undo.append((netlist.rewire_pin, instance_name, pin, previous))
            after = netlist.affected_region(instance_name)
            return {
                "kind": kind,
                "instance": instance_name,
                "pin": pin,
                "net": edit["net"],
                "affected": len(set(before) | set(after)),
            }
        raise ServerError(f"unknown edit kind {kind!r}", "bad-request")

    def status(self) -> Dict[str, Any]:
        with self._lock:
            designs = {
                design_id: {
                    "name": record.name,
                    "gates": record.gates,
                    "sessions_opened": record.sessions_opened,
                }
                for design_id, record in self._designs.items()
            }
            sessions = {}
            for session_id, record in self._sessions.items():
                sessions[session_id] = {
                    "design": record.design_id,
                    "revision": record.netlist.revision,
                    "requests": record.requests,
                    "eco_edits": record.eco_edits,
                    # Streaming-mode accounting, summed across the session's
                    # engines (always present; zero for resident-only use).
                    "spills": sum(
                        engine.total_stats.get("spills", 0)
                        for engine in record.engines.values()
                    ),
                    "faults": sum(
                        engine.total_stats.get("faults", 0)
                        for engine in record.engines.values()
                    ),
                    "engines": {
                        kind: engine.stats_summary()
                        for kind, engine in record.engines.items()
                    },
                }
            counters = {
                "requests_total": self.requests_total,
                "timing_requests": self.timing_requests,
                "eco_requests": self.eco_requests,
                "errors": self.errors,
                "sessions_reaped": self.sessions_reaped,
            }
        store_report = None
        dedupe = None
        if self.store is not None:
            store_report = self.store.inner.report()
            dedupe = self.store.dedupe_stats()
        return {
            "uptime_s": time.time() - self.started_at,
            "protocol": PROTOCOL_VERSION,
            "session_ttl_s": self.session_ttl_s,
            "designs": designs,
            "sessions": sessions,
            "counters": counters,
            "single_flight": self.flight.stats(),
            "store_dedupe": dedupe,
            "store": store_report,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch(self, session_id: Any) -> None:
        """Refresh a session's idle clock (no-op for unknown/absent ids)."""
        if not isinstance(session_id, str):
            return
        with self._lock:
            record = self._sessions.get(session_id)
            if record is not None:
                record.last_used = time.time()

    def _session(self, session_id: str) -> Session:
        with self._lock:
            record = self._sessions.get(session_id)
            if record is not None:
                record.last_used = time.time()
        if record is None:
            raise ServerError(f"no such session {session_id!r}", "not-found")
        return record

    def _reap_idle(self) -> int:
        """Drop sessions idle past :attr:`session_ttl_s` (no-op when unset).

        Runs at every request dispatch, so the reaper needs no timer thread;
        a request already holding its :class:`Session` object completes
        normally even if the session is reaped underneath it (only the
        registry entry goes away).  Returns the number of sessions reaped.
        """
        ttl = self.session_ttl_s
        if ttl is None:
            return 0
        cutoff = time.time() - ttl
        reaped = 0
        with self._lock:
            for session_id in [
                session_id
                for session_id, record in self._sessions.items()
                if record.last_used < cutoff
            ]:
                del self._sessions[session_id]
                reaped += 1
            self.sessions_reaped += reaped
        return reaped

    def _resolve_design(self, design: Mapping[str, Any]) -> DesignRecord:
        if "generate" in design:
            netlist = generate_netlist(self.library, str(design["generate"]))
        elif "netlist" in design:
            netlist = GateNetlist.from_dict(self.library, design["netlist"])
        else:
            raise ServerError(
                "design must carry 'generate' (a spec string) or 'netlist'",
                "bad-request",
            )
        netlist.validate()
        design_id = netlist.content_digest("server-design")
        with self._lock:
            record = self._designs.get(design_id)
            if record is None:
                record = DesignRecord(
                    design_id=design_id,
                    name=netlist.name,
                    gates=len(netlist.instances),
                    payload=netlist.to_dict(),
                    registered_at=time.time(),
                )
                self._designs[design_id] = record
        return record

    def _settings_token(self) -> str:
        return content_hash(
            "server-settings",
            self.options,
            self.models.config,
            self.models.use_internal_node,
        )

    def _corner_set(self, corner_names: Tuple[str, ...]) -> CornerSet:
        """The service-wide corner set for these names (built once; corner
        libraries characterize through the shared store)."""
        with self._lock:
            corner_set = self._corner_sets.get(corner_names)
        if corner_set is None:
            corner_set = CornerSet.from_names(
                list(corner_names),
                technology=self.library.technology,
                config=self.models.config,
                executor=self.models.executor,
                cache=self.store,
                use_internal_node=self.models.use_internal_node,
            )
            with self._lock:
                corner_set = self._corner_sets.setdefault(corner_names, corner_set)
        return corner_set

    def _engine(
        self,
        record: Session,
        kind: str,
        corner_names: Optional[Tuple[str, ...]] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
    ) -> TimingEngine:
        """The session's engine of this kind (created lazily, rebound on use).

        Multi-corner engines key separately per corner list (``"csm@TT,FF"``)
        so a session can interleave single- and multi-corner requests without
        rebuilding engines; streaming CSM engines key separately per budget
        (``"csm#stream:33554432"``; an unbounded frontier is
        ``"csm#stream:None"``, distinct from a zero budget) for the same
        reason.  The NLDM engine has no memory mode: one engine per corner
        list serves both.  Must hold the session lock.
        """
        engine_key = kind if not corner_names else f"{kind}@{','.join(corner_names)}"
        if memory_mode == "stream" and kind != "nldm":
            engine_key += f"#stream:{memory_budget_bytes}"
        engine = record.engines.get(engine_key)
        if engine is None:
            corner_set = self._corner_set(corner_names) if corner_names else None
            if kind == "csm":
                engine = CSMEngine(
                    record.netlist,
                    self.models,
                    options=self.options,
                    cache=self.store,
                    corners=corner_set,
                    memory_mode=memory_mode,
                    memory_budget_bytes=memory_budget_bytes,
                )
            elif kind == "nldm":
                engine = NLDMEngine(record.netlist, self.models, corners=corner_set)
            elif kind == "hybrid":
                engine = HybridEngine(
                    record.netlist,
                    self.models,
                    options=self.options,
                    cache=self.store,
                )
            else:
                raise ServerError(
                    f"unknown engine kind {kind!r} (use 'csm', 'nldm' or 'hybrid')",
                    "bad-request",
                )
            record.engines[engine_key] = engine
        engine.rebind(record.netlist)
        return engine

    @staticmethod
    def _stimuli(record: Session, window: float, seed: Any) -> Dict[str, Waveform]:
        """The session's primary-input stimuli for ``(seed, window)``.

        Built once per primary-input list, seed and window, with read-only
        arrays, and handed to every engine as the same objects: the engines
        then reuse their carried stimulus keys instead of rehashing them.
        Must hold the session lock.
        """
        netlist = record.netlist
        key = (tuple(netlist.primary_inputs), int(seed), window)
        if record.stimuli is None or record.stimuli[0] != key:
            waveforms = primary_input_waveforms(netlist, t_stop=window, seed=int(seed))
            for wave in waveforms.values():
                wave.times.setflags(write=False)
                wave.values.setflags(write=False)
            record.stimuli = (key, waveforms)
        return record.stimuli[1]

    @staticmethod
    def _input_events(
        netlist: GateNetlist, events: Optional[Mapping[str, Any]], seed: Any
    ) -> Dict[str, TimingEvent]:
        """An NLDM request's primary-input events: the request's ``events``
        (``net -> {arrival, slew, rising}``) when given, else seeded ones."""
        if not events:
            return primary_input_events(netlist, seed=int(seed))
        return {
            net: TimingEvent(
                net=net,
                arrival=float(fields["arrival"]),
                slew=float(fields["slew"]),
                rising=bool(fields["rising"]),
            )
            for net, fields in events.items()
        }

    def _timing_locked(
        self,
        record: Session,
        engine_kind: str,
        seed: int,
        t_stop: Optional[float],
        events: Optional[Mapping[str, Any]],
        nets: Optional[List[str]],
        return_waveforms: bool,
        corner_names: Optional[Tuple[str, ...]] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
        required: Optional[Any] = None,
        top_k: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """One engine run and its reply (see :meth:`timing`): the arrivals
        every result answers, then the engine's own fields.  Must hold the
        session lock."""
        engine = self._engine(
            record, engine_kind, corner_names, memory_mode, memory_budget_bytes
        )
        netlist = record.netlist
        report_nets = list(nets) if nets else list(netlist.primary_outputs)
        window: Optional[float] = None
        if engine_kind == "nldm":
            result = engine.run(self._input_events(netlist, events, seed))
        else:
            window = float(t_stop) if t_stop else default_time_window(netlist)
            tuning = {"required": required, "top_k": top_k}
            result = engine.run(
                self._stimuli(record, window, seed),
                t_stop=window,
                **{name: value for name, value in tuning.items() if value is not None},
            )
        payload: Dict[str, Any] = {"engine": engine_kind, "t_stop": window}
        if corner_names:
            payload["corners"] = list(result.corner_order)
            payload["arrivals"] = {
                name: _arrivals(result.result(name), report_nets)
                for name in result.corner_order
            }
            payload["worst_arrivals"] = {
                net: (list(entry) if entry is not None else None)
                for net, entry in result.worst_arrivals(report_nets).items()
            }
        else:
            memo = record.arrivals if engine_kind == "csm" else None
            payload["arrivals"] = _arrivals(result, report_nets, memo)
        payload["stats"] = result.stats
        if engine_kind == "nldm" and not corner_names:
            payload["slews"] = {
                net: _float_or_none(result.slew, net) for net in report_nets
            }
        if engine_kind == "hybrid":
            payload["exact"] = {net: result.is_exact(net) for net in report_nets}
            payload["slacks"] = {
                net: (list(entry) if entry is not None else None)
                for net, entry in result.endpoint_slacks.items()
            }
            payload["csm_fraction"] = result.csm_fraction
            payload["iterations"] = result.iterations
        if return_waveforms and engine_kind != "nldm" and not corner_names:
            payload["waveforms"] = {
                net: encode_waveform(
                    result.waveforms[net].times, result.waveforms[net].values
                )
                for net in report_nets
                if net in result.waveforms
            }
        return payload
