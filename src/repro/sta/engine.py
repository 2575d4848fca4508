"""The unified, levelized timing engines.

One :class:`TimingEngine` interface fronts both timing views of the paper:

* :class:`NLDMEngine` — the conventional voltage-based STA flow: (arrival,
  slew, direction) events looked up in pre-characterized delay/slew tables,
  worst arc propagated, MIS situations flagged but not modeled; cheap enough
  to recompute in full on every run, so it keeps no cache;
* :class:`CSMEngine` — the waveform-propagating engine built on the
  characterized current-source models, which switches to the cell's MIS model
  (complete MCSM or the baseline) when several inputs switch together.

Both engines walk the netlist in *levelized* order — topological generations
in which every instance's inputs are already resolved — instead of recursing
per instance.  For the waveform engine the level is the unit of batching: all
instances of a level are integrated in lockstep through
:func:`repro.csm.simulate.integrate_model_many` (one call of a compiled
step loop per state-grid group, regardless of cell type), which is what makes
full-design waveform propagation tractable at hundreds to thousands of gates.
``batched=False`` swaps only the level evaluator for the per-instance
reference oracle (one ``model.simulate`` per instance); the walk, its keys,
level records and retention are the same.  A row's waveform depends only on
its own model, load and input waveforms, never on which rows share its
batch, so both evaluators, an ``only=`` cone and each corner of a
``corners=`` run give bitwise the same waveform for the same inputs.

The level loop is the one way a design is propagated: independent components
share its levels, and a ``corners=`` request (a
:class:`~repro.sta.mmmc.CornerSet`) becomes one ordinary single-corner run
per corner in :meth:`TimingEngine._run_corners`, the only code that splits a
request into per-corner runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping as AbstractMapping
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..characterization.nldm import NLDMTable
from ..csm.base import SimulationOptions
from ..csm.dc import settle_key, settle_units
from ..csm.loads import CapacitiveLoad, Load, ReceiverLoad
from ..csm.models import MCSM, BaselineMISCSM, SISCSM
from ..csm.simulate import BatchUnit, integrate_model_many, simulation_time_grid
from ..exceptions import TimingError
from ..runtime.store import PackedStore
from ..runtime.jobs import content_hash
from ..waveform.level_tensor import LevelTensor
from ..waveform.metrics import crossing_times
from ..waveform.waveform import Waveform
from .events import TimingEvent, detect_mis_pairs
from .mmmc import CornerContext, CornerSet, MulticornerResult
from .models import TimingModelLibrary
from .netlist import (
    GateInstance,
    GateNetlist,
    NetConnectivity,
)

__all__ = [
    "TimingEngine",
    "create_engine",
    "PropagationStats",
    "WaveformTimingResult",
    "CSMEngine",
    "NLDMTimingResult",
    "NLDMEngine",
    "CornerSet",
    "MulticornerResult",
    "waveform_deviation",
]

#: A net is considered switching when its waveform spans more than this
#: fraction of Vdd.
SWITCHING_THRESHOLD_FRACTION = 0.4


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class PropagationStats:
    """Work and cache accounting of one engine run (CSM waveforms or NLDM
    events).  The NLDM engine keeps no cache, so of the cache fields it only
    ever reports zeros.

    Attributes
    ----------
    instances:
        Instances visited (the whole design, hits included).
    keyed:
        Instances whose plan and propagation key this run computed: every
        visited instance on a full walk, only the dirty region when a
        resident run starts from the state its predecessor carried.
    integrations:
        Instances actually evaluated — waveform integrations for the CSM
        engine, table-lookup event evaluations for the NLDM engine (every
        instance, every run).  For the CSM engine this is the number the
        incremental tests pin down: zero on a warm repeat, exactly the dirty
        fan-out cone after an edit.
    memo_hits / cache_hits:
        Waveforms served from the engine's in-memory memo respectively the
        content-addressed disk cache.
    duplicates:
        Same-level instances whose propagation key matched another instance
        of the level (identical cell, inputs and load): integrated once,
        shared.
    stores:
        Waveforms written to the disk cache.
    spills:
        Streaming mode only: waveform rows retired from RAM once every
        reader level consumed them (their bytes live on in the packed
        store's data file).
    faults:
        Streaming mode only: spilled level tensors transparently mapped back
        in (zero-copy memmap views) because a later level, an ECO or a
        report touched a retired net.
    clamped_lookups:
        NLDM only: evaluated arcs whose input slew or lumped load lies
        outside the table axes, so their delay and slew are the table
        edge's (clamped) values.
    """

    instances: int = 0
    keyed: int = 0
    integrations: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    stores: int = 0
    spills: int = 0
    faults: int = 0
    clamped_lookups: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {field.name: getattr(self, field.name) for field in fields(self)}


@dataclass
class WaveformTimingResult:
    """Per-net waveforms plus per-instance model-choice bookkeeping.

    ``waveforms`` is a read-only mapping.  A resident run's entries are
    private copies made on first access (:class:`_ResidentWaveforms`), so
    results are independent of each other and of the engine's memo; a
    streaming run hands back a lazy mapping (:class:`_SpilledWaveforms`)
    whose entries fault spilled levels back in as zero-copy memmap views on
    access — same interface, bounded memory.
    """

    waveforms: Mapping[str, Waveform]
    model_used: Dict[str, str]
    netlist_name: str
    vdd: float
    stats: Optional[Dict[str, int]] = None
    #: Net -> the content key its waveform is propagated (or, for a
    #: stimulus, hashed) under; ``None`` when the run kept no keys
    #: (``use_cache=False``).  Equal keys name bitwise-equal waveforms.
    keys: Optional[Dict[str, str]] = None

    def nets(self) -> List[str]:
        return list(self.waveforms)

    def waveform(self, net: str) -> Waveform:
        if net not in self.waveforms:
            raise TimingError(f"net {net!r} has no propagated waveform")
        return self.waveforms[net]

    def arrival(self, net: str, rising: Optional[bool] = None) -> float:
        """50 % crossing time of a net (last crossing in the given direction)."""
        if net not in self.waveforms:
            raise TimingError(f"net {net!r} has no propagated waveform")
        # Reading needs no private copy of the result's waveform.
        waveform = self.waveforms.shared(net)
        direction = "any" if rising is None else ("rise" if rising else "fall")
        crossings = crossing_times(waveform, 0.5 * self.vdd, direction)
        if not crossings:
            raise TimingError(f"net {net!r} never crosses 50% of Vdd")
        return crossings[-1]

    def path_delay(self, from_net: str, to_net: str) -> float:
        """Delay between the last 50 % crossings of two nets."""
        return self.arrival(to_net) - self.arrival(from_net)

    def report(self) -> str:
        lines = [f"Waveform (CSM) timing report for {self.netlist_name!r}"]
        for net, waveform in self.waveforms.items():
            crossings = crossing_times(waveform, 0.5 * self.vdd)
            arrival = f"{crossings[-1] * 1e12:9.2f} ps" if crossings else "   stable"
            lines.append(f"  net {net:<12} last 50% crossing {arrival}")
        for instance, model in self.model_used.items():
            lines.append(f"  instance {instance:<10} evaluated with {model}")
        return "\n".join(lines)


@dataclass
class NLDMTimingResult:
    """Per-net events plus bookkeeping produced by the NLDM engine."""

    events: Dict[str, TimingEvent]
    mis_flags: Dict[str, List[Tuple[str, str]]]
    netlist_name: str
    stats: Optional[Dict[str, int]] = None

    def nets(self) -> List[str]:
        return list(self.events)

    def arrival(self, net: str) -> float:
        if net not in self.events:
            raise TimingError(f"net {net!r} has no propagated event")
        return self.events[net].arrival

    def slew(self, net: str) -> float:
        if net not in self.events:
            raise TimingError(f"net {net!r} has no propagated event")
        return self.events[net].slew

    def instances_with_mis(self) -> List[str]:
        """Instances whose input timing windows overlap (potential MIS)."""
        return [name for name, pairs in self.mis_flags.items() if pairs]

    def report(self) -> str:
        lines = [f"NLDM timing report for {self.netlist_name!r}"]
        for net, event in sorted(self.events.items(), key=lambda item: item[1].arrival):
            direction = "rise" if event.rising else "fall"
            lines.append(
                f"  net {net:<12} arrival {event.arrival * 1e12:9.2f} ps  "
                f"slew {event.slew * 1e12:7.2f} ps  ({direction})"
            )
        flagged = self.instances_with_mis()
        if flagged:
            lines.append(f"  instances with overlapping input windows (potential MIS): {flagged}")
        return "\n".join(lines)


def waveform_deviation(
    candidate: WaveformTimingResult, reference: WaveformTimingResult
) -> float:
    """Maximum per-net |dV| between two timing results (over the reference's
    nets).  This is THE equivalence metric between the lockstep and oracle
    evaluators — the experiment and the tests compare through it."""
    return max(
        float(
            np.abs(
                candidate.waveform(net).values - reference.waveform(net).values
            ).max()
        )
        for net in reference.waveforms
    )


def _key_tables(unit: BatchUnit) -> Tuple:
    """The tables and capacitances whose ``id()`` a unit's
    :func:`~repro.csm.dc.settle_key` contains."""
    return (
        unit.output_current,
        unit.internal_current,
        unit.output_cap,
        unit.internal_cap,
        tuple(unit.miller_caps[pin] for pin in unit.pins),
    )


def _frozen(wave: Waveform) -> bool:
    """Whether nobody can write ``wave``'s samples through its own arrays."""
    return not (wave.times.flags.writeable or wave.values.flags.writeable)


class _StimulusCopies(AbstractMapping):
    """A result's private copies of a run's stimuli, made as one block.

    The samples of every stimulus the caller can still write are copied
    together: one ``(stimuli, samples)`` block per sample count and one
    copy of each distinct time grid.  A :class:`Waveform` over a block row
    and its own copy of the grid is built the first time its net is read.
    A later write into the caller's arrays therefore never reaches the
    copies, a write into one read stimulus (times or values) changes that
    stimulus only, and a result read at a handful of nets builds a handful
    of waveforms.  A frozen stimulus (nobody can write its arrays) is not
    copied up front; its reader gets a copy on first read, as for any
    shared waveform.
    """

    def __init__(self, stimuli: Mapping[str, Waveform]):
        self._order = list(stimuli)
        self._frozen: Dict[str, Waveform] = {}
        self._rows: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._waves: Dict[str, Waveform] = {}
        by_length: Dict[int, List[str]] = {}
        for net, wave in stimuli.items():
            if _frozen(wave):
                self._frozen[net] = wave
            else:
                by_length.setdefault(len(wave), []).append(net)
        grids: Dict[bytes, np.ndarray] = {}
        for nets in by_length.values():
            block = np.stack([stimuli[net].values for net in nets])
            for row, net in enumerate(nets):
                times = stimuli[net].times.tobytes()
                grid = grids.get(times)
                if grid is None:
                    grid = grids[times] = stimuli[net].times.copy()
                    grid.flags.writeable = False
                self._rows[net] = (grid, block[row])

    def __getitem__(self, net: str) -> Waveform:
        wave = self._waves.get(net)
        if wave is None:
            if net in self._frozen:
                wave = self._frozen[net].renamed(net)
            else:
                grid, row = self._rows[net]
                wave = Waveform(grid.copy(), row, name=net)
            self._waves[net] = wave
        return wave

    def shared(self, net: str) -> Waveform:
        """The stimulus for reading only: a frozen one needs no copy."""
        if net in self._frozen and net not in self._waves:
            return self._frozen[net]
        return self[net]

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, net) -> bool:
        return net in self._rows or net in self._frozen


class _ResidentWaveforms(AbstractMapping):
    """Per-net waveform mapping produced by a resident run (and the hybrid's
    result): the stimuli first, then the propagated nets.

    The stimuli are the run's private :class:`_StimulusCopies`.  The
    propagated waveforms are shared: memo entries, rows of computed levels
    and the state the engine carries to its next run.  Each one is copied
    out (renamed to its net) the first time it is read, so a caller that
    writes into a result's arrays changes that result only, and a request
    that reads a handful of endpoints copies a handful of waveforms.
    """

    def __init__(self, sources: Dict[str, Waveform], stimuli: _StimulusCopies):
        self._sources = sources
        self._stimuli = stimuli
        self._copies: Dict[str, Waveform] = {}

    def __getitem__(self, net: str) -> Waveform:
        if net not in self._sources:
            return self._stimuli[net]
        wave = self._copies.get(net)
        if wave is None:
            wave = self._copies[net] = self._sources[net].renamed(net)
        return wave

    def shared(self, net: str) -> Waveform:
        """The net's waveform for reading only: the copy handed out if
        there is one, else the shared waveform itself."""
        if net not in self._sources:
            return self._stimuli.shared(net)
        wave = self._copies.get(net)
        return wave if wave is not None else self._sources[net]

    def __iter__(self):
        yield from self._stimuli
        for net in self._sources:
            if net not in self._stimuli:
                yield net

    def __len__(self) -> int:
        return len(self._stimuli) + sum(1 for net in self._sources if net not in self._stimuli)

    def __contains__(self, net) -> bool:
        return net in self._sources or net in self._stimuli


class _SpilledWaveforms(AbstractMapping):
    """Lazy per-net waveform mapping produced by a streaming run.

    Primary inputs stay resident; every other net holds only a ``(level
    record key, row)`` pointer and materializes on access through the
    engine's hot-level LRU — a zero-copy memmap view when the level has to
    come back from the packed store.  The mapping quacks like the resident result's dict (iteration, ``in``,
    ``len``, indexing), so reports, deviation checks and arrival queries work
    unchanged; only the memory behaviour differs.
    """

    def __init__(
        self,
        resident: Mapping[str, Waveform],
        pointers: Dict[str, Tuple[str, int]],
        fetch,
    ):
        self._resident = resident
        self._pointers = pointers
        self._fetch = fetch  # (net, level_key, row) -> Waveform

    def __getitem__(self, net: str) -> Waveform:
        wave = self._resident.get(net)
        if wave is not None:
            return wave
        pointer = self._pointers.get(net)
        if pointer is None:
            raise KeyError(net)
        return self._fetch(net, *pointer)

    def shared(self, net: str) -> Waveform:
        """The net's waveform for reading only (a stimulus is not copied)."""
        if net in self._resident:
            return self._resident.shared(net)
        return self[net]

    def __iter__(self):
        yield from self._resident
        for net in self._pointers:
            if net not in self._resident:
                yield net

    def __len__(self) -> int:
        extra = sum(1 for net in self._pointers if net not in self._resident)
        return len(self._resident) + extra

    def __contains__(self, net) -> bool:  # the Mapping default would fault
        return net in self._resident or net in self._pointers


# ----------------------------------------------------------------------
# The engine interface
# ----------------------------------------------------------------------
class TimingEngine:
    """Base class: a netlist bound to a model library, walked by levels.

    Subclasses implement :meth:`run` for their signal representation (events
    for NLDM, waveforms for CSM).  The base class owns what both need: the
    O(1) net connectivity index, the levelization, and output-load
    construction from characterized receiver capacitances.
    """

    def __init__(
        self,
        netlist: GateNetlist,
        models: TimingModelLibrary,
        corners: Optional[CornerSet] = None,
    ):
        self.netlist = netlist
        self.models = models
        #: Optional MMMC corner set: when bound, :meth:`run` runs one
        #: single-corner engine per corner (see :meth:`_run_corners`).
        self.corners = corners
        self._connectivity: Optional[NetConnectivity] = None
        self._levels: Optional[List[List[GateInstance]]] = None
        self._structure_revision = netlist.revision
        self._structure_identity = id(netlist)
        self._library_identity = id(netlist.library)
        #: ``(corner name, corner)`` when this engine runs one corner of a
        #: parent's :class:`CornerSet`: scopes every key to that corner.
        self._corner_key: Optional[Tuple[str, Any]] = None
        #: The per-corner child engines of an MMMC run (built on first use).
        self._corner_engines: Optional[Dict[str, "TimingEngine"]] = None
        #: Serializes :meth:`run` so one engine instance can be shared by
        #: concurrent callers (the timing server's per-session engines).
        self._run_lock = threading.RLock()
        #: Per-run cache accounting of the most recent :meth:`run`; ``None``
        #: until the first run *on the currently bound design* — rebinding
        #: the engine to a different netlist resets it, so a server reusing
        #: one engine can never report another design's stats.
        self.last_stats: Optional[PropagationStats] = None
        #: Lifetime accounting across runs on the bound design.
        self.runs_completed = 0
        self.total_stats: Dict[str, int] = self._zero_totals()

    @staticmethod
    def _zero_totals() -> Dict[str, int]:
        return {field.name: 0 for field in fields(PropagationStats)}

    # -- lazily built structural views ---------------------------------
    def _sync_structure(self) -> None:
        """Drop structural caches after the netlist was edited or swapped.

        Two triggers: the bound netlist's ``revision`` advanced (an ECO
        edit), or :attr:`netlist` now refers to a *different* object (the
        engine was rebound to another design).  Either way the structural
        views are stale; per-run state (:attr:`last_stats`, the run totals)
        additionally resets on a rebind, and the cell-digest cache resets
        when the new design brings a different cell library.
        """
        rebound = self._structure_identity != id(self.netlist)
        if not rebound and self._structure_revision == self.netlist.revision:
            return
        self._connectivity = None
        self._levels = None
        since: Optional[int] = self._structure_revision
        if rebound:
            since = None
            self.last_stats = None
            self.runs_completed = 0
            self.total_stats = self._zero_totals()
        if self._library_identity != id(self.netlist.library):
            since = None
            self._library_identity = id(self.netlist.library)
            self._on_library_change()
        self._on_structure_change(since)
        self._structure_revision = self.netlist.revision
        self._structure_identity = id(self.netlist)

    def rebind(self, netlist: GateNetlist) -> "TimingEngine":
        """Point the engine at another netlist, resetting per-run state.

        The CSM engine's content-addressed memo entries survive (an
        identical sub-cone in the new design still hits), but stats, levels
        and connectivity are those of the new design only.  Returns ``self``
        for chaining.
        """
        self.netlist = netlist
        self._sync_structure()
        return self

    def _on_structure_change(self, since: Optional[int]) -> None:
        """Hook for subclasses holding further netlist-derived caches.

        ``since`` is the revision the caches describe when the netlist's
        edit journal may say what changed after it (see
        :meth:`GateNetlist.dirty_since`), ``None`` after a rebind or a
        library change.
        """

    def _on_library_change(self) -> None:
        """Hook for subclasses holding library-derived state (e.g. vdd)."""

    @property
    def connectivity(self) -> NetConnectivity:
        self._sync_structure()
        if (
            self._connectivity is None
            or self._connectivity.revision != self.netlist.revision
        ):
            # `_sync_structure` already drops the snapshot on a revision
            # bump; this guard additionally refuses to serve a snapshot whose
            # recorded revision disagrees with the netlist, so a stale CSR
            # row map can never survive an ECO edit even if a subclass (or a
            # future refactor) repopulates `_connectivity` out of band.
            self._connectivity = self.netlist.connectivity()
        return self._connectivity

    def levels(self) -> List[List[GateInstance]]:
        """Topological generations of the netlist (cached per engine,
        rebuilt automatically after netlist edits)."""
        self._sync_structure()
        if self._levels is None:
            self._levels = self.netlist.topological_generations()
        return self._levels

    # -- shared helpers ------------------------------------------------
    def _cell(self, instance: GateInstance):
        return self.netlist.library[instance.cell_name]

    def _output_net(self, instance: GateInstance) -> str:
        return instance.connections[self._cell(instance).output]

    def _lumped_output_load(self, instance: GateInstance) -> float:
        """Scalar load: receiver input capacitances plus wire capacitance."""
        output_net = self._output_net(instance)
        load = self.netlist.net_wire_capacitance.get(output_net, 0.0)
        for receiver, pin in self.connectivity.receivers_of(output_net):
            load += self.models.receiver_input_capacitance(receiver.cell_name, pin)
        return load

    def _output_load(self, instance: GateInstance) -> Load:
        """Structured load for the waveform engine (receiver caps + wire)."""
        output_net = self._output_net(instance)
        receiver_caps = [
            self.models.receiver_input_capacitance(receiver.cell_name, pin)
            for receiver, pin in self.connectivity.receivers_of(output_net)
        ]
        wire = self.netlist.net_wire_capacitance.get(output_net, 0.0)
        if not receiver_caps and wire == 0.0:
            # An unloaded primary output still needs some charge storage for
            # the output update equation to be well conditioned.
            return CapacitiveLoad(1e-15)
        return ReceiverLoad(receiver_caps=receiver_caps, wire_capacitance=wire)

    @staticmethod
    def _aggregate_stats(parts: Iterable[PropagationStats]) -> PropagationStats:
        """Fold sub-run accounting (corners, or a hybrid's survey and
        refines) into one run-level record: a per-field sum."""
        total = PropagationStats()
        for part in parts:
            for field in fields(PropagationStats):
                name = field.name
                setattr(total, name, getattr(total, name) + getattr(part, name))
        return total

    def _corner_engine(self, cc: CornerContext) -> "TimingEngine":
        """A single-corner engine over ``cc.models`` with this engine's
        options (subclasses that accept ``corners=`` implement it)."""
        raise NotImplementedError

    def _run_corners(self, *args, **kwargs) -> MulticornerResult:
        """Run every corner of :attr:`corners` as an ordinary single-corner
        run, one after another, each child checking and defaulting the
        arguments itself.

        Each corner has its own child engine (built on first use and rebound
        to the current netlist before every run); a CSM child's keys are
        scoped to the corner through its private corner context.  A
        multi-corner run is therefore bitwise the corners' single-corner
        runs, and every CSM child writes ordinary level records and row
        pointers.  The children's accounting folds into :attr:`last_stats`.
        """
        if self._corner_engines is None:
            self._corner_engines = {}
            for cc in self.corners:
                child = self._corner_engine(cc)
                child._corner_key = (cc.name, cc.corner)
                self._corner_engines[cc.name] = child
        results = {
            name: self._corner_engines[name].rebind(self.netlist).run(*args, **kwargs)
            for name in self.corners.names
        }
        self.last_stats = self._aggregate_stats(
            self._corner_engines[name].last_stats for name in results
        )
        return MulticornerResult(results, self.corners.names, self.netlist.name)

    def run(self, *args, **kwargs):
        """Run the engine (thread-safe: concurrent calls serialize).

        Dispatches under the run lock to :meth:`_run_corners` when
        :attr:`corners` is bound, else to the subclass :meth:`_run_impl`,
        and folds the run's :class:`PropagationStats` into the lifetime
        totals.
        """
        with self._run_lock:
            if self.corners is not None:
                result = self._run_corners(*args, **kwargs)
            else:
                result = self._run_impl(*args, **kwargs)
            self.runs_completed += 1
            stats = self.last_stats
            if stats is not None:
                for field in fields(PropagationStats):
                    self.total_stats[field.name] += getattr(stats, field.name)
            return result

    def _run_impl(self, *args, **kwargs):
        raise NotImplementedError

    def stats_summary(self) -> Dict[str, Any]:
        """JSON-ready per-engine accounting (surfaced by the timing server)."""
        return {
            "runs": self.runs_completed,
            "last": self.last_stats.as_dict() if self.last_stats else None,
            "total": dict(self.total_stats),
        }


def create_engine(
    kind: str,
    netlist: GateNetlist,
    models: TimingModelLibrary,
    **kwargs,
) -> TimingEngine:
    """Engine factory: ``"csm"`` (levelized waveform propagation; pass
    ``batched=False`` for the per-instance reference evaluator), ``"nldm"`` or
    ``"hybrid"`` (NLDM everywhere, CSM on the critical cones)."""
    if kind == "csm":
        return CSMEngine(netlist, models, **kwargs)
    if kind == "nldm":
        return NLDMEngine(netlist, models, **kwargs)
    if kind == "hybrid":
        from .hybrid import HybridEngine

        return HybridEngine(netlist, models, **kwargs)
    raise TimingError(
        f"unknown timing engine kind {kind!r}; expected 'csm', 'nldm' or 'hybrid'"
    )


def _peek(cache):
    """A store's non-claiming read: :meth:`SingleFlightStore.peek` where the
    store dedupes in-flight misses, its plain ``lookup`` otherwise."""
    return getattr(cache, "peek", cache.lookup)


# ----------------------------------------------------------------------
# NLDM: event propagation per level
# ----------------------------------------------------------------------
#: One instance's NLDM outcome: ``(arrival, slew, rising)`` of its output
#: event (``None`` when no input switches) and its MIS pin pairs.
_EventEntry = Tuple[Optional[Tuple[float, float, bool]], List[Tuple[str, str]]]


class NLDMEngine(TimingEngine):
    """Propagates (arrival, slew) events through a gate netlist.

    An event is three floats from two table interpolations, cheaper to
    recompute than to key, store and read back, so the engine keeps no
    cache: it makes no content hash and no store call.  Each level evaluates
    every instance in one interpolation pass per NLDM table
    (:meth:`_evaluate_level`) and publishes the events before the next level
    reads them, so every run — a repeat or the run after an ECO edit
    included — evaluates the whole design.  Events and MIS pairs are bitwise
    those of evaluating instance by instance with :meth:`NLDMTable.delay` and
    :meth:`NLDMTable.output_slew`.

    Parameters
    ----------
    corners:
        Optional :class:`CornerSet`: :meth:`run` then runs one single-corner
        engine per corner and returns a :class:`MulticornerResult`
        whose corners are bitwise their single-corner runs.
    """

    def _corner_engine(self, cc: CornerContext) -> "NLDMEngine":
        return NLDMEngine(self.netlist, cc.models)

    def _evaluate_level(
        self,
        rows: Sequence[Tuple[GateInstance, Any, float]],
        events: Mapping[str, TimingEvent],
        stats: PropagationStats,
    ) -> List[_EventEntry]:
        """Output event fields and MIS pairs of ``(instance, cell, load)`` rows.

        Every arc (a switching input pin) of every row is interpolated in one
        :meth:`NLDMTable.evaluate_many` pass per table, bitwise the scalar
        ``delay``/``output_slew`` calls; the latest arc arrival wins, the
        first pin on ties.  Same-level rows never feed each other, so
        ``events`` holds every input they read.
        """
        pairs: List[List[Tuple[str, str]]] = []
        arc_rows: List[int] = []
        arc_tables: List[NLDMTable] = []
        arc_slews: List[float] = []
        arc_loads: List[float] = []
        arc_arrivals: List[float] = []
        for row, (instance, cell, load) in enumerate(rows):
            pin_nets = {pin: instance.connections[pin] for pin in cell.inputs}
            pairs.append(detect_mis_pairs(events, cell.inputs, pin_nets))
            for pin in cell.inputs:
                event = events.get(pin_nets[pin])
                if event is None:
                    continue
                arc_rows.append(row)
                arc_tables.append(
                    self.models.nldm_table(instance.cell_name, pin, input_rise=event.rising)
                )
                arc_slews.append(event.slew)
                arc_loads.append(load)
                arc_arrivals.append(event.arrival)

        delays = np.empty(len(arc_rows))
        out_slews = np.empty(len(arc_rows))
        slews = np.array(arc_slews, dtype=float)
        loads = np.array(arc_loads, dtype=float)
        by_table: Dict[int, List[int]] = {}
        for arc, table in enumerate(arc_tables):
            by_table.setdefault(id(table), []).append(arc)
        for arcs in by_table.values():
            table = arc_tables[arcs[0]]
            index = np.array(arcs)
            delays[index], out_slews[index] = table.evaluate_many(slews[index], loads[index])
            stats.clamped_lookups += int(np.count_nonzero(table.clamped(slews[index], loads[index])))
        arrivals = (np.array(arc_arrivals, dtype=float) + delays).tolist()
        out_slew_list = out_slews.tolist()

        best: List[Optional[Tuple[float, float, bool]]] = [None] * len(rows)
        for arc, row in enumerate(arc_rows):
            current = best[row]
            if current is None or arrivals[arc] > current[0]:
                best[row] = (arrivals[arc], out_slew_list[arc], arc_tables[arc].output_rise)
        return list(zip(best, pairs))

    def _run_impl(
        self, input_events: Dict[str, TimingEvent]
    ) -> NLDMTimingResult:
        """Propagate events from the primary inputs to every net.

        Parameters
        ----------
        input_events:
            Net name -> event for every switching primary input.  Primary
            inputs without an event are treated as stable.
        """
        for net in input_events:
            if net not in self.netlist.primary_inputs:
                raise TimingError(f"{net!r} is not a primary input of {self.netlist.name!r}")

        levels = self.levels()  # also re-syncs structural caches after edits
        stats = PropagationStats(instances=len(self.netlist.instances))
        # Characterize every receiver pin's SIS model up front, exactly like
        # the waveform engine: lumped loads then always use characterized
        # input capacitances, never an estimate that depends on which models
        # some earlier run happened to characterize.
        self.models.prewarm_for_netlist(self.netlist, kinds=("sis",))

        events: Dict[str, TimingEvent] = dict(input_events)
        mis_flags: Dict[str, List[Tuple[str, str]]] = {}
        for level in levels:
            rows = [
                (instance, self._cell(instance), self._lumped_output_load(instance))
                for instance in level
            ]
            for (instance, cell, _), (fields, pairs) in zip(
                rows, self._evaluate_level(rows, events, stats)
            ):
                mis_flags[instance.name] = pairs
                if fields is not None:
                    output_net = instance.connections[cell.output]
                    arrival, slew, rising = fields
                    events[output_net] = TimingEvent(
                        net=output_net, arrival=arrival, slew=slew, rising=rising
                    )
            stats.integrations += len(rows)

        self.last_stats = stats
        return NLDMTimingResult(
            events=events,
            mis_flags=mis_flags,
            netlist_name=self.netlist.name,
            stats=stats.as_dict(),
        )


# ----------------------------------------------------------------------
# CSM: waveform propagation, batched per level
# ----------------------------------------------------------------------
@dataclass
class _Plan:
    """Model-free description of one instance evaluation.

    Model choice, load and propagation ``key`` come from the per-net
    switching flags, the netlist structure and the characterization
    *configuration* — never from a characterized model — so computing them
    stays cheap on cache hits.  The level loop decides switching from
    primary inputs' original waveforms and driven nets' samples; a net
    nobody drives is not switching.
    """

    instance: GateInstance
    output_net: str
    pins: Tuple[str, ...]
    #: The model kind on ``pins``: ``"sis"``, ``"mis"`` or ``"mcsm"``.
    kind: str
    label: str
    load: Load
    key: Optional[str] = None


def _miller_caps(model) -> Dict[str, object]:
    if isinstance(model, SISCSM):
        return {model.pin: model.miller_cap}
    if isinstance(model, BaselineMISCSM):
        return model.effective_miller_caps()
    return dict(model.miller_caps)


#: ``(level record key, row)``: where a spilled net's samples live.
_Pointer = Tuple[str, int]


class _ResidentRetention:
    """``memory_mode="resident"``: every row and result waveform stays in RAM.

    Computed and served waveforms are memoized by propagation key.  Nothing
    is pinned, so a long-lived engine on a ``max_bytes`` store can still
    evict.  The result references the run's waveforms and copies each one
    out on first access (:class:`_ResidentWaveforms`); only stimuli the
    caller can still write are copied up front, as one block
    (:class:`_StimulusCopies`).
    """

    memoize = True
    pins = False

    def __init__(self, input_waveforms: Mapping[str, Waveform]):
        self.stimuli = _StimulusCopies(input_waveforms)
        self.waveforms: Dict[str, Waveform] = {}

    def keep(self, net: str, wave: Waveform, pointer: Optional[_Pointer]) -> None:
        self.waveforms[net] = wave

    def restore(self, plans, rows, stats) -> None:
        """Nothing retires, so every input row is still there."""

    def level_done(self, position, rows, stats) -> None:
        """Nothing retires."""

    def result(self) -> _ResidentWaveforms:
        return _ResidentWaveforms(self.waveforms, self.stimuli)


class _StreamRetention:
    """``memory_mode="stream"``: the packed store is the working set.

    A liveness pass fixes the level after which each net's row retires (its
    last reader, or its own level when nobody reads it).  RAM holds the
    per-net scalars (``initials``/``switching``, which never retire, so the
    keys equal resident mode's), the rows of live nets and the engine's hot
    level LRU, capped by :attr:`CSMEngine.memory_budget_bytes`.  Every level
    record the result references is pinned in the store, and the result is
    a :class:`_SpilledWaveforms` that faults levels back on access.  Nothing
    is memoized.
    """

    memoize = False
    pins = True

    def __init__(
        self,
        engine: "CSMEngine",
        levels: Sequence[Sequence[GateInstance]],
        input_waveforms: Mapping[str, Waveform],
        times: np.ndarray,
    ):
        self.engine = engine
        self.times = times
        #: nets whose waveform stays materialized in the result: the
        #: primary inputs.
        self.resident = _StimulusCopies(input_waveforms)
        #: net -> level pointer for every spilled net.
        self.pointers: Dict[str, _Pointer] = {}
        #: level record key -> nets whose row views that tensor; a budget
        #: eviction drops those references so the tensor's memory comes back
        #: (the nets re-fault later if re-read).
        self.live_rows: Dict[str, Set[str]] = {}
        last_read: Dict[str, int] = {}
        for position, level in enumerate(levels):
            for instance in level:
                for pin in engine._cell(instance).inputs:
                    last_read[instance.connections[pin]] = position
                last_read[engine._output_net(instance)] = position
        self.retire_at: Dict[int, List[str]] = {}
        for net, position in last_read.items():
            self.retire_at.setdefault(position, []).append(net)
        # The previous run's pins are released: its result mapping (if anyone
        # still holds it) keeps old records readable through the open memmap.
        engine._release_stream_pins()

    def keep(self, net: str, wave: Waveform, pointer: _Pointer) -> None:
        """Nothing is memoized and every computed level is spilled, so
        every propagated net has a level pointer."""
        self.pointers[net] = pointer
        self.live_rows.setdefault(pointer[0], set()).add(net)

    def _row(
        self, net: str, pointer: _Pointer, stats: Optional[PropagationStats]
    ) -> np.ndarray:
        level_key, row = pointer
        tensor = self.engine._level(level_key, stats, self)
        if (
            tensor is None
            or tensor.num_samples != len(self.times)
            or not 0 <= row < tensor.num_rows
        ):
            raise TimingError(
                f"net {net!r}: the spilled level record backing this "
                "waveform is gone from the store"
            )
        return tensor.row_values(row)

    def restore(
        self,
        plans: Sequence[_Plan],
        rows: Dict[str, np.ndarray],
        stats: PropagationStats,
    ) -> None:
        """Fault back the retired (or budget-evicted) input rows a level
        still needs: skip connections can reach past the hot frontier."""
        for plan in plans:
            for pin in plan.pins:
                net = plan.instance.connections[pin]
                if net not in rows and net in self.pointers:
                    pointer = self.pointers[net]
                    rows[net] = self._row(net, pointer, stats)
                    self.live_rows.setdefault(pointer[0], set()).add(net)

    def level_done(
        self, position: int, rows: Dict[str, np.ndarray], stats: PropagationStats
    ) -> None:
        """Retire the rows whose last reader was this level, then fit the
        hot LRU into the budget."""
        for net in self.retire_at.get(position, ()):
            if rows.pop(net, None) is None:
                continue
            stats.spills += 1
            pointer = self.pointers.get(net)
            if pointer is not None:
                live = self.live_rows.get(pointer[0])
                if live is not None:
                    live.discard(net)

        def on_evict(level_key: str) -> None:
            for net in self.live_rows.pop(level_key, ()):
                if rows.pop(net, None) is not None:
                    stats.spills += 1

        self.engine._enforce_hot_budget(on_evict)

    def result(self) -> _SpilledWaveforms:
        def fetch(net: str, level_key: str, row: int) -> Waveform:
            values = self._row(net, (level_key, row), None)
            self.engine._enforce_hot_budget()
            return Waveform(self.times, values, name=net)

        return _SpilledWaveforms(self.resident, self.pointers, fetch)


_Retention = Union[_ResidentRetention, _StreamRetention]


@dataclass
class _LoopState:
    """What the level loop knows about every net and instance it walked.

    Per net: the sample row on the run grid, the initial value, the
    switching flag and the propagation key (``None`` when caching is off);
    per instance: its plan.  A walk either starts empty or from the state
    its predecessor carried (see :class:`_Carried`).
    """

    rows: Dict[str, np.ndarray]
    initials: Dict[str, float]
    switching: Dict[str, bool]
    net_keys: Optional[Dict[str, str]]
    #: ``None`` for walks whose state is not carried forward.
    plans: Optional[Dict[str, _Plan]]

    def set_row(self, net: str, values: np.ndarray, threshold: float) -> None:
        """Record a driven net's samples: its row, initial value and
        switching flag (the samples span more than ``threshold``)."""
        self.rows[net] = values
        self.initials[net] = float(values[0])
        self.switching[net] = float(values.max() - values.min()) > threshold


@dataclass
class _Carried:
    """The loop state a resident, single-corner, unrestricted cached run
    leaves behind, valid for one netlist revision, library, run context and
    set of stimuli.

    The next such run re-plans and re-keys only the instances the netlist's
    edit journal marks dirty since :attr:`revision`; every other instance
    keeps its plan, key and rows, which are exactly what a full walk would
    recompute (each clean key is still in the memo, so it is a memo hit
    either way).
    """

    revision: int
    library: Any
    context: str
    stimuli: Dict[str, Waveform]
    stimulus_keys: Dict[str, str]
    state: _LoopState


class CSMEngine(TimingEngine):
    """Propagates waveforms through a gate netlist using CSM models.

    One level loop serves every run: each instance gets a plan and a
    propagation key, hits are served from the memo or the store, same-level
    duplicates are integrated once, and the rest of the level is evaluated
    into one :class:`LevelTensor` and spilled as one level record.  How a
    level is evaluated is chosen by ``batched``; what the loop keeps in RAM
    is a retention policy chosen from ``memory_mode``; which instances it
    walks is the row set (all, or the ``only=`` cone).  The three compose
    freely.

    Parameters
    ----------
    batched:
        The level evaluator.  When true (default) a level's pending
        instances gather their input rows by index and are settled and
        integrated in lockstep through
        :func:`~repro.csm.simulate.integrate_model_many`.  When false each
        runs through ``model.simulate`` on per-pin waveforms — the reference
        oracle the lockstep evaluator is checked against.  Either way the
        outputs become the level's tensor, under the same keys, level
        records and row pointers, bitwise.
    cache:
        Content-addressed disk cache for per-instance output waveforms
        (level records and row pointers); defaults to the model library's
        cache.  Every instance evaluation is keyed by the full upstream
        content (cell fingerprint, model configuration, load, input-net keys
        down to the stimuli), so a warm run integrates nothing and an edited
        run re-integrates exactly the dirty fan-out cone.
    use_cache:
        Disable all propagation fingerprinting/memoization (the pre-PR4
        always-integrate behaviour) when false.
    corners:
        Optional :class:`CornerSet`: :meth:`run` then runs one ordinary
        single-corner engine per corner, in order, and returns a
        :class:`MulticornerResult` whose corners are bitwise their
        single-corner runs.
    memory_mode:
        The retention policy of the level loop, with identical numbers and
        keys either way.  ``"resident"`` keeps every row and memoizes
        waveforms; ``"stream"`` retires rows after their last reader, pins
        the level records its result references and hands back a lazy
        mapping over them (requires a store and ``use_cache``: the one flag
        combination the engine rejects).
    memory_budget_bytes:
        Soft cap on the hot level LRU of a streaming run.
    """

    def __init__(
        self,
        netlist: GateNetlist,
        models: TimingModelLibrary,
        options: Optional[SimulationOptions] = None,
        batched: bool = True,
        cache: Optional[PackedStore] = None,
        use_cache: bool = True,
        corners: Optional[CornerSet] = None,
        memory_mode: str = "resident",
        memory_budget_bytes: Optional[int] = None,
    ):
        super().__init__(netlist, models, corners=corners)
        self.options = options or SimulationOptions()
        self.batched = batched
        self.vdd = netlist.library.technology.vdd
        self.cache = cache if cache is not None else models.cache
        self.use_cache = use_cache
        # The in-memory memo survives netlist edits: its entries are
        # content-addressed, so an edit simply stops addressing the stale
        # ones — that is what makes a re-run after an ECO edit incremental
        # even without a disk cache.
        self._memo: Dict[str, Waveform] = {}
        #: Instance name -> structured output load; purely structural, so an
        #: edit drops the loads of its dirty region (all of them when the
        #: netlist's edit journal cannot say what changed).
        self._load_cache: Dict[str, Load] = {}
        #: The state the last carrying run left for the next (see
        #: :class:`_Carried`); ``None`` until then and after anything that
        #: invalidates it.
        self._carried: Optional[_Carried] = None
        self._cell_digests: Dict[str, str] = {}
        #: :func:`~repro.csm.dc.settle_key` -> (settled state, the tables
        #: whose ``id()`` the key contains) across runs (see :meth:`_settle`).  Holding the tables keeps their ids from
        #: being reused under a live entry.
        self._settles: Dict[Tuple, Tuple[Tuple[float, Optional[float]], Tuple]] = {}
        #: Keys a walk from scratch has read so far (``None`` otherwise).
        self._settle_walk: Optional[Set[Tuple]] = None
        if memory_mode not in ("resident", "stream"):
            raise TimingError(
                f"unknown memory_mode {memory_mode!r}; expected 'resident' or 'stream'"
            )
        if memory_mode == "stream" and (not use_cache or self.cache is None):
            raise TimingError(
                "memory_mode='stream' spills working-set data to the "
                "content-addressed store; construct the engine with a cache and "
                "use_cache=True"
            )
        #: ``"resident"`` (default) keeps every propagated waveform in RAM;
        #: ``"stream"`` retires each row once its last reader level consumed
        #: it, keeping only an LRU of hot level tensors bounded by
        #: :attr:`memory_budget_bytes` (see :class:`_StreamRetention`).
        self.memory_mode = memory_mode
        #: Soft cap (bytes) on the hot level-tensor LRU in streaming mode;
        #: ``None`` keeps every tensor of the active frontier hot.
        self.memory_budget_bytes = memory_budget_bytes
        #: Level record key -> (tensor, nbytes), oldest first (an OrderedDict
        #: used as an LRU).  Content-addressed like the waveform memo, so it
        #: survives netlist edits; only a streaming run bounds it.
        self._hot_levels: "OrderedDict[str, Tuple[LevelTensor, int]]" = OrderedDict()
        self._hot_bytes = 0
        #: Level record keys this engine pinned in the store (never evicted
        #: or compacted away while a run's views may still reference them).
        self._stream_pins: Set[str] = set()
        for cc in corners or ():
            corner_vdd = cc.library.technology.vdd
            if abs(corner_vdd - self.vdd) > 1e-12:
                raise TimingError(
                    f"corner {cc.name!r} has vdd {corner_vdd} != design vdd "
                    f"{self.vdd}; every corner is driven by the design's stimuli"
                )

    def _corner_engine(self, cc: CornerContext) -> "CSMEngine":
        child = CSMEngine(
            self.netlist,
            cc.models,
            options=self.options,
            batched=self.batched,
            cache=self.cache,
            use_cache=self.use_cache,
            memory_mode=self.memory_mode,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        child.cache = self.cache  # never the corner library's own store
        return child

    def _on_structure_change(self, since: Optional[int]) -> None:
        dirty = None if since is None else self.netlist.dirty_since(since)
        if dirty is None:
            self._load_cache = {}
            self._carried = None
            return
        for name in dirty:
            self._load_cache.pop(name, None)

    def _on_library_change(self) -> None:
        self.vdd = self.netlist.library.technology.vdd

    # -- fingerprints --------------------------------------------------
    def _cell_digest(self, cell_name: str) -> str:
        """Fingerprint of the cell the bound *models* characterize (a
        corner library's cell differs from the design's under the same
        name)."""
        if cell_name not in self._cell_digests:
            from ..runtime.jobs import cell_fingerprint

            self._cell_digests[cell_name] = content_hash(
                "sta-cell", cell_fingerprint(self.models.library[cell_name])
            )
        return self._cell_digests[cell_name]

    def _context_digest(self, t_start: float, t_stop: float) -> str:
        """Everything every propagation key shares for one run, plus the
        corner when this engine runs one corner of an MMMC set."""
        context = content_hash(
            "sta-context",
            self.options,
            self.models.config,
            self.models.use_internal_node,
            t_start,
            t_stop,
        )
        if self._corner_key is not None:
            # Not "sta-context-mmmc": stores filled before corners ran one
            # by one may hold values of the fused all-corner pass there,
            # which differ from single-corner values in the last bits.
            context = content_hash("sta-context-mmmc-split", context, *self._corner_key)
        return context

    @staticmethod
    def stimulus_keys(input_waveforms: Mapping[str, Waveform]) -> Dict[str, str]:
        """Content keys of the primary-input stimuli (name-independent)."""
        return {
            net: content_hash("sta-stimulus", wave.times, wave.values)
            for net, wave in input_waveforms.items()
        }

    def _carried_for(
        self, context: str, input_waveforms: Mapping[str, Waveform]
    ) -> Tuple[Optional[_Carried], Set[str], Dict[str, str]]:
        """The carried state this run can start from, the rows it must
        re-plan and the stimulus keys.

        The state is dropped when it describes another library or context,
        when the edit journal cannot name the dirty region since its
        revision, or when the stimuli's content changed.
        Stimulus keys are reused unhashed only for the very same frozen
        waveform objects; other stimuli are hashed and compared.
        """
        carried = self._carried
        dirty: Optional[Set[str]] = None
        if (
            carried is not None
            and carried.context == context
            and carried.library is self.netlist.library
        ):
            dirty = self.netlist.dirty_since(carried.revision)
        if dirty is None:
            carried = self._carried = None
        elif len(carried.stimuli) == len(input_waveforms) and all(
            carried.stimuli.get(net) is wave and _frozen(wave)
            for net, wave in input_waveforms.items()
        ):
            return carried, dirty, carried.stimulus_keys
        keys = self.stimulus_keys(input_waveforms)
        if carried is not None:
            if keys == carried.stimulus_keys:
                carried.stimuli = dict(input_waveforms)
            else:
                carried = self._carried = None
        return carried, (dirty if carried is not None else set()), keys

    # ------------------------------------------------------------------
    def _run_impl(
        self,
        input_waveforms: Dict[str, Waveform],
        t_stop: Optional[float] = None,
        t_start: Optional[float] = None,
        only: Optional[Iterable[str]] = None,
    ) -> WaveformTimingResult:
        """Propagate waveforms from the primary inputs through the design.

        With caching enabled (the default) every instance consults the
        in-memory memo and the disk cache through its propagation key before
        integrating — so an unchanged repeat integrates nothing and a run
        after a netlist edit re-integrates only the edit's fan-out cone.
        ``result.stats`` (and :attr:`last_stats`) record the hit/integration
        accounting.

        Parameters
        ----------
        input_waveforms:
            Net name -> waveform for every primary input (switching or not).
        t_stop / t_start:
            The common time window every net's waveform is computed over;
            defaults to the intersection of the input waveforms' spans.
        only:
            The row set: propagate only these instance names (the hybrid
            engine's critical cones), which must form a closed cone.  Loads,
            grids and stimuli are those of the FULL design, so every
            instance gets the *same* propagation key — and therefore the
            same bitwise waveform — as a full run.  Composes with
            ``batched=False``, either memory mode and ``corners=`` (each
            corner runs the same row set).  A cone covering every instance
            is normalized back to an unrestricted run.  The run uses only
            the stimuli its cone reads: it hashes, resamples and copies
            those alone, and its result holds them plus the cone's nets, so
            a change to a stimulus outside the cone keys nothing of it.
        """
        missing = [net for net in self.netlist.primary_inputs if net not in input_waveforms]
        if missing:
            raise TimingError(f"missing waveforms for primary inputs {missing}")
        t_stop = t_stop if t_stop is not None else min(w.t_stop for w in input_waveforms.values())
        t_start = t_start if t_start is not None else max(w.t_start for w in input_waveforms.values())
        if only is not None:
            names = set(self.netlist.instances)
            only = set(only)
            unknown = sorted(only - names)
            if unknown:
                raise TimingError(
                    f"restricted cone names unknown instances {unknown} "
                    f"in {self.netlist.name!r}"
                )
            if only == names:
                only = None  # full cover IS a plain run: it carries

        levels = self.levels()  # also re-syncs structural caches after edits
        if only is not None:
            levels = self._cone_levels(levels, only)
            input_waveforms = self._cone_stimuli(levels, input_waveforms)
        revision = self.netlist.revision
        stats = PropagationStats(
            instances=len(only) if only is not None else len(self.netlist.instances)
        )
        caching = self.use_cache
        streaming = self.memory_mode == "stream"
        # Only the plain resident walk carries its state forward; streaming
        # and ``only=`` walks visit every row of their row set, as always.
        carries = caching and not streaming and only is None
        carried: Optional[_Carried] = None
        dirty: Set[str] = set()
        net_keys: Dict[str, str] = {}
        context = ""
        if caching:
            context = self._context_digest(t_start, t_stop)
            if carries:
                carried, dirty, net_keys = self._carried_for(context, input_waveforms)
            else:
                net_keys = self.stimulus_keys(input_waveforms)

        # Characterize the SIS models of every receiver pin up front (one
        # cache-aware parallel job set).  Loads then always use characterized
        # input capacitances, identically for both level evaluators and
        # independent of instance evaluation order.
        self.models.prewarm_for_netlist(self.netlist, kinds=("sis",))

        times = simulation_time_grid(t_start, t_stop, self.options)
        if streaming:
            retention = _StreamRetention(self, levels, input_waveforms, times)
        else:
            retention = _ResidentRetention(input_waveforms)
        model_used: Dict[str, str] = {}
        stimulus_keys = dict(net_keys)
        if carries:
            # The walk writes into the carried state: it is this run's now.
            self._carried = None
        state = self._propagate_tensor(
            levels,
            input_waveforms,
            model_used,
            stats,
            times,
            context,
            net_keys if caching else None,
            retention,
            carried.state if carried is not None else None,
            dirty,
            carries,
        )
        if carries:
            self._carried = _Carried(
                revision=revision,
                library=self.netlist.library,
                context=context,
                stimuli=dict(input_waveforms),
                stimulus_keys=stimulus_keys,
                state=state,
            )
        if state.net_keys is not None:
            net_keys = state.net_keys
        waveforms = retention.result()

        result = WaveformTimingResult(
            waveforms=waveforms,
            model_used=model_used,
            netlist_name=self.netlist.name,
            vdd=self.vdd,
            stats=stats.as_dict(),
            keys=dict(net_keys) if caching else None,
        )
        self.last_stats = stats
        return result

    def _cone_levels(
        self, levels: Sequence[Sequence[GateInstance]], only: Set[str]
    ) -> List[List[GateInstance]]:
        """The row set of an ``only=`` run: each level's in-cone instances.

        The cone must be closed: an in-cone instance reading a net driven
        outside the cone raises, because that net has no row to read and
        treating it as stable would break the bitwise guarantee.
        """
        connectivity = self.connectivity
        cone: List[List[GateInstance]] = []
        for level in levels:
            members = [instance for instance in level if instance.name in only]
            for instance in members:
                for pin in self._cell(instance).inputs:
                    net = instance.connections[pin]
                    driver = connectivity.driver_of(net)
                    if driver is not None and driver.name not in only:
                        raise TimingError(
                            f"restricted cone is not closed: instance "
                            f"{instance.name!r} reads net {net!r}, which is "
                            "driven outside the cone"
                        )
            cone.append(members)
        return cone

    def _cone_stimuli(
        self,
        levels: Sequence[Sequence[GateInstance]],
        input_waveforms: Mapping[str, Waveform],
    ) -> Dict[str, Waveform]:
        """The stimuli an ``only=`` row set reads, in the caller's order:
        nothing else of the stimuli reaches its keys or waveforms."""
        read = {
            instance.connections[pin]
            for level in levels
            for instance in level
            for pin in self._cell(instance).inputs
        }
        return {net: wave for net, wave in input_waveforms.items() if net in read}

    # ------------------------------------------------------------------
    # The level loop
    # ------------------------------------------------------------------
    def _propagate_tensor(
        self,
        levels: Sequence[Sequence[GateInstance]],
        input_waveforms: Mapping[str, Waveform],
        model_used: Dict[str, str],
        stats: PropagationStats,
        times: np.ndarray,
        context: str,
        net_keys: Optional[Dict[str, str]],
        retention: _Retention,
        state: Optional[_LoopState],
        dirty: Set[str],
        carry: bool,
    ) -> _LoopState:
        """The level loop: every driven net lives as one row of a
        :class:`LevelTensor` on the run grid, and each level's outputs form
        a fresh tensor that the propagation cache spills as a single record.

        ``levels`` is the row set (every instance, or the ``only=`` cone).
        ``retention`` decides what stays in RAM and what the result is.
        ``net_keys`` is ``None`` when caching is off.  Returns the walk's
        :class:`_LoopState` (with its plans when ``carry``).

        ``state`` starts the walk from a predecessor's state instead of
        the stimuli (and ``net_keys``): only the ``dirty`` instances are
        re-planned and re-keyed, in their full-design levels, while every
        other instance keeps its plan and its rows seed the walk the way
        the stimuli do.  A carried clean key is a memo hit, so
        each level's misses — its pending batch — are the ones a full walk
        would find, and the output is bitwise a full walk's.

        ``batched`` picks the evaluator of each level's pending plans
        (:meth:`_evaluate_level_tensor` or :meth:`_evaluate_level_oracle`).
        Bitwise-equivalence bookkeeping between the two:

        * driven rows ARE the oracle's waveform sample arrays (same grid,
          same integration), so switching classification and settle initial
          values computed from them match exactly;
        * primary inputs are classified and settled from their *original*
          waveforms — their resampled rows could miss inter-grid peaks and
          ``values[0]`` when the stimulus starts before the run window;
        * stable nets reuse the constant-at-non-controlling-level semantics
          (a constant row interpolates to exactly the level).
        """
        evaluate = self._evaluate_level_tensor if self.batched else self._evaluate_level_oracle
        threshold = SWITCHING_THRESHOLD_FRACTION * self.vdd
        # A walk from scratch prunes the settle memo to the keys it reads; a
        # carried walk goes on from its predecessor's memo.
        self._settle_walk = set() if state is None else None
        if state is None:
            state = _LoopState({}, {}, {}, net_keys, {} if carry else None)
            for net, wave in input_waveforms.items():
                state.rows[net] = np.asarray(wave.value_at(times), dtype=float)
                state.initials[net] = float(wave.initial_value())
                state.switching[net] = self._is_switching(wave)
        rows, initials, switching = state.rows, state.initials, state.switching
        net_keys, plans = state.net_keys, state.plans

        def keep(net: str, wave: Waveform, pointer: Optional[_Pointer]) -> None:
            state.set_row(net, wave.values, threshold)
            retention.keep(net, wave, pointer)

        for position, level in enumerate(levels):
            pending: List[_Plan] = []
            duplicates: List[_Plan] = []
            first_keys: Set[str] = set()
            for instance in level:
                plan = None
                if plans is not None and instance.name not in dirty:
                    plan = plans.get(instance.name)
                clean = plan is not None
                if not clean:
                    plan = self._plan(instance, switching, context, net_keys)
                    stats.keyed += 1
                    if plans is not None:
                        plans[instance.name] = plan
                model_used[instance.name] = plan.label
                if plan.key is None:
                    pending.append(plan)
                    continue
                net_keys[plan.output_net] = plan.key
                if plan.key in first_keys:
                    # Its first plan missed and is pending: a read would
                    # miss too, or wait on the claim that plan just took.
                    duplicates.append(plan)
                    continue
                hit = self._read(plan.key, stats, times, retention)
                if hit is not None and clean:
                    # Same key, same samples: its row, initial value and
                    # switching flag are already the carried ones.
                    retention.keep(plan.output_net, *hit)
                elif hit is not None:
                    keep(plan.output_net, *hit)
                else:
                    first_keys.add(plan.key)
                    pending.append(plan)

            computed: Dict[Optional[str], Tuple[Waveform, Optional[_Pointer]]] = {}
            if pending:
                retention.restore(pending, rows, stats)
                tensor = evaluate(pending, input_waveforms, rows, initials, times)
                stats.integrations += len(pending)
                waves = [
                    Waveform(times, tensor.row_values(r), name=plan.output_net)
                    for r, plan in enumerate(pending)
                ]
                level_key = None
                if net_keys is not None:
                    level_key = self._spill_level(
                        pending, tensor, waves, context, stats, retention
                    )
                for r, (plan, wave) in enumerate(zip(pending, waves)):
                    pointer = None if level_key is None else (level_key, r)
                    keep(plan.output_net, wave, pointer)
                    computed[plan.key] = (wave, pointer)

            for plan in duplicates:
                stats.duplicates += 1
                keep(plan.output_net, *computed[plan.key])
            retention.level_done(position, rows, stats)
        walk, self._settle_walk = self._settle_walk, None
        if walk:
            self._settles = {key: self._settles[key] for key in walk}
        return state

    def _plan(
        self,
        instance: GateInstance,
        switching: Mapping[str, bool],
        context: str,
        net_keys: Optional[Dict[str, str]],
    ) -> _Plan:
        """Select model kind, switching pins, load — and the propagation key.

        Nothing here characterizes a model: the key depends on the cell
        fingerprint and the configuration, not on the characterized tables
        (which are a pure function of both), so cache hits skip model
        construction entirely.  A net missing from ``switching`` is stable.
        """
        cell = self._cell(instance)
        output_net = instance.connections[cell.output]
        switching_pins = [
            pin for pin in cell.inputs if switching.get(instance.connections[pin], False)
        ]

        if len(switching_pins) >= 2 and cell.num_inputs >= 2:
            pins = (switching_pins[0], switching_pins[1])
            kind = self.models._mis_kind(cell)
            label = "MCSM" if kind == "mcsm" else "BaselineMISCSM"
        else:
            pin = switching_pins[0] if switching_pins else cell.inputs[0]
            pins = (pin,)
            kind = "sis"
            label = f"SISCSM[{pin}]"

        load = self._load_cache.get(instance.name)
        if load is None:
            load = self._output_load(instance)
            self._load_cache[instance.name] = load

        key = None
        if net_keys is not None:
            # Every input pin's net content participates: stable-but-driven
            # nets still shape the output through the model's pin selection.
            inputs = [
                (pin, net_keys.get(instance.connections[pin], "primary-constant"))
                for pin in cell.inputs
            ]
            key = content_hash(
                "sta-propagation",
                context,
                self._cell_digest(instance.cell_name),
                load,
                inputs,
            )
        return _Plan(
            instance=instance,
            output_net=output_net,
            pins=pins,
            kind=kind,
            label=label,
            load=load,
            key=key,
        )

    def _model(self, plan: _Plan):
        """The characterized model a plan selected (characterized on demand)."""
        return self.models.model(plan.kind, plan.instance.cell_name, plan.pins)

    def _evaluate_level_tensor(
        self,
        pending: Sequence[_Plan],
        input_waveforms: Mapping[str, Waveform],
        rows: Dict[str, np.ndarray],
        initials: Dict[str, float],
        times: np.ndarray,
    ) -> LevelTensor:
        """``batched=True``: settle + integrate one level in lockstep from
        sample rows, returning the level's output tensor (one row per
        pending instance, in order)."""
        t_start, t_stop = float(times[0]), float(times[-1])
        models = [self._model(plan) for plan in pending]

        constant_units = []
        for plan, model in zip(pending, models):
            constants = {}
            for pin in plan.pins:
                net = plan.instance.connections[pin]
                if net in initials:
                    value = initials[net]
                else:
                    value = self._cell(plan.instance).non_controlling_value(pin) * self.vdd
                constants[pin] = Waveform.constant(
                    value, 0.0, self.options.settle_time, name=pin
                )
            constant_units.append(
                self._unit(plan, model, constants, self.vdd / 2.0, self.vdd / 2.0)
            )
        settled = self._settle(constant_units)

        units = []
        for plan, model, (initial_output, initial_internal) in zip(pending, models, settled):
            samples: Dict[str, np.ndarray] = {}
            for pin in plan.pins:
                net = plan.instance.connections[pin]
                if net in rows:
                    samples[pin] = rows[net]
                else:
                    level_v = self._cell(plan.instance).non_controlling_value(pin) * self.vdd
                    samples[pin] = np.full(times.shape, float(level_v))
            units.append(
                self._unit(plan, model, {}, initial_output, initial_internal, samples=samples)
            )
        _, outputs = integrate_model_many(units, self.options, t_start, t_stop)
        return self._level_tensor(pending, [v_out for v_out, _ in outputs], times)

    def _settle(self, units: Sequence[BatchUnit]) -> List[Tuple[float, Optional[float]]]:
        """:func:`settle_units` of ``units``, solving each DC operating
        point once per engine.

        Under ``settle_mode="dc"`` a settle is a function of the unit's
        :func:`settle_key`, the key :func:`settle_units` deduplicates a batch
        by, so a remembered state is bitwise the one a solve would return.
        Units whose key the engine solved before are served from
        :attr:`_settles`; the rest are solved one per key.  The memo holds
        the keys the latest walk from scratch read plus those the carried
        walks after it read, so it is bounded by the distinct (model, input
        state, load) triples of the revisions those walks timed.
        """
        if self.options.settle_mode != "dc":
            return settle_units(units, self.options)
        keys = [settle_key(unit) for unit in units]
        if None in keys:  # a stateful load: its settle names no key
            return settle_units(units, self.options)
        memo = self._settles
        misses: Dict[Tuple, BatchUnit] = {}
        for key, unit in zip(keys, units):
            if key not in memo:
                misses.setdefault(key, unit)
        if misses:
            solved = settle_units(list(misses.values()), self.options)
            for (key, unit), state in zip(misses.items(), solved):
                memo[key] = (state, _key_tables(unit))
        if self._settle_walk is not None:
            self._settle_walk.update(keys)
        return [memo[key][0] for key in keys]

    def _evaluate_level_oracle(
        self,
        pending: Sequence[_Plan],
        input_waveforms: Mapping[str, Waveform],
        rows: Dict[str, np.ndarray],
        initials: Dict[str, float],
        times: np.ndarray,
    ) -> LevelTensor:
        """``batched=False``, the reference oracle: one ``model.simulate``
        per instance (Eqs. (4)/(5)) on per-pin waveforms — the stimulus
        itself for a primary input, the row for a driven net and the
        non-controlling constant for a stable one — stacked into the level's
        tensor."""
        t_start, t_stop = float(times[0]), float(times[-1])
        connectivity = self.connectivity
        outputs = []
        for plan in pending:
            waves: Dict[str, Waveform] = {}
            for pin in plan.pins:
                net = plan.instance.connections[pin]
                if net in input_waveforms and connectivity.driver_of(net) is None:
                    waves[pin] = input_waveforms[net]
                elif net in rows:
                    waves[pin] = Waveform(times, rows[net], name=net)
                else:
                    level = self._cell(plan.instance).non_controlling_value(pin) * self.vdd
                    waves[pin] = Waveform.constant(level, t_start, t_stop, name=pin)
            model = self._model(plan)
            stimulus = waves[plan.pins[0]] if isinstance(model, SISCSM) else waves
            simulated = model.simulate(
                stimulus, plan.load, options=self.options, t_start=t_start, t_stop=t_stop
            )
            outputs.append(simulated.output.values)
        return self._level_tensor(pending, outputs, times)

    @staticmethod
    def _level_tensor(
        pending: Sequence[_Plan], outputs: Sequence[np.ndarray], times: np.ndarray
    ) -> LevelTensor:
        step = float(times[1] - times[0])
        names = [plan.output_net for plan in pending]
        return LevelTensor(names, np.stack(outputs), float(times[0]), step)

    # ------------------------------------------------------------------
    # Level records: one writer, one reader, the hot LRU and the pins
    # ------------------------------------------------------------------
    def _spill_level(
        self,
        plans: Sequence[_Plan],
        tensor: LevelTensor,
        waves: Sequence[Waveform],
        context: str,
        stats: PropagationStats,
        retention: _Retention,
    ) -> Optional[str]:
        """Memoize (resident runs) and spill one computed level; returns the
        level record key (``None`` without a store).

        On disk the level becomes ONE record (the whole tensor) under a
        content key over its instances' propagation keys; each per-instance
        entry is a tiny ``{"t": "level-row"}`` pointer that lives inline in
        the packed store's index, all in one transaction.  ``stats.stores``
        counts the per-instance entries.  The tensor enters the hot LRU, and
        a streaming run pins the record so the store's eviction policy can
        never compact away a record its views still reference.
        """
        if retention.memoize:
            for plan, wave in zip(plans, waves):
                self._memo[plan.key] = wave
        if self.cache is None:
            return None
        keys = [plan.key for plan in plans]
        level_key = content_hash("sta-level", context, keys)
        items: List[Tuple[str, object]] = [
            (plan.key, {"t": "level-row", "level": level_key, "row": r})
            for r, plan in enumerate(plans)
        ]
        items.append((level_key, {"keys": keys, "tensor": tensor}))
        self.cache.store_many(items)
        stats.stores += len(plans)
        self._hot_put(level_key, tensor)
        if retention.pins:
            self._pin_level(level_key)
        return level_key

    def _read(
        self,
        key: str,
        stats: PropagationStats,
        times: np.ndarray,
        retention: _Retention,
    ) -> Optional[Tuple[Waveform, Optional[_Pointer]]]:
        """Look one propagation key up: the memo (resident runs), then the
        store; counts the provenance on ``stats``.

        Store entries are ``{"t": "level-row", "level": <key>, "row": <r>}``
        pointers left by a level spill, which resolve through :meth:`_level`
        onto the run grid ``times`` (the context digest embeds the window and
        options, so a key hit implies the same grid).  Returns the waveform
        and its level pointer (``None`` for memo hits); anything else is a
        miss and the instance just re-integrates.
        """
        if retention.memoize and key in self._memo:
            stats.memo_hits += 1
            return self._memo[key], None
        if self.cache is None:
            return None
        hit, value = self.cache.lookup(key)
        if not hit:
            return None
        if not (isinstance(value, dict) and value.get("t") == "level-row"):
            return None
        level_key, row = value.get("level"), value.get("row")
        if not isinstance(level_key, str) or not isinstance(row, int):
            return None
        tensor = self._level(level_key, stats, retention)
        if tensor is None or tensor.num_samples != len(times) or not 0 <= row < tensor.num_rows:
            return None
        wave = Waveform(times, tensor.row_values(row), name=tensor.names[row])
        stats.cache_hits += 1
        if retention.memoize:
            self._memo[key] = wave
        return wave, (level_key, row)

    def _level(
        self, level_key: str, stats: Optional[PropagationStats], retention: _Retention
    ) -> Optional[LevelTensor]:
        """A level record's tensor: the hot LRU first, then the store (a
        zero-copy memmap view decode).

        The record is only ever read here, never stored on a miss, so it is
        peeked rather than claimed.  A streaming run pins every level it
        touches, hot or not, and counts store reads as faults; it enforces
        the budget itself afterwards (during a run that must also drop the
        evicted levels' live rows).
        """
        entry = self._hot_levels.get(level_key)
        if entry is not None:
            self._hot_levels.move_to_end(level_key)
            tensor = entry[0]
        else:
            hit, record = _peek(self.cache)(level_key)
            tensor = record.get("tensor") if hit and isinstance(record, dict) else None
            if not isinstance(tensor, LevelTensor):
                return None
            if retention.pins and stats is not None:
                stats.faults += 1
            self._hot_put(level_key, tensor)
        if retention.pins:
            self._pin_level(level_key)
        return tensor

    def _hot_put(self, level_key: str, tensor: LevelTensor) -> None:
        entry = self._hot_levels.pop(level_key, None)
        if entry is not None:
            self._hot_bytes -= entry[1]
        nbytes = int(tensor.values.nbytes)
        self._hot_levels[level_key] = (tensor, nbytes)
        self._hot_bytes += nbytes

    def _enforce_hot_budget(self, on_evict=None) -> None:
        """Evict oldest hot levels until the budget fits (keeping at least
        the newest — evicting the level just produced would thrash).  Evicted
        store records get their resident pages released; ``on_evict`` lets
        the run drop the strong row references that would otherwise keep the
        tensor's memory alive."""
        budget = self.memory_budget_bytes
        if budget is None:
            return
        while self._hot_bytes > budget and len(self._hot_levels) > 1:
            level_key, (_tensor, nbytes) = next(iter(self._hot_levels.items()))
            del self._hot_levels[level_key]
            self._hot_bytes -= nbytes
            if on_evict is not None:
                on_evict(level_key)
            self.cache.release_record_pages(level_key)

    def _pin_level(self, level_key: str) -> None:
        if level_key in self._stream_pins:
            return
        if self.cache.pin(level_key):
            self._stream_pins.add(level_key)

    def _release_stream_pins(self) -> None:
        for level_key in self._stream_pins:
            self.cache.unpin(level_key)
        self._stream_pins.clear()

    def _unit(
        self,
        plan: _Plan,
        model,
        waves: Mapping[str, Waveform],
        initial_output: float,
        initial_internal: Optional[float],
        samples: Optional[Mapping[str, np.ndarray]] = None,
    ) -> BatchUnit:
        has_internal = isinstance(model, MCSM)
        return BatchUnit(
            pins=plan.pins,
            input_waveforms=dict(waves),
            output_current=model.io_table,
            miller_caps=_miller_caps(model),
            output_cap=model.output_cap,
            load=plan.load,
            vdd=model.vdd,
            initial_output=initial_output,
            internal_current=model.in_table if has_internal else None,
            internal_cap=model.internal_cap if has_internal else None,
            initial_internal=initial_internal if has_internal else None,
            input_samples=samples,
        )

    def _is_switching(self, waveform: Waveform) -> bool:
        return (waveform.maximum() - waveform.minimum()) > SWITCHING_THRESHOLD_FRACTION * self.vdd

