"""Multi-corner STA sweep: one synthetic design timed across process corners.

This is the scenario axis :mod:`repro.technology.corners` models but nothing
consumed until now: every requested corner gets its own cornered technology,
cell library and :class:`~repro.sta.models.TimingModelLibrary`, whose
characterizations run as parallel content-addressed runtime jobs — the cell
fingerprint embeds the technology, so corner libraries hash to disjoint cache
keys and a re-run of any corner is served from the cache.  The same seeded
netlist/stimuli are then propagated per corner by the waveform engine and the
primary-output arrivals are reported as deltas against the reference corner
(``TT`` when present, else the first requested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cells.library import default_library
from ..exceptions import TimingError
from ..runtime.store import PackedStore
from ..sta.engine import CSMEngine, NLDMEngine
from ..sta.generate import (
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
)
from ..sta.models import TimingModelLibrary
from ..technology.corners import corner_sweep
from .common import ExperimentContext, default_context

__all__ = [
    "CornerStaPoint",
    "CornerSweepResult",
    "NLDMCornerPoint",
    "NLDMCornerSweepResult",
    "corner_sta_sweep",
    "nldm_corner_sweep",
    "run_corner_sweep",
]

#: Default corner set and workload of the registered experiment.
DEFAULT_CORNERS = ("TT", "FF", "SS")
DEFAULT_SPEC = "dag:w8:d3:s7"


@dataclass
class CornerStaPoint:
    """Timing of one design at one process corner."""

    corner: str
    vdd: float
    characterization_seconds: float
    models_executed: int
    propagation_seconds: float
    arrivals: Dict[str, Optional[float]]  # primary output -> 50% arrival (s)
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class CornerSweepResult:
    """The corner sweep of one netlist spec."""

    spec: str
    seed: int
    gates: int
    reference_corner: str
    points: List[CornerStaPoint]

    def deltas(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-corner arrival deltas (s) against the reference corner."""
        reference = next(p for p in self.points if p.corner == self.reference_corner)
        result: Dict[str, Dict[str, Optional[float]]] = {}
        for point in self.points:
            entry: Dict[str, Optional[float]] = {}
            for net, arrival in point.arrivals.items():
                base = reference.arrivals.get(net)
                entry[net] = None if arrival is None or base is None else arrival - base
            result[point.corner] = entry
        return result

    def summary(self) -> str:
        lines = [
            f"Multi-corner STA sweep — {self.spec} ({self.gates} gates), "
            f"reference corner {self.reference_corner}",
            f"  {'corner':<7} {'Vdd':>6} {'charact.':>9} {'propagate':>10} "
            f"{'mean delta':>11} {'max delta':>10}",
        ]
        deltas = self.deltas()
        for point in self.points:
            values = [d for d in deltas[point.corner].values() if d is not None]
            mean = sum(values) / len(values) if values else 0.0
            extreme = max(values, key=abs) if values else 0.0
            lines.append(
                f"  {point.corner:<7} {point.vdd:>5.2f}V {point.characterization_seconds:>8.2f}s "
                f"{point.propagation_seconds:>9.3f}s {mean * 1e12:>9.2f}ps {extreme * 1e12:>8.2f}ps"
            )
        return "\n".join(lines)


def corner_sta_sweep(
    context: ExperimentContext,
    spec: str = DEFAULT_SPEC,
    corners: Sequence[str] = DEFAULT_CORNERS,
    seed: int = 0,
    use_cache: bool = True,
) -> CornerSweepResult:
    """Time one generated design at several process corners.

    Each corner characterizes its own model library through the context's
    executor and cache (one parallel job set per corner); arrivals of nets
    that never cross 50 % of the corner's Vdd are reported as ``None``.
    ``use_cache=False`` disables the *propagation* cache only (the engines
    otherwise inherit the context cache through their model library, which
    would let warm level records skew timed benchmark runs); corner
    characterization always goes through the context cache.
    """
    technologies = corner_sweep(context.technology, corners)
    reference = "TT" if "TT" in technologies else next(iter(technologies))
    points: List[CornerStaPoint] = []
    gates = 0
    for corner_name, technology in technologies.items():
        library = default_library(technology)
        models = TimingModelLibrary(
            library=library,
            config=context.characterization,
            executor=context.executor,
            cache=context.cache,
        )
        netlist = generate_netlist(library, spec)
        gates = len(netlist.instances)
        waveforms = primary_input_waveforms(netlist, seed=seed)

        start = time.perf_counter()
        executed = models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
        characterization = time.perf_counter() - start

        engine = CSMEngine(
            netlist, models, options=context.model_options(), use_cache=use_cache
        )
        start = time.perf_counter()
        result = engine.run(waveforms)
        propagation = time.perf_counter() - start

        arrivals: Dict[str, Optional[float]] = {}
        for net in netlist.primary_outputs:
            try:
                arrivals[net] = result.arrival(net)
            except TimingError:
                arrivals[net] = None  # output never crosses 50% at this corner
        points.append(
            CornerStaPoint(
                corner=corner_name,
                vdd=technology.vdd,
                characterization_seconds=characterization,
                models_executed=executed,
                propagation_seconds=propagation,
                arrivals=arrivals,
                stats=dict(result.stats or {}),
            )
        )
    return CornerSweepResult(
        spec=spec, seed=seed, gates=gates, reference_corner=reference, points=points
    )


@dataclass
class NLDMCornerPoint:
    """Event timing of one design at one process corner (NLDM view)."""

    corner: str
    vdd: float
    arrivals: Dict[str, Optional[float]]  # primary output -> worst arrival (s)
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class NLDMCornerSweepResult:
    """An NLDM corner sweep, all corners served by one shared store."""

    spec: str
    seed: int
    gates: int
    points: List[NLDMCornerPoint]

    def stats_by_corner(self) -> Dict[str, Dict[str, int]]:
        return {point.corner: dict(point.stats) for point in self.points}


def nldm_corner_sweep(
    context: ExperimentContext,
    spec: str = DEFAULT_SPEC,
    corners: Sequence[str] = DEFAULT_CORNERS,
    seed: int = 0,
    cache: Optional[PackedStore] = None,
) -> NLDMCornerSweepResult:
    """Sweep one design's NLDM events across corners through ONE shared store.

    Every corner's engine is handed the same content-addressed cache
    (``cache`` or the context's): propagation keys embed the corner's
    technology through the cell digest, so distinct corners hash to disjoint
    keys — a cold sweep sees zero cross-corner hits — while a re-run of any
    corner against the same store is served entirely from disk (the
    ``full_run_hit`` / ``cache_hits`` counters the incremental tests pin
    down).  One store for the whole sweep, not one per corner.
    """
    shared = cache if cache is not None else context.cache
    technologies = corner_sweep(context.technology, corners)
    points: List[NLDMCornerPoint] = []
    gates = 0
    for corner_name, technology in technologies.items():
        library = default_library(technology)
        models = TimingModelLibrary(
            library=library,
            config=context.characterization,
            executor=context.executor,
            cache=shared,
        )
        netlist = generate_netlist(library, spec)
        gates = len(netlist.instances)
        events = primary_input_events(netlist, seed=seed)

        engine = NLDMEngine(netlist, models, cache=shared)
        result = engine.run(events)

        arrivals: Dict[str, Optional[float]] = {}
        for net in netlist.primary_outputs:
            try:
                arrivals[net] = result.arrival(net)
            except TimingError:
                arrivals[net] = None  # output never switches at this corner
        points.append(
            NLDMCornerPoint(
                corner=corner_name,
                vdd=technology.vdd,
                arrivals=arrivals,
                stats=dict(result.stats or {}),
            )
        )
    return NLDMCornerSweepResult(spec=spec, seed=seed, gates=gates, points=points)


def run_corner_sweep(
    context: Optional[ExperimentContext] = None,
    spec: str = DEFAULT_SPEC,
    corners: Sequence[str] = DEFAULT_CORNERS,
    seed: int = 0,
) -> CornerSweepResult:
    """The registered experiment entry point (CLI figure ``corners``)."""
    context = context or default_context()
    return corner_sta_sweep(context, spec=spec, corners=corners, seed=seed)
