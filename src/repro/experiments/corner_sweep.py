"""Multi-corner STA sweep: one synthetic design timed across process corners.

The corners are a :class:`~repro.sta.mmmc.CornerSet`: every requested corner
gets its own cornered technology, cell library and
:class:`~repro.sta.models.TimingModelLibrary`, whose characterizations run as
content-addressed runtime jobs through the context's executor and cache (the
cell fingerprint embeds the technology's content, so shifted corners hash to
disjoint keys, ``TT`` shares the default technology's, and a re-run of any
corner is served from the cache).  The seeded
netlist and stimuli are generated once, and one MMMC
:class:`~repro.sta.engine.CSMEngine` run times every corner; the
primary-output arrivals are reported as deltas against the reference corner
(``TT`` when present, else the first requested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..exceptions import TimingError
from ..sta.engine import CSMEngine
from ..sta.generate import generate_netlist, primary_input_waveforms
from ..sta.mmmc import CornerSet
from .common import ExperimentContext, default_context

__all__ = ["CornerStaPoint", "CornerSweepResult", "corner_sta_sweep", "run_corner_sweep"]

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
    arrivals: Dict[str, Optional[float]]  # primary output -> 50% arrival (s)
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class CornerSweepResult:
    """The corner sweep of one netlist spec."""

    spec: str
    seed: int
    gates: int
    reference_corner: str
    propagation_seconds: float  # the one multi-corner run, all corners
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
            f"reference corner {self.reference_corner}, "
            f"propagation {self.propagation_seconds:.3f}s",
            f"  {'corner':<7} {'Vdd':>6} {'charact.':>9} "
            f"{'mean delta':>11} {'max delta':>10}",
        ]
        deltas = self.deltas()
        for point in self.points:
            values = [d for d in deltas[point.corner].values() if d is not None]
            mean = sum(values) / len(values) if values else 0.0
            extreme = max(values, key=abs) if values else 0.0
            lines.append(
                f"  {point.corner:<7} {point.vdd:>5.2f}V {point.characterization_seconds:>8.2f}s "
                f"{mean * 1e12:>9.2f}ps {extreme * 1e12:>8.2f}ps"
            )
        return "\n".join(lines)


def corner_sta_sweep(
    context: ExperimentContext,
    spec: str = DEFAULT_SPEC,
    corners: Sequence[str] = DEFAULT_CORNERS,
    seed: int = 0,
) -> CornerSweepResult:
    """Time one generated design at several process corners in one MMMC run.

    Each corner's models are characterized (and timed) up front through the
    context's executor and cache; arrivals of nets that never cross 50 % of
    the corner's Vdd are reported as ``None``.  Unknown or repeated corner
    names raise :class:`~repro.exceptions.TimingError`.
    """
    cs = CornerSet.from_names(
        corners,
        technology=context.technology,
        config=context.characterization,
        executor=context.executor,
        cache=context.cache,
    )
    netlist = generate_netlist(cs.reference.library, spec)
    waveforms = primary_input_waveforms(netlist, seed=seed)

    points: List[CornerStaPoint] = []
    for cc in cs:
        start = time.perf_counter()
        executed = cc.models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
        points.append(
            CornerStaPoint(
                corner=cc.name,
                vdd=cc.technology.vdd,
                characterization_seconds=time.perf_counter() - start,
                models_executed=executed,
                arrivals={},
            )
        )

    engine = CSMEngine(
        netlist, cs.reference.models, options=context.model_options(), corners=cs
    )
    start = time.perf_counter()
    result = engine.run(waveforms)
    propagation = time.perf_counter() - start

    for point in points:
        point.stats = dict(result.stats[point.corner])
        for net in netlist.primary_outputs:
            try:
                point.arrivals[net] = result.arrival(net, corner=point.corner)
            except TimingError:
                point.arrivals[net] = None  # output never crosses 50% at this corner
    return CornerSweepResult(
        spec=spec,
        seed=seed,
        gates=len(netlist.instances),
        reference_corner=cs.reference.name,
        propagation_seconds=propagation,
        points=points,
    )


def run_corner_sweep(
    context: Optional[ExperimentContext] = None,
    spec: str = DEFAULT_SPEC,
    corners: Sequence[str] = DEFAULT_CORNERS,
    seed: int = 0,
) -> CornerSweepResult:
    """The registered experiment entry point (CLI figure ``corners``)."""
    context = context or default_context()
    return corner_sta_sweep(context, spec=spec, corners=corners, seed=seed)
