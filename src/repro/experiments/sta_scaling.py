"""STA-at-scale experiment: levelized batched engine vs sequential reference.

This is the full-design counterpart of the per-gate accuracy figures: seeded
synthetic netlists (chains, fanout trees, random layered DAGs over the
default library) are propagated once with the per-instance reference engine
and once with the levelized batched engine, and the experiment records the
wall-clock of both, the speedup, and the maximum per-net waveform deviation
— 0.0 V, since the two paths are bitwise equal.  Both engines run without the
propagation cache: they share its keys, so the second would otherwise be
served the first one's waveforms.

The models come from the context's model library (one characterization
bundle per cell), so with a warm cache the engines start instantly and the
measured time is pure waveform propagation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sta.engine import CSMEngine, waveform_deviation
from ..sta.generate import generate_netlist, primary_input_waveforms
from ..sta.models import TimingModelLibrary
from .common import ExperimentContext, default_context

__all__ = ["StaScalePoint", "StaScaleResult", "run_sta_scale"]

#: Default workload sweep: depth-only, width-only and mixed shapes.
DEFAULT_SPECS = ("chain:inv:32", "tree:5:2", "dag:w16:d4:s7", "dag:w32:d4:s7")


@dataclass
class StaScalePoint:
    """Batched vs sequential comparison for one generated netlist.

    ``batched_seconds`` times the default engine (whole-level tensors),
    ``sequential_seconds`` the ``batched=False`` reference oracle.
    """

    spec: str
    gates: int
    levels: int
    mis_instances: int
    sequential_seconds: float
    batched_seconds: float
    max_abs_delta_v: float

    @property
    def speedup(self) -> float:
        return self.sequential_seconds / self.batched_seconds if self.batched_seconds else 0.0


@dataclass
class StaScaleResult:
    """The generated-netlist sweep."""

    points: List[StaScalePoint]
    characterization_seconds: float
    models_executed: int

    def max_deviation(self) -> float:
        return max(point.max_abs_delta_v for point in self.points)

    def summary(self) -> str:
        lines = [
            "STA scale — levelized batched engine vs sequential reference",
            f"  model characterization: {self.characterization_seconds:.2f} s "
            f"({self.models_executed} executed, rest memoized/cached)",
            f"  {'spec':<18} {'gates':>6} {'levels':>7} {'MIS':>5} "
            f"{'sequential':>11} {'batched':>9} {'speedup':>8} {'max |dV|':>10}",
        ]
        for p in self.points:
            lines.append(
                f"  {p.spec:<18} {p.gates:>6} {p.levels:>7} {p.mis_instances:>5} "
                f"{p.sequential_seconds:>9.3f} s {p.batched_seconds:>7.3f} s "
                f"{p.speedup:>7.2f}x {p.max_abs_delta_v:>10.2e}"
            )
        lines.append(
            f"  waveforms agree to {self.max_deviation():.2e} V (bitwise: 0 expected)"
        )
        return "\n".join(lines)


def run_sta_scale(
    context: Optional[ExperimentContext] = None,
    specs: Sequence[str] = DEFAULT_SPECS,
    seed: int = 0,
    models: Optional[TimingModelLibrary] = None,
) -> StaScaleResult:
    """Compare the batched and sequential engines over generated netlists.

    Parameters
    ----------
    specs:
        Generator spec strings (see :func:`repro.sta.generate.generate_netlist`).
    seed:
        Seed for the primary-input stimuli (netlist seeds live in the specs).
    models:
        Model library to use; by default the context's (``context.models``),
        prewarmed per netlist.
    """
    context = context or default_context()
    models = models or context.models
    options = context.model_options()

    netlists = [generate_netlist(context.library, spec) for spec in specs]
    char_start = time.perf_counter()
    executed = 0
    for netlist in netlists:
        executed += models.prewarm_for_netlist(netlist, kinds=("sis", "mis"))
    characterization_seconds = time.perf_counter() - char_start

    points: List[StaScalePoint] = []
    for spec, netlist in zip(specs, netlists):
        waveforms = primary_input_waveforms(netlist, seed=seed)
        sequential = CSMEngine(
            netlist, models, options=options, batched=False, use_cache=False
        )
        batched = CSMEngine(netlist, models, options=options, use_cache=False)

        start = time.perf_counter()
        sequential_result = sequential.run(waveforms)
        sequential_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batched_result = batched.run(waveforms)
        batched_seconds = time.perf_counter() - start

        deviation = waveform_deviation(batched_result, sequential_result)
        if batched_result.model_used != sequential_result.model_used:
            raise AssertionError(
                f"{spec}: batched and sequential engines disagree on model selection"
            )
        mis_instances = sum(
            1
            for label in batched_result.model_used.values()
            if not label.startswith("SISCSM")
        )
        points.append(
            StaScalePoint(
                spec=spec,
                gates=len(netlist.instances),
                levels=len(netlist.topological_generations()),
                mis_instances=mis_instances,
                sequential_seconds=sequential_seconds,
                batched_seconds=batched_seconds,
                max_abs_delta_v=deviation,
            )
        )
    return StaScaleResult(
        points=points,
        characterization_seconds=characterization_seconds,
        models_executed=executed,
    )
