"""Criticality-adaptive hybrid timing: NLDM everywhere, CSM where it matters.

The paper's CSM waveforms are exact but expensive; NLDM events are orders of
magnitude cheaper but approximate.  :class:`HybridEngine` transplants the
adaptive-mesh-refinement principle to timing analysis: spend waveform-accurate
CSM effort only on the cones whose slack margins demand it.

One hybrid run is an iteration to a fixed point:

1. **Survey** — :class:`~repro.sta.engine.NLDMEngine` propagates events over
   the whole design (events are derived from the CSM stimuli, so both
   sub-engines see the same transitions).  Like a coarse grid under refined
   patches, the survey is cheap enough to recompute on every run: it keeps
   no cache, and only the CSM refine below reads and writes the store.
2. **Rank** — endpoints (primary outputs) are ranked by slack against a
   ``required`` time: a scalar or a per-net mapping, resolved with the same
   merge semantics as :meth:`~repro.sta.mmmc.MulticornerResult.worst_slacks`
   (via :func:`~repro.sta.mmmc.required_time`).
3. **Refine** — the union of the top-k critical endpoints' *complete* fan-in
   cones (:meth:`GateNetlist.fanin_cone`) re-propagates through the CSM
   engine's tensor batches, restricted via ``CSMEngine.run(..., only=...)``.
   A complete fan-in cone is closed — every input net of a cone instance is
   driven in-cone or is a primary input — so each refined instance
   re-integrates from exactly the inputs a full CSM run would feed it, and
   shares the full run's per-instance propagation keys (warm cones hit the
   existing cache).  A restricted level batches fewer instances, but
   :func:`~repro.csm.simulate.integrate_model_many` gives each row the same
   bits in any batch, so the refined waveforms are bitwise a full run's.
   Unlike a refined mesh patch, a closed cone needs no boundary values from
   the coarse (NLDM) solution: every refined instance's output is exact.
4. **Iterate** — endpoints re-rank with CSM-corrected arrivals; when the new
   top-k's cones are already refined (or the iteration cap hits), the
   critical set is stable and the run stops.  The refined set only grows, so
   every instance integrated in an earlier iteration is a memo hit in the
   next.

``top_k=0`` degenerates to pure NLDM; ``top_k="all"`` refines every
endpoint's cone, which the engine layer normalizes to a plain unrestricted
CSM run — the result is bitwise equal to (and cache-shared with) full CSM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from ..exceptions import TimingError, WaveformError
from ..runtime.store import PackedStore
from ..waveform.metrics import crossing_times, transition_time
from ..waveform.waveform import Waveform
from .engine import (
    CSMEngine,
    NLDMEngine,
    NLDMTimingResult,
    PropagationStats,
    TimingEngine,
    WaveformTimingResult,
    _ResidentWaveforms,
    _StimulusCopies,
)
from .events import TimingEvent
from .mmmc import required_time
from .models import TimingModelLibrary
from .netlist import GateNetlist

__all__ = ["HybridEngine", "HybridTimingResult", "events_from_waveforms"]

#: Slew reported for a stimulus whose waveform never spans the 20-80 % band
#: (e.g. a partial swing) — matches the generators' nominal transition time.
DEFAULT_SLEW_FALLBACK = 60e-12


def events_from_waveforms(
    waveforms: Mapping[str, Waveform], vdd: float
) -> Dict[str, TimingEvent]:
    """Derive NLDM stimulus events from CSM stimulus waveforms.

    Per net: arrival is the last 50 %-Vdd crossing, direction is where the
    waveform ends up, slew is the 20-80 % transition time (the NLDM
    characterization's slew definition).  Non-switching nets get no event —
    exactly how the NLDM engine models a stable input.  Deterministic, so a
    repeated hybrid run derives identical events and its survey gives
    bitwise the same results.
    """
    events: Dict[str, TimingEvent] = {}
    for net, wave in waveforms.items():
        crossings = crossing_times(wave, 0.5 * vdd)
        if not crossings:
            continue
        rising = float(wave.values[-1]) >= 0.5 * vdd
        try:
            slew = transition_time(wave, vdd, direction="rise" if rising else "fall")
        except WaveformError:
            slew = DEFAULT_SLEW_FALLBACK
        events[net] = TimingEvent(
            net=net, arrival=float(crossings[-1]), slew=float(slew), rising=rising
        )
    return events


@dataclass
class HybridTimingResult:
    """Per-net timing with recorded provenance: CSM-exact or NLDM-approximate.

    ``waveforms`` holds the primary inputs plus every CSM-exact net;
    ``exact_nets`` is the set of nets the refined instances drive: their
    values are bitwise a full CSM run's.  The primary inputs are the run's
    private copies, made as one block (a later write into the caller's
    stimuli does not reach them); an exact net is copied out of the CSM
    refine's shared waveforms the first time it is read.
    Every other propagated net is covered by the NLDM events only.
    ``iterations`` records the refinement loop's per-iteration accounting.
    """

    netlist_name: str
    vdd: float
    nldm: NLDMTimingResult
    waveforms: Mapping[str, Waveform]
    exact_nets: frozenset
    refined_instances: Tuple[str, ...]
    instances_total: int
    endpoints: List[str]
    endpoint_arrivals: Dict[str, Optional[float]]
    endpoint_slacks: Dict[str, Optional[Tuple[str, float]]]
    iterations: List[Dict[str, Any]] = field(default_factory=list)
    stats: Optional[Dict[str, int]] = None

    # -- provenance ----------------------------------------------------
    def is_exact(self, net: str) -> bool:
        """True when ``net`` carries a CSM-exact waveform."""
        return net in self.exact_nets

    @property
    def csm_fraction(self) -> float:
        """Fraction of the design's instances the CSM engine refined."""
        if self.instances_total == 0:
            return 0.0
        return len(self.refined_instances) / self.instances_total

    # -- queries ---------------------------------------------------------
    def waveform(self, net: str) -> Waveform:
        if net not in self.waveforms:
            raise TimingError(
                f"net {net!r} has no CSM-exact waveform in this hybrid run "
                "(it was covered by NLDM events only)"
            )
        return self.waveforms[net]

    def arrival(self, net: str) -> float:
        """A net's arrival: CSM 50 %-crossing when exact, else NLDM event."""
        if net in self.exact_nets:
            crossings = crossing_times(self.waveforms[net], 0.5 * self.vdd)
            if not crossings:
                raise TimingError(f"net {net!r} never crosses 50% of Vdd")
            return float(crossings[-1])
        if net in self.nldm.events:
            return self.nldm.events[net].arrival
        if net in self.waveforms:
            raise TimingError(f"net {net!r} never crosses 50% of Vdd")
        raise TimingError(f"net {net!r} has no propagated event")

    def slack(self, net: str) -> Optional[float]:
        entry = self.endpoint_slacks.get(net)
        if entry is None and net not in self.endpoint_slacks:
            raise TimingError(
                f"net {net!r} is not an endpoint of this hybrid run "
                f"(endpoints: {self.endpoints})"
            )
        return None if entry is None else entry[1]

    def report(self) -> str:
        lines = [
            f"Hybrid (NLDM + CSM) timing report for {self.netlist_name!r}: "
            f"{len(self.refined_instances)}/{self.instances_total} instances "
            f"CSM-refined over {len(self.iterations)} iteration(s)"
        ]
        for net in self.endpoints:
            arrival = self.endpoint_arrivals.get(net)
            entry = self.endpoint_slacks.get(net)
            source = "csm " if net in self.exact_nets else "nldm"
            if arrival is None:
                lines.append(f"  endpoint {net:<12} stable")
                continue
            slack_txt = "" if entry is None else f"  slack {entry[1] * 1e12:9.2f} ps"
            lines.append(
                f"  endpoint {net:<12} arrival {arrival * 1e12:9.2f} ps "
                f"({source}){slack_txt}"
            )
        return "\n".join(lines)


class HybridEngine(TimingEngine):
    """NLDM-fast / CSM-exact engine over one netlist (see the module doc).

    Parameters
    ----------
    required:
        Default required time for the slack ranking — a scalar applied to
        every endpoint or a per-net mapping (missing nets fall back to
        ``required_default`` or raise).  With the 0.0 default, slack is just
        ``-arrival`` and criticality means "latest endpoint".
    top_k:
        Default number of critical endpoints whose fan-in cones the CSM
        engine refines per iteration; ``0`` means pure NLDM, ``"all"`` means
        every endpoint (a full, bitwise-equal CSM run).
    max_iterations:
        Refinement cap; the fixed point (the critical set is stable) usually
        lands well before it.
    """

    def __init__(
        self,
        netlist: GateNetlist,
        models: TimingModelLibrary,
        options=None,
        cache: Optional[PackedStore] = None,
        use_cache: bool = True,
        required: Union[float, Mapping[str, float]] = 0.0,
        required_default: Optional[float] = None,
        top_k: Union[int, str] = 1,
        max_iterations: int = 4,
    ):
        super().__init__(netlist, models)
        if max_iterations < 1:
            raise TimingError(f"max_iterations must be >= 1, got {max_iterations}")
        self.required = required
        self.required_default = required_default
        self.top_k = top_k
        self.max_iterations = max_iterations
        #: Both sub-engines share the model library; the CSM sub-engine
        #: shares the content-addressed store, so a refine warm-hits (and
        #: warms) the same propagation namespace as a standalone CSM run.
        #: The NLDM survey keeps no cache.
        self.nldm = NLDMEngine(netlist, models)
        self.csm = CSMEngine(
            netlist, models, options=options, cache=cache, use_cache=use_cache
        )
        #: Per-iteration accounting of the most recent run (surfaced through
        #: :meth:`stats_summary` by the timing server's ``status`` verb).
        self.last_iterations: List[Dict[str, Any]] = []
        self.last_csm_fraction: float = 0.0

    # ------------------------------------------------------------------
    def rebind(self, netlist: GateNetlist) -> "HybridEngine":
        super().rebind(netlist)
        self.nldm.rebind(netlist)
        self.csm.rebind(netlist)
        return self

    def stats_summary(self) -> Dict[str, Any]:
        summary = super().stats_summary()
        summary["nldm"] = self.nldm.stats_summary()
        summary["csm"] = self.csm.stats_summary()
        summary["iterations"] = list(self.last_iterations)
        summary["csm_instance_fraction"] = self.last_csm_fraction
        return summary

    # ------------------------------------------------------------------
    def _resolve_top_k(self, top_k: Union[int, str], num_endpoints: int) -> int:
        if isinstance(top_k, str):
            if top_k != "all":
                raise TimingError(f"top_k must be an int >= 0 or 'all', got {top_k!r}")
            return num_endpoints
        top_k = int(top_k)
        if top_k < 0:
            raise TimingError(f"top_k must be an int >= 0 or 'all', got {top_k}")
        return min(top_k, num_endpoints)

    def _rank(
        self,
        arrivals: Mapping[str, Optional[float]],
        required: Union[float, Mapping[str, float]],
        default: Optional[float],
    ) -> List[str]:
        """Endpoints by ascending slack (most critical first, name-stable).

        Endpoints that never switch have no arrival and therefore unbounded
        slack — they are never candidates for refinement.
        """
        scored = []
        for net, arrival in arrivals.items():
            if arrival is None:
                continue
            scored.append((required_time(required, net, default) - arrival, net))
        scored.sort()
        return [net for _, net in scored]

    # ------------------------------------------------------------------
    def _run_impl(
        self,
        input_waveforms: Dict[str, Waveform],
        required: Optional[Union[float, Mapping[str, float]]] = None,
        top_k: Optional[Union[int, str]] = None,
        required_default: Optional[float] = None,
        t_stop: Optional[float] = None,
        t_start: Optional[float] = None,
    ) -> HybridTimingResult:
        """One survey → rank → refine → re-rank loop (see the module doc).

        ``input_waveforms`` are the CSM stimuli (one per primary input); the
        NLDM survey derives its events from them.  The run's stats fold both
        sub-engines' accounting (the survey's ``integrations`` count every
        instance it evaluated); ``instances`` is the design's count.
        """
        required = self.required if required is None else required
        top_k = self.top_k if top_k is None else top_k
        if required_default is None:
            required_default = self.required_default
        missing = [
            net for net in self.netlist.primary_inputs if net not in input_waveforms
        ]
        if missing:
            raise TimingError(f"missing waveforms for primary inputs {missing}")

        self.levels()  # re-syncs structural caches after ECO edits
        endpoints = list(self.netlist.primary_outputs)
        k = self._resolve_top_k(top_k, len(endpoints))

        # 1. Survey: NLDM over the whole design.
        events = events_from_waveforms(input_waveforms, self.csm.vdd)
        nldm_result = self.nldm.run(events)
        sub_stats: List[PropagationStats] = [self.nldm.last_stats]

        arrivals: Dict[str, Optional[float]] = {
            net: nldm_result.events[net].arrival if net in nldm_result.events else None
            for net in endpoints
        }

        # 2-4. Rank, refine, iterate.
        refined: Set[str] = set()
        exact_nets: Set[str] = set()
        csm_result: Optional[WaveformTimingResult] = None
        iterations: List[Dict[str, Any]] = []
        connectivity = self.connectivity
        while k > 0:
            ranked = self._rank(arrivals, required, required_default)
            critical = ranked[:k]
            if not critical:
                break  # every endpoint is stable: nothing to refine
            needed: Set[str] = set()
            for net in critical:
                needed.update(self.netlist.fanin_cone(net, connectivity=connectivity))
            new = needed - refined
            if iterations and not new:
                break  # fixed point: the critical set's cones are refined
            refined |= needed
            csm_result = self.csm.run(
                input_waveforms, t_stop=t_stop, t_start=t_start, only=set(refined)
            )
            sub_stats.append(self.csm.last_stats)
            exact_nets = {
                self._output_net(self.netlist.instances[name]) for name in refined
            }
            for net in endpoints:
                if net not in exact_nets:
                    continue
                crossings = crossing_times(
                    csm_result.waveforms.shared(net), 0.5 * self.csm.vdd
                )
                arrivals[net] = float(crossings[-1]) if crossings else None
            iterations.append(
                {
                    "iteration": len(iterations),
                    "critical_endpoints": list(critical),
                    "cone_instances": len(refined),
                    "new_instances": len(new),
                    "exact_nets": len(exact_nets),
                    "csm_stats": dict(csm_result.stats or {}),
                }
            )
            if len(iterations) >= self.max_iterations:
                break

        waveforms = _ResidentWaveforms(
            {net: csm_result.waveforms.shared(net) for net in exact_nets},
            _StimulusCopies(input_waveforms),
        )

        slacks: Dict[str, Optional[Tuple[str, float]]] = {}
        for net in endpoints:
            arrival = arrivals[net]
            if arrival is None:
                slacks[net] = None
                continue
            source = "csm" if net in exact_nets else "nldm"
            slacks[net] = (
                source,
                required_time(required, net, required_default) - arrival,
            )

        stats = self._aggregate_stats(sub_stats)
        stats.instances = len(self.netlist.instances)
        self.last_stats = stats
        self.last_iterations = iterations
        self.last_csm_fraction = (
            len(refined) / len(self.netlist.instances)
            if self.netlist.instances
            else 0.0
        )

        order = {name: position for position, name in enumerate(self.netlist.instances)}
        return HybridTimingResult(
            netlist_name=self.netlist.name,
            vdd=self.csm.vdd,
            nldm=nldm_result,
            waveforms=waveforms,
            exact_nets=frozenset(exact_nets),
            refined_instances=tuple(sorted(refined, key=order.__getitem__)),
            instances_total=len(self.netlist.instances),
            endpoints=endpoints,
            endpoint_arrivals=arrivals,
            endpoint_slacks=slacks,
            iterations=iterations,
            stats=stats.as_dict(),
        )
