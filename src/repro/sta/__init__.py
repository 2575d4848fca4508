"""Static timing layer: gate netlists, generators, and the unified engines.

The two timing views of the paper (conventional NLDM event propagation and
waveform propagation over characterized current-source models) live behind
one levelized :class:`TimingEngine` interface in :mod:`repro.sta.engine`;
:mod:`repro.sta.generate` builds seeded synthetic workloads (chains, trees,
random layered DAGs) to drive them at scale.
"""

from .engine import (
    CSMEngine,
    NLDMEngine,
    NLDMTimingResult,
    PropagationStats,
    TimingEngine,
    WaveformTimingResult,
    create_engine,
    waveform_deviation,
)
from .events import TimingEvent, detect_mis_pairs, windows_overlap
from .hybrid import HybridEngine, HybridTimingResult, events_from_waveforms
from .generate import (
    fanout_tree,
    gate_chain,
    generate_netlist,
    inverter_chain,
    primary_input_events,
    primary_input_waveforms,
    random_dag,
)
from .models import TimingModelLibrary
from .netlist import GateInstance, GateNetlist, NetConnectivity, netlist_fingerprint

__all__ = [
    "GateInstance",
    "GateNetlist",
    "NetConnectivity",
    "netlist_fingerprint",
    "PropagationStats",
    "TimingEvent",
    "windows_overlap",
    "detect_mis_pairs",
    "TimingModelLibrary",
    "TimingEngine",
    "create_engine",
    "NLDMEngine",
    "NLDMTimingResult",
    "CSMEngine",
    "WaveformTimingResult",
    "HybridEngine",
    "HybridTimingResult",
    "events_from_waveforms",
    "waveform_deviation",
    "inverter_chain",
    "gate_chain",
    "fanout_tree",
    "random_dag",
    "generate_netlist",
    "primary_input_waveforms",
    "primary_input_events",
]
