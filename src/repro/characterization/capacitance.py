"""Transient characterization of the model capacitances.

Section 3.3 of the paper characterizes the Miller, output, internal-node and
input capacitances with SPICE transient analyses in which saturated ramps are
applied to one node while the others are held at DC, monitoring the current
of the source attached to the node of interest.

The extraction used here applies the same ramp at two different slopes and
divides the *difference* of the measured currents (at matched ramp voltage)
by the difference of the slopes.  Because the quasi-static (DC) component of
the current is identical at matched voltage, it cancels exactly, leaving the
capacitive component:

    i(t) = I_dc(v(t)) + C * dv/dt      =>      C = (i_fast - i_slow) / (s_fast - s_slow)

The extracted C(v) samples are then averaged, matching the paper's decision
to store an average capacitance over the characterization slopes.

All ramp variants of all the models of one cell — both slopes, both ramp
directions, both output biases, every pin and every model — are integrated
*in lockstep* through the batched transient engine, one batch per probe
circuit, with each distinct run integrated once; every probing-source current
is recorded, so one run yields both the Miller and the input capacitance of a
pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cells.cell import Cell
from ..spice.sources import SaturatedRamp
from .config import CharacterizationConfig
from .probe import ProbeBench

__all__ = [
    "CapacitanceRequest",
    "CellCapacitances",
    "characterize_cell_capacitances",
]


#: Lower bound on a subtracted capacitance: the two-slope extraction is a
#: difference of measurements, so near-cancelling terms can go (slightly)
#: negative; they are floored to a small positive value instead.
CAP_FLOOR = 0.1e-15


class CapacitanceRequest(NamedTuple):
    """The capacitances one CSM model needs.

    ``pins`` are the model's switching pins; ``pin_biases`` gives, per pin,
    the DC bias of other input pins while that pin is ramped (the
    ``miller_other_pin_state`` policy, resolved by the caller; pins it does
    not list sit at their non-controlling value); ``include_internal`` also
    asks for ``C_N`` (the cell needs a stack node).
    """

    pins: Tuple[str, ...]
    pin_biases: Mapping[str, Mapping[str, float]]
    include_internal: bool = False


class CellCapacitances(NamedTuple):
    """One request's capacitances; ``internal_cap`` is ``None`` unless asked."""

    miller_caps: Dict[str, float]
    input_caps: Dict[str, float]
    output_cap: float
    internal_cap: Optional[float]


def _input_bias(cell: Cell, controlling: Iterable[str] = ()) -> Dict[str, float]:
    """Every input pin's DC voltage: the ``controlling`` pins at their
    controlling value (turning the series stack off), the others at their
    non-controlling value."""
    vdd = cell.technology.vdd
    controlling = set(controlling)
    biases = {pin: cell.non_controlling_value(pin) * vdd for pin in cell.inputs}
    biases.update((pin, cell.controlling_value(pin) * vdd) for pin in controlling)
    return biases


def _ramp_pair(
    low: float, high: float, settle: float, slews: Tuple[float, float]
) -> Tuple[SaturatedRamp, SaturatedRamp]:
    return (
        SaturatedRamp(low, high, settle, slews[0]),
        SaturatedRamp(low, high, settle, slews[1]),
    )


def _ramp_window(config: CharacterizationConfig) -> float:
    """End of the time grid of a capacitance batch: the slower ramp plus the
    quiet time on both sides.  The batch itself stops at its last sample
    (:meth:`ProbeBench.transient_with_stimuli_many`), well before this."""
    return config.cap_ramp_settle + max(config.cap_ramp_slews) + config.cap_ramp_settle


def _build_ramp_runs(
    ramp_node: str,
    dc_biases: Dict[str, float],
    bias_direction_combos: Sequence[Tuple[float, bool]],
    vdd: float,
    config: CharacterizationConfig,
) -> List[Dict[str, object]]:
    """Stimulus sets (two slews per combo) for one ramp-extraction segment."""
    settle = config.cap_ramp_settle
    runs: List[Dict[str, object]] = []
    for output_bias, rising in bias_direction_combos:
        low, high = (0.0, vdd) if rising else (vdd, 0.0)
        for ramp in _ramp_pair(low, high, settle, config.cap_ramp_slews):
            stimuli: Dict[str, object] = dict(dc_biases)
            if ramp_node == "output":
                stimuli["output"] = ramp
            else:
                stimuli[ramp_node] = ramp
                stimuli["output"] = output_bias
            runs.append(stimuli)
    return runs


def _caps_from_results(
    bench: ProbeBench,
    results: Sequence,
    measure_probes: Sequence[str],
    bias_direction_combos: Sequence[Tuple[float, bool]],
    vdd: float,
    config: CharacterizationConfig,
) -> Dict[str, List[float]]:
    """Turn one segment's transient pair results into capacitance samples."""
    settle = config.cap_ramp_settle
    slews = config.cap_ramp_slews
    sample_lo, sample_hi = config.cap_sample_fractions
    fractions = np.linspace(sample_lo, sample_hi, 25)
    samples: Dict[str, List[float]] = {probe: [] for probe in measure_probes}
    for combo, (output_bias, rising) in enumerate(bias_direction_combos):
        low, high = (0.0, vdd) if rising else (vdd, 0.0)
        slopes = [(high - low) / slew for slew in slews]
        pair = results[2 * combo : 2 * combo + 2]
        for probe in measure_probes:
            source_name = bench.source_name_for(probe)
            # Sample each measured current at matched ramp voltages.
            currents = [
                np.interp(settle + fractions * slew, result.times, result.current_trace(source_name))
                for result, slew in zip(pair, slews)
            ]
            capacitance = (currents[0] - currents[1]) / (slopes[0] - slopes[1])
            samples[probe].append(float(np.mean(capacitance)))
    return samples


class _ProbeBatch:
    """The ramp runs of one probe circuit (stack node floating, or forced
    by ``VN``), each distinct run listed once.

    Every run lists every input's bias, so a run means the same on any
    probe bench of the cell and equal runs of different segments (say, an
    SIS model's pin ramps and an MCSM's) are integrated once.
    """

    def __init__(self, cell: Cell, config: CharacterizationConfig, probe_internal: bool):
        self.bench = ProbeBench(
            cell=cell, switching_pins=(), probe_internal=probe_internal, config=config
        )
        self.runs: List[Dict[str, object]] = []
        self._positions: Dict[Tuple, int] = {}
        self.results: List = []

    def add(
        self,
        ramp_node: str,
        dc_biases: Dict[str, float],
        bias_direction_combos: Sequence[Tuple[float, bool]],
    ) -> List[int]:
        """Batch positions of one segment's runs (:func:`_build_ramp_runs`),
        appending those not yet in the batch."""
        config = self.bench.config
        vdd = self.bench.cell.technology.vdd
        positions = []
        for run in _build_ramp_runs(ramp_node, dc_biases, bias_direction_combos, vdd, config):
            position = self._positions.setdefault(tuple(sorted(run.items())), len(self.runs))
            if position == len(self.runs):
                self.runs.append(run)
            positions.append(position)
        return positions

    def run(self) -> None:
        """Integrate every run in one lockstep batch."""
        if self.runs:
            self.results = self.bench.transient_with_stimuli_many(
                self.runs, t_stop=_ramp_window(self.bench.config)
            )


def characterize_cell_capacitances(
    cell: Cell,
    requests: Sequence[CapacitanceRequest],
    config: Optional[CharacterizationConfig] = None,
) -> List[CellCapacitances]:
    """The capacitances of several models of one cell from at most two
    lockstep batches.

    Every request's per-pin Miller/input extractions and its output
    extraction probe the same circuit (the stack node floating) -- only the
    stimuli differ -- so all of them go into one batched transient; the
    internal-node extractions need the stack node forced and share a second
    batch.  A run that several requests share (an SIS model's pin ramps are
    an MCSM's too) is integrated once.  A run's samples do not depend on
    which other runs share its batch, so each request gets bitwise the
    capacitances it would get alone.

    Returns one :class:`CellCapacitances` per request, in order.
    """
    config = config or CharacterizationConfig()
    vdd = cell.technology.vdd
    pin_combos = [(output_bias, rising) for output_bias in (0.0, vdd) for rising in (True, False)]
    stack_off_combos = [(0.0, True), (0.0, False)]
    floating = _ProbeBatch(cell, config, probe_internal=False)
    forced: Optional[_ProbeBatch] = None

    # (batch, ramped node, measured probes, combos, batch positions)
    plans = []
    for request in requests:
        segments = []
        for pin in request.pins:
            biases = {**_input_bias(cell), **request.pin_biases[pin]}
            positions = floating.add(pin, biases, pin_combos)
            segments.append((floating, pin, ("output", pin), pin_combos, positions))
        stack_off = _input_bias(cell, request.pins)
        positions = floating.add("output", stack_off, stack_off_combos)
        segments.append((floating, "output", ("output",), stack_off_combos, positions))
        if request.include_internal:
            forced = forced or _ProbeBatch(cell, config, probe_internal=True)
            positions = forced.add("internal", stack_off, stack_off_combos)
            segments.append((forced, "internal", ("internal",), stack_off_combos, positions))
        plans.append(segments)

    for batch in (floating, forced):
        if batch is not None:
            batch.run()

    capacitances: List[CellCapacitances] = []
    for request, segments in zip(requests, plans):
        miller_caps: Dict[str, float] = {}
        input_caps: Dict[str, float] = {}
        output_total = 0.0
        internal_cap: Optional[float] = None
        for batch, ramp_node, probes, combos, positions in segments:
            samples = _caps_from_results(
                batch.bench, [batch.results[i] for i in positions], probes, combos, vdd, config
            )
            if ramp_node == "output":
                output_total = float(np.mean(np.abs(samples["output"])))
            elif ramp_node == "internal":
                internal_cap = float(np.mean(np.abs(samples["internal"])))
            else:
                miller_caps[ramp_node] = float(np.mean(np.abs(samples["output"])))
                total_input = float(np.mean(np.abs(samples[ramp_node])))
                input_caps[ramp_node] = max(total_input - miller_caps[ramp_node], CAP_FLOOR)
        output_cap = max(
            output_total - sum(abs(miller_caps[pin]) for pin in request.pins), CAP_FLOOR
        )
        capacitances.append(CellCapacitances(miller_caps, input_caps, output_cap, internal_cap))
    return capacitances
