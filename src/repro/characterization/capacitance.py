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

All ramp variants of one extraction — both slopes, both ramp directions and
both output biases — are integrated *in lockstep* through the batched
transient engine (one simulation instead of eight), and every probing-source
current is recorded, so a single batch yields both the Miller and the input
capacitance of a pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..cells.cell import Cell
from ..exceptions import CharacterizationError
from ..spice.sources import SaturatedRamp
from .config import CharacterizationConfig
from .probe import ProbeBench

__all__ = [
    "extract_ramp_capacitance",
    "extract_ramp_capacitances",
    "characterize_cell_capacitances",
    "characterize_miller_capacitance",
    "characterize_output_capacitance",
    "characterize_internal_capacitance",
    "characterize_input_capacitance",
]


#: Lower bound on a subtracted capacitance: the two-slope extraction is a
#: difference of measurements, so near-cancelling terms can go (slightly)
#: negative; they are floored to a small positive value instead.
CAP_FLOOR = 0.1e-15


def _controlling_bias(cell: Cell, pins: Iterable[str]) -> Dict[str, float]:
    """Bias that turns the series stack off (all listed pins at controlling value)."""
    vdd = cell.technology.vdd
    return {pin: cell.controlling_value(pin) * vdd for pin in pins}


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


def extract_ramp_capacitances(
    bench: ProbeBench,
    ramp_node: str,
    measure_probes: Sequence[str],
    dc_biases: Dict[str, float],
    bias_direction_combos: Sequence[Tuple[float, bool]],
    config: Optional[CharacterizationConfig] = None,
) -> Dict[str, List[float]]:
    """Two-slope capacitance extraction, batched over probes and bias combos.

    Parameters
    ----------
    bench:
        Probe bench with sources on all relevant nodes.
    ramp_node:
        Which probe gets the ramp: an input pin name, ``"output"`` or
        ``"internal"``.
    measure_probes:
        Which sources' currents are turned into capacitance samples (same
        identifiers); all probing currents come out of the same transients.
    dc_biases:
        DC voltages for the input pins that are not ramped.
    bias_direction_combos:
        ``(output_bias, rising)`` pairs; the output bias is ignored when the
        output itself is ramped.  All combos (times the two configured slews)
        are integrated in one lockstep batch.

    Returns
    -------
    Probe identifier -> one averaged capacitance sample per combo, in order.
    """
    config = config or bench.config
    vdd = bench.cell.technology.vdd
    if ramp_node == "internal" and bench.internal_source_name is None:
        raise CharacterizationError("bench has no internal-node source to ramp")

    runs = _build_ramp_runs(ramp_node, dc_biases, bias_direction_combos, vdd, config)
    results = bench.transient_with_stimuli_many(runs, t_stop=_ramp_window(config))
    return _caps_from_results(
        bench, results, measure_probes, bias_direction_combos, vdd, config
    )


def characterize_cell_capacitances(
    cell: Cell,
    pins: Sequence[str],
    pin_biases: Dict[str, Dict[str, float]],
    config: Optional[CharacterizationConfig] = None,
    include_internal: bool = False,
) -> Tuple[Dict[str, float], Dict[str, float], float, Optional[float]]:
    """All model capacitances of a cell from (at most) two lockstep batches.

    The per-pin Miller/input extractions and the output-capacitance
    extraction all probe the same circuit — only the stimuli differ — so
    every ramp variant of every segment goes into *one* batched transient.
    The internal-node extraction needs the probe circuit with a forced stack
    node and runs as its own (4-run) batch.

    Parameters
    ----------
    pins:
        The switching pins being characterized.
    pin_biases:
        Per pin: the DC bias of the *other* input pins while that pin is
        ramped (the ``miller_other_pin_state`` policy, resolved by the
        caller).
    include_internal:
        Also extract ``C_N`` (requires a stack node).

    Returns
    -------
    ``(miller_caps, input_caps, output_cap, internal_cap)``;
    ``internal_cap`` is ``None`` unless requested.
    """
    config = config or CharacterizationConfig()
    vdd = cell.technology.vdd
    bench = ProbeBench(cell=cell, switching_pins=tuple(pins), probe_internal=False, config=config)

    pin_combos = [(output_bias, rising) for output_bias in (0.0, vdd) for rising in (True, False)]
    output_combos = [(0.0, True), (0.0, False)]
    controlling = _controlling_bias(cell, pins)

    runs: List[Dict[str, object]] = []
    segments: List[Tuple[str, Tuple[str, ...], Sequence[Tuple[float, bool]], int]] = []
    for pin in pins:
        runs.extend(_build_ramp_runs(pin, dict(pin_biases[pin]), pin_combos, vdd, config))
        segments.append((pin, ("output", pin), pin_combos, 2 * len(pin_combos)))
    runs.extend(_build_ramp_runs("output", controlling, output_combos, vdd, config))
    segments.append(("output", ("output",), output_combos, 2 * len(output_combos)))

    results = bench.transient_with_stimuli_many(runs, t_stop=_ramp_window(config))

    miller_caps: Dict[str, float] = {}
    input_caps: Dict[str, float] = {}
    output_total = 0.0
    cursor = 0
    for ramp_node, probes, combos, count in segments:
        samples = _caps_from_results(
            bench, results[cursor : cursor + count], probes, combos, vdd, config
        )
        cursor += count
        if ramp_node == "output":
            output_total = float(np.mean(np.abs(samples["output"])))
        else:
            miller_caps[ramp_node] = float(np.mean(np.abs(samples["output"])))
            total_input = float(np.mean(np.abs(samples[ramp_node])))
            input_caps[ramp_node] = max(total_input - miller_caps[ramp_node], CAP_FLOOR)

    output_cap = max(
        output_total - sum(abs(miller_caps[pin]) for pin in pins), CAP_FLOOR
    )

    internal_cap: Optional[float] = None
    if include_internal:
        internal_cap = characterize_internal_capacitance(cell, pins, config)

    return miller_caps, input_caps, output_cap, internal_cap


def extract_ramp_capacitance(
    bench: ProbeBench,
    ramp_node: str,
    measure_probe: str,
    dc_biases: Dict[str, float],
    output_bias: float,
    rising: bool = True,
    config: Optional[CharacterizationConfig] = None,
) -> float:
    """Single-probe, single-combo wrapper around :func:`extract_ramp_capacitances`."""
    samples = extract_ramp_capacitances(
        bench,
        ramp_node,
        (measure_probe,),
        dc_biases,
        ((output_bias, rising),),
        config=config,
    )
    return samples[measure_probe][0]


def _pin_coupling_samples(
    cell: Cell,
    pin: str,
    other_pins: Dict[str, float],
    config: CharacterizationConfig,
    probe_internal: bool,
) -> Dict[str, List[float]]:
    """Ramp ``pin`` for every bias/direction combo, measuring output and pin.

    One lockstep batch yields both the Miller-coupling samples (output-source
    current) and the total input-capacitance samples (pin-source current).
    """
    bench = ProbeBench(
        cell=cell,
        switching_pins=tuple(dict.fromkeys([pin, *other_pins])),
        probe_internal=probe_internal,
        config=config,
    )
    vdd = cell.technology.vdd
    combos = [(output_bias, rising) for output_bias in (0.0, vdd) for rising in (True, False)]
    return extract_ramp_capacitances(
        bench,
        ramp_node=pin,
        measure_probes=("output", pin),
        dc_biases=dict(other_pins),
        bias_direction_combos=combos,
        config=config,
    )


def characterize_miller_capacitance(
    cell: Cell,
    pin: str,
    other_pins: Dict[str, float],
    config: Optional[CharacterizationConfig] = None,
    probe_internal: bool = False,
) -> float:
    """Characterize the Miller capacitance between ``pin`` and the output.

    A ramp is applied to ``pin`` while the output is held by a DC source and
    the output-source current is monitored; the extraction is repeated for
    output-low and output-high bias and for both ramp directions, and the
    results are averaged.
    """
    config = config or CharacterizationConfig()
    samples = _pin_coupling_samples(cell, pin, other_pins, config, probe_internal)
    return float(np.mean(np.abs(samples["output"])))


def characterize_output_capacitance(
    cell: Cell,
    pins: Sequence[str],
    miller_caps: Dict[str, float],
    config: Optional[CharacterizationConfig] = None,
) -> float:
    """Characterize the output parasitic capacitance ``Co``.

    The output source is ramped while all inputs sit at their *controlling*
    values, which switches the series stack off and isolates the internal
    node; the measured total capacitance is the sum of ``Co`` and the Miller
    capacitances, so the previously extracted Miller terms are subtracted.
    """
    config = config or CharacterizationConfig()
    bench = ProbeBench(cell=cell, switching_pins=tuple(pins), probe_internal=False, config=config)
    biases = _controlling_bias(cell, pins)
    samples = extract_ramp_capacitances(
        bench,
        ramp_node="output",
        measure_probes=("output",),
        dc_biases=biases,
        bias_direction_combos=((0.0, True), (0.0, False)),
        config=config,
    )
    total = float(np.mean(np.abs(samples["output"])))
    output_cap = total - sum(abs(miller_caps.get(pin, 0.0)) for pin in pins)
    return max(output_cap, CAP_FLOOR)


def characterize_internal_capacitance(
    cell: Cell,
    pins: Sequence[str],
    config: Optional[CharacterizationConfig] = None,
) -> float:
    """Characterize the internal-node capacitance ``C_N``.

    The internal-node source is ramped while the inputs sit at controlling
    values (stack off) and the output is held at DC; the internal-node source
    current divided by the ramp slope gives ``C_N`` after the two-slope
    subtraction.
    """
    config = config or CharacterizationConfig()
    if cell.stack_node() is None:
        raise CharacterizationError(f"cell {cell.name!r} has no internal node")
    bench = ProbeBench(cell=cell, switching_pins=tuple(pins), probe_internal=True, config=config)
    biases = _controlling_bias(cell, pins)
    samples = extract_ramp_capacitances(
        bench,
        ramp_node="internal",
        measure_probes=("internal",),
        dc_biases=biases,
        bias_direction_combos=((0.0, True), (0.0, False)),
        config=config,
    )
    return float(np.mean(np.abs(samples["internal"])))


def characterize_input_capacitance(
    cell: Cell,
    pin: str,
    other_pins: Dict[str, float],
    miller_cap: float,
    config: Optional[CharacterizationConfig] = None,
) -> float:
    """Characterize the input pin capacitance ``C_A`` (paper Eq. (3)).

    A ramp is applied to the pin while the output is held at DC; the current
    delivered by the *input* source is ``(C_A + C_mA) dV_A/dt``, so the Miller
    term is subtracted after extraction.  Results for output-low/high and both
    ramp directions are averaged.
    """
    config = config or CharacterizationConfig()
    samples = _pin_coupling_samples(cell, pin, other_pins, config, probe_internal=False)
    mean_total = float(np.mean(np.abs(samples[pin])))
    return max(mean_total - abs(miller_cap), CAP_FLOOR)
