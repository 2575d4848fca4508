"""Voltage-based (NLDM-style) characterization.

This is the conventional approach the paper contrasts against: the cell is
characterized for propagation delay and output transition time as functions
of input slew and output load, assuming saturated-ramp waveforms.  The tables
feed the voltage-based STA engine (:mod:`repro.sta`) which serves as the
"what existing tools do" baseline in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..cells.cell import Cell
from ..cells.testbench import build_testbench
from ..exceptions import CharacterizationError
from ..lut.grid import Axis
from ..lut.table import NDTable
from ..spice.sources import SaturatedRamp
from ..spice.transient import TransientAnalysis, TransientOptions
from ..waveform.metrics import propagation_delay, transition_time

__all__ = ["NLDMTable", "characterize_nldm", "characterize_nldm_arcs"]


@dataclass
class NLDMTable:
    """Delay / output-slew tables for one timing arc of a cell.

    Attributes
    ----------
    cell_name / pin:
        The characterized cell and the switching input pin of the arc.
    input_rise:
        True when the characterized arc is for a rising input edge.
    delay_table / slew_table:
        2-D tables over (input slew, load capacitance).
    """

    cell_name: str
    pin: str
    input_rise: bool
    output_rise: bool
    delay_table: NDTable
    slew_table: NDTable
    vdd: float
    metadata: Dict[str, str] = field(default_factory=dict)

    def delay(self, input_slew: float, load: float) -> float:
        """Interpolated 50 % propagation delay (s)."""
        return self.delay_table.evaluate(input_slew, load)

    def output_slew(self, input_slew: float, load: float) -> float:
        """Interpolated 20-80 % output transition time (s)."""
        return self.slew_table.evaluate(input_slew, load)

    def evaluate_many(
        self, input_slews: np.ndarray, loads: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`delay` and :meth:`output_slew` of many arcs at once.

        Element ``i`` of each array equals the scalar call at
        ``(input_slews[i], loads[i])`` bitwise (:meth:`NDTable.evaluate_many`).
        """
        coords = np.column_stack((input_slews, loads))
        return self.delay_table.evaluate_many(coords), self.slew_table.evaluate_many(coords)

    def clamped(self, input_slews: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """Mask of the arcs whose input slew or load lies outside the axes
        (their delay and slew are the nearest edge's extrapolation)."""
        return self.delay_table.out_of_range(np.column_stack((input_slews, loads)))


#: Every characterization ramp starts here (s).
_RAMP_START = 100e-12

#: Upper bound on the time after the end of the input ramp (s).  It sizes the
#: time grid; a batch stops as soon as every measured crossing is in, which
#: for every slew and load the libraries characterize comes well inside it.
_SETTLE_TIME = 600e-12


def _crossings_taken(measured: Sequence[Sequence[Tuple[int, float, bool]]], vdd: float):
    """``run_many`` stop predicate: true once every run has made the first
    crossing of each of its measured levels in that level's direction.

    ``measured`` holds one list per run of ``(recorded node, fraction of
    Vdd, rising)`` crossings.  A crossing is counted the way
    :func:`~repro.waveform.metrics.crossing_times` finds one, between two
    samples on either side of ``values < level``, so at the stop every first
    crossing the tables read lies inside the recorded samples.
    """
    columns = np.array([[node for node, _, _ in run] for run in measured])
    levels = np.array([[fraction * vdd for _, fraction, _ in run] for run in measured])
    rising = np.array([[rise for _, _, rise in run] for run in measured])
    rows = np.arange(len(measured))[:, None]
    taken = np.zeros(columns.shape, dtype=bool)

    def stop_when(step: int, times: np.ndarray, voltage_block: np.ndarray) -> bool:
        before = voltage_block[rows, columns, step - 1] < levels
        after = voltage_block[rows, columns, step] < levels
        taken[:] |= np.where(rising, before & ~after, after & ~before)
        return bool(taken.all())

    return stop_when


def _arc_conditions(cell: Cell, pin: str, input_rise: bool) -> Tuple[bool, Dict[str, float]]:
    """``(output_rise, side-pin voltages)`` of one timing arc.  The side
    pins sit at their non-controlling values."""
    if pin not in cell.inputs:
        raise CharacterizationError(f"cell {cell.name!r} has no input pin {pin!r}")
    out_initial = cell.output_for_pin(pin, 0 if input_rise else 1)
    out_final = cell.output_for_pin(pin, 1 if input_rise else 0)
    if out_initial == out_final:
        raise CharacterizationError(
            f"pin {pin!r} of cell {cell.name!r} does not toggle the output for this edge"
        )
    vdd = cell.technology.vdd
    fixed = {
        other: cell.non_controlling_value(other) * vdd for other in cell.inputs if other != pin
    }
    return out_final == 1, fixed


def characterize_nldm_arcs(
    cell: Cell,
    arcs: Optional[Sequence[Tuple[str, bool]]] = None,
    input_slews: Sequence[float] = (20e-12, 50e-12, 100e-12, 200e-12),
    loads: Sequence[float] = (2e-15, 5e-15, 10e-15, 20e-15, 40e-15),
    time_step: float = 1e-12,
) -> Tuple[NLDMTable, ...]:
    """Characterize NLDM timing arcs of one cell against the reference simulator.

    ``arcs`` lists ``(pin, input_rise)`` pairs; by default every input pin
    with both edges, in ``cell.inputs`` order.  The remaining inputs of an
    arc are held at their non-controlling values and the output edge
    direction follows from the cell's logic function.

    Every input slew x arc x load is one run of a single
    :meth:`~repro.spice.transient.TransientAnalysis.run_many` on the time grid
    of the common window 100 ps + ``max(input_slews)`` + 600 ps.  That window
    is an upper bound: the batch stops at the first step by which every run's
    input has crossed 50 % and its output 20, 50 and 80 %, each in the arc's
    direction, so the first crossings the tables read are all in; a run that
    never switches integrates the whole window and raises
    :class:`~repro.exceptions.WaveformError`.  The testbench holds every
    input at DC, and a ramp whose slew is a whole number of ``time_step`` has
    both corners on the base time grid (an end that misses its grid point by
    an ulp snaps to it, :data:`~repro.spice.transient.BREAKPOINT_SNAP`).  With
    such slews the batch runs on the base grid, which is every run's own
    scalar grid, so each table equals the one scalar ``transient_analysis``
    runs per (slew, load) over the common window give, bitwise (a stopped
    run's samples are a prefix of that run's).  An off-grid slew's ramp end
    enters every run's grid.
    """
    if arcs is None:
        arcs = [(pin, rise) for pin in cell.inputs for rise in (True, False)]
    if len(input_slews) < 2 or len(loads) < 2:
        raise CharacterizationError("need at least two input slews and two loads")
    specs = [(pin, rise, *_arc_conditions(cell, pin, rise)) for pin, rise in arcs]
    vdd = cell.technology.vdd

    bench = build_testbench(cell, load_capacitance=loads[0])
    sources = bench.input_source_names
    engine = TransientAnalysis(
        bench.circuit, TransientOptions(time_step=time_step, record_source_currents=False)
    )
    nodes = [*cell.inputs, cell.output]
    # Runs are ordered (slew, arc, load).  Each run's tables read the first
    # crossing of its input at 50 % and of its output at 50, 20 and 80 %.
    stimulus_sets = []
    measured = []
    for input_slew in input_slews:
        for pin, input_rise, output_rise, fixed in specs:
            ramp = SaturatedRamp(
                0.0 if input_rise else vdd,
                vdd if input_rise else 0.0,
                _RAMP_START,
                input_slew,
            )
            stimuli = {sources[pin]: ramp, **{sources[o]: v for o, v in fixed.items()}}
            stimulus_sets.extend([stimuli] * len(loads))
            crossings = [(nodes.index(pin), 0.5, input_rise)] + [
                (nodes.index(cell.output), fraction, output_rise) for fraction in (0.5, 0.2, 0.8)
            ]
            measured.extend([crossings] * len(loads))
    results = engine.run_many(
        stimulus_sets,
        t_stop=_RAMP_START + max(input_slews) + _SETTLE_TIME,
        record_nodes=nodes,
        capacitances=[{bench.load_capacitor_name: load} for load in loads]
        * (len(input_slews) * len(specs)),
        stop_when=_crossings_taken(measured, vdd),
    )
    delays = np.empty((len(specs), len(input_slews), len(loads)))
    slews = np.empty_like(delays)
    for (i, a, j), result in zip(np.ndindex(len(input_slews), len(specs), len(loads)), results):
        pin, input_rise, output_rise, _ = specs[a]
        output_wave = result.waveform(cell.output)
        delays[a, i, j] = propagation_delay(
            result.waveform(pin),
            output_wave,
            vdd,
            input_direction="rise" if input_rise else "fall",
            output_direction="rise" if output_rise else "fall",
        )
        slews[a, i, j] = transition_time(
            output_wave, vdd, direction="rise" if output_rise else "fall"
        )

    slew_axis = Axis("input_slew", tuple(float(s) for s in input_slews))
    load_axis = Axis("load", tuple(float(c) for c in loads))
    return tuple(
        NLDMTable(
            cell_name=cell.name,
            pin=pin,
            input_rise=input_rise,
            output_rise=output_rise,
            delay_table=NDTable((slew_axis, load_axis), delays[a], name=f"{cell.name}.delay[{pin}]"),
            slew_table=NDTable((slew_axis, load_axis), slews[a], name=f"{cell.name}.slew[{pin}]"),
            vdd=vdd,
        )
        for a, (pin, input_rise, output_rise, _) in enumerate(specs)
    )


def characterize_nldm(
    cell: Cell,
    pin: Optional[str] = None,
    input_rise: bool = True,
    input_slews: Sequence[float] = (20e-12, 50e-12, 100e-12, 200e-12),
    loads: Sequence[float] = (2e-15, 5e-15, 10e-15, 20e-15, 40e-15),
    time_step: float = 1e-12,
) -> NLDMTable:
    """Characterize one NLDM timing arc: :func:`characterize_nldm_arcs`
    restricted to ``(pin, input_rise)`` (``pin`` defaults to the first input)."""
    [table] = characterize_nldm_arcs(
        cell, [(pin or cell.inputs[0], input_rise)], input_slews, loads, time_step
    )
    return table
