"""Probe benches: cells wired up for characterization measurements.

A :class:`ProbeBench` instantiates a cell with voltage sources on the nodes
being characterized (the switching inputs, the output, and optionally the
internal stack node), plus DC sources on the remaining inputs.  It exposes
methods to re-bias those sources and to measure the current each one delivers,
which is exactly what the DC characterization of ``Io`` / ``I_N`` and the
transient characterization of the capacitances need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..cells.cell import SUPPLY_NODE, Cell
from ..exceptions import CharacterizationError
from ..spice.dc import DCAnalysis
from ..spice.netlist import GROUND, Circuit
from ..spice.sources import Stimulus
from ..spice.transient import TransientAnalysis, TransientOptions
from .config import CharacterizationConfig

__all__ = ["ProbeBench"]


@dataclass
class ProbeBench:
    """A cell surrounded by probing sources for characterization.

    Parameters
    ----------
    cell:
        Cell being characterized.
    switching_pins:
        Input pins that get their own sweepable sources (one for SIS, two for
        MIS characterization).
    fixed_inputs:
        DC values for the remaining input pins.  Pins not listed default to
        their non-controlling value.
    probe_internal:
        When true, the cell's primary stack node is also forced by a source
        (needed for the complete MCSM characterization); when false the
        internal nodes are left floating (baseline / SIS characterization).
    """

    cell: Cell
    switching_pins: Tuple[str, ...]
    fixed_inputs: Dict[str, float] = field(default_factory=dict)
    probe_internal: bool = False
    config: CharacterizationConfig = field(default_factory=CharacterizationConfig)

    circuit: Circuit = field(init=False)
    input_source_names: Dict[str, str] = field(init=False, default_factory=dict)
    output_source_name: str = field(init=False, default="")
    internal_source_name: Optional[str] = field(init=False, default=None)
    internal_node: Optional[str] = field(init=False, default=None)
    _dc: Optional[DCAnalysis] = field(init=False, default=None, repr=False)
    _transient_engines: Dict[float, TransientAnalysis] = field(
        init=False, default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        cell = self.cell
        for pin in self.switching_pins:
            if pin not in cell.inputs:
                raise CharacterizationError(f"cell {cell.name!r} has no input pin {pin!r}")
        vdd = cell.technology.vdd

        resolved_fixed: Dict[str, float] = {}
        for pin in cell.inputs:
            if pin in self.switching_pins:
                continue
            if pin in self.fixed_inputs:
                resolved_fixed[pin] = float(self.fixed_inputs[pin])
            else:
                resolved_fixed[pin] = cell.non_controlling_value(pin) * vdd
        self.fixed_inputs = resolved_fixed

        circuit = Circuit(f"probe_{cell.name}")
        circuit.add_voltage_source(SUPPLY_NODE, GROUND, vdd, name="VDD")
        for pin in cell.inputs:
            initial = 0.0 if pin in self.switching_pins else self.fixed_inputs[pin]
            source = circuit.add_voltage_source(pin, GROUND, initial, name=f"V{pin}")
            self.input_source_names[pin] = source.name
        output_source = circuit.add_voltage_source(cell.output, GROUND, 0.0, name="VOUT")
        self.output_source_name = output_source.name

        self.internal_node = cell.stack_node()
        if self.probe_internal:
            if self.internal_node is None:
                raise CharacterizationError(
                    f"cell {cell.name!r} has no internal stack node to probe"
                )
            internal_source = circuit.add_voltage_source(
                self.internal_node, GROUND, 0.0, name="VN"
            )
            self.internal_source_name = internal_source.name

        port_map = {pin: pin for pin in cell.inputs}
        port_map[cell.output] = cell.output
        port_map[SUPPLY_NODE] = SUPPLY_NODE
        for node in cell.internal_nodes:
            port_map[node] = node
        circuit.merge(cell.circuit, prefix="dut_", node_map=port_map)
        self.circuit = circuit

    # ------------------------------------------------------------------
    # DC measurements
    # ------------------------------------------------------------------
    def _dc_analysis(self) -> DCAnalysis:
        if self._dc is None:
            self._dc = DCAnalysis(self.circuit, gmin=self.config.dc_gmin)
        return self._dc

    def set_bias(
        self,
        pin_voltages: Mapping[str, float],
        output_voltage: float,
        internal_voltage: Optional[float] = None,
    ) -> None:
        """Re-bias the probing sources (no solve is performed)."""
        analysis = self._dc_analysis()
        for pin, value in pin_voltages.items():
            if pin not in self.input_source_names:
                raise CharacterizationError(f"no probing source for pin {pin!r}")
            analysis.set_source_value(self.input_source_names[pin], value)
        analysis.set_source_value(self.output_source_name, output_voltage)
        if internal_voltage is not None:
            if self.internal_source_name is None:
                raise CharacterizationError("this probe bench does not force the internal node")
            analysis.set_source_value(self.internal_source_name, internal_voltage)

    def measure_dc_currents(
        self,
        pin_voltages: Mapping[str, float],
        output_voltage: float,
        internal_voltage: Optional[float] = None,
    ) -> Dict[str, float]:
        """Solve the DC point and return the probing-source currents.

        The returned mapping contains ``"output"`` (the current the output
        source delivers into the output node — the model's ``Io``),
        ``"internal"`` when the internal node is probed (the model's
        ``I_N``), and one entry per input pin (gate leakage, essentially zero
        for this device model, kept for completeness).
        """
        self.set_bias(pin_voltages, output_voltage, internal_voltage)
        op = self._dc_analysis().solve()
        currents: Dict[str, float] = {
            "output": op.source_current(self.output_source_name),
        }
        if self.internal_source_name is not None:
            currents["internal"] = op.source_current(self.internal_source_name)
        for pin, source_name in self.input_source_names.items():
            currents[pin] = op.source_current(source_name)
        return currents

    def measure_dc_current_grid(
        self,
        bias_points: Sequence[Tuple[Mapping[str, float], float, Optional[float]]],
    ) -> List[Dict[str, float]]:
        """Batched variant of :meth:`measure_dc_currents`.

        ``bias_points`` is a sequence of ``(pin_voltages, output_voltage,
        internal_voltage)`` tuples (``internal_voltage`` may be ``None``); all
        points are solved in lockstep through the batched Newton solver and
        the probing-source currents returned per point, in order.
        """
        analysis = self._dc_analysis()
        source_value_sets: List[Dict[str, float]] = []
        for pin_voltages, output_voltage, internal_voltage in bias_points:
            values: Dict[str, float] = {}
            for pin, value in pin_voltages.items():
                if pin not in self.input_source_names:
                    raise CharacterizationError(f"no probing source for pin {pin!r}")
                values[self.input_source_names[pin]] = float(value)
            values[self.output_source_name] = float(output_voltage)
            if internal_voltage is not None:
                if self.internal_source_name is None:
                    raise CharacterizationError(
                        "this probe bench does not force the internal node"
                    )
                values[self.internal_source_name] = float(internal_voltage)
            source_value_sets.append(values)

        operating_points = analysis.solve_grid(source_value_sets)
        results: List[Dict[str, float]] = []
        for op in operating_points:
            currents: Dict[str, float] = {
                "output": op.source_current(self.output_source_name),
            }
            if self.internal_source_name is not None:
                currents["internal"] = op.source_current(self.internal_source_name)
            for pin, source_name in self.input_source_names.items():
                currents[pin] = op.source_current(source_name)
            results.append(currents)
        return results

    # ------------------------------------------------------------------
    # Transient measurements (for capacitance extraction)
    # ------------------------------------------------------------------
    def transient_with_stimuli_many(
        self,
        runs: Sequence[Mapping[str, Union[float, Stimulus]]],
        t_stop: float,
        time_step: Optional[float] = None,
    ):
        """Run several probe transients in lockstep (batched Newton).

        Each entry of ``runs`` maps probe identifiers (input pin names,
        ``"output"``, ``"internal"``) to the stimulus that run applies; probes
        not listed keep their DC bias from the circuit.  All runs share one
        time grid and are integrated simultaneously through
        :meth:`~repro.spice.transient.TransientAnalysis.run_many`; the list of
        results is returned in run order.  This is what makes the two-slope /
        multi-bias capacitance extraction of all of a cell's models one
        simulation per probe circuit.

        ``t_stop`` sizes the time grid, but the batch ends at its first grid
        point past the last capacitance sample,
        ``cap_ramp_settle + cap_sample_fractions[1] * max(cap_ramp_slews)``:
        nothing later is read, and the samples taken are bitwise those of a
        run to ``t_stop``.
        """
        config = self.config
        last_sample = config.cap_ramp_settle + config.cap_sample_fractions[1] * max(
            config.cap_ramp_slews
        )
        step = time_step or config.cap_time_step
        engine = self._transient_engines.get(step)
        if engine is None:
            engine = TransientAnalysis(
                self.circuit,
                TransientOptions(time_step=step, gmin=self.config.dc_gmin),
            )
            self._transient_engines[step] = engine
        stimulus_sets = []
        for run in runs:
            stimulus_sets.append(
                {self.source_name_for(probe): stimulus for probe, stimulus in run.items()}
            )
        return engine.run_many(
            stimulus_sets,
            t_stop=t_stop,
            stop_when=lambda step, times, _: times[step] > last_sample,
        )

    def source_name_for(self, probe: str) -> str:
        """Resolve a probe identifier ('output', 'internal' or a pin name)."""
        if probe == "output":
            return self.output_source_name
        if probe == "internal":
            if self.internal_source_name is None:
                raise CharacterizationError("this probe bench does not force the internal node")
            return self.internal_source_name
        if probe in self.input_source_names:
            return self.input_source_names[probe]
        raise CharacterizationError(f"unknown probe {probe!r}")
