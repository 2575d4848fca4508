"""Coupled victim/aggressor setup for the crosstalk-noise experiment (Fig. 12).

The paper's setup: input line A of the NOR2 gate under test is coupled to an
aggressor line through a 50 fF coupling capacitance; both the victim and the
aggressor lines are driven by minimum-sized inverters; the NOR2 has an FO2
load; the victim transition arrives at a fixed time while the aggressor
arrival (the noise-injection time) is swept.

:class:`CrosstalkBench` builds the complete transistor-level circuit (victim
driver inverter, aggressor driver inverter, coupling capacitor, NOR2 under
test with its fanout load) and can either simulate it with the reference
simulator or extract the noisy victim waveform to drive a current-source
model with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..cells.builders import build_inverter, build_nor
from ..cells.cell import SUPPLY_NODE, Cell
from ..cells.testbench import attach_fanout_inverters
from ..exceptions import NetlistError
from ..spice.netlist import GROUND, Circuit
from ..spice.sources import SaturatedRamp
from ..spice.transient import TransientOptions, transient_analysis, transient_analysis_many
from ..technology.process import Technology
from ..waveform.waveform import Waveform
from .rc_line import RCLineParameters, attach_rc_line

__all__ = ["CrosstalkConfig", "CrosstalkBench"]


@dataclass(frozen=True)
class CrosstalkConfig:
    """Parameters of the victim/aggressor experiment.

    Defaults follow Section 4 of the paper: a 50 fF coupling capacitance,
    minimum-sized driver inverters, victim arrival fixed at 2.2 ns, FO2 load
    on the NOR2 under test.
    """

    coupling_capacitance: float = 50e-15
    victim_arrival: float = 2.2e-9
    victim_transition: float = 60e-12
    aggressor_transition: float = 60e-12
    victim_rising: bool = True
    aggressor_rising: bool = True
    fanout: int = 2
    line_capacitance: float = 5e-15
    driver_drive: float = 1.0
    t_stop: float = 3.2e-9
    time_step: float = 2e-12


@dataclass
class CrosstalkBench:
    """The coupled victim/aggressor circuit around a NOR2 cell under test."""

    technology: Technology
    config: CrosstalkConfig = field(default_factory=CrosstalkConfig)
    cell_under_test: Optional[Cell] = None

    circuit: Circuit = field(init=False)
    victim_node: str = field(init=False, default="victim")
    aggressor_node: str = field(init=False, default="aggressor")
    output_node: str = field(init=False, default="out")
    quiet_input_node: str = field(init=False, default="B")

    def __post_init__(self) -> None:
        config = self.config
        technology = self.technology
        vdd = technology.vdd
        cell = self.cell_under_test or build_nor(technology, 2)
        if cell.num_inputs < 2:
            raise NetlistError("the crosstalk bench needs a cell with at least two inputs")
        self.cell_under_test = cell

        circuit = Circuit("crosstalk_bench")
        circuit.add_voltage_source(SUPPLY_NODE, GROUND, vdd, name="VDD")

        # Victim driver: minimum-sized inverter whose input falls so its
        # output (the victim line) rises at the configured arrival time.
        victim_in_initial = vdd if config.victim_rising else 0.0
        victim_in_final = 0.0 if config.victim_rising else vdd
        circuit.add_voltage_source(
            "victim_in",
            GROUND,
            SaturatedRamp(victim_in_initial, victim_in_final, config.victim_arrival, config.victim_transition),
            name="VVICTIM",
        )
        victim_driver = build_inverter(technology, config.driver_drive)
        circuit.merge(
            victim_driver.circuit,
            prefix="vdrv_",
            node_map={"A": "victim_in", "out": self.victim_node, SUPPLY_NODE: SUPPLY_NODE},
        )
        circuit.add_capacitor(self.victim_node, GROUND, config.line_capacitance, name="CVLINE")

        # Aggressor driver and line.
        self._aggressor_source = circuit.add_voltage_source(
            "aggressor_in", GROUND, vdd if config.aggressor_rising else 0.0, name="VAGG"
        )
        aggressor_driver = build_inverter(technology, config.driver_drive)
        circuit.merge(
            aggressor_driver.circuit,
            prefix="adrv_",
            node_map={"A": "aggressor_in", "out": self.aggressor_node, SUPPLY_NODE: SUPPLY_NODE},
        )
        circuit.add_capacitor(self.aggressor_node, GROUND, config.line_capacitance, name="CALINE")

        # Coupling between victim and aggressor lines.
        circuit.add_capacitor(
            self.victim_node, self.aggressor_node, config.coupling_capacitance, name="CCOUPLE"
        )

        # Cell under test: victim line drives input A, input B held quiet at
        # its non-controlling value, FO-k load of real inverters at the output.
        quiet_value = cell.non_controlling_value(cell.inputs[1]) * vdd
        circuit.add_voltage_source(self.quiet_input_node, GROUND, quiet_value, name="VB")
        node_map = {
            cell.inputs[0]: self.victim_node,
            cell.inputs[1]: self.quiet_input_node,
            cell.output: self.output_node,
            SUPPLY_NODE: SUPPLY_NODE,
        }
        for node in cell.internal_nodes:
            node_map[node] = f"dutint_{node}"
        circuit.merge(cell.circuit, prefix="dut_", node_map=node_map)
        if config.fanout > 0:
            attach_fanout_inverters(circuit, self.output_node, technology, config.fanout)

        self.circuit = circuit

    # ------------------------------------------------------------------
    def set_noise_injection_time(self, injection_time: float) -> None:
        """Set the aggressor driver's input arrival time (the swept variable)."""
        config = self.config
        vdd = self.technology.vdd
        initial = vdd if config.aggressor_rising else 0.0
        final = 0.0 if config.aggressor_rising else vdd
        self._aggressor_source.stimulus = SaturatedRamp(
            initial, final, injection_time, config.aggressor_transition
        )

    def simulate(self, injection_time: float, record_internal: bool = True):
        """Run the reference simulation for one noise-injection time."""
        self.set_noise_injection_time(injection_time)
        record = ["victim_in", self.victim_node, self.aggressor_node, self.output_node, self.quiet_input_node]
        assert self.cell_under_test is not None
        if record_internal and self.cell_under_test.internal_nodes:
            record.append(f"dutint_{self.cell_under_test.internal_nodes[0]}")
        options = TransientOptions(
            time_step=self.config.time_step, record_source_currents=False
        )
        return transient_analysis(
            self.circuit, t_stop=self.config.t_stop, record_nodes=record, options=options
        )

    def simulate_many(self, injection_times: Sequence[float]):
        """Reference simulations for a whole injection-time sweep, in lockstep.

        Every sweep point drives the same circuit and differs only in the
        aggressor launch time, so the batched transient engine integrates all
        of them simultaneously.  Returns one result per injection time.
        """
        config = self.config
        vdd = self.technology.vdd
        initial = vdd if config.aggressor_rising else 0.0
        final = 0.0 if config.aggressor_rising else vdd
        stimulus_sets = [
            {
                self._aggressor_source.name: SaturatedRamp(
                    initial, final, float(t), config.aggressor_transition
                )
            }
            for t in injection_times
        ]
        options = TransientOptions(
            time_step=config.time_step, record_source_currents=False
        )
        return transient_analysis_many(
            self.circuit, stimulus_sets, t_stop=config.t_stop, options=options
        )

    def victim_waveform(self, result) -> Waveform:
        """The (noisy) victim-line waveform, i.e. the input seen by the cell."""
        return result.waveform(self.victim_node).renamed("A")

    def quiet_waveform(self, result) -> Waveform:
        """The quiet-input waveform (a constant at the non-controlling value)."""
        return result.waveform(self.quiet_input_node).renamed("B")

    def output_waveform(self, result) -> Waveform:
        return result.waveform(self.output_node)

    def internal_waveform(self, result) -> Optional[Waveform]:
        assert self.cell_under_test is not None
        if not self.cell_under_test.internal_nodes:
            return None
        node = f"dutint_{self.cell_under_test.internal_nodes[0]}"
        return result.waveform(node)
