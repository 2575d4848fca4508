"""Tests for the characterization flows (DC tables, capacitances, NLDM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import (
    CharacterizationConfig,
    NLDMTable,
    ProbeBench,
    characterize_nldm,
    characterize_nldm_arcs,
    characterize_sis,
)
from repro.cells import build_testbench
from repro.csm.base import cap_value
from repro.exceptions import CharacterizationError
from repro.spice import SaturatedRamp, TransientOptions, transient_analysis
from repro.sta import TimingModelLibrary
from repro.technology import terminal_capacitances
from repro.waveform.metrics import propagation_delay, transition_time


class TestConfig:
    def test_defaults_valid(self):
        config = CharacterizationConfig()
        assert config.io_grid_points >= 3

    def test_validation(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(io_grid_points=2)
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(voltage_margin=-0.1)
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(cap_ramp_slews=(50e-12, 50e-12))
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(cap_sample_fractions=(0.8, 0.2))
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(miller_other_pin_state="both")

    def test_with_grid_points(self):
        config = CharacterizationConfig().with_grid_points(9)
        assert config.io_grid_points == 9


class TestProbeBench:
    def test_output_current_sign_pulldown(self, nor2, fast_config):
        """With an input at 1 and the output held high, the cell sinks current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        currents = bench.measure_dc_currents({"A": 1.2, "B": 0.0}, output_voltage=1.2)
        assert currents["output"] > 10e-6

    def test_output_current_sign_pullup(self, nor2, fast_config):
        """With inputs at 0 and the output held low, the cell sources current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        currents = bench.measure_dc_currents({"A": 0.0, "B": 0.0}, output_voltage=0.0)
        assert currents["output"] < -10e-6

    def test_output_current_off_state(self, nor2, fast_config):
        """Inputs 0/0 with output at Vdd: the cell is at its stable point, ~no current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        currents = bench.measure_dc_currents({"A": 0.0, "B": 0.0}, output_voltage=1.2)
        assert abs(currents["output"]) < 1e-6

    def test_internal_probe_requires_stack_node(self, inverter, fast_config):
        with pytest.raises(CharacterizationError):
            ProbeBench(cell=inverter, switching_pins=("A",), probe_internal=True, config=fast_config)

    def test_internal_current_discharges_low_node(self, nor2, fast_config):
        """With inputs '01' the stack node is pulled toward |Vt,p|: holding it at
        Vdd must draw a positive (discharging) current."""
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), probe_internal=True, config=fast_config)
        currents = bench.measure_dc_currents({"A": 0.0, "B": 1.2}, output_voltage=0.0, internal_voltage=1.2)
        assert currents["internal"] > 1e-6

    def test_unknown_pin_rejected(self, nor2, fast_config):
        bench = ProbeBench(cell=nor2, switching_pins=("A", "B"), config=fast_config)
        with pytest.raises(CharacterizationError):
            bench.measure_dc_currents({"Z": 0.0}, output_voltage=0.0)

    def test_fixed_inputs_default_to_non_controlling(self, library, fast_config):
        nor3 = library["NOR3_X1"]
        bench = ProbeBench(cell=nor3, switching_pins=("A", "B"), config=fast_config)
        assert bench.fixed_inputs == {"C": 0.0}


class TestCurrentTables:
    def test_mcsm_io_table_axes_and_signs(self, nor2_mcsm, technology):
        table = nor2_mcsm.io_table
        assert table.ndim == 4
        vdd = technology.vdd
        # Pull-down active: inputs high, output high -> cell sinks current.
        assert table.evaluate(vdd, vdd, vdd, vdd) > 10e-6
        # Pull-up active: inputs low, output low, stack node high -> cell sources.
        assert table.evaluate(0.0, 0.0, vdd, 0.0) < -10e-6
        # Stable state: inputs low, output and stack node at Vdd -> ~zero.
        assert abs(table.evaluate(0.0, 0.0, vdd, vdd)) < 2e-6

    def test_mcsm_internal_current_drives_node_to_history_value(self, nor2_mcsm, technology):
        vdd = technology.vdd
        in_table = nor2_mcsm.in_table
        # Inputs '10' (A=1): the stack node is connected to Vdd through the
        # B-gated PMOS, so holding it at 0.3 V sources current into it.
        assert in_table.evaluate(vdd, 0.0, 0.3, 0.0) < -1e-6
        # Inputs '01' (B=1): the node can only discharge toward |Vt,p| through
        # the A-gated PMOS; holding it at Vdd draws a discharging current.
        assert in_table.evaluate(0.0, vdd, vdd, 0.0) > 1e-6

    def test_baseline_io_table_is_3d(self, nor2_baseline_mis):
        assert nor2_baseline_mis.io_table.ndim == 3

    def test_sis_io_table_is_2d(self, nor2_sis):
        assert nor2_sis.io_table.ndim == 2
        # Switching input high with output high: NOR2 pulls down.
        assert nor2_sis.io_table.evaluate(1.2, 1.2) > 10e-6


class TestCapacitances:
    def test_miller_cap_close_to_structural_estimate(self, nor2, nor2_mcsm):
        """CmA should be within a factor ~2 of the sum of gate-drain overlaps of
        the devices whose gate is A and whose drain/source touches the output."""
        structural = 0.0
        for device in nor2.mosfets():
            if device.gate != "A":
                continue
            caps = terminal_capacitances(device.params, device.width, device.length)
            if nor2.output in (device.drain, device.source):
                structural += caps["cgd"]
        measured = cap_value(nor2_mcsm.miller_caps["A"], 0.0, 0.0)
        assert 0.5 * structural < measured < 2.5 * structural

    def test_internal_cap_positive_and_plausible(self, nor2, nor2_mcsm):
        cn = cap_value(nor2_mcsm.internal_cap, 0.0, 0.0, 0.0, 0.0)
        assert cn > 0.5e-15
        assert cn < 30e-15

    def test_input_caps_positive(self, nor2_mcsm):
        for pin in ("A", "B"):
            assert cap_value(nor2_mcsm.input_caps[pin], 0.6) > 0.3e-15

    def test_output_cap_positive(self, nor2_mcsm):
        assert cap_value(nor2_mcsm.output_cap, 0, 0, 0, 0) > 0


class TestModelCharacterizationFlows:
    def test_sis_requires_known_pin(self, nor2, fast_config):
        with pytest.raises(CharacterizationError):
            characterize_sis(nor2, "Z", fast_config)

    def test_mcsm_requires_stack_node(self, inverter, fast_config):
        from repro.characterization import characterize_mcsm

        with pytest.raises(CharacterizationError):
            characterize_mcsm(inverter, config=fast_config)

    def test_baseline_requires_two_pins(self, inverter, fast_config):
        from repro.characterization import characterize_baseline_mis

        with pytest.raises(CharacterizationError):
            characterize_baseline_mis(inverter, config=fast_config)

    def test_mcsm_metadata_and_pins(self, nor2_mcsm):
        assert nor2_mcsm.pins == ("A", "B")
        assert nor2_mcsm.internal_node == "n1"
        assert nor2_mcsm.metadata["grid_points"] == "5"


class TestNLDM:
    @pytest.fixture(scope="class")
    def inv_nldm(self, inverter):
        return characterize_nldm(
            inverter, "A", input_rise=True,
            input_slews=(30e-12, 120e-12), loads=(3e-15, 15e-15),
        )

    def test_arc_direction(self, inv_nldm):
        assert inv_nldm.input_rise is True
        assert inv_nldm.output_rise is False

    def test_delay_increases_with_load(self, inv_nldm):
        assert inv_nldm.delay(60e-12, 15e-15) > inv_nldm.delay(60e-12, 3e-15)

    def test_slew_increases_with_load(self, inv_nldm):
        assert inv_nldm.output_slew(60e-12, 15e-15) > inv_nldm.output_slew(60e-12, 3e-15)

    def test_delays_are_positive(self, inv_nldm):
        for slew in (30e-12, 120e-12):
            for load in (3e-15, 15e-15):
                assert inv_nldm.delay(slew, load) > 0

    def test_requires_multiple_grid_points(self, nor2):
        with pytest.raises(CharacterizationError):
            characterize_nldm(nor2, "A", input_slews=(30e-12,), loads=(3e-15,))

    @pytest.mark.parametrize("cell_name", ["NAND2_X1", "NOR2_X1"])
    def test_cell_arcs_equal_per_arc_scalar_runs_bitwise(self, library, cell_name):
        """The per-cell lockstep batch gives every arc the tables of one
        scalar ``transient_analysis`` per (slew, load) over the batch's common
        window, the 60 ps slew included (its ramp end is a near-duplicate of
        a 1 ps grid point)."""
        cell = library[cell_name]
        vdd = cell.technology.vdd
        slews, loads = (20e-12, 60e-12), (2e-15, 8e-15)
        tables = characterize_nldm_arcs(cell, input_slews=slews, loads=loads)
        assert [(t.pin, t.input_rise) for t in tables] == [
            (pin, rise) for pin in cell.inputs for rise in (True, False)
        ]
        options = TransientOptions(time_step=1e-12, record_source_currents=False)
        for table in tables:
            fixed = {
                other: cell.non_controlling_value(other) * vdd
                for other in cell.inputs
                if other != table.pin
            }
            edge = (0.0, vdd) if table.input_rise else (vdd, 0.0)
            directions = {
                "input_direction": "rise" if table.input_rise else "fall",
                "output_direction": "rise" if table.output_rise else "fall",
            }
            delays = np.empty((len(slews), len(loads)))
            out_slews = np.empty_like(delays)
            for i, slew in enumerate(slews):
                for j, load in enumerate(loads):
                    bench = build_testbench(
                        cell,
                        {table.pin: SaturatedRamp(*edge, 100e-12, slew), **fixed},
                        load_capacitance=load,
                    )
                    result = transient_analysis(
                        bench.circuit, t_stop=100e-12 + max(slews) + 600e-12, options=options
                    )
                    output = result.waveform(cell.output)
                    delays[i, j] = propagation_delay(
                        result.waveform(table.pin), output, vdd, **directions
                    )
                    out_slews[i, j] = transition_time(
                        output, vdd, direction=directions["output_direction"]
                    )
            assert table.delay_table.values.tobytes() == delays.tobytes(), table.pin
            assert table.slew_table.values.tobytes() == out_slews.tobytes(), table.pin

    def test_rows_do_not_depend_on_the_batch(self, library, fast_config, warm_up):
        """A table row is the same bytes whatever slews share its batch (and
        so its window): NAND2_X1's rows characterized at 20/60 ps and at
        20/150 ps equal those of the model library's 20/60/150 ps tables."""
        models = warm_up(TimingModelLibrary(library=library, config=fast_config))
        cell = library["NAND2_X1"]
        assert models.nldm_input_slews == (20e-12, 60e-12, 150e-12)
        for rows in ([0, 1], [0, 2]):
            slews = [models.nldm_input_slews[i] for i in rows]
            for table in characterize_nldm_arcs(cell, input_slews=slews, loads=models.nldm_loads):
                full = models.nldm_table(cell.name, table.pin, table.input_rise)
                assert table.delay_table.values.tobytes() == full.delay_table.values[rows].tobytes()
                assert table.slew_table.values.tobytes() == full.slew_table.values[rows].tobytes()
