"""Generality check: the MCSM flow also works for NAND cells (NMOS stack).

The paper presents the model on a NOR2 gate (PMOS stack) but states that the
concepts apply to any multi-input cell.  These tests characterize the complete
MCSM for a NAND2 gate, whose stack node sits in the NMOS pull-down chain, and
check that the characterized tables and the history behaviour have the right
structure and signs.
"""

from __future__ import annotations

import pytest

from repro.csm import CapacitiveLoad, SimulationOptions
from repro.waveform import Waveform, propagation_delay, ramp_waveform


class TestNandMCSM:
    def test_tables_are_4d(self, nand2_mcsm):
        assert nand2_mcsm.io_table.ndim == 4
        assert nand2_mcsm.in_table.ndim == 4
        assert nand2_mcsm.internal_node == "n1"

    def test_output_current_signs(self, nand2_mcsm):
        vdd = nand2_mcsm.vdd
        # Both inputs high, output held high, stack node low: the NMOS stack
        # conducts and the cell sinks current from the output.
        assert nand2_mcsm.output_current(vdd, vdd, 0.0, vdd) > 10e-6
        # Any input low with the output held low: a PMOS conducts and the cell
        # sources current into the output.
        assert nand2_mcsm.output_current(0.0, vdd, 0.0, 0.0) < -10e-6

    def test_history_sets_stack_node_level(self, nand2_mcsm):
        """'10' leaves the NMOS stack node charged (passed high minus Vt),
        '01' leaves it discharged to ground — the NAND dual of the paper's
        NOR2 observation."""
        vdd = nand2_mcsm.vdd
        _, vn_10 = nand2_mcsm.settle_state({"A": vdd, "B": 0.0}, 5e-15)
        _, vn_01 = nand2_mcsm.settle_state({"A": 0.0, "B": vdd}, 5e-15)
        assert vn_10 > vn_01 + 0.25
        assert vn_01 < 0.3

    def test_falling_output_transition_simulates(self, nand2_mcsm):
        """Both inputs rising ('00' -> '11') must produce a falling output."""
        vdd = nand2_mcsm.vdd
        wave_a = ramp_waveform(0.0, vdd, 0.5e-9, 60e-12, 2e-9, name="A")
        wave_b = ramp_waveform(0.0, vdd, 0.52e-9, 60e-12, 2e-9, name="B")
        result = nand2_mcsm.simulate(
            {"A": wave_a, "B": wave_b},
            CapacitiveLoad(6e-15),
            options=SimulationOptions(time_step=1e-12),
        )
        assert result.output.initial_value() == pytest.approx(vdd, abs=0.08)
        assert result.output.final_value() == pytest.approx(0.0, abs=0.08)
        delay = propagation_delay(
            wave_a, result.output, vdd, input_direction="rise", output_direction="fall"
        )
        assert 1e-12 < delay < 300e-12
