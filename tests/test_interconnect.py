"""Tests for the RC interconnect and crosstalk bench."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NetlistError
from repro.interconnect import (
    CrosstalkBench,
    CrosstalkConfig,
    RCLineParameters,
    attach_pi_segment,
    attach_rc_line,
    elmore_delay,
)
from repro.spice import Circuit, SaturatedRamp, transient_analysis
from repro.waveform import crossing_time


class TestRCLine:
    def test_parameter_validation(self):
        with pytest.raises(NetlistError):
            RCLineParameters(100.0, 1e-10, length=0.0)
        with pytest.raises(NetlistError):
            RCLineParameters(100.0, 1e-10, length=1e-3, segments=0)

    def test_totals_and_pi_model(self):
        wire = RCLineParameters(resistance_per_length=1e5, capacitance_per_length=1e-10, length=1e-3)
        assert wire.total_resistance == pytest.approx(100.0)
        assert wire.total_capacitance == pytest.approx(1e-13)
        c_near, r, c_far = wire.pi_model()
        assert c_near == pytest.approx(c_far) == pytest.approx(0.5e-13)
        assert r == pytest.approx(100.0)

    def test_attach_rc_line_creates_segments(self):
        circuit = Circuit("wire")
        circuit.add_voltage_source("in", "0", 1.0, name="V1")
        wire = RCLineParameters(1e5, 1e-10, 1e-3, segments=4)
        internal = attach_rc_line(circuit, "in", "out", wire)
        assert len(internal) == 3
        assert circuit.has_node("out")

    def test_rc_line_delay_close_to_elmore(self):
        # A resistive wire driving a lumped load: the simulated 50% delay
        # should be within a factor ~2 of the Elmore estimate (Elmore is the
        # first moment, known to overestimate the 50% point by ~30-40%).
        circuit = Circuit("wire")
        circuit.add_voltage_source("in", "0", SaturatedRamp(0.0, 1.0, 10e-12, 1e-12), name="V1")
        wire = RCLineParameters(resistance_per_length=2e5, capacitance_per_length=2e-10, length=1e-3, segments=8)
        load = 20e-15
        attach_rc_line(circuit, "in", "out", wire)
        circuit.add_capacitor("out", "0", load, name="CL")
        result = transient_analysis(circuit, t_stop=1.2e-9, time_step=2e-12)
        t50 = crossing_time(result.waveform("out"), 0.5, "rise") - 10e-12
        estimate = elmore_delay(wire, load)
        assert 0.3 * estimate < t50 < 1.2 * estimate

    def test_attach_pi_segment(self):
        circuit = Circuit("pi")
        circuit.add_voltage_source("in", "0", 1.0, name="V1")
        attach_pi_segment(circuit, "in", "out", 1e-15, 200.0, 2e-15)
        assert circuit.has_node("out")
        assert circuit.total_capacitance_at("out") == pytest.approx(2e-15)


class TestCrosstalkBench:
    @pytest.fixture(scope="class")
    def bench(self, technology):
        config = CrosstalkConfig(time_step=4e-12, t_stop=2.9e-9, fanout=1)
        return CrosstalkBench(technology, config)

    def test_circuit_structure(self, bench):
        assert bench.circuit.has_node("victim")
        assert bench.circuit.has_node("aggressor")
        assert "CCOUPLE" in bench.circuit
        assert bench.circuit.element("CCOUPLE").capacitance == pytest.approx(50e-15)

    def test_quiet_aggressor_produces_clean_victim(self, bench, technology):
        # Aggressor launched far after the window: the victim waveform should
        # be a clean rising transition.
        result = bench.simulate(injection_time=10e-9)
        victim = bench.victim_waveform(result)
        assert victim.initial_value() == pytest.approx(0.0, abs=0.05)
        assert victim.final_value() == pytest.approx(technology.vdd, abs=0.05)

    def test_aggressor_injects_noise_on_victim(self, bench, technology):
        """An aggressor firing while the victim is quiet must produce a visible
        bump on the victim line (that is the crosstalk noise)."""
        result = bench.simulate(injection_time=1.2e-9)  # before the victim switches
        victim = bench.victim_waveform(result)
        early = victim.window(1.1e-9, 1.8e-9)
        assert early.maximum() > 0.08  # at least ~80 mV of coupled noise

    def test_noise_injection_time_shifts_disturbance(self, bench):
        result_early = bench.simulate(injection_time=1.0e-9)
        result_late = bench.simulate(injection_time=1.6e-9)
        victim_early = bench.victim_waveform(result_early)
        victim_late = bench.victim_waveform(result_late)
        peak_early = victim_early.window(0.9e-9, 1.5e-9).maximum()
        peak_late = victim_late.window(0.9e-9, 1.5e-9).maximum()
        assert peak_early > peak_late  # the disturbance moved out of the window

    def test_output_waveform_settles(self, bench, technology):
        result = bench.simulate(injection_time=2.2e-9)
        output = bench.output_waveform(result)
        # Victim rising -> NOR2 output must end low.
        assert output.final_value() == pytest.approx(0.0, abs=0.08)

    def test_internal_waveform_available(self, bench):
        result = bench.simulate(injection_time=2.2e-9)
        assert bench.internal_waveform(result) is not None

    def test_record_internal_selects_the_internal_node(self, bench):
        """``simulate`` records the bench's named nodes, plus the cell's
        internal node only when ``record_internal`` is set."""
        internal = f"dutint_{bench.cell_under_test.internal_nodes[0]}"
        named = {"victim_in", bench.victim_node, bench.aggressor_node, bench.output_node}
        without = bench.simulate(injection_time=2.2e-9, record_internal=False)
        assert not any(node.startswith("dutint_") for node in without.node_voltages)
        assert named <= set(without.node_voltages)
        with_internal = bench.simulate(injection_time=2.2e-9, record_internal=True)
        assert set(with_internal.node_voltages) == set(without.node_voltages) | {internal}
