"""Tests for the transient analysis engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cells import build_testbench
from repro.exceptions import AnalysisError, ConvergenceError
from repro.spice import (
    Circuit,
    NewtonOptions,
    SaturatedRamp,
    TransientAnalysis,
    TransientOptions,
    dc_operating_point,
    transient_analysis,
)
from repro.spice.elements import Capacitor
from repro.spice.transient import BREAKPOINT_SNAP


def _rc_circuit(resistance=1e3, capacitance=1e-12, step_to=1.0):
    circuit = Circuit("rc")
    circuit.add_voltage_source("in", "0", SaturatedRamp(0.0, step_to, 10e-12, 1e-12), name="VIN")
    circuit.add_resistor("in", "out", resistance)
    circuit.add_capacitor("out", "0", capacitance)
    return circuit


class TestTransientBasics:
    def test_rc_step_response_matches_analytic(self):
        r, c = 1e3, 1e-12
        tau = r * c
        circuit = _rc_circuit(r, c)
        result = transient_analysis(circuit, t_stop=5e-9, time_step=5e-12)
        # Compare against the analytic exponential at a few multiples of tau.
        t0 = 11e-12  # just after the (fast) input step completes
        for multiple in (1.0, 2.0, 3.0):
            t = t0 + multiple * tau
            expected = 1.0 - math.exp(-multiple)
            assert result.voltage_at("out", t) == pytest.approx(expected, abs=0.02)

    def test_final_value_reaches_input(self):
        circuit = _rc_circuit()
        result = transient_analysis(circuit, t_stop=10e-9, time_step=10e-12)
        assert result.final_voltage("out") == pytest.approx(1.0, abs=1e-3)

    def test_capacitor_initial_condition_honoured(self):
        circuit = Circuit("ic")
        circuit.add_voltage_source("in", "0", 0.0, name="VIN")
        circuit.add_resistor("in", "out", 1e3)
        circuit.add_capacitor("out", "0", 1e-12)
        result = transient_analysis(
            circuit, t_stop=8e-9, time_step=10e-12, initial_voltages={"out": 1.0}
        )
        assert result.voltage_trace("out")[0] == pytest.approx(1.0)
        assert result.final_voltage("out") == pytest.approx(0.0, abs=5e-3)

    def test_breakpoints_inserted_into_time_grid(self):
        circuit = _rc_circuit()
        engine = TransientAnalysis(circuit, TransientOptions(time_step=7e-12))
        result = engine.run(t_stop=1e-9)
        # The ramp corner times (10 ps and 11 ps) must be exact grid points.
        assert np.any(np.isclose(result.times, 10e-12))
        assert np.any(np.isclose(result.times, 11e-12))

    def test_invalid_window_rejected(self):
        circuit = _rc_circuit()
        engine = TransientAnalysis(circuit)
        with pytest.raises(AnalysisError):
            engine.run(t_stop=1e-9, t_start=2e-9)

    def test_unknown_record_node_rejected(self):
        circuit = _rc_circuit()
        engine = TransientAnalysis(circuit)
        with pytest.raises(AnalysisError):
            engine.run(t_stop=1e-9, record_nodes=["ghost"])

    def test_record_subset_of_nodes(self):
        circuit = _rc_circuit()
        result = transient_analysis(circuit, t_stop=1e-9, time_step=10e-12, record_nodes=["out"])
        assert "out" in result.node_voltages
        assert "in" not in result.node_voltages

    def test_source_current_charging_capacitor(self):
        # During charging, the source delivers positive current into the RC.
        circuit = _rc_circuit()
        result = transient_analysis(circuit, t_stop=10e-9, time_step=10e-12)
        current = result.current_trace("VIN")
        assert current.max() > 1e-4  # ~ 1 V / 1 kOhm at the start of charging
        assert current[-1] == pytest.approx(0.0, abs=1e-5)

    def test_options_validation(self):
        with pytest.raises(AnalysisError):
            TransientOptions(time_step=0.0)


class TestTransientWithDevices:
    def test_inverter_output_falls_for_rising_input(self, technology):
        circuit = Circuit("inv")
        circuit.add_voltage_source("vdd", "0", technology.vdd, name="VDD")
        circuit.add_voltage_source("in", "0", SaturatedRamp(0.0, technology.vdd, 100e-12, 50e-12), name="VIN")
        circuit.add_mosfet("out", "in", "0", "0", technology.nmos, technology.unit_nmos_width)
        circuit.add_mosfet("out", "in", "vdd", "vdd", technology.pmos, technology.unit_pmos_width)
        circuit.add_capacitor("out", "0", 5e-15)
        result = transient_analysis(circuit, t_stop=600e-12, time_step=2e-12)
        out = result.voltage_trace("out")
        assert out[0] == pytest.approx(technology.vdd, abs=0.01)
        assert out[-1] == pytest.approx(0.0, abs=0.01)

    def test_inverter_delay_increases_with_load(self, technology):
        delays = []
        for load in (5e-15, 20e-15):
            circuit = Circuit(f"inv_{load}")
            circuit.add_voltage_source("vdd", "0", technology.vdd, name="VDD")
            circuit.add_voltage_source(
                "in", "0", SaturatedRamp(0.0, technology.vdd, 100e-12, 50e-12), name="VIN"
            )
            circuit.add_mosfet("out", "in", "0", "0", technology.nmos, technology.unit_nmos_width)
            circuit.add_mosfet("out", "in", "vdd", "vdd", technology.pmos, technology.unit_pmos_width)
            circuit.add_capacitor("out", "0", load)
            result = transient_analysis(circuit, t_stop=1.5e-9, time_step=2e-12)
            waveform = result.waveform("out")
            from repro.waveform import crossing_time

            delays.append(crossing_time(waveform, technology.vdd / 2, "fall"))
        assert delays[1] > delays[0]

    def test_result_slice_window(self, technology):
        circuit = _rc_circuit()
        result = transient_analysis(circuit, t_stop=2e-9, time_step=10e-12)
        window = result.slice(0.5e-9, 1.5e-9)
        assert window.times[0] >= 0.5e-9
        assert window.times[-1] <= 1.5e-9
        assert set(window.node_voltages) == set(result.node_voltages)

    def test_voltage_trace_mismatch_rejected(self):
        from repro.spice.results import TransientResult

        with pytest.raises(AnalysisError):
            TransientResult(times=np.array([0.0, 1.0]), node_voltages={"a": np.array([0.0])})


class TestPerRunCapacitances:
    """``run_many(capacitances=)``: every run equals its batch of one on a
    circuit carrying that run's stimulus and capacitor value (that circuit's
    ``transient_analysis``), bitwise, when the runs share one breakpoint
    set."""

    @pytest.mark.parametrize("slew", [20e-12, 60e-12])
    def test_cell_rows_equal_scalar_runs_bitwise(self, nand2, slew):
        vdd = nand2.technology.vdd
        options = TransientOptions(time_step=1e-12, record_source_currents=False)
        t_stop = 100e-12 + slew + 400e-12
        rows = [(edge, load) for edge in ((0.0, vdd), (vdd, 0.0)) for load in (2e-15, 8e-15, 25e-15)]
        # Pin A sits at DC on the shared bench: its attached stimulus adds
        # no breakpoint the rows do not share.
        bench = build_testbench(nand2, {"B": vdd}, load_capacitance=2e-15)
        results = TransientAnalysis(bench.circuit, options).run_many(
            [{bench.input_source_names["A"]: SaturatedRamp(*edge, 100e-12, slew)} for edge, _ in rows],
            t_stop=t_stop,
            capacitances=[{bench.load_capacitor_name: load} for _, load in rows],
        )
        for (edge, load), result in zip(rows, results):
            alone = build_testbench(
                nand2, {"A": SaturatedRamp(*edge, 100e-12, slew), "B": vdd}, load_capacitance=load
            )
            expected = transient_analysis(alone.circuit, t_stop=t_stop, options=options)
            assert result.times.tobytes() == expected.times.tobytes()
            assert set(result.node_voltages) == set(expected.node_voltages)
            for node, values in expected.node_voltages.items():
                assert result.node_voltages[node].tobytes() == values.tobytes(), (edge, load, node)

    def test_mixed_slew_rows_equal_scalar_runs_bitwise(self, nand2):
        """Rows of 20, 60 and 150 ps in one batch: every ramp corner lies on
        the 1 ps grid (the 60 ps ramp's end an ulp off it), so the batch runs
        on the base grid and no row depends on the slews beside it."""
        vdd = nand2.technology.vdd
        options = TransientOptions(time_step=1e-12, record_source_currents=False)
        t_stop = 100e-12 + 150e-12 + 400e-12
        rise, fall = (0.0, vdd), (vdd, 0.0)
        rows = [
            (20e-12, rise, 2e-15),
            (20e-12, fall, 25e-15),
            (60e-12, rise, 8e-15),
            (60e-12, fall, 2e-15),
            (150e-12, rise, 25e-15),
            (150e-12, fall, 8e-15),
        ]
        bench = build_testbench(nand2, {"B": vdd}, load_capacitance=2e-15)
        results = TransientAnalysis(bench.circuit, options).run_many(
            [{bench.input_source_names["A"]: SaturatedRamp(*edge, 100e-12, slew)} for slew, edge, _ in rows],
            t_stop=t_stop,
            capacitances=[{bench.load_capacitor_name: load} for _, _, load in rows],
        )
        for (slew, edge, load), result in zip(rows, results):
            alone = build_testbench(
                nand2, {"A": SaturatedRamp(*edge, 100e-12, slew), "B": vdd}, load_capacitance=load
            )
            expected = transient_analysis(alone.circuit, t_stop=t_stop, options=options)
            assert result.times.tobytes() == expected.times.tobytes()
            for node, values in expected.node_voltages.items():
                assert result.node_voltages[node].tobytes() == values.tobytes(), (slew, edge, node)

    def test_linear_rows_equal_scalar_runs_bitwise(self):
        capacitances = (0.5e-12, 1e-12, 3e-12)
        options = TransientOptions(time_step=10e-12)
        circuit = _rc_circuit()
        [name] = [e.name for e in circuit.elements if isinstance(e, Capacitor)]
        results = TransientAnalysis(circuit, options).run_many(
            [{}] * len(capacitances), t_stop=5e-9, capacitances=[{name: c} for c in capacitances]
        )
        for capacitance, result in zip(capacitances, results):
            expected = transient_analysis(_rc_circuit(capacitance=capacitance), t_stop=5e-9, options=options)
            assert result.times.tobytes() == expected.times.tobytes()
            assert result.voltage_trace("out").tobytes() == expected.voltage_trace("out").tobytes()

    def test_bad_capacitance_sets_rejected(self):
        circuit = _rc_circuit()
        [name] = [e.name for e in circuit.elements if isinstance(e, Capacitor)]
        engine = TransientAnalysis(circuit, TransientOptions(time_step=10e-12))
        for capacitances in ([{name: 1e-12}], [{"CNONE": 1e-12}] * 2, [{name: 0.0}] * 2):
            with pytest.raises(AnalysisError):
                engine.run_many([{}, {}], t_stop=1e-9, capacitances=capacitances)


class TestInitialSolution:
    """``run_many`` starts every run from the DC point of its own sources."""

    def test_failed_rows_fall_back_to_their_own_dc_points(self, nor2, monkeypatch):
        """Two runs override both inputs of a bench whose attached inputs
        sit at 0 V.  Six Newton iterations are too few from a cold start at
        these mid-rail inputs, and the first batched solve is forced to
        fail besides, so both runs take the gmin-stepped fallback: each
        run's first sample must be the DC point of a circuit that carries
        that run's inputs, bitwise, not the DC point of the attached 0 V."""
        import repro.spice.dc as dc_module

        vdd = nor2.technology.vdd
        newton = NewtonOptions(max_iterations=6)
        rows = [{"VA": 0.5 * vdd, "VB": 0.5 * vdd}, {"VA": 0.6 * vdd, "VB": 0.5 * vdd}]
        real = dc_module.newton_solve_many
        calls = []

        def first_call_fails(assembler, initial, *args, **kwargs):
            calls.append(len(initial))
            if len(calls) == 1:
                error = ConvergenceError("forced")
                error.metadata = {
                    "failed_runs": list(range(len(initial))),
                    "solutions": np.array(initial, dtype=float),
                }
                raise error
            return real(assembler, initial, *args, **kwargs)

        monkeypatch.setattr(dc_module, "newton_solve_many", first_call_fails)
        bench = build_testbench(nor2, {"A": 0.0, "B": 0.0}, fanout=2)
        results = TransientAnalysis(bench.circuit, TransientOptions(newton=newton)).run_many(
            rows, t_stop=5e-12
        )
        for row, result in zip(rows, results):
            alone = build_testbench(nor2, {"A": row["VA"], "B": row["VB"]}, fanout=2)
            op = dc_operating_point(alone.circuit, options=newton)
            for node, trace in result.node_voltages.items():
                assert trace[0] == op.voltage(node), (row, node)
        # The forced batch, then the first gmin stage over both runs.
        assert calls[:2] == [2, 2]


class TestTimeGrid:
    """``_time_grid``, shared by ``run`` and ``run_many``: a breakpoint within
    ``BREAKPOINT_SNAP`` steps of a base grid point adds no point; a truly
    off-grid breakpoint is still inserted."""

    DT = 1e-12
    T_STOP = 850e-12

    def _grids(self, ramp):
        """The grids of two batches of one: ``run`` on a circuit carrying
        ``ramp``, and ``run_many`` overriding a DC source with it."""

        def circuit(stimulus):
            circuit = Circuit("ramp")
            circuit.add_voltage_source("in", "0", stimulus, name="VIN")
            circuit.add_resistor("in", "out", 1e3)
            circuit.add_capacitor("out", "0", 1e-15)
            return circuit

        options = TransientOptions(time_step=self.DT)
        alone = TransientAnalysis(circuit(ramp), options).run(t_stop=self.T_STOP)
        [batched] = TransientAnalysis(circuit(0.0), options).run_many(
            [{"VIN": ramp}], t_stop=self.T_STOP
        )
        return alone.times, batched.times

    def test_ramp_end_an_ulp_off_the_grid_adds_no_point(self):
        ramp = SaturatedRamp(0.0, 1.0, 100e-12, 60e-12)
        base = np.arange(0.0, self.T_STOP + 0.5 * self.DT, self.DT)
        end = ramp.breakpoints()[1]
        # The ramp ends a few 1e-26 s after the 160th base point: a
        # near-duplicate, not a duplicate.
        assert end != base[160] and abs(end - base[160]) < BREAKPOINT_SNAP * self.DT
        for grid in self._grids(ramp):
            assert grid.tobytes() == base.tobytes()
            assert np.diff(grid).min() > 0.5 * self.DT

    def test_off_grid_breakpoints_are_inserted(self):
        ramp = SaturatedRamp(0.0, 1.0, 100.5e-12, 60e-12)
        alone, batched = self._grids(ramp)
        assert alone.tobytes() == batched.tobytes()
        assert len(alone) == len(np.arange(0.0, self.T_STOP + 0.5 * self.DT, self.DT)) + 2
        assert 100.5e-12 in alone and ramp.breakpoints()[1] in alone


class TestStopWhen:
    """``run_many(stop_when=)``: a stopped batch is bitwise a prefix of the
    same batch run to ``t_stop``."""

    T_STOP = 100e-12 + 150e-12 + 400e-12

    def _batch(self, nand2, stop_when=None):
        vdd = nand2.technology.vdd
        bench = build_testbench(nand2, {"B": vdd}, load_capacitance=2e-15)
        rows = [
            (20e-12, (0.0, vdd), 2e-15),
            (60e-12, (vdd, 0.0), 8e-15),
            (150e-12, (0.0, vdd), 25e-15),
        ]
        ramp = bench.input_source_names["A"]
        return TransientAnalysis(bench.circuit, TransientOptions(time_step=1e-12)).run_many(
            [{ramp: SaturatedRamp(*edge, 100e-12, slew)} for slew, edge, _ in rows],
            t_stop=self.T_STOP,
            capacitances=[{bench.load_capacitor_name: load} for _, _, load in rows],
            stop_when=stop_when,
        )

    def test_stopped_batch_is_a_prefix_bitwise(self, nand2):
        full = self._batch(nand2)
        calls = []

        def stop_when(step, times, voltage_block):
            calls.append(step)
            return step == 237

        stopped = self._batch(nand2, stop_when)
        assert calls == list(range(1, 238))
        for ours, theirs in zip(stopped, full):
            assert len(ours.times) == 238
            assert ours.times.tobytes() == theirs.times[:238].tobytes()
            assert set(ours.node_voltages) == set(theirs.node_voltages)
            for node, values in theirs.node_voltages.items():
                assert ours.node_voltages[node].tobytes() == values[:238].tobytes(), node
            assert set(ours.source_currents) == set(theirs.source_currents)
            for source, values in theirs.source_currents.items():
                assert ours.source_currents[source].tobytes() == values[:238].tobytes(), source

    def test_predicate_that_never_fires_equals_none(self, nand2):
        full = self._batch(nand2)
        never = self._batch(nand2, lambda step, times, voltage_block: False)
        for ours, theirs in zip(never, full):
            assert ours.times.tobytes() == theirs.times.tobytes()
            assert ours.times[-1] == self.T_STOP
            for node, values in theirs.node_voltages.items():
                assert ours.node_voltages[node].tobytes() == values.tobytes(), node
            for source, values in theirs.source_currents.items():
                assert ours.source_currents[source].tobytes() == values.tobytes(), source

    def test_nldm_batch_stops_at_its_last_measured_crossing(self, nand2, monkeypatch):
        """A NAND2 NLDM batch of 20 and 60 ps rows ends at the first sample
        past the latest first crossing any row's tables read: the input at
        50 %, the output at 20, 50 and 80 %, each in the arc's direction."""
        from repro.characterization import characterize_nldm_arcs

        calls = []
        run_many = TransientAnalysis.run_many

        def recording_run_many(self, *args, **kwargs):
            results = run_many(self, *args, **kwargs)
            calls.append((self, args, kwargs, results))
            return results

        monkeypatch.setattr(TransientAnalysis, "run_many", recording_run_many)
        characterize_nldm_arcs(nand2, input_slews=(20e-12, 60e-12), loads=(2e-15, 25e-15))
        [(engine, args, kwargs, stopped)] = calls
        full = run_many(engine, *args, **{**kwargs, "stop_when": None})

        vdd = nand2.technology.vdd
        # Runs are ordered (slew, arc, load); arcs are (pin, input edge) in
        # pin order, rise first, and NAND2 inverts every edge.
        arcs = [(pin, rise) for pin in nand2.inputs for rise in (True, False)] * 2
        last = 0
        for run, result in enumerate(full):
            pin, input_rise = arcs[run // 2]
            for node, fraction, rising in [
                (pin, 0.5, input_rise),
                *((nand2.output, f, not input_rise) for f in (0.2, 0.5, 0.8)),
            ]:
                below = result.voltage_trace(node) < fraction * vdd
                crossed = below[:-1] & ~below[1:] if rising else ~below[:-1] & below[1:]
                flips = np.nonzero(crossed)[0]
                last = max(last, flips[0] + 1)
        assert 200 < last < 400
        assert full[0].times[-1] == 100e-12 + 60e-12 + 600e-12
        for ours, theirs in zip(stopped, full):
            assert len(ours.times) == last + 1
            for node, values in theirs.node_voltages.items():
                assert ours.node_voltages[node].tobytes() == values[: last + 1].tobytes(), node
