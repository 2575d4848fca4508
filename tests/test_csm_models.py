"""Tests for the current-source models, loads and the waveform integrator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csm import (
    CapacitiveLoad,
    CompositeLoad,
    PiLoad,
    ReceiverLoad,
    SelectiveModel,
    SelectiveModelPolicy,
    SimulationOptions,
    as_load,
    cap_value,
    common_time_window,
)
from repro.csm.simulate import BatchUnit, integrate_model_many
from repro.exceptions import ModelError
from repro.lut import Axis, NDTable
from repro.waveform import Waveform, crossing_time, propagation_delay
from repro.waveform.builders import pattern_waveforms
from repro.experiments.common import nor2_history_patterns, HISTORY_LABELS


class TestLoads:
    def test_capacitive_load(self):
        load = CapacitiveLoad(5e-15)
        assert load.effective_capacitance(0.6) == 5e-15
        assert load.extra_current(0.6, 0.0) == 0.0
        assert load.total_capacitance_estimate() == 5e-15

    def test_capacitive_load_rejects_negative(self):
        with pytest.raises(ModelError):
            CapacitiveLoad(-1e-15)

    def test_receiver_load_with_table(self):
        axis = Axis("V", (0.0, 1.2))
        table = NDTable((axis,), np.array([1e-15, 3e-15]), name="cin")
        load = ReceiverLoad(receiver_caps=[table, 2e-15], wire_capacitance=1e-15)
        assert load.effective_capacitance(0.0) == pytest.approx(4e-15)
        assert load.effective_capacitance(1.2) == pytest.approx(6e-15)

    def test_pi_load_state_evolution(self):
        load = PiLoad(c_near=1e-15, resistance=1e3, c_far=5e-15)
        load.reset()
        assert load.far_voltage == 0.0
        # Driving the near end at 1 V charges the far capacitor over time.
        for _ in range(2000):
            load.extra_current(1.0, 0.0)
            load.advance(1.0, 1e-12)
        assert load.far_voltage == pytest.approx(1.0, abs=0.05)
        assert load.total_capacitance_estimate() == pytest.approx(6e-15)

    def test_pi_load_validation(self):
        with pytest.raises(ModelError):
            PiLoad(c_near=1e-15, resistance=0.0, c_far=1e-15)

    def test_composite_load_sums(self):
        load = CompositeLoad(loads=[CapacitiveLoad(1e-15), CapacitiveLoad(2e-15)])
        assert load.effective_capacitance(0.0) == pytest.approx(3e-15)

    def test_as_load_coercion(self):
        assert isinstance(as_load(5e-15), CapacitiveLoad)
        load = CapacitiveLoad(1e-15)
        assert as_load(load) is load
        with pytest.raises(ModelError):
            as_load("heavy")


class TestSimulationOptions:
    def test_validation(self):
        with pytest.raises(ModelError):
            SimulationOptions(time_step=0.0)
        with pytest.raises(ModelError):
            SimulationOptions(settle_time=-1.0)

    def test_common_time_window(self):
        a = Waveform.constant(0.0, 0.0, 2e-9)
        b = Waveform.constant(0.0, 1e-9, 3e-9)
        assert common_time_window({"a": a, "b": b}) == (1e-9, 2e-9)
        with pytest.raises(ModelError):
            common_time_window({})


class TestSISModel:
    def test_settles_to_correct_logic_levels(self, nor2_sis):
        vdd = nor2_sis.vdd
        options = SimulationOptions(time_step=2e-12)
        low_in = Waveform.constant(0.0, 0.0, 1e-9)
        high_in = Waveform.constant(vdd, 0.0, 1e-9)
        assert nor2_sis.simulate(low_in, 5e-15, options=options).output.final_value() == pytest.approx(vdd, abs=0.05)
        assert nor2_sis.simulate(high_in, 5e-15, options=options).output.final_value() == pytest.approx(0.0, abs=0.05)

    def test_output_transitions_for_input_edge(self, nor2_sis):
        vdd = nor2_sis.vdd
        from repro.waveform import ramp_waveform

        wave = ramp_waveform(vdd, 0.0, 0.5e-9, 60e-12, 2e-9)
        result = nor2_sis.simulate(wave, CapacitiveLoad(5e-15), options=SimulationOptions(time_step=1e-12))
        assert result.output.initial_value() == pytest.approx(0.0, abs=0.05)
        assert result.output.final_value() == pytest.approx(vdd, abs=0.05)
        delay = propagation_delay(wave, result.output, vdd, input_direction="fall", output_direction="rise")
        assert 2e-12 < delay < 300e-12

    def test_delay_increases_with_load(self, nor2_sis):
        vdd = nor2_sis.vdd
        from repro.waveform import ramp_waveform

        wave = ramp_waveform(vdd, 0.0, 0.5e-9, 60e-12, 2.5e-9)
        delays = []
        for load in (3e-15, 20e-15):
            result = nor2_sis.simulate(wave, CapacitiveLoad(load), options=SimulationOptions(time_step=1e-12))
            delays.append(
                propagation_delay(wave, result.output, vdd, input_direction="fall", output_direction="rise")
            )
        assert delays[1] > delays[0]

    def test_input_capacitance_query(self, nor2_sis):
        assert nor2_sis.input_capacitance(0.6) > 0.3e-15


class TestMCSMModel:
    def test_settle_state_reflects_history(self, nor2_mcsm):
        """The '10' input state must leave the internal node near Vdd, while the
        '01' state leaves it near |Vt,p| — the core stack-effect observation."""
        vdd = nor2_mcsm.vdd
        _, vn_10 = nor2_mcsm.settle_state({"A": vdd, "B": 0.0}, 5e-15)
        _, vn_01 = nor2_mcsm.settle_state({"A": 0.0, "B": vdd}, 5e-15)
        assert vn_10 > 0.8 * vdd
        assert vn_01 < 0.6 * vdd
        assert vn_10 - vn_01 > 0.3

    def test_history_changes_delay(self, nor2_mcsm):
        """Simulating the two histories through the MCSM must give different
        delays for the same final '11'->'00' transition (faster when the node
        was precharged to Vdd)."""
        vdd = nor2_mcsm.vdd
        options = SimulationOptions(time_step=1e-12)
        patterns = nor2_history_patterns()
        delays = {}
        for label, pattern_set in patterns.items():
            waves = pattern_waveforms(pattern_set, vdd, 3e-9)
            result = nor2_mcsm.simulate(waves, CapacitiveLoad(6e-15), options=options)
            delays[label] = propagation_delay(
                waves["A"], result.output, vdd, input_direction="fall", output_direction="rise"
            )
        assert delays[HISTORY_LABELS[1]] > delays[HISTORY_LABELS[0]] + 1e-12

    def test_baseline_is_history_blind(self, nor2_baseline_mis):
        """The baseline MIS model (no internal node) must predict identical
        delays for the two histories — that is exactly its documented flaw."""
        vdd = nor2_baseline_mis.vdd
        options = SimulationOptions(time_step=1e-12)
        patterns = nor2_history_patterns()
        delays = []
        for pattern_set in patterns.values():
            waves = pattern_waveforms(pattern_set, vdd, 3e-9)
            result = nor2_baseline_mis.simulate(waves, CapacitiveLoad(6e-15), options=options)
            delays.append(
                propagation_delay(waves["A"], result.output, vdd, input_direction="fall", output_direction="rise")
            )
        assert delays[0] == pytest.approx(delays[1], abs=0.5e-12)

    def test_internal_waveform_returned(self, nor2_mcsm):
        vdd = nor2_mcsm.vdd
        patterns = nor2_history_patterns()
        waves = pattern_waveforms(patterns[HISTORY_LABELS[0]], vdd, 3e-9)
        result = nor2_mcsm.simulate(waves, 6e-15, options=SimulationOptions(time_step=2e-12))
        assert result.internal is not None
        assert len(result.internal) == len(result.output)
        # During the '11' phase the internal node stays high for this history.
        assert result.internal.value_at(1.8e-9) > 0.8 * vdd

    def test_missing_input_waveform_rejected(self, nor2_mcsm):
        with pytest.raises(ModelError):
            nor2_mcsm.simulate({"A": Waveform.constant(0.0, 0.0, 1e-9)}, 5e-15)

    def test_unknown_input_cap_pin_rejected(self, nor2_mcsm):
        with pytest.raises(ModelError):
            nor2_mcsm.input_capacitance("Z", 0.5)

    def test_explicit_initial_conditions_respected(self, nor2_mcsm):
        vdd = nor2_mcsm.vdd
        waves = {
            "A": Waveform.constant(0.0, 0.0, 0.5e-9),
            "B": Waveform.constant(0.0, 0.0, 0.5e-9),
        }
        result = nor2_mcsm.simulate(
            waves, 5e-15, initial_output=0.0, initial_internal=0.2,
            options=SimulationOptions(time_step=2e-12),
        )
        assert result.output.initial_value() == pytest.approx(0.0, abs=1e-9)
        assert result.internal.initial_value() == pytest.approx(0.2, abs=1e-9)
        # With both inputs low the output must charge toward Vdd.
        assert result.output.final_value() > 0.8 * vdd

    def test_batch_unit_without_internal_cap_rejected(self, nor2_mcsm):
        """The batch entry validates an internal-node unit like the single
        entry does: ``ModelError``, not a bare assertion."""
        unit = BatchUnit(
            pins=nor2_mcsm.pins,
            input_waveforms={pin: Waveform.constant(0.0, 0.0, 0.5e-9) for pin in nor2_mcsm.pins},
            output_current=nor2_mcsm.io_table,
            miller_caps=dict(nor2_mcsm.miller_caps),
            output_cap=nor2_mcsm.output_cap,
            load=CapacitiveLoad(5e-15),
            vdd=nor2_mcsm.vdd,
            initial_output=0.6,
            internal_current=nor2_mcsm.in_table,
            initial_internal=0.6,
        )
        with pytest.raises(ModelError, match="internal_cap"):
            integrate_model_many([unit], SimulationOptions(time_step=2e-12), 0.0, 0.5e-9)

    def test_output_stays_within_clip_margin(self, nor2_mcsm):
        vdd = nor2_mcsm.vdd
        patterns = nor2_history_patterns()
        waves = pattern_waveforms(patterns[HISTORY_LABELS[0]], vdd, 3e-9)
        options = SimulationOptions(time_step=1e-12, clip_margin=0.25)
        result = nor2_mcsm.simulate(waves, 4e-15, options=options)
        assert result.output.maximum() <= vdd + 0.25 + 1e-9
        assert result.output.minimum() >= -0.25 - 1e-9


class TestMillerAblation:
    def test_disabling_miller_changes_waveform(self, nor2_baseline_mis):
        """Removing the Miller caps (as [7] does) must visibly change the
        predicted waveform during fast input edges."""
        import dataclasses

        vdd = nor2_baseline_mis.vdd
        no_miller = dataclasses.replace(nor2_baseline_mis, include_miller=False)
        patterns = nor2_history_patterns(transition_time=30e-12)
        waves = pattern_waveforms(patterns[HISTORY_LABELS[0]], vdd, 3e-9)
        options = SimulationOptions(time_step=1e-12)
        with_miller = nor2_baseline_mis.simulate(waves, 4e-15, options=options)
        without_miller = no_miller.simulate(waves, 4e-15, options=options)
        from repro.waveform import rmse

        assert rmse(with_miller.output, without_miller.output) > 5e-3

        # Both share the current table but not the Miller caps: one batch
        # must give each model its own caps, bitwise its solo integration.
        units = [
            BatchUnit(
                pins=model.pins,
                input_waveforms=waves,
                output_current=model.io_table,
                miller_caps=model.effective_miller_caps(),
                output_cap=model.output_cap,
                load=CapacitiveLoad(4e-15),
                vdd=vdd,
                initial_output=solo.output.initial_value(),
            )
            for model, solo in ((nor2_baseline_mis, with_miller), (no_miller, without_miller))
        ]
        times = with_miller.output.times
        _, batched = integrate_model_many(units, options, times[0], times[-1])
        for (v_out, _), solo in zip(batched, (with_miller, without_miller)):
            assert v_out.tobytes() == solo.output.values.tobytes()


class TestSelectiveModel:
    def test_policy_threshold(self):
        policy = SelectiveModelPolicy(load_ratio_threshold=4.0)
        assert policy.use_complete_model(load_capacitance=3e-15, internal_reference=1e-15)
        assert not policy.use_complete_model(load_capacitance=10e-15, internal_reference=1e-15)
        assert not policy.use_complete_model(load_capacitance=1e-15, internal_reference=0.0)

    def test_select_by_load(self, nor2_mcsm, nor2_baseline_mis):
        selective = SelectiveModel(complete=nor2_mcsm, baseline=nor2_baseline_mis)
        reference = selective.internal_reference_capacitance()
        light = selective.select(CapacitiveLoad(0.5 * reference))
        heavy = selective.select(CapacitiveLoad(100 * reference))
        assert light is nor2_mcsm
        assert heavy is nor2_baseline_mis

    def test_simulate_records_choice(self, nor2_mcsm, nor2_baseline_mis):
        selective = SelectiveModel(complete=nor2_mcsm, baseline=nor2_baseline_mis)
        vdd = nor2_mcsm.vdd
        patterns = nor2_history_patterns()
        waves = pattern_waveforms(patterns[HISTORY_LABELS[0]], vdd, 3e-9)
        result = selective.simulate(waves, CapacitiveLoad(2e-15), options=SimulationOptions(time_step=2e-12))
        assert result.metadata["selected_model"] == "MCSM"

    def test_mismatched_cells_rejected(self, nor2_mcsm, nor2_baseline_mis):
        import dataclasses

        other = dataclasses.replace(nor2_baseline_mis, cell_name="NAND2_X1")
        with pytest.raises(ModelError):
            SelectiveModel(complete=nor2_mcsm, baseline=other)


class TestCapValue:
    def test_scalar_and_table(self):
        assert cap_value(2e-15, 0.5) == 2e-15
        axis = Axis("V", (0.0, 1.0))
        table = NDTable((axis,), np.array([1e-15, 2e-15]))
        assert cap_value(table, 0.5) == pytest.approx(1.5e-15)
        with pytest.raises(ModelError):
            cap_value(table)
