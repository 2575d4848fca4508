"""Equivalence tests for the vectorized evaluation core.

The batched/vectorized paths (LUT batch interpolation, leading-axis
contraction, the MOSFET bank, and the fast CSM integrator) must reproduce
their scalar counterparts pointwise; these property-style tests drive them
with randomized tables and coordinates, including clamped-extrapolation
queries and axis-edge points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.csm.base import SimulationOptions, cap_value, cap_value_batch
from repro.csm.loads import CapacitiveLoad, CompositeLoad, PiLoad, ReceiverLoad
from repro.csm.simulate import integrate_model
from repro.exceptions import TableError
from repro.lut.grid import Axis, voltage_axis
from repro.characterization.nldm import NLDMTable
from repro.lut.table import NDTable, tabulate
from repro.technology.mosfet import (
    MosfetBank,
    MosfetParams,
    drain_current_scaled_and_derivatives,
    evaluate_many,
)
from repro.waveform.waveform import Waveform


def _random_table(rng: np.random.Generator, ndim: int, points_per_axis: int = 5) -> NDTable:
    axes = []
    for dim in range(ndim):
        start = rng.uniform(-2.0, 0.0)
        span = rng.uniform(0.5, 3.0)
        raw = np.sort(rng.uniform(start, start + span, points_per_axis))
        raw[1:] += np.arange(1, points_per_axis) * 1e-6  # ensure strictly increasing
        axes.append(Axis(name=f"x{dim}", points=tuple(raw)))
    values = rng.normal(size=tuple(len(a) for a in axes))
    return NDTable(axes, values, name=f"random{ndim}d")


def _query_points(rng: np.random.Generator, table: NDTable, count: int) -> np.ndarray:
    """Random queries: interior, clamped-outside, and exact axis-edge points."""
    coords = np.empty((count, table.ndim))
    for dim, axis in enumerate(table.axes):
        width = axis.upper - axis.lower
        coords[:, dim] = rng.uniform(axis.lower - 0.5 * width, axis.upper + 0.5 * width, count)
    # Overwrite some rows with exact grid/edge coordinates.
    for row in range(0, count, 5):
        for dim, axis in enumerate(table.axes):
            coords[row, dim] = rng.choice(axis.points)
    coords[0] = [axis.lower for axis in table.axes]
    coords[1] = [axis.upper for axis in table.axes]
    return coords


class TestEvaluateBatchEquivalence:
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_matches_scalar_pointwise(self, ndim):
        rng = np.random.default_rng(42 + ndim)
        for _ in range(3):
            table = _random_table(rng, ndim)
            coords = _query_points(rng, table, 120)
            batch = table.evaluate_batch(coords)
            scalar = np.array([table.evaluate(*row) for row in coords])
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)

    def test_one_dimensional_vector_input(self):
        table = NDTable((Axis("x", (0.0, 1.0, 2.0)),), np.array([0.0, 1.0, 4.0]))
        out = table.evaluate_batch(np.array([-1.0, 0.5, 1.5, 3.0]))
        expected = [table.evaluate(v) for v in (-1.0, 0.5, 1.5, 3.0)]
        np.testing.assert_allclose(out, expected)

    def test_shape_validation(self):
        table = _random_table(np.random.default_rng(0), 2)
        with pytest.raises(TableError):
            table.evaluate_batch(np.zeros((4, 3)))

    def test_contract_leading_matches_scalar(self):
        rng = np.random.default_rng(7)
        table = _random_table(rng, 4)
        coords = _query_points(rng, table, 40)
        reduced = table.contract_leading(coords[:, :2])
        for row in range(0, 40, 7):
            sub = reduced[row]
            for i, vn in enumerate(table.axes[2].points):
                for j, vo in enumerate(table.axes[3].points):
                    expected = table.evaluate(coords[row, 0], coords[row, 1], vn, vo)
                    assert sub[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestNLDMArcInterpolation:
    """The NLDM engine's batched arc interpolation is bitwise the scalar one.

    ``evaluate_many`` (and :meth:`NLDMTable.evaluate_many` on top of it) must
    equal :meth:`NDTable.evaluate` exactly, not to a tolerance: the engine's
    events, MIS pairs and propagation keys depend on it.  Queries cover the
    interior, the axis points and both clamped sides of both axes.
    """

    SLEWS = (20e-12, 50e-12, 100e-12, 200e-12)
    LOADS = (2e-15, 5e-15, 10e-15, 20e-15, 40e-15)

    @staticmethod
    def _queries(rng, count):
        slews = rng.uniform(0.0, 300e-12, count)
        loads = rng.uniform(0.0, 60e-15, count)
        on_axis = rng.random(count) < 0.1
        slews[on_axis] = rng.choice(TestNLDMArcInterpolation.SLEWS, on_axis.sum())
        loads[on_axis] = rng.choice(TestNLDMArcInterpolation.LOADS, on_axis.sum())
        return slews, loads

    def _table(self, rng, name):
        axes = (Axis("input_slew", self.SLEWS), Axis("load", self.LOADS))
        return NDTable(axes, rng.uniform(5e-12, 400e-12, (4, 5)), name=name)

    def test_evaluate_many_equals_scalar_bitwise(self):
        rng = np.random.default_rng(2021)
        slews, loads = self._queries(rng, 20_000)
        assert (slews < self.SLEWS[0]).any() and (slews > self.SLEWS[-1]).any()
        assert (loads < self.LOADS[0]).any() and (loads > self.LOADS[-1]).any()
        for index in range(3):
            table = self._table(rng, f"arc{index}")
            batch = table.evaluate_many(np.column_stack((slews, loads)))
            scalar = np.array([table.evaluate(s, c) for s, c in zip(slews, loads)])
            assert batch.tobytes() == scalar.tobytes()

    def test_nldm_table_arcs_equal_delay_and_output_slew(self):
        rng = np.random.default_rng(7)
        arc = NLDMTable(
            cell_name="INV_X1",
            pin="A",
            input_rise=True,
            output_rise=False,
            delay_table=self._table(rng, "delay"),
            slew_table=self._table(rng, "slew"),
            vdd=1.2,
        )
        slews, loads = self._queries(rng, 2_000)
        delays, out_slews = arc.evaluate_many(slews, loads)
        assert delays.tolist() == [arc.delay(s, c) for s, c in zip(slews, loads)]
        assert out_slews.tolist() == [arc.output_slew(s, c) for s, c in zip(slews, loads)]
        clamped = arc.clamped(slews, loads)
        outside = [
            not (self.SLEWS[0] <= s <= self.SLEWS[-1] and self.LOADS[0] <= c <= self.LOADS[-1])
            for s, c in zip(slews, loads)
        ]
        assert clamped.tolist() == outside


class TestVectorizedTabulate:
    def test_matches_scalar_sampling(self):
        axes = (Axis("a", (0.0, 1.0, 2.0)), Axis("b", (0.0, 0.5, 1.0, 1.5)))
        scalar = tabulate(lambda a, b: a * a + 3.0 * b, axes, name="s")
        batched = tabulate(lambda a, b: a * a + 3.0 * b, axes, name="v", vectorized=True)
        np.testing.assert_allclose(batched.values, scalar.values)

    def test_wrong_result_shape_rejected(self):
        axes = (Axis("a", (0.0, 1.0, 2.0)),)
        with pytest.raises(TableError):
            tabulate(lambda a: np.zeros(5), axes, vectorized=True)


class TestCapValueBatch:
    def test_scalar_capacitance_broadcasts(self):
        out = cap_value_batch(3e-15, np.zeros((7, 2)))
        np.testing.assert_allclose(out, 3e-15)

    def test_table_capacitance_uses_leading_coords(self):
        rng = np.random.default_rng(3)
        table = _random_table(rng, 1)
        coords = rng.uniform(-1, 1, size=(30, 3))
        batch = cap_value_batch(table, coords)
        scalar = [cap_value(table, *row) for row in coords]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)


class TestMosfetBankEquivalence:
    def _params(self, polarity):
        return MosfetParams(
            polarity=polarity,
            vt0=0.3,
            kp=120e-6 if polarity > 0 else 50e-6,
            slope_factor=1.35,
            channel_length_modulation=0.08,
            cox_per_area=8e-3,
            overlap_cap_per_width=0.25e-9,
            junction_cap_per_width=0.6e-9,
            default_length=130e-9,
        )

    def test_matches_scalar_model(self):
        rng = np.random.default_rng(11)
        devices = [
            (self._params(+1), 1.0e-6, 130e-9),
            (self._params(-1), 2.0e-6, 130e-9),
            (self._params(+1), 0.5e-6, 200e-9),
        ]
        bank = MosfetBank(devices)
        for _ in range(20):
            vg, vd, vs, vb = rng.uniform(-0.3, 1.5, size=(4, len(devices)))
            current, derivs = bank.evaluate(vg, vd, vs, vb)
            for m, (params, width, length) in enumerate(devices):
                ref_i, ref_d = drain_current_scaled_and_derivatives(
                    params, width, length, vg[m], vd[m], vs[m], vb[m]
                )
                assert current[m] == pytest.approx(ref_i, rel=1e-9, abs=1e-18)
                for sel, key in enumerate(("vg", "vd", "vs", "vb")):
                    assert derivs[sel, m] == pytest.approx(ref_d[key], rel=1e-9, abs=1e-15)

    def test_batched_bias_matches_flat(self):
        rng = np.random.default_rng(13)
        devices = [(self._params(+1), 1.0e-6, 130e-9), (self._params(-1), 2.0e-6, 130e-9)]
        bank = MosfetBank(devices)
        voltages = rng.uniform(-0.2, 1.4, size=(4, 5, len(devices)))  # (term, B, M)
        current_b, derivs_b = bank.evaluate(*voltages)
        for run in range(5):
            current_s, derivs_s = bank.evaluate(*(voltages[:, run, :]))
            np.testing.assert_allclose(current_b[run], current_s, rtol=1e-14)
            np.testing.assert_allclose(derivs_b[run], derivs_s, rtol=1e-14)

    def test_evaluate_many_helper(self):
        devices = [(self._params(+1), 1.0e-6, 130e-9)]
        current, derivs = evaluate_many(devices, [1.2], [1.2], [0.0], [0.0])
        ref_i, _ = drain_current_scaled_and_derivatives(*devices[0], 1.2, 1.2, 0.0, 0.0)
        assert current[0] == pytest.approx(ref_i, rel=1e-9)
        assert derivs.shape == (4, 1)


class TestIntegratorFastPathEquivalence:
    """The table-driven fast path must match the generic scalar loop."""

    def _model_tables(self, rng, with_internal):
        vdd = 1.2
        state_dims = 4 if with_internal else 3
        axes = tuple(voltage_axis(f"V{d}", vdd, 5) for d in range(state_dims))
        # A smooth, bounded current surface keeps the forward-Euler update stable.
        io_values = 1e-4 * np.tanh(rng.normal(size=tuple(len(a) for a in axes)))
        in_values = 1e-4 * np.tanh(rng.normal(size=tuple(len(a) for a in axes)))
        io_table = NDTable(axes, io_values, name="Io")
        in_table = NDTable(axes, in_values, name="IN")
        return io_table, in_table

    def _waveforms(self, rng, t_stop):
        times = np.linspace(0.0, t_stop, 40)
        wave_a = Waveform(times, 1.2 * rng.random(40), name="A")
        wave_b = Waveform(times, 1.2 * rng.random(40), name="B")
        return {"A": wave_a, "B": wave_b}

    @pytest.mark.parametrize("with_internal", [False, True])
    def test_fast_matches_generic(self, with_internal):
        rng = np.random.default_rng(100 + with_internal)
        io_table, in_table = self._model_tables(rng, with_internal)
        waves = self._waveforms(rng, 1e-9)
        options = SimulationOptions(time_step=2e-12)
        kwargs = dict(
            pins=("A", "B"),
            input_waveforms=waves,
            miller_caps={"A": 0.8e-15, "B": 0.5e-15},
            output_cap=1.2e-15,
            load=CapacitiveLoad(3e-15),
            vdd=1.2,
            initial_output=1.2,
            options=options,
        )
        if with_internal:
            kwargs.update(internal_cap=1.0e-15, initial_internal=0.6)

        # Fast path: tables are passed directly (NDTable is callable).
        times_f, out_f, int_f = integrate_model(
            output_current=io_table,
            internal_current=in_table if with_internal else None,
            **kwargs,
        )
        # Generic path: opaque callables force the scalar loop.
        times_g, out_g, int_g = integrate_model(
            output_current=lambda *c: io_table.evaluate(*c),
            internal_current=(lambda *c: in_table.evaluate(*c)) if with_internal else None,
            **kwargs,
        )
        np.testing.assert_allclose(times_f, times_g)
        assert np.abs(out_f - out_g).max() <= 1e-9
        if with_internal:
            assert np.abs(int_f - int_g).max() <= 1e-9
        else:
            assert int_f is None and int_g is None

    def test_mismatched_pin_axes_still_integrate(self):
        """Io and I_N may disagree on their leading (pin) axis grids — only
        the trailing state axes must match for the fast path; the tables are
        then contracted independently instead of with shared brackets."""
        rng = np.random.default_rng(9)
        io_table, _ = self._model_tables(rng, with_internal=True)
        vdd = 1.2
        coarse_pin_axes = tuple(
            voltage_axis(f"V{d}", vdd, 4) for d in range(2)
        )  # different grid than Io's pin axes
        in_axes = coarse_pin_axes + io_table.axes[2:]
        in_values = 1e-4 * np.tanh(rng.normal(size=tuple(len(a) for a in in_axes)))
        in_table = NDTable(in_axes, in_values, name="IN")
        waves = self._waveforms(rng, 1e-9)
        times, v_out, v_int = integrate_model(
            pins=("A", "B"),
            input_waveforms=waves,
            output_current=io_table,
            internal_current=in_table,
            miller_caps={"A": 0.8e-15, "B": 0.5e-15},
            output_cap=1.2e-15,
            internal_cap=1.0e-15,
            load=CapacitiveLoad(3e-15),
            vdd=vdd,
            initial_output=vdd,
            initial_internal=0.6,
            options=SimulationOptions(time_step=2e-12),
        )
        assert np.isfinite(v_out).all() and np.isfinite(v_int).all()

    def test_dynamic_load_falls_back_and_still_works(self):
        rng = np.random.default_rng(5)
        io_table, _ = self._model_tables(rng, with_internal=False)
        waves = self._waveforms(rng, 0.5e-9)
        load = CompositeLoad([CapacitiveLoad(2e-15), PiLoad(c_near=1e-15, resistance=1e3, c_far=2e-15)])
        assert load.constant_capacitance() is None
        times, v_out, v_int = integrate_model(
            pins=("A", "B"),
            input_waveforms=waves,
            output_current=io_table,
            miller_caps={"A": 0.8e-15, "B": 0.5e-15},
            output_cap=1.2e-15,
            load=load,
            vdd=1.2,
            initial_output=0.0,
            options=SimulationOptions(time_step=2e-12),
        )
        assert v_int is None
        assert np.all(np.isfinite(v_out))

    def test_constant_capacitance_protocol(self):
        assert CapacitiveLoad(4e-15).constant_capacitance() == pytest.approx(4e-15)
        receiver = ReceiverLoad(receiver_caps=(1e-15, 2e-15), wire_capacitance=0.5e-15)
        assert receiver.constant_capacitance() == pytest.approx(3.5e-15)
        composite = CompositeLoad([CapacitiveLoad(1e-15), receiver])
        assert composite.constant_capacitance() == pytest.approx(4.5e-15)
        assert PiLoad(c_near=1e-15, resistance=1e3, c_far=1e-15).constant_capacitance() is None


class TestGradientStep:
    def test_default_step_scales_with_axis_span(self):
        # A picosecond-scale axis: the old fixed 1e-3 step would jump far
        # outside the table and return a meaningless clamped difference.
        ax_t = Axis("t", (0.0, 1e-12, 2e-12, 3e-12))
        ax_v = Axis("v", (0.0, 0.4, 0.8, 1.2))
        grid_t, grid_v = np.meshgrid(ax_t.as_array(), ax_v.as_array(), indexing="ij")
        table = NDTable((ax_t, ax_v), 2e12 * grid_t + 0.5 * grid_v, name="scaled")
        gt, gv = table.gradient(1.5e-12, 0.6)
        assert gt == pytest.approx(2e12, rel=1e-6)
        assert gv == pytest.approx(0.5, rel=1e-6)

    def test_explicit_step_still_honoured(self):
        ax = Axis("x", (0.0, 1.0, 2.0))
        table = NDTable((ax,), np.array([0.0, 1.0, 2.0]), name="lin")
        (g,) = table.gradient(1.0, step=0.25)
        assert g == pytest.approx(1.0, rel=1e-9)


class TestTimeGridClamp:
    def test_grid_never_overshoots_t_stop(self):
        from repro.spice import Circuit, TransientAnalysis, TransientOptions

        circuit = Circuit("rc")
        circuit.add_voltage_source("in", "0", 1.0, name="VIN")
        circuit.add_resistor("in", "out", 1e3, name="R1")
        circuit.add_capacitor("out", "0", 1e-15, name="C1")
        engine = TransientAnalysis(circuit, TransientOptions(time_step=4e-12))
        # 4 ps steps into an 11 ps window: np.arange(0, 13e-12, 4e-12) emits a
        # final point at 12 ps, beyond t_stop; it must be clamped to exactly
        # 11 ps.
        grid = engine._time_grid(11e-12, 0.0)
        assert grid[-1] == 11e-12
        assert np.all(np.diff(grid) > 0)
        # And a window the grid undershoots still ends exactly at t_stop.
        grid2 = engine._time_grid(10e-12, 0.0)
        assert grid2[-1] == 10e-12
        assert np.all(np.diff(grid2) > 0)
        result = engine.run(t_stop=11e-12)
        assert result.times[-1] == 11e-12
