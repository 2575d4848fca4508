"""Tests for the device model and technology definitions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TimingError
from repro.experiments import ExperimentContext, corner_sta_sweep
from repro.technology import (
    STANDARD_CORNERS,
    MosfetParams,
    Technology,
    apply_corner,
    default_technology,
    drain_current_scaled_and_derivatives,
    ekv_interpolation,
    ekv_interpolation_derivative,
    operating_point,
    terminal_capacitances,
)


class TestEKVInterpolation:
    def test_strong_inversion_limit(self):
        # For large x, F(x) ~ (x / 2) ** 2.
        x = 60.0
        assert ekv_interpolation(x) == pytest.approx((x / 2) ** 2, rel=1e-3)

    def test_weak_inversion_limit(self):
        # For very negative x, F(x) ~ exp(x).
        x = -25.0
        assert ekv_interpolation(x) == pytest.approx(math.exp(x), rel=1e-3)

    def test_monotonically_increasing(self):
        xs = np.linspace(-40, 60, 300)
        values = [ekv_interpolation(x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_positive_everywhere(self):
        for x in (-80.0, -10.0, 0.0, 3.0, 90.0):
            assert ekv_interpolation(x) > 0.0

    @given(st.floats(min_value=-60, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_finite_difference(self, x):
        h = 1e-5
        numeric = (ekv_interpolation(x + h) - ekv_interpolation(x - h)) / (2 * h)
        analytic = ekv_interpolation_derivative(x)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-9)


class TestMosfetParams:
    def test_rejects_invalid_polarity(self):
        with pytest.raises(ValueError):
            MosfetParams(
                polarity=2, vt0=0.3, kp=1e-4, slope_factor=1.3,
                channel_length_modulation=0.05, cox_per_area=1e-2,
                overlap_cap_per_width=1e-10, junction_cap_per_width=1e-10,
                default_length=100e-9,
            )

    def test_rejects_non_positive_vt(self):
        with pytest.raises(ValueError):
            MosfetParams(
                polarity=1, vt0=0.0, kp=1e-4, slope_factor=1.3,
                channel_length_modulation=0.05, cox_per_area=1e-2,
                overlap_cap_per_width=1e-10, junction_cap_per_width=1e-10,
                default_length=100e-9,
            )

    def test_specific_current_scales_with_geometry(self, technology):
        nmos = technology.nmos
        narrow = nmos.specific_current(0.2e-6, 130e-9)
        wide = nmos.specific_current(0.4e-6, 130e-9)
        assert wide == pytest.approx(2 * narrow)

    def test_scaled_shifts_threshold_and_kp(self, technology):
        scaled = technology.nmos.scaled(vt_shift=0.05, kp_scale=1.1)
        assert scaled.vt0 == pytest.approx(technology.nmos.vt0 + 0.05)
        assert scaled.kp == pytest.approx(technology.nmos.kp * 1.1)


class TestDrainCurrent:
    def test_nmos_off_when_gate_low(self, technology):
        current, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=0.0, vd=1.2, vs=0.0, vb=0.0
        )
        assert abs(current) < 1e-8  # only leakage-scale current

    def test_nmos_conducts_when_gate_high(self, technology):
        current, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=1.2, vd=1.2, vs=0.0, vb=0.0
        )
        assert current > 50e-6  # a healthy on-current for 0.4 um

    def test_pmos_current_sign(self, technology):
        # PMOS pull-up: source at Vdd, drain low, gate low -> conventional
        # current flows from source to drain, i.e. *out of* the drain: negative.
        current, _ = drain_current_scaled_and_derivatives(
            technology.pmos, 0.9e-6, 130e-9, vg=0.0, vd=0.0, vs=1.2, vb=1.2
        )
        assert current < -50e-6

    def test_current_zero_at_zero_vds(self, technology):
        current, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=1.2, vd=0.4, vs=0.4, vb=0.0
        )
        assert current == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_under_drain_source_exchange(self, technology):
        forward, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=1.0, vd=0.7, vs=0.2, vb=0.0
        )
        reverse, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=1.0, vd=0.2, vs=0.7, vb=0.0
        )
        assert forward == pytest.approx(-reverse, rel=1e-9)

    def test_stack_effect_source_degeneration(self, technology):
        """Raising the source (as in a stack) must reduce the current."""
        grounded, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=1.2, vd=1.2, vs=0.0, vb=0.0
        )
        degenerated, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=1.2, vd=1.2, vs=0.3, vb=0.0
        )
        assert degenerated < 0.6 * grounded

    @given(
        vg=st.floats(min_value=-0.1, max_value=1.3),
        vd=st.floats(min_value=-0.1, max_value=1.3),
        vs=st.floats(min_value=-0.1, max_value=1.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_derivatives_match_finite_differences(self, technology, vg, vd, vs):
        params = technology.nmos
        w, l = 0.4e-6, 130e-9
        current, derivs = drain_current_scaled_and_derivatives(params, w, l, vg, vd, vs, 0.0)
        h = 1e-6
        for key, (dvg, dvd, dvs) in {
            "vg": (h, 0, 0), "vd": (0, h, 0), "vs": (0, 0, h),
        }.items():
            plus, _ = drain_current_scaled_and_derivatives(
                params, w, l, vg + dvg, vd + dvd, vs + dvs, 0.0
            )
            minus, _ = drain_current_scaled_and_derivatives(
                params, w, l, vg - dvg, vd - dvd, vs - dvs, 0.0
            )
            numeric = (plus - minus) / (2 * h)
            assert derivs[key] == pytest.approx(numeric, rel=5e-3, abs=1e-9)

    def test_derivative_sum_is_zero(self, technology):
        """Shifting every terminal by the same amount must not change the current."""
        _, derivs = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, vg=0.8, vd=1.0, vs=0.1, vb=0.0
        )
        total = sum(derivs.values())
        assert total == pytest.approx(0.0, abs=1e-9)


class TestOperatingPointAndCaps:
    def test_region_classification(self, technology):
        cutoff = operating_point(technology.nmos, 0.4e-6, 130e-9, 0.0, 1.2, 0.0, 0.0)
        saturation = operating_point(technology.nmos, 0.4e-6, 130e-9, 1.2, 1.2, 0.0, 0.0)
        linear = operating_point(technology.nmos, 0.4e-6, 130e-9, 1.2, 0.05, 0.0, 0.0)
        assert cutoff.region == "cutoff"
        assert saturation.region == "saturation"
        assert linear.region == "linear"

    def test_terminal_capacitances_scale_with_width(self, technology):
        small = terminal_capacitances(technology.nmos, 0.2e-6, 130e-9)
        large = terminal_capacitances(technology.nmos, 0.4e-6, 130e-9)
        for key in small:
            assert large[key] == pytest.approx(2 * small[key])

    def test_terminal_capacitances_reject_bad_geometry(self, technology):
        with pytest.raises(ValueError):
            terminal_capacitances(technology.nmos, -1e-6, 130e-9)


class TestTechnologyAndCorners:
    def test_default_technology_sanity(self, technology):
        assert technology.vdd == pytest.approx(1.2)
        assert technology.nmos.is_nmos and technology.pmos.is_pmos
        assert technology.channel_length == pytest.approx(130e-9)

    def test_params_for_lookup(self, technology):
        assert technology.params_for("nmos") is technology.nmos
        assert technology.params_for("P") is technology.pmos
        with pytest.raises(ValueError):
            technology.params_for("finfet")

    def test_technology_validation(self, technology):
        with pytest.raises(ValueError):
            Technology(
                name="bad", vdd=-1.0, temperature=300.0,
                nmos=technology.nmos, pmos=technology.pmos,
                min_width=0.15e-6, unit_nmos_width=0.4e-6, unit_pmos_width=0.9e-6,
            )

    def test_fast_corner_is_faster(self, technology):
        ff = apply_corner(technology, STANDARD_CORNERS["FF"])
        nominal, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, 1.2, 1.2, 0.0, 0.0
        )
        fast, _ = drain_current_scaled_and_derivatives(
            ff.nmos, 0.4e-6, 130e-9, 1.2, 1.2, 0.0, 0.0
        )
        assert fast > nominal

    def test_slow_corner_is_slower(self, technology):
        ss = apply_corner(technology, STANDARD_CORNERS["SS"])
        nominal, _ = drain_current_scaled_and_derivatives(
            technology.nmos, 0.4e-6, 130e-9, 1.2, 1.2, 0.0, 0.0
        )
        slow, _ = drain_current_scaled_and_derivatives(
            ss.nmos, 0.4e-6, 130e-9, 1.2, 1.2, 0.0, 0.0
        )
        assert slow < nominal

    def test_corner_sweep_contents(self, technology):
        for name in ("TT", "FF", "SS"):
            cornered = apply_corner(technology, STANDARD_CORNERS[name])
            assert cornered.name.endswith(name)

    def test_corner_sweep_rejects_unknown(self, technology):
        # The sweep resolves names through CornerSet before any work: an
        # unknown or repeated corner is a TimingError, not a KeyError.
        context = ExperimentContext(technology=technology)
        with pytest.raises(TimingError, match="unknown corner 'XX'"):
            corner_sta_sweep(context, spec="chain:inv:1", corners=("TT", "XX"))
        with pytest.raises(TimingError, match="unique"):
            corner_sta_sweep(context, spec="chain:inv:1", corners=("TT", "TT"))
