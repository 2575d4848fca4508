"""Exact vectorized stimulus sampling.

:meth:`SaturatedRamp.sample_exact` transcribes ``__call__`` into one array
expression, and :meth:`Waveform.from_function` samples ramps through it.
Stimulus samples feed the STA content keys, so the contract is bitwise:

* a hypothesis property compares ``sample_exact`` against the per-sample
  ``__call__`` loop for rising and falling ramps, ramps that start before the
  window or after it, and ramp corners that land exactly on grid points;
* a checked-in fixture pins the SHA-256 of ``primary_input_waveforms`` for
  generated designs, recorded with the per-sample sampler.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice.sources import SaturatedRamp
from repro.sta.generate import default_time_window, generate_netlist, primary_input_waveforms
from repro.waveform import Waveform

FIXTURE = Path(__file__).parent / "fixtures" / "primary_input_digests.json"

T_STOP = 2e-9
VDD = 1.2


def _per_sample(ramp: SaturatedRamp, times: np.ndarray) -> np.ndarray:
    return np.array([ramp(t) for t in times], dtype=float)


def _assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()


@st.composite
def ramps_on_grids(draw):
    """A sample grid plus a ramp placed before, inside or after it, or with
    one or both corners exactly on grid points."""
    num_samples = draw(st.integers(min_value=2, max_value=400))
    times = np.linspace(0.0, T_STOP, num_samples)
    rising = draw(st.booleans())
    low = draw(st.sampled_from([0.0, -0.05, 0.1]))
    high = draw(st.sampled_from([VDD, 1.0, 0.9333]))
    initial, final = (low, high) if rising else (high, low)
    placement = draw(st.sampled_from(["free", "before", "after", "on_grid", "start_on_grid"]))
    transition = draw(st.floats(min_value=1e-13, max_value=1e-9))
    if placement == "before":
        start = draw(st.floats(min_value=-2e-9, max_value=-1e-13))
    elif placement == "after":
        start = draw(st.floats(min_value=T_STOP, max_value=2 * T_STOP))
    elif placement in ("on_grid", "start_on_grid"):
        first = draw(st.integers(min_value=0, max_value=num_samples - 1))
        start = float(times[first])
        if placement == "on_grid" and first + 1 < num_samples:
            last = draw(st.integers(min_value=first + 1, max_value=num_samples - 1))
            transition = float(times[last] - times[first])
    else:
        start = draw(st.floats(min_value=-5e-10, max_value=T_STOP))
    return times, SaturatedRamp(initial, final, start, transition)


class TestSampleExact:
    @settings(max_examples=300, deadline=None)
    @given(ramps_on_grids())
    def test_sample_exact_is_the_per_sample_loop_bitwise(self, case):
        times, ramp = case
        _assert_bitwise(ramp.sample_exact(times), _per_sample(ramp, times))

    @settings(max_examples=100, deadline=None)
    @given(ramps_on_grids())
    def test_from_function_takes_the_exact_route(self, case):
        times, ramp = case
        wave = Waveform.from_function(ramp, float(times[0]), float(times[-1]), len(times))
        _assert_bitwise(wave.times, times)
        _assert_bitwise(wave.values, _per_sample(ramp, times))

    def test_integer_rails_still_give_float_samples(self):
        ramp = SaturatedRamp(0, 1, 0.25, 0.5)
        times = np.linspace(0.0, 1.0, 9)
        _assert_bitwise(ramp.sample_exact(times), _per_sample(ramp, times))

    def test_plain_callables_keep_the_per_sample_loop(self):
        calls = []

        def function(t):
            calls.append(t)
            return 2.0 * t

        wave = Waveform.from_function(function, 0.0, 1.0, 11)
        assert len(calls) == 11
        assert wave.values.tolist() == [2.0 * t for t in np.linspace(0.0, 1.0, 11)]


def _stimulus_digest(waveforms) -> str:
    digest = hashlib.sha256()
    for net, wave in waveforms.items():
        digest.update(net.encode())
        digest.update(np.ascontiguousarray(wave.times, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(wave.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


_RECORDED = json.loads(FIXTURE.read_text())["digests"]


@pytest.mark.parametrize("spec", sorted(_RECORDED))
def test_primary_input_waveforms_match_recorded_digests(library, spec):
    netlist = generate_netlist(library, spec)
    seed = int(spec.rsplit(":s", 1)[1])
    waveforms = primary_input_waveforms(
        netlist, t_stop=default_time_window(netlist), seed=seed
    )
    assert list(waveforms) == list(netlist.primary_inputs)
    assert _stimulus_digest(waveforms) == _RECORDED[spec]
