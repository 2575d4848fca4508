"""Constructors for the stimulus waveforms used in the experiments.

The experiments need three families of input waveforms:

* saturated ramps (the standard characterization stimulus),
* multi-step pattern waveforms that realize an "input history" such as
  '10' -> '11' -> '00' on the two inputs of a NOR2 gate (Section 2.2 of the
  paper), and
* noisy waveforms — a nominal transition with a crosstalk-induced glitch
  superimposed (Section 4, Fig. 12).

Each builder returns both an analytic :class:`~repro.spice.sources.Stimulus`
(for the reference simulator) and, on request, a sampled
:class:`~repro.waveform.Waveform` (for the current-source models), so both
sides of every comparison see exactly the same input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import WaveformError
from ..spice.sources import PiecewiseLinear, SaturatedRamp, Stimulus
from .waveform import Waveform

__all__ = [
    "ramp_waveform",
    "pattern_stimulus",
    "pattern_waveforms",
    "noisy_transition",
    "InputPattern",
]


def ramp_waveform(
    v_start: float,
    v_end: float,
    start_time: float,
    transition_time: float,
    t_stop: float,
    t_begin: float = 0.0,
    num_samples: int = 400,
    name: str = "",
) -> Waveform:
    """Sampled saturated ramp covering ``[t_begin, t_stop]``."""
    stimulus = SaturatedRamp(v_start, v_end, start_time, transition_time)
    return Waveform.from_function(stimulus, t_begin, t_stop, num_samples, name=name)


@dataclass(frozen=True)
class InputPattern:
    """A per-pin sequence of logic states realized with saturated ramps.

    Attributes
    ----------
    levels:
        Logic levels (0 or 1) the pin takes, in order.  ``levels[k]`` is held
        until ``switch_times[k]`` at which point the pin ramps to
        ``levels[k + 1]``.
    switch_times:
        Times at which each transition *starts*; must have exactly
        ``len(levels) - 1`` entries and be increasing.
    transition_time:
        Ramp duration of every transition in seconds.
    """

    levels: Tuple[int, ...]
    switch_times: Tuple[float, ...]
    transition_time: float

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise WaveformError("pattern needs at least one level")
        if len(self.switch_times) != len(self.levels) - 1:
            raise WaveformError(
                "switch_times must have exactly len(levels) - 1 entries "
                f"(got {len(self.switch_times)} for {len(self.levels)} levels)"
            )
        if any(t1 <= t0 for t0, t1 in zip(self.switch_times, self.switch_times[1:])):
            raise WaveformError("switch_times must be strictly increasing")
        if self.transition_time <= 0:
            raise WaveformError("transition_time must be positive")
        if any(level not in (0, 1) for level in self.levels):
            raise WaveformError("levels must be 0 or 1")


def pattern_stimulus(pattern: InputPattern, vdd: float) -> PiecewiseLinear:
    """Realize an :class:`InputPattern` as a piecewise-linear stimulus."""
    points: List[Tuple[float, float]] = []
    current_level = pattern.levels[0] * vdd
    points.append((0.0, current_level))
    for level, start in zip(pattern.levels[1:], pattern.switch_times):
        target = level * vdd
        points.append((start, current_level))
        points.append((start + pattern.transition_time, target))
        current_level = target
    return PiecewiseLinear(points=tuple(points))


def pattern_waveforms(
    patterns: Dict[str, InputPattern],
    vdd: float,
    t_stop: float,
    num_samples: int = 2000,
) -> Dict[str, Waveform]:
    """Sample a dictionary of per-pin patterns onto a common time grid."""
    waveforms: Dict[str, Waveform] = {}
    for pin, pattern in patterns.items():
        stimulus = pattern_stimulus(pattern, vdd)
        waveforms[pin] = Waveform.from_function(stimulus, 0.0, t_stop, num_samples, name=pin)
    return waveforms


def noisy_transition(
    vdd: float,
    transition_start: float,
    transition_time: float,
    rising: bool,
    noise_peak: float,
    noise_time: float,
    noise_width: float,
    t_stop: float,
    num_samples: int = 2000,
    name: str = "noisy",
) -> Waveform:
    """A nominal transition with a crosstalk-like bump superimposed.

    This is the *analytic* noisy-waveform builder used by unit tests and by
    the quick examples; the Fig. 12 experiment itself generates its noisy
    victim waveforms by actually simulating the coupled victim/aggressor
    drivers with the reference simulator (see :mod:`repro.interconnect`).
    """
    base = SaturatedRamp(
        0.0 if rising else vdd,
        vdd if rising else 0.0,
        transition_start,
        transition_time,
    )
    half = noise_width / 2.0
    if half <= 0:
        raise WaveformError("noise_width must be positive")
    bump_points = (
        (0.0, 0.0),
        (noise_time - half, 0.0),
        (noise_time, noise_peak),
        (noise_time + half, 0.0),
        (t_stop, 0.0),
    )
    bump = PiecewiseLinear(points=tuple(sorted(bump_points)))
    times = np.linspace(0.0, t_stop, num_samples)
    values = np.array([base(t) + bump(t) for t in times])
    return Waveform(times, np.clip(values, -0.3 * vdd, 1.3 * vdd), name=name)
