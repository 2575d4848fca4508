"""Time-dependent stimulus descriptions for independent sources.

A :class:`Stimulus` is a callable object mapping time (seconds) to a value
(volts or amperes).  These are deliberately simple, analytic descriptions so
that both the transistor-level reference simulator and the current-source
model integrator can evaluate exactly the same input waveforms.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..exceptions import WaveformError

__all__ = [
    "Stimulus",
    "DCValue",
    "PiecewiseLinear",
    "SaturatedRamp",
    "Pulse",
    "CompositeStimulus",
]


class Stimulus:
    """Base class for time-dependent source values."""

    def __call__(self, time: float) -> float:
        raise NotImplementedError

    def value_at(self, time: float) -> float:
        """Alias of ``__call__`` for readability at call sites."""
        return self(time)

    def breakpoints(self) -> Tuple[float, ...]:
        """Times at which the stimulus changes slope.

        The transient engine refines its time steps around these points so
        that sharp ramp corners are not smeared by the integration step.
        """
        return ()

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of sample times.

        The base implementation falls back to per-sample calls; the concrete
        piecewise-linear stimuli override it with a single ``np.interp``.  The
        transient engine pre-samples every stimulus over the whole time grid
        through this method instead of calling the stimulus per step.

        The ``np.interp`` overrides are NOT bitwise equal to ``__call__``:
        they round differently in the last bit inside the ramps.  Samples
        that feed content keys (the STA stimuli and their propagation keys)
        must come from ``__call__`` or from a ``sample_exact`` transcription
        of it, never from this method.
        """
        return np.array([self(float(t)) for t in np.asarray(times).ravel()]).reshape(
            np.shape(times)
        )


@dataclass(frozen=True)
class DCValue(Stimulus):
    """A constant source value."""

    value: float

    def __call__(self, time: float) -> float:
        return self.value

    def sample(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.value)


@dataclass(frozen=True)
class PiecewiseLinear(Stimulus):
    """Piecewise-linear stimulus defined by (time, value) points.

    Values before the first point and after the last point are held constant.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise WaveformError("PiecewiseLinear needs at least one point")
        times = [t for t, _ in self.points]
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise WaveformError("PiecewiseLinear times must be non-decreasing")

    def __call__(self, time: float) -> float:
        pts = self.points
        times = [t for t, _ in pts]
        if time <= times[0]:
            return pts[0][1]
        if time >= times[-1]:
            return pts[-1][1]
        idx = bisect.bisect_right(times, time) - 1
        t0, v0 = pts[idx]
        t1, v1 = pts[idx + 1]
        if t1 == t0:
            return v1
        frac = (time - t0) / (t1 - t0)
        return v0 + frac * (v1 - v0)

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    def sample(self, times: np.ndarray) -> np.ndarray:
        xp = np.asarray([t for t, _ in self.points])
        if np.any(np.diff(xp) <= 0):
            # np.interp does not honour the "last point wins" rule at
            # coincident times; keep the scalar semantics there.
            return super().sample(times)
        fp = np.asarray([v for _, v in self.points])
        return np.interp(np.asarray(times, dtype=float), xp, fp)


@dataclass(frozen=True)
class SaturatedRamp(Stimulus):
    """The saturated-ramp waveform used throughout cell characterization.

    The value is ``initial`` until ``start_time``, ramps linearly to ``final``
    over ``transition_time`` and then stays at ``final``.
    """

    initial: float
    final: float
    start_time: float
    transition_time: float

    def __post_init__(self) -> None:
        if self.transition_time <= 0:
            raise WaveformError("transition_time must be positive")

    def __call__(self, time: float) -> float:
        if time <= self.start_time:
            return self.initial
        if time >= self.start_time + self.transition_time:
            return self.final
        frac = (time - self.start_time) / self.transition_time
        return self.initial + frac * (self.final - self.initial)

    def sample_exact(self, times: np.ndarray) -> np.ndarray:
        """``[self(t) for t in times]`` as one array expression, bitwise.

        A line-for-line transcription of :meth:`__call__`: the same rails
        (``<= start`` wins over ``>= start + transition``) and the same
        float64 operations in the same order, so every sample equals the
        scalar path's to the last bit.  :meth:`Waveform.from_function` uses
        it to sample ramps without a Python call per sample.
        """
        times = np.asarray(times, dtype=float)
        frac = (times - self.start_time) / self.transition_time
        ramp = self.initial + frac * (self.final - self.initial)
        ramp = np.where(times >= self.start_time + self.transition_time, self.final, ramp)
        return np.where(times <= self.start_time, self.initial, ramp)

    @property
    def slope(self) -> float:
        """Ramp slope in volts per second (signed)."""
        return (self.final - self.initial) / self.transition_time

    def breakpoints(self) -> Tuple[float, ...]:
        return (self.start_time, self.start_time + self.transition_time)

    def sample(self, times: np.ndarray) -> np.ndarray:
        return np.interp(
            np.asarray(times, dtype=float),
            (self.start_time, self.start_time + self.transition_time),
            (self.initial, self.final),
        )


@dataclass(frozen=True)
class Pulse(Stimulus):
    """A single pulse: low -> high -> low, with linear edges.

    Useful for constructing glitch stimuli and aggressor transitions.
    """

    low: float
    high: float
    start_time: float
    rise_time: float
    width: float
    fall_time: float

    def __post_init__(self) -> None:
        if self.rise_time <= 0 or self.fall_time <= 0:
            raise WaveformError("pulse edge times must be positive")
        if self.width < 0:
            raise WaveformError("pulse width must be non-negative")

    def __call__(self, time: float) -> float:
        t_rise_end = self.start_time + self.rise_time
        t_fall_start = t_rise_end + self.width
        t_fall_end = t_fall_start + self.fall_time
        if time <= self.start_time or time >= t_fall_end:
            return self.low
        if time < t_rise_end:
            frac = (time - self.start_time) / self.rise_time
            return self.low + frac * (self.high - self.low)
        if time <= t_fall_start:
            return self.high
        frac = (time - t_fall_start) / self.fall_time
        return self.high + frac * (self.low - self.high)

    def breakpoints(self) -> Tuple[float, ...]:
        t_rise_end = self.start_time + self.rise_time
        t_fall_start = t_rise_end + self.width
        return (self.start_time, t_rise_end, t_fall_start, t_fall_start + self.fall_time)

    def sample(self, times: np.ndarray) -> np.ndarray:
        t_rise_end = self.start_time + self.rise_time
        t_fall_start = t_rise_end + self.width
        xp = [self.start_time, t_rise_end, t_fall_start, t_fall_start + self.fall_time]
        fp = [self.low, self.high, self.high, self.low]
        if self.width == 0:
            xp = [self.start_time, t_rise_end, t_fall_start + self.fall_time]
            fp = [self.low, self.high, self.low]
        return np.interp(np.asarray(times, dtype=float), xp, fp)


@dataclass
class CompositeStimulus(Stimulus):
    """Sum of several stimuli plus an offset.

    Used, for example, to superimpose a crosstalk-noise pulse on a quiet
    victim input when building noisy waveforms analytically.
    """

    parts: List[Stimulus] = field(default_factory=list)
    offset: float = 0.0

    def __call__(self, time: float) -> float:
        return self.offset + sum(part(time) for part in self.parts)

    def sample(self, times: np.ndarray) -> np.ndarray:
        total = np.full(np.shape(times), self.offset)
        for part in self.parts:
            total = total + part.sample(times)
        return total

    def breakpoints(self) -> Tuple[float, ...]:
        pts: List[float] = []
        for part in self.parts:
            pts.extend(part.breakpoints())
        return tuple(sorted(set(pts)))

