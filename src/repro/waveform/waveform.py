"""Sampled voltage waveforms.

A :class:`Waveform` is an immutable-ish pair of (times, values) arrays with
the resampling, clipping and algebra operations that the characterization and
model-evaluation code needs.  Waveforms are the lingua franca between the
transistor-level reference simulator, the current-source models and the
metric functions: everything that compares "model vs SPICE" does so through
this class.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..exceptions import WaveformError

__all__ = ["Waveform"]


class Waveform:
    """A sampled scalar signal ``value(time)``.

    Parameters
    ----------
    times:
        Strictly increasing sample times in seconds.
    values:
        Sample values (volts for all uses in this library).
    name:
        Optional label used in reports and error messages.
    """

    __slots__ = ("times", "values", "name")

    def __init__(self, times: Sequence[float], values: Sequence[float], name: str = ""):
        times_array = np.asarray(times, dtype=float)
        values_array = np.asarray(values, dtype=float)
        if times_array.ndim != 1 or values_array.ndim != 1:
            raise WaveformError("times and values must be one-dimensional")
        if times_array.size != values_array.size:
            raise WaveformError(
                f"times ({times_array.size}) and values ({values_array.size}) differ in length"
            )
        if times_array.size < 2:
            raise WaveformError("a waveform needs at least two samples")
        if np.any(np.diff(times_array) < 0):
            raise WaveformError("times must be non-decreasing")
        self.times = times_array
        self.values = values_array
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        function: Callable[[float], float],
        t_start: float,
        t_stop: float,
        num_samples: int = 500,
        name: str = "",
    ) -> "Waveform":
        """Sample a callable ``f(t)`` uniformly over ``[t_start, t_stop]``.

        A callable with a ``sample_exact(times)`` method (e.g.
        :class:`~repro.spice.sources.SaturatedRamp`) is sampled through it in
        one array expression; that method must be bitwise equal to calling
        ``f`` per sample, so either route gives the same content keys.
        """
        if t_stop <= t_start:
            raise WaveformError("t_stop must exceed t_start")
        if num_samples < 2:
            raise WaveformError("num_samples must be at least 2")
        times = np.linspace(t_start, t_stop, num_samples)
        sample_exact = getattr(function, "sample_exact", None)
        if sample_exact is not None:
            values = np.asarray(sample_exact(times), dtype=float)
        else:
            values = np.array([function(t) for t in times], dtype=float)
        return cls(times, values, name=name)

    @classmethod
    def constant(
        cls, value: float, t_start: float, t_stop: float, name: str = ""
    ) -> "Waveform":
        """A flat waveform at a fixed value."""
        return cls([t_start, t_stop], [value, value], name=name)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.size)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Waveform{label}: {len(self)} samples, "
            f"t=[{self.times[0]:.3e}, {self.times[-1]:.3e}]s, "
            f"v=[{self.values.min():.3f}, {self.values.max():.3f}]>"
        )

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_stop(self) -> float:
        return float(self.times[-1])

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start

    def value_at(self, time: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Linearly interpolated value; clamped outside the time range."""
        result = np.interp(time, self.times, self.values)
        if np.isscalar(time):
            return float(result)
        return result

    def __call__(self, time: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return self.value_at(time)

    def initial_value(self) -> float:
        return float(self.values[0])

    def final_value(self) -> float:
        return float(self.values[-1])

    def minimum(self) -> float:
        return float(self.values.min())

    def maximum(self) -> float:
        return float(self.values.max())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def resample(self, new_times: Sequence[float]) -> "Waveform":
        """Resample onto a new time grid (values clamped outside the range)."""
        new_times_array = np.asarray(new_times, dtype=float)
        return Waveform(new_times_array, self.value_at(new_times_array), name=self.name)

    def resample_uniform(self, num_samples: int) -> "Waveform":
        """Resample onto a uniform grid with ``num_samples`` points."""
        return self.resample(np.linspace(self.t_start, self.t_stop, num_samples))

    def shifted(self, delta_t: float) -> "Waveform":
        """Shift the waveform in time by ``delta_t`` seconds."""
        return Waveform(self.times + delta_t, self.values.copy(), name=self.name)

    def scaled(self, factor: float) -> "Waveform":
        """Scale values by a constant factor."""
        return Waveform(self.times.copy(), self.values * factor, name=self.name)

    def offset(self, delta_v: float) -> "Waveform":
        """Add a constant offset to all values."""
        return Waveform(self.times.copy(), self.values + delta_v, name=self.name)

    def clipped(self, low: float, high: float) -> "Waveform":
        """Clip values into ``[low, high]``."""
        if high < low:
            raise WaveformError("clip range is empty")
        return Waveform(self.times.copy(), np.clip(self.values, low, high), name=self.name)

    def window(self, t_start: float, t_stop: float) -> "Waveform":
        """Restrict to a time window, adding interpolated boundary samples."""
        if t_stop <= t_start:
            raise WaveformError("window must have positive duration")
        mask = (self.times > t_start) & (self.times < t_stop)
        inner_times = self.times[mask]
        times = np.concatenate([[t_start], inner_times, [t_stop]])
        return Waveform(times, self.value_at(times), name=self.name)

    def renamed(self, name: str) -> "Waveform":
        return Waveform(self.times.copy(), self.values.copy(), name=name)

    def to_dict(self) -> dict:
        """Canonical content representation (used for job content hashing)."""
        return {"name": self.name, "times": self.times, "values": self.values}

    # ------------------------------------------------------------------
    # Algebra (on a merged time grid)
    # ------------------------------------------------------------------
    def _binary(self, other: Union["Waveform", float], op) -> "Waveform":
        if isinstance(other, Waveform):
            grid = np.union1d(self.times, other.times)
            return Waveform(grid, op(self.value_at(grid), other.value_at(grid)), name=self.name)
        return Waveform(self.times.copy(), op(self.values, float(other)), name=self.name)

    def __add__(self, other: Union["Waveform", float]) -> "Waveform":
        return self._binary(other, np.add)

    def __sub__(self, other: Union["Waveform", float]) -> "Waveform":
        return self._binary(other, np.subtract)

    def __mul__(self, other: float) -> "Waveform":
        return self.scaled(float(other))

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Export helpers
    # ------------------------------------------------------------------
    def to_pwl_stimulus(self):
        """Convert to a :class:`repro.spice.PiecewiseLinear` stimulus."""
        from ..spice.sources import PiecewiseLinear

        return PiecewiseLinear(points=tuple(zip(self.times.tolist(), self.values.tolist())))
