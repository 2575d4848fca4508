"""Waveform containers, stimulus builders and timing/accuracy metrics."""

from .builders import (
    InputPattern,
    noisy_transition,
    pattern_stimulus,
    pattern_waveforms,
    ramp_waveform,
)
from .metrics import (
    EdgeMeasurement,
    crossing_time,
    crossing_times,
    delay_and_slew,
    delay_error,
    normalized_rmse,
    peak_error,
    propagation_delay,
    rmse,
    transition_time,
)
from .level_tensor import LevelTensor
from .waveform import Waveform

__all__ = [
    "Waveform",
    "LevelTensor",
    "InputPattern",
    "ramp_waveform",
    "pattern_stimulus",
    "pattern_waveforms",
    "noisy_transition",
    "crossing_time",
    "crossing_times",
    "propagation_delay",
    "transition_time",
    "delay_and_slew",
    "rmse",
    "normalized_rmse",
    "peak_error",
    "delay_error",
    "EdgeMeasurement",
]
