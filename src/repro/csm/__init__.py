"""Current-source models (the paper's core contribution and its baselines)."""

from .base import Capacitance, ModelSimulationResult, SimulationOptions, cap_value
from .loads import (
    CapacitiveLoad,
    CompositeLoad,
    Load,
    PiLoad,
    ReceiverLoad,
    as_load,
)
from .dc import settle_units
from .models import MCSM, BaselineMISCSM, SISCSM
from .selective import SelectiveModel, SelectiveModelPolicy
from .simulate import common_time_window, integrate_model

__all__ = [
    "Capacitance",
    "cap_value",
    "SimulationOptions",
    "ModelSimulationResult",
    "Load",
    "CapacitiveLoad",
    "ReceiverLoad",
    "PiLoad",
    "CompositeLoad",
    "as_load",
    "SISCSM",
    "BaselineMISCSM",
    "MCSM",
    "SelectiveModel",
    "SelectiveModelPolicy",
    "integrate_model",
    "common_time_window",
    "settle_units",
]
