"""Device models and technology definitions.

This package provides the EKV-style MOSFET compact model and the synthetic
130 nm / 1.2 V technology that the transistor-level reference simulator
(:mod:`repro.spice`) and the cell library (:mod:`repro.cells`) are built on.
"""

from .corners import STANDARD_CORNERS, Corner, apply_corner
from .mosfet import (
    THERMAL_VOLTAGE,
    MosfetOperatingPoint,
    MosfetParams,
    drain_current_scaled_and_derivatives,
    ekv_interpolation,
    ekv_interpolation_derivative,
    operating_point,
    terminal_capacitances,
)
from .process import Technology, default_technology

__all__ = [
    "THERMAL_VOLTAGE",
    "MosfetOperatingPoint",
    "MosfetParams",
    "drain_current_scaled_and_derivatives",
    "ekv_interpolation",
    "ekv_interpolation_derivative",
    "operating_point",
    "terminal_capacitances",
    "Technology",
    "default_technology",
    "Corner",
    "STANDARD_CORNERS",
    "apply_corner",
]
