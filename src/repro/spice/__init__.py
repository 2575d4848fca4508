"""A small SPICE-like circuit simulator used as the golden reference.

The paper validates its current-source model against HSPICE.  This package is
the stand-in: a modified-nodal-analysis simulator with Newton-Raphson DC and
backward-Euler transient analyses over the EKV-style device models from
:mod:`repro.technology`.  Every characterization procedure and every accuracy
comparison in the reproduction runs against this simulator.
"""

from .dc import DCAnalysis, dc_operating_point, dc_sweep, newton_fixed_point_many
from .elements import Capacitor, CurrentSource, Element, Mosfet, Resistor, VoltageSource
from .mna import MNAAssembler, NewtonOptions, newton_solve_many
from .netlist import GROUND, Circuit
from .results import OperatingPoint, TransientResult
from .sources import (
    CompositeStimulus,
    DCValue,
    PiecewiseLinear,
    Pulse,
    SaturatedRamp,
    Stimulus,
)
from .transient import (
    TransientAnalysis,
    TransientOptions,
    transient_analysis,
    transient_analysis_many,
)

__all__ = [
    "GROUND",
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
    "Stimulus",
    "DCValue",
    "PiecewiseLinear",
    "SaturatedRamp",
    "Pulse",
    "CompositeStimulus",
    "MNAAssembler",
    "NewtonOptions",
    "newton_solve_many",
    "DCAnalysis",
    "dc_operating_point",
    "newton_fixed_point_many",
    "dc_sweep",
    "TransientAnalysis",
    "TransientOptions",
    "transient_analysis",
    "transient_analysis_many",
    "OperatingPoint",
    "TransientResult",
]
