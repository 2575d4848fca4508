"""Circuit elements for the transistor-level reference simulator.

Every element is a small data object that knows which nodes it touches, its
capacitor branches and (for a MOSFET) its drain current at a bias point.  The
analysis engines (:mod:`repro.spice.dc`, :mod:`repro.spice.transient`) own the
index mapping and assemble the modified-nodal-analysis system from them.

Sign conventions
----------------
* Current sources: ``value > 0`` means current flows *from* ``node_plus``
  *through the source* to ``node_minus`` (it is extracted from ``node_plus``
  and injected into ``node_minus``).
* Voltage sources: the extra MNA unknown is the current entering the positive
  terminal from the circuit.  The convenience accessor used everywhere in the
  characterization code is "current delivered into the circuit at the
  positive terminal", which is the negative of that unknown.
* MOSFETs: the reported drain current is positive when conventional current
  enters the drain terminal (for both NMOS and PMOS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..exceptions import NetlistError
from ..technology.mosfet import (
    MosfetParams,
    drain_current_scaled_and_derivatives,
    terminal_capacitances,
)
from .sources import DCValue, Stimulus

__all__ = [
    "Element",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
]


@dataclass
class Element:
    """Base class for all circuit elements."""

    name: str

    @property
    def nodes(self) -> Tuple[str, ...]:
        raise NotImplementedError

    @property
    def is_nonlinear(self) -> bool:
        return False

    def capacitor_branches(self) -> Sequence[Tuple[str, str, float]]:
        """Return (node_a, node_b, capacitance) branches owned by the element."""
        return ()


@dataclass
class Resistor(Element):
    """A linear resistor."""

    node_a: str = ""
    node_b: str = ""
    resistance: float = 1.0

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise NetlistError(f"resistor {self.name}: resistance must be positive")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.node_a, self.node_b)


@dataclass
class Capacitor(Element):
    """A linear capacitor.

    Capacitors carry no current in DC; the transient engine turns each
    capacitor branch into a companion model.
    """

    node_a: str = ""
    node_b: str = ""
    capacitance: float = 1e-15

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise NetlistError(f"capacitor {self.name}: capacitance must be non-negative")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.node_a, self.node_b)

    def capacitor_branches(self) -> Sequence[Tuple[str, str, float]]:
        return ((self.node_a, self.node_b, self.capacitance),)


@dataclass
class VoltageSource(Element):
    """An independent voltage source with an optional time-dependent value."""

    node_plus: str = ""
    node_minus: str = "0"
    stimulus: Stimulus = field(default_factory=lambda: DCValue(0.0))

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.node_plus, self.node_minus)

    def value(self, time: float) -> float:
        return self.stimulus(time)


@dataclass
class CurrentSource(Element):
    """An independent current source with an optional time-dependent value."""

    node_plus: str = ""
    node_minus: str = "0"
    stimulus: Stimulus = field(default_factory=lambda: DCValue(0.0))

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.node_plus, self.node_minus)

    def value(self, time: float) -> float:
        return self.stimulus(time)


@dataclass
class Mosfet(Element):
    """A four-terminal MOSFET using the EKV-style compact model.

    Attributes
    ----------
    drain, gate, source, bulk:
        Node names of the four terminals.
    params:
        Device-type parameters (:class:`~repro.technology.mosfet.MosfetParams`).
    width, length:
        Drawn geometry in metres.  ``length`` defaults to the technology's
        drawn length when left as ``None``.
    include_parasitics:
        When true (default) the device contributes its overlap, intrinsic and
        junction capacitances as capacitor branches, which is what produces
        the Miller coupling and internal-node charge storage the paper relies
        on.
    """

    drain: str = ""
    gate: str = ""
    source: str = ""
    bulk: str = ""
    params: Optional[MosfetParams] = None
    width: float = 1e-6
    length: Optional[float] = None
    include_parasitics: bool = True

    def __post_init__(self) -> None:
        if self.params is None:
            raise NetlistError(f"mosfet {self.name}: params are required")
        if self.width <= 0:
            raise NetlistError(f"mosfet {self.name}: width must be positive")
        if self.length is None:
            self.length = self.params.default_length
        if self.length <= 0:
            raise NetlistError(f"mosfet {self.name}: length must be positive")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.drain, self.gate, self.source, self.bulk)

    @property
    def is_nonlinear(self) -> bool:
        return True

    def evaluate(self, vg: float, vd: float, vs: float, vb: float) -> Tuple[float, Dict[str, float]]:
        """Drain current and terminal-voltage derivatives at a bias point."""
        assert self.params is not None and self.length is not None
        return drain_current_scaled_and_derivatives(
            self.params, self.width, self.length, vg, vd, vs, vb
        )

    def capacitor_branches(self) -> Sequence[Tuple[str, str, float]]:
        if not self.include_parasitics:
            return ()
        assert self.params is not None and self.length is not None
        caps = terminal_capacitances(self.params, self.width, self.length)
        return (
            (self.gate, self.source, caps["cgs"]),
            (self.gate, self.drain, caps["cgd"]),
            (self.gate, self.bulk, caps["cgb"]),
            (self.drain, self.bulk, caps["cdb"]),
            (self.source, self.bulk, caps["csb"]),
        )
