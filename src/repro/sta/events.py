"""Timing events and MIS (timing-window overlap) detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..exceptions import TimingError

__all__ = ["TimingEvent", "windows_overlap", "detect_mis_pairs"]


@dataclass(frozen=True)
class TimingEvent:
    """A transition on a net as the voltage-based engine sees it.

    Attributes
    ----------
    net:
        Net the event occurs on.
    arrival:
        50 % crossing time in seconds.
    slew:
        20-80 % transition time in seconds.
    rising:
        Transition direction.
    """

    net: str
    arrival: float
    slew: float
    rising: bool

    def window(self, guard_factor: float = 1.0) -> Tuple[float, float]:
        """The time window during which the net is considered to be switching."""
        half = guard_factor * self.slew
        return (self.arrival - half, self.arrival + half)


def windows_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """True when two closed intervals intersect."""
    return a[0] <= b[1] and b[0] <= a[1]


def detect_mis_pairs(
    events: Dict[str, TimingEvent],
    input_pins: Sequence[str],
    pin_nets: Dict[str, str],
    guard_factor: float = 1.0,
) -> List[Tuple[str, str]]:
    """Find pairs of input pins whose switching windows overlap.

    Parameters
    ----------
    events:
        Net name -> event, for nets that actually switch.
    input_pins:
        The cell's input pins, in order.
    pin_nets:
        Pin name -> net name for the instance under consideration.
    guard_factor:
        Scale factor on the slew when building the windows; values above 1.0
        flag "near-overlap" situations as MIS too (pessimistic detection).

    Returns
    -------
    list of (pin, pin) tuples, earliest-arriving pin first.
    """
    if guard_factor <= 0:
        raise TimingError("guard_factor must be positive")
    switching = [
        (pin, events[pin_nets[pin]])
        for pin in input_pins
        if pin_nets.get(pin) in events
    ]
    pairs: List[Tuple[str, str]] = []
    for index, (pin_a, event_a) in enumerate(switching):
        for pin_b, event_b in switching[index + 1 :]:
            if windows_overlap(event_a.window(guard_factor), event_b.window(guard_factor)):
                ordered = (pin_a, pin_b) if event_a.arrival <= event_b.arrival else (pin_b, pin_a)
                pairs.append(ordered)
    return pairs
