"""Configuration of the cell-characterization flows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from ..exceptions import CharacterizationError

__all__ = ["CharacterizationConfig"]


@dataclass(frozen=True)
class CharacterizationConfig:
    """Knobs of the DC and transient characterization procedures.

    Attributes
    ----------
    io_grid_points:
        Number of grid points per voltage axis of the ``Io`` / ``I_N`` lookup
        tables.  The paper uses 4-D tables; the grid resolution is the main
        accuracy/cost trade-off (see the grid-resolution ablation benchmark).
    voltage_margin:
        The paper's safety margin ``delta_v``: table axes span
        ``[-margin, Vdd + margin]`` so that overshoot/undershoot during noisy
        transitions stays inside the table.
    cap_ramp_slews:
        The two saturated-ramp transition times used for capacitance
        extraction; capacitances are obtained from the difference of the two
        responses (which cancels the DC current) and then averaged, matching
        the paper's "average value over ramp slopes" choice.
    cap_ramp_settle:
        Quiet time before the characterization ramp starts.  It is only that:
        no trailing window is simulated, since each capacitance transient
        ends at its first grid point past the last sample it takes.
    cap_time_step:
        Transient step used during capacitance extraction.
    cap_sample_fractions:
        Fractions of the ramp (by input voltage) between which samples are
        taken when averaging extracted capacitances; the edges of the ramp
        are excluded because the instantaneous slope is ill-defined there.
    dc_gmin:
        Minimum conductance to ground used in DC characterization (keeps
        floating internal nodes solvable for the baseline model).
    miller_other_pin_state:
        Logic state of the *other* switching pin while a Miller capacitance is
        characterized.  ``"non_controlling"`` (default) keeps the other pin at
        its non-controlling value, so the measured coupling includes the
        charge that reaches the output through the (partially) conducting
        series stack.  Because the model deliberately has no Miller coupling
        onto the internal node (the paper neglects it), this inflated Miller
        term is what actually reproduces the reference waveforms best; the
        alternative ``"controlling"`` setting measures only the direct
        gate-to-output overlap coupling and is kept for the ablation study.
    """

    io_grid_points: int = 7
    voltage_margin: float = 0.1
    cap_ramp_slews: Tuple[float, float] = (40e-12, 160e-12)
    cap_ramp_settle: float = 50e-12
    cap_time_step: float = 1e-12
    cap_sample_fractions: Tuple[float, float] = (0.2, 0.8)
    dc_gmin: float = 1e-12
    miller_other_pin_state: str = "non_controlling"

    def __post_init__(self) -> None:
        if self.io_grid_points < 3:
            raise CharacterizationError("io_grid_points must be at least 3")
        if self.voltage_margin < 0:
            raise CharacterizationError("voltage_margin must be non-negative")
        if len(self.cap_ramp_slews) != 2 or self.cap_ramp_slews[0] == self.cap_ramp_slews[1]:
            raise CharacterizationError("cap_ramp_slews must be two distinct transition times")
        low, high = self.cap_sample_fractions
        if not (0.0 <= low < high <= 1.0):
            raise CharacterizationError("cap_sample_fractions must satisfy 0 <= low < high <= 1")
        if self.miller_other_pin_state not in ("controlling", "non_controlling"):
            raise CharacterizationError(
                "miller_other_pin_state must be 'controlling' or 'non_controlling'"
            )

    def with_grid_points(self, points: int) -> "CharacterizationConfig":
        """Return a copy with a different I/V-table grid resolution."""
        from dataclasses import replace

        return replace(self, io_grid_points=points)
