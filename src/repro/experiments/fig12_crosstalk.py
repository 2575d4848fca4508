"""Figure 12: crosstalk experiment — delay error vs noise-injection time.

Setup (Section 4 of the paper): input line A of the NOR2 gate is coupled to
an aggressor line through a 50 fF capacitor; both victim and aggressor lines
are driven by minimum-sized inverters; the NOR2 carries an FO2 load.  The
victim transition is launched at a fixed time (2.2 ns) while the aggressor
launch time (the noise-injection time) is swept from 2 ns to 3 ns.  For every
injection time the noisy victim waveform is recorded, the MCSM computes the
NOR2 output from that waveform, and the 50 % delay error and the waveform
RMSE against the reference simulation are reported.  The paper quotes an
average RMSE of 1.4 % of Vdd and delay errors of a few picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..csm.loads import CapacitiveLoad
from ..interconnect.crosstalk import CrosstalkBench, CrosstalkConfig
from ..waveform.metrics import crossing_time, normalized_rmse
from .common import ExperimentContext, default_context

__all__ = ["Fig12Point", "Fig12Result", "run_fig12"]


@dataclass
class Fig12Point:
    """Results for one noise-injection time."""

    injection_time: float
    reference_delay: float
    mcsm_delay: float
    rmse_fraction_of_vdd: float

    @property
    def delay_error(self) -> float:
        """Signed delay error (model minus reference), in seconds."""
        return self.mcsm_delay - self.reference_delay


@dataclass
class Fig12Result:
    """The noise-injection sweep."""

    points: List[Fig12Point]
    vdd: float
    victim_arrival: float

    def average_rmse_fraction(self) -> float:
        return float(np.mean([p.rmse_fraction_of_vdd for p in self.points]))

    def max_delay_error(self) -> float:
        return float(max(abs(p.delay_error) for p in self.points))

    def summary(self) -> str:
        lines = [
            "Fig. 12 — crosstalk noise: MCSM delay error vs noise-injection time",
            f"  {'injection (ns)':>15} {'ref delay (ps)':>15} {'MCSM delay (ps)':>16} "
            f"{'error (ps)':>11} {'RMSE (%Vdd)':>12}",
        ]
        for point in self.points:
            lines.append(
                f"  {point.injection_time * 1e9:15.3f} {point.reference_delay * 1e12:15.2f} "
                f"{point.mcsm_delay * 1e12:16.2f} {point.delay_error * 1e12:11.2f} "
                f"{100 * point.rmse_fraction_of_vdd:12.2f}"
            )
        lines.append(
            f"  average RMSE: {100 * self.average_rmse_fraction():.2f} % of Vdd "
            f"(paper: 1.4 %); max |delay error|: {self.max_delay_error() * 1e12:.2f} ps"
        )
        return "\n".join(lines)


def run_fig12(
    context: Optional[ExperimentContext] = None,
    injection_times: Optional[Sequence[float]] = None,
    num_points: int = 11,
    sweep_start: float = 2.0e-9,
    sweep_stop: float = 2.35e-9,
    crosstalk_config: Optional[CrosstalkConfig] = None,
) -> Fig12Result:
    """Reproduce Fig. 12 of the paper.

    Parameters
    ----------
    injection_times:
        Explicit sweep of aggressor launch times; overrides ``num_points`` /
        ``sweep_start`` / ``sweep_stop``.  The paper sweeps 2 ns to 3 ns in
        10 ps steps (101 points); the default here covers the interesting
        window around the victim transition with a coarser step so the full
        reference simulation sweep stays reasonably fast — pass an explicit
        range for the full-resolution run.
    """
    context = context or default_context()
    vdd = context.vdd
    config = crosstalk_config or CrosstalkConfig()
    bench = CrosstalkBench(context.technology, config, cell_under_test=context.nor2)
    mcsm = context.mcsm_for()
    load = CapacitiveLoad(context.fanout_load_capacitance(config.fanout))

    if injection_times is None:
        injection_times = np.linspace(sweep_start, sweep_stop, num_points)

    half_vdd = 0.5 * vdd
    references = bench.simulate_many([float(t) for t in injection_times])
    victims = [bench.victim_waveform(reference) for reference in references]
    quiets = [bench.quiet_waveform(reference) for reference in references]
    model_results = context.simulate_models(
        [
            (mcsm, {"A": victim, "B": quiet}, load)
            for victim, quiet in zip(victims, quiets)
        ]
    )
    points: List[Fig12Point] = []
    for index, (injection_time, reference) in enumerate(zip(injection_times, references)):
        victim = victims[index]
        reference_output = bench.output_waveform(reference)
        model_result = model_results[index]

        # 50 % crossing of the output, referenced to the victim-line crossing.
        # The *last* output crossing is used so that a noise-induced partial
        # dip before the real transition is not mistaken for the switching
        # edge (the output settles at its final value, so the last crossing is
        # always the true transition).
        victim_cross = crossing_time(victim, half_vdd, "rise" if config.victim_rising else "fall")
        output_direction = "fall" if config.victim_rising else "rise"
        reference_cross = crossing_time(reference_output, half_vdd, output_direction, occurrence=-1)
        model_cross = crossing_time(model_result.output, half_vdd, output_direction, occurrence=-1)
        window = (config.victim_arrival - 0.3e-9, config.t_stop)
        rmse = normalized_rmse(
            reference_output.window(*window), model_result.output.window(*window), vdd
        )
        points.append(
            Fig12Point(
                injection_time=float(injection_time),
                reference_delay=reference_cross - victim_cross,
                mcsm_delay=model_cross - victim_cross,
                rmse_fraction_of_vdd=rmse,
            )
        )
    return Fig12Result(points=points, vdd=vdd, victim_arrival=config.victim_arrival)
