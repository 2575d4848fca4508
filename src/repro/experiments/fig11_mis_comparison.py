"""Figure 11: multiple-input switching — MCSM vs reference vs SIS CSM.

The paper's Fig. 11 drives both NOR2 inputs with (nearly) simultaneous falling
transitions and overlays three output waveforms: the HSPICE reference, the
MCSM prediction and the prediction of a single-input-switching CSM ([5]).
The MCSM tracks the reference closely while the SIS model — which by
construction sees only one switching input and assumes the other is parked at
its non-controlling value — is significantly off.

This experiment reproduces the comparison and reports the 50 % delay of each
waveform plus the waveform RMSE of both models against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..csm.loads import CapacitiveLoad
from ..waveform.builders import InputPattern, pattern_waveforms
from ..waveform.metrics import normalized_rmse, propagation_delay
from ..waveform.waveform import Waveform
from .common import ExperimentContext, default_context

__all__ = ["Fig11Result", "run_fig11"]


@dataclass
class Fig11Result:
    """Waveforms and metrics reproducing Fig. 11."""

    reference_output: Waveform
    mcsm_output: Waveform
    sis_output: Waveform
    input_waveforms: Dict[str, Waveform]
    reference_delay: float
    mcsm_delay: float
    sis_delay: float
    mcsm_rmse: float
    sis_rmse: float
    vdd: float

    @property
    def mcsm_delay_error_percent(self) -> float:
        return 100.0 * (self.mcsm_delay - self.reference_delay) / self.reference_delay

    @property
    def sis_delay_error_percent(self) -> float:
        return 100.0 * (self.sis_delay - self.reference_delay) / self.reference_delay

    def summary(self) -> str:
        return "\n".join(
            [
                "Fig. 11 — simultaneous input switching: MCSM vs SIS CSM vs reference",
                f"  reference delay: {self.reference_delay * 1e12:.2f} ps",
                f"  MCSM delay     : {self.mcsm_delay * 1e12:.2f} ps "
                f"({self.mcsm_delay_error_percent:+.1f} %), RMSE {100 * self.mcsm_rmse:.2f} % of Vdd",
                f"  SIS CSM delay  : {self.sis_delay * 1e12:.2f} ps "
                f"({self.sis_delay_error_percent:+.1f} %), RMSE {100 * self.sis_rmse:.2f} % of Vdd",
            ]
        )


def run_fig11(
    context: Optional[ExperimentContext] = None,
    fanout: int = 2,
    skew: float = 20e-12,
    transition_time: float = 60e-12,
    switch_time: float = 2.0e-9,
) -> Fig11Result:
    """Reproduce Fig. 11 of the paper.

    Parameters
    ----------
    skew:
        Arrival-time difference between the two falling inputs (B switches
        ``skew`` seconds after A); 0 gives perfectly simultaneous switching.
    """
    context = context or default_context()
    vdd = context.vdd
    cell = context.nor2
    mcsm = context.mcsm_for()
    sis = context.sis_for(pin="A")
    t_stop = switch_time + 1.0e-9

    patterns = {
        "A": InputPattern(levels=(1, 0), switch_times=(switch_time,), transition_time=transition_time),
        "B": InputPattern(
            levels=(1, 0), switch_times=(switch_time + max(skew, 1e-15),), transition_time=transition_time
        ),
    }
    _, reference = context.reference_history_run(patterns, fanout=fanout, t_stop=t_stop)
    reference_output = reference.waveform(cell.output)
    reference_delay = propagation_delay(
        reference.waveform("A"), reference_output, vdd, input_direction="fall", output_direction="rise"
    )

    waves = pattern_waveforms(patterns, vdd, t_stop)
    load = CapacitiveLoad(context.fanout_load_capacitance(fanout))
    # The SIS model only knows about one switching input (pin A); input B is
    # implicitly assumed to sit at its non-controlling value, which is exactly
    # the approximation the paper criticizes.
    mcsm_result, sis_result = context.simulate_models(
        [(mcsm, waves, load), (sis, waves, load)]
    )

    mcsm_delay = propagation_delay(
        waves["A"], mcsm_result.output, vdd, input_direction="fall", output_direction="rise"
    )
    sis_delay = propagation_delay(
        waves["A"], sis_result.output, vdd, input_direction="fall", output_direction="rise"
    )
    window = (switch_time - 0.2e-9, t_stop)
    mcsm_rmse = normalized_rmse(
        reference_output.window(*window), mcsm_result.output.window(*window), vdd
    )
    sis_rmse = normalized_rmse(
        reference_output.window(*window), sis_result.output.window(*window), vdd
    )
    return Fig11Result(
        reference_output=reference_output,
        mcsm_output=mcsm_result.output,
        sis_output=sis_result.output,
        input_waveforms=waves,
        reference_delay=reference_delay,
        mcsm_delay=mcsm_delay,
        sis_delay=sis_delay,
        mcsm_rmse=mcsm_rmse,
        sis_rmse=sis_rmse,
        vdd=vdd,
    )
