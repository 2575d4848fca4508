"""Figure 9: MCSM accuracy for the fast/slow history cases (vs the baseline).

The paper's Fig. 9 overlays the reference (HSPICE) output waveforms of the
two input-history cases with the MCSM predictions and reports a maximum delay
error of 4 % for MCSM versus ~22 % for a MIS CSM that neglects the internal
node (the Section 3.1 baseline).  This experiment reproduces that comparison
for a lightly loaded NOR2: both models are characterized once, the reference
waveforms are generated with real fanout-inverter loads, and the model
waveforms are computed with the equivalent receiver-capacitance load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..csm.loads import CapacitiveLoad
from ..waveform.metrics import normalized_rmse, propagation_delay
from ..waveform.waveform import Waveform
from .common import HISTORY_LABELS, ExperimentContext, default_context, nor2_history_patterns

__all__ = ["Fig9Case", "Fig9Result", "run_fig9"]


@dataclass
class Fig9Case:
    """Results for one input-history case."""

    label: str
    reference_delay: float
    mcsm_delay: float
    baseline_delay: float
    mcsm_rmse: float
    reference_output: Waveform
    mcsm_output: Waveform
    baseline_output: Waveform

    @property
    def mcsm_error_percent(self) -> float:
        return 100.0 * (self.mcsm_delay - self.reference_delay) / self.reference_delay

    @property
    def baseline_error_percent(self) -> float:
        return 100.0 * (self.baseline_delay - self.reference_delay) / self.reference_delay


@dataclass
class Fig9Result:
    """Both history cases plus the headline error comparison."""

    cases: List[Fig9Case]
    fanout: int
    vdd: float

    def max_mcsm_error_percent(self) -> float:
        return max(abs(case.mcsm_error_percent) for case in self.cases)

    def max_baseline_error_percent(self) -> float:
        return max(abs(case.baseline_error_percent) for case in self.cases)

    def summary(self) -> str:
        lines = [
            f"Fig. 9 — MCSM vs reference for the fast/slow cases (FO{self.fanout} load)",
            f"  {'case':<22} {'reference':>10} {'MCSM':>16} {'baseline MIS':>18}",
        ]
        for case in self.cases:
            lines.append(
                f"  {case.label:<22} {case.reference_delay * 1e12:8.2f} ps "
                f"{case.mcsm_delay * 1e12:8.2f} ps ({case.mcsm_error_percent:+5.1f} %) "
                f"{case.baseline_delay * 1e12:8.2f} ps ({case.baseline_error_percent:+5.1f} %)"
            )
        lines.append(
            f"  max |delay error|: MCSM {self.max_mcsm_error_percent():.1f} % vs "
            f"baseline-MIS {self.max_baseline_error_percent():.1f} % "
            "(paper: 4 % vs 22 %)"
        )
        return "\n".join(lines)


def run_fig9(
    context: Optional[ExperimentContext] = None,
    fanout: int = 1,
    transition_time: float = 50e-12,
) -> Fig9Result:
    """Reproduce Fig. 9 of the paper.

    Parameters
    ----------
    fanout:
        Output load in fanout inverters; the paper emphasises lightly loaded
        cells, so FO1 is the default.
    """
    context = context or default_context()
    patterns = nor2_history_patterns(transition_time=transition_time)
    mcsm = context.mcsm_for()
    baseline = context.baseline_mis_for()
    load_cap = context.fanout_load_capacitance(fanout)

    _, references = context.reference_history_runs(patterns.values(), fanout=fanout)

    wave_sets = [context.model_history_waveforms(p) for p in patterns.values()]
    sims = context.simulate_models(
        [
            (model, waves, CapacitiveLoad(load_cap))
            for waves in wave_sets
            for model in (mcsm, baseline)
        ]
    )

    cases: List[Fig9Case] = []
    for case_index, ((label, pattern_set), reference) in enumerate(
        zip(patterns.items(), references)
    ):
        reference_output = reference.waveform(context.nor2.output)
        input_a = reference.waveform("A")
        reference_delay = propagation_delay(
            input_a, reference_output, context.vdd, input_direction="fall", output_direction="rise"
        )

        waves = wave_sets[case_index]
        mcsm_result = sims[2 * case_index]
        baseline_result = sims[2 * case_index + 1]
        mcsm_delay = propagation_delay(
            waves["A"], mcsm_result.output, context.vdd, input_direction="fall", output_direction="rise"
        )
        baseline_delay = propagation_delay(
            waves["A"],
            baseline_result.output,
            context.vdd,
            input_direction="fall",
            output_direction="rise",
        )
        final_window = (1.9e-9, min(reference_output.t_stop, mcsm_result.output.t_stop))
        rmse = normalized_rmse(
            reference_output.window(*final_window),
            mcsm_result.output.window(*final_window),
            context.vdd,
        )
        cases.append(
            Fig9Case(
                label=label,
                reference_delay=reference_delay,
                mcsm_delay=mcsm_delay,
                baseline_delay=baseline_delay,
                mcsm_rmse=rmse,
                reference_output=reference_output,
                mcsm_output=mcsm_result.output,
                baseline_output=baseline_result.output,
            )
        )
    return Fig9Result(cases=cases, fanout=fanout, vdd=context.vdd)
