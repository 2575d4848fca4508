"""Experiment drivers reproducing every figure of the paper's evaluation.

One module per figure:

* :mod:`repro.experiments.fig3_internal_node` — internal-node voltage vs
  input history (Fig. 3),
* :mod:`repro.experiments.fig4_output_history` — output waveforms of the two
  histories (Fig. 4),
* :mod:`repro.experiments.fig5_delay_difference` — history delay difference
  vs FO1..FO8 load (Fig. 5),
* :mod:`repro.experiments.fig9_accuracy` — MCSM vs baseline-MIS delay error
  (Fig. 9),
* :mod:`repro.experiments.fig10_glitch` — glitch waveform accuracy (Fig. 10),
* :mod:`repro.experiments.fig11_mis_comparison` — MIS waveforms, MCSM vs SIS
  CSM (Fig. 11),
* :mod:`repro.experiments.fig12_crosstalk` — crosstalk delay-noise sweep
  (Fig. 12).
"""

from .common import (
    ExperimentContext,
    HISTORY_LABELS,
    default_context,
    nor2_history_patterns,
    settings_context,
)
from .fig3_internal_node import Fig3Result, run_fig3
from .sta_scaling import StaScalePoint, StaScaleResult, run_sta_scale
from .corner_sweep import (
    CornerStaPoint,
    CornerSweepResult,
    corner_sta_sweep,
    run_corner_sweep,
)
from .fig4_output_history import Fig4Result, run_fig4
from .fig5_delay_difference import Fig5Result, Fig5Row, run_fig5
from .fig9_accuracy import Fig9Case, Fig9Result, run_fig9
from .fig10_glitch import Fig10Result, run_fig10
from .fig11_mis_comparison import Fig11Result, run_fig11
from .fig12_crosstalk import Fig12Point, Fig12Result, run_fig12

__all__ = [
    "ExperimentContext",
    "default_context",
    "settings_context",
    "nor2_history_patterns",
    "HISTORY_LABELS",
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "Fig5Row",
    "run_fig5",
    "Fig9Case",
    "Fig9Result",
    "run_fig9",
    "Fig10Result",
    "run_fig10",
    "Fig11Result",
    "run_fig11",
    "Fig12Point",
    "Fig12Result",
    "run_fig12",
    "StaScalePoint",
    "StaScaleResult",
    "run_sta_scale",
    "CornerStaPoint",
    "CornerSweepResult",
    "corner_sta_sweep",
    "run_corner_sweep",
]
