"""Shared infrastructure for the paper-figure experiments.

Every experiment of the evaluation section runs against the same
:class:`ExperimentContext`: one technology, one cell library, and one
:class:`~repro.sta.models.TimingModelLibrary` of characterized models (SIS
CSM, baseline MIS CSM, complete MCSM for the NOR2 cell the paper uses
throughout).  The model library is the one characterization front of the
repository, shared with the timing engines, the CLI and the server: it
memoizes every model (so one benchmark session characterizes each model
exactly once) and, when the context carries a
:class:`~repro.runtime.store.PackedStore`, persists it on disk under its
content key so *other* sessions and experiments never recompute it either.
Attaching an executor parallelizes multi-scenario experiments (e.g. the
Fig. 5 fanout sweep) across workers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cells.cell import Cell
from ..cells.library import default_library
from ..cells.testbench import build_testbench, fanout_capacitance
from ..characterization.config import CharacterizationConfig
from ..csm.loads import Load, as_load
from ..csm.models import MCSM, BaselineMISCSM, SISCSM
from ..csm.base import ModelSimulationResult, SimulationOptions
from ..runtime.store import PackedStore
from ..runtime.executor import Executor, run_jobs
from ..runtime.jobs import Job
from ..spice.transient import TransientAnalysis, TransientOptions, transient_analysis
from ..sta.models import TimingModelLibrary
from ..technology.process import Technology, default_technology
from ..waveform.builders import InputPattern, pattern_stimulus, pattern_waveforms
from ..waveform.waveform import Waveform

__all__ = [
    "ExperimentContext",
    "default_context",
    "settings_context",
    "nor2_history_patterns",
    "lockstep_history_results",
    "run_model_simulation",
    "HISTORY_LABELS",
]

#: The two "input history" scenarios of Section 2.2, by label.
HISTORY_LABELS = ("fast (10->11->00)", "slow (01->11->00)")


def nor2_history_patterns(
    transition_time: float = 50e-12,
    first_switch: float = 0.5e-9,
    second_switch: float = 2.0e-9,
) -> Dict[str, Dict[str, InputPattern]]:
    """The two NOR2 input histories of Section 2.2 of the paper.

    Case "fast": inputs go '10' -> '11' -> '00' (node N precharged to ~Vdd).
    Case "slow": inputs go '01' -> '11' -> '00' (node N starts near |Vt,p|).
    Both end with the same '11' -> '00' transition whose low-to-high output
    delay is measured.
    """
    switches = (first_switch, second_switch)
    return {
        HISTORY_LABELS[0]: {
            "A": InputPattern(levels=(1, 1, 0), switch_times=switches, transition_time=transition_time),
            "B": InputPattern(levels=(0, 1, 0), switch_times=switches, transition_time=transition_time),
        },
        HISTORY_LABELS[1]: {
            "A": InputPattern(levels=(0, 1, 0), switch_times=switches, transition_time=transition_time),
            "B": InputPattern(levels=(1, 1, 0), switch_times=switches, transition_time=transition_time),
        },
    }


def lockstep_history_results(
    cell: Cell,
    pattern_sets,
    fanout: int,
    t_stop: float,
    options: TransientOptions,
    vdd: float,
):
    """Golden transients of several pattern sets against one FO-k bench.

    All pattern sets drive the same FO-``fanout`` testbench; the batched
    transient engine integrates every variant in lockstep.  Module-level and
    argument-complete (no context capture) so the runtime can ship it to
    worker processes.  Returns ``(bench, [result, ...])`` in pattern-set
    order.
    """
    pattern_sets = list(pattern_sets)
    first = {
        pin: pattern_stimulus(pattern, vdd) for pin, pattern in pattern_sets[0].items()
    }
    bench = build_testbench(cell, first, fanout=fanout)
    engine = TransientAnalysis(bench.circuit, options)
    stimulus_sets = [
        {
            bench.input_source_names[pin]: pattern_stimulus(pattern, vdd)
            for pin, pattern in patterns.items()
        }
        for patterns in pattern_sets
    ]
    results = engine.run_many(stimulus_sets, t_stop=t_stop)
    return bench, results


def run_model_simulation(
    model,
    input_waveforms: Mapping[str, Waveform],
    load: Load,
    options: SimulationOptions,
) -> ModelSimulationResult:
    """One model waveform simulation.

    SIS models take their single switching-pin waveform; the MIS flavours
    take the full pin -> waveform mapping.
    """
    load = as_load(load)
    if isinstance(model, SISCSM):
        return model.simulate(input_waveforms[model.pin], load, options=options)
    return model.simulate(dict(input_waveforms), load, options=options)


class ExperimentContext:
    """Shared state (library + characterized models) for all experiments.

    Attributes
    ----------
    technology:
        Device/technology definition (defaults to the generic 130 nm one).
    characterization:
        Settings used for every model characterization in this context.
    reference_time_step:
        Transient step of the golden (reference simulator) runs.
    model_time_step:
        Integration step of the current-source model simulations.
    library:
        The cell library of ``technology``.
    models:
        The :class:`~repro.sta.models.TimingModelLibrary` every model of
        this context comes from, built from ``library``,
        ``characterization``, ``executor`` and ``cache``.
    executor:
        Optional :class:`repro.runtime.Executor`, a constructor argument
        read back from ``models``; multi-scenario experiments fan their
        independent jobs out through it.  ``None`` runs everything serially
        in-process.
    cache:
        Optional :class:`repro.runtime.PackedStore`, a constructor argument
        read back from ``models``; models and keyed experiment jobs are
        looked up / stored by content hash, so repeated runs (across
        experiments, benchmarks or sessions) skip the characterization work.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        characterization: Optional[CharacterizationConfig] = None,
        reference_time_step: float = 2e-12,
        model_time_step: float = 1e-12,
        executor: Optional[Executor] = None,
        cache: Optional[PackedStore] = None,
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        self.characterization = (
            characterization if characterization is not None else CharacterizationConfig()
        )
        self.reference_time_step = reference_time_step
        self.model_time_step = model_time_step
        self.library = default_library(self.technology)
        self.models = TimingModelLibrary(
            library=self.library,
            config=self.characterization,
            executor=executor,
            cache=cache,
        )

    @property
    def executor(self) -> Optional[Executor]:
        return self.models.executor

    @property
    def cache(self) -> Optional[PackedStore]:
        return self.models.cache

    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[Job]) -> List:
        """Run runtime jobs with this context's executor and cache."""
        return run_jobs(jobs, executor=self.executor, cache=self.cache)

    # ------------------------------------------------------------------
    @property
    def vdd(self) -> float:
        return self.technology.vdd

    @property
    def nor2(self) -> Cell:
        return self.library["NOR2_X1"]

    def model_options(self) -> SimulationOptions:
        return SimulationOptions(time_step=self.model_time_step)

    def reference_options(self) -> TransientOptions:
        return TransientOptions(
            time_step=self.reference_time_step, record_source_currents=False
        )

    # ------------------------------------------------------------------
    def mcsm_for(self, cell_name: str = "NOR2_X1", pin_a: str = "A", pin_b: str = "B") -> MCSM:
        """The complete MCSM of a library cell."""
        return self.models.model("mcsm", cell_name, (pin_a, pin_b))

    def baseline_mis_for(
        self, cell_name: str = "NOR2_X1", pin_a: str = "A", pin_b: str = "B"
    ) -> BaselineMISCSM:
        """The baseline MIS CSM of a library cell."""
        return self.models.model("mis", cell_name, (pin_a, pin_b))

    def sis_for(self, cell_name: str = "NOR2_X1", pin: str = "A") -> SISCSM:
        """The SIS CSM of a library cell."""
        return self.models.model("sis", cell_name, (pin,))

    def prewarm_characterizations(
        self, kinds: Sequence[str] = ("mcsm", "mis", "sis"), cell_name: str = "NOR2_X1"
    ) -> int:
        """Characterize the ``kinds`` models of a library cell as one
        bundle, so later ``mcsm_for`` / ``baseline_mis_for`` / ``sis_for``
        calls are instant.

        MIS kinds are on pins A and B, SIS on A.  Returns the number of
        models characterized, i.e. neither memoized nor served from the
        store (:meth:`TimingModelLibrary.characterize`).
        """
        cell = self.models.cell(cell_name)
        pins = {"mcsm": ("A", "B"), "mis": ("A", "B"), "sis": ("A",)}
        return self.models.characterize([(kind, cell, pins[kind]) for kind in kinds])

    # ------------------------------------------------------------------
    def simulate_models(
        self,
        requests: Sequence[Tuple],
        options: Optional[SimulationOptions] = None,
    ) -> List[ModelSimulationResult]:
        """Run model waveform simulations in-process, in request order.

        ``requests`` is a sequence of ``(model, input_waveforms, load)``
        tuples.  They are neither keyed nor stored: a simulation costs about
        as much as hashing its model and inputs, less than a store round
        trip.
        """
        options = options or self.model_options()
        return [
            run_model_simulation(model, waves, load, options)
            for model, waves, load in requests
        ]

    # ------------------------------------------------------------------
    def reference_history_run(
        self,
        patterns: Mapping[str, InputPattern],
        fanout: int,
        t_stop: float = 3.0e-9,
        cell: Optional[Cell] = None,
    ):
        """Golden transient of a cell driven by per-pin patterns with an FO-k load."""
        cell = cell or self.nor2
        stimuli = {pin: pattern_stimulus(pattern, self.vdd) for pin, pattern in patterns.items()}
        bench = build_testbench(cell, stimuli, fanout=fanout)
        result = transient_analysis(bench.circuit, t_stop=t_stop, options=self.reference_options())
        return bench, result

    def reference_history_runs(
        self,
        pattern_sets,
        fanout: int,
        t_stop: float = 3.0e-9,
        cell: Optional[Cell] = None,
    ):
        """Golden transients for several pattern sets, integrated in lockstep.

        All pattern sets drive the same FO-``fanout`` testbench; the batched
        transient engine solves every variant simultaneously, so comparing the
        paper's input histories costs barely more than one transient.  Returns
        ``(bench, [result, ...])`` with results in pattern-set order.
        """
        cell = cell or self.nor2
        return lockstep_history_results(
            cell, pattern_sets, fanout, t_stop, self.reference_options(), self.vdd
        )

    def model_history_waveforms(
        self, patterns: Mapping[str, InputPattern], t_stop: float = 3.0e-9
    ) -> Dict[str, Waveform]:
        """Sampled input waveforms matching :meth:`reference_history_run`."""
        return pattern_waveforms(dict(patterns), self.vdd, t_stop)

    def fanout_load_capacitance(self, fanout: int) -> float:
        """Lumped equivalent of the FO-k receiver load (for the model side)."""
        return fanout_capacitance(self.technology, fanout)


_DEFAULT_CONTEXT: Optional[ExperimentContext] = None


def settings_context(
    settings: str, executor: Optional[Executor] = None, cache: Optional[PackedStore] = None
) -> ExperimentContext:
    """An :class:`ExperimentContext` for a named resolution profile.

    The one definition of ``--settings``, read by the CLI, the timing server
    and :func:`default_context`: ``quick`` is a 5-point characterization grid
    with 4 ps reference and 2 ps model steps; ``paper`` is the context
    defaults.
    """
    if settings == "quick":
        return ExperimentContext(
            characterization=CharacterizationConfig(io_grid_points=5),
            reference_time_step=4e-12,
            model_time_step=2e-12,
            executor=executor,
            cache=cache,
        )
    if settings == "paper":
        return ExperimentContext(executor=executor, cache=cache)
    raise ValueError(f"unknown settings {settings!r}")


def default_context(fast: bool = False) -> ExperimentContext:
    """The process-wide shared context used by benchmarks and examples.

    Parameters
    ----------
    fast:
        When true, a coarser characterization grid and larger time steps are
        used; intended for quick smoke runs and CI.  The first call decides
        the configuration; later calls return the same object regardless.
    """
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = settings_context("quick" if fast else "paper")
    return _DEFAULT_CONTEXT
