"""Transient analysis (backward-Euler integration with per-step Newton).

Backward Euler is unconditionally stable and slightly lossy, which is exactly
what is wanted from a reference simulator used for cell characterization: the
waveforms stay smooth and monotone for saturated-ramp stimuli, and accuracy is
controlled by the step size.  All of the paper's experiments run with steps of
0.5-2 ps over windows of a few nanoseconds.

The engine is built for throughput: every stimulus is pre-sampled over the
whole time grid with one vectorized call, the ``static + C/dt`` base matrix
(and, for linear circuits, its LU factorization) is cached per distinct time
step, node waveforms are recorded into preallocated ``(num_nodes, num_steps)``
arrays instead of per-step list appends, and :meth:`TransientAnalysis.run_many`
integrates a whole batch of stimulus (and capacitor-value) variants of the
same circuit in lockstep through the batched Newton solver (one
``np.linalg.solve`` over ``(B, n, n)`` per iteration).  The capacitance and
NLDM characterization flows use that to run all their ramp (and load)
variants simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..exceptions import AnalysisError, ConvergenceError
from .mna import MNAAssembler, NewtonOptions, newton_solve, newton_solve_many
from .netlist import Circuit
from .results import TransientResult
from .sources import DCValue, Stimulus

__all__ = [
    "TransientOptions",
    "transient_analysis",
    "transient_analysis_many",
    "TransientAnalysis",
]

#: A breakpoint closer than this fraction of the time step to a base grid
#: point *is* that point and adds none.  A ramp corner computed as
#: ``start + slew`` can miss the ``np.arange`` point it names by an ulp (a
#: 60 ps ramp from 100 ps ends 2.6e-26 s after the 160th 1 ps point), and
#: keeping it would add a sliver step to the grid.
BREAKPOINT_SNAP = 1e-6


@dataclass
class TransientOptions:
    """Settings for a transient run.

    Attributes
    ----------
    time_step:
        Nominal integration step in seconds.
    gmin:
        Minimum conductance from each node to ground.
    include_breakpoints:
        When true (default) all stimulus breakpoints are inserted into the
        time grid so that ramp corners are hit exactly; one within
        :data:`BREAKPOINT_SNAP` steps of a base grid point is that point.
    newton:
        Newton-Raphson options used at every time point.
    record_source_currents:
        When true (default) the current of every voltage source is stored;
        characterization needs this, plain waveform comparisons do not.
    """

    time_step: float = 1e-12
    gmin: float = 1e-12
    include_breakpoints: bool = True
    newton: NewtonOptions = None  # type: ignore[assignment]
    record_source_currents: bool = True

    def __post_init__(self) -> None:
        if self.time_step <= 0:
            raise AnalysisError("time_step must be positive")
        if self.newton is None:
            self.newton = NewtonOptions()


class TransientAnalysis:
    """A transient engine bound to a circuit (reusable across runs)."""

    def __init__(self, circuit: Circuit, options: Optional[TransientOptions] = None):
        self.circuit = circuit
        self.options = options or TransientOptions()
        self.assembler = MNAAssembler(circuit, gmin=self.options.gmin)

    # ------------------------------------------------------------------
    def _time_grid(
        self,
        t_stop: float,
        t_start: float,
        extra_breakpoints: Iterable[float] = (),
    ) -> np.ndarray:
        base = np.arange(t_start, t_stop + 0.5 * self.options.time_step, self.options.time_step)
        # np.arange can overshoot t_stop by up to half a step; the window must
        # end exactly at t_stop so waveform comparisons line up.
        if base[-1] > t_stop:
            base[-1] = t_stop
        elif base[-1] < t_stop:
            base = np.append(base, t_stop)
        breakpoints: List[float] = list(extra_breakpoints)
        if self.options.include_breakpoints:
            for source in self.assembler.voltage_sources + self.assembler.current_sources:
                breakpoints.extend(source.stimulus.breakpoints())
        inside = np.asarray([t for t in breakpoints if t_start < t < t_stop], dtype=float)
        if inside.size:
            after = np.searchsorted(base, inside).clip(1, len(base) - 1)
            gap = np.minimum(inside - base[after - 1], base[after] - inside)
            inside = inside[gap > BREAKPOINT_SNAP * self.options.time_step]
        if not inside.size:
            return base
        return np.unique(np.concatenate([base, inside]))

    def _initial_solution(
        self,
        initial_voltages: Optional[Dict[str, float]],
        t_start: float,
        source_values=None,
    ) -> np.ndarray:
        """DC solution at ``t_start`` seeded (and optionally pinned) by user ICs."""
        guess = np.zeros(self.assembler.size)
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = self.assembler.index_of_node(node)
                if idx >= 0:
                    guess[idx] = value
        try:
            solution = newton_solve(
                self.assembler,
                guess,
                t_start,
                options=self.options.newton,
                source_values=source_values,
            )
        except ConvergenceError:
            # Fall back to gmin-stepped DC for a robust starting point.
            from .dc import DCAnalysis

            analysis = DCAnalysis(self.circuit, gmin=self.options.gmin, options=self.options.newton)
            op = analysis.solve(time=t_start, initial_guess=initial_voltages)
            solution = np.zeros(self.assembler.size)
            for node, idx in self.assembler.node_index.items():
                solution[idx] = op.voltages[node]
            for name, idx in self.assembler.branch_index.items():
                solution[idx] = op.branch_currents[name]
        if initial_voltages:
            # Honour explicit initial conditions exactly: override the DC value.
            for node, value in initial_voltages.items():
                idx = self.assembler.index_of_node(node)
                if idx >= 0:
                    solution[idx] = value
        return solution

    # ------------------------------------------------------------------
    def _record_indices(self, record_nodes: Optional[Sequence[str]]) -> List[str]:
        nodes = list(record_nodes) if record_nodes else list(self.circuit.non_ground_nodes)
        for node in nodes:
            if not self.circuit.has_node(node):
                raise AnalysisError(f"cannot record unknown node {node!r}")
        return nodes

    def _recording_plan(self, nodes: Sequence[str]):
        """Gather indices shared by the scalar and lockstep recorders.

        Node gathers go through a zero-padded solution vector so that
        ground-recorded nodes read 0.0 without masking.
        """
        assembler = self.assembler
        pad = assembler.size
        node_gather = np.array(
            [assembler.index_of_node(n) if assembler.index_of_node(n) >= 0 else pad for n in nodes],
            dtype=np.intp,
        )
        branch_gather = np.array(
            [assembler.branch_index[s.name] for s in assembler.voltage_sources], dtype=np.intp
        )
        return node_gather, branch_gather

    def _step_cache_entry(self, step_cache: Dict[float, tuple], dt: float):
        """Per-dt companion matrix, prebuilt base matrix and (linear) LU."""
        key = round(dt, 18)
        cached = step_cache.get(key)
        if cached is None:
            assembler = self.assembler
            cap_matrix = assembler.capacitor_companion_matrix(dt)
            base_matrix = assembler._static_matrix + cap_matrix
            lu = assembler.linear_lu(cap_matrix) if assembler.is_linear else None
            cached = (cap_matrix, base_matrix, lu)
            step_cache[key] = cached
        return cached

    def _row_step_cache_entry(
        self, step_cache: Dict[float, tuple], dt: float, row_caps: np.ndarray
    ):
        """Per-run companion matrices (and linear LUs) for ``(B, branches)``
        capacitances, cached like :meth:`_step_cache_entry`: under
        ``round(dt, 18)`` with the first dt seen, so every run's matrix is
        the one its own scalar :meth:`run` would build."""
        key = round(dt, 18)
        cached = step_cache.get(key)
        if cached is None:
            assembler = self.assembler
            cap_matrices = np.stack(
                [assembler.capacitor_companion_matrix(dt, values) for values in row_caps]
            )
            lus = [assembler.linear_lu(m) for m in cap_matrices] if assembler.is_linear else None
            cached = (cap_matrices, lus)
            step_cache[key] = cached
        return cached

    def _sample_sources(self, times: np.ndarray, overrides: Optional[Mapping[str, Stimulus]] = None):
        """Pre-sample every source stimulus over the whole grid.

        Returns ``(vs_samples, cs_samples)`` with shapes ``(V, T)`` and
        ``(C, T)``.  ``overrides`` maps source names to replacement stimuli
        (used by the lockstep batch runner).
        """
        overrides = overrides or {}

        def stimulus_for(source) -> Stimulus:
            return overrides.get(source.name, source.stimulus)

        assembler = self.assembler
        num_steps = len(times)
        vs = np.empty((len(assembler.voltage_sources), num_steps))
        for position, source in enumerate(assembler.voltage_sources):
            vs[position] = stimulus_for(source).sample(times)
        cs = np.empty((len(assembler.current_sources), num_steps))
        for position, source in enumerate(assembler.current_sources):
            cs[position] = stimulus_for(source).sample(times)
        return vs, cs

    def run(
        self,
        t_stop: float,
        t_start: float = 0.0,
        initial_voltages: Optional[Dict[str, float]] = None,
        record_nodes: Optional[Sequence[str]] = None,
    ) -> TransientResult:
        """Integrate the circuit from ``t_start`` to ``t_stop``.

        Parameters
        ----------
        t_stop, t_start:
            Simulation window in seconds.
        initial_voltages:
            Optional initial node voltages.  Nodes not listed start from the
            DC operating point at ``t_start``; listed nodes are forced to the
            given value at the first time point (useful for imposing an
            internal-node precharge without simulating its history).
        record_nodes:
            Subset of nodes to record.  Defaults to every node.
        """
        if t_stop <= t_start:
            raise AnalysisError("t_stop must be greater than t_start")

        assembler = self.assembler
        times = self._time_grid(t_stop, t_start)
        num_steps = len(times)
        nodes = self._record_indices(record_nodes)

        vs_samples, cs_samples = self._sample_sources(times)
        solution = self._initial_solution(
            initial_voltages, times[0], source_values=(vs_samples[:, 0], cs_samples[:, 0])
        )

        # Preallocated recording: one (num_recorded, num_steps) voltage block
        # and one (num_sources, num_steps) current block.
        node_gather, branch_gather = self._recording_plan(nodes)
        record_currents = self.options.record_source_currents
        voltage_block = np.empty((len(nodes), num_steps))
        current_block = np.empty((len(branch_gather), num_steps)) if record_currents else None
        padded = np.zeros(assembler.size + 1)

        def record(step: int, current_solution: np.ndarray) -> None:
            padded[: assembler.size] = current_solution
            voltage_block[:, step] = padded[node_gather]
            if current_block is not None:
                current_block[:, step] = -current_solution[branch_gather]

        record(0, solution)

        step_cache: Dict[float, tuple] = {}
        newton = self.options.newton
        for step in range(1, num_steps):
            dt = times[step] - times[step - 1]
            if dt <= 0:
                record(step, solution)
                continue
            cap_matrix, base_matrix, lu = self._step_cache_entry(step_cache, dt)
            cap_rhs = assembler.capacitor_companion_rhs(dt, solution)
            solution = newton_solve(
                assembler,
                solution,
                times[step],
                cap_matrix=cap_matrix,
                cap_rhs=cap_rhs,
                options=newton,
                base_matrix=base_matrix,
                source_values=(vs_samples[:, step], cs_samples[:, step]),
                linear_lu=lu,
            )
            record(step, solution)

        return self._package_result(times, nodes, voltage_block, current_block)

    def _package_result(
        self,
        times: np.ndarray,
        nodes: Sequence[str],
        voltage_block: np.ndarray,
        current_block: Optional[np.ndarray],
    ) -> TransientResult:
        source_currents: Dict[str, np.ndarray] = {}
        if current_block is not None:
            for position, source in enumerate(self.assembler.voltage_sources):
                source_currents[source.name] = current_block[position]
        return TransientResult(
            times=times,
            node_voltages={node: voltage_block[i] for i, node in enumerate(nodes)},
            source_currents=source_currents,
            metadata={"time_step": self.options.time_step},
        )

    # ------------------------------------------------------------------
    def run_many(
        self,
        stimulus_sets: Sequence[Mapping[str, Union[Stimulus, float]]],
        t_stop: float,
        t_start: float = 0.0,
        initial_voltages: Optional[Dict[str, float]] = None,
        record_nodes: Optional[Sequence[str]] = None,
        capacitances: Optional[Sequence[Mapping[str, float]]] = None,
        stop_when: Optional[Callable[[int, np.ndarray, np.ndarray], bool]] = None,
    ) -> List[TransientResult]:
        """Integrate several stimulus variants of this circuit in lockstep.

        Every entry of ``stimulus_sets`` maps *source element names* to the
        stimulus that run should apply (bare numbers become DC values); sources
        not listed keep the stimulus currently attached to the circuit.
        ``capacitances``, when given, has one entry per run mapping
        ``Capacitor`` element names to that run's value in farads (positive;
        capacitors not listed keep the circuit's value), so each run can
        carry its own load.  Every integration step solves all runs through
        one batched Newton iteration, which is dramatically faster than
        sequential runs for the characterization sweeps.

        All runs share one time grid: the base grid plus the breakpoints of
        every run's overriding stimuli *and* of the stimuli attached to the
        circuit, even where every run overrides them.  A breakpoint within
        :data:`BREAKPOINT_SNAP` steps of a base grid point adds no point (the
        same rule as :meth:`run`), so a batch whose breakpoints all lie on the
        base grid -- ramps of different slews starting and ending on grid
        points -- runs on the base grid itself.  A run therefore equals its
        scalar :meth:`run` bitwise (on a circuit carrying its stimuli and
        capacitor values) when the grid is that run's own, i.e. when all runs
        and the attached stimuli add the same off-grid breakpoints (or none).

        ``stop_when``, when given, ends the batch early: it is called as
        ``stop_when(step, times, voltage_block)`` after every integration step
        (``step >= 1``), where ``times`` is the whole grid and
        ``voltage_block`` the ``(runs, recorded nodes, grid points)`` record
        whose columns up to ``step`` are filled.  Once it returns true no
        further step is taken and every result's times, node voltages and
        source currents end at ``step``.  The grid is still the one built for
        ``t_stop``, so a stopped run's samples are bitwise the first
        ``step + 1`` samples of the same batch run without a predicate.
        ``None`` (the default) integrates to ``t_stop``.

        Returns one :class:`TransientResult` per entry, in order.
        """
        if t_stop <= t_start:
            raise AnalysisError("t_stop must be greater than t_start")
        if not stimulus_sets:
            return []
        if capacitances is not None and len(capacitances) != len(stimulus_sets):
            raise AnalysisError(
                f"{len(capacitances)} capacitance sets for {len(stimulus_sets)} runs"
            )

        assembler = self.assembler
        known_sources = {s.name for s in assembler.voltage_sources} | {
            s.name for s in assembler.current_sources
        }
        overrides: List[Dict[str, Stimulus]] = []
        for stimulus_set in stimulus_sets:
            resolved: Dict[str, Stimulus] = {}
            for name, stimulus in stimulus_set.items():
                if name not in known_sources:
                    raise AnalysisError(f"cannot drive unknown source {name!r}")
                resolved[name] = (
                    stimulus if isinstance(stimulus, Stimulus) else DCValue(float(stimulus))
                )
            overrides.append(resolved)

        extra_breakpoints: List[float] = []
        for resolved in overrides:
            for stimulus in resolved.values():
                extra_breakpoints.extend(stimulus.breakpoints())
        times = self._time_grid(t_stop, t_start, extra_breakpoints=extra_breakpoints)
        num_steps = len(times)
        batch = len(overrides)
        nodes = self._record_indices(record_nodes)

        vs_all = np.empty((batch, len(assembler.voltage_sources), num_steps))
        cs_all = np.empty((batch, len(assembler.current_sources), num_steps))
        for run, resolved in enumerate(overrides):
            vs_all[run], cs_all[run] = self._sample_sources(times, overrides=resolved)

        row_caps = (
            None
            if capacitances is None
            else np.stack([assembler.capacitor_values(values) for values in capacitances])
        )
        solutions = self._initial_solutions_many(initial_voltages, times[0], vs_all, cs_all, overrides)

        node_gather, branch_gather = self._recording_plan(nodes)
        record_currents = self.options.record_source_currents
        voltage_block = np.empty((batch, len(nodes), num_steps))
        current_block = (
            np.empty((batch, len(branch_gather), num_steps)) if record_currents else None
        )
        padded = np.zeros((batch, assembler.size + 1))

        def record(step: int, current_solutions: np.ndarray) -> None:
            padded[:, : assembler.size] = current_solutions
            voltage_block[:, :, step] = padded[:, node_gather]
            if current_block is not None:
                current_block[:, :, step] = -current_solutions[:, branch_gather]

        record(0, solutions)

        step_cache: Dict[float, tuple] = {}
        newton = self.options.newton
        from scipy.linalg import lu_solve

        last = num_steps - 1
        for step in range(1, num_steps):
            dt = times[step] - times[step - 1]
            if dt > 0:
                if row_caps is None:
                    cap_matrix, _, lu = self._step_cache_entry(step_cache, dt)
                else:
                    cap_matrix, lu = self._row_step_cache_entry(step_cache, dt, row_caps)
                cap_rhs = assembler.capacitor_companion_rhs(dt, solutions, row_caps)
                vs_step = vs_all[:, :, step]
                cs_step = cs_all[:, :, step]
                if lu is not None:
                    rhs = np.empty((batch, assembler.size))
                    for run in range(batch):
                        rhs[run] = assembler.build_rhs(cap_rhs[run], vs_step[run], cs_step[run])
                    if row_caps is None:
                        solutions = lu_solve(lu, rhs.T, check_finite=False).T
                    else:
                        solutions = np.stack(
                            [
                                lu_solve(factors, b, check_finite=False)
                                for factors, b in zip(lu, rhs)
                            ]
                        )
                else:
                    solutions = newton_solve_many(
                        assembler,
                        solutions,
                        vs_step,
                        cs_step,
                        cap_matrix=cap_matrix,
                        cap_rhs=cap_rhs,
                        options=newton,
                    )
            record(step, solutions)
            if stop_when is not None and stop_when(step, times, voltage_block):
                last = step
                break

        if last < num_steps - 1:
            times = times[: last + 1]
            voltage_block = voltage_block[:, :, : last + 1].copy()
            if current_block is not None:
                current_block = current_block[:, :, : last + 1].copy()
        results: List[TransientResult] = []
        for run in range(batch):
            results.append(
                self._package_result(
                    times,
                    nodes,
                    voltage_block[run],
                    current_block[run] if current_block is not None else None,
                )
            )
        return results

    def _initial_solutions_many(
        self,
        initial_voltages: Optional[Dict[str, float]],
        t_start: float,
        vs_all: np.ndarray,
        cs_all: np.ndarray,
        overrides: Sequence[Mapping[str, Stimulus]],
    ) -> np.ndarray:
        """Batched DC solves at ``t_start``, with per-run scalar fallback."""
        assembler = self.assembler
        batch = vs_all.shape[0]
        guess = np.zeros((batch, assembler.size))
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = assembler.index_of_node(node)
                if idx >= 0:
                    guess[:, idx] = value
        try:
            solutions = newton_solve_many(
                assembler,
                guess,
                vs_all[:, :, 0],
                cs_all[:, :, 0],
                options=self.options.newton,
            )
        except ConvergenceError:
            solutions = np.empty((batch, assembler.size))
            for run in range(batch):
                solutions[run] = self._initial_solution(
                    initial_voltages,
                    t_start,
                    source_values=(vs_all[run, :, 0], cs_all[run, :, 0]),
                )
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = assembler.index_of_node(node)
                if idx >= 0:
                    solutions[:, idx] = value
        return solutions


def transient_analysis(
    circuit: Circuit,
    t_stop: float,
    time_step: float = 1e-12,
    t_start: float = 0.0,
    initial_voltages: Optional[Dict[str, float]] = None,
    record_nodes: Optional[Sequence[str]] = None,
    options: Optional[TransientOptions] = None,
) -> TransientResult:
    """Convenience wrapper building a :class:`TransientAnalysis` and running it."""
    if options is None:
        options = TransientOptions(time_step=time_step)
    engine = TransientAnalysis(circuit, options)
    return engine.run(
        t_stop=t_stop,
        t_start=t_start,
        initial_voltages=initial_voltages,
        record_nodes=record_nodes,
    )


def transient_analysis_many(
    circuit: Circuit,
    stimulus_sets: Sequence[Mapping[str, Union[Stimulus, float]]],
    t_stop: float,
    time_step: float = 1e-12,
    t_start: float = 0.0,
    initial_voltages: Optional[Dict[str, float]] = None,
    record_nodes: Optional[Sequence[str]] = None,
    options: Optional[TransientOptions] = None,
) -> List[TransientResult]:
    """Run several stimulus variants of one circuit in lockstep (see
    :meth:`TransientAnalysis.run_many`)."""
    if options is None:
        options = TransientOptions(time_step=time_step)
    engine = TransientAnalysis(circuit, options)
    return engine.run_many(
        stimulus_sets,
        t_stop=t_stop,
        t_start=t_start,
        initial_voltages=initial_voltages,
        record_nodes=record_nodes,
    )
