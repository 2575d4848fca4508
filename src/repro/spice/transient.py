"""Transient analysis (backward-Euler integration with per-step Newton).

Backward Euler is unconditionally stable and slightly lossy, which is exactly
what is wanted from a reference simulator used for cell characterization: the
waveforms stay smooth and monotone for saturated-ramp stimuli, and accuracy is
controlled by the step size.  All of the paper's experiments run with steps of
0.5-2 ps over windows of a few nanoseconds.

There is one integration path, :meth:`TransientAnalysis.run_many`: it
integrates a whole batch of stimulus (and capacitor-value) variants of the
same circuit in lockstep through the batched Newton solver (one
``np.linalg.solve`` over ``(B, n, n)`` per iteration).  The capacitance and
NLDM characterization flows use that to run all their ramp (and load)
variants simultaneously; :meth:`TransientAnalysis.run` (and so
:func:`transient_analysis`) is a batch of one.

The engine is built for throughput: every stimulus is pre-sampled over the
whole time grid with one vectorized call, the ``static + C/dt`` base matrix
(and, for linear circuits, its LU factorization) is cached per distinct time
step, and node waveforms are recorded into preallocated
``(runs, num_nodes, num_steps)`` arrays instead of per-step list appends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from scipy.linalg import lu_factor, lu_solve

from ..exceptions import AnalysisError
from .dc import solve_dc_many
from .mna import MNAAssembler, NewtonOptions, newton_solve_many
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

    # ------------------------------------------------------------------
    def _record_indices(self, record_nodes: Optional[Sequence[str]]) -> List[str]:
        nodes = list(record_nodes) if record_nodes else list(self.circuit.non_ground_nodes)
        for node in nodes:
            if not self.circuit.has_node(node):
                raise AnalysisError(f"cannot record unknown node {node!r}")
        return nodes

    def _recording_plan(self, nodes: Sequence[str], batch: int):
        """``(batch, k)`` gather indices of the recorded node voltages and
        source currents in a flattened ``(batch, size + 1)`` padded solution
        block.

        The pad entry of each run is 0.0, so ground-recorded nodes read 0.0
        without masking.
        """
        assembler = self.assembler
        pad = assembler.size
        node_gather = [
            assembler.index_of_node(n) if assembler.index_of_node(n) >= 0 else pad for n in nodes
        ]
        branch_gather = [assembler.branch_index[s.name] for s in assembler.voltage_sources]
        offsets = np.arange(batch)[:, None] * (pad + 1)
        return (
            offsets + np.array(node_gather, dtype=np.intp),
            offsets + np.array(branch_gather, dtype=np.intp),
        )

    def _step_matrices(self, dt: float, row_caps: Optional[np.ndarray]):
        """The ``static + C/dt`` base matrix of one time step -- shared, or one
        per run for ``(B, branches)`` capacitances -- and, for a linear
        circuit, its LU factors (one per run with ``row_caps``)."""
        assembler = self.assembler
        if row_caps is None:
            base = assembler.base_matrix(assembler.capacitor_companion_matrix(dt))
            lu = lu_factor(base, check_finite=False) if assembler.is_linear else None
        else:
            base = assembler.base_matrix(
                np.stack([assembler.capacitor_companion_matrix(dt, values) for values in row_caps])
            )
            lu = [lu_factor(m, check_finite=False) for m in base] if assembler.is_linear else None
        return base, lu

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
        """Integrate the circuit, with its attached stimuli, from ``t_start``
        to ``t_stop``: :meth:`run_many` over a batch of one.

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
        [result] = self.run_many(
            [{}],
            t_stop=t_stop,
            t_start=t_start,
            initial_voltages=initial_voltages,
            record_nodes=record_nodes,
        )
        return result

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
        :data:`BREAKPOINT_SNAP` steps of a base grid point adds no point, so
        a batch whose breakpoints all lie on the base grid -- ramps of
        different slews starting and ending on grid points -- runs on the
        base grid itself.  A run therefore equals its batch of one bitwise
        (on a circuit carrying its stimuli and capacitor values, that is its
        :meth:`run`) when the grid is that run's own, i.e. when all runs and
        the attached stimuli add the same off-grid breakpoints (or none).

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

        # (grid points, runs, sources): one step's source values are contiguous
        vs_all = np.empty((num_steps, batch, len(assembler.voltage_sources)))
        cs_all = np.empty((num_steps, batch, len(assembler.current_sources)))
        for run, resolved in enumerate(overrides):
            vs, cs = self._sample_sources(times, overrides=resolved)
            vs_all[:, run], cs_all[:, run] = vs.T, cs.T

        row_caps = (
            None
            if capacitances is None
            else np.stack([assembler.capacitor_values(values) for values in capacitances])
        )
        solutions = self._initial_solutions_many(initial_voltages, vs_all[0], cs_all[0])

        # Recorded as (grid points, runs, quantities), so a step writes one
        # contiguous block; ``voltage_block`` is the (runs, nodes, points) view.
        node_gather, branch_gather = self._recording_plan(nodes, batch)
        voltages = np.empty((num_steps, batch, len(nodes)))
        currents = (
            np.empty((num_steps, batch, len(assembler.voltage_sources)))
            if self.options.record_source_currents
            else None
        )
        voltage_block = voltages.transpose(1, 2, 0)
        padded = np.zeros((batch, assembler.size + 1))
        flat = padded.reshape(-1)

        def record(step: int, current_solutions: np.ndarray) -> None:
            padded[:, : assembler.size] = current_solutions
            voltages[step] = flat[node_gather]
            if currents is not None:
                np.negative(flat[branch_gather], out=currents[step])

        record(0, solutions)

        # The step matrices are cached under the step rounded to 1e-18 s and
        # built from the first step seen with that key; the capacitor history
        # uses each step's own dt.
        dts = np.diff(times)
        step_cache: Dict[float, tuple] = {}
        newton = self.options.newton
        last = num_steps - 1
        for step, (dt, key) in enumerate(zip(dts.tolist(), np.round(dts, 18).tolist()), start=1):
            cached = step_cache.get(key)
            if cached is None:
                cached = step_cache[key] = self._step_matrices(dt, row_caps)
            base, lu = cached
            cap_rhs = assembler.capacitor_companion_rhs(dt, solutions, row_caps)
            vs_step = vs_all[step]
            cs_step = cs_all[step]
            if lu is None:
                solutions = newton_solve_many(
                    assembler,
                    solutions,
                    vs_step,
                    cs_step,
                    base_matrix=base,
                    cap_rhs=cap_rhs,
                    options=newton,
                )
            else:
                # a linear circuit's build is its right-hand side
                _, rhs = assembler.build_many(solutions, vs_step, cs_step, base, cap_rhs)
                if row_caps is None:
                    solutions = lu_solve(lu, rhs.T, check_finite=False).T
                else:
                    solutions = np.stack(
                        [lu_solve(factors, b, check_finite=False) for factors, b in zip(lu, rhs)]
                    )
            record(step, solutions)
            if stop_when is not None and stop_when(step, times, voltage_block):
                last = step
                break

        times = times[: last + 1]
        return [
            self._package_result(
                times,
                nodes,
                voltages[: last + 1, run].T.copy(),
                None if currents is None else currents[: last + 1, run].T.copy(),
            )
            for run in range(batch)
        ]

    def _initial_solutions_many(
        self,
        initial_voltages: Optional[Dict[str, float]],
        vs_values: np.ndarray,
        cs_values: np.ndarray,
    ) -> np.ndarray:
        """Every run's DC solution at ``t_start`` from its own source values
        (:func:`~repro.spice.dc.solve_dc_many`), seeded and then pinned by
        ``initial_voltages``."""
        assembler = self.assembler
        pinned = [
            (assembler.index_of_node(node), value)
            for node, value in (initial_voltages or {}).items()
            if assembler.index_of_node(node) >= 0
        ]
        guess = np.zeros((len(vs_values), assembler.size))
        for idx, value in pinned:
            guess[:, idx] = value
        solutions = solve_dc_many(assembler, guess, vs_values, cs_values, self.options.newton)
        for idx, value in pinned:
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
