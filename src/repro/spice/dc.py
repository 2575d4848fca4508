"""DC operating-point and DC-sweep analyses.

Every DC solve goes through one core, :func:`solve_dc_many`: the batched
Newton solver over rows of source values, with the rows it does not converge
re-solved by gmin stepping.  An operating point is a batch of one, a bias
grid a batch of many, and the transient engine's initial solutions one row
per run.

Besides the circuit-level analyses, this module exposes the batched damped
Newton iteration behind them for *any* small residual system:
:func:`newton_fixed_point_many` adapts a callable ``F(x), J(x)`` to the
:func:`~repro.spice.mna.newton_solve_many` engine, so non-circuit solvers —
notably the current-source-model DC settle in :mod:`repro.csm.dc` — reuse the
same active-subset bookkeeping, damping and convergence policy as the MNA
solver instead of growing their own Newton loop.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConvergenceError
from .elements import VoltageSource
from .mna import MNAAssembler, NewtonOptions, newton_solve_many
from .netlist import Circuit
from .results import OperatingPoint
from .sources import DCValue

__all__ = [
    "dc_operating_point",
    "dc_sweep",
    "DCAnalysis",
    "newton_fixed_point_many",
    "solve_dc_many",
]

#: Shunt conductances (S, node to ground) of the gmin-stepping ladder: each
#: stage starts from the previous stage's solution, the last is the circuit.
GMIN_STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0.0)


class _ResidualAssembler:
    """Duck-typed stand-in for :class:`~repro.spice.mna.MNAAssembler`.

    Presents a batch residual/Jacobian callable through the small interface
    :func:`~repro.spice.mna.newton_solve_many` actually consumes
    (``num_nodes``, ``build_many``, ``circuit.name``): the Newton engine
    solves ``J x_new = J x - F``, i.e. takes the standard damped step
    ``x - J^{-1} F``.  Per-run residual parameters ride in the ``vs_values``
    slot so the active-subset iteration subsets them alongside the solutions.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
        size: int,
        name: str,
    ):
        self.fn = fn
        self.num_nodes = size
        self.circuit = SimpleNamespace(name=name)

    def build_many(self, solutions, vs_values, cs_values, base_matrix=None, cap_rhs=None):
        residual, jacobian = self.fn(solutions, vs_values)
        rhs = np.einsum("bij,bj->bi", jacobian, solutions) - residual
        return jacobian, rhs


def newton_fixed_point_many(
    fn: Callable[..., Tuple[np.ndarray, np.ndarray]],
    initial: np.ndarray,
    params: Optional[np.ndarray] = None,
    options: Optional[NewtonOptions] = None,
    name: str = "fixed-point",
) -> np.ndarray:
    """Solve ``F(x) = 0`` for a batch of small independent systems.

    Parameters
    ----------
    fn:
        Callable mapping a candidate batch ``x`` of shape ``(B', n)`` and the
        matching parameter rows ``params`` of shape ``(B', k)`` to ``(F, J)``
        with ``F`` of shape ``(B', n)`` and ``J`` of shape ``(B', n, n)``.
        ``B'`` is the *active* subset of the batch, not necessarily the full
        ``B`` — runs leave the iteration as they converge — so any per-run
        constants must be passed through ``params``, never closed over by
        full-batch position.
    initial:
        ``(B, n)`` starting points (one per system).
    params:
        Optional ``(B, k)`` per-run parameter rows (``k = 0`` when omitted).
    options:
        Newton settings; every row of each system is treated as a "voltage"
        unknown (damped by ``damping_limit``, converged below
        ``voltage_tolerance``).
    name:
        Label used in convergence error messages.

    Raises :class:`~repro.exceptions.ConvergenceError` exactly like the MNA
    batch solver (``metadata["failed_runs"]`` lists the offending rows).
    """
    initial = np.asarray(initial, dtype=float)
    if initial.ndim != 2:
        raise ValueError("newton_fixed_point_many expects a (B, n) initial array")
    if params is None:
        params = np.zeros((initial.shape[0], 0))
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[0] != initial.shape[0]:
        raise ValueError("params must be a (B, k) array matching the initial batch")
    assembler = _ResidualAssembler(fn, initial.shape[1], name)
    empty = np.zeros((initial.shape[0], 0))
    return newton_solve_many(assembler, initial, params, empty, options=options)


def _newton_rows(
    assembler: MNAAssembler,
    start: np.ndarray,
    vs_values: np.ndarray,
    cs_values: np.ndarray,
    options: NewtonOptions,
) -> Tuple[np.ndarray, List[int]]:
    """Batched Newton from ``start``: every run's last iterate and the
    positions of the runs that did not converge."""
    try:
        return newton_solve_many(assembler, start, vs_values, cs_values, options=options), []
    except ConvergenceError as exc:
        metadata = getattr(exc, "metadata", None) or {}
        failed = list(metadata.get("failed_runs", range(len(start))))
        return metadata.get("solutions", np.array(start, dtype=float)), failed


def solve_dc_many(
    assembler: MNAAssembler,
    start: np.ndarray,
    vs_values: np.ndarray,
    cs_values: np.ndarray,
    options: Optional[NewtonOptions] = None,
) -> np.ndarray:
    """DC solutions of a batch of source-value rows.

    ``start`` is ``(B, size)``, ``vs_values`` / ``cs_values`` are the rows'
    ``(B, num_voltage_sources)`` / ``(B, num_current_sources)`` source
    values.  All rows run batched Newton from ``start``; the rows that do not
    converge climb the gmin ladder (:data:`GMIN_STEPS`, the standard SPICE
    fallback) from their own ``start`` with their own source values.  Each
    row's solution is bitwise its solve as a batch of one.  Raises
    :class:`~repro.exceptions.ConvergenceError` if a ladder stage fails.
    """
    options = options or NewtonOptions()
    solutions, failed = _newton_rows(assembler, start, vs_values, cs_values, options)
    if failed:
        nodes = np.arange(assembler.num_nodes)
        shunt = np.zeros((assembler.size, assembler.size))
        stepped = np.array(start, dtype=float)[failed]
        for gmin in GMIN_STEPS:
            shunt[nodes, nodes] = gmin
            stepped = newton_solve_many(
                assembler,
                stepped,
                vs_values[failed],
                cs_values[failed],
                base_matrix=assembler.base_matrix(shunt),
                options=options,
            )
        solutions[failed] = stepped
    return solutions


class DCAnalysis:
    """Reusable DC solver bound to one circuit (a front over
    :func:`solve_dc_many`).

    Re-using the analysis object across many operating points (as the
    characterization grid sweeps do) avoids re-building the MNA structure for
    every point and lets successive solves start from the previous solution,
    which greatly improves Newton robustness along a sweep.
    """

    def __init__(
        self,
        circuit: Circuit,
        gmin: float = 1e-12,
        options: Optional[NewtonOptions] = None,
    ):
        self.circuit = circuit
        self.assembler = MNAAssembler(circuit, gmin=gmin)
        self.options = options or NewtonOptions()
        self._last_solution: Optional[np.ndarray] = None

    def solve(
        self,
        time: float = 0.0,
        initial_guess: Optional[Dict[str, float]] = None,
        reuse_previous: bool = True,
    ) -> OperatingPoint:
        """Solve for the DC operating point.

        Parameters
        ----------
        time:
            The time at which time-dependent sources are evaluated (the DC
            point "at" that instant); 0.0 for a plain operating point.
        initial_guess:
            Optional node-voltage guesses to seed Newton.
        reuse_previous:
            Start from the previous solve's solution when available.
        """
        assembler = self.assembler
        start = np.zeros((1, assembler.size))
        if reuse_previous and self._last_solution is not None:
            start[0] = self._last_solution
        if initial_guess:
            for node, value in initial_guess.items():
                idx = assembler.index_of_node(node)
                if idx >= 0:
                    start[0, idx] = value
        vs = np.array([[source.value(time) for source in assembler.voltage_sources]])
        cs = np.array([[source.value(time) for source in assembler.current_sources]])

        [solution] = solve_dc_many(assembler, start, vs, cs, self.options)
        self._last_solution = solution
        return OperatingPoint(
            voltages=assembler.voltages_from_solution(solution),
            branch_currents=assembler.branch_currents_from_solution(solution),
        )

    def solve_grid(
        self,
        source_value_sets: Sequence[Mapping[str, float]],
        chunk_size: int = 2048,
    ) -> List[OperatingPoint]:
        """Solve many DC points of the same circuit with batched Newton.

        Each entry of ``source_value_sets`` maps voltage-source names to the
        value that point applies; unlisted sources keep their present value.
        All points iterate in lockstep through :func:`newton_solve_many`
        (one batched ``np.linalg.solve`` per iteration); the points that fail
        to converge in the batch are re-solved through :func:`solve_dc_many`
        from where the batch left them, each with its own source values.
        This is the workhorse behind the ``Io``/``I_N`` table characterization
        sweeps, which solve the same probe circuit at hundreds of bias points.
        """
        results: List[OperatingPoint] = []
        for start in range(0, len(source_value_sets), chunk_size):
            results.extend(self._solve_grid_chunk(source_value_sets[start : start + chunk_size]))
        return results

    def _solve_grid_chunk(
        self, source_value_sets: Sequence[Mapping[str, float]]
    ) -> List[OperatingPoint]:
        assembler = self.assembler
        batch = len(source_value_sets)
        vs = np.empty((batch, len(assembler.voltage_sources)))
        for j, source in enumerate(assembler.voltage_sources):
            default = source.value(0.0)
            column = [values.get(source.name, default) for values in source_value_sets]
            vs[:, j] = column
        cs = np.tile(
            np.array([source.value(0.0) for source in assembler.current_sources]),
            (batch, 1),
        )

        # Seed grounded forced nodes with their source value: Newton then
        # starts inside the damping range of the solution.
        guess = np.zeros((batch, assembler.size))
        for j, source in enumerate(assembler.voltage_sources):
            plus = assembler.index_of_node(source.node_plus)
            minus = assembler.index_of_node(source.node_minus)
            if plus >= 0 and minus < 0:
                guess[:, plus] = vs[:, j]

        solutions, failed = _newton_rows(assembler, guess, vs, cs, self.options)
        if failed:
            solutions[failed] = solve_dc_many(
                assembler, solutions[failed], vs[failed], cs[failed], self.options
            )

        return [
            OperatingPoint(
                voltages=assembler.voltages_from_solution(solution),
                branch_currents=assembler.branch_currents_from_solution(solution),
            )
            for solution in solutions
        ]

    def set_source_value(self, source_name: str, value: float) -> None:
        """Update the DC value of a voltage source in-place (sweep helper)."""
        element = self.circuit.element(source_name)
        if not isinstance(element, VoltageSource):
            raise TypeError(f"{source_name!r} is not a voltage source")
        element.stimulus = DCValue(float(value))


def dc_operating_point(
    circuit: Circuit,
    gmin: float = 1e-12,
    initial_guess: Optional[Dict[str, float]] = None,
    options: Optional[NewtonOptions] = None,
) -> OperatingPoint:
    """One-shot DC operating point of a circuit."""
    analysis = DCAnalysis(circuit, gmin=gmin, options=options)
    return analysis.solve(initial_guess=initial_guess)


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float],
    gmin: float = 1e-12,
    options: Optional[NewtonOptions] = None,
) -> List[OperatingPoint]:
    """Sweep the DC value of one voltage source and solve at each point."""
    analysis = DCAnalysis(circuit, gmin=gmin, options=options)
    results: List[OperatingPoint] = []
    for value in values:
        analysis.set_source_value(source_name, value)
        results.append(analysis.solve())
    return results
