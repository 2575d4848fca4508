"""Modified nodal analysis (MNA) assembly and the batched Newton-Raphson solver.

The assembler owns the mapping from node names / voltage-source branches to
matrix indices and knows how to build the linearized systems ``G x = rhs`` at
a batch of ``B`` candidate solutions (shape ``(B, size)``).  Both the DC and
the transient engines reuse it; the transient engine additionally passes its
cached ``static + C/dt`` base matrix and the capacitor companion terms.  A
single solve is a batch of one.

Stamping is performed through precomputed COO-style index arrays rather than
per-element Python loops: at construction time the assembler enumerates, once,
every ``(row, column, derivative, sign)`` quadruple a MOSFET linearization can
touch and every node a capacitor or current-source branch scatters into.  A
build then reduces to one vectorized device evaluation
(:class:`~repro.technology.mosfet.MosfetBank`), one ``np.add.at`` scatter into
the matrices and one into the right-hand sides.  Each scatter runs over the
flattened batch, so every run's entries accumulate in the order its own batch
of one would add them.  Circuits without nonlinear devices expose
``is_linear`` so callers can factorize the (then constant) matrix once and
reuse the LU factors.

The system layout is::

    x = [ v_1 ... v_N | i_V1 ... i_VM ]

where ``v_k`` are non-ground node voltages and ``i_Vj`` is the current
entering the positive terminal of voltage source ``j`` from the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import AnalysisError, ConvergenceError, NetlistError
from ..technology.mosfet import MosfetBank
from .elements import Capacitor, CurrentSource, Mosfet, Resistor, VoltageSource
from .netlist import GROUND, Circuit

__all__ = ["MNAAssembler", "NewtonOptions", "newton_solve_many"]


@dataclass
class NewtonOptions:
    """Settings for the Newton-Raphson iteration.

    Attributes
    ----------
    max_iterations:
        Hard iteration limit before declaring non-convergence.
    voltage_tolerance:
        Convergence threshold on the largest node-voltage update (V).
    current_tolerance:
        Convergence threshold on the largest branch-current update (A).
    damping_limit:
        Maximum node-voltage change applied per iteration (V); larger Newton
        steps are clipped, which is the usual way to keep exponential device
        models from overflowing.
    """

    max_iterations: int = 100
    voltage_tolerance: float = 1e-7
    current_tolerance: float = 1e-10
    damping_limit: float = 0.5


class MNAAssembler:
    """Builds linearized MNA systems for a fixed circuit topology."""

    def __init__(self, circuit: Circuit, gmin: float = 1e-12):
        self.circuit = circuit
        self.gmin = gmin
        self.node_index: Dict[str, int] = {}
        for node in circuit.non_ground_nodes:
            self.node_index[node] = len(self.node_index)
        self.num_nodes = len(self.node_index)

        self.voltage_sources: List[VoltageSource] = circuit.voltage_sources()
        self.branch_index: Dict[str, int] = {
            source.name: self.num_nodes + position
            for position, source in enumerate(self.voltage_sources)
        }
        self.size = self.num_nodes + len(self.voltage_sources)
        if self.size == 0:
            raise NetlistError(f"circuit {circuit.name!r} has no unknowns to solve for")

        self.mosfets: List[Mosfet] = circuit.mosfets()
        self._mosfet_indices: List[Tuple[int, int, int, int]] = [
            (
                self._index(m.drain),
                self._index(m.gate),
                self._index(m.source),
                self._index(m.bulk),
            )
            for m in self.mosfets
        ]
        self.current_sources: List[CurrentSource] = [
            e for e in circuit.elements if isinstance(e, CurrentSource)
        ]
        self._current_source_indices: List[Tuple[int, int]] = [
            (self._index(s.node_plus), self._index(s.node_minus)) for s in self.current_sources
        ]

        #: True when the circuit has no nonlinear (device) elements, i.e. the
        #: assembled matrix depends only on the topology and the time step.
        self.is_linear = not self.mosfets

        self._static_matrix = self._build_static_matrix()
        self._build_index_arrays()

    # ------------------------------------------------------------------
    def _index(self, node: str) -> int:
        """Matrix index of a node; ground maps to -1 (excluded)."""
        if node == GROUND:
            return -1
        try:
            return self.node_index[node]
        except KeyError as exc:
            raise NetlistError(f"node {node!r} not present in circuit {self.circuit.name!r}") from exc

    def index_of_node(self, node: str) -> int:
        """Public variant of :meth:`_index` used by the analysis engines."""
        return self._index(node)

    def _build_static_matrix(self) -> np.ndarray:
        matrix = np.zeros((self.size, self.size))
        # gmin from every node to ground keeps floating nodes solvable.
        for idx in range(self.num_nodes):
            matrix[idx, idx] += self.gmin
        for element in self.circuit.elements:
            if isinstance(element, Resistor):
                self._stamp_conductance(
                    matrix, self._index(element.node_a), self._index(element.node_b),
                    1.0 / element.resistance,
                )
        for source in self.voltage_sources:
            branch = self.branch_index[source.name]
            plus = self._index(source.node_plus)
            minus = self._index(source.node_minus)
            if plus >= 0:
                matrix[plus, branch] += 1.0
                matrix[branch, plus] += 1.0
            if minus >= 0:
                matrix[minus, branch] -= 1.0
                matrix[branch, minus] -= 1.0
        return matrix

    def _build_index_arrays(self) -> None:
        """Precompute every scatter/gather pattern a build needs.

        Gathers use a padded solution vector of length ``size + 1`` whose last
        entry is pinned to 0.0, so ground terminals index the pad instead of
        needing masks.  Scatters are flat (row-major) matrix indices with
        parallel sign / derivative-selector arrays, applied via ``np.add.at``
        (which accumulates duplicate indices, unlike fancy-index assignment).
        """
        size = self.size
        pad = size  # index of the zero-pinned pad entry in a padded solution

        def padded(idx: int) -> int:
            return idx if idx >= 0 else pad

        # -- MOSFET gather: terminal voltages as one (4, M) fancy index ------
        num_devices = len(self.mosfets)
        terminals = np.empty((4, num_devices), dtype=np.intp)
        for position, (d, g, s, b) in enumerate(self._mosfet_indices):
            terminals[:, position] = (padded(g), padded(d), padded(s), padded(b))
        self._m_terminals = terminals  # order: gate, drain, source, bulk
        self._bank = MosfetBank([(m.params, m.width, m.length) for m in self.mosfets])

        # -- MOSFET matrix scatter -------------------------------------------
        # The channel current flows drain -> source; its linearization stamps
        # +g into row ``drain`` and -g into row ``source`` for each of the four
        # controlling terminals (ground rows/columns are dropped).
        flat: List[int] = []
        take: List[int] = []  # derivative-selector * M + device (flat index)
        sign: List[float] = []
        rhs_idx: List[int] = []
        rhs_sign: List[float] = []
        rhs_dev: List[int] = []
        for position, (d, g, s, b) in enumerate(self._mosfet_indices):
            controls = (g, d, s, b)  # must match MosfetBank derivative order
            for row, row_sign in ((d, 1.0), (s, -1.0)):
                if row < 0:
                    continue
                for sel, ctrl in enumerate(controls):
                    if ctrl < 0:
                        continue
                    flat.append(row * size + ctrl)
                    take.append(sel * num_devices + position)
                    sign.append(row_sign)
            if d >= 0:
                rhs_idx.append(d)
                rhs_sign.append(-1.0)
                rhs_dev.append(position)
            if s >= 0:
                rhs_idx.append(s)
                rhs_sign.append(1.0)
                rhs_dev.append(position)
        self._stamp_flat = np.asarray(flat, dtype=np.intp)
        self._stamp_take = np.asarray(take, dtype=np.intp)
        self._stamp_sign = np.asarray(sign)
        self._rhs_idx = np.asarray(rhs_idx, dtype=np.intp)
        self._rhs_sign = np.asarray(rhs_sign)
        self._rhs_dev = np.asarray(rhs_dev, dtype=np.intp)

        # -- current-source scatter ------------------------------------------
        cs_idx: List[int] = []
        cs_sign: List[float] = []
        cs_pos: List[int] = []
        for position, (plus, minus) in enumerate(self._current_source_indices):
            if plus >= 0:
                cs_idx.append(plus)
                cs_sign.append(-1.0)
                cs_pos.append(position)
            if minus >= 0:
                cs_idx.append(minus)
                cs_sign.append(1.0)
                cs_pos.append(position)
        self._cs_idx = np.asarray(cs_idx, dtype=np.intp)
        self._cs_sign = np.asarray(cs_sign)
        self._cs_pos = np.asarray(cs_pos, dtype=np.intp)

        # -- capacitor branches ----------------------------------------------
        # ``capacitor_branch_list`` order; a ``Capacitor`` element's branch
        # position is kept so a batched run can give it per-run values.
        branches: List[Tuple[int, int, float]] = []
        self._capacitor_branch: Dict[str, int] = {}
        for element in self.circuit.elements:
            for a, b, c in element.capacitor_branches():
                if c > 0.0:
                    if isinstance(element, Capacitor):
                        self._capacitor_branch[element.name] = len(branches)
                    branches.append((self._index(a), self._index(b), c))
        self._cap_values = np.asarray([c for _, _, c in branches])
        self._cap_a = np.asarray([padded(a) for a, _, _ in branches], dtype=np.intp)
        self._cap_b = np.asarray([padded(b) for _, b, _ in branches], dtype=np.intp)
        cap_flat: List[int] = []
        cap_sign: List[float] = []
        cap_branch: List[int] = []
        cap_rhs_idx: List[int] = []
        cap_rhs_sign: List[float] = []
        cap_rhs_branch: List[int] = []
        for position, (a, b, _) in enumerate(branches):
            for row, col, s_ in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                if row >= 0 and col >= 0:
                    cap_flat.append(row * size + col)
                    cap_sign.append(s_)
                    cap_branch.append(position)
            if a >= 0:
                cap_rhs_idx.append(a)
                cap_rhs_sign.append(1.0)
                cap_rhs_branch.append(position)
            if b >= 0:
                cap_rhs_idx.append(b)
                cap_rhs_sign.append(-1.0)
                cap_rhs_branch.append(position)
        self._cap_flat = np.asarray(cap_flat, dtype=np.intp)
        self._cap_sign = np.asarray(cap_sign)
        self._cap_branch = np.asarray(cap_branch, dtype=np.intp)
        self._cap_rhs_idx = np.asarray(cap_rhs_idx, dtype=np.intp)
        self._cap_rhs_sign = np.asarray(cap_rhs_sign)
        self._cap_rhs_branch = np.asarray(cap_rhs_branch, dtype=np.intp)
        self._cap_rhs_signed = self._cap_rhs_sign * self._cap_values[self._cap_rhs_branch]

        # Every index pattern a batch applies to its flattened buffers, as
        # (one run's indices, length of one run's block of the buffer):
        # scatters into the matrices and right-hand sides, gathers from the
        # padded solutions, the device outputs and the source values.
        self._patterns = {
            "stamp": (self._stamp_flat, size * size),
            "rhs": (self._rhs_idx, size),
            "cs": (self._cs_idx, size),
            "cap_rhs": (self._cap_rhs_idx, size),
            "terminals": (terminals.ravel(), size + 1),
            "take": (self._stamp_take, 4 * num_devices),
            "dev": (self._rhs_dev, num_devices),
            "cs_pos": (self._cs_pos, len(self.current_sources)),
            "cap_rhs_a": (self._cap_a[self._cap_rhs_branch], size + 1),
            "cap_rhs_b": (self._cap_b[self._cap_rhs_branch], size + 1),
        }
        # The signs of the scatters, tiled over a batch like their indices.
        self._signs = {
            "stamp": self._stamp_sign,
            "rhs": self._rhs_sign,
            "cs": self._cs_sign,
        }

        # Grow-on-demand workspace (scratch buffers and batch-flattened
        # patterns): newton iterations run thousands of times per transient,
        # so the allocations are hoisted out of the hot loop.  The workspace
        # is sized for the largest batch seen and sliced for smaller ones,
        # which is what lets the batched Newton solver shrink its rebuilds to
        # the active (non-converged) subset without reallocating.  The slices
        # are kept per batch size.
        self._workspace_batch = 0
        self._workspace_views: Dict[int, _Workspace] = {}

    def _workspace(self, batch: int) -> "_Workspace":
        views = self._workspace_views.get(batch)
        if views is not None:
            return views
        if self._workspace_batch < batch:
            runs = np.arange(batch)[:, None]
            self._buffers = (
                np.empty((batch, self.size, self.size)),
                np.empty((batch, self.size)),
                np.zeros((batch, self.size + 1)),
            )
            self._flat_patterns = {
                name: (runs * stride + idx[None, :]).ravel()
                for name, (idx, stride) in self._patterns.items()
            }
            self._flat_signs = {name: np.tile(sign, batch) for name, sign in self._signs.items()}
            self._workspace_batch = batch
            self._workspace_views = {}
        matrices, rhs, padded = (buffer[:batch] for buffer in self._buffers)
        views = _Workspace(
            matrices,
            rhs,
            padded,
            matrices.reshape(-1),
            rhs.reshape(-1),
            padded.reshape(-1),
            {
                name: flat[: batch * len(self._patterns[name][0])]
                for name, flat in self._flat_patterns.items()
            },
            {
                name: flat[: batch * len(self._signs[name])]
                for name, flat in self._flat_signs.items()
            },
        )
        self._workspace_views[batch] = views
        return views

    @staticmethod
    def _stamp_conductance(matrix: np.ndarray, a: int, b: int, g: float) -> None:
        if a >= 0:
            matrix[a, a] += g
        if b >= 0:
            matrix[b, b] += g
        if a >= 0 and b >= 0:
            matrix[a, b] -= g
            matrix[b, a] -= g

    # ------------------------------------------------------------------
    def capacitor_values(self, overrides: Mapping[str, float]) -> np.ndarray:
        """The branch capacitances with ``overrides`` (``Capacitor`` element
        name -> farads) applied, in the form ``cap_values=`` takes below."""
        values = self._cap_values.copy()
        for name, farads in overrides.items():
            if name not in self._capacitor_branch:
                raise AnalysisError(
                    f"circuit {self.circuit.name!r} has no capacitor {name!r} with a positive value"
                )
            if not farads > 0.0:
                raise AnalysisError(f"capacitor {name!r} needs a positive value, got {farads!r}")
            values[self._capacitor_branch[name]] = float(farads)
        return values

    def capacitor_companion_matrix(
        self, dt: float, cap_values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Conductance contribution ``C / dt`` of all capacitive branches
        (``cap_values`` replaces the circuit's branch capacitances)."""
        cap_values = self._cap_values if cap_values is None else cap_values
        matrix = np.zeros((self.size, self.size))
        if len(cap_values):
            values = (cap_values / dt)[self._cap_branch] * self._cap_sign
            np.add.at(matrix.ravel(), self._cap_flat, values)
        return matrix

    def capacitor_companion_rhs(
        self, dt: float, previous: np.ndarray, cap_values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Right-hand-side contribution of capacitor branches (backward Euler)
        for a batch ``previous`` of shape ``(B, size)``.  ``cap_values``
        replaces the branch capacitances, per run when it is ``(B, branches)``.
        """
        batch = previous.shape[0]
        rhs = np.zeros(batch * self.size)
        if len(self._cap_rhs_idx):
            signed = (
                self._cap_rhs_signed
                if cap_values is None
                else cap_values[:, self._cap_rhs_branch] * self._cap_rhs_sign
            )
            workspace = self._workspace(batch)
            index = workspace.index
            workspace.padded[:, : self.size] = previous
            flat = workspace.padded_flat
            across = (flat[index["cap_rhs_a"]] - flat[index["cap_rhs_b"]]).reshape(batch, -1)
            # Each entry adds its branch's C/dt * (v_a - v_b) with its node's
            # sign; the sign is +-1, so (sign * C) / dt is sign * (C / dt).
            np.add.at(rhs, index["cap_rhs"], ((signed / dt) * across).reshape(-1))
        return rhs.reshape(batch, self.size)

    # ------------------------------------------------------------------
    def base_matrix(self, extra: np.ndarray) -> np.ndarray:
        """The static (resistor, gmin and source-branch) matrix plus
        ``extra``: ``C/dt`` companion conductances or a gmin shunt, one
        ``(size, size)`` matrix or a ``(B, size, size)`` stack."""
        return self._static_matrix + extra

    def build_many(
        self,
        solutions: np.ndarray,
        vs_values: np.ndarray,
        cs_values: np.ndarray,
        base_matrix: Optional[np.ndarray] = None,
        cap_rhs: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``B`` linearized systems at once.

        Parameters
        ----------
        solutions:
            Candidate solutions, shape ``(B, size)``.
        vs_values / cs_values:
            Per-run source values, shapes ``(B, num_voltage_sources)`` and
            ``(B, num_current_sources)``.
        base_matrix:
            The matrix before device stamps, from :meth:`base_matrix`: shared
            (same topology and dt for all runs), one per run (shape
            ``(B, size, size)``), or ``None`` for the static matrix alone
            (DC).
        cap_rhs:
            Per-run companion right-hand sides, shape ``(B, size)``.

        The returned arrays are per-batch-size scratch buffers owned by the
        assembler — consume them before the next ``build_many`` call.
        """
        batch = solutions.shape[0]
        workspace = self._workspace(batch)
        index, sign, rhs = workspace.index, workspace.sign, workspace.rhs
        workspace.matrices[:] = self._static_matrix if base_matrix is None else base_matrix
        if cap_rhs is None:
            rhs.fill(0.0)
        else:
            np.copyto(rhs, cap_rhs)
        # voltage-source branch rows are the last ones, in source order
        rhs[:, self.num_nodes :] += vs_values
        if len(self._cs_idx):
            np.add.at(
                workspace.rhs_flat,
                index["cs"],
                sign["cs"] * cs_values.reshape(-1)[index["cs_pos"]],
            )

        if self.mosfets:
            workspace.padded[:, : self.size] = solutions
            voltages = workspace.padded_flat[index["terminals"]]
            # per device, the sum over its four terminals of derivative * voltage
            if batch == 1:
                # One run evaluates on (M,) rows: the same element-wise
                # arithmetic without numpy's broadcasting set-up per ufunc.
                voltages = voltages.reshape(4, -1)
                current, derivs = self._bank.evaluate(*voltages)
                linear_part = np.einsum("km,km->m", derivs, voltages)
            else:
                voltages = voltages.reshape(batch, 4, -1)
                current, derivs = self._bank.evaluate(
                    voltages[:, 0], voltages[:, 1], voltages[:, 2], voltages[:, 3]
                )
                linear_part = np.einsum("bkm,bkm->bm", derivs, voltages)
            np.add.at(
                workspace.matrices_flat,
                index["stamp"],
                sign["stamp"] * derivs.reshape(-1)[index["take"]],
            )
            np.add.at(
                workspace.rhs_flat,
                index["rhs"],
                sign["rhs"] * (current - linear_part).reshape(-1)[index["dev"]],
            )

        return workspace.matrices, rhs

    # ------------------------------------------------------------------
    def voltages_from_solution(self, solution: np.ndarray) -> Dict[str, float]:
        result = {GROUND: 0.0}
        for node, idx in self.node_index.items():
            result[node] = float(solution[idx])
        return result

    def branch_currents_from_solution(self, solution: np.ndarray) -> Dict[str, float]:
        """Current *entering the positive terminal from the circuit*, per source."""
        return {
            source.name: float(solution[self.branch_index[source.name]])
            for source in self.voltage_sources
        }


@lru_cache(maxsize=64)
def _column_bounds(
    size: int,
    num_nodes: int,
    voltage_tolerance: float,
    current_tolerance: float,
    damping_limit: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per unknown: the convergence tolerance on its Newton update and the
    bounds the update is clipped to (node voltages are damped, branch
    currents are not)."""
    tolerance = np.full(size, voltage_tolerance)
    tolerance[num_nodes:] = current_tolerance
    upper = np.full(size, damping_limit)
    upper[num_nodes:] = np.inf
    lower = -upper
    for bound in (tolerance, lower, upper):
        bound.flags.writeable = False  # shared by every caller
    return tolerance, lower, upper


class _Workspace(NamedTuple):
    """An assembler's scratch buffers for a batch of ``B`` runs (shaped, and
    as flat views), and its
    index patterns (``index[name]``) and scatter signs (``sign[name]``)
    flattened over the batch: run ``b``'s indices are offset by ``b`` blocks
    of the indexed buffer, runs in order.  ``np.add.at`` over a flattened
    buffer with them takes numpy's one-dimensional fast path and adds every
    entry in the order a batch of one would."""

    matrices: np.ndarray
    rhs: np.ndarray
    padded: np.ndarray
    matrices_flat: np.ndarray
    rhs_flat: np.ndarray
    padded_flat: np.ndarray
    index: Dict[str, np.ndarray]
    sign: Dict[str, np.ndarray]


def newton_solve_many(
    assembler: MNAAssembler,
    initial: np.ndarray,
    vs_values: np.ndarray,
    cs_values: np.ndarray,
    base_matrix: Optional[np.ndarray] = None,
    cap_rhs: Optional[np.ndarray] = None,
    options: Optional[NewtonOptions] = None,
) -> np.ndarray:
    """Damped Newton-Raphson over a batch of ``B`` independent bias points.

    All runs share the circuit topology (and, unless ``base_matrix`` is given
    per run, the companion conductances); each run has its own source values
    and candidate solution.  Runs drop out of the iteration as soon as they
    individually satisfy the tolerances: each subsequent iteration assembles
    and factorizes only the *active* (non-converged) subset, so wide batches
    with a few straggling runs don't keep paying for the runs that finished
    early.  Until the first run converges the whole batch is active and the
    iteration works on the arrays themselves, without gathering a copy.
    Because every run's linearized system is assembled and solved
    independently of its batch neighbours, each run's result is
    bit-identical to solving it as a batch of one.

    Parameters mirror :meth:`MNAAssembler.build_many`.  Raises
    :class:`~repro.exceptions.ConvergenceError` if any run fails to converge
    within ``max_iterations``; the error's ``metadata["failed_runs"]`` lists
    the offending batch positions (and ``metadata["solutions"]`` holds the
    last iterate of every run) so callers can fall back per run.
    """
    options = options or NewtonOptions()
    solutions = np.asarray(initial, dtype=float)  # replaced, never written
    if solutions.ndim != 2:
        raise ValueError("newton_solve_many expects an (B, size) initial array")
    tolerance, lower, upper = _column_bounds(
        solutions.shape[1],
        assembler.num_nodes,
        options.voltage_tolerance,
        options.current_tolerance,
        options.damping_limit,
    )
    per_run_base = base_matrix is not None and base_matrix.ndim == 3

    active: Optional[np.ndarray] = None  # None: every run
    for _ in range(options.max_iterations):
        if active is None:
            current = solutions
            matrices, rhs = assembler.build_many(
                solutions, vs_values, cs_values, base_matrix, cap_rhs
            )
        else:
            current = solutions[active]
            matrices, rhs = assembler.build_many(
                current,
                vs_values[active],
                cs_values[active],
                base_matrix[active] if per_run_base else base_matrix,
                None if cap_rhs is None else cap_rhs[active],
            )
        try:
            proposed = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix while batch-solving {assembler.circuit.name!r}",
            ) from exc

        delta = proposed - current
        small = np.abs(delta) < tolerance
        np.minimum(delta, upper, out=delta)
        np.maximum(delta, lower, out=delta)
        if active is None:
            solutions = current + delta
        else:
            # a fresh array since the first iteration, so ``initial`` stays
            solutions[active] = current + delta

        if np.count_nonzero(small) == small.size:
            return solutions
        if len(current) > 1:  # a lone active run has not converged
            converged = small.all(axis=1)
            if converged.any():
                active = (np.arange(len(solutions)) if active is None else active)[~converged]

    failed = (np.arange(len(solutions)) if active is None else active).tolist()
    error = ConvergenceError(
        f"batch Newton did not converge for {assembler.circuit.name!r} "
        f"(runs {failed} still active after {options.max_iterations} iterations)",
        iterations=options.max_iterations,
    )
    error.metadata = {"failed_runs": failed, "solutions": np.array(solutions, dtype=float)}
    raise error
