"""Model libraries used by the timing engines.

A :class:`TimingModelLibrary` characterizes and caches the models the engines
need: NLDM tables per timing arc for the voltage-based engine, and SIS /
baseline-MIS / MCSM current-source models for the waveform-propagation
engine.  Characterization is expensive (it runs the reference simulator), so
every model is built exactly once per (cell, pins) key, and every NLDM table
once per cell (all of a cell's arcs are one job).  Since every
characterization runs as a content-addressed :mod:`repro.runtime` job, a
library wired to a :class:`~repro.runtime.store.PackedStore` never recomputes
a model that *any* previous session already built: engine construction over a
warm cache is a no-op.  :meth:`prewarm` / :meth:`prewarm_for_netlist` look
every wanted model up under its own key, then submit one (optionally
parallel) job set: one CSM bundle per cell with misses, whose models share
their capacitance batches, and one NLDM job per cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..cells.cell import Cell
from ..cells.library import CellLibrary
from ..characterization.characterize import (
    cell_characterization_job,
    characterization_job,
    characterization_key,
    nldm_characterization_job,
)
from ..characterization.config import CharacterizationConfig
from ..characterization.nldm import NLDMTable
from ..csm.base import cap_value
from ..csm.models import MCSM, BaselineMISCSM, SISCSM
from ..exceptions import TimingError
from ..runtime.store import PackedStore
from ..runtime.executor import Executor, run_jobs
from ..runtime.jobs import Job

__all__ = ["TimingModelLibrary"]


def _by_arc(tables: Sequence[NLDMTable]) -> Dict[Tuple[str, bool], NLDMTable]:
    """A cell's NLDM tables keyed by ``(pin, input_rise)``."""
    return {(table.pin, table.input_rise): table for table in tables}


@dataclass
class TimingModelLibrary:
    """Cache of characterized timing models over a cell library.

    Attributes
    ----------
    library:
        The structural cell library.
    config:
        Characterization settings shared by every model built here.
    use_internal_node:
        When true (default) multi-input cells with a stack node get the
        complete MCSM; otherwise the baseline MIS model is used, which lets
        the STA-level ablation quantify what the internal node is worth.
    executor:
        Optional :class:`repro.runtime.Executor`; :meth:`prewarm` fans its
        independent characterization jobs out through it.
    cache:
        Optional :class:`repro.runtime.PackedStore`; every characterization
        is looked up / stored by content hash, so repeated library builds
        (across engines, benchmarks and sessions) skip the work entirely.
    """

    library: CellLibrary
    config: CharacterizationConfig = field(default_factory=lambda: CharacterizationConfig(io_grid_points=5))
    use_internal_node: bool = True
    nldm_input_slews: Tuple[float, ...] = (20e-12, 60e-12, 150e-12)
    nldm_loads: Tuple[float, ...] = (2e-15, 8e-15, 25e-15)
    executor: Optional[Executor] = None
    cache: Optional[PackedStore] = None
    _sis: Dict[Tuple[str, str], SISCSM] = field(default_factory=dict, repr=False)
    _mis: Dict[Tuple[str, str, str], BaselineMISCSM] = field(default_factory=dict, repr=False)
    _mcsm: Dict[Tuple[str, str, str], MCSM] = field(default_factory=dict, repr=False)
    _nldm: Dict[str, Dict[Tuple[str, bool], NLDMTable]] = field(default_factory=dict, repr=False)
    #: (cell, pin) -> (its SIS model, that model's ``Ci``): the memo of
    #: :meth:`receiver_input_capacitance`, valid while the model is the one
    #: in ``_sis``.
    _input_caps: Dict[Tuple[str, str], Tuple[SISCSM, float]] = field(
        default_factory=dict, repr=False
    )

    def __getstate__(self):
        # Worker pools are not picklable; a library shipped to a worker
        # process keeps its in-memory models and the (picklable) disk cache
        # but characterizes any stragglers serially.
        state = self.__dict__.copy()
        state["executor"] = None
        return state

    # ------------------------------------------------------------------
    def cell(self, cell_name: str) -> Cell:
        return self.library[cell_name]

    def _run_jobs(self, jobs: Sequence[Job], parallel: bool = True) -> List:
        executor = self.executor if parallel else None
        return run_jobs(jobs, executor=executor, cache=self.cache)

    def _characterized(self, kind: str, cell: Cell, pins: Tuple[str, ...]):
        """One characterization through the runtime (cache-aware, serial)."""
        job = characterization_job(kind, cell, pins, self.config)
        [result] = self._run_jobs([job], parallel=False)
        return result.value

    def _mis_kind(self, cell: Cell) -> str:
        """Which two-input-switching model this library builds for a cell."""
        if self.use_internal_node and cell.stack_node() is not None:
            return "mcsm"
        return "mis"

    # ------------------------------------------------------------------
    def sis_model(self, cell_name: str, pin: str) -> SISCSM:
        key = (cell_name, pin)
        if key not in self._sis:
            self._sis[key] = self._characterized("sis", self.cell(cell_name), (pin,))
        return self._sis[key]

    def mis_model(self, cell_name: str, pin_a: str, pin_b: str):
        """The preferred two-input-switching model (MCSM or baseline)."""
        cell = self.cell(cell_name)
        if cell.num_inputs < 2:
            raise TimingError(f"cell {cell_name!r} has a single input; no MIS model exists")
        key = (cell_name, pin_a, pin_b)
        if self._mis_kind(cell) == "mcsm":
            if key not in self._mcsm:
                self._mcsm[key] = self._characterized("mcsm", cell, (pin_a, pin_b))
            return self._mcsm[key]
        if key not in self._mis:
            self._mis[key] = self._characterized("mis", cell, (pin_a, pin_b))
        return self._mis[key]

    def _nldm_job(self, cell: Cell) -> Job:
        return nldm_characterization_job(cell, self.nldm_input_slews, self.nldm_loads)

    def nldm_table(self, cell_name: str, pin: str, input_rise: bool) -> NLDMTable:
        """One arc's tables; the first call for a cell characterizes (or
        loads) every arc of that cell."""
        if cell_name not in self._nldm:
            [result] = self._run_jobs([self._nldm_job(self.cell(cell_name))], parallel=False)
            self._nldm[cell_name] = _by_arc(result.value)
        try:
            return self._nldm[cell_name][(pin, input_rise)]
        except KeyError:
            raise TimingError(f"cell {cell_name!r} has no NLDM arc on pin {pin!r}") from None

    # ------------------------------------------------------------------
    # Whole-library characterization as one job set
    # ------------------------------------------------------------------
    def prewarm(
        self,
        cells: Optional[Iterable[Cell]] = None,
        kinds: Sequence[str] = ("sis", "mis"),
        include_nldm: bool = False,
    ) -> int:
        """Characterize cell × model-kind combinations as one parallel job set.

        Each wanted model is first looked up under its own
        :func:`~repro.characterization.characterize.characterization_key`;
        the misses of one cell run as one bundle
        (:func:`~repro.characterization.characterize.cell_characterization_job`),
        whose models share one capacitance batch per probe circuit and are
        each stored under their own key, bitwise what a per-model job would
        store.  Bundles of different cells (and NLDM jobs) fan out through
        the executor.

        Parameters
        ----------
        cells:
            Cells to characterize; defaults to every cell of the library
            (sorted by name, so the job order is deterministic).
        kinds:
            ``"sis"`` builds one model per input pin; ``"mis"`` builds the
            preferred two-input-switching model (MCSM or baseline, following
            ``use_internal_node``) for every input-pin combination.
        include_nldm:
            Also characterize the NLDM delay/slew tables (both edge
            directions) for every input pin: one job per cell.

        Returns the number of CSM models and NLDM jobs characterized — i.e.
        neither memoized in this library nor served from the disk cache.
        With a warm cache the return value is 0 and prewarming is
        effectively free.
        """
        if cells is None:
            cells = [self.library[name] for name in self.library.names()]
        # Every model the kinds ask for, as (memo, memo key, cell, kind, pins).
        wanted: List[Tuple[Dict, Hashable, Cell, str, Tuple[str, ...]]] = []
        nldm_cells: List[Cell] = []
        for cell in cells:
            if "sis" in kinds:
                wanted.extend(
                    (self._sis, (cell.name, pin), cell, "sis", (pin,)) for pin in cell.inputs
                )
            if "mis" in kinds and cell.num_inputs >= 2:
                kind = self._mis_kind(cell)
                memo = self._mcsm if kind == "mcsm" else self._mis
                wanted.extend(
                    (memo, (cell.name, *pins), cell, kind, pins)
                    for pins in itertools.combinations(cell.inputs, 2)
                )
            if include_nldm and cell.name not in self._nldm:
                nldm_cells.append(cell)

        # Look each model that is not memoized up under its own key; bundle
        # the misses by cell, as (memo, memo key, store key, kind, pins).
        bundles: Dict[str, Tuple[Cell, List[Tuple]]] = {}
        for memo, memo_key, cell, kind, pins in wanted:
            if memo_key in memo:
                continue
            key = None
            if self.cache is not None:
                key = characterization_key(kind, cell, pins, self.config)
                hit, value = self.cache.lookup(key)
                if hit:
                    memo[memo_key] = value
                    continue
            misses = bundles.setdefault(cell.name, (cell, []))[1]
            misses.append((memo, memo_key, key, kind, pins))

        jobs = [
            cell_characterization_job(
                cell, [(kind, pins) for *_, kind, pins in misses], self.config
            )
            for cell, misses in bundles.values()
        ]
        jobs.extend(self._nldm_job(cell) for cell in nldm_cells)
        results = self._run_jobs(jobs)
        executed = 0
        for (_, misses), result in zip(bundles.values(), results):
            for (memo, memo_key, key, _, _), model in zip(misses, result.value):
                memo[memo_key] = model
                if key is not None:
                    self.cache.store(key, model)
                executed += 1
        for cell, result in zip(nldm_cells, results[len(bundles) :]):
            self._nldm[cell.name] = _by_arc(result.value)
            executed += 0 if result.cache_hit else 1
        return executed

    def prewarm_for_netlist(
        self,
        netlist,
        kinds: Sequence[str] = ("sis", "mis"),
        include_nldm: bool = False,
    ) -> int:
        """:meth:`prewarm` restricted to the cells a netlist instantiates."""
        names = sorted({instance.cell_name for instance in netlist.instances.values()})
        return self.prewarm(
            cells=[self.library[name] for name in names],
            kinds=kinds,
            include_nldm=include_nldm,
        )

    # ------------------------------------------------------------------
    def receiver_input_capacitance(self, cell_name: str, pin: str) -> float:
        """Input capacitance used for load construction.

        The characterized SIS model's ``Ci`` is used when it is already in the
        cache; otherwise the structural gate-capacitance estimate is used to
        avoid triggering a full characterization just for a load number.
        (The waveform engines prewarm every receiver pin's SIS model before
        propagating, so within an engine run this is deterministic.)  ``Ci``
        is evaluated once per characterized model.
        """
        key = (cell_name, pin)
        model = self._sis.get(key)
        if model is None:
            return self.cell(cell_name).pin_gate_capacitance(pin)
        cached = self._input_caps.get(key)
        if cached is None or cached[0] is not model:
            cached = self._input_caps[key] = (model, cap_value(model.input_cap, model.vdd / 2.0))
        return cached[1]
