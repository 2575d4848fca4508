"""Model libraries used by the timing engines and the paper figures.

A :class:`TimingModelLibrary` characterizes and caches the models the engines
and the figures need: NLDM tables per timing arc for the voltage-based engine,
and SIS / baseline-MIS / MCSM current-source models for the
waveform-propagation engine and :class:`~repro.experiments.ExperimentContext`.
Characterization is expensive (it runs the reference simulator), so every
model is built exactly once per (kind, cell, pins), and every NLDM table once
per cell (all of a cell's arcs are one job).  One method,
:meth:`TimingModelLibrary.characterize`, does all of it: it looks every wanted
model up under its own content key, runs the misses of each cell as one
bundle whose models share their capacitance batches, and stores each model
under its own key.  So a library wired to a
:class:`~repro.runtime.store.PackedStore` never recomputes a model that *any*
previous session already built: engine construction over a warm cache is a
no-op.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cells.cell import Cell
from ..cells.library import CellLibrary
from ..characterization.characterize import (
    cell_characterization_job,
    characterization_key,
    nldm_characterization_job,
)
from ..characterization.config import CharacterizationConfig
from ..characterization.nldm import NLDMTable
from ..csm.base import cap_value
from ..csm.models import SISCSM
from ..exceptions import TimingError
from ..runtime.store import PackedStore
from ..runtime.executor import Executor, run_jobs

#: ``(kind, cell name, pins)``: the name of one CSM model in a library.
ModelKey = Tuple[str, str, Tuple[str, ...]]

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
        Optional :class:`repro.runtime.Executor`; a characterization of
        several cells fans its jobs (one per cell) out through it.
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
    _models: Dict[ModelKey, object] = field(default_factory=dict, repr=False)
    _nldm: Dict[str, Dict[Tuple[str, bool], NLDMTable]] = field(default_factory=dict, repr=False)
    #: (cell, pin) -> (its SIS model, that model's ``Ci``): the memo of
    #: :meth:`receiver_input_capacitance`, valid while the model is the one
    #: in ``_models``.
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

    def _mis_kind(self, cell: Cell) -> str:
        """Which two-input-switching model this library builds for a cell."""
        if self.use_internal_node and cell.stack_node() is not None:
            return "mcsm"
        return "mis"

    # ------------------------------------------------------------------
    def model(self, kind: str, cell_name: str, pins: Tuple[str, ...]):
        """The ``kind`` (``"sis"``, ``"mis"`` or ``"mcsm"``) model of a cell
        on ``pins`` (a tuple), characterized on first use.  A memoized model
        costs one dict lookup."""
        model = self._models.get((kind, cell_name, pins))
        if model is None:
            self.characterize([(kind, self.cell(cell_name), pins)])
            model = self._models[kind, cell_name, pins]
        return model

    def sis_model(self, cell_name: str, pin: str) -> SISCSM:
        return self.model("sis", cell_name, (pin,))

    def mis_model(self, cell_name: str, pin_a: str, pin_b: str):
        """The preferred two-input-switching model (MCSM or baseline)."""
        cell = self.cell(cell_name)
        if cell.num_inputs < 2:
            raise TimingError(f"cell {cell_name!r} has a single input; no MIS model exists")
        return self.model(self._mis_kind(cell), cell_name, (pin_a, pin_b))

    def nldm_table(self, cell_name: str, pin: str, input_rise: bool) -> NLDMTable:
        """One arc's tables; the first call for a cell characterizes (or
        loads) every arc of that cell."""
        if cell_name not in self._nldm:
            self.characterize((), nldm_cells=[self.cell(cell_name)])
        try:
            return self._nldm[cell_name][(pin, input_rise)]
        except KeyError:
            raise TimingError(f"cell {cell_name!r} has no NLDM arc on pin {pin!r}") from None

    # ------------------------------------------------------------------
    def characterize(
        self,
        requests: Iterable[Tuple[str, Cell, Tuple[str, ...]]],
        nldm_cells: Iterable[Cell] = (),
    ) -> int:
        """Characterize CSM models and NLDM tables as one job set: the one
        characterization path of the library.

        Each ``(kind, cell, pins)`` request that is not memoized is first
        looked up under its own
        :func:`~repro.characterization.characterize.characterization_key`;
        the misses of one cell run as one bundle
        (:func:`~repro.characterization.characterize.cell_characterization_job`),
        whose models share one capacitance batch per probe circuit, and each
        model is stored under its own key.  Each cell of ``nldm_cells``
        whose tables are not memoized is one keyed NLDM job.  A job set of
        several jobs fans out through the executor.

        Returns the number of CSM models and NLDM jobs characterized, i.e.
        neither memoized here nor served from the store.
        """
        bundles: Dict[str, Tuple[Cell, List[Tuple[ModelKey, Optional[str]]]]] = {}
        for kind, cell, pins in requests:
            memo_key = (kind, cell.name, pins)
            if memo_key in self._models:
                continue
            key = None
            if self.cache is not None:
                key = characterization_key(kind, cell, pins, self.config)
                hit, value = self.cache.lookup(key)
                if hit:
                    self._models[memo_key] = value
                    continue
            bundles.setdefault(cell.name, (cell, []))[1].append((memo_key, key))
        nldm_cells = [cell for cell in nldm_cells if cell.name not in self._nldm]

        jobs = [
            cell_characterization_job(
                cell, [(kind, pins) for (kind, _, pins), _ in misses], self.config
            )
            for cell, misses in bundles.values()
        ]
        jobs.extend(
            nldm_characterization_job(cell, self.nldm_input_slews, self.nldm_loads)
            for cell in nldm_cells
        )
        executor = self.executor if len(jobs) > 1 else None
        results = run_jobs(jobs, executor=executor, cache=self.cache)
        executed = 0
        for (_, misses), result in zip(bundles.values(), results):
            for (memo_key, key), model in zip(misses, result.value):
                self._models[memo_key] = model
                if key is not None:
                    self.cache.store(key, model)
                executed += 1
        for cell, result in zip(nldm_cells, results[len(bundles) :]):
            self._nldm[cell.name] = _by_arc(result.value)
            executed += 0 if result.cache_hit else 1
        return executed

    def prewarm(
        self,
        cells: Optional[Iterable[Cell]] = None,
        kinds: Sequence[str] = ("sis", "mis"),
        include_nldm: bool = False,
    ) -> int:
        """Characterize cell × model-kind combinations as one
        :meth:`characterize` job set.

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

        Returns :meth:`characterize`'s count.  With a warm cache it is 0 and
        prewarming is effectively free.
        """
        if cells is None:
            cells = [self.library[name] for name in self.library.names()]
        cells = list(cells)
        requests: List[Tuple[str, Cell, Tuple[str, ...]]] = []
        for cell in cells:
            if "sis" in kinds:
                requests.extend(("sis", cell, (pin,)) for pin in cell.inputs)
            if "mis" in kinds and cell.num_inputs >= 2:
                kind = self._mis_kind(cell)
                requests.extend(
                    (kind, cell, pins) for pins in itertools.combinations(cell.inputs, 2)
                )
        return self.characterize(requests, nldm_cells=cells if include_nldm else ())

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
        model = self._models.get(("sis", cell_name, (pin,)))
        if model is None:
            return self.cell(cell_name).pin_gate_capacitance(pin)
        cached = self._input_caps.get(key)
        if cached is None or cached[0] is not model:
            cached = self._input_caps[key] = (model, cap_value(model.input_cap, model.vdd / 2.0))
        return cached[1]
