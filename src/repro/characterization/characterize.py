"""Top-level characterization flows producing ready-to-use model objects.

Every CSM characterization is a *bundle*: :func:`characterize_cell_models`
builds several models of one cell, sharing their capacitance ramps, and the
``characterize_*`` entry points are bundles of one.  This module also knows
how to package a characterization as a :class:`repro.runtime.jobs.Job`:
:func:`cell_characterization_job` is one cell's bundle as a picklable work
unit, and :func:`characterization_key` names each of its models by a content
hash over the model kind and pins, the cell topology, the technology, the
characterization configuration and the code-version salt.
:class:`repro.sta.TimingModelLibrary` (the front the figures, the engines,
the CLI and the server share) looks each model up under that key, submits one
bundle per cell through :func:`repro.runtime.run_jobs` and stores each model
under its own key, which is what makes characterizations parallelizable
across cells and cacheable across experiments and sessions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from ..cells.cell import Cell
from ..csm.models import MCSM, BaselineMISCSM, SISCSM
from ..exceptions import CharacterizationError
from ..runtime.jobs import Job, cell_fingerprint, content_hash
from .capacitance import (
    CapacitanceRequest,
    CellCapacitances,
    characterize_cell_capacitances,
)
from .config import CharacterizationConfig
from .dc_tables import (
    characterize_mcsm_currents,
    characterize_mis_current,
    characterize_sis_current,
)
from .nldm import NLDMTable, characterize_nldm_arcs

__all__ = [
    "characterize_sis",
    "characterize_baseline_mis",
    "characterize_mcsm",
    "characterize_cell_models",
    "characterization_key",
    "cell_characterization_job",
    "run_nldm_characterization",
    "nldm_characterization_key",
    "nldm_characterization_job",
]


def _default_fixed_inputs(cell: Cell, switching: Tuple[str, ...]) -> Dict[str, float]:
    vdd = cell.technology.vdd
    return {
        pin: cell.non_controlling_value(pin) * vdd
        for pin in cell.inputs
        if pin not in switching
    }


def _miller_other_bias(cell: Cell, other: str, config: CharacterizationConfig) -> float:
    """Voltage of the other switching pin during Miller-cap extraction."""
    if config.miller_other_pin_state == "controlling":
        return cell.controlling_value(other) * cell.technology.vdd
    return cell.non_controlling_value(other) * cell.technology.vdd


_PINS_REQUIRED = {"sis": 1, "mis": 2, "mcsm": 2}


def _checked_pins(kind: str, cell: Cell, pins: Sequence[Optional[str]]) -> Tuple[str, ...]:
    """``pins`` after checking that ``cell`` has a ``kind`` model on them."""
    try:
        expected = _PINS_REQUIRED[kind]
    except KeyError:
        raise CharacterizationError(
            f"unknown characterization kind {kind!r}; expected one of "
            f"{sorted(_PINS_REQUIRED)}"
        ) from None
    pins = tuple(pins)
    if len(pins) != expected:
        raise CharacterizationError(
            f"characterization kind {kind!r} needs {expected} pin(s), got {pins!r}"
        )
    if kind != "sis" and cell.num_inputs < 2:
        remedy = (
            "use characterize_sis instead" if kind == "mis" else "MCSM needs a multi-input cell"
        )
        raise CharacterizationError(f"cell {cell.name!r} has fewer than two inputs; {remedy}")
    if kind == "mcsm" and cell.stack_node() is None:
        raise CharacterizationError(f"cell {cell.name!r} has no internal stack node")
    for pin in pins:
        if pin not in cell.inputs:
            raise CharacterizationError(f"cell {cell.name!r} has no input pin {pin!r}")
    if len(set(pins)) != len(pins):
        raise CharacterizationError("pin_a and pin_b must differ")
    return pins


def _capacitance_request(
    kind: str,
    cell: Cell,
    pins: Tuple[str, ...],
    fixed: Dict[str, float],
    config: CharacterizationConfig,
) -> CapacitanceRequest:
    """What a ``kind`` model on ``pins`` needs measured: each pin ramped with
    the other inputs fixed and the other switching pin (if any) at its
    Miller bias, and ``C_N`` for the complete MCSM."""
    pin_biases: Dict[str, Dict[str, float]] = {}
    for pin in pins:
        bias = dict(fixed)
        for other in pins:
            if other != pin:
                bias[other] = _miller_other_bias(cell, other, config)
        pin_biases[pin] = bias
    return CapacitanceRequest(pins, pin_biases, include_internal=kind == "mcsm")


def characterize_cell_models(
    cell: Cell,
    requests: Sequence[Tuple[str, Sequence[str]]],
    config: Optional[CharacterizationConfig] = None,
) -> Tuple:
    """Characterize several CSM models of one cell as one bundle.

    ``requests`` lists ``(kind, pins)`` pairs: ``"sis"`` on one pin, or
    ``"mis"`` (baseline, Section 3.1) / ``"mcsm"`` (complete, Sections
    3.2/3.3) on two.  Each model gets its own DC current tables, while the
    capacitance ramps of all of them run through
    :func:`~repro.characterization.capacitance.characterize_cell_capacitances`
    together: one lockstep batch per probe circuit, with every run that
    several models share integrated once.  Every model is bitwise what it
    would be alone.  The model-level entry points below are bundles of one;
    :meth:`repro.sta.TimingModelLibrary.characterize` runs one bundle per cell.

    Returns the models in request order.
    """
    config = config or CharacterizationConfig()
    plans = []
    for kind, pins in requests:
        pins = _checked_pins(kind, cell, pins)
        plans.append((kind, pins, _default_fixed_inputs(cell, pins)))
    capacitances = characterize_cell_capacitances(
        cell,
        [_capacitance_request(kind, cell, pins, fixed, config) for kind, pins, fixed in plans],
        config,
    )
    return tuple(
        _assemble(kind, cell, pins, fixed, caps, config)
        for (kind, pins, fixed), caps in zip(plans, capacitances)
    )


def _assemble(
    kind: str,
    cell: Cell,
    pins: Tuple[str, ...],
    fixed: Dict[str, float],
    caps: CellCapacitances,
    config: CharacterizationConfig,
):
    """One model from its DC current tables (characterized here) and its
    capacitances."""
    common = dict(
        cell_name=cell.name,
        fixed_inputs=fixed,
        output_cap=caps.output_cap,
        vdd=cell.technology.vdd,
        metadata={"grid_points": str(config.io_grid_points)},
    )
    if kind == "sis":
        [pin] = pins
        return SISCSM(
            pin=pin,
            io_table=characterize_sis_current(cell, pin, config, fixed_inputs=fixed),
            input_cap=caps.input_caps[pin],
            miller_cap=caps.miller_caps[pin],
            **common,
        )
    pair = dict(
        pin_a=pins[0],
        pin_b=pins[1],
        input_caps=caps.input_caps,
        miller_caps=caps.miller_caps,
        **common,
    )
    if kind == "mis":
        io_table = characterize_mis_current(cell, *pins, config, fixed_inputs=fixed)
        return BaselineMISCSM(io_table=io_table, **pair)
    io_table, in_table = characterize_mcsm_currents(cell, *pins, config, fixed_inputs=fixed)
    return MCSM(
        io_table=io_table,
        in_table=in_table,
        internal_cap=caps.internal_cap,
        internal_node=cell.stack_node(),
        **pair,
    )


def _second_input(cell: Cell) -> Optional[str]:
    return cell.inputs[1] if cell.num_inputs > 1 else None


def characterize_sis(
    cell: Cell,
    pin: Optional[str] = None,
    config: Optional[CharacterizationConfig] = None,
) -> SISCSM:
    """Characterize a single-input-switching CSM ([5]-style) for one pin.

    Parameters
    ----------
    cell:
        Cell to characterize.
    pin:
        Switching pin; defaults to the cell's first input.
    config:
        Characterization settings.
    """
    [model] = characterize_cell_models(cell, [("sis", (pin or cell.inputs[0],))], config)
    return model


def characterize_baseline_mis(
    cell: Cell,
    pin_a: Optional[str] = None,
    pin_b: Optional[str] = None,
    config: Optional[CharacterizationConfig] = None,
    include_miller: bool = True,
) -> BaselineMISCSM:
    """Characterize the baseline MIS CSM (no internal node, Section 3.1)."""
    pins = (pin_a or cell.inputs[0], pin_b or _second_input(cell))
    [model] = characterize_cell_models(cell, [("mis", pins)], config)
    return model if include_miller else dataclasses.replace(model, include_miller=False)


def characterize_mcsm(
    cell: Cell,
    pin_a: Optional[str] = None,
    pin_b: Optional[str] = None,
    config: Optional[CharacterizationConfig] = None,
) -> MCSM:
    """Characterize the complete MCSM of the paper (Sections 3.2/3.3).

    The cell must have at least one internal stack node; the node returned by
    :meth:`repro.cells.Cell.stack_node` (the node adjacent to the output
    inside the series stack, the paper's node *N*) is the one modeled.
    """
    pins = (pin_a or cell.inputs[0], pin_b or _second_input(cell))
    [model] = characterize_cell_models(cell, [("mcsm", pins)], config)
    return model


# ----------------------------------------------------------------------
# Runtime integration: characterizations as content-addressed jobs
# ----------------------------------------------------------------------
def characterization_key(
    kind: str, cell: Cell, pins: Sequence[str], config: CharacterizationConfig
) -> str:
    """Content hash identifying one characterization result.

    Covers the model kind, the switching pins, the cell fingerprint (topology,
    geometry and technology — so a process-corner change re-characterizes) and
    every knob of the characterization configuration, all salted with
    :data:`repro.runtime.jobs.CODE_VERSION`.
    """
    return content_hash(
        "characterization", kind, tuple(pins), cell_fingerprint(cell), config
    )


def cell_characterization_job(
    cell: Cell, requests: Sequence[Tuple[str, Sequence[str]]], config: CharacterizationConfig
) -> Job:
    """Package several CSM models of one cell as one runtime job: a bundle
    (:func:`characterize_cell_models`) whose value is the tuple of models in
    request order.

    The job has no key of its own: its caller stores each model under its
    own :func:`characterization_key`, so a model has one store entry whatever
    bundle built it.
    """
    requests = tuple((kind, tuple(pins)) for kind, pins in requests)
    return Job(
        fn=characterize_cell_models,
        args=(cell, requests, config),
        name=f"characterize:{cell.name}:"
        + ";".join(f"{kind}:{','.join(pins)}" for kind, pins in requests),
    )


def run_nldm_characterization(
    cell: Cell,
    input_slews: Sequence[float],
    loads: Sequence[float],
    time_step: float = 1e-12,
) -> Tuple[NLDMTable, ...]:
    """Module-level dispatch target of :func:`nldm_characterization_job`:
    every NLDM arc of ``cell`` (:func:`characterize_nldm_arcs`)."""
    return characterize_nldm_arcs(
        cell, input_slews=tuple(input_slews), loads=tuple(loads), time_step=time_step
    )


def nldm_characterization_key(
    cell: Cell,
    input_slews: Sequence[float],
    loads: Sequence[float],
    time_step: float = 1e-12,
) -> str:
    """Content hash identifying the NLDM characterization of one cell's arcs."""
    return content_hash(
        "nldm-cell-characterization",
        tuple(input_slews),
        tuple(loads),
        time_step,
        cell_fingerprint(cell),
    )


def nldm_characterization_job(
    cell: Cell,
    input_slews: Sequence[float],
    loads: Sequence[float],
    time_step: float = 1e-12,
) -> Job:
    """Package the NLDM characterization of every arc of one cell as a
    cacheable runtime job; its value is a tuple of :class:`NLDMTable`."""
    return Job(
        fn=run_nldm_characterization,
        args=(cell, tuple(input_slews), tuple(loads), time_step),
        name=f"characterize:nldm:{cell.name}",
        key=nldm_characterization_key(cell, input_slews, loads, time_step),
    )
