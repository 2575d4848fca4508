"""Top-level characterization flows producing ready-to-use model objects.

Besides the direct ``characterize_*`` entry points, this module knows how to
package a characterization as a :class:`repro.runtime.jobs.Job`
(:func:`characterization_job`): a picklable work unit whose content hash
covers the cell topology, the technology, the characterization configuration
and the code-version salt.  The experiment layer submits those jobs through
:func:`repro.runtime.run_jobs`, which is what makes characterizations
parallelizable across cells and cacheable across experiments and sessions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..cells.cell import Cell
from ..csm.models import MCSM, BaselineMISCSM, SISCSM
from ..exceptions import CharacterizationError
from ..runtime.jobs import Job, cell_fingerprint, content_hash
from .capacitance import characterize_cell_capacitances
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
    "run_characterization",
    "characterization_key",
    "characterization_job",
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
    config = config or CharacterizationConfig()
    pin = pin or cell.inputs[0]
    if pin not in cell.inputs:
        raise CharacterizationError(f"cell {cell.name!r} has no input pin {pin!r}")
    fixed = _default_fixed_inputs(cell, (pin,))

    io_table = characterize_sis_current(cell, pin, config, fixed_inputs=fixed)
    miller_caps, input_caps, output_cap, _ = characterize_cell_capacitances(
        cell, (pin,), {pin: fixed}, config
    )
    miller = miller_caps[pin]
    input_cap = input_caps[pin]

    return SISCSM(
        cell_name=cell.name,
        pin=pin,
        fixed_inputs=fixed,
        io_table=io_table,
        input_cap=input_cap,
        output_cap=output_cap,
        miller_cap=miller,
        vdd=cell.technology.vdd,
        metadata={"grid_points": str(config.io_grid_points)},
    )


def characterize_baseline_mis(
    cell: Cell,
    pin_a: Optional[str] = None,
    pin_b: Optional[str] = None,
    config: Optional[CharacterizationConfig] = None,
    include_miller: bool = True,
) -> BaselineMISCSM:
    """Characterize the baseline MIS CSM (no internal node, Section 3.1)."""
    config = config or CharacterizationConfig()
    if cell.num_inputs < 2:
        raise CharacterizationError(
            f"cell {cell.name!r} has fewer than two inputs; use characterize_sis instead"
        )
    pin_a = pin_a or cell.inputs[0]
    pin_b = pin_b or cell.inputs[1]
    if pin_a == pin_b:
        raise CharacterizationError("pin_a and pin_b must differ")
    fixed = _default_fixed_inputs(cell, (pin_a, pin_b))

    io_table = characterize_mis_current(cell, pin_a, pin_b, config, fixed_inputs=fixed)
    pin_biases: Dict[str, Dict[str, float]] = {}
    for pin, other in ((pin_a, pin_b), (pin_b, pin_a)):
        other_bias = dict(fixed)
        other_bias[other] = _miller_other_bias(cell, other, config)
        pin_biases[pin] = other_bias
    miller_caps, input_caps, output_cap, _ = characterize_cell_capacitances(
        cell, (pin_a, pin_b), pin_biases, config
    )

    return BaselineMISCSM(
        cell_name=cell.name,
        pin_a=pin_a,
        pin_b=pin_b,
        fixed_inputs=fixed,
        io_table=io_table,
        input_caps=input_caps,
        output_cap=output_cap,
        miller_caps=miller_caps,
        vdd=cell.technology.vdd,
        include_miller=include_miller,
        metadata={"grid_points": str(config.io_grid_points)},
    )


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
    config = config or CharacterizationConfig()
    if cell.num_inputs < 2:
        raise CharacterizationError(
            f"cell {cell.name!r} has fewer than two inputs; MCSM needs a multi-input cell"
        )
    stack_node = cell.stack_node()
    if stack_node is None:
        raise CharacterizationError(f"cell {cell.name!r} has no internal stack node")
    pin_a = pin_a or cell.inputs[0]
    pin_b = pin_b or cell.inputs[1]
    if pin_a == pin_b:
        raise CharacterizationError("pin_a and pin_b must differ")
    fixed = _default_fixed_inputs(cell, (pin_a, pin_b))

    io_table, in_table = characterize_mcsm_currents(cell, pin_a, pin_b, config, fixed_inputs=fixed)
    pin_biases: Dict[str, Dict[str, float]] = {}
    for pin, other in ((pin_a, pin_b), (pin_b, pin_a)):
        other_bias = dict(fixed)
        other_bias[other] = _miller_other_bias(cell, other, config)
        pin_biases[pin] = other_bias
    miller_caps, input_caps, output_cap, internal_cap = characterize_cell_capacitances(
        cell, (pin_a, pin_b), pin_biases, config, include_internal=True
    )

    return MCSM(
        cell_name=cell.name,
        pin_a=pin_a,
        pin_b=pin_b,
        fixed_inputs=fixed,
        io_table=io_table,
        in_table=in_table,
        input_caps=input_caps,
        output_cap=output_cap,
        miller_caps=miller_caps,
        internal_cap=internal_cap,
        vdd=cell.technology.vdd,
        internal_node=stack_node,
        metadata={"grid_points": str(config.io_grid_points)},
    )


# ----------------------------------------------------------------------
# Runtime integration: characterizations as content-addressed jobs
# ----------------------------------------------------------------------
_CHARACTERIZERS = {
    "sis": lambda cell, pins, config: characterize_sis(cell, pins[0], config),
    "mis": lambda cell, pins, config: characterize_baseline_mis(
        cell, pins[0], pins[1], config
    ),
    "mcsm": lambda cell, pins, config: characterize_mcsm(
        cell, pins[0], pins[1], config
    ),
}

_PINS_REQUIRED = {"sis": 1, "mis": 2, "mcsm": 2}


def run_characterization(
    kind: str, cell: Cell, pins: Sequence[str], config: CharacterizationConfig
):
    """Execute one characterization by kind (``"sis"``, ``"mis"``, ``"mcsm"``).

    This is the module-level dispatch target of :func:`characterization_job`;
    being a plain top-level function keeps the job picklable for the process
    executor.
    """
    try:
        expected = _PINS_REQUIRED[kind]
    except KeyError:
        raise CharacterizationError(
            f"unknown characterization kind {kind!r}; expected one of "
            f"{sorted(_CHARACTERIZERS)}"
        ) from None
    pins = tuple(pins)
    if len(pins) != expected:
        raise CharacterizationError(
            f"characterization kind {kind!r} needs {expected} pin(s), got {pins!r}"
        )
    return _CHARACTERIZERS[kind](cell, pins, config)


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


def characterization_job(
    kind: str, cell: Cell, pins: Sequence[str], config: CharacterizationConfig
) -> Job:
    """Package a characterization as a cacheable runtime job."""
    pins = tuple(pins)
    return Job(
        fn=run_characterization,
        args=(kind, cell, pins, config),
        name=f"characterize:{kind}:{cell.name}:{','.join(pins)}",
        key=characterization_key(kind, cell, pins, config),
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
