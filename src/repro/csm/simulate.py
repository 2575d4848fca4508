"""Forward-Euler integration of the CSM output / internal-node equations.

This module implements the discretized KCL updates of the paper:

* Eq. (4): the output-voltage update driven by the Miller charge injected by
  the moving inputs, the cell output current ``Io`` and the load;
* Eq. (5): the internal-node update driven by the internal current ``I_N``.

The integrator is shared by all three model flavours (SIS CSM, baseline MIS
CSM, complete MCSM); models differ only in which voltages their current
sources depend on and whether an internal node exists.

There is one integration path, :func:`integrate_model_many`; a single model
evaluation (:func:`integrate_model`) is a batch of one.  Everything that
depends only on the (known ahead of time) input waveforms is evaluated as
whole-array batches *before* the sequential update loop: the per-pin input
samples and their step deltas, the Miller-capacitance lookups and Miller
charge, the output/internal capacitances, and — for output-only models
whose current source is an :class:`~repro.lut.table.NDTable` — the
contraction of its input-pin axes via
:func:`~repro.lut.table.contract_leading_spans`.  Only the genuinely
recurrent ``v_out`` / ``v_int`` dependence remains inside the loop, which
then just interpolates a per-step reduced table.  Internal-node models keep
their pin voltages and contract on demand: each step reads 4 of the
``(VN, Vo)`` slice's entries, so the loop contracts just the pin corners of
those, with the contraction's exact arithmetic.

The update loops are compiled C (:mod:`repro.csm.kernels`, built from
``_kernels.c`` when this module is imported; :data:`KERNEL` names the loop
that runs).  Each is an operation-for-operation transcription of a scalar
twin here, :func:`_scalar_recurrence_output` and
:func:`_scalar_recurrence_internal`, which are the reference the tests hold
the compiled loops to and the loops a host without a C compiler runs.
Units the table kernels cannot express (arbitrary callables, stateful loads,
capacitance tables over the recurrent voltages) integrate through the scalar
reference loop :func:`_integrate_generic`; both produce the same waveforms
to float round-off.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..lut.table import NDTable, contract_leading_shared, contract_leading_spans
from ..waveform.waveform import Waveform
from . import kernels
from .base import Capacitance, SimulationOptions, cap_value, cap_value_batch
from .loads import Load

__all__ = [
    "KERNEL",
    "integrate_model",
    "integrate_model_many",
    "BatchUnit",
    "common_time_window",
    "simulation_time_grid",
]


def common_time_window(waveforms: Mapping[str, Waveform]) -> Tuple[float, float]:
    """The time interval covered by *all* the given waveforms."""
    if not waveforms:
        raise ModelError("at least one input waveform is required")
    t_start = max(w.t_start for w in waveforms.values())
    t_stop = min(w.t_stop for w in waveforms.values())
    if t_stop <= t_start:
        raise ModelError("input waveforms do not overlap in time")
    return t_start, t_stop


def _cap_precomputable(capacitance: Capacitance, available_dims: int) -> bool:
    """True when the capacitance depends only on the first ``available_dims``
    coordinates (which the integrator knows ahead of time)."""
    return not isinstance(capacitance, NDTable) or capacitance.ndim <= available_dims


def simulation_time_grid(
    t_start: float, t_stop: float, options: SimulationOptions
) -> np.ndarray:
    """The uniform sample grid the integrator uses for a time window.

    Exposed so that batched callers (the levelized STA engine) can place every
    instance of a level on the *same* grid a single evaluation would use.
    """
    if t_stop <= t_start:
        raise ModelError("simulation window is empty")
    num_steps = max(2, int(round((t_stop - t_start) / options.time_step)) + 1)
    return np.linspace(t_start, t_stop, num_steps)


def _fast_eligible(unit: BatchUnit) -> bool:
    """The conditions under which the vectorized-precompute path applies."""
    pins = unit.pins
    num_pins = len(pins)
    has_internal = unit.internal_current is not None
    state_dims = num_pins + (1 if has_internal else 0) + 1
    io_table = unit.output_current if isinstance(unit.output_current, NDTable) else None
    in_table = unit.internal_current if isinstance(unit.internal_current, NDTable) else None
    return (
        io_table is not None
        and io_table.ndim == state_dims
        and (not has_internal or (in_table is not None and in_table.ndim == state_dims))
        and (
            not has_internal
            or in_table.axes[num_pins:] == io_table.axes[num_pins:]  # shared brackets
        )
        and unit.load.constant_capacitance() is not None
        and all(_cap_precomputable(unit.miller_caps[pin], 1) for pin in pins)
        and _cap_precomputable(unit.output_cap, num_pins)
        and (not has_internal or _cap_precomputable(unit.internal_cap, num_pins))
    )


def _model_key(unit: BatchUnit) -> Tuple:
    """The identity of every table and capacitance a unit's lookups read.

    Units with equal keys share one lookup pass (the precompute, the DC
    polish), which evaluates the first unit's tables and capacitances for
    all of them."""
    return (
        id(unit.output_current),
        id(unit.internal_current),
        id(unit.output_cap),
        id(unit.internal_cap),
        tuple(id(unit.miller_caps[pin]) for pin in unit.pins),
        tuple(unit.pins),
    )


def _contract_current_tables(
    io_table: NDTable, in_table: NDTable, coords: np.ndarray, num_pins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Contract the Io/I_N pair, sharing bracket weights when possible.

    Characterized pairs use one voltage grid, so the shared-weights path is
    the norm; tables whose leading (pin) axes differ — legal, `_fast_eligible`
    only constrains the trailing state axes — contract independently.
    """
    if in_table.axes[:num_pins] == io_table.axes[:num_pins]:
        io_reduced, in_reduced = contract_leading_shared((io_table, in_table), coords)
        return io_reduced, in_reduced
    return io_table.contract_leading(coords), in_table.contract_leading(coords)


@dataclass
class _Precomputed:
    """Input-driven per-step arrays feeding a fast-path recurrence.

    Table-derived rows cover only the unit's moving core: step ``k`` reads
    core row ``clip(k - first_move, 0, rows - 1)`` — the constant flanks
    before and after the core replicate its edge rows, so they are never
    materialized.  The 1-D ``charge``/``denom``/``cn`` are full-length and
    finite, with ``denom`` and ``cn`` positive (:func:`_assemble_members`
    rejects anything else).

    Output-only models carry their reduced ``Io`` rows (``io_reduced``).
    Internal-node models carry the core's pin voltages and their two tables
    instead, and the recurrence contracts the pin axes on demand: the scalar
    twin materializes reduced rows (:func:`_scalar_recurrence_internal`), the
    compiled loop contracts only the pin corners each step reads, from pin
    brackets computed once per group (:func:`_pin_brackets`).
    """

    charge: np.ndarray  # (steps,)
    denom: np.ndarray  # (steps,)
    cn: Optional[np.ndarray]
    first_move: int = 0
    io_reduced: Optional[np.ndarray] = None  # (core rows, nO); output-only models
    pin_core: Optional[np.ndarray] = None  # (core rows, P); internal-node models
    io_table: Optional[NDTable] = None
    in_table: Optional[NDTable] = None


def integrate_model(
    pins: Sequence[str],
    input_waveforms: Mapping[str, Waveform],
    output_current: Callable[..., float],
    miller_caps: Mapping[str, Capacitance],
    output_cap: Capacitance,
    load: Load,
    vdd: float,
    initial_output: float,
    options: SimulationOptions,
    t_start: Optional[float] = None,
    t_stop: Optional[float] = None,
    internal_current: Optional[Callable[..., float]] = None,
    internal_cap: Optional[Capacitance] = None,
    initial_internal: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Integrate the model equations over a time window.

    A batch of one through :func:`integrate_model_many`; the window defaults
    to the interval every pin waveform covers.

    Parameters
    ----------
    pins:
        Names of the switching pins, in the order the current-source callables
        expect their voltages.
    input_waveforms:
        Pin name -> input waveform.  Must contain every name in ``pins``.
    output_current:
        Callable ``Io(v_pin_0, ..., v_pin_k, [v_internal,] v_output)``;
        positive means the cell sinks current from the output node.  When this
        is an :class:`~repro.lut.table.NDTable` (tables are callable) of
        matching dimensionality, the vectorized fast path is used.
    miller_caps / output_cap / internal_cap:
        Characterized capacitances (scalars or tables).
    load:
        Output load model; its state is reset before integration.
    initial_output / initial_internal:
        Initial node voltages.
    internal_current:
        Callable ``I_N(...)`` with the same signature as ``output_current``;
        present only for models with an internal node.

    Returns
    -------
    (times, v_out, v_internal):
        Sample times, output voltage samples and internal-node samples (or
        ``None`` when the model has no internal node).
    """
    missing = [pin for pin in pins if pin not in input_waveforms]
    if missing:
        raise ModelError(f"missing input waveforms for pins {missing}")
    window_start, window_stop = common_time_window(
        {pin: input_waveforms[pin] for pin in pins}
    )
    unit = BatchUnit(
        pins=tuple(pins),
        input_waveforms=input_waveforms,
        output_current=output_current,
        miller_caps=miller_caps,
        output_cap=output_cap,
        load=load,
        vdd=vdd,
        initial_output=initial_output,
        internal_current=internal_current,
        internal_cap=internal_cap,
        initial_internal=initial_internal,
    )
    times, [(v_out, v_int)] = integrate_model_many(
        [unit],
        options,
        window_start if t_start is None else t_start,
        window_stop if t_stop is None else t_stop,
    )
    return times, v_out, v_int


def _scalar_bracket(axis):
    """A scalar closure locating ``value``'s interval on ``axis``: clamp onto
    the axis, then the uniform-grid ``inv_h`` index with truncation, or
    ``bisect_right`` on a non-uniform axis.  ``bracket`` in ``_kernels.c``
    is its transcription (see :func:`_scalar_recurrence_output`)."""
    pts, spans, n, inv_h = _axis_lookup(axis)
    pts_list = pts.tolist()
    spans_list = spans.tolist()
    lo = pts_list[0]
    hi = pts_list[-1]
    top = n - 2
    if inv_h is not None:
        scale = float(inv_h)

        def bracket(value: float) -> Tuple[int, float]:
            vc = value if value < hi else hi
            if vc < lo:
                vc = lo
            t = (vc - lo) * scale
            idx = int(t)
            if idx > top:
                idx = top
            return idx, t - idx

    else:

        def bracket(value: float) -> Tuple[int, float]:
            vc = value if value < hi else hi
            if vc < lo:
                vc = lo
            idx = bisect_right(pts_list, vc) - 1
            if idx < 0:
                idx = 0
            elif idx > top:
                idx = top
            return idx, (vc - pts_list[idx]) / spans_list[idx]

    return bracket


def _scalar_recurrence_output(
    pre: _Precomputed,
    times: np.ndarray,
    vo_axis,
    initial_output: float,
    v_low: float,
    v_high: float,
) -> np.ndarray:
    """The scalar update loop for models without an internal node.

    ``csm_output`` in ``_kernels.c`` transcribes it operation for operation:
    same bracketing formula (uniform-grid ``inv_h`` fast path included), same
    lerp association, same update association
    ``vo + (charge - io * dt) / denom``, same clamp.  The compiled loop runs
    wherever a C compiler exists and this twin where none does, and
    slow-corner dynamics amplify per-step ULP differences to millivolts, so
    the two must agree bitwise (tests/test_csm_kernel.py holds them to it).
    """
    num_steps = len(times)
    steps = num_steps - 1
    dt_list = np.diff(times).tolist()
    charge_list = pre.charge.tolist()
    denom_list = pre.denom.tolist()
    vo_bracket = _scalar_bracket(vo_axis)

    v_out = np.empty(num_steps)
    v_out[0] = initial_output
    vo = initial_output
    # The clamp below maps step k onto core row clip(k - first_move, 0, last).
    io_rows = pre.io_reduced.tolist()  # (rows, nO) nested lists
    first_move = pre.first_move
    last_row = len(io_rows) - 1
    out_list = [vo]
    for k in range(steps):
        i, frac = vo_bracket(vo)
        idx = k - first_move
        if idx < 0:
            idx = 0
        elif idx > last_row:
            idx = last_row
        row = io_rows[idx]
        io_val = row[i] + frac * (row[i + 1] - row[i])
        vo = vo + (charge_list[k] - io_val * dt_list[k]) / denom_list[k]
        if vo < v_low:
            vo = v_low
        elif vo > v_high:
            vo = v_high
        out_list.append(vo)
    v_out[:] = out_list
    return v_out


def _scalar_recurrence_internal(
    pre: _Precomputed,
    times: np.ndarray,
    vn_axis,
    vo_axis,
    initial_output: float,
    initial_internal: float,
    v_low: float,
    v_high: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The scalar update loop for internal-node (MCSM) models.

    Like :func:`_scalar_recurrence_output`, bitwise the compiled loop
    (``csm_internal`` in ``_kernels.c``): pre-divided ``drive``/``rate``
    coefficients, pin contraction in :meth:`NDTable._contract_apply`'s order,
    nested-lerp bilinear interpolation and the same bracket, with the updates
    ``vo + (drive - io * rate_o)`` and ``vn + (0.0 - i_n * rate_n)``.
    """
    num_steps = len(times)
    steps = num_steps - 1
    assert pre.pin_core is not None and pre.cn is not None
    dt = np.diff(times)
    # Same pre-divided coefficients (and the same elementwise divisions) as
    # the compiled loop's drive/rate rows (:func:`_run_internal`).
    drive_list = (pre.charge / pre.denom).tolist()
    rate_o_list = (dt / pre.denom).tolist()
    rate_n_list = (dt / pre.cn).tolist()
    vo_bracket = _scalar_bracket(vo_axis)
    vn_bracket = _scalar_bracket(vn_axis)
    n_out = len(vo_axis.points)
    # One reduced row per moving-core step (see
    # :func:`_scalar_recurrence_output` for the step -> row clamp).
    io_reduced, in_reduced = _contract_current_tables(
        pre.io_table, pre.in_table, pre.pin_core, pre.pin_core.shape[1]
    )
    num_rows = io_reduced.shape[0]
    io_rows = io_reduced.reshape(num_rows, -1).tolist()  # (rows, nN * nO)
    in_rows = in_reduced.reshape(num_rows, -1).tolist()
    first_move = pre.first_move
    last_row = num_rows - 1

    v_out = np.empty(num_steps)
    v_out[0] = initial_output
    vo = initial_output
    v_int = np.empty(num_steps)
    v_int[0] = initial_internal
    vn = initial_internal
    out_list = [vo]
    int_list = [vn]
    for k in range(steps):
        i, fo = vo_bracket(vo)
        j, fn = vn_bracket(vn)

        base = j * n_out + i
        idx = k - first_move
        if idx < 0:
            idx = 0
        elif idx > last_row:
            idx = last_row
        row = io_rows[idx]
        io_lo = row[base] + fo * (row[base + 1] - row[base])
        io_hi = row[base + n_out] + fo * (row[base + n_out + 1] - row[base + n_out])
        io_val = io_lo + fn * (io_hi - io_lo)
        row = in_rows[idx]
        in_lo = row[base] + fo * (row[base + 1] - row[base])
        in_hi = row[base + n_out] + fo * (row[base + n_out + 1] - row[base + n_out])
        in_val = in_lo + fn * (in_hi - in_lo)

        vo = vo + (drive_list[k] - io_val * rate_o_list[k])
        if vo > v_high:
            vo = v_high
        if vo < v_low:
            vo = v_low
        vn = vn + (0.0 - in_val * rate_n_list[k])
        if vn > v_high:
            vn = v_high
        if vn < v_low:
            vn = v_low
        out_list.append(vo)
        int_list.append(vn)

    v_out[:] = out_list
    v_int[:] = int_list
    return v_out, v_int


def _integrate_generic(
    unit: BatchUnit,
    input_samples: Dict[str, np.ndarray],
    times: np.ndarray,
    initial_output: float,
    initial_internal: Optional[float],
    v_low: float,
    v_high: float,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The scalar update loop: the reference for units the table kernels
    cannot express (custom callables, stateful loads, state-dependent
    capacitances).  Calls every current source and capacitance per step."""
    pins = unit.pins
    output_current, internal_current = unit.output_current, unit.internal_current
    miller_caps, output_cap, internal_cap = unit.miller_caps, unit.output_cap, unit.internal_cap
    load = unit.load
    has_internal = internal_current is not None
    num_steps = len(times)
    v_out = np.empty(num_steps)
    v_out[0] = initial_output
    v_int: Optional[np.ndarray] = None
    if has_internal:
        v_int = np.empty(num_steps)
        v_int[0] = initial_internal

    for k in range(num_steps - 1):
        dt = times[k + 1] - times[k]
        vo = v_out[k]
        pin_voltages = [input_samples[pin][k] for pin in pins]
        if has_internal:
            coords = (*pin_voltages, v_int[k], vo)
        else:
            coords = (*pin_voltages, vo)

        io = output_current(*coords)
        load_cap = load.effective_capacitance(vo)
        extra = load.extra_current(vo, times[k])
        co = cap_value(output_cap, *coords)

        miller_charge = 0.0
        miller_total = 0.0
        for pin in pins:
            cm = cap_value(miller_caps[pin], input_samples[pin][k], vo)
            miller_total += cm
            miller_charge += cm * (input_samples[pin][k + 1] - input_samples[pin][k])

        denominator = load_cap + co + miller_total
        if not denominator > 0:
            raise ModelError("total output capacitance must be positive")
        v_next = vo + (miller_charge - (io + extra) * dt) / denominator
        v_out[k + 1] = float(np.clip(v_next, v_low, v_high))

        if has_internal:
            assert v_int is not None and internal_cap is not None and internal_current is not None
            i_n = internal_current(*coords)
            cn = cap_value(internal_cap, *coords)
            if not cn > 0:
                raise ModelError("internal-node capacitance must be positive")
            vn_next = v_int[k] - i_n * dt / cn
            v_int[k + 1] = float(np.clip(vn_next, v_low, v_high))

        load.advance(v_out[k + 1], dt)

    return v_out, v_int


# ----------------------------------------------------------------------
# Batches: many model evaluations over one shared time grid
# ----------------------------------------------------------------------
@dataclass
class BatchUnit:
    """One model evaluation inside an :func:`integrate_model_many` batch.

    The fields mirror the parameters of :func:`integrate_model`; every unit
    carries its own model tables, input waveforms, load and initial state, so
    a batch may freely mix cells and model flavours — units whose current
    sources share the same state-axis grids are integrated by one call of the
    compiled step loop, the rest through the scalar reference loop.

    ``input_samples`` is the structure-of-arrays alternative to
    ``input_waveforms``: pin → sample row *already on the batch's shared time
    grid* (a view into a level tensor).  When set it skips the per-unit
    ``value_at`` resampling entirely; rows must have exactly
    ``len(simulation_time_grid(t_start, t_stop, options))`` samples.
    """

    pins: Tuple[str, ...]
    input_waveforms: Mapping[str, Waveform]
    output_current: Callable[..., float]
    miller_caps: Mapping[str, Capacitance]
    output_cap: Capacitance
    load: Load
    vdd: float
    initial_output: float
    internal_current: Optional[Callable[..., float]] = None
    internal_cap: Optional[Capacitance] = None
    initial_internal: Optional[float] = None
    input_samples: Optional[Mapping[str, np.ndarray]] = None


@dataclass
class _PrecomputePlan:
    """The input-movement analysis of one unit, before any table lookups.

    The moving core (or the single representative row, for constant inputs)
    is identified first so that every unit's table lookups batch into one
    call; the per-unit :class:`_Precomputed` is assembled afterwards.
    """

    constant: bool
    steps: int
    pin_core: np.ndarray  # (core_len, P); a single row for constant inputs
    deltas_core: Optional[np.ndarray]  # (core_len, P); None for constant
    first_move: int
    core_stop: int


@dataclass
class _Member:
    """One unit of a batch: its sampled inputs, clipped initial state and,
    for fast-path units (once :func:`_fill_precompute_shared` ran), its
    precompute."""

    index: int
    unit: BatchUnit
    input_samples: Dict[str, np.ndarray]
    io_table: NDTable  # the unit's output_current; an NDTable on the fast path
    in_table: Optional[NDTable]
    has_internal: bool
    v_low: float
    v_high: float
    initial_output: float
    initial_internal: Optional[float]
    plan: Optional[_PrecomputePlan] = None
    pre: Optional[_Precomputed] = None


def _precompute_plan(
    pins: Sequence[str], input_samples: Dict[str, np.ndarray], times: np.ndarray
) -> _PrecomputePlan:
    """Identify a unit's moving core, before any table lookups.

    The inputs move only inside ``[first_move, stationary_from)``: the rows
    before and after are copies of one bias point, so the per-step lookups
    are evaluated on the moving core only and the constant flanks broadcast
    from the core's edge rows (identical values, computed once).
    """
    pin_block = np.stack([input_samples[pin] for pin in pins], axis=1)  # (T, P)
    pin_now = pin_block[:-1]  # (steps, P) voltages at step k
    deltas = pin_block[1:] - pin_block[:-1]  # (steps, P) input charge drivers
    steps = pin_now.shape[0]
    moving = np.flatnonzero((deltas != 0.0).any(axis=1))
    stationary_from = int(moving[-1]) + 1 if moving.size else 0
    if stationary_from == 0 and steps > 1:
        return _PrecomputePlan(
            constant=True,
            steps=steps,
            pin_core=pin_now[:1],
            deltas_core=None,
            first_move=0,
            core_stop=steps,
        )
    first_move = int(moving[0]) if moving.size else 0
    core_stop = min(stationary_from, steps - 1) + 1
    flanks = first_move + (steps - core_stop)
    if flanks <= steps // 8:
        first_move = 0
        core_stop = steps
    core = slice(first_move, core_stop)
    return _PrecomputePlan(
        constant=False,
        steps=steps,
        pin_core=pin_now[core],
        deltas_core=deltas[core],
        first_move=first_move,
        core_stop=core_stop,
    )


def _expand_core(
    core_values: np.ndarray, first_move: int, core_stop: int, steps: int
) -> np.ndarray:
    """Broadcast a moving-core array back over the constant flanks."""
    if first_move == 0 and core_stop == steps:
        return core_values
    shape = core_values.shape[1:]
    return np.concatenate(
        [
            np.broadcast_to(core_values[0], (first_move,) + shape),
            core_values,
            np.broadcast_to(core_values[-1], (steps - core_stop,) + shape),
        ]
    )


def _fusion_key(member: _Member) -> Optional[Tuple]:
    """The value key under which different models' lookups may fuse.

    Distinct table *objects* with value-equal axes — the corners of an MMMC
    set, whose characterizations share one voltage grid — can share the
    bracket-weight computation of their contractions even though their value
    grids differ.  The key captures everything the fused pass requires:
    matching pin count (coordinate width), internal-node flavour and
    value-equal leading + trailing axes (equal trailing point tuples imply
    equal reduced-table shapes).  Returns ``None`` for pairs whose ``I_N``
    leading axes diverge from ``Io``'s — those group by model identity
    alone.  Internal-node models contract on demand, so for them fusion
    batches the capacitance lookups only.
    """
    io_table = member.io_table
    num_pins = len(member.unit.pins)
    leading = tuple(axis.points for axis in io_table.axes[:num_pins])
    if member.in_table is not None and (
        tuple(axis.points for axis in member.in_table.axes[:num_pins]) != leading
    ):
        return None
    trailing = tuple(axis.points for axis in io_table.axes[num_pins:])
    return (num_pins, member.has_internal, leading, trailing)


def _fill_precompute_shared(members: Sequence[_Member], times: np.ndarray) -> None:
    """Batch every unit's table lookups across same-model groups.

    Units are grouped by :func:`_model_key`, the identity of every table and
    capacitance their lookups read.  All per-core lookups
    (:func:`cap_value_batch`, the pin contraction) are strictly per-row
    operations, so evaluating the *concatenation* of the group's moving
    cores in one call yields, for each unit's slice, bitwise the rows a
    batch of that unit alone would produce.

    Model groups whose axes are value-equal (same cell across MMMC corners,
    or different cells characterized on one grid) additionally fuse into one
    lookup pass, and the contraction of output-only models computes its
    bracket weights once per row chunk for the whole pass
    (:func:`~repro.lut.table.contract_leading_spans`).  Internal-node models
    skip the contraction here; their recurrences contract on demand.  Fusion
    changes batch composition only — every lookup stays per-row with
    per-model values, so each unit's precompute is bitwise what its own
    model group would produce.
    """
    groups: Dict[Tuple, Dict[Tuple, List[_Member]]] = {}
    for member in members:
        member.plan = _precompute_plan(member.unit.pins, member.input_samples, times)
        model = _model_key(member.unit)
        fusion = _fusion_key(member)
        key = ("fused",) + fusion if fusion is not None else ("model",) + model
        groups.setdefault(key, {}).setdefault(model, []).append(member)
    for subgroups in groups.values():
        _assemble_fused_precompute(list(subgroups.values()))


#: Row budget for one concatenated-group lookup call.  ``contract_leading``'s
#: first-dimension gather materializes a ``(rows, *table_slice)`` temporary;
#: for a whole level's concatenated cores (hundreds of thousands of rows) that
#: blows past the CPU caches and runs slower than per-unit calls.  Every
#: lookup here is strictly per-row, so evaluating fixed-size row windows and
#: concatenating is bitwise identical to one whole-array call.  512 rows keeps
#: every gather a few MB at most — measured fastest on the w256 DAG workloads
#: among 128..8192.
_LOOKUP_CHUNK = 512


def _chunked_rows(lookup, coords: np.ndarray) -> np.ndarray:
    """Apply a per-row ``lookup`` over ``coords`` in `_LOOKUP_CHUNK` windows.

    Chunk results are written straight into one preallocated output (no
    gather-then-concatenate second copy of the whole-level array)."""
    total = coords.shape[0]
    if total <= _LOOKUP_CHUNK:
        return lookup(coords)
    first = lookup(coords[:_LOOKUP_CHUNK])
    out = np.empty((total,) + first.shape[1:], dtype=first.dtype)
    out[:_LOOKUP_CHUNK] = first
    for s in range(_LOOKUP_CHUNK, total, _LOOKUP_CHUNK):
        out[s : s + _LOOKUP_CHUNK] = lookup(coords[s : s + _LOOKUP_CHUNK])
    return out


def _assemble_fused_precompute(model_groups: Sequence[Sequence[_Member]]) -> None:
    """One lookup pass across one or more same-grid model groups.

    Each model group keeps its own capacitance and current-value grids — those
    are evaluated over that group's span of the concatenated cores — while
    the contraction of output-only models computes its bracket weights once
    per row chunk for the whole pass
    (:func:`~repro.lut.table.contract_leading_spans`; a single model group is
    the case with one span).
    """
    rep0 = model_groups[0][0]
    num_pins = len(rep0.unit.pins)
    has_internal = rep0.has_internal
    flat_members: List[_Member] = []
    cores: List[np.ndarray] = []
    spans: List[Tuple[int, int]] = []
    offset = 0
    for members in model_groups:
        length = 0
        for member in members:
            cores.append(member.plan.pin_core)
            length += member.plan.pin_core.shape[0]
        flat_members.extend(members)
        spans.append((offset, offset + length))
        offset += length
    coords = cores[0] if len(cores) == 1 else np.concatenate(cores, axis=0)
    total = coords.shape[0]
    bounds = np.cumsum([0] + [member.plan.pin_core.shape[0] for member in flat_members])

    miller_cols = [np.empty(total) for _ in range(num_pins)]
    co_all = np.empty(total)
    cn_all: Optional[np.ndarray] = np.empty(total) if has_internal else None
    for members, (start, stop) in zip(model_groups, spans):
        rep = members[0]
        block = coords[start:stop]
        for column, pin in enumerate(rep.unit.pins):
            miller_cols[column][start:stop] = _chunked_rows(
                lambda rows, cap=rep.unit.miller_caps[pin], c=column: cap_value_batch(
                    cap, rows[:, c : c + 1]
                ),
                block,
            )
        co_all[start:stop] = _chunked_rows(
            lambda rows, cap=rep.unit.output_cap: cap_value_batch(cap, rows), block
        )
        if has_internal:
            assert rep.in_table is not None and rep.unit.internal_cap is not None
            cn_all[start:stop] = _chunked_rows(
                lambda rows, cap=rep.unit.internal_cap: cap_value_batch(cap, rows), block
            )
    io_all: Optional[np.ndarray] = None
    if not has_internal:  # internal-node models contract on demand
        (io_all,) = contract_leading_spans(
            [(members[0].io_table,) for members in model_groups],
            coords,
            spans,
            chunk=_LOOKUP_CHUNK,
        )
    _assemble_members(flat_members, bounds, num_pins, miller_cols, co_all, cn_all, io_all)


def _assemble_members(
    members: Sequence[_Member],
    bounds: np.ndarray,
    num_pins: int,
    miller_cols: Sequence[np.ndarray],
    co_all: np.ndarray,
    cn_all: Optional[np.ndarray],
    io_all: Optional[np.ndarray],
) -> None:
    """Per-unit :class:`_Precomputed` assembly over batched lookup arrays.

    ``io_all`` holds the reduced ``Io`` rows of output-only models; it is
    ``None`` for internal-node models, whose members keep their pin rows and
    tables for on-demand contraction."""
    for member, start, stop in zip(members, bounds[:-1], bounds[1:]):
        plan = member.plan
        steps = plan.steps
        load_cap = member.unit.load.constant_capacitance()
        if plan.constant:
            miller_row = np.array([miller_cols[c][start] for c in range(num_pins)])
            denominator_row = load_cap + co_all[start] + miller_row.sum()
            charge = np.zeros(steps)
            denominator = np.broadcast_to(np.float64(denominator_row), (steps,))
            cn: Optional[np.ndarray] = None
            if member.has_internal:
                cn = np.broadcast_to(np.float64(cn_all[start]), (steps,))
            first_move = 0
        else:
            first_move, core_stop = plan.first_move, plan.core_stop
            core = slice(first_move, core_stop)
            core_len = stop - start
            miller_matrix = np.empty((core_len, num_pins))
            for column in range(num_pins):
                miller_matrix[:, column] = miller_cols[column][start:stop]
            miller_total = miller_matrix.sum(axis=1)
            charge = np.zeros(steps)
            charge[core] = (miller_matrix * plan.deltas_core).sum(axis=1)
            co = co_all[start:stop]
            denominator = _expand_core(
                load_cap + co + miller_total, first_move, core_stop, steps
            )
            cn = None
            if member.has_internal:
                cn = _expand_core(cn_all[start:stop], first_move, core_stop, steps)
        if not (np.isfinite(denominator).all() and (denominator > 0).all()):
            raise ModelError("total output capacitance must be finite and positive")
        if cn is not None and not (np.isfinite(cn).all() and (cn > 0).all()):
            raise ModelError("internal-node capacitance must be finite and positive")
        if not np.isfinite(charge).all():
            raise ModelError("Miller charge must be finite")
        if member.has_internal:
            tables = dict(
                pin_core=plan.pin_core, io_table=member.io_table, in_table=member.in_table
            )
        else:
            tables = dict(io_reduced=io_all[start:stop])
        member.pre = _Precomputed(charge, denominator, cn, first_move, **tables)


def _members(
    units: Sequence[BatchUnit], times: np.ndarray, options: SimulationOptions
) -> Tuple[List[_Member], List[_Member]]:
    """Validate every unit and sample its inputs onto ``times``.

    Returns the fast-path members and the units :func:`_integrate_generic`
    integrates.  Non-finite input samples or initial states are rejected
    here, before any recurrence runs, so no batch size can change how a bad
    row fails."""
    fast: List[_Member] = []
    generic: List[_Member] = []
    for index, unit in enumerate(units):
        rows = unit.input_samples
        source = rows if rows is not None else unit.input_waveforms
        missing = [pin for pin in unit.pins if pin not in source]
        if missing:
            raise ModelError(f"missing input waveforms for pins {missing}")
        has_internal = unit.internal_current is not None
        if has_internal and unit.internal_cap is None:
            raise ModelError("internal_cap is required when internal_current is given")
        if has_internal and unit.initial_internal is None:
            raise ModelError("initial_internal is required when internal_current is given")
        input_samples = {}
        for pin in unit.pins:
            if rows is not None:
                row = np.asarray(rows[pin], dtype=float)
                if row.shape != times.shape:
                    raise ModelError(
                        f"input_samples row for pin {pin!r} has shape {row.shape}, "
                        f"expected {times.shape}"
                    )
            else:
                row = np.asarray(unit.input_waveforms[pin].value_at(times), dtype=float)
            if not np.isfinite(row).all():
                raise ModelError(f"input samples for pin {pin!r} are not finite")
            input_samples[pin] = row
        initial = [float(unit.initial_output)]
        if has_internal:
            initial.append(float(unit.initial_internal))
        if not all(map(math.isfinite, initial)):
            raise ModelError("initial states must be finite")
        v_low = -options.clip_margin
        v_high = unit.vdd + options.clip_margin
        # np.clip's result for finite values, without its per-call overhead.
        initial = [min(max(value, v_low), v_high) for value in initial]
        member = _Member(
            index=index,
            unit=unit,
            input_samples=input_samples,
            io_table=unit.output_current,  # an NDTable when _fast_eligible holds
            in_table=unit.internal_current,
            has_internal=has_internal,
            v_low=v_low,
            v_high=v_high,
            initial_output=initial[0],
            initial_internal=initial[1] if has_internal else None,
        )
        (fast if _fast_eligible(unit) else generic).append(member)
    return fast, generic


def integrate_model_many(
    units: Sequence[BatchUnit],
    options: SimulationOptions,
    t_start: float,
    t_stop: float,
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, Optional[np.ndarray]]]]:
    """Integrate many model evaluations over one time window.

    The one CSM integration path: :func:`integrate_model` is a batch of one.
    All units share the sample grid ``simulation_time_grid(t_start, t_stop)``.
    The table lookups of every unit's precompute are concatenated across
    units of the same model (see :func:`_fill_precompute_shared`); they are
    per-row, so a unit's precomputed arrays do not depend on its batch.
    Fast-path-eligible units are then grouped by the grids of their
    recurrent state axes (``Vo``, and ``VN`` for internal-node models),
    regardless of which cell or model flavour they came from, and each group,
    whatever its size, runs in one call of the compiled step loop
    (:mod:`repro.csm.kernels`; :data:`KERNEL` is ``"c"``).  On a host without
    a C compiler the scalar twins (:func:`_scalar_recurrence_output`,
    :func:`_scalar_recurrence_internal`) integrate each member instead
    (``KERNEL == "python"``).  Units the fast path cannot express (custom
    callables, stateful loads, state-dependent capacitances) integrate
    through the scalar reference loop :func:`_integrate_generic` on the same
    grid.

    A unit's waveforms are a function of that unit alone: the compiled loops
    are bitwise the scalar twins, row by row and step by step, and a row
    never reads another row's state, so which other units share its batch
    (or whether it runs alone, or which kernel ran) never changes a bit of
    its result.  Non-finite input samples, initial states, Miller charge or
    capacitances raise :class:`~repro.exceptions.ModelError` before any
    recurrence runs.

    Returns ``(times, [(v_out, v_int_or_None), ...])`` in unit order.
    """
    times = simulation_time_grid(t_start, t_stop, options)
    members, generic = _members(units, times, options)
    _fill_precompute_shared(members, times)
    results: List[Optional[Tuple[np.ndarray, Optional[np.ndarray]]]] = [None] * len(units)
    for member in generic:
        member.unit.load.reset()
        results[member.index] = _integrate_generic(
            member.unit,
            member.input_samples,
            times,
            member.initial_output,
            member.initial_internal,
            member.v_low,
            member.v_high,
        )

    groups: Dict[Tuple, List[_Member]] = {}
    for member in members:
        axes = member.io_table.axes
        key = (axes[-1].points, axes[-2].points if member.has_internal else None)
        groups.setdefault(key, []).append(member)
    for group in groups.values():
        vo_axis = group[0].io_table.axes[-1]
        if group[0].has_internal:
            outputs = _run_internal(group, times, group[0].io_table.axes[-2], vo_axis)
        else:
            outputs = _run_output(group, times, vo_axis)
        for member, out in zip(group, outputs):
            results[member.index] = out

    assert all(result is not None for result in results)
    return times, results  # type: ignore[return-value]


def _axis_lookup(axis) -> Tuple[np.ndarray, np.ndarray, int, Optional[float]]:
    """Points, spans and (for uniform axes) the inverse spacing."""
    pts = np.ascontiguousarray(axis.as_array(), dtype=np.float64)
    spans = np.diff(pts)
    n = len(pts)
    h = (pts[-1] - pts[0]) / (n - 1)
    uniform = bool(np.all(np.abs(spans - h) <= 1e-9 * abs(h)))
    return pts, spans, n, (1.0 / h if uniform else None)


def _kernel_axis(axis):
    """A state axis as the compiled loops take it."""
    return _KERNELS.axis(*_axis_lookup(axis))


def _core_layout(members: Sequence[_Member], lens: Sequence[int]):
    """Where each member's core rows start in the group's concatenation,
    their counts and each member's ``first_move``."""
    lens = np.array(lens, dtype=np.int64)
    first_move = np.array([m.pre.first_move for m in members], dtype=np.int64)
    return np.cumsum(lens) - lens, lens, first_move


def _clip_rows(members: Sequence[_Member]):
    """Per-row clip bounds (they differ when the corners' VDDs do)."""
    return (
        np.array([m.v_low for m in members]),
        np.array([m.v_high for m in members]),
    )


def _run_output(
    members: Sequence[_Member], times: np.ndarray, vo_axis
) -> List[Tuple[np.ndarray, None]]:
    """One output-only group: the compiled loop, else the scalar twin."""
    if _KERNELS is None:
        return [
            (
                _scalar_recurrence_output(
                    m.pre, times, vo_axis, m.initial_output, m.v_low, m.v_high
                ),
                None,
            )
            for m in members
        ]
    out = _KERNELS.output(
        np.diff(times),
        _kernel_axis(vo_axis),
        np.concatenate([m.pre.io_reduced for m in members]),
        *_core_layout(members, [m.pre.io_reduced.shape[0] for m in members]),
        np.stack([m.pre.charge for m in members]),
        np.stack([m.pre.denom for m in members]),
        np.array([m.initial_output for m in members]),
        *_clip_rows(members),
    )
    return [(row, None) for row in out]


def _run_internal(
    members: Sequence[_Member], times: np.ndarray, vn_axis, vo_axis
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One internal-node group: the compiled loop, else the scalar twin.

    The loop contracts the pin axes on demand from the per-core-row pin
    brackets of :func:`_pin_brackets`; drive and rates are pre-divided here
    with the twin's own elementwise divisions."""
    if _KERNELS is None:
        return [
            _scalar_recurrence_internal(
                m.pre, times, vn_axis, vo_axis,
                m.initial_output, m.initial_internal, m.v_low, m.v_high,
            )
            for m in members
        ]
    dt = np.diff(times)
    denom = np.stack([m.pre.denom for m in members])
    lens = [m.pre.pin_core.shape[0] for m in members]
    core_start, lens, first_move = _core_layout(members, lens)
    brackets = _pin_brackets(members, lens, len(vn_axis.points) * len(vo_axis.points))
    out, out_int = _KERNELS.internal(
        _kernel_axis(vn_axis),
        _kernel_axis(vo_axis),
        brackets.values,
        brackets.starts[0],
        brackets.starts[1],
        brackets.npins,
        brackets.corners[0],
        brackets.corners[1],
        core_start,
        lens,
        first_move,
        brackets.base[0],
        brackets.fracs[0],
        brackets.base[1],
        brackets.fracs[1],
        np.stack([m.pre.charge for m in members]) / denom,
        dt / denom,
        dt / np.stack([m.pre.cn for m in members]),
        np.array([m.initial_output for m in members]),
        np.array([m.initial_internal for m in members]),
        *_clip_rows(members),
    )
    return list(zip(out, out_int))


@dataclass
class _PinBrackets:
    """An internal-node group's tables and pin brackets, as
    ``csm_internal`` reads them; index 0 is ``Io``, 1 is ``I_N``.

    * ``values`` — every distinct table of the group, flattened end to end;
      ``starts[t, b]`` is where member ``b``'s table ``t`` begins.
    * ``base[t][r]`` — for core row ``r`` (members' cores concatenated), the
      offset of the low pin corner's ``(VN, Vo)`` slice within its table;
      ``fracs[t][r, d]`` the weight of pin axis ``d``, both from
      :meth:`NDTable._contract_weights`.  When every member's two tables
      bracket alike, both positions hold the same arrays.
    * ``corners[t, b, c]`` — the offset of pin corner ``c`` (first pin axis
      the most significant bit) from the low one; ``npins[b]`` pin axes.
    """

    values: np.ndarray
    starts: np.ndarray  # (2, B) int64
    npins: np.ndarray  # (B,) int64
    corners: np.ndarray  # (2, B, 8) int64
    base: List[np.ndarray]  # 2 x (rows,) int64
    fracs: List[np.ndarray]  # 2 x (rows, 3)


def _pin_brackets(members: Sequence[_Member], lens: np.ndarray, size: int) -> _PinBrackets:
    """Bracket every core row's pins once per group.

    Tables whose leading axes carry equal points share one
    :meth:`NDTable._contract_weights` call over their readers' concatenated
    cores: the bracket depends on the axis points only, and the call is
    per-row, so each row's weights are bitwise those the twin's own
    contraction computes.  ``lens`` counts each member's core rows and
    ``size`` the values in one ``(VN, Vo)`` slice."""
    batch = len(members)
    owner = np.repeat(np.arange(batch), lens)  # the member of each core row
    starts = np.empty((2, batch), dtype=np.int64)
    npins = np.empty(batch, dtype=np.int64)
    corners = np.zeros((2, batch, 8), dtype=np.int64)
    base: List[Optional[np.ndarray]] = [None, None]
    fracs: List[Optional[np.ndarray]] = [None, None]
    seen: Dict[int, Tuple[int, Tuple]] = {}  # table id -> (start, leading points)
    parts: List[np.ndarray] = []
    flat_size = 0
    classes: Dict[Tuple, Tuple[NDTable, np.ndarray]] = {}
    for b, member in enumerate(members):
        width = npins[b] = member.pre.pin_core.shape[1]
        for position, table in enumerate((member.pre.io_table, member.pre.in_table)):
            if id(table) not in seen:
                key = tuple(axis.points for axis in table.axes[:width])
                seen[id(table)] = (flat_size, key)
                parts.append(table.values.reshape(-1))
                flat_size += table.values.size
                if key not in classes:
                    classes[key] = (table, np.zeros((2, batch), dtype=bool))
            starts[position, b], key = seen[id(table)]
            classes[key][1][position, b] = True
    for key, (table, used) in classes.items():
        width = len(key)
        readers = np.flatnonzero(used.any(axis=0))
        cores = [members[b].pre.pin_core for b in readers]
        lows, weights, _ = table._contract_weights(
            cores[0] if len(cores) == 1 else np.concatenate(cores)
        )
        shape = table.values.shape[:width]
        strides = [1] * width
        for dim in range(width - 2, -1, -1):
            strides[dim] = strides[dim + 1] * shape[dim + 1]
        blocks = lows[:, 0] * (strides[0] * size)
        for dim in range(1, width):
            blocks += lows[:, dim] * (strides[dim] * size)
        padded = np.zeros((len(lows), 3))
        padded[:, :width] = weights
        bits = np.array(list(itertools.product((0, 1), repeat=width)), dtype=np.int64)
        for position in (0, 1):
            corners[position, used[position], : len(bits)] = bits @ (np.array(strides) * size)
            if used[position].all():  # the common case: one class, no scatter
                base[position], fracs[position] = blocks, padded
            elif used[position].any():
                if base[position] is None:
                    base[position] = np.zeros(len(owner), dtype=np.int64)
                    fracs[position] = np.zeros((len(owner), 3))
                rows = np.flatnonzero(np.isin(owner, readers))
                mine = used[position][owner[rows]]
                base[position][rows[mine]] = blocks[mine]
                fracs[position][rows[mine]] = padded[mine]
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return _PinBrackets(
        np.ascontiguousarray(values, dtype=np.float64),
        starts,
        npins,
        corners,
        [np.ascontiguousarray(b, dtype=np.int64) for b in base],
        fracs,
    )


#: The compiled step loops (:func:`repro.csm.kernels.load`, built when this
#: module is first imported), or ``None`` on a host that cannot build them.
_KERNELS = kernels.load()

#: Which step loop integrates fast-path groups: ``"c"`` for the compiled
#: loops, ``"python"`` for the scalar twins.
KERNEL = "c" if _KERNELS is not None else "python"
