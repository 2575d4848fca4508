"""DC operating-point settle for the characterized current-source models.

The model integrators need an initial output (and, for MCSM, internal-node)
voltage consistent with the inputs having been stable "forever".  The legacy
approach integrates a constant-input pre-roll over ``settle_time`` — which is
both the dominant cost of short simulations and *wrong* for the slow
stack-leakage modes whose internal node drifts for tens of nanoseconds (the
NOR2 '11' state moves another ~0.3 V after the 2 ns window).

This module instead solves the model's DC operating point directly on the
characterized tables: with constant inputs the Forward-Euler recurrence of
Eqs. (4)/(5) is an autonomous flow whose asymptote satisfies ``Io = 0`` (and
``I_N = 0``) on the *interpolated* tables, or sits at a clip bound when the
tables push outward everywhere.  A short pre-roll (``_PREROLL_STEPS`` steps,
enough to cross the fast output transient and select the attraction basin) is
followed by

* a closed-form first-crossing scan along the flow direction for models
  without an internal node (piecewise-linear ``Io(Vo)`` — the scan returns
  the exact asymptote of the recurrence), and
* a damped Newton solve on the bilinear ``(Io, I_N)(V_N, Vo)`` pair for
  internal-node models, reusing the batched MNA Newton engine through
  :func:`repro.spice.dc.newton_fixed_point_many`.

Models the fast integration path cannot express (callable current sources,
stateful loads, state-dependent capacitances) and the rare Newton failures
fall back to the legacy integration pre-roll, so ``settle_mode="dc"`` is
always safe to enable.

:func:`settle_units` is the one settle path: the models' own settles
(``SISCSM._settle_output``, ``MCSM.settle_state``, ...) are a batch of one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConvergenceError
from ..spice.dc import newton_fixed_point_many
from ..spice.mna import NewtonOptions
from .base import SimulationOptions, cap_value_batch
from .simulate import (
    BatchUnit,
    _contract_current_tables,
    _fast_eligible,
    _model_key,
    integrate_model_many,
    simulation_time_grid,
)

__all__ = ["settle_key", "settle_units"]

#: Length (in integration steps) of the basin-selection pre-roll: long enough
#: to cross the fast output transient of a gate (~100 ps at 1-2 ps steps),
#: far shorter than the legacy full ``settle_time`` window.
_PREROLL_STEPS = 256

#: Newton settings of the internal-node polish: every unknown is a node
#: voltage, converged when the update drops below 1e-13 V (the bilinear pieces
#: then pin the residual to ~machine epsilon of the table currents).
_POLISH_OPTIONS = NewtonOptions(
    max_iterations=80, voltage_tolerance=1e-13, damping_limit=0.2
)


def _flow_root_1d(
    pts: np.ndarray, vals: np.ndarray, start: float, v_low: float, v_high: float
) -> float:
    """Asymptote of ``dVo/dt = -f(Vo)`` from ``start``, ``f`` piecewise linear.

    ``f`` is interpolated on ``(pts, vals)`` and held constant outside the
    axis (matching the recurrence's clamped table lookups).  The state moves
    against the sign of ``f`` until the first zero crossing; if none exists in
    the travel direction it runs into the integration clip bound.
    """
    f0 = float(np.interp(start, pts, vals))
    if f0 == 0.0:
        return min(max(start, v_low), v_high)
    if f0 > 0.0:
        below = np.nonzero(pts < start)[0]
        for i in below[::-1]:
            if vals[i] <= 0.0:
                span = vals[i + 1] - vals[i] if i + 1 < len(vals) else 0.0
                if vals[i] == 0.0 or span == 0.0:
                    return float(pts[i])
                return float(pts[i] + (0.0 - vals[i]) * (pts[i + 1] - pts[i]) / span)
        return v_low
    above = np.nonzero(pts > start)[0]
    for i in above:
        if vals[i] >= 0.0:
            span = vals[i] - vals[i - 1] if i >= 1 else 0.0
            if vals[i] == 0.0 or span == 0.0:
                return float(pts[i])
            return float(pts[i - 1] + (0.0 - vals[i - 1]) * (pts[i] - pts[i - 1]) / span)
    return v_high


def _bilinear_fn_many(
    io_stack: np.ndarray, in_stack: np.ndarray, vn_pts: np.ndarray, vo_pts: np.ndarray
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Residual/Jacobian of a stack of ``(Io, I_N) = 0`` systems.

    The state vector is ``x = (Vo, V_N)``.  Inside the grid the residual is
    the exact bilinear interpolant the settle recurrence uses; outside it the
    edge cell is extrapolated so the Jacobian never goes singular — callers
    must verify the converged root lies inside the axis domain (where the
    extrapolation and the clamped interpolant coincide).

    ``io_stack``/``in_stack`` are ``(B, nN, nO)`` stacks, one reduced table
    pair per run; the run's position in the stack rides in as its parameter
    row (the Newton engine's active-subset iteration hands back arbitrary
    sub-batches, so the tables must be selected through ``params``, never by
    full-batch position).  The arithmetic is per row, so each system's
    Newton trajectory does not depend on its stack neighbours.
    """

    def locate(pts: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = np.clip(np.searchsorted(pts, v, side="right") - 1, 0, len(pts) - 2)
        span = pts[idx + 1] - pts[idx]
        frac = (v - pts[idx]) / span
        return idx, frac, span

    def fn(x: np.ndarray, params: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        runs = params[:, 0].astype(np.intp)
        vo, vn = x[:, 0], x[:, 1]
        i, fo, o_span = locate(vo_pts, vo)
        j, fn_, n_span = locate(vn_pts, vn)
        batch = x.shape[0]
        residual = np.empty((batch, 2))
        jacobian = np.empty((batch, 2, 2))
        for stack, row in ((io_stack, 0), (in_stack, 1)):
            c00 = stack[runs, j, i]
            c01 = stack[runs, j, i + 1]
            c10 = stack[runs, j + 1, i]
            c11 = stack[runs, j + 1, i + 1]
            lower = c00 + fo * (c01 - c00)
            upper = c10 + fo * (c11 - c10)
            residual[:, row] = lower + fn_ * (upper - lower)
            jacobian[:, row, 0] = ((1.0 - fn_) * (c01 - c00) + fn_ * (c11 - c10)) / o_span
            jacobian[:, row, 1] = (upper - lower) / n_span
        return residual, jacobian

    return fn


#: Forward-Euler stability slack: the update map's spectral radius at the
#: fixed point may exceed 1 by this much before the point is rejected.
_STABILITY_SLACK = 1e-9


def _preroll_window(options: SimulationOptions) -> float:
    return min(options.settle_time, _PREROLL_STEPS * options.time_step)


def _newton_runs(fn, starts: np.ndarray, params: np.ndarray) -> Tuple[np.ndarray, set]:
    """Solve a stack of polish systems: ``(solutions, positions that failed)``.

    A batch solve that dies without per-run attribution (a singular
    factorization aborts every run at once) is re-solved one run per stack;
    the Newton engine iterates each run independently of its neighbours, so
    a run's one-run solve is the trajectory it had in the batch.
    """
    try:
        solution = newton_fixed_point_many(
            fn, starts, params=params, options=_POLISH_OPTIONS, name="csm-dc-settle"
        )
        return solution, set()
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        meta = getattr(exc, "metadata", None) or {}
        if "failed_runs" in meta:
            return meta["solutions"], set(meta["failed_runs"])
        if len(starts) == 1:
            return starts, {0}
    solution = np.empty_like(starts)
    failed = set()
    for run in range(len(starts)):
        one, one_failed = _newton_runs(fn, starts[run : run + 1], params[run : run + 1])
        solution[run] = one[0]
        if one_failed:
            failed.add(run)
    return solution, failed


def _polish_many(
    units: Sequence[BatchUnit],
    eligible: Sequence[int],
    pre_states: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    options: SimulationOptions,
) -> List[Optional[Tuple[float, Optional[float]]]]:
    """Refine pre-rolled states to their exact table fixed points.

    Groups the eligible units by :func:`~repro.csm.simulate._model_key` (the
    identity of every table and capacitance they read), batches each
    group's constant-bias reductions and cap lookups into single table
    calls, and solves the internal-node fixed points as ONE
    :func:`newton_fixed_point_many` batch per state grid — model groups whose
    ``(VN, VO)`` grids are value-equal (the corners of an MMMC set, whose
    characterizations share one voltage grid) stack into a single Newton
    solve.  The Newton engine's active-subset iteration assembles and updates
    every system independently of its batch neighbours, and
    :func:`_bilinear_fn_many` selects each run's own reduced tables through
    ``params``, so a unit's result does not depend on its batch
    (:func:`_newton_runs` re-solves a batch that fails as a whole).

    Returns polish results aligned with ``eligible``.  ``None`` — the caller
    falls back to the integration settle — marks a run whose Newton polish
    failed, landed outside the table domain, or whose fixed point is
    *unstable* for the Forward-Euler map at the caller's step size.  The
    last check matters for equivalence, not accuracy: at a coarse ``dt`` the
    integrator cannot hold an unstable operating point (it escapes onto a
    phase-locked oscillation, amplifying float-noise differences between
    batchings on the way), so the honest initial state there is the legacy
    settle endpoint on the integrator's own attractor.
    """
    results: List[Optional[Tuple[float, Optional[float]]]] = [None] * len(eligible)
    groups: Dict[Tuple, List[int]] = {}
    for pos, index in enumerate(eligible):
        groups.setdefault(_model_key(units[index]), []).append(pos)
    dt = options.time_step
    eps = 1e-9
    # Internal-node systems accumulate here, bucketed by state-grid values,
    # and solve after the per-model reduction loop.  Each run entry carries
    # everything its post-solve stability checks need:
    # (pos, denominator, Cn, start_out, start_int).
    stacks: dict = {}
    for positions in groups.values():
        rep = units[eligible[positions[0]]]
        pins = rep.pins
        has_internal = rep.internal_current is not None
        io_table = rep.output_current
        in_table = rep.internal_current
        rows = np.array(
            [
                [
                    float(units[eligible[pos]].input_waveforms[pin].initial_value())
                    for pin in pins
                ]
                for pos in positions
            ]
        )
        miller_cols = [
            cap_value_batch(rep.miller_caps[pin], rows[:, col : col + 1])
            for col, pin in enumerate(pins)
        ]
        co_col = cap_value_batch(rep.output_cap, rows)
        if has_internal:
            cn_col = cap_value_batch(rep.internal_cap, rows)
            io_red_all, in_red_all = _contract_current_tables(
                io_table, in_table, rows, len(pins)
            )
        else:
            cn_col = None
            io_red_all = io_table.contract_leading(rows)
            in_red_all = None
        # The recurrence's denominator at the bias: (load + Co) + sum(CM).
        denoms = [
            units[eligible[pos]].load.constant_capacitance()
            + float(co_col[g])
            + sum(float(col[g]) for col in miller_cols)
            for g, pos in enumerate(positions)
        ]
        start_out = [float(pre_states[pos][0][-1]) for pos in positions]
        vo_pts = io_table.axes[-1].as_array()

        if not has_internal:
            for g, pos in enumerate(positions):
                unit = units[eligible[pos]]
                v_low = -options.clip_margin
                v_high = unit.vdd + options.clip_margin
                io_red = io_red_all[g]
                root = _flow_root_1d(vo_pts, io_red, start_out[g], v_low, v_high)
                if vo_pts[0] <= root <= vo_pts[-1]:
                    # Interior root: reject it if Forward-Euler at dt cannot
                    # hold it (clip-bound roots are pinned by the clamp).
                    span = vo_pts[-1] - vo_pts[0]
                    step = 1e-6 * span
                    low = float(np.clip(root - step, vo_pts[0], vo_pts[-1]))
                    high = float(np.clip(root + step, vo_pts[0], vo_pts[-1]))
                    slope = (
                        np.interp(high, vo_pts, io_red) - np.interp(low, vo_pts, io_red)
                    ) / (high - low)
                    if dt * slope / denoms[g] > 2.0 + _STABILITY_SLACK:
                        continue
                results[pos] = (root, None)
            continue

        vn_pts = io_table.axes[-2].as_array()
        start_int = [float(pre_states[pos][1][-1]) for pos in positions]
        stack = stacks.setdefault(
            (vo_pts.tobytes(), vn_pts.tobytes()),
            {"vo_pts": vo_pts, "vn_pts": vn_pts, "io": [], "in": [], "runs": []},
        )
        stack["io"].append(io_red_all)
        stack["in"].append(in_red_all)
        for g, pos in enumerate(positions):
            stack["runs"].append(
                (pos, denoms[g], float(cn_col[g]), start_out[g], start_int[g])
            )

    for stack in stacks.values():
        vo_pts = stack["vo_pts"]
        vn_pts = stack["vn_pts"]
        runs = stack["runs"]
        io_red_all = stack["io"][0] if len(stack["io"]) == 1 else np.concatenate(stack["io"])
        in_red_all = stack["in"][0] if len(stack["in"]) == 1 else np.concatenate(stack["in"])
        starts = np.column_stack(
            [[run[3] for run in runs], [run[4] for run in runs]]
        )
        fn = _bilinear_fn_many(io_red_all, in_red_all, vn_pts, vo_pts)
        params = np.arange(len(runs), dtype=float)[:, None]
        solution, failed = _newton_runs(fn, starts, params)
        _, jac_all = fn(solution, params)
        for g, (pos, denom, cn_val, _so, _si) in enumerate(runs):
            if g in failed:
                continue
            unit = units[eligible[pos]]
            vo, vn = float(solution[g, 0]), float(solution[g, 1])
            v_low = -options.clip_margin
            v_high = unit.vdd + options.clip_margin
            if not (vo_pts[0] - eps <= vo <= vo_pts[-1] + eps):
                continue
            if not (vn_pts[0] - eps <= vn <= vn_pts[-1] + eps):
                continue
            if not (v_low - eps <= vo <= v_high + eps and v_low - eps <= vn <= v_high + eps):
                continue
            # Forward-Euler stability of the 2-state map x -> x - diag(dt/C) F(x).
            update = np.eye(2) - np.array(
                [[dt / denom], [dt / cn_val]]
            ) * jac_all[g]
            if float(np.abs(np.linalg.eigvals(update)).max()) > 1.0 + _STABILITY_SLACK:
                continue
            results[pos] = (vo, vn)
    return results


def _constant_unit(unit: BatchUnit, grid: np.ndarray) -> BatchUnit:
    """A copy of ``unit`` whose inputs are held at their initial values, as
    ``input_samples`` rows on the integration's sample ``grid``."""
    return BatchUnit(
        pins=unit.pins,
        input_waveforms={},
        input_samples={
            pin: np.full(grid.shape, unit.input_waveforms[pin].initial_value())
            for pin in unit.pins
        },
        output_current=unit.output_current,
        miller_caps=unit.miller_caps,
        output_cap=unit.output_cap,
        load=unit.load,
        vdd=unit.vdd,
        initial_output=unit.initial_output,
        internal_current=unit.internal_current,
        internal_cap=unit.internal_cap,
        initial_internal=unit.initial_internal,
    )


def settle_key(unit: BatchUnit) -> Optional[Tuple]:
    """Content key under which two units' settles are bitwise identical.

    A settle only ever reads a unit's *initial* pin values (every integration
    window holds them constant), its model tables/capacitances, its initial
    states, vdd and — for constant loads — the lumped load capacitance.
    Units agreeing on all of those produce identical results, so one
    representative settle can serve every duplicate.  Non-constant loads
    carry internal state through the integration; those units are never
    deduplicated (``None``).  Under one ``settle_mode="dc"`` options object a
    key therefore names one settled state, in any batch and any run.
    """
    load_cap = unit.load.constant_capacitance()
    if load_cap is None:
        return None
    return _model_key(unit) + (
        tuple(unit.input_waveforms[pin].initial_value() for pin in unit.pins),
        unit.initial_output,
        unit.initial_internal,
        unit.vdd,
        load_cap,
    )


def settle_units(
    units: Sequence[BatchUnit],
    options: SimulationOptions,
) -> List[Tuple[float, Optional[float]]]:
    """Settle a batch of constant-input units: the one CSM settle path.

    Each unit's inputs are held at their initial values; its
    ``initial_output``/``initial_internal`` are the starting state.  In
    ``"integrate"`` mode this is the legacy full-window lockstep
    integration.  In ``"dc"`` mode the DC-eligible units are pre-rolled over
    the short basin-selection window in lockstep and polished to their exact
    table fixed points (:func:`_polish_many`: per-model table lookups and one
    Newton batch per state grid); ineligible units and rejected polishes
    (Newton failure, FE-unstable operating point) fall back to the legacy
    full-window settle, integrated together as one lockstep batch.  A unit's
    result does not depend on its batch, so a model's own settle is a batch
    of one.

    Returns ``(v_out, v_int or None)`` final states in unit order.
    """
    if options.settle_mode != "dc":
        _, settled = integrate_model_many(units, options, 0.0, options.settle_time)
        return [
            (float(v_out[-1]), None if v_int is None else float(v_int[-1]))
            for v_out, v_int in settled
        ]

    # Whole-level settle batches are dominated by duplicates (every instance
    # of a cell parked at the same logic state and lumped load settles to the
    # same point).  Settle one representative per content key and fan the
    # result out.
    if len(units) > 1:
        positions_by_key: Dict[Tuple, List[int]] = {}
        for position, unit in enumerate(units):
            key = settle_key(unit)
            positions_by_key.setdefault(
                key if key is not None else ("unique", position), []
            ).append(position)
        if len(positions_by_key) < len(units):
            groups = list(positions_by_key.values())
            representatives = settle_units(
                [units[positions[0]] for positions in groups], options
            )
            fanned: List[Tuple[float, Optional[float]]] = [None] * len(units)  # type: ignore[list-item]
            for settled_state, positions in zip(representatives, groups):
                for position in positions:
                    fanned[position] = settled_state
            return fanned

    eligible = [index for index, unit in enumerate(units) if _fast_eligible(unit)]
    pre_time = _preroll_window(options)
    if eligible and pre_time > 0.0:
        pre_grid = simulation_time_grid(0.0, pre_time, options)
        pre_units = [_constant_unit(units[index], pre_grid) for index in eligible]
        _, pre_states = integrate_model_many(pre_units, options, 0.0, pre_time)
    else:
        pre_states = [
            (
                np.array([units[index].initial_output]),
                None
                if units[index].internal_current is None
                else np.array([units[index].initial_internal]),
            )
            for index in eligible
        ]

    results: List[Optional[Tuple[float, Optional[float]]]] = [None] * len(units)
    eligible_set = set(eligible)
    fallback = [index for index in range(len(units)) if index not in eligible_set]
    for index, settled in zip(eligible, _polish_many(units, eligible, pre_states, options)):
        if settled is None:
            fallback.append(index)
        else:
            results[index] = settled

    if fallback:
        fallback.sort()
        fallback_grid = simulation_time_grid(0.0, options.settle_time, options)
        fallback_units = [_constant_unit(units[index], fallback_grid) for index in fallback]
        _, states = integrate_model_many(fallback_units, options, 0.0, options.settle_time)
        for index, (out_trace, int_trace) in zip(fallback, states):
            results[index] = (
                float(out_trace[-1]),
                None if int_trace is None else float(int_trace[-1]),
            )

    assert all(state is not None for state in results)
    return results  # type: ignore[return-value]
