"""On-demand pin contraction in the internal-node (MCSM) lockstep kernel.

The lockstep kernel never materializes the per-step reduced ``(VN, Vo)``
slices of the ``Io``/``I_N`` tables: each step gathers the pin corners of
the state corners it reads and contracts them with the reduced tables' own
arithmetic.  These tests pin that contract down:

* corners gathered and contracted on demand equal
  ``NDTable.contract_leading(coords)[row][corners]`` bitwise (1 and 2 pin
  axes, mixed pin counts, uniform and non-uniform axes, coordinates on grid
  points and past the axis ends, several models in one flat table);
* a unit integrated inside a lockstep group (internal-node or output-only)
  equals the same unit integrated alone (a batch of one runs the scalar
  recurrence) bitwise over the whole window, also when every state of the
  group has settled long before the window ends;
* tensor-path CSM runs (resident, streaming and a 2-corner MMMC run) and
  the ``batched=False`` reference path reproduce recorded waveform digests.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csm.base import SimulationOptions
from repro.csm.loads import CapacitiveLoad
from repro.csm.simulate import (
    _MIN_INTERNAL_GROUP,
    _MIN_OUTPUT_GROUP,
    BatchUnit,
    _contract_corners,
    _pin_corners,
    integrate_model_many,
)
from repro.lut.grid import Axis, voltage_axis
from repro.lut.table import NDTable
from repro.runtime.store import PackedStore
from repro.sta import CSMEngine
from repro.sta.generate import default_time_window, generate_netlist, primary_input_waveforms
from repro.sta.mmmc import CornerSet
from repro.sta.models import TimingModelLibrary

VDD = 1.2

FIXTURE = Path(__file__).parent / "fixtures" / "csm_waveform_digests.json"
_RECORDED = json.loads(FIXTURE.read_text())


# ----------------------------------------------------------------------
# On-demand corners versus contract_leading
# ----------------------------------------------------------------------
def _axis(rng: np.random.Generator, name: str, uniform: bool) -> Axis:
    """An axis over ``[-0.1, VDD + 0.1]``, evenly or unevenly spaced."""
    n = int(rng.integers(2, 6))
    if uniform:
        points = np.linspace(-0.1, VDD + 0.1, n)
    else:
        gaps = rng.uniform(0.05, 1.0, n - 1)
        points = -0.1 + np.concatenate([[0.0], np.cumsum(gaps)]) * (VDD + 0.2) / gaps.sum()
    return Axis(name, tuple(float(p) for p in points))


def _coords(rng: np.random.Generator, axis: Axis, rows: int) -> np.ndarray:
    """Query values on grid points, inside the axis and past both ends."""
    points = axis.as_array()
    kind = rng.integers(0, 4, rows)
    return np.where(
        kind == 0,
        rng.choice(points, rows),
        np.where(
            kind == 1,
            rng.uniform(points[0], points[-1], rows),
            np.where(
                kind == 2,
                points[0] - rng.uniform(0.0, 0.5, rows),
                points[-1] + rng.uniform(0.0, 0.5, rows),
            ),
        ),
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_on_demand_corners_equal_contract_leading(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    uniform = data.draw(st.booleans(), label="uniform")
    state_axes = (_axis(rng, "VN", uniform), _axis(rng, "Vo", uniform))
    models = []
    for m in range(data.draw(st.integers(1, 3), label="models")):
        width = data.draw(st.sampled_from([1, 2]), label="pin axes")
        io_pins = tuple(_axis(rng, f"V{d}", uniform) for d in range(width))
        shared = data.draw(st.booleans(), label="I_N shares the Io pin axes")
        in_pins = io_pins if shared else tuple(_axis(rng, f"V{d}", uniform) for d in range(width))
        pair = []
        for pins in (io_pins, in_pins):
            axes = pins + state_axes
            values = rng.normal(size=tuple(len(a) for a in axes))
            pair.append(NDTable(axes, values, name=f"m{m}"))
        models.append(tuple(pair))

    num_members = data.draw(st.integers(1, 5), label="members")
    rows = data.draw(st.integers(1, 6), label="rows")
    owners = rng.integers(0, len(models), num_members)
    widths = [models[o][0].ndim - 2 for o in owners]
    pins = np.zeros((rows, num_members, max(widths)))
    for b, owner in enumerate(owners):
        io_table = models[owner][0]
        for d in range(widths[b]):
            pins[:, b, d] = _coords(rng, io_table.axes[d], rows)

    size = len(state_axes[0]) * len(state_axes[1])
    plan = _pin_corners(pins, [models[o] for o in owners], size, np.arange(size))
    for k in range(rows):
        got = _contract_corners(plan.table, plan.columns[k], plan.weights[k])
        for b, owner in enumerate(owners):
            for position, table in enumerate(models[owner]):
                want = table.contract_leading(pins[:, b, : widths[b]])[k].reshape(-1)
                assert got[:, position, b].tobytes() == want.tobytes(), (k, b, position)


# ----------------------------------------------------------------------
# Lockstep group versus the scalar recurrence
# ----------------------------------------------------------------------
def _ramp(rng: np.random.Generator, times: np.ndarray, latest: float) -> np.ndarray:
    """A saturated ramp between the rails that ends by ``latest`` of the
    window, or (sometimes) a constant level."""
    low, high = (0.0, VDD) if rng.random() < 0.5 else (VDD, 0.0)
    if rng.random() < 0.2:
        return np.full(times.shape, low)
    transition = rng.uniform(0.05, 0.5) * latest * times[-1]
    start = rng.uniform(-0.1, latest) * times[-1] - transition
    return low + (high - low) * np.clip((times - start) / transition, 0.0, 1.0)


def _current_table(rng, axes, restoring_axis, conductance):
    """Random currents, or currents that pull one state toward a pin-set
    level (forward Euler then settles long before the window ends)."""
    shape = tuple(len(a) for a in axes)
    noise = np.tanh(rng.normal(size=shape))
    if restoring_axis is None:
        return NDTable(axes, 1e-4 * noise)
    grids = np.meshgrid(*(a.as_array() for a in axes), indexing="ij")
    level = 0.5 * (grids[0] + grids[1])
    return NDTable(axes, conductance * (grids[restoring_axis] - level) + 1e-5 * noise)


@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 4),
    corners=st.integers(1, 3),
    settling=st.booleans(),
    internal=st.booleans(),
)
def test_lockstep_member_equals_scalar_recurrence(seed, extra, corners, settling, internal):
    rng = np.random.default_rng(seed)
    options = SimulationOptions(time_step=2e-12)
    pin_axes = (voltage_axis("VA", VDD, 5), voltage_axis("VB", VDD, 5))
    vn_axis, vo_axis = voltage_axis("VN", VDD, 5), voltage_axis("Vo", VDD, 5)
    axes = pin_axes + ((vn_axis, vo_axis) if internal else (vo_axis,))
    restoring = len(axes) - 1 if settling else None
    # Same axes, different values: the corners of an MMMC set.
    models = []
    for _ in range(corners):
        model = dict(
            output_current=_current_table(rng, axes, restoring, 5e-4),
            miller_caps={"A": rng.uniform(0.2e-15, 1e-15), "B": rng.uniform(0.2e-15, 1e-15)},
            output_cap=rng.uniform(0.5e-15, 2e-15),
        )
        if internal:
            model.update(
                internal_current=_current_table(
                    rng, axes, 2 if settling else None, 2.5e-4
                ),
                internal_cap=rng.uniform(0.5e-15, 2e-15),
            )
        models.append(model)
    t_stop = 0.8e-9
    latest = 0.4 if settling else 0.9
    times = np.linspace(0.0, t_stop, int(round(t_stop / options.time_step)) + 1)
    group = _MIN_INTERNAL_GROUP if internal else _MIN_OUTPUT_GROUP
    units = []
    for _ in range(group + extra):
        units.append(
            BatchUnit(
                pins=("A", "B"),
                input_waveforms={},
                load=CapacitiveLoad(rng.uniform(1e-15, 5e-15)),
                vdd=VDD,
                initial_output=rng.uniform(0.0, VDD),
                initial_internal=rng.uniform(0.0, VDD) if internal else None,
                input_samples={"A": _ramp(rng, times, latest), "B": _ramp(rng, times, latest)},
                **models[int(rng.integers(corners))],
            )
        )
    grid, outputs = integrate_model_many(units, options, 0.0, t_stop)
    assert np.array_equal(grid, times)

    # Each unit alone: a batch of one runs the scalar recurrence.  The group
    # steps every row to the end of the window, so each member is its scalar
    # twin sample for sample, whatever the other rows do.
    for unit, (v_out, v_int) in zip(units, outputs):
        s_out, s_int = integrate_model_many([unit], options, 0.0, t_stop)[1][0]
        assert v_out.tobytes() == s_out.tobytes()
        if internal:
            assert v_int.tobytes() == s_int.tobytes()
        else:
            assert v_int is None and s_int is None


# ----------------------------------------------------------------------
# Recorded digests of whole tensor-path runs
# ----------------------------------------------------------------------
def _waveform_digest(result) -> str:
    """SHA-256 over every net's samples and the per-instance model choice."""
    digest = hashlib.sha256()
    for net in sorted(result.waveforms):
        waveform = result.waveforms[net]
        digest.update(net.encode())
        digest.update(np.ascontiguousarray(waveform.times).tobytes())
        digest.update(np.ascontiguousarray(waveform.values).tobytes())
    digest.update(json.dumps(result.model_used, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digest_run(library):
    """The recorded design, its stimuli and the engine options."""
    netlist = generate_netlist(library, _RECORDED["spec"])
    t_stop = default_time_window(netlist)
    stimuli = primary_input_waveforms(netlist, t_stop=t_stop, seed=3)
    return netlist, stimuli, t_stop, SimulationOptions(time_step=2e-12)


def test_resident_and_stream_runs_match_recorded_digests(
    digest_run, library, fast_config, tmp_path
):
    netlist, stimuli, t_stop, options = digest_run
    models = TimingModelLibrary(library=library, config=fast_config)
    resident = CSMEngine(netlist, models, options=options, use_cache=False)
    assert _waveform_digest(resident.run(stimuli, t_stop=t_stop)) == _RECORDED["digests"]["resident"]
    oracle = CSMEngine(netlist, models, options=options, batched=False, use_cache=False)
    assert _waveform_digest(oracle.run(stimuli, t_stop=t_stop)) == _RECORDED["digests"]["resident"]
    store = PackedStore(tmp_path / "stream")
    try:
        stream = CSMEngine(
            netlist,
            models,
            options=options,
            cache=store,
            memory_mode="stream",
            memory_budget_bytes=1 << 16,
        )
        result = stream.run(stimuli, t_stop=t_stop)
        assert _waveform_digest(result) == _RECORDED["digests"]["stream"]
    finally:
        store.close()


@pytest.mark.parametrize("cpus", [1, 2])
def test_mmmc_run_matches_recorded_digests(
    digest_run, technology, fast_config, warm_up, cpus, monkeypatch
):
    # The removed fused all-corner pass ran on 1 CPU and gave other FF values
    # than the 2-CPU split; per-corner runs must give the same digests on both.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _, stimuli, t_stop, options = digest_run
    corners = warm_up(
        CornerSet.from_names(["TT", "FF"], technology=technology, config=fast_config)
    )
    netlist = generate_netlist(corners.reference.library, _RECORDED["spec"])
    result = CSMEngine(
        netlist,
        corners.reference.models,
        options=options,
        corners=corners,
        use_cache=False,
    ).run(stimuli, t_stop=t_stop)
    for name in ("TT", "FF"):
        digest = _waveform_digest(result.results[name])
        assert digest == _RECORDED["digests"][f"mmmc_w2_{name}"], name
