"""The compiled CSM step loops (``repro/csm/_kernels.c``).

* Every row the compiled loops integrate is bitwise the scalar twin
  (``_scalar_recurrence_output`` / ``_scalar_recurrence_internal``) called
  directly on the same precompute: uniform and non-uniform ``Vo``/``VN``
  axes (which may differ), states on grid points and past the axis ends,
  1-3 pins mixed in one group, ``I_N`` pin axes that differ from ``Io``'s,
  mixed ``first_move`` and core lengths, per-row clip bounds, settling and
  non-settling tables.
* A host without a compiler runs the twins and gets the same bytes.
* The build cache: a truncated library is rebuilt, never loaded; a changed
  source gives a different path; a directory other users can write is not
  used; a build under a group-writable umask is still loaded.
* Non-finite state is rejected before any loop runs, whatever the batch size.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csm import kernels, simulate
from repro.csm.base import SimulationOptions
from repro.csm.loads import CapacitiveLoad
from repro.csm.simulate import (
    BatchUnit,
    _fill_precompute_shared,
    _members,
    _scalar_recurrence_internal,
    _scalar_recurrence_output,
    integrate_model_many,
)
from repro.exceptions import ModelError
from repro.lut.grid import Axis
from repro.lut.table import NDTable

compiled = pytest.mark.skipif(
    simulate.KERNEL != "c", reason="no C compiler: the scalar twins are the only loops"
)

PINS = ("A", "B", "C")
OPTIONS = SimulationOptions(time_step=2e-12, clip_margin=0.15)


def _axis(rng: np.random.Generator, name: str, uniform: bool, lo: float, hi: float) -> Axis:
    n = int(rng.integers(2, 6))
    if uniform:
        points = np.linspace(lo, hi, n)
    else:
        gaps = rng.uniform(0.05, 1.0, n - 1)
        points = lo + np.concatenate([[0.0], np.cumsum(gaps)]) * (hi - lo) / gaps.sum()
    return Axis(name, tuple(float(p) for p in points))


def _table(rng, axes, scale, restoring):
    """Random currents, or currents pulling the last state axis toward a
    pin-set level (forward Euler then settles well inside the window)."""
    shape = tuple(len(a) for a in axes)
    noise = scale * np.tanh(rng.normal(size=shape))
    if not restoring:
        return NDTable(axes, noise)
    grids = np.meshgrid(*(a.as_array() for a in axes), indexing="ij")
    return NDTable(axes, 5e-4 * (grids[-1] - 0.5 * (grids[0] + 1.2)) + 0.05 * noise)


def _samples(rng, times, points):
    """A pin row: constant, or a ramp between grid points or levels past the
    axis ends, starting and ending anywhere in the window."""
    levels = np.concatenate([points, [points[0] - 0.2, points[-1] + 0.2]])
    low, high = rng.choice(levels, 2)
    kind = rng.integers(0, 4)
    if kind == 0:
        return np.full(times.shape, low)
    start = rng.uniform(-0.2, 0.9) * times[-1]
    width = rng.uniform(0.02, 0.6) * times[-1]
    return low + (high - low) * np.clip((times - start) / width, 0.0, 1.0)


def _batch(data, rng):
    """A batch mixing output-only and internal-node models over one pair of
    state axes, so each kind forms one group."""
    uniform_o = data.draw(st.booleans(), label="uniform Vo")
    uniform_n = data.draw(st.booleans(), label="uniform VN")
    vo_axis = _axis(rng, "Vo", uniform_o, 0.0, 1.2)
    vn_axis = _axis(rng, "VN", uniform_n, 0.0, 1.2) if data.draw(
        st.booleans(), label="VN differs from Vo"
    ) else Axis("VN", vo_axis.points)
    settling = data.draw(st.booleans(), label="settling")
    scale = data.draw(st.sampled_from([1e-5, 1e-4, 1e-3]), label="current scale")
    models = []
    for _ in range(data.draw(st.integers(1, 4), label="models")):
        internal = data.draw(st.booleans(), label="internal")
        width = data.draw(st.integers(1, 3), label="pins")
        pin_axes = tuple(
            _axis(rng, f"V{PINS[d]}", data.draw(st.booleans()), -0.1, 1.3) for d in range(width)
        )
        state = (vn_axis, vo_axis) if internal else (vo_axis,)
        model = dict(
            pins=PINS[:width],
            output_current=_table(rng, pin_axes + state, scale, settling),
            miller_caps={pin: float(rng.uniform(0.1e-15, 1e-15)) for pin in PINS[:width]},
            output_cap=float(rng.uniform(0.5e-15, 2e-15)),
        )
        if internal:
            own = data.draw(st.booleans(), label="I_N pin axes differ")
            in_pins = (
                tuple(_axis(rng, f"V{PINS[d]}", False, -0.2, 1.4) for d in range(width))
                if own
                else pin_axes
            )
            model.update(
                internal_current=_table(rng, in_pins + state, scale, settling),
                internal_cap=float(rng.uniform(0.3e-15, 2e-15)),
            )
        models.append(model)

    t_stop = 0.4e-9
    times = np.linspace(0.0, t_stop, int(round(t_stop / OPTIONS.time_step)) + 1)
    units = []
    for _ in range(data.draw(st.integers(1, 12), label="units")):
        model = models[int(rng.integers(len(models)))]
        pin_points = model["output_current"].axes[0].as_array()
        vo_points = np.array(vo_axis.points)
        units.append(
            BatchUnit(
                input_waveforms={},
                load=CapacitiveLoad(float(rng.uniform(0.5e-15, 5e-15))),
                vdd=float(rng.choice([1.0, 1.2])),
                initial_output=float(
                    rng.choice(vo_points) if rng.random() < 0.5 else rng.uniform(-0.3, 1.5)
                ),
                initial_internal=(
                    float(rng.choice(vo_points)) if "internal_current" in model else None
                ),
                input_samples={
                    pin: _samples(rng, times, pin_points) for pin in model["pins"]
                },
                **model,
            )
        )
    return units, t_stop, times


@compiled
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_rows_equal_scalar_twins(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    units, t_stop, times = _batch(data, rng)
    grid, rows = integrate_model_many(units, OPTIONS, 0.0, t_stop)
    assert np.array_equal(grid, times)

    members, generic = _members(units, times, OPTIONS)
    assert not generic
    _fill_precompute_shared(members, times)
    for member in members:
        vo_axis = member.io_table.axes[-1]
        v_out, v_int = rows[member.index]
        if member.has_internal:
            want_out, want_int = _scalar_recurrence_internal(
                member.pre,
                times,
                member.io_table.axes[-2],
                vo_axis,
                member.initial_output,
                member.initial_internal,
                member.v_low,
                member.v_high,
            )
            assert v_int.tobytes() == want_int.tobytes(), member.index
        else:
            want_out = _scalar_recurrence_output(
                member.pre, times, vo_axis, member.initial_output, member.v_low, member.v_high
            )
            assert v_int is None
        assert v_out.tobytes() == want_out.tobytes(), member.index


def _mixed_units(count: int, seed: int = 5):
    """A fixed batch of output-only and internal-node units."""
    rng = np.random.default_rng(seed)
    axes = tuple(Axis(name, tuple(np.linspace(0.0, 1.2, 5))) for name in ("VA", "VB", "VN", "Vo"))
    io = NDTable(axes, 1e-4 * rng.normal(size=(5,) * 4))
    i_n = NDTable(axes, 1e-4 * rng.normal(size=(5,) * 4))
    io_out = NDTable(axes[:2] + axes[3:], 1e-4 * rng.normal(size=(5,) * 3))
    times = np.linspace(0.0, 0.2e-9, 101)
    units = []
    for b in range(count):
        internal = b % 2 == 0
        units.append(
            BatchUnit(
                pins=("A", "B"),
                input_waveforms={},
                output_current=io if internal else io_out,
                miller_caps={"A": 0.5e-15, "B": 0.4e-15},
                output_cap=1e-15,
                load=CapacitiveLoad(2e-15),
                vdd=1.2,
                initial_output=float(rng.uniform(0.0, 1.2)),
                internal_current=i_n if internal else None,
                internal_cap=1e-15 if internal else None,
                initial_internal=float(rng.uniform(0.0, 1.2)) if internal else None,
                input_samples={
                    "A": np.clip((times - 2e-11 * b) / 5e-11, 0.0, 1.0) * 1.2,
                    "B": np.full(times.shape, 1.2 * (b % 3 == 0)),
                },
            )
        )
    return units


def _twin_rows(units, monkeypatch):
    """The batch's rows with no library loaded: each member's scalar twin."""
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_KERNELS", None)
        return integrate_model_many(units, OPTIONS, 0.0, 0.2e-9)[1]


def _assert_same_rows(rows, want):
    for (v_out, v_int), (w_out, w_int) in zip(rows, want, strict=True):
        assert v_out.tobytes() == w_out.tobytes()
        assert (v_int is None) == (w_int is None)
        if v_int is not None:
            assert v_int.tobytes() == w_int.tobytes()


@compiled
def test_signed_zero_states_follow_the_twins(monkeypatch):
    # Zero currents on constant inputs from -0.0: the twins' ``0.0 - x`` and
    # ``(charge - io * dt) / denom`` turn the state into +0.0 at step 1,
    # where ``-x`` would keep -0.0.  Random draws almost never reach this.
    units = _mixed_units(4)
    for unit in units:
        unit.output_current = NDTable(
            unit.output_current.axes, np.zeros(unit.output_current.values.shape)
        )
        if unit.internal_current is not None:
            unit.internal_current = NDTable(
                unit.internal_current.axes, np.zeros(unit.internal_current.values.shape)
            )
            unit.initial_internal = -0.0
        unit.initial_output = -0.0
        unit.input_samples = {pin: np.zeros(101) for pin in unit.pins}
    _, rows = integrate_model_many(units, OPTIONS, 0.0, 0.2e-9)
    _assert_same_rows(rows, _twin_rows(units, monkeypatch))
    for v_out, v_int in rows:
        for row in (v_out,) if v_int is None else (v_out, v_int):
            assert np.signbit(row[0]) and not np.signbit(row[1:]).any()


@compiled
def test_no_compiler_runs_the_twins_with_the_kernels_bytes(tmp_path, monkeypatch):
    units = _mixed_units(6)
    _, compiled_rows = integrate_model_many(units, OPTIONS, 0.0, 0.2e-9)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "find_compiler", lambda: None)
    fallback = kernels.load()
    assert fallback is None
    monkeypatch.setattr(simulate, "_KERNELS", fallback)
    calls = []
    for name in ("_scalar_recurrence_output", "_scalar_recurrence_internal"):
        twin = getattr(simulate, name)
        monkeypatch.setattr(
            simulate, name, lambda *args, _twin=twin: calls.append(1) or _twin(*args)
        )
    _, twin_rows = integrate_model_many(units, OPTIONS, 0.0, 0.2e-9)
    assert len(calls) == len(units)
    _assert_same_rows(compiled_rows, twin_rows)


@pytest.mark.skipif(kernels.find_compiler() is None, reason="no C compiler")
def test_truncated_library_is_rebuilt_never_loaded(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds, opened = [], []
    build = kernels._compile
    monkeypatch.setattr(
        kernels, "_compile", lambda *args: builds.append(args[-1]) or build(*args)
    )

    def record(path):  # what would be handed to dlopen; nothing is loaded
        opened.append(path.read_bytes())
        return SimpleNamespace(csm_output=SimpleNamespace(), csm_internal=SimpleNamespace())

    monkeypatch.setattr(kernels, "_dlopen", record)
    first = kernels.load()
    assert first is not None and first.path.parent == tmp_path / "repro-csm-kernels"
    assert builds == [first.path]
    intact = first.path.read_bytes()
    assert kernels.load().path == first.path and len(builds) == 1  # a cache hit

    first.path.write_bytes(intact[: len(intact) // 2])
    assert kernels.load().path == first.path
    assert len(builds) == 2
    assert opened == [intact, intact, intact]


@pytest.mark.skipif(
    kernels.find_compiler() is None or not hasattr(os, "getuid"), reason="no C compiler"
)
def test_build_under_a_group_writable_umask_is_loaded(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(
        kernels, "_dlopen", lambda path: SimpleNamespace(
            csm_output=SimpleNamespace(), csm_internal=SimpleNamespace()
        )
    )
    umask = os.umask(0o002)
    try:
        loaded = kernels.load()
    finally:
        os.umask(umask)
    assert loaded is not None
    assert loaded.path.stat().st_mode & 0o022 == 0


def test_changed_source_or_flags_change_the_cache_path(tmp_path):
    source = kernels.SOURCE.read_bytes()
    path = kernels.library_path(tmp_path, source)
    assert kernels.library_path(tmp_path, source) == path
    assert kernels.library_path(tmp_path, source + b"\n") != path
    assert kernels.library_path(tmp_path, source.replace(b"1.0 - high", b"1.0-high")) != path
    assert kernels.library_path(tmp_path, source, kernels.CFLAGS + ("-g",)) != path


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX permissions")
def test_directory_others_can_write_is_not_used(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(kernels.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    shared = tmp_path / "xdg" / "repro-csm-kernels"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    private = kernels.cache_dir()
    assert private == tmp_path / "tmp" / f"repro-csm-kernels-{os.getuid()}"
    assert private.stat().st_mode & 0o777 == 0o700


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize(
    "poison",
    ["input_samples", "initial_output", "initial_internal", "miller_cap", "output_cap",
     "internal_cap"],
)
def test_non_finite_state_is_rejected_at_any_batch_size(batch, poison):
    units = _mixed_units(batch)
    unit = units[-1 if batch == 1 else 4]  # an internal-node unit
    if poison == "input_samples":
        row = unit.input_samples["A"].copy()
        row[40] = np.nan
        unit.input_samples["A"] = row
    elif poison == "miller_cap":
        unit.miller_caps = {"A": np.inf, "B": 0.4e-15}
    else:
        setattr(unit, poison, np.nan)
    with pytest.raises(ModelError), np.errstate(invalid="ignore"):
        integrate_model_many(units, OPTIONS, 0.0, 0.2e-9)
