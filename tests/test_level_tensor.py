"""Tests for the whole-level waveform tensors (PR 6).

Covers the three tentpole layers from the outside in:

* :class:`LevelTensor` itself — construction validation, zero-copy
  ``Waveform`` view adapters, round-trips through ``from_waveforms``
  (including levels whose rows live on different uniform grids),
* the tensor propagation path of the batched engine — equivalence against
  the per-instance sequential reference on chain/tree/DAG workloads,
* the ``leveltensor`` codec tag — a hypothesis round-trip property through
  the packed store (inline and data-file records).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import WaveformError
from repro.runtime import PackedStore
from repro.sta import (
    CSMEngine,
    TimingModelLibrary,
    generate_netlist,
    primary_input_waveforms,
)
from repro.waveform import LevelTensor, Waveform


@pytest.fixture(scope="module")
def models(library, warm_up):
    return warm_up(
        TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


# ----------------------------------------------------------------------
# Container semantics
# ----------------------------------------------------------------------
class TestLevelTensor:
    def test_construction_validates(self):
        values = np.zeros((2, 1, 4))
        with pytest.raises(WaveformError):
            LevelTensor(["a"], values, 0.0, 1e-12)  # name/row mismatch
        with pytest.raises(WaveformError):
            LevelTensor(["a", "a"], values, 0.0, 1e-12)  # duplicate names
        with pytest.raises(WaveformError):
            LevelTensor(["a", "b"], np.zeros((2, 1, 1)), 0.0, 1e-12)  # <2 samples
        with pytest.raises(WaveformError):
            LevelTensor(["a", "b"], values, 0.0, 0.0)  # dt must be positive
        with pytest.raises(WaveformError):
            LevelTensor(["a", "b"], np.zeros((2, 4)).ravel(), 0.0, 1e-12)  # 1-D

    def test_two_dimensional_values_promote_to_one_corner(self):
        tensor = LevelTensor(["a", "b"], np.zeros((2, 4)), 0.0, 1e-12)
        assert tensor.values.shape == (2, 1, 4)
        assert tensor.num_corners == 1

    def test_views_share_storage_with_the_tensor(self):
        tensor = LevelTensor(["a", "b"], np.zeros((2, 1, 4)), 0.0, 1e-12)
        view = tensor.waveform("b")
        tensor.values[1, 0, 2] = 0.7
        assert view.values[2] == 0.7  # the view is the row, not a copy
        assert np.shares_memory(view.values, tensor.values)

    def test_round_trip_through_waveform_views(self):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 1e-9, 17)
        waves = {
            f"n{i}": Waveform(times, rng.normal(size=17), name=f"n{i}")
            for i in range(5)
        }
        tensor = LevelTensor.from_waveforms(waves)
        assert list(tensor) == [f"n{i}" for i in range(5)]
        for name, wave in waves.items():
            view = tensor.waveform(name)
            assert view.name == name
            assert np.array_equal(view.values, wave.values)
            # row grids are reconstructed from t0/dt: linspace agrees to ULPs
            np.testing.assert_allclose(view.times, wave.times, rtol=0, atol=1e-24)
        assert tensor.waveforms().keys() == waves.keys()

    def test_rows_may_carry_different_uniform_grids(self):
        a = Waveform(np.linspace(0.0, 1e-9, 9), np.arange(9.0), name="a")
        b = Waveform(np.linspace(2e-9, 6e-9, 9), np.arange(9.0) * 2, name="b")
        tensor = LevelTensor.from_waveforms({"a": a, "b": b})
        assert tensor.t0[0] != tensor.t0[1]
        assert tensor.dt[0] != tensor.dt[1]
        np.testing.assert_allclose(tensor.waveform("a").times, a.times, atol=1e-24)
        np.testing.assert_allclose(tensor.waveform("b").times, b.times, atol=1e-24)
        assert np.array_equal(tensor.row_values(tensor.row_of("b")), b.values)

    def test_from_waveforms_rejects_nonuniform_or_ragged(self):
        uniform = Waveform(np.linspace(0.0, 1e-9, 8), np.zeros(8), name="u")
        jittered = np.linspace(0.0, 1e-9, 8)
        jittered[3] += 3e-11
        with pytest.raises(WaveformError):
            LevelTensor.from_waveforms(
                {"u": uniform, "j": Waveform(jittered, np.zeros(8), name="j")}
            )
        short = Waveform(np.linspace(0.0, 1e-9, 5), np.zeros(5), name="s")
        with pytest.raises(WaveformError):
            LevelTensor.from_waveforms({"u": uniform, "s": short})
        with pytest.raises(WaveformError):
            LevelTensor.from_waveforms({})

    def test_gather_and_missing_row(self):
        tensor = LevelTensor(["a", "b", "c"], np.zeros((3, 1, 4)), 0.0, 1e-12)
        assert tensor.rows_of(["c", "a"]).tolist() == [2, 0]
        assert "b" in tensor and "z" not in tensor
        with pytest.raises(WaveformError):
            tensor.row_of("z")


# ----------------------------------------------------------------------
# Engine equivalence: tensor vs per-instance reference paths
# ----------------------------------------------------------------------
class TestTensorEngineEquivalence:
    @pytest.mark.parametrize("spec", ["chain:inv:8", "tree:3:2", "dag:w8:d3:s5"])
    def test_tensor_path_matches_reference_paths(self, library, models, options, spec):
        netlist = generate_netlist(library, spec)
        waveforms = primary_input_waveforms(netlist, seed=1)
        sequential = CSMEngine(netlist, models, options=options, batched=False)
        tensor = CSMEngine(netlist, models, options=options, batched=True)

        result_seq = sequential.run(waveforms)
        result_ten = tensor.run(waveforms)

        assert set(result_ten.waveforms) == set(result_seq.waveforms)
        for net, reference in result_seq.waveforms.items():
            wave = result_ten.waveform(net)
            assert wave.times.tobytes() == reference.times.tobytes(), net
            assert wave.values.tobytes() == reference.values.tobytes(), net
        assert result_ten.model_used == result_seq.model_used


# ----------------------------------------------------------------------
# Codec: LevelTensor through the packed store
# ----------------------------------------------------------------------
BACKENDS = {
    "packed": lambda path: PackedStore(path),
    "packed-inline-none": lambda path: PackedStore(path, inline_limit=0),
}


@st.composite
def level_tensors(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    corners = draw(st.integers(min_value=1, max_value=3))
    samples = draw(st.integers(min_value=2, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.normal(size=(rows, corners, samples))
    t0 = rng.uniform(-1e-9, 1e-9, size=rows)
    dt = rng.uniform(1e-13, 1e-11, size=rows)
    names = [f"net{i}" for i in range(rows)]
    return LevelTensor(names, values, t0, dt)


class _Counter:
    def __init__(self):
        self.count = 0

    def next_key(self) -> str:
        self.count += 1
        return f"{self.count:064x}"


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return BACKENDS[request.param](tmp_path / request.param), _Counter()


@given(tensor=level_tensors())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_tensor_codec_roundtrip(backend, tensor):
    store, counter = backend
    key = counter.next_key()
    store.store(key, {"keys": list(tensor.names), "tensor": tensor})
    hit, loaded = store.lookup(key)
    assert hit
    assert loaded["keys"] == list(tensor.names)
    restored = loaded["tensor"]
    assert isinstance(restored, LevelTensor)
    assert restored.values.dtype == tensor.values.dtype
    assert restored.equals(tensor)


def test_tensor_codec_survives_reopen(tmp_path):
    """A packed-store reopen (index reload + memmap view) must hand back the
    level bitwise, and its waveform views must still read correctly."""
    rng = np.random.default_rng(7)
    tensor = LevelTensor(
        ["x", "y"], rng.normal(size=(2, 1, 16)), [0.0, 1e-10], [1e-12, 2e-12]
    )
    store = PackedStore(tmp_path / "spill", inline_limit=0)
    store.store("k" * 64, tensor)
    reopened = PackedStore(tmp_path / "spill", inline_limit=0)
    hit, loaded = reopened.lookup("k" * 64)
    assert hit
    assert loaded.equals(tensor)
    assert np.array_equal(loaded.waveform("y").values, tensor.values[1, 0])
