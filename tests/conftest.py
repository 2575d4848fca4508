"""Shared fixtures for the test suite.

Characterizing models against the reference simulator is the expensive part
of the library, so characterized models are built once per test session (with
a coarse grid) and shared by every test that needs them.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict

import pytest

from repro.cells import build_inverter, build_nand, build_nor, default_library
from repro.characterization import (
    CharacterizationConfig,
    characterize_baseline_mis,
    characterize_mcsm,
    characterize_sis,
)
from repro.runtime import PackedStore, ProcessExecutor
from repro.sta import TimingModelLibrary
from repro.sta.generate import DEFAULT_DAG_CELLS
from repro.sta.mmmc import CornerSet
from repro.technology import default_technology


@pytest.fixture(scope="session")
def technology():
    """The generic 130 nm / 1.2 V technology used throughout the tests."""
    return default_technology()


@pytest.fixture(scope="session")
def library(technology):
    """The default standard-cell library."""
    return default_library(technology)


@pytest.fixture(scope="session")
def nor2(library):
    return library["NOR2_X1"]


@pytest.fixture(scope="session")
def nand2(library):
    return library["NAND2_X1"]


@pytest.fixture(scope="session")
def inverter(library):
    return library["INV_X1"]


@pytest.fixture(scope="session")
def fast_config():
    """Coarse characterization settings to keep the test suite quick."""
    return CharacterizationConfig(io_grid_points=5)


@pytest.fixture(scope="session")
def nor2_mcsm(nor2, fast_config):
    """Session-wide complete MCSM of the NOR2 cell."""
    return characterize_mcsm(nor2, "A", "B", fast_config)


@pytest.fixture(scope="session")
def nand2_mcsm(nand2, fast_config):
    """Session-wide complete MCSM of the NAND2 cell (NMOS stack node)."""
    return characterize_mcsm(nand2, "A", "B", fast_config)


@pytest.fixture(scope="session")
def nor2_baseline_mis(nor2, fast_config):
    """Session-wide baseline (no internal node) MIS CSM of the NOR2 cell."""
    return characterize_baseline_mis(nor2, "A", "B", fast_config)


@pytest.fixture(scope="session")
def nor2_sis(nor2, fast_config):
    """Session-wide SIS CSM of the NOR2 cell (switching pin A)."""
    return characterize_sis(nor2, "A", fast_config)


@pytest.fixture(scope="session")
def inverter_sis(inverter, fast_config):
    """Session-wide SIS CSM of the unit inverter."""
    return characterize_sis(inverter, "A", fast_config)


@pytest.fixture
def batch_steps(monkeypatch):
    """``(circuit name, runs, integration steps)`` of every ``run_many``
    batch the test integrates."""
    from repro.spice import TransientAnalysis

    batches = []
    run_many = TransientAnalysis.run_many

    def counting_run_many(self, *args, **kwargs):
        results = run_many(self, *args, **kwargs)
        batches.append((self.circuit.name, len(results), len(results[0].times) - 1))
        return results

    monkeypatch.setattr(TransientAnalysis, "run_many", counting_run_many)
    return batches


@pytest.fixture(scope="session")
def model_payload():
    """``model_payload(model)``: a characterized model's store encoding
    (manifest and array bytes), for byte-for-byte comparisons."""
    from repro.runtime.cache import encode_payload

    def payload(model):
        manifest, arrays = encode_payload(model)
        return json.dumps(manifest, sort_keys=True), {
            name: (array.dtype.str, array.shape, array.tobytes())
            for name, array in arrays.items()
        }

    return payload


@pytest.fixture(scope="session")
def experiment_context(fast_config):
    """A shared, fast experiment context for the experiment-level tests."""
    from repro.experiments import ExperimentContext

    return ExperimentContext(
        characterization=fast_config,
        reference_time_step=4e-12,
        model_time_step=2e-12,
    )


@pytest.fixture(scope="session")
def warm_characterization(tmp_path_factory, technology, fast_config):
    """``warm_characterization(corner)``: a store directory holding the SIS,
    MIS and NLDM characterizations of the cells generated DAGs are made of,
    for one standard corner at ``fast_config`` (``"TT"`` characterizes as the
    default technology).

    Each corner is built on its first request, once per session (6 jobs on
    two worker processes: one bundle of SIS and MIS models and one NLDM job
    per cell, 10 models in all), instead of in every module or test that
    times a design at that corner; its store is never written again.
    """
    directories: Dict[str, Path] = {}

    def build(corner: str) -> Path:
        if corner not in directories:
            directory = tmp_path_factory.mktemp(f"warm-characterization-{corner}")
            executor = ProcessExecutor(max_workers=2)
            models = CornerSet.from_names(
                [corner], technology=technology, config=fast_config, executor=executor
            ).reference.models
            models.cache = PackedStore(directory)
            try:
                models.prewarm(
                    cells=[models.library[name] for name in DEFAULT_DAG_CELLS],
                    include_nldm=True,
                )
            finally:
                executor.shutdown()
            models.cache.close()
            directories[corner] = directory
        return directories[corner]

    return build


@pytest.fixture(scope="session")
def warm_store(tmp_path_factory, warm_characterization):
    """``warm_store(name, *corners)``: a new store that starts with the warm
    characterizations of ``corners`` (default ``"TT"``).  Corners key their
    characterizations apart, so one store holds several.  What a module
    writes stays in its own copy."""

    def copy(name: str, *corners: str) -> PackedStore:
        first, *others = corners or ("TT",)
        directory = tmp_path_factory.mktemp(name)
        shutil.copytree(warm_characterization(first), directory, dirs_exist_ok=True)
        store = PackedStore(directory)
        for corner in others:
            source = PackedStore(warm_characterization(corner))
            keys = source.keys()
            store.store_many(zip(keys, (value for _, value in source.lookup_many(keys))))
            source.close()
        return store

    return copy


@pytest.fixture(scope="session")
def warm_up(warm_store):
    """``warm_up(models)``: load the DAG cells' characterizations into a
    store-less model library through a copy of the warm store, then drop the
    store again, so its engines still keep propagation results in memory
    only.  Returns ``models``.

    A :class:`CornerSet` warms every corner's model library from that
    corner's warm store; a plain model library is the default technology's,
    i.e. ``"TT"``.
    """

    def load_corner(models: TimingModelLibrary, corner: str) -> None:
        assert models.cache is None
        models.cache = warm_store("models", corner)
        executed = models.prewarm(
            cells=[models.library[name] for name in DEFAULT_DAG_CELLS], include_nldm=True
        )
        assert executed == 0, f"these models are not the {corner} warm store's"
        models.cache = None

    def load(target):
        if isinstance(target, CornerSet):
            for context in target.contexts:
                load_corner(context.models, context.name)
        else:
            load_corner(target, "TT")
        return target

    return load
