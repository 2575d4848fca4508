"""Shared fixtures for the test suite.

Characterizing models against the reference simulator is the expensive part
of the library, so characterized models are built once per test session (with
a coarse grid) and shared by every test that needs them.
"""

from __future__ import annotations

import shutil

import pytest

from repro.cells import build_inverter, build_nand, build_nor, default_library
from repro.characterization import (
    CharacterizationConfig,
    characterize_baseline_mis,
    characterize_mcsm,
    characterize_sis,
)
from repro.runtime import PackedStore
from repro.sta import TimingModelLibrary
from repro.sta.generate import DEFAULT_DAG_CELLS
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
def warm_characterization(tmp_path_factory, library, fast_config):
    """A store directory holding the SIS, MIS and NLDM characterizations of
    the cells generated DAGs are made of, at ``fast_config``.

    Built once per session (17 jobs, ~10-14 s on a 2-vCPU host) instead of
    once in every module that times such a design; the store is never
    written again after this fixture returns.
    """
    directory = tmp_path_factory.mktemp("warm-characterization")
    store = PackedStore(directory)
    models = TimingModelLibrary(library=library, config=fast_config, cache=store)
    models.prewarm(cells=[library[name] for name in DEFAULT_DAG_CELLS], include_nldm=True)
    store.close()
    return directory


@pytest.fixture(scope="session")
def warm_store(tmp_path_factory, warm_characterization):
    """``warm_store(name)``: a new store that starts as a copy of the warm
    characterization store.  What a module writes stays in its own copy."""

    def copy(name: str) -> PackedStore:
        directory = tmp_path_factory.mktemp(name)
        shutil.copytree(warm_characterization, directory, dirs_exist_ok=True)
        return PackedStore(directory)

    return copy


@pytest.fixture(scope="session")
def warm_up(warm_store):
    """``warm_up(models)``: load the DAG cells' characterizations into a
    store-less model library through a copy of the warm store, then drop the
    store again, so its engines still keep propagation results in memory
    only.  Returns ``models``."""

    def load(models: TimingModelLibrary) -> TimingModelLibrary:
        assert models.cache is None
        models.cache = warm_store("models")
        executed = models.prewarm(
            cells=[models.library[name] for name in DEFAULT_DAG_CELLS], include_nldm=True
        )
        assert executed == 0, "these models are not the warm store's"
        models.cache = None
        return models

    return load
