"""Characterized values of the DAG cells, pinned bitwise.

``tests/fixtures/characterization_digests.json`` holds one SHA-256 per model:
each DAG cell's NLDM tables (the model library's default slews and loads) and
its SIS and MCSM models at ``io_grid_points=5`` (tables and capacitances).  A
digest sees any change to any value, down to the last bit, where the figure
goldens compare at a relative tolerance.

Regenerate the fixture (only for a change that is meant to move values, which
also bumps ``CODE_VERSION``) with::

    PYTHONPATH=src python tests/test_characterization_digests.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path
from typing import Dict

import numpy as np

from repro.characterization import CharacterizationConfig
from repro.lut.table import NDTable
from repro.sta import TimingModelLibrary
from repro.sta.generate import DEFAULT_DAG_CELLS

FIXTURE = Path(__file__).parent / "fixtures" / "characterization_digests.json"


def _feed(digest, value) -> None:
    """Hash ``value``'s numbers, names and structure in a fixed order."""
    if isinstance(value, NDTable):
        digest.update(value.name.encode())
        for axis in value.axes:
            digest.update(axis.name.encode())
            digest.update(np.asarray(axis.points, dtype=np.float64).tobytes())
        digest.update(np.asarray(value.values, dtype=np.float64).tobytes())
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            digest.update(field.name.encode())
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            digest.update(str(key).encode())
            _feed(digest, value[key])
    elif isinstance(value, (bool, str)):
        digest.update(repr(value).encode())
    elif isinstance(value, (int, float)):
        digest.update(np.float64(value).tobytes())
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def _sha256(*values) -> str:
    digest = hashlib.sha256()
    for value in values:
        _feed(digest, value)
    return digest.hexdigest()


def characterization_digests(models: TimingModelLibrary) -> Dict[str, Dict[str, str]]:
    """Per DAG cell: the digest of its NLDM tables (every arc, in pin and
    edge order) and of each of its SIS and two-input models."""
    digests: Dict[str, Dict[str, str]] = {}
    for name in DEFAULT_DAG_CELLS:
        cell = models.library[name]
        arcs = [(pin, rise) for pin in cell.inputs for rise in (True, False)]
        entry = {"nldm": _sha256(*(models.nldm_table(name, *arc) for arc in arcs))}
        for pin in cell.inputs:
            entry[f"sis:{pin}"] = _sha256(models.sis_model(name, pin))
        for pin_a, pin_b in combinations(cell.inputs, 2):
            model = models.mis_model(name, pin_a, pin_b)
            entry[f"{type(model).__name__.lower()}:{pin_a},{pin_b}"] = _sha256(model)
        digests[name] = entry
    return digests


def test_dag_cell_characterizations_match_the_recorded_digests(library, fast_config, warm_up):
    models = warm_up(TimingModelLibrary(library=library, config=fast_config))
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["io_grid_points"] == fast_config.io_grid_points
    assert recorded["nldm_input_slews"] == list(models.nldm_input_slews)
    assert recorded["nldm_loads"] == list(models.nldm_loads)
    assert characterization_digests(models) == recorded["digests"]


def _write_fixture() -> None:
    from repro.cells import default_library

    library = default_library()
    models = TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
    models.prewarm(cells=[library[name] for name in DEFAULT_DAG_CELLS], include_nldm=True)
    FIXTURE.write_text(
        json.dumps(
            {
                "io_grid_points": models.config.io_grid_points,
                "nldm_input_slews": list(models.nldm_input_slews),
                "nldm_loads": list(models.nldm_loads),
                "digests": characterization_digests(models),
            },
            indent=2,
        )
        + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    _write_fixture()
