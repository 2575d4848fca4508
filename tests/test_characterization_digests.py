"""Characterized values of the DAG cells and reference-simulator runs, pinned bitwise.

``tests/fixtures/characterization_digests.json`` holds one SHA-256 per model:
each DAG cell's NLDM tables (the model library's default slews and loads) and
its SIS and MCSM models at ``io_grid_points=5`` (tables and capacitances).
``tests/fixtures/reference_digests.json`` holds one SHA-256 per reference run
that the figures, the crosstalk experiment and the DC helpers make one circuit
at a time: fig10's glitch transient, a fig11 reference history, a crosstalk
simulation, a linear RC transient, a DC sweep and DC operating points (one of
them gmin-stepped), and a DC grid whose failed points fall back to gmin
stepping.  A digest sees any change to any value, down to the last bit, where
the figure goldens compare at a relative tolerance.

Regenerate both fixtures (only for a change that is meant to move values,
which also bumps ``CODE_VERSION``) with::

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
REFERENCE_FIXTURE = Path(__file__).parent / "fixtures" / "reference_digests.json"


def _feed(digest, value) -> None:
    """Hash ``value``'s numbers, names and structure in a fixed order."""
    if isinstance(value, np.ndarray):
        digest.update(np.asarray(value, dtype=np.float64).tobytes())
    elif isinstance(value, NDTable):
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


def reference_digests() -> Dict[str, str]:
    """The digest of every single-circuit reference run listed above."""
    from repro.cells.testbench import build_testbench
    from repro.experiments import ExperimentContext
    from repro.interconnect import CrosstalkBench, CrosstalkConfig
    from repro.spice import Circuit, DCAnalysis, NewtonOptions, SaturatedRamp
    from repro.spice import dc_operating_point, dc_sweep, transient_analysis
    from repro.spice.sources import Pulse
    from repro.waveform.builders import InputPattern

    context = ExperimentContext()
    nor2 = context.nor2
    vdd = context.vdd
    digests: Dict[str, str] = {}

    # Fig. 10: a low-going pulse on the controlling input B of an FO2 NOR2.
    pulse = Pulse(
        low=vdd, high=0.0, start_time=1.0e-9, rise_time=50e-12, width=60e-12, fall_time=50e-12
    )
    bench = build_testbench(nor2, {"A": 0.0, "B": pulse}, fanout=2)
    digests["fig10_glitch_reference"] = _sha256(
        transient_analysis(bench.circuit, t_stop=3.0e-9, options=context.reference_options())
    )

    # Fig. 11: both inputs fall 20 ps apart.
    patterns = {
        pin: InputPattern(levels=(1, 0), switch_times=(switch,), transition_time=60e-12)
        for pin, switch in (("A", 2.0e-9), ("B", 2.02e-9))
    }
    _, history = context.reference_history_run(patterns, fanout=2, t_stop=3.0e-9)
    digests["fig11_reference_history_run"] = _sha256(history)

    crosstalk = CrosstalkBench(context.technology, CrosstalkConfig())
    digests["crosstalk_simulate"] = _sha256(crosstalk.simulate(2.25e-9))

    rc = Circuit("rc")
    rc.add_voltage_source("in", "0", SaturatedRamp(0.0, 1.0, 10e-12, 1e-12), name="VIN")
    rc.add_resistor("in", "out", 1e3)
    rc.add_capacitor("out", "0", 1e-12)
    digests["linear_rc_transient"] = _sha256(transient_analysis(rc, t_stop=5e-9, time_step=10e-12))

    bench = build_testbench(nor2, {"A": 0.0, "B": 0.0}, fanout=2)
    sweep = dc_sweep(bench.circuit, "VA", np.linspace(0.0, vdd, 7))
    digests["dc_sweep"] = _sha256({str(k): op for k, op in enumerate(sweep)})
    digests["dc_operating_point"] = _sha256(dc_operating_point(bench.circuit))

    # Six Newton iterations are too few from a cold start at mid-rail
    # inputs: the plain solve fails and gmin stepping finds the point.
    stepped = NewtonOptions(max_iterations=6)
    bench = build_testbench(nor2, {"A": vdd / 2, "B": vdd / 2}, fanout=2)
    digests["dc_operating_point_gmin_stepped"] = _sha256(
        dc_operating_point(bench.circuit, options=stepped)
    )
    # At nine iterations five of the grid's nine points fail in the batch
    # and are re-solved from where the batch left them.
    grid = DCAnalysis(bench.circuit, options=NewtonOptions(max_iterations=9)).solve_grid(
        [{"VA": va, "VB": vb} for va in (0.0, vdd / 2, vdd) for vb in (0.0, vdd / 2, vdd)]
    )
    digests["dc_grid_gmin_fallback"] = _sha256({str(k): op for k, op in enumerate(grid)})
    return digests


def test_reference_runs_match_the_recorded_digests():
    assert reference_digests() == json.loads(REFERENCE_FIXTURE.read_text())


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
    REFERENCE_FIXTURE.write_text(json.dumps(reference_digests(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    _write_fixture()
