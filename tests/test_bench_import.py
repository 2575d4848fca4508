"""The ``.bench`` importer on ISCAS-85 c17.

c17 is written out below (5 inputs, 2 outputs, 6 NAND gates), so nothing is
downloaded.  The text importer, the file importer and the ``bench:`` spec
must build the same design, and a CSM run over it must be bitwise the
per-instance ``batched=False`` oracle.
"""

from __future__ import annotations

import pytest

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.sta import (
    CSMEngine,
    TimingModelLibrary,
    generate_netlist,
    netlist_fingerprint,
    primary_input_waveforms,
)
from repro.sta.generate import default_time_window, import_bench, import_bench_text

C17 = """\
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


@pytest.fixture(scope="module")
def c17(library):
    return import_bench_text(library, C17, name="c17")


def test_c17_maps_onto_six_nand2_gates(c17):
    assert c17.name == "c17"
    assert c17.primary_inputs == ["1", "2", "3", "6", "7"]
    assert c17.primary_outputs == ["22", "23"]
    assert len(c17.instances) == 6
    assert {instance.cell_name for instance in c17.instances.values()} == {"NAND2_X1"}
    nand = c17.library["NAND2_X1"]
    gates = {
        instance.connections[nand.output]: sorted(
            instance.connections[pin] for pin in nand.inputs
        )
        for instance in c17.instances.values()
    }
    assert gates == {
        "10": ["1", "3"],
        "11": ["3", "6"],
        "16": ["11", "2"],
        "19": ["11", "7"],
        "22": ["10", "16"],
        "23": ["16", "19"],
    }
    assert [len(level) for level in c17.topological_generations()] == [2, 2, 2]


def test_file_and_spec_import_the_same_design(library, c17, tmp_path):
    path = tmp_path / "c17.bench"
    path.write_text(C17)
    from_file = import_bench(library, path)
    from_spec = generate_netlist(library, f"bench:{path}")
    for netlist in (from_file, from_spec):
        assert netlist.name == "c17"
        assert netlist.primary_inputs == c17.primary_inputs
        assert netlist.primary_outputs == c17.primary_outputs
        assert netlist_fingerprint(netlist) == netlist_fingerprint(c17)


def test_csm_run_is_bitwise_the_oracle(library, c17, warm_up):
    models = warm_up(
        TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
    )
    options = SimulationOptions(time_step=2e-12)
    t_stop = default_time_window(c17)
    waveforms = primary_input_waveforms(c17, t_stop=t_stop, seed=0)
    result = CSMEngine(c17, models, options=options).run(waveforms, t_stop=t_stop)
    oracle = CSMEngine(c17, models, options=options, batched=False, use_cache=False).run(
        waveforms, t_stop=t_stop
    )
    assert result.stats["integrations"] + result.stats["duplicates"] == 6
    assert list(result.model_used.items()) == list(oracle.model_used.items())
    assert list(result.waveforms) == list(oracle.waveforms)
    for net, wave in oracle.waveforms.items():
        assert result.waveforms[net].times.tobytes() == wave.times.tobytes(), net
        assert result.waveforms[net].values.tobytes() == wave.values.tobytes(), net
