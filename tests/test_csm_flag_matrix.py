"""The ``CSMEngine`` flag matrix: every combination of its orthogonal flags
either gives each corner's reference bytes or is the one documented
rejection.

The flags are the level evaluator (``batched``), the retention policy
(``memory_mode``), the store (present or not), propagation caching
(``use_cache``), the corner set (``corners=``) and the row set (``only=``, a
closed cone).  A row's waveform depends only on its own model, load and
input waveforms, so every accepted combination must give each corner's nets
and ``model_used`` the same bytes as that corner's full resident
``batched=False, use_cache=False`` run.  The only combination the engine
rejects is a streaming run without a store or without ``use_cache``: the
store is its working set.
"""

from __future__ import annotations

import itertools

import pytest

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.runtime import PackedStore
from repro.sta import CSMEngine, generate_netlist, primary_input_waveforms
from repro.sta.generate import default_time_window
from repro.sta.mmmc import CornerSet

#: A 12-gate DAG: every combination runs in well under a second.
SPEC = "dag:w4:d3:s5"
CORNERS = ("TT", "FF")


@pytest.fixture(scope="module")
def corner_set(technology, warm_up):
    return warm_up(
        CornerSet.from_names(
            CORNERS, technology=technology, config=CharacterizationConfig(io_grid_points=5)
        )
    )


def _rejected(memory_mode: str, store: bool, use_cache: bool) -> bool:
    """The one documented rejection: streaming needs a store and caching."""
    return memory_mode == "stream" and not (store and use_cache)


def _assert_same_bytes(result, reference, instances, nets, context):
    """``result`` holds exactly ``nets`` and the model choices of
    ``instances``, each with ``reference``'s bytes."""
    assert set(result.waveforms) == nets, context
    assert set(result.model_used) == instances, context
    for name in instances:
        assert result.model_used[name] == reference.model_used[name], (context, name)
    for net in nets:
        wave, expected = result.waveforms[net], reference.waveforms[net]
        assert wave.times.tobytes() == expected.times.tobytes(), (context, net)
        assert wave.values.tobytes() == expected.values.tobytes(), (context, net)


def test_every_flag_combination_is_the_oracle_or_the_one_rejection(corner_set, tmp_path):
    options = SimulationOptions(time_step=2e-12)
    netlist = generate_netlist(corner_set.reference.library, SPEC)
    assert len(netlist.instances) <= 12
    t_stop = default_time_window(netlist)
    waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=1)
    references = {
        name: CSMEngine(
            netlist, corner_set[name].models, options=options, batched=False, use_cache=False
        ).run(waveforms, t_stop=t_stop)
        for name in CORNERS
    }
    everything = set(netlist.instances)
    cone = next(
        set(netlist.fanin_cone(net))
        for net in netlist.primary_outputs
        if len(netlist.fanin_cone(net)) < len(everything)
    )
    # A restricted result holds the stimuli its cone reads plus its nets.
    library = netlist.library
    cone_cells = {name: library[netlist.instances[name].cell_name] for name in cone}
    cone_reads = {
        netlist.instances[name].connections[pin]
        for name, cell in cone_cells.items()
        for pin in cell.inputs
    }
    cone_nets = (set(waveforms) & cone_reads) | {
        netlist.instances[name].connections[cell.output] for name, cell in cone_cells.items()
    }
    assert set(waveforms) - cone_nets, "the cone must leave a stimulus out"

    rejected = []
    matrix = itertools.product(
        (True, False),  # batched
        ("resident", "stream"),  # memory_mode
        (True, False),  # store
        (True, False),  # use_cache
        (None, corner_set),  # corners
        (None, cone),  # only
    )
    for index, (batched, memory_mode, store, use_cache, corners, only) in enumerate(matrix):
        combination = dict(
            batched=batched,
            memory_mode=memory_mode,
            store=store,
            use_cache=use_cache,
            corners=corners is not None,
            only=only is not None,
        )
        kwargs = dict(
            options=options,
            batched=batched,
            memory_mode=memory_mode,
            cache=PackedStore(tmp_path / f"store{index}") if store else None,
            use_cache=use_cache,
            corners=corners,
        )
        if _rejected(memory_mode, store, use_cache):
            with pytest.raises(TimingError):
                CSMEngine(netlist, corner_set.reference.models, **kwargs)
            rejected.append(combination)
            continue
        engine = CSMEngine(netlist, corner_set.reference.models, **kwargs)
        result = engine.run(waveforms, t_stop=t_stop, only=only)
        per_corner = (
            {"TT": result} if corners is None else {name: result.result(name) for name in CORNERS}
        )
        for name, corner_result in per_corner.items():
            reference = references[name]
            nets = cone_nets if only else set(reference.waveforms)
            instances = only or everything
            _assert_same_bytes(corner_result, reference, instances, nets, (combination, name))
        if kwargs["cache"] is not None:
            kwargs["cache"].close()

    # Of the 64 combinations only stream without a store or without caching
    # is rejected: 3 of the 4 store x use_cache pairs, for either evaluator,
    # corner set and row set.
    assert len(rejected) == 3 * 2 * 2 * 2, rejected
