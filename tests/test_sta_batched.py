"""Tests for the levelized batched STA stack: generators, levelization,
engine equivalence (batched vs sequential reference, bitwise) and the
runtime-backed model library."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.sta import (
    CSMEngine,
    GateNetlist,
    NLDMEngine,
    TimingModelLibrary,
    create_engine,
    fanout_tree,
    gate_chain,
    generate_netlist,
    inverter_chain,
    primary_input_events,
    primary_input_waveforms,
    random_dag,
)
from repro.sta.generate import default_time_window
from repro.sta.mmmc import CornerSet


@pytest.fixture(scope="module")
def models(library, warm_up):
    return warm_up(
        TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


def _forest(library):
    """Two independent three-inverter chains: a design with two weakly
    connected components."""
    netlist = GateNetlist(library=library, name="forest")
    for prefix in ("a", "b"):
        netlist.add_primary_input(f"{prefix}0")
        previous = f"{prefix}0"
        for index in range(3):
            net = f"{prefix}{index + 1}"
            netlist.add_instance(f"u_{prefix}{index}", "INV_X1", {"A": previous, "out": net})
            previous = net
        netlist.add_primary_output(previous)
    return netlist


def _assert_bitwise(result, reference, nets=None):
    """Every net of ``nets`` (default: all of ``reference``'s, which
    ``result`` must have exactly) has the same bytes, samples and grid, in
    both results, and every instance ``result`` ran used the same model."""
    if nets is None:
        assert set(result.waveforms) == set(reference.waveforms)
        assert set(result.model_used) == set(reference.model_used)
        nets = reference.waveforms
    for net in nets:
        wave, expected = result.waveforms[net], reference.waveforms[net]
        assert wave.times.tobytes() == expected.times.tobytes(), net
        assert wave.values.tobytes() == expected.values.tobytes(), net
    # MIS-arc selection bookkeeping must match exactly, instance by instance.
    for name, label in result.model_used.items():
        assert label == reference.model_used[name], name


def _assert_engines_agree(netlist, models, options, waveforms):
    """The batched engine and the per-instance reference path agree bitwise."""
    sequential = CSMEngine(netlist, models, options=options, batched=False)
    batched = CSMEngine(netlist, models, options=options, batched=True)
    result = batched.run(waveforms)
    _assert_bitwise(result, sequential.run(waveforms))
    return result


def _cone_run(netlist, models, options, waveforms, t_stop, endpoint):
    """A batched run restricted to ``endpoint``'s complete fan-in cone, and
    the nets that cone drives."""
    cone = netlist.fanin_cone(endpoint)
    result = CSMEngine(netlist, models, options=options, use_cache=False).run(
        waveforms, t_stop=t_stop, only=cone
    )
    library = netlist.library
    driven = [
        netlist.instances[name].connections[library[netlist.instances[name].cell_name].output]
        for name in cone
    ]
    assert set(result.model_used) == set(cone)
    return result, driven


class TestGenerators:
    def test_inverter_chain_shape(self, library):
        netlist = inverter_chain(library, 5)
        netlist.validate()
        assert len(netlist.instances) == 5
        assert netlist.depth() == 5
        assert netlist.primary_inputs == ["n0"]
        assert netlist.primary_outputs == ["n5"]

    def test_gate_chain_is_mis_chain(self, library):
        netlist = gate_chain(library, 4, cell_name="NAND2_X1")
        netlist.validate()
        instance = netlist.instances["u0"]
        assert instance.connections["A"] == instance.connections["B"] == "n0"

    def test_fanout_tree_counts(self, library):
        netlist = fanout_tree(library, depth=4, branching=2)
        netlist.validate()
        assert len(netlist.instances) == 1 + 2 + 4 + 8
        assert len(netlist.primary_outputs) == 8

    def test_random_dag_deterministic(self, library):
        first = random_dag(library, width=5, depth=3, seed=11)
        second = random_dag(library, width=5, depth=3, seed=11)
        first.validate()
        assert len(first.instances) == 15
        assert {
            name: inst.connections for name, inst in first.instances.items()
        } == {name: inst.connections for name, inst in second.instances.items()}
        different = random_dag(library, width=5, depth=3, seed=12)
        assert {
            name: inst.connections for name, inst in first.instances.items()
        } != {name: inst.connections for name, inst in different.instances.items()}

    def test_spec_parser(self, library):
        assert len(generate_netlist(library, "chain:7").instances) == 7
        assert len(generate_netlist(library, "chain:nand:3").instances) == 3
        assert len(generate_netlist(library, "tree:3:2").instances) == 7
        assert len(generate_netlist(library, "dag:w4:d2:s9").instances) == 8
        with pytest.raises(TimingError):
            generate_netlist(library, "nope:1")
        with pytest.raises(TimingError):
            generate_netlist(library, "dag:w4")
        with pytest.raises(TimingError):
            generate_netlist(library, "chain:not_a_cell:3")

    def test_stimuli_deterministic(self, library):
        netlist = random_dag(library, width=4, depth=2, seed=0)
        first = primary_input_waveforms(netlist, seed=3)
        second = primary_input_waveforms(netlist, seed=3)
        assert set(first) == set(netlist.primary_inputs)
        for net in first:
            assert np.array_equal(first[net].values, second[net].values)
        events = primary_input_events(netlist, seed=3)
        for net, event in events.items():
            rising = first[net].values[-1] > first[net].values[0]
            assert event.rising == rising


class TestLevelization:
    def test_generations_are_topological(self, library):
        netlist = random_dag(library, width=5, depth=4, seed=2)
        levels = netlist.topological_generations()
        position = {}
        for depth, level in enumerate(levels):
            for instance in level:
                position[instance.name] = depth
        assert len(position) == len(netlist.instances)
        connectivity = netlist.connectivity()
        for instance in netlist.instances.values():
            cell = library[instance.cell_name]
            for pin in cell.inputs:
                driver = connectivity.driver_of(instance.connections[pin])
                if driver is not None:
                    assert position[driver.name] < position[instance.name]

    def test_connectivity_matches_slow_queries(self, library):
        netlist = random_dag(library, width=4, depth=3, seed=5)
        connectivity = netlist.connectivity()
        for net in netlist.nets():
            slow = netlist.driver_of(net)
            fast = connectivity.driver_of(net)
            assert (slow is None) == (fast is None)
            if slow is not None:
                assert slow.name == fast.name
            assert {
                (inst.name, pin) for inst, pin in netlist.receivers_of(net)
            } == {(inst.name, pin) for inst, pin in connectivity.receivers_of(net)}

    def test_multiple_drivers_detected(self, library):
        netlist = GateNetlist(library=library)
        netlist.add_primary_input("a")
        netlist.add_instance("u1", "INV_X1", {"A": "a", "out": "y"})
        netlist.add_instance("u2", "INV_X1", {"A": "a", "out": "y"})
        with pytest.raises(TimingError):
            netlist.connectivity()


class TestEngineFactory:
    def test_create_engine_kinds(self, library, models):
        netlist = inverter_chain(library, 2)
        assert isinstance(create_engine("nldm", netlist, models), NLDMEngine)
        batched = create_engine("csm", netlist, models)
        sequential = create_engine("csm", netlist, models, batched=False)
        assert isinstance(batched, CSMEngine) and batched.batched
        assert isinstance(sequential, CSMEngine) and not sequential.batched
        for kind in ("spice", "csm-sequential"):
            with pytest.raises(TimingError):
                create_engine(kind, netlist, models)


class TestBatchedEquivalence:
    def test_inverter_chain(self, library, models, options):
        # One chain, and a forest of two independent chains (a design with
        # several connected components goes through the same level loop).
        for netlist in (inverter_chain(library, 6), _forest(library)):
            waveforms = primary_input_waveforms(netlist, seed=1)
            result = _assert_engines_agree(netlist, models, options, waveforms)
            assert all(label.startswith("SISCSM") for label in result.model_used.values())

    def test_nand_chain_uses_mis_models(self, library, models, options):
        netlist = gate_chain(library, 3, cell_name="NAND2_X1")
        waveforms = primary_input_waveforms(netlist, seed=2)
        result = _assert_engines_agree(netlist, models, options, waveforms)
        assert result.model_used["u0"] == "MCSM"

    def test_fanout_tree(self, library, models, options):
        netlist = fanout_tree(library, depth=4, branching=2)
        waveforms = primary_input_waveforms(netlist, seed=3)
        _assert_engines_agree(netlist, models, options, waveforms)

    def test_random_dag_mixed_models(self, library, models, options):
        netlist = random_dag(library, width=6, depth=3, seed=4)
        waveforms = primary_input_waveforms(netlist, seed=4)
        result = _assert_engines_agree(netlist, models, options, waveforms)
        labels = set(result.model_used.values())
        # The seeded DAG exercises both the SIS path and an MIS model.
        assert any(label.startswith("SISCSM") for label in labels)
        assert "MCSM" in labels

    def test_64_gate_dag(self, library, models, options):
        """The 64-gate design the CLI examples time, at its stimulus seed 0."""
        netlist = generate_netlist(library, "dag:w16:d4:s3")
        assert len(netlist.instances) == 64
        waveforms = primary_input_waveforms(netlist, seed=0)
        _assert_engines_agree(netlist, models, options, waveforms)

    @pytest.mark.parametrize("time_step", [2e-12, 1e-12])
    @pytest.mark.parametrize("spec", ["dag:w16:d4:s3", "dag:w32:d8:s7"])
    def test_oracle_full_run_and_cone_bitwise(self, library, models, spec, time_step):
        """The reference path, a full batched run and an ``only=`` cone give
        a net the same bytes: levels batch differently in each."""
        options = SimulationOptions(time_step=time_step)
        netlist = generate_netlist(library, spec)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        oracle = CSMEngine(
            netlist, models, options=options, batched=False, use_cache=False
        ).run(waveforms, t_stop=t_stop)
        full = CSMEngine(netlist, models, options=options, use_cache=False).run(
            waveforms, t_stop=t_stop
        )
        _assert_bitwise(full, oracle)
        endpoint = max(
            netlist.primary_outputs, key=lambda net: len(netlist.fanin_cone(net))
        )
        cone, driven = _cone_run(netlist, models, options, waveforms, t_stop, endpoint)
        assert len(driven) < len(netlist.instances)
        _assert_bitwise(cone, oracle, driven)

    def test_explicit_window_and_arrivals(self, library, models, options):
        netlist = inverter_chain(library, 3)
        waveforms = primary_input_waveforms(netlist, seed=5)
        engine = CSMEngine(netlist, models, options=options)
        result = engine.run(waveforms)
        assert result.arrival("n3") > result.arrival("n1")
        assert result.path_delay("n0", "n3") > 0


class TestBatchIndependence:
    """A row's waveform is a function of its own model, load and inputs:
    how a run batches its levels never changes a bit of it."""

    @pytest.fixture(scope="class")
    def corner_set(self, technology, warm_up):
        corner_set = CornerSet.from_names(
            ["TT", "FF"], technology=technology, config=CharacterizationConfig(io_grid_points=5)
        )
        return warm_up(corner_set)

    @settings(max_examples=6, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=6),
        depth=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        endpoint=st.integers(min_value=0),
    )
    # 6 of this design's nets moved by a few 1e-13 V with the level batching
    # while a lockstep group could stop stepping once its rows went still.
    @example(width=5, depth=4, seed=37, endpoint=0)
    def test_every_path_gives_a_row_the_same_bytes(
        self, library, models, corner_set, width, depth, seed, endpoint
    ):
        options = SimulationOptions(time_step=2e-12)
        spec = f"dag:w{width}:d{depth}:s{seed}"
        netlist = generate_netlist(library, spec)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=1)
        oracle = CSMEngine(
            netlist, models, options=options, batched=False, use_cache=False
        ).run(waveforms, t_stop=t_stop)

        full = CSMEngine(netlist, models, options=options, use_cache=False).run(
            waveforms, t_stop=t_stop
        )
        _assert_bitwise(full, oracle)

        outputs = netlist.primary_outputs
        target = outputs[endpoint % len(outputs)]
        cone, driven = _cone_run(netlist, models, options, waveforms, t_stop, target)
        members = set(netlist.fanin_cone(target))
        # A cone's result holds the stimuli it reads plus the nets it drives.
        reads = {
            netlist.instances[name].connections[pin]
            for name in members
            for pin in library[netlist.instances[name].cell_name].inputs
        }
        cone_nets = [*(net for net in netlist.primary_inputs if net in reads), *driven]
        assert set(cone.waveforms) == set(cone_nets)
        _assert_bitwise(cone, oracle, cone_nets)

        # The oracle itself runs a cone as just a smaller row set.
        oracle_cone = CSMEngine(
            netlist, models, options=options, batched=False, use_cache=False
        ).run(waveforms, t_stop=t_stop, only=members)
        assert set(oracle_cone.model_used) == members
        _assert_bitwise(oracle_cone, oracle, cone_nets)

        # The TT corner is the default technology under another name.
        corner_netlist = generate_netlist(corner_set.reference.library, spec)
        corner_engine = CSMEngine(
            corner_netlist,
            corner_set.reference.models,
            options=options,
            corners=corner_set,
            use_cache=False,
        )
        _assert_bitwise(corner_engine.run(waveforms, t_stop=t_stop).result("TT"), oracle)

        # Every corner of a corners= run walks the same cone.
        corner_cone = corner_engine.run(waveforms, t_stop=t_stop, only=members).result("TT")
        assert set(corner_cone.model_used) == members
        _assert_bitwise(corner_cone, oracle, cone_nets)

    def test_only_rejects_open_cones_and_unknown_names(self, library, models, options):
        """``only=`` is outside input: a cone must be closed and name
        instances of the design."""
        netlist = _forest(library)
        waveforms = primary_input_waveforms(netlist, seed=0)
        engine = CSMEngine(netlist, models, options=options, use_cache=False)
        # u_a1 reads a1, which u_a0 drives outside the cone.
        with pytest.raises(TimingError, match=r"not closed.*'u_a1'.*'a1'"):
            engine.run(waveforms, only={"u_a1", "u_a2"})
        with pytest.raises(TimingError, match=r"unknown instances \['u_z9'\]"):
            engine.run(waveforms, only={"u_a0", "u_z9"})


class TestNLDMLevelized:
    def test_dag_arrival_propagation(self, library, models):
        netlist = random_dag(library, width=4, depth=3, seed=6)
        events = primary_input_events(netlist, seed=6)
        result = NLDMEngine(netlist, models).run(events)
        for net in netlist.primary_outputs:
            if net in result.events:
                assert result.events[net].arrival > min(e.arrival for e in events.values())


class TestModelLibraryRuntime:
    def test_prewarm_counts_and_cache(self, library, tmp_path, batch_steps):
        from repro.runtime import PackedStore

        cache = PackedStore(tmp_path / "cache")
        first = TimingModelLibrary(
            library=library,
            config=CharacterizationConfig(io_grid_points=5),
            cache=cache,
        )
        netlist = gate_chain(library, 2, cell_name="NAND2_X1")
        executed = first.prewarm_for_netlist(netlist)
        # NAND2: SIS on A and B plus the (A, B) MIS model.
        assert executed == 3
        # One bundle, so two capacitance batches: the stack node floating
        # (the two SIS models' 12 runs each and the MCSM's 20, of which its
        # 16 pin ramps are the SIS models' own: 28 distinct runs) and forced
        # (the MCSM's 4 internal-node ramps).  Each is on the 260 ps grid of
        # a 160 ps ramp and 50 ps of quiet time on both sides, and stops one
        # step past its last sample at 50 + 0.8 * 160 = 178 ps.
        assert batch_steps == [("probe_NAND2_X1", 28, 179), ("probe_NAND2_X1", 4, 179)]
        # Memoized: a second prewarm on the same library does nothing.
        assert first.prewarm_for_netlist(netlist) == 0
        # Warm disk cache: a *fresh* library executes nothing either.
        second = TimingModelLibrary(
            library=library,
            config=CharacterizationConfig(io_grid_points=5),
            cache=cache,
        )
        assert second.prewarm_for_netlist(netlist) == 0
        model = second.mis_model("NAND2_X1", "A", "B")
        assert type(model).__name__ == "MCSM"

    def test_prewarm_bundles_a_three_input_cell(
        self, library, fast_config, tmp_path, batch_steps, model_payload
    ):
        """A prewarm characterizes a cell's CSM models as one bundle: each
        model is byte for byte its ``characterize_*`` bundle of one and is
        stored under its own key, from one capacitance batch per probe
        circuit."""
        from repro.characterization import (
            characterization_key,
            characterize_mcsm,
            characterize_sis,
        )
        from repro.runtime import PackedStore

        cell = library["NAND3_X1"]
        cache = PackedStore(tmp_path / "nand3")
        models = TimingModelLibrary(library=library, config=fast_config, cache=cache)
        assert models.prewarm(cells=[cell]) == 6
        # The floating-node batch: the SIS models' 3 x 12 runs, plus the
        # 4 stack-off output ramps of each MCSM (their 3 x 16 pin ramps are
        # the SIS models' own).  The forced-node batch: 3 x 4 internal-node
        # ramps, one stack-off bias per pin pair.
        assert [runs for _, runs, _ in batch_steps] == [48, 12]

        requests = [("sis", (pin,)) for pin in cell.inputs]
        requests += [("mcsm", pins) for pins in itertools.combinations(cell.inputs, 2)]
        for kind, pins in requests:
            characterize = characterize_sis if kind == "sis" else characterize_mcsm
            alone = characterize(cell, *pins, config=fast_config)
            bundled = models.model(kind, cell.name, pins)
            assert model_payload(bundled) == model_payload(alone), (kind, pins)
            hit, stored = cache.lookup(characterization_key(kind, cell, pins, fast_config))
            assert hit and model_payload(stored) == model_payload(alone), (kind, pins)

    def test_nldm_characterization_job_cached(self, library, tmp_path):
        from repro.runtime import PackedStore

        cache = PackedStore(tmp_path / "nldm-cache")
        kwargs = dict(
            library=library,
            config=CharacterizationConfig(io_grid_points=5),
            nldm_input_slews=(40e-12, 120e-12),
            nldm_loads=(3e-15, 12e-15),
            cache=cache,
        )
        first = TimingModelLibrary(**kwargs)
        table = first.nldm_table("INV_X1", "A", input_rise=True)
        assert cache.stats.stores == 1
        second = TimingModelLibrary(**kwargs)
        again = second.nldm_table("INV_X1", "A", input_rise=True)
        assert cache.stats.hits == 1
        assert np.array_equal(table.delay_table.values, again.delay_table.values)

    def test_prewarm_runs_one_nldm_job_per_cell(self, library, tmp_path, batch_steps):
        from repro.runtime import PackedStore
        from repro.sta.generate import DEFAULT_DAG_CELLS

        # Each cell's job is one transient batch over every slew, pin, edge
        # and load: one ``run_many`` per cell, whatever the slews.  Each batch
        # stops once its last measured crossing is in, far inside its
        # 100 + 120 + 600 ps grid (2,460 steps for the three cells).
        cache = PackedStore(tmp_path / "nldm-cells")
        kwargs = dict(
            library=library,
            nldm_input_slews=(40e-12, 120e-12),
            nldm_loads=(3e-15, 12e-15),
            cache=cache,
        )
        cells = [library[name] for name in DEFAULT_DAG_CELLS]
        first = TimingModelLibrary(**kwargs)
        assert first.prewarm(cells=cells, kinds=(), include_nldm=True) == 3
        assert cache.stats.stores == 3
        circuits = [name for name, _, _ in batch_steps]
        assert len(circuits) == 3 and len(set(circuits)) == 3, circuits
        assert sum(steps for _, _, steps in batch_steps) <= 1000, batch_steps
        # A second library on the same store loads every arc of every cell.
        second = TimingModelLibrary(**kwargs)
        assert second.prewarm(cells=cells, kinds=(), include_nldm=True) == 0
        for cell in cells:
            for pin in cell.inputs:
                for rise in (True, False):
                    ours = second.nldm_table(cell.name, pin, rise)
                    theirs = first.nldm_table(cell.name, pin, rise)
                    assert ours.delay_table.values.tobytes() == theirs.delay_table.values.tobytes()
                    assert ours.slew_table.values.tobytes() == theirs.slew_table.values.tobytes()
        assert cache.stats.stores == 3
        assert len(batch_steps) == 3
