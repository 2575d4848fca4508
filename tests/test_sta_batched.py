"""Tests for the levelized batched STA stack: generators, levelization,
engine equivalence (batched vs sequential reference) and the runtime-backed
model library."""

from __future__ import annotations

import numpy as np
import pytest

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

#: Waveform agreement budget between the batched and sequential engines.
EQUIV_TOL = 1e-9


@pytest.fixture(scope="module")
def models(library):
    return TimingModelLibrary(
        library=library, config=CharacterizationConfig(io_grid_points=5)
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


def _assert_engines_agree(netlist, models, options, waveforms):
    sequential = CSMEngine(netlist, models, options=options, batched=False)
    batched = CSMEngine(netlist, models, options=options, batched=True)
    result_seq = sequential.run(waveforms)
    result_bat = batched.run(waveforms)
    assert set(result_bat.waveforms) == set(result_seq.waveforms)
    deviation = max(
        np.abs(result_bat.waveform(net).values - result_seq.waveform(net).values).max()
        for net in result_seq.waveforms
    )
    assert deviation <= EQUIV_TOL
    # MIS-arc selection bookkeeping must match exactly, instance by instance.
    assert result_bat.model_used == result_seq.model_used
    return result_bat, deviation


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
        sequential = create_engine("csm-sequential", netlist, models)
        assert isinstance(batched, CSMEngine) and batched.batched
        assert isinstance(sequential, CSMEngine) and not sequential.batched
        with pytest.raises(TimingError):
            create_engine("spice", netlist, models)


class TestBatchedEquivalence:
    def test_inverter_chain(self, library, models, options):
        # One chain, and a forest of two independent chains (a design with
        # several connected components goes through the same level loop).
        for netlist in (inverter_chain(library, 6), _forest(library)):
            waveforms = primary_input_waveforms(netlist, seed=1)
            result, _ = _assert_engines_agree(netlist, models, options, waveforms)
            assert all(label.startswith("SISCSM") for label in result.model_used.values())

    def test_nand_chain_uses_mis_models(self, library, models, options):
        netlist = gate_chain(library, 3, cell_name="NAND2_X1")
        waveforms = primary_input_waveforms(netlist, seed=2)
        result, _ = _assert_engines_agree(netlist, models, options, waveforms)
        assert result.model_used["u0"] == "MCSM"

    def test_fanout_tree(self, library, models, options):
        netlist = fanout_tree(library, depth=4, branching=2)
        waveforms = primary_input_waveforms(netlist, seed=3)
        _assert_engines_agree(netlist, models, options, waveforms)

    def test_random_dag_mixed_models(self, library, models, options):
        netlist = random_dag(library, width=6, depth=3, seed=4)
        waveforms = primary_input_waveforms(netlist, seed=4)
        result, deviation = _assert_engines_agree(netlist, models, options, waveforms)
        labels = set(result.model_used.values())
        # The seeded DAG exercises both the SIS path and an MIS model.
        assert any(label.startswith("SISCSM") for label in labels)
        assert "MCSM" in labels
        assert deviation <= EQUIV_TOL

    def test_64_gate_dag(self, library, models, options):
        """The 64-gate design the CLI examples time, at its stimulus seed 0."""
        netlist = generate_netlist(library, "dag:w16:d4:s3")
        assert len(netlist.instances) == 64
        waveforms = primary_input_waveforms(netlist, seed=0)
        _assert_engines_agree(netlist, models, options, waveforms)

    def test_explicit_window_and_arrivals(self, library, models, options):
        netlist = inverter_chain(library, 3)
        waveforms = primary_input_waveforms(netlist, seed=5)
        engine = CSMEngine(netlist, models, options=options)
        result = engine.run(waveforms)
        assert result.arrival("n3") > result.arrival("n1")
        assert result.path_delay("n0", "n3") > 0


class TestNLDMLevelized:
    def test_dag_arrival_propagation(self, library, models):
        netlist = random_dag(library, width=4, depth=3, seed=6)
        events = primary_input_events(netlist, seed=6)
        result = NLDMEngine(netlist, models).run(events)
        for net in netlist.primary_outputs:
            if net in result.events:
                assert result.events[net].arrival > min(e.arrival for e in events.values())


class TestModelLibraryRuntime:
    def test_prewarm_counts_and_cache(self, library, tmp_path):
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
