"""Store traffic of the hybrid survey and the CSM walk.

The invariants pinned here:

* the NLDM survey keeps no cache: a run makes no content hash and no store
  call, so a hybrid run's hashes are its CSM refines' alone, and its
  level-batched events, MIS pairs and stats are bitwise a per-instance
  scalar walk's;
* a CSM run, plain or restricted, writes level records and row pointers
  only, none of them holding a primary input: a warm run serves every
  instance through them and is bitwise the cold result, while an evicted
  level record re-integrates exactly its rows;
* :meth:`GateNetlist.content_digest` memoizes the design digest per revision,
  library and salt, and moves with every edit.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import default_library
from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.runtime import PackedStore
from repro.runtime.cache import encode_payload
from repro.runtime.jobs import content_hash
from repro.runtime.server import SingleFlightStore, TimingService
from repro.sta import (
    CSMEngine,
    HybridEngine,
    NLDMEngine,
    PropagationStats,
    TimingModelLibrary,
    TimingEvent,
    generate_netlist,
    inverter_chain,
    netlist_fingerprint,
    primary_input_events,
    primary_input_waveforms,
)
from repro.sta import engine as engine_module
from repro.sta import netlist as netlist_module
from repro.sta.events import detect_mis_pairs
from repro.sta.generate import default_time_window
from repro.sta.netlist import NETLIST_DIGEST_SALT, GateNetlist, swap_partner
from repro.technology.corners import STANDARD_CORNERS, apply_corner
from repro.waveform import Waveform

DAG = "dag:w6:d3:s5"


@pytest.fixture(scope="module")
def models(library, warm_up):
    return warm_up(
        TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


def _twin_netlist(library, extra_inputs: int = 0) -> GateNetlist:
    """Two identical NAND2s on the same primary inputs, each driving one
    inverter: both levels hold a same-level duplicate propagation key.
    ``extra_inputs`` adds primary inputs that each feed their own inverter,
    outside the cone of ``y1``."""
    nand = library["NAND2_X1"]
    inv = library["INV_X1"]
    netlist = GateNetlist(library=library, name="twins")
    netlist.add_primary_input("a")
    netlist.add_primary_input("b")
    for index in (1, 2):
        netlist.add_instance(
            f"g{index}",
            "NAND2_X1",
            {nand.inputs[0]: "a", nand.inputs[1]: "b", nand.output: f"n{index}"},
        )
        netlist.add_instance(
            f"i{index}", "INV_X1", {inv.inputs[0]: f"n{index}", inv.output: f"y{index}"}
        )
        netlist.add_primary_output(f"y{index}")
    for index in range(extra_inputs):
        netlist.add_primary_input(f"p{index}")
        netlist.add_instance(
            f"x{index}", "INV_X1", {inv.inputs[0]: f"p{index}", inv.output: f"q{index}"}
        )
        netlist.add_primary_output(f"q{index}")
    return netlist


class _PerItemStore:
    """A dict-backed store whose ``store_many`` is one ``store`` per entry —
    the per-instance write pattern as reference."""

    def __init__(self):
        self.entries = {}

    def lookup(self, key):
        if key in self.entries:
            return True, self.entries[key]
        return False, None

    def lookup_many(self, keys):
        return [self.lookup(key) for key in keys]

    def store(self, key, value):
        self.entries[key] = value

    def store_many(self, items):
        for key, value in items:
            self.store(key, value)


# ----------------------------------------------------------------------
# NLDM: the level-batched, keyless survey equals a per-instance oracle
# ----------------------------------------------------------------------
class _PerInstanceOracle:
    """The NLDM level loop evaluated one instance at a time.

    Scalar :meth:`NLDMTable.delay` / :meth:`NLDMTable.output_slew` and
    :func:`detect_mis_pairs` per instance, the latest arc winning (first pin
    on ties).  Loads and levels come from the engine under test, so the
    oracle checks evaluation and accounting.
    """

    def __init__(self, engine: NLDMEngine):
        self.engine = engine

    def _evaluate(self, instance, cell, load, events, stats):
        pin_nets = {pin: instance.connections[pin] for pin in cell.inputs}
        pairs = detect_mis_pairs(events, cell.inputs, pin_nets)
        fields = None
        for pin in cell.inputs:
            event = events.get(pin_nets[pin])
            if event is None:
                continue
            table = self.engine.models.nldm_table(
                instance.cell_name, pin, input_rise=event.rising
            )
            slew_axis, load_axis = table.delay_table.axes
            inside = (
                slew_axis.lower <= event.slew <= slew_axis.upper
                and load_axis.lower <= load <= load_axis.upper
            )
            stats.clamped_lookups += not inside
            arrival = event.arrival + table.delay(event.slew, load)
            if fields is None or arrival > fields[0]:
                fields = (arrival, table.output_slew(event.slew, load), table.output_rise)
        return fields, pairs

    def run(self, input_events):
        engine = self.engine
        stats = PropagationStats(instances=len(engine.netlist.instances))
        events = dict(input_events)
        mis_flags = {}
        for level in engine.levels():
            for instance in level:
                cell = engine._cell(instance)
                output_net = instance.connections[cell.output]
                load = engine._lumped_output_load(instance)
                fields, pairs = self._evaluate(instance, cell, load, events, stats)
                stats.integrations += 1
                mis_flags[instance.name] = pairs
                if fields is not None:
                    events[output_net] = TimingEvent(output_net, *fields)
        return events, mis_flags, stats


def _event_bits(events):
    return {
        name: (event.net, float(event.arrival).hex(), float(event.slew).hex(), event.rising)
        for name, event in events.items()
    }


def _assert_matches_oracle(engine, oracle, events):
    result = engine.run(events)
    expected_events, expected_flags, expected_stats = oracle.run(events)
    assert list(_event_bits(result.events).items()) == list(_event_bits(expected_events).items())
    assert list(result.mis_flags.items()) == list(expected_flags.items())
    assert engine.last_stats == expected_stats
    assert result.stats == expected_stats.as_dict()


def _served_nldm_engine(models, spec, memory_mode):
    """The NLDM engine a :class:`TimingService` session serves a request of
    this memory mode with, and the session's netlist.  Both modes get the
    session's one keyless engine."""
    service = TimingService(models=models)
    record = service._sessions[service.open_session({"generate": spec})["session"]]
    engine = service._engine(record, "nldm", memory_mode=memory_mode)
    assert engine is service._engine(record, "nldm", memory_mode="resident")
    return record.netlist, engine


class TestNLDMLevelBatchOracle:
    """Events, MIS pairs and stats of the level-batched survey are bitwise
    those of the per-instance walk: cold, repeated and after an ECO swap,
    for the engine the server serves in either memory mode."""

    @pytest.mark.parametrize("memory_mode", ["resident", "stream"])
    @settings(max_examples=8, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=6),
        depth=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        stimulus_seed=st.integers(min_value=0, max_value=10_000),
        swap_pick=st.integers(min_value=0, max_value=10_000),
    )
    def test_engine_equals_per_instance_oracle(
        self, library, models, memory_mode, width, depth, seed, stimulus_seed, swap_pick
    ):
        netlist, engine = _served_nldm_engine(
            models, f"dag:w{width}:d{depth}:s{seed}", memory_mode
        )
        events = primary_input_events(netlist, seed=stimulus_seed)
        oracle = _PerInstanceOracle(engine)
        _assert_matches_oracle(engine, oracle, events)  # cold
        _assert_matches_oracle(engine, oracle, events)  # repeated
        swappable = [
            name
            for name, instance in netlist.instances.items()
            if swap_partner(library, instance.cell_name) is not None
        ]
        if swappable:
            name = swappable[swap_pick % len(swappable)]
            netlist.swap_cell(name, swap_partner(library, netlist.instances[name].cell_name))
        _assert_matches_oracle(engine, oracle, events)  # after one swap_cell

    def test_same_level_duplicates_match_the_oracle(self, library, models):
        netlist = _twin_netlist(library, extra_inputs=2)
        events = primary_input_events(netlist, seed=3)
        engine = NLDMEngine(netlist, models)
        oracle = _PerInstanceOracle(engine)
        _assert_matches_oracle(engine, oracle, events)
        _assert_matches_oracle(engine, oracle, events)


class TestClampedLookups:
    """``PropagationStats.clamped_lookups`` counts the evaluated arcs whose
    input slew or lumped load lies outside the NLDM table axes."""

    @staticmethod
    def _chain(library, wire):
        netlist = inverter_chain(library, 6)
        output = library["INV_X1"].output
        for instance in netlist.instances.values():
            netlist.set_wire_capacitance(instance.connections[output], wire)
        source = netlist.primary_inputs[0]
        return netlist, {source: TimingEvent(source, 100e-12, 60e-12, True)}

    def test_chain_inside_the_axes_counts_zero(self, library, models):
        # 10 fF of wire per stage keeps every load and slew on the axes.
        netlist, events = self._chain(library, 10e-15)
        engine = NLDMEngine(netlist, models)
        engine.run(events)
        assert engine.last_stats.integrations == 6
        assert engine.last_stats.clamped_lookups == 0

    def test_load_beyond_the_axis_is_counted_and_folded_by_hybrid(
        self, library, models, options
    ):
        netlist, events = self._chain(library, 10e-15)
        heavy = netlist.instances["u2"]
        netlist.set_wire_capacitance(heavy.connections[library["INV_X1"].output], 40e-15)
        engine = NLDMEngine(netlist, models)
        assert engine._lumped_output_load(heavy) > models.nldm_loads[-1]
        engine.run(events)
        clamped = engine.last_stats.clamped_lookups
        assert clamped >= 1
        # A repeat evaluates (and so counts) every arc again.
        engine.run(events)
        assert engine.last_stats.clamped_lookups == clamped

        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        hybrid = HybridEngine(netlist, models, options=options, cache=_PerItemStore(), top_k=0)
        result = hybrid.run(waveforms, t_stop=t_stop)
        survey = hybrid.nldm.last_stats.clamped_lookups
        assert survey >= 1
        assert result.stats["clamped_lookups"] == survey


# ----------------------------------------------------------------------
# NLDM: no keys, no store traffic
# ----------------------------------------------------------------------
class _StoreCalls:
    """Counts every read and write method call on :class:`PackedStore`."""

    METHODS = ("lookup", "lookup_many", "store", "store_many")

    def __init__(self, monkeypatch):
        self.calls = []
        for name in self.METHODS:
            real = getattr(PackedStore, name)

            def counting(store, *args, _real=real, _name=name, **kwargs):
                self.calls.append(_name)
                return _real(store, *args, **kwargs)

            monkeypatch.setattr(PackedStore, name, counting)


class TestKeylessSurvey:
    @staticmethod
    def _count_hashes(monkeypatch):
        calls = []
        real = engine_module.content_hash

        def counting(*parts):
            calls.append(parts[0])
            return real(*parts)

        monkeypatch.setattr(engine_module, "content_hash", counting)
        return calls

    def test_nldm_run_makes_no_hash_and_no_store_call(
        self, library, warm_up, tmp_path, monkeypatch
    ):
        models = warm_up(
            TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
        )
        models.cache = PackedStore(tmp_path / "models")
        netlist = generate_netlist(library, DAG)
        events = primary_input_events(netlist, seed=0)
        hashes = self._count_hashes(monkeypatch)
        store_calls = _StoreCalls(monkeypatch)
        engine = NLDMEngine(netlist, models)
        first = engine.run(events)
        second = engine.run(events)
        assert hashes == []
        assert store_calls.calls == []
        assert models.cache.keys() == []
        assert first.events == second.events
        assert first.stats["integrations"] == len(netlist.instances)

    def test_hybrid_hashes_are_the_csm_refines_alone(
        self, library, models, options, tmp_path, monkeypatch
    ):
        netlist = generate_netlist(library, "dag:w64:d4:s3")
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        hybrid = HybridEngine(
            netlist, models, options=options, cache=PackedStore(tmp_path / "store"), top_k=4
        )
        hashes = self._count_hashes(monkeypatch)
        refine_hashes = []
        real_run = hybrid.csm.run

        def counted_run(*args, **kwargs):
            before = len(hashes)
            try:
                return real_run(*args, **kwargs)
            finally:
                refine_hashes.append(len(hashes) - before)

        monkeypatch.setattr(hybrid.csm, "run", counted_run)
        result = hybrid.run(waveforms, t_stop=t_stop)
        assert result.iterations and refine_hashes
        assert 0 < sum(refine_hashes) == len(hashes)
        assert not any(kind.startswith("nldm") for kind in hashes)

    def test_refine_keys_and_copies_only_its_cones_stimuli(
        self, library, models, options, tmp_path, monkeypatch
    ):
        netlist = generate_netlist(library, "dag:w64:d4:s3")
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        cones = {frozenset(netlist.fanin_cone(net)) for net in netlist.primary_outputs}
        assert len(cones) > 1
        hybrid = HybridEngine(
            netlist,
            models,
            options=options,
            cache=PackedStore(tmp_path / "store"),
            top_k=2,
            max_iterations=1,
        )
        hashes = self._count_hashes(monkeypatch)
        renamed = []
        real_renamed = Waveform.renamed

        def counting_renamed(wave, name):
            renamed.append(name)
            return real_renamed(wave, name)

        monkeypatch.setattr(Waveform, "renamed", counting_renamed)
        result = hybrid.run(waveforms, t_stop=t_stop)
        reads = {
            netlist.instances[name].connections[pin]
            for name in result.refined_instances
            for pin in library[netlist.instances[name].cell_name].inputs
        }
        cone_stimuli = reads & set(netlist.primary_inputs)
        outside = set(netlist.primary_inputs) - cone_stimuli
        assert cone_stimuli and outside
        assert hashes.count("sta-stimulus") == len(cone_stimuli)
        # The result still lists every primary input, bitwise the caller's,
        # and neither the run nor these reads renamed an out-of-cone one.
        for net in netlist.primary_inputs:
            assert result.waveforms[net].values.tobytes() == waveforms[net].values.tobytes()
        assert not outside & set(renamed)


# ----------------------------------------------------------------------
# CSM: level records and row pointers, without the stimuli
# ----------------------------------------------------------------------
def _assert_same_waveforms(warm, cold):
    assert list(warm.waveforms) == list(cold.waveforms)
    for net, wave in cold.waveforms.items():
        assert warm.waveforms[net].name == wave.name
        assert np.array_equal(warm.waveforms[net].times, wave.times), net
        assert np.array_equal(warm.waveforms[net].values, wave.values), net


def _entries(store):
    """Every entry of a store: key -> value."""
    entries = {}
    for key in store.keys():
        hit, value = store.lookup(key)
        assert hit
        entries[key] = value
    return entries


def _entry_bytes(entries) -> int:
    """Encoded size of a store's entries: manifests plus array bytes (the
    store's own framing, whose checksum and timestamp digits vary, left
    out)."""
    size = 0
    for value in entries.values():
        manifest, arrays = encode_payload(value)
        size += len(json.dumps(manifest, separators=(",", ":")))
        size += sum(array.nbytes for array in arrays.values())
    return size


class TestStimulusFreeRunEntries:
    """A CSM run's store entries are level records (the level's keys and
    its tensor) and ``level-row`` pointers into them, and not one of them
    holds a primary input."""

    @pytest.mark.parametrize("restricted", [False, True])
    def test_entry_holds_no_primary_input_and_warm_hit_is_bitwise(
        self, library, models, options, tmp_path, restricted
    ):
        netlist = generate_netlist(library, DAG)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        only = None
        if restricted:
            only = set(netlist.fanin_cone(netlist.primary_outputs[0]))
            assert only != set(netlist.instances)
        store = PackedStore(tmp_path / "store")
        engine = CSMEngine(netlist, models, options=options, cache=store)
        cold = engine.run(waveforms, t_stop=t_stop, only=only)

        propagated = [net for net in cold.waveforms if net not in netlist.primary_inputs]
        entries = _entries(store)
        records = {key: value for key, value in entries.items() if "tensor" in value}
        pointers = {key: value for key, value in entries.items() if "tensor" not in value}
        assert set(pointers) == {cold.keys[net] for net in propagated}
        for pointer in pointers.values():
            assert set(pointer) == {"t", "level", "row"} and pointer["t"] == "level-row"
            assert pointer["level"] in records
        rows = [name for record in records.values() for name in record["tensor"].names]
        assert sorted(rows) == sorted(propagated)  # no primary input

        warm_engine = CSMEngine(netlist, models, options=options, cache=store)
        warm = warm_engine.run(waveforms, t_stop=t_stop, only=only)
        stats = warm_engine.last_stats
        assert stats.integrations == stats.stores == 0
        assert stats.cache_hits + stats.memo_hits == len(only or netlist.instances)
        assert warm.stats == stats.as_dict()
        assert warm.keys == cold.keys
        _assert_same_waveforms(warm, cold)  # primary inputs included
        assert warm.model_used == cold.model_used
        assert (warm.netlist_name, warm.vdd) == (cold.netlist_name, cold.vdd)
        assert _entries(store).keys() == entries.keys()

    def test_restricted_entry_does_not_grow_with_primary_inputs(
        self, library, models, options, tmp_path
    ):
        sizes = []
        for extra in (2, 6):  # 4 and then 8 primary inputs
            netlist = _twin_netlist(library, extra_inputs=extra)
            t_stop = default_time_window(netlist)
            waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
            store = PackedStore(tmp_path / f"extra{extra}")
            engine = CSMEngine(netlist, models, options=options, cache=store)
            engine.run(waveforms, t_stop=t_stop, only={"g1", "i1"})
            sizes.append(_entry_bytes(_entries(store)))
        assert sizes[0] == sizes[1]

    def test_entry_does_not_grow_with_samples(self, library, models, options, tmp_path):
        """Halving the step doubles each level record's samples, but an
        instance's entry is a row pointer of the same size."""
        netlist = _twin_netlist(library)
        t_stop = default_time_window(netlist)
        sizes, samples, labels = [], [], []
        for step in (options.time_step, options.time_step / 2):
            waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
            store = PackedStore(tmp_path / f"step{step:g}")
            engine = CSMEngine(
                netlist, models, options=replace(options, time_step=step), cache=store
            )
            result = engine.run(waveforms, t_stop=t_stop)
            entries = _entries(store)
            pointers = {
                key: entries[key]
                for net, key in result.keys.items()
                if net not in netlist.primary_inputs
            }
            assert all(entry["t"] == "level-row" for entry in pointers.values())
            sizes.append(_entry_bytes(pointers))
            samples.append(len(result.waveforms["y1"]))
            labels.append(result.model_used)
        assert samples[1] == 2 * samples[0] - 1
        assert labels[0] == labels[1]
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("single_flight", [False, True])
    def test_evicted_level_record_turns_the_hit_into_a_miss(
        self, library, models, options, tmp_path, single_flight
    ):
        netlist = generate_netlist(library, DAG)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        store = PackedStore(tmp_path / "store")
        if single_flight:
            # The server's wrapper: the row pointer hits, the level record
            # behind it misses, and the re-integration that stores it again
            # must not wait on a claim of its own.
            store = SingleFlightStore(store, wait_timeout=30.0)
        engine = CSMEngine(netlist, models, options=options, cache=store)
        cold = engine.run(waveforms, t_stop=t_stop)
        # The level record behind the middle level's rows.
        middle = engine.levels()[1][0]
        net = middle.connections[library[middle.cell_name].output]
        _, pointer = store.lookup(cold.keys[net])
        _, record = store.lookup(pointer["level"])
        assert store.evict(pointer["level"])

        rerun_engine = CSMEngine(netlist, models, options=options, cache=store)
        rerun = rerun_engine.run(waveforms, t_stop=t_stop)
        stats = rerun_engine.last_stats
        assert stats.integrations == len(record["keys"])
        assert stats.cache_hits == len(netlist.instances) - len(record["keys"])
        _assert_same_waveforms(rerun, cold)
        assert rerun.model_used == cold.model_used
        if single_flight:
            assert store.dedupe_stats() == {"waits": 0, "hits": 0}

        warm_engine = CSMEngine(netlist, models, options=options, cache=store)
        _assert_same_waveforms(warm_engine.run(waveforms, t_stop=t_stop), cold)
        assert warm_engine.last_stats.integrations == 0

    def test_hybrid_warm_repeat_is_bitwise(self, library, models, options, tmp_path):
        netlist = generate_netlist(library, DAG)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        store = PackedStore(tmp_path / "store")
        cold = HybridEngine(netlist, models, options=options, cache=store, top_k=2).run(
            waveforms, t_stop=t_stop
        )
        warm_engine = HybridEngine(netlist, models, options=options, cache=store, top_k=2)
        warm = warm_engine.run(waveforms, t_stop=t_stop)
        # Every refined instance comes from the store once, then the memo.
        assert warm.stats["cache_hits"] == len(warm.refined_instances) > 0
        assert warm.stats["integrations"] == len(netlist.instances)  # the survey
        assert warm_engine.csm.last_stats.integrations == 0
        assert warm.exact_nets == cold.exact_nets
        assert warm.nldm.events == cold.nldm.events
        assert warm.nldm.mis_flags == cold.nldm.mis_flags
        _assert_same_waveforms(warm, cold)

    def test_server_eco_pairs_write_under_100kb_each(self, library, options, tmp_path):
        service = TimingService(
            models=TimingModelLibrary(
                library=library,
                config=CharacterizationConfig(io_grid_points=5),
                cache=PackedStore(tmp_path / "models"),
            ),
            options=options,
            store=PackedStore(tmp_path / "store"),
        )
        netlist = generate_netlist(library, "dag:w16:d4")
        session = service.open_session({"netlist": netlist.to_dict()})["session"]
        cold = service.timing(session)
        assert cold["stats"]["integrations"] == len(netlist.instances)
        store = service.store.inner

        def store_bytes() -> int:
            return sum(store.file_sizes().values())

        swappable = [
            name
            for name, instance in netlist.instances.items()
            if swap_partner(library, instance.cell_name) is not None
        ]
        rng = np.random.default_rng(3)
        growth = []
        for _ in range(20):
            name = swappable[int(rng.integers(len(swappable)))]
            cell = service._sessions[session].netlist.instances[name].cell_name
            before = store_bytes()
            service.eco(session, [{"kind": "swap_cell", "instance": name, "cell": _partner(library, cell)}])
            timed = service.timing(session)
            assert not timed["coalesced"]
            growth.append(store_bytes() - before)
        assert sum(growth) / len(growth) < 100_000, growth


# ----------------------------------------------------------------------
# One netlist digest per revision
# ----------------------------------------------------------------------
class TestNetlistDigestMemo:
    def test_digest_is_the_unmemoized_content_hash(self, library):
        netlist = generate_netlist(library, DAG)
        for salt in (NETLIST_DIGEST_SALT, "server-design"):
            assert netlist.content_digest(salt) == content_hash(
                salt, netlist_fingerprint(netlist)
            )

    def test_every_edit_moves_the_digest(self, library, technology):
        netlist = generate_netlist(library, DAG)
        original = netlist.content_digest("sta-netlist")
        nand = library["NAND2_X1"]
        seen = {original}

        def moved():
            digest = netlist.content_digest("sta-netlist")
            assert digest not in seen
            assert digest == content_hash("sta-netlist", netlist_fingerprint(netlist))
            seen.add(digest)

        first_input = netlist.primary_inputs[0]
        netlist.add_instance(
            "extra",
            "NAND2_X1",
            {nand.inputs[0]: first_input, nand.inputs[1]: first_input, nand.output: "extra_out"},
        )
        moved()
        netlist.add_primary_input("extra_in")
        moved()
        netlist.add_primary_output("extra_out")
        moved()
        netlist.set_wire_capacitance("extra_out", 1e-15)
        moved()
        netlist.swap_cell("extra", _partner(library, "NAND2_X1"))
        moved()
        netlist.rewire_pin("extra", nand.inputs[0], "extra_in")
        moved()
        netlist.library = default_library(apply_corner(technology, STANDARD_CORNERS["FF"]))
        moved()

    def test_swap_back_restores_the_digest(self, library):
        netlist = generate_netlist(library, DAG)
        original = netlist.content_digest("sta-netlist")
        name, cell_name = _swappable(netlist)
        netlist.swap_cell(name, _partner(library, cell_name))
        assert netlist.content_digest("sta-netlist") != original
        netlist.swap_cell(name, cell_name)
        assert netlist.content_digest("sta-netlist") == original

    def test_copy_starts_with_its_own_memo(self, library):
        netlist = generate_netlist(library, DAG)
        original = netlist.content_digest("sta-netlist")
        duplicate = netlist.copy()
        assert duplicate._digest_cache == {}
        assert duplicate.content_digest("sta-netlist") == original
        name, cell_name = _swappable(duplicate)
        duplicate.swap_cell(name, _partner(library, cell_name))
        assert duplicate.content_digest("sta-netlist") != original
        assert netlist.content_digest("sta-netlist") == original

    def test_hybrid_hashes_each_revision_once(
        self, library, models, options, monkeypatch, tmp_path
    ):
        """A hybrid timing request digests the design once, for the
        server's request key; the engines themselves digest nothing."""
        netlist = generate_netlist(library, DAG)
        calls = []
        real = netlist_module.netlist_fingerprint

        def counting(target):
            calls.append(target.revision)
            return real(target)

        monkeypatch.setattr(netlist_module, "netlist_fingerprint", counting)
        service = TimingService(
            models=models, options=options, store=PackedStore(tmp_path / "store")
        )
        session = service.open_session({"netlist": netlist.to_dict()})["session"]
        record = service._sessions[session]
        calls.clear()  # opening a session digests the design for its id
        for _ in range(2):
            timed = service.timing(session, engine="hybrid", top_k=2)
            assert timed["engine"] == "hybrid", timed
            assert calls == [record.netlist.revision]


def _partner(library, cell_name: str) -> str:
    partner = swap_partner(library, cell_name)
    assert partner is not None, cell_name
    return partner


def _swappable(netlist: GateNetlist):
    """``(instance name, cell name)`` of the first instance with a partner."""
    for name, instance in netlist.instances.items():
        if swap_partner(netlist.library, instance.cell_name) is not None:
            return name, instance.cell_name
    raise AssertionError("no swappable instance")
