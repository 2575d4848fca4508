"""Store traffic of the hybrid survey: O(levels) commits, slim run entries.

The invariants pinned here:

* the NLDM engine commits each level's per-instance events with ONE
  ``store_many`` — resident, streaming and multi-corner — leaving exactly the
  keys, values and :class:`PropagationStats` per-instance ``store`` calls
  produced, same-level duplicate keys included (and, under the server's
  single-flight store, without waiting on the run's own claims);
* single-corner CSM whole-run entries, plain and restricted, are key
  manifests (``{net: propagation key}`` plus the model choice, no samples):
  a warm hit resolves every key through the per-instance entries, re-attaches
  the primary inputs from the caller's stimuli and is bitwise the cold
  result, while one unresolvable key makes the lookup an ordinary miss;
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
from repro.sta import netlist as netlist_module
from repro.sta.events import detect_mis_pairs
from repro.sta.generate import default_time_window
from repro.sta.mmmc import CornerSet
from repro.sta.netlist import NETLIST_DIGEST_SALT, GateNetlist, swap_partner
from repro.technology.corners import STANDARD_CORNERS, apply_corner

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


class _CountingStore:
    """Forwards to a real store, recording every ``store``/``store_many``."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []
        self.singles = []

    def lookup(self, key):
        return self.inner.lookup(key)

    def lookup_many(self, keys):
        return self.inner.lookup_many(keys)

    def store(self, key, value):
        self.singles.append(key)
        self.inner.store(key, value)

    def store_many(self, items):
        items = list(items)
        self.batches.append([key for key, _ in items])
        self.inner.store_many(items)


def _entries(store, keys):
    values = {}
    for key in keys:
        hit, value = store.lookup(key)
        assert hit, key
        values[key] = (
            None if value["event"] is None else tuple(value["event"]),
            [tuple(pair) for pair in value["mis"]],
        )
    return values


# ----------------------------------------------------------------------
# NLDM: one store transaction per level
# ----------------------------------------------------------------------
class TestNLDMPerLevelCommit:
    @pytest.mark.parametrize("memory_mode", ["resident", "stream"])
    @pytest.mark.parametrize("design", ["twins", DAG])
    def test_per_level_commit_matches_per_instance_stores(
        self, library, models, tmp_path, memory_mode, design
    ):
        if design == "twins":
            netlist = _twin_netlist(library)
        else:
            netlist = generate_netlist(library, design)
        events = primary_input_events(netlist, seed=0)
        reference_store = _PerItemStore()
        reference = NLDMEngine(netlist, models, cache=reference_store, memory_mode=memory_mode)
        expected = reference.run(events)

        store = _CountingStore(PackedStore(tmp_path / "packed"))
        engine = NLDMEngine(netlist, models, cache=store, memory_mode=memory_mode)
        result = engine.run(events)

        assert result.events == expected.events
        assert result.mis_flags == expected.mis_flags
        assert engine.last_stats == reference.last_stats
        # One transaction per level; only the whole-run entry (resident
        # mode) is a single store.
        levels = engine.levels()
        assert len(store.batches) == len(levels)
        run_keys = [] if memory_mode == "stream" else [engine.last_run_key]
        assert store.singles == run_keys
        per_instance = {key for batch in store.batches for key in batch}
        assert per_instance == set(reference_store.entries) - set(run_keys)
        assert _entries(store, per_instance) == _entries(reference_store, per_instance)

    def test_same_level_duplicates_keep_their_stats(self, library, models, tmp_path):
        netlist = _twin_netlist(library)
        events = primary_input_events(netlist, seed=0)
        resident = NLDMEngine(netlist, models, cache=PackedStore(tmp_path / "resident"))
        resident.run(events)
        stats = resident.last_stats
        assert (stats.integrations, stats.memo_hits, stats.cache_hits) == (2, 2, 0)
        assert stats.stores == 2

        streaming = NLDMEngine(
            netlist, models, cache=PackedStore(tmp_path / "stream"), memory_mode="stream"
        )
        streaming.run(events)
        stats = streaming.last_stats
        assert (stats.integrations, stats.cache_hits, stats.faults) == (2, 2, 2)
        assert (stats.stores, stats.spills, stats.memo_hits) == (2, 2, 0)

    def test_stream_under_single_flight_store_never_waits_on_itself(
        self, library, models, tmp_path
    ):
        netlist = _twin_netlist(library)
        events = primary_input_events(netlist, seed=0)
        plain = NLDMEngine(
            netlist, models, cache=PackedStore(tmp_path / "plain"), memory_mode="stream"
        )
        expected = plain.run(events)

        store = SingleFlightStore(PackedStore(tmp_path / "flight"), wait_timeout=5.0)
        engine = NLDMEngine(netlist, models, cache=store, memory_mode="stream")
        result = engine.run(events)
        assert store.dedupe_waits == 0
        assert engine.last_stats == plain.last_stats
        assert result.events == expected.events

    def test_multicorner_commits_once_per_level(self, technology, tmp_path, warm_up):
        corners = warm_up(
            CornerSet.from_names(
                ["TT", "FF"],
                technology=technology,
                config=CharacterizationConfig(io_grid_points=5),
            )
        )
        netlist = _twin_netlist(corners.reference.library)
        events = primary_input_events(netlist, seed=0)
        reference_store = _PerItemStore()
        reference = NLDMEngine(
            netlist, corners.reference.models, cache=reference_store, corners=corners
        )
        expected = reference.run(events)

        store = _CountingStore(PackedStore(tmp_path / "packed"))
        engine = NLDMEngine(netlist, corners.reference.models, cache=store, corners=corners)
        result = engine.run(events)

        # Each corner is its own single-corner run: one commit per level and
        # one whole-run entry per corner.
        assert len(store.batches) == len(engine.levels()) * len(corners)
        run_keys = [child.last_run_key for child in engine._corner_engines.values()]
        assert store.singles == run_keys
        assert result.stats == expected.stats
        for name in corners.names:
            assert result.results[name].events == expected.results[name].events
        per_instance = {key for batch in store.batches for key in batch}
        assert per_instance == set(reference_store.entries) - set(run_keys)
        assert _entries(store, per_instance) == _entries(reference_store, per_instance)

        # Every corner's whole-run entry decodes back (columnar) to a hit.
        warm = NLDMEngine(netlist, corners.reference.models, cache=store.inner, corners=corners)
        again = warm.run(events)
        assert warm.last_stats.full_run_hit
        for name in corners.names:
            assert again.results[name].events == result.results[name].events
            assert again.results[name].mis_flags == result.results[name].mis_flags


# ----------------------------------------------------------------------
# NLDM: the level-batched survey equals a per-instance oracle
# ----------------------------------------------------------------------
class _PerInstanceOracle:
    """The NLDM level loop evaluated one instance at a time.

    Scalar :meth:`NLDMTable.delay` / :meth:`NLDMTable.output_slew` and
    :func:`detect_mis_pairs` per instance, the latest arc winning (first pin
    on ties); memo, then the level's pending entries, then one store lookup
    per key; one commit per level and a whole-run entry in resident mode.
    Keys, loads and levels come from the engine under test, so the oracle
    checks evaluation and accounting, not key derivation.
    """

    def __init__(self, engine: NLDMEngine):
        self.engine = engine
        self.streaming = engine.memory_mode == "stream"
        self.memo = {}
        self.store = _PerItemStore()
        self.run_keys = set()

    def _lookup(self, key, pending, stats):
        if key in self.memo:
            stats.memo_hits += 1
            return self.memo[key]
        hit, value = (True, pending[key]) if key in pending else self.store.lookup(key)
        if not hit:
            return None
        cached = (value["event"], value["mis"])
        stats.cache_hits += 1
        if self.streaming:
            stats.faults += 1
        else:
            self.memo[key] = cached
        return cached

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
        levels = engine.levels()
        stats = PropagationStats(instances=len(engine.netlist.instances))
        net_keys = engine.stimulus_keys(input_events)
        context = engine._context_digest()
        run_key = None
        if not self.streaming:
            run_key = content_hash(
                "nldm-run",
                context,
                engine._netlist_digest(),
                engine._model_library_digest(),
                sorted(net_keys.items()),
            )
            hit, value = self.store.lookup(run_key)
            if hit:
                stats.full_run_hit = True
                return value[0], value[1], stats
        events = dict(input_events)
        mis_flags = {}
        for level in levels:
            pending = {}
            for instance in level:
                stats.keyed += 1
                cell = engine._cell(instance)
                output_net = instance.connections[cell.output]
                load = engine._lumped_output_load(instance)
                inputs = [
                    (pin, net_keys.get(instance.connections[pin], "stable"))
                    for pin in cell.inputs
                ]
                key = content_hash(
                    "nldm-propagation", context, engine._cell_digest(instance.cell_name), load, inputs
                )
                net_keys[output_net] = key
                cached = self._lookup(key, pending, stats)
                if cached is None:
                    cached = self._evaluate(instance, cell, load, events, stats)
                    stats.integrations += 1
                    if self.streaming:
                        stats.spills += 1
                    else:
                        self.memo[key] = cached
                    pending[key] = {"event": cached[0], "mis": cached[1]}
                    stats.stores += 1
                fields, pairs = cached
                mis_flags[instance.name] = list(pairs)
                if fields is not None:
                    events[output_net] = TimingEvent(output_net, *fields)
            self.store.store_many(pending.items())
        if run_key is not None:
            self.run_keys.add(run_key)
            self.store.store(run_key, (events, mis_flags))
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
    per_instance = set(oracle.store.entries) - oracle.run_keys
    assert set(engine.cache.entries) - oracle.run_keys == per_instance
    assert _entries(engine.cache, per_instance) == _entries(oracle.store, per_instance)


class TestNLDMLevelBatchOracle:
    """Events, MIS pairs and stats of the level-batched survey are bitwise
    those of the per-instance walk: cold, warm and after an ECO swap, in
    resident and streaming mode."""

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
        netlist = generate_netlist(library, f"dag:w{width}:d{depth}:s{seed}")
        events = primary_input_events(netlist, seed=stimulus_seed)
        engine = NLDMEngine(netlist, models, cache=_PerItemStore(), memory_mode=memory_mode)
        oracle = _PerInstanceOracle(engine)
        _assert_matches_oracle(engine, oracle, events)  # cold
        _assert_matches_oracle(engine, oracle, events)  # warm
        swappable = [
            name
            for name, instance in netlist.instances.items()
            if swap_partner(library, instance.cell_name) is not None
        ]
        if swappable:
            name = swappable[swap_pick % len(swappable)]
            netlist.swap_cell(name, swap_partner(library, netlist.instances[name].cell_name))
        _assert_matches_oracle(engine, oracle, events)  # after one swap_cell

    @pytest.mark.parametrize("memory_mode", ["resident", "stream"])
    def test_same_level_duplicates_match_the_oracle(self, library, models, memory_mode):
        netlist = _twin_netlist(library, extra_inputs=2)
        events = primary_input_events(netlist, seed=3)
        engine = NLDMEngine(netlist, models, cache=_PerItemStore(), memory_mode=memory_mode)
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
        engine = NLDMEngine(netlist, models, use_cache=False)
        engine.run(events)
        assert engine.last_stats.integrations == 6
        assert engine.last_stats.clamped_lookups == 0

    def test_load_beyond_the_axis_is_counted_and_folded_by_hybrid(
        self, library, models, options
    ):
        netlist, events = self._chain(library, 10e-15)
        heavy = netlist.instances["u2"]
        netlist.set_wire_capacitance(heavy.connections[library["INV_X1"].output], 40e-15)
        engine = NLDMEngine(netlist, models, use_cache=False)
        assert engine._lumped_output_load(heavy) > models.nldm_loads[-1]
        engine.run(events)
        assert engine.last_stats.clamped_lookups >= 1
        # A warm repeat evaluates (and so counts) nothing.
        cached = NLDMEngine(netlist, models, cache=_PerItemStore())
        cached.run(events)
        assert cached.last_stats.clamped_lookups == engine.last_stats.clamped_lookups
        cached.run(events)
        assert cached.last_stats.clamped_lookups == 0

        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        hybrid = HybridEngine(netlist, models, options=options, cache=_PerItemStore(), top_k=0)
        result = hybrid.run(waveforms, t_stop=t_stop)
        survey = hybrid.nldm.last_stats.clamped_lookups
        assert survey >= 1
        assert result.stats["clamped_lookups"] == survey


# ----------------------------------------------------------------------
# CSM: whole-run entries without the stimuli
# ----------------------------------------------------------------------
def _assert_same_waveforms(warm, cold):
    assert list(warm.waveforms) == list(cold.waveforms)
    for net, wave in cold.waveforms.items():
        assert warm.waveforms[net].name == wave.name
        assert np.array_equal(warm.waveforms[net].times, wave.times), net
        assert np.array_equal(warm.waveforms[net].values, wave.values), net


def _manifest_bytes(store, key) -> int:
    """Encoded size of a whole-run entry (the store's own framing, whose
    checksum and timestamp digits vary, left out)."""
    hit, entry = store.lookup(key)
    assert hit
    manifest, arrays = encode_payload(entry)
    assert arrays == {}
    return len(json.dumps(manifest, separators=(",", ":")))


class TestStimulusFreeRunEntries:
    """Whole-run entries are key manifests: ``{net: propagation key}`` for
    the propagated nets plus the model choice, and not one sample."""

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

        hit, entry = store.lookup(engine.last_run_key)
        assert hit
        assert set(entry) == {"t", "nets", "keys", "model_used"}
        assert entry["t"] == "run-manifest"
        propagated = [net for net in cold.waveforms if net not in netlist.primary_inputs]
        assert entry["nets"] == propagated
        assert all(isinstance(key, str) and len(key) == 64 for key in entry["keys"])
        assert entry["model_used"] == cold.model_used
        assert encode_payload(entry)[1] == {}  # keys only: no arrays at all

        warm_engine = CSMEngine(netlist, models, options=options, cache=store)
        warm = warm_engine.run(waveforms, t_stop=t_stop, only=only)
        assert warm_engine.last_stats == PropagationStats(
            instances=len(only or netlist.instances), full_run_hit=True
        )
        assert warm.stats == warm_engine.last_stats.as_dict()
        _assert_same_waveforms(warm, cold)  # primary inputs included
        assert warm.model_used == cold.model_used
        assert (warm.netlist_name, warm.vdd) == (cold.netlist_name, cold.vdd)

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
            sizes.append(_manifest_bytes(store, engine.last_run_key))
        assert sizes[0] == sizes[1]

    def test_entry_does_not_grow_with_samples(self, library, models, options, tmp_path):
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
            sizes.append(_manifest_bytes(store, engine.last_run_key))
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
            # The server's wrapper: the failed manifest resolution and the
            # re-run read the same missing level record, and the re-run must
            # not wait on a claim of its own.
            store = SingleFlightStore(store, wait_timeout=30.0)
        engine = CSMEngine(netlist, models, options=options, cache=store)
        cold = engine.run(waveforms, t_stop=t_stop)
        _, manifest = store.lookup(engine.last_run_key)
        # The level record behind the middle level's rows.
        middle = engine.levels()[1][0]
        net = middle.connections[library[middle.cell_name].output]
        _, pointer = store.lookup(manifest["keys"][manifest["nets"].index(net)])
        _, record = store.lookup(pointer["level"])
        assert store.evict(pointer["level"])

        rerun_engine = CSMEngine(netlist, models, options=options, cache=store)
        rerun = rerun_engine.run(waveforms, t_stop=t_stop)
        stats = rerun_engine.last_stats
        assert not stats.full_run_hit
        assert stats.integrations == len(record["keys"])
        _assert_same_waveforms(rerun, cold)
        assert rerun.model_used == cold.model_used
        if single_flight:
            assert store.dedupe_stats() == {"waits": 0, "hits": 0}

        warm_engine = CSMEngine(netlist, models, options=options, cache=store)
        _assert_same_waveforms(warm_engine.run(waveforms, t_stop=t_stop), cold)
        assert warm_engine.last_stats.full_run_hit

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
        assert warm_engine.nldm.last_stats.full_run_hit
        assert warm_engine.csm.last_stats.full_run_hit
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

    def test_hybrid_hashes_each_revision_once(self, library, models, options, monkeypatch):
        netlist = generate_netlist(library, DAG)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        calls = []
        real = netlist_module.netlist_fingerprint

        def counting(target):
            calls.append(target.revision)
            return real(target)

        monkeypatch.setattr(netlist_module, "netlist_fingerprint", counting)
        hybrid = HybridEngine(netlist, models, options=options, cache=_PerItemStore(), top_k=2)
        hybrid.run(waveforms, t_stop=t_stop)
        assert calls == [netlist.revision]
        hybrid.run(waveforms, t_stop=t_stop)
        assert calls == [netlist.revision]


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
