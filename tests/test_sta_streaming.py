"""Streaming-vs-resident equivalence for the bounded-memory STA mode (PR 9).

``memory_mode="stream"`` must change *memory behaviour only*: every waveform
sample, every arrival, every model choice and every propagation-cache key has
to match the resident engine bit for bit — cold and warm.  The NLDM
engine has no streaming mode: the server serves a stream request with its
one resident engine.  The
hypothesis property drives random DAG shapes (hence random retire orders)
under tiny hot-set budgets, so retired-then-reread nets exercise the fault
path rather than silently reading stale rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.runtime import PackedStore
from repro.runtime.server import TimingService
from repro.sta import (
    CSMEngine,
    NLDMEngine,
    TimingModelLibrary,
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
)

#: The 256-gate reference design named by the acceptance criteria.
REFERENCE_SPEC = "dag:w32:d8:s11"


@pytest.fixture(scope="module")
def models(library, warm_up):
    return warm_up(
        TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


@pytest.fixture(scope="module")
def reference_netlist(library):
    return generate_netlist(library, REFERENCE_SPEC)


def _assert_bitwise_equal(streamed, resident):
    assert set(streamed.waveforms) == set(resident.waveforms)
    for net in resident.waveforms:
        assert np.array_equal(
            streamed.waveforms[net].values, resident.waveforms[net].values
        ), net
        assert np.array_equal(
            streamed.waveforms[net].times, resident.waveforms[net].times
        ), net
    assert streamed.model_used == resident.model_used


class TestCSMStreamingEquivalence:
    def test_cold_and_warm_runs_bitwise_equal(
        self, reference_netlist, models, options, tmp_path
    ):
        netlist = reference_netlist
        waveforms = primary_input_waveforms(netlist, seed=0)
        resident_store = PackedStore(tmp_path / "resident")
        stream_store = PackedStore(tmp_path / "stream")
        resident = CSMEngine(netlist, models, options=options, cache=resident_store)
        streaming = CSMEngine(
            netlist,
            models,
            options=options,
            cache=stream_store,
            memory_mode="stream",
            memory_budget_bytes=1 << 20,
        )

        resident_result = resident.run(waveforms)
        stream_result = streaming.run(waveforms)
        _assert_bitwise_equal(stream_result, resident_result)

        # Arrivals derive from the waveforms, but check the reporting path
        # end-to-end on the primary outputs too (some outputs legitimately
        # never cross 50% Vdd — both modes must agree on that as well).
        for net in netlist.primary_outputs:
            try:
                resident_arrival = resident_result.arrival(net)
            except TimingError:
                with pytest.raises(TimingError):
                    stream_result.arrival(net)
            else:
                assert stream_result.arrival(net) == resident_arrival

        stats = streaming.last_stats
        assert stats.integrations == len(netlist.instances)
        assert stats.spills > 0

        # Identical propagation-cache keys: streaming stores exactly the
        # per-instance and level records resident does.
        assert set(stream_store.keys()) == set(resident_store.keys())

        # Warm repeat through fresh engines over the same stores: the
        # streaming engine must serve every instance from disk (zero
        # integrations) and still match bitwise.
        warm_resident = CSMEngine(
            netlist, models, options=options, cache=resident_store
        )
        warm_streaming = CSMEngine(
            netlist,
            models,
            options=options,
            cache=stream_store,
            memory_mode="stream",
            memory_budget_bytes=1 << 20,
        )
        warm_resident_result = warm_resident.run(waveforms)
        warm_stream_result = warm_streaming.run(waveforms)
        _assert_bitwise_equal(warm_stream_result, warm_resident_result)
        _assert_bitwise_equal(warm_stream_result, resident_result)
        assert warm_streaming.last_stats.integrations == 0
        assert warm_streaming.last_stats.cache_hits == len(netlist.instances)

    def test_tiny_budget_faults_retired_levels_back(
        self, reference_netlist, models, options, tmp_path
    ):
        """A zero budget keeps at most one hot level, so deep fanins must
        fault retired levels back in — and still match resident bitwise."""
        netlist = reference_netlist
        waveforms = primary_input_waveforms(netlist, seed=0)
        resident = CSMEngine(netlist, models, options=options, use_cache=False)
        streaming = CSMEngine(
            netlist,
            models,
            options=options,
            cache=PackedStore(tmp_path / "tiny"),
            memory_mode="stream",
            memory_budget_bytes=0,
        )
        resident_result = resident.run(waveforms)
        stream_result = streaming.run(waveforms)
        _assert_bitwise_equal(stream_result, resident_result)
        # The lazy result mapping keeps working after the run: spot-check a
        # retired (spilled) net faulting back through the store.
        stats = streaming.last_stats
        assert stats.spills > 0

    def test_stream_requires_a_store_and_streams_the_oracle_bitwise(
        self, library, reference_netlist, models, options, tmp_path
    ):
        with pytest.raises(TimingError):
            CSMEngine(
                reference_netlist,
                models,
                options=options,
                cache=None,
                memory_mode="stream",
            )
        # The per-instance oracle streams like the lockstep evaluator: a
        # zero budget faults retired levels back, bitwise the resident run.
        netlist = generate_netlist(library, "dag:w8:d4:s3")
        waveforms = primary_input_waveforms(netlist, seed=0)
        resident = CSMEngine(
            netlist, models, options=options, batched=False, use_cache=False
        ).run(waveforms)
        store = PackedStore(tmp_path / "oracle")
        streaming = CSMEngine(
            netlist,
            models,
            options=options,
            cache=store,
            memory_mode="stream",
            memory_budget_bytes=0,
            batched=False,
        )
        _assert_bitwise_equal(streaming.run(waveforms), resident)
        assert streaming.last_stats.spills > 0
        with pytest.raises(TimingError):
            CSMEngine(
                reference_netlist,
                models,
                options=options,
                cache=store,
                memory_mode="nonsense",
            )


class TestStreamingPins:
    def test_repeated_run_pins_every_level_its_result_references(
        self, library, models, options, tmp_path
    ):
        """A second streaming run on one engine serves its levels from the
        hot LRU after releasing the first run's pins; it must pin them
        again, or the store could evict the records its lazy result reads."""
        netlist = generate_netlist(library, "dag:w8:d4:s3")
        waveforms = primary_input_waveforms(netlist, seed=0)
        store = PackedStore(tmp_path / "pins")
        engine = CSMEngine(
            netlist, models, options=options, cache=store, memory_mode="stream"
        )
        engine.run(waveforms)
        result = engine.run(waveforms)
        assert engine.last_stats.integrations == 0

        level_keys = {level_key for level_key, _ in result.waveforms._pointers.values()}
        assert level_keys
        assert level_keys <= set(store.pinned_keys())
        for level_key in sorted(level_keys):
            assert not store.evict(level_key)
        for net in result.waveforms:
            assert len(result.waveforms[net].values) > 0


def _event_bits(result):
    events = {
        net: (event.net, event.arrival.hex(), event.slew.hex(), event.rising)
        for net, event in result.events.items()
    }
    return events, result.mis_flags


class TestNLDMStreamingEquivalence:
    def test_cold_and_warm_events_equal(self, models):
        """The NLDM engine keeps nothing between levels but the events it
        publishes, so there is nothing to stream: the server serves
        ``memory_mode="stream"`` with the session's one NLDM engine.  Its
        cold run and its warm repeat each evaluate every instance, spill and
        fault nothing, and give a fresh resident engine's events bitwise."""
        service = TimingService(models=models)
        record = service._sessions[
            service.open_session({"generate": REFERENCE_SPEC})["session"]
        ]
        streaming = service._engine(
            record, "nldm", memory_mode="stream", memory_budget_bytes=0
        )
        assert streaming is service._engine(record, "nldm")
        netlist = record.netlist
        events = primary_input_events(netlist, seed=0)
        expected = _event_bits(NLDMEngine(netlist, models).run(events))
        for _ in ("cold", "warm"):
            assert _event_bits(streaming.run(events)) == expected
            stats = streaming.last_stats
            assert stats.integrations == len(netlist.instances)
            assert (stats.spills, stats.faults) == (0, 0)


class TestStreamingProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=5),
        depth=st.integers(min_value=2, max_value=5),
        netlist_seed=st.integers(min_value=0, max_value=7),
        budget=st.sampled_from([0, 4096, 1 << 20]),
        cone_output=st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    )
    def test_random_retire_orders_never_misread_a_net(
        self,
        library,
        models,
        options,
        tmp_path_factory,
        width,
        depth,
        netlist_seed,
        budget,
        cone_output,
    ):
        """Random DAG shapes randomize which level last reads each net (and
        hence the retire schedule); under any hot-set budget a
        retired-then-reread net must fault back identical samples, so the
        streamed result always equals the resident one bitwise.  With a cone
        drawn (the fan-in cone of a random primary output, which is closed),
        the ``only=`` runs of both modes must agree bitwise too."""
        spec = f"dag:w{width}:d{depth}:s{netlist_seed}"
        netlist = generate_netlist(library, spec)
        waveforms = primary_input_waveforms(netlist, seed=0)
        only = None
        if cone_output is not None:
            outputs = netlist.primary_outputs
            only = set(netlist.fanin_cone(outputs[cone_output % len(outputs)]))
        resident = CSMEngine(netlist, models, options=options, use_cache=False)
        streaming = CSMEngine(
            netlist,
            models,
            options=options,
            cache=PackedStore(tmp_path_factory.mktemp("stream-prop")),
            memory_mode="stream",
            memory_budget_bytes=budget,
        )
        resident_result = resident.run(waveforms, only=only)
        stream_result = streaming.run(waveforms, only=only)
        _assert_bitwise_equal(stream_result, resident_result)
