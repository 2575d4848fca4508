"""MMMC tests.

The invariants:

* a run over a :class:`CornerSet` is one single-corner run per corner, so
  every corner is **bitwise** its single-corner run — CSM waveforms
  (resident, streaming and ``batched=False``) and NLDM events;
* per-corner cache namespaces are disjoint — a warm repeat integrates
  nothing in any corner, and a fresh engine resolves each instance-corner
  pair through its own level-row pointer;
* single-corner keys name the corner of the bound models: a store filled
  against one corner's models never serves another corner's CSM run, and
  an NLDM engine carries nothing from one corner's run into the next;
* a cell fingerprint names the technology's content, not its name: the TT
  corner re-uses a plain run's characterizations, FF does not;
* the multi-corner level tensor round-trips bitwise through the result
  store codec (hypothesis property over the corner axis);
* :class:`TimingEngine.connectivity` rebuilds when an ECO bumps the
  netlist revision (the stale receiver-CSR regression).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.runtime import PackedStore
from repro.runtime.cache import decode_payload, encode_payload
from repro.runtime.jobs import cell_fingerprint, content_hash
from repro.runtime.server import TimingService
from repro.sta import (
    CSMEngine,
    NLDMEngine,
    TimingModelLibrary,
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
    waveform_deviation,
)
from repro.sta.generate import default_time_window
from repro.sta.mmmc import CornerSet, MulticornerResult, required_time
from repro.waveform.level_tensor import LevelTensor

CORNERS = ["TT", "FF", "SS"]


@pytest.fixture(scope="module")
def corner_set(technology, warm_up):
    """Three standard corners over the shared base technology (coarse grids)."""
    corner_set = CornerSet.from_names(
        CORNERS,
        technology=technology,
        config=CharacterizationConfig(io_grid_points=5),
    )
    return warm_up(corner_set)


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


@pytest.fixture(scope="module")
def netlist(corner_set):
    return generate_netlist(corner_set.reference.library, "dag:w6:d3:s5")


@pytest.fixture(scope="module")
def stimulus(netlist):
    t_stop = default_time_window(netlist)
    return primary_input_waveforms(netlist, t_stop=t_stop, seed=0), t_stop


def _assert_bitwise(result, reference):
    assert list(result.waveforms) == list(reference.waveforms)
    assert result.model_used == reference.model_used
    for net, wave in reference.waveforms.items():
        np.testing.assert_array_equal(result.waveforms[net].times, wave.times)
        np.testing.assert_array_equal(result.waveforms[net].values, wave.values)


# ----------------------------------------------------------------------
# CornerSet basics
# ----------------------------------------------------------------------
class TestCornerSet:
    def test_names_and_reference(self, corner_set):
        assert corner_set.names == CORNERS
        assert corner_set.reference.name == "TT"
        assert [cc.name for cc in corner_set.contexts] == CORNERS

    def test_reference_falls_back_to_first(self, technology):
        cs = CornerSet.from_names(["FF", "SS"], technology=technology)
        assert cs.reference.name == "FF"

    def test_unknown_corner_rejected(self, technology):
        with pytest.raises(TimingError, match="unknown corner"):
            CornerSet.from_names(["TT", "XX"], technology=technology)

    def test_duplicate_corner_rejected(self, technology):
        with pytest.raises(TimingError, match="unique"):
            CornerSet.from_names(["TT", "TT"], technology=technology)


# ----------------------------------------------------------------------
# MMMC vs per-corner single-corner runs: bitwise
# ----------------------------------------------------------------------
class TestBatchedEquivalence:
    def test_csm_matches_serial_per_corner(self, corner_set, netlist, options, stimulus):
        waveforms, t_stop = stimulus
        batched = CSMEngine(
            netlist, corner_set.reference.models, options=options, corners=corner_set
        )
        multi = batched.run(waveforms, t_stop=t_stop)
        assert isinstance(multi, MulticornerResult)
        assert multi.corner_order == CORNERS
        for name in CORNERS:
            serial = CSMEngine(netlist, corner_set[name].models, options=options)
            reference = serial.run(waveforms, t_stop=t_stop)
            deviation = waveform_deviation(multi.result(name), reference)
            assert deviation == 0.0, f"{name}: {deviation:.3e} V"
            assert multi.result(name).model_used == reference.model_used

    def test_stream_csm_mmmc_matches_resident(
        self, corner_set, netlist, options, stimulus, tmp_path
    ):
        waveforms, t_stop = stimulus
        resident = CSMEngine(
            netlist, corner_set.reference.models, options=options, corners=corner_set
        ).run(waveforms, t_stop=t_stop)
        store = PackedStore(tmp_path / "stream")
        try:
            stream = CSMEngine(
                netlist,
                corner_set.reference.models,
                options=options,
                corners=corner_set,
                cache=store,
                memory_mode="stream",
                memory_budget_bytes=1 << 14,
            )
            streamed = stream.run(waveforms, t_stop=t_stop)
            assert stream.last_stats.spills > 0
            for name in CORNERS:
                _assert_bitwise(streamed.result(name), resident.result(name))
        finally:
            store.close()

    def test_stream_nldm_mmmc_matches_resident(self, corner_set, netlist):
        """A stream-mode multi-corner NLDM request is served by the session's
        one NLDM engine for the corner list: every corner bitwise the
        resident engine's, with nothing spilled or faulted."""
        events = primary_input_events(netlist, seed=0)
        resident = NLDMEngine(
            netlist, corner_set.reference.models, corners=corner_set
        ).run(events)
        service = TimingService(models=corner_set.reference.models)
        service._corner_sets[tuple(CORNERS)] = corner_set
        record = service._sessions[
            service.open_session({"generate": "dag:w6:d3:s5"})["session"]
        ]
        engine = service._engine(record, "nldm", tuple(CORNERS), memory_mode="stream")
        assert engine is service._engine(record, "nldm", tuple(CORNERS))
        streamed = engine.run(events)
        for name in CORNERS:
            assert streamed.result(name).events == resident.result(name).events
            assert streamed.result(name).mis_flags == resident.result(name).mis_flags
            stats = streamed.stats[name]
            assert (stats["spills"], stats["faults"]) == (0, 0)

    def test_sequential_mmmc_matches_sequential_runs(
        self, corner_set, netlist, options, stimulus
    ):
        waveforms, t_stop = stimulus
        multi = CSMEngine(
            netlist,
            corner_set.reference.models,
            options=options,
            corners=corner_set,
            batched=False,
        ).run(waveforms, t_stop=t_stop)
        for name in CORNERS:
            reference = CSMEngine(
                netlist, corner_set[name].models, options=options, batched=False
            ).run(waveforms, t_stop=t_stop)
            _assert_bitwise(multi.result(name), reference)

    def test_nldm_matches_serial_per_corner(self, corner_set, netlist):
        events = primary_input_events(netlist, seed=0)
        batched = NLDMEngine(
            netlist, corner_set.reference.models, corners=corner_set
        )
        multi = batched.run(events)
        assert isinstance(multi, MulticornerResult)
        for name in CORNERS:
            serial = NLDMEngine(netlist, corner_set[name].models)
            reference = serial.run(events)
            assert multi.result(name).events == reference.events
            assert multi.result(name).mis_flags == reference.mis_flags
        assert set(multi.nets()) == {
            net for name in CORNERS for net in multi.result(name).events
        }

    def test_worst_merge_is_max_over_corners(self, corner_set, netlist, options, stimulus):
        waveforms, t_stop = stimulus
        engine = CSMEngine(
            netlist, corner_set.reference.models, options=options, corners=corner_set
        )
        multi = engine.run(waveforms, t_stop=t_stop)
        merged = multi.worst_arrivals()
        assert set(merged) == set(multi.nets())
        assert multi.report().count("\n") == len(merged)  # one line per net
        for net, worst in merged.items():
            per_corner = {}
            for name in CORNERS:
                try:
                    per_corner[name] = multi.result(name).arrival(net)
                except TimingError:
                    pass
            if not per_corner:
                assert worst is None
                continue
            corner, arrival = worst
            assert arrival == max(per_corner.values())
            assert per_corner[corner] == arrival
            assert multi.arrival(net) == arrival
        # Slack merge: the worst-arrival corner sets the minimum slack.
        slacks = multi.worst_slacks(1e-9)
        for net, worst in merged.items():
            if worst is None:
                assert slacks[net] is None
            else:
                assert slacks[net] == (worst[0], 1e-9 - worst[1])

    def test_worst_slacks_mapping_miss_raises_or_falls_back(
        self, corner_set, netlist, options, stimulus
    ):
        waveforms, t_stop = stimulus
        engine = CSMEngine(
            netlist, corner_set.reference.models, options=options, corners=corner_set
        )
        multi = engine.run(waveforms, t_stop=t_stop)
        switching = [net for net, worst in multi.worst_arrivals().items() if worst]
        covered, uncovered = switching[0], switching[1]
        # A mapping that misses a queried net is a descriptive TimingError
        # naming the net (this used to escape as a bare KeyError) ...
        with pytest.raises(TimingError, match=repr(uncovered)):
            multi.worst_slacks({covered: 1e-9}, nets=[covered, uncovered])
        # ... unless a default= fallback is given.
        slacks = multi.worst_slacks(
            {covered: 1e-9}, nets=[covered, uncovered], default=2e-9
        )
        corner, arrival = multi.worst_arrival(covered)
        assert slacks[covered] == (corner, 1e-9 - arrival)
        corner, arrival = multi.worst_arrival(uncovered)
        assert slacks[uncovered] == (corner, 2e-9 - arrival)
        # The shared resolver has the same semantics standalone.
        assert required_time({covered: 1e-9}, uncovered, 2e-9) == 2e-9
        with pytest.raises(TimingError, match="no entry for net"):
            required_time({covered: 1e-9}, uncovered)

    def test_worst_arrival_distinguishes_unknown_from_stable(
        self, corner_set, netlist, options, stimulus
    ):
        waveforms, t_stop = stimulus
        engine = CSMEngine(
            netlist, corner_set.reference.models, options=options, corners=corner_set
        )
        multi = engine.run(waveforms, t_stop=t_stop)
        with pytest.raises(TimingError, match="unknown net 'no_such_net'"):
            multi.worst_arrival("no_such_net")
        stable = [
            net
            for net, worst in multi.worst_arrivals().items()
            if worst is None
        ]
        if stable:  # the seeded DAG usually has at least one stable net
            with pytest.raises(TimingError, match="never switches at any corner"):
                multi.worst_arrival(stable[0])


# ----------------------------------------------------------------------
# Per-corner caching: warm repeats, pointer resolution, namespaces
# ----------------------------------------------------------------------
class TestMulticornerCaching:
    @pytest.fixture()
    def cache(self, tmp_path):
        return PackedStore(tmp_path / "store")

    def _engine(self, corner_set, netlist, options, cache):
        return CSMEngine(
            netlist,
            corner_set.reference.models,
            options=options,
            corners=corner_set,
            cache=cache,
        )

    def test_warm_repeat_is_free_per_corner(
        self, corner_set, netlist, options, stimulus, cache
    ):
        waveforms, t_stop = stimulus
        engine = self._engine(corner_set, netlist, options, cache)
        cold = engine.run(waveforms, t_stop=t_stop)
        n = len(netlist.instances)
        for name in CORNERS:
            assert cold.stats[name]["integrations"] + cold.stats[name]["duplicates"] == n
            assert cold.stats[name]["cache_hits"] == 0
        # Same engine, same stimuli: every corner's carried state answers,
        # with nothing to re-key.
        warm = engine.run(waveforms, t_stop=t_stop)
        for name in CORNERS:
            assert warm.stats[name]["keyed"] == 0
            assert warm.stats[name]["integrations"] == 0
            for net in cold.result(name).waveforms:
                np.testing.assert_array_equal(
                    warm.result(name).waveform(net).values,
                    cold.result(name).waveform(net).values,
                )
        # A fresh engine over the same store is served every instance.
        fresh = self._engine(corner_set, netlist, options, cache)
        again = fresh.run(waveforms, t_stop=t_stop)
        for name in CORNERS:
            stats = again.stats[name]
            assert stats["integrations"] == 0
            assert stats["cache_hits"] + stats["memo_hits"] == n
            for net in netlist.primary_outputs:
                np.testing.assert_array_equal(
                    again.result(name).waveform(net).values,
                    cold.result(name).waveform(net).values,
                )

    def test_level_row_pointers_resolve_per_corner(
        self, corner_set, netlist, options, stimulus, cache
    ):
        """Every instance-corner pair of a fresh engine must come back
        through its own level-row pointer (disjoint per-corner keys)."""
        waveforms, t_stop = stimulus
        engine = self._engine(corner_set, netlist, options, cache)
        cold = engine.run(waveforms, t_stop=t_stop)
        propagated = {
            name: {
                cold.result(name).keys[engine._output_net(instance)]
                for instance in netlist.instances.values()
            }
            for name in CORNERS
        }
        for name in CORNERS:
            assert len(propagated[name]) > 0
            for other in CORNERS:
                if other != name:
                    assert propagated[name].isdisjoint(propagated[other])
        fresh = self._engine(corner_set, netlist, options, cache)
        served = fresh.run(waveforms, t_stop=t_stop)
        n = len(netlist.instances)
        for name in CORNERS:
            stats = served.stats[name]
            assert stats["integrations"] == 0
            assert stats["cache_hits"] == n
            for net in cold.result(name).waveforms:
                np.testing.assert_array_equal(
                    served.result(name).waveform(net).values,
                    cold.result(name).waveform(net).values,
                )

    def test_serial_namespace_is_separate(
        self, corner_set, netlist, options, stimulus, cache
    ):
        """A batched run must not poison (or feed) the single-corner caches:
        a serial TT engine over the same store starts cold, computes
        everything itself, and still agrees with the batched TT slice."""
        waveforms, t_stop = stimulus
        batched = self._engine(corner_set, netlist, options, cache)
        multi = batched.run(waveforms, t_stop=t_stop)
        serial = CSMEngine(
            netlist, corner_set["TT"].models, options=options, cache=cache
        )
        reference = serial.run(waveforms, t_stop=t_stop)
        stats = reference.stats
        assert stats["cache_hits"] == 0
        assert stats["integrations"] + stats["duplicates"] == len(netlist.instances)
        _assert_bitwise(multi.result("TT"), reference)


# ----------------------------------------------------------------------
# Single-corner keys name the bound models' corner
# ----------------------------------------------------------------------
class TestCornerBoundKeys:
    """One store, a TT run, then an FF run of the same TT-library design:
    the FF run must not be served anything TT wrote (its models' cells and
    loads differ)."""

    def test_csm_ff_after_tt_is_cold_and_exact(
        self, corner_set, netlist, options, stimulus, tmp_path
    ):
        waveforms, t_stop = stimulus
        cache = PackedStore(tmp_path / "store")
        CSMEngine(netlist, corner_set["TT"].models, options=options, cache=cache).run(
            waveforms, t_stop=t_stop
        )
        ff = CSMEngine(netlist, corner_set["FF"].models, options=options, cache=cache)
        served = ff.run(waveforms, t_stop=t_stop)
        assert served.stats["cache_hits"] == 0
        reference = CSMEngine(
            netlist, corner_set["FF"].models, options=options, use_cache=False
        ).run(waveforms, t_stop=t_stop)
        _assert_bitwise(served, reference)

    def test_nldm_ff_after_tt_is_cold_and_exact(self, corner_set, netlist):
        """One engine rebound from the TT to the FF models after a TT run
        (the shared engine state is all structural) gives exactly a fresh
        FF engine's events, which differ from TT's."""
        events = primary_input_events(netlist, seed=0)
        engine = NLDMEngine(netlist, corner_set["TT"].models)
        tt = engine.run(events)
        engine.models = corner_set["FF"].models
        served = engine.run(events)
        assert served.stats["integrations"] == len(netlist.instances)
        reference = NLDMEngine(netlist, corner_set["FF"].models).run(events)
        assert served.events == reference.events
        assert served.mis_flags == reference.mis_flags
        assert served.events != tt.events


    def test_tt_corner_reuses_a_plain_runs_characterizations(
        self, library, technology, options, tmp_path, monkeypatch
    ):
        # The TT corner renames the default technology without changing it.
        config = CharacterizationConfig(io_grid_points=5)
        cache = PackedStore(tmp_path / "store")
        netlist = generate_netlist(library, "dag:w6:d3:s5")
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        plain_models = TimingModelLibrary(library=library, config=config, cache=cache)
        plain = CSMEngine(netlist, plain_models, options=options).run(waveforms, t_stop=t_stop)

        from repro.sta import models as models_module

        executed = []
        run_jobs = models_module.run_jobs

        def counting(jobs, **kwargs):
            results = run_jobs(jobs, **kwargs)
            executed.extend(job.name for job, r in zip(jobs, results) if not r.cache_hit)
            return results

        monkeypatch.setattr(models_module, "run_jobs", counting)
        corners = CornerSet.from_names(["TT"], technology=technology, config=config, cache=cache)
        served = CSMEngine(
            netlist, corners.reference.models, options=options, corners=corners
        ).run(waveforms, t_stop=t_stop)
        assert executed == []
        _assert_bitwise(served.result("TT"), plain)

        def digest(corner_library):
            return content_hash(cell_fingerprint(corner_library["NAND2_X1"]))

        ff = CornerSet.from_names(["FF"], technology=technology, config=config, cache=cache)
        assert digest(corners["TT"].library) == digest(library)
        assert digest(ff["FF"].library) != digest(library)


# ----------------------------------------------------------------------
# Corner-axis codec round-trip (hypothesis)
# ----------------------------------------------------------------------
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-10.0, max_value=10.0
)


@st.composite
def level_tensors(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    corners = draw(st.integers(min_value=1, max_value=4))
    samples = draw(st.integers(min_value=2, max_value=12))
    values = np.array(
        draw(
            st.lists(
                st.lists(
                    st.lists(finite, min_size=samples, max_size=samples),
                    min_size=corners,
                    max_size=corners,
                ),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=float,
    )
    t0 = np.array(
        draw(st.lists(finite, min_size=rows, max_size=rows)), dtype=float
    )
    dt = np.array(
        draw(
            st.lists(
                st.floats(min_value=1e-13, max_value=1e-9, allow_nan=False),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=float,
    )
    names = [f"n{i}" for i in range(rows)]
    return LevelTensor(names, values, t0, dt)


class TestCornerAxisCodec:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tensor=level_tensors())
    def test_payload_round_trip(self, tensor):
        manifest, arrays = encode_payload(tensor)
        decoded = decode_payload(manifest, {k: np.copy(v) for k, v in arrays.items()})
        assert isinstance(decoded, LevelTensor)
        assert decoded.num_corners == tensor.num_corners
        assert decoded.equals(tensor)
        np.testing.assert_array_equal(decoded.values, tensor.values)

    def test_store_round_trip_multicorner(self, tmp_path):
        cache = PackedStore(tmp_path / "store")
        rng = np.random.default_rng(7)
        tensor = LevelTensor(
            ["a", "b"], rng.normal(size=(2, 3, 9)), [0.0, 1e-12], [2e-12, 3e-12]
        )
        key = "f" * 64
        cache.store(key, tensor)
        hit, value = cache.lookup(key)
        assert hit and value.equals(tensor)
        assert value.num_corners == 3


# ----------------------------------------------------------------------
# ECO revision guard (stale receiver-CSR regression)
# ----------------------------------------------------------------------
class TestRevisionGuard:
    def test_connectivity_rebuilds_on_revision_change(self, corner_set, options):
        net = generate_netlist(corner_set.reference.library, "dag:w4:d2:s2")
        engine = CSMEngine(net, corner_set.reference.models, options=options)
        first = engine.connectivity
        assert first.revision == net.revision
        assert engine.connectivity is first  # cached while revision is stable
        net.add_instance(
            "u_guard", "INV_X1", {"A": net.primary_inputs[0], "out": "n_guard"}
        )
        rebuilt = engine.connectivity
        assert rebuilt is not first
        assert rebuilt.revision == net.revision

    def test_swap_cell_run_matches_fresh_engine(self, corner_set, options):
        """ECO then tensor run: the long-lived engine must match an engine
        built after the edit, exactly (a stale row map would misgather)."""
        models = corner_set.reference.models
        net = generate_netlist(corner_set.reference.library, "dag:w4:d3:s9")
        t_stop = default_time_window(net)
        waveforms = primary_input_waveforms(net, t_stop=t_stop, seed=3)
        engine = CSMEngine(net, models, options=options)
        engine.run(waveforms, t_stop=t_stop)
        swapped = None
        for name, instance in net.instances.items():
            if instance.cell_name == "NAND2_X1":
                net.swap_cell(name, "NOR2_X1")
                swapped = name
                break
        assert swapped is not None
        after = engine.run(waveforms, t_stop=t_stop)
        assert engine.connectivity.revision == net.revision
        fresh = CSMEngine(net, models, options=options)
        reference = fresh.run(waveforms, t_stop=t_stop)
        assert after.model_used[swapped] == reference.model_used[swapped]
        assert waveform_deviation(after, reference) == 0.0
