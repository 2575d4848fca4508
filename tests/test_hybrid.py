"""Criticality-adaptive hybrid engine tests (PR 10).

The tentpole invariants:

* ``top_k="all"`` refines every endpoint's complete fan-in cone, which the
  engine layer normalizes to an unrestricted run — bitwise equal to full CSM;
* ``top_k=0`` degenerates to pure NLDM (no CSM work, no exact nets);
* a warm repeat integrates nothing in any CSM refine (every refined
  instance is a memo hit), while the keyless NLDM survey re-evaluates every
  instance to bitwise the same events; the run's stats are the per-field
  sum of the survey's and the refines';
* after an ECO the hybrid only re-integrates when the edit lands inside the
  refined critical cone — an out-of-cone swap re-times entirely from cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.runtime import PackedStore
from repro.sta import (
    CSMEngine,
    HybridEngine,
    HybridTimingResult,
    NLDMEngine,
    TimingModelLibrary,
    create_engine,
    events_from_waveforms,
    generate_netlist,
    primary_input_waveforms,
)
from repro.sta.generate import default_time_window
from repro.sta.netlist import GateNetlist
from repro.waveform.metrics import crossing_times

DAG = "dag:w6:d3:s5"


@pytest.fixture(scope="module")
def disk_cache(warm_store):
    return warm_store("pr10-cache")


@pytest.fixture(scope="module")
def models(library, disk_cache):
    return TimingModelLibrary(
        library=library,
        config=CharacterizationConfig(io_grid_points=5),
        cache=disk_cache,
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


@pytest.fixture(scope="module")
def netlist(library):
    return generate_netlist(library, DAG)


@pytest.fixture(scope="module")
def stimulus(netlist):
    t_stop = default_time_window(netlist)
    return primary_input_waveforms(netlist, t_stop=t_stop, seed=0), t_stop


def _two_chain_netlist(library) -> GateNetlist:
    """A deep 3-stage chain and a shallow 1-stage chain off one input.

    The deep endpoint always arrives last, so with ``top_k=1`` the hybrid
    refines exactly the deep cone — the shallow instance stays NLDM-only.
    """
    cell = library["NAND2_X1"]
    netlist = GateNetlist(library=library, name="two_chains")
    source = netlist.add_primary_input("a")
    previous = source
    for index in range(3):
        net = f"d{index + 1}"
        connections = {pin: previous for pin in cell.inputs}
        connections[cell.output] = net
        netlist.add_instance(f"deep{index}", "NAND2_X1", connections)
        previous = net
    netlist.add_primary_output(previous)
    connections = {pin: source for pin in cell.inputs}
    connections[cell.output] = "s1"
    netlist.add_instance("shallow0", "NAND2_X1", connections)
    netlist.add_primary_output("s1")
    return netlist


# ----------------------------------------------------------------------
# Exactness bounds: top-k = all / top-k = 0
# ----------------------------------------------------------------------
class TestExactnessBounds:
    def test_top_k_all_is_bitwise_full_csm(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k="all")
        result = hybrid.run(waveforms, t_stop=t_stop)
        assert isinstance(result, HybridTimingResult)
        # use_cache=False: a pure-compute reference, not the cached entry the
        # hybrid's own full-cover run may have stored.
        reference = CSMEngine(netlist, models, options=options, use_cache=False).run(
            waveforms, t_stop=t_stop
        )
        driven = {net for net in netlist.nets() if netlist.driver_of(net) is not None}
        assert result.exact_nets == driven
        assert result.csm_fraction == 1.0
        assert len(result.iterations) == 1
        assert len(result.refined_instances) == len(netlist.instances)
        for net in driven:
            assert np.array_equal(
                result.waveform(net).values, reference.waveform(net).values
            )
        for net in netlist.primary_outputs:
            crossings = crossing_times(reference.waveform(net), 0.5 * result.vdd)
            if crossings:
                assert result.arrival(net) == float(crossings[-1])
                assert result.endpoint_arrivals[net] == float(crossings[-1])
                assert result.endpoint_slacks[net][0] == "csm"
            else:  # a stable endpoint stays stable
                with pytest.raises(TimingError):
                    result.arrival(net)

    def test_top_k_zero_is_pure_nldm(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k=0)
        result = hybrid.run(waveforms, t_stop=t_stop)
        events = events_from_waveforms(waveforms, hybrid.csm.vdd)
        nldm = NLDMEngine(netlist, models).run(events)
        assert result.exact_nets == frozenset()
        assert result.csm_fraction == 0.0
        assert result.iterations == []
        assert result.nldm.events == nldm.events
        for net in netlist.primary_outputs:
            if net in nldm.events:
                assert result.arrival(net) == nldm.events[net].arrival
                assert result.endpoint_slacks[net][0] == "nldm"
                with pytest.raises(TimingError, match="NLDM events only"):
                    result.waveform(net)

    def test_create_engine_and_validation(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        engine = create_engine("hybrid", netlist, models, options=options)
        assert isinstance(engine, HybridEngine)
        with pytest.raises(TimingError, match="max_iterations"):
            HybridEngine(netlist, models, options=options, max_iterations=0)
        with pytest.raises(TimingError, match="top_k"):
            engine.run(waveforms, t_stop=t_stop, top_k="some")
        with pytest.raises(TimingError, match="top_k"):
            engine.run(waveforms, t_stop=t_stop, top_k=-1)


# ----------------------------------------------------------------------
# Iteration, caching and provenance
# ----------------------------------------------------------------------
class TestRefinementLoop:
    def test_warm_repeat_integrates_no_refine(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k=2)
        first = hybrid.run(waveforms, t_stop=t_stop)
        assert first.iterations  # something was refined
        second = hybrid.run(waveforms, t_stop=t_stop)
        # Every refine of the repeat is served instance by instance; the
        # survey keeps no cache and evaluates every instance again, to
        # bitwise the same events.
        for iteration in second.iterations:
            csm = iteration["csm_stats"]
            assert csm["integrations"] == 0 and csm["stores"] == 0
            assert csm["memo_hits"] + csm["duplicates"] == csm["instances"]
        assert second.stats["integrations"] == len(netlist.instances)
        assert second.stats["instances"] == len(netlist.instances)
        assert second.nldm.events == first.nldm.events
        assert second.nldm.mis_flags == first.nldm.mis_flags
        assert second.exact_nets == first.exact_nets
        assert second.endpoint_arrivals == first.endpoint_arrivals

    def test_stats_fold_the_survey_and_every_refine(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        for top_k in (0, 2):
            hybrid = HybridEngine(netlist, models, options=options, top_k=top_k)
            result = hybrid.run(waveforms, t_stop=t_stop)
            assert bool(result.iterations) == bool(top_k)
            parts = [hybrid.nldm.last_stats.as_dict()] + [
                iteration["csm_stats"] for iteration in result.iterations
            ]
            for name, value in result.stats.items():
                expected = (
                    len(netlist.instances)
                    if name == "instances"
                    else sum(part[name] for part in parts)
                )
                assert value == expected, name

    def test_partial_refinement_reports_provenance(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(netlist, models, options=options, top_k=1)
        result = hybrid.run(waveforms, t_stop=t_stop)
        assert 0.0 < result.csm_fraction <= 1.0
        assert result.iterations
        # Partial refinement re-batches the levels, and a row's waveform does
        # not depend on its batch: its exact nets are bitwise a full run's.
        full = CSMEngine(netlist, models, options=options, use_cache=False).run(
            waveforms, t_stop=t_stop
        )
        assert result.exact_nets
        for net in result.exact_nets:
            assert (
                result.waveform(net).values.tobytes() == full.waveform(net).values.tobytes()
            ), net
        # Every refined endpoint is CSM-exact and its waveform matches the
        # stored values; everything else answers from the NLDM events.
        for net, entry in result.endpoint_slacks.items():
            if entry is None:
                continue
            source, slack = entry
            assert source == ("csm" if result.is_exact(net) else "nldm")
            assert slack == pytest.approx(-result.arrival(net))
        report = result.report()
        assert "CSM-refined" in report
        with pytest.raises(TimingError, match="not an endpoint"):
            result.slack("no_such_net")

    def test_partial_refinement_integrates_fewer_rows_than_full_csm(
        self, netlist, models, options, stimulus, tmp_path
    ):
        """What makes an intermediate ``top_k`` cheaper than full CSM: on a
        cold store its refines integrate each refined instance once (a
        re-ranked cone re-reads the earlier cones from the memo) and never
        the whole design."""
        waveforms, t_stop = stimulus
        hybrid = HybridEngine(
            netlist, models, options=options, cache=PackedStore(tmp_path), top_k=1
        )
        result = hybrid.run(waveforms, t_stop=t_stop)
        integrated = sum(
            iteration["csm_stats"]["integrations"] for iteration in result.iterations
        )
        assert integrated == len(result.refined_instances) < len(netlist.instances)
        assert 0.0 < result.csm_fraction < 1.0

    def test_result_stimuli_are_private_copies(self, netlist, models, options, stimulus):
        waveforms, t_stop = stimulus
        caller = {net: wave.renamed(net) for net, wave in waveforms.items()}
        engine = HybridEngine(netlist, models, options=options, top_k=1)
        result = engine.run(caller, t_stop=t_stop)
        first = result.waveforms[netlist.primary_inputs[0]]
        for wave in caller.values():
            wave.times[:] = 0.0
            wave.values[:] = -1.0
        assert result.waveforms[netlist.primary_inputs[0]] is first
        for net in netlist.primary_inputs:
            copy, original = result.waveforms[net], waveforms[net]
            assert copy.times.tobytes() == original.times.tobytes(), net
            assert copy.values.tobytes() == original.values.tobytes(), net
            assert copy.name == net

    def test_a_write_into_a_result_stimulus_changes_it_only(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        caller = {net: wave.renamed(net) for net, wave in waveforms.items()}
        engine = HybridEngine(netlist, models, options=options, top_k=1)
        result = engine.run(caller, t_stop=t_stop)
        written, *others = netlist.primary_inputs
        result.waveforms[written].times[:] = 0.0
        result.waveforms[written].values[:] = -1.0
        assert not result.waveforms[written].times.any()
        for net in others:
            copy, original = result.waveforms[net], waveforms[net]
            assert copy.times.tobytes() == original.times.tobytes(), net
            assert copy.values.tobytes() == original.values.tobytes(), net
        for net, wave in caller.items():
            assert wave.times.tobytes() == waveforms[net].times.tobytes(), net
            assert wave.values.tobytes() == waveforms[net].values.tobytes(), net

    def test_required_mapping_uses_worst_slacks_merge_semantics(
        self, netlist, models, options, stimulus
    ):
        waveforms, t_stop = stimulus
        endpoints = list(netlist.primary_outputs)
        hybrid = HybridEngine(netlist, models, options=options, top_k=1)
        required = {endpoints[0]: 1e-9}
        with pytest.raises(TimingError, match="no entry for net"):
            hybrid.run(waveforms, t_stop=t_stop, required=required)
        result = hybrid.run(
            waveforms, t_stop=t_stop, required=required, required_default=5e-9
        )
        for net, entry in result.endpoint_slacks.items():
            if entry is None:
                continue
            target = required.get(net, 5e-9)
            assert entry[1] == pytest.approx(target - result.arrival(net))


# ----------------------------------------------------------------------
# ECO interaction with the critical cone
# ----------------------------------------------------------------------
class TestEcoRefinement:
    def test_swap_outside_cone_retimes_from_cache_inside_reintegrates(
        self, library, models, options
    ):
        netlist = _two_chain_netlist(library)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=0)
        hybrid = HybridEngine(netlist, models, options=options, top_k=1)
        baseline = hybrid.run(waveforms, t_stop=t_stop)
        # The deep endpoint arrives last, so the deep chain is the cone.
        assert set(baseline.refined_instances) == {"deep0", "deep1", "deep2"}
        assert baseline.is_exact("d3") and not baseline.is_exact("s1")

        # Out-of-cone ECO: the critical cone's propagation keys are intact,
        # so the CSM refinement resolves entirely from the shared store.
        netlist.swap_cell("shallow0", "NOR2_X1")
        after_outside = hybrid.run(waveforms, t_stop=t_stop)
        assert set(after_outside.refined_instances) == {"deep0", "deep1", "deep2"}
        assert hybrid.csm.last_stats.integrations == 0

        # In-cone ECO: the swapped stage and everything downstream of it
        # must re-integrate.
        netlist.swap_cell("deep1", "NOR2_X1")
        after_inside = hybrid.run(waveforms, t_stop=t_stop)
        assert set(after_inside.refined_instances) == {"deep0", "deep1", "deep2"}
        assert hybrid.csm.last_stats.integrations >= 2
        assert after_inside.is_exact("d3")
