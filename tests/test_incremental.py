"""Tests for the incremental timing graph.

Covers the tentpole layers and their satellites:

* the DC operating-point settle (exactness against converged integration,
  the generic batched fixed-point Newton, fallback behaviour),
* netlist fingerprints, revisions and the ECO edit API,
* content-addressed propagation caching (warm no-op runs, dirty-region
  re-timing after each edit kind, equivalence against cold rebuilds),
* cache robustness (corrupted entries evict as misses) and the multi-corner
  sweep,
* the edit journal, the fragment digest and the carried state of a
  resident engine (keys, waveforms and results of a carried run equal a
  fresh engine's, bitwise, with keying bounded by the edits' regions).
"""

from __future__ import annotations

import dataclasses
import functools
import os

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.characterization import CharacterizationConfig
from repro.csm.base import ModelSimulationResult, SimulationOptions
from repro.csm import dc as dc_module
from repro.csm.dc import settle_units
from repro.csm.loads import CapacitiveLoad
from repro.csm.simulate import BatchUnit
from repro.exceptions import ModelError, TimingError
from repro.lut import NDTable
from repro.runtime import PackedStore
from repro.spice import newton_fixed_point_many
from repro.sta import (
    CSMEngine,
    NLDMEngine,
    TimingModelLibrary,
    WaveformTimingResult,
    gate_chain,
    generate_netlist,
    netlist_fingerprint,
    primary_input_events,
    primary_input_waveforms,
)
from repro.runtime.jobs import content_hash
from repro.sta.generate import default_time_window
from repro.sta.netlist import NETLIST_DIGEST_SALT, NetConnectivity, swap_partner
from repro.waveform import Waveform

#: How far the DC operating-point settle may land from a converged
#: integration settle: two algorithms, so not bitwise.  Two engine paths on
#: the same inputs are compared exactly.
EQUIV_TOL = 1e-9


@pytest.fixture(scope="module")
def disk_cache(warm_store):
    return warm_store("pr4-cache")


@pytest.fixture(scope="module")
def models(library, disk_cache):
    return TimingModelLibrary(
        library=library, config=CharacterizationConfig(io_grid_points=5), cache=disk_cache
    )


@pytest.fixture(scope="module")
def options():
    return SimulationOptions(time_step=2e-12)


def _deviation(candidate: WaveformTimingResult, reference: WaveformTimingResult) -> float:
    return max(
        float(np.abs(candidate.waveform(net).values - reference.waveform(net).values).max())
        for net in reference.waveforms
    )


# ----------------------------------------------------------------------
# DC operating-point settle
# ----------------------------------------------------------------------
class TestDCSettle:
    def test_settle_mode_validated(self):
        with pytest.raises(ModelError):
            SimulationOptions(settle_mode="newton")

    def test_mcsm_dc_matches_converged_integration(self, nor2_mcsm, nand2_mcsm):
        """The DC solve must land on the asymptote of the integration settle
        — including the slow stack-leakage '11' state that is nowhere near
        stationary at the end of the legacy 2 ns window — for the NOR2's
        PMOS stack node and the NAND2's NMOS one."""
        load = CapacitiveLoad(5e-15)
        dc = SimulationOptions(time_step=1e-12)
        converged = SimulationOptions(
            time_step=1e-12, settle_time=100e-9, settle_mode="integrate"
        )
        for model in (nor2_mcsm, nand2_mcsm):
            vdd = model.vdd
            for state_a, state_b in ((0, 0), (0, 1), (1, 0), (1, 1)):
                values = {"A": state_a * vdd, "B": state_b * vdd}
                vo_dc, vn_dc = model.settle_state(values, load, dc)
                vo_ref, vn_ref = model.settle_state(values, load, converged)
                state = (model.cell_name, state_a, state_b)
                assert abs(vo_dc - vo_ref) <= EQUIV_TOL, state
                assert abs(vn_dc - vn_ref) <= EQUIV_TOL, state

    def test_sis_dc_matches_converged_integration(self, inverter_sis):
        load = CapacitiveLoad(5e-15)
        for vi in (0.0, inverter_sis.vdd):
            dc_value = inverter_sis._settle_output(
                vi, load, SimulationOptions(time_step=1e-12)
            )
            ref = inverter_sis._settle_output(
                vi,
                load,
                SimulationOptions(time_step=1e-12, settle_time=50e-9, settle_mode="integrate"),
            )
            assert abs(dc_value - ref) <= EQUIV_TOL

    def test_non_table_model_settles_by_integration(self, nor2_sis):
        """A callable current source is outside the DC solve's table form:
        the DC settle falls back to the integration settle, bitwise."""
        dc = SimulationOptions()
        unit = BatchUnit(
            pins=(nor2_sis.pin,),
            input_waveforms={nor2_sis.pin: Waveform.constant(0.0, 0.0, dc.settle_time)},
            output_current=lambda vi, vo: 1e-4 * (vo - 0.3),  # not an NDTable
            miller_caps={nor2_sis.pin: nor2_sis.miller_cap},
            output_cap=nor2_sis.output_cap,
            load=CapacitiveLoad(5e-15),
            vdd=nor2_sis.vdd,
            initial_output=nor2_sis.vdd / 2.0,
        )
        integrate = SimulationOptions(settle_mode="integrate")
        [settled] = settle_units([unit], dc)
        assert settled == settle_units([unit], integrate)[0]
        assert settled[0] == pytest.approx(0.3, abs=1e-6)

    def test_polish_rerun_isolates_singular_unit(self, nor2_mcsm, monkeypatch):
        """A unit with flat zero tables has a singular Jacobian, so the batch
        Newton solve dies without per-run attribution.  Every run is then
        re-solved alone: the others keep their own settles bitwise, and the
        flat unit falls back to the integration settle."""
        options = SimulationOptions(time_step=2e-12)
        vdd = nor2_mcsm.vdd
        flat = [
            NDTable(table.axes, np.zeros_like(table.values))
            for table in (nor2_mcsm.io_table, nor2_mcsm.in_table)
        ]

        def unit(io_table, in_table, state_a, state_b):
            return BatchUnit(
                pins=nor2_mcsm.pins,
                input_waveforms={
                    "A": Waveform.constant(state_a * vdd, 0.0, options.settle_time),
                    "B": Waveform.constant(state_b * vdd, 0.0, options.settle_time),
                },
                output_current=io_table,
                miller_caps=dict(nor2_mcsm.miller_caps),
                output_cap=nor2_mcsm.output_cap,
                load=CapacitiveLoad(5e-15),
                vdd=vdd,
                initial_output=vdd / 2.0,
                internal_current=in_table,
                internal_cap=nor2_mcsm.internal_cap,
                initial_internal=vdd / 2.0,
            )

        tables = (nor2_mcsm.io_table, nor2_mcsm.in_table)
        units = [unit(*tables, a, b) for a, b in ((0, 0), (0, 1), (1, 0))]
        units.insert(1, unit(*flat, 0, 0))
        solo = [settle_units([u], options)[0] for u in units]

        stack_sizes = []
        solve = dc_module.newton_fixed_point_many

        def counting(fn, starts, **kwargs):
            stack_sizes.append(len(starts))
            return solve(fn, starts, **kwargs)

        monkeypatch.setattr(dc_module, "newton_fixed_point_many", counting)
        batched = settle_units(units, options)
        assert stack_sizes == [4, 1, 1, 1, 1]  # the failed batch, then each run
        for got, want in zip(batched, solo):
            assert got == want
        integrated = settle_units([units[1]], SimulationOptions(time_step=2e-12, settle_mode="integrate"))
        assert batched[1] == integrated[0] == (vdd / 2.0, vdd / 2.0)

    def test_newton_fixed_point_many(self):
        """Batch of independent 2-D systems: x^2 - a = 0, x*y - b = 0.

        The per-run targets travel through ``params`` — runs converge (and
        leave the active subset) at different iterations, so closing over
        full-batch arrays by position would misalign them.
        """
        targets = np.array([[4.0, 6.0], [9.0, 3.0], [2.25, 1.5]])

        def fn(x, params):
            residual = np.stack(
                [x[:, 0] ** 2 - params[:, 0], x[:, 0] * x[:, 1] - params[:, 1]], axis=1
            )
            jacobian = np.zeros((x.shape[0], 2, 2))
            jacobian[:, 0, 0] = 2.0 * x[:, 0]
            jacobian[:, 1, 0] = x[:, 1]
            jacobian[:, 1, 1] = x[:, 0]
            return residual, jacobian

        roots = newton_fixed_point_many(fn, np.full((3, 2), 1.0), params=targets)
        expected_x = np.sqrt(targets[:, 0])
        np.testing.assert_allclose(roots[:, 0], expected_x, atol=1e-9)
        np.testing.assert_allclose(roots[:, 1], targets[:, 1] / expected_x, atol=1e-9)


# ----------------------------------------------------------------------
# Fingerprints, revisions, edits
# ----------------------------------------------------------------------
class TestNetlistEdits:
    def test_fingerprint_is_structural_and_name_free(self, library):
        first = generate_netlist(library, "dag:w4:d2:s5")
        second = generate_netlist(library, "dag:w4:d2:s5")
        second.name = "renamed"
        assert content_hash(netlist_fingerprint(first)) == content_hash(
            netlist_fingerprint(second)
        )
        second.set_wire_capacitance("n0_0", 3e-15)
        assert content_hash(netlist_fingerprint(first)) != content_hash(
            netlist_fingerprint(second)
        )

    def test_revision_bumps_on_every_edit(self, library):
        netlist = gate_chain(library, 3, cell_name="NAND2_X1")
        revision = netlist.revision
        netlist.swap_cell("u1", "NOR2_X1")
        assert netlist.revision == revision + 1
        netlist.swap_cell("u1", "NOR2_X1")  # no-op swap: unchanged
        assert netlist.revision == revision + 1
        netlist.rewire_pin("u1", "B", "n0")
        assert netlist.revision == revision + 2
        netlist.set_wire_capacitance("n1", 1e-15)
        assert netlist.revision == revision + 3

    def test_swap_requires_pin_compatibility(self, library):
        netlist = gate_chain(library, 2, cell_name="NAND2_X1")
        with pytest.raises(TimingError):
            netlist.swap_cell("u0", "INV_X1")
        with pytest.raises(TimingError):
            netlist.swap_cell("missing", "NOR2_X1")

    def test_rewire_rejects_loops_and_undriven_nets(self, library):
        netlist = gate_chain(library, 3, cell_name="NAND2_X1")
        revision = netlist.revision
        with pytest.raises(TimingError, match="loop"):
            netlist.rewire_pin("u0", "A", "n3")  # u2's output feeds u0
        with pytest.raises(TimingError, match="loop"):
            netlist.rewire_pin("u1", "A", "n2")  # u1's own output
        with pytest.raises(TimingError, match="no driver"):
            netlist.rewire_pin("u1", "A", "no_such_net")
        with pytest.raises(TimingError, match="undriven"):
            netlist.rewire_pin("u1", "out", "fresh")  # u2 still reads n2
        with pytest.raises(TimingError, match="undriven"):
            netlist.rewire_pin("u2", "out", "fresh")  # n3 is a primary output
        with pytest.raises(TimingError, match="already driven"):
            netlist.rewire_pin("u1", "out", "n0")  # a primary input
        assert netlist.revision == revision
        netlist.validate()

    def test_output_rename_and_its_inverse_are_accepted(self, library):
        netlist = gate_chain(library, 3, cell_name="NAND2_X1")
        netlist.add_instance("spare", "NAND2_X1", {"A": "n0", "B": "n1", "out": "dangling"})
        fingerprint = netlist_fingerprint(netlist)
        with pytest.raises(TimingError, match="already driven"):
            netlist.rewire_pin("spare", "out", "n2")
        netlist.rewire_pin("spare", "out", "renamed")
        netlist.validate()
        netlist.rewire_pin("spare", "out", "dangling")
        assert netlist_fingerprint(netlist) == fingerprint

    def test_depth_raises_timing_error_on_a_loop(self, library):
        netlist = gate_chain(library, 2, cell_name="NAND2_X1")
        netlist.instances["u0"].connections["B"] = "n2"  # behind the edit API
        netlist.revision += 1
        with pytest.raises(TimingError, match="loop"):
            netlist.depth()

    def test_affected_region_covers_fanin_driver_cones(self, library):
        netlist = gate_chain(library, 4, cell_name="NAND2_X1")
        # Editing u2 changes its input capacitance, so its driver u1's load
        # (and hence u1's output and everything downstream) is dirty too.
        assert netlist.fanout_cone("u2") == ["u2", "u3"]
        assert netlist.affected_region("u2") == ["u1", "u2", "u3"]
        assert netlist.affected_region("u0") == ["u0", "u1", "u2", "u3"]


def _networkx_cone(netlist, seeds):
    """Reference walk: the seeds plus their instance-graph descendants, in
    insertion order (what ``fanout_cone``/``affected_region`` computed
    before they walked the CSR receiver index)."""
    graph = netlist.instance_graph()
    reached = set(seeds)
    for seed in seeds:
        reached |= nx.descendants(graph, seed)
    return [name for name in netlist.instances if name in reached]


def _networkx_region(netlist, name):
    instance = netlist.instances[name]
    seeds = [name]
    for pin in netlist.library[instance.cell_name].inputs:
        driver = netlist.driver_of(instance.connections[pin])
        if driver is not None:
            seeds.append(driver.name)
    return _networkx_cone(netlist, seeds)


class TestRegionWalk:
    """``affected_region``/``fanout_cone`` walk the CSR receiver index and
    give exactly the networkx descendant sets, in insertion order, on
    random DAGs before and after ECO edits."""

    @staticmethod
    def _assert_matches_networkx(netlist):
        connectivity = netlist.connectivity()
        for name in netlist.instances:
            assert netlist.fanout_cone(name) == _networkx_cone(netlist, [name])
            expected = _networkx_region(netlist, name)
            assert netlist.affected_region(name) == expected
            assert netlist.affected_region(name, connectivity=connectivity) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=6),
        depth=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        edit_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_networkx_before_and_after_edits(
        self, library, width, depth, seed, edit_seed
    ):
        netlist = generate_netlist(library, f"dag:w{width}:d{depth}:s{seed}")
        self._assert_matches_networkx(netlist)
        rng = np.random.default_rng(edit_seed)
        names = list(netlist.instances)
        swappable = [
            name
            for name in names
            if swap_partner(library, netlist.instances[name].cell_name) is not None
        ]
        if swappable:
            name = swappable[int(rng.integers(len(swappable)))]
            netlist.swap_cell(name, swap_partner(library, netlist.instances[name].cell_name))
            self._assert_matches_networkx(netlist)
        # Rewire one input pin to a primary input or to the output of an
        # instance of an earlier layer (random_dag names u<layer>_<pos>), so
        # the design stays acyclic.
        name = names[int(rng.integers(len(names)))]
        layer = int(name[1:].split("_")[0])
        instance = netlist.instances[name]
        cell = library[instance.cell_name]
        pool = list(netlist.primary_inputs) + [
            other.connections[library[other.cell_name].output]
            for other_name, other in netlist.instances.items()
            if int(other_name[1:].split("_")[0]) < layer
        ]
        pin = cell.inputs[int(rng.integers(len(cell.inputs)))]
        netlist.rewire_pin(name, pin, pool[int(rng.integers(len(pool)))])
        netlist.validate()
        self._assert_matches_networkx(netlist)


class TestPatchedStructure:
    """An input-pin rewire patches the connectivity snapshot and the
    levelization in place: after every swap, rewire and undo of a seeded
    sequence both equal a fresh build (``NetConnectivity.of`` and the
    networkx levelization of a ``copy()``), and a rejected rewire leaves
    the revision and both caches untouched."""

    @staticmethod
    def _assert_fresh(netlist):
        patched, fresh = netlist.connectivity(), NetConnectivity.of(netlist)
        assert patched.revision == netlist.revision
        assert {net: d.name for net, d in patched.drivers.items()} == {
            net: d.name for net, d in fresh.drivers.items()
        }
        assert list(patched.net_index.items()) == list(fresh.net_index.items())
        assert patched.receiver_ptr.dtype == fresh.receiver_ptr.dtype
        assert np.array_equal(patched.receiver_ptr, fresh.receiver_ptr)
        assert [
            (instance.name, pin)
            for instance, pin in zip(patched.receiver_instances, patched.receiver_pins)
        ] == [
            (instance.name, pin)
            for instance, pin in zip(fresh.receiver_instances, fresh.receiver_pins)
        ]
        names = lambda levels: [[i.name for i in level] for level in levels]  # noqa: E731
        assert names(netlist.topological_generations()) == names(
            netlist.copy().topological_generations()
        )

    @staticmethod
    def _closes_loop(netlist, instance_name, _pin, net):
        """Would rewiring an input of ``instance_name`` to ``net`` close a
        loop, i.e. is ``net`` driven from the instance's fan-out cone?"""
        driver = netlist.driver_of(net)
        return driver is not None and driver.name in netlist.fanout_cone(instance_name)

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=6),
        depth=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        edit_seed=st.integers(min_value=0, max_value=10_000),
    )
    # An arbitrary rewire (u0_0.A to n3_0) puts a layered rewire (u2_3.A to
    # n1_0) on a loop.
    @example(width=4, depth=4, seed=4, edit_seed=150)
    def test_rewires_patch_connectivity_and_levels(
        self, library, width, depth, seed, edit_seed
    ):
        netlist = generate_netlist(library, f"dag:w{width}:d{depth}:s{seed}")
        netlist.topological_generations()
        rng = np.random.default_rng(edit_seed)
        undo = []

        def rejected(edit) -> bool:
            """Apply ``edit``; if the netlist refuses it, nothing moved."""
            try:
                edit()
            except TimingError:
                assert netlist.revision == revision
                assert netlist.connectivity() is connectivity
                assert connectivity.revision == revision
                assert netlist._levels_cache is levels
                self._assert_fresh(netlist)
                return True
            return False

        for _ in range(12):
            connectivity, levels = netlist.connectivity(), netlist._levels_cache
            revision = netlist.revision
            choice = int(rng.integers(4))
            if choice == 0 and undo:
                undo.pop()()
            elif choice == 1:
                kind, _target, apply, inverse = _random_edit(netlist, library, rng)
                if kind == "rewire" and self._closes_loop(netlist, *apply.args):
                    # Layered by name: once an arbitrary rewire below has
                    # moved a pin up the levels, this rewire may close a
                    # loop, and then it must be refused.
                    assert rejected(apply)
                    continue
                apply()
                undo.append(inverse)
            else:
                # Any net, an unknown one included: rejected rewires (a loop,
                # no driver) are part of the draw.
                names = list(netlist.instances)
                name = names[int(rng.integers(len(names)))]
                instance = netlist.instances[name]
                pin = library[instance.cell_name].inputs[0]
                nets = sorted(netlist.nets()) + ["no_such_net"]
                net = nets[int(rng.integers(len(nets)))]
                previous = instance.connections[pin]
                if rejected(lambda: netlist.rewire_pin(name, pin, net)):
                    continue
                undo.append(lambda n=name, p=pin, v=previous: netlist.rewire_pin(n, p, v))
            if netlist.revision != revision:
                # Journaled edits keep both caches: no rebuild happened.
                assert netlist.connectivity() is connectivity
                assert netlist._levels_cache[0] == netlist.revision
            self._assert_fresh(netlist)


# ----------------------------------------------------------------------
# Content-addressed propagation cache + dirty-region re-timing
# ----------------------------------------------------------------------
class TestIncrementalEngine:
    SPEC = "dag:w6:d3:s11"

    @pytest.fixture()
    def netlist(self, library):
        return generate_netlist(library, self.SPEC)

    @pytest.fixture()
    def waveforms(self, netlist):
        return primary_input_waveforms(netlist, seed=2)

    def test_warm_repeat_integrates_nothing(self, netlist, waveforms, models, options):
        cold = CSMEngine(netlist, models, options=options).run(waveforms)
        assert cold.stats is not None
        assert cold.stats["instances"] == len(netlist.instances)
        warm = CSMEngine(netlist, models, options=options).run(waveforms)
        assert warm.stats["integrations"] == 0 and warm.stats["stores"] == 0
        # A fresh engine's memo is empty: the first read of each key is a
        # store hit, a same-level repeat of it a memo hit.
        assert warm.stats["cache_hits"] + warm.stats["memo_hits"] == len(netlist.instances)
        assert warm.keys == cold.keys
        assert warm.model_used == cold.model_used
        assert _deviation(warm, cold) == 0.0

    def test_memo_makes_rerun_incremental_without_disk(self, library, options, warm_up):
        chain = gate_chain(library, 3, cell_name="INV_X1")
        waveforms = primary_input_waveforms(chain, seed=1)
        models = warm_up(
            TimingModelLibrary(library=library, config=CharacterizationConfig(io_grid_points=5))
        )
        engine = CSMEngine(chain, models, options=options)
        cold = engine.run(waveforms)
        assert cold.stats["integrations"] == len(chain.instances)
        warm = engine.run(waveforms)  # same engine: in-memory memo only
        assert warm.stats["integrations"] == 0
        assert warm.stats["memo_hits"] == len(chain.instances)
        assert _deviation(warm, cold) == 0.0

    def test_cell_swap_retimes_only_affected_region(
        self, netlist, waveforms, models, options
    ):
        CSMEngine(netlist, models, options=options).run(waveforms)
        target = next(
            name
            for name, inst in netlist.instances.items()
            if inst.cell_name == "NAND2_X1" and len(netlist.affected_region(name)) < len(netlist.instances)
        )
        region = netlist.affected_region(target)
        netlist.swap_cell(target, "NOR2_X1")
        edited = CSMEngine(netlist, models, options=options).run(waveforms)
        assert 0 < edited.stats["integrations"] <= len(region)
        assert (
            edited.stats["integrations"]
            + edited.stats["memo_hits"]
            + edited.stats["cache_hits"]
            + edited.stats["duplicates"]
            == len(netlist.instances)
        )
        reference = CSMEngine(netlist, models, options=options, use_cache=False).run(waveforms)
        assert _deviation(edited, reference) == 0.0
        assert edited.model_used == reference.model_used

    def test_rewire_retimes_only_affected_region(self, netlist, waveforms, models, options):
        CSMEngine(netlist, models, options=options).run(waveforms)
        target = next(name for name in netlist.instances if name.startswith("u1_"))
        instance = netlist.instances[target]
        pin = next(iter(netlist.library[instance.cell_name].inputs))
        region = set(netlist.affected_region(target))
        netlist.rewire_pin(target, pin, netlist.primary_inputs[0])
        netlist.validate()
        region |= set(netlist.affected_region(target))
        edited = CSMEngine(netlist, models, options=options).run(waveforms)
        assert 0 < edited.stats["integrations"] <= len(region)
        reference = CSMEngine(netlist, models, options=options, use_cache=False).run(waveforms)
        assert _deviation(edited, reference) == 0.0

    def test_stimulus_change_retimes_only_descendants(
        self, netlist, waveforms, models, options
    ):
        CSMEngine(netlist, models, options=options).run(waveforms)
        target_pi = netlist.primary_inputs[0]
        connectivity = netlist.connectivity()
        dirty = set()
        for receiver, _pin in connectivity.receivers_of(target_pi):
            dirty |= set(netlist.fanout_cone(receiver.name))
        edited_waveforms = dict(waveforms)
        original = waveforms[target_pi]
        edited_waveforms[target_pi] = Waveform(
            original.times, original.values[::-1].copy(), name=target_pi
        )
        edited = CSMEngine(netlist, models, options=options).run(edited_waveforms)
        assert 0 < edited.stats["integrations"] <= len(dirty)
        reference = CSMEngine(netlist, models, options=options, use_cache=False).run(
            edited_waveforms
        )
        assert _deviation(edited, reference) == 0.0

    def test_sequential_and_batched_engines_share_keys(
        self, library, netlist, waveforms, models, options
    ):
        # A key names one value, whichever path computed it: the reference
        # path fills a store that a batched engine then hits for every
        # instance, and for every clean one after an edit.
        store = _DictStore()
        sequential = CSMEngine(netlist, models, options=options, batched=False, cache=store)
        cold = sequential.run(waveforms)
        assert cold.stats["integrations"] + cold.stats["duplicates"] == len(netlist.instances)
        batched = CSMEngine(netlist, models, options=options, cache=store)
        warm = batched.run(waveforms)
        assert warm.stats["integrations"] == 0
        assert warm.stats["cache_hits"] + warm.stats["memo_hits"] == len(netlist.instances)
        assert warm.keys == cold.keys
        fresh = CSMEngine(netlist, models, options=options, use_cache=False).run(waveforms)
        for result in (cold, warm):
            assert _deviation(result, fresh) == 0.0
            assert result.model_used == fresh.model_used
        target = next(
            name
            for name, instance in netlist.instances.items()
            if swap_partner(library, instance.cell_name)
            and len(netlist.affected_region(name)) < len(netlist.instances)
        )
        netlist.swap_cell(target, swap_partner(library, netlist.instances[target].cell_name))
        edited = CSMEngine(netlist, models, options=options, cache=store).run(waveforms)
        assert edited.stats["cache_hits"] > 0
        assert 0 < edited.stats["integrations"] < len(netlist.instances)
        rebuilt = CSMEngine(
            netlist, models, options=options, batched=False, use_cache=False
        ).run(waveforms)
        assert _deviation(edited, rebuilt) == 0.0


# ----------------------------------------------------------------------
# Edit journal, fragment digest and the carried engine state
# ----------------------------------------------------------------------
class _DictStore:
    """A private in-memory store: a fresh engine on it keys and integrates
    everything itself."""

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
        self.entries.update(items)


def _edit_region(netlist, kind, target):
    """What an edit may dirty, the way the timing server reports it: the
    union of the pre- and post-edit affected regions (for a wire cap, the
    fan-out cone of the net's driver)."""
    if kind == "wire":
        driver = netlist.driver_of(target)
        return set(netlist.fanout_cone(driver.name)) if driver is not None else set()
    return set(netlist.affected_region(target))


def _random_edit(netlist, library, rng):
    """One seeded, acyclic ECO edit: ``(kind, target, apply, undo)``."""
    names = list(netlist.instances)
    kind = ("swap", "rewire", "wire")[int(rng.integers(3))]
    if kind == "swap":
        swappable = [
            name for name in names if swap_partner(library, netlist.instances[name].cell_name)
        ]
        if swappable:
            name = swappable[int(rng.integers(len(swappable)))]
            cell = netlist.instances[name].cell_name
            partner = swap_partner(library, cell)
            return (
                kind,
                name,
                lambda: netlist.swap_cell(name, partner),
                lambda: netlist.swap_cell(name, cell),
            )
        kind = "rewire"
    if kind == "rewire":
        name = names[int(rng.integers(len(names)))]
        layer = int(name[1:].split("_")[0])
        cell = library[netlist.instances[name].cell_name]
        pin = cell.inputs[int(rng.integers(len(cell.inputs)))]
        pool = list(netlist.primary_inputs) + [
            other.connections[library[other.cell_name].output]
            for other_name, other in netlist.instances.items()
            if int(other_name[1:].split("_")[0]) < layer
        ]
        net = pool[int(rng.integers(len(pool)))]
        previous = netlist.instances[name].connections[pin]
        return (
            kind,
            name,
            functools.partial(netlist.rewire_pin, name, pin, net),
            functools.partial(netlist.rewire_pin, name, pin, previous),
        )
    net = sorted(netlist.nets())[int(rng.integers(len(netlist.nets())))]
    previous = netlist.net_wire_capacitance.get(net, 0.0)
    capacitance = float(rng.choice([0.0, 0.5e-15, 2e-15]))
    return (
        kind,
        net,
        lambda: netlist.set_wire_capacitance(net, capacitance),
        lambda: netlist.set_wire_capacitance(net, previous),
    )


class TestEditJournal:
    def test_journal_names_the_dirty_region(self, library):
        netlist = gate_chain(library, 4, cell_name="NAND2_X1")
        start = netlist.revision
        assert netlist.dirty_since(start) == set()
        netlist.swap_cell("u2", "NOR2_X1")
        assert netlist.dirty_since(start) == set(netlist.affected_region("u2"))
        middle = netlist.revision
        netlist.set_wire_capacitance("n4", 1e-15)  # driven by u3
        assert netlist.dirty_since(middle) == {"u3"}
        netlist.set_wire_capacitance("n0", 1e-15)  # a primary input: nobody
        assert netlist.dirty_since(netlist.revision - 1) == set()

    def test_other_mutations_make_the_journal_unknown(self, library):
        netlist = gate_chain(library, 3, cell_name="NAND2_X1")
        start = netlist.revision
        netlist.swap_cell("u1", "NOR2_X1")
        netlist.add_primary_output("n1")
        assert netlist.dirty_since(start) is None
        assert netlist.dirty_since(netlist.revision) == set()
        assert netlist.dirty_since(netlist.revision + 1) is None
        old = netlist.revision
        netlist.revision += 1  # a bump behind the journal's back
        assert netlist.dirty_since(old) is None

    def test_journal_is_bounded(self, library):
        from repro.sta.netlist import EDIT_JOURNAL_LIMIT

        netlist = gate_chain(library, 2, cell_name="NAND2_X1")
        start = netlist.revision
        for index in range(EDIT_JOURNAL_LIMIT + 1):
            netlist.set_wire_capacitance("n1", float(index) * 1e-16)
        assert netlist.dirty_since(start) is None
        assert netlist.dirty_since(netlist.revision - EDIT_JOURNAL_LIMIT) == {"u0", "u1"}

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        edit_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fragment_digest_is_the_content_hash_after_edits(self, library, seed, edit_seed):
        netlist = generate_netlist(library, f"dag:w5:d3:s{seed}")
        rng = np.random.default_rng(edit_seed)
        for _ in range(8):
            _kind, _target, apply, _undo = _random_edit(netlist, library, rng)
            apply()
            for salt in (NETLIST_DIGEST_SALT, "server-design"):
                assert netlist.content_digest(salt) == content_hash(
                    salt, netlist_fingerprint(netlist)
                )


class TestCarriedState:
    SPEC = "dag:w5:d3:s4"

    def test_results_are_independent_of_each_other_and_the_memo(
        self, library, models, options
    ):
        netlist = generate_netlist(library, self.SPEC)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=3)
        engine = CSMEngine(netlist, models, options=options, cache=_DictStore())
        cold = engine.run(waveforms, t_stop=t_stop)
        snapshot = {net: cold.waveforms[net].values.copy() for net in cold.waveforms}

        hit = engine.run(waveforms, t_stop=t_stop)
        assert hit.stats["integrations"] == 0 and hit.stats["keyed"] == 0
        for net in hit.waveforms:
            hit.waveforms[net].values[:] = -1.0
        again = engine.run(waveforms, t_stop=t_stop)
        assert again.stats["integrations"] == 0 and again.stats["keyed"] == 0
        for net, values in snapshot.items():
            assert np.array_equal(again.waveforms[net].values, values), net

        name = next(
            name
            for name, instance in netlist.instances.items()
            if swap_partner(library, instance.cell_name)
            and len(netlist.affected_region(name)) < len(netlist.instances)
        )
        region = set(netlist.affected_region(name))
        cell = netlist.instances[name].cell_name
        netlist.swap_cell(name, swap_partner(library, cell))
        edited = engine.run(waveforms, t_stop=t_stop)
        assert edited.stats["memo_hits"] >= len(netlist.instances) - len(region)
        reference = CSMEngine(netlist, models, options=options, cache=_DictStore()).run(
            waveforms, t_stop=t_stop
        )
        for net in reference.waveforms:
            assert np.array_equal(edited.waveforms[net].values, reference.waveforms[net].values)
        # Write into every waveform the memo served (the clean nets and the
        # stimuli); the memo, and so the swap-back's memo hits, must not see
        # it.
        clean = set(netlist.primary_inputs) | {
            engine._output_net(instance)
            for instance in netlist.instances.values()
            if instance.name not in region
        }
        for net in clean:
            edited.waveforms[net].values[:] = -1.0
        netlist.swap_cell(name, cell)
        restored = engine.run(waveforms, t_stop=t_stop)
        assert restored.stats["integrations"] == 0
        assert restored.stats["keyed"] == len(netlist.affected_region(name))
        for net, values in snapshot.items():
            assert np.array_equal(restored.waveforms[net].values, values), net
        assert all(np.array_equal(w.values, waveforms[n].values) for n, w in waveforms.items())

    def test_keyed_counts_the_planned_rows(self, library, models, options):
        netlist = generate_netlist(library, self.SPEC)
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=3)
        for wave in waveforms.values():
            wave.values.setflags(write=False)
            wave.times.setflags(write=False)
        engine = CSMEngine(netlist, models, options=options, cache=_DictStore())
        assert engine.run(waveforms, t_stop=t_stop).stats["keyed"] == len(netlist.instances)
        assert engine.run(waveforms, t_stop=t_stop).stats["keyed"] == 0  # nothing dirty
        name = next(
            name
            for name, instance in netlist.instances.items()
            if swap_partner(library, instance.cell_name)
            and len(netlist.affected_region(name)) < len(netlist.instances)
        )
        netlist.swap_cell(name, swap_partner(library, netlist.instances[name].cell_name))
        edited = engine.run(waveforms, t_stop=t_stop)
        assert edited.stats["keyed"] == len(netlist.affected_region(name))
        assert engine.total_stats["keyed"] == len(netlist.instances) + edited.stats["keyed"]
        # Another stimulus content re-keys everything.
        other = primary_input_waveforms(netlist, t_stop=t_stop, seed=4)
        assert engine.run(other, t_stop=t_stop).stats["keyed"] == len(netlist.instances)
        # An unjournaled mutation too.
        netlist.add_primary_output(netlist.primary_inputs[0])
        assert engine.run(other, t_stop=t_stop).stats["keyed"] == len(netlist.instances)

    @settings(max_examples=12, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=5),
        depth=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        edit_seed=st.integers(min_value=0, max_value=10_000),
        batched=st.booleans(),
    )
    # A draw whose 10th edit re-batches a level so that 3 nets moved by up
    # to 7.5e-14 V while a lockstep group could stop stepping early.
    @example(width=5, depth=3, seed=10000, edit_seed=0, batched=True)
    # The per-instance oracle carries its state across edits the same way.
    @example(width=5, depth=3, seed=10000, edit_seed=0, batched=False)
    def test_carried_runs_equal_fresh_engines_bitwise(
        self, library, models, options, width, depth, seed, edit_seed, batched
    ):
        netlist = generate_netlist(library, f"dag:w{width}:d{depth}:s{seed}")
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=1)
        for wave in waveforms.values():
            wave.values.setflags(write=False)
            wave.times.setflags(write=False)
        engine = CSMEngine(
            netlist, models, options=options, batched=batched, cache=_DictStore()
        )
        engine.run(waveforms, t_stop=t_stop)
        rng = np.random.default_rng(edit_seed)
        undo = []
        region = set()  # edited since the last walk
        for _ in range(10):
            if undo and rng.random() < 0.3:
                kind, target, revert = undo.pop()
                region |= _edit_region(netlist, kind, target)
                revert()
                region |= _edit_region(netlist, kind, target)
            else:
                kind, target, apply, revert = _random_edit(netlist, library, rng)
                region |= _edit_region(netlist, kind, target)
                apply()
                region |= _edit_region(netlist, kind, target)
                undo.append((kind, target, revert))
            if rng.random() < 0.5:
                continue
            result = engine.run(waveforms, t_stop=t_stop)
            fresh = CSMEngine(
                netlist, models, options=options, batched=batched, cache=_DictStore()
            )
            expected = fresh.run(waveforms, t_stop=t_stop)
            assert result.stats["keyed"] <= len(region)
            region = set()
            assert engine._carried.state.net_keys == fresh._carried.state.net_keys
            assert result.keys == expected.keys
            assert list(result.model_used.items()) == list(expected.model_used.items())
            assert set(result.waveforms) == set(expected.waveforms)
            for net in expected.waveforms:
                assert (
                    result.waveforms[net].values.tobytes()
                    == expected.waveforms[net].values.tobytes()
                ), net


# ----------------------------------------------------------------------
# NLDM re-timing: no cache, so every run is a full, exact evaluation
# ----------------------------------------------------------------------
def _event_bits(result):
    return {
        net: (event.net, float(event.arrival).hex(), float(event.slew).hex(), event.rising)
        for net, event in result.events.items()
    }


def _assert_same_events(result, reference):
    assert list(_event_bits(result).items()) == list(_event_bits(reference).items())
    assert list(result.mis_flags.items()) == list(reference.mis_flags.items())


class TestNLDMRetiming:
    """The NLDM engine keeps no cache: a long-lived engine re-evaluates the
    whole design on every run and must give, after every edit and stimulus
    change, bitwise a fresh engine's events and MIS pairs."""

    SPEC = "dag:w6:d3:s11"

    @pytest.fixture()
    def netlist(self, library):
        return generate_netlist(library, self.SPEC)

    @pytest.fixture()
    def events(self, netlist):
        return primary_input_events(netlist, seed=2)

    def test_repeat_evaluates_every_instance_to_the_same_bits(self, netlist, events, models):
        engine = NLDMEngine(netlist, models)
        cold = engine.run(events)
        warm = engine.run(events)
        for result in (cold, warm):
            assert result.stats["integrations"] == len(netlist.instances)
            assert result.stats["memo_hits"] == result.stats["cache_hits"] == 0
        _assert_same_events(warm, cold)

    def test_long_lived_engine_equals_fresh_after_each_edit(
        self, netlist, events, models, library
    ):
        engine = NLDMEngine(netlist, models)
        engine.run(events)
        rng = np.random.default_rng(5)
        kinds = []
        while len(kinds) < 12:
            kind, _, apply, _ = _random_edit(netlist, library, rng)
            if kind == "wire":
                continue
            apply()
            kinds.append(kind)
            edited = engine.run(events)
            assert edited.stats["integrations"] == len(netlist.instances)
            _assert_same_events(edited, NLDMEngine(netlist, models).run(events))
        assert set(kinds) == {"swap", "rewire"}

    def test_stimulus_change_equals_fresh_engine(self, netlist, events, models):
        engine = NLDMEngine(netlist, models)
        engine.run(events)
        target_pi = netlist.primary_inputs[0]
        edited_events = dict(events)
        original = events[target_pi]
        edited_events[target_pi] = dataclasses.replace(
            original, arrival=original.arrival + 50e-12
        )
        edited = engine.run(edited_events)
        _assert_same_events(edited, NLDMEngine(netlist, models).run(edited_events))


class TestNLDMWireEdit:
    """A wire-capacitance edit changes a lumped load: a long-lived NLDM
    engine's next run must equal a fresh engine's."""

    def test_wire_capacitance_edit_equals_fresh_engine(self, library, models):
        netlist = generate_netlist(library, TestNLDMRetiming.SPEC)
        events = primary_input_events(netlist, seed=2)
        engine = NLDMEngine(netlist, models)
        before = engine.run(events)
        net = next(
            engine._output_net(instance)
            for instance in netlist.instances.values()
            if engine._output_net(instance) in before.events
        )
        netlist.set_wire_capacitance(net, 20e-15)
        edited = engine.run(events)
        _assert_same_events(edited, NLDMEngine(netlist, models).run(events))
        assert edited.events[net].arrival > before.events[net].arrival


# ----------------------------------------------------------------------
# Cache robustness + result round-trip
# ----------------------------------------------------------------------
class TestCacheRobustness:
    def test_corrupt_entry_is_evicted_as_miss(self, tmp_path):
        cache = PackedStore(tmp_path / "cache")
        wave = Waveform(np.linspace(0.0, 1e-9, 512), np.linspace(0.0, 1.2, 512), name="n1")
        key = "ab" + "0" * 62
        cache.store(key, wave)
        data = tmp_path / "cache" / "store.dat"
        with open(data, "r+b") as handle:
            handle.seek(-9, os.SEEK_END)  # a payload byte: the CRC no longer holds
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        hit, value = cache.lookup(key)
        assert not hit and value is None
        assert key not in cache
        assert cache.stats.evictions == 1
        assert cache.stats.misses == 1
        # Re-storing after the eviction works and hits again.
        cache.store(key, wave)
        hit, value = cache.lookup(key)
        assert hit and np.array_equal(value.values, wave.values)

    def test_truncated_entry_is_evicted_as_miss(self, tmp_path):
        cache = PackedStore(tmp_path / "cache")
        wave = Waveform(np.linspace(0.0, 1e-9, 512), np.linspace(0.0, 1.2, 512), name="n1")
        key = "cd" + "1" * 62
        cache.store(key, wave)
        data = tmp_path / "cache" / "store.dat"
        with open(data, "r+b") as handle:
            handle.truncate(data.stat().st_size // 2)
        hit, _ = cache.lookup(key)  # the same handle, past the new end
        assert not hit
        assert cache.stats.evictions == 1
        assert key not in cache

    def test_timing_results_are_not_storable(self, tmp_path):
        # A CSM run is served instance by instance from level records, NLDM
        # recomputes its events and the figures recompute their model
        # simulations (which costs about what keying them does): the codec
        # registers neither result.
        cache = PackedStore(tmp_path / "cache")
        wave = Waveform([0.0, 1e-9], [0.1, 1.1], name="n1")
        timing = WaveformTimingResult(
            waveforms={"n1": wave},
            model_used={"u0": "SISCSM[A]"},
            netlist_name="demo",
            vdd=1.2,
            stats={"instances": 1, "integrations": 1},
        )
        for result in (timing, ModelSimulationResult(output=wave)):
            with pytest.raises(TypeError, match="not registered"):
                cache.store("ef" + "2" * 62, result)
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Multi-corner sweep
# ----------------------------------------------------------------------
class TestCornerSweep:
    def test_corner_arrival_deltas(self, experiment_context):
        from repro.experiments import corner_sta_sweep

        result = corner_sta_sweep(
            experiment_context, spec="chain:inv:3", corners=("TT", "SS"), seed=0
        )
        assert result.reference_corner == "TT"
        assert [point.corner for point in result.points] == ["TT", "SS"]
        deltas = result.deltas()
        assert all(delta == 0.0 for delta in deltas["TT"].values())
        slow = [delta for delta in deltas["SS"].values() if delta is not None]
        assert slow and all(delta > 0 for delta in slow)  # slow corner arrives later
        assert "Multi-corner STA sweep" in result.summary()
        # Each corner is bitwise a plain single-corner run on a netlist
        # generated over that corner's own library.
        from repro.cells import default_library
        from repro.technology import STANDARD_CORNERS, apply_corner

        for point in result.points:
            corner = STANDARD_CORNERS[point.corner]
            library = default_library(apply_corner(experiment_context.technology, corner))
            netlist = generate_netlist(library, "chain:inv:3")
            models = TimingModelLibrary(
                library=library, config=experiment_context.characterization
            )
            single = CSMEngine(
                netlist, models, options=experiment_context.model_options()
            ).run(primary_input_waveforms(netlist, seed=0))
            assert point.arrivals == {
                net: single.arrival(net) for net in netlist.primary_outputs
            }
