"""Tests for the gate-level netlist and the two timing engines."""

from __future__ import annotations

import pytest

from repro.characterization import CharacterizationConfig
from repro.csm.base import cap_value
from repro.exceptions import TimingError
from repro.spice.sources import SaturatedRamp
from repro.sta import (
    CSMEngine,
    GateNetlist,
    NLDMEngine,
    TimingEvent,
    TimingModelLibrary,
    detect_mis_pairs,
    windows_overlap,
)
from repro.waveform import Waveform


@pytest.fixture(scope="module")
def sta_models(library):
    """A model library with a very coarse grid to keep STA tests quick."""
    return TimingModelLibrary(
        library=library,
        config=CharacterizationConfig(io_grid_points=5),
        nldm_input_slews=(40e-12, 120e-12),
        nldm_loads=(3e-15, 12e-15),
    )


def _inverter_chain(library, stages=3):
    netlist = GateNetlist(library=library, name="chain")
    netlist.add_primary_input("n0")
    previous = "n0"
    for index in range(stages):
        net = f"n{index + 1}"
        netlist.add_instance(f"u{index}", "INV_X1", {"A": previous, "out": net})
        previous = net
    netlist.add_primary_output(previous)
    return netlist


def _mis_design(library):
    netlist = GateNetlist(library=library, name="mis")
    netlist.add_primary_input("a")
    netlist.add_primary_input("b")
    netlist.add_primary_output("y")
    netlist.add_instance("u_nor", "NOR2_X1", {"A": "a", "B": "b", "out": "y"})
    return netlist


class TestNetlist:
    def test_add_instance_validation(self, library):
        netlist = GateNetlist(library=library)
        with pytest.raises(TimingError):
            netlist.add_instance("u1", "INV_X1", {"A": "a"})  # missing output pin
        netlist.add_instance("u1", "INV_X1", {"A": "a", "out": "y"})
        with pytest.raises(TimingError):
            netlist.add_instance("u1", "INV_X1", {"A": "a", "out": "z"})  # duplicate name
        with pytest.raises(TimingError):
            netlist.add_instance("u2", "INV_X1", {"A": "a", "out": "y2", "Z": "x"})

    def test_driver_and_receivers(self, library):
        netlist = _inverter_chain(library, 2)
        driver = netlist.driver_of("n1")
        assert driver is not None and driver.name == "u0"
        assert netlist.driver_of("n0") is None
        receivers = netlist.receivers_of("n1")
        assert [(inst.name, pin) for inst, pin in receivers] == [("u1", "A")]

    def test_undriven_net_detected(self, library):
        netlist = GateNetlist(library=library)
        netlist.add_instance("u1", "INV_X1", {"A": "floating", "out": "y"})
        netlist.add_primary_output("y")
        with pytest.raises(TimingError):
            netlist.validate()

    def test_combinational_loop_detected(self, library):
        netlist = GateNetlist(library=library)
        netlist.add_instance("u1", "INV_X1", {"A": "x", "out": "y"})
        netlist.add_instance("u2", "INV_X1", {"A": "y", "out": "x"})
        with pytest.raises(TimingError):
            netlist.validate()

    def test_topological_order_and_depth(self, library):
        netlist = _inverter_chain(library, 4)
        order = [inst.name for inst in netlist.topological_order()]
        assert order == ["u0", "u1", "u2", "u3"]
        assert netlist.depth() == 4

    def test_fanout_capacitance(self, library):
        netlist = _inverter_chain(library, 2)
        netlist.set_wire_capacitance("n1", 1e-15)
        load = netlist.fanout_capacitance("n1")
        assert load > 1e-15
        with pytest.raises(TimingError):
            netlist.set_wire_capacitance("n1", -1e-15)

    def test_fanin_cone_contract(self, library):
        netlist = _inverter_chain(library, 3)
        netlist.add_primary_output("unconnected")
        assert netlist.fanin_cone("n3") == ["u0", "u1", "u2"]
        assert netlist.fanin_cone("n1", connectivity=netlist.connectivity()) == ["u0"]
        assert netlist.fanin_cone("n0") == []  # a primary input's cone is empty
        assert netlist.fanin_cone("unconnected") == []
        with pytest.raises(TimingError, match="no net named"):
            netlist.fanin_cone("nowhere")


class TestReceiverInputCapacitance:
    def test_structural_estimate_until_the_sis_model_exists(self, library, warm_store):
        """An uncharacterized pin loads its driver with the structural gate
        estimate; once its SIS model exists the load is the model's ``Ci``
        at Vdd/2, and repeated calls return that very float."""
        models = TimingModelLibrary(
            library=library,
            config=CharacterizationConfig(io_grid_points=5),
            cache=warm_store("receiver-caps"),
        )
        structural = library["NAND2_X1"].pin_gate_capacitance("B")
        assert models.receiver_input_capacitance("NAND2_X1", "B") == structural
        model = models.sis_model("NAND2_X1", "B")
        ci = cap_value(model.input_cap, model.vdd / 2.0)
        assert ci != structural
        assert models.receiver_input_capacitance("NAND2_X1", "B") == ci
        assert models.receiver_input_capacitance("NAND2_X1", "B") == ci
        # Another pin of the cell is still uncharacterized.
        assert models.receiver_input_capacitance("NAND2_X1", "A") == (
            library["NAND2_X1"].pin_gate_capacitance("A")
        )


class TestMISDetection:
    def test_windows_overlap(self):
        assert windows_overlap((0.0, 1.0), (0.5, 2.0))
        assert not windows_overlap((0.0, 1.0), (1.5, 2.0))

    def test_detect_mis_pairs(self):
        events = {
            "na": TimingEvent("na", arrival=1.00e-9, slew=60e-12, rising=False),
            "nb": TimingEvent("nb", arrival=1.03e-9, slew=60e-12, rising=False),
            "nc": TimingEvent("nc", arrival=5.00e-9, slew=60e-12, rising=False),
        }
        pin_nets = {"A": "na", "B": "nb", "C": "nc"}
        pairs = detect_mis_pairs(events, ("A", "B", "C"), pin_nets)
        assert pairs == [("A", "B")]

    def test_guard_factor_widens_windows(self):
        events = {
            "na": TimingEvent("na", arrival=1.00e-9, slew=20e-12, rising=False),
            "nb": TimingEvent("nb", arrival=1.10e-9, slew=20e-12, rising=False),
        }
        pin_nets = {"A": "na", "B": "nb"}
        assert detect_mis_pairs(events, ("A", "B"), pin_nets, guard_factor=1.0) == []
        assert detect_mis_pairs(events, ("A", "B"), pin_nets, guard_factor=3.0) == [("A", "B")]

    def test_guard_factor_must_be_positive(self):
        with pytest.raises(TimingError):
            detect_mis_pairs({}, ("A",), {"A": "n"}, guard_factor=0.0)


class TestNLDMEngine:
    def test_inverter_chain_arrivals_increase(self, library, sta_models):
        netlist = _inverter_chain(library, 3)
        engine = NLDMEngine(netlist, sta_models)
        result = engine.run(
            {"n0": TimingEvent(net="n0", arrival=0.2e-9, slew=60e-12, rising=True)}
        )
        arrivals = [result.arrival(f"n{i}") for i in range(4)]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert "chain" in result.report()

    def test_rejects_non_primary_input_event(self, library, sta_models):
        netlist = _inverter_chain(library, 2)
        engine = NLDMEngine(netlist, sta_models)
        with pytest.raises(TimingError):
            engine.run({"n1": TimingEvent(net="n1", arrival=0.0, slew=50e-12, rising=True)})

    def test_mis_flagged_on_nor(self, library, sta_models):
        netlist = _mis_design(library)
        engine = NLDMEngine(netlist, sta_models)
        result = engine.run(
            {
                "a": TimingEvent(net="a", arrival=1.0e-9, slew=60e-12, rising=False),
                "b": TimingEvent(net="b", arrival=1.02e-9, slew=60e-12, rising=False),
            }
        )
        assert result.instances_with_mis() == ["u_nor"]
        assert result.arrival("y") > 1.0e-9


class TestCSMEngine:
    def test_inverter_chain_waveforms(self, library, sta_models):
        vdd = library.technology.vdd
        netlist = _inverter_chain(library, 2)
        engine = CSMEngine(netlist, sta_models)
        ramp = SaturatedRamp(0.0, vdd, 0.4e-9, 60e-12)
        result = engine.run({"n0": Waveform.from_function(ramp, 0.0, 2.0e-9, 1000, name="n0")})
        # Two inversions: the final net ends where the input ends (high).
        assert result.waveform("n1").final_value() == pytest.approx(0.0, abs=0.08)
        assert result.waveform("n2").final_value() == pytest.approx(vdd, abs=0.08)
        assert result.arrival("n2") > result.arrival("n1") > 0.4e-9
        assert "SISCSM" in next(iter(result.model_used.values()))

    def test_mis_event_uses_mis_model(self, library, sta_models):
        vdd = library.technology.vdd
        netlist = _mis_design(library)
        engine = CSMEngine(netlist, sta_models)
        fall_a = SaturatedRamp(vdd, 0.0, 1.0e-9, 60e-12)
        fall_b = SaturatedRamp(vdd, 0.0, 1.02e-9, 60e-12)
        result = engine.run(
            {
                "a": Waveform.from_function(fall_a, 0.0, 2.5e-9, 1200, name="a"),
                "b": Waveform.from_function(fall_b, 0.0, 2.5e-9, 1200, name="b"),
            }
        )
        assert result.model_used["u_nor"] == "MCSM"
        assert result.waveform("y").final_value() == pytest.approx(vdd, abs=0.08)

    def test_missing_primary_input_rejected(self, library, sta_models):
        netlist = _mis_design(library)
        engine = CSMEngine(netlist, sta_models)
        with pytest.raises(TimingError):
            engine.run({"a": Waveform.constant(0.0, 0.0, 1e-9)})

    def test_path_delay_helper(self, library, sta_models):
        vdd = library.technology.vdd
        netlist = _inverter_chain(library, 2)
        engine = CSMEngine(netlist, sta_models)
        ramp = SaturatedRamp(0.0, vdd, 0.4e-9, 60e-12)
        result = engine.run({"n0": Waveform.from_function(ramp, 0.0, 2.0e-9, 1000, name="n0")})
        assert result.path_delay("n0", "n2") > 0
