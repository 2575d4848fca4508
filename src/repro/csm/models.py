"""The current-source model family: SIS CSM, baseline MIS CSM and MCSM.

Three model flavours are implemented, mirroring Sections 2.1, 3.1 and 3.2/3.3
of the paper:

* :class:`SISCSM` — the classic single-input-switching model ([5]-style):
  an output current source ``Io(Vi, Vo)`` plus input, output and Miller
  capacitances.  Only one input is treated as switching; the others are held
  at their characterized (non-controlling) values.
* :class:`BaselineMISCSM` — the MIS extension *without* internal-node
  modeling (Section 3.1): ``Io(VA, VB, Vo)`` plus per-input Miller and input
  capacitances.  The internal node settles to its DC value during
  characterization, so all history information is lost — this is the model
  the paper shows to have ~22 % delay error.
* :class:`MCSM` — the paper's complete model (Sections 3.2/3.3): the internal
  node is an explicit state with its own current source ``I_N(VA, VB, VN,
  Vo)`` and capacitance ``C_N``, and the output current source depends on it:
  ``Io(VA, VB, VN, Vo)``.

All three expose ``simulate(...)`` which integrates the discretized KCL
equations (Eqs. (4)/(5)) for arbitrary input waveforms and loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from ..exceptions import ModelError
from ..lut.table import NDTable
from ..waveform.waveform import Waveform
from .base import Capacitance, ModelSimulationResult, SimulationOptions, cap_value
from .dc import settle_units
from .loads import Load, as_load
from .simulate import BatchUnit, integrate_model

__all__ = ["SISCSM", "BaselineMISCSM", "MCSM"]


def _settle(
    pin_values: Mapping[str, float], options: SimulationOptions, **model
) -> Tuple[float, Optional[float]]:
    """The steady state ``(V_out, V_N or None)`` for constant input voltages.

    ``model`` holds the :class:`~repro.csm.simulate.BatchUnit` fields of the
    model, its load and its starting state; the inputs are held at
    ``pin_values`` over ``settle_time``.  One
    :func:`~repro.csm.dc.settle_units` batch of one: the DC operating point,
    or the integration settle where ``options.settle_mode`` or the model
    asks for it.
    """
    waveforms = {
        pin: Waveform.constant(value, 0.0, options.settle_time, name=pin)
        for pin, value in pin_values.items()
    }
    return settle_units([BatchUnit(input_waveforms=waveforms, **model)], options)[0]


def _require_waveforms(input_waveforms: Mapping[str, Waveform], pins: Tuple[str, ...], cell: str) -> None:
    missing = [pin for pin in pins if pin not in input_waveforms]
    if missing:
        raise ModelError(f"model for {cell!r} needs input waveforms for pins {missing}")


@dataclass
class SISCSM:
    """Single-input-switching current source model (Section 2.1).

    Attributes
    ----------
    cell_name:
        Name of the characterized cell.
    pin:
        The switching input pin the model was characterized for.
    fixed_inputs:
        DC voltages of the remaining input pins during characterization
        (their non-controlling values).
    io_table:
        ``Io(Vi, Vo)`` lookup table.
    input_cap / output_cap / miller_cap:
        Characterized ``Ci``, ``Co`` and ``CM``.
    vdd:
        Supply voltage the model was characterized at.
    """

    cell_name: str
    pin: str
    fixed_inputs: Dict[str, float]
    io_table: NDTable
    input_cap: Capacitance
    output_cap: Capacitance
    miller_cap: Capacitance
    vdd: float
    metadata: Dict[str, str] = field(default_factory=dict)

    def output_current(self, vi: float, vo: float) -> float:
        """Cell output current (positive = sinking current from the output)."""
        return self.io_table.evaluate(vi, vo)

    def input_capacitance(self, vi: float) -> float:
        """Receiver-side input capacitance ``Ci(Vi)``."""
        return cap_value(self.input_cap, vi)

    def simulate(
        self,
        input_waveform: Waveform,
        load: Union[Load, float],
        initial_output: Optional[float] = None,
        options: Optional[SimulationOptions] = None,
        t_start: Optional[float] = None,
        t_stop: Optional[float] = None,
    ) -> ModelSimulationResult:
        """Compute the output waveform for one switching input waveform."""
        options = options or SimulationOptions()
        load = as_load(load)
        if initial_output is None:
            initial_output = self._settle_output(input_waveform.initial_value(), load, options)
        times, v_out, _ = integrate_model(
            pins=(self.pin,),
            input_waveforms={self.pin: input_waveform},
            output_current=self.io_table,
            miller_caps={self.pin: self.miller_cap},
            output_cap=self.output_cap,
            load=load,
            vdd=self.vdd,
            initial_output=initial_output,
            options=options,
            t_start=t_start,
            t_stop=t_stop,
        )
        return ModelSimulationResult(
            output=Waveform(times, v_out, name=f"{self.cell_name}.out[SIS]"),
            inputs={self.pin: input_waveform},
            metadata={"model": "SIS-CSM", "cell": self.cell_name},
        )

    def _settle_output(self, vi: float, load: Load, options: SimulationOptions) -> float:
        """Find the steady-state output for a constant input voltage."""
        settled, _ = _settle(
            {self.pin: vi},
            options,
            pins=(self.pin,),
            output_current=self.io_table,
            miller_caps={self.pin: self.miller_cap},
            output_cap=self.output_cap,
            load=load,
            vdd=self.vdd,
            initial_output=self.vdd / 2.0,
        )
        return settled


@dataclass
class BaselineMISCSM:
    """Multiple-input-switching CSM *without* internal-node modeling (Sec. 3.1).

    The output current source depends on both switching inputs and the output
    voltage; Miller capacitances are included (unlike [7]) unless
    ``include_miller`` is switched off for ablation studies.
    """

    cell_name: str
    pin_a: str
    pin_b: str
    fixed_inputs: Dict[str, float]
    io_table: NDTable
    input_caps: Dict[str, Capacitance]
    output_cap: Capacitance
    miller_caps: Dict[str, Capacitance]
    vdd: float
    include_miller: bool = True
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def pins(self) -> Tuple[str, str]:
        return (self.pin_a, self.pin_b)

    def output_current(self, va: float, vb: float, vo: float) -> float:
        return self.io_table.evaluate(va, vb, vo)

    def input_capacitance(self, pin: str, vi: float) -> float:
        if pin not in self.input_caps:
            raise ModelError(f"model for {self.cell_name!r} has no input capacitance for pin {pin!r}")
        return cap_value(self.input_caps[pin], vi)

    def effective_miller_caps(self) -> Dict[str, Capacitance]:
        """The Miller capacitances the integrator sees (zeroed when the
        ``include_miller`` ablation switch is off)."""
        if self.include_miller:
            return dict(self.miller_caps)
        return {pin: 0.0 for pin in self.pins}

    def simulate(
        self,
        input_waveforms: Mapping[str, Waveform],
        load: Union[Load, float],
        initial_output: Optional[float] = None,
        options: Optional[SimulationOptions] = None,
        t_start: Optional[float] = None,
        t_stop: Optional[float] = None,
    ) -> ModelSimulationResult:
        """Compute the output waveform for two switching input waveforms."""
        options = options or SimulationOptions()
        load = as_load(load)
        _require_waveforms(input_waveforms, self.pins, self.cell_name)
        if initial_output is None:
            initial_output = self._settle_output(
                {pin: input_waveforms[pin].initial_value() for pin in self.pins}, load, options
            )
        times, v_out, _ = integrate_model(
            pins=self.pins,
            input_waveforms=input_waveforms,
            output_current=self.io_table,
            miller_caps=self.effective_miller_caps(),
            output_cap=self.output_cap,
            load=load,
            vdd=self.vdd,
            initial_output=initial_output,
            options=options,
            t_start=t_start,
            t_stop=t_stop,
        )
        return ModelSimulationResult(
            output=Waveform(times, v_out, name=f"{self.cell_name}.out[MIS]"),
            inputs=dict(input_waveforms),
            metadata={"model": "baseline-MIS-CSM", "cell": self.cell_name},
        )

    def _settle_output(
        self, pin_values: Mapping[str, float], load: Load, options: SimulationOptions
    ) -> float:
        settled, _ = _settle(
            pin_values,
            options,
            pins=self.pins,
            output_current=self.io_table,
            miller_caps=self.effective_miller_caps(),
            output_cap=self.output_cap,
            load=load,
            vdd=self.vdd,
            initial_output=self.vdd / 2.0,
        )
        return settled


@dataclass
class MCSM:
    """The paper's complete MIS current-source model with internal node.

    Attributes
    ----------
    io_table / in_table:
        4-D tables ``Io(VA, VB, VN, Vo)`` and ``I_N(VA, VB, VN, Vo)``.
    internal_cap:
        Characterized internal-node capacitance ``C_N``.
    internal_node:
        Name of the physical stack node this model's ``VN`` corresponds to
        (bookkeeping only).
    """

    cell_name: str
    pin_a: str
    pin_b: str
    fixed_inputs: Dict[str, float]
    io_table: NDTable
    in_table: NDTable
    input_caps: Dict[str, Capacitance]
    output_cap: Capacitance
    miller_caps: Dict[str, Capacitance]
    internal_cap: Capacitance
    vdd: float
    internal_node: str = "n1"
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def pins(self) -> Tuple[str, str]:
        return (self.pin_a, self.pin_b)

    def output_current(self, va: float, vb: float, vn: float, vo: float) -> float:
        """``Io(VA, VB, VN, Vo)``: positive = the cell sinks output current."""
        return self.io_table.evaluate(va, vb, vn, vo)

    def internal_current(self, va: float, vb: float, vn: float, vo: float) -> float:
        """``I_N(VA, VB, VN, Vo)``: positive = current flows out of node N."""
        return self.in_table.evaluate(va, vb, vn, vo)

    def input_capacitance(self, pin: str, vi: float) -> float:
        if pin not in self.input_caps:
            raise ModelError(f"model for {self.cell_name!r} has no input capacitance for pin {pin!r}")
        return cap_value(self.input_caps[pin], vi)

    # ------------------------------------------------------------------
    def settle_state(
        self,
        pin_values: Mapping[str, float],
        load: Union[Load, float],
        options: Optional[SimulationOptions] = None,
        initial_output: Optional[float] = None,
        initial_internal: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Steady-state (V_out, V_N) for constant input voltages.

        Used to establish the initial internal-node voltage for a given input
        history starting state (e.g. inputs '10' give V_N ~= Vdd while '01'
        gives V_N ~= |Vt,p|).

        With ``options.settle_mode == "dc"`` (the default) the state is the
        model's DC operating point on the characterized tables, which is also
        correct for the slow stack-leakage input states whose internal node
        is still drifting at the end of the ``settle_time`` window.
        """
        options = options or SimulationOptions()
        return _settle(
            pin_values,
            options,
            pins=self.pins,
            output_current=self.io_table,
            miller_caps=dict(self.miller_caps),
            output_cap=self.output_cap,
            load=as_load(load),
            vdd=self.vdd,
            initial_output=self.vdd / 2.0 if initial_output is None else initial_output,
            internal_current=self.in_table,
            internal_cap=self.internal_cap,
            initial_internal=self.vdd / 2.0 if initial_internal is None else initial_internal,
        )

    def simulate(
        self,
        input_waveforms: Mapping[str, Waveform],
        load: Union[Load, float],
        initial_output: Optional[float] = None,
        initial_internal: Optional[float] = None,
        options: Optional[SimulationOptions] = None,
        t_start: Optional[float] = None,
        t_stop: Optional[float] = None,
    ) -> ModelSimulationResult:
        """Compute output and internal-node waveforms (Eqs. (4) and (5)).

        When the initial voltages are not supplied they are obtained by
        settling the model at the initial input values, which reproduces the
        correct history-dependent internal-node precharge as long as the
        supplied input waveforms start from a stable logic state.
        """
        options = options or SimulationOptions()
        load = as_load(load)
        _require_waveforms(input_waveforms, self.pins, self.cell_name)
        if initial_output is None or initial_internal is None:
            settled_out, settled_int = self.settle_state(
                {pin: input_waveforms[pin].initial_value() for pin in self.pins}, load, options
            )
            if initial_output is None:
                initial_output = settled_out
            if initial_internal is None:
                initial_internal = settled_int

        times, v_out, v_int = integrate_model(
            pins=self.pins,
            input_waveforms=input_waveforms,
            output_current=self.io_table,
            miller_caps=dict(self.miller_caps),
            output_cap=self.output_cap,
            load=load,
            vdd=self.vdd,
            initial_output=initial_output,
            options=options,
            t_start=t_start,
            t_stop=t_stop,
            internal_current=self.in_table,
            internal_cap=self.internal_cap,
            initial_internal=initial_internal,
        )
        assert v_int is not None
        return ModelSimulationResult(
            output=Waveform(times, v_out, name=f"{self.cell_name}.out[MCSM]"),
            internal=Waveform(times, v_int, name=f"{self.cell_name}.{self.internal_node}[MCSM]"),
            inputs=dict(input_waveforms),
            metadata={"model": "MCSM", "cell": self.cell_name},
        )
