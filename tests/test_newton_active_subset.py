"""Active-subset batched Newton: a run's result does not depend on its batch.

``newton_solve_many`` assembles and solves only the runs that have not yet
converged, each independently of its batch neighbours, so every run must
agree *bitwise* with the same run solved as a batch of one.  These tests pin
that down on circuits where runs converge at genuinely different iteration
counts (a DC bias grid spanning sub-threshold to full-rail, and a
multi-stimulus transient).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import build_nor
from repro.cells.testbench import build_testbench
from repro.spice.dc import DCAnalysis
from repro.spice.mna import MNAAssembler, NewtonOptions, newton_solve_many
from repro.spice.sources import SaturatedRamp
from repro.spice.transient import TransientAnalysis, TransientOptions
from repro.technology import default_technology


@pytest.fixture(scope="module")
def nor2_bench():
    technology = default_technology()
    cell = build_nor(technology, 2)
    return build_testbench(cell, {"A": 0.0, "B": 0.0}, load_capacitance=5e-15)


def _bias_batch(bench, grid):
    """(initial, vs_values, cs_values) for a grid of (VA, VB) bias points."""
    assembler = MNAAssembler(bench.circuit)
    vdd = bench.cell.technology.vdd
    names = [source.name for source in assembler.voltage_sources]
    rows = []
    for va, vb in grid:
        values = {"VDD": vdd, "VA": va, "VB": vb}
        rows.append([values[name] for name in names])
    vs_values = np.array(rows)
    cs_values = np.zeros((len(grid), len(assembler.current_sources)))
    initial = np.zeros((len(grid), assembler.size))
    return assembler, initial, vs_values, cs_values


def test_rows_equal_batches_of_one_bitwise(nor2_bench):
    vdd = nor2_bench.cell.technology.vdd
    grid = [
        (va, vb)
        for va in np.linspace(-0.1, vdd + 0.1, 7)
        for vb in np.linspace(-0.1, vdd + 0.1, 7)
    ]
    assembler, initial, vs_values, cs_values = _bias_batch(nor2_bench, grid)

    batched = newton_solve_many(assembler, initial, vs_values, cs_values)
    for row in range(len(grid)):
        [alone] = newton_solve_many(
            assembler, initial[row : row + 1], vs_values[row : row + 1], cs_values[row : row + 1]
        )
        assert batched[row].tobytes() == alone.tobytes(), grid[row]


def test_batch_solutions_are_newton_fixed_points(nor2_bench):
    """Every row of a batch that converged at different iteration counts is
    a solution: one more Newton update from it stays below both tolerances."""
    vdd = nor2_bench.cell.technology.vdd
    grid = [(0.0, 0.0), (vdd / 3, vdd / 2), (vdd, 0.2), (vdd, vdd)]
    assembler, initial, vs_values, cs_values = _bias_batch(nor2_bench, grid)

    batched = newton_solve_many(assembler, initial, vs_values, cs_values)
    options = NewtonOptions()
    matrices, rhs = assembler.build_many(batched, vs_values, cs_values)
    update = np.abs(np.linalg.solve(matrices, rhs[..., None])[..., 0] - batched)
    nodes = assembler.num_nodes
    assert update[:, :nodes].max() < options.voltage_tolerance
    assert update[:, nodes:].max() < options.current_tolerance


def test_dc_grid_unchanged_by_active_subset(nor2_bench):
    """DCAnalysis.solve_grid rides on newton_solve_many; results must hold."""
    analysis = DCAnalysis(nor2_bench.circuit)
    vdd = nor2_bench.cell.technology.vdd
    points = [
        {"VA": va, "VB": vb}
        for va in (0.0, vdd / 2, vdd)
        for vb in (0.0, vdd / 2, vdd)
    ]
    results = analysis.solve_grid(points)
    assert len(results) == len(points)
    out_off = results[0].voltage("out")  # both inputs low -> output high
    out_on = results[-1].voltage("out")  # both inputs high -> output low
    assert out_off > 0.9 * vdd
    assert out_on < 0.1 * vdd


def test_transient_rows_equal_batches_of_one_bitwise():
    """Every ``run_many`` row is bit-identical to its batch of one.

    The lockstep transient engine drives ``newton_solve_many`` at every time
    step with runs converging at different iteration counts (three very
    different input slews), so the active subset shrinks and regrows step by
    step.  Every ramp corner lies on the 4 ps grid except the 150 ps end of
    the bench's own ramp, which is in every run's grid, so a run's batch of
    one integrates on the batch's grid.
    """
    technology = default_technology()
    cell = build_nor(technology, 2)
    ramp = SaturatedRamp(0.0, technology.vdd, 100e-12, 50e-12)
    options = TransientOptions(time_step=4e-12, record_source_currents=False)
    stimulus_sets = [
        {"VA": SaturatedRamp(0.0, technology.vdd, 100e-12, slew)}
        for slew in (20e-12, 50e-12, 148e-12)
    ]

    def run_batch(sets):
        bench = build_testbench(cell, {"A": ramp, "B": 0.0}, load_capacitance=5e-15)
        engine = TransientAnalysis(bench.circuit, options)
        return engine.run_many(sets, t_stop=0.6e-9)

    batched = run_batch(stimulus_sets)
    for stimuli, result in zip(stimulus_sets, batched):
        [alone] = run_batch([stimuli])
        assert result.times.tobytes() == alone.times.tobytes()
        for node in ("out", "n1", "A"):
            assert result.voltage_trace(node).tobytes() == alone.voltage_trace(node).tobytes(), node
