"""Golden regression fixtures (PR 5).

Small committed reference outputs for the paper's headline numbers (fig9 /
fig11 delays and RMSEs, the fig10 glitch peaks and the fig12 crosstalk
sweep) and a 64-gate DAG STA run (per-primary-output CSM arrivals and NLDM
events).  Numerical drift introduced by a future PR fails
these loudly instead of sliding through silently — the engine-equivalence
tests only compare the engines against *each other*, not against history.

To regenerate after an *intentional* numerical change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and commit the updated ``tests/golden/*.json`` together with the change
that explains the drift.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.csm.base import SimulationOptions
from repro.sta import (
    CSMEngine,
    NLDMEngine,
    TimingModelLibrary,
    generate_netlist,
    primary_input_events,
    primary_input_waveforms,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")

#: Relative tolerance for golden comparisons.  Far looser than float
#: round-off (so BLAS/library-version noise never trips it) yet orders of
#: magnitude tighter than any physically meaningful drift.
RTOL = 1e-6
ATOL = 1e-15

STA_SPEC = "dag:w16:d4:s3"
STA_SEED = 0


def _check_or_regen(name: str, computed: dict) -> None:
    """Compare a computed scalar tree against the committed fixture."""
    path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} is missing — run with REPRO_REGEN_GOLDEN=1 "
            "to create it"
        )
    golden = json.loads(path.read_text())
    mismatches = []

    def compare(prefix, expected, actual):
        if isinstance(expected, dict):
            assert set(expected) == set(actual), (prefix, expected, actual)
            for key in expected:
                compare(f"{prefix}.{key}", expected[key], actual[key])
            return
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            if expected != actual:
                mismatches.append(f"{prefix}: {actual!r} != golden {expected!r}")
            return
        if abs(actual - expected) > ATOL + RTOL * abs(expected):
            drift = (actual - expected) / expected if expected else float("inf")
            mismatches.append(
                f"{prefix}: {actual!r} drifted from golden {expected!r} "
                f"(rel {drift:+.3e})"
            )

    compare(name, golden, computed)
    assert not mismatches, "golden drift detected:\n  " + "\n  ".join(mismatches)


def test_fig9_arrival_golden(experiment_context):
    from repro.experiments import run_fig9

    result = run_fig9(experiment_context, fanout=1)
    computed = {
        case.label: {
            "reference_delay": case.reference_delay,
            "mcsm_delay": case.mcsm_delay,
            "baseline_delay": case.baseline_delay,
            "mcsm_rmse": case.mcsm_rmse,
        }
        for case in result.cases
    }
    computed["max_mcsm_error_percent"] = result.max_mcsm_error_percent()
    computed["max_baseline_error_percent"] = result.max_baseline_error_percent()
    _check_or_regen("fig9", computed)


def test_fig11_arrival_golden(experiment_context):
    from repro.experiments import run_fig11

    result = run_fig11(experiment_context)
    _check_or_regen(
        "fig11",
        {
            "reference_delay": result.reference_delay,
            "mcsm_delay": result.mcsm_delay,
            "sis_delay": result.sis_delay,
            "mcsm_rmse": result.mcsm_rmse,
            "sis_rmse": result.sis_rmse,
            "mcsm_delay_error_percent": result.mcsm_delay_error_percent,
            "sis_delay_error_percent": result.sis_delay_error_percent,
        },
    )


def test_fig10_glitch_golden(experiment_context):
    from repro.experiments import run_fig10

    result = run_fig10(experiment_context, pulse_width=40e-12)
    _check_or_regen(
        "fig10",
        {
            "reference_peak": result.reference_peak,
            "mcsm_peak": result.mcsm_peak,
            "rmse_fraction_of_vdd": result.rmse_fraction_of_vdd,
            "peak_error_volts": result.peak_error_volts,
        },
    )


def test_fig12_crosstalk_golden(experiment_context):
    from repro.experiments import run_fig12

    result = run_fig12(experiment_context, num_points=3)
    computed = {
        f"{point.injection_time:.4e}": {
            "reference_delay": point.reference_delay,
            "mcsm_delay": point.mcsm_delay,
            "rmse_fraction_of_vdd": point.rmse_fraction_of_vdd,
        }
        for point in result.points
    }
    computed["average_rmse_fraction"] = result.average_rmse_fraction()
    computed["max_delay_error"] = result.max_delay_error()
    _check_or_regen("fig12", computed)


@pytest.fixture(scope="module")
def sta_models(library, fast_config, warm_up):
    return warm_up(TimingModelLibrary(library=library, config=fast_config))


@pytest.fixture(scope="module")
def sta_netlist(library):
    return generate_netlist(library, STA_SPEC)


def test_sta_csm_arrivals_golden(sta_netlist, sta_models):
    """64-gate DAG, batched CSM engine: last 50 % crossing per primary output."""
    waveforms = primary_input_waveforms(sta_netlist, seed=STA_SEED)
    engine = CSMEngine(
        sta_netlist, sta_models, options=SimulationOptions(time_step=2e-12), use_cache=False
    )
    result = engine.run(waveforms)
    from repro.waveform.metrics import crossing_times

    arrivals = {}
    stable = []
    for net in sta_netlist.primary_outputs:
        crossings = crossing_times(result.waveform(net), 0.5 * result.vdd)
        if crossings:
            arrivals[net] = crossings[-1]
        else:
            stable.append(net)
    computed = {
        "spec": STA_SPEC,
        "gates": len(sta_netlist.instances),
        "arrivals": arrivals,
        "stable_outputs": sorted(stable),
        "model_used_counts": {
            label: sum(1 for used in result.model_used.values() if used == label)
            for label in sorted(set(result.model_used.values()))
        },
    }
    _check_or_regen("sta_csm", computed)


def test_sta_nldm_events_golden(sta_netlist, sta_models):
    """Same DAG through the NLDM engine: per-output (arrival, slew, direction)."""
    events = primary_input_events(sta_netlist, seed=STA_SEED)
    result = NLDMEngine(sta_netlist, sta_models).run(events)
    computed = {
        "spec": STA_SPEC,
        "events": {
            net: {
                "arrival": result.events[net].arrival,
                "slew": result.events[net].slew,
                "rising": result.events[net].rising,
            }
            for net in sta_netlist.primary_outputs
            if net in result.events
        },
        "instances_with_mis": sorted(result.instances_with_mis()),
    }
    _check_or_regen("sta_nldm", computed)
