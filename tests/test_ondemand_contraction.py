"""Recorded waveform digests of whole tensor-path CSM runs.

Tensor-path CSM runs (resident, streaming and a 2-corner MMMC run) and the
``batched=False`` reference path reproduce recorded waveform digests.  The
compiled step loops that integrate them are held to their scalar twins row
by row in tests/test_csm_kernel.py.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.csm.base import SimulationOptions
from repro.runtime.store import PackedStore
from repro.sta import CSMEngine
from repro.sta.generate import default_time_window, generate_netlist, primary_input_waveforms
from repro.sta.mmmc import CornerSet
from repro.sta.models import TimingModelLibrary

FIXTURE = Path(__file__).parent / "fixtures" / "csm_waveform_digests.json"
_RECORDED = json.loads(FIXTURE.read_text())


# ----------------------------------------------------------------------
# Recorded digests of whole tensor-path runs
# ----------------------------------------------------------------------
def _waveform_digest(result) -> str:
    """SHA-256 over every net's samples and the per-instance model choice."""
    digest = hashlib.sha256()
    for net in sorted(result.waveforms):
        waveform = result.waveforms[net]
        digest.update(net.encode())
        digest.update(np.ascontiguousarray(waveform.times).tobytes())
        digest.update(np.ascontiguousarray(waveform.values).tobytes())
    digest.update(json.dumps(result.model_used, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digest_run(library):
    """The recorded design, its stimuli and the engine options."""
    netlist = generate_netlist(library, _RECORDED["spec"])
    t_stop = default_time_window(netlist)
    stimuli = primary_input_waveforms(netlist, t_stop=t_stop, seed=3)
    return netlist, stimuli, t_stop, SimulationOptions(time_step=2e-12)


def test_resident_and_stream_runs_match_recorded_digests(
    digest_run, library, fast_config, tmp_path
):
    netlist, stimuli, t_stop, options = digest_run
    models = TimingModelLibrary(library=library, config=fast_config)
    resident = CSMEngine(netlist, models, options=options, use_cache=False)
    assert _waveform_digest(resident.run(stimuli, t_stop=t_stop)) == _RECORDED["digests"]["resident"]
    oracle = CSMEngine(netlist, models, options=options, batched=False, use_cache=False)
    assert _waveform_digest(oracle.run(stimuli, t_stop=t_stop)) == _RECORDED["digests"]["resident"]
    store = PackedStore(tmp_path / "stream")
    try:
        stream = CSMEngine(
            netlist,
            models,
            options=options,
            cache=store,
            memory_mode="stream",
            memory_budget_bytes=1 << 16,
        )
        result = stream.run(stimuli, t_stop=t_stop)
        assert _waveform_digest(result) == _RECORDED["digests"]["stream"]
    finally:
        store.close()


@pytest.mark.parametrize("cpus", [1, 2])
def test_mmmc_run_matches_recorded_digests(
    digest_run, technology, fast_config, warm_up, cpus, monkeypatch
):
    # The removed fused all-corner pass ran on 1 CPU and gave other FF values
    # than the 2-CPU split; per-corner runs must give the same digests on both.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _, stimuli, t_stop, options = digest_run
    corners = warm_up(
        CornerSet.from_names(["TT", "FF"], technology=technology, config=fast_config)
    )
    netlist = generate_netlist(corners.reference.library, _RECORDED["spec"])
    result = CSMEngine(
        netlist,
        corners.reference.models,
        options=options,
        corners=corners,
        use_cache=False,
    ).run(stimuli, t_stop=t_stop)
    for name in ("TT", "FF"):
        digest = _waveform_digest(result.results[name])
        assert digest == _RECORDED["digests"][f"mmmc_w2_{name}"], name
