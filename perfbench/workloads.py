"""The three seeded workloads of the timing-stack benchmark.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup(index)`` builds everything an op needs, from an empty cache; the
  harness runs it ``setups`` times and keeps the last one (``teardown``
  drops the previous one);
* ``prepare(index)`` makes an op's input outside the timed region (a fresh
  store, the next ECO edit);
* ``op(index, payload)`` is the timed region and returns a record;
* ``check(record)`` verifies one op's output, outside the timed region;
* ``finish(records)`` runs the checks that need a reference computation and
  returns per-op failures plus workload-level figures.

Inputs come only from ``seed``: the design spec, the stimulus seed and the
ECO edit sequence all derive from it, and the program under test receives
the generated inputs only.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.cells import default_library
from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.runtime.client import TimingClient
from repro.runtime.server import ServerConfig, TimingServer, build_service
from repro.runtime.store import PackedStore
from repro.sta import CSMEngine, HybridEngine
from repro.sta.generate import default_time_window, generate_netlist, primary_input_waveforms
from repro.sta.hybrid import events_from_waveforms
from repro.sta.models import TimingModelLibrary
from repro.sta.netlist import swap_partner

__all__ = ["WORKLOADS"]

#: The quick settings every runner and the server's ``settings="quick"`` use.
SIM_OPTIONS = SimulationOptions(time_step=2e-12)

#: Volt budget for "same waveform" between engines that batch differently.
VALUE_TOL_V = 1e-9


def _fresh_models(library, directory: Path) -> TimingModelLibrary:
    """A model library characterizing into an empty on-disk store."""
    return TimingModelLibrary(
        library=library,
        config=CharacterizationConfig(io_grid_points=5),
        cache=PackedStore(directory),
    )


def waveform_digest(result) -> str:
    """SHA-256 over every net's samples and the per-instance model choice."""
    digest = hashlib.sha256()
    for net in sorted(result.waveforms):
        waveform = result.waveforms[net]
        digest.update(net.encode())
        digest.update(np.ascontiguousarray(waveform.times).tobytes())
        digest.update(np.ascontiguousarray(waveform.values).tobytes())
    digest.update(json.dumps(result.model_used, sort_keys=True).encode())
    return digest.hexdigest()


class Workload:
    """Shared state: the seed, a scratch directory and the cell library."""

    name = ""
    spec = ""
    #: Ops run even when ``--seconds`` has elapsed sooner.
    min_ops = 1
    #: Set-ups per run; ``setup_s`` reports the fastest.
    setups = 2
    #: Every op repeats one deterministic computation, so the spread of op
    #: times is host noise and the best op is the op's latency (as timeit
    #: reports it).  Workloads with distinct ops report percentiles.
    identical_ops = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.library = default_library()
        self.design = self.spec.format(seed=seed)
        self.gates = 0

    def teardown(self) -> None:
        """Drop what the last ``setup`` built."""

    def store_bytes(self) -> int:
        """On-disk size of the store the current op writes to."""
        return sum(self.store.file_sizes().values())

    def _build_design(self):
        netlist = generate_netlist(self.library, self.design)
        self.gates = len(netlist.instances)
        window = default_time_window(netlist)
        stimuli = primary_input_waveforms(netlist, t_stop=window, seed=self.seed)
        return netlist, window, stimuli


class CsmColdDeep(Workload):
    """Cold streaming CSM sign-off run on a deep DAG, fresh store per op."""

    name = "csm_cold_deep"
    spec = "dag:w128:d16:s{seed}"
    min_ops = 3
    setups = 3
    identical_ops = True
    #: Hot level-tensor budget of the streaming engine (about three levels).
    budget_bytes = 8 << 20

    def setup(self, index: int) -> None:
        root = self.workdir / f"setup{index}"
        self.models = _fresh_models(self.library, root / "characterization")
        self.netlist, self.window, self.stimuli = self._build_design()
        self.models.prewarm_for_netlist(self.netlist, kinds=("sis", "mis"))
        self.digests: Dict[int, str] = {}

    def prepare(self, index: int) -> PackedStore:
        self.store = PackedStore(self.workdir / f"op{index}")
        return self.store

    def op(self, index: int, store: PackedStore) -> Dict[str, Any]:
        engine = CSMEngine(
            self.netlist,
            self.models,
            options=SIM_OPTIONS,
            cache=store,
            memory_mode="stream",
            memory_budget_bytes=self.budget_bytes,
        )
        result = engine.run(self.stimuli, t_stop=self.window)
        return {"index": index, "gates": self.gates, "stats": result.stats, "result": result, "store": store}

    def check(self, record: Dict[str, Any]) -> List[str]:
        result = record.pop("result")
        store = record.pop("store")
        try:
            self.digests[record["index"]] = waveform_digest(result)
        finally:
            del result
            store.close()
            shutil.rmtree(store.directory, ignore_errors=True)
        return []

    def finish(self, records):
        store = PackedStore(self.workdir / "resident")
        try:
            reference = CSMEngine(
                self.netlist, self.models, options=SIM_OPTIONS, cache=store
            ).run(self.stimuli, t_stop=self.window)
            expected = waveform_digest(reference)
        finally:
            store.close()
        failures = {
            index: [f"stream digest {digest[:12]} != resident {expected[:12]}"]
            for index, digest in self.digests.items()
            if digest != expected
        }
        return failures, {}


class EcoServer(Workload):
    """Closed-loop ECO session against an in-process timing server.

    Ops come in blocks of three, one of each kind in a seeded order: a cell
    swap, a pin rewire and a swap-back that undoes the latest edit (returning
    to an already-timed state, so the timing request is a whole-run hit).
    Edit targets are drawn from every instance that supports the edit,
    stratified by the size of its dirty region on the generated design, so
    each run's edits follow the design's own region-size distribution.
    """

    name = "eco_server"
    spec = "dag:w128:d4:s{seed}"
    #: Enough ops that at least ten fall beyond the 90th percentile.
    min_ops = 100
    setups = 3
    kinds = ("swap_cell", "rewire_pin", "swap_back")
    #: Targets of one edit kind cycle through this many equal-count strata
    #: of dirty-region size.  Independent draws let the run's slowest tenth
    #: of ops, and so ``latency_p90_ms``, swing with the luck of the draw.
    strata = 11
    server = None

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        netlist = generate_netlist(self.library, self.design)
        connectivity, graph = netlist.connectivity(), netlist.instance_graph()
        self.region = {
            name: len(netlist.affected_region(name, connectivity=connectivity, graph=graph))
            for name in netlist.instances
        }

    def setup(self, index: int) -> None:
        self.netlist, self.window, _ = self._build_design()
        self.rng = np.random.default_rng([self.seed, 1])
        self.undo: List[Dict[str, Any]] = []
        self.order: List[str] = []
        instances = self.netlist.instances
        by_region = sorted(instances, key=lambda n: (self.region[n], n))
        self.targets = {
            "swap_cell": [n for n in by_region if swap_partner(self.library, instances[n].cell_name)],
            "rewire_pin": [n for n in by_region if self._layer(n) > 0],
        }
        self.cycles: Dict[str, List[int]] = {kind: [] for kind in self.targets}
        config = ServerConfig(
            socket_path=self.workdir / f"server{index}.sock",
            cache_dir=self.workdir / f"server{index}",
            cache_format="packed",
            workers=min(2, os.cpu_count() or 1),
            settings="quick",
        )
        self.server = TimingServer(build_service(config), config)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                self.server.serve(ready=lambda _server: ready.set())
            ),
            name="timing-server",
            daemon=True,  # a server that failed to stop must not hang the exit
        )
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("timing server did not come up")
        self.client = TimingClient(socket_path=config.socket_path)
        self.session = self.client.open_session({"netlist": self.netlist.to_dict()})["session"]
        warm = self._timing()
        if warm["stats"]["integrations"] != self.gates:
            raise RuntimeError(f"cold warm-up integrated {warm['stats']['integrations']} of {self.gates}")

    def teardown(self) -> None:
        if self.server is None:
            return
        self.client.shutdown()
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("timing server did not stop")
        shutil.rmtree(self.server.config.cache_dir, ignore_errors=True)
        self.server = None

    def store_bytes(self) -> int:
        return sum(self.server.service.store.inner.file_sizes().values())

    def _timing(self, **extra) -> Dict[str, Any]:
        return self.client.timing(
            self.session, engine="csm", seed=self.seed, t_stop=self.window, **extra
        )

    @staticmethod
    def _layer(instance_name: str) -> int:
        return int(instance_name[1:].split("_")[0])  # random_dag names u<layer>_<pos>

    def _pick(self, names: List[str]) -> str:
        return names[int(self.rng.integers(len(names)))]

    def _target(self, kind: str) -> str:
        """A random instance from the next stratum of the kind's cycle."""
        if not self.cycles[kind]:
            self.cycles[kind] = [int(i) for i in self.rng.permutation(self.strata)]
        stratum = self.cycles[kind].pop()
        names = self.targets[kind]
        low = len(names) * stratum // self.strata
        high = len(names) * (stratum + 1) // self.strata
        return self._pick(names[low:high])

    def prepare(self, index: int) -> Tuple[str, Dict[str, Any]]:
        """The next seeded edit.

        Each block of three ops holds one edit of each kind in a seeded
        order; the first block keeps its swap-back last, so there is always
        an edit to undo.  A rewire moves an input pin to the output of an
        instance of an earlier layer (or to a primary input), so the design
        stays acyclic.
        """
        if not self.order:
            self.order = [self.kinds[i] for i in self.rng.permutation(len(self.kinds))]
            if not self.undo:
                self.order.remove("swap_back")
                self.order.append("swap_back")
        kind = self.order.pop(0)
        if kind == "swap_back":
            return kind, self.undo.pop()
        instances = self.netlist.instances
        if kind == "swap_cell":
            name = self._target("swap_cell")
            current = instances[name].cell_name
            edit = {"kind": "swap_cell", "instance": name, "cell": swap_partner(self.library, current)}
            self.undo.append({"kind": "swap_cell", "instance": name, "cell": current})
            return kind, edit
        name = self._target("rewire_pin")
        pin = self._pick(list(self.library[instances[name].cell_name].inputs))
        current = instances[name].connections[pin]
        pool = list(self.netlist.primary_inputs) + [
            instances[other].connections[self.library[instances[other].cell_name].output]
            for other in instances
            if self._layer(other) < self._layer(name)
        ]
        edit = {"kind": "rewire_pin", "instance": name, "pin": pin, "net": self._pick([n for n in pool if n != current])}
        self.undo.append({**edit, "net": current})
        return kind, edit

    def op(self, index: int, payload) -> Dict[str, Any]:
        kind, edit = payload
        eco = self.client.eco(self.session, [edit])
        response = self._timing()
        return {
            "index": index,
            "gates": self.gates,
            "kind": kind,
            "edit": edit,
            "affected": eco["applied"][0]["affected"],
            "stats": response["stats"],
        }

    def check(self, record: Dict[str, Any]) -> List[str]:
        edit = record["edit"]
        if edit["kind"] == "swap_cell":
            self.netlist.swap_cell(edit["instance"], edit["cell"])
        else:
            self.netlist.rewire_pin(edit["instance"], edit["pin"], edit["net"])
        integrations = record["stats"]["integrations"]
        if integrations > record["affected"]:
            return [f"{integrations} integrations > {record['affected']} affected"]
        return []

    def finish(self, records):
        response = self._timing(return_waveforms=True)
        models = _fresh_models(self.library, self.workdir / "rebuild-characterization")
        reference = CSMEngine(
            self.netlist, models, options=SIM_OPTIONS, use_cache=False
        ).run(
            primary_input_waveforms(self.netlist, t_stop=self.window, seed=self.seed),
            t_stop=self.window,
        )
        served = TimingClient.waveforms_of(response)
        deviation = max(
            float(np.abs(reference.waveforms[net].values - values).max())
            for net, (_, values) in served.items()
        )
        missing = set(self.netlist.primary_outputs) - set(served)
        failures: Dict[int, List[str]] = {}
        if deviation > VALUE_TOL_V or missing:
            failures[records[-1]["index"]] = [
                f"final state deviates {deviation:.3e} V from a no-cache rebuild"
                f" ({len(missing)} endpoints missing)"
            ]
        return failures, {"rebuild_deviation_v": deviation}


class HybridWide(Workload):
    """One-shot hybrid NLDM survey + top-k CSM refinement on a wide DAG."""

    name = "hybrid_wide"
    spec = "dag:w1024:d4:s{seed}"
    min_ops = 4
    identical_ops = True
    top_k = 8

    def setup(self, index: int) -> None:
        root = self.workdir / f"setup{index}"
        self.models = _fresh_models(self.library, root / "characterization")
        self.netlist, self.window, self.stimuli = self._build_design()
        self.models.prewarm_for_netlist(self.netlist, kinds=("sis", "mis"), include_nldm=True)
        self.outputs: Dict[int, Dict[str, Any]] = {}

    def prepare(self, index: int) -> PackedStore:
        self.store = PackedStore(self.workdir / f"op{index}")
        return self.store

    def op(self, index: int, store: PackedStore) -> Dict[str, Any]:
        engine = HybridEngine(
            self.netlist,
            self.models,
            options=SIM_OPTIONS,
            cache=store,
            top_k=self.top_k,
            max_iterations=1,
        )
        result = engine.run(self.stimuli, t_stop=self.window)
        return {"index": index, "gates": self.gates, "stats": result.stats, "result": result, "store": store}

    def check(self, record: Dict[str, Any]) -> List[str]:
        result = record.pop("result")
        store = record.pop("store")
        record["csm_fraction"] = result.csm_fraction
        self.outputs[record["index"]] = {
            "exact": {net: np.array(result.waveforms[net].values) for net in result.exact_nets},
            "arrivals": dict(result.endpoint_arrivals),
        }
        store.close()
        shutil.rmtree(store.directory, ignore_errors=True)
        return [] if result.exact_nets else ["no CSM-exact nets"]

    def finish(self, records):
        store = PackedStore(self.workdir / "reference")
        try:
            reference = CSMEngine(
                self.netlist, self.models, options=SIM_OPTIONS, cache=store
            ).run(self.stimuli, t_stop=self.window)
            endpoints = set(self.netlist.primary_outputs)
            reference_arrivals = {
                net: event.arrival
                for net, event in events_from_waveforms(
                    {net: reference.waveforms[net] for net in endpoints}, reference.vdd
                ).items()
            }
            failures: Dict[int, List[str]] = {}
            first = self.outputs[min(self.outputs)]
            for index, output in self.outputs.items():
                deviation = max(
                    float(np.abs(values - reference.waveforms[net].values).max())
                    for net, values in output["exact"].items()
                )
                problems = []
                if deviation > VALUE_TOL_V:
                    problems.append(f"exact nets deviate {deviation:.3e} V from full CSM")
                if output["arrivals"] != first["arrivals"]:
                    problems.append("endpoint arrivals differ between identical ops")
                if problems:
                    failures[index] = problems
        finally:
            store.close()
        errors = [
            abs(first["arrivals"][net] - arrival)
            for net, arrival in reference_arrivals.items()
            if first["arrivals"].get(net) is not None
        ]
        return failures, {"arrival_err_ps": max(errors) * 1e12}


WORKLOADS = {workload.name: workload for workload in (CsmColdDeep, EcoServer, HybridWide)}
