"""Timing server (PR 7): single-flight, service, sessions, daemon.

Layers under test, bottom-up:

* :class:`SingleFlight` / :class:`SingleFlightStore` — concurrent duplicate
  coalescing and in-flight store dedupe with miss-only failure semantics;
* :class:`TimingService` — designs, sessions, timing/ECO requests, error
  frames, and the engine rebind/stats-reset satellite;
* concurrent sessions — conflicting and non-conflicting ECOs, cross-session
  dedupe observable in the request stats;
* the asyncio daemon — socket + HTTP round trips through a real listener.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig
from repro.csm.base import SimulationOptions
from repro.runtime import PackedStore
from repro.runtime.client import TimingClient, TimingServerError
from repro.exceptions import TimingError
from repro.runtime.jobs import content_hash
from repro.runtime.server import (
    ServerConfig,
    SingleFlight,
    SingleFlightStore,
    TimingServer,
    TimingService,
    build_service,
)
from repro.sta import (
    CSMEngine,
    NLDMEngine,
    TimingModelLibrary,
    generate_netlist,
    netlist_fingerprint,
    primary_input_events,
    primary_input_waveforms,
)
from repro.sta import netlist as netlist_module
from repro.sta.engine import WaveformTimingResult
from repro.sta.hybrid import HybridEngine
from repro.sta.generate import default_time_window
from repro.sta.netlist import (
    NETLIST_DIGEST_SALT,
    NetConnectivity,
    eco_swap_candidate,
    swap_partner,
)

CHAIN = "chain:inv:3"
DAG = "dag:w4:d2:s1"  # small mixed-cell design with swap candidates


@pytest.fixture(scope="module")
def disk_cache(warm_store):
    return warm_store("pr7-models")


@pytest.fixture(scope="module")
def models(library, disk_cache):
    return TimingModelLibrary(
        library=library,
        config=CharacterizationConfig(io_grid_points=5),
        cache=disk_cache,
    )


@pytest.fixture()
def service(models, tmp_path):
    store = PackedStore(tmp_path / "store")
    return TimingService(
        models=models,
        options=SimulationOptions(time_step=2e-12),
        store=store,
    )


@pytest.fixture()
def corner_service(models, warm_store):
    """A service whose store starts with the TT and FF warm
    characterizations, so its corner libraries characterize nothing."""
    return TimingService(
        models=models,
        options=SimulationOptions(time_step=2e-12),
        store=warm_store("server-corners", "TT", "FF"),
    )


# ----------------------------------------------------------------------
# Single-flight request coalescing
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_duplicates_share_one_computation(self):
        flight = SingleFlight()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            release.wait(5)
            return "value"

        results = []

        def run():
            results.append(flight.execute("key", compute))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        while flight.stats()["coalesced"] < 3:
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert sorted(coalesced for _, coalesced in results) == [False, True, True, True]
        assert all(value == "value" for value, _ in results)
        assert flight.stats() == {"leaders": 1, "coalesced": 3}

    def test_sequential_calls_do_not_coalesce(self):
        flight = SingleFlight()
        assert flight.execute("k", lambda: 1) == (1, False)
        assert flight.execute("k", lambda: 2) == (2, False)
        assert flight.stats() == {"leaders": 2, "coalesced": 0}

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        release = threading.Event()
        outcomes = []

        def failing():
            release.wait(5)
            raise RuntimeError("leader failed")

        def run():
            try:
                flight.execute("k", failing)
            except RuntimeError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        while flight.stats()["coalesced"] < 2:
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join()
        assert outcomes == ["leader failed"] * 3
        # A later retry gets a fresh leader slot (errors are not memoized).
        assert flight.execute("k", lambda: "ok") == ("ok", False)


class TestSingleFlightStore:
    def _store(self, tmp_path, **kwargs):
        return SingleFlightStore(PackedStore(tmp_path / "inner"), **kwargs)

    def test_waiter_gets_hit_after_claimants_store(self, tmp_path):
        store = self._store(tmp_path)
        key = "ab" * 32
        hit, _ = store.lookup(key)  # claims
        assert not hit
        results = []

        def waiter():
            results.append(store.lookup(key))

        thread = threading.Thread(target=waiter)
        thread.start()
        while store.dedupe_waits == 0:
            time.sleep(0.005)
        store.store(key, {"data": np.arange(4.0)})
        thread.join(5)
        hit, value = results[0]
        assert hit
        np.testing.assert_array_equal(value["data"], np.arange(4.0))
        assert store.dedupe_stats() == {"waits": 1, "hits": 1}

    def test_abandoned_claim_degrades_to_miss(self, tmp_path):
        store = self._store(tmp_path, wait_timeout=0.05)
        key = "cd" * 32
        assert store.lookup(key) == (False, None)  # claim, never resolved
        start = time.perf_counter()
        assert store.lookup(key) == (False, None)  # waits, times out, takes over
        assert time.perf_counter() - start >= 0.05
        assert store.dedupe_stats() == {"waits": 1, "hits": 0}
        # The taken-over claim resolves normally.
        store.store(key, {"data": np.zeros(2)})
        assert store.lookup(key)[0]

    def test_peek_never_claims(self, tmp_path):
        store = self._store(tmp_path, wait_timeout=5.0)
        key = "12" * 32
        assert store.peek(key) == (False, None)
        start = time.perf_counter()
        assert store.lookup(key) == (False, None)  # claims: nobody else did
        assert time.perf_counter() - start < 1.0
        assert store.dedupe_stats() == {"waits": 0, "hits": 0}
        store.store(key, {"data": np.ones(2)})
        assert store.peek(key)[0]

    def test_facade_delegates_to_inner_store(self, tmp_path):
        store = self._store(tmp_path)
        key = "ef" * 32
        store.store(key, {"data": np.ones(3)})
        assert key in store
        assert len(store) == 1
        assert set(store.keys()) == {key}
        assert store.stats.stores == 1
        assert store.report()["entries"] == 1


# ----------------------------------------------------------------------
# The transport-agnostic service
# ----------------------------------------------------------------------
class TestTimingService:
    def test_open_session_registers_design_once(self, service):
        a = service.handle({"op": "open_session", "design": {"generate": CHAIN}})
        b = service.handle({"op": "open_session", "design": {"generate": CHAIN}})
        assert a["ok"] and b["ok"]
        assert a["session"] != b["session"]
        assert a["design"] == b["design"]
        assert a["gates"] == 3
        status = service.handle({"op": "status"})
        assert status["designs"][a["design"]]["sessions_opened"] == 2

    def test_netlist_payload_roundtrip(self, service, library):
        netlist = generate_netlist(library, CHAIN)
        response = service.handle(
            {"op": "open_session", "design": {"netlist": netlist.to_dict()}}
        )
        assert response["ok"]
        # Same content as the generated spec -> same design id.
        via_spec = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )
        assert response["design"] == via_spec["design"]

    def test_cold_then_warm_timing(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        assert cold["ok"] and not cold["coalesced"]
        assert cold["stats"]["integrations"] == 3
        assert cold["latency_ms"] > 0
        warm = service.handle({"op": "timing", "session": session, "seed": 0})
        assert warm["stats"]["integrations"] == 0
        assert warm["stats"]["keyed"] == 0
        assert warm["design_fingerprint"] == cold["design_fingerprint"]

    def test_warm_hits_cross_sessions(self, service):
        first = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        second = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        service.handle({"op": "timing", "session": first, "seed": 1})
        other = service.handle({"op": "timing", "session": second, "seed": 1})
        assert other["stats"]["integrations"] == 0
        assert other["stats"]["cache_hits"] == other["stats"]["instances"], (
            "identical request from another session must hit the shared store"
        )

    def test_nldm_engine_and_waveform_payload(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        nldm = service.handle(
            {"op": "timing", "session": session, "engine": "nldm", "seed": 0}
        )
        assert nldm["ok"] and nldm["engine"] == "nldm"
        assert set(nldm["arrivals"]) == {"n3"}
        assert nldm["slews"]["n3"] > 0
        csm = service.handle(
            {"op": "timing", "session": session, "seed": 0, "return_waveforms": True}
        )
        times, values = TimingClient.waveforms_of(csm)["n3"]
        assert len(times) == len(values) > 0
        assert np.isfinite(values).all()

    def test_returned_waveforms_equal_a_no_cache_rebuild(self, service, models, library):
        """After an ECO swap and its swap-back, the waveforms a reply ships
        (served from the session's memo and store) are bitwise a fresh
        no-cache engine's on the same design and stimulus."""
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        service.handle({"op": "timing", "session": session, "seed": 0})
        eco = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
        )
        applied = eco["applied"][0]
        service.handle({"op": "timing", "session": session, "seed": 0})
        service.handle(
            {
                "op": "eco",
                "session": session,
                "edits": [
                    {
                        "kind": "swap_cell",
                        "instance": applied["instance"],
                        "cell": applied["swapped_from"],
                    }
                ],
            }
        )
        reply = service.handle(
            {"op": "timing", "session": session, "seed": 0, "return_waveforms": True}
        )
        assert reply["stats"]["integrations"] == 0
        netlist = generate_netlist(library, DAG)
        window = default_time_window(netlist)
        rebuild = CSMEngine(
            netlist, models, options=SimulationOptions(time_step=2e-12), use_cache=False
        ).run(primary_input_waveforms(netlist, t_stop=window, seed=0), t_stop=window)
        returned = TimingClient.waveforms_of(reply)
        assert returned and set(returned) <= set(rebuild.waveforms)
        for net, (times, values) in returned.items():
            assert times.tobytes() == rebuild.waveforms[net].times.tobytes(), net
            assert values.tobytes() == rebuild.waveforms[net].values.tobytes(), net

    def test_eco_swap_retimes_only_affected_region(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        gates = cold["stats"]["instances"]
        eco = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
        )
        assert eco["ok"]
        applied = eco["applied"][0]
        assert applied["swapped_from"] != applied["cell"]
        assert eco["design_fingerprint"] != cold["design_fingerprint"]
        edited = service.handle({"op": "timing", "session": session, "seed": 0})
        assert 0 < edited["stats"]["integrations"] <= applied["affected"] < gates
        # Swapping back restores the original fingerprint and its keys,
        # which the session's memo still holds.
        service.handle(
            {
                "op": "eco",
                "session": session,
                "edits": [
                    {
                        "kind": "swap_cell",
                        "instance": applied["instance"],
                        "cell": applied["swapped_from"],
                    }
                ],
            }
        )
        restored = service.handle({"op": "timing", "session": session, "seed": 0})
        assert restored["design_fingerprint"] == cold["design_fingerprint"]
        assert restored["stats"]["integrations"] == 0

    def test_loop_or_undriven_rewire_is_rejected_and_the_session_keeps_timing(
        self, service
    ):
        session = service.handle(
            {"op": "open_session", "design": {"generate": "dag:w4:d3:s1"}}
        )["session"]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        assert cold["ok"]
        for net in ("n2_0", "no_such_net"):  # n2_0 is downstream of u0_0
            eco = service.handle(
                {
                    "op": "eco",
                    "session": session,
                    "edits": [{"kind": "rewire_pin", "instance": "u0_0", "pin": "A", "net": net}],
                }
            )
            assert not eco["ok"] and eco["code"] == "bad-request", eco
            timed = service.handle({"op": "timing", "session": session, "seed": 0})
            assert timed["ok"], timed
            assert timed["design_fingerprint"] == cold["design_fingerprint"]
            assert timed["stats"]["integrations"] == 0

    def test_eco_request_is_atomic(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": "dag:w4:d3:s1"}}
        )["session"]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        netlist = service._sessions[session].netlist
        wiring = dict(netlist.instances["u1_0"].connections)
        cells = {name: instance.cell_name for name, instance in netlist.instances.items()}
        eco = service.handle(
            {
                "op": "eco",
                "session": session,
                "edits": [
                    {"kind": "auto_swap"},
                    {"kind": "rewire_pin", "instance": "u1_0", "pin": "A", "net": "pi1"},
                    {"kind": "rewire_pin", "instance": "u0_0", "pin": "A", "net": "n2_0"},
                ],
            }
        )
        assert not eco["ok"] and eco["code"] == "bad-request", eco
        assert netlist.instances["u1_0"].connections == wiring
        assert {name: i.cell_name for name, i in netlist.instances.items()} == cells
        restored = service.handle({"op": "timing", "session": session, "seed": 0})
        assert restored["design_fingerprint"] == cold["design_fingerprint"]
        assert restored["stats"]["integrations"] == 0
        assert service.handle({"op": "status"})["sessions"][session]["eco_edits"] == 0

    def test_a_failing_undo_neither_stops_the_rollback_nor_hides_the_error(
        self, service, monkeypatch
    ):
        session = service.handle(
            {"op": "open_session", "design": {"generate": "dag:w4:d3:s1"}}
        )["session"]
        netlist = service._sessions[session].netlist
        cells = {name: instance.cell_name for name, instance in netlist.instances.items()}
        rewire = netlist.rewire_pin

        def refuse_undo(instance, pin, net):
            if (instance, pin) == ("u1_0", "A") and net != "pi1":
                raise TimingError("undo refused")
            return rewire(instance, pin, net)

        monkeypatch.setattr(netlist, "rewire_pin", refuse_undo)
        eco = service.handle(
            {
                "op": "eco",
                "session": session,
                "edits": [
                    {"kind": "auto_swap"},
                    {"kind": "rewire_pin", "instance": "u1_0", "pin": "A", "net": "pi1"},
                    {"kind": "rewire_pin", "instance": "u0_0", "pin": "A", "net": "n2_0"},
                ],
            }
        )
        assert not eco["ok"] and eco["code"] == "bad-request", eco
        assert "loop" in eco["error"] and "refused" not in eco["error"], eco
        # The swap before the refused undo was still rolled back.
        assert {name: i.cell_name for name, i in netlist.instances.items()} == cells

    def test_keyed_is_edit_sized_and_reported(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        gates = cold["stats"]["instances"]
        assert cold["stats"]["keyed"] == gates
        eco = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
        )
        applied = eco["applied"][0]
        edited = service.handle({"op": "timing", "session": session, "seed": 0})
        assert 0 < edited["stats"]["keyed"] <= applied["affected"] < gates
        total = service.handle({"op": "status"})["sessions"][session]["engines"]["csm"]["total"]
        assert total["keyed"] == gates + edited["stats"]["keyed"]

    def test_fingerprint_is_the_netlist_content_digest(self, service, library):
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        netlist = service._sessions[session].netlist
        timed = service.handle({"op": "timing", "session": session, "seed": 0})
        assert timed["design_fingerprint"] == content_hash(
            NETLIST_DIGEST_SALT, netlist_fingerprint(netlist)
        )
        eco = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
        )
        assert eco["design_fingerprint"] == content_hash(
            NETLIST_DIGEST_SALT, netlist_fingerprint(netlist)
        )

    def test_edit_between_key_and_compute_rekeys(self, service, library, monkeypatch):
        """An ECO landing after ``timing`` keyed its request but before the
        run must not yield a reply that names one revision and times
        another: the stale key times nothing and the request re-keys."""
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        real_execute = service.flight.execute
        keys, ecos = [], []

        def edit_then_execute(key, fn):
            keys.append(key)
            if not ecos:
                ecos.append(
                    service.handle(
                        {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
                    )
                )
            return real_execute(key, fn)

        monkeypatch.setattr(service.flight, "execute", edit_then_execute)
        raced = service.handle({"op": "timing", "session": session, "seed": 0})
        monkeypatch.undo()
        eco = ecos[0]
        assert raced["ok"] and eco["ok"]
        assert len(keys) == 2 and keys[0] != keys[1]
        assert raced["revision"] == eco["revision"] != cold["revision"]
        assert raced["design_fingerprint"] == eco["design_fingerprint"]
        assert raced["design_fingerprint"] != cold["design_fingerprint"]
        assert 0 < raced["stats"]["integrations"] <= eco["applied"][0]["affected"]
        # The reply is the edited design's timing: a plain request on the
        # same revision re-keys and integrates nothing, with the same arrivals.
        again = service.handle({"op": "timing", "session": session, "seed": 0})
        assert again["stats"]["integrations"] == 0 and again["stats"]["keyed"] == 0
        assert again["revision"] == raced["revision"]
        assert again["arrivals"] == raced["arrivals"]

    def test_auto_swap_affected_is_before_after_union(self, service, library):
        """auto_swap reports the union of the pre- and post-edit regions,
        the same contract rewire_pin always had (it used to report only the
        pre-swap region)."""
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        # Replay the deterministic candidate choice on a private replica to
        # compute the expected union from outside the server.
        replica = generate_netlist(library, DAG)
        _, instance, partner = eco_swap_candidate(replica)
        before = replica.affected_region(instance)
        replica.swap_cell(instance, partner)
        after = replica.affected_region(instance)
        eco = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
        )
        applied = eco["applied"][0]
        assert applied["instance"] == instance
        assert applied["cell"] == partner
        assert applied["affected"] == len(set(before) | set(after))

    def test_hybrid_timing_verb(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        full = service.handle(
            {
                "op": "timing",
                "session": session,
                "engine": "hybrid",
                "seed": 0,
                "top_k": "all",
            }
        )
        assert full["ok"] and full["engine"] == "hybrid"
        assert full["csm_fraction"] == 1.0
        assert full["exact"] and all(full["exact"].values())
        assert len(full["iterations"]) == 1
        for entry in full["slacks"].values():
            if entry is not None:
                assert entry[0] == "csm"
        survey = service.handle(
            {
                "op": "timing",
                "session": session,
                "engine": "hybrid",
                "seed": 0,
                "top_k": 0,
            }
        )
        assert survey["ok"] and survey["csm_fraction"] == 0.0
        assert not any(survey["exact"].values())
        # The hybrid engine surfaces its per-iteration accounting in status.
        status = service.handle({"op": "status"})
        summaries = status["sessions"][session]["engines"]
        hybrid_summary = next(
            summary for kind, summary in summaries.items() if kind.startswith("hybrid")
        )
        assert hybrid_summary["csm_instance_fraction"] == 0.0  # last run: top_k=0
        assert "nldm" in hybrid_summary and "csm" in hybrid_summary

    def test_hybrid_request_validation(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        stray = service.handle(
            {"op": "timing", "session": session, "engine": "csm", "top_k": 2}
        )
        assert not stray["ok"] and stray["code"] == "bad-request"
        corners = service.handle(
            {
                "op": "timing",
                "session": session,
                "engine": "hybrid",
                "corners": ["TT"],
            }
        )
        assert not corners["ok"] and corners["code"] == "bad-request"
        stream = service.handle(
            {
                "op": "timing",
                "session": session,
                "engine": "hybrid",
                "memory_mode": "stream",
            }
        )
        assert not stream["ok"] and stream["code"] == "bad-request"

    def test_stream_replies_equal_resident_with_and_without_corners(self, corner_service):
        service = corner_service
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        for corners in (None, ["TT", "FF"]):
            request = {"op": "timing", "session": session, "seed": 0}
            if corners:
                request["corners"] = corners
            stream = service.handle({**request, "memory_mode": "stream"})
            resident = service.handle(request)
            assert stream["ok"] and resident["ok"], stream
            assert stream["arrivals"] == resident["arrivals"]
            if corners:
                assert stream["worst_arrivals"] == resident["worst_arrivals"]
                run_stats = [stream["stats"][name] for name in corners]
            else:
                run_stats = [stream["stats"]]
            assert all(stats["spills"] > 0 for stats in run_stats), run_stats

    def test_stream_budgets_zero_and_none_get_their_own_engines(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        for budget in (0, None):
            reply = service.handle(
                {
                    "op": "timing",
                    "session": session,
                    "seed": 0,
                    "memory_mode": "stream",
                    "memory_budget_bytes": budget,
                }
            )
            assert reply["ok"], reply
        engines = service._sessions[session].engines
        budgets = sorted(
            (engine.memory_budget_bytes for engine in engines.values()),
            key=lambda budget: budget is None,
        )
        assert len(engines) == 2 and budgets == [0, None]

    def test_nldm_stream_is_served_by_the_one_nldm_engine(self, corner_service):
        """The NLDM engine has no memory mode: a stream request, whatever
        its budget, runs the session's one NLDM engine (per corner list),
        bitwise the resident reply, with nothing spilled or faulted."""
        service = corner_service
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        nets = sorted(service._sessions[session].netlist.nets())
        for corners in (None, ["TT", "FF"]):
            request = {"op": "timing", "session": session, "engine": "nldm", "seed": 0}
            request["nets"] = nets
            if corners:
                request["corners"] = corners
            resident = service.handle(request)
            for budget in (None, 0):
                stream = service.handle(
                    {**request, "memory_mode": "stream", "memory_budget_bytes": budget}
                )
                assert stream["ok"] and resident["ok"], stream
                assert stream["arrivals"] == resident["arrivals"]
                if corners:
                    assert stream["worst_arrivals"] == resident["worst_arrivals"]
                    run_stats = [stream["stats"][name] for name in corners]
                else:
                    assert stream["slews"] == resident["slews"]
                    run_stats = [stream["stats"]]
                for stats in run_stats:
                    assert (stats["spills"], stats["faults"]) == (0, 0), stats
        assert sorted(service._sessions[session].engines) == ["nldm", "nldm@TT,FF"]
        entry = service.handle({"op": "status"})["sessions"][session]
        assert (entry["spills"], entry["faults"]) == (0, 0)

    def test_nldm_stream_needs_no_store(self, models):
        service = TimingService(models=models, options=SimulationOptions(time_step=2e-12))
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        request = {"op": "timing", "session": session, "seed": 0, "memory_mode": "stream"}
        nldm = service.handle({**request, "engine": "nldm"})
        assert nldm["ok"] and nldm["stats"]["spills"] == 0, nldm
        csm = service.handle(request)
        assert not csm["ok"] and csm["code"] == "bad-request"

    def test_reply_shapes_and_arrivals_match_direct_runs(self, corner_service):
        """One reply builder: each engine x corner-list reply has a pinned
        key set, and every arrival is the direct engine run's
        ``arrival(net)`` (``None`` where it raises), per corner when
        corners are set.  Hybrid x corners stays a bad request."""
        service = corner_service
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        netlist = generate_netlist(service.library, DAG)
        nets = sorted(netlist.nets())
        window = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=window, seed=0)
        events = primary_input_events(netlist, seed=0)
        corner_set = service._corner_set(("TT", "FF"))
        envelope = {"ok", "coalesced", "revision", "design_fingerprint", "latency_ms"}
        shapes = {
            ("csm", None): {"arrivals", "t_stop", "stats", "waveforms"},
            ("nldm", None): {"arrivals", "t_stop", "stats", "slews"},
            ("hybrid", None): {
                "arrivals", "t_stop", "stats", "waveforms",
                "exact", "slacks", "csm_fraction", "iterations",
            },
            ("csm", ("TT", "FF")): {"arrivals", "t_stop", "stats", "corners", "worst_arrivals"},
            ("nldm", ("TT", "FF")): {"arrivals", "t_stop", "stats", "corners", "worst_arrivals"},
        }

        def arrival_or_none(result, net):
            try:
                return float(result.arrival(net))
            except TimingError:
                return None

        def direct(engine, corners):
            if engine == "csm":
                return CSMEngine(
                    netlist, service.models, options=service.options, corners=corners
                ).run(waveforms, t_stop=window)
            if engine == "nldm":
                return NLDMEngine(netlist, service.models, corners=corners).run(events)
            return HybridEngine(netlist, service.models, options=service.options).run(
                waveforms, t_stop=window
            )

        for (engine, corners), keys in shapes.items():
            request = {
                "op": "timing",
                "session": session,
                "engine": engine,
                "seed": 0,
                "nets": nets,
                "return_waveforms": True,
            }
            if corners:
                request["corners"] = list(corners)
            reply = service.handle(request)
            assert reply["ok"], reply
            assert set(reply) == envelope | keys | {"engine"}, (engine, corners)
            assert reply["engine"] == engine
            assert reply["t_stop"] == (None if engine == "nldm" else window)
            result = direct(engine, corner_set if corners else None)
            if corners:
                assert reply["corners"] == list(corners)
                for name in corners:
                    assert reply["arrivals"][name] == {
                        net: arrival_or_none(result.result(name), net) for net in nets
                    }
                assert reply["worst_arrivals"] == {
                    net: (list(entry) if entry is not None else None)
                    for net, entry in result.worst_arrivals(nets).items()
                }
            else:
                assert reply["arrivals"] == {
                    net: arrival_or_none(result, net) for net in nets
                }
        refused = service.handle(
            {
                "op": "timing",
                "session": session,
                "engine": "hybrid",
                "corners": ["TT", "FF"],
            }
        )
        assert not refused["ok"] and refused["code"] == "bad-request"

    def test_same_level_duplicates_do_not_wait_on_their_own_claim(self, models, tmp_path):
        """A duplicate of a pending same-level plan is not looked up: under
        the server's single-flight store that lookup would find the claim
        the first plan took and wait on it for the whole timeout."""
        store = PackedStore(tmp_path / "store")
        service = TimingService(
            models=models,
            options=SimulationOptions(time_step=2e-12),
            store=store,
            dedupe_wait_timeout=1.0,
        )
        session = service.handle(
            {"op": "open_session", "design": {"generate": "tree:3:2"}}
        )["session"]
        reply = service.handle({"op": "timing", "session": session, "seed": 0})
        assert reply["ok"], reply
        assert reply["stats"]["duplicates"] == 4
        assert service.store.dedupe_stats()["waits"] == 0

    def test_empty_corner_list_is_a_bad_request(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        reply = service.handle({"op": "timing", "session": session, "corners": []})
        assert not reply["ok"] and reply["code"] == "bad-request"

    def test_error_frames(self, service):
        assert service.handle({"op": "nope"})["code"] == "bad-request"
        missing = service.handle({"op": "timing", "session": "s9999"})
        assert not missing["ok"] and missing["code"] == "not-found"
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        bad_engine = service.handle(
            {"op": "timing", "session": session, "engine": "spice"}
        )
        assert not bad_engine["ok"] and bad_engine["code"] == "bad-request"
        bad_design = service.handle({"op": "open_session", "design": {}})
        assert not bad_design["ok"] and bad_design["code"] == "bad-request"
        bad_edit = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "delete"}]}
        )
        assert not bad_edit["ok"] and bad_edit["code"] == "bad-request"

    def test_close_session(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        closed = service.handle({"op": "close_session", "session": session})
        assert closed["ok"] and closed["closed"] == session
        after = service.handle({"op": "timing", "session": session})
        assert not after["ok"] and after["code"] == "not-found"

    def test_status_sections(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": CHAIN}}
        )["session"]
        service.handle({"op": "timing", "session": session, "seed": 0})
        status = service.handle({"op": "status"})
        assert status["ok"] and status["uptime_s"] >= 0
        record = status["sessions"][session]
        assert record["requests"] == 1
        assert record["engines"]["csm"]["runs"] == 1
        assert status["counters"]["timing_requests"] == 1
        assert status["store_dedupe"] == {"waits": 0, "hits": 0}
        assert status["store"]["entries"] == len(service.store.inner) > 0


class _Tripwire:
    """Stands in for a module: any attribute read is a failure."""

    def __getattr__(self, name):
        raise AssertionError(f"networkx.{name} called on the ECO request path")


class TestEditSizedRequests:
    """An ECO request pays for its edit: a rewire patches connectivity and
    levels (no rebuild, no networkx), a reply scans only the endpoints whose
    propagation key changed, and the engine re-solves no DC operating point
    it already solved, with every reply bitwise what a session without
    those memos returns."""

    SPEC = "dag:w128:d4:s3"

    @staticmethod
    def _edits(library):
        netlist = generate_netlist(library, TestEditSizedRequests.SPEC)
        instances = netlist.instances
        swapped = next(
            name
            for name in instances
            if name.startswith("u2_") and swap_partner(library, instances[name].cell_name)
        )
        rewired = "u2_7"
        pin = library[instances[rewired].cell_name].inputs[0]
        previous = instances[rewired].connections[pin]
        net = next(
            instance.connections[library[instance.cell_name].output]
            for name, instance in instances.items()
            if name.startswith("u0_")
            and instance.connections[library[instance.cell_name].output] != previous
        )
        cell = instances[swapped].cell_name
        return [
            ("swap", {"kind": "swap_cell", "instance": swapped, "cell": swap_partner(library, cell)}),
            ("rewire", {"kind": "rewire_pin", "instance": rewired, "pin": pin, "net": net}),
            ("swap_back", {"kind": "rewire_pin", "instance": rewired, "pin": pin, "net": previous}),
            ("swap_back", {"kind": "swap_cell", "instance": swapped, "cell": cell}),
        ]

    @staticmethod
    def _replay(service, edits, monkeypatch, forget=False):
        """Open a session, time it cold, then apply each edit and time it;
        returns (label, reply, scanned nets, settle units, engine keys) for
        the cold request and each edit's.  ``forget`` clears the session's settle
        and arrival memos before every request: what a session without them
        computes.  Otherwise a rewire and its timing request must neither
        rebuild connectivity nor call networkx."""
        from repro.sta import engine as engine_module

        scanned, settled, built = [], [], []
        arrival, settle_units = WaveformTimingResult.arrival, engine_module.settle_units
        of = NetConnectivity.of.__func__

        def counting_arrival(result, net, *args, **kwargs):
            scanned.append(net)
            return arrival(result, net, *args, **kwargs)

        def counting_settle(units, options):
            settled.append(len(units))
            return settle_units(units, options)

        monkeypatch.setattr(WaveformTimingResult, "arrival", counting_arrival)
        monkeypatch.setattr(engine_module, "settle_units", counting_settle)
        session = service.handle(
            {"op": "open_session", "design": {"generate": TestEditSizedRequests.SPEC}}
        )["session"]
        record = service._sessions[session]
        cold = service.handle({"op": "timing", "session": session, "seed": 0})
        assert cold["stats"]["integrations"] == cold["stats"]["instances"]
        window = cold["t_stop"]

        def keys():
            engine = record.engines["csm"]
            return engine.run(service._stimuli(record, window, 0), t_stop=window).keys

        steps = [("cold", cold, None, None, keys())]
        for label, edit in edits:
            if forget:
                record.arrivals.clear()
                record.engines["csm"]._settles.clear()
            del scanned[:], settled[:]
            with monkeypatch.context() as patch:
                if edit["kind"] == "rewire_pin" and not forget:
                    patch.setattr(
                        NetConnectivity,
                        "of",
                        classmethod(lambda cls, n: built.append(1) or of(cls, n)),
                    )
                    patch.setattr(netlist_module, "nx", _Tripwire())
                eco = service.handle({"op": "eco", "session": session, "edits": [edit]})
                reply = service.handle({"op": "timing", "session": session, "seed": 0})
            assert eco["ok"] and reply["ok"], (eco, reply)
            assert built == []
            steps.append((label, reply, list(scanned), sum(settled), keys()))
        monkeypatch.undo()
        return steps

    def test_requests_pay_for_their_edit(self, service, models, library, tmp_path, monkeypatch):
        edits = self._edits(library)
        steps = self._replay(service, edits, monkeypatch)
        forgetful = TimingService(
            models=models,
            options=SimulationOptions(time_step=2e-12),
            store=PackedStore(tmp_path / "forgetful"),
        )
        forgetful_steps = self._replay(forgetful, edits, monkeypatch, forget=True)
        endpoints = generate_netlist(library, self.SPEC).primary_outputs
        memoized = 0
        for previous, step, other in zip(steps, steps[1:], forgetful_steps[1:]):
            (label, reply, scanned, units, keys), previous_keys = step, previous[4]
            _, other_reply, other_scanned, other_units, _ = other
            # Bitwise the replay of a session without the memos.
            assert reply["arrivals"] == other_reply["arrivals"], label
            assert reply["stats"] == other_reply["stats"], label
            assert len(other_scanned) == len(endpoints)
            if label == "swap_back":
                assert reply["stats"]["integrations"] == 0, label
                assert scanned == [] and units == 0, label
            else:
                changed = {net for net in endpoints if keys[net] != previous_keys[net]}
                assert scanned and set(scanned) <= changed, label
                assert units <= other_units, label
                memoized += other_units - units
        assert steps[0][1]["arrivals"] == forgetful_steps[0][1]["arrivals"]
        assert steps[-1][1]["arrivals"] == steps[0][1]["arrivals"]
        assert memoized > 0  # an edit's walk re-used a settled state


# ----------------------------------------------------------------------
# Server config -> service wiring
# ----------------------------------------------------------------------
class TestBuildService:
    def test_fresh_cache_dir_store_holds_its_budget(self, tmp_path):
        budget = 32 * 1024
        service = build_service(
            ServerConfig(cache_dir=tmp_path / "fresh", max_bytes=budget, max_age_s=3600.0)
        )
        store = service.store.inner
        assert isinstance(store, PackedStore)
        assert (store.max_bytes, store.max_age_s) == (budget, 3600.0)
        for index in range(12):  # ~8 KiB records: three times the budget
            service.store.store(f"{index:064x}", {"data": np.full(1024, float(index))})
        store.enforce_policy()
        assert 0 < store.live_bytes() <= budget
        assert store.stats.evictions > 0
        report = service.handle({"op": "status"})["store"]
        assert report.keys() == store.report().keys()
        assert report["entries"] == len(store)
        assert report["policy"]["lru_evictions"] > 0
        # The age budget is wired too: an hour later every entry is stale.
        swept = store.enforce_policy(now=time.time() + 7200.0)
        assert swept["age_evictions"] > 0 and len(store) == 0

    def test_cache_format_accepts_only_packed(self, tmp_path):
        assert ServerConfig(cache_format="packed").cache_format == "packed"
        for fmt in ("auto", "npz", "sharded"):
            with pytest.raises(ValueError, match="cache_format"):
                ServerConfig(cache_dir=tmp_path, cache_format=fmt)


# ----------------------------------------------------------------------
# Engine rebind / per-design stats reset (the stale last_stats satellite)
# ----------------------------------------------------------------------
class TestEngineRebind:
    def test_rebind_resets_run_state(self, library, models):
        chain = generate_netlist(library, CHAIN)
        other = generate_netlist(library, "chain:inv:5")
        engine = NLDMEngine(chain, models)
        engine.run(primary_input_events(chain, seed=0))
        assert engine.runs_completed == 1
        assert engine.last_stats is not None
        assert engine.total_stats["instances"] == 3

        engine.rebind(other)
        assert engine.last_stats is None, "stale stats leaked across designs"
        assert engine.runs_completed == 0
        assert engine.total_stats["instances"] == 0

        engine.run(primary_input_events(other, seed=0))
        assert engine.last_stats.instances == 5

    def test_totals_accumulate_within_one_design(self, library, models):
        # A design no other test times, so the shared module cache cannot
        # turn the cold run into a warm one.
        chain = generate_netlist(library, "chain:inv:4")
        engine = NLDMEngine(chain, models)
        events = primary_input_events(chain, seed=0)
        engine.run(events)
        engine.run(events)
        summary = engine.stats_summary()
        assert summary["runs"] == 2
        assert summary["total"]["instances"] == 8
        assert summary["total"]["integrations"] + summary["total"]["memo_hits"] + summary[
            "total"
        ]["cache_hits"] >= 4
        assert summary["last"]["instances"] == 4

    def test_rebind_same_structure_keeps_memo_warm(self, library, models, tmp_path):
        spec_netlist = generate_netlist(library, CHAIN)
        twin = generate_netlist(library, CHAIN)
        store = PackedStore(tmp_path / "store")
        engine = CSMEngine(
            spec_netlist,
            models,
            options=SimulationOptions(time_step=2e-12),
            cache=store,
        )
        from repro.sta import primary_input_waveforms

        engine.run(primary_input_waveforms(spec_netlist, seed=0))
        engine.rebind(twin)
        result = engine.run(primary_input_waveforms(twin, seed=0))
        assert result.stats["integrations"] == 0
        assert result.stats["memo_hits"] == len(twin.instances), (
            "content-identical design must stay warm across rebind"
        )


# ----------------------------------------------------------------------
# Concurrent sessions
# ----------------------------------------------------------------------
class TestConcurrentSessions:
    def test_non_conflicting_ecos_stay_isolated(self, service):
        sessions = [
            service.handle({"op": "open_session", "design": {"generate": DAG}})[
                "session"
            ]
            for _ in range(2)
        ]
        errors = []

        def edit(session):
            try:
                response = service.handle(
                    {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
                )
                assert response["ok"], response
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=edit, args=(s,)) for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        status = service.handle({"op": "status"})
        # Each session edited its own private copy; both advanced.
        assert all(
            status["sessions"][session]["eco_edits"] == 1 for session in sessions
        )

    def test_conflicting_edits_serialize_on_one_session(self, service):
        session = service.handle(
            {"op": "open_session", "design": {"generate": DAG}}
        )["session"]
        eco = service.handle(
            {"op": "eco", "session": session, "edits": [{"kind": "auto_swap"}]}
        )
        applied = eco["applied"][0]
        results = []

        def swap(cell):
            results.append(
                service.handle(
                    {
                        "op": "eco",
                        "session": session,
                        "edits": [
                            {
                                "kind": "swap_cell",
                                "instance": applied["instance"],
                                "cell": cell,
                            }
                        ],
                    }
                )
            )

        threads = [
            threading.Thread(target=swap, args=(cell,))
            for cell in (applied["cell"], applied["swapped_from"])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in results)
        # Both edits applied under the session lock: revision advanced twice
        # and the final cell is whichever edit ran last.
        final = service.handle({"op": "status"})["sessions"][session]
        assert final["eco_edits"] == 3

    def test_cross_session_dedupe_coalesces_identical_requests(self, service):
        sessions = [
            service.handle({"op": "open_session", "design": {"generate": DAG}})[
                "session"
            ]
            for _ in range(3)
        ]
        barrier = threading.Barrier(len(sessions))
        responses = []
        lock = threading.Lock()

        def request(session):
            barrier.wait(timeout=30)
            response = service.handle(
                {"op": "timing", "session": session, "seed": 42}
            )
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=request, args=(s,)) for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in responses)
        coalesced = [r for r in responses if r["coalesced"]]
        assert len(coalesced) >= 1, "concurrent identical requests must coalesce"
        assert service.flight.stats()["coalesced"] >= 1
        arrivals = [json.dumps(r["arrivals"], sort_keys=True) for r in responses]
        assert len(set(arrivals)) == 1, "coalesced responses must agree"


# ----------------------------------------------------------------------
# The asyncio daemon: socket + HTTP round trips
# ----------------------------------------------------------------------
class TestDaemon:
    @pytest.fixture()
    def live_server(self, models, tmp_path):
        config = ServerConfig(
            socket_path=tmp_path / "server.sock",
            http_port=0,
            workers=2,
        )
        service = TimingService(
            models=models,
            options=SimulationOptions(time_step=2e-12),
            store=PackedStore(tmp_path / "cache"),
        )
        server = TimingServer(service, config)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: __import__("asyncio").run(
                server.serve(ready=lambda _s: ready.set())
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(15), "daemon did not come up"
        yield server
        if thread.is_alive():
            try:
                TimingClient(socket_path=config.socket_path).shutdown()
            except (OSError, TimingServerError):
                pass
            thread.join(10)

    def test_socket_roundtrip_and_shutdown(self, live_server):
        client = TimingClient(socket_path=live_server.config.socket_path)
        assert client.ping()["protocol"] == 1
        session = client.open_session({"generate": CHAIN})["session"]
        result = client.timing(session, seed=0)
        assert result["stats"]["instances"] == 3
        with pytest.raises(TimingServerError) as err:
            client.timing("s9999")
        assert err.value.code == "not-found"
        assert client.shutdown()["stopping"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and live_server.config.socket_path.exists():
            time.sleep(0.05)
        assert not live_server.config.socket_path.exists()

    def test_http_roundtrip(self, live_server):
        address = f"127.0.0.1:{live_server.bound_http_port}"
        client = TimingClient(http_address=address)
        status = client.status()
        assert status["ok"] and status["protocol"] == 1
        session = client.open_session({"generate": CHAIN})["session"]
        result = client.timing(session, seed=0)
        assert result["ok"] and "arrivals" in result
        # GET /status works for anything that just wants a health probe.
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", live_server.bound_http_port)
        conn.request("GET", "/status")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["ok"]
        conn.close()

    def test_malformed_socket_request_gets_error_frame(self, live_server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(10)
            conn.connect(str(live_server.config.socket_path))
            conn.sendall(b"this is not json\n")
            response = json.loads(conn.makefile("rb").readline())
        assert not response["ok"] and response["code"] == "bad-request"
