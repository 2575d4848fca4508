"""Tests for the packed mmap waveform store (PR 5).

Covers the happy path (round-trips, inline entries, maintenance commands)
and — the part the incremental-timing stack depends on — the fault model:
truncated data files, stale/corrupt/missing indexes, torn tail lines and
concurrent appends from separate processes must all degrade to cache misses
or evictions, never to wrong results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import re
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.cells import default_library
from repro.runtime import CacheStats, PackedStore
from repro.runtime.store import _INDEX_NAME, _DATA_NAME
from repro.waveform import Waveform


def _key(tag: str) -> str:
    """A syntactically valid 64-hex-char content key."""
    return (tag * 64)[:64]


def _waveform(seed: int, samples: int = 1500) -> Waveform:
    rng = np.random.default_rng(seed)
    return Waveform(
        np.linspace(0.0, 1e-9, samples), rng.normal(size=samples), name=f"w{seed}"
    )


@pytest.fixture()
def store(tmp_path):
    return PackedStore(tmp_path / "packed")


# ----------------------------------------------------------------------
# Round-trips and the store surface
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_waveform_roundtrip_is_bitwise(self, store):
        wave = _waveform(1)
        store.store(_key("a"), wave)
        hit, value = store.lookup(_key("a"))
        assert hit
        assert np.array_equal(value.times, wave.times)
        assert np.array_equal(value.values, wave.values)
        assert value.name == wave.name

    def test_small_payloads_are_inlined(self, store):
        value = {"event": (1.5e-10, 6e-11, True), "mis": [("A", "B")]}
        store.store(_key("b"), value)
        assert store.file_sizes()["dat"] == 0  # nothing hit the data file
        hit, loaded = store.lookup(_key("b"))
        assert hit and loaded == value

    def test_zero_length_and_noncontiguous_arrays(self, store):
        base = np.arange(10000, dtype=np.float64)
        payload = {
            "empty": np.empty((0, 3)),
            "strided": base[::2],
            "transposed": np.arange(6, dtype=np.float32).reshape(2, 3).T,
            "big": base,
        }
        store.store(_key("c"), payload)
        hit, value = store.lookup(_key("c"))
        assert hit
        assert value["empty"].shape == (0, 3)
        assert np.array_equal(value["strided"], base[::2])
        assert value["transposed"].dtype == np.float32
        assert np.array_equal(value["transposed"], payload["transposed"])
        assert np.array_equal(value["big"], base)

    def test_overwrite_same_key_returns_latest(self, store):
        store.store(_key("d"), _waveform(1))
        newer = _waveform(2)
        store.store(_key("d"), newer)
        hit, value = store.lookup(_key("d"))
        assert hit and np.array_equal(value.values, newer.values)
        assert len(store) == 1

    def test_contains_len_keys_evict_clear(self, store):
        keys = [_key(c) for c in "abc"]
        for index, key in enumerate(keys):
            store.store(key, _waveform(index))
        assert all(key in store for key in keys)
        assert len(store) == 3 and store.keys() == sorted(keys)
        assert store.evict(keys[0]) and not store.evict(keys[0])
        assert keys[0] not in store
        assert store.clear() == 2
        assert len(store) == 0 and store.file_sizes()["dat"] == 0

    def test_views_survive_clear(self, store):
        """lookup() hands out zero-copy views into the mapping; clear() must
        swap inodes (not truncate in place) so those views stay readable."""
        data = np.arange(100_000, dtype=np.float64)
        store.store(_key("a"), {"data": data})
        hit, value = store.lookup(_key("a"))
        assert hit
        view = value["data"]
        store.clear()
        assert float(view.sum()) == float(data.sum())  # would SIGBUS on truncate
        store.store(_key("b"), {"data": data})  # store still usable after clear
        assert store.lookup(_key("b"))[0]

    def test_large_manifest_payload_goes_to_data_file(self, store):
        """Array-free payloads with a big manifest (an event map) must not
        bloat the index: the inline limit counts the manifest."""
        events = {f"net{i}": (float(i) * 1e-12, 4e-11, bool(i % 2)) for i in range(200)}
        store.store(_key("e"), events)
        assert store.file_sizes()["dat"] > 0
        assert store.file_sizes()["idx"] < 1000
        hit, value = store.lookup(_key("e"))
        assert hit and value == events
        # ... and survives a reopen through the index/data reconciliation.
        hit, value = PackedStore(store.directory).lookup(_key("e"))
        assert hit and value == events

    def test_clear_and_compact_by_another_handle_are_detected(self, store):
        """clear()/compact() replace file inodes; a second handle must notice
        even when the rewritten files happen to have the same sizes (the
        refresh staleness check compares inodes, not just sizes)."""
        other = PackedStore(store.directory)
        big = np.arange(50_000, dtype=np.float64)
        store.store(_key("x"), {"d": big})
        assert other.lookup(_key("x"))[0]
        store.clear()
        store.store(_key("y"), {"d": big})  # same sizes as the pre-clear files
        len(other)  # refresh: must detect the inode swap despite equal sizes
        assert not other.lookup(_key("x"))[0]
        hit, value = other.lookup(_key("y"))
        assert hit and np.array_equal(value["d"], big)
        store.evict(_key("y"))
        store.compact()
        len(other)  # any refresh makes the eviction visible
        assert not other.lookup(_key("y"))[0]

    def test_stats_counting(self, store):
        store.store(_key("a"), _waveform(1))
        store.lookup(_key("a"))
        store.lookup(_key("f"))
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (1, 1, 1)

    def test_miss_on_empty_store(self, store):
        hit, value = store.lookup(_key("e"))
        assert not hit and value is None

    def test_pickled_store_reopens_lazily(self, store):
        wave = _waveform(3)
        store.store(_key("a"), wave)
        clone = pickle.loads(pickle.dumps(store))
        hit, value = clone.lookup(_key("a"))
        assert hit and np.array_equal(value.values, wave.values)

    def test_second_handle_sees_existing_entries(self, store):
        wave = _waveform(4)
        store.store(_key("a"), wave)
        other = PackedStore(store.directory)
        hit, value = other.lookup(_key("a"))
        assert hit and np.array_equal(value.values, wave.values)

    def test_cross_handle_visibility_without_reopen(self, store):
        """A lookup refreshes from disk, so appends by another handle (or
        process) become visible to an already-open store."""
        reader = PackedStore(store.directory)
        assert not reader.lookup(_key("a"))[0]
        store.store(_key("a"), _waveform(5))
        hit, value = reader.lookup(_key("a"))
        assert hit and np.array_equal(value.values, _waveform(5).values)


# ----------------------------------------------------------------------
# Fault injection: every corruption degrades to misses/evictions
# ----------------------------------------------------------------------
class TestFaults:
    def _fill(self, store, count: int = 4):
        keys = [_key(f"{i}") for i in range(count)]
        for index, key in enumerate(keys):
            store.store(key, _waveform(index))
        return keys

    def test_truncated_data_file_evicts_tail_entry(self, store):
        keys = self._fill(store)
        dat = store.directory / _DATA_NAME
        dat_size = dat.stat().st_size
        with open(dat, "r+b") as handle:
            handle.truncate(dat_size - 128)  # cut into the last record

        reopened = PackedStore(store.directory)
        assert reopened.stats.evictions >= 1
        hit, _ = reopened.lookup(keys[-1])
        assert not hit  # truncated entry is a miss ...
        for index, key in enumerate(keys[:-1]):  # ... the others are intact
            hit, value = reopened.lookup(key)
            assert hit and np.array_equal(value.values, _waveform(index).values)

    def test_append_after_truncation_truncates_garbage(self, store):
        keys = self._fill(store)
        dat = store.directory / _DATA_NAME
        with open(dat, "r+b") as handle:
            handle.truncate(dat.stat().st_size - 128)
        reopened = PackedStore(store.directory)
        reopened.store(_key("x"), _waveform(99))
        fresh = PackedStore(store.directory)
        hit, value = fresh.lookup(_key("x"))
        assert hit and np.array_equal(value.values, _waveform(99).values)
        assert not fresh.lookup(keys[-1])[0]

    def test_missing_index_is_rebuilt_from_data(self, store):
        keys = self._fill(store)
        (store.directory / _INDEX_NAME).unlink()
        reopened = PackedStore(store.directory)
        assert reopened.keys() == sorted(keys)
        for index, key in enumerate(keys):
            hit, value = reopened.lookup(key)
            assert hit and np.array_equal(value.values, _waveform(index).values)
        # ... and the recovery persisted a fresh index.
        assert (store.directory / _INDEX_NAME).stat().st_size > 0

    def test_corrupt_index_is_rebuilt_from_data(self, store):
        keys = self._fill(store)
        (store.directory / _INDEX_NAME).write_bytes(b"\x00garbage\xff\nmore garbage")
        reopened = PackedStore(store.directory)
        for index, key in enumerate(keys):
            hit, value = reopened.lookup(key)
            assert hit and np.array_equal(value.values, _waveform(index).values)

    def test_stale_index_recovers_unindexed_records(self, store):
        """Crash between the data append and the index append: the record is
        in store.dat but not in store.idx — it must be recovered on open."""
        keys = self._fill(store, count=2)
        index_snapshot = (store.directory / _INDEX_NAME).read_bytes()
        store.store(_key("x"), _waveform(50))
        (store.directory / _INDEX_NAME).write_bytes(index_snapshot)

        reopened = PackedStore(store.directory)
        hit, value = reopened.lookup(_key("x"))
        assert hit and np.array_equal(value.values, _waveform(50).values)
        assert reopened.keys() == sorted(keys + [_key("x")])

    def test_torn_index_line_is_skipped_and_repaired(self, store):
        self._fill(store, count=2)
        idx = store.directory / _INDEX_NAME
        with open(idx, "ab") as handle:
            handle.write(b'{"op":"put","key":"deadbeef","off":12')  # no newline
        reopened = PackedStore(store.directory)
        assert len(reopened) == 2
        reopened.store(_key("y"), _waveform(7))
        again = PackedStore(store.directory)
        hit, value = again.lookup(_key("y"))
        assert hit and np.array_equal(value.values, _waveform(7).values)

    def test_flipped_payload_byte_fails_crc_and_evicts(self, store):
        key = _key("a")
        store.store(key, _waveform(1))
        dat = store.directory / _DATA_NAME
        with open(dat, "r+b") as handle:
            handle.seek(dat.stat().st_size - 9)  # inside the payload
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reopened = PackedStore(store.directory)
        hit, _ = reopened.lookup(key)
        assert not hit
        assert reopened.stats.evictions == 1 and reopened.stats.misses == 1

    def test_rebuild_index_honors_tombstones(self, store):
        keys = self._fill(store, count=3)
        store.evict(keys[1])
        assert store.rebuild_index() == 2
        assert not store.lookup(keys[1])[0]
        fresh = PackedStore(store.directory)
        assert fresh.keys() == sorted([keys[0], keys[2]])

    def test_eviction_survives_index_recovery(self, store):
        """A tombstone written after an index rebuild must not be resurrected
        by a later tail scan (the rebuild persists a snapshot first)."""
        keys = self._fill(store)
        (store.directory / _INDEX_NAME).unlink()
        recovered = PackedStore(store.directory)
        assert recovered.evict(keys[1])
        fresh = PackedStore(store.directory)
        assert keys[1] not in fresh.keys()
        assert len(fresh) == len(keys) - 1

    def test_inline_digit_flip_fails_checksum(self, store):
        """A bit flip that keeps the index line valid JSON (a digit inside a
        float) must still be caught — inline entries carry a content CRC."""
        key = _key("c")
        store.store(key, {"event": (1.5e-10, 6e-11, True), "mis": []})
        idx = store.directory / _INDEX_NAME
        text = idx.read_text()
        assert "1.5e-10" in text
        idx.write_text(text.replace("1.5e-10", "9.5e-10"))
        reopened = PackedStore(store.directory)
        hit, _ = reopened.lookup(key)
        assert not hit
        assert reopened.stats.evictions == 1

    def test_header_digit_flip_fails_header_crc(self, store):
        """Same for manifest scalars inside a data-file record header."""
        key = _key("d")
        store.store(key, {"arrival": 1.25e-10, "big": np.arange(1000, dtype=np.float64)})
        dat = store.directory / _DATA_NAME
        blob = dat.read_bytes()
        assert b"1.25e-10" in blob
        dat.write_bytes(blob.replace(b"1.25e-10", b"9.25e-10"))
        reopened = PackedStore(store.directory)
        hit, _ = reopened.lookup(key)
        assert not hit and reopened.stats.evictions == 1

    def test_payload_views_are_8_byte_aligned(self, store):
        """The zero-copy fast path must hand out aligned float64 views."""
        for index in range(3):  # several records: alignment must chain
            store.store(_key(f"{index}"), {"x": np.arange(100 + index, dtype=np.float64)})
        reopened = PackedStore(store.directory)
        for index in range(3):
            hit, value = reopened.lookup(_key(f"{index}"))
            assert hit
            array = value["x"]
            assert array.__array_interface__["data"][0] % 8 == 0
            assert array.flags["ALIGNED"]

    def test_corrupt_inline_entry_is_a_miss(self, store):
        key = _key("b")
        store.store(key, {"event": (1.0, 2.0, True), "mis": []})
        idx = store.directory / _INDEX_NAME
        lines = idx.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[-1])
        record["arrays"] = {"a0": {"dtype": "<f8", "shape": [3], "b64": "!!!"}}
        lines[-1] = json.dumps(record).encode() + b"\n"
        idx.write_bytes(b"".join(lines))
        reopened = PackedStore(store.directory)
        hit, _ = reopened.lookup(key)
        assert not hit and reopened.stats.evictions == 1


# ----------------------------------------------------------------------
# lookup_many: a batch of lookups behind one index refresh
# ----------------------------------------------------------------------
def _parent_inline_sig(manifest, inline_arrays, manifest_text=None):
    """The inline-entry CRC as the previous writer computed it: the whole
    ``{"m", "a"}`` dict rendered in one sorted-key ``json.dumps``."""
    blob = json.dumps(
        {"m": manifest, "a": inline_arrays}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return zlib.crc32(blob)


def _event_items(count: int):
    """NLDM-style per-instance entries, plus one entry with an array."""
    items = [
        (
            _key(f"{index:x}e"),
            {
                "event": None if index % 5 == 0 else (1e-10 + index * 1e-13, 3e-11, bool(index % 2)),
                "mis": [("A", "B")] if index % 3 == 0 else [],
            },
        )
        for index in range(count)
    ]
    items.append((_key("fa"), {"arrival": 1.5e-10, "small": np.arange(4.0)}))
    return items


class TestLookupMany:
    def test_equals_per_key_lookups_and_stats(self, tmp_path):
        writer = PackedStore(tmp_path / "packed")
        items = _event_items(40)
        writer.store_many(items)
        writer.store(_key("0d"), _waveform(3))  # a data-file record
        keys = [key for key, _ in items[::2]] + [_key("0d"), _key("9"), _key("8")]
        batched = PackedStore(tmp_path / "packed")
        per_key = PackedStore(tmp_path / "packed")
        many = batched.lookup_many(keys)
        single = [per_key.lookup(key) for key in keys]
        assert [hit for hit, _ in many] == [hit for hit, _ in single]
        assert [hit for hit, _ in many].count(False) == 2
        for (_, got), (_, expected) in zip(many[:-3], single[:-3]):
            assert repr(got) == repr(expected)
        assert np.array_equal(many[-3][1].values, single[-3][1].values)
        assert batched.stats.as_dict() == per_key.stats.as_dict()
        assert batched.stats.as_dict() == {
            "hits": len(keys) - 2, "misses": 2, "stores": 0, "evictions": 0
        }
        assert batched.lookup_many([]) == []

    def test_sees_entries_appended_through_another_handle(self, store):
        reader = PackedStore(store.directory)
        key = _key("a1")
        assert reader.lookup_many([key]) == [(False, None)]
        store.store_many(_event_items(3))
        store.store(key, {"event": (1e-10, 2e-11, True), "mis": []})
        [(hit, value)] = reader.lookup_many([key])
        assert hit and value == {"event": (1e-10, 2e-11, True), "mis": []}

    def test_corrupted_inline_entry_is_dropped_as_a_miss(self, store):
        store.store_many(_event_items(4))
        good, bad = _key("1e"), _key("2e")
        idx = store.directory / _INDEX_NAME
        lines = idx.read_text().splitlines(keepends=True)
        for position, line in enumerate(lines):
            if json.loads(line)["key"] == bad:
                lines[position] = line.replace("1.002e-10", "9.002e-10")
        assert "9.002e-10" in "".join(lines)
        idx.write_text("".join(lines))
        reopened = PackedStore(store.directory)
        (good_hit, _), (bad_hit, bad_value) = reopened.lookup_many([good, bad])
        assert good_hit and not bad_hit and bad_value is None
        assert reopened.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 0, "evictions": 1
        }
        assert bad not in reopened
        assert reopened.lookup_many([bad]) == [(False, None)]
        assert reopened.stats.evictions == 1  # dropped once, then a plain miss

    def test_inline_index_lines_match_the_previous_writer(self, tmp_path, monkeypatch):
        """One sorted-key render serves the size check and the CRC: every
        index line is byte-identical to the previous writer's (``ts`` aside)."""
        items = _event_items(30)
        current = PackedStore(tmp_path / "current")
        current.store_many(items)
        current.store(_key("ab"), items[1][1])
        monkeypatch.setattr(PackedStore, "_inline_sig", staticmethod(_parent_inline_sig))
        previous = PackedStore(tmp_path / "previous")
        previous.store_many(items)
        previous.store(_key("ab"), items[1][1])

        def lines(directory):
            text = (directory / _INDEX_NAME).read_text()
            return [re.sub(r',"ts":[0-9.e+]+', "", line) for line in text.splitlines()]

        assert lines(current.directory) == lines(previous.directory)

    def test_previous_writers_store_serves_a_warm_hybrid_run(self, tmp_path, monkeypatch):
        """A store written with the previous writer's inline CRC rendering and
        stats schema (no ``clamped_lookups``) serves every refined instance of
        a warm hybrid run from its level records, with zero CSM
        integrations."""
        from repro.characterization import CharacterizationConfig
        from repro.csm.base import SimulationOptions
        from repro.sta import HybridEngine, PropagationStats, TimingModelLibrary
        from repro.sta import generate_netlist, primary_input_waveforms
        from repro.sta.generate import default_time_window

        library = default_library()
        models = TimingModelLibrary(
            library=library,
            config=CharacterizationConfig(io_grid_points=5),
            cache=PackedStore(tmp_path / "models"),
        )
        netlist = generate_netlist(library, "chain:nand:3")
        t_stop = default_time_window(netlist)
        waveforms = primary_input_waveforms(netlist, t_stop=t_stop, seed=1)
        options = SimulationOptions(time_step=2e-12)

        def hybrid():
            return HybridEngine(
                netlist, models, options=options, cache=PackedStore(tmp_path / "run"), top_k=1
            )

        plain_as_dict = PropagationStats.as_dict
        with monkeypatch.context() as patch:
            patch.setattr(PackedStore, "_inline_sig", staticmethod(_parent_inline_sig))
            patch.setattr(
                PropagationStats,
                "as_dict",
                lambda self: {
                    name: value
                    for name, value in plain_as_dict(self).items()
                    if name != "clamped_lookups"
                },
            )
            cold = hybrid().run(waveforms, t_stop=t_stop)
            assert "clamped_lookups" not in cold.stats
        engine = hybrid()
        warm = engine.run(waveforms, t_stop=t_stop)
        assert warm.stats["cache_hits"] == len(warm.refined_instances) > 0
        assert warm.stats["integrations"] == len(netlist.instances)  # the survey
        assert engine.csm.last_stats.integrations == 0
        assert warm.endpoint_arrivals == cold.endpoint_arrivals
        assert warm.exact_nets == cold.exact_nets


def _append_worker(directory: str, worker: int, count: int) -> None:
    store = PackedStore(directory)
    for index in range(count):
        payload = np.full(4096, worker * 1000.0 + index)
        store.store(_key(f"{worker}{index}"), {"data": payload})


class TestConcurrency:
    def test_concurrent_appends_from_two_processes(self, tmp_path):
        """flock-serialized appends: all entries from both processes must be
        readable afterwards with the correct contents."""
        directory = tmp_path / "shared"
        PackedStore(directory)  # create the files up front
        count = 8
        workers = [
            multiprocessing.Process(target=_append_worker, args=(str(directory), w, count))
            for w in (1, 2)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
        assert all(proc.exitcode == 0 for proc in workers)

        store = PackedStore(directory)
        assert len(store) == 2 * count
        for worker in (1, 2):
            for index in range(count):
                hit, value = store.lookup(_key(f"{worker}{index}"))
                assert hit
                assert np.array_equal(
                    value["data"], np.full(4096, worker * 1000.0 + index)
                )

    def test_interleaved_handles_in_one_process(self, tmp_path):
        a = PackedStore(tmp_path / "s")
        b = PackedStore(tmp_path / "s")
        a.store(_key("a"), _waveform(1))
        b.store(_key("b"), _waveform(2))
        a.store(_key("c"), _waveform(3))
        for handle in (a, b, PackedStore(tmp_path / "s")):
            for tag, seed in (("a", 1), ("b", 2), ("c", 3)):
                hit, value = handle.lookup(_key(tag))
                assert hit and np.array_equal(value.values, _waveform(seed).values)

    def test_concurrent_threaded_writers(self, tmp_path):
        """One handle shared by many threads, the way the timing server's
        workers share it: every store is readable at once and afterwards."""
        store = PackedStore(tmp_path / "s")
        errors = []

        def payload(seed: int) -> dict:
            # Odd seeds stay inline in the index, even ones go to store.dat.
            words = 64 if seed % 2 else 512
            return {"data": np.random.default_rng(seed).random(words)}

        def writer(index):
            try:
                for i in range(20):
                    key = _key(f"{index:x}{i:02x}")
                    store.store(key, payload(index * 100 + i))
                    hit, _ = store.lookup(key)
                    assert hit
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(store) == 120
        fresh = PackedStore(tmp_path / "s")
        for index in range(6):
            for i in range(20):
                hit, value = fresh.lookup(_key(f"{index:x}{i:02x}"))
                assert hit
                np.testing.assert_array_equal(value["data"], payload(index * 100 + i)["data"])


# ----------------------------------------------------------------------
# Maintenance: compact and the module CLI
# ----------------------------------------------------------------------
class TestMaintenance:
    def test_compact_reclaims_dead_records(self, store):
        key = _key("a")
        for seed in range(3):  # two dead versions + one live
            store.store(key, _waveform(seed))
        store.store(_key("b"), _waveform(9))
        store.evict(_key("b"))
        before = store.file_sizes()["dat"]
        kept, reclaimed = store.compact()
        assert kept == 1 and reclaimed > 0
        assert store.file_sizes()["dat"] == before - reclaimed
        hit, value = store.lookup(key)
        assert hit and np.array_equal(value.values, _waveform(2).values)
        # a fresh handle agrees with the compacted view
        fresh = PackedStore(store.directory)
        assert fresh.keys() == [key]

    def test_npz_cache_directory_is_not_read(self, tmp_path):
        """A directory left by the retired per-entry ``.npz`` layout opens as
        an empty store: its entries miss (and recompute), never decode."""
        old = tmp_path / "cache"
        (old / "aa").mkdir(parents=True)
        np.savez_compressed(old / "aa" / f"{_key('a')}.npz", a0=np.arange(4.0))
        store = PackedStore(old)
        assert len(store) == 0
        assert store.lookup(_key("a")) == (False, None)
        store.store(_key("a"), _waveform(1))
        hit, value = PackedStore(old).lookup(_key("a"))
        assert hit and np.array_equal(value.values, _waveform(1).values)

    def test_store_module_cli(self, tmp_path, capsys):
        from repro.runtime.store import main

        store = PackedStore(tmp_path / "packed")
        store.store(_key("a"), _waveform(1))
        store.store(_key("a"), _waveform(2))  # one dead record to reclaim
        assert main(["compact", str(tmp_path / "packed")]) == 0
        assert main(["stats", str(tmp_path / "packed")]) == 0
        output = capsys.readouterr().out
        assert "compacted" in output and "1 entries kept" in output
        assert json.loads(output[output.index("{"):])["entries"] == 1
        # A directory that holds no store is reported, not created.
        assert main(["stats", str(tmp_path / "absent")]) == 1
        assert not (tmp_path / "absent").exists()

    def test_stats_object_is_cache_stats(self, store):
        assert isinstance(store.stats, CacheStats)
        assert set(store.stats.as_dict()) == {"hits", "misses", "stores", "evictions"}


# ----------------------------------------------------------------------
# Pinning: records referenced by live views must survive maintenance
# ----------------------------------------------------------------------
class TestPinning:
    """The streaming engine pins spilled level records while it may still
    hold (or hand out) zero-copy views into them; eviction and policy sweeps
    must never pull a pinned record out from under those views."""

    def test_pinned_record_survives_forced_compaction_with_live_view(self, store):
        pinned_wave = _waveform(1)
        store.store(_key("a"), pinned_wave)
        store.store(_key("b"), _waveform(2))
        assert store.pin(_key("a"))
        hit, value = store.lookup(_key("a"))
        assert hit
        view = value.values  # zero-copy view into the mapping

        # Eviction refuses the pinned record outright...
        assert not store.evict(_key("a"))
        # ...but unpinned neighbours still die, leaving dead bytes behind.
        assert store.evict(_key("b"))
        kept, reclaimed = store.compact()
        assert kept == 1 and reclaimed > 0

        # The view taken before the compaction still reads the old inode,
        # and a fresh lookup round-trips the surviving record bitwise.
        assert np.array_equal(view, pinned_wave.values)
        hit, value = store.lookup(_key("a"))
        assert hit and np.array_equal(value.values, pinned_wave.values)

    def test_enforce_policy_skips_pinned_records(self, store):
        for tag in ("a", "b", "c"):
            store.store(_key(tag), _waveform(ord(tag)))
        assert store.pin(_key("a"))
        store.max_bytes = 1  # doom everything the policy may touch
        store.enforce_policy()
        assert store.keys() == [_key("a")]
        assert store.report()["pinned"] == 1

        # Unpinning makes the record ordinary again.
        store.unpin(_key("a"))
        store.enforce_policy()
        assert store.keys() == []

    def test_pins_are_refcounted_and_missing_keys_unpinnable(self, store):
        assert not store.pin(_key("f"))  # nothing to pin
        store.store(_key("a"), _waveform(3))
        assert store.pin(_key("a")) and store.pin(_key("a"))
        store.unpin(_key("a"))
        assert not store.evict(_key("a"))  # one reference still held
        store.unpin(_key("a"))
        assert store.evict(_key("a"))
        store.unpin(_key("a"))  # over-unpin of a gone key is a no-op

    def test_release_record_pages_keeps_contents_readable(self, store):
        wave = _waveform(4, samples=200_000)  # large: lands in the data file
        store.store(_key("a"), wave)
        hit, value = store.lookup(_key("a"))
        assert hit
        released = store.release_record_pages(_key("a"))
        assert released >= 0  # 0 on platforms without MADV_DONTNEED
        # Dropped pages refault from the page cache with identical contents.
        assert np.array_equal(value.values, wave.values)
        hit, again = store.lookup(_key("a"))
        assert hit and np.array_equal(again.values, wave.values)
        assert store.release_record_pages(_key("m")) == 0  # unknown key
