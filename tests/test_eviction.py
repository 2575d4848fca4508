"""LRU / age eviction policy of the packed store (PR 7 satellite).

The budgeted store must (a) stay under ``max_bytes`` after enforcement with
least-recently-*used* entries going first, (b) drop entries idle longer
than ``max_age_s``, (c) persist recency across handles so a reopened store
does not forget what was hot, and (d) degrade strictly miss-only — an
evicted key is a miss, never a wrong value, and survivors stay readable.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime import PackedStore


def _key(tag: str) -> str:
    import hashlib

    return hashlib.sha256(tag.encode()).hexdigest()


def _payload(seed: int, words: int = 512) -> dict:
    return {"data": np.random.default_rng(seed).random(words)}


@pytest.fixture()
def store(tmp_path):
    return PackedStore(tmp_path / "store")


class TestLRUEviction:
    def test_enforce_policy_respects_budget_and_recency(self, store):
        keys = [_key(f"k{i}") for i in range(10)]
        for i, key in enumerate(keys):
            store.store(key, _payload(i))
        # Touch the two oldest-stored keys so they become the most recent.
        store.lookup(keys[0])
        store.lookup(keys[1])
        per_entry = store._entry_bytes(store._entries[keys[2]])
        store.max_bytes = per_entry * 5
        evicted = store.enforce_policy()
        assert evicted["lru_evictions"] > 0
        assert store.live_bytes() <= store.max_bytes
        # The freshly touched keys survive; the stalest stored ones are gone.
        assert keys[0] in store and keys[1] in store
        assert keys[2] not in store
        for i, key in enumerate(keys):
            hit, value = store.lookup(key)
            assert hit == (key in store), key
            if hit:  # a survivor still reads back its own payload
                assert np.array_equal(value["data"], _payload(i)["data"]), key
        assert store.policy_stats["lru_evictions"] == evicted["lru_evictions"]
        assert store.stats.evictions >= evicted["lru_evictions"]

    def test_evicted_keys_are_miss_only(self, store):
        keys = [_key(f"m{i}") for i in range(8)]
        for i, key in enumerate(keys):
            store.store(key, _payload(i))
        store.max_bytes = 1  # evict everything
        store.enforce_policy()
        assert len(store) == 0
        for key in keys:
            assert store.lookup(key) == (False, None)

    def test_store_triggers_enforcement_when_over_budget(self, tmp_path):
        store = PackedStore(tmp_path / "auto", max_bytes=64 * 1024)
        for i in range(32):
            store.store(_key(f"a{i}"), _payload(i, words=2048))  # ~16 KiB each
        assert store.stats.evictions > 0
        assert store.live_bytes() <= store.max_bytes
        # Whatever survived must still read back bitwise.
        for key in store.keys():
            hit, value = store.lookup(key)
            assert hit and value["data"].dtype == np.float64

    def test_unbudgeted_store_never_evicts(self, store):
        for i in range(6):
            store.store(_key(f"u{i}"), _payload(i))
        report = store.enforce_policy()
        assert report["age_evictions"] == 0 and report["lru_evictions"] == 0
        assert store.stats.evictions == 0
        assert len(store) == 6


class TestAgeEviction:
    def test_entries_older_than_max_age_are_dropped(self, store):
        store.store(_key("old"), _payload(0))
        store.store(_key("new"), _payload(1))
        store.max_age_s = 60.0
        # Backdate the first entry's last access far beyond the horizon.
        store._access[_key("old")] -= 3600.0
        evicted = store.enforce_policy()
        assert evicted["age_evictions"] == 1
        assert _key("old") not in store
        assert _key("new") in store
        assert store.policy_stats["age_evictions"] == 1

    def test_lookup_refreshes_age(self, store):
        store.store(_key("kept"), _payload(0))
        store._access[_key("kept")] -= 3600.0
        store.lookup(_key("kept"))  # refreshes the access stamp
        store.max_age_s = 60.0
        assert store.enforce_policy()["age_evictions"] == 0
        assert _key("kept") in store


class TestRecencyPersistence:
    def test_recency_survives_reopen(self, tmp_path):
        # A (generous) budget makes the policy active, so read touches are
        # persisted to the index and survive the reopen.
        first = PackedStore(tmp_path / "store", max_bytes=1 << 30)
        keys = [_key(f"p{i}") for i in range(6)]
        for i, key in enumerate(keys):
            first.store(key, _payload(i))
        first.lookup(keys[0])  # most recent access is the oldest stored key
        first.close()

        second = PackedStore(tmp_path / "store")
        per_entry = second._entry_bytes(second._entries[keys[1]])
        second.max_bytes = per_entry * 2
        second.enforce_policy()
        assert keys[0] in second, "reopened store forgot the touch"
        assert keys[1] not in second

    def test_touches_only_persist_under_a_policy(self, tmp_path):
        # Without a budget the index must not take touch-record write
        # amplification from read traffic.
        plain = PackedStore(tmp_path / "plain")
        plain.store(_key("x"), _payload(0))
        idx = (tmp_path / "plain" / "store.idx").read_bytes()
        for _ in range(10):
            plain.lookup(_key("x"))
        plain.close()
        assert (tmp_path / "plain" / "store.idx").read_bytes() == idx

    def test_legacy_index_without_timestamps_loads(self, tmp_path):
        store = PackedStore(tmp_path / "store")
        store.store(_key("legacy"), _payload(0))
        store.close()
        # Strip the ts fields, emulating an index written before PR 7.
        idx_path = tmp_path / "store" / "store.idx"
        lines = []
        for line in idx_path.read_text().splitlines():
            record = json.loads(line)
            record.pop("ts", None)
            lines.append(json.dumps(record))
        idx_path.write_text("\n".join(lines) + "\n")

        reopened = PackedStore(tmp_path / "store")
        hit, value = reopened.lookup(_key("legacy"))
        assert hit
        np.testing.assert_array_equal(value["data"], _payload(0)["data"])
        reopened.max_age_s = 3600.0
        report = reopened.enforce_policy()  # stamped at load, not ancient
        assert report["age_evictions"] == 0


class TestPolicyReporting:
    def test_report_carries_policy_and_lock_sections(self, tmp_path):
        store = PackedStore(tmp_path / "store", max_bytes=1 << 20, max_age_s=60.0)
        store.store(_key("r"), _payload(0))
        report = store.report()
        assert report["policy"]["lru_evictions"] == 0
        assert report["live_bytes"] > 0
        assert report["lock"]["acquisitions"] > 0
        assert report["lock"]["wait_seconds"] >= 0.0

    def test_policy_compaction_reclaims_file_space(self, tmp_path):
        store = PackedStore(tmp_path / "store")
        for i in range(12):
            store.store(_key(f"c{i}"), _payload(i))
        before = (tmp_path / "store" / "store.dat").stat().st_size
        store.max_bytes = 1
        store.enforce_policy()
        after = (tmp_path / "store" / "store.dat").stat().st_size
        assert after < before
        assert store.policy_stats["policy_compactions"] >= 1
