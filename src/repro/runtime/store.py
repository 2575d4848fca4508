"""The result store: one packed, mmap-backed data file plus one index.

Every content-addressed value of the stack (characterized models, level
tensors, waveforms, timing results) lives in a :class:`PackedStore`, laid
out in the spirit of contiguous shared-memory block storage — no per-entry
files, no decompression on the read path:

* ``store.dat`` — an append-only record log, the **source of truth**.  Every
  record is self-describing (magic, length-prefixed JSON header, raw
  C-contiguous array bytes) so the whole index can be rebuilt by a linear
  scan.
* ``store.idx`` — a JSONL acceleration index (``key`` → record offset, or the
  payload itself for tiny entries).  Purely derived data: corrupt, stale or
  missing indexes are reconciled against ``store.dat`` on open.
* ``store.lock`` — ``flock`` target serializing appends across processes.

Read side: ``store.dat`` is mapped once via :func:`numpy.memmap`; array
payloads become views into the mapping (no copy, no decompression), with a
CRC32 over the payload verified per lookup so torn or overwritten bytes
degrade to a miss + eviction, never a wrong result.

Atomicity / crash-safety guarantees:

* an append happens under the file lock: record bytes are written and
  fsynced to ``store.dat`` *before* the index line is appended — a crash
  between the two leaves a record the next open recovers by scanning the
  data-file tail;
* a crash mid-record leaves trailing garbage that fails the magic/bounds
  check; it is ignored by readers and truncated away by the next locked
  append (the lock guarantees nobody else is mid-write);
* a torn index line is skipped (and the newline repaired before the next
  append); the entries it described are recovered from ``store.dat``.

Tiny payloads (e.g. the CSM engine's per-instance row pointers) are stored
inline in the index — no data-file record at all.

Bounded disk: ``PackedStore(max_bytes=, max_age_s=)`` turns the
store into a self-maintaining cache — last access times ride in the index
(``ts`` on put/inline lines plus lazily flushed ``touch`` lines), and
:meth:`PackedStore.enforce_policy` evicts by age then by LRU order until the
budget holds, compacting immediately afterwards so the bytes actually come
back.  Eviction is always *miss-only* degradation: a later lookup of an
evicted key misses and the caller recomputes.

One handle serves many threads (the timing server's workers share one); the
file lock serializes appends across processes.

``python -m repro.runtime.store compact DIR`` rewrites the data file
dropping dead records; ``stats DIR`` prints the store's :meth:`report`.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import mmap
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cache import CacheStats, decode_payload, encode_payload
from .jobs import contiguous_array

try:  # POSIX only; the store degrades to in-process locking elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["PackedStore"]

logger = logging.getLogger("repro.runtime")

#: Record magic: bumped if the record layout ever changes.
_MAGIC = b"PKW2"
_PREFIX = struct.Struct("<4sII")  # magic + header length + header CRC32
#: Records start, and payload arrays lie, on 8-byte boundaries: the header
#: is space-padded so the payload begins at prefix+hlen ≡ 0 (mod 8), and the
#: payload is zero-padded so every record length is a multiple of 8.
_ALIGN = 8
#: Encoded payloads at or below this many raw bytes live in the index line.
_INLINE_LIMIT = 2048

_DATA_NAME = "store.dat"
_INDEX_NAME = "store.idx"
_LOCK_NAME = "store.lock"
#: Dirty access-time updates buffered in memory before one batched index
#: append — bounds the write amplification of recency tracking.
_TOUCH_FLUSH_LIMIT = 256

#: The store's two JSON renderings, built once: ``json.dumps`` with
#: keyword arguments constructs a new encoder on every call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode
_sorted_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _pad(offset: int) -> int:
    return -offset % _ALIGN


class _FileLock:
    """Advisory cross-process lock (flock) + in-process re-entrant lock.

    Tracks how long outermost acquisitions waited (``wait_seconds`` /
    ``acquisitions``) — the lock-contention metric of :meth:`PackedStore.report`.
    """

    def __init__(self, path: Path):
        self._path = path
        self.thread_lock = threading.RLock()
        self._handle = None
        self._depth = 0
        self.acquisitions = 0
        self.wait_seconds = 0.0

    def __enter__(self):
        start = time.perf_counter()
        self.thread_lock.acquire()
        self._depth += 1
        if self._depth == 1:
            if fcntl is not None:
                self._handle = open(self._path, "ab")
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            self.acquisitions += 1
            self.wait_seconds += time.perf_counter() - start
        return self

    def __exit__(self, *exc):
        self._depth -= 1
        if self._depth == 0 and self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        self.thread_lock.release()
        return False


class PackedStore:
    """Content-addressed packed store keyed by job content hashes.

    ``lookup`` / ``lookup_many`` / ``store`` / ``store_many`` / ``stats`` /
    ``evict`` / ``clear`` / ``keys`` are what the engines,
    :func:`repro.runtime.run_jobs` and the model library use.  Decoded arrays are zero-copy **read-only**
    views into the mapping: copy before mutating a looked-up value.
    """

    def __init__(
        self,
        directory: os.PathLike,
        inline_limit: int = _INLINE_LIMIT,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ):
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.inline_limit = inline_limit
        #: Live-byte budget: when set, :meth:`enforce_policy` LRU-evicts until
        #: live entries fit.  Checked on open, close and after stores.
        self.max_bytes = max_bytes
        #: Age budget: entries not accessed for this many seconds are evicted
        #: by :meth:`enforce_policy`.
        self.max_age_s = max_age_s
        self.stats = CacheStats()
        #: Lifetime eviction-policy counters (reported via :meth:`report`).
        self.policy_stats = {
            "age_evictions": 0,
            "lru_evictions": 0,
            "policy_compactions": 0,
        }
        self._init_runtime_state()
        # An (empty) data file makes the directory identifiable as a store.
        self._dat_path.touch(exist_ok=True)
        self._load_index()
        self.enforce_policy()

    # -- pickling: worker processes reopen the files lazily --------------
    def _init_runtime_state(self) -> None:
        self._lock = _FileLock(self._lock_path)
        #: key -> pin refcount; pinned keys survive evict()/enforce_policy().
        #: Process-local (pins guard live memmap views in *this* process).
        self._pins: Dict[str, int] = {}
        self._reset_view()

    def _reset_view(self) -> None:
        self._mm: Optional[np.memmap] = None
        #: key -> ("dat", offset, length) | ("inline", index-line dict)
        self._entries: Dict[str, Tuple] = {}
        #: key -> last access epoch seconds (persisted ``ts`` or load time)
        self._access: Dict[str, float] = {}
        #: keys whose in-memory access time is newer than the index
        self._dirty_touches: set = set()
        self._idx_consumed = 0  # bytes of store.idx already parsed
        self._dat_scanned = 0  # bytes of store.dat covered by _entries
        self._idx_ino = 0  # inode of store.idx when last parsed
        self._dat_ino = 0  # inode of store.dat when last scanned

    def __getstate__(self):
        return {
            "directory": self.directory,
            "inline_limit": self.inline_limit,
            "max_bytes": self.max_bytes,
            "max_age_s": self.max_age_s,
            "stats": self.stats,
        }

    def __setstate__(self, state):
        self.directory = state["directory"]
        self.inline_limit = state["inline_limit"]
        self.max_bytes = state.get("max_bytes")
        self.max_age_s = state.get("max_age_s")
        self.stats = state["stats"]
        self.policy_stats = {
            "age_evictions": 0,
            "lru_evictions": 0,
            "policy_compactions": 0,
        }
        self._init_runtime_state()
        self._load_index()

    # ------------------------------------------------------------------
    @property
    def _dat_path(self) -> Path:
        return self.directory / _DATA_NAME

    @property
    def _idx_path(self) -> Path:
        return self.directory / _INDEX_NAME

    @property
    def _lock_path(self) -> Path:
        return self.directory / _LOCK_NAME

    def _dat_size(self) -> int:
        try:
            return self._dat_path.stat().st_size
        except FileNotFoundError:
            return 0

    @staticmethod
    def _file_sig(path: Path) -> Tuple[int, int]:
        """``(inode, size)`` — the staleness signature of an index/data file.

        Sizes alone cannot detect a ``clear()``/``compact()`` by another
        process that happens to rewrite a file to the same length; the
        inode changes on every ``os.replace``.
        """
        try:
            info = path.stat()
        except FileNotFoundError:
            return 0, 0
        return info.st_ino, info.st_size

    def _memmap(self, min_size: int) -> np.memmap:
        """The byte view of ``store.dat``, remapped when the file grew."""
        if self._mm is None or self._mm.size < min_size:
            self._mm = np.memmap(self._dat_path, dtype=np.uint8, mode="r")
        return self._mm

    # ------------------------------------------------------------------
    # Index loading / reconciliation
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        """Parse ``store.idx``, then reconcile against ``store.dat``.

        The index is only an accelerator: entries pointing past the end of
        the data file (stale index over a truncated file) are dropped as
        evictions, records present in the data file but missing from the
        index (crash between the two appends, or a torn index line) are
        recovered by scanning the data-file tail.
        """
        evictions_before = self.stats.evictions
        if self._parse_index_files():
            # Records existed that the index never mentioned (crashed writer,
            # or a lost/corrupt/stale index).  Persist a canonical snapshot so
            # later tombstones can never be out-ordered by a future tail scan
            # — but re-parse under the lock first: another process may have
            # appended lines (including tombstones) between our lock-free
            # read and the lock acquisition, and the snapshot must not
            # clobber them.
            with self._lock:
                # The locked re-parse recounts the first pass's evictions.
                self.stats.evictions = evictions_before
                self._reset_view()
                self._parse_index_files()
                self._write_index_snapshot()

    def _parse_index_files(self) -> int:
        """One parse + reconcile pass; returns the tail-recovery count."""
        self._dat_ino, dat_size = self._file_sig(self._dat_path)
        self._idx_ino = self._file_sig(self._idx_path)[0]
        try:
            raw = self._idx_path.read_bytes()
        except FileNotFoundError:
            raw = b""
        consumed = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn tail line: repaired before the next append
            try:
                record = json.loads(line)
                self._apply_index_record(record, dat_size)
            except Exception:
                logger.warning("skipping unreadable index line in %s", self._idx_path)
            consumed += len(line)
        self._idx_consumed = consumed
        return self._recover_tail(dat_size)

    def _apply_index_record(self, record: Dict[str, Any], dat_size: int) -> None:
        op = record.get("op")
        key = record.get("key")
        if op == "put":
            offset, length = int(record["off"]), int(record["len"])
            if offset + length <= dat_size:
                self._entries[key] = ("dat", offset, length)
                self._access[key] = float(record.get("ts") or time.time())
                self._dat_scanned = max(self._dat_scanned, offset + length)
            else:  # index outlives a truncated data file
                self._entries.pop(key, None)
                self._access.pop(key, None)
                self.stats.evictions += 1
        elif op == "inline":
            self._entries[key] = ("inline", record)
            self._access[key] = float(record.get("ts") or time.time())
        elif op == "drop":
            self._entries.pop(key, None)
            self._access.pop(key, None)
        elif op == "touch":
            # Recency-only update; pre-PR 7 readers treat these lines as
            # unreadable and skip them, which is harmless.
            if key in self._entries:
                self._access[key] = float(record.get("ts") or time.time())
        else:
            raise ValueError(f"unknown index op {op!r}")

    def _recover_tail(self, dat_size: int) -> int:
        """Scan ``store.dat`` past the indexed region, adopting whole records."""
        recovered = 0
        for key, offset, length in self._scan_dat(self._dat_scanned, dat_size):
            self._entries[key] = ("dat", offset, length)
            self._access.setdefault(key, time.time())
            self._dat_scanned = offset + length
            recovered += 1
        return recovered

    def _scan_dat(
        self, start: int, stop: int
    ) -> Iterator[Tuple[str, int, int]]:
        """Yield ``(key, offset, record_length)`` for intact records.

        Stops at the first corrupt or truncated record — everything after a
        bad record is unreachable garbage by construction (appends are
        serialized and fsynced front to back).
        """
        if stop <= start:
            return
        view = self._memmap(stop)
        offset = start
        while offset + _PREFIX.size <= stop:
            magic, header_len, header_crc = _PREFIX.unpack(
                view[offset : offset + _PREFIX.size].tobytes()
            )
            if magic != _MAGIC:
                return
            header_end = offset + _PREFIX.size + header_len
            if header_end > stop:
                return
            header_bytes = view[offset + _PREFIX.size : header_end].tobytes()
            if zlib.crc32(header_bytes) != header_crc:
                return
            try:
                header = json.loads(header_bytes)
                key = header["key"]
                payload_len = int(header["plen"])
            except Exception:
                return
            record_end = header_end + payload_len
            if record_end > stop:
                return
            yield key, offset, record_end - offset
            offset = record_end

    def rebuild_index(self) -> int:
        """Re-derive ``store.idx`` and persist a canonical snapshot.

        Returns the number of live entries.  Normally unnecessary — open
        reconciles automatically — but useful after hand-editing or to drop
        accumulated tombstone lines without a full :meth:`compact`.  The
        existing index is parsed first (never scanned-over blind): its
        tombstones are *applied* before the snapshot drops their lines, so
        evicted entries stay evicted.
        """
        with self._lock:
            self._reset_view()
            self._parse_index_files()
            self._write_index_snapshot()
            return len(self._entries)

    def _write_index_snapshot(self) -> None:
        """Atomically replace ``store.idx`` with the in-memory entry map.

        Must hold the lock.
        """
        lines = []
        for key, entry in self._entries.items():
            ts = self._access.get(key)
            if entry[0] == "dat":
                record = {"op": "put", "key": key, "off": entry[1], "len": entry[2]}
                if ts is not None:
                    record["ts"] = ts
                lines.append(_compact_json(record))
            else:
                record = entry[1] if ts is None else {**entry[1], "ts": ts}
                lines.append(_compact_json(record))
        self._dirty_touches.clear()  # the snapshot carries current recency
        tmp = self._idx_path.with_suffix(".idx.tmp")
        tmp.write_text("".join(line + "\n" for line in lines))
        os.replace(tmp, self._idx_path)
        self._idx_ino, self._idx_consumed = self._file_sig(self._idx_path)

    def _refresh(self) -> None:
        """Adopt entries appended by other processes since our last look."""
        idx_ino, idx_size = self._file_sig(self._idx_path)
        dat_ino, dat_size = self._file_sig(self._dat_path)
        if (
            idx_size < self._idx_consumed
            or idx_ino != self._idx_ino
            or dat_ino != self._dat_ino
        ):
            # The files shrank or were replaced under us (clear/compact by
            # another process): restart from scratch.
            self._reset_view()
            self._load_index()
            return
        if idx_size == self._idx_consumed and dat_size == self._dat_scanned:
            return
        with open(self._idx_path, "rb") as handle:
            handle.seek(self._idx_consumed)
            raw = handle.read()
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                self._apply_index_record(json.loads(line), dat_size)
            except Exception:
                logger.warning("skipping unreadable index line in %s", self._idx_path)
            self._idx_consumed += len(line)
        self._recover_tail(dat_size)

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    @staticmethod
    def _array_spec(array: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        contiguous = contiguous_array(array)
        return contiguous, {
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
        }

    def _encode_entry(self, key: str, value: Any) -> Tuple[str, Any]:
        """``("inline", index record)`` or ``("dat", record bytes)`` for a value.

        The manifest is rendered to JSON once, with sorted keys: that text is
        the manifest's share of the inline-limit check (key order never
        changes the length) and, for an inline entry, part of its CRC text.
        """
        manifest, arrays = encode_payload(value)
        text = _sorted_json(manifest)
        # The manifest counts against the inline limit too: array-free
        # payloads can carry an arbitrarily large manifest, which belongs in
        # the data file, not the index.
        if sum(array.nbytes for array in arrays.values()) + len(text) <= self.inline_limit:
            return "inline", self._build_inline_record(key, manifest, arrays, text)
        return "dat", self._build_record(key, manifest, arrays)

    def store(self, key: str, value: Any) -> None:
        """Append a value under its content key (atomic via lock + fsync)."""
        kind, record = self._encode_entry(key, value)
        if kind == "inline":
            self._store_inline(key, record)
            return

        with self._lock:
            self._refresh()  # adopt entries other processes appended meanwhile
            now = time.time()
            offset = self._locked_append_dat(record)
            self._locked_append_idx(
                {"op": "put", "key": key, "off": offset, "len": len(record), "ts": now}
            )
            self._entries[key] = ("dat", offset, len(record))
            self._access[key] = now
            self._dat_scanned = offset + len(record)
        self.stats.stores += 1
        self._maybe_enforce_after_store()

    def store_many(self, items) -> None:
        """Append many ``(key, value)`` pairs in ONE locked transaction.

        Equivalent to calling :meth:`store` per pair, but every data record
        is written under a single lock acquisition with a single fsync, and
        the index lines land in one append — this is what makes per-level
        spills (a whole-level tensor record plus one tiny pointer entry per
        instance) cost one I/O round-trip instead of one per instance.
        """
        encoded = [(key,) + self._encode_entry(key, value) for key, value in items]
        if not encoded:
            return
        with self._lock:
            self._refresh()
            now = time.time()
            dat_records = [(key, record) for key, kind, record in encoded if kind == "dat"]
            offsets: Dict[str, int] = {}
            if dat_records:
                blob = b"".join(record for _, record in dat_records)
                base = self._locked_append_dat(blob)
                for key, record in dat_records:
                    offsets[key] = base
                    base += len(record)
            index_records = []
            for key, kind, record in encoded:
                if kind == "inline":
                    record = {**record, "ts": now}
                    index_records.append(record)
                    self._entries[key] = ("inline", record)
                else:
                    offset = offsets[key]
                    index_records.append(
                        {"op": "put", "key": key, "off": offset, "len": len(record), "ts": now}
                    )
                    self._entries[key] = ("dat", offset, len(record))
                    self._dat_scanned = max(self._dat_scanned, offset + len(record))
                self._access[key] = now
            self._locked_append_idx_many(index_records)
        self.stats.stores += len(encoded)
        self._maybe_enforce_after_store()

    def _build_record(self, key: str, manifest: Any, arrays: Dict[str, np.ndarray]) -> bytes:
        """Serialize one data-file record (prefix + padded header + payload)."""
        specs: List[Dict[str, Any]] = []
        chunks: List[bytes] = []
        payload_len = 0
        for name, array in arrays.items():
            contiguous, spec = self._array_spec(array)
            padding = _pad(payload_len)
            if padding:
                chunks.append(b"\x00" * padding)
                payload_len += padding
            spec.update({"name": name, "rel": payload_len, "nb": contiguous.nbytes})
            chunks.append(contiguous.tobytes())
            payload_len += contiguous.nbytes
            specs.append(spec)
        tail_pad = _pad(payload_len)
        if tail_pad:  # keep the *next* record's start 8-byte aligned
            chunks.append(b"\x00" * tail_pad)
            payload_len += tail_pad
        payload = b"".join(chunks)
        crc = zlib.crc32(payload)
        header = _compact_json(
            {
                "key": key,
                "manifest": manifest,
                "arrays": specs,
                "plen": payload_len,
                "crc": crc,
            }
        ).encode("utf-8")
        # Space-pad the header (JSON tolerates trailing whitespace) so the
        # payload starts 8-byte aligned; the header CRC lives in the fixed
        # prefix so a digit flip inside the JSON can never decode as a hit.
        header += b" " * _pad(_PREFIX.size + len(header))
        return _PREFIX.pack(_MAGIC, len(header), zlib.crc32(header)) + header + payload

    @staticmethod
    def _inline_sig(
        manifest: Any, inline_arrays: Dict[str, Any], manifest_text: Optional[str] = None
    ) -> int:
        """Integrity checksum of an inline entry's content.

        A bit flip inside an index line can keep the JSON valid (a digit in
        a float, a base64 character); without this, such corruption would be
        served as a hit with wrong values.  The checksummed text is
        ``json.dumps({"m": manifest, "a": inline_arrays}, sort_keys=True,
        separators=(",", ":"))``, assembled around ``manifest_text`` (the
        manifest's sorted-key rendering) when the caller already has it.
        """
        if manifest_text is None:
            manifest_text = _sorted_json(manifest)
        arrays_text = _sorted_json(inline_arrays) if inline_arrays else "{}"
        blob = '{"a":' + arrays_text + ',"m":' + manifest_text + "}"
        return zlib.crc32(blob.encode("utf-8"))

    def _build_inline_record(
        self, key: str, manifest: Any, arrays: Dict[str, np.ndarray], manifest_text: str
    ) -> Dict[str, Any]:
        inline_arrays = {}
        for name, array in arrays.items():
            contiguous, spec = self._array_spec(array)
            spec["b64"] = base64.b64encode(contiguous.tobytes()).decode("ascii")
            inline_arrays[name] = spec
        return {
            "op": "inline",
            "key": key,
            "manifest": manifest,
            "arrays": inline_arrays,
            "crc": self._inline_sig(manifest, inline_arrays, manifest_text),
        }

    def _store_inline(self, key: str, record: Dict[str, Any]) -> None:
        """Tiny payloads (event tuples, scalars) live directly in the index."""
        with self._lock:
            self._refresh()
            now = time.time()
            record = {**record, "ts": now}
            self._locked_append_idx(record)
            self._entries[key] = ("inline", record)
            self._access[key] = now
        self.stats.stores += 1
        self._maybe_enforce_after_store()

    def _locked_append_dat(self, record: bytes) -> int:
        """Append a record to ``store.dat``; returns its offset.

        Must hold the lock.  Another process may have appended since our
        last refresh, and a crashed one may have left a torn record at the
        tail: adopt the former, truncate the latter (safe — the lock
        guarantees no live writer is mid-record).
        """
        end = self._dat_scanned
        with open(self._dat_path, "ab") as handle:
            if os.fstat(handle.fileno()).st_size != end:
                # Trailing garbage from a crashed writer ('a' mode always
                # writes at EOF, so it must be cut off first).
                handle.truncate(end)
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
            self._dat_ino = os.fstat(handle.fileno()).st_ino
        return end

    def _locked_append_idx(self, record: Dict[str, Any]) -> None:
        """Append one JSONL line, repairing a torn tail line first."""
        self._locked_append_idx_many([record])

    def _locked_append_idx_many(self, records: List[Dict[str, Any]]) -> None:
        """Append many JSONL lines in one write, repairing a torn tail first."""
        line = b"".join(
            (_compact_json(record) + "\n").encode("utf-8")
            for record in records
        )
        with open(self._idx_path, "ab") as handle:
            end = os.fstat(handle.fileno()).st_size
            if end:
                with open(self._idx_path, "rb") as reader:
                    reader.seek(end - 1)
                    if reader.read(1) != b"\n":
                        handle.write(b"\n")  # repair a torn tail line
            handle.write(line)
            handle.flush()
        self._idx_ino, self._idx_consumed = self._file_sig(self._idx_path)

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; counts the hit or miss on :attr:`stats`."""
        return self.lookup_many((key,))[0]

    def lookup_many(self, keys: Sequence[str]) -> List[Tuple[bool, Any]]:
        """``[lookup(key) for key in keys]`` behind ONE index refresh.

        A lookup of a key this handle does not know re-reads the index tail
        (two ``stat`` calls plus any new lines) before it misses.  Here the
        first unknown key refreshes once for the whole batch, which is what
        lets a batch of a thousand cold keys probe for the price of one.
        Hits, misses, evictions and recency count exactly as per-key lookups
        count them.
        """
        with self._lock.thread_lock:
            if any(key not in self._entries for key in keys):
                self._refresh()
        return [self._serve(key) for key in keys]

    def _serve(self, key: str) -> Tuple[bool, Any]:
        """One lookup against the current view (no refresh)."""
        with self._lock.thread_lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return False, None
        # Decode outside the lock: the record bytes at a committed offset
        # never change (appends go past them; clear/compact swap inodes), so
        # concurrent readers should not serialize on the CRC + decode work.
        try:
            value = self._decode_entry(key, entry)
        except Exception:
            logger.warning(
                "dropping unreadable packed-store entry %s", key, exc_info=True
            )
            with self._lock.thread_lock:
                self._entries.pop(key, None)
                self.stats.misses += 1
                self.stats.evictions += 1
            return False, None
        with self._lock.thread_lock:
            self.stats.hits += 1
            self._note_access(key)
        return True, value

    def _note_access(self, key: str) -> None:
        """Record a hit's recency; persisted lazily in batched touch lines.

        Must hold at least the thread lock.  Touch lines are only written
        when an eviction policy is active — without one, recency is kept in
        memory for reporting but never amplifies index writes.
        """
        self._access[key] = time.time()
        if self.max_bytes is None and self.max_age_s is None:
            return
        self._dirty_touches.add(key)
        if len(self._dirty_touches) >= _TOUCH_FLUSH_LIMIT:
            self._flush_touches()

    def _flush_touches(self) -> None:
        with self._lock:
            if not self._dirty_touches:
                return
            records = [
                {"op": "touch", "key": key, "ts": self._access[key]}
                for key in sorted(self._dirty_touches)
                if key in self._entries and key in self._access
            ]
            self._dirty_touches.clear()
            if records:
                self._locked_append_idx_many(records)

    def _decode_entry(self, key: str, entry: Tuple) -> Any:
        if entry[0] == "inline":
            record = entry[1]
            if record.get("crc") != self._inline_sig(record["manifest"], record["arrays"]):
                raise ValueError("inline entry CRC mismatch")
            arrays = {
                name: np.frombuffer(
                    base64.b64decode(spec["b64"]), dtype=np.dtype(spec["dtype"])
                ).reshape(spec["shape"])
                for name, spec in record["arrays"].items()
            }
            return decode_payload(record["manifest"], arrays)

        _, offset, length = entry
        if offset + length > self._dat_size():
            raise ValueError("record extends past the end of the data file")
        view = self._memmap(offset + length)
        magic, header_len, header_crc = _PREFIX.unpack(
            view[offset : offset + _PREFIX.size].tobytes()
        )
        if magic != _MAGIC:
            raise ValueError("bad record magic")
        header_end = offset + _PREFIX.size + header_len
        header_bytes = view[offset + _PREFIX.size : header_end].tobytes()
        if zlib.crc32(header_bytes) != header_crc:
            raise ValueError("header CRC mismatch")
        header = json.loads(header_bytes)
        if header["key"] != key:
            raise ValueError("record key mismatch")
        payload_len = int(header["plen"])
        if header_end + payload_len != offset + length:
            raise ValueError("record length mismatch")
        payload = view[header_end : header_end + payload_len]
        if zlib.crc32(payload) != header["crc"]:
            raise ValueError("payload CRC mismatch")
        arrays = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            count = int(math.prod(shape))
            arrays[spec["name"]] = np.frombuffer(
                view, dtype=dtype, count=count, offset=header_end + spec["rel"]
            ).reshape(shape)
        return decode_payload(header["manifest"], arrays)

    # ------------------------------------------------------------------
    # Bookkeeping / maintenance
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock.thread_lock:
            if key not in self._entries:
                self._refresh()
            return key in self._entries

    def __len__(self) -> int:
        with self._lock.thread_lock:
            self._refresh()
            return len(self._entries)

    def keys(self) -> List[str]:
        with self._lock.thread_lock:
            self._refresh()
            return sorted(self._entries)

    def pin(self, key: str) -> bool:
        """Protect an entry from eviction while a view into it is live.

        Pins are refcounted and process-local.  A pinned entry is skipped by
        :meth:`evict` and :meth:`enforce_policy`, so a streaming engine can
        hold zero-copy memmap views across a policy sweep without risking a
        compaction pulling the record out from under them.  Returns ``False``
        when the key does not exist (nothing to pin).
        """
        with self._lock.thread_lock:
            if key not in self._entries:
                self._refresh()
            if key not in self._entries:
                return False
            self._pins[key] = self._pins.get(key, 0) + 1
            return True

    def unpin(self, key: str) -> None:
        """Drop one pin reference; the entry becomes evictable at zero."""
        with self._lock.thread_lock:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            else:
                self._pins.pop(key, None)

    def pinned_keys(self) -> List[str]:
        with self._lock.thread_lock:
            return sorted(self._pins)

    def release_record_pages(self, key: str) -> int:
        """Drop the resident pages backing one data-file record.

        The data file is mapped ``MAP_SHARED`` read-only, so
        ``MADV_DONTNEED`` only evicts the pages from this process's resident
        set — a later touch refaults them from the page cache / disk with
        identical contents.  This is how the streaming engine keeps peak RSS
        bounded: spilled level tensors stay addressable (the view survives)
        but stop counting against resident memory.  Returns the number of
        bytes advised away (0 when the record is inline, unmapped, or the
        platform lacks ``madvise``).
        """
        if not hasattr(mmap, "MADV_DONTNEED"):
            return 0
        with self._lock.thread_lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != "dat" or self._mm is None:
                return 0
            _, offset, length = entry
            page = mmap.PAGESIZE
            # Round *inward*: never advise pages shared with a neighbour.
            start = ((offset + page - 1) // page) * page
            stop = ((offset + length) // page) * page
            if stop <= start or stop > len(self._mm):
                return 0
            try:
                raw = self._mm._mmap  # the underlying mmap object
                raw.madvise(mmap.MADV_DONTNEED, start, stop - start)
            except (AttributeError, ValueError, OSError):
                return 0
            return stop - start

    def evict(self, key: str) -> bool:
        """Remove one entry (tombstone in the index; data reclaimed by
        :meth:`compact`).  Pinned entries are refused."""
        with self._lock:
            self._refresh()
            if key not in self._entries:
                return False
            if self._pins.get(key, 0) > 0:
                return False
            del self._entries[key]
            self._access.pop(key, None)
            self._dirty_touches.discard(key)
            self._locked_append_idx({"op": "drop", "key": key})
            return True

    def clear(self) -> int:
        """Drop every entry, replacing both files with empty ones.

        Replace — never truncate — the data file: earlier lookups handed out
        zero-copy views into the current mapping, and truncating the mapped
        inode would turn their next access into a SIGBUS.  The replace keeps
        the old inode alive until the last mapping goes away.
        """
        with self._lock:
            self._refresh()
            removed = len(self._entries)
            self._entries.clear()
            self._access.clear()
            self._dirty_touches.clear()
            for path in (self._dat_path, self._idx_path):
                tmp = path.with_suffix(path.suffix + ".tmp")
                with open(tmp, "wb"):
                    pass
                os.replace(tmp, path)
            self._mm = None
            self._idx_consumed = 0
            self._dat_scanned = 0
            self._idx_ino = self._file_sig(self._idx_path)[0]
            self._dat_ino = self._file_sig(self._dat_path)[0]
            return removed

    def compact(self) -> Tuple[int, int]:
        """Rewrite ``store.dat`` keeping only live records.

        Dead bytes accumulate from overwritten keys and evictions (the data
        file is append-only).  Returns ``(entries_kept, bytes_reclaimed)``.
        Both files are replaced atomically; the in-memory view is reloaded.
        """
        with self._lock:
            self._refresh()
            old_size = self._dat_size()
            view = self._memmap(old_size) if old_size else None
            dat_tmp = self._dat_path.with_suffix(".dat.tmp")
            idx_lines: List[str] = []
            new_offset = 0
            new_entries: Dict[str, Tuple] = {}
            with open(dat_tmp, "wb") as out:
                for key, entry in self._entries.items():
                    ts = self._access.get(key)
                    if entry[0] == "inline":
                        record = entry[1] if ts is None else {**entry[1], "ts": ts}
                        idx_lines.append(_compact_json(record))
                        new_entries[key] = entry
                        continue
                    _, offset, length = entry
                    out.write(view[offset : offset + length].tobytes())
                    record = {"op": "put", "key": key, "off": new_offset, "len": length}
                    if ts is not None:
                        record["ts"] = ts
                    idx_lines.append(_compact_json(record))
                    new_entries[key] = ("dat", new_offset, length)
                    new_offset += length
                out.flush()
                os.fsync(out.fileno())
            idx_tmp = self._idx_path.with_suffix(".idx.tmp")
            idx_tmp.write_text("".join(line + "\n" for line in idx_lines))
            self._mm = None
            os.replace(dat_tmp, self._dat_path)
            os.replace(idx_tmp, self._idx_path)
            self._entries = new_entries
            self._dirty_touches.clear()  # the rewritten index carries recency
            self._dat_scanned = new_offset
            self._dat_ino = self._file_sig(self._dat_path)[0]
            self._idx_ino, self._idx_consumed = self._file_sig(self._idx_path)
            return len(new_entries), old_size - new_offset

    def file_sizes(self) -> Dict[str, int]:
        """On-disk byte sizes (reporting / benchmarks)."""
        sizes = {}
        for name, path in (("dat", self._dat_path), ("idx", self._idx_path)):
            try:
                sizes[name] = path.stat().st_size
            except FileNotFoundError:
                sizes[name] = 0
        return sizes

    def dead_bytes(self) -> int:
        """Bytes of ``store.dat`` no live entry references.

        Dead bytes accumulate from overwritten keys, evictions and torn
        tails (the data file is append-only); :meth:`compact` reclaims them.
        """
        with self._lock.thread_lock:
            self._refresh()
            live = sum(
                entry[2] for entry in self._entries.values() if entry[0] == "dat"
            )
            return max(0, self._dat_size() - live)

    @staticmethod
    def _entry_bytes(entry: Tuple) -> int:
        """Approximate on-disk cost of one live entry (record or index line)."""
        if entry[0] == "dat":
            return entry[2]
        return len(_compact_json(entry[1])) + 1

    def live_bytes(self) -> int:
        """Bytes of live data (data-file records + inline index lines)."""
        with self._lock.thread_lock:
            self._refresh()
            return sum(self._entry_bytes(entry) for entry in self._entries.values())

    def enforce_policy(self, now: Optional[float] = None) -> Dict[str, int]:
        """Apply the LRU/age eviction policy; returns what was evicted.

        Entries older than :attr:`max_age_s` (by last access) go first, then
        least-recently-used entries until live bytes fit :attr:`max_bytes`.
        Eviction is followed immediately by :meth:`compact` — evict-then-
        compact — so the disk budget is actually honoured, not just the
        logical one.  Evicted keys degrade to misses on their next lookup.
        """
        report = {"age_evictions": 0, "lru_evictions": 0, "reclaimed_bytes": 0}
        if self.max_bytes is None and self.max_age_s is None:
            return report
        with self._lock:
            self._refresh()
            self._flush_touches()
            now = time.time() if now is None else now
            pinned = {key for key, count in self._pins.items() if count > 0}
            doomed: List[str] = []
            if self.max_age_s is not None:
                doomed = [
                    key
                    for key in self._entries
                    if key not in pinned
                    and now - self._access.get(key, now) > self.max_age_s
                ]
                report["age_evictions"] = len(doomed)
            if self.max_bytes is not None:
                doomed_set = set(doomed)
                sizes = {
                    key: self._entry_bytes(entry)
                    for key, entry in self._entries.items()
                    if key not in doomed_set
                }
                live = sum(sizes.values())
                if live > self.max_bytes:
                    for key in sorted(sizes, key=lambda k: self._access.get(k, 0.0)):
                        if live <= self.max_bytes:
                            break
                        if key in pinned:
                            continue
                        doomed.append(key)
                        live -= sizes[key]
                        report["lru_evictions"] += 1
            if doomed:
                for key in doomed:
                    self._entries.pop(key, None)
                    self._access.pop(key, None)
                    self._dirty_touches.discard(key)
                self.stats.evictions += len(doomed)
                self.policy_stats["age_evictions"] += report["age_evictions"]
                self.policy_stats["lru_evictions"] += report["lru_evictions"]
                self.policy_stats["policy_compactions"] += 1
                # compact() snapshots the surviving entries, so the dropped
                # keys need no tombstones and their bytes come back now.
                _, reclaimed = self.compact()
                report["reclaimed_bytes"] = reclaimed
        return report

    def _maybe_enforce_after_store(self) -> None:
        """Cheap post-store budget check (one ``stat`` pair per store)."""
        if self.max_bytes is None:
            return
        sizes = self.file_sizes()
        if sizes["dat"] + sizes["idx"] > self.max_bytes:
            self.enforce_policy()

    def lock_stats(self) -> Dict[str, float]:
        """Cross-process lock contention counters."""
        return {
            "acquisitions": self._lock.acquisitions,
            "wait_seconds": self._lock.wait_seconds,
        }

    def report(self) -> Dict[str, Any]:
        """One JSON-ready dict of everything an operator wants to know."""
        with self._lock.thread_lock:
            self._refresh()
            entries = len(self._entries)
            pinned = len(self._pins)
        stats = self.stats
        return {
            "entries": entries,
            "pinned": pinned,
            "file_sizes": self.file_sizes(),
            "live_bytes": self.live_bytes(),
            "dead_bytes": self.dead_bytes(),
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "stores": stats.stores,
                "evictions": stats.evictions,
            },
            "policy": dict(self.policy_stats),
            "lock": self.lock_stats(),
        }

    def close(self) -> None:
        """Flush recency, apply the eviction policy and release the
        data-file mapping.  The store stays usable — the next lookup simply
        remaps the file."""
        self._flush_touches()
        self.enforce_policy()
        self._mm = None


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.runtime.store`` — compact / stats."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.store",
        description="Maintain packed result stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    compact = sub.add_parser("compact", help="rewrite store.dat dropping dead records")
    compact.add_argument("directory", type=Path)
    stats = sub.add_parser("stats", help="print entry count and file sizes")
    stats.add_argument("directory", type=Path)
    args = parser.parse_args(argv)

    if not (args.directory / _DATA_NAME).exists():
        print(f"{args.directory} is not a packed store")
        return 1
    store = PackedStore(args.directory)
    if args.command == "compact":
        kept, reclaimed = store.compact()
        print(f"compacted {args.directory}: {kept} entries kept, {reclaimed} bytes reclaimed")
    else:
        print(json.dumps(store.report(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
