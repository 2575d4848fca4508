"""Content-addressed disk cache for characterization and simulation results.

Layout on disk: one ``.npz`` file per entry under two-level fan-out
directories, addressed purely by the job's content hash::

    <cache_dir>/
        ab/
            ab3f9c....npz      # numeric payload + JSON manifest
        c4/
            c41d07....npz

Each ``.npz`` holds every numpy array of the payload (``a0``, ``a1``, ...)
plus a ``__manifest__`` entry: a JSON description of the object tree that
references the arrays by name.  The codec round-trips the repo's result
types **bitwise**:

* primitives, lists/tuples/dicts,
* numpy arrays (via the npz container itself),
* :class:`~repro.lut.table.NDTable` (axes + value grid),
* the characterized model dataclasses (``SISCSM``, ``BaselineMISCSM``,
  ``MCSM``) and :class:`~repro.characterization.nldm.NLDMTable`,
* :class:`~repro.sta.engine.NLDMTimingResult` in a columnar form
  (``"nldm-columns"``: name lists plus arrival/slew/direction arrays); the
  older per-event ``"object"`` manifests still decode.

Floats embedded in the manifest are rendered with ``repr`` (Python's
shortest round-tripping form), so a cache hit returns exactly the value the
original run produced.

Invalidation: keys embed :data:`repro.runtime.jobs.CODE_VERSION`, so bumping
the salt orphans every stale entry; :meth:`ResultCache.clear` removes them
from disk, and :meth:`ResultCache.evict` drops a single key.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from ..lut.grid import Axis
from ..lut.table import NDTable

__all__ = ["CacheStats", "ResultCache", "encode_payload", "decode_payload"]

#: A ``.tmp-*`` file older than this is a leftover of a crashed writer, not a
#: store in flight — :meth:`ResultCache.sweep_temps` deletes it.
STALE_TEMP_SECONDS = 3600.0

logger = logging.getLogger("repro.runtime")


def _registered_classes() -> Dict[str, Type]:
    """Dataclass result types the codec may store (imported lazily to keep
    :mod:`repro.runtime` free of upward package dependencies)."""
    from ..characterization.nldm import NLDMTable
    from ..csm.base import ModelSimulationResult
    from ..csm.models import MCSM, BaselineMISCSM, SISCSM
    from ..sta.engine import NLDMTimingResult, WaveformTimingResult
    from ..sta.events import TimingEvent
    from ..sta.mmmc import MulticornerNLDMResult, MulticornerTimingResult

    return {
        cls.__name__: cls
        for cls in (
            SISCSM,
            BaselineMISCSM,
            MCSM,
            NLDMTable,
            ModelSimulationResult,
            WaveformTimingResult,
            TimingEvent,
            NLDMTimingResult,
            MulticornerTimingResult,
            MulticornerNLDMResult,
        )
    }


# ----------------------------------------------------------------------
# Payload codec: object tree <-> (manifest JSON, {array_name: ndarray})
# ----------------------------------------------------------------------
def _is_waveform(value: Any) -> bool:
    from ..waveform.waveform import Waveform

    return isinstance(value, Waveform)


def _is_level_tensor(value: Any) -> bool:
    from ..waveform.level_tensor import LevelTensor

    return isinstance(value, LevelTensor)


def _is_nldm_result(value: Any) -> bool:
    from ..sta.engine import NLDMTimingResult

    return isinstance(value, NLDMTimingResult)


def _encode(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    # Numpy scalars first: np.float64 subclasses float, and repr() of the
    # subclass ('np.float64(…)') would not round-trip through float().
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return {"t": "float", "v": repr(float(value))}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"t": "float", "v": repr(value)}
    if isinstance(value, np.ndarray):
        name = f"a{len(arrays)}"
        arrays[name] = value
        return {"t": "array", "v": name}
    if isinstance(value, list):
        return {"t": "list", "v": [_encode(item, arrays) for item in value]}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [_encode(item, arrays) for item in value]}
    if isinstance(value, Mapping):
        # Read-only mappings (a timing result's lazy waveforms) store as the
        # dict they stand for.
        items = [[_encode(k, arrays), _encode(v, arrays)] for k, v in value.items()]
        return {"t": "dict", "v": items}
    if isinstance(value, NDTable):
        return {
            "t": "ndtable",
            "name": value.name,
            "axes": [[axis.name, list(axis.points)] for axis in value.axes],
            "values": _encode(value.values, arrays),
        }
    if _is_waveform(value):
        return {
            "t": "waveform",
            "name": value.name,
            "times": _encode(value.times, arrays),
            "values": _encode(value.values, arrays),
        }
    if _is_level_tensor(value):
        # The value tensor dominates the payload; on the packed store it
        # decodes back as a single zero-copy memmap view per level.
        return {
            "t": "leveltensor",
            "names": list(value.names),
            "values": _encode(value.values, arrays),
            "t0": _encode(value.t0, arrays),
            "dt": _encode(value.dt, arrays),
        }
    if _is_nldm_result(value):
        columns = _encode_nldm_columns(value, arrays)
        if columns is not None:
            return columns
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls_name = type(value).__name__
        if cls_name not in _registered_classes():
            raise TypeError(
                f"dataclass {cls_name!r} is not registered with the result cache"
            )
        return {
            "t": "object",
            "cls": cls_name,
            "fields": {
                f.name: _encode(getattr(value, f.name), arrays)
                for f in dataclasses.fields(value)
            },
        }
    raise TypeError(f"cannot cache values of type {type(value).__name__!r}")


def _encode_nldm_columns(value: Any, arrays: Dict[str, np.ndarray]) -> Optional[Dict[str, Any]]:
    """Columnar form of an ``NLDMTimingResult``: name lists plus one
    ``float64`` array each for arrivals and slews and a ``bool`` array for
    directions, so a whole-design event map costs a few arrays instead of a
    manifest object per event.

    Returns ``None`` (the caller falls back to the generic ``"object"`` form)
    for anything the columns could not give back bitwise: non-string names,
    non-float times, non-bool directions or MIS entries that are not lists
    of string pin pairs.
    """
    from ..sta.events import TimingEvent

    events = value.events
    if not isinstance(events, dict) or not isinstance(value.mis_flags, dict):
        return None
    if not isinstance(value.netlist_name, str):
        return None
    for key, event in events.items():
        if not (
            isinstance(key, str)
            and type(event) is TimingEvent
            and isinstance(event.net, str)
            and isinstance(event.arrival, (float, np.floating))
            and isinstance(event.slew, (float, np.floating))
            and isinstance(event.rising, (bool, np.bool_))
        ):
            return None
    for name, pairs in value.mis_flags.items():
        if not (isinstance(name, str) and type(pairs) is list):
            return None
        for pair in pairs:
            if not (
                type(pair) is tuple
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], str)
            ):
                return None
    keys = list(events)
    ordered = list(events.values())
    nets = [event.net for event in ordered]
    return {
        "t": "nldm-columns",
        "keys": keys,
        # Event nets almost always equal their keys; only spell them out
        # when they do not.
        "nets": None if nets == keys else nets,
        "arrival": _encode(np.array([e.arrival for e in ordered], dtype=np.float64), arrays),
        "slew": _encode(np.array([e.slew for e in ordered], dtype=np.float64), arrays),
        "rising": _encode(np.array([e.rising for e in ordered], dtype=np.bool_), arrays),
        "mis_names": list(value.mis_flags),
        "mis_pairs": [[list(pair) for pair in pairs] for pairs in value.mis_flags.values()],
        "netlist_name": value.netlist_name,
        "stats": _encode(value.stats, arrays),
    }


def _decode_nldm_columns(node: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Any:
    from ..sta.engine import NLDMTimingResult
    from ..sta.events import TimingEvent

    keys = node["keys"]
    nets = keys if node["nets"] is None else node["nets"]
    arrivals = _decode(node["arrival"], arrays).tolist()
    slews = _decode(node["slew"], arrays).tolist()
    rising = _decode(node["rising"], arrays).tolist()
    if not len(keys) == len(nets) == len(arrivals) == len(slews) == len(rising):
        raise ValueError("nldm-columns entry has ragged columns")
    events = {
        key: TimingEvent(net=net, arrival=arrival, slew=slew, rising=direction)
        for key, net, arrival, slew, direction in zip(keys, nets, arrivals, slews, rising)
    }
    mis_flags = {
        name: [tuple(pair) for pair in pairs]
        for name, pairs in zip(node["mis_names"], node["mis_pairs"])
    }
    return NLDMTimingResult(
        events=events,
        mis_flags=mis_flags,
        netlist_name=node["netlist_name"],
        stats=_decode(node["stats"], arrays),
    )


def _decode(node: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if node is None or isinstance(node, (bool, int, str)):
        return node
    if isinstance(node, list):  # only produced inside typed containers
        return [_decode(item, arrays) for item in node]
    tag = node["t"]
    if tag == "float":
        return float(node["v"])
    if tag == "array":
        return arrays[node["v"]]
    if tag == "list":
        return [_decode(item, arrays) for item in node["v"]]
    if tag == "tuple":
        return tuple(_decode(item, arrays) for item in node["v"])
    if tag == "dict":
        return {_decode(k, arrays): _decode(v, arrays) for k, v in node["v"]}
    if tag == "ndtable":
        axes = [
            Axis(name=name, points=tuple(float(p) for p in points))
            for name, points in node["axes"]
        ]
        return NDTable(axes, _decode(node["values"], arrays), name=node["name"])
    if tag == "waveform":
        from ..waveform.waveform import Waveform

        return Waveform(
            _decode(node["times"], arrays),
            _decode(node["values"], arrays),
            name=node["name"],
        )
    if tag == "leveltensor":
        from ..waveform.level_tensor import LevelTensor

        return LevelTensor(
            node["names"],
            _decode(node["values"], arrays),
            _decode(node["t0"], arrays),
            _decode(node["dt"], arrays),
        )
    if tag == "nldm-columns":
        return _decode_nldm_columns(node, arrays)
    if tag == "object":
        cls = _registered_classes()[node["cls"]]
        fields = {name: _decode(child, arrays) for name, child in node["fields"].items()}
        return cls(**fields)
    raise ValueError(f"unknown cache manifest tag {tag!r}")


def encode_payload(value: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Reduce a cacheable value to ``(manifest, {array_name: ndarray})``.

    The manifest is a JSON-serializable tree referencing the arrays by name;
    :func:`decode_payload` reverses it bitwise.  Shared by every storage
    backend (the per-entry ``.npz`` layout here and the packed single-file
    store in :mod:`repro.runtime.store`).
    """
    arrays: Dict[str, np.ndarray] = {}
    manifest = _encode(value, arrays)
    return manifest, arrays


def decode_payload(manifest: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Rebuild the value encoded by :func:`encode_payload`."""
    return _decode(manifest, arrays)


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/store/evict counters for one :class:`ResultCache` instance.

    ``evictions`` counts corrupted or undecodable entries dropped during
    lookup: each also counts as a miss (the caller recomputes and re-stores).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, {self.stores} stores, "
            f"{self.evictions} evicted"
        )


class ResultCache:
    """Content-addressed ``.npz`` store keyed by job content hashes."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.sweep_temps()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.npz"

    def _entries(self):
        """Finished entries only — skips '.tmp-*' left by interrupted stores.

        ``Path.glob`` (unlike a shell) matches dotfiles, so without the
        filter a crashed writer's ``.tmp-*.npz`` would count as an entry in
        ``len()`` / ``keys()`` and get returned by :meth:`clear`.
        """
        return (
            path
            for path in self.directory.glob("*/*.npz")
            if not path.name.startswith(".tmp-")
        )

    def sweep_temps(self, max_age_seconds: float = STALE_TEMP_SECONDS) -> int:
        """Delete ``.tmp-*`` files older than ``max_age_seconds``.

        Interrupted :meth:`store` calls (a killed process between the temp
        write and the atomic rename) leave temp files behind; they are never
        addressed again, so they only waste disk.  Recent temps are kept —
        they may belong to a concurrent writer mid-store.  Runs once per
        cache construction; returns the number of files removed.
        """
        cutoff = time.time() - max_age_seconds
        removed = 0
        for path in self.directory.glob("*/.tmp-*.npz"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:  # raced with a concurrent sweep or rename
                continue
        return removed

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for a key; counts the hit or miss."""
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                manifest = json.loads(str(data["__manifest__"]))
                arrays = {name: data[name] for name in data.files if name != "__manifest__"}
            value = _decode(manifest, arrays)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:  # corrupt/undecodable entry: treat as miss, drop it
            logger.warning("dropping unreadable cache entry %s", path, exc_info=True)
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            self.stats.evictions += 1
            return False, None
        self.stats.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        """Persist a value under its content key (atomic rename)."""
        manifest, arrays = encode_payload(value)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                np.savez_compressed(
                    stream, __manifest__=np.array(json.dumps(manifest)), **arrays
                )
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # ------------------------------------------------------------------
    def evict(self, key: str) -> bool:
        """Remove a single entry; returns whether it existed."""
        path = self._path(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        return removed

    def keys(self) -> List[str]:
        return sorted(path.stem for path in self._entries())
