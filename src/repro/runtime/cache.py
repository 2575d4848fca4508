"""Payload codec and hit/miss counters of the content-addressed result store.

Every value the store (:class:`~repro.runtime.store.PackedStore`) holds is
reduced to a JSON manifest describing the object tree plus a set of named
numpy arrays the manifest references (``a0``, ``a1``, ...).  The codec
round-trips the repo's result types **bitwise**:

* primitives, lists/tuples/dicts,
* numpy arrays (stored raw by the store, decoded as views),
* :class:`~repro.lut.table.NDTable` (axes + value grid),
* waveforms and level tensors (a CSM level record),
* the characterized model dataclasses (``SISCSM``, ``BaselineMISCSM``,
  ``MCSM``) and :class:`~repro.characterization.nldm.NLDMTable`.

Timing results are not stored: a CSM run is served instance by instance
from its level records and row pointers, NLDM recomputes its events, and
the figures recompute their model simulations.

Floats embedded in the manifest are rendered with ``repr`` (Python's
shortest round-tripping form), so a store hit returns exactly the value the
original run produced.

Invalidation: keys embed :data:`repro.runtime.jobs.CODE_VERSION`, so bumping
the salt orphans every stale entry.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Tuple, Type

import numpy as np

from ..lut.grid import Axis
from ..lut.table import NDTable

__all__ = ["CacheStats", "encode_payload", "decode_payload"]


def _registered_classes() -> Dict[str, Type]:
    """Dataclass result types the codec may store (imported lazily to keep
    :mod:`repro.runtime` free of upward package dependencies)."""
    from ..characterization.nldm import NLDMTable
    from ..csm.models import MCSM, BaselineMISCSM, SISCSM

    return {cls.__name__: cls for cls in (SISCSM, BaselineMISCSM, MCSM, NLDMTable)}


# ----------------------------------------------------------------------
# Payload codec: object tree <-> (manifest JSON, {array_name: ndarray})
# ----------------------------------------------------------------------
def _is_waveform(value: Any) -> bool:
    from ..waveform.waveform import Waveform

    return isinstance(value, Waveform)


def _is_level_tensor(value: Any) -> bool:
    from ..waveform.level_tensor import LevelTensor

    return isinstance(value, LevelTensor)


#: Exact builtin types a manifest holds as they are.
_PLAIN_TYPES = frozenset((str, bool, int, type(None)))


def _encode(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    # Exact builtin scalars and the containers first: they are the bulk of
    # every manifest, and none of them can also be a numpy scalar or an
    # array.
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return value
    if kind is float:
        return {"t": "float", "v": repr(value)}
    if isinstance(value, list):
        return {"t": "list", "v": [_encode(item, arrays) for item in value]}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [_encode(item, arrays) for item in value]}
    if isinstance(value, Mapping):
        # Read-only mappings store as the dict they stand for.
        items = [[_encode(k, arrays), _encode(v, arrays)] for k, v in value.items()]
        return {"t": "dict", "v": items}
    # Numpy scalars before their builtin bases: np.float64 subclasses float,
    # and repr() of the subclass ('np.float64(…)') would not round-trip
    # through float().
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return {"t": "float", "v": repr(float(value))}
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"t": "float", "v": repr(value)}
    if isinstance(value, np.ndarray):
        name = f"a{len(arrays)}"
        arrays[name] = value
        return {"t": "array", "v": name}
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
    if tag == "object":
        cls = _registered_classes()[node["cls"]]
        fields = {name: _decode(child, arrays) for name, child in node["fields"].items()}
        return cls(**fields)
    raise ValueError(f"unknown cache manifest tag {tag!r}")


def encode_payload(value: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Reduce a cacheable value to ``(manifest, {array_name: ndarray})``.

    The manifest is a JSON-serializable tree referencing the arrays by name;
    :func:`decode_payload` reverses it bitwise; :mod:`repro.runtime.store`
    lays the two parts out on disk.
    """
    arrays: Dict[str, np.ndarray] = {}
    manifest = _encode(value, arrays)
    return manifest, arrays


def decode_payload(manifest: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Rebuild the value encoded by :func:`encode_payload`."""
    return _decode(manifest, arrays)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/store/evict counters for one result-store handle.

    ``evictions`` counts dropped entries: corrupted or undecodable ones found
    during lookup (each also a miss; the caller recomputes and re-stores) and
    those the store's eviction policy removed.
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
