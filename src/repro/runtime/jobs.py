"""The runtime job model: picklable work units with content-addressed keys.

A :class:`Job` wraps any picklable scenario unit — a cell characterization, a
transient bench, an experiment variant — as ``fn(*args, **kwargs)`` plus a
stable *content hash* derived from the job's declared inputs.  Two jobs with
the same hash are guaranteed (by construction of the hash) to compute the same
result, which is what lets the disk cache (:mod:`repro.runtime.cache`) skip
re-execution across processes, sessions and experiments.

Hashes are built from a canonical JSON rendering of the inputs:

* floats use ``repr`` (shortest round-tripping form), so bit-identical inputs
  give identical hashes;
* numpy arrays hash their dtype, shape and raw bytes;
* dataclasses (``Technology``, ``MosfetParams``, ``CharacterizationConfig``,
  stimulus descriptions, ...) hash their class name plus field values;
* cells hash through :func:`cell_fingerprint`, which captures the transistor
  topology (terminals, geometry, device parameters) rather than the Python
  object identity;
* every hash is salted with :data:`CODE_VERSION` — bump it whenever the
  *meaning* of cached results changes (new characterization algorithm, fixed
  solver bug, ...) and all previously cached entries become unreachable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "CODE_VERSION",
    "Job",
    "content_hash",
    "canonical_json",
    "Rendered",
    "cell_fingerprint",
    "contiguous_array",
]


def contiguous_array(array: np.ndarray) -> np.ndarray:
    """A C-contiguous view/copy that preserves 0-d shapes.

    ``np.ascontiguousarray`` promotes 0-d arrays to 1-d, which would make a
    0-d input indistinguishable (in content hashes and stored payloads) from
    its 1-element 1-d counterpart; 0-d arrays are always contiguous, so only
    convert arrays that actually need it.  Shared by the content hasher here
    and the packed store codec (:mod:`repro.runtime.store`).
    """
    return array if array.flags["C_CONTIGUOUS"] else np.ascontiguousarray(array)

#: Salt mixed into every content hash.  Bump on any change that alters what a
#: characterization / simulation job computes for the same inputs; this is the
#: cache's invalidation story (old entries are simply never addressed again).
#: (pr4.1: DC operating-point settle replaced the integration pre-roll, which
#: changes every model-simulation and waveform-propagation result.
#: pr5.1: 0-d arrays now hash with their true shape instead of being promoted
#: to 1-element 1-d by ascontiguousarray, so keys over 0-d inputs moved; NLDM
#: loads are now always built from prewarmed characterized capacitances.
#: v6: the lockstep CSM kernels integrate every row over the whole window
#: instead of filling a group's tail once all its rows went still, which
#: moves batched waveforms by up to ~1e-12 V; the per-instance reference path
#: now shares the batched path's propagation keys; cell fingerprints leave
#: out the technology's name.
#: v7: a stimulus breakpoint within a tiny fraction of a step of a base grid
#: point no longer adds a sliver step, and a cell's NLDM arcs run in one
#: batch over a common window: the 60 ps NLDM rows move by under 1e-13
#: relative.  NLDM propagation keys fold in the cell fingerprint, not the
#: table values, so only a version bump keeps old events from being served.)
CODE_VERSION = "v7"


# ----------------------------------------------------------------------
# Canonicalization + hashing
# ----------------------------------------------------------------------
class Rendered:
    """The canonical JSON text of a value, standing in for that value.

    A tree handed to :func:`canonical_json` or :func:`content_hash` may hold
    ``Rendered(canonical_json(value))`` wherever it would hold ``value``; the
    text is spliced in verbatim, so the tree renders and hashes exactly as
    with the value itself.  A caller can then keep the rendered parts of a
    large tree and re-render only the parts that change (see
    :meth:`repro.sta.netlist.GateNetlist.content_digest`).
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable tree with stable rendering
    (:class:`Rendered` leaves pass through)."""
    # Exact builtin types first: they make up most nodes of a large tree
    # (a netlist fingerprint), and each answer equals the general branch's.
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is list or kind is tuple:
        return [_canonical(item) for item in obj]
    if kind is float:
        return {"__float__": repr(obj)}
    if kind is Rendered:
        return obj
    # Numpy scalars before the builtin branches: np.float64 subclasses float,
    # and repr() of the subclass ('np.float64(…)') would make hashes depend on
    # the numpy version and never match the equal Python float.
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return {"__float__": repr(float(obj))}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips exactly (shortest-repr guarantee), so equal bit
        # patterns canonicalize identically and unequal ones never collide.
        return {"__float__": repr(obj)}
    if isinstance(obj, np.ndarray):
        array = contiguous_array(obj)
        return {
            "__ndarray__": {
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            }
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                (str(key), _canonical(value)) for key, value in obj.items()
            )
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__object__": type(obj).__name__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    # Objects exposing their own canonical form (e.g. NDTable.to_dict).
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return {"__object__": type(obj).__name__, "fields": _canonical(to_dict())}
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for content hashing; "
        "pass primitives, arrays, dataclasses or objects with to_dict()"
    )


class _Splice(Exception):
    """The encoder met a :class:`Rendered` leaf (the only thing left in a
    canonical tree that is not plain JSON)."""


def _splice(obj: Any) -> Any:
    raise _Splice


#: One encoder for every canonical rendering (``json.dumps`` with these
#: arguments would build a fresh encoder per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_splice)


def _render(tree: Any) -> str:
    """The JSON text of a canonical tree: one encoder pass, or, when the
    tree holds :class:`Rendered` leaves, the encoder's separators and key
    order applied around them."""
    if isinstance(tree, Rendered):
        return tree.text
    try:
        return _ENCODER.encode(tree)
    except _Splice:
        pass
    if isinstance(tree, (list, tuple)):
        return "[" + ",".join([_render(item) for item in tree]) + "]"
    return (
        "{"
        + ",".join([_ENCODER.encode(key) + ":" + _render(tree[key]) for key in sorted(tree)])
        + "}"
    )


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj``: what :func:`content_hash` digests."""
    return _render(_canonical(obj))


def content_hash(*parts: Any) -> str:
    """Stable hex digest of the given inputs, salted with :data:`CODE_VERSION`."""
    payload = canonical_json([CODE_VERSION, list(parts)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_fingerprint(cell: Any) -> Dict[str, Any]:
    """Content identity of a cell: topology + geometry + technology.

    Two cells with the same fingerprint characterize identically, regardless
    of how the Python objects were constructed.  The fingerprint covers the
    transistor netlist (terminals, width, length, device parameters), the
    capacitor branches, the pin/node naming and the technology definition
    (which carries the supply voltage and both polarities' parameters).  The
    technology's name is a label, not content: the TT corner renames the
    default technology without changing it, and must not re-characterize it.
    """
    devices = [
        {
            "name": device.name,
            "drain": device.drain,
            "gate": device.gate,
            "source": device.source,
            "bulk": device.bulk,
            "width": device.width,
            "length": device.length,
            "params": device.params,
        }
        for device in cell.circuit.mosfets()
    ]
    capacitors = [
        [node_a, node_b, value]
        for node_a, node_b, value in cell.circuit.capacitor_branch_list()
    ]
    return {
        "name": cell.name,
        "inputs": list(cell.inputs),
        "output": cell.output,
        "internal_nodes": list(cell.internal_nodes),
        "drive_strength": cell.drive_strength,
        "devices": devices,
        "capacitors": capacitors,
        "technology": dataclasses.replace(cell.technology, name=""),
    }


# ----------------------------------------------------------------------
# The job unit
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One schedulable unit of work.

    Attributes
    ----------
    fn:
        A picklable callable (module-level function or callable class
        instance) computing the result.
    args / kwargs:
        Call arguments; must be picklable for the process executor.
    name:
        Human-readable label used in logs and error messages.
    key:
        Optional content hash (from :func:`content_hash`).  Jobs with a key
        participate in the disk cache; keyless jobs always execute.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    name: str = ""
    key: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            self.name = getattr(self.fn, "__name__", type(self.fn).__name__)

    def run(self) -> Any:
        """Execute the job in the current process."""
        return self.fn(*self.args, **self.kwargs)
