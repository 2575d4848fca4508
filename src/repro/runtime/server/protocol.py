"""Wire protocol of the timing server.

Transport framing is deliberately boring: one JSON object per line
(newline-delimited) over a local stream socket, and the same JSON bodies
over ``POST /api`` for the HTTP front end.  Every request carries an ``op``
plus keyword parameters; every response carries ``ok`` plus either the
result fields or ``error``/``code``.

Ops
---
``ping``
    Liveness check; echoes the server pid and protocol version.
``status``
    Server-wide report: uptime, designs, sessions (with per-engine stats),
    store report (entries, live/dead bytes, eviction policy, lock waits),
    dedupe counters.
``open_session``
    ``design`` is either ``{"generate": "<spec>"}`` (a
    :func:`repro.sta.generate.generate_netlist` spec string, e.g.
    ``dag:w64:d4:s7``) or ``{"netlist": {...}}`` (the
    :meth:`repro.sta.netlist.GateNetlist.to_dict` layout).  Designs are
    registered once per ``netlist_fingerprint``; every session gets a
    private mutable copy, so concurrent sessions editing "the same" design
    never conflict structurally.
``timing``
    Run an engine (``engine``: ``csm`` | ``nldm`` | ``hybrid``) on the
    session's current netlist with seeded stimuli (``seed``).  Identical
    concurrent requests coalesce across sessions (single-flight).
    ``return_waveforms`` adds base64 float64 waveforms of the requested
    ``nets`` (default: primary outputs) for exact client-side verification.
``eco``
    Apply ``edits`` — ``{"kind": "swap_cell", ...}``, ``{"kind":
    "rewire_pin", ...}`` or ``{"kind": "auto_swap"}`` — to the session's
    netlist under the session lock.
``close_session`` / ``shutdown``
    Release one session respectively stop the daemon.

Waveform encoding: ``{"t": <b64 float64>, "v": <b64 float64>}`` — the raw
little-endian bytes of the two arrays, small enough for local sockets and
lossless, which is what the ≤1e-9 V rebuild-equivalence checks need.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ServerError",
    "ok_response",
    "error_response",
    "encode_message",
    "decode_message",
    "encode_waveform",
    "decode_waveform",
    "MAX_MESSAGE_BYTES",
]

PROTOCOL_VERSION = 1

#: StreamReader line limit: netlist payloads and waveform responses are far
#: larger than asyncio's 64 KiB default.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


class ServerError(Exception):
    """A request-level failure reported to the client (not a crash)."""

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code


def ok_response(**fields: Any) -> Dict[str, Any]:
    return {"ok": True, **fields}


def error_response(message: str, code: str = "error") -> Dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


def encode_message(payload: Dict[str, Any]) -> bytes:
    """One protocol frame: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ServerError("protocol messages must be JSON objects", "bad-request")
    return message


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).decode("ascii")


def encode_waveform(times: np.ndarray, values: np.ndarray) -> Dict[str, str]:
    return {"t": _b64(times), "v": _b64(values)}


def decode_waveform(payload: Dict[str, str]):
    times = np.frombuffer(base64.b64decode(payload["t"]), dtype=np.float64)
    values = np.frombuffer(base64.b64decode(payload["v"]), dtype=np.float64)
    return times, values
