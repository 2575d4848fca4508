"""Synchronous client for the timing server.

:class:`TimingClient` speaks both server transports — the newline-delimited
JSON unix socket (default, lowest latency) and the HTTP endpoint — behind
one call-per-request API.  Connections are opened per request, which keeps
the client trivially thread-safe: the soak benchmark drives one client from
many threads, and every request still maps to one framed exchange.

    from repro.runtime.client import TimingClient

    client = TimingClient(socket_path="/tmp/repro-timing.sock")
    client.wait_until_ready()
    opened = client.open_session({"generate": "dag:w64:d4:s7"})
    result = client.timing(opened["session"], engine="csm", seed=0)
    client.eco(opened["session"], [{"kind": "auto_swap"}])

Error frames (``ok: false``) raise :class:`TimingServerError` carrying the
server's error code, so callers never mistake a refusal for a result.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from .server.protocol import decode_waveform, encode_message

__all__ = ["TimingClient", "TimingServerError"]


class TimingServerError(RuntimeError):
    """An ``ok: false`` response from the server."""

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code


class TimingClient:
    """One timing-server endpoint (unix socket and/or HTTP address)."""

    def __init__(
        self,
        socket_path: Optional[Path] = None,
        http_address: Optional[str] = None,
        timeout: float = 300.0,
    ):
        if socket_path is None and http_address is None:
            raise ValueError("need a socket_path or an http_address")
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.http_address = http_address  # "host:port"
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """One request/response exchange; raises on ``ok: false``."""
        body = {"op": op, **params}
        if self.socket_path is not None:
            response = self._request_socket(body)
        else:
            response = self._request_http(body)
        if not response.get("ok"):
            raise TimingServerError(
                response.get("error", "unknown server error"),
                response.get("code", "error"),
            )
        return response

    def _request_socket(self, body: Dict[str, Any]) -> Dict[str, Any]:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(self.timeout)
            conn.connect(str(self.socket_path))
            conn.sendall(encode_message(body))
            chunks: List[bytes] = []
            while True:
                chunk = conn.recv(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
            raw = b"".join(chunks)
        if not raw:
            raise TimingServerError("server closed the connection", "transport")
        return json.loads(raw)

    def _request_http(self, body: Dict[str, Any]) -> Dict[str, Any]:
        host, _, port = self.http_address.partition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=self.timeout)
        try:
            conn.request(
                "POST",
                "/api",
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def wait_until_ready(self, timeout: float = 30.0, interval: float = 0.1) -> None:
        """Poll ``ping`` until the daemon answers (used right after start)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                self.ping()
                return
            except (OSError, TimingServerError, json.JSONDecodeError) as exc:
                last_error = exc
                time.sleep(interval)
        raise TimeoutError(f"timing server not ready after {timeout}s: {last_error}")

    def status(self) -> Dict[str, Any]:
        return self.request("status")

    def open_session(
        self, design: Mapping[str, Any], session_name: Optional[str] = None
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {"design": dict(design)}
        if session_name is not None:
            params["session_name"] = session_name
        return self.request("open_session", **params)

    def timing(
        self,
        session: str,
        memory_mode: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        required: Optional[Any] = None,
        top_k: Optional[Any] = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """One timing request.  ``memory_mode="stream"`` (optionally with a
        ``memory_budget_bytes`` hot-set cap) asks the server to propagate
        with the bounded-memory streaming engine; spill/fault counts come
        back in the response ``stats``.  With ``engine="hybrid"``,
        ``required`` (scalar or per-net mapping) and ``top_k`` (int or
        ``"all"``) tune the criticality-adaptive refinement; the response
        adds per-net ``exact`` flags, ``csm_fraction`` and per-iteration
        refinement stats."""
        if memory_mode is not None:
            params["memory_mode"] = memory_mode
        if memory_budget_bytes is not None:
            params["memory_budget_bytes"] = memory_budget_bytes
        if required is not None:
            params["required"] = required
        if top_k is not None:
            params["top_k"] = top_k
        return self.request("timing", session=session, **params)

    def eco(self, session: str, edits: List[Mapping[str, Any]]) -> Dict[str, Any]:
        return self.request("eco", session=session, edits=[dict(e) for e in edits])

    def close_session(self, session: str) -> Dict[str, Any]:
        return self.request("close_session", session=session)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    @staticmethod
    def waveforms_of(response: Mapping[str, Any]) -> Dict[str, Any]:
        """Decode a ``return_waveforms=True`` response into numpy arrays
        (``net -> (times, values)``)."""
        return {
            net: decode_waveform(payload)
            for net, payload in (response.get("waveforms") or {}).items()
        }
