"""The asyncio front end: unix-socket + HTTP transports over a worker pool.

The event loop only frames and routes; every request body is handed to the
synchronous :class:`~repro.runtime.server.registry.TimingService` on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` — that pool is the
engine-work limiter the tentpole asks for (``workers=N`` caps concurrent
propagations; excess requests queue in the pool, connections stay
responsive).

Two listeners share one service:

* a unix stream socket speaking newline-delimited JSON (the primary,
  lowest-latency transport — also what the CLI verbs and tests use);
* a minimal HTTP/1.1 endpoint (``GET /status``, ``POST /api`` with a JSON
  request body) for anything that prefers HTTP.  Hand-rolled on asyncio
  streams: no new dependencies, close-after-response semantics.

``run_server()`` blocks until a ``shutdown`` request arrives (the response
is flushed before the loop stops).  Pass a ``ready`` callback to learn the
actually-bound HTTP port (``http_port=0`` picks a free one) — that is how
the in-process test/bench servers synchronize startup.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from .protocol import (
    MAX_MESSAGE_BYTES,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from .registry import TimingService

__all__ = ["ServerConfig", "TimingServer", "build_service", "run_server"]

logger = logging.getLogger("repro.runtime.server")


@dataclass
class ServerConfig:
    """Everything ``python -m repro.runtime.server start`` can set."""

    socket_path: Optional[Path] = None
    http_host: str = "127.0.0.1"
    http_port: Optional[int] = None  # None: no HTTP listener; 0: ephemeral
    cache_dir: Optional[Path] = None
    # Kept for existing callers that name the format; the packed store is the only one.
    cache_format: str = "packed"
    workers: int = 2
    settings: str = "quick"
    max_bytes: Optional[int] = None
    max_age_s: Optional[float] = None
    dedupe_wait_timeout: float = 60.0
    #: Idle-session TTL in seconds (None keeps sessions forever); rides the
    #: same wall clock as the store's max-age policy.
    session_ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cache_format != "packed":
            raise ValueError(
                f"unknown cache_format {self.cache_format!r}; the result store is 'packed'"
            )


def build_service(config: ServerConfig) -> TimingService:
    """A :class:`TimingService` wired per the server config."""
    from ...experiments.common import settings_context
    from ..store import PackedStore

    profile = settings_context(config.settings)
    store = None
    if config.cache_dir is not None:
        store = PackedStore(
            config.cache_dir, max_bytes=config.max_bytes, max_age_s=config.max_age_s
        )
    return TimingService(
        models=profile.models,
        options=profile.model_options(),
        store=store,
        dedupe_wait_timeout=config.dedupe_wait_timeout,
        session_ttl_s=config.session_ttl_s,
    )


class TimingServer:
    """Asyncio transports + worker pool around one :class:`TimingService`."""

    def __init__(self, service: TimingService, config: ServerConfig):
        self.service = service
        self.config = config
        self.pool = ThreadPoolExecutor(
            max_workers=max(1, config.workers), thread_name_prefix="timing-worker"
        )
        self.bound_http_port: Optional[int] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._servers: list = []

    # ------------------------------------------------------------------
    async def serve(self, ready: Optional[Callable[["TimingServer"], None]] = None) -> None:
        """Listen until a ``shutdown`` request; then drain and exit."""
        loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.config.socket_path is not None:
            socket_path = Path(self.config.socket_path)
            socket_path.parent.mkdir(parents=True, exist_ok=True)
            if socket_path.exists():
                socket_path.unlink()
            unix_server = await asyncio.start_unix_server(
                self._handle_socket, path=str(socket_path), limit=MAX_MESSAGE_BYTES
            )
            self._servers.append(unix_server)
        if self.config.http_port is not None:
            http_server = await asyncio.start_server(
                self._handle_http,
                host=self.config.http_host,
                port=self.config.http_port,
                limit=MAX_MESSAGE_BYTES,
            )
            self.bound_http_port = http_server.sockets[0].getsockname()[1]
            self._servers.append(http_server)
        if not self._servers:
            raise ValueError("server config enables neither socket nor HTTP listener")
        logger.info(
            "timing server up (socket=%s http_port=%s workers=%d pid=%d)",
            self.config.socket_path,
            self.bound_http_port,
            self.config.workers,
            os.getpid(),
        )
        if ready is not None:
            ready(self)
        try:
            await self._shutdown.wait()
        finally:
            for server in self._servers:
                server.close()
            for server in self._servers:
                await server.wait_closed()
            self._servers.clear()
            self.pool.shutdown(wait=True)
            if self.config.socket_path is not None:
                try:
                    Path(self.config.socket_path).unlink()
                except FileNotFoundError:
                    pass
            if self.service.store is not None:
                try:
                    self.service.store.close()
                except Exception:  # pragma: no cover - best-effort flush
                    logger.warning("store close failed", exc_info=True)
            logger.info("timing server stopped")

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request body; ``shutdown`` short-circuits the pool."""
        if request.get("op") == "shutdown":
            loop = asyncio.get_running_loop()
            # Let the response flush before the listeners come down.
            loop.call_later(0.05, self._shutdown.set)
            return ok_response(stopping=True)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.pool, self.service.handle, request)

    # -- unix socket: newline-delimited JSON, many requests per conn -----
    async def _handle_socket(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = decode_message(line)
                except Exception as exc:
                    writer.write(encode_message(error_response(str(exc), "bad-request")))
                    await writer.drain()
                    continue
                response = await self._dispatch(request)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # -- HTTP: one request per connection, close after response ----------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, response = await self._http_response(reader)
            payload = json.dumps(response, separators=(",", ":")).encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _http_response(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        try:
            method, target, _ = request_line.decode("ascii").split()
        except ValueError:
            return "400 Bad Request", error_response("malformed request line", "bad-request")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if method == "GET" and target in ("/", "/status"):
            return "200 OK", await self._dispatch({"op": "status"})
        if method != "POST":
            return "405 Method Not Allowed", error_response(
                f"{method} not supported (POST /api or GET /status)", "bad-request"
            )
        length = int(headers.get("content-length", "0") or 0)
        body = await reader.readexactly(length) if length else b"{}"
        try:
            request = json.loads(body)
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as exc:
            return "400 Bad Request", error_response(str(exc), "bad-request")
        # POST /api/<op> names the op in the path when the body omits it.
        if "op" not in request and target.startswith("/api/"):
            request["op"] = target.rsplit("/", 1)[-1]
        return "200 OK", await self._dispatch(request)


def run_server(
    config: ServerConfig,
    service: Optional[TimingService] = None,
    ready: Optional[Callable[[TimingServer], None]] = None,
) -> None:
    """Build (or adopt) a service and block serving it until shutdown."""
    server = TimingServer(service or build_service(config), config)
    asyncio.run(server.serve(ready=ready))
