"""CLI verbs for the timing server: ``python -m repro.runtime.server …``.

Verbs
-----
``start``
    Run the daemon.  Foreground by default (Ctrl-C stops it); ``--daemon``
    forks a detached child, waits until it answers ``ping``, and prints its
    pid — that is what the CI smoke leg uses.
``stop`` / ``status``
    Ask a running daemon to shut down / report.
``submit``
    One-shot timing request: opens (or reuses, via ``--session``) a session
    for ``--design`` and prints the JSON response.
``eco``
    Apply an edit to a session: ``--swap INSTANCE CELL``,
    ``--rewire INSTANCE PIN NET``, or ``--auto-swap``.

Everything prints machine-readable JSON on stdout so scripts and CI can
pipe through ``python -m json.tool`` or parse directly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..cli import add_timing_arguments, timing_params
from ..client import TimingClient, TimingServerError
from .daemon import ServerConfig, run_server

DEFAULT_SOCKET = Path("/tmp/repro-timing.sock")


def _client(args: argparse.Namespace) -> TimingClient:
    if getattr(args, "http", None):
        return TimingClient(http_address=args.http)
    return TimingClient(socket_path=args.socket)


def _emit(payload: Dict[str, Any]) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _config_from_args(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        socket_path=Path(args.socket),
        http_host=args.http_host,
        http_port=args.http_port,
        cache_dir=Path(args.cache) if args.cache else None,
        workers=args.workers,
        settings=args.settings,
        max_bytes=args.max_bytes,
        max_age_s=args.max_age_s,
        session_ttl_s=args.session_ttl_s,
    )


def cmd_start(args: argparse.Namespace) -> int:
    if args.daemon:
        child_argv = [
            sys.executable,
            "-m",
            "repro.runtime.server",
            "start",
            "--socket",
            str(args.socket),
            "--workers",
            str(args.workers),
            "--settings",
            args.settings,
        ]
        if args.http_port is not None:
            child_argv += ["--http-port", str(args.http_port), "--http-host", args.http_host]
        if args.cache:
            child_argv += ["--cache", str(args.cache)]
        if args.max_bytes is not None:
            child_argv += ["--max-bytes", str(args.max_bytes)]
        if args.max_age_s is not None:
            child_argv += ["--max-age-s", str(args.max_age_s)]
        if args.session_ttl_s is not None:
            child_argv += ["--session-ttl-s", str(args.session_ttl_s)]
        log = open(args.log, "ab") if args.log else subprocess.DEVNULL
        try:
            child = subprocess.Popen(
                child_argv,
                stdout=log,
                stderr=log,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
                env={**os.environ},
            )
        finally:
            if args.log:
                log.close()
        client = TimingClient(socket_path=args.socket)
        try:
            client.wait_until_ready(timeout=args.ready_timeout)
        except TimeoutError as exc:
            child.terminate()
            _emit({"ok": False, "error": str(exc)})
            return 1
        _emit({"ok": True, "pid": child.pid, "socket": str(args.socket), **client.ping()})
        return 0
    try:
        run_server(_config_from_args(args))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_stop(args: argparse.Namespace) -> int:
    client = _client(args)
    response = client.shutdown()
    # Wait for the socket to actually go away so scripts can restart cleanly.
    deadline = time.monotonic() + args.ready_timeout
    while time.monotonic() < deadline and Path(args.socket).exists():
        time.sleep(0.05)
    _emit(response)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    _emit(_client(args).status())
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    session = args.session
    if session is None:
        opened = client.open_session({"generate": args.design})
        session = opened["session"]
    response = client.timing(
        session,
        engine=args.engine,
        return_waveforms=args.waveforms,
        **timing_params(args),
    )
    response["session"] = session
    _emit(response)
    return 0


def cmd_eco(args: argparse.Namespace) -> int:
    edits: List[Dict[str, Any]] = []
    if args.swap:
        instance, cell = args.swap
        edits.append({"kind": "swap_cell", "instance": instance, "cell": cell})
    if args.rewire:
        instance, pin, net = args.rewire
        edits.append({"kind": "rewire_pin", "instance": instance, "pin": pin, "net": net})
    if args.auto_swap:
        edits.append({"kind": "auto_swap"})
    if not edits:
        print("eco: need --swap, --rewire or --auto-swap", file=sys.stderr)
        return 2
    _emit(_client(args).eco(args.session, edits))
    return 0


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", type=Path, default=DEFAULT_SOCKET,
                        help=f"unix socket path (default {DEFAULT_SOCKET})")
    parser.add_argument("--http", default=None, metavar="HOST:PORT",
                        help="talk HTTP instead of the unix socket")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.server",
        description="Timing-as-a-service daemon and client verbs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    start = sub.add_parser("start", help="run the daemon (foreground unless --daemon)")
    start.add_argument("--socket", type=Path, default=DEFAULT_SOCKET)
    start.add_argument("--http-host", default="127.0.0.1")
    start.add_argument("--http-port", type=int, default=None,
                       help="also listen on HTTP (0 picks a free port)")
    start.add_argument("--cache", type=Path, default=None,
                       help="result-store directory (shared across restarts)")
    start.add_argument("--workers", type=int, default=2,
                       help="engine worker threads (default 2)")
    start.add_argument("--settings", default="quick", choices=["quick", "paper"])
    start.add_argument("--max-bytes", type=int, default=None,
                       help="store eviction budget in bytes")
    start.add_argument("--max-age-s", type=float, default=None,
                       help="evict entries idle longer than this")
    start.add_argument("--session-ttl-s", type=float, default=None,
                       help="reap sessions idle longer than this "
                       "(default: never; status reports the reaped count)")
    start.add_argument("--daemon", action="store_true",
                       help="detach, wait for readiness, print pid")
    start.add_argument("--log", type=Path, default=None,
                       help="daemon stdout/stderr file (with --daemon)")
    start.add_argument("--ready-timeout", type=float, default=60.0)
    start.set_defaults(func=cmd_start)

    stop = sub.add_parser("stop", help="shut a running daemon down")
    _add_endpoint_args(stop)
    stop.add_argument("--ready-timeout", type=float, default=10.0)
    stop.set_defaults(func=cmd_stop)

    status = sub.add_parser("status", help="print the server report")
    _add_endpoint_args(status)
    status.set_defaults(func=cmd_status)

    submit = sub.add_parser("submit", help="one-shot timing request")
    _add_endpoint_args(submit)
    submit.add_argument("--design", default="dag:w16:d4:s7",
                        help="generate_netlist spec for a fresh session")
    submit.add_argument("--session", default=None,
                        help="reuse an existing session instead of --design")
    submit.add_argument("--engine", default="csm", choices=["csm", "nldm"])
    submit.add_argument("--waveforms", action="store_true",
                        help="include base64 output waveforms")
    add_timing_arguments(submit)
    submit.set_defaults(func=cmd_submit)

    eco = sub.add_parser("eco", help="apply an ECO edit to a session")
    _add_endpoint_args(eco)
    eco.add_argument("--session", required=True)
    eco.add_argument("--swap", nargs=2, metavar=("INSTANCE", "CELL"))
    eco.add_argument("--rewire", nargs=3, metavar=("INSTANCE", "PIN", "NET"))
    eco.add_argument("--auto-swap", action="store_true")
    eco.set_defaults(func=cmd_eco)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TimingServerError as exc:
        _emit({"ok": False, "error": str(exc), "code": exc.code})
        return 1
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        _emit({"ok": False, "error": f"no server at endpoint: {exc}", "code": "transport"})
        return 1


if __name__ == "__main__":
    sys.exit(main())
