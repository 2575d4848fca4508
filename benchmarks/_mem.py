"""Shared peak-RSS sampler for the benchmark scripts.

``run_stream_bench.py`` stamps ``peak_rss_bytes`` into its JSON report right
before writing it, so memory regressions show up in the same artifact as the
wall-clock numbers.  Two sources are consulted and the maximum wins:

* ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — portable, but the unit is
  kilobytes on Linux and bytes on macOS.
* ``/proc/self/status`` ``VmHWM`` — Linux-only high-water mark; authoritative
  on the containers we benchmark in.

Peak RSS is monotone over a process lifetime: a report stamped at exit covers
everything the run did, but a script that wants per-phase peaks must fork a
fresh subprocess per phase (see ``run_stream_bench.py``).
"""

from __future__ import annotations

import sys

__all__ = ["peak_rss_bytes"]


def _ru_maxrss_bytes() -> int:
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if raw <= 0:
        return 0
    # ru_maxrss is kilobytes on Linux, bytes on macOS (darwin).
    return int(raw) if sys.platform == "darwin" else int(raw) * 1024


def _vmhwm_bytes() -> int:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    parts = line.split()
                    if len(parts) >= 2 and parts[1].isdigit():
                        return int(parts[1]) * 1024  # reported in kB
    except OSError:
        pass
    return 0


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unavailable)."""
    return max(_ru_maxrss_bytes(), _vmhwm_bytes())
