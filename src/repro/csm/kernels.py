"""Build, cache and load the compiled CSM step loops (``_kernels.c``).

The integrator's per-step recurrences run as two C loops, one for
output-only models and one for internal-node (MCSM) models, each an
operation-for-operation transcription of its scalar twin in
:mod:`repro.csm.simulate`.  :func:`load` compiles the source with the
system ``cc`` (``CFLAGS``: no contraction into fused multiply-adds, no
fast-math, no host-specific instructions, so every row is bitwise its twin)
and loads it with :mod:`ctypes`.

The library is cached per user: under ``$XDG_CACHE_HOME`` or ``~/.cache``,
else in a ``0700`` directory of the user's own under the temp directory,
named by the SHA-256 of the source text and the flags.  A build writes a
temp file and ``os.replace``-s it into place (concurrent importers, such as
process-pool workers, never see a partial file), then records the
library's own SHA-256 beside it; a library whose bytes do not match that
record is rebuilt, never loaded.  Nothing is loaded from a directory that
another user can write.  On a host with no compiler, or where the build
fails, :func:`load` returns ``None`` and the integrator runs the scalar
twins, which give the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["CFLAGS", "SOURCE", "Kernels", "cache_dir", "find_compiler", "library_path", "load"]

SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")

_CACHE_NAME = "repro-csm-kernels"


def find_compiler() -> Optional[str]:
    """The system C compiler, or ``None``."""
    return shutil.which("cc")


def _owner_only(info: os.stat_result) -> bool:
    """Owned by this user and writable by no other."""
    if hasattr(os, "getuid") and info.st_uid != os.getuid():
        return False
    return not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def cache_dir() -> Optional[Path]:
    """This user's private kernel cache directory, created if missing."""
    candidates = []
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if os.path.isabs(base):
        candidates.append(Path(base) / _CACHE_NAME)
    user = os.getuid() if hasattr(os, "getuid") else "user"
    candidates.append(Path(tempfile.gettempdir()) / f"{_CACHE_NAME}-{user}")
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.lstat()
        except OSError:
            continue
        if stat.S_ISDIR(info.st_mode) and _owner_only(info):
            return path
    return None


def library_path(directory: Path, source: bytes, flags=CFLAGS) -> Path:
    """Where the library built from ``source`` with ``flags`` is cached."""
    key = hashlib.sha256(source + b"\0" + " ".join(flags).encode()).hexdigest()
    return directory / f"csm-kernels-{key[:32]}.so"


def _digest_path(library: Path) -> Path:
    return library.with_suffix(".sha256")


def _intact(library: Path) -> bool:
    """The cached library is ours and byte-for-byte what its build wrote."""
    try:
        info = library.lstat()
        recorded = _digest_path(library).read_text().strip()
        data = library.read_bytes()
    except OSError:
        return False
    return (
        stat.S_ISREG(info.st_mode)
        and _owner_only(info)
        and hashlib.sha256(data).hexdigest() == recorded
    )


def _replace_with(target: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``target``, then move it there."""
    fd, temp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, target)
    except BaseException:
        Path(temp).unlink(missing_ok=True)
        raise


def _compile(compiler: str, source: bytes, library: Path) -> bool:
    """Build ``library`` from ``source``; False when the compiler fails."""
    fd, temp = tempfile.mkstemp(dir=library.parent, prefix=library.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-", "-o", temp],
            input=source,
            capture_output=True,
            check=True,
            timeout=120,
        )
        os.chmod(temp, 0o700)  # whatever the umask made of the linker's output
        data = Path(temp).read_bytes()
        os.replace(temp, library)
    except (OSError, subprocess.SubprocessError):
        Path(temp).unlink(missing_ok=True)
        return False
    _replace_with(_digest_path(library), hashlib.sha256(data).hexdigest().encode())
    return True


class _Axis(ctypes.Structure):
    """``csm_axis`` of ``_kernels.c``."""

    _fields_ = [
        ("pts", ctypes.c_void_p),
        ("spans", ctypes.c_void_p),
        ("n", ctypes.c_longlong),
        ("uniform", ctypes.c_longlong),
        ("inv_h", ctypes.c_double),
    ]


def _dlopen(path: Path) -> ctypes.CDLL:
    return ctypes.CDLL(str(path))


_I64 = ctypes.c_longlong
_F64S = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_I64S = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")

#: The C prototypes, argument for argument (arrays are checked for dtype
#: and contiguity on every call).
_SIGNATURES = {
    "csm_output": [_I64, _I64, _F64S, _Axis, _F64S, _I64S, _I64S, _I64S]
    + [_F64S] * 6,
    "csm_internal": [_I64, _I64, _Axis, _Axis, _F64S] + [_I64S] * 9
    + [_F64S, _I64S] + [_F64S] * 10,
}


def _check(rows: int, core_start, core_len, total: int, *shaped) -> None:
    """The sizes the loops index by: every ``(array, shape)`` pair matches,
    and each row's core lies inside the ``total`` core rows."""
    for array, shape in shaped:
        if array.shape != shape:
            raise ValueError(f"kernel argument has shape {array.shape}, expected {shape}")
    if rows and not (np.all(core_len >= 1) and np.all(core_start >= 0)
                     and np.all(core_start + core_len <= total)):
        raise ValueError("a row's core rows lie outside the core table")


class Kernels:
    """The loaded step loops; see ``_kernels.c`` for each argument's
    layout.  Array arguments are C-contiguous ``float64`` values or
    ``int64`` indices, one row after another."""

    def __init__(self, library: ctypes.CDLL, path: Path):
        self.path = path
        for name, argtypes in _SIGNATURES.items():
            function = getattr(library, name)
            function.argtypes = argtypes
            function.restype = None
        self._output = library.csm_output
        self._internal = library.csm_internal

    @staticmethod
    def axis(pts: np.ndarray, spans: np.ndarray, n: int, inv_h: Optional[float]) -> _Axis:
        """A state axis: its points and spans, and ``inv_h`` when uniform
        (``simulate._axis_lookup``).  The struct keeps the arrays alive."""
        for array in (pts, spans):
            if array.dtype != np.float64 or not array.flags.c_contiguous:
                raise TypeError("axis points and spans must be C-contiguous float64")
        axis = _Axis(pts.ctypes.data, spans.ctypes.data, n, inv_h is not None, inv_h or 0.0)
        axis.arrays = (pts, spans)
        return axis

    def output(self, dt, axis, io, core_start, core_len, first_move, charge, denom, v0, lo, hi):
        """``csm_output``; returns the ``(rows, steps + 1)`` output samples."""
        rows, steps = charge.shape
        total = io.shape[0]
        _check(
            rows, core_start, core_len, total,
            (dt, (steps,)), (io, (total, axis.n)), (core_start, (rows,)), (core_len, (rows,)),
            (first_move, (rows,)), (denom, (rows, steps)), (v0, (rows,)), (lo, (rows,)),
            (hi, (rows,)),
        )
        out = np.empty((rows, steps + 1))
        self._output(
            rows, steps, dt, axis, io, core_start, core_len, first_move,
            charge, denom, v0, lo, hi, out,
        )
        return out

    def internal(
        self, vn_axis, vo_axis, values, io_start, in_start, npins, io_corner, in_corner,
        core_start, core_len, first_move, io_base, io_frac, in_base, in_frac,
        drive, rate_o, rate_n, v0_out, v0_int, lo, hi,
    ):
        """``csm_internal``; returns the output and internal-node samples,
        ``(rows, steps + 1)`` each."""
        rows, steps = drive.shape
        total = io_base.shape[0]
        _check(
            rows, core_start, core_len, total,
            *((a, (rows,)) for a in (io_start, in_start, npins, core_start, core_len,
                                     first_move, v0_out, v0_int, lo, hi)),
            (io_corner, (rows, 8)), (in_corner, (rows, 8)), (in_base, (total,)),
            (io_frac, (total, 3)), (in_frac, (total, 3)),
            *((a, (rows, steps)) for a in (rate_o, rate_n)),
        )
        if rows and not (np.all((npins >= 1) & (npins <= 3))
                         and np.all(np.maximum(io_start, in_start) < values.size)):
            raise ValueError("pin counts must be 1-3 and tables must lie in values")
        out = np.empty((rows, steps + 1))
        out_int = np.empty((rows, steps + 1))
        self._internal(
            rows, steps, vn_axis, vo_axis, values, io_start, in_start, npins, io_corner,
            in_corner, core_start, core_len, first_move, io_base, io_frac, in_base, in_frac,
            drive, rate_o, rate_n, v0_out, v0_int, lo, hi, out, out_int,
        )
        return out, out_int


def load() -> Optional[Kernels]:
    """The compiled step loops, built into the cache if needed; ``None``
    when no private cache directory, compiler or successful build exists."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    directory = cache_dir()
    if directory is None:
        return None
    library = library_path(directory, source)
    if not _intact(library):
        compiler = find_compiler()
        if compiler is None or not _compile(compiler, source, library) or not _intact(library):
            return None
    try:
        return Kernels(_dlopen(library), library)
    except (OSError, AttributeError):
        return None
