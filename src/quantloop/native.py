"""The compiled packed GEMV kernel: built once, cached on disk, loaded once per process.

``_native/gemv.c`` is compiled by the C compiler on PATH (``cc``) into a
shared library and called through :mod:`ctypes`; no package is needed.

* The flags are :data:`FLAGS`: ``-ffp-contract=off`` keeps every product and
  sum its own float32 rounding, and ``-ffast-math``, which would reorder
  them and break NaN propagation, is never used.  Neither is
  ``-march=native``, so a cached library runs on any host of its
  architecture.
* The library is cached as ``$XDG_CACHE_HOME/quantloop/gemv-<sha256>.so``
  (``~/.cache`` by default), named by the hash of the source, the flags and
  ``cc --version``.  It is written to a temporary file and renamed into
  place, so a reader never sees half a file.  A cached file that does not
  load is rebuilt.  If the cache cannot be written, the library is built
  in a temporary directory of this process.
* :func:`load` does this on first use, not at import, and never raises:
  without a compiler, or when the build or the load fails, its kernel is
  None, :func:`status` says why, and the packed GEMV runs on numpy.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FLAGS", "GemvArgs", "Native", "load", "status"]

SOURCE = Path(__file__).with_name("_native") / "gemv.c"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Seconds a compiler call may take before it is killed.
CC_TIMEOUT_S = 120


class GemvArgs(ctypes.Structure):
    """``quantloop_qgemv_args`` in ``gemv.c``: one packed call's operands."""

    _fields_ = [
        ("codes", ctypes.c_void_p),
        ("table", ctypes.c_void_p),
        ("x", ctypes.c_void_p),
        ("y", ctypes.c_void_p),
        ("codes_bytes", ctypes.c_int64),
        ("rows", ctypes.c_int64),
        ("cols", ctypes.c_int64),
        ("incx", ctypes.c_int64),
        ("incy", ctypes.c_int64),
        ("bits", ctypes.c_int32),
        ("alpha", ctypes.c_float),
        ("beta", ctypes.c_float),
    ]


@dataclass(frozen=True)
class Native:
    """The loaded kernel, or None and the reason there is none."""

    kernel: object  # quantloop_qgemv(GemvArgs *), or None
    reason: str | None = None


class _BuildFailed(Exception):
    pass


def _compile(cc: str, directory: Path, name: str) -> Path:
    """Build the library as ``directory/name`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True,
                              text=True, timeout=CC_TIMEOUT_S)
        if done.returncode != 0:
            raise _BuildFailed(f"{cc} exited {done.returncode}: {done.stderr.strip()[-400:]}")
        os.replace(tmp, directory / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return directory / name


def _open(path: Path) -> Native:
    kernel = ctypes.CDLL(str(path)).quantloop_qgemv
    kernel.argtypes = [ctypes.POINTER(GemvArgs)]
    kernel.restype = None
    return Native(kernel)


@functools.cache
def load() -> Native:
    """Build or open the cached library, once per process."""
    cc = shutil.which("cc")
    if cc is None:
        return Native(None, "no C compiler (cc) on PATH")
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, check=True,
                                 timeout=CC_TIMEOUT_S).stdout
        key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode() + version)
        name = f"gemv-{key.hexdigest()}.so"
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "quantloop"
        try:
            return _open(cache / name)
        except OSError:  # not built yet, or not a library (a truncated file, say)
            pass
        try:
            cache.mkdir(parents=True, exist_ok=True)
            path = _compile(cc, cache, name)
        except OSError:  # the cache cannot be written
            with tempfile.TemporaryDirectory(prefix="quantloop-") as tmp:
                return _open(_compile(cc, Path(tmp), name))
        return _open(path)
    except _BuildFailed as exc:
        return Native(None, str(exc))
    except (OSError, subprocess.SubprocessError) as exc:
        return Native(None, f"{type(exc).__name__}: {exc}")


def status() -> dict:
    """``{"backend": "native" | "numpy", "reason": ...}`` for the packed GEMV."""
    native = load()
    return {"backend": "numpy" if native.kernel is None else "native", "reason": native.reason}
