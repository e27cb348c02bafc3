"""The native runtime: built once, cached on disk, loaded once per process.

``_native/step.c`` is the step runtime that walks a prepared program's op
records, the packed GEMV and the quantized embed among them.  The C
compiler on PATH (``cc``) builds it into a shared library, whose one entry
point, ``quantloop_step``, is called through :mod:`ctypes`; no package is
needed.  :mod:`quantloop.step` fills the records and makes that call, and
it is the only module that hands C a pointer: everything else, the
interpreter's closures included, runs numpy.

* The flags are :data:`FLAGS`: ``-ffp-contract=off`` keeps every product and
  sum its own float32 rounding, and ``-ffast-math``, which would reorder
  them and break NaN propagation, is never used.  Neither is
  ``-march=native``, so a cached library runs on any host of its
  architecture.
* The packed GEMV (a permute through registers where a 4-byte read holds
  every row's 8 codes, at b <= 3 or b = 4 with even cols, and a gather from
  the centroids otherwise), the dense GEMV and attention have vector paths
  for AVX2, compiled under ``__attribute__((target("avx2")))`` inside the
  portable library.  The library chooses all three at once, when it is
  loaded, from the CPU's features (``__builtin_cpu_supports``); every other
  host and call runs the portable kernels.  :attr:`Native.packed_kernel`
  reads the choice.  Each vector path keeps the portable kernel's order of
  float32 operations for every output, so both give the same bits.
* The library is cached as ``$XDG_CACHE_HOME/quantloop/quantloop-<sha256>.so``
  (``~/.cache`` by default), named by one hash of the source, the flags and
  ``cc --version``.  It is written to a temporary file and renamed into
  place, so a reader never sees half a file.  A cached file that does not
  load is rebuilt.  If the cache cannot be written, the library is built
  in a temporary directory of this process.
* :func:`load` does this on first use, not at import, and never raises:
  without a compiler, or when the build or the load fails, it holds no
  step and the reason, and programs run on the interpreter's closures.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["CHECK", "Counts", "FLAGS", "Native", "OP_RECORD", "Op", "TABLE", "address", "load"]

_DIR = Path(__file__).with_name("_native")
#: The one file the library is built from; the cache key hashes it.
SOURCE = _DIR / "step.c"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
#: Seconds a compiler call may take before it is killed.
CC_TIMEOUT_S = 120


class Op:
    """Record kinds of ``step.c``; each comment there lists the kind's fields."""

    GEMV, QGEMV, EMBED, QEMBED, RMSNORM, ROPE, ATTENTION, SILU, ADD, MUL = range(1, 11)


#: ``step.c``'s check flags: a threshold is set; the dual check runs.
CHECK_THRESHOLD, CHECK_DUAL = 1, 2


#: ``quantloop_op`` in ``step.c``: the kind, 6 pointers, 6 integers, 2 floats.
OP_RECORD = struct.Struct("<q6Q6q2f")
#: ``quantloop_check`` in ``step.c``: epsilon, the largest centroid magnitude, the shadow's record.
CHECK = struct.Struct("<2d" + OP_RECORD.format.lstrip("<"))
#: ``quantloop_table`` in ``step.c``: records, their count, the values, the attention row,
#: the checks, the counters, the observations, the threshold and the check flags.
TABLE = struct.Struct("<QqQQQQQdq")


class Counts(ctypes.Structure):
    """``quantloop_counts`` in ``step.c``: the counters a compiled run adds to."""

    _fields_ = [
        ("forwards", ctypes.c_int64),
        ("gemv_calls", ctypes.c_int64),
        ("quantized_gemv_calls", ctypes.c_int64),
        ("fallback_calls", ctypes.c_int64),
        ("bound_checks", ctypes.c_int64),
        ("bound_violations", ctypes.c_int64),
        ("max_bound", ctypes.c_double),
        ("max_dual_diff", ctypes.c_double),
        ("max_dual_ratio", ctypes.c_double),
    ]


def address(a: np.ndarray) -> int:
    """The address of `a`'s first element.

    A writable C-contiguous array lends its buffer to ctypes: about 0.5 µs,
    and numpy keeps 72 bytes of buffer information with the array while it
    lives.  Any other is read from ``__array_interface__``, about 2 µs.
    (``ndarray.ctypes`` costs as much and leaves memory behind for good.)
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only, strided or empty
        return a.__array_interface__["data"][0]


@dataclass(frozen=True)
class Native:
    """The loaded runtime, or None and the reason there is none."""

    step: object = None  # quantloop_step(quantloop_table bytes) -> status, or None
    reason: str | None = None
    #: ``step.c``'s ``quantloop_packed_avx2``, the choice itself; only tests write 0 to it.
    avx2: ctypes.c_int | None = None

    @property
    def packed_kernel(self) -> str | None:
        """What :attr:`avx2` selects now, "avx2" or "portable", for every gemv and attention."""
        return None if self.avx2 is None else "avx2" if self.avx2.value else "portable"


class _BuildFailed(Exception):
    pass


def _compile(cc: str, directory: Path, name: str) -> Path:
    """Build the library as ``directory/name`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS], capture_output=True,
                              text=True, timeout=CC_TIMEOUT_S)
        if done.returncode != 0:
            raise _BuildFailed(f"{cc} exited {done.returncode}: {done.stderr.strip()[-400:]}")
        os.replace(tmp, directory / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return directory / name


def _open(path: Path) -> Native:
    lib = ctypes.CDLL(str(path))
    for name, layout in (("op", OP_RECORD), ("check", CHECK)):
        size = getattr(lib, f"quantloop_{name}_size")
        size.restype = ctypes.c_int64
        if size() != layout.size:  # pointers wider than 8 bytes
            raise _BuildFailed(f"a C {name} record is {size()} bytes, "
                               f"not the {layout.size} that quantloop.step fills")
    step = lib.quantloop_step
    # Its one argument is a bytes object holding a quantloop_table, which
    # ctypes passes as a pointer to its data.  No argtypes: a declared one
    # would build a converter object on every call, and a compiled forward
    # allocates nothing.
    step.restype = ctypes.c_int64
    return Native(step, avx2=ctypes.c_int.in_dll(lib, "quantloop_packed_avx2"))


@functools.cache
def load() -> Native:
    """Build or open the cached library, once per process."""
    cc = shutil.which("cc")
    if cc is None:
        return Native(reason="no C compiler (cc) on PATH")
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, check=True,
                                 timeout=CC_TIMEOUT_S).stdout
        key = hashlib.sha256()
        for part in (SOURCE.read_bytes(), " ".join(FLAGS + LIBS).encode(), version):
            key.update(part)
        name = f"quantloop-{key.hexdigest()}.so"
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "quantloop"
        try:
            return _open(cache / name)
        except (OSError, AttributeError):  # not built yet, or not this library (truncated, say)
            pass
        try:
            cache.mkdir(parents=True, exist_ok=True)
            path = _compile(cc, cache, name)
        except OSError:  # the cache cannot be written
            with tempfile.TemporaryDirectory(prefix="quantloop-") as tmp:
                return _open(_compile(cc, Path(tmp), name))
        return _open(path)
    except _BuildFailed as exc:
        return Native(reason=str(exc))
    except (OSError, subprocess.SubprocessError) as exc:
        return Native(reason=f"{type(exc).__name__}: {exc}")
