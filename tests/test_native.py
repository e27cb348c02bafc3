"""The compiled packed GEMV: its build cache, its fallback, and its reads."""

import json
import os
import signal
import stat
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantloop import native
from quantloop.cli import main
from quantloop.kernels import GemvParams, bind
from quantloop.quantizer import dequantize
from quantloop.runtime import Engine

from conftest import needs_cc, random_quantized

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An empty kernel cache and a loader that has not run yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native.load.cache_clear()
    yield tmp_path
    native.load.cache_clear()


def fake_cc(directory: Path, body: str) -> Path:
    """An executable ``cc`` in `directory` that answers ``--version`` and then runs `body`."""
    directory.mkdir(exist_ok=True)
    cc = directory / "cc"
    cc.write_text(f'#!/bin/sh\nif [ "$1" = --version ]; then echo "fake cc 1.0"; exit 0; fi\n{body}\n')
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    return cc


def run_python(code: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC, **env})


# -- the build cache -----------------------------------------------------------


def test_no_compiler_on_path_reports_the_fallback(fresh_loader, monkeypatch):
    monkeypatch.setenv("PATH", str(fresh_loader))
    assert native.status() == {"backend": "numpy", "reason": "no C compiler (cc) on PATH"}
    q = random_quantized(np.random.default_rng(1), 3, 5, 3)
    call = bind(q, np.ones(5, np.float32), np.zeros(3, np.float32), GemvParams(m=3, n=5, lda=5))
    assert call.native is None
    np.testing.assert_allclose(call.run(), dequantize(q).sum(axis=1), rtol=1e-5)


def test_failing_compiler_leaves_its_reason(fresh_loader, monkeypatch):
    bin_dir = fresh_loader / "bin"
    fake_cc(bin_dir, 'echo "fake cc cannot build" >&2; exit 3')
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    status = native.status()
    assert status["backend"] == "numpy"
    assert "exited 3" in status["reason"] and "fake cc cannot build" in status["reason"]
    # Nothing half-built is left in the cache.
    assert list((fresh_loader / "cache" / "quantloop").iterdir()) == []


@needs_cc
def test_unwritable_cache_builds_in_a_temporary_directory(fresh_loader, monkeypatch):
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert native.status() == {"backend": "native", "reason": None}


@needs_cc
def test_fresh_process_reuses_the_cache_and_rebuilds_a_truncated_library(tmp_path):
    # cc is wrapped to log its arguments, so each process's compiles show.
    log = tmp_path / "cc.log"
    real = subprocess.run(["sh", "-c", "command -v cc"], capture_output=True, text=True).stdout.strip()
    fake_cc(tmp_path / "bin", f'echo "$@" >> "{log}"\nexec "{real}" "$@"')
    env = {"PATH": f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}",
           "XDG_CACHE_HOME": str(tmp_path / "cache")}
    probe = "from quantloop import native; print(native.status()['backend'])"

    def compiles():
        return [line for line in log.read_text().splitlines() if "-shared" in line]

    for run, built in ((1, 1), (2, 1)):
        done = run_python(probe, **env)
        assert done.stdout.strip() == "native", (run, done.stderr)
        assert len(compiles()) == built, run
    [library] = (tmp_path / "cache" / "quantloop").glob("gemv-*.so")
    size = library.stat().st_size
    with open(library, "r+b") as f:
        f.truncate(100)
    done = run_python(probe, **env)
    assert done.stdout.strip() == "native", done.stderr
    assert len(compiles()) == 2
    assert library.stat().st_size == size
    assert [p.name for p in library.parent.iterdir()] == [library.name]


def test_float_engine_never_loads_the_library(fresh_loader, toy_float_path):
    Engine(toy_float_path, mode="optimized").generate([1, 2], steps=4)
    assert native.load.cache_info().currsize == 0


# -- through the engine and the CLI ---------------------------------------------


@pytest.fixture(scope="module")
def compiled_tokens(toy_quant_path):
    """Greedy tokens of the toy `.ditq`, decoded with the packed GEMV as built here."""
    return Engine(toy_quant_path, mode="optimized").generate([1, 2, 3], steps=24).generated_tokens


def test_ditq_decode_on_numpy_fallback_gives_the_same_tokens(
    compiled_tokens, toy_quant_path, numpy_fallback
):
    fallback = Engine(toy_quant_path, mode="optimized")
    assert native.status()["backend"] == "numpy"
    assert fallback.generate([1, 2, 3], steps=24).generated_tokens == compiled_tokens


@pytest.mark.parametrize("command", ["inspect", "bench"])
def test_cli_reports_the_packed_gemv_backend(command, toy_quant_path, capsys):
    argv = [command, toy_quant_path] + (["--steps", "2"] if command == "bench" else [])
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["packed_gemv"] == native.status()


@needs_cc
def test_vectors_the_kernel_cannot_take_stay_on_numpy():
    rng = np.random.default_rng(38)
    q = random_quantized(rng, 6, 5, 3)
    p = GemvParams(m=6, n=5, lda=5)
    x = rng.normal(size=5).astype(np.float32)
    # A read-only y is refused by numpy's store, as on every other path.
    y = np.zeros(6, np.float32)
    y.flags.writeable = False
    call = bind(q, x, y, p)
    assert call.native is None
    with pytest.raises(ValueError, match="read-only"):
        call.run()
    # x and y in one buffer: apart they run compiled, overlapping on numpy.
    buf = rng.normal(size=12).astype(np.float32)
    assert bind(q, buf[:5], buf[5:11], p).native is not None
    assert bind(q, buf[:5], buf[4:10], p).native is None
    # A float32 view one byte into its buffer.
    x_odd = np.frombuffer(np.zeros(21, np.uint8).data, np.float32, count=5, offset=1)
    assert not x_odd.flags.aligned
    assert bind(q, x_odd, np.zeros(6, np.float32), p).native is None


# -- the kernel's memory -------------------------------------------------------


@needs_cc
def test_first_run_builds_the_field_table():
    # A bind leaves the table unbuilt, so an engine's tables are not resident
    # while later engines quantize; the call's first run builds it once.
    q = random_quantized(np.random.default_rng(39), 4, 9, 3)
    call = bind(q, np.ones(9, np.float32), np.zeros(4, np.float32), GemvParams(m=4, n=9, lda=9))
    assert "field_table" not in vars(q.codebook) and not call.native.table
    call.run()
    table = q.codebook.field_table
    assert call.native.table == table.ctypes.data
    call.run()
    assert q.codebook.field_table is table


@needs_cc
@pytest.mark.parametrize("bit_width", range(1, 9))
def test_packed_call_allocates_nothing(bit_width):
    rng = np.random.default_rng(40 + bit_width)
    q = random_quantized(rng, 64, 64, bit_width)
    x = rng.normal(size=64).astype(np.float32)
    y = rng.normal(size=64).astype(np.float32)
    call = bind(q, x, y, GemvParams(m=64, n=64, lda=64, alpha=2.0, beta=0.5))
    assert call.native is not None
    call.run()  # warm up outside the measurement
    tracemalloc.start()
    try:
        call.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024, peak


# Runs in a subprocess, so a fault fails the test instead of killing pytest.
_FENCED = """
import ctypes, mmap, sys
import numpy as np
from quantloop.bitcodec import PackedBuffer, pack_bits
from quantloop.kernels import GemvParams, bind
from quantloop.quantizer import Codebook, QuantizedMatrix

libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
PAGE = mmap.PAGESIZE
PROT_NONE = 0


def fenced(data):
    # A copy of `data` that ends where a PROT_NONE page begins.
    pages = (len(data) + PAGE - 1) // PAGE + 1
    mm = mmap.mmap(-1, pages * PAGE)
    start = (pages - 1) * PAGE - len(data)
    mm[start : start + len(data)] = data
    anchor = ctypes.c_char.from_buffer(mm)
    fence = ctypes.addressof(anchor) + (pages - 1) * PAGE
    del anchor
    if libc.mprotect(fence, PAGE, PROT_NONE) != 0:
        raise OSError(ctypes.get_errno(), "mprotect")
    return mm, fence, memoryview(mm)[start : start + len(data)]


if sys.argv[1] == "control":
    mm, fence, view = fenced(b"x")
    ctypes.string_at(fence - 1, 2)  # one byte past the copy: must fault
    sys.exit(0)

rng = np.random.default_rng(7)
for bits in range(1, 9):
    for cols in (1, 7, 23, 64, 172):
        for rows in (1, 2, 3, 5, 9):
            centroids = np.sort(rng.normal(size=1 << bits)).astype(np.float32)
            packed = pack_bits(rng.integers(0, 1 << bits, size=rows * cols), bits)
            mm, fence, view = fenced(packed.data)
            q = QuantizedMatrix(rows, cols, Codebook(centroids, bits),
                                PackedBuffer(view, packed.count, bits), 0.0)
            x = rng.normal(size=cols).astype(np.float32)
            y0 = rng.normal(size=rows).astype(np.float32)
            p = GemvParams(m=rows, n=cols, lda=cols, alpha=1.5, beta=-0.5)
            call = bind(q, x, y0.copy(), p)
            assert call.native is not None
            plain = bind(QuantizedMatrix(rows, cols, q.codebook, packed, 0.0), x, y0.copy(), p)
            np.testing.assert_array_equal(call.run(), plain.run())
            libc.mprotect(fence, PAGE, mmap.PROT_READ | mmap.PROT_WRITE)
            del q, call, view
            mm.close()
print("ok")
"""


@needs_cc
def test_kernel_reads_only_inside_the_packed_buffer():
    # Each stream is copied to end exactly where a PROT_NONE page begins, so a
    # read of any byte after it faults.  The control shows that it does; the
    # kernel then runs every width and shape without faulting, and matches
    # the same call on the unfenced bytes.
    control = run_python(_FENCED.replace("sys.argv[1]", "'control'"))
    assert control.returncode == -signal.SIGSEGV, control
    done = run_python(_FENCED.replace("sys.argv[1]", "'kernel'"))
    assert done.returncode == 0 and done.stdout.strip() == "ok", (done.returncode, done.stderr)
