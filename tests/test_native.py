"""The native library and its packed records: the build cache, the fallback, the reads.

The packed GEMV and the quantized embed run only inside a compiled step, so
their tests run them as a program of one ``gemv`` or ``embed``
(``conftest.gemv_step``, ``conftest.embed_step``).
"""

import json
import os
import platform
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
from quantloop.bitcodec import unpack_slice
from quantloop.cli import main
from quantloop.quantizer import dequantize
from quantloop.runtime import Engine
from quantloop.native import OP_RECORD
from quantloop.step import NoStep, Step, build

from conftest import (embed_step, gemv_program, gemv_step, needs_cc, packed_kernel,
                      packed_kernels, random_quantized)

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
    assert native.load() == native.Native(reason="no C compiler (cc) on PATH")
    q = random_quantized(np.random.default_rng(1), 3, 5, 3)
    y = np.zeros(3, np.float32)
    prepared = gemv_program(q, np.ones(5, np.float32), y)
    with pytest.raises(NoStep, match=r"^no native runtime: no C compiler \(cc\) on PATH$"):
        build(prepared)
    prepared.run()
    np.testing.assert_allclose(y, dequantize(q).sum(axis=1), rtol=1e-5)


def test_failing_compiler_leaves_its_reason(fresh_loader, monkeypatch):
    bin_dir = fresh_loader / "bin"
    fake_cc(bin_dir, 'echo "fake cc cannot build" >&2; exit 3')
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    loaded = native.load()
    assert loaded.step is None
    assert "exited 3" in loaded.reason and "fake cc cannot build" in loaded.reason
    # Nothing half-built is left in the cache.
    assert list((fresh_loader / "cache" / "quantloop").iterdir()) == []


@needs_cc
def test_unwritable_cache_builds_in_a_temporary_directory(fresh_loader, monkeypatch):
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    loaded = native.load()
    assert loaded.step is not None and loaded.reason is None


@needs_cc
def test_fresh_process_reuses_the_cache_and_rebuilds_a_truncated_library(tmp_path):
    # cc is wrapped to log its arguments, so each process's compiles show.
    log = tmp_path / "cc.log"
    real = subprocess.run(["sh", "-c", "command -v cc"], capture_output=True, text=True).stdout.strip()
    fake_cc(tmp_path / "bin", f'echo "$@" >> "{log}"\nexec "{real}" "$@"')
    env = {"PATH": f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}",
           "XDG_CACHE_HOME": str(tmp_path / "cache")}
    probe = "from quantloop import native; print('numpy' if native.load().step is None else 'native')"

    def compiles():
        return [line for line in log.read_text().splitlines() if "-shared" in line]

    for run, built in ((1, 1), (2, 1)):
        done = run_python(probe, **env)
        assert done.stdout.strip() == "native", (run, done.stderr)
        assert len(compiles()) == built, run
    [library] = (tmp_path / "cache" / "quantloop").glob("quantloop-*.so")
    size = library.stat().st_size
    with open(library, "r+b") as f:
        f.truncate(100)
    done = run_python(probe, **env)
    assert done.stdout.strip() == "native", done.stderr
    assert len(compiles()) == 2
    assert library.stat().st_size == size
    assert [p.name for p in library.parent.iterdir()] == [library.name]


# -- through the engine and the CLI ---------------------------------------------


@pytest.fixture(scope="module")
def compiled_tokens(toy_quant_path):
    """Greedy tokens of the toy `.ditq`, decoded with the packed GEMV as built here."""
    return Engine(toy_quant_path, mode="optimized").generate([1, 2, 3], steps=24).generated_tokens


def test_ditq_decode_on_numpy_fallback_gives_the_same_tokens(
    compiled_tokens, toy_quant_path, numpy_fallback
):
    fallback = Engine(toy_quant_path, mode="optimized")
    assert native.load().step is None
    assert fallback.generate([1, 2, 3], steps=24).generated_tokens == compiled_tokens


def test_inspect_never_loads_the_native_runtime(toy_float_path, toy_quant_path, monkeypatch,
                                                capsys):
    # Describing a checkpoint reads the file only: no build, no library.
    def refuse():
        raise AssertionError("inspect loaded the native runtime")

    monkeypatch.setattr(native, "load", refuse)
    for path, kind in ((toy_float_path, "float"), (toy_quant_path, "quantized")):
        assert main(["inspect", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == kind and "packed_gemv" not in report


def test_the_oracle_imports_no_native_code():
    # The interpreter and the kernels are the numpy-only oracle of the
    # compiled step: importing them loads neither it nor the runtime.
    done = run_python("""
        import sys
        import quantloop.kernels, quantloop.loopir
        print(sorted(m for m in ("quantloop.native", "quantloop.step") if m in sys.modules))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@needs_cc
def test_vectors_the_kernel_cannot_take_stay_on_numpy():
    # A packed gemv the kernel cannot take gets no record, so its program
    # runs on the closures, where numpy runs or refuses it as before.
    rng = np.random.default_rng(38)
    q = random_quantized(rng, 6, 5, 3)
    x = rng.normal(size=5).astype(np.float32)
    # A read-only y is refused by numpy's store, as on every other path.
    y = np.zeros(6, np.float32)
    y.flags.writeable = False
    prepared = gemv_program(q, x, y)
    with pytest.raises(NoStep, match="y is read-only"):
        build(prepared)
    with pytest.raises(ValueError, match="read-only"):
        prepared.run()
    # x and y in one buffer: apart they run compiled, overlapping on numpy.
    buf = rng.normal(size=12).astype(np.float32)
    assert isinstance(gemv_step(q, buf[:5], buf[5:11]), Step)
    with pytest.raises(NoStep, match="y overlaps x"):
        gemv_step(q, buf[:5], buf[4:10])
    # A float32 view one byte into its buffer.
    x_odd = np.frombuffer(np.zeros(21, np.uint8).data, np.float32, count=5, offset=1)
    assert not x_odd.flags.aligned
    with pytest.raises(NoStep, match="unaligned"):
        gemv_step(q, x_odd, np.zeros(6, np.float32))


# -- the kernel's memory -------------------------------------------------------


@needs_cc
@pytest.mark.skipif(not os.path.exists("/proc/cpuinfo"), reason="no /proc/cpuinfo to read")
def test_the_packed_kernel_is_chosen_from_the_cpu_at_load(toy_quant_path):
    # step.c takes its AVX2 packed kernel on an x86-64 CPU with AVX2, a choice
    # it makes once, when it is loaded, not from FLAGS: no -m flag is passed,
    # so the cached library still runs on any host of its architecture.
    with open("/proc/cpuinfo") as f:
        flags = {word for line in f if line.startswith("flags") for word in line.split()}
    avx2 = platform.machine() == "x86_64" and "avx2" in flags
    loaded = native.load()
    assert loaded.packed_kernel == ("avx2" if avx2 else "portable")
    assert loaded.avx2.value == avx2
    assert not [flag for flag in native.FLAGS if flag.startswith("-m")]
    engine = Engine(toy_quant_path)
    assert engine.step_status()["packed_kernel"] == loaded.packed_kernel


@needs_cc
def test_the_packed_kernel_report_follows_the_selector(toy_quant_path):
    # The report reads the library's switch each time, so it names the
    # kernels that run, not the ones chosen at load.
    engine = Engine(toy_quant_path)
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            assert native.load().packed_kernel == kernel
            assert engine.step_status()["packed_kernel"] == kernel


@needs_cc
def test_a_step_is_complete_when_it_is_built():
    # Each packed record, a gemv's or a quantized embed's, points at its
    # codebook's centroids from the build on, and running the step writes
    # nothing into its records.
    rng = np.random.default_rng(39)
    for bit_width in range(1, 9):
        for op in ("gemv", "embed"):
            q = random_quantized(rng, 4, 9, bit_width)
            if op == "gemv":
                step, params = gemv_step(q, np.ones(9, np.float32), np.zeros(4, np.float32)), ()
            else:
                step, params = embed_step(q, np.zeros(9, np.float32)), (2,)
            built = bytes(step._records)
            centroids = OP_RECORD.unpack_from(built)[2]
            assert centroids == q.codebook.centroids.ctypes.data, (op, bit_width)
            for _ in range(2):
                assert step(params) == 0
                assert bytes(step._records) == built, (op, bit_width)


@needs_cc
@pytest.mark.parametrize("bit_width", range(1, 9))
def test_packed_call_allocates_nothing(bit_width):
    rng = np.random.default_rng(40 + bit_width)
    q = random_quantized(rng, 64, 64, bit_width)
    x = rng.normal(size=64).astype(np.float32)
    y = rng.normal(size=64).astype(np.float32)
    step = gemv_step(q, x, y, alpha=2.0, beta=0.5)
    step(())  # warm up outside the measurement
    tracemalloc.start()
    try:
        step(())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024, peak


@needs_cc
@pytest.mark.parametrize("bit_width", range(1, 9))
def test_quantized_embed_record_matches_the_handler_bit_for_bit(bit_width):
    # The record decodes its row through the packed gemv's group decoder;
    # every row of the table equals the handler's centroids[unpack_slice].
    rng = np.random.default_rng(50 + bit_width)
    for cols in (1, 7, 64, 1037):
        q = random_quantized(rng, 9, cols, bit_width)
        dst = np.zeros(cols, np.float32)
        step = embed_step(q, dst)
        for token in range(q.rows):
            assert step((token,)) == 0
            expect = q.codebook.centroids[unpack_slice(q.indices, token * cols, cols)]
            np.testing.assert_array_equal(dst.view(np.int32), expect.view(np.int32),
                                          err_msg=f"cols={cols} token={token}")


# Runs in a subprocess, so a fault fails the test instead of killing pytest.
_FENCED = """
import ctypes, mmap, sys
import numpy as np
from quantloop import native
from quantloop.bitcodec import PADDING, PackedBuffer, pack_bits, unpack_slice
from quantloop.quantizer import Codebook, QuantizedMatrix
from conftest import attention_program, embed_step, gemv_step
from quantloop.step import build

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


def run_step(q, x, y):
    step = gemv_step(q, x, y, alpha=1.5, beta=-0.5)
    assert step(()) == 0
    return step


if sys.argv[1] == "control":
    mm, fence, view = fenced(b"x")
    ctypes.string_at(fence - 1, 2)  # one byte past the copy: must fault
    sys.exit(0)

# The packed kernel under test: the AVX2 run checks that the library chose
# its vector paths at load and that they stay chosen, so every width (incx
# is 1) runs on one: the permute decoder at b <= 3 and at b = 4 with even
# cols, a gather from the fenced centroids otherwise; the portable run selects
# the portable kernel.  The permute decoder runs rows in blocks of 8, so with
# 8 and 16 rows a block is the last thing it reads before the fence.
loaded = native.load()
if sys.argv[2] == "avx2":
    assert loaded.packed_kernel == "avx2" and loaded.avx2.value == 1, loaded
else:
    loaded.avx2.value = 0
rng = np.random.default_rng(7)
for bits in range(1, 9):
    for cols in (1, 7, 23, 64, 172):
        for rows in (1, 2, 3, 5, 8, 9, 16):
            centroids = np.sort(rng.normal(size=1 << bits)).astype(np.float32)
            packed = pack_bits(rng.integers(0, 1 << bits, size=rows * cols), bits)
            # The codes and the centroids each end at a fence.  The codes'
            # stream is its payload, guard byte and the PADDING bytes that
            # PackedBuffer keeps after them, and PackedBuffer views it without
            # copying it, as Codebook keeps the contiguous float32 view.
            mm, fence, view = fenced(bytes(packed.data) + bytes(PADDING))
            c_mm, c_fence, c_view = fenced(centroids.tobytes())
            book = Codebook(np.frombuffer(c_view, np.float32), bits)
            assert np.shares_memory(book.centroids, np.frombuffer(c_view, np.float32))
            q = QuantizedMatrix(rows, cols, book, PackedBuffer(view, packed.count, bits), 0.0)
            assert np.shares_memory(np.frombuffer(q.indices.data, np.uint8),
                                    np.frombuffer(view, np.uint8))
            x = rng.normal(size=cols).astype(np.float32)
            y0 = rng.normal(size=rows).astype(np.float32)
            y, y_plain = y0.copy(), y0.copy()
            step = run_step(q, x, y)
            run_step(QuantizedMatrix(rows, cols, Codebook(centroids, bits), packed, 0.0), x,
                     y_plain)
            np.testing.assert_array_equal(y, y_plain)
            # The last row of the fenced codes, embedded.
            row = np.zeros(cols, np.float32)
            embed = embed_step(q, row)
            assert embed((rows - 1,)) == 0
            np.testing.assert_array_equal(
                row, centroids[unpack_slice(packed, (rows - 1) * cols, cols)])
            for fence_at in (fence, c_fence):
                libc.mprotect(fence_at, PAGE, mmap.PROT_READ | mmap.PROT_WRITE)
            # The steps keep the codes and centroid arrays over the mappings alive.
            del q, book, step, embed, view, c_view
            mm.close()
            c_mm.close()
# Dense records: each float matrix ends where the fence begins.  The AVX2 run
# takes the vector dense kernel on whole 8-row blocks (unit strides), and the
# leftover rows and every row's tail columns on the portable one.
for rows, cols in ((1, 7), (8, 8), (8, 64), (9, 23), (16, 172), (17, 172)):
    a = rng.normal(size=(rows, cols)).astype(np.float32)
    mm, fence, view = fenced(a.tobytes())
    dense = np.frombuffer(view, np.float32).reshape(rows, cols)
    x = rng.normal(size=cols).astype(np.float32)
    y0 = rng.normal(size=rows).astype(np.float32)
    y, y_plain = y0.copy(), y0.copy()
    step = run_step(dense, x, y)
    run_step(a, x, y_plain)
    np.testing.assert_array_equal(y, y_plain)
    libc.mprotect(fence, PAGE, mmap.PROT_READ | mmap.PROT_WRITE)
    del dense, step, view
    mm.close()


def attend(caches, head_size, q, k, v):
    # 4 query heads on 2 KV heads at the caches' last position.
    env = {"att": np.zeros(q.size, np.float32), "q": q, "k": k, "v": v, **caches}
    step = build(attention_program(env, 4, 2, head_size))
    assert step((caches["k_cache"].shape[0] - 1,)) == 0
    return env["att"]


# Attention records whose K and V caches each end where a fence begins, run at
# their last position, so the last KV head reads the caches' last element.
# The AVX2 run scores whole blocks of 8 positions and weighs 8 outputs per
# register (head size 12 leaves a tail of 4); 21 positions leave 5 for dot.
for head_size in (12, 16):
    for rows in (16, 21):
        shape = (rows, 2 * head_size)
        k_cache, v_cache = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
        q = rng.normal(size=4 * head_size).astype(np.float32)
        k, v = (rng.normal(size=shape[1]).astype(np.float32) for _ in range(2))
        fences = [fenced(cache.tobytes()) for cache in (k_cache, v_cache)]
        caches = {name: np.frombuffer(view, np.float32).reshape(shape)
                  for name, (_, _, view) in zip(("k_cache", "v_cache"), fences)}
        got = attend(caches, head_size, q, k, v)
        expect = attend({"k_cache": k_cache, "v_cache": v_cache}, head_size, q, k, v)
        np.testing.assert_array_equal(got.view(np.int32), expect.view(np.int32))
        np.testing.assert_array_equal(caches["k_cache"], k_cache)
        np.testing.assert_array_equal(caches["v_cache"], v_cache)
        del caches
        for mm, fence, view in fences:
            libc.mprotect(fence, PAGE, mmap.PROT_READ | mmap.PROT_WRITE)
            view.release()
            mm.close()
assert loaded.avx2.value == (sys.argv[2] == "avx2")
print("ok")
"""


@needs_cc
def test_kernel_reads_only_inside_the_packed_buffer():
    # Each stream is copied to end exactly where a PROT_NONE page begins, so a
    # read of any byte after it faults; a packed stream ends with the padding
    # that its PackedBuffer keeps after the guard byte.  The control shows
    # that it does; each packed kernel the host runs then runs every width and
    # shape without faulting (the AVX2 one reads a window from any byte, not
    # only at group starts), and matches the same call on the unfenced bytes,
    # and the embed of the fenced table's last row matches the handler's
    # decode.  Each codebook's centroids end at a fence too, so the gemv and
    # the embed read only their 2^b centroids.  Dense float matrices that end at the fence run the same way, so the AVX2
    # dense kernel is held to the same bound as the portable one, and so do
    # attention records whose K and V caches each end at a fence.
    path = os.pathsep.join((SRC, str(Path(__file__).resolve().parent)))  # conftest too
    control = run_python(_FENCED.replace("sys.argv[1]", "'control'"), PYTHONPATH=path)
    assert control.returncode == -signal.SIGSEGV, control
    for kernel in packed_kernels():
        script = _FENCED.replace("sys.argv[1]", "'kernel'").replace("sys.argv[2]", repr(kernel))
        done = run_python(script, PYTHONPATH=path)
        assert done.returncode == 0 and done.stdout.strip() == "ok", (done.returncode, done.stderr)
