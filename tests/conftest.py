import contextlib
import os
import shutil

import numpy as np
import pytest

from quantloop import native
from quantloop.bitcodec import pack_bits
from quantloop.loopir import BufferDecl, Function, IntrinsicCall, LoopProgram, Prepared
from quantloop.quantizer import Codebook, QuantizedMatrix
from quantloop.runtime import TOY_CONFIG, make_toy_checkpoint, quantize_checkpoint
from quantloop.step import Step, build

#: Skips a test that needs the native runtime (the compiled step and its packed
#: GEMV kernel), only when there is no compiler to build it with.
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """Build the compiled kernel into a cache of the test session's own.

    Subprocesses the tests start inherit it through ``XDG_CACHE_HOME``.
    """
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    native.load.cache_clear()
    try:
        yield os.environ["XDG_CACHE_HOME"]
    finally:
        if saved is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = saved
        native.load.cache_clear()


def packed_kernels() -> tuple:
    """The kernels of the compiled step that this host can run.

    ``"avx2"`` when ``step.c`` chose its AVX2 paths at load, then always
    ``"portable"``; on a host without AVX2 only the portable one runs.  The
    one choice covers the packed gemv at every width (a permute through
    registers where a 4-byte read holds every row's 8 codes, else a gather
    from the centroids), the dense one and attention.
    """
    return ("avx2", "portable") if native.load().packed_kernel == "avx2" else ("portable",)


@contextlib.contextmanager
def packed_kernel(kernel: str):
    """Run the compiled step's gemv and attention records on `kernel`.

    `kernel` is one of :func:`packed_kernels`.

    Writes ``step.c``'s ``quantloop_packed_avx2``, which only tests write,
    and restores it after; a failure inside names the kernel.
    """
    switch = native.load().avx2
    chosen = switch.value
    switch.value = kernel == "avx2"
    try:
        yield
    except Exception as exc:
        exc.add_note(f"compiled step kernel: {kernel}")
        raise
    finally:
        switch.value = chosen


@pytest.fixture
def numpy_fallback(monkeypatch):
    """No native runtime for the whole test: programs run on the closures, on numpy."""
    monkeypatch.setattr(native, "load", lambda: native.Native(reason="unavailable under test"))


def gemv_program(a, x: np.ndarray, y: np.ndarray, alpha=1.0, beta=0.0, incx=1,
                 incy=1) -> Prepared:
    """``y = alpha * (a @ x) + beta * y`` as a program of one ``gemv``, prepared.

    `a` is a :class:`QuantizedMatrix` (a packed record) or a 2-D float32
    array (a dense one).  ``run()`` runs the closures on numpy, on the bound
    `x` and `y`, whose lengths are the program's buffers.
    """
    rows, cols = (a.rows, a.cols) if isinstance(a, QuantizedMatrix) else a.shape
    call = IntrinsicCall("gemv", ("RM", "NT", rows, cols, alpha, "A", cols, "x", incx,
                                  beta, "y", incy))
    program = LoopProgram(
        buffers=(BufferDecl("A", (rows, cols)), BufferDecl("x", (x.size,)),
                 BufferDecl("y", (y.size,))),
        functions=(Function("f", (call,)),),
    )
    return Prepared(program, {"A": a, "x": x, "y": y})


def gemv_step(a, x: np.ndarray, y: np.ndarray, alpha=1.0, beta=0.0, incx=1,
              incy=1) -> Step:
    """The compiled step of :func:`gemv_program`; ``NoStep`` says why there is none.

    It is the only way to run the packed kernel: ``step(())`` runs it once.
    """
    return build(gemv_program(a, x, y, alpha, beta, incx, incy))


def embed_step(table: QuantizedMatrix, dst: np.ndarray) -> Step:
    """The compiled step of ``dst = table[token]``, a program of one ``embed``.

    ``step((token,))`` runs the quantized embed record for `token`.
    """
    program = LoopProgram(
        buffers=(BufferDecl("T", (table.rows, table.cols)), BufferDecl("dst", (dst.size,))),
        params=("token",),
        functions=(Function("f", (IntrinsicCall("embed", ("dst", "T", "token")),)),),
    )
    return build(Prepared(program, {"T": table, "dst": dst, "token": 0}))


def attention_program(env: dict, n_heads: int, n_kv_heads: int, head_size: int) -> Prepared:
    """``attention`` over `env`'s arrays as a program of one statement, prepared.

    `env` maps ``att``, ``q``, ``k``, ``v``, ``k_cache`` and ``v_cache`` to
    float32 arrays, the caches 2-D; the program's one param, ``pos``, is set
    to 0 in it.  ``build`` gives its compiled step, and ``step((pos,))`` runs
    the attention record at `pos`.
    """
    names = ("att", "q", "k", "v", "k_cache", "v_cache")
    call = IntrinsicCall("attention", (*names, "pos", n_heads, n_kv_heads, head_size))
    program = LoopProgram(
        buffers=tuple(BufferDecl(name, env[name].shape) for name in names),
        params=("pos",),
        functions=(Function("f", (call,)),),
    )
    env["pos"] = 0
    return Prepared(program, env)


@pytest.fixture(scope="session")
def toy_float_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "toy.ditf"
    make_toy_checkpoint(str(path), seed=7)
    return str(path)


@pytest.fixture(scope="session")
def toy_quant_path(tmp_path_factory, toy_float_path):
    path = tmp_path_factory.mktemp("ckpt") / "toy.ditq"
    quantize_checkpoint(toy_float_path, str(path))
    return str(path)


@pytest.fixture
def gemv_bind_counts(monkeypatch):
    """Counts of GemvParams builds and operand checks made to bind gemv calls.

    Params are counted where ``intrinsics.bind_gemv`` builds them, operand
    checks where ``kernels.bind`` (and so every kernel entry point) makes
    them.
    """
    from quantloop import intrinsics, kernels

    counts = {"GemvParams": 0, "_operands": 0}
    for owner, name in ((intrinsics, "GemvParams"), (kernels, "_operands")):

        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def random_quantized(rng, rows, cols, bit_width) -> QuantizedMatrix:
    """A quantized matrix with random codes, built without running the quantizer."""
    centroids = np.sort(rng.normal(size=1 << bit_width)).astype(np.float32)
    codes = rng.integers(0, 1 << bit_width, size=rows * cols)
    return QuantizedMatrix(
        rows=rows,
        cols=cols,
        codebook=Codebook(centroids=centroids, bit_width=bit_width),
        indices=pack_bits(codes, bit_width),
        epsilon=0.0,
    )


def assert_elementwise_close(actual, reference, scale, rtol, context=""):
    """Per-element |actual - reference| <= rtol * scale, evaluated in float64.

    `scale` is the natural magnitude of each output element (e.g. the sum of
    absolute products feeding it), which keeps the comparison meaningful when
    a result lands near zero by cancellation.
    """
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = np.maximum(np.asarray(scale, dtype=np.float64), 1e-30)
    err = np.abs(actual - reference) / scale
    worst = float(err.max()) if err.size else 0.0
    assert worst <= rtol, f"{context}: worst relative error {worst:.3e} > {rtol:.1e}"


def gemv_scale(a_flat, x, y0, layout, trans, m, n, alpha, beta, lda, incx=1, incy=1):
    """Σ|α||a_ik x_k| + |β y0_i| per output element, in float64."""
    a = np.asarray(a_flat, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    out_len = m if trans == "NT" else n
    in_len = n if trans == "NT" else m
    scale = np.zeros(out_len)
    for i in range(out_len):
        acc = 0.0
        for k in range(in_len):
            li, lk = (i, k) if trans == "NT" else (k, i)
            flat = li * lda + lk if layout == "RM" else lk * lda + li
            acc += abs(a[flat] * x[k * incx])
        scale[i] = abs(alpha) * acc + abs(beta * y0[i * incy])
    return scale
