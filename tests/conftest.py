import contextlib
import os
import shutil

import numpy as np
import pytest

from quantloop import native
from quantloop.bitcodec import pack_bits
from quantloop.quantizer import Codebook, QuantizedMatrix
from quantloop.runtime import TOY_CONFIG, make_toy_checkpoint, quantize_checkpoint

#: Skips a test that needs the compiled packed GEMV kernel, only when there is
#: no compiler to build it with.
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


@contextlib.contextmanager
def packed_gemv_on_numpy():
    """Make the kernel's loader report it unavailable: packed binds run on numpy."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "load", lambda: native.Native(None, "unavailable under test"))
        yield


@pytest.fixture
def numpy_fallback():
    """The packed GEMV on its numpy fallback for the whole test."""
    with packed_gemv_on_numpy():
        yield


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
