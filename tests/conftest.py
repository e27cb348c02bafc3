import numpy as np
import pytest

from quantloop.runtime import TOY_CONFIG, make_toy_checkpoint, quantize_checkpoint


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

    Operand checks are counted where dense calls bind them (intrinsics) and
    where packed calls and the kernels' own entry points do (kernels).
    """
    from quantloop import intrinsics, kernels

    counts = {"GemvParams": 0, "_operands": 0}
    for owner, name in ((intrinsics, "GemvParams"), (intrinsics, "_operands"), (kernels, "_operands")):

        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


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
