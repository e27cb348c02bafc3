import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloop.loopir import (
    AccumInit,
    AccumUpdate,
    AffineExpr,
    BinOp,
    BufferDecl,
    Function,
    IntrinsicCall,
    Load,
    Loop,
    LoopProgram,
    NonAffineExpr,
    ParseError,
    Prepared,
    Store,
    TrapError,
    interpret,
    parse_program,
    print_program,
    validate,
)

MATVEC = """\
buffer A[2, 2]
buffer x[2]
buffer y[2]

func main {
  for i in 0..2 {
    acc s = 0.0
    for k in 0..2 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    store y[i] = s
  }
}
"""


def matvec_env():
    return {
        "A": np.array([[1, 2], [3, 4]], dtype=np.float32),
        "x": np.ones(2, dtype=np.float32),
        "y": np.zeros(2, dtype=np.float32),
    }


# -- parsing and printing ----------------------------------------------------


def test_parse_print_matvec_roundtrip():
    p = parse_program(MATVEC)
    assert print_program(p) == MATVEC
    assert validate(p) == []


def test_hand_evaluated_matvec():
    env = matvec_env()
    interpret(parse_program(MATVEC), env)
    np.testing.assert_array_equal(env["y"], [3.0, 7.0])


def test_parse_affine_forms():
    src = """\
buffer A[12]
param ld

func f {
  for i in 0..3 {
    for k in 0..4 {
      load a = A[i * ld + k]
      store A[i * 4 + k + 0] = a
    }
  }
}
"""
    p = parse_program(src)
    fn = p.functions[0]
    load = fn.body[0].body[0].body[0]
    assert load.index[0].terms == (("i", "ld"), ("k", 1))
    store = fn.body[0].body[0].body[1]
    assert store.index[0].terms == (("i", 4), ("k", 1))


def test_parse_rejects_nonaffine_index():
    src = MATVEC.replace("A[i, k]", "A[i * k]")
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert "non-affine" in str(exc.value)


def test_parse_rejects_undeclared_buffer():
    src = MATVEC.replace("load t = x[k]", "load t = z[k]")
    with pytest.raises(ParseError):
        parse_program(src)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_program("buffer A[2]\nfunc f {\n  store A[0] = @\n}\n")
    assert exc.value.line == 3


def test_float_literals_roundtrip():
    src = """\
buffer y[1]

func f {
  for i in 0..1 {
    acc s = 0.5
    update s += 2.0 * s
    store y[i] = s
  }
}
"""
    # 'update s += 2.0 * s' multiplies operands 2.0 and s.
    p = parse_program(src)
    assert print_program(p) == src


def test_nonaffine_expr_prints_but_does_not_parse():
    # The node is constructible in memory for negative-path testing, but the
    # text grammar has no affine escape hatch, so its printed form is
    # rejected on the way back in.
    prog = LoopProgram(
        buffers=(BufferDecl(name="A", extents=(4,)),),
        params=(),
        functions=(
            Function(
                name="f",
                body=(
                    Loop(
                        iv="i",
                        lower=AffineExpr.const(0),
                        upper=AffineExpr.const(2),
                        body=(
                            Load(
                                dest="a",
                                buffer="A",
                                index=(NonAffineExpr(text="i * i"),),
                            ),
                            Store(
                                buffer="A",
                                index=(AffineExpr.of("i"),),
                                value="a",
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    text = print_program(prog)
    with pytest.raises(ParseError):
        parse_program(text)
    with pytest.raises(ValueError):
        interpret(prog, {"A": np.zeros(4, dtype=np.float32)})


# -- interpretation ----------------------------------------------------------


def test_zero_trip_loop_is_a_noop():
    src = MATVEC.replace("for i in 0..2", "for i in 0..0")
    env = matvec_env()
    interpret(parse_program(src), env)
    np.testing.assert_array_equal(env["y"], [0.0, 0.0])


def test_stores_round_to_float32():
    src = """\
buffer y[1]

func f {
  for i in 0..1 {
    acc s = 0.1
    update s += 0.2 * 1.0
    store y[i] = s
  }
}
"""
    env = {"y": np.zeros(1, dtype=np.float32)}
    interpret(parse_program(src), env)
    assert env["y"][0] == np.float32(0.1 + 0.2)


def test_trap_on_out_of_bounds():
    src = MATVEC.replace("A[i, k]", "A[i + 1, k]")
    with pytest.raises(TrapError) as exc:
        interpret(parse_program(src), matvec_env())
    assert exc.value.buffer == "A"
    assert exc.value.index == (2, 0)


def test_trap_on_flat_overrun():
    src = """\
buffer v[3]

func f {
  for i in 0..4 {
    load a = v[i]
    store v[i] = a
  }
}
"""
    with pytest.raises(TrapError):
        interpret(parse_program(src), {"v": np.zeros(3, dtype=np.float32)})


def test_param_bound_loops():
    src = """\
buffer v[8]
param n

func f {
  for i in 0..n {
    acc s = 1.0
    store v[i] = s
  }
}
"""
    p = parse_program(src)
    # A declared param is a legal NAME in a bound, for validate as for the parser.
    assert validate(p) == []
    env = {"v": np.zeros(8, dtype=np.float32), "n": 5}
    interpret(p, env)
    np.testing.assert_array_equal(env["v"], [1, 1, 1, 1, 1, 0, 0, 0])


def test_subscript_count_must_be_one_or_rank():
    # Three subscripts on a 2-D buffer are refused at prepare, as validate
    # reports them, rather than read as a flat index on the first one.
    src = """\
buffer A[2, 3]
buffer y[1]

func f {
  load a = A[1, 2, 0]
  store y[0] = a
}
"""
    env = {"A": np.arange(6, dtype=np.float32).reshape(2, 3), "y": np.zeros(1, np.float32)}
    p = parse_program(src)
    assert any("subscript" in d for d in validate(p))
    with pytest.raises(ValueError, match="'A'.*3 subscripts"):
        Prepared(p, env)


def test_intrinsic_dispatch_and_args():
    calls = []
    src = """\
buffer v[4]
param p

func f {
  call probe(v, p, 3, 0.5)
}
"""
    env = {"v": np.arange(4, dtype=np.float32), "p": 7}
    interpret(
        parse_program(src),
        env,
        intrinsics={"probe": lambda *a: calls.append(a)},
    )
    (args,) = calls
    np.testing.assert_array_equal(args[0], [0, 1, 2, 3])
    assert args[1:] == (7, 3, 0.5)


def test_unknown_intrinsic_raises():
    src = """\
buffer v[1]

func f {
  call mystery(v)
}
"""
    with pytest.raises(ValueError, match="mystery"):
        interpret(parse_program(src), {"v": np.zeros(1, dtype=np.float32)})


def test_env_binding_validation():
    # Every bad binding is refused when the program is prepared, before a run.
    p = parse_program(MATVEC)
    env = matvec_env()
    env["A"] = env["A"].astype(np.float64)
    with pytest.raises(ValueError, match="'A'"):
        Prepared(p, env)
    env = matvec_env()
    env["x"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="'x'"):
        Prepared(p, env)
    env = matvec_env()
    del env["y"]
    with pytest.raises(ValueError, match="'y'"):
        Prepared(p, env)


def test_missing_param_raises_at_run():
    src = """\
buffer v[8]
param n

func f {
  for i in 0..n {
    acc s = 1.0
    store v[i] = s
  }
}
"""
    env = {"v": np.zeros(8, dtype=np.float32)}
    prepared = Prepared(parse_program(src), env)
    with pytest.raises(ValueError, match="param 'n'"):
        prepared.run()
    env["n"] = 3
    prepared.run()
    np.testing.assert_array_equal(env["v"], [1, 1, 1, 0, 0, 0, 0, 0])


def test_run_sees_in_place_writes_to_bound_buffers():
    env = matvec_env()
    prepared = Prepared(parse_program(MATVEC), env)
    prepared.run()
    np.testing.assert_array_equal(env["y"], [3.0, 7.0])
    env["x"][:] = [2.0, 0.0]
    env["A"][1, 0] = 10.0
    prepared.run()
    np.testing.assert_array_equal(env["y"], [2.0, 20.0])


def test_call_arguments_resolved_at_bind():
    src = """\
buffer v[4]
param p

func f {
  call probe(v, p)
  call probe(v)
}
"""
    calls = []
    env = {"v": np.zeros(4, dtype=np.float32), "p": 1}
    prepared = Prepared(
        parse_program(src), env, intrinsics={"probe": lambda *a: calls.append(a)}
    )
    prepared.run()
    env["p"] = 2
    prepared.run()
    assert [len(c) for c in calls] == [2, 1, 2, 1]
    assert [c[1] for c in calls if len(c) == 2] == [1, 2]
    assert all(c[0] is env["v"] for c in calls)


def test_quantized_loads_reconstruct_once(monkeypatch):
    from quantloop.loopir import interp
    from quantloop.quantizer import QuantConfig, quantize_matrix

    reconstructions = []

    def counting(q):
        reconstructions.append(q)
        return dequantize(q)

    dequantize = interp.dequantize
    monkeypatch.setattr(interp, "dequantize", counting)
    a = np.array([[1, 2], [3, 4]], dtype=np.float32)
    env = matvec_env()
    env["A"] = quantize_matrix(a, QuantConfig(bit_width=2))
    prepared = Prepared(parse_program(MATVEC), env)
    prepared.run()
    prepared.run()
    assert len(reconstructions) == 1
    np.testing.assert_array_equal(env["y"], [3.0, 7.0])


# -- elementwise loops -------------------------------------------------------

_SCALAR_OPS = {"add": lambda u, v: u + v, "mul": lambda u, v: u * v}


def _ewise(op, out="O", lo=0, hi=4, n=4, upper=None, tail=()):
    """``for d in lo..hi { a = L[d]; b = R[d]; r = a op b; O[d] = r }`` plus `tail`.

    With `upper` the loop's upper bound is that param, which keeps the loop
    on the interpreter's scalar path: the reference the tests compare with.
    """
    d = AffineExpr.of("d")
    loop = Loop(
        iv="d",
        lower=AffineExpr.const(lo),
        upper=AffineExpr.of(upper) if upper else AffineExpr.const(hi),
        body=(
            Load(dest="a", buffer="L", index=(d,)),
            Load(dest="b", buffer="R", index=(d,)),
            BinOp(dest="r", op=op, a="a", b="b"),
            Store(buffer=out, index=(d,), value="r"),
        ),
    )
    return LoopProgram(
        buffers=tuple(BufferDecl(name, (n,)) for name in ("L", "R", "O", "Z")),
        params=(upper,) if upper else (),
        functions=(Function(name="f", body=(loop, *tail)),),
    )


def _run(program, env, **params):
    env = {k: v.copy() for k, v in env.items()} | params
    prepared = Prepared(program, env)
    prepared.run()
    return prepared, env


_special = st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38]
)
_f32 = st.one_of(_special, st.floats(width=32, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(["add", "mul"]),
    out=st.sampled_from(["O", "L", "R"]),
    data=st.data(),
)
def test_elementwise_loop_matches_scalar_reference(op, out, data):
    n = data.draw(st.integers(1, 12))
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    env = {
        name: np.array(data.draw(st.lists(_f32, min_size=n, max_size=n)), dtype=np.float32)
        for name in ("L", "R", "O", "Z")
    }
    expect = {k: v.copy() for k, v in env.items()}
    with np.errstate(all="ignore"):
        for i in range(lo, hi):
            u, v = float(expect["L"][i]), float(expect["R"][i])
            expect[out][i] = np.float32(_SCALAR_OPS[op](u, v))
        prepared, got = _run(_ewise(op, out, lo, hi, n), env)
    assert prepared._body[0].__name__ == "run_elementwise"
    for name in env:
        assert got[name].view(np.uint32).tolist() == expect[name].view(np.uint32).tolist(), name


@pytest.mark.parametrize("upper", [None, "n"])
def test_non_finite_results_run_without_a_numpy_warning(upper):
    # inf + -inf and a sum past float32's range, on the one-ufunc path and on
    # the scalar path (whose store rounds an overflowing double): both are
    # as silent as the compiled step and give the IEEE-754 results.
    env = {
        "L": np.array([np.inf, 3e38], np.float32),
        "R": np.array([-np.inf, 3e38], np.float32),
        "O": np.zeros(2, np.float32),
        "Z": np.zeros(2, np.float32),
    }
    params = {"n": 2} if upper else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prepared, got = _run(_ewise("add", lo=0, hi=2, n=2, upper=upper), env, **params)
    expect = "run_elementwise" if upper is None else "run_loop"
    assert prepared._body[0].__name__ == expect
    assert np.isnan(got["O"][0]) and got["O"][1] == np.inf


@pytest.mark.parametrize("out", ["O", "L", "R"])
def test_elementwise_loop_leaves_the_scalar_frame(out):
    # After the loop, d, a, b and an unrounded r hold the last iteration's
    # values, a and b as loaded before the store: Z[d] = r rounds r, and
    # Z[0] = r - out[2] is the residue of that rounding.
    d = AffineExpr.of("d")
    tail = (
        Store(buffer="Z", index=(d,), value="r"),
        Load(dest="c", buffer=out, index=(AffineExpr.const(2),)),
        BinOp(dest="e", op="fma", a="c", b=-1.0, c="r"),
        Store(buffer="Z", index=(AffineExpr.const(0),), value="e"),
        Store(buffer="Z", index=(AffineExpr.const(1),), value="a"),
        Store(buffer="Z", index=(AffineExpr.const(3),), value="b"),
    )
    env = {
        "L": np.array([1, 2, 1 + 2**-23, 5], dtype=np.float32),
        "R": np.array([3, 4, 1 + 2**-22, 7], dtype=np.float32),
        "O": np.zeros(4, dtype=np.float32),
        "Z": np.zeros(4, dtype=np.float32),
    }
    prepared, fast = _run(_ewise("mul", out, hi=3, tail=tail), env)
    assert prepared._body[0].__name__ == "run_elementwise"
    _, scalar = _run(_ewise("mul", out, upper="n", tail=tail), env, n=3)
    for name in ("L", "R", "O", "Z"):
        np.testing.assert_array_equal(fast[name], scalar[name])
    assert fast["Z"][2] == fast[out][2]  # d = 2
    assert fast["Z"][0] == np.float32(2.0**-45)  # exact product minus its rounding
    assert (fast["Z"][1], fast["Z"][3]) == (env["L"][2], env["R"][2])


@pytest.mark.parametrize("lo, hi", [(0, 5), (-1, 3)], ids=["past-end", "before-start"])
def test_elementwise_loop_out_of_range_traps_like_scalar(lo, hi):
    env = {name: np.arange(4, dtype=np.float32) + 1 for name in ("L", "R", "O", "Z")}
    env["O"][:] = 0
    results = []
    for upper in (None, "n"):
        program = _ewise("add", lo=lo, hi=hi, upper=upper)
        run_env = {k: v.copy() for k, v in env.items()} | {"n": hi}
        with pytest.raises(TrapError) as exc:
            Prepared(program, run_env).run()
        results.append((exc.value.buffer, exc.value.index, run_env["O"].tolist()))
    assert results[0] == results[1]
    assert results[0][:2] == ("L", (4 if lo == 0 else lo,))
    assert results[0][2] == ([2.0, 4.0, 6.0, 8.0] if lo == 0 else [0.0] * 4)


def test_elementwise_loop_over_overlapping_buffers_runs_scalar():
    # O starts one element into L's storage, so each store feeds the next load.
    storage = np.arange(1, 6, dtype=np.float32)
    env = {"L": storage[:4], "R": np.ones(4, np.float32), "O": storage[1:],
           "Z": np.zeros(4, np.float32)}
    prepared = Prepared(_ewise("add"), env)
    prepared.run()
    assert prepared._body[0].__name__ != "run_elementwise"
    np.testing.assert_array_equal(storage, [1, 2, 3, 4, 5])


GEMV_PARAM_LDA = """\
buffer A[2, 3]
buffer x[3]
buffer y[2]
param lda

func f {
  call gemv(RM, NT, 2, 3, 1.0, A, lda, x, 1, 0.0, y, 1)
}
"""


def test_gemv_with_param_arguments_binds_per_call(gemv_bind_counts):
    results = []
    for text in (GEMV_PARAM_LDA, GEMV_PARAM_LDA.replace("lda, x", "3, x")):
        env = {
            "A": np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
            "x": np.array([1, -2, 3], dtype=np.float32) / 3,
            "y": np.zeros(2, dtype=np.float32),
            "lda": 3,
        }
        prepared = Prepared(parse_program(text), env)
        prepared.run()
        prepared.run()
        results.append(env["y"].tobytes())
    assert results[0] == results[1]
    # Two runs of the param site, then the literal site's one bind at prepare.
    assert gemv_bind_counts == {"GemvParams": 3, "_operands": 3}


# -- validation --------------------------------------------------------------


def test_validate_reports_undefined_scalar():
    src = """\
buffer y[1]

func f {
  for i in 0..1 {
    store y[i] = ghost
  }
}
"""
    diags = validate(parse_program(src))
    assert any("ghost" in d for d in diags)


def test_validate_reports_duplicate_buffer():
    prog = LoopProgram(
        buffers=(
            BufferDecl(name="v", extents=(1,)),
            BufferDecl(name="v", extents=(2,)),
        ),
        params=(),
        functions=(Function(name="f", body=()),),
    )
    assert any("duplicate" in d.lower() for d in validate(prog))


def test_validate_reports_unknown_intrinsic():
    src = """\
buffer v[1]

func f {
  call warp(v)
}
"""
    assert any("warp" in d for d in validate(parse_program(src)))


def test_validate_subscript_arity():
    prog = parse_program(MATVEC)
    bad = LoopProgram(
        buffers=tuple(
            BufferDecl(name=b.name, extents=(4,)) if b.name == "A" else b
            for b in prog.buffers
        ),
        params=prog.params,
        functions=prog.functions,
    )
    assert any("subscript" in d.lower() for d in validate(bad))


# -- round-trip property -----------------------------------------------------


@st.composite
def small_programs(draw):
    """Random valid programs: a 2-D buffer, two vectors, one loop nest."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    alpha = draw(st.floats(-4, 4, allow_nan=False).map(lambda f: round(f, 3)))
    use_scale = draw(st.booleans())
    use_offset_load = draw(st.booleans())
    flat_access = draw(st.booleans())

    if flat_access:
        a_decl = BufferDecl(name="A", extents=(m * n,))
        a_index = (AffineExpr(terms=(("i", n), ("k", 1)), offset=0),)
    else:
        a_decl = BufferDecl(name="A", extents=(m, n))
        a_index = (AffineExpr.of("i"), AffineExpr.of("k"))

    inner_body = [
        Load(dest="a", buffer="A", index=a_index),
        Load(
            dest="t",
            buffer="x",
            index=(AffineExpr.of("k", 1, 1 if use_offset_load else 0),),
        ),
    ]
    if use_scale:
        inner_body.append(BinOp(dest="w", op="mul", a=float(alpha), b="a"))
        inner_body.append(AccumUpdate(name="s", a="w", b="t"))
    else:
        inner_body.append(AccumUpdate(name="s", a="a", b="t"))

    nest = Loop(
        iv="i",
        lower=AffineExpr.const(0),
        upper=AffineExpr.const(m),
        body=(
            AccumInit(name="s", value=0.0),
            Loop(
                iv="k",
                lower=AffineExpr.const(0),
                upper=AffineExpr.const(n),
                body=tuple(inner_body),
            ),
            Store(buffer="y", index=(AffineExpr.of("i"),), value="s"),
        ),
    )
    return LoopProgram(
        buffers=(
            a_decl,
            BufferDecl(name="x", extents=(n + 1,)),
            BufferDecl(name="y", extents=(m,)),
        ),
        params=(),
        functions=(Function(name="f", body=(nest,)),),
    )


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_roundtrip_identity_property(prog):
    text = print_program(prog)
    reparsed = parse_program(text)
    assert reparsed == prog
    assert print_program(reparsed) == text
