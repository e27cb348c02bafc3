import numpy as np
import pytest

from quantloop.gemvpass import (
    MatchFailure,
    SkipReason,
    check_legality,
    match_array_access,
    run_gemv_pass,
)
from quantloop.loopir import (
    AffineExpr,
    BufferDecl,
    Function,
    IntrinsicCall,
    Load,
    Loop,
    LoopProgram,
    NonAffineExpr,
    Store,
    TrapError,
    interpret,
    parse_program,
    print_program,
)
from quantloop.runtime import TOY_CONFIG, synthesize_forward_program, gemv_nest_count

from conftest import assert_elementwise_close, gemv_scale


def canonical(m=4, n=3, store_line="store y[i] = s", extra_outer="", extra_inner="",
              a_decl=None, a_index="A[i, k]", x_index="x[k]", x_ext=None):
    a_decl = a_decl or f"buffer A[{m}, {n}]"
    x_ext = x_ext if x_ext is not None else n
    inner_extra = f"\n      {extra_inner}" if extra_inner else ""
    outer_extra = f"\n    {extra_outer}" if extra_outer else ""
    return f"""\
{a_decl}
buffer x[{x_ext}]
buffer y[{m}]
buffer z[{m}]

func f {{
  for i in 0..{m} {{
    acc s = 0.0
    for k in 0..{n} {{
      load a = {a_index}
      load t = {x_index}
      update s += a * t{inner_extra}
    }}{outer_extra}
    {store_line}
  }}
}}
"""


def single_skip_reason(program) -> tuple:
    result = run_gemv_pass(program)
    records = result.records
    assert len(records) == 1
    rec = records[0]
    assert rec.status == "skipped"
    return rec.reason, rec.detail


# -- access-form matcher -----------------------------------------------------


def test_access_two_index_row_major():
    got = match_array_access(
        (AffineExpr.of("i"), AffineExpr.of("k")), "i", "k", (4, 7)
    )
    assert (got.layout, got.lda) == ("RM", 7)


def test_access_two_index_col_major():
    got = match_array_access(
        (AffineExpr.of("k"), AffineExpr.of("i")), "i", "k", (9, 5)
    )
    assert (got.layout, got.lda) == ("CM", 5)


def test_access_flat_row_major():
    got = match_array_access(
        (AffineExpr(terms=(("i", 7), ("k", 1)), offset=0),), "i", "k", (28,)
    )
    assert (got.layout, got.lda) == ("RM", 7)


def test_access_flat_col_major():
    got = match_array_access(
        (AffineExpr(terms=(("k", 6), ("i", 1)), offset=0),), "i", "k", (24,)
    )
    assert (got.layout, got.lda) == ("CM", 6)


def test_access_flat_symbolic_ld():
    got = match_array_access(
        (AffineExpr(terms=(("i", "ld"), ("k", 1)), offset=0),), "i", "k", (64,)
    )
    assert (got.layout, got.lda) == ("RM", "ld")


def test_access_product_of_ivs_is_non_affine():
    with pytest.raises(MatchFailure) as exc:
        match_array_access((NonAffineExpr(text="i * k"),), "i", "k", (16,))
    assert exc.value.reason is SkipReason.NON_AFFINE


def test_access_wrong_ivs_is_non_affine():
    with pytest.raises(MatchFailure) as exc:
        match_array_access((AffineExpr.of("j"), AffineExpr.of("k")), "i", "k", (4, 4))
    assert exc.value.reason is SkipReason.NON_AFFINE


def test_access_both_coefficients_non_unit_is_layout_unknown():
    with pytest.raises(MatchFailure) as exc:
        match_array_access(
            (AffineExpr(terms=(("i", 2), ("k", 3)), offset=0),), "i", "k", (24,)
        )
    assert exc.value.reason is SkipReason.LAYOUT_UNKNOWN


def test_access_nonzero_offset_is_layout_unknown():
    with pytest.raises(MatchFailure) as exc:
        match_array_access(
            (AffineExpr(terms=(("i", 3), ("k", 1)), offset=5),), "i", "k", (40,)
        )
    assert exc.value.reason is SkipReason.LAYOUT_UNKNOWN


# -- whole-nest matching: positive forms ---------------------------------------


def test_match_plain_store():
    prog = parse_program(canonical())
    cands = run_gemv_pass(prog).candidates
    assert len(cands) == 1
    c = cands[0]
    assert (c.matrix, c.vector, c.output) == ("A", "x", "y")
    assert (c.m, c.n, c.lda, c.layout) == (4, 3, 3, "RM")
    assert (c.alpha, c.beta) == (1.0, 0.0)


def test_match_scaled_store():
    prog = parse_program(
        canonical(extra_outer="let w = 2.5 * s", store_line="store y[i] = w")
    )
    cands = run_gemv_pass(prog).candidates
    assert len(cands) == 1
    assert (cands[0].alpha, cands[0].beta) == (2.5, 0.0)


def test_match_accumulate_into_output():
    src = canonical(
        extra_outer="load yv = y[i]\n    let sb = 0.5 * yv\n    let sa = 3.0 * s\n    let tot = sb + sa",
        store_line="store y[i] = tot",
    )
    prog = parse_program(src)
    cands = run_gemv_pass(prog).candidates
    assert len(cands) == 1
    assert (cands[0].alpha, cands[0].beta) == (3.0, 0.5)


def test_match_scaled_reduction_factor():
    src = canonical(
        extra_inner="",
    ).replace(
        "update s += a * t",
        "let w = 2.0 * a\n      update s += w * t",
    )
    prog = parse_program(src)
    cands = run_gemv_pass(prog).candidates
    assert len(cands) == 1
    assert cands[0].alpha == 2.0


def test_match_col_major_two_index():
    src = canonical(a_decl="buffer A[3, 4]", a_index="A[k, i]")
    prog = parse_program(src)
    cands = run_gemv_pass(prog).candidates
    assert len(cands) == 1
    assert (cands[0].layout, cands[0].lda) == ("CM", 4)


def test_match_flat_symbolic_lda():
    src = """\
buffer A[12]
buffer x[3]
buffer y[4]
param ld

func f {
  for i in 0..4 {
    acc s = 0.0
    for k in 0..3 {
      load a = A[i * ld + k]
      load t = x[k]
      update s += a * t
    }
    store y[i] = s
  }
}
"""
    prog = parse_program(src)
    cands = run_gemv_pass(prog).candidates
    assert len(cands) == 1
    assert cands[0].lda == "ld"
    check_legality(cands[0], prog)  # raises MatchFailure when illegal


# -- negative corpus: one reason code per defect -------------------------------


def test_skip_depth_one_loop():
    src = """\
buffer x[4]
buffer y[4]

func f {
  for i in 0..4 {
    load a = x[i]
    store y[i] = a
  }
}
"""
    reason, _ = single_skip_reason(parse_program(src))
    assert reason == "not-deep-enough"


def test_skip_extra_store():
    prog = parse_program(
        canonical(extra_outer="store z[i] = s", store_line="store y[i] = s")
    )
    reason, detail = single_skip_reason(prog)
    assert reason == "extra-side-effect"
    assert "store" in detail.lower()


def test_skip_unused_extra_load():
    prog = parse_program(canonical(extra_inner="load u = z[i]"))
    reason, detail = single_skip_reason(prog)
    assert reason == "extra-side-effect"
    assert print_program(run_gemv_pass(prog).program) == print_program(prog)


def test_skip_non_affine_index():
    # The parser refuses to produce this, so build the nest in memory.
    base = parse_program(canonical())
    fn = base.functions[0]
    nest = fn.body[0]
    inner = nest.body[1]
    bad_load = Load(dest="a", buffer="A", index=(NonAffineExpr(text="i * k"),))
    new_inner = Loop(
        iv=inner.iv, lower=inner.lower, upper=inner.upper,
        body=(bad_load,) + inner.body[1:],
    )
    new_nest = Loop(
        iv=nest.iv, lower=nest.lower, upper=nest.upper,
        body=(nest.body[0], new_inner) + nest.body[2:],
    )
    prog = LoopProgram(
        buffers=base.buffers,
        params=base.params,
        functions=(Function(name="f", body=(new_nest,)),),
    )
    reason, _ = single_skip_reason(prog)
    assert reason == "non-affine"


def test_skip_aliased_operands():
    src = """\
buffer A[4, 4]
buffer x[4]

func f {
  for i in 0..4 {
    acc s = 0.0
    for k in 0..4 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    store x[i] = s
  }
}
"""
    reason, detail = single_skip_reason(parse_program(src))
    assert reason == "extra-side-effect"
    assert "alias" in detail


def test_skip_strided_vector():
    prog = parse_program(canonical(x_index="x[k * 2]", x_ext=8))
    reason, _ = single_skip_reason(prog)
    assert reason == "strided"


def test_skip_offset_vector():
    prog = parse_program(canonical(x_index="x[k + 1]", x_ext=8))
    reason, _ = single_skip_reason(prog)
    assert reason == "strided"


def test_skip_strided_output():
    src = canonical(store_line="store z[i * 2] = s").replace(
        "buffer z[4]", "buffer z[8]"
    )
    reason, _ = single_skip_reason(parse_program(src))
    assert reason == "strided"


def test_skip_layout_unknown_access():
    src = canonical(a_decl="buffer A[24]", a_index="A[i * 2 + k * 3]")
    reason, _ = single_skip_reason(parse_program(src))
    assert reason == "layout-unknown"


def test_skip_small_leading_dimension():
    # Flat row-major access with lda=2 but a reduction width of 3: the
    # footprint is affine but cannot be a dense GEMV operand.
    src = """\
buffer A[8]
buffer x[3]
buffer y[2]

func f {
  for i in 0..2 {
    acc s = 0.0
    for k in 0..3 {
      load a = A[i * 2 + k]
      load t = x[k]
      update s += a * t
    }
    store y[i] = s
  }
}
"""
    reason, detail = single_skip_reason(parse_program(src))
    assert reason == "layout-unknown"
    assert "leading dimension" in detail


def test_skip_three_deep_nest():
    src = """\
buffer A[4, 4]
buffer x[4]
buffer y[4]

func f {
  for i in 0..4 {
    acc s = 0.0
    for k in 0..4 {
      for j in 0..2 {
        load a = A[i, k]
        load t = x[k]
        update s += a * t
      }
    }
    store y[i] = s
  }
}
"""
    reason, _ = single_skip_reason(parse_program(src))
    assert reason == "extra-side-effect"


def test_skip_non_constant_bounds():
    src = """\
buffer A[4, 4]
buffer x[4]
buffer y[4]
param n

func f {
  for i in 0..n {
    acc s = 0.0
    for k in 0..4 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    store y[i] = s
  }
}
"""
    reason, _ = single_skip_reason(parse_program(src))
    assert reason == "symbolic-trip-count"


@pytest.mark.parametrize("bounds, want", [
    ("n..4", "symbolic-trip-count"),
    ("0..n + 1", "symbolic-trip-count"),
    ("1..4", "non-affine"),
    ("0..0", "non-affine"),
    (None, "non-affine"),
])
def test_skip_reason_of_loop_bounds(bounds, want):
    src = canonical().replace("buffer z[4]\n", "buffer z[4]\nparam n\n")
    if bounds is None:  # a bound the parser cannot produce: built directly
        prog = parse_program(src)
        nest = prog.functions[0].body[0]
        nest = Loop(iv=nest.iv, lower=nest.lower, upper=NonAffineExpr(text="n * n"),
                    body=nest.body)
        prog = LoopProgram(buffers=prog.buffers, params=prog.params,
                           functions=(Function(name="f", body=(nest,)),))
    else:
        prog = parse_program(src.replace("for i in 0..4", f"for i in {bounds}"))
    reason, _ = single_skip_reason(prog)
    assert reason == want


def test_skip_nonzero_accumulator_init():
    prog = parse_program(canonical().replace("acc s = 0.0", "acc s = 1.0"))
    reason, _ = single_skip_reason(prog)
    assert reason == "non-affine"


# -- rewriting ----------------------------------------------------------------


def test_rewrite_replaces_nest_with_call():
    prog = parse_program(canonical())
    result = run_gemv_pass(prog)
    fn = result.program.functions[0]
    assert len(fn.body) == 1
    call = fn.body[0]
    assert isinstance(call, IntrinsicCall) and call.name == "gemv"
    assert call.args == ("RM", "NT", 4, 3, 1.0, "A", 3, "x", 1, 0.0, "y", 1)


def test_rejected_nests_are_byte_identical():
    negatives = canonical(extra_outer="store z[i] = s", store_line="store y[i] = s")
    prog = parse_program(negatives)
    result = run_gemv_pass(prog)
    assert print_program(result.program) == print_program(prog)


def test_pass_is_idempotent():
    prog = parse_program(canonical())
    once = run_gemv_pass(prog)
    twice = run_gemv_pass(once.program)
    assert twice.report()["matched"] == 0
    assert print_program(twice.program) == print_program(once.program)


def test_report_covers_every_nest_once():
    program = synthesize_forward_program(TOY_CONFIG)
    result = run_gemv_pass(program)
    report = result.report()
    assert report["nests_scanned"] == report["matched"] + report["skipped"]
    top_level_loops = sum(
        isinstance(s, Loop) for fn in program.functions for s in fn.body
    )
    assert report["nests_scanned"] == top_level_loops
    import json

    json.dumps(report)  # must be JSON-serializable as-is


def test_toy_program_matches_all_gemv_nests():
    program = synthesize_forward_program(TOY_CONFIG)
    result = run_gemv_pass(program)
    report = result.report()
    assert report["matched"] == gemv_nest_count(TOY_CONFIG) == 15
    reasons = {
        r["reason"] for r in report["records"] if r["status"] == "skipped"
    }
    assert reasons == {"not-deep-enough"}  # the elementwise depth-1 loops
    # No loop nest survives in the optimized text; all GEMVs are calls.
    text = print_program(result.program)
    assert text.count("call gemv(") == 15
    assert "update" not in text


def _fresh_env(rng, prog):
    return {
        b.name: rng.normal(size=b.extents).astype(np.float32) for b in prog.buffers
    }


def test_scalar_read_after_nest_is_skipped():
    # The gemv call defines no scalars, so a later read of `s` would break.
    src = canonical().replace(
        "    store y[i] = s\n  }\n", "    store y[i] = s\n  }\n  store z[0] = s\n"
    )
    prog = parse_program(src)
    reason, detail = single_skip_reason(prog)
    assert reason == "extra-side-effect"
    assert "'s'" in detail and "outside" in detail
    result = run_gemv_pass(prog)
    assert print_program(result.program) == print_program(prog)

    env = _fresh_env(np.random.default_rng(3), prog)
    before = interpret(prog, {k: v.copy() for k, v in env.items()})
    after = interpret(result.program, {k: v.copy() for k, v in env.items()})
    for name in env:
        np.testing.assert_array_equal(after[name], before[name])


def test_skipped_nest_keeps_its_trap():
    # A dead out-of-range load still traps: the pass deletes nothing.
    src = """\
buffer z[4]
buffer y[4]

func f {
  for d in 0..4 {
    load dead = z[d + 4]
    store y[d] = 1.0
  }
}
"""
    prog = parse_program(src)
    result = run_gemv_pass(prog)
    assert [r.reason for r in result.records] == ["not-deep-enough"]
    env = _fresh_env(np.random.default_rng(4), prog)
    for program in (prog, result.program):
        with pytest.raises(TrapError):
            interpret(program, {k: v.copy() for k, v in env.items()})


# -- numeric soundness --------------------------------------------------------


def _random_case(rng):
    """One random GEMV-shaped program plus matching numeric inputs."""
    m = int(rng.integers(1, 33))
    n = int(rng.integers(1, 33))
    form = rng.choice(["rm2", "cm2", "flat", "sym"])
    alpha_red = float(rng.choice([1.0, 2.0, -0.5]))
    store_form = rng.choice(["plain", "scaled", "accum"])

    if form == "rm2":
        a_decl, a_index = f"buffer A[{m}, {n}]", "A[i, k]"
    elif form == "cm2":
        a_decl, a_index = f"buffer A[{n}, {m}]", "A[k, i]"
    elif form == "flat":
        a_decl, a_index = f"buffer A[{m * n}]", f"A[i * {n} + k]"
    else:
        a_decl, a_index = f"buffer A[{m * n}]", "A[i * ld + k]"

    if alpha_red == 1.0:
        update = "update s += a * t"
    else:
        update = f"let w = {alpha_red} * a\n      update s += w * t"

    if store_form == "plain":
        outer, store = "", "store y[i] = s"
        alpha_store, beta = 1.0, 0.0
    elif store_form == "scaled":
        outer, store = "let v = 1.5 * s", "store y[i] = v"
        alpha_store, beta = 1.5, 0.0
    else:
        outer = "load y0 = y[i]\n    let yb = 0.25 * y0\n    let sa = 2.0 * s\n    let v = yb + sa"
        store = "store y[i] = v"
        alpha_store, beta = 2.0, 0.25

    param_line = "param ld\n" if form == "sym" else ""
    outer_block = f"\n    {outer}" if outer else ""
    src = f"""\
{a_decl}
buffer x[{n}]
buffer y[{m}]
{param_line}
func f {{
  for i in 0..{m} {{
    acc s = 0.0
    for k in 0..{n} {{
      load a = {a_index}
      load t = x[k]
      {update}
    }}{outer_block}
    {store}
  }}
}}
"""
    prog = parse_program(src)
    if form == "rm2":
        a_shape, layout, lda = (m, n), "RM", n
    elif form == "cm2":
        a_shape, layout, lda = (n, m), "CM", m
    else:
        a_shape, layout, lda = (m * n,), "RM", n

    env = {
        "A": rng.normal(size=a_shape).astype(np.float32),
        "x": rng.normal(size=n).astype(np.float32),
        "y": rng.normal(size=m).astype(np.float32),
    }
    if form == "sym":
        env["ld"] = n
    expected_alpha = alpha_red * alpha_store
    return prog, env, (layout, lda, m, n, expected_alpha, beta)


def test_pass_soundness_over_random_programs():
    rng = np.random.default_rng(2024)
    matched = 0
    for case in range(120):
        prog, env, (layout, lda, m, n, alpha, beta) = _random_case(rng)
        result = run_gemv_pass(prog)
        assert result.report()["matched"] == 1, f"case {case} did not match"
        cand = result.candidates[0]
        assert cand.alpha == pytest.approx(alpha)
        assert cand.beta == pytest.approx(beta)
        matched += 1

        env_ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}
        env_opt = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}
        interpret(prog, env_ref)
        interpret(result.program, env_opt)
        scale = gemv_scale(
            env["A"].reshape(-1), env["x"], env["y"],
            layout, "NT", m, n, alpha, beta, lda,
        )
        assert_elementwise_close(
            env_opt["y"], env_ref["y"], scale, 1e-5, f"case {case}"
        )
    assert matched == 120
