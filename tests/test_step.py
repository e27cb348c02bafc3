"""The compiled step: when it runs, that it agrees with the closures, and what it refuses."""

import contextlib
import dataclasses
import gc
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from quantloop import intrinsics, native
from quantloop.cli import main
from quantloop.gemvpass import run_gemv_pass
from quantloop.kernels import bind, runtime_bound_check
from quantloop.loopir import Prepared, parse_program
from quantloop.quantizer import QuantConfig, quantize_matrix
from quantloop.runtime import (Engine, EngineStats, ModelConfig, make_toy_checkpoint,
                               quantize_checkpoint)
from quantloop.step import NoStep, build

from conftest import attention_program, needs_cc, packed_kernel, packed_kernels

#: 8 query heads of 32 sharing 4 KV heads, at the toy model's context.
GQA_CONFIG = ModelConfig(dim=256, hidden_dim=688, n_layers=2, n_heads=8, n_kv_heads=4,
                         vocab_size=512, max_seq_len=256)
#: Logits of the two paths may differ by this share of their largest
#: magnitude: the C ops sum in another order than numpy, and every sum here
#: has at most 688 terms, whose float32 rounding is bounded by 688 * 2**-24
#: (4.1e-5) of the summed magnitudes.
LOGIT_RTOL = 1e-5


@contextlib.contextmanager
def closures_only():
    """Engines built inside run every forward on the closures, on numpy."""
    loaded = native.load()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "load", lambda: dataclasses.replace(loaded, step=None))
        yield


@pytest.fixture(scope="module")
def gqa_paths(tmp_path_factory):
    ditf = tmp_path_factory.mktemp("gqa") / "gqa.ditf"
    make_toy_checkpoint(str(ditf), seed=5, config=GQA_CONFIG)
    ditq = ditf.with_suffix(".ditq")
    quantize_checkpoint(str(ditf), str(ditq))
    return {"ditf": str(ditf), "ditq": str(ditq)}


@pytest.fixture(params=["toy-ditf", "toy-ditq", "gqa-ditf", "gqa-ditq"])
def checkpoint(request, toy_float_path, toy_quant_path, gqa_paths):
    config, kind = request.param.split("-")
    if config == "toy":
        return toy_float_path if kind == "ditf" else toy_quant_path
    return gqa_paths[kind]


# -- agreement with the closures ---------------------------------------------------


@needs_cc
def test_compiled_step_agrees_with_the_closures_over_the_whole_context(checkpoint):
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            compiled = Engine(checkpoint)
            with closures_only():
                closures = Engine(checkpoint)
            assert compiled.step_status()["backend"] == "native"
            assert closures.step_status()["backend"] == "closures"
            # Both decode greedily from token 1; at every position the two paths see
            # the same history, so equal picks at each step make equal sequences.
            token = 1
            for pos in range(compiled.config.max_seq_len):
                expect = closures.forward(token, pos).copy()
                got = compiled.forward(token, pos)
                worst = float(np.abs(got - expect).max())
                assert worst <= LOGIT_RTOL * float(np.abs(expect).max()), (pos, worst)
                assert int(np.argmax(got)) == int(np.argmax(expect)), pos
                token = int(np.argmax(expect))
            assert compiled.step_status()["native_forwards"] == compiled.config.max_seq_len
            assert compiled.stats == closures.stats


@needs_cc
@pytest.mark.parametrize("config", ["toy", "gqa"])
def test_compiled_forward_allocates_nothing(config, toy_float_path, gqa_paths):
    # Attention scores go to one row the step owns, so even the longest
    # context allocates nothing on the Python heap.
    engine = Engine(toy_float_path if config == "toy" else gqa_paths["ditf"])
    last = engine.config.max_seq_len - 1
    engine.forward(1, last)  # warm up outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.forward(1, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.step_status()["native_forwards"] == 2
    assert peak - before == 0


def test_without_a_compiler_the_closures_give_the_same_tokens(toy_float_path, tmp_path,
                                                              monkeypatch):
    expect = Engine(toy_float_path).generate([1, 2, 3], steps=24).generated_tokens
    monkeypatch.setenv("PATH", str(tmp_path))
    native.load.cache_clear()
    try:
        engine = Engine(toy_float_path)
        assert engine.step_status()["reason"] == "no native runtime: no C compiler (cc) on PATH"
        assert engine.generate([1, 2, 3], steps=24).generated_tokens == expect
    finally:
        native.load.cache_clear()


# -- when the step runs compiled ---------------------------------------------------


@needs_cc
@pytest.mark.parametrize("kind, mode", [("ditf", "optimized"), ("ditq", "optimized"),
                                        ("ditf", "quantized")])
def test_decode_modes_run_compiled(kind, mode, toy_float_path, toy_quant_path):
    engine = Engine(toy_float_path if kind == "ditf" else toy_quant_path, mode=mode)
    engine.generate([1, 2], steps=3)
    assert engine.step_status() == {"backend": "native", "reason": None, "native_forwards": 5,
                                    "packed_kernel": native.load().packed_kernel}
    assert engine.stats.gemv_calls == 5 * 15
    assert engine.stats.quantized_gemv_calls == (0 if (kind, mode) == ("ditf", "optimized") else 75)


@needs_cc
@pytest.mark.parametrize("settings", [{"dual_check": True}, {"bound_threshold": 1e-3}])
def test_per_call_policies_run_compiled(settings, toy_float_path):
    engine = Engine(toy_float_path, mode="quantized", **settings)
    engine.generate([1], steps=2)
    assert engine.step_status() == {"backend": "native", "reason": None, "native_forwards": 3,
                                    "packed_kernel": native.load().packed_kernel}
    stats = engine.stats
    assert stats.gemv_calls == stats.quantized_gemv_calls == stats.bound_checks == 3 * 15
    assert stats.bound_violations == 0
    if "dual_check" in settings:
        assert stats.fallback_calls == 0 and 0 < stats.max_dual_diff <= stats.max_bound
    else:
        assert stats.fallback_calls > 0 and stats.max_dual_diff == 0


def test_the_policy_is_fixed_at_construction(toy_float_path):
    # The checked table is packed once; a later change would leave the step
    # checking with the old flags while the observations read the new ones.
    engine = Engine(toy_float_path, mode="quantized", dual_check=True)
    with pytest.raises(AttributeError):
        engine.dual_check = False
    with pytest.raises(AttributeError):
        engine.bound_threshold = 0.0
    assert engine.dual_check is True and engine.bound_threshold is None


def test_naive_mode_runs_the_closures(toy_float_path):
    status = Engine(toy_float_path, mode="naive").step_status()
    assert status["backend"] == "closures"
    assert "(Loop) has no C op" in status["reason"]


def test_naive_mode_never_loads_the_native_runtime(toy_float_path, monkeypatch):
    # The build reads every statement before it loads the runtime, and a
    # naive program's loop nests have no C op.
    def refuse():
        raise AssertionError("a naive engine loaded the native runtime")

    monkeypatch.setattr(native, "load", refuse)
    engine = Engine(toy_float_path, mode="naive")
    assert engine.step_status()["reason"] == "statement 2 (Loop) has no C op"
    engine.forward(1, 0)


@needs_cc
def test_an_observer_keeps_the_forward_compiled(toy_float_path):
    engine = Engine(toy_float_path, mode="quantized", dual_check=True)
    engine.forward(1, 0)
    observations, before = [], engine.stats.gemv_calls
    engine.gemv_observer = observations.append
    engine.forward(2, 1)
    assert engine.step_status() == {"backend": "native", "reason": None, "native_forwards": 2,
                                    "packed_kernel": native.load().packed_kernel}
    assert len(observations) == engine.stats.gemv_calls - before == 15
    assert all(0 <= o.diff_inf <= o.bound and not o.fallback for o in observations)
    engine.gemv_observer = None
    engine.forward(3, 2)
    assert len(observations) == 15 and engine.step_status()["native_forwards"] == 3
    assert engine.stats.gemv_calls == engine.stats.bound_checks == 3 * 15


@pytest.mark.parametrize("compiled", [True, False])
def test_an_observer_on_an_unchecked_engine_changes_nothing(compiled, toy_quant_path,
                                                            monkeypatch):
    # Checks are fixed when the engine is built: only a threshold or the
    # dual check turns them on, never an observer, on either path.
    if not compiled:
        monkeypatch.setattr(native, "load", lambda: native.Native(reason="closures under test"))
    plain, watched = Engine(toy_quant_path), Engine(toy_quant_path)
    observations = []
    watched.gemv_observer = observations.append
    expect, got = plain.generate([1], steps=3), watched.generate([1], steps=3)
    assert observations == []
    assert got.stats == expect.stats and got.stats.bound_checks == 0
    assert got.generated_tokens == expect.generated_tokens
    assert watched.step_status() == plain.step_status()
    np.testing.assert_array_equal(watched._env["logits"], plain._env["logits"])


@needs_cc
def test_a_handler_that_is_not_quantloops_own_runs_the_closures(toy_float_path, monkeypatch):
    # A tracer patches the module's handlers by name; the registry then holds
    # its wrapper, which the compiled step cannot stand in for.
    calls = []

    def traced(*args, _handler=intrinsics.rmsnorm_handler):
        calls.append(1)
        return _handler(*args)

    monkeypatch.setattr(intrinsics, "rmsnorm_handler", traced)
    engine = Engine(toy_float_path)
    assert "(rmsnorm) has a handler that is not quantloop's own" in engine.step_status()["reason"]
    engine.forward(1, 0)
    assert len(calls) == 5


@needs_cc
def test_bench_reports_that_the_compiled_step_ran(toy_float_path, capsys):
    assert main(["bench", toy_float_path, "--steps", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["step"] == {"backend": "native", "reason": None, "native_forwards": 4,
                              "packed_kernel": native.load().packed_kernel}


# -- the checked packed gemv: the engine's policy in C ------------------------------

#: The counters both paths must agree on exactly; the maxima differ by rounding.
COUNTS = ("gemv_calls", "quantized_gemv_calls", "bound_checks", "fallback_calls",
          "bound_violations")


def _observed(engine) -> list:
    observations = []
    engine.gemv_observer = observations.append
    return observations


def _assert_same_observations(got: list, expect: list) -> None:
    """Position by position: equal fallbacks, bounds within the rounding of the
    paths' x, gaps within float32 rounding."""
    assert len(got) == len(expect)
    for i, (g, e) in enumerate(zip(got, expect)):
        assert g.fallback == e.fallback, (i, g, e)
        assert (g.bound is None, g.diff_inf is None) == (e.bound is None, e.diff_inf is None)
        if e.bound is not None:
            assert g.bound == pytest.approx(e.bound, rel=1e-5), (i, g, e)
        if e.diff_inf is not None:
            assert abs(g.diff_inf - e.diff_inf) <= 1e-5 * max(1.0, e.bound), (i, g, e)


def _assert_same_ratio(got, expect) -> None:
    """The dual check's worst gap-to-bound ratio: within rounding on both paths, and in (0, 1]."""
    assert got.max_dual_ratio == pytest.approx(expect.max_dual_ratio, rel=1e-5)
    assert 0 < got.max_dual_ratio <= 1


def _decode_both(path: str, positions: int, **settings) -> tuple:
    """Greedy-decode `positions` tokens compiled and on the closures, checking each pick.

    Returns both engines and their observations.
    """
    compiled = Engine(path, mode="quantized", **settings)
    with closures_only():
        closures = Engine(path, mode="quantized", **settings)
    got, expect = _observed(compiled), _observed(closures)
    env = compiled._env
    token = 1
    for pos in range(positions):
        want = closures.forward(token, pos).copy()
        logits = compiled.forward(token, pos)
        worst = float(np.abs(logits - want).max())
        assert worst <= LOGIT_RTOL * float(np.abs(want).max()), (pos, worst)
        assert int(np.argmax(logits)) == int(np.argmax(want)), pos
        # The classifier's x is still the one its check read.
        bound = runtime_bound_check(env["classifier"], env["xb"])
        assert got[-1].bound == pytest.approx(bound, rel=1e-12, abs=0)
        token = int(np.argmax(want))
    assert compiled.step_status()["native_forwards"] == positions
    assert closures.step_status()["backend"] == "closures"
    return compiled, closures, got, expect


@needs_cc
@pytest.mark.parametrize("bits", [2, 3, 4, 8])
def test_dual_check_agrees_with_the_closures_over_the_whole_context(bits, toy_float_path):
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            compiled, closures, got, expect = _decode_both(toy_float_path, 256, bit_width=bits,
                                                           dual_check=True)
            for name in COUNTS:
                assert getattr(compiled.stats, name) == getattr(closures.stats, name), name
            assert compiled.stats.bound_checks == 256 * 15 and compiled.stats.bound_violations == 0
            assert 0 < compiled.stats.max_dual_diff <= compiled.stats.max_bound
            assert compiled.stats.max_bound == pytest.approx(closures.stats.max_bound, rel=1e-5)
            _assert_same_ratio(compiled.stats, closures.stats)
            _assert_same_observations(got, expect)


@needs_cc
def test_bound_fallback_agrees_with_the_closures(toy_float_path):
    # A threshold halfway between two of one forward's bounds sends some
    # calls to the float shadow and leaves the others on the dual check.
    probe = Engine(toy_float_path, mode="quantized", dual_check=True)
    observations = _observed(probe)
    probe.forward(1, 0)
    bounds = sorted(o.bound for o in observations)
    threshold = (bounds[6] + bounds[7]) / 2
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            compiled, closures, got, expect = _decode_both(
                toy_float_path, 64, dual_check=True, bound_threshold=threshold)
            for name in COUNTS:
                assert getattr(compiled.stats, name) == getattr(closures.stats, name), name
            assert 0 < compiled.stats.fallback_calls < compiled.stats.bound_checks
            _assert_same_ratio(compiled.stats, closures.stats)
            _assert_same_observations(got, expect)


@needs_cc
def test_compiled_dual_forward_allocates_nothing(toy_float_path):
    # The counters live in C, so they allocate no int object even past the
    # 256 that Python caches.
    engine = Engine(toy_float_path, mode="quantized", dual_check=True)
    last = engine.config.max_seq_len - 1
    for _ in range(300):  # warm up outside the measurement
        engine.forward(1, last)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.forward(1, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.step_status()["native_forwards"] == 301
    assert engine.stats.bound_checks == 301 * 15
    assert peak - before == 0


#: One gemv whose store is fl(fl(-1.5 s) + fl(0.5 y0)): the store's rounding
#: term and the old y's magnitude both enter the bound.
_AXPBY = """buffer A[64, 64]
buffer x[64]
buffer y[64]

func f {
  for i in 0..64 {
    acc s = 0.0
    for k in 0..64 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    load yv = y[i]
    let sb = 0.5 * yv
    let sa = -1.5 * s
    let tot = sb + sa
    store y[i] = tot
  }
}
"""


def _axpby_both(path: str, x: np.ndarray, **settings) -> dict:
    """The gemv of `_AXPBY` on one quantized matrix of a toy engine, both ways.

    Maps ``"compiled"`` and ``"closures"`` to (y, counters, observation,
    the bound :func:`runtime_bound_check` gives), the closures running the
    engine's own policy.
    """
    engine = Engine(path, mode="quantized", **settings)
    program = run_gemv_pass(parse_program(_AXPBY)).program
    (gemv,) = program.functions[0].body
    assert (gemv.args[4], gemv.args[9]) == (-1.5, 0.5)  # alpha and beta
    y0 = np.random.default_rng(4).normal(size=64).astype(np.float32)
    a = engine._env["l0_wq"]
    expect_bound = runtime_bound_check(a, x, alpha=-1.5, beta=0.5, y=y0)
    out = {}
    for way in ("compiled", "closures"):
        env = {"A": a, "x": x.copy(), "y": y0.copy()}
        prepared = Prepared(program, env, intrinsics={"gemv": engine._gemv},
                            bind_gemv=engine._bind_gemv)
        stats = EngineStats()
        step = build(prepared, {engine._gemv: "gemv"}, counts=stats,
                     threshold=engine.bound_threshold, dual=engine.dual_check)
        if way == "compiled":
            assert step(()) == 0
            bound, gap, fallback = step.observations[0].tolist()
            dual = engine.dual_check and not fallback
            out[way] = (env["y"], stats, (bound, gap if dual else None, bool(fallback)),
                        expect_bound)
        else:
            observations = _observed(engine)
            prepared.run()
            (obs,) = observations
            out[way] = (env["y"], engine.stats, (obs.bound, obs.diff_inf, obs.fallback),
                        expect_bound)
    return out


@needs_cc
@pytest.mark.parametrize("settings", [{"dual_check": True},
                                      {"dual_check": True, "bound_threshold": 1e-3}])
def test_checked_gemv_bounds_the_store_of_alpha_and_beta(settings, toy_float_path):
    x = np.random.default_rng(5).normal(size=64).astype(np.float32)
    both = _axpby_both(toy_float_path, x, **settings)
    (y, stats, (bound, gap, fallback), expect_bound), closures = both["compiled"], both["closures"]
    assert bound == pytest.approx(expect_bound, rel=1e-12, abs=0)
    assert fallback == closures[2][2] == ("bound_threshold" in settings)
    if fallback:
        assert gap is None is closures[2][1]
    else:
        assert 0 < gap <= bound and gap == pytest.approx(closures[2][1], abs=1e-6)
    np.testing.assert_allclose(y, closures[0], rtol=0, atol=1e-5 * float(np.abs(y).max()))
    for name in COUNTS:
        assert getattr(stats, name) == getattr(closures[1], name), name


def _lone_step(checked: bool) -> tuple:
    """A step of `_AXPBY` over a packed matrix, its y, and weak references to
    the prepared program, the matrix and the bound call's params.

    The checked step's gemv also has a float shadow, bound as
    :meth:`Engine._bind_gemv` binds one.  Nothing but the returned step and y
    is left referenced, so the call and its params are garbage once the step
    lets them go.
    """
    rng = np.random.default_rng(7)
    shadow = rng.normal(size=(64, 64)).astype(np.float32)
    q = quantize_matrix(shadow, QuantConfig(bit_width=3))
    calls = []

    def bind_gemv(*args):
        call = intrinsics.bind_gemv(*args)
        if checked:
            scratch = np.empty_like(call.y)
            call = dataclasses.replace(call, shadow=bind(shadow.reshape(-1), call.x, scratch,
                                                         call.params))
        calls.append(call)
        return call

    x, y = rng.normal(size=64).astype(np.float32), np.zeros(64, np.float32)
    prepared = Prepared(run_gemv_pass(parse_program(_AXPBY)).program, {"A": q, "x": x, "y": y},
                        bind_gemv=bind_gemv)
    step = build(prepared, dual=checked)
    (call,) = calls
    refs = [weakref.ref(o) for o in (prepared, q, call.params)]
    return step, y, refs


@needs_cc
@pytest.mark.parametrize("checked", [False, True])
def test_a_step_needs_nothing_but_itself_to_stay_valid(checked):
    step, y, refs = _lone_step(checked)
    y0 = np.random.default_rng(8).normal(size=64).astype(np.float32)

    def run() -> tuple:
        y[...] = y0
        assert step(()) == 0
        return y.tobytes(), step.observations.tobytes()

    expect = run()
    assert step.observations.shape == (1, 3)
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    # Reuse what the dropped objects freed, so a record that still pointed
    # into them would read these bytes.
    litter = [np.full(n, 0xFF, np.uint8) for n in (64 * 64 * 4, 64 * 4, 64 * 64, 8 * 4)
              for _ in range(16)]
    assert run() == expect
    bound, gap, fallback = step.observations[0].tolist()
    if checked:
        assert 0 < gap <= bound and not fallback
    else:  # an unchecked step writes no row
        assert bound == gap == fallback == 0
    del litter


@needs_cc
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("settings", [{"dual_check": True}, {"bound_threshold": 1e30}])
def test_checks_fail_closed_on_non_finite_x(bad, settings, toy_float_path):
    # Both paths are silent on non-finite data: a numpy warning is an error.
    x = np.random.default_rng(6).normal(size=64).astype(np.float32)
    x[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = _axpby_both(toy_float_path, x, **settings)
    for way, (y, stats, (bound, gap, fallback), _) in both.items():
        assert not bound <= 1e30, way
        assert stats.bound_checks == 1 and not stats.max_bound <= 1e30, way
        if "bound_threshold" in settings:  # a bound that is not finite falls back
            assert fallback and stats.fallback_calls == 1, way
        else:  # the gap is NaN, a violation, and kept
            assert gap != gap and stats.bound_violations == 1, way
            assert stats.max_dual_diff != stats.max_dual_diff, way
            assert stats.max_dual_ratio != stats.max_dual_ratio, way


@needs_cc
def test_verify_reports_that_the_compiled_step_ran(toy_float_path, capsys):
    assert main(["verify", toy_float_path, "--steps", "3", "--bits", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 0
    assert report["step"] == {"backend": "native", "reason": None, "native_forwards": 6,
                              "packed_kernel": native.load().packed_kernel}


# -- what the C ops refuse ---------------------------------------------------------


_BUFFERS = """buffer table[4, 8]
buffer x[8]
buffer q[8]
buffer k[8]
buffer v[8]
buffer att[8]
buffer k_cache[4, 8]
buffer v_cache[4, 8]
param token
param pos

func f {
"""


def _prepared(calls: str) -> tuple:
    program = parse_program(_BUFFERS + calls + "\n}\n")
    rng = np.random.default_rng(0)
    env = {d.name: rng.normal(size=d.extents).astype(np.float32) for d in program.buffers}
    env.update(token=1, pos=2)
    return Prepared(program, env), env


@pytest.mark.parametrize("call, error", [
    ("call attention(att, q, k, v, k_cache, v_cache, pos, 2, 2, 0)", "do not cover q"),
    ("call attention(att, q, k, v, k_cache, v_cache, pos, 4, 3, 2)", "reshape"),
    ("call attention(att, q, k, v, k_cache, v_cache, pos, 2, 2, 2)", "do not cover q"),
    ("call rope(q, k, pos, 4, 10)", "exceeds the 8 entries of k"),
    ("call rope(q, k, pos, 3, 8)", None),
    ("call rope(q, k, pos, 4, 7)", None),
    ("call rope(q, k, pos, pos, 8)", None),
    ("call rope(q, k, 9223372036854775808, 4, 8)", None),
])
def test_literals_the_c_op_cannot_take_keep_the_python_error(call, error):
    prepared, _ = _prepared(call)
    with pytest.raises(NoStep, match="statement 0"):
        build(prepared)
    if error is None:  # the handler runs; only the C op refuses
        prepared.run()
    else:
        with pytest.raises(ValueError, match=error):
            prepared.run()


@needs_cc
@pytest.mark.parametrize("params, error", [
    ({"token": 4, "pos": 0}, "token 4 out of vocabulary range 4"),
    ({"token": -1, "pos": 0}, "token -1 out of vocabulary range 4"),
    ({"token": 0, "pos": 4}, "index 4 is out of bounds"),
    ({"token": 0, "pos": -5}, "index -5 is out of bounds"),
])
def test_out_of_range_token_or_pos_writes_nothing(params, error):
    prepared, env = _prepared("call embed(x, table, token)\n"
                              "call attention(att, q, k, v, k_cache, v_cache, pos, 2, 2, 4)")
    step = build(prepared)
    assert step((0, 3)) == 0
    before = {name: value.copy() for name, value in env.items() if isinstance(value, np.ndarray)}
    assert step((params["token"], params["pos"])) != 0
    for name, value in before.items():
        np.testing.assert_array_equal(env[name], value, err_msg=name)
    # The closures then raise what the handler raises.
    env.update(params)
    with pytest.raises(IndexError, match=error):
        prepared.run()


@needs_cc
@pytest.mark.parametrize("head_size", [8, 12, 16, 32])
@pytest.mark.parametrize("group", [1, 2])
def test_attention_record_gives_the_same_bits_on_every_kernel(head_size, group):
    # 21 positions: whole blocks of 8 and leftovers, and positions 7, 8 and 9
    # score 8, 9 and 10 rows.  Each kernel fills the same cache from the same
    # q, k and v; every position's output must have the same bits on each,
    # and stay within float32 rounding of the closures'.
    rows, n_kv_heads = 21, 2
    n_heads, cols = n_kv_heads * group, n_kv_heads * head_size
    rng = np.random.default_rng(head_size + group)
    inputs = [{"q": rng.normal(size=n_heads * head_size).astype(np.float32) * 3,
               "k": rng.normal(size=cols).astype(np.float32) * 3,
               "v": rng.normal(size=cols).astype(np.float32)} for _ in range(rows)]

    def arrays() -> dict:
        shapes = {"att": n_heads * head_size, "q": n_heads * head_size, "k": cols, "v": cols,
                  "k_cache": (rows, cols), "v_cache": (rows, cols)}
        return {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}

    outputs = {}
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            env = arrays()
            step = build(attention_program(env, n_heads, n_kv_heads, head_size))
            outputs[kernel] = []
            for pos, values in enumerate(inputs):
                for name, value in values.items():
                    env[name][...] = value
                assert step((pos,)) == 0
                outputs[kernel].append(env["att"].copy())
    oracle = arrays()
    closures = attention_program(oracle, n_heads, n_kv_heads, head_size)
    for pos, values in enumerate(inputs):
        for name, value in values.items():
            oracle[name][...] = value
        oracle["pos"] = pos
        closures.run()
        expect = outputs["portable"][pos]
        np.testing.assert_allclose(expect, oracle["att"], rtol=1e-5, atol=1e-5,
                                   err_msg=f"pos={pos}")
        for kernel, got in outputs.items():
            np.testing.assert_array_equal(got[pos].view(np.int32), expect.view(np.int32),
                                          err_msg=f"{kernel} pos={pos}")
