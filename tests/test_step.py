"""The compiled step: when it runs, that it agrees with the closures, and what it refuses."""

import contextlib
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from quantloop import intrinsics, native
from quantloop.cli import main
from quantloop.gemvpass import run_gemv_pass
from quantloop.kernels import runtime_bound_check
from quantloop.loopir import Prepared, parse_program
from quantloop.runtime import (Engine, EngineStats, ModelConfig, make_toy_checkpoint,
                               quantize_checkpoint)
from quantloop.step import COMPILED_OPS

from conftest import needs_cc

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
    """Engines built inside run their step on the closures, with the same packed kernel."""
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
    assert engine.step_status() == {"backend": "native", "reason": None, "native_forwards": 5}
    assert engine.stats.gemv_calls == 5 * 15
    assert engine.stats.quantized_gemv_calls == (0 if (kind, mode) == ("ditf", "optimized") else 75)


@needs_cc
@pytest.mark.parametrize("settings", [{"dual_check": True}, {"bound_threshold": 1e-3}])
def test_per_call_policies_run_compiled(settings, toy_float_path):
    engine = Engine(toy_float_path, mode="quantized", **settings)
    engine.generate([1], steps=2)
    assert engine.step_status() == {"backend": "native", "reason": None, "native_forwards": 3}
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


@needs_cc
def test_an_observer_keeps_the_forward_compiled(toy_float_path):
    engine = Engine(toy_float_path)
    engine.forward(1, 0)
    observations = []
    engine.gemv_observer = observations.append
    engine.forward(2, 1)
    assert engine.step_status() == {"backend": "native", "reason": None, "native_forwards": 2}
    assert [o.seq for o in observations] == list(range(16, 31))
    assert all(o.epsilon is o.bound is o.diff_inf is None and not o.fallback
               for o in observations)
    engine.gemv_observer = None
    engine.forward(3, 2)
    assert len(observations) == 15 and engine.step_status()["native_forwards"] == 3
    assert engine.stats.gemv_calls == 3 * 15


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
    assert report["step"] == {"backend": "native", "reason": None, "native_forwards": 4}


# -- the checked packed gemv: the engine's policy in C ------------------------------

#: The counters both paths must agree on exactly; the maxima differ by rounding.
COUNTS = ("gemv_calls", "quantized_gemv_calls", "bound_checks", "fallback_calls",
          "bound_violations")


def _observed(engine) -> list:
    observations = []
    engine.gemv_observer = observations.append
    return observations


def _assert_same_observations(got: list, expect: list) -> None:
    """Equal fields; bounds within the rounding of the paths' x, gaps within float32 rounding."""
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert (g.seq, g.m, g.n, g.alpha, g.beta, g.epsilon, g.fallback) == (
            e.seq, e.m, e.n, e.alpha, e.beta, e.epsilon, e.fallback), (g, e)
        assert (g.bound is None, g.diff_inf is None) == (e.bound is None, e.diff_inf is None)
        if e.bound is not None:
            assert g.bound == pytest.approx(e.bound, rel=1e-5), (g, e)
        if e.diff_inf is not None:
            assert abs(g.diff_inf - e.diff_inf) <= 1e-5 * max(1.0, e.bound), (g, e)


def _decode_both(path: str, positions: int, **settings) -> tuple:
    """Greedy-decode `positions` tokens compiled and on the closures, checking each pick.

    Returns both engines and their observations.
    """
    compiled = Engine(path, mode="quantized", **settings)
    with closures_only():
        closures = Engine(path, mode="quantized", **settings)
    got, expect = _observed(compiled), _observed(closures)
    classifier = compiled._step.calls[-1]
    token = 1
    for pos in range(positions):
        want = closures.forward(token, pos).copy()
        logits = compiled.forward(token, pos)
        worst = float(np.abs(logits - want).max())
        assert worst <= LOGIT_RTOL * float(np.abs(want).max()), (pos, worst)
        assert int(np.argmax(logits)) == int(np.argmax(want)), pos
        # The classifier's x is still the one its check read.
        p = classifier.params
        bound = runtime_bound_check(classifier.a, classifier.x_eff, alpha=p.alpha,
                                    beta=p.beta).inf_bound
        assert got[-1].bound == pytest.approx(bound, rel=1e-12, abs=0)
        token = int(np.argmax(want))
    assert compiled.step_status()["native_forwards"] == positions
    assert closures.step_status()["backend"] == "closures"
    return compiled, closures, got, expect


@needs_cc
@pytest.mark.parametrize("bits", [2, 3, 4, 8])
def test_dual_check_agrees_with_the_closures_over_the_whole_context(bits, toy_float_path):
    compiled, closures, got, expect = _decode_both(toy_float_path, 256, bit_width=bits,
                                                   dual_check=True)
    for name in COUNTS:
        assert getattr(compiled.stats, name) == getattr(closures.stats, name), name
    assert compiled.stats.bound_checks == 256 * 15 and compiled.stats.bound_violations == 0
    assert 0 < compiled.stats.max_dual_diff <= compiled.stats.max_bound
    assert compiled.stats.max_bound == pytest.approx(closures.stats.max_bound, rel=1e-5)
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
    compiled, closures, got, expect = _decode_both(
        toy_float_path, 64, dual_check=True, bound_threshold=threshold)
    for name in COUNTS:
        assert getattr(compiled.stats, name) == getattr(closures.stats, name), name
    assert 0 < compiled.stats.fallback_calls < compiled.stats.bound_checks
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

    Maps ``"compiled"`` and ``"closures"`` to (y, counters, observation),
    the closures running the engine's own policy.
    """
    engine = Engine(path, mode="quantized", **settings)
    program = run_gemv_pass(parse_program(_AXPBY)).program
    y0 = np.random.default_rng(4).normal(size=64).astype(np.float32)
    out = {}
    for way in ("compiled", "closures"):
        env = {"A": engine._env["l0_wq"], "x": x.copy(), "y": y0.copy()}
        prepared = Prepared(program, env, intrinsics={"gemv": engine._gemv},
                            bind_gemv=engine._bind_gemv, compiled_ops={engine._gemv: "gemv"})
        step = prepared.step
        assert step is not None, prepared.step_reason
        if way == "compiled":
            stats = EngineStats()
            step.count_into(stats, engine.bound_threshold, engine.dual_check)
            assert step((), True) == 0
            bound, gap, fallback = step.observations[0].tolist()
            dual = engine.dual_check and not fallback
            out[way] = env["y"], stats, (bound, gap if dual else None, bool(fallback))
        else:
            observations = _observed(engine)
            prepared.run()
            (obs,) = observations
            out[way] = env["y"], engine.stats, (obs.bound, obs.diff_inf, obs.fallback)
        (call,) = step.calls
        assert (call.params.alpha, call.params.beta) == (-1.5, 0.5)
        out[way] += (runtime_bound_check(call.a, x, alpha=-1.5, beta=0.5, y=y0).inf_bound,)
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


@needs_cc
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("settings", [{"dual_check": True}, {"bound_threshold": 1e30}])
def test_checks_fail_closed_on_non_finite_x(bad, settings, toy_float_path):
    x = np.random.default_rng(6).normal(size=64).astype(np.float32)
    x[7] = bad
    for way, (y, stats, (bound, gap, fallback), _) in _axpby_both(
            toy_float_path, x, **settings).items():
        assert not bound <= 1e30, way
        assert stats.bound_checks == 1 and not stats.max_bound <= 1e30, way
        if "bound_threshold" in settings:  # a bound that is not finite falls back
            assert fallback and stats.fallback_calls == 1, way
        else:  # the gap is NaN, a violation, and kept
            assert gap != gap and stats.bound_violations == 1, way
            assert stats.max_dual_diff != stats.max_dual_diff, way


@needs_cc
def test_verify_reports_that_the_compiled_step_ran(toy_float_path, capsys):
    assert main(["verify", toy_float_path, "--steps", "3", "--bits", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 0
    assert report["step"] == {"backend": "native", "reason": None, "native_forwards": 6}


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
    return Prepared(program, env, compiled_ops=COMPILED_OPS), env


@needs_cc
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
    assert prepared.step is None and "statement 0" in prepared.step_reason, prepared.step_reason
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
    step = prepared.step
    assert step is not None, prepared.step_reason
    assert step((0, 3)) == 0
    before = {name: value.copy() for name, value in env.items() if isinstance(value, np.ndarray)}
    assert step((params["token"], params["pos"])) != 0
    for name, value in before.items():
        np.testing.assert_array_equal(env[name], value, err_msg=name)
    # The closures then raise what the handler raises.
    env.update(params)
    with pytest.raises(IndexError, match=error):
        prepared.run()
