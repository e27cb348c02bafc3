"""The compiled step: when it runs, that it agrees with the closures, and what it refuses."""

import contextlib
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from quantloop import intrinsics, native
from quantloop.cli import main
from quantloop.loopir import Prepared, parse_program
from quantloop.runtime import Engine, ModelConfig, make_toy_checkpoint, quantize_checkpoint
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


@pytest.mark.parametrize("settings", [{"dual_check": True}, {"bound_threshold": 1e-3}])
def test_per_call_policies_build_no_step(settings, toy_float_path):
    engine = Engine(toy_float_path, mode="quantized", **settings)
    engine.generate([1], steps=2)
    status = engine.step_status()
    assert status["backend"] == "closures" and status["native_forwards"] == 0
    assert "runs each gemv call" in status["reason"]


def test_naive_mode_runs_the_closures(toy_float_path):
    status = Engine(toy_float_path, mode="naive").step_status()
    assert status["backend"] == "closures"
    assert "(Loop) has no C op" in status["reason"]


@needs_cc
def test_an_observer_moves_the_next_forward_to_the_closures(toy_float_path):
    engine = Engine(toy_float_path)
    engine.forward(1, 0)
    observations = []
    engine.gemv_observer = observations.append
    assert engine.step_status()["reason"] == "a gemv observer needs each gemv call"
    engine.forward(2, 1)
    assert len(observations) == 15 and engine.step_status()["native_forwards"] == 1
    engine.gemv_observer = None
    engine.forward(3, 2)
    assert len(observations) == 15 and engine.step_status()["native_forwards"] == 2
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
