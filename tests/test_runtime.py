import dataclasses
import json
import struct

import numpy as np
import pytest

from quantloop.bitcodec import PackedBuffer
from quantloop.cli import main
from quantloop.loopir import Loop, Prepared, parse_program, print_program, validate
from quantloop.quantizer import QuantizedMatrix, dequantize
from quantloop.runtime import (
    TOY_CONFIG,
    Engine,
    EngineStats,
    ExtentMismatchError,
    GemvObservation,
    InvalidHeaderError,
    InvalidRecordError,
    ModelConfig,
    TruncatedCheckpointError,
    gemv_flops_per_token,
    gemv_nest_count,
    make_toy_checkpoint,
    param_count,
    quantize_checkpoint,
    quantized_record_size,
    read_float_checkpoint,
    read_quantized_checkpoint,
    serialize_record,
    sniff_magic,
    synthesize_forward_program,
    tensor_shapes,
    verify_bounds,
    write_float_checkpoint,
    write_quantized_checkpoint,
)
from quantloop.runtime.checkpoint import FLOAT_MAGIC, QUANT_MAGIC
from quantloop.runtime.rng import SplitMix64, tensor_fill

from conftest import assert_elementwise_close


# -- deterministic fill -------------------------------------------------------


def _splitmix64_reference(seed: int):
    """Scalar reference straight from the published update/mix constants."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def test_splitmix64_matches_scalar_reference():
    ref = _splitmix64_reference(12345)
    rng = SplitMix64(12345)
    for _ in range(200):
        assert rng.next_u64() == next(ref)


def test_fill_uniform_matches_scalar_stream():
    scalar = SplitMix64(99)
    vector = SplitMix64(99)
    want = np.array(
        [scalar.next_float() for _ in range(777)], dtype=np.float64
    ).astype(np.float32)
    got = vector.fill_uniform(777)
    assert np.array_equal(got, want)
    assert scalar._state == vector._state  # same stream positions consumed


def test_fill_uniform_is_resumable():
    whole = SplitMix64(7).fill_uniform(100)
    split = SplitMix64(7)
    parts = np.concatenate([split.fill_uniform(33), split.fill_uniform(67)])
    assert np.array_equal(whole, parts)


def test_tensor_fill_deterministic_and_name_keyed():
    a1 = tensor_fill(0, "tok_emb", 128, 0.5)
    a2 = tensor_fill(0, "tok_emb", 128, 0.5)
    b = tensor_fill(0, "classifier", 128, 0.5)
    c = tensor_fill(1, "tok_emb", 128, 0.5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    assert a1.dtype == np.float32
    assert np.all(a1 >= -0.5) and np.all(a1 < 0.5)


# -- model config -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(dim=0, hidden_dim=4, n_layers=1, n_heads=1, n_kv_heads=1,
                    vocab_size=4, max_seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(dim=10, hidden_dim=4, n_layers=1, n_heads=3, n_kv_heads=1,
                    vocab_size=4, max_seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(dim=12, hidden_dim=4, n_layers=1, n_heads=4, n_kv_heads=3,
                    vocab_size=4, max_seq_len=4)
    # head_size 3: rope's pairs would straddle two heads.
    with pytest.raises(ValueError, match="head_size"):
        ModelConfig(dim=12, hidden_dim=8, n_layers=1, n_heads=4, n_kv_heads=1,
                    vocab_size=8, max_seq_len=4)
    # A 2 GiB KV cache is refused where the config is built, so a writer
    # cannot save a header that the readers then refuse.
    with pytest.raises(ValueError, match="KV"):
        ModelConfig(dim=8, hidden_dim=8, n_layers=1, n_heads=2, n_kv_heads=2,
                    vocab_size=8, max_seq_len=1 << 25)


def test_toy_config_tensor_inventory():
    shapes = tensor_shapes(TOY_CONFIG)
    names = [n for n, _ in shapes]
    assert names[0] == "tok_emb" and names[-1] == "classifier"
    assert len(names) == 1 + 9 * TOY_CONFIG.n_layers + 2
    assert dict(shapes)["tok_emb"] == (TOY_CONFIG.vocab_size, TOY_CONFIG.dim)
    assert dict(shapes)["l0_wk"] == (TOY_CONFIG.kv_dim, TOY_CONFIG.dim)
    assert param_count(TOY_CONFIG) == sum(
        int(np.prod(s)) for _, s in shapes
    )
    two_d = [(n, s) for n, s in shapes if len(s) == 2]
    assert gemv_flops_per_token(TOY_CONFIG) == sum(2 * r * c for _, (r, c) in two_d)


# -- checkpoint files ---------------------------------------------------------


def test_float_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "a.ditf")
    make_toy_checkpoint(path, seed=3)
    config, tensors = read_float_checkpoint(path)
    assert config == TOY_CONFIG
    for name, shape in tensor_shapes(config):
        assert tensors[name].shape == shape
        assert tensors[name].dtype == np.float32
    # Writing again from the same seed is byte-identical.
    path2 = str(tmp_path / "b.ditf")
    make_toy_checkpoint(path2, seed=3)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_sniff_magic(toy_float_path, toy_quant_path):
    assert sniff_magic(toy_float_path) == FLOAT_MAGIC
    assert sniff_magic(toy_quant_path) == QUANT_MAGIC


def test_wrong_magic_rejected(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(InvalidHeaderError, match="magic"):
        read_float_checkpoint(path)


def test_unsupported_version_rejected(tmp_path, toy_float_path):
    raw = bytearray(open(toy_float_path, "rb").read())
    raw[4:8] = (9).to_bytes(4, "little")
    path = str(tmp_path / "v9.ditf")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(InvalidHeaderError, match="version"):
        read_float_checkpoint(path)


def test_truncated_checkpoint_rejected(tmp_path, toy_float_path):
    raw = open(toy_float_path, "rb").read()
    path = str(tmp_path / "cut.ditf")
    open(path, "wb").write(raw[: 36 + 10])
    with pytest.raises(TruncatedCheckpointError):
        read_float_checkpoint(path)


def test_quantized_reader_rejects_float_file(toy_float_path):
    with pytest.raises(InvalidHeaderError):
        read_quantized_checkpoint(toy_float_path)


def _both_kinds(toy_float_path, toy_quant_path):
    return (
        (read_float_checkpoint, write_float_checkpoint, toy_float_path),
        (read_quantized_checkpoint, write_quantized_checkpoint, toy_quant_path),
    )


def test_write_rejects_bad_shapes(tmp_path, toy_float_path, toy_quant_path):
    out = tmp_path / "old.bin"

    def refused(write, tensors, error, match, old):
        # A refused write leaves the valid file already at the path as it was.
        out.write_bytes(old)
        with pytest.raises(error, match=match):
            write(str(out), TOY_CONFIG, tensors)
        assert out.read_bytes() == old

    for read, write, path in _both_kinds(toy_float_path, toy_quant_path):
        _, good = read(path)
        old = open(path, "rb").read()
        missing = dict(good)
        del missing["classifier"]
        refused(write, missing, ValueError, "missing", old)
        for name, bad in (
            ("final_norm", np.zeros(3, np.float32)),
            ("l0_att_norm", np.zeros((2, 32), np.float32)),
        ):
            refused(write, {**good, name: bad}, ExtentMismatchError, name, old)

    _, floats = read_float_checkpoint(toy_float_path)
    old = open(toy_float_path, "rb").read()
    refused(write_float_checkpoint, {**floats, "classifier": np.zeros((2, 2), np.float32)},
            ExtentMismatchError, "classifier", old)
    # A .ditq takes only a record of the right extents in a 2-D slot.
    _, records = read_quantized_checkpoint(toy_quant_path)
    old = open(toy_quant_path, "rb").read()
    refused(write_quantized_checkpoint, {**records, "l0_wq": floats["l0_wq"]},
            TypeError, "l0_wq", old)
    refused(write_quantized_checkpoint, {**records, "classifier": records["l0_wq"]},
            ExtentMismatchError, "classifier", old)


def test_read_write_roundtrip_is_byte_identical(tmp_path, toy_float_path, toy_quant_path):
    out = str(tmp_path / "again.bin")
    for read, write, path in _both_kinds(toy_float_path, toy_quant_path):
        config, tensors = read(path)
        write(out, config, tensors)
        assert open(out, "rb").read() == open(path, "rb").read()


def test_a_record_made_from_a_longer_buffer_writes_what_the_reader_reads(
    tmp_path, toy_quant_path
):
    # A PackedBuffer made from more bytes than payload + guard, copied or
    # viewed, keeps just those in `data`, so the writer emits the record size
    # that the reader expects and the file reads back byte for byte.
    config, tensors = read_quantized_checkpoint(toy_quant_path)
    q = tensors["tok_emb"]
    out = str(tmp_path / "longer.ditq")
    for extra in (b"\x01\x02\x03", bytes(range(1, 10))):
        longer = PackedBuffer(bytes(q.indices.data) + extra, q.indices.count, q.indices.bit_width)
        write_quantized_checkpoint(out, config,
                                   {**tensors, "tok_emb": dataclasses.replace(q, indices=longer)})
        read_quantized_checkpoint(out)
        assert open(out, "rb").read() == open(toy_quant_path, "rb").read()


def test_quantize_checkpoint_report_and_roundtrip(tmp_path, toy_float_path):
    out = str(tmp_path / "toy.ditq")
    report = quantize_checkpoint(toy_float_path, out)
    assert report["bit_width"] == 3
    assert report["size_ratio"] < 0.13
    two_d = [s for _, s in tensor_shapes(TOY_CONFIG) if len(s) == 2]
    assert len(report["tensors"]) == len(two_d)
    assert report["max_epsilon"] > 0.0

    config, tensors = read_quantized_checkpoint(out)
    assert config == TOY_CONFIG
    _, originals = read_float_checkpoint(toy_float_path)
    for name, shape in tensor_shapes(config):
        if len(shape) == 1:
            assert np.array_equal(tensors[name], originals[name])
        else:
            q = tensors[name]
            assert isinstance(q, QuantizedMatrix)
            assert (q.rows, q.cols) == shape
            assert q.codebook.bit_width == 3
            # Stored epsilon really bounds the per-entry reconstruction error.
            err = np.max(np.abs(
                dequantize(q).reshape(shape).astype(np.float64)
                - originals[name].astype(np.float64)
            ))
            assert err <= q.epsilon + 1e-12


def _record_offset(name: str) -> int:
    """Byte offset of tensor `name` in a toy 3-bit .ditq."""
    offset = 36  # header
    for tname, shape in tensor_shapes(TOY_CONFIG):
        if tname == name:
            return offset
        offset += 4 * shape[0] if len(shape) == 1 else quantized_record_size(*shape, 3)
    raise KeyError(name)


def _patched_copy(tmp_path, src: str, offset: int, patch: bytes) -> str:
    raw = bytearray(open(src, "rb").read())
    raw[offset : offset + len(patch)] = patch
    path = str(tmp_path / "patched.ditq")
    open(path, "wb").write(bytes(raw))
    return path


def _inspect_exit_code(path: str, capsys) -> int:
    code = main(["inspect", path])
    capsys.readouterr()
    return code


def test_bad_bit_width_rejected_before_allocating(tmp_path, toy_quant_path, capsys):
    # 1 << 200 would size the centroid read; it must be refused first.
    for bad in (0, 9, 200):
        path = _patched_copy(
            tmp_path, toy_quant_path, _record_offset("tok_emb"), bytes([bad])
        )
        with pytest.raises(InvalidRecordError, match="bit width"):
            read_quantized_checkpoint(path)
        assert _inspect_exit_code(path, capsys) == 2


def test_bad_epsilon_rejected(tmp_path, toy_quant_path, capsys):
    eps_offset = _record_offset("l0_wq") + 9  # after u8 bit_width, u32 rows, u32 cols
    for bad in (float("nan"), -1.0, float("inf")):
        path = _patched_copy(tmp_path, toy_quant_path, eps_offset, struct.pack("<f", bad))
        with pytest.raises(InvalidRecordError, match="epsilon"):
            read_quantized_checkpoint(path)
        assert _inspect_exit_code(path, capsys) == 2


def test_serialized_record_size_formula(toy_quant_path):
    _, tensors = read_quantized_checkpoint(toy_quant_path)
    q = tensors["classifier"]
    assert len(serialize_record(q)) == quantized_record_size(
        q.rows, q.cols, q.codebook.bit_width
    )


# -- synthesized forward program ----------------------------------------------


def test_synthesized_program_is_deterministic_and_valid():
    p1 = synthesize_forward_program(TOY_CONFIG)
    p2 = synthesize_forward_program(TOY_CONFIG)
    assert print_program(p1) == print_program(p2)
    assert validate(p1) == []
    assert gemv_nest_count(TOY_CONFIG) == 7 * TOY_CONFIG.n_layers + 1 == 15


def test_synthesized_program_structure():
    p = synthesize_forward_program(TOY_CONFIG)
    decls = {b.name: b for b in p.buffers}
    assert decls["k_cache0"].extents == (
        TOY_CONFIG.max_seq_len, TOY_CONFIG.kv_dim
    )
    assert decls["l0_wq"].quantized and decls["tok_emb"].quantized
    assert not decls["l0_att_norm"].quantized
    assert [f.name for f in p.functions] == ["step"]
    assert set(p.params) == {"token", "pos"}
    two_deep = sum(
        isinstance(s, Loop) and any(isinstance(c, Loop) for c in s.body)
        for s in p.functions[0].body
    )
    assert two_deep == 15


# -- engine -------------------------------------------------------------------


def test_engine_rejects_bad_mode(toy_float_path):
    with pytest.raises(ValueError, match="mode"):
        Engine(toy_float_path, mode="fast")


def test_engine_rejects_non_checkpoint(tmp_path):
    path = str(tmp_path / "x.bin")
    open(path, "wb").write(b"ELF\x7f" + b"\x00" * 100)
    with pytest.raises(InvalidHeaderError):
        Engine(path)


def test_forward_shape_and_input_validation(toy_float_path):
    eng = Engine(toy_float_path)
    logits = eng.forward(1, 0)
    assert logits.shape == (TOY_CONFIG.vocab_size,)
    assert logits.dtype == np.float32
    with pytest.raises(ValueError, match="vocab"):
        eng.forward(TOY_CONFIG.vocab_size, 0)
    with pytest.raises(ValueError, match="max_seq_len"):
        eng.forward(0, TOY_CONFIG.max_seq_len)


def test_naive_and_optimized_agree(toy_float_path):
    naive = Engine(toy_float_path, mode="naive")
    fast = Engine(toy_float_path, mode="optimized")
    assert naive.pass_result is None
    assert fast.pass_result.report()["matched"] == 15

    ln = naive.forward(5, 0)
    lf = fast.forward(5, 0)
    scale = np.maximum(np.abs(ln.astype(np.float64)), 1.0)
    assert_elementwise_close(lf, ln, scale, 1e-4, "first-token logits")

    rn = naive.generate([1, 2], steps=8)
    rf = fast.generate([1, 2], steps=8)
    assert rn.generated_tokens == rf.generated_tokens


def test_generation_is_deterministic(toy_float_path):
    a = Engine(toy_float_path, seed=11).generate([4, 9], steps=12, temperature=0.8)
    b = Engine(toy_float_path, seed=11).generate([4, 9], steps=12, temperature=0.8)
    assert a.generated_tokens == b.generated_tokens
    assert a.tokens == [4, 9] + a.generated_tokens
    assert len(a.step_ms) == 12
    json.dumps(a.stats.to_json())


def test_quantized_file_matches_in_memory_quantization(
    toy_float_path, toy_quant_path
):
    from_file = Engine(toy_quant_path, mode="optimized")
    in_memory = Engine(toy_float_path, mode="quantized")
    ra = from_file.generate([1, 2, 3], steps=16)
    rb = in_memory.generate([1, 2, 3], steps=16)
    assert ra.generated_tokens == rb.generated_tokens


def test_stats_count_gemv_calls(toy_float_path):
    eng = Engine(toy_float_path, mode="optimized")
    eng.generate([1], steps=4)
    assert eng.stats.forwards == 5
    assert eng.stats.gemv_calls == 15 * 5
    assert eng.stats.quantized_gemv_calls == 0

    q = Engine(toy_float_path, mode="quantized")
    q.generate([1], steps=4)
    assert q.stats.quantized_gemv_calls == 15 * 5


def test_gemv_call_sites_bind_once(toy_float_path, gemv_bind_counts):
    eng = Engine(toy_float_path, mode="optimized")
    assert gemv_bind_counts == {"GemvParams": 15, "_operands": 15}
    eng.generate([1], steps=4)
    assert gemv_bind_counts == {"GemvParams": 15, "_operands": 15}
    assert eng.stats.gemv_calls == 15 * 5


@pytest.mark.parametrize(
    "settings", [{"dual_check": True}, {"bound_threshold": 1e-12}, {}],
    ids=["dual", "fallback", "unchecked"],
)
def test_shadow_calls_bind_once(toy_float_path, gemv_bind_counts, settings):
    eng = Engine(toy_float_path, mode="quantized", **settings)
    # Each site's params once; its packed operands once, and its shadow's
    # once where the calls are checked: an unchecked engine keeps no shadow.
    binds = {"GemvParams": 15, "_operands": 30 if settings else 15}
    assert gemv_bind_counts == binds
    for pos in range(5):
        eng.forward(pos + 1, pos)
    assert gemv_bind_counts == binds
    if not settings:
        # Its tokens are those of a checked engine whose calls never fall back.
        shadowed = Engine(toy_float_path, mode="quantized", bound_threshold=float("inf"))
        assert (eng.generate([1], steps=6).tokens
                == shadowed.generate([1], steps=6).tokens)
        assert eng.stats.bound_checks == 0
        return
    assert eng.stats.bound_checks == 15 * 5
    assert eng.stats.bound_violations == 0
    if "bound_threshold" in settings:
        assert eng.stats.fallback_calls == 15 * 5
    else:
        assert eng.stats.max_dual_diff > 0.0


def test_param_gemv_site_rebinds_its_shadow_per_call(toy_float_path, gemv_bind_counts):
    eng = Engine(toy_float_path, mode="quantized", dual_check=True)
    observations = []
    eng.gemv_observer = observations.append
    program = parse_program(
        "buffer A[64, 64]\nbuffer x[64]\nbuffer y[64]\nparam lda\n\n"
        "func f {\n  call gemv(RM, NT, 64, 64, 1.0, A, lda, x, 1, 0.0, y, 1)\n}\n"
    )
    rng = np.random.default_rng(3)
    env = {
        "A": eng._env["l0_wq"],
        "x": rng.normal(size=64).astype(np.float32),
        "y": np.zeros(64, dtype=np.float32),
        "lda": 64,
    }
    prepared = Prepared(program, env, intrinsics={"gemv": eng._gemv}, bind_gemv=eng._bind_gemv)
    before = dict(gemv_bind_counts)
    prepared.run()
    prepared.run()
    # Per run: the params, then the packed operands and the shadow's.
    assert gemv_bind_counts["GemvParams"] - before["GemvParams"] == 2
    assert gemv_bind_counts["_operands"] - before["_operands"] == 4
    assert [o.diff_inf is not None and o.diff_inf <= o.bound for o in observations] == [True, True]


def test_verify_bounds_holds_with_exact_reconstruction(tmp_path):
    # Every matrix holds at most 8 distinct values, so 3-bit quantization
    # reconstructs it exactly (epsilon 0) and the exact-arithmetic bound is
    # 0: only the float32 terms can cover the dual check's gaps.
    rng = np.random.default_rng(11)
    values = np.linspace(-0.5, 0.5, 8, dtype=np.float32)
    tensors = {
        name: (
            values[rng.integers(0, 8, size=shape)]
            if len(shape) == 2
            else np.ones(shape, dtype=np.float32)
        )
        for name, shape in tensor_shapes(TOY_CONFIG)
    }
    path = str(tmp_path / "exact.ditf")
    write_float_checkpoint(path, TOY_CONFIG, tensors)
    eng = Engine(path, mode="quantized", bit_width=3)
    assert all(
        w.epsilon == 0.0 for w in eng._env.values() if isinstance(w, QuantizedMatrix)
    )
    report = verify_bounds(path, bit_width=3, prompt_tokens=(1, 2, 3), steps=8)
    assert report["violations"] == 0
    assert report["ok"] is True
    assert report["max_bound"] > 0.0
    assert report["max_measured_error"] <= report["max_bound"]


def test_verify_bounds_reads_the_counters_alone(tmp_path, monkeypatch):
    # The report equals the fold of every checked call's observation under
    # the counters' rule, though no observer may run while it is made.
    path = str(tmp_path / "toy.ditf")
    make_toy_checkpoint(path, seed=0)
    probe = Engine(path, mode="quantized", dual_check=True)
    observations = []
    probe.gemv_observer = observations.append
    probe.generate((1, 2, 3), 8)
    worst = max(o.diff_inf / o.bound for o in observations)

    def refuse(self, step):
        raise AssertionError("an observer ran")

    monkeypatch.setattr(Engine, "_observe", refuse)
    report = verify_bounds(path)
    assert report["gemv_calls_checked"] == len(observations) == 165
    assert report["violations"] == 0 and report["ok"] is True
    assert report["worst_error_to_bound_ratio"] == worst
    assert report["max_measured_error"] == max(o.diff_inf for o in observations)
    if report["step"]["backend"] == "native":
        assert worst == 0.27327943285922224


def test_naive_mode_interprets_loops(toy_float_path):
    eng = Engine(toy_float_path, mode="naive")
    eng.forward(1, 0)
    assert eng.stats.gemv_calls == 0


def test_dual_check_needs_float_weights(toy_quant_path):
    with pytest.raises(ValueError, match="float weights"):
        Engine(toy_quant_path, dual_check=True)


def test_dual_check_tracks_bounds(toy_float_path):
    eng = Engine(toy_float_path, mode="quantized", dual_check=True)
    eng.generate([1, 2], steps=3)
    assert eng.stats.bound_checks == 15 * 5
    assert eng.stats.bound_violations == 0
    assert 0.0 < eng.stats.max_dual_diff <= eng.stats.max_bound


def test_tiny_threshold_forces_fallback(toy_float_path):
    eng = Engine(toy_float_path, mode="quantized", bound_threshold=1e-12)
    observations = []
    eng.gemv_observer = observations.append
    eng.generate([1], steps=2)
    assert eng.stats.fallback_calls == eng.stats.bound_checks == 15 * 3
    assert all(o.fallback for o in observations)
    # Every matrix-vector product used the float weights, so each one agrees
    # with the float engine's product on the same inputs; the fallback run is
    # also deterministic end to end.
    a = Engine(toy_float_path, mode="quantized", bound_threshold=1e-12)
    b = Engine(toy_float_path, mode="quantized", bound_threshold=1e-12)
    assert (
        a.generate([1, 2], steps=10).generated_tokens
        == b.generate([1, 2], steps=10).generated_tokens
    )


def test_threshold_without_shadow_is_refused(toy_float_path, toy_quant_path):
    with pytest.raises(ValueError, match="float weights"):
        Engine(toy_quant_path, bound_threshold=0.1)
    for mode in ("naive", "optimized"):
        with pytest.raises(ValueError, match="float weights"):
            Engine(toy_float_path, mode=mode, bound_threshold=0.1)


def test_a_threshold_that_is_no_budget_is_refused(tmp_path, toy_float_path):
    # Every bound is >= 0, so a NaN or negative threshold would send every
    # call to the float shadow; it is refused before the file is read.
    for threshold in (float("nan"), -1.0, -0.5):
        with pytest.raises(ValueError, match="bound_threshold must be >= 0"):
            Engine(str(tmp_path / "missing.ditf"), mode="quantized", bound_threshold=threshold)
    eng = Engine(toy_float_path, mode="quantized", bound_threshold=float("inf"))
    eng.generate([1], steps=2)
    assert eng.stats.bound_checks == 15 * 3 and eng.stats.fallback_calls == 0


def test_negative_steps_are_refused(toy_float_path):
    eng = Engine(toy_float_path)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        eng.generate([1], steps=-2)
    assert eng.stats.forwards == 0
    assert eng.generate([1], steps=0).generated_tokens == []


def test_observations_add_up_to_stats(toy_float_path):
    # A threshold at the median bound of one step makes some calls fall back
    # and leaves the rest on the dual path.
    probe = Engine(toy_float_path, mode="quantized", dual_check=True)
    bounds = []
    probe.gemv_observer = lambda o: bounds.append(o.bound)
    probe.forward(1, 0)
    eng = Engine(
        toy_float_path,
        mode="quantized",
        dual_check=True,
        bound_threshold=float(np.median(bounds)),
    )
    eng.forward(1, 0)  # counted before the observer is attached
    before = eng.stats.to_json()
    observations = []
    eng.gemv_observer = observations.append
    eng.generate([2, 3], steps=3)
    after = eng.stats.to_json()

    def delta(key):
        return after[key] - before[key]

    assert len(observations) == delta("gemv_calls")
    assert delta("bound_checks") == sum(o.bound is not None for o in observations)
    fallbacks = sum(o.fallback for o in observations)
    assert 0 < fallbacks < len(observations)
    assert delta("fallback_calls") == fallbacks
    dual = [o for o in observations if o.diff_inf is not None]
    assert len(dual) == len(observations) - fallbacks
    assert delta("bound_violations") == sum(o.diff_inf > o.bound for o in dual)
    assert after["max_dual_diff"] == max(
        [before["max_dual_diff"]] + [o.diff_inf for o in dual]
    )


def test_a_nan_gap_is_a_violation_and_stays_in_the_maximum():
    stats = EngineStats()
    for gap in (0.5, float("nan"), 0.25):
        stats.record(GemvObservation(1.0, gap, False))
    assert (stats.bound_checks, stats.bound_violations) == (3, 1)
    assert stats.max_dual_diff != stats.max_dual_diff
    assert stats.max_dual_ratio != stats.max_dual_ratio
    stats.record(GemvObservation(float("nan"), 0.0, False))
    assert stats.bound_violations == 2 and stats.max_bound != stats.max_bound
    # Over a zero bound, 0 / 0 reads 0 and a positive gap inf.
    zero = EngineStats()
    zero.record(GemvObservation(0.0, 0.0, False))
    assert zero.max_dual_ratio == 0.0 and zero.bound_violations == 0
    zero.record(GemvObservation(0.0, 0.5, False))
    assert zero.max_dual_ratio == float("inf") and zero.bound_violations == 1


def test_loose_threshold_never_falls_back(toy_float_path):
    eng = Engine(toy_float_path, mode="quantized", bound_threshold=1e9)
    eng.generate([1], steps=2)
    assert eng.stats.fallback_calls == 0


def test_generate_rejects_overlong_request(toy_float_path):
    eng = Engine(toy_float_path)
    with pytest.raises(ValueError, match="max_seq_len"):
        eng.generate([1], steps=TOY_CONFIG.max_seq_len)


def test_sampling_modes(toy_float_path):
    eng = Engine(toy_float_path, seed=5)
    logits = np.zeros(TOY_CONFIG.vocab_size, dtype=np.float32)
    logits[17] = 10.0
    assert eng.sample(logits, temperature=0.0) == 17
    drawn = {eng.sample(logits, temperature=2.5) for _ in range(64)}
    assert all(0 <= t < TOY_CONFIG.vocab_size for t in drawn)
    assert len(drawn) > 1  # high temperature actually explores


def test_generate_refuses_a_nan_temperature(toy_float_path):
    # Every probability at a NaN temperature is NaN, and sampling then draws
    # token 0 every time; the request is refused before anything decodes.
    eng = Engine(toy_float_path, seed=3)
    with pytest.raises(ValueError, match="temperature"):
        eng.generate([1, 2], steps=6, temperature=float("nan"))
    assert eng.stats.forwards == 0
    # A negative temperature stays greedy and an infinite one still samples.
    greedy = eng.generate([1, 2], steps=6, temperature=-1.0).generated_tokens
    assert greedy == Engine(toy_float_path).generate([1, 2], steps=6).generated_tokens
    assert len(eng.generate([1, 2], steps=6, temperature=float("inf")).generated_tokens) == 6


def test_verify_bounds_report(toy_float_path):
    report = verify_bounds(toy_float_path, prompt_tokens=(1, 2, 3), steps=8)
    assert report["ok"] is True
    assert report["violations"] == 0
    assert report["gemv_calls_checked"] == 15 * (3 + 8)
    assert report["max_measured_error"] > 0.0
    assert report["worst_error_to_bound_ratio"] <= 1.0
    json.dumps(report)


def test_verify_bounds_keeps_a_nan_ratio(tmp_path):
    # A NaN weight makes some gaps and bounds NaN; the worst ratio folds as
    # the counters do, so a NaN in it stays whatever ratio comes first.
    make_toy_checkpoint(str(tmp_path / "toy.ditf"), seed=0)
    config, weights = read_float_checkpoint(str(tmp_path / "toy.ditf"))
    weights["l1_att_norm"] = weights["l1_att_norm"].copy()
    weights["l1_att_norm"][3] = np.nan
    path = str(tmp_path / "nan.ditf")
    write_float_checkpoint(path, config, weights)
    report = verify_bounds(path, 3, (1, 2, 5), 2)
    assert report["violations"] > 0 and report["ok"] is False
    assert report["max_bound"] != report["max_bound"]
    assert report["max_measured_error"] != report["max_measured_error"]
    worst = report["worst_error_to_bound_ratio"]
    assert worst != worst
