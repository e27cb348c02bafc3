import contextlib
import io
import json
import os
import pathlib
import shutil
import struct
import subprocess
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloop.cli import main
from quantloop.loopir.textio import MAX_LOOP_DEPTH, parse_program, print_program
from quantloop.runtime import TOY_CONFIG, Engine
from quantloop.runtime.config import MAX_KV_CACHE_BYTES
from quantloop.runtime.checkpoint import (
    FLOAT_MAGIC,
    QUANT_MAGIC,
    InvalidHeaderError,
    read_float_checkpoint,
    read_quantized_checkpoint,
)
from quantloop.runtime.engine import sniff_magic
from quantloop.runtime.synthesize import synthesize_forward_program


MATVEC = """\
buffer A[2, 3]
buffer x[3]
buffer y[2]

func f {
  for i in 0..2 {
    acc s = 0.0
    for k in 0..3 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    store y[i] = s
  }
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quantize_writes_file_and_report(tmp_path, toy_float_path, capsys):
    out = str(tmp_path / "toy.ditq")
    code, stdout, _ = run_cli(capsys, "quantize", toy_float_path, out, "--bits", "3")
    assert code == 0
    report = json.loads(stdout)
    assert report["bit_width"] == 3
    assert report["size_ratio"] < 0.13
    assert sniff_magic(out) == QUANT_MAGIC


@pytest.mark.parametrize(
    "argv",
    [
        ("quantize", "{missing}", "{tmp}/o.ditq"),
        ("optimize", "{missing}", "{tmp}/o.dir"),
        ("optimize", "{program}", "{tmp}/o.dir", "--report", "{tmp}/no_dir/r.json"),
        ("run", "{missing}"),
        ("verify", "{missing}"),
        ("bench", "{missing}", "--steps", "1"),
        ("inspect", "{missing}"),
        # Other requests refused with exit 2: out-of-range values, unparsable text.
        ("quantize", "{float}", "{tmp}/o.ditq", "--bits", "9"),
        ("run", "{quant}", "--steps", "300"),
        ("run", "{quant}", "--prompt", "9999", "--steps", "1"),
        ("bench", "{float}", "--assume-tokens-per-second", "0"),
        ("bench", "{quant}", "--steps", "0"),
        ("run", "{float}", "--steps", "6", "--prompt", "1 2", "--temperature", "nan"),
        ("bench", "{float}", "--steps", "6", "--prompt", "1 2", "--temperature", "nan"),
        ("optimize", "{junk}", "{tmp}/o.dir"),
        ("inspect", "{junk}"),
    ],
    ids=["quantize", "optimize", "optimize-report", "run", "verify", "bench", "inspect",
         "quantize-bits", "run-steps", "run-token", "bench-rate", "bench-steps",
         "run-temperature-nan", "bench-temperature-nan", "optimize-junk", "inspect-junk"],
)
def test_missing_path_is_usage_error(argv, tmp_path, capsys, toy_float_path, toy_quant_path):
    program = tmp_path / "matvec.dir"
    program.write_text(MATVEC)
    junk = tmp_path / "junk.dir"
    junk.write_text("this is not a loop program\n")
    paths = {"missing": tmp_path / "nope.ditf", "tmp": tmp_path, "program": program,
             "float": toy_float_path, "quant": toy_quant_path, "junk": junk}
    code, _, stderr = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("magic", [FLOAT_MAGIC, QUANT_MAGIC], ids=["ditf", "ditq"])
@pytest.mark.parametrize(
    "vocab, dim, n_layers",
    [(1 << 20, 4096, 1), ((1 << 31) - 1, (1 << 31) - 1, 1), (1, 1, 20_000)],
    ids=["16GiB", "2pow31", "layers"],
)
def test_hostile_header_sizes_are_refused(tmp_path, capsys, magic, vocab, dim, n_layers):
    # A 136-byte file whose header implies a tok_emb of vocab x dim, or more
    # layers than the file can hold.  The .ditq record agrees with the
    # header, so only its code read is too big.
    header = struct.pack("<4sI7i", magic, 1, dim, 1, n_layers, 1, 1, vocab, 1)
    if magic == QUANT_MAGIC:
        header += struct.pack("<BIIf", 3, vocab, dim, 0.0) + bytes(4 * 8)
    path = tmp_path / "hostile.bin"
    path.write_bytes(header.ljust(136, b"\0"))
    for command in ("inspect", "run"):
        tracemalloc.start()
        try:
            code, _, stderr = run_cli(capsys, command, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, command
        assert stderr.startswith("error:"), stderr
        assert peak < 1 << 20, (command, peak)


def test_huge_kv_cache_header_is_refused(tmp_path, capsys, toy_float_path, toy_quant_path):
    # max_seq_len is the one header field the file size does not bound: a toy
    # file that claims 2^31-1 positions would need terabytes of KV cache.
    offset = struct.calcsize("<4sI6i")  # max_seq_len is the header's last field
    for source, reader in (
        (toy_float_path, read_float_checkpoint),
        (toy_quant_path, read_quantized_checkpoint),
    ):
        path = tmp_path / os.path.basename(source)
        data = bytearray(pathlib.Path(source).read_bytes())
        data[offset : offset + 4] = struct.pack("<i", (1 << 31) - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidHeaderError, match="KV"):
            reader(str(path))
        code, _, stderr = run_cli(capsys, "run", str(path), "--steps", "1")
        assert code == 2
        assert stderr.startswith("error:") and "KV" in stderr
    # The ceiling itself is still accepted.
    kv_dim = TOY_CONFIG.kv_dim
    seq = MAX_KV_CACHE_BYTES // (2 * TOY_CONFIG.n_layers * kv_dim * 4)
    data = bytearray(pathlib.Path(toy_float_path).read_bytes())
    data[offset : offset + 4] = struct.pack("<i", seq)
    path = tmp_path / "ceiling.ditf"
    path.write_bytes(bytes(data))
    assert read_float_checkpoint(str(path))[0].max_seq_len == seq


@pytest.fixture(scope="session")
def fuzz_seeds(toy_float_path, toy_quant_path, tmp_path_factory):
    # Unmutated, both checkpoints decode through the compiled step, so the
    # mutated runs exercise it wherever the mutation leaves a valid file.
    if shutil.which("cc") is not None:
        for path in (toy_float_path, toy_quant_path):
            assert Engine(path).step_status()["backend"] == "native", path
    program = tmp_path_factory.mktemp("prog") / "step.dir"
    program.write_text(print_program(synthesize_forward_program(TOY_CONFIG)))
    return {"ditf": toy_float_path, "ditq": toy_quant_path, "dir": str(program)}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["ditf", "ditq", "dir"]),
    # Positions in the first 128 bytes (every header and the .dir buffer
    # declarations) or anywhere; each taken modulo the file's length.
    edits=st.lists(
        st.tuples(st.one_of(st.integers(0, 127), st.integers(0, 2**31 - 1)), st.integers(0, 255)),
        min_size=1, max_size=8,
    ),
    cut=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
)
def test_mutated_inputs_exit_cleanly_property(fuzz_seeds, kind, edits, cut):
    # Every command on a corrupted file either works or says why with exit
    # 2: no traceback, no check-failed exit, and no allocation past the KV
    # ceiling.
    data = bytearray(pathlib.Path(fuzz_seeds[kind]).read_bytes())
    for pos, value in edits:
        data[pos % len(data)] = value
    if cut is not None:
        del data[cut % (len(data) + 1):]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"mutated.{kind}")
        with open(path, "wb") as f:
            f.write(data)
        for argv in (
            ["inspect", path],
            ["run", path, "--steps", "1"],
            ["optimize", path, os.path.join(tmp, "out.dir")],
        ):
            stderr = io.StringIO()
            tracemalloc.start()
            try:
                # Corrupted weights may overflow; that is data, not an error.
                with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code in (0, 2), (argv[0], code, stderr.getvalue())
            if code == 2:
                assert stderr.getvalue().startswith("error:"), (argv[0], stderr.getvalue())
            assert peak < MAX_KV_CACHE_BYTES + (64 << 20), (argv[0], peak)


def _nested_program(depth: int) -> str:
    lines = ["buffer y[1]", "", "func f {"]
    lines += [f"for i{d} in 0..1 {{" for d in range(depth)]
    lines += ["store y[0] = 1.0"] + ["}"] * depth + ["}"]
    return "\n".join(lines) + "\n"


def test_loop_depth_is_limited(tmp_path, capsys):
    deep = tmp_path / "deep.dir"
    deep.write_text(_nested_program(3000))
    for argv in (("inspect", str(deep)), ("optimize", str(deep), str(tmp_path / "o.dir"))):
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 2, argv
        assert stderr.startswith("error:"), stderr
        assert f"deeper than {MAX_LOOP_DEPTH}" in stderr
    limit = tmp_path / "limit.dir"
    limit.write_text(_nested_program(MAX_LOOP_DEPTH))
    code, _, _ = run_cli(capsys, "optimize", str(limit), str(tmp_path / "o.dir"))
    assert code == 0
    assert parse_program((tmp_path / "o.dir").read_text()) == parse_program(limit.read_text())


def test_optimize_rewrites_program(tmp_path, capsys):
    src = tmp_path / "matvec.dir"
    src.write_text(MATVEC)
    dst = tmp_path / "matvec_opt.dir"
    rep = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "optimize", str(src), str(dst), "--report", str(rep)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["matched"] == 1 and report["skipped"] == 0
    assert "call gemv(" in dst.read_text()
    assert json.loads(rep.read_text())["matched"] == 1


def test_optimize_skips_param_bound_nest(tmp_path, capsys):
    # A declared param in a loop bound is valid; the pass leaves that nest
    # as it was and says why.
    src = tmp_path / "param.dir"
    src.write_text(MATVEC.replace("buffer y[2]\n", "buffer y[2]\nparam n\n")
                   .replace("for i in 0..2", "for i in 0..n"))
    dst = tmp_path / "param_opt.dir"
    code, stdout, stderr = run_cli(capsys, "optimize", str(src), str(dst))
    assert code == 0, stderr
    report = json.loads(stdout)
    assert report["matched"] == 0 and report["skipped"] == 1
    assert report["records"][0]["reason"] == "symbolic-trip-count"
    assert parse_program(dst.read_text()) == parse_program(src.read_text())


def test_optimize_rejects_invalid_program(tmp_path, capsys):
    src = tmp_path / "bad.dir"
    src.write_text("buffer x[4]\n\nfunc f {\n  store y[0] = 1.0\n}\n")
    code, _, stderr = run_cli(capsys, "optimize", str(src), str(tmp_path / "o.dir"))
    assert code == 2
    assert "error:" in stderr


def test_optimize_rejects_unparsable_text(tmp_path, capsys):
    src = tmp_path / "junk.dir"
    src.write_text("this is not a loop program\n")
    code, _, stderr = run_cli(capsys, "optimize", str(src), str(tmp_path / "o.dir"))
    assert code == 2
    assert stderr.startswith(f"error: {src}: line 1, col 1: ")


def test_run_emits_summary(toy_quant_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "run", toy_quant_path, "--steps", "6", "--prompt", "1 2"
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["event"] == "summary"
    assert summary["prompt_tokens"] == [1, 2]
    assert len(summary["generated_tokens"]) == 6
    assert summary["stats"]["gemv_calls"] == 15 * 8


def test_run_is_deterministic_across_invocations(toy_quant_path, capsys):
    args = ("run", toy_quant_path, "--steps", "5", "--prompt", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert (
        json.loads(out1)["generated_tokens"] == json.loads(out2)["generated_tokens"]
    )


def test_run_telemetry_lines(toy_quant_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "run", toy_quant_path, "--steps", "4", "--telemetry"
    )
    assert code == 0
    lines = [json.loads(l) for l in stdout.strip().splitlines()]
    tokens = [l for l in lines if l["event"] == "token"]
    summaries = [l for l in lines if l["event"] == "summary"]
    assert len(tokens) == 4 and len(summaries) == 1
    assert [t["token"] for t in tokens] == summaries[0]["generated_tokens"]
    assert all(t["ms"] >= 0 for t in tokens)


def test_run_naive_mode(toy_float_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "run", toy_float_path, "--mode", "naive", "--steps", "2"
    )
    assert code == 0
    assert json.loads(stdout)["stats"]["gemv_calls"] == 0


def test_run_overlong_prompt_is_usage_error(toy_quant_path, capsys):
    code, _, stderr = run_cli(
        capsys, "run", toy_quant_path, "--steps", "10000"
    )
    assert code == 2


def test_run_threshold_without_shadow_is_usage_error(toy_quant_path, capsys):
    code, stdout, stderr = run_cli(
        capsys, "run", toy_quant_path, "--bound-threshold", "0.1"
    )
    assert code == 2
    assert stdout == ""
    assert "float weights" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "{float}", "--steps", "-2"),
        ("bench", "{float}", "--steps", "-2"),
        ("verify", "{float}", "--steps", "-2"),
        ("run", "{float}", "--mode", "quantized", "--bound-threshold", "nan", "--steps", "2"),
        ("run", "{float}", "--mode", "quantized", "--bound-threshold", "-1", "--steps", "2"),
    ],
    ids=["run-steps", "bench-steps", "verify-steps", "run-threshold-nan", "run-threshold-negative"],
)
def test_a_request_to_decode_nothing_useful_is_usage_error(argv, capsys, toy_float_path):
    code, stdout, stderr = run_cli(capsys, *(a.format(float=toy_float_path) for a in argv))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and "must be >= 0" in stderr


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        ("--assume-tokens-per-second", "nan"),
        ("--assume-tokens-per-second", "inf"),
        ("--assume-tokens-per-second", "-1"),
        ("--watts", "-5"),
        ("--watts", "nan"),
        ("--watts", "0"),
        ("--gflops-per-token", "-1"),
        ("--gflops-per-token", "nan"),
        ("--gflops-per-token", "inf"),
    ],
)
def test_bench_refuses_an_input_that_is_no_rate(flag, value, capsys, toy_float_path):
    # The message names the input; before, all but a negative rate printed a
    # negative, infinite or NaN figure (NaN is not even JSON) and exited 0.
    argv = ["bench", toy_float_path, flag, value]
    if flag != "--assume-tokens-per-second":
        argv += ["--assume-tokens-per-second", "3.5"]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and flag in stderr and value in stderr


def test_verify_passes_on_float_checkpoint(toy_float_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", toy_float_path, "--steps", "4", "--prompt", "1 2"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["ok"] is True and report["violations"] == 0


def test_verify_rejects_quantized_checkpoint(toy_quant_path, capsys):
    code, _, stderr = run_cli(capsys, "verify", toy_quant_path)
    assert code == 2
    assert "float checkpoint" in stderr


def test_bench_formula_with_assumed_rate(toy_float_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "bench",
        toy_float_path,
        "--assume-tokens-per-second", "3.5",
        "--gflops-per-token", "12.95",
        "--watts", "18",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["tokens_per_second"] == 3.5
    assert report["latency_ms_per_token"] == pytest.approx(1000.0 / 3.5, rel=1e-9)
    assert report["effective_gflops"] == pytest.approx(45.325, abs=0.1)
    assert report["joules_per_token"] == pytest.approx(18 / 3.5, abs=0.05)


def test_bench_measures_when_no_assumption(toy_quant_path, capsys):
    code, stdout, _ = run_cli(capsys, "bench", toy_quant_path, "--steps", "4")
    assert code == 0
    report = json.loads(stdout)
    assert report["tokens_per_second"] > 0
    assert report["effective_gflops"] > 0
    assert report["joules_per_token"] is None  # no watts supplied


def test_inspect_float_checkpoint(toy_float_path, capsys):
    code, stdout, _ = run_cli(capsys, "inspect", toy_float_path)
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "float"
    assert report["config"]["dim"] == 64
    assert len(report["tensors"]) == 21


def test_inspect_quantized_checkpoint(toy_quant_path, capsys):
    code, stdout, _ = run_cli(capsys, "inspect", toy_quant_path)
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "quantized"
    two_d = [t for t in report["tensors"] if "bit_width" in t]
    assert len(two_d) == 16
    assert all(t["epsilon"] > 0 for t in two_d)


def test_inspect_program(tmp_path, capsys):
    src = tmp_path / "m.dir"
    src.write_text(MATVEC)
    code, stdout, _ = run_cli(capsys, "inspect", str(src))
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "program"
    assert report["gemv_census"]["matched"] == 1
    assert report["diagnostics"] == []


def test_inspect_garbage_is_usage_error(tmp_path, capsys):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"\x00\x01\x02\x03 garbage")
    code, _, stderr = run_cli(capsys, "inspect", str(path))
    assert code == 2
    assert stderr.startswith(f"error: {path}: not a checkpoint and not a loop program: ")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.skipif(shutil.which("quantloop") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(
        ["quantloop", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "quantize" in proc.stdout and "optimize" in proc.stdout
