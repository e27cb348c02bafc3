import json
import shutil
import struct
import subprocess
import tracemalloc

import pytest

from quantloop.cli import main
from quantloop.runtime.checkpoint import FLOAT_MAGIC, QUANT_MAGIC
from quantloop.runtime.engine import sniff_magic


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
    ],
    ids=["quantize", "optimize", "optimize-report", "run", "verify", "bench", "inspect"],
)
def test_missing_path_is_usage_error(argv, tmp_path, capsys):
    program = tmp_path / "matvec.dir"
    program.write_text(MATVEC)
    paths = {"missing": tmp_path / "nope.ditf", "tmp": tmp_path, "program": program}
    code, _, stderr = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("magic", [FLOAT_MAGIC, QUANT_MAGIC], ids=["ditf", "ditq"])
@pytest.mark.parametrize(
    "vocab, dim", [(1 << 20, 4096), ((1 << 31) - 1, (1 << 31) - 1)], ids=["16GiB", "2pow31"]
)
def test_hostile_header_sizes_are_refused(tmp_path, capsys, magic, vocab, dim):
    # A 136-byte file whose header implies a tok_emb of vocab x dim.  The
    # .ditq record agrees with the header, so only its code read is too big.
    header = struct.pack("<4sI7i", magic, 1, dim, 1, 1, 1, 1, vocab, 1)
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
