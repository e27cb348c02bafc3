"""Command-line front end.

Subcommands: quantize, optimize, run, verify, bench, inspect.  All
machine-readable output is JSON on stdout; diagnostics go to stderr.
``bench`` and ``verify`` report whether their forwards ran the compiled
step, the one place the compiled kernels run, and on which kernels
(``"step": {"backend": "native" | "closures", "reason": ...,
"native_forwards": n, "packed_kernel": "avx2" | "portable" | null}``).
``inspect`` only reads the file: it never builds or loads the native
runtime.

Exit codes: 0 success; 1 a check failed (bound violation, regression);
2 usage, I/O, or format errors.  The subcommands raise; `main` is the one
place where an error (`OSError`, `CheckpointError` or `ValueError`)
becomes ``error: <message>`` on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .gemvpass import run_gemv_pass
from .loopir.textio import ParseError, parse_program, print_program
from .loopir.validate import validate
from .quantizer import QuantConfig, QuantizedMatrix
from .runtime.checkpoint import (
    CheckpointError,
    FLOAT_MAGIC,
    QUANT_MAGIC,
    quantize_checkpoint,
    read_float_checkpoint,
    read_quantized_checkpoint,
    sniff_magic,
)
from .runtime.config import gemv_flops_per_token, param_count
from .runtime.engine import Engine, verify_bounds

_USAGE_ERROR = 2
_CHECK_FAILED = 1


def _emit(obj: dict, compact: bool = False) -> None:
    if compact:
        print(json.dumps(obj))
    else:
        print(json.dumps(obj, indent=2))


def _fail(message: str, code: int = _USAGE_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_prompt(text: str) -> list:
    if not text.strip():
        return []
    return [int(t) for t in text.replace(",", " ").split()]


def _read_program(path: str, why: str = ""):
    """The loop program in the `.dir` file at `path`, and its diagnostics.

    Text that does not decode or parse raises ``ValueError("<path>: <why><reason>")``.
    """
    with open(path) as f:
        try:
            program = parse_program(f.read())
        except (ParseError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {why}{exc}") from exc
    return program, validate(program)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_quantize(args) -> int:
    _emit(quantize_checkpoint(args.input, args.output, QuantConfig(bit_width=args.bits)))
    return 0


def cmd_optimize(args) -> int:
    program, diagnostics = _read_program(args.input)
    if diagnostics:
        for d in diagnostics:
            print(f"error: {args.input}: {d}", file=sys.stderr)
        return _USAGE_ERROR

    result = run_gemv_pass(program)
    report = result.report()
    report["input"] = args.input
    report["output"] = args.output
    with open(args.output, "w") as f:
        f.write(print_program(result.program))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2)
    _emit(report)
    return 0


def _make_engine(args) -> Engine:
    return Engine(
        args.checkpoint,
        mode=args.mode,
        bit_width=args.bits,
        bound_threshold=args.bound_threshold,
        seed=args.seed,
    )


def cmd_run(args) -> int:
    engine = _make_engine(args)

    def on_token(pos: int, token: int, ms: float) -> None:
        if args.telemetry:
            _emit(
                {"event": "token", "pos": pos, "token": token, "ms": round(ms, 3)},
                compact=True,
            )

    result = engine.generate(
        _parse_prompt(args.prompt),
        steps=args.steps,
        temperature=args.temperature,
        on_token=on_token,
    )
    summary = {
        "event": "summary",
        "mode": args.mode,
        "checkpoint": args.checkpoint,
        "prompt_tokens": result.prompt_tokens,
        "generated_tokens": result.generated_tokens,
        "tokens_per_second": round(result.tokens_per_second, 3),
        "stats": engine.stats.to_json(),
    }
    _emit(summary, compact=args.telemetry)
    return 0


def cmd_verify(args) -> int:
    report = verify_bounds(
        args.checkpoint,
        bit_width=args.bits,
        prompt_tokens=_parse_prompt(args.prompt),
        steps=args.steps,
        seed=args.seed,
    )
    _emit(report)
    return 0 if report["ok"] else _CHECK_FAILED


def cmd_bench(args) -> int:
    for flag, value in (("--assume-tokens-per-second", args.assume_tokens_per_second),
                        ("--watts", args.watts), ("--gflops-per-token", args.gflops_per_token)):
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{flag} must be finite and > 0, got {value}")
    engine = _make_engine(args)
    gflops = args.gflops_per_token
    if gflops is None:
        gflops = gemv_flops_per_token(engine.config) / 1e9
    tok_s = args.assume_tokens_per_second
    if tok_s is None:
        tok_s = engine.generate(
            _parse_prompt(args.prompt), steps=args.steps, temperature=args.temperature,
        ).tokens_per_second
    if tok_s <= 0:
        raise ValueError("tokens_per_second must be positive")
    _emit({
        "tokens_per_second": tok_s,
        "latency_ms_per_token": 1000.0 / tok_s,
        "gflops_per_token": gflops,
        "effective_gflops": gflops * tok_s,
        "watts": args.watts,
        "joules_per_token": None if args.watts is None else args.watts / tok_s,
        "mode": args.mode,
        "checkpoint": args.checkpoint,
        "steps": args.steps,
        "step": engine.step_status(),
    })
    return 0


def cmd_inspect(args) -> int:
    path = args.path
    magic = sniff_magic(path)
    if magic not in (FLOAT_MAGIC, QUANT_MAGIC):
        program, diagnostics = _read_program(
            path, "not a checkpoint and not a loop program: "
        )
        _emit({
            "path": path,
            "kind": "program",
            "buffers": len(program.buffers),
            "params": list(program.params),
            "functions": [fn.name for fn in program.functions],
            "diagnostics": diagnostics,
            "gemv_census": run_gemv_pass(program).report(),
        })
        return 0
    quantized = magic == QUANT_MAGIC
    read = read_quantized_checkpoint if quantized else read_float_checkpoint
    config, tensors = read(path)
    tensor_rows = []
    for name, t in tensors.items():
        if isinstance(t, QuantizedMatrix):
            tensor_rows.append({
                "name": name, "shape": [t.rows, t.cols],
                "bit_width": t.codebook.bit_width, "epsilon": t.epsilon,
            })
        else:
            tensor_rows.append({"name": name, "shape": list(t.shape), "dtype": "float32"})
    _emit({
        "path": path,
        "kind": "quantized" if quantized else "float",
        "bytes": os.path.getsize(path),
        "config": asdict(config),
        "parameters": param_count(config),
        "tensors": tensor_rows,
    })
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("checkpoint", help="path to a float or quantized checkpoint")
    p.add_argument(
        "--mode",
        choices=("naive", "optimized", "quantized"),
        default="optimized",
        help="naive: interpret the loop nests; optimized: run the GEMV pass; "
        "quantized: also quantize float weights in memory",
    )
    p.add_argument("--bits", type=int, default=3, help="codebook index width")
    p.add_argument("--steps", type=int, default=16, help="tokens to generate")
    p.add_argument("--prompt", default="1", help="space-separated token ids")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--bound-threshold",
        type=float,
        default=None,
        help="per-call output-error budget; quantized calls whose bound "
        "exceeds it fall back to the retained float weights (needs a float "
        "checkpoint in quantized mode)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantloop",
        description="Codebook weight quantization with certified output-error "
        "bounds, plus a loop-IR pass that turns GEMV nests into kernel calls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize a float checkpoint")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--bits", type=int, default=3)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("optimize", help="run the GEMV pass over a loop program")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--report", help="also write the per-nest report to this path")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("run", help="generate tokens from a checkpoint")
    _add_engine_args(p)
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="emit one JSON line per generated token",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "verify",
        help="dual-path check: quantized vs float gemv on identical inputs",
    )
    p.add_argument("checkpoint")
    p.add_argument("--bits", type=int, default=3)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--prompt", default="1 2 3")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="throughput and efficiency report")
    _add_engine_args(p)
    p.add_argument("--watts", type=float, default=None)
    p.add_argument(
        "--assume-tokens-per-second",
        type=float,
        default=None,
        help="skip timing and derive the report from this rate",
    )
    p.add_argument(
        "--gflops-per-token",
        type=float,
        default=None,
        help="override the per-token GFLOP count derived from the model config",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="describe a checkpoint or loop program")
    p.add_argument("path")
    p.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, CheckpointError, ValueError) as exc:
        return _fail(str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
