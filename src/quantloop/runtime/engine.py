"""Single-token decode engine over the loop-IR interpreter.

The engine owns the persistent environment (weights, activations, KV
caches), prepares the forward program over it once, and steps it per token
by setting the ``token`` and ``pos`` params.  Three run modes control what
the GEMV nests execute as:

- ``naive``      — the loop nests run in the interpreter, untouched.
- ``optimized``  — the GEMV pass rewrites the nests into ``gemv`` intrinsic
                   calls (vectorized kernels, or codes-domain kernels when
                   the weights are quantized).
- ``quantized``  — like ``optimized``; additionally, a float checkpoint is
                   quantized in memory first (the float weights are kept as
                   a shadow copy, enabling per-call bound fallback and
                   dual-path verification).

A quantized checkpoint is quantized already, so ``optimized`` and
``quantized`` coincide on it and no shadow exists; ``naive`` on it loads
from a dequantized copy of each matrix, made when the program is prepared
(the slow ablation arm).  Bound fallback and the dual check need the shadow,
so the engine refuses a threshold or the dual check without one.

Each ``gemv`` call arrives bound (a :class:`~quantloop.intrinsics.GemvCall`
built when the program was prepared; a call on a matrix with a float shadow
also carries the shadow's call, bound at the same time).  With no
threshold, no dual check and no observer it runs straight through the
kernel and only the call counters of :class:`EngineStats` advance.
Otherwise it goes through one policy, :meth:`Engine._gemv_policy`, which
returns a :class:`GemvObservation`; the counters and the optional
``gemv_observer`` both read that record.  The bound it checks is
:func:`~quantloop.kernels.runtime_bound_check`'s, which covers the float32
rounding of both paths, not only exact arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..kernels import runtime_bound_check
from ..quantizer import QuantConfig, QuantizedMatrix, quantize_matrix
from ..loopir.interp import Prepared
from ..intrinsics import GemvCall, bind_gemv, default_registry
from ..gemvpass import run_gemv_pass
from .checkpoint import (
    FLOAT_MAGIC,
    QUANT_MAGIC,
    InvalidHeaderError,
    read_float_checkpoint,
    read_quantized_checkpoint,
)
from .config import tensor_shapes
from .rng import SplitMix64
from .synthesize import synthesize_forward_program

MODES = ("naive", "optimized", "quantized")


@dataclass
class GemvObservation:
    """What one gemv intrinsic execution did; stats and observer read it."""

    seq: int  # 1-based index among the engine's gemv calls
    m: int
    n: int
    alpha: float
    beta: float
    epsilon: Optional[float]  # None when the operand was a float matrix
    bound: Optional[float]  # runtime_bound_check's float32 bound, None for float
    diff_inf: Optional[float]  # dual-path |y_q - y_f|_inf, None unless dual
    fallback: bool


@dataclass
class EngineStats:
    forwards: int = 0
    gemv_calls: int = 0
    quantized_gemv_calls: int = 0
    fallback_calls: int = 0
    bound_checks: int = 0
    bound_violations: int = 0  # dual-path only; stays 0 when bounds hold
    max_bound: float = 0.0
    max_dual_diff: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    def record(self, obs: GemvObservation) -> None:
        """Count one gemv call from its observation."""
        self.gemv_calls += 1
        if obs.epsilon is None:
            return
        self.quantized_gemv_calls += 1
        if obs.bound is not None:
            self.bound_checks += 1
            self.max_bound = max(self.max_bound, obs.bound)
        self.fallback_calls += obs.fallback
        if obs.diff_inf is not None:
            self.max_dual_diff = max(self.max_dual_diff, obs.diff_inf)
            self.bound_violations += obs.diff_inf > obs.bound


@dataclass
class GenerationResult:
    prompt_tokens: list
    generated_tokens: list
    step_ms: list  # per generated token, milliseconds
    tokens_per_second: float
    stats: EngineStats

    @property
    def tokens(self) -> list:
        return list(self.prompt_tokens) + list(self.generated_tokens)


def sniff_magic(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read(4)


class Engine:
    def __init__(
        self,
        checkpoint_path: str,
        mode: str = "optimized",
        bit_width: int = 3,
        bound_threshold: Optional[float] = None,
        dual_check: bool = False,
        seed: int = 0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.bound_threshold = bound_threshold
        self.dual_check = dual_check
        self.stats = EngineStats()
        self.gemv_observer: Optional[Callable[[GemvObservation], None]] = None
        self._rng = SplitMix64(seed)

        magic = sniff_magic(checkpoint_path)
        if magic == FLOAT_MAGIC:
            self.config, tensors = read_float_checkpoint(checkpoint_path)
            quantize = mode == "quantized"
            self._float_shadow: dict = {}
            weights: dict = {}
            for name, shape in tensor_shapes(self.config):
                arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
                if len(shape) == 2 and quantize:
                    q = quantize_matrix(arr, QuantConfig(bit_width=bit_width))
                    weights[name] = q
                    self._float_shadow[id(q)] = arr
                else:
                    weights[name] = arr
        elif magic == QUANT_MAGIC:
            self.config, tensors = read_quantized_checkpoint(checkpoint_path)
            self._float_shadow = {}
            weights = {
                name: (
                    t
                    if isinstance(t, QuantizedMatrix)
                    else np.ascontiguousarray(t, dtype=np.float32)
                )
                for name, t in tensors.items()
            }
        else:
            raise InvalidHeaderError(
                f"{checkpoint_path}: magic {magic!r} is neither "
                f"{FLOAT_MAGIC.decode()!r} nor {QUANT_MAGIC.decode()!r}"
            )

        if (dual_check or bound_threshold is not None) and not self._float_shadow:
            raise ValueError(
                "dual-path checking and bound-threshold fallback need float "
                "weights alongside the quantized ones; run a float checkpoint "
                "in 'quantized' mode"
            )

        program = synthesize_forward_program(self.config)
        self.pass_result = None
        if mode != "naive":
            self.pass_result = run_gemv_pass(program)
            program = self.pass_result.program
        self.program = program

        registry = default_registry()
        self._gemv_kernel = registry["gemv"]
        registry["gemv"] = self._gemv
        self._env = dict(weights)
        for decl in program.buffers:
            if decl.name not in self._env:
                self._env[decl.name] = np.zeros(decl.extents, dtype=np.float32)
        self._prepared = Prepared(
            program, self._env, function="step", intrinsics=registry,
            bind_gemv=self._bind_gemv,
        )

    # -- gemv policy ---------------------------------------------------------

    def _bind_gemv(self, *args) -> GemvCall:
        """Bind a gemv call site, and its float-shadow call if it has one.

        The shadow call writes into its own y scratch, so the policy below
        never re-checks operands or allocates a y per call.
        """
        call = bind_gemv(*args)
        shadow = self._float_shadow.get(id(call.a))
        if shadow is None:
            return call
        return replace(call, shadow=call.over(shadow, np.empty_like(call.y)))

    def _gemv_policy(self, call: GemvCall) -> GemvObservation:
        """Run one gemv call as the engine's settings say, and describe it.

        A quantized matrix is bound-checked (the policy runs only when a
        threshold, the dual check or an observer needs the bound).  Over the
        threshold the call runs on the matrix's float shadow instead; under
        the dual check it runs on both, and the gap between the two results
        is measured.  Either way the shadow starts from the same old y.
        """
        kernel = self._gemv_kernel
        a, p, shadow = call.a, call.params, call.shadow
        epsilon = bound = diff_inf = None
        fallback = False
        if isinstance(a, QuantizedMatrix):
            epsilon = a.epsilon
            report = runtime_bound_check(
                a, call.x_eff, self.bound_threshold, alpha=p.alpha, beta=p.beta, y=call.y_eff
            )
            bound = report.inf_bound
            fallback = report.threshold_exceeded
        if fallback:
            np.copyto(shadow.y, call.y)
            kernel(shadow)
            np.copyto(call.y, shadow.y)
        elif self.dual_check and shadow is not None:
            np.copyto(shadow.y, call.y)
            kernel(call)
            kernel(shadow)
            diff = np.abs(call.y.astype(np.float64) - shadow.y)
            diff_inf = float(diff.max(initial=0.0))
        else:
            kernel(call)
        seq = self.stats.gemv_calls + 1
        return GemvObservation(
            seq, p.m, p.n, p.alpha, p.beta, epsilon, bound, diff_inf, fallback
        )

    def _gemv(self, call: GemvCall) -> None:
        """The ``gemv`` intrinsic.

        Runs the kernel straight away unless a threshold, the dual check or
        an observer (which may be attached at any time) needs the policy's
        :class:`GemvObservation`; the counts in :attr:`stats` come out the
        same either way.
        """
        observer = self.gemv_observer
        if self.bound_threshold is not None or self.dual_check or observer is not None:
            obs = self._gemv_policy(call)
            self.stats.record(obs)
            if observer is not None:
                observer(obs)
            return
        self._gemv_kernel(call)
        self.stats.gemv_calls += 1
        self.stats.quantized_gemv_calls += isinstance(call.a, QuantizedMatrix)

    # -- stepping ------------------------------------------------------------

    def forward(self, token: int, pos: int) -> np.ndarray:
        """Run one decode step; returns the live logits buffer."""
        if not 0 <= token < self.config.vocab_size:
            raise ValueError(f"token {token} outside vocab of {self.config.vocab_size}")
        if not 0 <= pos < self.config.max_seq_len:
            raise ValueError(f"pos {pos} outside max_seq_len {self.config.max_seq_len}")
        self._env["token"] = int(token)
        self._env["pos"] = int(pos)
        self._prepared.run()
        self.stats.forwards += 1
        return self._env["logits"]

    def sample(self, logits: np.ndarray, temperature: float) -> int:
        if temperature <= 0.0:
            return int(np.argmax(logits))
        scaled = logits.astype(np.float64) / temperature
        scaled -= scaled.max()
        p = np.exp(scaled)
        p /= p.sum()
        r = self._rng.next_float()
        idx = int(np.searchsorted(np.cumsum(p), r, side="right"))
        return min(idx, logits.size - 1)

    def generate(
        self,
        prompt_tokens,
        steps: int,
        temperature: float = 0.0,
        on_token: Optional[Callable[[int, int, float], None]] = None,
    ) -> GenerationResult:
        """Prefill the prompt, then decode `steps` tokens.

        `on_token(pos, token, ms)` fires per generated token (telemetry).
        """
        prompt = [int(t) for t in prompt_tokens] or [0]
        if len(prompt) + steps > self.config.max_seq_len:
            raise ValueError(
                f"{len(prompt)} prompt + {steps} generated tokens exceed "
                f"max_seq_len {self.config.max_seq_len}"
            )
        pos = 0
        logits = None
        for tok in prompt:
            logits = self.forward(tok, pos)
            pos += 1

        generated: list = []
        step_ms: list = []
        for _ in range(steps):
            tok = self.sample(logits, temperature)
            t0 = time.perf_counter()
            logits = self.forward(tok, pos)
            ms = (time.perf_counter() - t0) * 1000.0
            generated.append(tok)
            step_ms.append(ms)
            if on_token is not None:
                on_token(pos, tok, ms)
            pos += 1

        total_s = sum(step_ms) / 1000.0
        tok_s = len(generated) / total_s if total_s > 0 else 0.0
        return GenerationResult(
            prompt_tokens=prompt,
            generated_tokens=generated,
            step_ms=step_ms,
            tokens_per_second=tok_s,
            stats=self.stats,
        )


def verify_bounds(
    checkpoint_path: str,
    bit_width: int = 3,
    prompt_tokens=(1, 2, 3),
    steps: int = 8,
    seed: int = 0,
) -> dict:
    """Dual-path bound verification over a short generation.

    Quantizes a float checkpoint in memory, then at every quantized gemv
    computes the float-weight result on the *same* input vector and checks
    the measured infinity-norm difference against the float32 bound of
    :func:`~quantloop.kernels.runtime_bound_check`, with zero tolerance.
    Returns a JSON-able report; `violations` must be 0 for the bound claim
    to stand.
    """
    engine = Engine(
        checkpoint_path,
        mode="quantized",
        bit_width=bit_width,
        dual_check=True,
        seed=seed,
    )
    observations: list = []
    engine.gemv_observer = observations.append
    result = engine.generate(prompt_tokens, steps)
    checked = [o for o in observations if o.diff_inf is not None]
    worst = max((o.diff_inf / o.bound if o.bound else 0.0) for o in checked) if checked else 0.0
    return {
        "checkpoint": checkpoint_path,
        "bit_width": bit_width,
        "tokens_checked": len(result.generated_tokens),
        "gemv_calls_checked": len(checked),
        "violations": engine.stats.bound_violations,
        "max_measured_error": engine.stats.max_dual_diff,
        "max_bound": engine.stats.max_bound,
        "worst_error_to_bound_ratio": worst,
        "ok": engine.stats.bound_violations == 0,
    }
