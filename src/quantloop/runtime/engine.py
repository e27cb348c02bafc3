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
                   quantized in memory first (with a threshold or the dual
                   check, the float weights are kept as a shadow copy,
                   enabling per-call bound fallback and dual-path
                   verification).

Both checkpoint kinds load through one loop: the reader the file's magic
picks returns ``{name: float32 array | QuantizedMatrix}``, and ``quantized``
mode replaces each 2-D float array with its quantization, keeping the array
as its shadow only when the calls are checked.  A quantized checkpoint is
quantized already, so ``optimized`` and ``quantized`` coincide on it and no
shadow exists; ``naive`` on it loads from a dequantized copy of each matrix,
made when the program is prepared (the slow ablation arm).  Bound fallback and the dual
check need the shadow, so the engine refuses a threshold or the dual check,
before reading the file, anywhere but on a float checkpoint in
``quantized`` mode.

Each ``gemv`` call arrives bound (a :class:`~quantloop.kernels.GemvCall`
built when the program was prepared; a call on a matrix with a float shadow
also carries the shadow's call, bound at the same time).  Whether calls are
checked is fixed when the engine is built: only a threshold or the dual
check turns the checks on.  Without them each call runs straight through
the kernel and only the call counters of :class:`EngineStats` advance.
With them every call, each on a quantized matrix, is bound-checked with
:func:`~quantloop.kernels.runtime_bound_check`'s bound, which covers the
float32 rounding of both paths, not only exact arithmetic: over the
threshold (or when the bound is not a number) the call runs on the float
shadow instead, and under the dual check it runs on both and the gap is
measured.  What each check found is a :class:`GemvObservation`: the
bound, the gap (None unless it was measured) and whether the call fell
back, which the counters and the optional ``gemv_observer`` read.  The
counters fold every maximum a report needs, the worst gap-to-bound ratio
of the dual check among them, so :func:`verify_bounds` reads them alone
and attaches no observer.  An observer only reads: it changes nothing that
runs or is counted, and an engine without checks never calls it.

Once the program is prepared, :func:`quantloop.step.build` makes its
compiled step from the C ops the engine's handlers may stand in for, and a
forward runs as one call into it whenever there is one: every top-level
statement has a C op and a compiler built the runtime, which the build
loads only then.  No setting chooses it.  A checked engine's packed gemv
records run the policy above in C: each has a check with the matrix's
epsilon and the shadow's call, the counters are laid out as the C
runtime's so the step adds to them in place, and the forward hands an
observer each check's row as the same record, in program order.
``naive`` mode, whose loop nests have no C op, and an engine whose
handlers are not quantloop's own (a tracer's wrappers, say) run the
closures, whose policy is :meth:`Engine._gemv_policy`; they run numpy
throughout, packed gemv calls included, and stay the oracle.
:meth:`Engine.step_status` says which path the next forward takes and why.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .. import native
from ..kernels import GemvCall, bind, runtime_bound_check
from ..quantizer import QuantConfig, QuantizedMatrix, quantize_matrix
from ..loopir.interp import Prepared
from ..intrinsics import bind_gemv, default_registry
from ..step import COMPILED_OPS, NoStep, build
from ..gemvpass import run_gemv_pass
from .checkpoint import (
    FLOAT_MAGIC,
    QUANT_MAGIC,
    InvalidHeaderError,
    read_float_checkpoint,
    read_quantized_checkpoint,
    sniff_magic,
)
from .rng import SplitMix64
from .synthesize import synthesize_forward_program

MODES = ("naive", "optimized", "quantized")


@dataclass
class GemvObservation:
    """What one checked gemv call's check measured: the row it writes.

    The call itself is fixed when the program is prepared, so the record
    holds only what the check found, on the closures and in C alike.
    """

    bound: float  # runtime_bound_check's float32 bound
    diff_inf: Optional[float]  # dual-path |y_q - y_f|_inf, None unless the gap was measured
    fallback: bool


class EngineStats(native.Counts):
    """The engine's counters.

    Laid out as the compiled step's counters (:class:`~quantloop.native.Counts`),
    so a compiled forward adds to them in place; the closures add one
    :class:`GemvObservation` at a time through :meth:`record`.  A NaN bound,
    gap or ratio stays in its maximum, and a gap that is not within its
    bound (a NaN one included) is a violation.
    """

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name, _ in self._fields_}

    def __eq__(self, other) -> bool:
        return isinstance(other, EngineStats) and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"EngineStats({', '.join(f'{k}={v!r}' for k, v in self.to_json().items())})"

    def record(self, obs: GemvObservation) -> None:
        """Count one checked gemv call from its observation."""
        self.gemv_calls += 1
        self.quantized_gemv_calls += 1
        self.bound_checks += 1
        self.max_bound = _nanmax(self.max_bound, obs.bound)
        self.fallback_calls += obs.fallback
        if obs.diff_inf is not None:
            self.max_dual_diff = _nanmax(self.max_dual_diff, obs.diff_inf)
            self.max_dual_ratio = _nanmax(self.max_dual_ratio, _ratio(obs.diff_inf, obs.bound))
            self.bound_violations += not obs.diff_inf <= obs.bound


def _nanmax(m: float, v: float) -> float:
    """The larger of `m` and `v`, NaN once either is (as ``step.c`` keeps its maxima)."""
    return m if m != m or v <= m else v


def _ratio(gap: float, bound: float) -> float:
    """`gap` / `bound`, where 0 / 0 reads 0 and a positive gap over a zero bound inf."""
    if bound == 0.0:
        return gap * math.inf if gap else 0.0  # a NaN gap stays NaN
    return gap / bound


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
        # Every bound is >= 0: a NaN or negative threshold would send every call to the shadow.
        if bound_threshold is not None and not bound_threshold >= 0:
            raise ValueError(f"bound_threshold must be >= 0, got {bound_threshold}")
        self.mode = mode
        self._bound_threshold = bound_threshold
        self._dual_check = dual_check
        self._checked = bound_threshold is not None or dual_check
        self.stats = EngineStats()
        self.gemv_observer: Optional[Callable[[GemvObservation], None]] = None
        self._rng = SplitMix64(seed)

        magic = sniff_magic(checkpoint_path)
        readers = {FLOAT_MAGIC: read_float_checkpoint, QUANT_MAGIC: read_quantized_checkpoint}
        if magic not in readers:
            raise InvalidHeaderError(
                f"{checkpoint_path}: magic {magic!r} is neither "
                f"{FLOAT_MAGIC.decode()!r} nor {QUANT_MAGIC.decode()!r}"
            )
        shadowed = mode == "quantized" and magic == FLOAT_MAGIC
        if (dual_check or bound_threshold is not None) and not shadowed:
            raise ValueError(
                "dual-path checking and bound-threshold fallback need float "
                "weights alongside the quantized ones; run a float checkpoint "
                "in 'quantized' mode"
            )

        self.config, weights = readers[magic](checkpoint_path)
        self._float_shadow: dict = {}  # only a checked engine reads the float weights
        if mode == "quantized":
            qconfig = QuantConfig(bit_width=bit_width)
            for name, t in weights.items():
                if isinstance(t, np.ndarray) and t.ndim == 2:
                    q = weights[name] = quantize_matrix(t, qconfig)
                    if self._checked:
                        self._float_shadow[id(q)] = t.reshape(-1)

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
        ops = dict(COMPILED_OPS)
        if COMPILED_OPS.get(self._gemv_kernel) == "gemv":
            ops[self._gemv] = "gemv"  # the kernel and the policy, which the step runs in C
        self._prepared = Prepared(
            program, self._env, function="step", intrinsics=registry, bind_gemv=self._bind_gemv
        )
        self._step, self._step_reason = None, None
        try:
            self._step = build(self._prepared, ops, counts=self.stats,
                               threshold=bound_threshold, dual=dual_check)
        except NoStep as exc:
            self._step_reason = str(exc)
        self._closure_forwards = 0

    # -- gemv policy ---------------------------------------------------------

    @property
    def bound_threshold(self) -> Optional[float]:
        """The bound over which a gemv call runs on the float shadow; fixed at construction."""
        return self._bound_threshold

    @property
    def dual_check(self) -> bool:
        """Whether each gemv call runs on both weights and the gap is measured; fixed at construction.

        Read-only, as is :attr:`bound_threshold`: the compiled step packs both
        into its one table when it is built.
        """
        return self._dual_check

    def _bind_gemv(self, *args) -> GemvCall:
        """Bind a gemv call site, and its float-shadow call if it has one.

        The shadow call writes into its own y scratch, so the policy below
        never re-checks operands or allocates a y per call.
        """
        call = bind_gemv(*args)
        shadow = self._float_shadow.get(id(call.a))
        if shadow is None:
            return call
        scratch = np.empty_like(call.y)
        return replace(call, shadow=bind(shadow, call.x, scratch, call.params))

    def _gemv_policy(self, call: GemvCall) -> GemvObservation:
        """Run one gemv call of a checked engine, and describe it.

        The call, on a quantized matrix with a float shadow (see
        :meth:`_observe`), is bound-checked.  Over the threshold (``not
        bound <= threshold``, as ``step.c`` compares, so a NaN bound too) it
        runs on the shadow instead; under the dual check it runs on both, and
        the gap between the two results is measured.  Either way the shadow
        starts from the same old y.  The counters and an observer read the
        description; neither changes what runs.
        """
        kernel = self._gemv_kernel
        a, p, shadow = call.a, call.params, call.shadow
        bound = runtime_bound_check(a, call.x_eff, alpha=p.alpha, beta=p.beta, y=call.y_eff)
        threshold = self.bound_threshold
        fallback, diff_inf = threshold is not None and not bound <= threshold, None
        if fallback:
            np.copyto(shadow.y_eff, call.y_eff)
            kernel(shadow)
            np.copyto(call.y_eff, shadow.y_eff)
        elif self.dual_check:
            np.copyto(shadow.y_eff, call.y_eff)
            kernel(call)
            kernel(shadow)
            diff = np.abs(call.y_eff.astype(np.float64) - shadow.y_eff)
            diff_inf = float(diff.max(initial=0.0))
        else:
            kernel(call)
        return GemvObservation(bound, diff_inf, fallback)

    def _gemv(self, call: GemvCall) -> None:
        """The ``gemv`` intrinsic.

        A checked engine runs the policy and counts its
        :class:`GemvObservation`, which the observer then reads; any other
        runs the kernel straight away and counts the call.  An observer
        changes nothing that runs.
        """
        if self._checked:
            obs = self._gemv_policy(call)
            self.stats.record(obs)
            if self.gemv_observer is not None:
                self.gemv_observer(obs)
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
        self._env["token"] = token = int(token)
        self._env["pos"] = pos = int(pos)
        step = self._step
        if step is not None and step((token, pos)) == 0:
            if self._checked and self.gemv_observer is not None:
                self._observe(step)
        else:
            self._prepared.run()
            self.stats.forwards += 1
            self._closure_forwards += 1
        return self._env["logits"]

    def _observe(self, step) -> None:
        """Hand the observer a :class:`GemvObservation` per gemv record of the forward just run.

        Each is the row its check wrote to ``step.observations``, in program
        order, as the closures' policy makes it: every gemv call of a checked
        engine is packed, since a threshold or the dual check needs
        ``quantized`` mode, which quantizes every 2-D weight.
        """
        observer, dual = self.gemv_observer, self.dual_check
        for bound, gap, fallback in step.observations.tolist():
            fallback = bool(fallback)
            observer(GemvObservation(bound, None if fallback or not dual else gap, fallback))

    def step_status(self) -> dict:
        """Whether the next forward runs the compiled step, and if not, why.

        ``{"backend": "native" | "closures", "reason": ..., "native_forwards":
        n, "packed_kernel": ...}``, where n counts the forwards that ran
        compiled so far and the packed kernel is the one the native runtime
        runs now, ``"avx2"`` or ``"portable"``, for the packed and the dense
        gemv and attention alike (None on the closures).
        """
        reason = self._step_reason
        return {"backend": "closures" if reason else "native", "reason": reason,
                "native_forwards": self.stats.forwards - self._closure_forwards,
                "packed_kernel": None if reason else native.load().packed_kernel}

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
        A temperature <= 0 decodes greedily; a NaN one is refused.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if math.isnan(temperature):
            raise ValueError("temperature must be a number, got nan")
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
    Returns a JSON-able report, read from the engine's counters alone;
    `violations` must be 0 for the bound claim to stand.
    """
    engine = Engine(
        checkpoint_path,
        mode="quantized",
        bit_width=bit_width,
        dual_check=True,
        seed=seed,
    )
    result = engine.generate(prompt_tokens, steps)
    stats = engine.stats
    return {
        "checkpoint": checkpoint_path,
        "bit_width": bit_width,
        "tokens_checked": len(result.generated_tokens),
        "gemv_calls_checked": stats.bound_checks,
        "violations": stats.bound_violations,
        "max_measured_error": stats.max_dual_diff,
        "max_bound": stats.max_bound,
        "worst_error_to_bound_ratio": stats.max_dual_ratio,
        "ok": stats.bound_violations == 0,
        "step": engine.step_status(),
    }
