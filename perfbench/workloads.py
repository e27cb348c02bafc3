"""The decode benchmark's workloads, their closed decode loop and checks.

Every workload runs in a closed loop with one client: one process, and
engines reused across sequences (``generate`` restarts at position 0 and
attention reads only positions ``0..pos``, so reuse changes no output).
Inputs are seeded random prompts on the toy model, decoded greedily.

A run draws one *plan* from the seed (prompts, and how many tokens each
generates) and decodes it repeatedly for the run's time.  Plans of different
seeds hold the same mix of prompt and output lengths; only the order and the
token ids change.  So every run measures the same mix of work whatever its
seed, and a repeat must reproduce the first repeat's tokens.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from quantloop.bitcodec import payload_size
from quantloop.quantizer import QuantConfig
from quantloop.runtime import TOY_CONFIG, Engine, quantize_checkpoint, tensor_shapes

VOCAB = TOY_CONFIG.vocab_size
CONTEXT = TOY_CONFIG.max_seq_len
DUAL_BITS = (2, 3, 4, 8)
#: Prompt and generated tokens per engine in the untimed heap pass: every
#: forward step allocates the same, so more steps would not raise the peak.
HEAP_TOKENS = 1
#: Seconds `host_probe` takes on the reference host, the speed adjusted
#: figures are given at (the probe took 1.7-3.3 ms on a 2-core shared VM).
PROBE_REF_S = 0.003
#: Seconds of decoding between probes inside a sequence.  Probing only
#: between sequences missed the speed changes within them: on float decode
#: the adjusted per-sequence times still spread 0.12 (std/mean), against
#: 0.06-0.08 with a probe every 0.1 s.
PROBE_INTERVAL_S = 0.1
_PROBE_MATRICES = [m / 8 for m in np.random.default_rng(0).standard_normal((8, 64, 64), np.float32)]
_PROBE_X = np.ones(64, dtype=np.float32)


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def tail_percentile(values, q: float) -> float:
    """Nearest-rank `q`-th percentile, refused unless >= 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples leaves {len(ordered) - rank} beyond it; need 10"
        )
    return ordered[rank - 1]


class WorstRatio:
    """``gemv_observer`` that keeps the worst dual-path error-to-bound ratio."""

    def __init__(self) -> None:
        self.worst = 0.0

    def __call__(self, obs) -> None:
        if obs.diff_inf is not None and obs.bound:
            self.worst = max(self.worst, obs.diff_inf / obs.bound)


@dataclass
class Setup:
    """Engines ready to decode, and the checkpoint they were built from."""

    checkpoint: str
    engines: list


@dataclass(frozen=True)
class Workload:
    name: str
    #: Offline step from the float checkpoint to the file the engines load.
    prepare: Callable[[str, str], str]
    #: Engines for the prepared checkpoint.
    build: Callable[[str], Setup]
    #: The run's plan: a list of (engine index, prompt, tokens to generate).
    plan: Callable[[random.Random], list]
    #: Set-ups timed per run; `setup_s` is their median.
    setup_reps: int
    #: Generated tokens compared against the naive engine; 0 for none.
    gate_tokens: int
    #: Bit width of each engine's weights (None: float), and whether a float
    #: shadow is read as well, for the computed weight bytes.
    weight_bits: tuple
    shadow: bool = False


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value: int) -> None:
        self.value = value
        self.children: list = []


def host_probe() -> float:
    """Seconds a fixed piece of interpreter and small numpy work takes now.

    On a shared host a core's speed changes by up to 2x for seconds at a
    time, so a run's wall times depend on when it ran.  The probe runs no
    quantloop code; timed during a run it measures the host's speed, and
    :func:`host_adjusted` scales the run's times to the speed at which the
    probe takes `PROBE_REF_S`.  Its work is of the engine's kinds: object,
    dict and closure handling in the interpreter, and numpy products and
    elementwise ops on 64-element vectors.  Probes of those kinds tracked the
    decode best: in three 50-s processes per workload on a 2-core shared VM,
    whose wall tok/s differed by 18% (float) and 23% (dual path), the
    adjusted tok/s differed by 0.5% and 1.3%, against 4% and 6% for a probe
    of a tight call loop and 256x256 products.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(800):
        node = _Node(i)
        node.children.append(i % 7)
        counts[i % 97] = counts.get(i % 97, 0) + node.value * len(node.children)
        node.children = [c * 2 for c in node.children if c]
        (lambda a: a + 1)(i)
    y = _PROBE_X
    for _ in range(60):
        for m in _PROBE_MATRICES:
            y = np.tanh(m @ y)
    return time.perf_counter() - t0


def _prompt(rng: random.Random, length: int) -> list:
    return [rng.randrange(VOCAB) for _ in range(length)]


def _keep(ditf: str, work: str) -> str:
    return ditf


def _quantize3(ditf: str, work: str) -> str:
    ditq = os.path.join(work, "toy.ditq")
    quantize_checkpoint(ditf, ditq, QuantConfig(bit_width=3))
    return ditq


def _build_optimized(path: str) -> Setup:
    return Setup(path, [Engine(path, mode="optimized")])


def _build_dual(path: str) -> Setup:
    setup = Setup(path, [])
    for bits in DUAL_BITS:
        engine = Engine(path, mode="quantized", bit_width=bits, dual_check=True)
        engine.gemv_observer = WorstRatio()
        setup.engines.append(engine)
    return setup


def _float_plan(rng: random.Random) -> list:
    # Prompts of 16..64 tokens, each decoded up to the context limit.
    lengths = list(range(16, 65, 8))
    rng.shuffle(lengths)
    return [(0, _prompt(rng, n), CONTEXT - n) for n in lengths]


def _quant_plan(rng: random.Random) -> list:
    # Prompts of 1..8 tokens generating 32..46 tokens.  The seed picks one of
    # two halves of each range; the halves share their sum and median, so
    # every seed decodes as many tokens, and 152 gaps keep p90 supported.
    lengths = list(rng.choice(((1, 4, 5, 8), (2, 3, 6, 7))))
    steps = list(rng.choice(((32, 38, 40, 46), (34, 36, 42, 44))))
    rng.shuffle(lengths)
    rng.shuffle(steps)
    return [(0, _prompt(rng, n), s) for n, s in zip(lengths, steps)]


def _dual_plan(rng: random.Random) -> list:
    # One short sequence per bit width; 4 x 27 gaps keep p90 supported.
    return [(i, _prompt(rng, 4), 28) for i in range(len(DUAL_BITS))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("float_decode", _keep, _build_optimized, _float_plan,
                 setup_reps=41, gate_tokens=8, weight_bits=(None,)),
        Workload("quant_decode", _quantize3, _build_optimized, _quant_plan,
                 setup_reps=11, gate_tokens=16, weight_bits=(3,)),
        Workload("dual_verify", _keep, _build_dual, _dual_plan,
                 setup_reps=5, gate_tokens=0, weight_bits=DUAL_BITS, shadow=True),
    )
}


def set_up(workload: Workload, ditf: str, work: str) -> tuple[Setup, float]:
    t0 = time.perf_counter()
    setup = workload.build(workload.prepare(ditf, work))
    return setup, time.perf_counter() - t0


@dataclass
class Sequence:
    engine: int
    prompt: list
    steps: int
    # Times below are perf_counter readings less the time spent in probes.
    called: float = 0.0  # at the generate call
    returned: float = 0.0
    stamps: list = field(default_factory=list)  # per on_token
    tokens: list = field(default_factory=list)
    error: Optional[str] = None
    probes: list = field(default_factory=list)  # (time, `host_probe` seconds)


def decode(setup: Setup, engine: int, prompt: list, steps: int,
           probe: Optional[float] = None) -> Sequence:
    """Generate one sequence; an exception or a new bound violation fails it.

    `probe`, if given, is the reading of a `host_probe` run just before.
    The sequence then also probes in its token callback once every
    `PROBE_INTERVAL_S` and after ``generate`` returns, and the time those
    probes take is left out of its times.
    """
    seq = Sequence(engine, prompt, steps)
    e = setup.engines[engine]
    violations = e.stats.bound_violations
    perf = time.perf_counter
    paused = 0.0
    due = math.inf

    def on_token(pos, tok, ms):
        nonlocal paused, due
        now = perf() - paused
        seq.stamps.append(now)
        if now >= due:
            seq.probes.append((now, host_probe()))
            paused = perf() - now
            due = now + PROBE_INTERVAL_S

    seq.called = perf()
    if probe is not None:
        seq.probes.append((seq.called, probe))
        due = seq.called + PROBE_INTERVAL_S
    try:
        result = e.generate(prompt, steps, on_token=on_token)
    except Exception as exc:  # one failed sequence must not end the run
        seq.error = f"{type(exc).__name__}: {exc}"
    seq.returned = perf() - paused
    if probe is not None:
        seq.probes.append((seq.returned, host_probe()))
    if seq.error is None:
        seq.tokens = list(result.generated_tokens)
        if e.stats.bound_violations != violations:
            seq.error = f"{e.stats.bound_violations - violations} bound violations"
    return seq


def host_adjusted(seq: Sequence) -> Sequence:
    """`seq` with its times as they would read on the reference host.

    Each interval between the sequence's time marks is scaled by
    `PROBE_REF_S` over the probe reading interpolated at its middle.
    """
    times, readings = zip(*seq.probes)
    marks = [seq.called, *seq.stamps, seq.returned]
    out = [seq.called]
    for a, b in zip(marks, marks[1:]):
        out.append(out[-1] + (b - a) * PROBE_REF_S / np.interp((a + b) / 2, times, readings))
    return replace(seq, stamps=out[1:-1], returned=out[-1])


def run_repeats(setup: Setup, plan: list, seconds: float) -> list:
    """Decode `plan` as many whole times as fit `seconds` (at least once).

    Returns one list of sequences per repeat.  A repeat whose tokens differ
    from the first repeat's for the same prompt fails: no state may outlive
    a sequence.  Every sequence keeps its host probes.
    """
    repeats: list = []
    probe = host_probe()
    start = time.perf_counter()
    while True:
        repeat = []
        for item in plan:
            repeat.append(decode(setup, *item, probe=probe))
            probe = repeat[-1].probes[-1][1]
        repeats.append(repeat)
        if (time.perf_counter() - start) * (1 + 0.5 / len(repeats)) >= seconds:
            break
    for repeat in repeats[1:]:
        for first, seq in zip(repeats[0], repeat):
            if seq.error is None and first.error is None and seq.tokens != first.tokens:
                seq.error = "tokens differ from an earlier decode of the same prompt"
    return repeats


def warm_up(setup: Setup) -> None:
    host_probe()
    for i in range(len(setup.engines)):
        decode(setup, i, [0], 4)


def tok_s(seqs: list) -> float:
    """Generated tokens over the wall time spent in ``generate``."""
    ok = [s for s in seqs if s.error is None]
    return sum(len(s.stamps) for s in ok) / sum(s.returned - s.called for s in ok)


def latency(repeats: list) -> dict:
    """Decode figures over all repeats, as {name: (value, sample count)}."""
    ok = [s for repeat in repeats for s in repeat if s.error is None]
    gaps = [(b - a) * 1e3 for s in ok for a, b in zip(s.stamps, s.stamps[1:])]
    ttft = [(s.stamps[0] - s.called) * 1e3 for s in ok]
    return {
        "gen_tok_s": (tok_s(ok), sum(len(s.stamps) for s in ok)),
        "tpot_ms_p50": (statistics.median(gaps), len(gaps)),
        "tpot_ms_p90": (tail_percentile(gaps, 90), len(gaps)),
        "ttft_ms_p50": (statistics.median(ttft), len(ttft)),
    }


def gate(workload: Workload, setup: Setup, seqs: list, seed: int) -> Optional[float]:
    """Check a seeded sample of `seqs` against the naive-mode engine.

    The naive engine interprets the unrewritten loop nests, so it is an
    oracle independent of the pass and the kernels.  A mismatch or an
    exception fails the sequence.  Returns the naive engine's ms per forward
    step, or None when the workload has no oracle check.
    """
    if not workload.gate_tokens:
        return None
    seq = random.Random(f"gate-{seed}").choice(seqs)
    n = min(workload.gate_tokens, seq.steps)
    t0 = time.perf_counter()
    try:
        naive = Engine(setup.checkpoint, mode="naive")
        expected = naive.generate(seq.prompt, n).generated_tokens
    except Exception as exc:  # the oracle failing fails the sequence
        seq.error = seq.error or f"naive oracle: {type(exc).__name__}: {exc}"
        return None
    elapsed = time.perf_counter() - t0
    if seq.error is None and seq.tokens[:n] != list(expected):
        seq.error = f"tokens differ from the naive engine: {seq.tokens[:n]} != {expected}"
    return elapsed * 1e3 / (len(seq.prompt) + n)


def gemv_work(workload: Workload, weights: list) -> tuple[float, float]:
    """Computed GEMV FLOPs and weight bytes read per forward step.

    Averaged over the workload's engines, which every plan uses equally.
    """
    shapes = dict(tensor_shapes(TOY_CONFIG))
    flops = sum(2 * shapes[w][0] * shapes[w][1] for w in weights)
    per_engine = []
    for bits in workload.weight_bits:
        total = 0
        for w in weights:
            n = shapes[w][0] * shapes[w][1]
            total += 4 * n if bits is None else payload_size(n, bits) + 4 * (1 << bits)
            total += 4 * n if workload.shadow else 0
        per_engine.append(total)
    return float(flops), statistics.fmean(per_engine)
