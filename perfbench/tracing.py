"""Span tracing of quantloop's layers from outside the program.

While :func:`installed` is active, the public functions of each layer are
replaced by wrappers that record one span per call: name, start and end
(``perf_counter_ns``), the id of the enclosing span on the same thread, and
the sequence id the benchmark set on the tracer.  Spans
stay in memory until :func:`write_spans` writes them out.

Patching swaps module attributes, so it only reaches calls that look the
name up after the patch.  Two consequences shape the benchmark:

* an ``Engine`` captures its intrinsic handlers and ``Prepared`` when it is
  built, so an engine built under the patch stays traced and one built
  outside it stays untraced;
* kernels, the bound check, the bit codec and ``Engine.forward`` /
  ``generate`` are looked up per call, so they are traced only while the
  patch is active.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

#: Sequence ids of spans recorded outside a traced sequence.
SETUP, WARM_UP = -1, -2
#: Top-level intrinsic ops of the synthesized step program.
OPS = ("gemv", "attention", "rope", "rmsnorm", "silu", "embed")


class Span(NamedTuple):
    id: int
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # -1 at the root of a thread
    seq: int  # SETUP, WARM_UP or the benchmark's sequence index

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.records: dict[str, list] = defaultdict(list)
        self.seq = SETUP
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, record: Optional[Callable] = None) -> Callable:
        """`fn` with a span per call; `record(result)` is kept under `name`."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns
        records = self.records[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append(Span(sid, name, t0, t1, parent, self.seq))
            if record is not None:
                records.append(record(result))
            return result

        return traced


def patch_targets() -> list:
    """(owner, attribute, span name, record) for every traced entry point.

    The owner is the module (or class) whose namespace the caller reads the
    name from, which is not always the module that defines it.
    """
    from quantloop import intrinsics, kernels
    from quantloop.loopir import interp
    from quantloop.runtime import checkpoint, engine

    epsilon = lambda q: q.epsilon  # noqa: E731
    targets = [
        (engine, "read_float_checkpoint", "checkpoint.read", None),
        (engine, "read_quantized_checkpoint", "checkpoint.read", None),
        (checkpoint, "read_float_checkpoint", "checkpoint.read", None),
        (engine, "quantize_matrix", "quantizer.quantize", epsilon),
        (checkpoint, "quantize_matrix", "quantizer.quantize", epsilon),
        (interp, "dequantize", "quantizer.dequantize", None),
        (kernels, "dequantize", "quantizer.dequantize", None),
        (engine, "synthesize_forward_program", "synthesize", None),
        (engine, "run_gemv_pass", "gemvpass", None),
        (engine, "Prepared", "interp.compile", None),
        (engine.Engine, "forward", "engine.forward", None),
        (engine.Engine, "generate", "engine.generate", None),
        (intrinsics, "gemv_opt", "kernels.gemv_opt", None),
        (intrinsics, "gemv_sketch", "kernels.gemv_sketch", None),
        (engine, "runtime_bound_check", "kernels.bound_check", None),
        (kernels, "unpack_slice", "bitcodec.unpack", None),
        (intrinsics, "unpack_slice", "bitcodec.unpack", None),
    ]
    targets += [(intrinsics, f"{op}_handler", f"intrinsics.{op}", None) for op in OPS]
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every patch target through `tracer` until the block exits."""
    saved = []
    try:
        for owner, attr, name, record in patch_targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, record))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover.

    Children recorded on the span's own thread run inside it one at a time,
    so the covered time is the sum of their durations.
    """
    own = {s.id: s.dur for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.dur
    return own


def wall_ns(spans: list[Span]) -> int:
    """Time covered by at least one of `spans`, which may overlap across threads."""
    total, reach = 0, None
    for s in sorted(spans, key=lambda s: s.start):
        if reach is None or s.start >= reach:
            total += s.dur
            reach = s.end
        elif s.end > reach:
            total += s.end - reach
            reach = s.end
    return total


def gemv_weights(program) -> list[str]:
    """Weight buffer of each ``gemv`` call in the step program, in order."""
    from quantloop.loopir.nodes import IntrinsicCall

    return [
        s.args[5]
        for s in program.function("step").body
        if isinstance(s, IntrinsicCall) and s.name == "gemv"
    ]


def weight_label(buffer: str) -> str:
    """``l3_wq`` -> ``wq``; names without a layer prefix are kept."""
    head, _, tail = buffer.partition("_")
    return tail if head[:1] == "l" and head[1:].isdigit() else buffer


def decode_metrics(spans: list[Span], weights: list[str]) -> dict:
    """Per-layer decode figures from the spans of traced sequences.

    "Per token" means per forward step, prompt steps included.  `weights`
    is :func:`gemv_weights` of the traced engines' program.  Each forward
    makes one engine-level gemv per entry of `weights`; the dual-path check
    runs the handler twice per engine-level call, so the handler spans under
    one forward come in equal consecutive groups.
    """
    if not weights:
        raise ValueError("the traced program has no gemv calls")
    spans = [s for s in spans if s.seq >= 0]
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total_ms(name: str) -> float:
        return sum(s.dur for s in by_name[name]) / 1e6

    def per_call_us(name: str) -> float:
        calls = by_name[name]
        return sum(s.dur for s in calls) / 1e3 / len(calls) if calls else 0.0

    forwards = by_name["engine.forward"]
    if not forwards:
        raise ValueError("no engine.forward spans were traced")
    n_fwd = len(forwards)
    fwd_ms = total_ms("engine.forward")
    interp_ms = sum(own[s.id] for s in forwards) / 1e6

    m: dict[str, float] = {
        "interp.self_ms_per_token": interp_ms / n_fwd,
        "interp.self_share": interp_ms / fwd_ms,
    }
    for op in OPS:
        name = f"intrinsics.{op}"
        m[f"{name}.calls_per_token"] = len(by_name[name]) / n_fwd
        m[f"{name}.ms_per_token"] = total_ms(name) / n_fwd
        m[f"{name}.share"] = total_ms(name) / fwd_ms
    handlers = by_name["intrinsics.gemv"]
    m["intrinsics.gemv.dispatch_us_per_call"] = (
        sum(own[s.id] for s in handlers) / 1e3 / len(handlers) if handlers else 0.0
    )

    labels = [weight_label(w) for w in weights]
    under: dict[int, list[Span]] = defaultdict(list)
    for s in handlers:
        under[s.parent].append(s)
    label_ns: dict[str, int] = defaultdict(int)
    label_calls: dict[str, int] = defaultdict(int)
    for f in forwards:
        group = sorted(under[f.id], key=lambda s: s.start)
        per_call, rest = divmod(len(group), len(labels))
        if rest or not per_call:
            raise ValueError(
                f"forward {f.id}: {len(group)} gemv handler spans do not split "
                f"into {len(labels)} engine calls"
            )
        for j, label in enumerate(labels):
            label_ns[label] += sum(s.dur for s in group[j * per_call : (j + 1) * per_call])
            label_calls[label] += 1
    for label in label_ns:
        m[f"intrinsics.gemv.{label}.us_per_call"] = label_ns[label] / 1e3 / label_calls[label]

    m["kernels.gemv_opt.us_per_call"] = per_call_us("kernels.gemv_opt")
    m["kernels.gemv_sketch.us_per_call"] = per_call_us("kernels.gemv_sketch")
    m["kernels.gemv_sketch.ms_per_token"] = total_ms("kernels.gemv_sketch") / n_fwd
    m["kernels.bound_check.us_per_call"] = per_call_us("kernels.bound_check")
    m["kernels.bound_check.calls_per_token"] = len(by_name["kernels.bound_check"]) / n_fwd
    m["bitcodec.unpack.calls_per_token"] = len(by_name["bitcodec.unpack"]) / n_fwd
    m["bitcodec.unpack.ms_per_token"] = total_ms("bitcodec.unpack") / n_fwd
    m["quantizer.dequantize_calls"] = float(len(by_name["quantizer.dequantize"]))
    m["engine.forward_ms_p50"] = statistics.median(s.dur for s in forwards) / 1e6
    m["engine.sample_ms_per_token"] = (
        sum(own[s.id] for s in by_name["engine.generate"]) / 1e6 / n_fwd
    )
    covered = interp_ms + total_ms("kernels.bound_check")
    covered += sum(total_ms(f"intrinsics.{op}") for op in OPS)
    m["trace.coverage"] = covered / fwd_ms
    return m


def setup_metrics(spans: list[Span], tracer: Tracer) -> dict:
    """Per-layer set-up figures from the spans recorded before decoding."""
    spans = [s for s in spans if s.seq == SETUP]

    def total_ms(name: str) -> float:
        return sum(s.dur for s in spans if s.name == name) / 1e6

    quantized = [s for s in spans if s.name == "quantizer.quantize"]
    return {
        "checkpoint.read_ms": total_ms("checkpoint.read"),
        "quantizer.quantize_ms": wall_ns(quantized) / 1e6,
        "quantizer.tensors": float(len(quantized)),
        "quantizer.max_epsilon": max(tracer.records["quantizer.quantize"], default=0.0),
        "synthesize.ms": total_ms("synthesize"),
        "gemvpass.ms": total_ms("gemvpass"),
        "interp.compile_ms": total_ms("interp.compile"),
    }


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per line: id, name, start_ns, end_ns, parent, seq."""
    with gzip.open(path, "wt", encoding="utf-8") as f:
        for s in sorted(tracer.spans, key=lambda s: s.id):
            f.write(json.dumps(list(s)) + "\n")
