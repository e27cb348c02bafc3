"""One benchmark run: set-up, timed decode, heap pass, correctness gate.

``measure`` gives the end-to-end metrics (tracing off).  ``measure_traced``
gives the per-layer metrics: it builds one set of engines under the tracer
and one without, repeats the plan on the untraced engines for the run's
time, then decodes it once traced, so span counts repeat across runs.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import tracemalloc

import numpy as np

from quantloop.runtime import make_toy_checkpoint

from tracing import WARM_UP, Tracer, decode_metrics, gemv_weights, installed, setup_metrics, write_spans
from workloads import (
    HEAP_TOKENS,
    PROBE_REF_S,
    Workload,
    decode,
    gate,
    gemv_work,
    host_adjusted,
    host_probe,
    latency,
    run_repeats,
    set_up,
    tok_s,
    warm_up,
)

STATS = ("gemv_calls", "quantized_gemv_calls", "bound_checks", "fallback_calls", "bound_violations")


def metadata(seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def float_checkpoint(work: str) -> str:
    """The toy model (weights seed 0); the run's seed only draws prompts."""
    path = os.path.join(work, "toy.ditf")
    make_toy_checkpoint(path, seed=0)
    return path


def heap_peak_mb(workload: Workload, ditf: str, work: str, seed: int) -> float:
    """tracemalloc peak from building the engines through decoding.

    The offline step (``quantize_checkpoint`` for ``quant_decode``) runs
    before the window: its float temporaries would mask the engine's
    resident weights, which is what this metric watches.  Each engine then
    decodes the start of its first prompt in the plan for ``HEAP_TOKENS``
    tokens.
    """
    path = workload.prepare(ditf, work)
    tracemalloc.start()
    try:
        setup = workload.build(path)
        seen: set = set()
        for engine, prompt, steps in workload.plan(random.Random(seed)):
            if engine not in seen:
                seen.add(engine)
                seq = decode(setup, engine, prompt[:HEAP_TOKENS], HEAP_TOKENS)
                if seq.error:
                    raise RuntimeError(f"heap pass: {seq.error}")
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure(workload: Workload, seed: int, seconds: float, work: str) -> tuple[dict, list]:
    """End-to-end metrics as {name: (value, samples)}, and the sequences by repeat."""
    ditf = float_checkpoint(work)
    host_probe()  # the first call pays numpy's lazy set-up
    probe, times, adjusted = host_probe(), [], []
    for _ in range(workload.setup_reps):
        setup, elapsed = set_up(workload, ditf, work)
        after = host_probe()
        times.append(elapsed)
        adjusted.append(elapsed * PROBE_REF_S * 2 / (probe + after))
        probe = after
    warm_up(setup)
    repeats = run_repeats(setup, workload.plan(random.Random(seed)), seconds)
    heap = heap_peak_mb(workload, ditf, work, seed)
    gate(workload, setup, repeats[0], seed)
    metrics = {"setup_s": (statistics.median(adjusted), len(adjusted)),
               "setup_s_wall": (statistics.median(times), len(times))}
    metrics.update(latency([[host_adjusted(s) for s in repeat] for repeat in repeats]))
    metrics.update((f"{k}_wall", v) for k, v in latency(repeats).items())
    metrics["heap_peak_mb"] = (heap, 1)
    return metrics, repeats


def measure_traced(workload: Workload, seed: int, seconds: float, work: str,
                   spans_path: str) -> tuple[dict, list]:
    """Per-layer metrics as {name: value}, and the sequences by repeat."""
    ditf = float_checkpoint(work)
    tracer = Tracer()
    with installed(tracer):
        traced = workload.build(workload.prepare(ditf, work))
    plain, _ = set_up(workload, ditf, work)
    warm_up(plain)
    tracer.seq = WARM_UP
    with installed(tracer):
        warm_up(traced)
    before = [e.stats.to_json() for e in traced.engines]

    plan = workload.plan(random.Random(seed))
    repeats = run_repeats(plain, plan, seconds)
    seqs = []
    with installed(tracer):
        for i, item in enumerate(plan):
            tracer.seq = i
            seqs.append(decode(traced, *item))
    for first, seq in zip(repeats[0], seqs):
        if seq.error is None and seq.tokens != first.tokens:
            seq.error = "traced tokens differ from untraced ones"
    naive_ms = gate(workload, plain, seqs, seed)
    write_spans(tracer, spans_path)

    weights = gemv_weights(traced.engines[0].program)
    passed = traced.engines[0].pass_result
    flops, weight_bytes = gemv_work(workload, weights)
    m = setup_metrics(tracer.spans, tracer)
    m.update(decode_metrics(tracer.spans, weights))
    m.update({
        "checkpoint.file_bytes": float(os.path.getsize(traced.checkpoint)),
        "gemvpass.nests_matched": float(len(passed.matched)),
        "gemvpass.nests_skipped": float(len(passed.skipped)),
        "interp.naive_ms_per_token": naive_ms or 0.0,
        "kernels.worst_error_to_bound_ratio": max(
            (e.gemv_observer.worst for e in traced.engines if e.gemv_observer), default=0.0),
        "kernels.gemv_flops_per_token": flops,
        "kernels.weight_bytes_per_token": weight_bytes,
        "trace.overhead": tok_s([s for r in repeats for s in r]) / tok_s(seqs),
    })
    after = [e.stats.to_json() for e in traced.engines]
    for key in STATS:
        m[f"engine.stats.{key}"] = float(sum(a[key] - b[key] for a, b in zip(after, before)))
    return m, repeats + [seqs]
