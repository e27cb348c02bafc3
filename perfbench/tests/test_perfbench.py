"""Tests of the decode benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quantloop.runtime import Engine, make_toy_checkpoint  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    decode_metrics,
    gemv_weights,
    self_times,
    wall_ns,
    weight_label,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "metrics.json").read_text())
TOY_GEMVS = [f"l{i}_{w}" for i in range(2) for w in ("wq", "wk", "wv", "wo", "w1", "w3", "w2")]
TOY_GEMVS.append("classifier")


# -- percentile rule ---------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert workloads.tail_percentile(range(1, 101), 90) == 90
    assert workloads.tail_percentile(reversed(range(1, 110)), 90) == 99
    with pytest.raises(workloads.InsufficientSamples):
        workloads.tail_percentile(range(1, 100), 90)  # 9 beyond the 90th
    with pytest.raises(workloads.InsufficientSamples):
        workloads.tail_percentile([], 50)


def _sequence(ttft_s, gaps_s):
    stamps = [ttft_s]
    for gap in gaps_s:
        stamps.append(stamps[-1] + gap)
    return workloads.Sequence(0, [1], len(stamps), called=0.0, returned=stamps[-1], stamps=stamps)


def test_latency_pools_every_repeat():
    repeats = [[_sequence(0.010, [0.002] * 120)], [_sequence(0.020, [0.004] * 120)]]
    m = workloads.latency(repeats)
    assert m["ttft_ms_p50"] == (pytest.approx(15.0), 2)
    assert m["tpot_ms_p50"] == (pytest.approx(3.0), 240)
    assert m["tpot_ms_p90"] == (pytest.approx(4.0), 240)
    assert m["gen_tok_s"] == (pytest.approx(242 / 0.75), 242)


def test_host_adjusted_scales_each_interval_by_the_probe_there():
    seq = _sequence(0.010, [0.002] * 120)
    ref = workloads.PROBE_REF_S
    seq.probes = [(0.0, ref), (0.010, 2 * ref), (0.130, 2 * ref), (seq.returned, ref)]
    adj = workloads.host_adjusted(seq)
    # The first token's interval, centred at 5 ms, reads 1.5x the reference.
    assert adj.stamps[0] == pytest.approx(0.010 / 1.5)
    gaps = [b - a for a, b in zip(adj.stamps, adj.stamps[1:])]
    assert gaps[10] == pytest.approx(0.001)  # 2x slower host: halved
    # The last gap, centred at 249 ms, reads 119/120 of the way from 2x to 1x.
    assert gaps[-1] == pytest.approx(0.002 / (2 - 0.119 / 0.120))
    assert adj.returned == pytest.approx(adj.stamps[-1])


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, "child", 10, 30, 0, 0),
        Span(3, "grandchild", 45, 55, 2, 0),
        Span(2, "child", 40, 70, 0, 0),
        Span(0, "root", 0, 100, -1, 0),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10}


def test_wall_time_merges_overlapping_spans():
    spans = [Span(0, "q", 0, 10, -1, -1), Span(1, "q", 5, 20, -1, -1),
             Span(2, "q", 30, 40, -1, -1), Span(3, "q", 32, 35, -1, -1)]
    assert wall_ns(spans) == 30


def test_gemv_ordinals_follow_the_engine_program(tmp_path):
    ditf = str(tmp_path / "toy.ditf")
    make_toy_checkpoint(ditf, seed=0)
    assert gemv_weights(Engine(ditf, mode="optimized").program) == TOY_GEMVS
    assert gemv_weights(Engine(ditf, mode="naive").program) == []
    assert [weight_label(w) for w in TOY_GEMVS[6:9]] == ["w2", "wq", "wk"]
    assert weight_label("classifier") == "classifier"


def _forward(sid, t, weights, per_call):
    """A forward span at time t whose gemv handlers take 10 ns per call each,
    of which the kernel takes 6 ns; returns (spans, next free id, end time)."""
    spans, start, fid = [], t, sid
    sid += 1
    t += 5  # interpreter time before the first call
    for _ in range(len(weights) * per_call):
        spans.append(Span(sid, "intrinsics.gemv", t, t + 10, fid, 0))
        spans.append(Span(sid + 1, "kernels.gemv_opt", t + 2, t + 8, sid, 0))
        sid, t = sid + 2, t + 11
    spans.append(Span(fid, "engine.forward", start, t, -1, 0))
    return spans, sid, t


def test_decode_metrics_label_dual_path_handler_pairs_by_ordinal():
    weights = ["l0_wq", "l0_w2", "classifier"]
    spans, sid, t = _forward(0, 0, weights, per_call=2)
    more, _, _ = _forward(sid, t, weights, per_call=2)
    m = decode_metrics(spans + more, weights)
    for label in ("wq", "w2", "classifier"):
        assert m[f"intrinsics.gemv.{label}.us_per_call"] == pytest.approx(20 / 1e3)
    assert m["intrinsics.gemv.calls_per_token"] == 6
    assert m["intrinsics.gemv.dispatch_us_per_call"] == pytest.approx(4 / 1e3)
    assert m["kernels.gemv_opt.us_per_call"] == pytest.approx(6 / 1e3)
    # 5 ns before the first call plus 1 ns between each of the 6 calls.
    assert m["interp.self_ms_per_token"] == pytest.approx(11 / 1e6)
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_decode_metrics_reject_handler_counts_that_do_not_split():
    spans, _, _ = _forward(0, 0, ["l0_wq", "l0_wk"], per_call=1)
    with pytest.raises(ValueError, match="do not split"):
        decode_metrics(spans, ["l0_wq", "l0_wk", "l0_wv"])


# -- benchmark description ---------------------------------------------------


def test_benchmark_json_and_layer_map_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert set(e2e) <= set(LAYERS["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert LAYERS["end_to_end"][m["name"]]["unit"] == m["unit"], m["name"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYERS["per_layer"])
    for name, doc in LAYERS["per_layer"].items():
        assert doc["layer"] and doc["what"], name
        for move in doc["moves"]:
            assert move["metric"] in e2e, name
            assert set(move["workloads"]) <= set(workloads.WORKLOADS), name


# -- correctness gate and smoke runs -----------------------------------------


def _tiny(name: str, steps: int) -> workloads.Workload:
    """`name` with one set-up and one short sequence per engine."""
    real = workloads.WORKLOADS[name]

    def plan(rng):
        firsts = {}
        for engine, prompt, _ in real.plan(rng):
            firsts.setdefault(engine, (engine, prompt[:2], steps))
        return list(firsts.values())

    return dataclasses.replace(real, plan=plan, setup_reps=1)


def _steps_for_p90(name: str) -> int:
    engines = 4 if name == "dual_verify" else 1
    return math.ceil(100 / engines) + 1


def test_gate_fails_a_sequence_that_differs_from_the_naive_engine(tmp_path):
    w = _tiny("float_decode", 4)
    setup, _ = workloads.set_up(w, bench.float_checkpoint(str(tmp_path)), str(tmp_path))
    seqs = workloads.run_repeats(setup, w.plan(workloads.random.Random(0)), 0)[0]
    seqs[0].tokens[1] = (seqs[0].tokens[1] + 1) % workloads.VOCAB
    workloads.gate(w, setup, seqs, 0)
    assert seqs[0].error.startswith("tokens differ from the naive engine")


def test_decode_leaves_its_probes_out_of_its_times(tmp_path, monkeypatch):
    w = _tiny("float_decode", 6)
    setup, _ = workloads.set_up(w, bench.float_checkpoint(str(tmp_path)), str(tmp_path))
    item = w.plan(workloads.random.Random(0))[0]
    plain = workloads.decode(setup, *item)

    def slow_probe():
        workloads.time.sleep(0.1)
        return 0.1

    monkeypatch.setattr(workloads, "host_probe", slow_probe)
    monkeypatch.setattr(workloads, "PROBE_INTERVAL_S", 0.0)
    probed = workloads.decode(setup, *item, probe=workloads.PROBE_REF_S)
    assert plain.probes == [] and probed.tokens == plain.tokens
    assert len(probed.probes) == len(probed.stamps) + 2
    # Seven probes ran for 0.7 s; eight forward steps of the toy model take
    # a few ms each.
    assert probed.returned - probed.called < 0.3


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name, tmp_path, monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name, _steps_for_p90(name)))
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines[-2]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(lines[-2])["report"]
    assert list(report["metrics"]) == list(LAYERS["end_to_end"])
    assert report["fail_rate"] == {"value": 0.0, "failed": 0, "attempted": result["attempted"]}
    assert report["metadata"]["blas_threads"] <= report["metadata"]["nproc"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    w = _tiny(name, 4)
    m, repeats = bench.measure_traced(w, 7, 0, str(tmp_path), str(tmp_path / "spans.jsonl.gz"))
    assert all(s.error is None for repeat in repeats for s in repeat)
    assert set(m) == set(LAYERS["per_layer"])
    assert m["trace.coverage"] == pytest.approx(1.0, abs=0.02)
    assert (m["gemvpass.nests_matched"], m["gemvpass.nests_skipped"]) == (15, 6)
    assert m["intrinsics.gemv.calls_per_token"] == 15 * (2 if name == "dual_verify" else 1)
    assert m["quantizer.dequantize_calls"] == 0
    assert m["engine.stats.bound_violations"] == 0
    assert (m["interp.naive_ms_per_token"] > 0) == (w.gate_tokens > 0)
    assert (m["quantizer.tensors"] > 0) == (name != "float_decode")
    assert (0 < m["kernels.worst_error_to_bound_ratio"] < 1) == (name == "dual_verify")
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float_decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
