#!/usr/bin/env python3
"""Decode benchmark for quantloop.

Run from the root of a quantloop checkout::

    python3 perfbench/run.py --workload float_decode --seed 1 --seconds 10 --trace 0

Workloads are ``float_decode``, ``quant_decode`` and ``dual_verify`` (see
``workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics listed in
``metrics.json`` and writes its spans to ``perfbench/out/``.

Standard output ends with two JSON lines: a report (every figure measured,
with its unit and sample count, the failure rate with its counts, and the
run's metadata), then ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics ``BENCHMARK.json`` gates.
Exit status is 0 when the run completed, also when a check failed
(``correct`` is then false), and 2 when no quantloop source tree is found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DOCS = json.loads((HERE / "metrics.json").read_text())
#: Pinned so a run does not depend on the caller's environment.  One thread:
#: the toy model's GEMVs are at most 256x172, too small for more BLAS
#: threads to pay off.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("float_decode", "quant_decode", "dual_verify"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Must run before numpy is imported; returns the pinned count."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quantloop" / "__init__.py").is_file():
        print(f"perfbench: no quantloop sources at {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    # Imported here: numpy must see the pinned thread count, and quantloop
    # must come from this checkout's src/.
    import quantloop
    from bench import measure, measure_traced, metadata
    from workloads import WORKLOADS

    if Path(quantloop.__file__).resolve().parent != (SRC / "quantloop").resolve():
        print(f"perfbench: imported quantloop from {quantloop.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            values, repeats = measure_traced(workload, args.seed, args.seconds, work, str(spans))
            values = {k: (v, None) for k, v in values.items()}
        else:
            spans = None
            values, repeats = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    docs, gated = DOCS[kind], SPEC[kind]
    units = {k: doc.get("unit") for k, doc in docs.items()}
    units.update((m["name"], m["unit"]) for m in gated)
    seqs = [s for repeat in repeats for s in repeat]
    failed = [s for s in seqs if s.error is not None]
    probes = [reading for s in seqs for _, reading in s.probes]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "metadata": metadata(args.seed, threads),
        "repeats": len(repeats),
        "host_probe_ms": {"median": statistics.median(probes) * 1e3, "min": min(probes) * 1e3,
                          "max": max(probes) * 1e3, "samples": len(probes)},
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in values.items()},
        "fail_rate": {"value": len(failed) / len(seqs), "failed": len(failed),
                      "attempted": len(seqs)},
        "failures": [s.error for s in failed[:5]],
        "computed": [k for k in values if docs[k].get("computed")],
        "spans": str(spans.relative_to(HERE.parent)) if spans else None,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(seqs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": units[m["name"]]}
                    for m in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
