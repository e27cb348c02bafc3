#!/usr/bin/env python3
"""Run the decode benchmark on a parent revision and on this tree, in pairs.

The parent revision's committed files are extracted with ``git archive``
into a temporary directory, which is removed afterwards.  For each workload,
pair ``i`` runs ``perfbench/run.py --seed SEED+i`` once on each tree,
alternating which tree runs first, and reads the contract line (the last
line of its output).  A pair fails when either contract line says
``correct: false``.  With ``--trace``, each pair also makes one
``--trace 1`` run per tree, in the pair's order and with its seed, so no
single traced run decides a per-layer figure.

The JSON written to ``--out`` holds, per workload and gated metric, each
side's median and quartiles, the pairs the change won (by the metric's
``better`` direction in ``BENCHMARK.json``) and the change/parent ratio of
the medians, followed by every run.  With ``--trace`` it also holds, per
workload and per-layer metric, each side's median and quartiles over the
traced runs, followed by every traced run.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 25 \\
        --out BENCH_pairs.json --trace
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark run in `tree`; returns its (report, contract) lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    report, contract = done.stdout.strip().splitlines()[-2:]
    return json.loads(report)["report"], json.loads(contract)


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: [r for r in mine if r["side"] == s] for s in ("parent", "change")}
        entry = {"pairs": len(side["change"]),
                 "failed_pairs": len({r["pair"] for r in mine if not r["correct"]})}
        for metric in SPEC["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            p = [r[name] for r in side["parent"]]
            c = [r[name] for r in side["change"]]
            entry[name] = {
                "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                "parent": quartiles(p),
                "change": quartiles(c),
                "ratio_change_over_parent": float(np.median(c) / np.median(p)),
            }
        entry["fail_rate"] = {
            s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for s, rs in side.items()
        }
        summary[workload] = entry
    return summary


def summarize_traced(traced: list) -> dict:
    """Each side's median and quartiles of every per-layer metric both sides report."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in traced):
        mine = [r for r in traced if r["workload"] == workload]
        entry = summary[workload] = {}
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            side = {s: [r[name] for r in mine if r["side"] == s and r.get(name) is not None]
                    for s in ("parent", "change")}
            if all(side.values()):
                entry[name] = {s: quartiles(v) for s, v in side.items()}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per tree to each pair")
    parser.add_argument("--out", required=True, help="where to write the JSON")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    trees, runs, traced, host = {"change": ROOT}, [], [], None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees["parent"] = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for trace in (0, 1) if args.trace else (0,):
                    for side in order:
                        report, contract = run(trees[side], workload, seed, args.seconds, trace)
                        host = host or report["metadata"]
                        row = {"workload": workload, "seed": seed, "pair": pair, "side": side,
                               "ran_first": side == order[0], "correct": contract["correct"]}
                        if trace:
                            traced.append({**row, **{k: v["value"]
                                                     for k, v in report["metrics"].items()}})
                            continue
                        runs.append({
                            **row, "attempted": contract["attempted"],
                            "failed": contract["failed"],
                            **{k: v["value"] for k, v in contract["metrics"].items()},
                        })
                        print(json.dumps(runs[-1]), flush=True)

    head = git("rev-parse", "HEAD")
    result = {
        "description": (
            f"perfbench/run.py, {args.seconds:g} s per run; parent = commit {parent}, "
            f"change = the working tree at {head}{' with uncommitted changes' if dirty else ''}; "
            "pairs alternate which side runs first; values are the contract line's gated metrics"
        ),
        "command": " ".join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
        "host": {k: v for k, v in (host or {}).items() if k != "seed"},
        "seeds": {w: [args.seed + i for i in range(args.pairs)] for w in workloads},
        "summary": summarize(runs),
        "runs": runs,
    }
    if args.trace:
        result["trace"] = {"seconds": args.seconds, "summary": summarize_traced(traced),
                           "runs": traced}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for workload, entry in result["summary"].items():
        for metric in SPEC["end_to_end"]:
            m = entry[metric["name"]]
            print(f"{workload:13} {metric['name']:13} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g}  x{m['ratio_change_over_parent']:.3f}  "
                  f"wins {m['change_wins']}/{entry['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
