#!/usr/bin/env python3
"""Stability check of the benchmark: runs run.py repeatedly and reports spreads.

Run from the repository root:

    python3 perfbench/stability.py --runs 10 --sets 2 [--workloads go-ds2,...] [--split]

For each set and workload it runs ``run.py --trace 0`` once per seed
(seeds 1..runs, the same seeds in every set) and reports, per end-to-end
metric, the median and the spread: the distance between the first and
third quartile (``statistics.quantiles(n=4)``) as a share of the median.
It fails (exit 1) if

* any run is not correct or has a failed job,
* any deterministic counter differs between two runs of the same seed,
  or, for workloads whose inputs do not depend on the seed, between any
  two runs,
* a spread other than ``setup_s``'s exceeds the metric's bound, or
* with two or more sets, a later set's median is worse than the first
  set's by more than the bound.

``--split`` also makes one traced run per workload (seed 1) and checks
that the workloads stress the layers they were chosen for (README.md,
"Workloads").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
SEEDED = {"chase-ds4-ring"}


def run(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed (exit {r.returncode})")
    prints = tuple(line for line in lines if line.startswith("fingerprint "))
    return json.loads(lines[-1]), prints


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    change = (later - first) / first
    return -change if better == "higher" else change


def check_split(spec):
    """The traced run must show the layer split each workload exists for."""
    m = {w["name"]: run(spec, w["name"], 1, 1)[0]["metrics"] for w in spec["workloads"]}
    v = {w: {k: x["value"] for k, x in ms.items()} for w, ms in m.items()}
    layers = ("trace", "ooo", "mem", "protocol", "net")
    go = v["go-ds2"]
    selfs = {name: go[f"{name}.self_s"] for name in layers}
    selfs["engine"] = go["engine.residual_s"]
    chase, comp = v["chase-ds4-ring"], v["compress-fig7"]
    per_inst = lambda x: x["net.transactions"] / x["trace.insts"]
    checks = [
        ("go-ds2 engine.skip_ratio < 0.05", go["engine.skip_ratio"] < 0.05),
        (f"go-ds2 largest self time is ooo ({max(selfs, key=selfs.get)})",
         max(selfs, key=selfs.get) == "ooo"),
        ("chase-ds4-ring engine.skip_ratio > 0.7", chase["engine.skip_ratio"] > 0.7),
        (f"chase-ds4-ring net.transactions/inst >= 50x go-ds2's "
         f"({per_inst(chase) / per_inst(go):.0f}x)", per_inst(chase) >= 50 * per_inst(go)),
        ("compress-fig7 protocol.false_hits > 0", comp["protocol.false_hits"] > 0),
        ("compress-fig7 net.writes > 0", comp["net.writes"] > 0),
    ]
    for name, ok in checks:
        print(f"split: {'ok  ' if ok else 'FAIL'} {name}")
    return all(ok for _, ok in checks)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", default="")
    p.add_argument("--split", action="store_true")
    a = p.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    first_medians, first_prints = {}, {}
    for s in range(a.sets):
        for w in names:
            results = [run(spec, w, seed, 0) for seed in range(1, a.runs + 1)]
            for seed, (doc, prints) in enumerate(results, 1):
                if not doc["correct"] or doc["failed"]:
                    print(f"FAIL {w} seed {seed}: correct={doc['correct']} failed={doc['failed']}")
                    ok = False
                key = (w, seed if w in SEEDED else 0)
                if first_prints.setdefault(key, prints) != prints:
                    print(f"FAIL {w} seed {seed}: counters differ from an earlier run")
                    ok = False
            for m in spec["end_to_end"]:
                values = [doc["metrics"][m["name"]]["value"] for doc, _ in results]
                med, sp = statistics.median(values), spread(values)
                line = f"set {s + 1} {w:<15} {m['name']:<16} median {med:.6g} spread {sp:.4f} (bound {m['bound']})"
                if m["name"] != "setup_s" and sp > m["bound"]:
                    line += " FAIL spread"
                    ok = False
                first = first_medians.setdefault((w, m["name"]), med)
                if worse_by(first, med, m["better"]) > m["bound"]:
                    line += f" FAIL drift {worse_by(first, med, m['better']):+.3f}"
                    ok = False
                print(line, flush=True)
    if a.split:
        ok = check_split(spec) and ok
    print("stable" if ok else "NOT stable")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
