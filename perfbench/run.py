#!/usr/bin/env python3
"""Benchmark driver for the DataScalar simulator.

Run from the repository root:

    python3 perfbench/run.py --workload go-ds2 --seed 1 --seconds 20 --trace 0

It builds the benchmark package twice from source (the default obs-off
build and a ``--features obs`` build, under ``$CARGO_TARGET_DIR`` or
``.bench_build``), runs one simulation job at a time, checks every job's
output, measures host time in units of a reference kernel timed around
every job, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it are one ``fingerprint`` line per job with every deterministic counter.
See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
FEATURES = {"off": [], "obs": ["--features", "obs"]}
# After the build, the whole run must end within 180 s; a child still
# running at this many seconds after the build is stuck.
RUN_DEADLINE_S = 170
# Host times are reported in units of the reference kernel
# (src/reference.rs): a time t measured while the kernel took k seconds
# is reported as t / k * REFERENCE_S. REFERENCE_S is a fixed scale near
# the kernel's time on the host the benchmark was defined on (2 vCPUs of
# a 2.0 GHz Xeon), so the numbers read roughly as seconds and insts/s
# there. Changing it rescales every time metric.
REFERENCE_S = 0.020


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(variant):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = os.path.join(root, variant)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        "--target-dir", target,
    ] + FEATURES[variant]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"building the {variant} benchmark failed: {e}")
    if r.returncode != 0:
        fail(f"building the {variant} benchmark failed (exit {r.returncode})")
    return os.path.join(target, "release", "ds-perfbench")


def run_child(binary, args, deadline):
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)}: {e}")
    if r.returncode != 0:
        fail(f"{' '.join(args)}: exit {r.returncode}")
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"{' '.join(args)}: unreadable output ({e})")


def spec_metrics(kind):
    try:
        with open(SPEC) as f:
            return json.load(f)[kind]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def render(spec, values):
    """Orders the metrics as BENCHMARK.json lists them, checking units."""
    out = {}
    for m in spec:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")

    bins = {v: build(v) for v in FEATURES}
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    def measure(variant, seconds):
        return variant, run_child(bins[variant], ["measure"] + common +
                                  ["--seconds", f"{seconds:.3f}"], deadline)

    # Obs-off and obs-on alternate (ABBA...) so both columns see the same
    # mix of host-speed phases. The traced run spends half of the time
    # on them and the rest on the layer replays.
    order = ("off", "obs", "obs", "off") * 2
    share = a.seconds / len(order) / (2 if a.trace else 1)
    runs = [measure(v, share) for v in order]
    if a.trace:
        last = [run_child(bins["off"], ["trace"] + common, deadline)]
    else:
        # Peak resident set of one run of every job without the reference
        # kernel. It varies by a few pages between processes: median of 3.
        last = [run_child(bins["off"], ["footprint"] + common, deadline) for _ in range(3)]

    docs = [d for _, d in runs] + last
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    for d in docs:
        for e in d["errors"]:
            print(f"perfbench: job failed: {e}", file=sys.stderr)
    prints = [tuple(d["fingerprints"]) for d in docs]
    stable = all(fp == prints[0] for fp in prints)
    if not stable:
        print("perfbench: counters differ between processes or builds", file=sys.stderr)

    off = [d for v, d in runs if v == "off"]
    obs = [d for v, d in runs if v == "obs"]
    # Every run() is divided by the reference kernel's time around it
    # (src/reference.rs), so a slow phase of the shared host, which
    # stretches both, cancels. Each job's time is the median of its
    # ratios over the run, in REFERENCE_S units (README.md, "Steadiness").
    def throughput(name, docs_):
        jobs = {}
        for d in docs_:
            for j in d["jobs"]:
                job = jobs.setdefault(j["label"], [0, [], []])
                job[0] = max(job[0], j["committed"])
                job[1].extend(j["run_s"])
                job[2].extend(r / k for r, k in zip(j["run_s"], j["ref_s"]))
        if not jobs or any(not times for _, times, _ in jobs.values()):
            fail(f"{name}: a job never completed")
        insts = sum(c for c, _, _ in jobs.values())
        rate = insts / sum(statistics.median(q) * REFERENCE_S for _, _, q in jobs.values())
        raw = insts / sum(statistics.median(r) for _, r, _ in jobs.values())
        print(f"{name}: {min(len(r) for _, r, _ in jobs.values())} runs per job, "
              f"{rate:.6g} insts/s normalised, {raw:.6g} insts/s raw median", file=sys.stderr)
        return rate

    insts, obs_insts = throughput("off", off), throughput("obs", obs)
    if a.trace:
        values = {k: (v["value"], v["unit"]) for k, v in last[0]["metrics"].items()}
        values["obs.overhead_ratio"] = (insts / obs_insts, "ratio")
        for k, v in obs[0]["obs"].items():
            values[k] = (v, "count" if k.endswith("_dropped") else "ratio")
        metrics = render(spec_metrics("per_layer"), values)
    else:
        # Set-ups are normalised by the median kernel time of their own
        # process; set-up is the median over all of them.
        setups = [x / statistics.median(d["kernel_s"]) * REFERENCE_S
                  for d in off for x in d["setup_s"]]
        raw = statistics.median(x for d in off for x in d["setup_s"])
        print(f"setup: {len(setups)} set-ups, median {statistics.median(setups):.6g} s "
              f"normalised, {raw:.6g} s raw", file=sys.stderr)
        metrics = render(spec_metrics("end_to_end"), {
            "insts_per_s": (insts, "insts/s"),
            "obs_insts_per_s": (obs_insts, "insts/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (statistics.median(d["peak_rss_mib"] for d in last), "MiB"),
        })

    print(f"seed {a.seed}")
    for line in prints[0]:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
