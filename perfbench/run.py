#!/usr/bin/env python3
"""The simulator benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload warm-cluster --seed 1 --seconds 25 --trace 0

Builds the `perfbench` measurement binary from source (into
$CARGO_TARGET_DIR, default perfbench/target), then runs the workload
repeatedly, each time in a fresh process, until --seconds have passed:

* --trace 0 reports the end-to-end metrics, each the median over the
  runs (host times) or the simulated outcome, which must be identical
  in every run at one seed;
* --trace 1 alternates untraced runs with traced ones (timing wrappers
  around the engine's router and trace source), adds one run of the
  isolated layer probes, and reports the per-layer metrics.

Every run is checked: the request ledger balances, every offered request
completes, the p99 has at least 10 samples beyond it, and the simulated
outcome (digest and every sim_ metric) repeats exactly, traced or not.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed check prints
"correct": false and exits 1; a missing repository or build failure
exits 2 without a result.

The simulator is a model that has not been validated against hardware:
sim_ metrics are model outputs, not predictions of real latencies, and
no accuracy figure is reported. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm-cluster", "trace-fleet", "churn-virtio")
# What the binary reads from the repository: the simulator crates it
# links and the committed trace trace-fleet replays.
REQUIRED = ("crates/faas/Cargo.toml", "examples/traces/azure_3day.csv")
# At least this many measured runs, so every report is a median and
# the simulated outcome is seen to repeat.
MIN_RUNS = 3
# Set-up is short and page-fault bound, so each measured run is followed
# by this many set-up-only processes for a steadier set-up median.
SETUPS_PER_RUN = 2
CHILD_TIMEOUT_S = 150

# name, unit; the direction and bound live in BENCHMARK.json.
END_TO_END = (
    ("invocations_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_cold_start_pct", "%"),
    ("sim_gib_s", "GiB.s"),
    ("sim_reclaim_ms_per_gib", "sim_ms/GiB"),
    ("sim_served_pct", "%"),
)
PER_LAYER = (
    ("faas.router.route_ns", "ns"),
    ("faas.router.calls", "count"),
    ("faas.engine.self_s", "s"),
    ("sim_core.ns_per_event", "ns"),
    ("sim_core.events", "count"),
    ("sim_core.peak_queue_depth", "count"),
    ("sim_core.queue_push_pop_ns", "ns"),
    ("workloads.next_arrival_ns", "ns"),
    ("workloads.arrivals", "count"),
    ("workloads.parse_arrivals_per_s", "1/s"),
    ("vmm.boot_ms", "ms"),
    ("vmm.boot_rss_mib", "MiB"),
    ("faas.setup.per_host_ms", "ms"),
    ("squeezy.plug_partition_us_per_gib", "us/GiB"),
    ("squeezy.unplug_partition_us_per_gib", "us/GiB"),
    ("guest_mm.touch_anon_ns_per_page", "ns"),
    ("guest_mm.exit_process_ns_per_page", "ns"),
    ("virtio_mem.unplug_ns_per_migrated_page", "ns"),
    ("faas.backend.pages_migrated", "count"),
    ("virtio_mem.migrated_pages_per_gib", "count/GiB"),
    ("faas.backend.reclaim_ops", "count"),
    ("faas.backend.reclaimed_gib", "GiB"),
    ("faas.backend.reclaim_shortfalls", "count"),
    ("faas.cold_starts", "count"),
    ("faas.warm_hit_pct", "%"),
    ("trace.overhead_pct", "%"),
)
# Host measurements: everything else a run reports is simulated
# outcome and must repeat exactly.
HOST_KEYS = {
    "setup_s",
    "run_s",
    "invocations_per_s",
    "peak_rss_mib",
    "faas.router.route_ns",
    "faas.engine.self_s",
    "workloads.source_ns",
}
# Present only on traced runs.
TRACED_KEYS = {
    "faas.router.calls",
    "faas.router.route_ns",
    "faas.engine.self_s",
    "workloads.source_calls",
    "workloads.source_ns",
}


class CheckFailed(Exception):
    pass


def build():
    """Builds the measurement binary and returns its path."""
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not inside the repository; missing " + ", ".join(missing),
              file=sys.stderr)
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(target, "release", "perfbench")


def child(binary, args):
    """Runs the binary once in a fresh process and returns its JSON."""
    try:
        p = subprocess.run([binary] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{' '.join(args)}: no result within {CHILD_TIMEOUT_S} s")
    if p.returncode != 0:
        raise CheckFailed(f"{' '.join(args)}: exit {p.returncode}: {p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def outcome(run):
    """The simulated part of a run: what must repeat exactly."""
    return {k: v for k, v in run.items() if k not in HOST_KEYS | TRACED_KEYS}


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(ref, runs, setups):
    m = {
        "invocations_per_s": median(runs, "invocations_per_s"),
        "setup_s": median(runs + setups, "setup_s"),
        "peak_rss_mib": median(runs, "peak_rss_mib"),
    }
    for name, _ in END_TO_END:
        m.setdefault(name, ref[name])
    return m


def per_layer(ref, runs, setups, traced, probe):
    def med_ratio(rs, num, den, scale=1.0):
        return statistics.median(r[num] / r[den] * scale for r in rs)

    ips, ips_traced = median(runs, "invocations_per_s"), median(traced, "invocations_per_s")
    streamed = traced[0]["workloads.source_calls"] > 0
    m = {
        "faas.router.route_ns": median(traced, "faas.router.route_ns"),
        "faas.router.calls": traced[0]["faas.router.calls"],
        "faas.engine.self_s": median(traced, "faas.engine.self_s"),
        "sim_core.ns_per_event": med_ratio(runs, "run_s", "sim_core.events", 1e9),
        # In-engine through the source wrapper where the engine streams;
        # an isolated drain of the generated arrivals otherwise.
        "workloads.next_arrival_ns": (
            med_ratio(traced, "workloads.source_ns", "workloads.source_calls")
            if streamed else probe["workloads.drain_ns_per_arrival"]),
        "faas.setup.per_host_ms": median(runs + setups, "setup_s") / ref["hosts"] * 1e3,
        "trace.overhead_pct": 100.0 * (ips - ips_traced) / ips,
    }
    for name, _ in PER_LAYER:
        if name not in m:
            m[name] = probe[name] if name in probe else ref[name]
    return m


def describe(workload, seed, ref, runs):
    """Human-readable lines printed before the JSON result."""
    capped = ("; capped per host and function at LATENCY_RESERVOIR_CAP = 4096, "
              f"of {ref['sim_latency_requests']} requests" if ref["sim_latency_capped"] else "")
    n = ref["sim_latency_samples"]
    return [
        f"workload {workload}, seed {seed}: {len(runs)} measured runs, "
        f"digest {ref['digest']} in every run",
        f"  percentiles over {n} latency samples ({n // 100} beyond p99{capped})",
        "  the model is unvalidated against hardware: sim_ metrics are model outputs",
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a smoke-test size")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    binary = build()

    base = [a.workload, "--seed", str(a.seed)] + (["--tiny"] if a.tiny else [])
    attempted = failed = 0
    runs, setups, traced = [], [], []
    try:
        # The first process after a build or an idle spell runs slow;
        # its timings are dropped, its outcome is the reference.
        ref = child(binary, ["run"] + base)
        deadline = time.monotonic() + a.seconds
        while len(runs) < MIN_RUNS or time.monotonic() < deadline:
            runs.append(child(binary, ["run"] + base))
            setups += [child(binary, ["setup"] + base) for _ in range(SETUPS_PER_RUN)]
            if a.trace:
                traced.append(child(binary, ["run"] + base + ["--traced"]))
        for r in runs + traced:
            attempted += r["offered"]
            failed += r["offered"] - r["completed"]
            if outcome(r) != outcome(ref):
                raise CheckFailed("the simulated outcome differs between runs at one seed: "
                                  f"{outcome(r)} vs {outcome(ref)}")
        if a.trace:
            probe = child(binary, ["probe"] + base
                          + ["--depth", str(ref["sim_core.peak_queue_depth"])])
            metrics, units = per_layer(ref, runs, setups, traced, probe), PER_LAYER
        else:
            metrics, units = end_to_end(ref, runs, setups), END_TO_END
    except CheckFailed as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        sys.exit(1)

    for line in describe(a.workload, a.seed, ref, runs):
        print(line)
    for name, unit in units:
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))


if __name__ == "__main__":
    main()
