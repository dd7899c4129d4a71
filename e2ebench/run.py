#!/usr/bin/env python3
"""The repository benchmark: one seeded workload run, end to end.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark executable from
the checkout's sources (CMake, under $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs from the seed
(workloads.py), runs them, checks every output, and prints each metric
by name with its unit.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1.  The full result, with the exact work counters, is also
written to <build root>/e2ebench/runs/<workload>-s<seed>-t<trace>/.

Exit status 0 means the run completed; a failed check is reported as
"correct": false.  Any other status means there is no result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (after the path fix above)

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 160


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then build incrementally; the binary's path."""
    bdir = os.path.join(build_root(), "e2ebench", "build")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "--target", "m3d_e2ebench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(bdir, "m3d_e2ebench")


def weighted_percentile(samples, pct):
    """Lower weighted percentile of (value, weight) pairs."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    target = total * pct / 100.0
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= target:
            return value
    return ordered[-1][0]


def end_to_end(result, spec):
    samples = [(s["ms"], s["weight"]) for s in result["samples"]]
    tail = spec["tail_pct"]
    weight = sum(w for _, w in samples)
    beyond = weight * (1 - tail / 100.0)
    if beyond < 10:
        log(f"warning: only {beyond:.0f} samples beyond p{tail}")
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "op_p50_ms": (weighted_percentile(samples, 50), "ms"),
        "op_tail_ms": (weighted_percentile(samples, tail), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def self_times(events):
    """Per-span self time (us): duration minus the union of the
    intervals its children cover, clipped to the span."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        ivs = sorted((max(c["ts"], start), min(c["ts"] + c["dur"], end))
                     for c in children.get(e["args"]["id"], []))
        covered, cur_s, cur_e = 0.0, None, None
        for s, t in ivs:
            if t <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, t
            else:
                cur_e = max(cur_e, t)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[e["args"]["id"]] = e["dur"] - covered
    return out


def layer_ms(events):
    """Blocking (wall) milliseconds per layer.

    Spans on the calling thread count their self time.  The per-design
    power and thermal spans run on pool threads under one
    search.objectives span; that span's wall time is split between the
    two layers in proportion to their busy time, so the layers add up
    to the priced phase's wall time."""
    selfs = self_times(events)
    by_id = {e["args"]["id"]: e for e in events}
    ms = {}
    for e in events:
        parent = by_id.get(e["args"]["parent"])
        if parent is not None and parent["name"] == "search.objectives":
            continue
        if e["name"] == "search.objectives":
            continue
        ms[e["name"]] = ms.get(e["name"], 0.0) + selfs[e["args"]["id"]] / 1e3
    for e in events:
        if e["name"] != "search.objectives":
            continue
        busy = {}
        for c in events:
            if c["args"]["parent"] == e["args"]["id"]:
                busy[c["name"]] = busy.get(c["name"], 0.0) + c["dur"]
        total = sum(busy.values())
        for name, b in busy.items():
            ms[name] = ms.get(name, 0.0) + e["dur"] / 1e3 * b / total
    return ms


def span_counts(events, name, key):
    return sum(e["args"].get(key, 0.0) for e in events if e["name"] == name)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(result, events, kind):
    ex, obs = result["exact"], result["observed"]
    wall = layer_ms(events)
    # Multicore submits replay no single-core ops; keep them out.
    submit_ns = sum(e["dur"] * 1e3 for e in events
                    if e["name"] == "engine.submit"
                    and e["args"].get("ops_replayed", 0) > 0)
    ops = span_counts(events, "engine.submit", "ops_replayed")
    solves = ex.get("thermal_solves", 0)
    m = {}
    if kind == "search":
        n = ex["searches"]
        per = {k: v / n for k, v in wall.items()}
        searches = obs["searches"]
        overhead = statistics.mean(
            (s["traced_priced_ms"] - s["priced_ms"]) / s["priced_ms"] * 100
            for s in searches)
        m.update({
            "workload.capture_mb": (statistics.median(
                s["capture_mb"] for s in searches), "MiB"),
            "engine.runs": (ex["engine_runs"], "count"),
            "engine.run_hit_ratio": (ratio(ex["run_cache_hits"],
                                           ex["engine_runs"]), "ratio"),
            "search.pricer_calls": (ex["pricer_calls"], "count"),
            "search.memo_hit_ratio": (ratio(ex["objective_memo_hits"],
                                            ex["designs_priced"]), "ratio"),
            "service.eval_p50_ms": (0.0, "ms"),
            "service.multi_p50_ms": (0.0, "ms"),
            "service.sweep_p50_ms": (0.0, "ms"),
            "service.search_p50_ms": (0.0, "ms"),
            "service.sched_lag_ms": (0.0, "ms"),
            "service.coalesced_ratio": (0.0, "ratio"),
            "service.runs_per_drain": (0.0, "ratio"),
            "service.cache_entries": (0, "count"),
            "service.cache_copy_ms": (0.0, "ms"),
            "trace.overhead_pct": (overhead, "%"),
        })
    else:
        per = wall

        def p50(name):
            durs = [e["dur"] / 1e3 for e in events if e["name"] == name]
            return statistics.median(durs) if durs else 0.0

        lag = sorted(obs["lag_ms"])
        runs_requested = ex["runs_requested"]
        server_lookups = obs["run_cache_hits"] + ex["run_cache_misses"] + \
            ex["multi_cache_misses"]
        pricer_calls = sum(1 for e in events if e["name"] == "search.pricer")
        designs = span_counts(events, "search.pricer", "designs")
        memo_hits = designs - sum(
            1 for e in events if e["name"] == "thermal.solve")
        m.update({
            "workload.capture_mb": (obs["capture_mb"], "MiB"),
            "engine.runs": (obs["runs_submitted"], "count"),
            "engine.run_hit_ratio": (ratio(obs["run_cache_hits"],
                                           server_lookups), "ratio"),
            "search.pricer_calls": (pricer_calls, "count"),
            "search.memo_hit_ratio": (ratio(memo_hits, designs), "ratio"),
            "service.eval_p50_ms": (p50("service.eval"), "ms"),
            "service.multi_p50_ms": (p50("service.multi"), "ms"),
            "service.sweep_p50_ms": (p50("service.sweep"), "ms"),
            "service.search_p50_ms": (p50("service.search"), "ms"),
            "service.sched_lag_ms": (
                lag[min(len(lag) - 1, int(len(lag) * 0.99))], "ms"),
            "service.coalesced_ratio": (ratio(obs["runs_coalesced"],
                                              runs_requested), "ratio"),
            "service.runs_per_drain": (ratio(obs["runs_submitted"],
                                             obs["drains"]), "ratio"),
            "service.cache_entries": (obs["cache_entries"], "count"),
            "service.cache_copy_ms": (ratio(
                wall.get("service.cache_copy", 0.0), ex["searches_served"]),
                "ms"),
            "trace.overhead_pct": (0.0, "%"),
        })
        per["core.factory"] = statistics.median(obs["factory_ms"])
    strategy = per.get("search.run", 0.0)
    m.update({
        "workload.capture_ms": (per.get("workload.capture", 0.0), "ms"),
        "core.factory_ms": (per.get("core.factory", 0.0), "ms"),
        "engine.submit_ms": (per.get("engine.submit", 0.0), "ms"),
        "arch.replay_ns_per_op": (ratio(submit_ns, ops), "ns/op"),
        "search.decode_ms": (per.get("search.decode", 0.0), "ms"),
        "search.strategy_ms": (strategy, "ms"),
        "power.block_ms": (per.get("power.block", 0.0), "ms"),
        "thermal.solve_ms": (per.get("thermal.solve", 0.0), "ms"),
        "thermal.solves": (solves, "count"),
        "thermal.sweeps_per_solve": (ratio(ex.get("thermal_sweeps", 0),
                                           solves), "count"),
    })
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("objective", "response"),
                    help="falsify one output (the benchmark's own tests)")
    ap.add_argument("--tiny", action="store_true",
                    help="a seconds-long smoke run (the benchmark's own "
                         "tests)")
    args = ap.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"e2ebench: build failed: {e}")
        return 1

    spec = workloads.spec_for(args.workload, args.seed, args.seconds,
                              traced=bool(args.trace))
    if args.tiny:
        spec = workloads.tiny(spec)
    if args.corrupt:
        spec["corrupt"] = args.corrupt
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    tag += "-tiny" if args.tiny else ""
    tag += f"-{args.corrupt}" if args.corrupt else ""
    run_dir = os.path.join(build_root(), "e2ebench", "runs", tag)
    os.makedirs(run_dir, exist_ok=True)
    spec_path = os.path.join(run_dir, "spec.json")
    out_path = os.path.join(run_dir, "raw.json")
    trace_path = os.path.join(run_dir, "trace.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [exe, "run", "--spec", spec_path, "--out", out_path]
    if args.trace:
        cmd += ["--trace", trace_path]
    # The daemon's socket path is relative (AF_UNIX path limit), so the
    # executable runs in the run directory.  It leads a process group
    # of its own, so a timeout also stops the generator it spawns.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=sys.stderr,
                            start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    try:
        if status != 0:
            raise OSError(f"executable exited with status {status}")
        with open(out_path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        log(f"e2ebench: run failed: {e}")
        return 1

    for why in result["failures"]:
        log(f"check failed: {why}")
    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        metrics = per_layer(result, events, spec["kind"])
    else:
        metrics = end_to_end(result, spec)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':28s} "
          f"{result['failed'] / max(1, result['attempted']):14.6g} "
          f"({result['failed']} of {result['attempted']})")
    print("exact " + json.dumps(result["exact"], sort_keys=True))

    summary = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(dict(summary, exact=result["exact"],
                       observed=result["observed"]), f, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
