#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench driver from this checkout's
sources, runs one workload, checks its output and prints every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (BENCHMARK.json says why each exists):
  mlp_40b       Table-2 40B, Testbed-1, mlp_offload preset, NVMe+PFS, sim
  ds_40b        the same model on the deepspeed_zero3 preset, NVMe only
  real_uring    3.4B custom model on real io_uring files, graph executor
  shared_4jobs  four tiny jobs on one JobManager substrate, weights 3:1:1:1

Every run is a closed loop from one benchmark thread; scales and sizes are
fixed in workloads.cpp and MLPO_* variables are removed from the driver's
environment. Gradients come from GradSource's fixed default seed, which
TrainerConfig does not expose; --seed seeds what the benchmark itself
generates (probe buffers, which tenant gets weight 3, scratch names).

Correctness: each run's final optimizer-state checksum must equal a
host-resident cpu_only run of the same model, layout, elem_scale and
iteration count (computed after the timed loop), and the per-workload
guards below must hold. Any failure fails every iteration of the run.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
ones, writes the spans to .bench_build/perfbench/traces/, and measures half
its loop untraced to report the span recorder's own cost. The last line of
stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
IO_CLASSES = ("demand", "grad", "flush", "ckpt")
LAYERS = ("bench", "runtime", "core", "policy", "io", "tiers", "train",
          "graph", "util")


def child_env():
    """The environment for the build and the driver: no MLPO_* knobs, and
    temporary files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLPO_")}
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build incrementally; returns the driver path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=child_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} did not complete: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} failed")
    return BUILD / "perfbench"


def run_driver(binary, args):
    scratch = BUILD / f"scratch-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        scratch.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    return json.loads(lines[-1])


def untraced(values, traced):
    return [v for v, t in zip(values, traced) if not t]


def host_samples(doc):
    """(host CPU seconds per iteration, traced flags): one sample per
    iteration, or per round where JobManager runs the iterations."""
    src = doc.get("rounds") or doc["iterations"]
    return src["host_cpu_s"], src["traced"]


def tail_percentiles(doc):
    """Tail percentiles of the pooled and the per-tenant samples. Each is
    fixed per workload by the sample count the run guarantees, unless a
    run capped by time collected fewer (below 20 samples: the median)."""
    it = doc["iterations"]
    per_tenant = min(it["tenant"].count(t) for t in set(it["tenant"]))
    pooled = min(doc["tail_base"], len(it["iter_vs"]))
    tenant = min(doc["tenant_tail_base"], per_tenant)
    return (metrics.tail_percentile(pooled) or 50.0,
            metrics.tail_percentile(tenant) or 50.0)


def end_to_end(doc):
    it = doc["iterations"]
    host, traced = host_samples(doc)
    tail_p, tenant_p = tail_percentiles(doc)
    return {
        "iter_vs_p50": metrics.median(it["iter_vs"]),
        "iter_vs_tail": metrics.percentile(it["iter_vs"], tail_p),
        "update_mparams_per_s": metrics.median(it["update_mparams_per_s"]),
        "host_s_per_iter": metrics.median(untraced(host, traced)),
        "setup_s": metrics.median(doc["setup"]["setup_s"]),
        "peak_rss_mb": metrics.median(doc["peak_rss_mb"]),
        "agg_iters_per_kvs": metrics.rounds_throughput(
            it["tenant"], it["round"], it["iter_vs"]),
        "worst_tenant_iter_vs_tail": metrics.worst_tenant_tail(
            it["tenant"], it["iter_vs"], tenant_p),
    }


def per_layer(doc):
    """Per-layer values; a metric missing here does not apply to the run."""
    it = doc["iterations"]
    layers = doc.get("layers", {})
    med = lambda key: metrics.median(it[key])  # noqa: E731
    hits, processed = sum(it["cache_hits"]), sum(it["subgroups"])
    v = {
        "runtime.forward_vs": med("forward_vs"),
        "runtime.backward_vs": med("backward_vs"),
        "runtime.update_vs": med("update_vs"),
        "core.fetch_vs": med("fetch_vs"),
        "core.flush_vs": med("flush_vs"),
        "core.compute_vs": med("compute_vs"),
        "core.io_fraction": med("io_fraction"),
        "core.fetched_gb": med("fetched_bytes") / 1e9,
        "core.flushed_gb": med("flushed_bytes") / 1e9,
        "core.cache_hits": hits,
        "core.subgroups_processed": processed,
        "core.cache_hit_ratio": hits / processed,
        "graph.frontier_high_water": max(it["graph_frontier_high_water"]),
        "graph.tasks_stolen": med("graph_tasks_stolen"),
        "graph.idle_s": med("graph_idle_s"),
        "util.pool_acquires": med("pool_acquires"),
        "util.pool_heap_fallbacks": sum(it["pool_heap_fallbacks"]),
    }
    v.update({"policy." + k: x for k, x in layers.get("policy", {}).items()})
    io = layers.get("io")
    if io:
        for cls in IO_CLASSES:
            c = io[cls]
            n = c["requests"]
            v[f"io.{cls}.requests"] = n / io["iterations"]
            v[f"io.{cls}.queue_wait_vs"] = c["queue_wait_vs"] / n if n else 0.0
            v[f"io.{cls}.service_vs"] = c["service_vs"] / n if n else 0.0
            v[f"io.{cls}.cancelled"] = c["cancelled"]
        v["io.coalesced_batches"] = io["coalesced_batches"] / io["iterations"]
        v["io.max_queue_depth"] = io["max_queue_depth"]
    if "init_s" in doc["setup"]:
        v["runtime.init_s"] = metrics.median(doc["setup"]["init_s"])
    # Probe results and single readings arrive under their metric names.
    v.update({k: x for k, x in layers.items() if not isinstance(x, dict)})
    host, traced = host_samples(doc)
    with_spans = [h for h, t in zip(host, traced) if t]
    without = untraced(host, traced)
    if with_spans and without:
        v["trace.host_s_per_iter"] = metrics.median(with_spans)
        v["trace.overhead_s_per_iter"] = (metrics.median(with_spans)
                                          - metrics.median(without))
    self_s = metrics.self_times(doc.get("spans", []))
    for layer in LAYERS:
        v[f"span.{layer}.self_s"] = self_s.get(layer, 0.0)
    return v


# Expectations each workload's design fixes; a miss is a failed run.
GUARDS = {
    "mlp_40b": [("cache hits > 0 (increasing iteration indices)",
                 lambda v: v["core.cache_hit_ratio"] > 0)],
    "ds_40b": [("no cache hits without a host cache",
                lambda v: v["core.cache_hit_ratio"] == 0),
               ("no PFS placement", lambda v: not v.get("policy.pfs_share"))],
    "real_uring": [("no PFS placement",
                    lambda v: not v.get("policy.pfs_share"))],
}
COMMON_GUARDS = [("no staging-pool heap fallbacks",
                  lambda v: v["util.pool_heap_fallbacks"] == 0)]


def check_guards(workload, layer_values):
    return ["guard failed: " + what
            for what, ok in COMMON_GUARDS + GUARDS.get(workload, [])
            if not ok(layer_values)]


def gain_line(workload, e2e):
    """mlp_vs_ds_gain from the latest untraced mlp_40b and ds_40b runs in
    this checkout (informational, not gated)."""
    store = BUILD / "results"
    store.mkdir(parents=True, exist_ok=True)
    (store / f"{workload}.json").write_text(json.dumps(e2e))
    try:
        mlp = json.loads((store / "mlp_40b.json").read_text())
        ds = json.loads((store / "ds_40b.json").read_text())
    except (OSError, ValueError):
        return "mlp_vs_ds_gain: n/a until both mlp_40b and ds_40b have run here"
    a, b = mlp["update_mparams_per_s"], ds["update_mparams_per_s"]
    return (f"mlp_vs_ds_gain: {a / b:.3f}x (update_mparams_per_s median "
            f"mlp_40b {a:.2f} over ds_40b {b:.2f}; informational, not gated)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    doc = run_driver(build(), args)
    errors = list(doc["errors"])
    try:
        layer_values = per_layer(doc)
        errors += check_guards(args.workload, layer_values)
        values = layer_values if args.trace else end_to_end(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            statistics.StatisticsError):
        if not errors:
            raise
        values = {}  # a failed run may lack samples; it reports zeros
    attempted, failed = metrics.run_outcome(doc["attempted"], errors)
    if args.trace:
        values["run.failed_share"] = metrics.failed_share(attempted, failed)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(doc['iterations']['iter_vs'])} measured iterations")
    for m in listed:
        value = values.get(m["name"])
        if value is None:
            print(f"  {m['name']:<32} n/a on {args.workload}")
            value = 0.0
        else:
            print(f"  {m['name']:<32} {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc["spans"]))
        print(f"spans: {len(doc['spans'])} written to {path.relative_to(ROOT)}")
        if "io.submitters_n" in doc["layers"]:
            print(f"io.submit_settle_ns_n: {doc['layers']['io.submitters_n']:g} "
                  f"concurrent submitters (one per hardware thread)")
    else:
        if values:
            tail_p, tenant_p = tail_percentiles(doc)
            print(f"tail percentiles: iter_vs_tail p{tail_p:g}, "
                  f"worst_tenant_iter_vs_tail p{tenant_p:g} per tenant")
        if args.workload in ("mlp_40b", "ds_40b") and not errors:
            print(gain_line(args.workload, values))
    if "io.uring_active" in doc["layers"]:
        mech = "io_uring" if doc["layers"]["io.uring_active"] else "pread fallback"
        print(f"storage mechanism: {mech}, O_DIRECT off (page-cache "
              f"latencies of this host, not a device's)")
    print(f"failed_share: {failed}/{attempted}")
    for e in errors:
        print(f"error: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
