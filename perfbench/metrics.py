"""Arithmetic of the benchmark: medians, the tail percentile, span self
time and failure shares. Pure functions over plain lists, so each rule is
tested on its own (test_metrics.py)."""

import math
import statistics

# Candidate tail percentiles in per-mille (integers keep the "samples
# beyond" count exact), lowest first.
TAIL_LADDER_PERMILLE = (500, 750, 800, 900, 950, 990, 999)
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail_percentile(sample_count):
    """Highest ladder percentile with at least TAIL_BEYOND of
    `sample_count` samples beyond it, or None when even the median has
    too few."""
    best = None
    for pm in TAIL_LADDER_PERMILLE:
        if sample_count * (1000 - pm) >= TAIL_BEYOND * 1000:
            best = pm / 10.0
    return best


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    # The tolerance keeps p * n / 100 that is an integer in exact
    # arithmetic (99.9% of 10000) from rounding up past it.
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def self_times(spans):
    """Self time per layer: each span's duration minus the part of its
    interval covered by its children, summed by layer.

    `spans` are dicts with name, layer, start_s, end_s and parent (an index
    into `spans`, -1 for a root). Overlapping children are merged, so time
    two children share is subtracted once."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    totals = {}
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start_s"]
        for c in sorted(children[i], key=lambda c: spans[c]["start_s"]):
            lo = max(spans[c]["start_s"], reach, s["start_s"])
            hi = min(spans[c]["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        own = (s["end_s"] - s["start_s"]) - covered
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
    return totals


def failed_share(attempted, failed):
    """Failed over attempted operations. A run that fails at all fails every
    operation it attempted, so this is 0 or 1 per run and a share across
    runs."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def run_outcome(attempted, errors):
    """(attempted, failed) for a run: any error fails all it attempted."""
    attempted = max(1, int(attempted))
    return attempted, attempted if errors else 0


def rounds_throughput(tenants, rounds, iter_vs):
    """Aggregate iterations per thousand virtual seconds, median over rounds.

    In a round every tenant runs its iterations back to back, so the round
    lasts as long as its busiest tenant's summed iteration time."""
    per_round = {}
    for t, r, v in zip(tenants, rounds, iter_vs):
        busy = per_round.setdefault(r, {})
        busy[t] = busy.get(t, 0.0) + v
    counts = {}
    for r in rounds:
        counts[r] = counts.get(r, 0) + 1
    return median([counts[r] / max(busy.values()) * 1000.0
                   for r, busy in per_round.items()])


def worst_tenant_tail(tenants, iter_vs, p):
    """Highest per-tenant p-th percentile of iteration time."""
    by_tenant = {}
    for t, v in zip(tenants, iter_vs):
        by_tenant.setdefault(t, []).append(v)
    return max(percentile(v, p) for v in by_tenant.values())
