#!/usr/bin/env python3
"""Compare two `latest.json` files written by `benchmarks/run.sh`.

    benchmarks/compare.py PARENT.json CHANGE.json

For every workload and every end-to-end metric, prints both values, how far
the second is worse than the first, the metric's bound and a verdict; counts
and digests must be identical. Exits 1 if any end-to-end metric is worse by
more than its bound. Where a workload was flagged `noisy` in either file, a
time metric is reported as unresolved rather than as unchanged or regressed.

This is a reader of two files, not a measurement: claiming a gain needs at
least ten alternating pairs of runs (see README, "Comparing two commits").
"""

import json
import sys

# Per-layer metrics taken with the host's clock or read from /proc. Every
# other per-layer metric is a count or a simulated quantity and must repeat
# exactly for one seed.
HOST_MEASURED = {
    "simcore.queue.pop_share",
    "engine.dispatch.share",
    "engine.dispatch.scale_phase_share",
    "engine.bus.overhead_share",
    "engine.parallel.speedup_vs_seq_pdes",
    "engine.parallel.speedup_vs_r1",
}


def host_measured(name, unit):
    return unit == "ns" or name.startswith(("host.", "bench.")) or name in HOST_MEASURED


def worse_by(metric, parent, change):
    """Worsening of `change` against `parent`, in the metric's own unit."""
    return parent - change if metric["better"] == "higher" else change - parent


def allowed(metric, parent):
    """Largest worsening that still passes: a share of the parent's value,
    but never less than the metric's absolute floor."""
    bound = metric["bound"]
    if bound == "exact":
        return 0.0
    return max(abs(parent) * bound["share"], bound["at_least"])


def bound_text(metric):
    bound = metric["bound"]
    if bound == "exact":
        return "exact"
    text = f"{bound['share']:.0%}"
    if bound["at_least"]:
        text += f", at least {bound['at_least']} {metric['unit']}"
    return text


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        parent = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)
    for key in ("seed", "smoke"):
        if parent[key] != change[key]:
            sys.exit(f"the two files differ in {key}: {parent[key]} vs {change[key]}")

    regressions = 0
    for name, p in parent["workloads"].items():
        c = change["workloads"][name]
        noisy = p["noisy"] or c["noisy"]
        print(f"== {name}{'  (noisy: time metrics unresolved)' if noisy else ''}")
        same = "identical" if p["digest"] == c["digest"] else "DIFFERENT"
        print(f"   digest {p['digest']} vs {c['digest']}: {same}")
        for metric, pm in p["end_to_end"].items():
            pv, cv = pm["value"], c["end_to_end"][metric]["value"]
            worse = worse_by(pm, pv, cv)
            limit = allowed(pm, pv)
            if worse <= limit:
                verdict = "ok"
            elif noisy and pm["bound"] != "exact":
                verdict = "unresolved"
            else:
                verdict = "REGRESSION"
                regressions += 1
            rel = f"{worse / abs(pv):+.2%}" if pv else "n/a"
            print(
                f"   {metric:<26} {pv:>16.6g} -> {cv:>16.6g} {pm['unit']:<6}"
                f" worse by {rel:>8} (bound {bound_text(pm)}): {verdict}"
            )
        moved = [
            (metric, pm["value"], c["per_layer"][metric]["value"])
            for metric, pm in p["per_layer"].items()
            if not host_measured(metric, pm["unit"])
            and pm["value"] != c["per_layer"][metric]["value"]
        ]
        print(f"   per-layer counts: {'all identical' if not moved else 'DIFFERENT'}")
        for metric, pv, cv in moved:
            print(f"     {metric}: {pv} -> {cv}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
