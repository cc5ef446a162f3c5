#!/usr/bin/env python3
"""Compare two sets of hostbench results, workload by workload.

  python3 hostbench/compare.py base.jsonl change.jsonl

Each file holds result lines appended by `run.py --out FILE --trace 0`, one
per run; runs are paired in file order. For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
pairs the change won, and a verdict:

  improved      the change won at least 9 of 10 pairs and the medians differ
                by more than the base's interquartile range
  worse         the change's median is worse than the base's by more than
                the metric's bound
  unresolved    the base's own spread exceeds the bound, and not every run
                of the change beats every run of the base
  within bound  otherwise

It also prints `wall_s` and `cpu_s`, the raw times the gated `norm_cpu_s`
derives from, with the same verdicts against a bound of 0.25. They are not
gated: on a shared host they mostly show its drift, but only `wall_s` shows a
change that adds waiting without adding CPU time.

Runs whose manifest is not comparable (a non-Release build, assertions on,
or --tiny sizes) are refused with exit code 2. The exit code is 1 when any
verdict is `worse`.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Raw times every --out record carries besides the gated metrics.
RAW = [{"name": "wall_s", "better": "lower", "bound": 0.25},
       {"name": "cpu_s", "better": "lower", "bound": 0.25}]


def load(path):
    runs = {}
    with open(path) as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace", 0) != 0:
                continue
            runs.setdefault(record["manifest"]["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Return (verdict, pairs won by the change, pairs)."""
    sign = 1.0 if better == "lower" else -1.0
    beats = lambda a, b: sign * (a - b) < 0  # a reads better than b
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if beats(c, b))
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / abs(base_median) if base_median else float("inf")
    worse_by = sign * (change_median - base_median) / abs(base_median)
    all_better = all(beats(c, b) for c in change for b in base)
    if (pairs and wins >= 0.9 * len(pairs) and worse_by < 0
            and abs(change_median - base_median) > q3 - q1):
        return "improved", wins, len(pairs)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    opts = parser.parse_args()
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    base, change = load(opts.base), load(opts.change)

    manifests = [r["manifest"] for side in (base, change)
                 for runs in side.values() for r in runs]
    bad = [m for m in manifests if not m.get("comparable")]
    if bad:
        print("refusing to compare: %d run(s) are not comparable (build %s, "
              "tiny=%s)" % (len(bad), bad[0].get("build_type"),
                            bad[0].get("tiny")))
        return 2
    hosts = {(m.get("cpu_model"), m.get("nproc")) for m in manifests}
    if len(hosts) > 1:
        print("WARNING: runs come from different hosts: %s" % sorted(hosts))

    any_worse = False
    header = "%-16s %-17s %-40s %-40s %-7s %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "won", "verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"] + RAW:
            name = metric["name"]
            gated = metric not in RAW
            if gated:
                a = [r["metrics"][name]["value"] for r in base[workload]]
                b = [r["metrics"][name]["value"] for r in change[workload]]
            else:
                a = [r["raw"][name] for r in base[workload]]
                b = [r["raw"][name] for r in change[workload]]
            result, wins, pairs = verdict(a, b, metric["better"],
                                          metric["bound"])
            any_worse |= gated and result == "worse"
            if not gated:
                result += " (not gated)"
            cell = lambda v: "%.6g [%.6g, %.6g]" % ((statistics.median(v),) +
                                                    quartiles(v))
            print("%-16s %-17s %-40s %-40s %-7s %s" % (
                workload, name, cell(a), cell(b), "%d/%d" % (wins, pairs),
                result))
    for workload in sorted(set(base) ^ set(change)):
        print("%-16s only in one set; not compared" % workload)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
