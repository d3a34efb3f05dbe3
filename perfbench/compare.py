#!/usr/bin/env python3
"""Compare two sets of recorded benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines `run.py --record FILE` appended. For every
workload and end-to-end metric the script prints both sides' medians (over
all recorded runs), the change relative to the base, and the metric's bound
from BENCHMARK.json, marking a change worse than its bound as REGRESSION.
Results recorded on different hosts (CPU model, core count or toolchain)
are not comparable: the script says so before any number.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("cpu_model", "nproc", "machine", "rustc")


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def hosts(records):
    return {tuple(r["provenance"].get(k) for k in HOST_KEYS) for r in records}


def medians(records):
    """(workload, metric) -> median over untraced runs."""
    values = {}
    for r in records:
        if r["provenance"].get("trace"):
            continue
        for name, m in r["result"]["metrics"].items():
            values.setdefault((r["provenance"]["workload"], name), []).append(m["value"])
    return {k: (statistics.median(v), len(v)) for k, v in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    host_sets = hosts(base) | hosts(change)
    if len(host_sets) > 1:
        print("WARNING: results come from different hosts; differences are not attributable:")
        for h in sorted(host_sets, key=str):
            print("   ", dict(zip(HOST_KEYS, h)))
    revs = {r["provenance"].get("git_rev") for r in base}, {r["provenance"].get("git_rev") for r in change}
    print(f"base revs {sorted(revs[0], key=str)}  change revs {sorted(revs[1], key=str)}")
    old, new = medians(base), medians(change)
    workloads = sorted({w for w, _ in old} | {w for w, _ in new})
    regressions = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in old or key not in new:
                continue
            (a, na), (b, nb) = old[key], new[key]
            rel = (b - a) / a if a else 0.0
            worse = rel > m["bound"] if m["better"] == "lower" else -rel > m["bound"]
            regressions += worse
            print(
                f"{w:14} {m['name']:22} base {a:<14.6g} (n={na}) change {b:<14.6g} (n={nb}) "
                f"{rel:+8.2%} bound {m['bound']:.0%} {'REGRESSION' if worse else ''}"
            )
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
