#!/usr/bin/env python3
"""Compares two result sets of perfbench runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by `run.py --out DIR`. For every
workload and end-to-end metric the command prints each side's median and
quartiles (statistics.quantiles, n=4, over the untraced runs) and a verdict
against the metric's bound in BENCHMARK.json:

  unresolved    either side's quartile spread (q3 - q1) / median exceeds the
                bound, so the runs cannot tell a change from noise
  worse/better  the medians differ by more than the bound
  within bound  otherwise

Metrics without a bound (the extra end-to-end metrics) get no verdict.
Deterministic metrics (simulated latencies and count-type per-layer
metrics) must be bit-identical between any two results of the same
workload, seed and trace setting, in either set; every difference is
flagged and makes the command exit 1.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        r["_file"] = path.name
        results.append(r)
    if not results:
        sys.exit(f"compare: no result files in {directory}")
    return results


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, new, bound, better):
    if bound is None:
        return "no bound"
    (bm, bq1, bq3), (nm, nq1, nq3) = base, new
    for med, q1, q3 in (base, new):
        if med == 0 or (q3 - q1) / abs(med) > bound:
            return "unresolved"
    change = (nm - bm) / abs(bm)
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = [load(d) for d in sys.argv[1:]]

    print(f"{'workload':15s} {'metric':22s} {'unit':6s} "
          f"{'base median [q1, q3] (n)':>34s} {'new median [q1, q3] (n)':>34s}"
          f"  verdict")
    workloads = sorted({r["workload"] for s in sets for r in s})
    for wl in workloads:
        sides = [[r for r in s if r["workload"] == wl and r["trace"] == 0]
                 for s in sets]
        if not all(sides):
            print(f"{wl:15s} (untraced runs missing on one side)")
            continue
        names = sorted({n for r in sides[0] + sides[1]
                        for sec in ("end_to_end", "extra_end_to_end")
                        for n in r[sec]})
        for name in names:
            cols, unit = [], ""
            for side in sides:
                vals = []
                for r in side:
                    m = r["end_to_end"].get(name) or r["extra_end_to_end"].get(name)
                    if m is not None:
                        vals.append(float(m["value"]))
                        unit = m["unit"]
                cols.append((summary(vals), len(vals)) if vals else None)
            if None in cols:
                continue
            bound, better = bounds.get(name, (None, None))
            text = [f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] ({n})" for s, n in cols]
            print(f"{wl:15s} {name:22s} {unit:6s} {text[0]:>34s} {text[1]:>34s}"
                  f"  {verdict(cols[0][0], cols[1][0], bound, better)}")

    # Deterministic metrics: identical for identical (workload, seed, trace).
    seen = defaultdict(dict)  # key → metric → (value, file)
    differs = 0
    for s in sets:
        for r in s:
            key = (r["workload"], r["seed"], r["trace"])
            for sec in ("end_to_end", "extra_end_to_end", "per_layer"):
                for name, m in r[sec].items():
                    if not m["deterministic"]:
                        continue
                    prev = seen[key].get(name)
                    if prev is None:
                        seen[key][name] = (m["value"], r["_file"])
                    elif prev[0] != m["value"]:
                        differs += 1
                        print(f"DETERMINISTIC METRIC DIFFERS: {key[0]} seed "
                              f"{key[1]} trace {key[2]} {name}: {prev[0]} "
                              f"({prev[1]}) vs {m['value']} ({r['_file']})")
    print(f"deterministic metrics: {differs} difference(s)")
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()
