#!/usr/bin/env python3
"""Check that two sets of mfbench runs agree within the benchmark's bounds.

    python3 bench/e2e/agree.py SET_A SET_B

Each set is a directory of run documents (mfbench --json, or the documents
run.py keeps). Untraced runs only. The sets must come from the same machine:
if any machine header (nproc, compiler, build type) differs, agree.py refuses
to compare and exits 2.

For every workload and every end-to-end metric in BENCHMARK.json it prints
both sets' medians, their relative difference, the metric's bound, and each
set's spread (interquartile range over median). The sets disagree if a median
moved by more than the bound, if a spread exceeds the bound (setup_s
excepted), or if a run of one seed has a different output fingerprint in the
two sets. Exits 1 if they disagree.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_set(path):
    docs = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            try:
                doc = json.load(f)
            except ValueError:
                continue
        if isinstance(doc, dict) and "machine" in doc and not doc["run"]["trace"]:
            docs.append(doc)
    return docs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_set(p) for p in sys.argv[1:]]
    for path, docs in zip(sys.argv[1:], sets):
        if not docs:
            sys.exit(f"agree.py: no untraced run documents in {path}")
    machines = {json.dumps(d["machine"], sort_keys=True) for s in sets for d in s}
    if len(machines) != 1:
        print("agree.py: refusing to compare runs from different machines:",
              file=sys.stderr)
        for m in sorted(machines):
            print("  " + m, file=sys.stderr)
        return 2

    ok = True
    print(f"machine: {machines.pop()}")
    print(f"{'workload':16} {'metric':12} {'unit':5} {'bound':>6} "
          f"{'A median':>12} {'B median':>12} {'diff':>7} "
          f"{'A IQR':>6} {'B IQR':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        runs = [[d for d in s if d["run"]["workload"] == name] for s in sets]
        if not runs[0] or not runs[1]:
            print(f"{name:16} (missing from a set)")
            ok = False
            continue
        for m in spec["end_to_end"]:
            vals = [[d["metrics"][m["name"]]["value"] for d in r] for r in runs]
            a, b = (statistics.median(v) for v in vals)
            diff = (b - a) / a if a else 0.0
            spreads = [spread(v) for v in vals]
            verdict = "ok"
            if abs(diff) > m["bound"]:
                verdict = "MOVED"
            elif m["name"] != "setup_s" and max(spreads) > m["bound"]:
                verdict = "WIDE"
            ok = ok and verdict == "ok"
            print(f"{name:16} {m['name']:12} {m['unit']:5} {m['bound']:6.2f} "
                  f"{a:12.6g} {b:12.6g} {diff * 100:+6.1f}% "
                  f"{spreads[0] * 100:5.1f}% {spreads[1] * 100:5.1f}%  {verdict}")
        seeds = [{d["run"]["seed"]: d["fingerprint"] for d in r} for r in runs]
        common = sorted(set(seeds[0]) & set(seeds[1]))
        differ = [s for s in common if seeds[0][s] != seeds[1][s]]
        print(f"{name:16} fingerprints: {len(common) - len(differ)}/"
              f"{len(common)} seeds identical"
              + (f"; DIFFER at seeds {differ}" if differ else ""))
        ok = ok and not differ
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
