#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_*.json documents.

Compares a freshly produced bench document against the checked-in baseline
(bench/baselines/) row by row and fails with a per-metric report when the
candidate regresses. Three classes of metric, because the two documents are
produced on different machines:

  exact       -- pure functions of (config, seed): determinism booleans,
                 routing fingerprints, event/request counts. Any difference
                 is a correctness bug, not a perf regression; tolerance 0.
  ratio       -- deterministic-ish quality ratios (cache hit ratio, shed
                 rate, speedup): compared within an absolute band wide
                 enough for the shared-ghost-list wobble at N>1
                 (http/frontdoor.h, determinism contract) but tight enough
                 to catch a broken admission or cache path.
  wall        -- throughput and latency measured in wall time (sessions/sec,
                 p99): compared *relatively*, candidate against baseline,
                 with a loose configurable tolerance (default -15% on
                 throughput floors, +20% on latency ceilings) because the
                 baseline was recorded on whatever machine regenerated it.

Rows are matched by identity keys (e.g. sessions+shards for the front-door
matrix, plan+shards+arm for the chaos matrix); a baseline row with no candidate
partner -- or vice versa -- fails the gate: silently dropping a sweep point
is how regressions hide.

Usage:
  tools/bench_gate.py --baseline bench/baselines/BENCH_frontdoor.json \
      --candidate BENCH_frontdoor.json \
      [--throughput-tolerance 0.15] [--latency-tolerance 0.20] \
      [--ratio-tolerance 0.08] [--skip-wall]

Exit status: 0 pass, 1 regression (or malformed/missing rows), 2 bad usage.
`--skip-wall` is for single-core or heavily shared runners where wall
metrics are noise; the exact and ratio classes still gate.
"""

import argparse
import json
import sys

# Per-bench schema: identity keys name a row; each gated metric is
# (class, direction). Direction "floor" fails when the candidate is too far
# BELOW baseline (throughput-like), "ceiling" when too far ABOVE
# (latency/shed-like), "both" on any drift past tolerance.
SCHEMAS = {
    "frontdoor_matrix": {
        "keys": ["sessions", "shards"],
        "top_exact": ["byte_identical_at_one_shard", "routing_stable"],
        "metrics": {
            "requests": ("exact", "both"),
            "routing_fingerprint": ("exact", "both"),
            "byte_identical": ("exact", "both"),
            "routing_stable": ("exact", "both"),
            "cache_hit_ratio": ("ratio", "floor"),
            "shed_rate": ("ratio", "ceiling"),
            "sessions_per_sec": ("wall", "floor"),
            "p99_touch_to_policy_us": ("wall", "ceiling"),
        },
    },
    "chaos_matrix": {
        # Arms of one (plan, shards) cell share a timeline, so events and
        # request totals are exact even mid-chaos (every touch resolves to
        # served or shed, never lost). Goodput retained and shed rate are
        # timing-dependent -- detection lands a few watchdog periods after
        # the fault -- so they gate as ratios; detection latency and the
        # P99 tail are wall metrics on the machine that ran the arm.
        "keys": ["plan", "shards", "arm"],
        "top_exact": ["byte_identical_with_supervision",
                      "supervised_never_worse"],
        "metrics": {
            "events": ("exact", "both"),
            "requests": ("exact", "both"),
            "goodput_retained": ("ratio", "floor"),
            "shed_rate": ("ratio", "ceiling"),
            "p99_touch_to_policy_us": ("wall", "ceiling"),
            "time_to_detect_ms": ("wall", "ceiling"),
        },
    },
    "loopback_matrix": {
        # Request counts are exact (same seeded script every run), but the
        # faulty arms' completion/error split is timing-dependent on the
        # real wire -- which byte-stream coordinates get exercised depends
        # on how the kernel chunks reads -- so rates gate as ratios.
        # Throughput and the P99 fetch tail are wall metrics on whatever
        # machine ran the arm (--skip-wall on shared runners).
        "keys": ["transport", "wire"],
        "top_exact": ["parity_clean", "all_taxonomy_accounted"],
        "metrics": {
            "requests": ("exact", "both"),
            "taxonomy_accounted": ("exact", "both"),
            "completed_rate": ("ratio", "floor"),
            "error_rate": ("ratio", "ceiling"),
            "shed_rate": ("ratio", "ceiling"),
            "requests_per_sec": ("wall", "floor"),
            "p99_fetch_us": ("wall", "ceiling"),
        },
    },
    "scenario_matrix": {
        # One row per ScenarioSpec cell (device class x network profile x
        # workload, plus the two paper-default witness rows). Every column
        # except wall_ms is simulated time or a pure function of the spec,
        # so they gate exact: the fingerprint folds every per-session
        # deterministic quantity and catches sub-ulp drift the aggregate
        # columns would round away.
        "keys": ["scenario", "device", "network", "workload"],
        "top_exact": ["paper_default_identical",
                      "deterministic_across_workers"],
        "metrics": {
            "sessions": ("exact", "both"),
            "fingerprint": ("exact", "both"),
            "viewport_p99_ms": ("exact", "both"),
            "goodput_bytes_per_s": ("exact", "both"),
            "qoe": ("ratio", "floor"),
            "cache_hit_ratio": ("ratio", "floor"),
            "shed_rate": ("ratio", "ceiling"),
            "wall_ms": ("wall", "ceiling"),
        },
    },
}


def fail(msg):
    print(f"bench_gate: FAIL: {msg}", file=sys.stderr)


def row_key(row, keys):
    return tuple(row.get(k) for k in keys)


def check_metric(name, base, cand, klass, direction, args, where):
    """Returns a failure string or None."""
    if klass == "exact":
        if base != cand:
            return f"{where}: {name} changed {base!r} -> {cand!r} (exact metric)"
        return None
    if not isinstance(base, (int, float)) or not isinstance(cand, (int, float)):
        return f"{where}: {name} is not numeric ({base!r} vs {cand!r})"
    if klass == "ratio":
        drift = cand - base
        tol = args.ratio_tolerance
        if direction in ("floor", "both") and drift < -tol:
            return (f"{where}: {name} fell {base:.4f} -> {cand:.4f} "
                    f"(> {tol:.2f} absolute)")
        if direction in ("ceiling", "both") and drift > tol:
            return (f"{where}: {name} rose {base:.4f} -> {cand:.4f} "
                    f"(> {tol:.2f} absolute)")
        return None
    # wall
    if args.skip_wall:
        return None
    if direction == "floor":
        tol = args.throughput_tolerance
        if base > 0 and cand < base * (1.0 - tol):
            return (f"{where}: {name} dropped {base:.1f} -> {cand:.1f} "
                    f"(more than {tol:.0%} below baseline)")
    else:
        tol = args.latency_tolerance
        if base > 0 and cand > base * (1.0 + tol):
            return (f"{where}: {name} grew {base:.1f} -> {cand:.1f} "
                    f"(more than {tol:.0%} above baseline)")
    return None


def gate(baseline, candidate, args):
    bench = baseline.get("bench")
    if bench not in SCHEMAS:
        fail(f"unknown bench kind {bench!r} in baseline")
        return 1
    if candidate.get("bench") != bench:
        fail(f"bench kind mismatch: baseline {bench!r} vs "
             f"candidate {candidate.get('bench')!r}")
        return 1
    schema = SCHEMAS[bench]
    failures = []

    for field in schema["top_exact"]:
        if baseline.get(field) != candidate.get(field):
            failures.append(
                f"{bench}: top-level {field} changed "
                f"{baseline.get(field)!r} -> {candidate.get(field)!r}")
        elif candidate.get(field) is False:
            failures.append(f"{bench}: top-level {field} is false")

    base_rows = {row_key(r, schema["keys"]): r for r in baseline.get("rows", [])}
    cand_rows = {row_key(r, schema["keys"]): r for r in candidate.get("rows", [])}
    for key in sorted(base_rows.keys() - cand_rows.keys()):
        failures.append(f"{bench}{list(key)}: row missing from candidate")
    for key in sorted(cand_rows.keys() - base_rows.keys()):
        failures.append(f"{bench}{list(key)}: row missing from baseline "
                        f"(regenerate baselines for new sweep points)")

    checked = 0
    for key in sorted(base_rows.keys() & cand_rows.keys()):
        where = f"{bench}{list(key)}"
        base, cand = base_rows[key], cand_rows[key]
        for name, (klass, direction) in schema["metrics"].items():
            if name not in base and name not in cand:
                continue
            if name not in base or name not in cand:
                failures.append(f"{where}: {name} present in only one document")
                continue
            err = check_metric(name, base[name], cand[name], klass, direction,
                               args, where)
            if err:
                failures.append(err)
            checked += 1

    for f in failures:
        fail(f)
    if failures:
        return 1
    wall_note = " (wall metrics skipped)" if args.skip_wall else ""
    print(f"bench_gate: PASS: {bench}: {len(base_rows)} rows, "
          f"{checked} metrics within tolerance{wall_note}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_*.json to gate against")
    parser.add_argument("--candidate", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--throughput-tolerance", type=float, default=0.15,
                        help="relative drop allowed on throughput-like wall "
                             "metrics (default 0.15 = 15%%)")
    parser.add_argument("--latency-tolerance", type=float, default=0.20,
                        help="relative growth allowed on latency-like wall "
                             "metrics (default 0.20 = 20%%)")
    parser.add_argument("--ratio-tolerance", type=float, default=0.08,
                        help="absolute drift allowed on quality ratios "
                             "(default 0.08)")
    parser.add_argument("--skip-wall", action="store_true",
                        help="ignore wall-clock metrics (noisy runners)")
    args = parser.parse_args()

    docs = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read {path}: {e}")
            return 1
    return gate(docs[0], docs[1], args)


if __name__ == "__main__":
    sys.exit(main())
