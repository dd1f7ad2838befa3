#!/usr/bin/env python3
"""Build mfbench from source and run one workload of the repository benchmark.

    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1 [--json PATH]

Configures and builds bench/e2e into .bench_build/e2e, runs mfbench once and
prints, as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. The metrics are BENCHMARK.json's end_to_end
metrics (--trace 0) or its per_layer metrics (--trace 1); a per-layer metric
of a layer the workload does not run reads 0. The full run document is kept
at --json (default .bench_build/e2e/runs/W-S-tT.json). If the build or the
run fails, exits 1 without printing that line.

    python3 bench/e2e/run.py --smoke BIN --out DIR

Runs every workload through an already built mfbench at --quick size with
--trace, and fails unless each run passes its checks and reports every
end-to-end metric, and the runs together report every per-layer metric.
This is the mfbench_smoke test.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and bring mfbench up to date; both are no-ops when current."""
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "--target", "mfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "mfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_mfbench(binary, args):
    """Run mfbench with stdout passed through; return its exit code."""
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: mfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def read_document(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def missing(doc, metrics):
    return [m["name"] for m in metrics if m["name"] not in doc["metrics"]]


def measure(opts):
    spec = load_spec()
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {opts.workload}")
    binary = build()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{opts.workload}-{opts.seed}-t{opts.trace}")
    json_path = opts.json or stem + ".json"
    if os.path.exists(json_path):
        os.remove(json_path)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--json", json_path,
            "--commit", commit()]
    if opts.trace:
        args += ["--trace", "--trace-out", stem + ".trace.json"]
    code = run_mfbench(binary, args)
    doc = read_document(json_path)
    if doc is None:
        sys.exit("run.py: mfbench wrote no run document")

    declared = spec["per_layer"] if opts.trace else spec["end_to_end"]
    absent = missing(doc, spec["end_to_end"])
    if absent:
        sys.exit("run.py: mfbench did not report " + ", ".join(absent))
    metrics = {}
    for m in declared:
        value = doc["metrics"].get(m["name"], {"value": 0})["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": doc["correct"] and code == 0,
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if code == 0 else 1


def smoke(opts):
    spec = load_spec()
    os.makedirs(opts.out, exist_ok=True)
    ok = True
    reported = set()
    for w in spec["workloads"]:
        name = w["name"]
        stem = os.path.join(opts.out, name)
        code = run_mfbench(opts.smoke, [
            "--workload", name, "--seed", "1", "--seconds", "0", "--quick",
            "--trace", "--json", stem + ".json", "--trace-out",
            stem + ".trace.json"])
        doc = read_document(stem + ".json")
        if code != 0 or doc is None or not doc["correct"]:
            print(f"smoke: {name} failed (exit {code})", file=sys.stderr)
            ok = False
            continue
        absent = missing(doc, spec["end_to_end"])
        if absent:
            print(f"smoke: {name} lacks " + ", ".join(absent), file=sys.stderr)
            ok = False
        reported.update(doc["metrics"])
    absent = [m["name"] for m in spec["per_layer"] if m["name"] not in reported]
    if absent:
        print("smoke: no workload reports " + ", ".join(absent), file=sys.stderr)
        ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="where to keep the full run document")
    p.add_argument("--smoke", metavar="BIN", help="smoke-test this mfbench")
    p.add_argument("--out", default=".", help="smoke output directory")
    opts = p.parse_args()
    if opts.smoke:
        return smoke(opts)
    if not opts.workload:
        p.error("--workload is required")
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
