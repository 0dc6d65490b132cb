#!/usr/bin/env python3
"""Build and run the host benchmark of the Gamma simulator.

    python3 hostbench/run.py --workload abprime|skew-spill|serve|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds `gamma-hostbench` from source (release, offline; the untraced
default build and the `traced` build, each in its own target directory
under $CARGO_TARGET_DIR or hostbench/target), runs one workload, writes a
result file with its host envelope to hostbench/out/, prints every metric
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics. With
--trace 1 a quarter of the window runs the untraced build as the
reference and the rest runs the traced build; the metrics are the
per-layer ones, including bench.trace_overhead: untraced ops_per_s over
traced ops_per_s, where the traced pass times leave out the layers only
a traced op calls (the replay check and serve's bare reference runs).
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build():
    """Build both binaries; return (untraced, traced) executable paths."""
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    base = os.path.abspath(os.path.join(ROOT, base))
    bins = []
    for name, features in (("plain", []), ("traced", ["--features", "traced"])):
        target = os.path.join(base, name)
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST, "--target-dir", target] + features
        # Cargo's output goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
        bins.append(os.path.join(target, "release", "gamma-hostbench"))
    return bins


def run_binary(binary, args):
    try:
        out = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} {' '.join(args)} ran past {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{binary} {' '.join(args)} exited with {out.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, args, bench, bins, out_dir):
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    common = ["--workload", workload, "--seed", str(args.seed)]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    stem = os.path.join(out_dir, f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    if args.trace:
        reference_s = max(1.0, args.seconds / 4)
        reference = run_binary(bins[0], common + ["--seconds", str(reference_s)])
        result = run_binary(bins[1], common + ["--seconds", str(args.seconds - reference_s),
                                               "--trace"])
        result["metrics"]["bench.trace_overhead"] = (
            reference["metrics"]["ops_per_s"] / result["metrics"]["ops_per_s"])
        runs = [reference, result]
    else:
        result = run_binary(bins[0], common + ["--seconds", str(args.seconds)])
        runs = [result]

    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        fail(f"{workload}: the benchmark emitted no value for {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # The traced run must simulate exactly what the untraced one did.
    same_digest = len({r["sim_digest"] for r in runs}) == 1
    correct = failed == 0 and same_digest

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "started_utc": stamp,
        "host": {
            "nproc": result["nproc"],
            "git_rev": command_output(["git", "rev-parse", "HEAD"]),
            "rustc": command_output(["rustc", "-V"]),
        },
        "build": {"profile": result["profile"], "features": result["features"]},
        "executor": result["executor"],
        "pool_size": result["pool_size"],
        "samples": result["ops"],
        "pass_s": result["pass_s"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / max(attempted, 1),
        "sim_digest": result["sim_digest"],
        "sim_digest_matches_untraced": same_digest,
        "failures": [f for r in runs for f in r["failures"]],
        "metrics": metrics,
    }
    path = stem + ".json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print(f"{workload}: {result['ops']} ops ({len(result['pass_s'])} passes) on "
          f"{result['executor']}, seed {args.seed}, fail_ratio {record['fail_ratio']}, "
          f"sim_digest {result['sim_digest']}{'' if same_digest else ' (MISMATCH)'}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    print(f"  -> {os.path.relpath(path, ROOT)}")
    return correct, attempted, failed, metrics


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "workloads.json"))
    names = list(spec["workloads"])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=spec["default_seed"])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    bins = build()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workloads = names if args.workload == "all" else [args.workload]
    results = [run_workload(w, args, bench, bins, out_dir) for w in workloads]

    if len(results) == 1:
        metrics = results[0][3]
    else:
        metrics = {f"{w}:{k}": v for w, r in zip(workloads, results) for k, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for r in results),
        "attempted": sum(r[1] for r in results),
        "failed": sum(r[2] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
