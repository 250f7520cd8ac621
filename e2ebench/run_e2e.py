#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e.cc).

Run from the repository root:

  python3 e2ebench/run_e2e.py --seed 42
      Every workload in its own process; prints the end-to-end and
      per-layer tables and writes them, with their run conditions, to
      --out (default .bench_build/BENCH_e2e.json).

  python3 e2ebench/run_e2e.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. The last line of stdout is one JSON object with the
      keys correct, attempted, failed and metrics: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.

  python3 e2ebench/run_e2e.py --compare A.json B.json
      For each (workload, end-to-end metric) pair, prints B's median
      against A's relative to the metric's bound in BENCHMARK.json, and
      exits 1 if any pair is worse than its bound.

Every mode first builds bench_e2e into .bench_build and checks that
BENCHMARK.json and `bench_e2e --list` name the same workloads and metrics
with the same units. Exits non-zero on any failed or wrong operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (a no-op when current) and rebuilds what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def child_env():
    # The workloads pin their own sizes and thread counts.
    env = dict(os.environ)
    env.pop("MODULARIS_NUM_THREADS", None)
    env.pop("MODULARIS_BENCH_SCALE", None)
    return env


def run_binary(args):
    """Runs bench_e2e; returns (exit code, parsed JSON stdout)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e %s timed out" % " ".join(args))
    try:
        return proc.returncode, json.loads(proc.stdout)
    except ValueError:
        fail("bench_e2e %s exited %d without a result"
             % (" ".join(args), proc.returncode))


def load_spec():
    """BENCHMARK.json, checked against the binary's own --list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    _, listed = run_binary(["--list"])

    def names(metrics):
        return [(m["name"], m["unit"]) for m in metrics]

    mismatches = []
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        mismatches.append("workloads")
    for key in ("end_to_end", "per_layer"):
        if names(spec[key]) != names(listed[key]):
            mismatches.append(key)
    if mismatches:
        fail("BENCHMARK.json and bench_e2e --list disagree on "
             + ", ".join(mismatches))
    spec["model"] = {m["name"] for m in listed["per_layer"] if m["model"]}
    return spec


def run_workload(name, seed, seconds, trace):
    code, out = run_binary(["--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace",
                            "1" if trace else "0"])
    if code not in (0, 1) or out.get("workload") != name:
        fail("bench_e2e --workload %s exited %d" % (name, code))
    return out


def fmt(value):
    return "%.6g" % value


def print_table(title, spec, key, results):
    """One row per metric, one column per workload."""
    workloads = list(results)
    print("\n%s" % title)
    print("%-28s %-6s " % ("metric", "unit")
          + " ".join("%16s" % w for w in workloads))
    for metric in spec[key]:
        name = metric["name"]
        tag = "  [model]" if name in spec["model"] else ""
        cells = []
        for w in workloads:
            values = [r[key][name] for r in results[w]]
            cells.append("%16s" % fmt(statistics.median(values)))
        print("%-28s %-6s " % (name, metric["unit"]) + " ".join(cells) + tag)
    if key == "end_to_end":
        cells = []
        for w in workloads:
            attempted = sum(r["attempted"] for r in results[w])
            failed = sum(r["failed"] for r in results[w])
            cells.append("%16s" % fmt(failed / attempted))
        print("%-28s %-6s " % ("fail_ratio", "ratio") + " ".join(cells))


def summarize(spec, key, runs):
    out = {}
    for metric in spec[key]:
        values = [r[key][metric["name"]] for r in runs]
        entry = {"value": statistics.median(values), "unit": metric["unit"],
                 "values": values}
        if metric["name"] in spec["model"]:
            entry["model"] = True  # a modelled cost, not part of wall time
        out[metric["name"]] = entry
    return out


def run_all(spec, args):
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        print("running %s ..." % name, file=sys.stderr, flush=True)
        results[name] = [run_workload(name, args.seed, args.seconds, True)
                         for _ in range(args.runs)]
    print_table("End-to-end (untraced passes; median of %d run(s), seed %d)"
                % (args.runs, args.seed), spec, "end_to_end", results)
    print_table("Per-layer (traced passes)", spec, "per_layer", results)

    record = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs,
              "workloads": {}}
    total_failed = 0
    for name, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        total_failed += failed
        conditions = runs[0]["conditions"]
        if conditions["nproc"] < conditions["threads"]:
            print("warning: %s ran %d threads on %d cores"
                  % (name, conditions["threads"], conditions["nproc"]),
                  file=sys.stderr)
        record["workloads"][name] = {
            "conditions": conditions,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": summarize(spec, "end_to_end", runs),
            "per_layer": summarize(spec, "per_layer", runs),
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    print("\nwrote %s" % args.out)
    return 0 if total_failed == 0 else 1


def run_one(spec, args):
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[key]:
        value = out[key][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("%-28s %16s %s%s" % (metric["name"], fmt(value), metric["unit"],
                                   "  [model]" if metric["name"] in
                                   spec["model"] else ""))
    print("%-28s %16s ratio (%d of %d ops)" % (
        "fail_ratio", fmt(out["failed"] / out["attempted"]), out["failed"],
        out["attempted"]))
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if out["failed"] == 0 else 1


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    for path, record in ((path_a, a), (path_b, b)):
        if sorted(record["workloads"]) != sorted(names):
            fail("%s does not hold the workloads of BENCHMARK.json" % path)
    print("%-16s %-14s %14s %14s %9s %7s" % (
        "workload", "metric", "A", "B", "B vs A", "bound"))
    worse = 0
    for name in names:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            m = metric["name"]
            va, vb = wa["end_to_end"][m]["value"], wb["end_to_end"][m]["value"]
            diff = (vb - va) / va if va else 0.0
            if metric["better"] == "higher":
                diff = -diff
            mark = ""
            if diff > metric["bound"]:
                mark, worse = "WORSE", worse + 1
            elif diff < -metric["bound"]:
                mark = "better"
            print("%-16s %-14s %14s %14s %+8.1f%% %6.0f%% %s" % (
                name, m, fmt(va), fmt(vb), 100 * diff,
                100 * metric["bound"], mark))
        # fail_ratio has a bound of +0, absolute.
        if wb["fail_ratio"] > wa["fail_ratio"]:
            print("%-16s %-14s %14s %14s %9s %7s WORSE" % (
                name, "fail_ratio", fmt(wa["fail_ratio"]),
                fmt(wb["fail_ratio"]), "", "+0"))
            worse += 1
    print("\n%d pair(s) worse than their bound" % worse)
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload without --workload")
    parser.add_argument("--out",
                        default=os.path.join(BUILD, "BENCH_e2e.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(spec, *args.compare)
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            fail("unknown workload " + args.workload)
        return run_one(spec, args)
    return run_all(spec, args)


if __name__ == "__main__":
    sys.exit(main())
