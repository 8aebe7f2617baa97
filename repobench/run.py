#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds repobench/main.exe with dune from the checkout this file sits in and
runs one workload. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

    python3 repobench/run.py --selfcheck [--runs 10] [--workloads a,b] [--trace 0|1]

is the steadiness self-check: it runs each workload --runs times with seeds
--seed, --seed+1, ... and prints, for every metric, the median, the quartiles
and the spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json. It fails if a spread other than setup_s exceeds its bound, if
a run is incorrect, or if the simulated-results digests of the runs differ.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "repobench", "main.exe")
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print("repobench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    # the benchmark links the repository's libraries: without them (a
    # directory holding only the benchmark) there is nothing to measure
    for need in ("dune-project", "lib", os.path.join("repobench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a repository checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        dune = ["opam", "exec", "--", "dune"]
    try:
        r = subprocess.run(
            dune + ["build", "--root", ROOT, "./repobench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 3)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed", 3)


def run_once(workload, seed, seconds, trace):
    """Run the executable; return (exit code, stdout text)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 4)
    return r.returncode, r.stdout


def selfcheck(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    ok = True
    digests = {}
    for w in names:
        values = {m["name"]: [] for m in metrics}
        alu = []
        for i in range(args.runs):
            seed = args.seed + i
            code, out = run_once(w, seed, seconds, args.trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print("%s seed %d: exit %d" % (w, seed, code))
                ok = False
                continue
            res = json.loads(lines[-1])
            for line in lines:
                if line.startswith("results digest: "):
                    digests.setdefault(w, set()).add(line.split(": ", 1)[1])
                elif line.startswith('{"host"'):
                    alu.append(json.loads(line)["host"]["alu_ms"])
            if not res["correct"]:
                print("%s seed %d: incorrect" % (w, seed))
                ok = False
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v[-1]) for k, v in values.items() if v)),
                flush=True)
        print("\n%s: %d runs of %s s, host alu_ms %s" % (
            w, args.runs, seconds, " ".join("%.1f" % a for a in alu)))
        print("  %-20s %12s %12s %12s %8s %7s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                if m["name"] != "setup_s":
                    ok = False
            print("  %-20s %12.6g %12.6g %12.6g %8.4f %7s  %s" % (
                m["name"], med, q1, q3, spread,
                "-" if bound is None else "%.3f" % bound, verdict))
    for w, ds in sorted(digests.items()):
        print("%s results digest: %s" % (w, " ".join(sorted(ds))))
        if len(ds) != 1:
            print("  digests differ between seeds")
            ok = False
    small = [digests.get(w) for w in ("sweep-small", "serve-repeat")]
    if all(small) and small[0] != small[1]:
        print("sweep-small and serve-repeat serve the same requests but "
              "their digests differ")
        ok = False
    print("selfcheck: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    build()
    if args.selfcheck:
        sys.exit(selfcheck(args))
    if not args.workload or args.seconds is None:
        die("--workload and --seconds are required")
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
