#!/usr/bin/env python3
"""Compare mode: parent commit against a change, on the benchmark's own
bounds.

Run alternating pairs of end-to-end runs in two checkouts (each builds
its own harness in its own .bench_build), then report:

    python3 qmcbench/compare.py run --parent PARENT_DIR --change CHANGE_DIR \\
        --results DIR [--pairs 10] [--workload NAME ...]

Report on result files written by run.py --out (or by `run` above):

    python3 qmcbench/compare.py report PARENT.jsonl CHANGE.jsonl

Pair i runs seed SEED0 + i on both sides for BENCHMARK.json's
run_seconds; even pairs run the parent first, odd pairs the change. For
every workload and end-to-end metric the report gives each side's median
and quartiles, the change's win fraction and a verdict (improved,
regressed, within bound, unresolved) by stats.verdict.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import stats  # noqa: E402

SEED0 = 1000  # seed of the first pair


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_pairs(args, spec):
    os.makedirs(args.results, exist_ok=True)
    out = {side: os.path.abspath(os.path.join(args.results, side + ".jsonl"))
           for side in ("parent", "change")}
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout keeps its own build
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for wl in workloads:
            for side in order:
                cmd = [sys.executable, "qmcbench/run.py", "--workload", wl,
                       "--seed", str(SEED0 + i), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--out", out[side]]
                print("pair %d %s %s" % (i, side, wl), file=sys.stderr, flush=True)
                r = subprocess.run(cmd, cwd=dirs[side], env=env, stdout=subprocess.DEVNULL)
                if r.returncode != 0:
                    sys.exit("run failed in %s: %s" % (dirs[side], " ".join(cmd)))
    return out["parent"], out["change"]


def load(path):
    by_wl = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_wl.setdefault(rec["workload"], []).append(rec)
    return by_wl


def report(parent_path, change_path, spec):
    parent, change = load(parent_path), load(change_path)
    fmt = "%-24s %-18s %30s %30s %6s  %s"
    print(fmt % ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
                 "wins", "verdict"))
    for wl in [w["name"] for w in spec["workloads"]]:
        p, c = parent.get(wl, []), change.get(wl, [])
        n = min(len(p), len(c))
        if n == 0:
            continue
        p, c = p[:n], c[:n]
        if [r["seed"] for r in p] != [r["seed"] for r in c]:
            print("%s: parent and change runs used different seeds" % wl, file=sys.stderr)
        bad = sum(1 for r in p + c if not r["result"]["correct"])
        for m in spec["end_to_end"]:
            pv = [r["result"]["metrics"][m["name"]]["value"] for r in p]
            cv = [r["result"]["metrics"][m["name"]]["value"] for r in c]
            pq, cq = stats.quartiles(pv), stats.quartiles(cv)
            v, win = stats.verdict(pv, cv, m["better"], m["bound"])
            print(fmt % (wl, m["name"], "%.5g [%.5g, %.5g]" % (pq[1], pq[0], pq[2]),
                         "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]), "%.2f" % win, v))
        print("%-24s %d pairs, %d runs with failed checks" % (wl, n, bad))


def main():
    ap = argparse.ArgumentParser(description="qmcbench compare mode")
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="run alternating pairs, then report")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--results", required=True, help="directory for the result files")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--workload", action="append")
    p = sub.add_parser("report", help="report on existing result files")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    spec = benchmark_spec()
    if args.mode == "run":
        report(*run_pairs(args, spec), spec)
    else:
        report(args.parent, args.change, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
