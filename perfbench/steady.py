#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

It reads the workloads, metrics and bounds from BENCHMARK.json, which
the benchmark's self-test keeps equal to its own tables.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1-5 --workloads horizon-3y

Workloads are interleaved, and the order alternates from one seed to the
next, so slow drift of the machine falls on every workload alike. For each
workload and end-to-end metric it prints the median over the seeds and the
spread: the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
beside the metric's bound from BENCHMARK.json. A spread above a third of
its bound is marked "!". With --trace 1 it prints the per-layer medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    values = {w: {m["name"]: [] for m in specs} for w in workloads}
    ok = True
    for j, seed in enumerate(args.seeds):
        order = workloads if j % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            rec = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith("# gate") or line.startswith("# repeat") or line.startswith("# result"):
                    print(line)
            if not rec["correct"] or rec["failed"]:
                ok = False
            for m in specs:
                values[w][m["name"]].append(rec["metrics"][m["name"]]["value"])
            shown = " ".join(f"{k}={rec['metrics'][k]['value']:.4g}" for k in list(rec["metrics"])[:8])
            print(f"{w:15s} seed {seed:3d} {wall:6.1f}s correct={rec['correct']} "
                  f"failed={rec['failed']}/{rec['attempted']} {shown}", flush=True)

    print()
    for w in workloads:
        for m in specs:
            xs = values[w][m["name"]]
            if not xs:
                continue
            med = statistics.median(xs)
            line = f"{w:15s} {m['name']:34s} median {med:12.6g} {m['unit']:6s}"
            if len(xs) >= 2 and "bound" in m:
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
                flag = "!" if spread > m["bound"] / 3 else " "
                line += f" spread {spread:7.4f} bound {m['bound']:.2f} {flag}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
