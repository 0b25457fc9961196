#!/usr/bin/env python3
"""Steadiness check: two sets of end-to-end runs of one commit.

Run from the root of a checkout:

    python3 campaignbench/steady.py --seeds 10 --sets 2 --out steady.json

Each set runs `campaignbench/run.py --trace 0` once per workload and seed
(seeds 1..N). For every end-to-end metric and workload it reports, per
set, the median and the spread (distance between the first and third
quartile from `statistics.quantiles(values, n=4)`, as a share of the
median), and how far the second set's median moved in the worse
direction. A metric whose spread or median shift exceeds its bound in
BENCHMARK.json is reported as UNRESOLVED; the exit code is then 1. Each
run's wall time (build check included) is printed with its figures.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "campaignbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({out.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result: {' '.join(cmd)}\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="measuring time per run (default: run_seconds)")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    values = {}  # (set, workload, metric) -> [value per seed]
    for s in range(args.sets):
        for w in workloads:
            for seed in range(1, args.seeds + 1):
                got, elapsed = run_once(w, seed, seconds)
                print(f"set {s + 1} {w} seed {seed} ({elapsed:.1f} s): "
                      + " ".join(f"{k}={v:.6g}" for k, v in got.items()), flush=True)
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(got[m["name"]])

    rows = []
    unresolved = 0
    print()
    print(f"{'workload':<16} {'metric':<17} {'bound':>5}  "
          + "  ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
                      for s in range(args.sets))
          + f"  {'shift':>7}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[(s, w, name)] for s in range(args.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            shift = max(sign * (x - medians[0]) / medians[0] for x in medians)
            ok = shift <= bound and max(spreads) <= bound
            unresolved += not ok
            verdict = "ok" if ok else "UNRESOLVED"
            if ok and max(spreads) > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            print(f"{w:<16} {name:<17} {bound:>5}  "
                  + "  ".join(f"{md:>12.6g} {sp:>8.4f}" for md, sp in zip(medians, spreads))
                  + f"  {shift:>7.4f}  {verdict}")
            rows.append({"workload": w, "metric": name, "bound": bound,
                         "medians": medians, "spreads": spreads, "shift": shift,
                         "verdict": verdict, "values": sets})
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "sets": args.sets, "seconds": seconds,
                       "rows": rows}, f, indent=1)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
