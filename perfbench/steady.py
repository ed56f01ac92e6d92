#!/usr/bin/env python3
"""Steadiness mode: run one workload N times and judge its spread.

    python3 perfbench/steady.py run --workload <name> --runs 10 \
        [--seed0 1] [--out set.json]
    python3 perfbench/steady.py compare first.json second.json

`run` calls perfbench/run.py once per seed (seed0, seed0+1, ...) for
BENCHMARK.json's `run_seconds`, untraced, then prints each metric's median,
quartiles and spread: the interquartile range as a share of the median,
quartiles as `statistics.quantiles(n=4)` gives them. `compare` checks two
such sets against the bounds in BENCHMARK.json: each end-to-end spread must
stay within its bound, and no metric's second median may be worse than the
first by more than its bound. Both exit nonzero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    """End-to-end metric name -> (better, bound) from BENCHMARK.json."""
    return {m["name"]: (m["better"], m["bound"]) for m in spec()["end_to_end"]}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def run(args):
    seconds = spec()["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    doc = {"workload": args.workload, "seconds": seconds, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    return report(doc)


def report(doc):
    lim = bounds()
    bad = 0
    print(f"{doc['workload']}: {len(doc['runs'])} runs")
    print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name in doc["runs"][0]["metrics"]:
        s = summary([r["metrics"][name] for r in doc["runs"]])
        bound = lim.get(name, (None, None))[1]
        flag = ""
        if bound is not None:
            if s["spread"] > bound:
                flag, bad = "  OVER BOUND", bad + 1
            elif s["spread"] > bound / 3:
                flag = "  over a third of the bound"
        print(f"  {name:<34}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['spread']:>9.4f}{'' if bound is None else bound:>7}{flag}")
    return 1 if bad else 0


def compare(args):
    docs = []
    for path in (args.first, args.second):
        with open(path) as f:
            docs.append(json.load(f))
    bad = sum(report(d) for d in docs)
    print("second median against first:")
    for name, (better, bound) in bounds().items():
        if name not in docs[0]["runs"][0]["metrics"]:
            continue
        m1, m2 = (statistics.median(r["metrics"][name] for r in d["runs"]) for d in docs)
        worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
        ok = worse <= bound
        bad += not ok
        print(f"  {name:<34}{m1:>14.6g}{m2:>14.6g}  worse by {worse:+.4f} (bound {bound})"
              f"{'' if ok else '  REGRESSION'}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
