#!/usr/bin/env python3
"""Repeat the benchmark over seeds, and compare two result sets.

    python3 perfbench/compare.py repeat --workload W [--workload W ...]
        --seeds 1-10 [--seconds S] [--trace 0|1] --out SET.jsonl
    python3 perfbench/compare.py spread SET.jsonl
    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl

A result set is a JSON-lines file: one object per run with the workload,
the seed, the run stamp and the benchmark's final JSON line.

`spread` prints, per workload and end-to-end metric, the median and the
quartile spread (Q3 - Q1 over the median, quartiles as
`statistics.quantiles(values, n=4)` gives them) next to the metric's
bound from BENCHMARK.json.

`compare` pairs runs by (workload, seed) and gives one verdict per
workload and end-to-end metric, by the pairs/quartile rule:

- improved:  the change wins at least 9 in 10 of all pairs (ties count
  for neither side) and the medians differ by more than the parent's
  own quartile spread;
- unresolved: the parent's spread is wider than the bound and not every
  change run reads better than every parent run;
- worse:     the change's median is worse than the parent's by more
  than the bound;
- no worse:  otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def repeat(args):
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in args.workload:
            for seed in seeds_of(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
                stamp = next((l for l in lines if l.startswith("stamp:")), "")
                result = json.loads(lines[-1])
                row = {"workload": workload, "seed": seed, "trace": args.trace,
                       "stamp": stamp, "result": result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {brief}", flush=True)


def read_set(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return [r for r in rows if r.get("trace", 0) == 0]


def values(rows, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def quartiles(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(args):
    spec = load_spec()
    rows = read_set(args.set)
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        bad = [r for r in rows if r["workload"] == w and not r["result"]["correct"]]
        n = sum(1 for r in rows if r["workload"] == w)
        if n == 0:
            continue
        print(f"{w}: {n} runs, {len(bad)} incorrect")
        ok &= not bad
        for m in spec["end_to_end"]:
            vals = values(rows, w, m["name"])
            if len(vals) < 2:
                continue
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("inf")
            mark = "ok" if rel < m["bound"] / 3 else ("within bound" if rel <= m["bound"] else "TOO WIDE")
            ok &= rel <= m["bound"]
            print(f"  {m['name']:<16} median {med:>14.4f} {m['unit']:<4} spread {rel:7.4f} "
                  f"bound {m['bound']:.2f}  {mark}")
    sys.exit(0 if ok else 1)


def verdict(parent, change, better, bound):
    q1, pmed, q3 = quartiles(parent)
    cmed = statistics.median(change)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > (q3 - q1):
        return "improved"
    everyone_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pmed and (q3 - q1) / pmed > bound and not everyone_better:
        return "unresolved"
    if pmed and sign * (pmed - cmed) / pmed > bound:
        return "worse"
    return "no worse"


def compare(args):
    spec = load_spec()
    parent, change = read_set(args.parent), read_set(args.change)
    for w in [w["name"] for w in spec["workloads"]]:
        seeds = sorted({r["seed"] for r in parent if r["workload"] == w}
                       & {r["seed"] for r in change if r["workload"] == w})
        if len(seeds) < 2:
            continue
        print(f"{w}: {len(seeds)} pairs")
        for m in spec["end_to_end"]:
            def by_seed(rows):
                got = {r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                       for r in rows if r["workload"] == w}
                return [got[s] for s in seeds]
            p, c = by_seed(parent), by_seed(change)
            pq = quartiles(p)
            cq = quartiles(c)
            v = verdict(p, c, m["better"], m["bound"])
            print(f"  {m['name']:<16} parent {pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
                  f"change {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {m['unit']:<4} {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("repeat")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    {"repeat": repeat, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
