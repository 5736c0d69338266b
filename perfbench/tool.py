#!/usr/bin/env python3
"""Run the fit benchmark over seeds, and compare two result files.

    python3 perfbench/tool.py run --workload handwritten-knn --seeds 1-10 \\
        [--trace 0|1] [--seconds S] --out base.jsonl
    python3 perfbench/tool.py compare base.jsonl new.jsonl

`run` calls the command in BENCHMARK.json once per workload and seed,
appends each run's `perfbench` record and result line to `--out`, and
prints per metric the median, the quartiles and the spread (quartile
distance as a share of the median) next to the metric's bound.

`compare` prints, per workload and metric, both medians, the relative
delta and a verdict: `worse` or `better` when the delta passes the
metric's bound in that direction, otherwise `unresolved`. Per-layer
metrics have no bound and get no verdict. It also reports, per seed run
in both files, whether the label hashes match, so a change meant to be
bitwise-identical can be checked by hash.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict

SPEC_PATH = "BENCHMARK.json"


def load_spec():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_runs(path):
    """Pairs each `perfbench` record with the result line after it."""
    runs = []
    record = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "perfbench" in obj:
                record = obj
            elif "metrics" in obj and record is not None:
                runs.append((record, obj))
                record = None
    return runs


def group(runs):
    """{(workload, trace): {metric: [values]}} plus label hashes by run."""
    values = defaultdict(lambda: defaultdict(list))
    hashes = {}
    for record, result in runs:
        key = (record["workload"], record["trace"])
        for name, m in result["metrics"].items():
            values[key][name].append(m["value"])
        hashes[key + (record["seed"],)] = record["label_hash"]
    return values, hashes


def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def cmd_run(args):
    spec, metrics = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in args.workload:
            for seed in seed_list(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                out.write(lines[-2] + "\n" + lines[-1] + "\n")
                out.flush()
                result = json.loads(lines[-1])
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    values, _ = group(read_runs(args.out))
    for (workload, trace), by_metric in sorted(values.items()):
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<24} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, vals in by_metric.items():
            bound = metrics.get(name, {}).get("bound")
            s = spread(vals)
            flag = " <- above a third of the bound" if bound and s >= bound / 3 else ""
            print(f"  {name:<24} {statistics.median(vals):>12.6g} {s:>8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")


def cmd_compare(args):
    _, metrics = load_spec()
    base, base_hashes = group(read_runs(args.base))
    new, new_hashes = group(read_runs(args.new))
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<24} {'base':>12} {'new':>12} {'delta':>8}  verdict")
        for name in base[key]:
            if name not in new[key]:
                continue
            b = statistics.median(base[key][name])
            n = statistics.median(new[key][name])
            delta = (n - b) / abs(b) if b else float("nan")
            spec = metrics.get(name, {})
            verdict = "-"
            if "bound" in spec:
                gain = -delta if spec["better"] == "lower" else delta
                verdict = "better" if gain > spec["bound"] else "worse" if -gain > spec["bound"] else "unresolved"
            print(f"  {name:<24} {b:>12.6g} {n:>12.6g} {delta:>+8.2%}  {verdict}")
    shared = sorted(set(base_hashes) & set(new_hashes))
    differ = [k for k in shared if base_hashes[k] != new_hashes[k]]
    print(f"\nlabel hashes: {len(shared) - len(differ)} of {len(shared)} runs identical")
    for workload, trace, seed in differ:
        print(f"  differ: {workload} trace {trace} seed {seed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run seeds and print spreads")
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    run.add_argument("--trace", type=int, default=0, choices=[0, 1])
    run.add_argument("--seconds", type=int, help="defaults to run_seconds in BENCHMARK.json")
    run.add_argument("--out", required=True, help="result file, appended to")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="compare two result files")
    cmp.add_argument("base")
    cmp.add_argument("new")
    cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
