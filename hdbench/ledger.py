#!/usr/bin/env python3
"""Run the benchmark over many seeds, summarise result sets, compare two.

  python3 hdbench/ledger.py run --workloads train-nci1,serve-nci1 --seeds 1-10 --out a.jsonl
  python3 hdbench/ledger.py summary a.jsonl [--json]
  python3 hdbench/ledger.py compare a.jsonl b.jsonl

`run` takes the command and run length from BENCHMARK.json and appends one
JSON record per run (workload, seed, provenance, result) to `--out`. Seeds
are the outer loop, so the workloads interleave. To compare two commits,
run each from its own checkout, alternating between them, with the same
seeds; `compare` then pairs the runs of each workload in recorded order.

`summary` prints, per workload and metric, the run count, median and
quartiles (as `statistics.quantiles(values, n=4)` gives them) and the
spread: the distance between the quartiles as a share of the median.
`compare` prints both sets side by side with the change of the median,
whether it exceeds the metric's bound in BENCHMARK.json, and how many of
the pairs the second set won.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs():
    s = spec()
    out = {}
    for m in s["end_to_end"]:
        out[m["name"]] = m
    for m in s["per_layer"]:
        out.setdefault(m["name"], m)
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_run(args):
    s = spec()
    seconds = args.seconds or s["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = s["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    continue
                provenance = next(
                    (json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"')), {}
                )
                result = json.loads(lines[-1])
                notes = [l for l in proc.stderr.splitlines() if l.startswith("hdbench:")]
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "provenance": provenance, "result": result, "notes": notes[-40:]}
                out.write(json.dumps(record) + "\n")
                out.flush()
                values = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                )
                print(f"{workload} seed {seed}: correct={result['correct']} {values}")


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[(r["workload"], r["trace"])].append(r)
    return runs


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def summarise(runs):
    table = {}
    for (workload, trace), records in sorted(runs.items()):
        metrics = defaultdict(list)
        for r in records:
            for name, m in r["result"]["metrics"].items():
                metrics[name].append(m["value"])
        table[f"{workload}/trace{trace}"] = {
            "runs": len(records),
            "all_correct": all(r["result"]["correct"] for r in records),
            "metrics": {name: describe(v) for name, v in metrics.items()},
        }
    return table


def cmd_summary(args):
    table = summarise(load(args.file))
    if args.json:
        print(json.dumps(table, indent=1))
        return
    specs = metric_specs()
    for key, entry in table.items():
        print(f"== {key}: {entry['runs']} runs, all correct: {entry['all_correct']}")
        for name, d in entry["metrics"].items():
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "OVER BOUND" if d["spread"] > bound else ("wide" if d["spread"] > bound / 3 else "ok")
            print(f"  {name:<32} n={d['n']:<3} median={d['median']:<14.6g} "
                  f"q1={d['q1']:<14.6g} q3={d['q3']:<14.6g} spread={d['spread']:.4f} "
                  f"{'bound=' + str(bound) if bound is not None else ''} {flag}")


def cmd_compare(args):
    a, b = load(args.a), load(args.b)
    specs = metric_specs()
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        print(f"== {key[0]} (trace {key[1]}): {len(ra)} vs {len(rb)} runs")
        names = list(ra[0]["result"]["metrics"])
        for name in names:
            va = [r["result"]["metrics"][name]["value"] for r in ra if name in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][name]["value"] for r in rb if name in r["result"]["metrics"]]
            if not va or not vb:
                continue
            da, db = describe(va), describe(vb)
            m = specs.get(name, {})
            higher = m.get("better") == "higher"
            change = (db["median"] - da["median"]) / abs(da["median"]) if da["median"] else 0.0
            worse = -change if higher else change
            wins = sum((y > x) if higher else (y < x) for x, y in zip(va, vb))
            pairs = min(len(va), len(vb))
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "within bound"
            print(f"  {name:<32} A {da['median']:<12.6g} [{da['q1']:.6g}, {da['q3']:.6g}]  "
                  f"B {db['median']:<12.6g} [{db['q1']:.6g}, {db['q3']:.6g}]  "
                  f"change {change:+.2%}  B wins {wins}/{pairs}  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)
    s = sub.add_parser("summary")
    s.add_argument("file")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_summary)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
