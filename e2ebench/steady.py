"""Steadiness evidence: repeat a workload and report each metric's spread.

    python3 e2ebench/steady.py --workload plan-batch --runs 10 --first-seed 1 --save a.json
    python3 e2ebench/steady.py --compare a.json b.json

The first form runs ``run.py`` ``--runs`` times with consecutive seeds
and prints, for every end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile spread as a
share of the median, and the max/min spread, next to the metric's bound
in ``BENCHMARK.json``.  The second form compares two saved sets: the
shift of the second median against the first, as a share of the first,
for every metric.  These two tables are the basis for the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common


def bench_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def collect(workload: str, runs: int, first_seed: int, seconds: int) -> list[dict]:
    results = []
    for seed in range(first_seed, first_seed + runs):
        out = subprocess.run(
            [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=common.ROOT, capture_output=True, text=True, check=True,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# env: "):
                result["steal_share"] = json.loads(line[len("# env: "):])["steal_share"]
            elif line.startswith("# host_slowdown: "):
                result["host_slowdown"] = float(line[len("# host_slowdown: "):])
            elif line.startswith("# raw: "):
                result["raw"] = json.loads(line[len("# raw: "):])
        print(f"  seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"steal={result.get('steal_share', 0):.3f} "
              f"slowdown={result.get('host_slowdown', 0):.3f} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        results.append(result)
    return results


def spread_table(workload: str, results: list[dict], bounds: dict) -> None:
    print(f"{workload}: {len(results)} runs, "
          f"{sum(not r['correct'] for r in results)} incorrect")
    print(f"  {'metric':<18}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'iqr/med':>9}{'max/min':>9}{'bound':>7}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        span = max(values) / min(values) - 1 if min(values) else 0.0
        print(f"  {name:<18}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}"
              f"{iqr:>9.3f}{span:>9.3f}{bounds.get(name, float('nan')):>7}")


def compare(first: list[dict], second: list[dict], spec: dict) -> None:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"  {'metric':<18}{'median 1':>11}{'median 2':>11}{'worse by':>9}{'bound':>7}")
    for name in first[0]["metrics"]:
        a = statistics.median(r["metrics"][name]["value"] for r in first)
        b = statistics.median(r["metrics"][name]["value"] for r in second)
        worse = (b - a) / a if better[name] == "lower" else (a - b) / a
        flag = "" if worse <= bounds[name] else "  OVER"
        print(f"  {name:<18}{a:>11.5g}{b:>11.5g}{worse:>9.3f}{bounds[name]:>7}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--save", help="write the runs' results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        for workload in sets[0]:
            print(workload)
            compare(sets[0][workload], sets[1][workload], spec)
        return 0

    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    saved = {}
    for workload in workloads:
        print(f"{workload}: {args.runs} runs from seed {args.first_seed}", flush=True)
        saved[workload] = collect(workload, args.runs, args.first_seed, seconds)
        spread_table(workload, saved[workload], bounds)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
