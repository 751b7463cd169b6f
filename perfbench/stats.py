"""Repeat benchmark runs over seeds and summarize each metric.

    python3 perfbench/stats.py --workload W [--workload W ...] --seeds 1-10
        [--trace 0|1] [--out FILE]

From the repository root.  Runs perfbench/run.py once per seed and workload,
one after another, and reports for every metric the median, the quartiles
(statistics.quantiles, n=4), the spread (quartile distance over the
median) and the sample count.  --out writes the summary as JSON, in the
format of perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS, required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    result = {"machine": machine(), "run_seconds": seconds, "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for wl in args.workload:
        rows, failed, attempted = [], 0, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += line["failed"]
            attempted += line["attempted"]
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            rows.append({k: v["value"] for k, v in line["metrics"].items()})
            print(f"{wl} seed={seed} correct={line['correct']} " +
                  " ".join(f"{k}={v:.4g}" for k, v in rows[-1].items() if not k.startswith("cmd.")),
                  flush=True)
        metrics = {k: dict(summary([r[k] for r in rows]), unit=units[k]) for k in rows[0]}
        result["workloads"][wl] = {"attempted_ops": attempted, "failed_ops": failed,
                                   "fail_frac": failed / attempted, "metrics": metrics}
        for k, s in metrics.items():
            print(f"  {wl:10s} {k:32s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                  f"q3={s['q3']:<12.6g} spread={s['spread']:.4f} n={s['n']} {s['unit']}")
        print(f"  {wl:10s} {'fail_frac':32s} {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
