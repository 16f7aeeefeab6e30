"""Run one workload over several seeds and summarise each metric.

    python3 cagebench/spread.py --workload NAME --seeds 1-10 [--seconds 24] [--trace 0|1]

Runs ``run.py`` once per seed, one after another, from the checkout root,
and prints per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
plus the share of failed operations of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **res}), flush=True)
        if not res["correct"]:
            print(f"spread: seed {seed} failed its checks", file=sys.stderr)
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  spread {spread:.3f}")
    print("failed/attempted per run:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
