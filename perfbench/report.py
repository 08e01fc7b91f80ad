"""Run the benchmark over workloads and seeds and print every metric with its unit.

    python3 perfbench/report.py                       # end-to-end metrics, seed 1, all workloads
    python3 perfbench/report.py --trace 1             # per-layer metrics
    python3 perfbench/report.py --seeds 1-10 --out runs.json

With several seeds it also prints, per workload and metric, the median and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Run it from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("unique", "multiroot", "market", "cli")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if hi else [int(lo)]
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1", help="comma-separated seeds or ranges, e.g. 1-10")
    ap.add_argument("--seconds", type=float,
                    default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's info and result here as JSON")
    args = ap.parse_args()

    run_py = Path(__file__).resolve().parent / "run.py"
    runs, status = [], 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr.strip()[-2000:]}")
                status = 1
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            runs.append({"exit": proc.returncode, "info": info, "result": result})
            status |= proc.returncode != 0
            print(f"{workload} seed={seed} exit={proc.returncode} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {workload}.{name} = {m['value']:.6g} {m['unit']}")
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        if len(next(iter(values.values()), [])) >= 2:
            print(f"{workload}: median and quartile spread over {len(parse_seeds(args.seeds))} seeds")
            for name, vals in values.items():
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
                print(f"  {workload}.{name}: median {med:.6g} {units[name]}, spread {spread:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
