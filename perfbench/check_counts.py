"""Check that every traced count repeats exactly across two runs with one seed.

    python3 perfbench/check_counts.py --workload multiroot --seed 1 --seconds 2

Runs ``run.py --trace 1`` twice and compares every per-layer metric whose
name ends in .calls, .evals, .cells, .sweeps or .demand_solves.  Exits 1 on
any difference, so that a count can back a claim such as fewer residual
evaluations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

COUNT_SUFFIXES = (".calls", ".evals", ".cells", ".sweeps", ".demand_solves")


def traced_counts(args) -> dict[str, float]:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"traced run failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("unique", "multiroot", "market", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    first, second = traced_counts(args), traced_counts(args)
    diffs = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    for name in sorted(first):
        print(f"{name:50s} {first[name]:>14g} {'DIFFERS' if name in diffs else 'same'}")
    if diffs:
        print(f"{len(diffs)} counts differ between two traced runs", file=sys.stderr)
        return 1
    print(f"all {len(first)} counts repeat exactly ({args.workload}, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
