"""Benchmark driver for cosesi.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unique --seed 1 --seconds 25 --trace 0

Each run starts one fresh worker process (``worker.py``) that repeats the
workload's instances for ``--seconds``; ``cli`` runs every README command
in-process through ``cosesi.cli.main(argv)``.  Set-up is timed in several
fresh processes per run and reported as the median.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer metrics from a separate traced pass.  The line before it records
the environment.  A wrong output makes the run exit 1; a missing ``src/cosesi``
makes it exit 2 before anything runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("COSESI_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cosesi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


class Runner:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.env = worker_env(root)
        self.out_dir = root / ".bench_out"
        self.deadline = time.monotonic() + DEADLINE_S
        self.live: list[subprocess.Popen] = []

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def popen(self, cmd, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, env=self.env, **kwargs)
        self.live.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def check_source(self, cosesi_file: str) -> None:
        src = (self.root / "src").resolve()
        if not Path(cosesi_file.strip()).resolve().is_relative_to(src):
            raise BenchError(f"cosesi imports from {cosesi_file.strip()!r}, not from {src}")

    def worker_cmd(self, workload, setup_only=False):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(self.args.seed),
            "--seconds", repr(self.args.seconds),
            "--trace", str(self.args.trace),
            "--out-dir", str(self.out_dir if workload != "cli" else self.cli_dir()),
        ]
        return cmd + (["--setup-only"] if setup_only else [])

    def cli_dir(self) -> Path:
        path = self.out_dir / "cli"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def worker_result(self, proc) -> dict:
        out, _ = proc.communicate(timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def start_worker(self, cmd) -> tuple[subprocess.Popen, float]:
        """Start a worker and time interpreter start to its READY line."""
        t = time.perf_counter()
        proc = self.popen(cmd, cwd=self.root, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        dt = time.perf_counter() - t
        if not line.startswith("READY "):
            proc.wait(timeout=self.remaining())
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
        self.check_source(line[len("READY "):])
        return proc, dt

    # -- worker workloads ----------------------------------------------------

    def worker_workload(self) -> dict:
        w = self.args.workload
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, dt = self.start_worker(self.worker_cmd(w, setup_only=True))
            setup.append(dt)
            proc.communicate(timeout=self.remaining())
        proc, dt = self.start_worker(self.worker_cmd(w))
        setup.append(dt)
        return {**self.worker_result(proc), "setup": setup}


def metrics_for(result: dict, trace: int) -> dict[str, float]:
    """Latencies are each instance's fastest over the run's passes, which keeps
    the figures steady on a machine whose speed drifts; wall_s is their sum."""
    import numpy as np

    done = [t for t, ok in zip(result["best"], result["completed"]) if ok]
    if not trace:
        return {
            "setup_s": statistics.median(result["setup"]),
            "wall_s": sum(result["best"]),
            "op_p50_ms": 1000.0 * statistics.median(done),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    m = dict(result["layers"])
    m["cli.import_s"] = result["import_s"]
    m["op_p90_ms"] = 1000.0 * float(np.quantile(done, 0.9))
    m["fail_frac"] = result["failed"] / result["attempted"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("unique", "multiroot", "market", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cosesi" / "__init__.py").is_file():
        print(f"no cosesi sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(root, args)
    runner.out_dir.mkdir(exist_ok=True)

    def on_alarm(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")

    # a worker that hangs before READY blocks on a read with no timeout
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(DEADLINE_S) + 2)
    try:
        result = runner.worker_workload()
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        runner.stop_all()

    values = metrics_for(result, args.trace)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not result["errors"]
    for err in result["errors"][:50]:
        print(f"WRONG: {err}", file=sys.stderr)
    for key, count in sorted(result["failures"].items()):
        print(f"failed: {key} x{count}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": result["instances"],
        "pass_walls_s": result["walls"],
        "timed_instances": sum(result["completed"]),
        "setup_samples": result["setup"],
        "failures": result["failures"],
        "errors": result["errors"][:50],
        "spans": result.get("spans") and os.path.relpath(result["spans"], root),
        "env": environment(root),
    }
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    record = runner.out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": line}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
