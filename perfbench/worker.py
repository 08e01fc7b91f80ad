"""Worker process: import cosesi, build the instances, run the timed passes.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH.  It prints
``READY <cosesi.__file__>`` once ``import cosesi`` and input generation are
done (the driver times interpreter start to that line as set-up), then, unless
``--setup-only``, runs untraced passes over the instances for ``--seconds``,
checks the outputs, optionally runs one traced pass, and prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

t0 = time.perf_counter()
import cosesi  # noqa: E402

IMPORT_S = time.perf_counter() - t0

import tracing  # noqa: E402
import workloads  # noqa: E402


def untraced_passes(instances, seconds):
    """Repeat the instance list while another pass fits in ``seconds`` (one pass at least).

    Pass k runs pinned to the k-th allowed CPU, cycling; the original CPU set
    is restored at the end.

    ``best`` holds each instance's fastest latency over the passes and
    ``completed`` whether it returned without raising.
    """
    walls, first, errors, failures = [], None, [], {}
    best = [float("inf")] * len(instances)
    completed = [True] * len(instances)
    attempted = failed = 0
    start = time.perf_counter()
    cpus = sorted(os.sched_getaffinity(0))
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        # on a shared host each CPU's speed drifts on its own; running the
        # passes on the allowed CPUs in turn gives each instance's fastest
        # time samples from all of them
        os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
        results = []
        t_pass = time.perf_counter()
        for i, inst in enumerate(instances):
            t = time.perf_counter()
            try:
                res = inst.call()
            except Exception as exc:  # a failed solve is counted, not fatal
                res = exc
            best[i] = min(best[i], time.perf_counter() - t)
            results.append(res)
            attempted += 1
            if isinstance(res, Exception):
                completed[i] = False
                failed += 1
                key = f"{inst.entry}: {type(res).__name__}"
                failures[key] = failures.get(key, 0) + 1
        walls.append(time.perf_counter() - t_pass)
        prints = [workloads.fingerprint(r) for r in results]
        if first is None:
            first = prints
            for inst, res in zip(instances, results):
                if not isinstance(res, Exception):
                    errors += inst.check(res)
        elif prints != first:
            errors.append("a repeated pass gave different results")
    os.sched_setaffinity(0, cpus)
    return {
        "walls": walls,
        "best": best,
        "completed": completed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "errors": errors,
        "fingerprints": first,
    }


def traced_pass(instances, out_path):
    tracer = tracing.Tracer()
    modules = {name: importlib.import_module(name) for name in tracing.PACKAGE_MODULES}
    results = []
    tracer.install(modules)
    try:
        t_pass = time.perf_counter()
        for i, inst in enumerate(instances):
            tracer.current_instance = i
            try:
                results.append(inst.call())
            except Exception as exc:
                results.append(exc)
        wall = time.perf_counter() - t_pass
    finally:
        tracer.uninstall()
    tracer.save(out_path)
    return wall, tracer.layer_metrics(), [workloads.fingerprint(r) for r in results]


class CliInstance:
    """A command run in-process through ``cosesi.cli.main(argv)``; a non-zero
    exit raises, so it is counted as a failure."""

    def __init__(self, command):
        self.argv = command.argv
        self.readme = command.readme
        self.check = command.check
        self.entry = "cli.main"
        self.label = "cosesi " + " ".join(command.argv)

    def call(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cosesi.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return sink.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli":
        importlib.import_module("cosesi.cli")
        os.chdir(args.out_dir)
        instances = [CliInstance(cmd) for cmd in workloads.build_cli(args.seed)]
    else:
        instances = workloads.BUILDERS[args.workload](cosesi, args.seed)
    print("READY", cosesi.__file__, flush=True)
    if args.setup_only:
        return 0

    run = untraced_passes(instances, args.seconds)
    for inst, ok in zip(instances, run["completed"]):
        if not ok and getattr(inst, "readme", False):
            run["errors"].append(f"README command `{inst.label}` exited non-zero")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "import_s": IMPORT_S,
        "instances": len(instances),
        "peak_rss_mb": peak_rss_mb,
        **{k: v for k, v in run.items() if k != "fingerprints"},
    }
    if args.trace:
        span_path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.npz")
        wall, layers, prints = traced_pass(instances, span_path)
        if prints != run["fingerprints"]:
            out["errors"].append("the traced pass gave different results from the untraced pass")
        layers["trace.overhead_s"] = wall - statistics.median(run["walls"])
        out["layers"] = layers
        out["spans"] = span_path
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
