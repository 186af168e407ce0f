"""One cold pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, with its spawn time as the only
argument, and writes a JSON job to its stdin.  The script imports the
package, validates one sweep config per point (or the cross-validation
config), runs the job through the package's public functions, and prints
one JSON result line on stdout.  A sweep times each `cli.run_sweep` call;
crossval times each check that `crossval.run_all_checks` makes.

Times are read from time.monotonic(), the clock run.py stamped the spawn
with, so set-up time counts from before the interpreter started.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def run_sweep_pass(job: dict, tracer) -> dict:
    from hybrid_teleport import cli
    from hybrid_teleport.encoding import HybridType

    configs = [
        cli.SweepConfig(
            types=(HybridType(hy),), alphas=(alpha,), r_min=r, r_max=r,
            engine=job["engine"],
        ).validate()
        for hy, alpha, r, _ in job["points"]
    ]
    if job["setup_only"]:
        return {"setup_s": time.monotonic() - job["t_spawn"]}
    if tracer is not None:
        tracer.install()

    t_first = time.monotonic()
    ops, latencies = [], []
    for op, config in enumerate(configs):
        if tracer is not None:
            tracer.op = op
        error, rows = None, []
        t0 = time.monotonic()
        try:
            rows = cli.run_sweep(config)
        except Exception as exc:  # an exception fails the point, not the pass
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.monotonic() - t0)
        ops.append({"error": error, "rows": rows})
    order = sorted(range(len(ops)), key=lambda k: job["points"][k][3])
    text = cli.format_csv([row for k in order for row in ops[k]["rows"]])
    t_end = time.monotonic()
    for entry in ops:
        entry["values"] = [
            [row["avg_fidelity"], row["avg_success"]] for row in entry.pop("rows")
        ]
        if entry["error"] is None and not all(_finite(*v) for v in entry["values"]):
            entry["error"] = "non-finite value"
    return {
        "setup_s": t_first - job["t_spawn"],
        "wall_s": t_end - job["t_spawn"],
        "latencies": latencies,
        "ops": ops,
        "output": text,
    }


def run_crossval_pass(job: dict, tracer) -> dict:
    from hybrid_teleport import cli, crossval

    cli.SweepConfig(crossval=True).validate()
    if job["setup_only"]:
        return {"setup_s": time.monotonic() - job["t_spawn"]}
    if tracer is not None:
        tracer.install()
    latencies = []

    def timed(check):
        @functools.wraps(check)
        def run(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return check(*args, **kwargs)
            finally:
                latencies.append(time.monotonic() - t0)

        return run

    # run_all_checks calls the checks through the module's globals.
    for name in job["checks"]:
        setattr(crossval, name, timed(getattr(crossval, name)))

    t_first = time.monotonic()
    error, results = None, ()
    try:
        results = crossval.run_all_checks(fast=True)
    except Exception as exc:  # reported as failed checks by run.py
        error = f"{type(exc).__name__}: {exc}"
    t_end = time.monotonic()
    ops = [
        {
            "error": None if res.passed and _finite(res.worst) else res.line(),
            "values": [[float(res.worst), float(res.tolerance)]],
        }
        for res in results
    ]
    ops += [{"error": error, "values": []}] * (len(job["checks"]) - len(ops))
    return {
        "setup_s": t_first - job["t_spawn"],
        "wall_s": t_end - job["t_spawn"],
        "latencies": latencies,
        "ops": ops,
        "output": "".join(res.line() + "\n" for res in results),
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    job["t_spawn"] = float(sys.argv[1])
    tracer = None
    if job["trace_path"]:
        from spans import Tracer

        tracer = Tracer()
    run = run_crossval_pass if job["kind"] == "crossval" else run_sweep_pass
    result = run(job, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["caches"] = tracer.cache_counts()
        tracer.write(job["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
