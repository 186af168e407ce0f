"""Cold-start benchmark of hybrid-teleport: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fp-sweep-I --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every pass runs in a fresh interpreter (perfbench/worker.py) with empty
caches and BLAS/OpenMP pinned to one thread, because every CLI invocation
pays that cost.  One caller, closed loop: a pass starts when the previous
one has ended.  The seed picks the workload's inputs; the program only
receives the generated (type, alpha, r) points.

With --trace 0 the run reports the end-to-end metrics of untraced passes.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics read from the traced passes' spans, plus the tracing
overhead.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it name
every metric with its unit.  The exit status is 1 when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference" / "closed_sweep.csv"
OUT = HERE / "out"

RUN_LIMIT_S = 175.0
SETUP_SAMPLES = 8
# Sweeps run at least two cold passes, so that a burst of load from
# elsewhere on the machine during one pass moves the run's median by half as
# much.  A crossval pass takes over half a minute, so it runs once.
MIN_PASSES = {"sweep": 2, "crossval": 1}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# The tolerance crossval applies to closed forms vs first principles.
TOLERANCE = 1e-6
R_GRID = tuple(round(0.02 * k, 2) for k in range(1, 50))

# Type I: one point per band (alpha low, alpha high, r max).  The r caps keep
# alpha * r below ~14, where dephasing starts dropping terms and a point gets
# cheaper, so the pass cost does not swing with the seed.
FP_I_BANDS = ((1.0, 3.0, 0.6), (3.0, 12.0, 0.6), (20.0, 24.0, 0.3))

END_TO_END = (
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("point_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but left out of the result object: on
# a host whose speed flips between two levels, the median point latency
# jumps between them when the run spends about half its time at each.
REPORTED_ONLY = (("point_p50_ms", "ms"),)


def _layer(span: str, *quantities) -> tuple:
    units = {"self_s": "s", "kept_ratio": "ratio"}
    return tuple((f"{span}.{q}", units.get(q, "count")) for q in quantities)


PER_LAYER = (
    _layer("engine.apply_beam_splitter", "calls", "self_s", "terms_in", "terms_out")
    + _layer(
        "engine.TermSum.canonicalized",
        "calls", "self_s", "terms_in", "terms_out", "kept_ratio",
    )
    + _layer("loss.damp_modes", "calls", "self_s", "terms_in", "terms_out")
    + _layer("loss.damp_mode", "calls", "self_s")
    + _layer("loss.decohered_channel", "self_s")
    + _layer("protocol.outcome_tensors", "calls", "hits", "misses", "self_s")
    + _layer("protocol.average_fidelity", "self_s")
    + _layer("protocol.average_success", "self_s")
    + _layer("protocol.SphereQuadrature.nodes", "calls", "self_s")
    + _layer("protocol.SphereQuadrature.mu_nu_grid", "calls", "self_s")
    + _layer("protocol.teleport_once", "calls", "self_s")
    + _layer("protocol.group_statistics", "self_s")
    + _layer("engine.trace_distance", "calls", "self_s")
    + _layer("engine.overlap", "hits", "misses")
    + _layer("engine.filtered_overlap", "hits", "misses")
    + _layer("formulas.average_fidelity", "calls", "self_s")
    + _layer("formulas.success_probability", "self_s")
    + _layer("encoding.ideal_channel", "self_s")
    + _layer("encoding.logical_ket", "calls")
    + _layer("encoding.apply_correction", "calls", "self_s")
    + _layer("encoding.bell_decomposition_check", "calls", "self_s")
    + _layer("measurement.projector", "calls", "self_s")
    + sum((_layer(f"crossval.{c}", "self_s") for c in spans.CROSSVAL_CHECKS), ())
    + _layer("cli.run_sweep", "self_s")
    + _layer("cli.format_csv", "self_s")
    + (("trace.overhead_s", "s"),)
)


class BenchError(RuntimeError):
    """The benchmark could not complete a run."""


# ---------------------------------------------------------------------------
# workloads: the seed picks the inputs

def closed_sweep_points(rng: random.Random) -> list:
    """The CLI's default closed-form grid, in a seed-shuffled order."""
    from hybrid_teleport.cli import SweepConfig

    config = SweepConfig()
    grid = [
        (hy.value, alpha, r)
        for hy in config.types for alpha in config.alphas for r in config.r_values()
    ]
    points = [p + (k,) for k, p in enumerate(grid)]
    rng.shuffle(points)
    return points


def fp_sweep_i_points(rng: random.Random) -> list:
    grid = [
        (
            "I",
            round(rng.uniform(lo, hi), 2),
            rng.choice([r for r in R_GRID if r <= r_max]),
        )
        for lo, hi, r_max in FP_I_BANDS
    ]
    return [p + (k,) for k, p in enumerate(grid)]


WORKLOADS = {
    "closed-sweep": ("sweep", "closed-form", closed_sweep_points),
    "fp-sweep-I": ("sweep", "first-principles-coherent", fp_sweep_i_points),
    "crossval": ("crossval", None, None),
}


# ---------------------------------------------------------------------------
# passes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter; returns the worker's result."""
    payload = json.dumps(job)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(t_spawn)],
            input=payload, capture_output=True, text=True, env=child_env(),
            cwd=ROOT, timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the {RUN_LIMIT_S:g} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stderr[-2000:]}") from exc


def run_passes(job: dict, seconds: float, trace: bool, deadline: float) -> tuple:
    """(set-up samples, untraced passes, traced passes).

    Passes (or untraced/traced pairs) repeat while the next one is expected
    to end within `seconds`, after a minimum of `MIN_PASSES` for the kind
    (one pair when tracing).
    """
    spawn(dict(job, setup_only=True), deadline)  # compiles bytecode; untimed
    setups = [
        spawn(dict(job, setup_only=True), deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    plain, traced = [], []
    min_passes = 1 if trace else MIN_PASSES[job["kind"]]
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(spawn(job, deadline))
        if trace:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{job['workload']}-{len(traced)}.jsonl"
            result = spawn(dict(job, trace_path=str(path)), deadline)
            result["spans"] = spans.summarize(spans.read_spans(path))
            traced.append(result)
        now = time.monotonic()
        if len(plain) >= min_passes and now - t_start + (now - t0) > seconds:
            return setups, plain, traced


# ---------------------------------------------------------------------------
# correctness

def sweep_references(points: list) -> dict:
    """Closed-form (avg_fidelity, avg_success) per point index."""
    from hybrid_teleport import formulas
    from hybrid_teleport.cli import SweepConfig
    from hybrid_teleport.encoding import HybridType

    quad = SweepConfig().quadrature()
    out = {}
    for hy, alpha, r, index in points:
        hybrid, t = HybridType(hy), math.sqrt(1.0 - r * r)
        out[index] = (
            formulas.average_fidelity(hybrid, alpha, t, quad),
            formulas.success_probability(hybrid, alpha, t),
        )
    return out


def check_pass(workload: str, points: list, result: dict, refs: dict) -> tuple:
    """(failed op count, list of correctness problems) for one pass.

    An operation fails on an exception or a non-finite value; a finite
    value that disagrees with the reference is also wrong output.
    """
    failed = sum(op["error"] is not None for op in result["ops"])
    problems = []
    if workload == "closed-sweep":
        lines = REFERENCE.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = sorted(index for *_, index in points)
        expected = lines[0] + "".join(lines[1 + index] for index in rows)
        if result["output"] != expected:
            problems.append("closed-sweep CSV differs from the CLI reference")
    elif workload == "crossval":
        problems += [op["error"] for op in result["ops"] if op["error"]]
    else:
        for (hy, alpha, r, index), op in zip(points, result["ops"]):
            wrong = [
                (value, ref)
                for row in op["values"]
                for value, ref in zip(row, refs[index])
                if math.isfinite(value) and abs(value - ref) > TOLERANCE
            ]
            if wrong:
                failed += op["error"] is None
                problems.append(
                    f"type {hy} alpha={alpha:g} r={r:g}: {wrong[0][0]!r} vs "
                    f"closed form {wrong[0][1]!r}"
                )
    return failed, problems


# ---------------------------------------------------------------------------
# metrics

def percentile(values: list, q: float) -> float:
    """The sample at rank floor(q * n) of the sorted values (the upper median
    for q = 0.5), so a two-mode sample does not average across its gap."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end_metrics(setups: list, plain: list) -> dict:
    """Medians over the run's passes; latency percentiles over all the
    timed operations of all passes."""
    latencies = [x for p in plain for x in p["latencies"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "points_per_s": statistics.median(
            len(p["ops"]) / sum(p["latencies"]) for p in plain
        ),
        "point_p90_ms": 1e3 * percentile(latencies, 0.9),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "point_p50_ms": 1e3 * percentile(latencies, 0.5),
    }


def layer_metrics(plain: list, traced: list) -> dict:
    first = traced[0]
    out = {}
    for name, _ in PER_LAYER:
        span, quantity = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            value = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["wall_s"] for p in plain
            )
        elif quantity in ("hits", "misses"):
            value = first["caches"][span][0 if quantity == "hits" else 1]
        elif quantity == "kept_ratio":
            agg = first["spans"].get(span)
            value = agg["terms_out"] / agg["terms_in"] if agg and agg["terms_in"] else 0.0
        elif quantity == "self_s":
            value = statistics.median(
                p["spans"].get(span, {"self_s": 0.0})["self_s"] for p in traced
            )
        else:
            value = first["spans"].get(span, {quantity: 0})[quantity]
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# entry point

def make_job(workload: str, seed: int) -> dict:
    """The worker job for one workload; sweeps carry the seed's points."""
    kind, engine, make_points = WORKLOADS[workload]
    job = {"workload": workload, "kind": kind, "setup_only": False, "trace_path": None}
    if kind == "sweep":
        job.update(engine=engine, points=make_points(random.Random(seed)))
    else:
        job["checks"] = list(spans.CROSSVAL_CHECKS)
    return job


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result JSON object, summary lines) for one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    job = make_job(workload, seed)
    kind, points = job["kind"], job.get("points", [])
    refs = sweep_references(points) if workload.startswith("fp-") else {}

    setups, plain, traced = run_passes(job, seconds, trace, deadline)
    attempted = failed = 0
    problems = []
    for result in plain + traced:
        n_failed, found = check_pass(workload, points, result, refs)
        attempted += len(result["ops"])
        failed += n_failed
        problems += found
    if len({r["output"] for r in plain + traced}) > 1:
        problems.append("passes of one run printed different output")

    lines = [
        f"workload {workload}, seed {seed}: {len(plain)} untraced and "
        f"{len(traced)} traced cold passes of {len(plain[0]['ops'])} "
        f"{'checks' if kind == 'crossval' else 'points'} each"
    ]
    if trace:
        metrics = layer_metrics(plain, traced)
        units = dict(PER_LAYER)
        busy = statistics.median(sum(p["latencies"]) for p in traced)
        loss_s = metrics["loss.damp_modes.self_s"] + metrics["loss.damp_mode.self_s"]
        lines.append(
            "share of traced point time: beam splitters "
            f"{metrics['engine.apply_beam_splitter.self_s'] / busy:.1%}, "
            f"canonicalize {metrics['engine.TermSum.canonicalized.self_s'] / busy:.1%}, "
            f"loss {loss_s / busy:.1%}"
        )
    else:
        metrics = end_to_end_metrics(setups, plain)
        units = dict(END_TO_END + REPORTED_ONLY)
        n_lat = sum(len(p["latencies"]) for p in plain)
        lines.append(
            f"point latencies over n={n_lat} timed operations; "
            f"setup_s median of {len(setups) + len(plain)} interpreter starts"
        )
    lines += [f"  {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(
        f"  failed_frac = {failed / attempted:.4f} ({failed} of {attempted} operations)"
    )
    lines += [f"  wrong output: {p}" for p in problems[:20]]
    lines.append(f"correct: {not problems}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name not in dict(REPORTED_ONLY)
        },
    }, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybrid_teleport" / "__init__.py").is_file():
        print(f"benchmark error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error in {name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker on its way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
