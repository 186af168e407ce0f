"""Self-test of the benchmark harness on tiny grids.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_QUANTITIES = ("calls", "terms_in", "terms_out", "hits", "misses")


def _tiny(workload: str, n_points: int) -> tuple:
    """The workload's entry, cut to the first `n_points` of each pass."""
    kind, engine, make_points = bench.WORKLOADS[workload]
    return kind, engine, lambda rng: make_points(rng)[:n_points]


def _check_printed(capsys, trace: int, declared) -> None:
    status = bench.main(["--workload", "closed-sweep", "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert status == 0, err
    *lines, last = out.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]


def test_smoke_prints_every_metric_with_its_unit(monkeypatch, capsys):
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    # Workers take their points from the job, so a cut grid reaches them.
    monkeypatch.setitem(bench.WORKLOADS, "closed-sweep", _tiny("closed-sweep", 4))
    _check_printed(capsys, 0, SPEC["end_to_end"])
    _check_printed(capsys, 1, SPEC["per_layer"])


def _traced_pass(seed: int) -> tuple:
    job = bench.make_job("fp-sweep-I", seed)
    job["points"] = job["points"][:1]
    bench.OUT.mkdir(exist_ok=True)
    path = bench.OUT / f"selftest-{seed}.jsonl"
    result = bench.spawn(dict(job, trace_path=str(path)), time.monotonic() + 120)
    counts = {
        (name, q): agg[q]
        for name, agg in spans.summarize(spans.read_spans(path)).items()
        for q in COUNT_QUANTITIES if q in agg
    }
    return result["output"], counts, result["caches"]


def test_traced_runs_on_one_seed_repeat_counts_and_csv_bytes():
    out_a, counts_a, caches_a = _traced_pass(5)
    out_b, counts_b, caches_b = _traced_pass(5)
    assert out_a.startswith("type,alpha,r,t,") and out_a.count("\n") == 2
    assert out_a == out_b
    assert counts_a == counts_b
    assert caches_a == caches_b
    assert counts_a[("engine.apply_beam_splitter", "calls")] > 0


def test_refuses_to_run_without_the_package_source():
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        bench.HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
