"""The scripts under scripts/ run end to end on small inputs."""

import importlib.util
import re
from pathlib import Path

from hybrid_teleport.cli import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_decay_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    argv = ["--alphas", "1", "--r-step", "0.5", "--out", str(out), "--crossval-point"]
    assert load("make_decay_curves").main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # both types, r in {0, 0.5}
    diffs = [float(d) for d in re.findall(r"diff (\S+)", capsys.readouterr().out)]
    assert len(diffs) == 2 and max(diffs) < 1e-6


def test_inspect_outcome_groups(capsys):
    assert load("inspect_outcome_groups").main([]) == 0
    rows = [
        line.split()
        for line in capsys.readouterr().out.splitlines()
        if re.match(r"\s+[1-5] ", line)
    ]
    assert len(rows) == 5
    for row in rows:
        p_closed, p_engine, f_closed, f_engine, dist = map(float, row[2:])
        assert abs(p_closed - p_engine) < 1e-8
        assert abs(f_closed - f_engine) < 1e-8
        assert dist < 1e-10
